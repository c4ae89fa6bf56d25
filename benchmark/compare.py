#!/usr/bin/env python3
"""Spread and regression checks for the end-to-end benchmark, against the
bounds declared in BENCHMARK.json.

    # ten seeds of one workload -> one JSON line per run
    python3 benchmark/compare.py sweep --workload ssb_scan --seeds 1-10 --out ssb.jsonl
    # quartile spread of each end-to-end metric, as a share of its median
    python3 benchmark/compare.py spread ssb.jsonl
    # parent vs change: each metric's median may worsen by at most its bound
    python3 benchmark/compare.py compare parent.jsonl change.jsonl
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worsening(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better)."""
    delta = change - parent if better == "lower" else parent - change
    return delta / parent


def invalid(records):
    """Lines naming every run that did not exit 0, was not correct or had a
    failed statement: such a run's figures prove nothing."""
    lines = []
    for r in records:
        res = r.get("result", {})
        if r.get("exit") != 0 or res.get("correct") is not True or res.get("failed", 1) != 0:
            lines.append(
                f"{r['workload']:12s} seed {r.get('seed')}: exit {r.get('exit')} "
                f"correct {res.get('correct')} failed {res.get('failed')} INVALID"
            )
    return lines


def by_workload(records):
    """{workload: {metric: [values]}} from result records."""
    out = {}
    for r in records:
        metrics = out.setdefault(r["workload"], {})
        for name, m in r["result"].get("metrics", {}).items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def runs_per_workload(records):
    out = {}
    for r in records:
        out[r["workload"]] = out.get(r["workload"], 0) + 1
    return out


def check_spread(spec, records):
    """(ok, lines): every run valid, reporting every end-to-end metric, and
    every end-to-end spread, setup_s's too, within its bound."""
    bad_runs = invalid(records)
    ok, lines = not bad_runs, list(bad_runs)
    runs = runs_per_workload(records)
    for wl, metrics in sorted(by_workload(records).items()):
        for m in spec["end_to_end"]:
            vals = metrics.get(m["name"], [])
            if len(vals) != runs[wl] or len(vals) < 2:
                ok = False
                lines.append(f"{wl:12s} {m['name']:14s} in {len(vals)} of {runs[wl]} runs FAIL")
                continue
            s = spread(vals)
            bad = s > m["bound"]
            ok &= not bad
            lines.append(
                f"{wl:12s} {m['name']:14s} median {statistics.median(vals):12.6g} "
                f"spread {s:7.2%} bound {m['bound']:.0%} (third {m['bound'] / 3:.2%})"
                + (" FAIL" if bad else "")
            )
    return ok, lines


def check_compare(spec, parent, change):
    """(ok, lines): no end-to-end median worse than the parent's by more
    than its bound, on any workload, and every run of both sides valid and
    reporting every end-to-end metric."""
    bad_runs = invalid(parent) + invalid(change)
    ok, lines = not bad_runs, list(bad_runs)
    p, c = by_workload(parent), by_workload(change)
    for wl in sorted(set(p) | set(c)):
        for m in spec["end_to_end"]:
            pv, cv = p.get(wl, {}).get(m["name"]), c.get(wl, {}).get(m["name"])
            if not pv or not cv:
                ok = False
                lines.append(f"{wl:12s} {m['name']:14s} missing FAIL")
                continue
            w = worsening(statistics.median(pv), statistics.median(cv), m["better"])
            bad = w > m["bound"]
            ok &= not bad
            lines.append(
                f"{wl:12s} {m['name']:14s} parent {statistics.median(pv):12.6g} "
                f"change {statistics.median(cv):12.6g} worse by {w:+7.2%} bound {m['bound']:.0%}"
                + (" FAIL" if bad else "")
            )
    return ok, lines


def read_records(paths):
    records = []
    for p in paths:
        with open(p) as f:
            records += [json.loads(line) for line in f if line.strip()]
    return records


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def sweep(spec, workload, seed_list, out, trace):
    cmd = spec["command"]
    with open(out, "a") as f:
        for seed in seed_list:
            r = subprocess.run(
                cmd
                + ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
                timeout=900,
            )
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                result = {}
            rec = {"workload": workload, "seed": seed, "trace": trace, "exit": r.returncode, "result": result}
            f.write(json.dumps(rec) + "\n")
            f.flush()
            print(f"{workload} seed {seed}: exit {r.returncode} correct {result.get('correct')}", flush=True)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--trace", type=int, default=0)
    s.add_argument("--out", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("files", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    a = ap.parse_args(argv)
    spec = load_spec()
    if a.cmd == "sweep":
        sweep(spec, a.workload, seeds(a.seeds), a.out, a.trace)
        return 0
    if a.cmd == "spread":
        ok, lines = check_spread(spec, [r for r in read_records(a.files) if r["trace"] == 0])
    else:
        ok, lines = check_compare(spec, read_records([a.parent]), read_records([a.change]))
    print("\n".join(lines))
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
