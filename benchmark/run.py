#!/usr/bin/env python3
"""Build and run the hive-rs end-to-end benchmark.

    python3 benchmark/run.py --workload tpcds_adhoc --seed 1 --seconds 50 --trace 0
    python3 benchmark/run.py --smoke       # every workload once at tiny scale
    python3 benchmark/run.py --selftest    # the benchmark's own unit tests

Run from the root of a source checkout. The benchmark is a Cargo package of
its own (benchmark/Cargo.toml) built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root). The last line of standard
output is the result object; reports and spans go to .bench_out/.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
# Files whose content identifies the measured program when git is absent.
SOURCE_DIRS = ("crates", "vendor", "benchmark")
SKIP_DIRS = {"target", ".bench_build", ".bench_out", "__pycache__"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def revision():
    """The git commit, or a digest of the sources when not in a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in SOURCE_DIRS + ("Cargo.toml", "Cargo.lock"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def child_env():
    """The environment without HIVE_* overrides, so conf toggles set in the
    caller's shell cannot change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HIVE_")}
    # Relative to the checkout root, like Cargo's own resolution from there.
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    return env


def build(env):
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        log("run.py: no crates/ next to benchmark/: not a hive-rs source checkout")
        return False
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        log("run.py: build timed out")
        return False
    except OSError as e:
        log(f"run.py: cannot run cargo: {e}")
        return False
    return r.returncode == 0


def binary(env):
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "hive-e2e-bench")


def run_binary(env, args):
    """Run the benchmark binary; forward its stdout; return its exit code."""
    cmd = [binary(env)] + args
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark timed out")
        return 3
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


def selftest(env):
    code = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    ).returncode
    py = subprocess.run(
        [sys.executable, "-m", "unittest", "-q", "test_compare"],
        cwd=HERE,
        env=dict(env, PYTHONDONTWRITEBYTECODE="1"),
        timeout=RUN_TIMEOUT_S,
    ).returncode
    return code or py


def main(argv):
    env = child_env()
    if argv == ["--selftest"]:
        return selftest(env)
    if not build(env):
        log("run.py: build failed")
        return 2
    if argv == ["--smoke"]:
        return run_binary(env, ["--smoke", "--out-dir", os.path.join(ROOT, ".bench_out")])
    args = list(argv) + ["--out-dir", os.path.join(ROOT, ".bench_out"), "--revision", revision()]
    return run_binary(env, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
