//! hive-rs end-to-end benchmark.
//!
//! ```text
//! hive-e2e-bench --workload <tpcds_adhoc|ssb_scan|acid_churn> --seed <n>
//!                --seconds <s> --trace <0|1> [--out-dir <dir>] [--revision <rev>]
//! hive-e2e-bench --smoke [--out-dir <dir>]
//! hive-e2e-bench --record-digests <dir>
//! ```
//!
//! One client drives one in-process `HiveServer` through `Session::execute`
//! in a closed loop and checks every result. With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` it carries
//! the per-layer metrics of a separate traced replay. See README.md.

mod hostspeed;
mod model;
mod rng;
mod stats;
mod trace;
mod workload;

use hive_core::QueryResult;
use hostspeed::HostClock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Counters, Recorder};
use workload::{Kind, Name, Scale, Stmt, Workload};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sql.parse_ms", "ms"),
    ("optimizer.analyze_ms", "ms"),
    ("optimizer.exhaustive_ms", "ms"),
    ("optimizer.join_reorder_ms", "ms"),
    ("optimizer.partition_prune_ms", "ms"),
    ("optimizer.prune_columns_ms", "ms"),
    ("optimizer.semijoin_ms", "ms"),
    ("optimizer.plan_share", "ratio"),
    ("exec.execute_ms", "ms"),
    ("common.decode_ms", "ms"),
    ("exec.rows_processed", "rows/stmt"),
    ("exec.pir_compiled_stages", "count/stmt"),
    ("exec.pir_fallback_ratio", "ratio"),
    ("exec.shared_reuse_nodes", "count/stmt"),
    ("exec.reexecutions", "count"),
    ("exec.bytes_spilled", "bytes"),
    ("llap.hit_ratio", "ratio"),
    ("llap.misses", "count/stmt"),
    ("llap.evictions", "count/stmt"),
    ("llap.bytes_loaded", "bytes/stmt"),
    ("dfs.bytes_disk", "bytes/stmt"),
    ("dfs.io_ops", "count/stmt"),
    ("core.results_cache_hit_ratio", "ratio"),
    ("acid.visible_deltas", "count"),
    ("acid.bytes_per_live_row", "bytes"),
    ("metastore.compactions", "count"),
    ("acid.compaction_stall_ms", "ms"),
    ("exec.sim_ms", "ms"),
    ("exec.sim_wall_corr", "ratio"),
    ("exec.sim_wall_spearman", "ratio"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.replay_match_ratio", "ratio"),
    ("bench.error_rate", "ratio"),
    ("bench.traced_statements", "count"),
];

/// Metrics only a workload that writes reports: the read workloads issue
/// no DML and have no written table.
const WRITE_ONLY: [&str; 6] = [
    "write_p50_ms",
    "write_p95_ms",
    "acid.visible_deltas",
    "acid.bytes_per_live_row",
    "metastore.compactions",
    "acid.compaction_stall_ms",
];

/// The metrics of `list` a workload reports.
fn reported(
    list: &[(&'static str, &'static str)],
    writes: bool,
) -> Vec<(&'static str, &'static str)> {
    list.iter()
        .copied()
        .filter(|(n, _)| writes || !WRITE_ONLY.contains(n))
        .collect()
}

/// Set-ups per episode (`setup_s` is the median over every episode of a
/// run): at least the minimum, and more, up to the maximum, until the
/// budget of set-up time is spent, so a fast set-up is repeated more often.
/// Set-ups spread over the whole run follow the host's speed the way the
/// other metrics do; set-ups bunched at its start did not (on the bench
/// host their run-to-run spread was 19-35%). A set-up's time varies by up
/// to 1.6× within a run, so the median needs many of them: with a budget of
/// 0.8 s `tpcds_adhoc` (about 0.4 s per set-up) got 14-22 a run and spread
/// 11% over ten seeds; with 1.6 s, 4-6%.
const SETUP_MIN_REPS: usize = 2;
const SETUP_MAX_REPS: usize = 8;
const SETUP_BUDGET: Duration = Duration::from_millis(1600);
/// A run never measures longer than this, even when short of samples.
const MAX_MEASURE: Duration = Duration::from_secs(120);
/// Host threads per query. One thread keeps the measurement off the
/// host scheduler: on a shared 2-vCPU host a second worker mostly waits
/// for the slower (stolen) core and doubles the run-to-run spread.
const MAX_THREADS: usize = 1;

struct Args {
    workload: Option<Name>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record_digests: Option<PathBuf>,
    out_dir: PathBuf,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        record_digests: None,
        out_dir: PathBuf::from(".bench_out"),
        revision: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(Name::parse(&v).ok_or(format!("unknown workload {v}"))?)
            }
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad seed {v}"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?;
                if !a.seconds.is_finite() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out-dir" => a.out_dir = PathBuf::from(v),
            "--revision" => a.revision = v,
            "--record-digests" => a.record_digests = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_none() && !a.smoke && a.record_digests.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Peak resident set of this process (Linux `VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One executed statement of an untraced loop.
struct Sample {
    id: String,
    kind: Kind,
    ms: f64,
    sim_ms: f64,
    /// Midpoint of the call, seconds into the run.
    at_s: f64,
}

/// Counts and samples of a closed loop.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    samples: Vec<Sample>,
    errors: Vec<String>,
    /// Every timed set-up: (midpoint seconds into the run, seconds).
    setups: Vec<(f64, f64)>,
    clock: HostClock,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect()
    }

    /// Latencies of `kind` on the nominal-speed host (see [`hostspeed`]).
    fn nominal_latencies(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms * self.clock.scale_at(s.at_s))
            .collect()
    }

    /// Statements per second of time spent inside `Session::execute`
    /// (the client's own generation and checking excluded).
    fn ops_per_s(&self) -> f64 {
        let busy_ms: f64 = self.samples.iter().map(|s| s.ms).sum();
        self.samples.len() as f64 / (busy_ms / 1e3)
    }

    /// [`Tally::ops_per_s`] on the nominal-speed host.
    fn nominal_ops_per_s(&self) -> f64 {
        let busy_ms: f64 = self
            .samples
            .iter()
            .map(|s| s.ms * self.clock.scale_at(s.at_s))
            .sum();
        self.samples.len() as f64 / (busy_ms / 1e3)
    }

    fn setup_s(&self) -> Vec<f64> {
        self.setups.iter().map(|s| s.1).collect()
    }

    fn nominal_setup_s(&self) -> Vec<f64> {
        self.setups
            .iter()
            .map(|&(at, s)| s * self.clock.scale_at(at))
            .collect()
    }

    /// Reads, and writes when the workload writes, can support a p95.
    fn has_tail_samples(&self, writes: bool) -> bool {
        stats::supports(0.95, self.latencies(Kind::Read).len())
            && (!writes || stats::supports(0.95, self.latencies(Kind::Write).len()))
    }
}

/// Run one statement through `Session::execute`, timed, then check it.
/// Returns the result and its latency whenever the system answered; a
/// wrong answer still counts as failed.
fn run_stmt(w: &mut Workload, st: &Stmt, tally: &mut Tally) -> Option<(QueryResult, f64, f64)> {
    tally.clock.tick();
    tally.attempted += 1;
    let at = tally.clock.now_s();
    let t = Instant::now();
    let r = w.session.execute(&st.sql);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match r {
        Ok(res) => {
            if let Err(e) = w.check(st, &res) {
                tally.fail(e);
            }
            Some((res, ms, at + ms / 2e3))
        }
        Err(e) => {
            tally.fail(format!("{}: {e}", st.id));
            None
        }
    }
}

/// One pass, every statement timed and checked.
fn measured_pass(w: &mut Workload, tally: &mut Tally) {
    w.begin_pass();
    for _ in 0..w.pass_len() {
        let st = w.next_stmt();
        if let Some((res, ms, at_s)) = run_stmt(w, &st, tally) {
            tally.samples.push(Sample {
                id: st.id.clone(),
                kind: st.kind,
                ms,
                sim_ms: res.sim_ms,
                at_s,
            });
        }
    }
}

/// One warm-up pass: caches fill and lazy set-up finishes before timing.
fn warm_up(w: &mut Workload, tally: &mut Tally) {
    w.begin_pass();
    for _ in 0..w.pass_len() {
        let st = w.next_stmt();
        run_stmt(w, &st, tally);
    }
}

/// What every episode of a run sets up.
#[derive(Clone, Copy)]
struct RunSpec {
    name: Name,
    scale: Scale,
    seed: u64,
    threads: usize,
}

/// Set up one episode's server, timed and repeated; keeps the last.
fn set_up(spec: RunSpec, episode: u64, tally: &mut Tally) -> hive_common::Result<Workload> {
    let start = Instant::now();
    let mut w = None;
    let mut reps = 0;
    while reps < SETUP_MIN_REPS || (start.elapsed() < SETUP_BUDGET && reps < SETUP_MAX_REPS) {
        drop(w.take());
        tally.clock.tick();
        let at = tally.clock.now_s();
        let t = Instant::now();
        w = Some(Workload::setup(
            spec.name,
            spec.scale,
            spec.seed,
            episode,
            spec.threads,
        )?);
        let s = t.elapsed().as_secs_f64();
        tally.setups.push((at + s / 2.0, s));
        reps += 1;
    }
    tally.clock.tick();
    Ok(w.expect("set up at least once"))
}

/// Closed loop over episodes until `budget` has elapsed (at least one
/// episode) and, when `need_tail`, reads (and writes, if the workload
/// writes) can support a p95. An episode sets up a fresh server (only one
/// is alive at a time), runs one warm-up pass, then
/// [`Name::episode_passes`] passes through `pass`, then checks the written
/// table. Returns the last episode's workload and the episode count.
fn run_episodes(
    spec: RunSpec,
    budget: Duration,
    need_tail: bool,
    tally: &mut Tally,
    pass: &mut dyn FnMut(&mut Workload, &mut Tally),
) -> hive_common::Result<(Workload, u64)> {
    let start = Instant::now();
    let mut last: Option<Workload> = None;
    let mut episode = 0;
    loop {
        drop(last.take());
        let mut w = set_up(spec, episode, tally)?;
        episode += 1;
        warm_up(&mut w, tally);
        for _ in 0..spec.name.episode_passes() {
            pass(&mut w, tally);
        }
        if let Err(e) = w.final_check() {
            tally.fail(e);
        }
        let elapsed = start.elapsed();
        let enough = !need_tail || tally.has_tail_samples(w.written_table.is_some());
        if (elapsed >= budget && enough) || elapsed >= MAX_MEASURE {
            return Ok((w, episode));
        }
        last = Some(w);
    }
}

/// Per read template: (wall p50 ms, sim_ms p50).
fn calibration(samples: &[Sample]) -> BTreeMap<String, (f64, f64)> {
    let mut by_id: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.kind == Kind::Read) {
        let e = by_id.entry(s.id.clone()).or_default();
        e.0.push(s.ms);
        e.1.push(s.sim_ms);
    }
    by_id
        .into_iter()
        .map(|(id, (wall, sim))| {
            (
                id,
                (
                    stats::median(&wall).expect("non-empty"),
                    stats::median(&sim).expect("non-empty"),
                ),
            )
        })
        .collect()
}

/// Record `llap_cache_bytes` and the resident working set beside it. Where
/// the workload's cache holds everything the resident bytes are the
/// working set; `ssb_scan`'s is measured by one pass on a twin server
/// with the (far larger) default cache. Call after every timed section.
fn cache_facts(
    facts: &mut Facts,
    w: &Workload,
    name: Name,
    scale: Scale,
    threads: usize,
) -> hive_common::Result<()> {
    let ws = if name == Name::SsbScan {
        let server = workload::load_read_data(name, scale, workload::base_conf(threads))?;
        let session = server.session();
        for (_, sql) in workload::read_queries(name) {
            session.execute(&sql)?;
        }
        server.llap().cache().resident_bytes()
    } else {
        w.server.llap().cache().resident_bytes()
    };
    facts.set("llap_cache_bytes", w.server.conf().llap_cache_bytes);
    facts.set("working_set_bytes", ws);
    Ok(())
}

struct Facts {
    map: BTreeMap<&'static str, String>,
}

impl Facts {
    fn new(args: &Args, name: Name, scale: Scale, threads: usize) -> Facts {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut map = BTreeMap::new();
        map.insert("workload", json_str(name.as_str()));
        map.insert("scale", json_str(scale.as_str()));
        map.insert("seed", args.seed.to_string());
        let data_seed = match name {
            Name::AcidChurn => args.seed,
            Name::TpcdsAdhoc | Name::SsbScan => workload::DATA_SEED,
        };
        map.insert("data_seed", data_seed.to_string());
        map.insert("revision", json_str(&args.revision));
        map.insert("nproc", nproc.to_string());
        map.insert("parallel_threads", threads.to_string());
        map.insert("trace", args.trace.to_string());
        Facts { map }
    }

    fn set(&mut self, k: &'static str, v: impl ToString) {
        self.map.insert(k, v.to_string());
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .map
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|e| json_str(e)).collect();
    format!("[{}]", quoted.join(","))
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v}")
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        m.join(",")
    )
}

/// Outcome of one workload run.
struct Outcome {
    /// Every statement succeeded and matched its reference.
    correct: bool,
    /// A traced replay differed from the session path: its per-layer
    /// numbers are not to be trusted.
    drifted: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    facts: Facts,
    spans: Option<Recorder>,
}

fn written_table(w: &Workload) -> hive_metastore::Table {
    let name = w.written_table.expect("the workload writes");
    w.server
        .metastore()
        .get_table("default", name)
        .expect("written table exists")
}

/// Visible deltas of the written table.
fn visible_deltas(w: &Workload) -> usize {
    let ms = w.server.metastore();
    let table = written_table(w);
    let wlist = ms.valid_write_ids(&table.qualified_name(), &ms.valid_txn_list(), None);
    hive_acid::resolve_snapshot(
        w.server.fs(),
        &hive_dfs::DfsPath::new(&table.location),
        &wlist,
    )
    .delta_count()
}

fn table_bytes(w: &Workload) -> u64 {
    let table = written_table(w);
    w.server
        .fs()
        .list_files_recursive(&hive_dfs::DfsPath::new(&table.location))
        .iter()
        .map(|(_, m)| m.len)
        .sum()
}

fn run_untraced(
    args: &Args,
    name: Name,
    scale: Scale,
    threads: usize,
    need_tail: bool,
) -> hive_common::Result<Outcome> {
    let mut facts = Facts::new(args, name, scale, threads);
    let spec = RunSpec {
        name,
        scale,
        seed: args.seed,
        threads,
    };
    let mut tally = Tally::default();
    let t = Instant::now();
    let (w, episodes) = run_episodes(
        spec,
        Duration::from_secs_f64(args.seconds),
        need_tail,
        &mut tally,
        &mut measured_pass,
    )?;
    facts.set("measured_s", t.elapsed().as_secs_f64());
    facts.set("episodes", episodes);
    let peak = peak_rss_mb();
    cache_facts(&mut facts, &w, name, scale, threads)?;
    let setup_s = tally.setup_s();
    facts.set("setup_runs_s", format!("{setup_s:?}"));

    let reads = tally.nominal_latencies(Kind::Read);
    let writes = tally.nominal_latencies(Kind::Write);
    facts.set("read_samples", reads.len());
    facts.set("write_samples", writes.len());
    facts.set(
        "read_samples_above_p95",
        stats::samples_above(0.95, reads.len()),
    );
    facts.set(
        "write_samples_above_p95",
        stats::samples_above(0.95, writes.len()),
    );
    facts.set(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    let cal = calibration(&tally.samples);
    let cal_json: Vec<String> = cal
        .iter()
        .map(|(id, (wall, sim))| {
            format!(
                "{{\"id\":{},\"wall_p50_ms\":{wall},\"sim_ms\":{sim}}}",
                json_str(id)
            )
        })
        .collect();
    facts.set("calibration", format!("[{}]", cal_json.join(",")));
    facts.set("errors", json_list(&tally.errors));

    let q = |xs: &[f64], p: f64| stats::quantile(xs, p).unwrap_or(0.0);
    let raw_reads = tally.latencies(Kind::Read);
    let kernel_ms = tally.clock.kernel_ms();
    facts.set("host_kernel_runs", kernel_ms.len());
    facts.set("host_kernel_nominal_ms", hostspeed::NOMINAL_MS);
    facts.set("host_kernel_p10_ms", q(&kernel_ms, 0.1));
    facts.set("host_kernel_p50_ms", q(&kernel_ms, 0.5));
    facts.set("host_kernel_p90_ms", q(&kernel_ms, 0.9));
    facts.set("raw_setup_s", stats::median(&setup_s).expect("setups ran"));
    facts.set("raw_ops_per_s", tally.ops_per_s());
    facts.set("raw_read_p50_ms", q(&raw_reads, 0.5));
    facts.set("raw_read_p95_ms", q(&raw_reads, 0.95));
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        (
            "setup_s",
            stats::median(&tally.nominal_setup_s()).expect("setups ran"),
        ),
        ("ops_per_s", tally.nominal_ops_per_s()),
        ("read_p50_ms", q(&reads, 0.5)),
        ("read_p95_ms", q(&reads, 0.95)),
        ("write_p50_ms", q(&writes, 0.5)),
        ("write_p95_ms", q(&writes, 0.95)),
        ("peak_rss_mb", peak),
    ]);
    let does_write = w.written_table.is_some();
    let metrics = reported(&END_TO_END, does_write)
        .into_iter()
        .map(|(n, u)| (n, u, values[n]))
        .collect();
    let tail_ok = !need_tail || tally.has_tail_samples(does_write);
    if !tail_ok {
        tally.errors.push("too few samples to support p95".into());
    }
    Ok(Outcome {
        correct: tally.failed == 0 && tail_ok,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        facts,
        drifted: false,
        spans: None,
    })
}

/// Accumulators of the traced phase.
#[derive(Default)]
struct LayerTotals {
    layer_ns: BTreeMap<&'static str, u64>,
    reads: u64,
    matched: u64,
    counters: Counters,
    rows_out: u64,
    rows_in: u64,
    pir_stages: u64,
    pir_fallback: u64,
    shared_reuse: u64,
    spilled: u64,
    reexecutions: u64,
    cache_hits: u64,
    sim_ms: f64,
    /// Every traced statement: (midpoint seconds into the run, ms).
    traced: Vec<(f64, f64)>,
    statements: u64,
    deltas: Vec<f64>,
    stalls: Vec<f64>,
    /// Compactions that ran inside a traced write.
    compactions: usize,
}

fn run_traced(
    args: &Args,
    name: Name,
    scale: Scale,
    threads: usize,
) -> hive_common::Result<Outcome> {
    let mut facts = Facts::new(args, name, scale, threads);
    let conf = workload::workload_conf(name, scale, threads);
    assert_eq!(
        conf.effective_memory_per_query_bytes(),
        0,
        "the replay mirrors the unbudgeted execution path"
    );
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let spec = RunSpec {
        name,
        scale,
        seed: args.seed,
        threads,
    };
    let mut tally = Tally::default();

    // Phase A, untraced: the reference throughput and the calibration.
    run_episodes(spec, half, false, &mut tally, &mut measured_pass)?;
    facts.set(
        "setup_s",
        stats::median(&tally.setup_s()).expect("setups ran"),
    );
    let untraced_ops = tally.nominal_ops_per_s();
    let cal = calibration(&tally.samples);

    // Phase B, traced, on the same episodes: every SELECT is replayed layer
    // by layer, then run through `Session::execute` as the drift reference.
    let mut rec = Recorder::new();
    let mut lt = LayerTotals::default();
    let mut drift: Vec<String> = Vec::new();
    let mut stmt_no = 0u64;
    let mut traced_pass = |w: &mut Workload, tally: &mut Tally| {
        w.begin_pass();
        for _ in 0..w.pass_len() {
            let st = w.next_stmt();
            stmt_no += 1;
            lt.statements += 1;
            match st.kind {
                Kind::Read => {
                    tally.clock.tick();
                    tally.attempted += 1;
                    let at = tally.clock.now_s();
                    let replay = match trace::replay(&w.server, &conf, &mut rec, stmt_no, &st.sql) {
                        Ok(r) => r,
                        Err(e) => {
                            tally.fail(format!("{} (replay): {e}", st.id));
                            continue;
                        }
                    };
                    let reference = match w.session.execute(&st.sql) {
                        Ok(r) => r,
                        Err(e) => {
                            tally.fail(format!("{}: {e}", st.id));
                            continue;
                        }
                    };
                    let explain = w
                        .session
                        .execute(&format!("EXPLAIN {}", st.sql))
                        .ok()
                        .and_then(|r| r.message);
                    let replay_rows: Vec<String> = replay
                        .batch
                        .to_rows()
                        .iter()
                        .map(|r| r.to_string())
                        .collect();
                    let same_rows =
                        workload::digest_lines(&replay_rows) == workload::digest(&reference);
                    let same_plan = replay.plan_matches_optimizer
                        && explain.as_deref() == Some(replay.plan.explain().as_str());
                    if same_rows && same_plan {
                        lt.matched += 1;
                    } else if drift.len() < 5 {
                        drift.push(format!(
                            "{}: rows match {same_rows}, plan match {same_plan}",
                            st.id
                        ));
                    }
                    if let Err(e) = w.check(&st, &reference) {
                        tally.fail(e);
                    }
                    lt.reads += 1;
                    let ms = replay.wall_ns as f64 / 1e6;
                    lt.traced.push((at + ms / 2e3, ms));
                    lt.counters.add(&replay.counters);
                    let tr = &replay.trace;
                    lt.rows_out += tr.total(|n| n.rows_out);
                    lt.rows_in += tr.total(|n| n.rows_in);
                    lt.pir_stages += tr.total(|n| n.pir_compiled_stages);
                    lt.pir_fallback += tr.total(|n| n.pir_fallback_rows);
                    lt.shared_reuse += tr.total(|n| n.shared_reuse as u64);
                    lt.spilled += tr.total(|n| n.bytes_spilled);
                    lt.sim_ms +=
                        hive_exec::simulate_ms(tr, &conf, &hive_exec::SimCostModel::default());
                    lt.reexecutions += reference.reexecuted as u64;
                    lt.cache_hits += reference.from_cache as u64;
                }
                Kind::Write => {
                    let before = w.compactions();
                    let t0 = rec.now_ns();
                    if let Some((_, ms, at)) = run_stmt(w, &st, tally) {
                        let ns = (ms * 1e6) as u64;
                        rec.spans.push(trace::Span {
                            stmt: stmt_no,
                            name: "statement",
                            start_ns: t0,
                            end_ns: t0 + ns,
                            parent: None,
                        });
                        lt.traced.push((at, ms));
                        let compacted = w.compactions() - before;
                        if compacted > 0 {
                            lt.compactions += compacted;
                            lt.stalls.push(ms);
                        }
                        lt.deltas.push(visible_deltas(w) as f64);
                    }
                }
            }
        }
    };
    let (w, _) = run_episodes(spec, half, false, &mut tally, &mut traced_pass)?;
    let does_write = w.written_table.is_some();
    let bytes_per_row = if does_write {
        table_bytes(&w) as f64 / w.live_rows().max(1) as f64
    } else {
        0.0
    };

    cache_facts(&mut facts, &w, name, scale, threads)?;
    facts.set("traced_reads", lt.reads);
    facts.set("untraced_ops_per_s", untraced_ops);
    facts.set("errors", json_list(&tally.errors));
    facts.set("drift", json_list(&drift));

    let reads = lt.reads.max(1) as f64;
    for (name, ns) in rec
        .spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| (s.name, s.end_ns - s.start_ns))
    {
        *lt.layer_ns.entry(name).or_default() += ns;
    }
    let layer_ms = |l: &str| *lt.layer_ns.get(l).unwrap_or(&0) as f64 / 1e6 / reads;
    let total_ns: u64 = lt.layer_ns.values().sum();
    let plan_ns: u64 = lt
        .layer_ns
        .iter()
        .filter(|(l, _)| trace::is_planning(l))
        .map(|(_, v)| v)
        .sum();
    let c = &lt.counters;
    let hit_ratio = if c.llap_hits + c.llap_misses == 0 {
        0.0
    } else {
        c.llap_hits as f64 / (c.llap_hits + c.llap_misses) as f64
    };
    let (walls, sims): (Vec<f64>, Vec<f64>) = cal.values().copied().unzip();
    let traced_ms: f64 = lt
        .traced
        .iter()
        .map(|&(at, ms)| ms * tally.clock.scale_at(at))
        .sum();
    let traced_ops = lt.statements as f64 / (traced_ms / 1e3);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| values.insert(k.to_string(), v);
    for l in trace::LAYERS {
        put(&format!("{l}_ms"), layer_ms(l));
    }
    put(
        "optimizer.plan_share",
        plan_ns as f64 / total_ns.max(1) as f64,
    );
    put("exec.rows_processed", lt.rows_out as f64 / reads);
    put("exec.pir_compiled_stages", lt.pir_stages as f64 / reads);
    put(
        "exec.pir_fallback_ratio",
        lt.pir_fallback as f64 / lt.rows_in.max(1) as f64,
    );
    put("exec.shared_reuse_nodes", lt.shared_reuse as f64 / reads);
    put("exec.reexecutions", lt.reexecutions as f64);
    put("exec.bytes_spilled", lt.spilled as f64);
    put("llap.hit_ratio", hit_ratio);
    put("llap.misses", c.llap_misses as f64 / reads);
    put("llap.evictions", c.llap_evictions as f64 / reads);
    put("llap.bytes_loaded", c.llap_bytes_loaded as f64 / reads);
    put("dfs.bytes_disk", c.dfs_bytes as f64 / reads);
    put("dfs.io_ops", c.dfs_ops as f64 / reads);
    put("core.results_cache_hit_ratio", lt.cache_hits as f64 / reads);
    put(
        "acid.visible_deltas",
        stats::median(&lt.deltas).unwrap_or(0.0),
    );
    put("acid.bytes_per_live_row", bytes_per_row);
    put("metastore.compactions", lt.compactions as f64);
    put(
        "acid.compaction_stall_ms",
        stats::median(&lt.stalls).unwrap_or(0.0),
    );
    put("exec.sim_ms", lt.sim_ms / reads);
    put(
        "exec.sim_wall_corr",
        stats::pearson(&sims, &walls).unwrap_or(0.0),
    );
    put(
        "exec.sim_wall_spearman",
        stats::spearman(&sims, &walls).unwrap_or(0.0),
    );
    put("bench.tracing_overhead", untraced_ops / traced_ops - 1.0);
    put("bench.replay_match_ratio", lt.matched as f64 / reads);
    put(
        "bench.error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    put("bench.traced_statements", lt.statements as f64);
    let metrics = reported(&PER_LAYER, does_write)
        .into_iter()
        .map(|(n, u)| (n, u, values[n]))
        .collect();
    Ok(Outcome {
        drifted: !drift.is_empty() || lt.matched != lt.reads,
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        facts,
        spans: Some(rec),
    })
}

fn write_outputs(args: &Args, tag: &str, out: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let report = format!(
        "{{\"facts\":{},\"result\":{}}}\n",
        out.facts.to_json(),
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    std::fs::write(args.out_dir.join(format!("{tag}.report.json")), report)?;
    if let Some(rec) = &out.spans {
        std::fs::write(
            args.out_dir.join(format!("{tag}.spans.jsonl")),
            rec.to_json_lines(),
        )?;
    }
    Ok(())
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS)
}

fn run_one(args: &Args, name: Name) -> i32 {
    let threads = threads();
    let outcome = if args.trace {
        run_traced(args, name, Scale::Bench, threads)
    } else {
        run_untraced(args, name, Scale::Bench, threads, true)
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return 2;
        }
    };
    let tag = format!(
        "{}-seed{}-trace{}",
        name.as_str(),
        args.seed,
        args.trace as u8
    );
    if let Err(e) = write_outputs(args, &tag, &out) {
        eprintln!("cannot write outputs: {e}");
        return 2;
    }
    println!("{{\"facts\":{}}}", out.facts.to_json());
    if !out.correct || out.drifted {
        eprintln!("run is not correct: {}", out.facts.to_json());
    }
    // A run that completed reports its verdict in `correct` and exits 0.
    // A drifted traced run withholds its per-layer numbers.
    let shown: &[(&str, &str, f64)] = if out.drifted { &[] } else { &out.metrics };
    println!(
        "{}",
        result_line(
            out.correct && !out.drifted,
            out.attempted,
            out.failed,
            shown
        )
    );
    0
}

/// Each workload once at tiny scale, untraced and traced; validates that
/// every metric is present, finite and that every result was correct.
fn smoke(args: &Args) -> i32 {
    let mut attempted = 0;
    let mut failed = 0;
    let mut ok = true;
    for name in Name::ALL {
        for traced in [false, true] {
            let a = Args {
                trace: traced,
                seconds: 0.05,
                workload: Some(name),
                record_digests: None,
                out_dir: args.out_dir.clone(),
                revision: args.revision.clone(),
                ..*args
            };
            let outcome = if traced {
                run_traced(&a, name, Scale::Tiny, threads())
            } else {
                run_untraced(&a, name, Scale::Tiny, threads(), false)
            };
            let out = match outcome {
                Ok(o) => o,
                Err(e) => {
                    println!("smoke {} trace={traced}: error {e}", name.as_str());
                    ok = false;
                    continue;
                }
            };
            let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            let want: Vec<&str> = reported(list, name == Name::AcidChurn)
                .iter()
                .map(|m| m.0)
                .collect();
            let got: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
            let valid = out.correct
                && !out.drifted
                && out.attempted > 0
                && got == want
                && out.metrics.iter().all(|m| m.2.is_finite());
            println!(
                "smoke {} trace={traced}: attempted {} failed {} metrics {} -> {}",
                name.as_str(),
                out.attempted,
                out.failed,
                got.len(),
                if valid { "ok" } else { "INVALID" }
            );
            if !valid {
                println!("  facts: {}", out.facts.to_json());
            }
            ok &= valid;
            attempted += out.attempted;
            failed += out.failed;
        }
    }
    println!("{}", result_line(ok, attempted, failed, &[]));
    if ok {
        0
    } else {
        1
    }
}

/// Record the read workloads' reference digests on a configuration that
/// shares none of the timed path's fast paths (row-mode interpreter, no
/// LLAP, no CBO, no shared work, no semijoin reduction, one thread), then
/// confirm the timed configuration agrees.
fn record_digests(dir: &Path) -> i32 {
    let reference = hive_common::HiveConf::v3_1().with(|c| {
        c.vectorized = false;
        c.pir_enabled = false;
        c.llap_enabled = false;
        c.cbo_enabled = false;
        c.shared_work = false;
        c.semijoin_reduction = false;
        c.histograms_enabled = false;
        c.dictionary_enabled = false;
        c.selvec_enabled = false;
        c.rawtable_enabled = false;
        c.results_cache = false;
        c.mv_rewriting = false;
        c.parallel_threads = 1;
    });
    let mut code = 0;
    for name in [Name::TpcdsAdhoc, Name::SsbScan] {
        for scale in [Scale::Bench, Scale::Tiny] {
            let run = |conf| -> hive_common::Result<Vec<(String, usize, u64)>> {
                let server = workload::load_read_data(name, scale, conf)?;
                let s = server.session();
                workload::read_queries(name)
                    .into_iter()
                    .map(|(id, sql)| {
                        let (rows, d) = workload::digest(&s.execute(&sql)?);
                        Ok((id, rows, d))
                    })
                    .collect()
            };
            let (r, t) = match (
                run(reference.clone()),
                run(workload::workload_conf(name, scale, threads())),
            ) {
                (Ok(r), Ok(t)) => (r, t),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{} {}: {e}", name.as_str(), scale.as_str());
                    return 2;
                }
            };
            for (a, b) in r.iter().zip(&t) {
                if a != b {
                    eprintln!(
                        "{} {}: timed path disagrees on {}",
                        name.as_str(),
                        scale.as_str(),
                        a.0
                    );
                    code = 1;
                }
            }
            let text: String = r
                .iter()
                .map(|(id, rows, d)| format!("{id}\t{rows}\t{d:016x}\n"))
                .collect();
            let path = dir.join(format!("{}.{}.tsv", name.as_str(), scale.as_str()));
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("{}: {e}", path.display());
                return 2;
            }
            println!("wrote {}", path.display());
        }
    }
    code
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(64);
        }
    };
    let code = if let Some(dir) = &args.record_digests {
        record_digests(dir)
    } else if args.smoke {
        smoke(&args)
    } else {
        run_one(&args, args.workload.expect("checked in parse_args"))
    };
    std::process::exit(code);
}
