//! Spill differential suite: the per-query memory budget
//! (`hive.exec.memory.per.query.bytes`) may only change *where*
//! blocking operators keep their working state — never results. Every
//! curated TPC-DS query must return byte-identical rows with an
//! unlimited budget and with a budget tiny enough to force grace joins,
//! spilled group-bys, and external sorts — fault-free, under a seeded
//! spill-targeted fault plan with recovery, and across the 1/2/8 thread
//! sweep. Property tests then drive the recursive partition planner
//! against the adversarial case it must survive: a build side that is
//! one giant key and therefore can never be split.

use hive_exec::spill::{plan_partition, MAX_DEPTH, MAX_FANOUT};
use hive_warehouse::benchdata::tpcds::{self, TpcdsScale};
use hive_warehouse::{FaultPlan, HiveConf, HiveServer};
use proptest::prelude::*;

mod golden;

/// A budget small enough that every blocking operator at this scale
/// overflows it, yet large enough to keep recursion shallow.
const TINY_BUDGET: usize = 32 * 1024;

/// Env knobs override the conf fields; this binary manages both itself.
fn neutralize_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::remove_var("HIVE_SPILL_ENABLED");
        std::env::remove_var("HIVE_MEMORY_BUDGET");
        std::env::remove_var("HIVE_SELVEC_ENABLED");
        std::env::remove_var("HIVE_DICT_ENABLED");
        std::env::remove_var("HIVE_PARALLEL_THREADS");
    });
}

/// Big enough that joins build tens of thousands of rows and group-bys
/// hold thousands of groups — far past `TINY_BUDGET`.
fn scale() -> TpcdsScale {
    TpcdsScale {
        days: 8,
        items: 150,
        customers: 200,
        stores: 4,
        sales_per_day: 1500,
        return_rate: 0.1,
    }
}

fn load_server(budget: usize, threads: usize) -> HiveServer {
    neutralize_env();
    let mut conf = HiveConf::v3_1();
    conf.memory_per_query_bytes = budget;
    conf.parallel_threads = threads;
    let server = HiveServer::new(conf);
    tpcds::load(&server, scale(), 0xDA7A).unwrap();
    server
}

/// Every curated TPC-DS query: unlimited == tiny budget, byte for
/// byte — and the tiny budget must actually spill somewhere (no
/// silently-green run where nothing ever left memory).
#[test]
fn tiny_budget_never_changes_results() {
    let queries = tpcds::queries();
    let unlimited = load_server(0, 1);
    let tiny = load_server(TINY_BUDGET, 1);
    let mut total_spilled = 0u64;
    for q in &queries {
        let expected = unlimited.session().execute(&q.sql).unwrap().display_rows();
        let r = tiny.session().execute(&q.sql).unwrap();
        assert_eq!(
            r.display_rows(),
            expected,
            "{} diverged under the tiny budget",
            q.id
        );
        total_spilled += r.bytes_spilled;
    }
    assert!(
        total_spilled > 0,
        "the tiny budget never forced a spill — the differential is vacuous"
    );
    // Nothing may leak: every spill file is deleted when its operator
    // finishes.
    let leftovers = tiny
        .fs()
        .list_files_recursive(&hive_warehouse::DfsPath::new("/tmp/hive/spill"));
    assert!(leftovers.is_empty(), "orphan spill files: {leftovers:?}");
}

/// The tiny budget at 2 threads reproduces every curated query's
/// golden rows, so the grace join and the spilled GROUP BY are checked
/// against a fixed answer and not only against the in-memory run.
#[test]
fn tiny_budget_matches_the_golden_digests() {
    let golden = golden::golden();
    let tiny = load_server(TINY_BUDGET, 2);
    let mut total_spilled = 0u64;
    for q in &tpcds::queries() {
        let r = tiny.session().execute(&q.sql).unwrap();
        golden::assert_golden(&golden, q.id, &r.display_rows(), "under the tiny budget");
        total_spilled += r.bytes_spilled;
    }
    assert!(total_spilled > 0, "the tiny budget never forced a spill");
}

/// A curated query whose joins and group-bys all overflow
/// `TINY_BUDGET` at this scale (q7: multi-way join + aggregation).
fn spilling_query() -> tpcds::TpcdsQuery {
    tpcds::queries()
        .into_iter()
        .find(|q| q.id == "q7")
        .expect("q7 in the curated set")
}

/// The budget stays invisible across worker counts: for each thread
/// count the tiny-budget rows equal the unlimited rows, and all equal
/// the 1-thread baseline.
#[test]
fn tiny_budget_is_invisible_across_thread_sweep() {
    let query = spilling_query();
    let baseline = load_server(0, 1)
        .session()
        .execute(&query.sql)
        .unwrap()
        .display_rows();
    assert!(!baseline.is_empty());
    for threads in [1, 2, 8] {
        for budget in [0, TINY_BUDGET] {
            let rows = load_server(budget, threads)
                .session()
                .execute(&query.sql)
                .unwrap()
                .display_rows();
            assert_eq!(
                rows, baseline,
                "budget={budget} at {threads} threads diverged"
            );
        }
    }
}

/// A seeded fault plan aimed squarely at the spill files (targeted
/// read/write failures that heal after two attempts, plus
/// probabilistic write faults, daemon deaths, and transient DFS reads)
/// yields the fault-free rows, and the simulated penalty replays
/// exactly — at every thread count.
#[test]
fn spill_faulted_runs_replay_deterministically() {
    let query = spilling_query();
    let baseline = load_server(0, 1)
        .session()
        .execute(&query.sql)
        .unwrap()
        .display_rows();

    let plan = FaultPlan::none().with(|p| {
        p.seed = 0x5B11_1FA1;
        p.fail_path_substrings = vec!["spill".into()];
        p.path_fail_count = 2;
        p.dfs_write_error_prob = 0.2;
        p.daemon_kill_prob = 0.5;
        p.dfs_read_error_prob = 0.05;
    });
    for threads in [1, 2, 8] {
        let run = || -> (Vec<String>, f64, u64, u64) {
            let server = load_server(TINY_BUDGET, threads);
            server.set_conf(|c| c.fault = plan.clone());
            let r = server.session().execute(&query.sql).unwrap();
            (
                r.display_rows(),
                r.sim_ms,
                r.fragment_retries,
                r.bytes_spilled,
            )
        };
        let (rows, sim_ms, retries, spilled) = run();
        assert_eq!(
            rows, baseline,
            "faulted spill run diverged at {threads} threads"
        );
        assert!(spilled > 0, "faults must not suppress the spill");
        let (rows2, sim_ms2, retries2, spilled2) = run();
        assert_eq!(rows2, baseline);
        assert_eq!(
            (sim_ms2, retries2, spilled2),
            (sim_ms, retries, spilled),
            "spill fault penalty must replay exactly at {threads} threads"
        );
    }
}

/// The adversarial skew case, end to end: a build side that is a single
/// repeated key can never be split by hashing. The planner's
/// no-progress guard must stop recursing and process it in memory
/// (overshooting the budget) instead of looping forever.
#[test]
fn single_key_build_side_terminates_and_matches() {
    neutralize_env();
    let mut conf = HiveConf::v3_1();
    conf.memory_per_query_bytes = 4096;
    let server = HiveServer::new(conf);
    let session = server.session();
    session
        .execute("CREATE TABLE skew_build (k INT, v INT)")
        .unwrap();
    session
        .execute("CREATE TABLE skew_probe (k INT, p INT)")
        .unwrap();
    // 3000 identical build keys: every partition pass routes all rows
    // to one child.
    for chunk in 0..10 {
        let values: Vec<String> = (0..300)
            .map(|i| format!("(7, {})", chunk * 300 + i))
            .collect();
        session
            .execute(&format!(
                "INSERT INTO skew_build VALUES {}",
                values.join(", ")
            ))
            .unwrap();
    }
    session
        .execute("INSERT INTO skew_probe VALUES (7, 1), (8, 2), (7, 3)")
        .unwrap();
    let r = session
        .execute(
            "SELECT COUNT(*), SUM(v), SUM(p) FROM skew_probe \
             JOIN skew_build ON skew_probe.k = skew_build.k",
        )
        .unwrap();
    // 2 probe rows × 3000 build rows; sum(v) over two full copies of
    // 0..3000, sum(p) = (1+3) × 3000.
    assert_eq!(r.display_rows(), vec!["6000\t8997000\t12000".to_string()]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Simulated recursion over the partition planner: even when no
    /// pass makes progress (single-key skew: every child inherits all
    /// parent rows), the plan must reach `process_in_memory` within
    /// `MAX_DEPTH` steps, and every emitted fanout stays in bounds.
    #[test]
    fn recursive_partitioning_terminates_on_single_key_skew(
        rows in 1usize..5_000_000,
        bytes_per_row in 1u64..4096,
        budget in 1u64..1_048_576,
    ) {
        let mut parent: Option<usize> = None;
        let mut depth = 0u32;
        loop {
            let plan = plan_partition(rows as u64 * bytes_per_row, budget, depth, rows, parent);
            if plan.process_in_memory {
                break;
            }
            prop_assert!(
                (2..=MAX_FANOUT).contains(&plan.fanout),
                "fanout {} out of bounds at depth {depth}", plan.fanout
            );
            prop_assert!(depth < MAX_DEPTH, "recursed past MAX_DEPTH");
            // Worst case: the single giant key funnels every row into
            // one child partition.
            parent = Some(rows);
            depth += 1;
        }
        prop_assert!(depth <= MAX_DEPTH);
    }

    /// With even two distinct hash values the no-progress guard must
    /// not fire early: a child strictly smaller than its parent keeps
    /// partitioning until it fits the budget or hits the depth cap.
    #[test]
    fn shrinking_partitions_keep_splitting_until_they_fit(
        rows in 2usize..1_000_000,
        budget in 4096u64..1_048_576,
    ) {
        let bytes_per_row = 64u64;
        let mut rows = rows;
        let mut parent: Option<usize> = None;
        let mut depth = 0u32;
        loop {
            let est = rows as u64 * bytes_per_row;
            let plan = plan_partition(est, budget, depth, rows, parent);
            if plan.process_in_memory {
                // Legitimate stops only: it fits, we hit the depth cap,
                // or the partition is down to a single row.
                prop_assert!(
                    est <= budget || depth >= MAX_DEPTH || rows <= 1,
                    "gave up early: est={est} budget={budget} depth={depth} rows={rows}"
                );
                break;
            }
            parent = Some(rows);
            // Each pass halves the partition (two distinct keys).
            rows = rows.div_ceil(2);
            depth += 1;
        }
    }
}
