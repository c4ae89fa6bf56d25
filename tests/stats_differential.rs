//! Statistics differential suite: `hive.optimizer.histograms.enabled`
//! may only change *estimates* — join order, build-side choice, Bloom
//! sizing, conjunct order — never results. Every curated TPC-DS query
//! must return byte-identical rows with histograms on and off —
//! fault-free, under a seeded fault plan with recovery, and across the
//! 1/2/8 thread sweep. The adaptive rung is then exercised end to end:
//! a join whose LIKE-defaulted filter estimate undershoots reality by
//! more than 10x must trip the cardinality guard exactly once, re-plan
//! with the observed count substituted, and return the same rows; the
//! persisted feedback must keep a second execution of the same query
//! from ever tripping again.

use hive_warehouse::benchdata::tpcds::{self, TpcdsScale};
use hive_warehouse::{FaultPlan, HiveConf, HiveServer};

/// Env knobs override the conf fields; this binary manages both itself.
fn neutralize_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::remove_var("HIVE_HISTOGRAMS_ENABLED");
        std::env::remove_var("HIVE_PIR_ENABLED");
        std::env::remove_var("HIVE_SELVEC_ENABLED");
        std::env::remove_var("HIVE_DICT_ENABLED");
        std::env::remove_var("HIVE_PARALLEL_THREADS");
    });
}

/// Big enough that multi-join queries exercise reordering, runtime
/// filters, and partition pruning with real row counts behind them.
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

fn load_server(histograms: bool, threads: usize) -> HiveServer {
    neutralize_env();
    let mut conf = HiveConf::v3_1();
    conf.histograms_enabled = histograms;
    conf.parallel_threads = threads;
    let server = HiveServer::new(conf);
    tpcds::load(&server, scale(), 0xDA7A).unwrap();
    server
}

/// Every curated TPC-DS query: histogram-driven planning == constant
/// selectivities, byte for byte.
#[test]
fn histogram_toggle_never_changes_results() {
    let queries = tpcds::queries();
    let off = load_server(false, 1);
    let on = load_server(true, 1);
    for q in &queries {
        let expected = off.session().execute(&q.sql).unwrap().display_rows();
        let got = on.session().execute(&q.sql).unwrap().display_rows();
        assert_eq!(got, expected, "{} diverged with histograms enabled", q.id);
    }
}

/// The toggle stays invisible across worker counts: the whole curated
/// suite agrees between histograms on and off at 1, 2, and 8 threads,
/// and every run equals the 1-thread constant-selectivity baseline.
#[test]
fn histogram_toggle_is_invisible_across_thread_sweep() {
    let queries = tpcds::queries();
    let baseline_server = load_server(false, 1);
    let baseline: Vec<Vec<String>> = queries
        .iter()
        .map(|q| {
            baseline_server
                .session()
                .execute(&q.sql)
                .unwrap()
                .display_rows()
        })
        .collect();
    assert!(baseline.iter().any(|rows| !rows.is_empty()));
    for threads in [2, 8] {
        for hist in [false, true] {
            let server = load_server(hist, threads);
            for (q, expected) in queries.iter().zip(&baseline) {
                let rows = server.session().execute(&q.sql).unwrap().display_rows();
                assert_eq!(
                    &rows, expected,
                    "{} diverged with histograms={hist} at {threads} threads",
                    q.id
                );
            }
        }
    }
    let on = load_server(true, 1);
    for (q, expected) in queries.iter().zip(&baseline) {
        let rows = on.session().execute(&q.sql).unwrap().display_rows();
        assert_eq!(
            &rows, expected,
            "{} diverged with histograms at 1 thread",
            q.id
        );
    }
}

/// A seeded fault plan (daemon deaths, transient DFS errors, recovery
/// enabled) yields the fault-free rows under both settings, and the
/// simulated fault penalty replays exactly within each setting.
#[test]
fn faulted_runs_match_under_both_settings() {
    let query = &tpcds::queries()[0];
    let baseline = load_server(false, 1)
        .session()
        .execute(&query.sql)
        .unwrap()
        .display_rows();

    let plan = FaultPlan::none().with(|p| {
        p.seed = 0xBADD_CAFE;
        p.daemon_kill_prob = 0.8;
        p.dfs_read_error_prob = 0.05;
        p.dfs_slow_prob = 0.1;
        p.dfs_slow_ms = 4.0;
    });
    let run = |hist: bool| -> (Vec<String>, f64, u64) {
        let server = load_server(hist, 2);
        server.set_conf(|c| c.fault = plan.clone());
        let r = server.session().execute(&query.sql).unwrap();
        (r.display_rows(), r.sim_ms, r.fragment_retries)
    };
    for hist in [false, true] {
        let (rows, sim_ms, retries) = run(hist);
        assert_eq!(
            rows, baseline,
            "faulted run diverged with histograms={hist}"
        );
        let (rows2, sim_ms2, retries2) = run(hist);
        assert_eq!(rows2, baseline);
        assert_eq!(
            (sim_ms2, retries2),
            (sim_ms, retries),
            "fault penalty must replay exactly with histograms={hist}"
        );
    }
}

/// A fact table whose every row survives two LIKE filters (estimated
/// at the 0.25 default each, so the planner expects 1/16th of reality)
/// joined to a one-row dimension: observed join cardinality lands 16x
/// over the estimate, past the 10x guard.
fn load_skewed(histograms: bool) -> HiveServer {
    neutralize_env();
    let mut conf = HiveConf::v3_1();
    conf.histograms_enabled = histograms;
    // The second execution must actually plan and run, not replay a
    // cached result.
    conf.results_cache = false;
    let server = HiveServer::new(conf);
    let s = server.session();
    s.execute("CREATE TABLE dim (k INT, tag STRING)").unwrap();
    s.execute("INSERT INTO dim VALUES (1, 'hot')").unwrap();
    s.execute("CREATE TABLE fact (k INT, note STRING)").unwrap();
    for chunk in 0..12 {
        let values: Vec<String> = (0..1000)
            .map(|i| format!("(1, 'xy{}')", chunk * 1000 + i))
            .collect();
        s.execute(&format!("INSERT INTO fact VALUES {}", values.join(", ")))
            .unwrap();
    }
    server
}

const SKEWED_SQL: &str = "SELECT d.tag, COUNT(*) AS c FROM fact f JOIN dim d ON f.k = d.k \
     WHERE f.note LIKE 'x%' AND f.note LIKE '%y%' GROUP BY d.tag";

/// The adaptive rung end to end: the first execution trips the
/// cardinality guard (observed 12000 vs ~750 estimated), re-plans once
/// with the observed count as feedback, and still returns the rows the
/// constant-selectivity path produces. The trip persists the observed
/// cardinality under the analyzed-plan fingerprint, so a second
/// execution of the same query plans with feedback preloaded and never
/// trips — one re-plan per misestimate, not one per run.
#[test]
fn misestimate_trips_guard_once_then_feedback_holds() {
    let baseline = load_skewed(false)
        .session()
        .execute(SKEWED_SQL)
        .unwrap()
        .display_rows();
    assert_eq!(baseline, vec!["hot\t12000"]);

    let server = load_skewed(true);
    let first = server.session().execute(SKEWED_SQL).unwrap();
    assert!(
        first.reexecuted,
        "16x misestimate must trip the cardinality guard and re-plan"
    );
    assert_eq!(first.display_rows(), baseline, "re-planned rows diverged");

    let second = server.session().execute(SKEWED_SQL).unwrap();
    assert!(
        !second.reexecuted,
        "persisted feedback must keep the second run from tripping"
    );
    assert_eq!(second.display_rows(), baseline);
}

/// With histograms off the guard never arms: the same skewed query runs
/// clean on the constant-selectivity path — the differential oracle the
/// toggle preserves.
#[test]
fn guard_stays_dormant_with_histograms_off() {
    let server = load_skewed(false);
    let first = server.session().execute(SKEWED_SQL).unwrap();
    assert!(!first.reexecuted, "guard must not arm with histograms off");
    let second = server.session().execute(SKEWED_SQL).unwrap();
    assert!(!second.reexecuted);
}
