//! Golden plan fingerprints: with histogram-driven estimation on, every
//! curated TPC-DS query at the `0xDA7A` scale must plan to exactly the
//! recorded optimized plan. A planner-speed change (shared statistics
//! snapshots, memoized histogram buckets, fewer re-estimates) may make
//! planning cheaper but must never move a join, a build side, a pushed
//! filter or a semijoin reducer.
//!
//! The fingerprint of a plan is its `EXPLAIN` text (one line per plan
//! node) digested like the result rows: line count and FNV-1a, one
//! `id \t lines \t digest-hex` line per query in
//! `tests/golden/plan_fingerprints.tsv`.

use hive_warehouse::benchdata::tpcds::{self, TpcdsScale};
use hive_warehouse::{HiveConf, HiveServer};

mod golden;

/// Env knobs override the conf fields; this binary pins both itself.
fn neutralize_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::remove_var("HIVE_HISTOGRAMS_ENABLED");
        std::env::remove_var("HIVE_PARALLEL_THREADS");
    });
}

/// The scale the row digests in `tpcds_da7a.tsv` were recorded at.
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

/// Every curated query plans to its golden fingerprint on a freshly
/// loaded server (no runtime feedback yet), and then returns its golden
/// rows.
#[test]
fn optimized_plans_match_the_golden_fingerprints() {
    neutralize_env();
    let mut conf = HiveConf::v3_1();
    conf.histograms_enabled = true;
    conf.parallel_threads = 1;
    let server = HiveServer::new(conf);
    tpcds::load(&server, scale(), 0xDA7A).unwrap();

    let plans = golden::parse(include_str!("golden/plan_fingerprints.tsv"));
    let rows = golden::golden();
    let queries = tpcds::queries();
    assert_eq!(plans.len(), queries.len(), "one fingerprint line per query");
    let session = server.session();
    let explained: Vec<Vec<String>> = queries
        .iter()
        .map(|q| {
            session
                .execute(&format!("EXPLAIN {}", q.sql))
                .unwrap()
                .display_rows()
        })
        .collect();
    for (q, lines) in queries.iter().zip(&explained) {
        assert_eq!(
            (lines.len(), golden::digest(lines)),
            plans[q.id],
            "{} no longer plans to its golden fingerprint:\n{}",
            q.id,
            lines.join("\n")
        );
    }
    for q in &queries {
        let got = session.execute(&q.sql).unwrap().display_rows();
        golden::assert_golden(&rows, q.id, &got, "with histograms on");
    }
}
