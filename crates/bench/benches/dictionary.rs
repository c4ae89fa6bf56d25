//! Dictionary-encoded late materialization benchmark: wall-clock time
//! for string-heavy filter/group-by work with the encoded path on vs
//! off, at low and high key cardinality, plus the LLAP byte accounting
//! for repeated scans of a dictionary-encoded column. Results (real
//! host timings, not simulated cluster time) land in `BENCH_dict.json`
//! at the repo root.
//!
//! Run: `cargo bench --bench dictionary` (or via scripts/verify.sh
//! `HIVE_DICT_SWEEP=1`).

use hive_common::{ColumnVector, DataType, Field, HiveConf, Schema, Value, VectorBatch};
use hive_core::HiveServer;
use hive_exec::aggregate::execute_aggregate_par;
use hive_exec::kernels::filter_indices;
use hive_optimizer::plan::LogicalPlan;
use hive_optimizer::{AggExpr, AggFunc, ScalarExpr};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const ITERS: usize = 5;
const ROWS: usize = 600_000;

/// Best-of-N wall-clock milliseconds (min is the stable statistic for
/// speedup comparisons on a shared host).
fn time_ms(mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn rows_of(b: &VectorBatch) -> Vec<String> {
    b.to_rows().iter().map(|r| r.to_string()).collect()
}

/// The same string column twice: dictionary-encoded and materialized,
/// with a double payload column alongside.
fn string_batches(card: usize) -> (VectorBatch, VectorBatch) {
    let dict: Vec<String> = (0..card).map(|i| format!("key_{i:06}")).collect();
    let codes: Vec<u32> = (0..ROWS).map(|i| ((i * 31) % card) as u32).collect();
    let key = ColumnVector::dict_from_codes(codes, Arc::new(dict), None).unwrap();
    let val = ColumnVector::Double((0..ROWS).map(|i| i as f64 * 0.5 - 1000.0).collect(), None);
    let schema = Schema::new(vec![
        Field::new("k", DataType::String),
        Field::new("v", DataType::Double),
    ]);
    let dict_b =
        VectorBatch::new_with_rows(schema.clone(), vec![key.clone(), val.clone()], ROWS).unwrap();
    let str_b = VectorBatch::new_with_rows(schema, vec![key.decode(), val], ROWS).unwrap();
    (dict_b, str_b)
}

/// GROUP BY a string key (the operator the issue gates on): encoded
/// keys hash u32 codes, materialized keys clone and hash strings.
fn bench_groupby(name: &'static str, card: usize, results: &mut Vec<(&'static str, f64, f64)>) {
    let (dict_b, str_b) = string_batches(card);
    let groups = vec![ScalarExpr::Column(0)];
    let aggs = vec![
        AggExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        },
        AggExpr {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::Column(1)),
            distinct: false,
        },
    ];
    let out_schema = LogicalPlan::Aggregate {
        input: Arc::new(LogicalPlan::Values {
            schema: dict_b.schema().clone(),
            rows: vec![],
        }),
        group_exprs: groups.clone(),
        grouping_sets: None,
        aggs: aggs.clone(),
    }
    .schema();
    let run = |b: &VectorBatch| {
        let sb = hive_common::SelBatch::from_batch(b.clone());
        execute_aggregate_par(&sb, &groups, &None, &aggs, &out_schema, 1, None, None).unwrap()
    };
    assert_eq!(
        rows_of(&run(&dict_b)),
        rows_of(&run(&str_b)),
        "{name} diverged"
    );
    let on = time_ms(|| {
        run(&dict_b);
    });
    let off = time_ms(|| {
        run(&str_b);
    });
    eprintln!(
        "{name:<22} dict={on:8.2} ms  plain={off:8.2} ms  ({:.2}x)",
        off / on
    );
    results.push((name, on, off));
}

/// Filter on a string predicate: the encoded path evaluates the
/// predicate once per distinct dictionary entry.
fn bench_filter(results: &mut Vec<(&'static str, f64, f64)>) {
    let (dict_b, str_b) = string_batches(25);
    let pred = ScalarExpr::Like {
        expr: Box::new(ScalarExpr::Column(0)),
        pattern: Box::new(ScalarExpr::Literal(Value::String("key_%7".into()))),
        negated: false,
    };
    assert_eq!(
        filter_indices(&pred, &dict_b).unwrap(),
        filter_indices(&pred, &str_b).unwrap(),
        "filter diverged"
    );
    let on = time_ms(|| {
        filter_indices(&pred, &dict_b).unwrap();
    });
    let off = time_ms(|| {
        filter_indices(&pred, &str_b).unwrap();
    });
    eprintln!(
        "{:<22} dict={on:8.2} ms  plain={off:8.2} ms  ({:.2}x)",
        "filter_like_low_card",
        off / on
    );
    results.push(("filter_like_low_card", on, off));
}

fn tpcds_server(dict: bool, llap: bool) -> HiveServer {
    use hive_benchdata::tpcds::{self, TpcdsScale};
    let mut conf = HiveConf::v3_1();
    conf.dictionary_enabled = dict;
    conf.llap_enabled = llap;
    conf.results_cache = false;
    let server = HiveServer::new(conf);
    let scale = TpcdsScale {
        days: 48,
        items: 500,
        customers: 300,
        stores: 6,
        sales_per_day: 2000,
        return_rate: 0.1,
    };
    tpcds::load(&server, scale, 0xBE5C).unwrap();
    server
}

/// Full-engine queries under both settings. `i_brand` (50 distinct) is
/// dictionary-encoded on disk; `i_item_id` (unique) fails the writer's
/// distinct-ratio threshold and stays plain — the no-regression case.
fn bench_engine(results: &mut Vec<(&'static str, f64, f64)>) {
    let cases: [(&'static str, &'static str); 3] = [
        (
            "engine_groupby_low_card",
            "SELECT i_brand, SUM(ss_ext_sales_price) AS ext_price FROM store_sales, item \
             WHERE ss_item_sk = i_item_sk GROUP BY i_brand ORDER BY ext_price DESC, i_brand LIMIT 100",
        ),
        (
            "engine_groupby_high_card",
            "SELECT i_item_id, COUNT(*) AS cnt FROM store_sales, item \
             WHERE ss_item_sk = i_item_sk GROUP BY i_item_id ORDER BY cnt DESC, i_item_id LIMIT 100",
        ),
        (
            "engine_numeric_scan",
            "SELECT COUNT(*), SUM(ss_ext_sales_price), MAX(ss_list_price) \
             FROM store_sales WHERE ss_quantity > 0",
        ),
    ];
    for dict in [true, false] {
        let server = tpcds_server(dict, false);
        let session = server.session();
        for (name, sql) in &cases {
            let ms = time_ms(|| {
                session.execute(sql).unwrap();
            });
            let slot = results.iter_mut().find(|(n, _, _)| n == name);
            match slot {
                Some(r) if dict => r.1 = ms,
                Some(r) => r.2 = ms,
                None => results.push((
                    name,
                    if dict { ms } else { f64::NAN },
                    if dict { f64::NAN } else { ms },
                )),
            }
        }
    }
    // Cross-check results once.
    let on = tpcds_server(true, false);
    let off = tpcds_server(false, false);
    for (name, sql) in &cases {
        assert_eq!(
            on.session().execute(sql).unwrap().display_rows(),
            off.session().execute(sql).unwrap().display_rows(),
            "{name} diverged between dict settings"
        );
    }
    for (name, on, off) in results.iter() {
        if name.starts_with("engine") {
            eprintln!(
                "{name:<22} dict={on:8.2} ms  plain={off:8.2} ms  ({:.2}x)",
                off / on
            );
        }
    }
}

/// LLAP byte accounting: scanning a dictionary-encoded string column
/// twice loads fewer bytes with the encoded cache (codes + one shared
/// dictionary charge) than with materialized strings.
fn bench_cache_bytes() -> (u64, u64) {
    let sql = "SELECT i_brand, COUNT(*) AS cnt FROM item GROUP BY i_brand ORDER BY i_brand";
    let mut loaded = [0u64; 2];
    for (slot, dict) in [(0usize, true), (1usize, false)] {
        let server = tpcds_server(dict, true);
        let session = server.session();
        let first = session.execute(sql).unwrap().display_rows();
        let second = session.execute(sql).unwrap().display_rows();
        assert_eq!(first, second);
        loaded[slot] = server
            .llap()
            .cache()
            .stats()
            .bytes_loaded
            .load(Ordering::Relaxed);
    }
    eprintln!(
        "cache bytes_loaded     dict={} B  plain={} B  ({:.2}x smaller)",
        loaded[0],
        loaded[1],
        loaded[1] as f64 / loaded[0] as f64
    );
    (loaded[0], loaded[1])
}

fn main() {
    // The env knob (set by HIVE_DICT_SWEEP test runs) must not override
    // the per-server settings this harness manages itself.
    std::env::remove_var("HIVE_DICT_ENABLED");
    std::env::remove_var("HIVE_PARALLEL_THREADS");

    // (name, dict_on_ms, dict_off_ms)
    let mut results: Vec<(&'static str, f64, f64)> = Vec::new();
    bench_groupby("groupby_low_card", 25, &mut results);
    bench_groupby("groupby_high_card", 400_000, &mut results);
    bench_filter(&mut results);
    bench_engine(&mut results);
    let (bytes_on, bytes_off) = bench_cache_bytes();

    let mut entries = String::new();
    for (name, on, off) in &results {
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"case\": \"{name}\", \"dict_on_ms\": {on:.3}, \"dict_off_ms\": {off:.3}, \
             \"speedup\": {:.3}}}",
            off / on
        ));
    }
    let low_card = results
        .iter()
        .find(|(n, _, _)| *n == "groupby_low_card")
        .map(|(_, on, off)| off / on)
        .unwrap_or(f64::NAN);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"dictionary\",\n  \"unit\": \"ms\",\n  \"iters\": {ITERS},\n  \
         \"rows\": {ROWS},\n  \"host_cores\": {cores},\n  \"results\": [\n{entries}\n  ],\n  \
         \"low_card_groupby_speedup\": {low_card:.3},\n  \
         \"cache_bytes_loaded_dict_on\": {bytes_on},\n  \
         \"cache_bytes_loaded_dict_off\": {bytes_off}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dict.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("wrote {path}");
    eprintln!("low-cardinality string group-by: {low_card:.2}x with dictionary encoding");
}
