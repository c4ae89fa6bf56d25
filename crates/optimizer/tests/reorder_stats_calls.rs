//! Join reordering visits each relation once: on the histogram path a
//! join tree nested under an aggregate is reordered once, and its
//! result serves both the greedy order and the authored order of the
//! tree above it. Counted through a `StatsSource` wrapper, the number of
//! statistics lookups must grow linearly with nesting depth, not double
//! per level.

use hive_common::{DataType, Field, Schema, Value};
use hive_metastore::{Metastore, TableBuilder, TableStats};
use hive_optimizer::rules::join_reorder::reorder_joins;
use hive_optimizer::stats::StatsSource;
use hive_optimizer::{Analyzer, LogicalPlan, MetastoreCatalog, Optimizer};
use hive_sql::parse_sql;
use std::cell::Cell;
use std::sync::Arc;

/// Counts `stats_for` calls; histogram-driven estimation is on.
struct Counting<'a> {
    inner: &'a Metastore,
    calls: Cell<usize>,
}

impl StatsSource for Counting<'_> {
    fn stats_for(&self, qualified_name: &str) -> Arc<TableStats> {
        self.calls.set(self.calls.get() + 1);
        self.inner.table_stats(qualified_name)
    }

    fn histograms_enabled(&self) -> bool {
        true
    }
}

/// A fact table and two dimensions, with histogrammed join keys.
fn setup() -> Metastore {
    let ms = Metastore::new();
    for (name, rows, ndv) in [("fact", 20_000, 500), ("dim1", 500, 500), ("dim2", 50, 50)] {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        ms.create_table(TableBuilder::new("default", name, schema).build())
            .unwrap();
        let mut st = TableStats::new(2);
        st.row_count = rows;
        for i in 0..rows {
            st.columns[0].update(&Value::Int((i % ndv) as i32));
            st.columns[1].update(&Value::Int((i % 7) as i32));
        }
        ms.set_table_stats(&format!("default.{name}"), st);
    }
    ms
}

/// A three-way join whose third input is the same query one level
/// down, grouped: `depth` nested join levels in all.
fn nested_sql(depth: usize) -> String {
    let inner = if depth == 1 {
        "dim2".to_string()
    } else {
        format!("({})", nested_sql(depth - 1))
    };
    format!(
        "SELECT f.k AS k, count(*) AS v FROM fact f \
         JOIN dim1 a ON f.k = a.k JOIN {inner} s ON f.v = s.k GROUP BY f.k"
    )
}

fn plan_of(ms: &Metastore, sql: &str) -> LogicalPlan {
    let cat = MetastoreCatalog::new(ms.clone(), "default");
    let q = match parse_sql(sql).unwrap() {
        hive_sql::Statement::Query(q) => q,
        other => panic!("expected query, got {other:?}"),
    };
    Optimizer::exhaustive(Analyzer::new(&cat).analyze_query(&q).unwrap()).unwrap()
}

fn lookups(ms: &Metastore, depth: usize) -> usize {
    let plan = plan_of(ms, &nested_sql(depth));
    let counting = Counting {
        inner: ms,
        calls: Cell::new(0),
    };
    let out = reorder_joins(&plan, &counting).unwrap();
    out.check().unwrap();
    counting.calls.get()
}

#[test]
fn stats_lookups_grow_linearly_with_nesting_depth() {
    let ms = setup();
    let counts: Vec<usize> = (1..=4).map(|d| lookups(&ms, d)).collect();
    let steps: Vec<usize> = counts.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(steps[0] > 0);
    assert!(
        steps.iter().all(|&s| s == steps[0]),
        "each nesting level must add the same number of lookups: {counts:?}"
    );
}
