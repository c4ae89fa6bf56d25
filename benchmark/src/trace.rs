//! The traced replay: one SELECT driven through each layer's public entry
//! point in the order `Session::execute` calls them, with a span recorded
//! in memory around every call and the layer's counters read at the same
//! boundary. Spans are written out when the run ends.

use hive_common::{HiveConf, Result};
use hive_core::HiveServer;
use hive_exec::{ExecContext, NodeTrace, SnapshotProvider};
use hive_metastore::{Metastore, ValidTxnList, ValidWriteIdList};
use hive_optimizer::fingerprint::fingerprint_hex;
use hive_optimizer::rules::{folding, join_reorder, partition_prune, pruning, semijoin};
use hive_optimizer::stats::GatedStats;
use hive_optimizer::{Analyzer, LogicalPlan, MetastoreCatalog, Optimizer, OptimizerContext};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;

/// Layer spans, in pipeline order. Each is a child of its statement's
/// root span.
pub const LAYERS: [&str; 9] = [
    "sql.parse",
    "optimizer.analyze",
    "optimizer.exhaustive",
    "optimizer.join_reorder",
    "optimizer.partition_prune",
    "optimizer.prune_columns",
    "optimizer.semijoin",
    "exec.execute",
    "common.decode",
];

/// The layers that make up planning (`optimizer.plan_share`).
pub fn is_planning(layer: &str) -> bool {
    layer.starts_with("optimizer.")
}

#[derive(Debug, Clone)]
pub struct Span {
    pub stmt: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// `None` for a statement's root span, else the root's layer.
    pub parent: Option<&'static str>,
}

/// In-memory span store.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name` of statement `stmt`.
    pub fn span<T>(
        &mut self,
        stmt: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            stmt,
            name,
            start_ns,
            end_ns,
            parent,
        });
        out
    }

    /// Spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut s = String::new();
        for sp in &self.spans {
            s.push_str(&format!(
                "{{\"stmt\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}\n",
                sp.stmt,
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.parent.map_or("null".to_string(), |p| format!("\"{p}\""))
            ));
        }
        s
    }
}

/// The same per-query snapshot rule the driver uses: one transaction list
/// captured at query start, narrowed per table on demand.
struct Snapshots<'a> {
    ms: &'a Metastore,
    txns: ValidTxnList,
    cache: Mutex<HashMap<String, ValidWriteIdList>>,
}

impl SnapshotProvider for Snapshots<'_> {
    fn write_ids(&self, table: &str) -> ValidWriteIdList {
        let mut g = self.cache.lock().expect("snapshot cache lock poisoned");
        g.entry(table.to_string())
            .or_insert_with(|| self.ms.valid_write_ids(table, &self.txns, None))
            .clone()
    }
}

/// Counters read around the execute call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub llap_hits: u64,
    pub llap_misses: u64,
    pub llap_evictions: u64,
    pub llap_bytes_loaded: u64,
    pub dfs_bytes: u64,
    pub dfs_ops: u64,
}

impl Counters {
    pub fn read(server: &HiveServer) -> Counters {
        let c = server.llap().cache().stats();
        let io = server.fs().stats().snapshot();
        Counters {
            llap_hits: c.hits.load(Ordering::Relaxed),
            llap_misses: c.misses.load(Ordering::Relaxed),
            llap_evictions: c.evictions.load(Ordering::Relaxed),
            llap_bytes_loaded: c.bytes_loaded.load(Ordering::Relaxed),
            dfs_bytes: io.bytes_read,
            dfs_ops: io.reads,
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            llap_hits: self.llap_hits - earlier.llap_hits,
            llap_misses: self.llap_misses - earlier.llap_misses,
            llap_evictions: self.llap_evictions - earlier.llap_evictions,
            llap_bytes_loaded: self.llap_bytes_loaded - earlier.llap_bytes_loaded,
            dfs_bytes: self.dfs_bytes - earlier.dfs_bytes,
            dfs_ops: self.dfs_ops - earlier.dfs_ops,
        }
    }

    pub fn add(&mut self, d: &Counters) {
        self.llap_hits += d.llap_hits;
        self.llap_misses += d.llap_misses;
        self.llap_evictions += d.llap_evictions;
        self.llap_bytes_loaded += d.llap_bytes_loaded;
        self.dfs_bytes += d.dfs_bytes;
        self.dfs_ops += d.dfs_ops;
    }
}

/// What one replay produced.
pub struct Replay {
    pub batch: hive_common::VectorBatch,
    pub plan: LogicalPlan,
    pub trace: NodeTrace,
    /// The replayed stages gave the plan `Optimizer::optimize` gives.
    pub plan_matches_optimizer: bool,
    pub counters: Counters,
    /// Wall time of the whole replay.
    pub wall_ns: u64,
}

/// Replay `sql` through the layers, recording spans under statement
/// `stmt`. Mirrors the driver's SELECT path (parse → analyze → optimizer
/// stages with persisted `tables:` feedback → execute → compact+decode)
/// minus admission, the results cache and the re-optimization ladder.
pub fn replay(
    server: &HiveServer,
    conf: &HiveConf,
    rec: &mut Recorder,
    stmt: u64,
    sql: &str,
) -> Result<Replay> {
    let ms = server.metastore();
    let t0 = rec.now_ns();
    let parsed = rec.span(stmt, "sql.parse", Some("statement"), || {
        hive_sql::parse_sql(sql)
    })?;
    let hive_sql::Statement::Query(q) = parsed else {
        return Err(hive_common::HiveError::Unsupported(format!(
            "replay takes queries only: {sql}"
        )));
    };
    let cat = MetastoreCatalog::new(ms.clone(), "default");
    let analyzed = rec.span(stmt, "optimizer.analyze", Some("statement"), || {
        Analyzer::new(&cat).analyze_query(&q)
    })?;
    let feedback: HashMap<String, u64> = ms
        .runtime_stats(&fingerprint_hex(&analyzed))
        .unwrap_or_default()
        .into_iter()
        .filter_map(|(k, v)| Some((k.strip_prefix("tables:")?.to_string(), v)))
        .collect();
    let gated = GatedStats {
        inner: ms,
        use_histograms: conf.effective_histograms_enabled(),
        feedback: feedback.clone(),
    };
    let root = Some("statement");
    let input = analyzed.clone();
    let mut plan = rec.span(stmt, "optimizer.exhaustive", root, || {
        Optimizer::exhaustive(input)
    })?;
    if conf.cbo_enabled {
        plan = rec.span(stmt, "optimizer.join_reorder", root, || {
            join_reorder::reorder_joins(&plan, &gated)
        })?;
        plan = rec.span(stmt, "optimizer.exhaustive", root, || {
            Optimizer::exhaustive(plan)
        })?;
    }
    plan = rec.span(stmt, "optimizer.partition_prune", root, || {
        partition_prune::prune_partitions(&plan, ms)
    })?;
    plan = rec.span(stmt, "optimizer.prune_columns", root, || {
        pruning::prune_columns(&plan, ms).map(|p| folding::remove_trivial_projects(&p))
    })?;
    if conf.semijoin_reduction {
        plan = rec.span(stmt, "optimizer.semijoin", root, || {
            semijoin::plan_semijoin_reduction(&plan, &gated)
        });
    }

    let before = Counters::read(server);
    let snaps = Snapshots {
        ms,
        txns: ms.valid_txn_list(),
        cache: Mutex::new(HashMap::new()),
    };
    let (sel, trace) = rec.span(stmt, "exec.execute", root, || {
        let mut ctx = ExecContext::new(server.fs(), ms, conf, Some(server.llap()), &snaps, None);
        ctx.prepare_shared_work(&plan);
        hive_exec::execute_sel(&plan, &ctx)
    })?;
    let counters = Counters::read(server).since(&before);
    let batch = rec.span(stmt, "common.decode", root, || sel.compact().decode());
    let end = rec.now_ns();
    rec.spans.push(Span {
        stmt,
        name: "statement",
        start_ns: t0,
        end_ns: end,
        parent: None,
    });

    // Drift guard, outside the spans: the stage-by-stage replay must land
    // on the plan the optimizer's own entry point produces.
    let ctx = OptimizerContext {
        metastore: ms,
        conf,
        usable_views: vec![],
        feedback,
    };
    let reference = Optimizer::optimize(analyzed, &ctx)?;
    let plan_matches_optimizer = fingerprint_hex(&reference) == fingerprint_hex(&plan);
    Ok(Replay {
        batch,
        plan,
        trace,
        plan_matches_optimizer,
        counters,
        wall_ns: end - t0,
    })
}
