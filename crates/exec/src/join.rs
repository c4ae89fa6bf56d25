//! Hash joins: inner/left/right/full/semi/anti (+cross), with residual
//! predicates, NULL-safe key semantics, and the memory-budget check that
//! feeds query re-optimization (§4.2).
//!
//! Both join phases are morsel-parallel with byte-identical output at
//! any worker count: the build side is hash-partitioned (each partition
//! inserts its rows in ascending order, so per-bucket candidate lists
//! match the serial build exactly), and the probe side splits into
//! contiguous row ranges whose outputs concatenate in range order —
//! the serial probe order.

use crate::kernels::eval_vector;
use crate::pir::{PredPipeline, SelRef};
use crate::rawtable::{self, RawTable};
use crate::spill::{partition_of, plan_partition, push_rec, RecIter, SpillCtx};
use hive_common::hash::{self, FNV_OFFSET};
use hive_common::{
    BitSet, ColumnBuilder, ColumnVector, HiveError, Result, Schema, SelBatch, SelVec, Value,
    VectorBatch,
};
use hive_optimizer::eval::eval_scalar;
use hive_optimizer::plan::JoinType;
use hive_optimizer::ScalarExpr;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Execute a join over compact batches (serial path; identical results
/// to [`execute_join_par`] at any worker count).
pub fn execute_join(
    left: &VectorBatch,
    right: &VectorBatch,
    join_type: JoinType,
    equi: &[(ScalarExpr, ScalarExpr)],
    residual: &Option<ScalarExpr>,
    out_schema: &Schema,
    build_row_budget: usize,
) -> Result<VectorBatch> {
    execute_join_par(
        &SelBatch::from_batch(left.clone()),
        &SelBatch::from_batch(right.clone()),
        join_type,
        equi,
        residual,
        out_schema,
        build_row_budget,
        1,
        None,
        None,
    )
}

/// Per-key-column codec: when both sides are dictionary-encoded, keys
/// are right-side `u32` codes (left codes translate once per distinct
/// left entry through `probe_map`), so build and probe hash and compare
/// integers instead of cloning strings.
enum JoinCodec<'a> {
    Codes {
        lcodes: &'a [u32],
        lnulls: Option<&'a BitSet>,
        rcodes: &'a [u32],
        rnulls: Option<&'a BitSet>,
        /// Canonical right code per right code (collapses duplicate
        /// dictionary entries so equal strings share a key).
        rcanon: Vec<u32>,
        /// Right canonical code per left code, `None` when the left
        /// entry does not appear in the right dictionary.
        probe_map: Vec<Option<u32>>,
    },
    Vals {
        l: &'a ColumnVector,
        r: &'a ColumnVector,
    },
}

impl<'a> JoinCodec<'a> {
    fn new(l: &'a ColumnVector, r: &'a ColumnVector) -> JoinCodec<'a> {
        if let (Some((lc, ld, ln)), Some((rc, rd, rn))) = (l.dict_parts(), r.dict_parts()) {
            let mut rindex: HashMap<&str, u32> = HashMap::with_capacity(rd.len());
            let rcanon: Vec<u32> = rd
                .iter()
                .enumerate()
                .map(|(ci, s)| *rindex.entry(s.as_str()).or_insert(ci as u32))
                .collect();
            let probe_map = ld.iter().map(|s| rindex.get(s.as_str()).copied()).collect();
            return JoinCodec::Codes {
                lcodes: lc,
                lnulls: ln,
                rcodes: rc,
                rnulls: rn,
                rcanon,
                probe_map,
            };
        }
        JoinCodec::Vals { l, r }
    }

    /// Append build row `i`'s canonical key-part encoding (the hash
    /// table's arena bytes, see [`hive_common::hash`]); `false` = NULL
    /// key value, nothing appended.
    #[inline]
    fn encode_build_part(&self, i: usize, out: &mut Vec<u8>) -> bool {
        match self {
            JoinCodec::Codes {
                rcodes,
                rnulls,
                rcanon,
                ..
            } => {
                if rnulls.is_some_and(|n| n.get(i)) {
                    false
                } else {
                    hash::encode_code(rcanon[rcodes[i] as usize], out);
                    true
                }
            }
            JoinCodec::Vals { r, .. } => rawtable::try_encode_cell(r, i, out),
        }
    }

    /// Append probe row `i`'s canonical key-part encoding; `false` =
    /// NULL. A left dictionary entry absent from the right dictionary
    /// encodes as `TAG_MISS`, which no build key contains — the lookup
    /// fails, exactly as comparing the strings would.
    #[inline]
    fn encode_probe_part(&self, i: usize, out: &mut Vec<u8>) -> bool {
        match self {
            JoinCodec::Codes {
                lcodes,
                lnulls,
                probe_map,
                ..
            } => {
                if lnulls.is_some_and(|n| n.get(i)) {
                    false
                } else {
                    match probe_map[lcodes[i] as usize] {
                        Some(c) => hash::encode_code(c, out),
                        None => hash::encode_miss(out),
                    }
                    true
                }
            }
            JoinCodec::Vals { l, .. } => rawtable::try_encode_cell(l, i, out),
        }
    }

    /// Fold row `i`'s key-part encoding into an in-progress FNV-1a
    /// state (the column-wise hash combine step); `None` = NULL key
    /// value. `scratch` is cleared and reused across calls.
    #[inline]
    fn fold_part(&self, i: usize, build: bool, h: u64, scratch: &mut Vec<u8>) -> Option<u64> {
        scratch.clear();
        let ok = if build {
            self.encode_build_part(i, scratch)
        } else {
            self.encode_probe_part(i, scratch)
        };
        if ok {
            Some(hash::fnv1a_extend(h, scratch))
        } else {
            None
        }
    }
}

/// Stable FNV-1a hashes of rows `lo..hi`'s join keys, computed
/// column-wise — one pass per key column folding that column's
/// canonical encoding into every row's running state. `None` when any
/// key value is NULL (NULL keys never match, and never enter the
/// build). With no key columns (cross-style joins) every row shares the
/// hash of the empty key.
///
/// The same hash routes rows to build partitions and probes the hash
/// table — by construction it equals `fnv1a` of the concatenated
/// key-part encodings, i.e. of the arena key bytes.
/// (Routing is result-invisible: output order comes from probe range
/// order, so hashing codes instead of strings cannot change results.)
fn hash_rows(codecs: &[JoinCodec<'_>], lo: usize, hi: usize, build: bool) -> Vec<Option<u64>> {
    let mut hs = vec![Some(FNV_OFFSET); hi - lo];
    let mut scratch: Vec<u8> = Vec::new();
    for c in codecs {
        for (slot, h) in hs.iter_mut().enumerate() {
            if let Some(cur) = *h {
                *h = c.fold_part(lo + slot, build, cur, &mut scratch);
            }
        }
    }
    hs
}

/// One partition of the join build. Each entry's candidate list is a
/// singly linked chain through `next` in insertion (ascending right
/// position) order.
#[derive(Default)]
struct RawBuild {
    table: RawTable,
    /// Per table entry: first/last chain link (indexes into `rows`).
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Per inserted build row: right-side position, and the next link
    /// in its entry's chain (`u32::MAX` terminates).
    rows: Vec<u32>,
    next: Vec<u32>,
}

impl RawBuild {
    /// Append right position `ri` to the chain of the key `key` (hash `h`).
    fn push(&mut self, h: u64, key: &[u8], ri: u32) {
        let (e, inserted) = self.table.insert(h, key);
        let link = self.rows.len() as u32;
        self.rows.push(ri);
        self.next.push(u32::MAX);
        if inserted {
            self.head.push(link);
            self.tail.push(link);
        } else {
            self.next[self.tail[e as usize] as usize] = link;
            self.tail[e as usize] = link;
        }
    }

    /// Append the right positions matching `key` (hash `h`) to `out`,
    /// in insertion order.
    fn candidates(&self, h: u64, key: &[u8], out: &mut Vec<u32>) {
        if let Some(e) = self.table.find(h, key) {
            let mut link = self.head[e as usize];
            while link != u32::MAX {
                out.push(self.rows[link as usize]);
                link = self.next[link as usize];
            }
        }
    }
}

/// Execute a join with hash-partitioned parallel build and ranged
/// parallel probe across up to `workers` threads. `equi` pairs are
/// (left expr, right expr); `residual` is evaluated over the
/// concatenated (left ++ right) row.
///
/// Inputs arrive as `(batch, selection)` pairs; the join works in
/// *position* space (0..selected rows) — key columns are gathered
/// compact, while residual evaluation and output assembly map positions
/// back through the selections, so unselected rows are never touched.
///
/// The build side is the right input; exceeding `build_row_budget`
/// raises a retryable error so the driver can re-optimize with runtime
/// statistics.
///
/// `pir` is `Some` when the physical IR is enabled: residual predicates
/// then lower to compiled kernels and evaluate vectorized over gathered
/// candidate pair-batches ([`ResidualPlan`]), with the row closure kept
/// as the fallback for non-compilable expressions and the grace path.
#[allow(clippy::too_many_arguments)]
pub fn execute_join_par(
    left_in: &SelBatch,
    right_in: &SelBatch,
    join_type: JoinType,
    equi: &[(ScalarExpr, ScalarExpr)],
    residual: &Option<ScalarExpr>,
    out_schema: &Schema,
    build_row_budget: usize,
    workers: usize,
    spill: Option<&SpillCtx<'_>>,
    pir: Option<&mut crate::pir::PirCounters>,
) -> Result<VectorBatch> {
    // Memory admission. With a broker present the build's modeled bytes
    // must win a grant (held for the whole join); a denial — or the
    // legacy row budget, kept as a planner-misprediction signal —
    // degrades to the grace hash join when spill is enabled, and
    // otherwise downgrades the typed memory error to `Retryable` so the
    // §4.2 re-optimization ladder still applies.
    let over_rows = right_in.num_rows() > build_row_budget;
    let mut grace = false;
    let _grant = match spill {
        Some(sp) => {
            let est = crate::spill::estimate_table_bytes(right_in.num_rows(), equi.len().max(1));
            let g = sp.broker.try_reserve("hash-join-build", est);
            if g.is_none() || over_rows {
                if !sp.enabled {
                    let err = HiveError::MemoryExceeded {
                        operator: "hash-join-build".into(),
                        requested: est,
                        granted: sp.broker.available(),
                    };
                    return Err(HiveError::Retryable(err.to_string()));
                }
                grace = true;
                None // grace partitions charge their own working sets
            } else {
                g
            }
        }
        None => {
            if over_rows {
                let err = HiveError::MemoryExceeded {
                    operator: "hash-join-build".into(),
                    requested: right_in.num_rows() as u64,
                    granted: build_row_budget as u64,
                };
                return Err(HiveError::Retryable(err.to_string()));
            }
            None
        }
    };

    // Computed key expressions evaluate over whole batches, so a side
    // with a stacked selection and non-trivial keys compacts up front;
    // bare column keys gather through the selection instead (one column
    // copy, not one per surviving column).
    let normalize = |sb: &SelBatch, trivial: bool| -> SelBatch {
        if sb.sel.is_all() || trivial {
            sb.clone()
        } else {
            SelBatch::from_batch(sb.clone().compact())
        }
    };
    let left = normalize(
        left_in,
        equi.iter().all(|(l, _)| matches!(l, ScalarExpr::Column(_))),
    );
    let right = normalize(
        right_in,
        equi.iter().all(|(_, r)| matches!(r, ScalarExpr::Column(_))),
    );

    // Evaluate key columns, compact (length = selected row count).
    let sel_key = |sb: &SelBatch, e: &ScalarExpr| -> Result<Arc<ColumnVector>> {
        match &sb.sel {
            SelVec::All(_) => eval_vector(e, &sb.batch),
            SelVec::Idx(idx) => match e {
                ScalarExpr::Column(c) => Ok(Arc::new(sb.batch.column(*c).take(idx))),
                // invariant: `normalize` compacted this side otherwise.
                _ => unreachable!("non-trivial join key over a selection"),
            },
        }
    };
    let lkeys = equi
        .iter()
        .map(|(l, _)| sel_key(&left, l))
        .collect::<Result<Vec<_>>>()?;
    let rkeys = equi
        .iter()
        .map(|(_, r)| sel_key(&right, r))
        .collect::<Result<Vec<_>>>()?;

    // Per-key-column codecs: dict×dict columns join on u32 codes, all
    // others on scalar values (see [`JoinCodec`]).
    let codecs: Vec<JoinCodec<'_>> = lkeys
        .iter()
        .zip(&rkeys)
        .map(|(l, r)| JoinCodec::new(l.as_ref(), r.as_ref()))
        .collect();

    // Candidate pairs that went through the row interpreter (counted
    // only when a residual exists — the closure is also the no-residual
    // "always true" answer, which is not a fallback).
    let resid_pairs = AtomicU64::new(0);
    let residual_ok = |li: u32, ri: u32| -> Result<bool> {
        match residual {
            None => Ok(true),
            Some(pred) => {
                resid_pairs.fetch_add(1, Ordering::Relaxed);
                let mut vals = left.batch.row(left.sel.index(li as usize)).into_values();
                vals.extend(right.batch.row(right.sel.index(ri as usize)).into_values());
                Ok(eval_scalar(pred, &vals)? == Value::Boolean(true))
            }
        }
    };

    if grace {
        let sp = spill.expect("grace join requires a spill context");
        let result = grace_join(
            &left,
            &right,
            join_type,
            &codecs,
            &residual_ok,
            out_schema,
            sp,
        )?;
        // Grace joins always interpret their residual (partitions probe
        // row-at-a-time off spill records) — pure fallback, no compiled
        // stage.
        if let Some(pc) = pir {
            pc.fallback_rows += resid_pairs.load(Ordering::Relaxed);
        }
        return Ok(result);
    }

    // Compiled residual: lower the predicate against the concatenated
    // (left ++ right) schema once; probe ranges then gather candidate
    // (probe, build) pairs into pair-batches and run the compiled
    // conjunction vectorized. `None` (non-compilable shape, or PIR off)
    // keeps the row closure above.
    let resid_plan = match (residual, pir.is_some()) {
        (Some(pred), true) => ResidualPlan::compile(pred, &left, &right),
        _ => None,
    };

    // --- build ------------------------------------------------------------
    // Hash-partitioned build over the right side: a key's rows all land
    // in one partition (keyed by the stable hash), and each partition
    // inserts its rows in ascending order, so every bucket's candidate
    // list is exactly what the serial single-table build produces.
    let nparts = if workers <= 1 { 1 } else { workers };
    // Build-side key hashes: route rows to partitions and double as
    // the table probe hash.
    let rhashes: Vec<Option<u64>> = {
        let n = right.num_rows();
        let chunk = n.div_ceil(nparts).max(1);
        crate::par::parallel_map(workers, n.div_ceil(chunk), |c| {
            let lo = c * chunk;
            let hi = ((c + 1) * chunk).min(n);
            Ok(hash_rows(&codecs, lo, hi, true))
        })?
        .concat()
    };
    let builds: Vec<RawBuild> = crate::par::parallel_map(workers, nparts, |p| {
        let mut b = RawBuild::default();
        let mut scratch: Vec<u8> = Vec::new();
        for (i, rh) in rhashes.iter().enumerate() {
            let h = match *rh {
                Some(h) if nparts == 1 || h as usize % nparts == p => h,
                _ => continue, // NULL key or other partition
            };
            scratch.clear();
            for c in &codecs {
                // invariant: the hash existed, so no part is NULL.
                c.encode_build_part(i, &mut scratch);
            }
            b.push(h, &scratch, i as u32);
        }
        Ok(b)
    })?;

    // --- probe ------------------------------------------------------------
    // Contiguous left-row ranges probed in parallel; range outputs
    // concatenate in range order, reproducing the serial probe order.
    // Each range hashes its probe keys column-wise up front, then walks
    // rows with reused key buffers — no per-row allocation.
    let probe_range = |lo: u32, hi: u32| -> Result<ProbeOut> {
        let mut out = ProbeOut::default();
        let phashes = hash_rows(&codecs, lo as usize, hi as usize, false);
        let mut kept: Vec<u32> = Vec::new();
        let mut cands: Vec<u32> = Vec::new();
        let mut scratch: Vec<u8> = Vec::new();
        // Compiled-residual buffers: candidate pairs accumulate across
        // probe rows (`pr` = build positions, `spans` = per-probe-row
        // slices of it) and flush through the kernels in batches.
        let mut pr: Vec<u32> = Vec::new();
        let mut spans: Vec<(u32, u32, u32)> = Vec::new();
        for li in lo..hi {
            cands.clear();
            // NULL probe keys (hash `None`) never match.
            if let Some(h) = phashes[(li - lo) as usize] {
                scratch.clear();
                for c in &codecs {
                    c.encode_probe_part(li as usize, &mut scratch);
                }
                builds[h as usize % nparts].candidates(h, &scratch, &mut cands);
            }
            match &resid_plan {
                Some(plan) => {
                    let start = pr.len() as u32;
                    pr.extend_from_slice(&cands);
                    spans.push((li, start, pr.len() as u32));
                    if pr.len() >= RESID_FLUSH {
                        flush_pairs(
                            plan, &left, &right, join_type, &pr, &spans, &mut kept, &mut out,
                        )?;
                        pr.clear();
                        spans.clear();
                    }
                }
                None => {
                    kept.clear();
                    for &ri in &cands {
                        if residual_ok(li, ri)? {
                            kept.push(ri);
                        }
                    }
                    emit_probe(join_type, li, &kept, &mut out);
                }
            }
        }
        if !spans.is_empty() {
            let plan = resid_plan
                .as_ref()
                .expect("spans imply a compiled residual");
            flush_pairs(
                plan, &left, &right, join_type, &pr, &spans, &mut kept, &mut out,
            )?;
        }
        Ok(out)
    };

    let n = left.num_rows() as u32;
    let ranges: Vec<ProbeOut> = if workers <= 1 {
        vec![probe_range(0, n)?]
    } else {
        let chunk = (n.div_ceil(workers as u32)).max(crate::par::ROWS_PER_MORSEL as u32 / 4);
        let nranges = n.div_ceil(chunk) as usize;
        crate::par::parallel_map(workers, nranges, |r| {
            let lo = r as u32 * chunk;
            probe_range(lo, (lo + chunk).min(n))
        })?
    };

    // Deterministic merge: concatenate range outputs in range order and
    // OR the matched-right sets (order-insensitive booleans).
    let mut out_left: Vec<u32> = Vec::new();
    let mut out_right: Vec<Option<u32>> = Vec::new();
    let mut right_matched = vec![false; right.num_rows()];
    for r in ranges {
        out_left.extend(r.left);
        out_right.extend(r.right);
        for ri in r.matched_right {
            right_matched[ri as usize] = true;
        }
    }

    // Unmatched build rows for right/full joins.
    let mut extra_right: Vec<u32> = Vec::new();
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        for (ri, m) in right_matched.iter().enumerate() {
            if !m {
                extra_right.push(ri as u32);
            }
        }
    }

    let result = assemble(
        &left,
        &right,
        join_type,
        &out_left,
        &out_right,
        &extra_right,
        out_schema,
    )?;
    if let Some(pc) = pir {
        if residual.is_some() {
            if resid_plan.is_some() {
                pc.compiled_stages += 1;
            }
            pc.fallback_rows += resid_pairs.load(Ordering::Relaxed);
        }
    }
    Ok(result)
}

/// One probe range's output rows and the build rows it matched.
#[derive(Default)]
struct ProbeOut {
    left: Vec<u32>,
    right: Vec<Option<u32>>,
    matched_right: Vec<u32>,
}

/// Emit probe row `li`'s output for its residual-surviving candidate
/// list `kept` — the single source of truth for per-join-type emission
/// semantics, shared by the in-memory probe and the grace join's
/// partition probes (which is what makes them byte-identical).
fn emit_probe(join_type: JoinType, li: u32, kept: &[u32], out: &mut ProbeOut) {
    match join_type {
        JoinType::Inner | JoinType::Cross => {
            for &ri in kept {
                out.left.push(li);
                out.right.push(Some(ri));
            }
        }
        JoinType::Left => {
            if kept.is_empty() {
                out.left.push(li);
                out.right.push(None);
            } else {
                for &ri in kept {
                    out.left.push(li);
                    out.right.push(Some(ri));
                }
            }
        }
        JoinType::Right | JoinType::Full => {
            for &ri in kept {
                out.matched_right.push(ri);
                out.left.push(li);
                out.right.push(Some(ri));
            }
            if join_type == JoinType::Full && kept.is_empty() {
                out.left.push(li);
                out.right.push(None);
            }
        }
        JoinType::Semi => {
            if !kept.is_empty() {
                out.left.push(li);
                out.right.push(None);
            }
        }
        JoinType::Anti => {
            if kept.is_empty() {
                out.left.push(li);
                out.right.push(None);
            }
        }
    }
}

/// Flush the compiled-residual pair buffer once it holds this many
/// candidate pairs (plus whatever the current probe row contributed).
/// Sized so gathered pair-batches stay cache-resident without giving up
/// the vectorization win on high-fanout keys.
const RESID_FLUSH: usize = 4096;

/// A join residual lowered to the compiled kernel pipeline, evaluated
/// over gathered candidate pair-batches instead of per-pair row
/// interpretation.
///
/// The plan compiles against the concatenated `left ++ right` schema —
/// the same row layout `residual_ok` feeds `eval_scalar` — and is used
/// only when every conjunct lowered to a kernel
/// ([`PredPipeline::fully_compiled`]); a partial lowering would run
/// non-compiled conjuncts through `select_row` per pair, which is the
/// interpreter with extra gather cost.
///
/// Byte-identity: kernels share `sql_cmp`/`Value` semantics with the
/// interpreter (the pass-set contract in [`crate::pir::kernel`]), and
/// flush boundaries cannot change results because every kernel is
/// elementwise per pair. Error-order latitude: the pipeline evaluates
/// conjunct-by-conjunct over the whole pair batch where the interpreter
/// walks pair-by-pair, so *which* error surfaces from a failing batch
/// may differ — both paths still fail the query (see DESIGN.md §4).
struct ResidualPlan {
    pipe: PredPipeline,
    /// `left.schema().join(right.schema())`.
    schema: Schema,
    /// Which pair-batch columns the predicate actually reads; the rest
    /// are padded with typed all-NULL columns instead of gathered.
    referenced: Vec<bool>,
}

impl ResidualPlan {
    fn compile(pred: &ScalarExpr, left: &SelBatch, right: &SelBatch) -> Option<ResidualPlan> {
        let schema = left.batch.schema().join(right.batch.schema());
        let pipe = PredPipeline::compile(pred, &schema, None, false);
        if !pipe.fully_compiled() {
            return None;
        }
        let mut referenced = vec![false; schema.fields().len()];
        for c in pred.columns() {
            referenced[c] = true;
        }
        Some(ResidualPlan {
            pipe,
            schema,
            referenced,
        })
    }
}

/// Evaluate the compiled residual over the buffered candidate pairs and
/// emit each probe row's surviving matches.
///
/// `pr` holds build-side positions; `spans` slices it per probe row as
/// `(li, start, end)`. The pair-batch gathers referenced columns by
/// *underlying row id* (positions mapped through each side's selection,
/// exactly like `residual_ok`), pads the rest with typed NULL columns,
/// and runs the pipeline once over all pairs. Kernels return pass-set
/// indices in ascending order, so a single forward walk splits them
/// back into per-probe-row `kept` lists for [`emit_probe`].
#[allow(clippy::too_many_arguments)]
fn flush_pairs(
    plan: &ResidualPlan,
    left: &SelBatch,
    right: &SelBatch,
    join_type: JoinType,
    pr: &[u32],
    spans: &[(u32, u32, u32)],
    kept: &mut Vec<u32>,
    out: &mut ProbeOut,
) -> Result<()> {
    let npairs = pr.len();
    let lw = left.batch.num_columns();
    let mut lidx: Vec<u32> = Vec::with_capacity(npairs);
    for &(li, s, e) in spans {
        let row = left.sel.index(li as usize) as u32;
        lidx.extend(std::iter::repeat_n(row, (e - s) as usize));
    }
    let ridx: Vec<u32> = pr
        .iter()
        .map(|&ri| right.sel.index(ri as usize) as u32)
        .collect();
    let mut cols: Vec<Arc<ColumnVector>> = Vec::with_capacity(plan.schema.fields().len());
    for (ci, f) in plan.schema.fields().iter().enumerate() {
        let col = if !plan.referenced[ci] {
            crate::pir::fuse::null_column(&f.data_type, npairs)?
        } else if ci < lw {
            left.batch.column(ci).take(&lidx)
        } else {
            right.batch.column(ci - lw).take(&ridx)
        };
        cols.push(Arc::new(col));
    }
    let batch = VectorBatch::from_arcs(plan.schema.clone(), cols, npairs)?;
    let pass = plan.pipe.select(&batch, SelRef::All(npairs))?;
    match pass {
        // Every pair passed: each span keeps its full candidate list.
        None => {
            for &(li, s, e) in spans {
                emit_probe(join_type, li, &pr[s as usize..e as usize], out);
            }
        }
        Some(p) => {
            let mut pi = 0usize;
            for &(li, s, e) in spans {
                kept.clear();
                while pi < p.len() && p[pi] < e {
                    debug_assert!(p[pi] >= s);
                    kept.push(pr[p[pi] as usize]);
                    pi += 1;
                }
                emit_probe(join_type, li, kept, out);
            }
        }
    }
    Ok(())
}

/// The grace (recursive partitioned) hash join: both sides' keys are
/// encoded into spill records — the stored 64-bit FNV-1a hash plus the
/// canonical key bytes, i.e. exactly the flat table's probe hash and
/// arena contents, so partitions read back from disk rebuild their
/// tables without re-hashing or re-encoding. Payload columns never
/// spill: records carry *positions*, and assembly gathers from the
/// resident input batches at the end, exactly like the in-memory path.
///
/// Determinism: the whole grace pipeline is serial (hashing, routing,
/// partition order, leaf probes), so its output — and its spill I/O
/// schedule, which seeded fault injection keys on file paths — is a
/// pure function of the input, independent of the worker count.
///
/// Output order: leaf partitions emit `(left, right)` position pairs in
/// partition-local probe order; a final stable sort by left position
/// restores global probe order. Within one left row all matches live in
/// one partition (same key ⇒ same hash ⇒ same route) and leaf chains
/// insert in ascending right position, so the sorted pair list is
/// byte-identical to the in-memory probe's emission order.
fn grace_join(
    left: &SelBatch,
    right: &SelBatch,
    join_type: JoinType,
    codecs: &[JoinCodec<'_>],
    residual_ok: &dyn Fn(u32, u32) -> Result<bool>,
    out_schema: &Schema,
    sp: &SpillCtx<'_>,
) -> Result<VectorBatch> {
    let op = sp.next_op();
    let rhashes = hash_rows(codecs, 0, right.num_rows(), true);
    let phashes = hash_rows(codecs, 0, left.num_rows(), false);

    let mut out = ProbeOut::default();
    let mut scratch: Vec<u8> = Vec::new();
    let mut build: Vec<u8> = Vec::new();
    let mut brows = 0usize;
    for (i, h) in rhashes.iter().enumerate() {
        // NULL build keys never enter any build — same as in-memory.
        if let Some(h) = *h {
            scratch.clear();
            for c in codecs {
                c.encode_build_part(i, &mut scratch);
            }
            push_rec(&mut build, h, i as u32, &scratch);
            brows += 1;
        }
    }
    let mut probe: Vec<u8> = Vec::new();
    for (i, h) in phashes.iter().enumerate() {
        match *h {
            Some(h) => {
                scratch.clear();
                for c in codecs {
                    c.encode_probe_part(i, &mut scratch);
                }
                push_rec(&mut probe, h, i as u32, &scratch);
            }
            // NULL probe keys never match: emit their no-match output
            // up front; the final stable sort interleaves it back.
            None => emit_probe(join_type, i as u32, &[], &mut out),
        }
    }

    let mut file_seq = 0u64;
    grace_solve(
        sp,
        op,
        join_type,
        codecs.len().max(1),
        residual_ok,
        0,
        None,
        brows,
        &build,
        &probe,
        &mut out,
        &mut file_seq,
    )?;

    // Restore global probe order (stable: within a left row, partition
    // emission order is ascending right position already).
    let mut order: Vec<u32> = (0..out.left.len() as u32).collect();
    order.sort_by_key(|&i| out.left[i as usize]);
    let out_left: Vec<u32> = order.iter().map(|&i| out.left[i as usize]).collect();
    let out_right: Vec<Option<u32>> = order.iter().map(|&i| out.right[i as usize]).collect();

    let mut right_matched = vec![false; right.num_rows()];
    for ri in out.matched_right {
        right_matched[ri as usize] = true;
    }
    let mut extra_right: Vec<u32> = Vec::new();
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        for (ri, m) in right_matched.iter().enumerate() {
            if !m {
                extra_right.push(ri as u32);
            }
        }
    }
    assemble(
        left,
        right,
        join_type,
        &out_left,
        &out_right,
        &extra_right,
        out_schema,
    )
}

/// Solve one grace partition: fit it in memory (charging the broker)
/// or split it `fanout` ways through spill files and recurse. Every
/// partition file is written before any is read back — the grace
/// discipline that bounds resident record state to one partition.
#[allow(clippy::too_many_arguments)]
fn grace_solve(
    sp: &SpillCtx<'_>,
    op: u64,
    join_type: JoinType,
    key_cols: usize,
    residual_ok: &dyn Fn(u32, u32) -> Result<bool>,
    depth: u32,
    parent_build_rows: Option<usize>,
    brows: usize,
    build: &[u8],
    probe: &[u8],
    out: &mut ProbeOut,
    file_seq: &mut u64,
) -> Result<()> {
    let est = crate::spill::estimate_table_bytes(brows, key_cols);
    let plan = plan_partition(
        est,
        sp.broker.chunk_budget(),
        depth,
        brows,
        parent_build_rows,
    );
    if plan.process_in_memory {
        // Forced when over budget: degradation has bottomed out (skewed
        // single-key partition / depth cap) and proceeding beats
        // failing; the overshoot lands in the broker peak.
        let _g = match sp.broker.try_reserve("join-partition", est) {
            Some(g) => g,
            None => sp.broker.force_reserve("join-partition", est),
        };
        let mut b = RawBuild::default();
        for rec in RecIter::new(build) {
            let (h, ri, key) = rec?;
            b.push(h, key, ri);
        }
        let (mut cands, mut kept): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        for rec in RecIter::new(probe) {
            let (h, li, key) = rec?;
            cands.clear();
            b.candidates(h, key, &mut cands);
            kept.clear();
            for &ri in &cands {
                if residual_ok(li, ri)? {
                    kept.push(ri);
                }
            }
            emit_probe(join_type, li, &kept, out);
        }
        return Ok(());
    }

    let fanout = plan.fanout;
    let mut bparts: Vec<(Vec<u8>, usize)> = vec![(Vec::new(), 0); fanout];
    let mut pparts: Vec<(Vec<u8>, usize)> = vec![(Vec::new(), 0); fanout];
    for rec in RecIter::new(build) {
        let (h, ri, key) = rec?;
        let p = partition_of(h, depth, fanout);
        push_rec(&mut bparts[p].0, h, ri, key);
        bparts[p].1 += 1;
    }
    for rec in RecIter::new(probe) {
        let (h, li, key) = rec?;
        let p = partition_of(h, depth, fanout);
        push_rec(&mut pparts[p].0, h, li, key);
        pparts[p].1 += 1;
    }
    // Write all 2·fanout files, then read partitions back one at a time
    // (RAII guards delete each pair as its recursion completes).
    let mut files = Vec::with_capacity(fanout);
    for (p, ((bbuf, bn), (pbuf, pn))) in bparts.drain(..).zip(pparts.drain(..)).enumerate() {
        let id = *file_seq;
        *file_seq += 1;
        let bf = if bbuf.is_empty() {
            None
        } else {
            Some(sp.write(&format!("op{op}-s{id}-p{p}-build.grace"), bbuf)?)
        };
        let pf = if pbuf.is_empty() {
            None
        } else {
            Some(sp.write(&format!("op{op}-s{id}-p{p}-probe.grace"), pbuf)?)
        };
        files.push((bf, pf, bn, pn));
    }
    for (bf, pf, bn, pn) in files {
        // No probe rows: nothing to emit or match in this partition.
        if pn == 0 {
            continue;
        }
        let bbuf = match &bf {
            Some(f) => sp.read(f)?,
            None => Vec::new(),
        };
        let pbuf = match &pf {
            Some(f) => sp.read(f)?,
            None => Vec::new(),
        };
        drop((bf, pf));
        grace_solve(
            sp,
            op,
            join_type,
            key_cols,
            residual_ok,
            depth + 1,
            Some(brows),
            bn,
            &bbuf,
            &pbuf,
            out,
            file_seq,
        )?;
    }
    Ok(())
}

/// Gather the output columns. `out_left`/`out_right`/`extra_right` hold
/// *positions* into each side's selection; `sel.index` maps them back to
/// underlying batch rows at gather time — the only point where the join
/// touches unneeded payload columns.
fn assemble(
    left: &SelBatch,
    right: &SelBatch,
    join_type: JoinType,
    out_left: &[u32],
    out_right: &[Option<u32>],
    extra_right: &[u32],
    out_schema: &Schema,
) -> Result<VectorBatch> {
    let keeps_right = join_type.keeps_right();
    let n = out_left.len() + extra_right.len();
    let mut cols = Vec::with_capacity(out_schema.len());
    // Left columns.
    for (ci, f) in left.schema().fields().iter().enumerate() {
        let src = left.batch.column(ci);
        let mut b = ColumnBuilder::new(&f.data_type)?;
        for &li in out_left {
            b.push(&src.get(left.sel.index(li as usize)))?;
        }
        for _ in extra_right {
            b.push(&Value::Null)?;
        }
        cols.push(b.finish());
    }
    if keeps_right {
        for (ci, f) in right.schema().fields().iter().enumerate() {
            let src = right.batch.column(ci);
            let mut b = ColumnBuilder::new(&f.data_type)?;
            for ri in out_right {
                match ri {
                    Some(r) => b.push(&src.get(right.sel.index(*r as usize)))?,
                    None => b.push(&Value::Null)?,
                }
            }
            for &ri in extra_right {
                b.push(&src.get(right.sel.index(ri as usize)))?;
            }
            cols.push(b.finish());
        }
    }
    VectorBatch::new_with_rows(out_schema.clone(), cols, n)
}

/// Build a runtime semijoin reducer from the values of one column:
/// min/max range + Bloom filter (§4.6's index semijoin payload).
///
/// The build side of a semijoin is often heavily duplicated (e.g. a
/// dimension key repeated per sales row), so values are deduplicated
/// before insertion — via the dictionary code space when the column is
/// dictionary-encoded, otherwise through a `HashSet` — and the Bloom
/// filter is sized by the *distinct* count rather than the row count,
/// which keeps its bit array proportional to the information it holds.
pub fn build_runtime_filter(
    values: &VectorBatch,
    key_col: usize,
) -> Option<(Value, Value, hive_corc::BloomFilter)> {
    build_runtime_filter_sized(values, key_col, None)
}

/// [`build_runtime_filter`] with an optimizer NDV hint. With a hint the
/// Bloom bit array is sized for that many distinct keys up front and
/// the build streams every non-NULL value straight in — no distinct-set
/// materialization. Bloom inserts are idempotent, so membership matches
/// the deduplicated build exactly; only the false-positive rate (never
/// a join result — the reducer is a pre-filter) depends on the hint's
/// accuracy. Without a hint, the original dedup-then-size build runs,
/// preserving the constant-stats oracle byte-for-byte.
pub fn build_runtime_filter_sized(
    values: &VectorBatch,
    key_col: usize,
    ndv_hint: Option<usize>,
) -> Option<(Value, Value, hive_corc::BloomFilter)> {
    let col = values.column(key_col);
    if let Some(hint) = ndv_hint {
        let mut bloom = hive_corc::BloomFilter::new(hint.max(16), 0.01);
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        for i in 0..col.len() {
            let v = col.get(i);
            if v.is_null() {
                continue;
            }
            bloom.insert(&v);
            if min
                .as_ref()
                .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Less))
            {
                min = Some(v.clone());
            }
            if max
                .as_ref()
                .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Greater))
            {
                max = Some(v);
            }
        }
        return Some((min?, max?, bloom));
    }

    // Pass 1: collect distinct non-NULL values.
    let distinct: Vec<Value> = if let Some((codes, dict, nulls)) = col.dict_parts() {
        // Dictionary path: mark the codes actually present, then emit
        // each distinct *string* once (duplicate dictionary entries
        // collapse through the set below).
        let mut present = vec![false; dict.len()];
        for (i, &c) in codes.iter().enumerate() {
            if !nulls.is_some_and(|n| n.get(i)) {
                present[c as usize] = true;
            }
        }
        let mut seen = std::collections::HashSet::new();
        dict.iter()
            .enumerate()
            .filter(|&(c, s)| present[c] && seen.insert(s.as_str()))
            .map(|(_, s)| Value::String(s.clone()))
            .collect()
    } else {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for i in 0..col.len() {
            let v = col.get(i);
            if !v.is_null() && seen.insert(v.clone()) {
                out.push(v);
            }
        }
        out
    };

    // Pass 2: one Bloom insert per distinct value, min/max over the
    // distinct set.
    let mut bloom = hive_corc::BloomFilter::new(distinct.len().max(16), 0.01);
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    for v in distinct {
        bloom.insert(&v);
        if min
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Less))
        {
            min = Some(v.clone());
        }
        if max
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Greater))
        {
            max = Some(v);
        }
    }
    Some((min?, max?, bloom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::{DataType, Field, Row};

    fn batch(name: &str, rows: &[(Option<i32>, &str)]) -> VectorBatch {
        let schema = Schema::new(vec![
            Field::new(format!("{name}_k"), DataType::Int),
            Field::new(format!("{name}_v"), DataType::String),
        ]);
        let rows: Vec<Row> = rows
            .iter()
            .map(|(k, v)| {
                Row::new(vec![
                    k.map(Value::Int).unwrap_or(Value::Null),
                    Value::String((*v).into()),
                ])
            })
            .collect();
        VectorBatch::from_rows(&schema, &rows).unwrap()
    }

    fn join(l: &VectorBatch, r: &VectorBatch, jt: JoinType) -> Vec<String> {
        let out_schema = if jt.keeps_right() {
            l.schema().join(r.schema())
        } else {
            l.schema().clone()
        };
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        let out = execute_join(l, r, jt, &equi, &None, &out_schema, 1_000_000).unwrap();
        let mut rows: Vec<String> = out.to_rows().iter().map(|r| r.to_string()).collect();
        rows.sort();
        rows
    }

    #[test]
    fn inner_join() {
        let l = batch("l", &[(Some(1), "a"), (Some(2), "b"), (None, "n")]);
        let r = batch(
            "r",
            &[(Some(2), "x"), (Some(2), "y"), (Some(3), "z"), (None, "rn")],
        );
        assert_eq!(
            join(&l, &r, JoinType::Inner),
            vec!["2\tb\t2\tx", "2\tb\t2\ty"]
        );
    }

    #[test]
    fn left_join_null_extends() {
        let l = batch("l", &[(Some(1), "a"), (Some(2), "b")]);
        let r = batch("r", &[(Some(2), "x")]);
        assert_eq!(
            join(&l, &r, JoinType::Left),
            vec!["1\ta\tNULL\tNULL", "2\tb\t2\tx"]
        );
    }

    #[test]
    fn right_and_full_joins() {
        let l = batch("l", &[(Some(1), "a")]);
        let r = batch("r", &[(Some(1), "x"), (Some(9), "y")]);
        assert_eq!(
            join(&l, &r, JoinType::Right),
            vec!["1\ta\t1\tx", "NULL\tNULL\t9\ty"]
        );
        let l2 = batch("l", &[(Some(1), "a"), (Some(5), "only-left")]);
        assert_eq!(
            join(&l2, &r, JoinType::Full),
            vec!["1\ta\t1\tx", "5\tonly-left\tNULL\tNULL", "NULL\tNULL\t9\ty"]
        );
    }

    #[test]
    fn semi_and_anti() {
        let l = batch("l", &[(Some(1), "a"), (Some(2), "b"), (None, "n")]);
        let r = batch("r", &[(Some(2), "x"), (Some(2), "x2")]);
        assert_eq!(join(&l, &r, JoinType::Semi), vec!["2\tb"]);
        // NULL keys never match: the NULL row lands in anti output
        // (Hive's NOT IN caveat documented in DESIGN.md).
        assert_eq!(join(&l, &r, JoinType::Anti), vec!["1\ta", "NULL\tn"]);
    }

    #[test]
    fn residual_predicate() {
        let l = batch("l", &[(Some(1), "keep"), (Some(1), "drop")]);
        let r = batch("r", &[(Some(1), "keep")]);
        let out_schema = l.schema().join(r.schema());
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        // residual: l_v = r_v (cols 1 and 3 of the combined row).
        let residual = Some(ScalarExpr::eq(ScalarExpr::Column(1), ScalarExpr::Column(3)));
        let out = execute_join(
            &l,
            &r,
            JoinType::Inner,
            &equi,
            &residual,
            &out_schema,
            1_000_000,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0).get(1), &Value::String("keep".into()));
    }

    #[test]
    fn budget_exceeded_is_retryable() {
        let l = batch("l", &[(Some(1), "a")]);
        let r = batch("r", &[(Some(1), "x"), (Some(2), "y"), (Some(3), "z")]);
        let out_schema = l.schema().join(r.schema());
        let err = execute_join(
            &l,
            &r,
            JoinType::Inner,
            &[(ScalarExpr::Column(0), ScalarExpr::Column(0))],
            &None,
            &out_schema,
            2,
        )
        .unwrap_err();
        // No spill context: the typed memory error downgrades to the
        // retryable form that feeds re-optimization, carrying the
        // broker diagnosis in its message.
        assert!(err.is_retryable());
        assert!(
            err.to_string().contains("MEMORY_EXCEEDED"),
            "expected the typed memory diagnosis, got: {err}"
        );
    }

    #[test]
    fn spill_disabled_with_budget_downgrades_to_retryable() {
        use crate::membroker::MemoryBroker;
        use hive_dfs::{DfsPath, DistFs};
        use std::sync::atomic::AtomicU64;
        let l = big_batch("l", 2_000, 100);
        let r = big_batch("r", 2_000, 100);
        let out_schema = l.schema().join(r.schema());
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        let fs = DistFs::new();
        let broker = MemoryBroker::with_budget(8 * 1024);
        let ops = AtomicU64::new(0);
        let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q0"), &broker, false, &ops);
        let err = execute_join_par(
            &SelBatch::from_batch(l),
            &SelBatch::from_batch(r),
            JoinType::Inner,
            &equi,
            &None,
            &out_schema,
            usize::MAX,
            1,
            Some(&sp),
            None,
        )
        .unwrap_err();
        assert!(err.is_retryable());
        assert!(err.to_string().contains("MEMORY_EXCEEDED"), "{err}");
    }

    #[test]
    fn grace_join_is_byte_identical_and_spills() {
        use crate::membroker::MemoryBroker;
        use hive_dfs::{DfsPath, DistFs};
        use std::sync::atomic::AtomicU64;
        let l = big_batch("l", 9_000, 500);
        let r = big_batch("r", 3_000, 500);
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Right,
            JoinType::Full,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let out_schema = if jt.keeps_right() {
                l.schema().join(r.schema())
            } else {
                l.schema().clone()
            };
            let lsb = SelBatch::from_batch(l.clone());
            let rsb = SelBatch::from_batch(r.clone());
            let expected = reference_join(&l, &r, jt);
            assert_eq!(
                par_rows(&lsb, &rsb, jt, &out_schema, 1, None),
                expected,
                "{jt:?} in-memory build diverged from the reference"
            );
            let fs = DistFs::new();
            // A few KB: far below the build estimate, so the grace path
            // must engage and recurse at least one level.
            let broker = MemoryBroker::with_budget(16 * 1024);
            let ops = AtomicU64::new(0);
            let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q0"), &broker, true, &ops);
            let rows = par_rows(&lsb, &rsb, jt, &out_schema, 1, Some(&sp));
            assert_eq!(rows, expected, "{jt:?} grace join diverged");
            assert!(
                sp.stats.bytes_written() > 0,
                "{jt:?} grace run never spilled"
            );
            assert!(sp.stats.bytes_read() > 0, "partitions were read back");
            assert!(
                fs.list_files_recursive(&DfsPath::new("/tmp/spill"))
                    .is_empty(),
                "spill files all deleted after the join"
            );
            assert!(broker.denials() > 0);
            assert_eq!(broker.reserved(), 0, "all grants released");
        }
    }

    #[test]
    fn cross_join_without_keys() {
        let l = batch("l", &[(Some(1), "a"), (Some(2), "b")]);
        let r = batch("r", &[(Some(9), "x")]);
        let out_schema = l.schema().join(r.schema());
        let out =
            execute_join(&l, &r, JoinType::Cross, &[], &None, &out_schema, 1_000_000).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn runtime_filter_build() {
        let r = batch("r", &[(Some(5), "a"), (Some(9), "b"), (None, "n")]);
        let (min, max, bloom) = build_runtime_filter(&r, 0).unwrap();
        assert_eq!(min, Value::Int(5));
        assert_eq!(max, Value::Int(9));
        assert!(bloom.might_contain(&Value::Int(5)));
        assert!(!bloom.might_contain(&Value::Int(6)));
    }

    fn big_batch(name: &str, n: usize, key_mod: i32) -> VectorBatch {
        let schema = Schema::new(vec![
            Field::new(format!("{name}_k"), DataType::Int),
            Field::new(format!("{name}_v"), DataType::String),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let k = if i % 17 == 0 {
                    Value::Null
                } else {
                    Value::Int((i as i32).wrapping_mul(31).wrapping_add(7) % key_mod)
                };
                Row::new(vec![k, Value::String(format!("v{i}"))])
            })
            .collect();
        VectorBatch::from_rows(&schema, &rows).unwrap()
    }

    /// Run `execute_join_par` on column 0 of each side and render rows
    /// in output order.
    fn par_rows(
        l: &SelBatch,
        r: &SelBatch,
        jt: JoinType,
        out_schema: &Schema,
        workers: usize,
        spill: Option<&SpillCtx<'_>>,
    ) -> Vec<String> {
        let equi = vec![(ScalarExpr::Column(0), ScalarExpr::Column(0))];
        let out = execute_join_par(
            l, r, jt, &equi, &None, out_schema, 1_000_000, workers, spill, None,
        )
        .unwrap();
        out.to_rows().iter().map(|row| row.to_string()).collect()
    }

    /// Row-at-a-time reference for an equi-join on column 0 of each
    /// side, with no hashing: build rows collect under their distinct
    /// keys by a linear scan with `Value::group_eq`, and each probe row
    /// finds its key the same way (NULL keys never match). Matches emit
    /// in probe order, build rows ascending, unmatched build rows last —
    /// the output order the hash join promises.
    fn reference_join(l: &VectorBatch, r: &VectorBatch, jt: JoinType) -> Vec<String> {
        let (lrows, rrows) = (l.to_rows(), r.to_rows());
        let joined = |a: &[Value], b: &[Value]| Row::new([a, b].concat()).to_string();
        let (lnull, rnull) = (
            vec![Value::Null; l.num_columns()],
            vec![Value::Null; r.num_columns()],
        );
        let mut build: Vec<(&Value, Vec<usize>)> = Vec::new();
        for (j, rr) in rrows.iter().enumerate() {
            let k = rr.get(0);
            if k.is_null() {
                continue;
            }
            match build.iter_mut().find(|(bk, _)| bk.group_eq(k)) {
                Some((_, js)) => js.push(j),
                None => build.push((k, vec![j])),
            }
        }
        let mut out = Vec::new();
        let mut matched = vec![false; rrows.len()];
        for lr in &lrows {
            let k = lr.get(0);
            let hits: &[usize] = match build.iter().find(|(bk, _)| !k.is_null() && bk.group_eq(k)) {
                Some((_, js)) => js,
                None => &[],
            };
            match jt {
                JoinType::Semi | JoinType::Anti => {
                    if hits.is_empty() == (jt == JoinType::Anti) {
                        out.push(lr.to_string());
                    }
                }
                _ => {
                    for &j in hits {
                        matched[j] = true;
                        out.push(joined(lr.values(), rrows[j].values()));
                    }
                    if hits.is_empty() && matches!(jt, JoinType::Left | JoinType::Full) {
                        out.push(joined(lr.values(), &rnull));
                    }
                }
            }
        }
        if matches!(jt, JoinType::Right | JoinType::Full) {
            for (j, rr) in rrows.iter().enumerate() {
                if !matched[j] {
                    out.push(joined(&lnull, rr.values()));
                }
            }
        }
        out
    }

    #[test]
    fn parallel_join_is_byte_identical_for_every_join_type() {
        let l = big_batch("l", 9_000, 500);
        let r = big_batch("r", 3_000, 500);
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Right,
            JoinType::Full,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let out_schema = if jt.keeps_right() {
                l.schema().join(r.schema())
            } else {
                l.schema().clone()
            };
            let lsb = SelBatch::from_batch(l.clone());
            let rsb = SelBatch::from_batch(r.clone());
            let expected = reference_join(&l, &r, jt);
            assert!(!expected.is_empty(), "{jt:?} produced no rows");
            for workers in [1, 2, 8] {
                assert_eq!(
                    par_rows(&lsb, &rsb, jt, &out_schema, workers, None),
                    expected,
                    "{jt:?} with {workers} workers diverged"
                );
            }
        }
    }

    #[test]
    fn join_routing_hashes_are_pinned_fnv1a() {
        // Routing must stay on FNV-1a over the canonical key encoding:
        // a silent change would reshuffle build partitions and the
        // fault-injection schedule. Pinned against hive_common::hash.
        let ints = ColumnVector::Int(
            vec![42, 1],
            Some({
                let mut n = hive_common::BitSet::new(2);
                n.set(1);
                n
            }),
        );
        let other = ColumnVector::Int(vec![42, 1], None);
        let codecs = vec![JoinCodec::new(&ints, &other)];
        let hs = hash_rows(&codecs, 0, 2, false);
        assert_eq!(hs[0], Some(0xb960_a184_f070_32c6)); // fnv1a(enc(Int 42))
        assert_eq!(hs[1], None); // NULL key never hashes
        let hs = hash_rows(&codecs, 0, 2, true);
        assert_eq!(hs[0], Some(0xb960_a184_f070_32c6));
        assert_eq!(hs[1], Some(0x7194_f3e5_9ae4_7dcd)); // fnv1a(enc(Int 1))
    }

    #[test]
    fn dict_join_keys_match_the_reference() {
        // dict×dict joins key on right-side codes; dict-only-left
        // entries must miss. Columns are built as real dictionary
        // vectors so the `Codes` codec engages.
        let mk = |codes: Vec<u32>, dict: &[&str]| {
            let schema = Schema::new(vec![Field::new("k", DataType::String)]);
            let dict = Arc::new(dict.iter().map(|s| s.to_string()).collect::<Vec<_>>());
            let col = ColumnVector::dict_from_codes(codes, dict, None).unwrap();
            let n = col.len();
            VectorBatch::new_with_rows(schema, vec![col], n).unwrap()
        };
        // l: a b c a zz — "c"/"zz" absent from the right dictionary.
        let l = mk(vec![0, 1, 2, 0, 3], &["a", "b", "c", "zz"]);
        let r = mk(vec![0, 1, 0], &["b", "a"]);
        let out_schema = l.schema().join(r.schema());
        let expected = reference_join(&l, &r, JoinType::Left);
        let lsb = SelBatch::from_batch(l);
        let rsb = SelBatch::from_batch(r);
        let rows = par_rows(&lsb, &rsb, JoinType::Left, &out_schema, 1, None);
        assert_eq!(rows, expected);
        assert!(rows.contains(&"zz\tNULL".to_string()), "{rows:?}");
    }
}
