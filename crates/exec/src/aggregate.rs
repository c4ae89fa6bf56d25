//! Hash aggregation, including DISTINCT aggregates and GROUPING SETS.
//!
//! The build phase is morsel-parallel: rows are partitioned by a stable
//! group-key hash so each group's rows land in exactly one partition
//! and fold in ascending row order — the same fold order as the serial
//! loop, which matters for order-sensitive accumulators (f64 sums,
//! Welford variance). Partitions merge by each group's first-seen row
//! index, so the emitted row order is byte-identical for any worker or
//! partition count (and deterministic, unlike HashMap iteration order).

use crate::dict::{KeyPart, KeyReader};
use crate::kernels::eval_vector;
use crate::rawtable::{self, RawTable};
use crate::spill::{partition_of, plan_partition, push_rec, RecIter, SpillCtx};
use hive_common::hash::FNV_OFFSET;
use hive_common::{ColumnVector, Result, Row, SelBatch, SelVec, Value, VectorBatch};
use hive_optimizer::{AggExpr, AggFunc, ScalarExpr};
use std::sync::Arc;

/// One in-flight aggregate state.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        count: i64,
    },
    /// Welford's online variance.
    Stddev {
        n: i64,
        mean: f64,
        m2: f64,
    },
    Distinct {
        seen: DistinctSet,
        func: AggFunc,
    },
}

/// Dedup state for DISTINCT aggregates: values dedup by canonical
/// encoding bytes (no `Value` clone for already-seen inputs) and are
/// kept in first-seen order (`vals`), so fold-order sensitive finishers
/// (SUM/AVG over doubles) are byte-identical across worker counts — a
/// group's rows all live in one partition and arrive in ascending row
/// order, so first-seen order is thread-invariant.
#[derive(Debug, Clone, Default)]
struct DistinctSet {
    table: RawTable,
    scratch: Vec<u8>,
    vals: Vec<Value>,
}

impl DistinctSet {
    fn insert(&mut self, v: &Value) {
        let h = rawtable::hash_value(v, &mut self.scratch);
        let (_, inserted) = self.table.insert(h, &self.scratch);
        if inserted {
            self.vals.push(v.clone());
        }
    }
}

impl Acc {
    fn new(a: &AggExpr) -> Acc {
        if a.distinct {
            return Acc::Distinct {
                seen: DistinctSet::default(),
                func: a.func,
            };
        }
        match a.func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, count: 0 },
            AggFunc::StddevSamp => Acc::Stddev {
                n: 0,
                mean: 0.0,
                m2: 0.0,
            },
        }
    }

    /// Fold one value (`None` arg = COUNT(*) semantics).
    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            Acc::Count(c) => {
                match v {
                    None => *c += 1,                    // COUNT(*)
                    Some(x) if !x.is_null() => *c += 1, // COUNT(expr)
                    _ => {}
                }
            }
            Acc::Sum(acc) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        *acc = Some(match acc.take() {
                            None => x.clone(),
                            Some(cur) => cur.add(x)?,
                        });
                    }
                }
            }
            Acc::Min(acc) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        let replace = match acc {
                            None => true,
                            Some(cur) => x.sql_cmp(cur) == Some(std::cmp::Ordering::Less),
                        };
                        if replace {
                            *acc = Some(x.clone());
                        }
                    }
                }
            }
            Acc::Max(acc) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        let replace = match acc {
                            None => true,
                            Some(cur) => x.sql_cmp(cur) == Some(std::cmp::Ordering::Greater),
                        };
                        if replace {
                            *acc = Some(x.clone());
                        }
                    }
                }
            }
            Acc::Avg { sum, count } => {
                if let Some(x) = v {
                    if let Some(f) = x.as_f64() {
                        *sum += f;
                        *count += 1;
                    }
                }
            }
            Acc::Stddev { n, mean, m2 } => {
                if let Some(x) = v {
                    if let Some(f) = x.as_f64() {
                        *n += 1;
                        let delta = f - *mean;
                        *mean += delta / *n as f64;
                        *m2 += delta * (f - *mean);
                    }
                }
            }
            Acc::Distinct { seen, .. } => {
                if let Some(x) = v {
                    if !x.is_null() {
                        seen.insert(x);
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Value> {
        Ok(match self {
            Acc::Count(c) => Value::BigInt(c),
            Acc::Sum(v) => v.unwrap_or(Value::Null),
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / count as f64)
                }
            }
            Acc::Stddev { n, m2, .. } => {
                if n < 2 {
                    Value::Null
                } else {
                    Value::Double((m2 / (n - 1) as f64).sqrt())
                }
            }
            Acc::Distinct { seen, func } => {
                // Fold in first-seen order (see [`DistinctSet`]) so the
                // result is identical across worker counts.
                let vals = seen.vals;
                match func {
                    AggFunc::Count => Value::BigInt(vals.len() as i64),
                    AggFunc::Sum => {
                        let mut acc: Option<Value> = None;
                        for v in vals {
                            acc = Some(match acc {
                                None => v,
                                Some(cur) => cur.add(&v)?,
                            });
                        }
                        acc.unwrap_or(Value::Null)
                    }
                    AggFunc::Avg => {
                        let (mut s, mut n) = (0.0, 0);
                        for v in &vals {
                            if let Some(f) = v.as_f64() {
                                s += f;
                                n += 1;
                            }
                        }
                        if n == 0 {
                            Value::Null
                        } else {
                            Value::Double(s / n as f64)
                        }
                    }
                    AggFunc::Min => vals
                        .into_iter()
                        .min_by(|a, b| a.total_cmp_nulls_last(b))
                        .unwrap_or(Value::Null),
                    AggFunc::Max => vals
                        .into_iter()
                        .max_by(|a, b| a.total_cmp_nulls_last(b))
                        .unwrap_or(Value::Null),
                    AggFunc::StddevSamp => Value::Null,
                }
            }
        })
    }
}

/// Execute an Aggregate node over a materialized input (serial path;
/// identical results to [`execute_aggregate_par`] at any worker count).
pub fn execute_aggregate(
    input: &VectorBatch,
    group_exprs: &[ScalarExpr],
    grouping_sets: &Option<Vec<Vec<usize>>>,
    aggs: &[AggExpr],
    out_schema: &hive_common::Schema,
) -> Result<VectorBatch> {
    execute_aggregate_par(
        &SelBatch::from_batch(input.clone()),
        group_exprs,
        grouping_sets,
        aggs,
        out_schema,
        1,
        None,
        None,
    )
}

/// Execute an Aggregate node over a materialized input with a
/// hash-partitioned parallel build across up to `workers` threads.
///
/// The input arrives as a `(batch, selection)` pair: bare-column keys
/// and arguments read straight through the selection (no compaction),
/// computed expressions compact the input once up front.
///
/// `out_schema` is the logical node's output schema (group keys, aggs,
/// and the grouping-id column when `grouping_sets` is present).
///
/// `pir` is `Some` when the physical IR is enabled: the build then
/// records each row's group assignment and folds every aggregate
/// through a compiled accumulator kernel ([`crate::pir::agg`]) when all
/// of them are compilable, reporting compiled/fallback accounting into
/// the counters.
#[allow(clippy::too_many_arguments)]
pub fn execute_aggregate_par(
    input: &SelBatch,
    group_exprs: &[ScalarExpr],
    grouping_sets: &Option<Vec<Vec<usize>>>,
    aggs: &[AggExpr],
    out_schema: &hive_common::Schema,
    workers: usize,
    spill: Option<&SpillCtx<'_>>,
    mut pir: Option<&mut crate::pir::PirCounters>,
) -> Result<VectorBatch> {
    let trivial = group_exprs
        .iter()
        .all(|g| matches!(g, ScalarExpr::Column(_)))
        && aggs.iter().all(|a| {
            a.arg
                .as_ref()
                .is_none_or(|e| matches!(e, ScalarExpr::Column(_)))
        });
    let input = if input.sel.is_all() || trivial {
        input.clone()
    } else {
        SelBatch::from_batch(input.clone().compact())
    };
    // Evaluate key and argument columns once, over the batch domain
    // (bare columns are `Arc` clones — zero copy); the build below maps
    // selected positions back through `input.sel`.
    let key_cols = group_exprs
        .iter()
        .map(|g| eval_vector(g, &input.batch))
        .collect::<Result<Vec<_>>>()?;
    let arg_cols = aggs
        .iter()
        .map(|a| {
            a.arg
                .as_ref()
                .map(|e| eval_vector(e, &input.batch))
                .transpose()
        })
        .collect::<Result<Vec<_>>>()?;

    // Compiled-accumulator gate: every aggregate must have a
    // monomorphized kernel for its argument's runtime representation,
    // or the whole build stays on the interpreted `Acc::update` loop
    // (mixing per-agg would change nothing — the per-row dispatch is
    // the cost being removed).
    let compiled = pir.is_some()
        && aggs
            .iter()
            .zip(&arg_cols)
            .all(|(a, c)| crate::pir::agg::compilable(a.func, a.distinct, c.as_deref()));

    let sets: Vec<Vec<usize>> = match grouping_sets {
        Some(s) => s.clone(),
        None => vec![(0..group_exprs.len()).collect()],
    };
    let with_gid = grouping_sets.is_some();

    let mut any_compiled = false;
    let mut out_rows: Vec<Row> = Vec::new();
    for set in &sets {
        // Grouping id: bit k set when key k is aggregated away.
        let gid: i64 = (0..group_exprs.len())
            .filter(|k| !set.contains(k))
            .fold(0i64, |acc, k| acc | (1 << k));
        // Memory admission: the modeled table bytes (rows is the upper
        // bound on groups) must win a broker grant, held through the
        // build. A denial degrades to the partitioned spilling build;
        // with spill disabled the build proceeds over budget instead
        // (visible in the broker peak) — group-bys have no in-memory
        // fallback the way joins have re-optimization.
        let est = crate::spill::estimate_agg_bytes(input.sel.len(), set.len().max(1), aggs.len());
        let admission = spill.map(|sp| (sp, sp.broker.try_reserve("group-by", est)));
        let spilled = matches!(&admission, Some((sp, None)) if sp.enabled);
        // The spilling build keeps the interpreted accumulators: its
        // record-at-a-time recursion has no batch to fold over.
        if let Some(pc) = pir.as_deref_mut() {
            if compiled && !spilled {
                any_compiled = true;
            } else {
                pc.fallback_rows += input.sel.len() as u64;
            }
        }
        let mut groups = match &admission {
            Some((sp, None)) if sp.enabled => {
                build_groups_spilled(&input.sel, &key_cols, &arg_cols, set, aggs, sp)?
            }
            _ => {
                let _forced = match &admission {
                    Some((sp, None)) => Some(sp.broker.force_reserve("group-by", est)),
                    _ => None,
                };
                build_groups(
                    &input.sel, &key_cols, &arg_cols, set, aggs, workers, compiled,
                )?
            }
        };
        // Global aggregation with no keys over empty input yields the
        // neutral row.
        if groups.is_empty() && set.is_empty() {
            groups.push((Vec::new(), aggs.iter().map(Acc::new).collect()));
        }
        for (key, accs) in groups {
            let mut row: Vec<Value> = Vec::with_capacity(out_schema.len());
            let mut key_iter = key.into_iter();
            for k in 0..group_exprs.len() {
                if set.contains(&k) {
                    // invariant: the key vec holds exactly one value per
                    // member of `set`, pushed in `set` order below.
                    row.push(key_iter.next().ok_or_else(|| {
                        hive_common::HiveError::Execution("group key arity mismatch".into())
                    })?);
                } else {
                    row.push(Value::Null);
                }
            }
            // Keys were produced in `set` order; reorder into key-index
            // order. (`set` is ascending by construction from the
            // parser, so the straight zip above is already aligned —
            // assert in debug builds.)
            debug_assert!(set.windows(2).all(|w| w[0] < w[1]));
            for acc in accs {
                row.push(acc.finish()?);
            }
            if with_gid {
                row.push(Value::BigInt(gid));
            }
            out_rows.push(Row::new(row));
        }
    }
    if any_compiled {
        if let Some(pc) = pir {
            pc.compiled_stages += 1;
        }
    }
    VectorBatch::from_rows(out_schema, &out_rows)
}

/// Replace each group's interpreted accumulator states with the
/// compiled fold of the recorded `(row, group)` assignment — one
/// type-specialized pass per aggregate over the whole partition.
fn fold_compiled(
    groups: &mut [(usize, Vec<Acc>)],
    rows_idx: &[u32],
    assign: &[u32],
    aggs: &[AggExpr],
    arg_cols: &[Option<Arc<ColumnVector>>],
) -> Result<()> {
    use crate::pir::agg::{fold, FoldOut};
    if groups.is_empty() {
        return Ok(());
    }
    for (ai, a) in aggs.iter().enumerate() {
        match fold(
            a.func,
            arg_cols[ai].as_deref(),
            rows_idx,
            assign,
            groups.len(),
        )? {
            FoldOut::Count(cs) => {
                for (g, c) in groups.iter_mut().zip(cs) {
                    g.1[ai] = Acc::Count(c);
                }
            }
            FoldOut::Opt(vs) => {
                for (g, v) in groups.iter_mut().zip(vs) {
                    g.1[ai] = match a.func {
                        AggFunc::Sum => Acc::Sum(v),
                        AggFunc::Min => Acc::Min(v),
                        _ => Acc::Max(v),
                    };
                }
            }
            FoldOut::Avg(ss) => {
                for (g, (sum, count)) in groups.iter_mut().zip(ss) {
                    g.1[ai] = Acc::Avg { sum, count };
                }
            }
        }
    }
    Ok(())
}

/// Stable FNV-1a hashes of the group keys for selected positions
/// `lo..hi`, computed column-wise: one pass per key column folding that
/// column's canonical key-part encoding into every row's running state
/// (the batch-at-a-time combine step; see [`hive_common::hash`]).
///
/// The hash routes rows to build partitions and doubles as the table
/// probe hash — by construction it equals `fnv1a` of the concatenated
/// key-part encodings, i.e. of the arena key bytes. Routing is result-invisible (merge order comes
/// from first-seen row indices), so dictionary codes are safe to hash.
fn hash_rows(readers: &[KeyReader<'_>], sel: &SelVec, lo: usize, hi: usize) -> Vec<u64> {
    let mut hs = vec![FNV_OFFSET; hi - lo];
    let mut scratch: Vec<u8> = Vec::new();
    for r in readers {
        for (slot, h) in hs.iter_mut().enumerate() {
            *h = r.fold_part_at(sel.index(lo + slot), *h, &mut scratch);
        }
    }
    hs
}

/// Build the aggregation state for one grouping set, returning groups
/// ordered by their first-seen selected position — exactly the order
/// the serial single-pass build discovers them in, for any `workers`
/// count. Iteration runs over selected positions `0..sel.len()`; the
/// key/arg columns span the batch domain and are read at `sel.index(p)`.
fn build_groups(
    sel: &SelVec,
    key_cols: &[Arc<ColumnVector>],
    arg_cols: &[Option<Arc<ColumnVector>>],
    set: &[usize],
    aggs: &[AggExpr],
    workers: usize,
    compiled: bool,
) -> Result<Vec<(Vec<Value>, Vec<Acc>)>> {
    let num_rows = sel.len();
    // Key access goes through per-column readers: dictionary-encoded
    // string columns contribute their u32 code (no string clone, no
    // Value allocation per row), everything else its scalar value.
    let readers: Vec<KeyReader<'_>> = set
        .iter()
        .map(|&k| KeyReader::new(key_cols[k].as_ref()))
        .collect();
    // Dense group lookup for the common single-dictionary-key case:
    // slot 0 is the NULL group, slot c+1 the group of code c — no
    // per-row key bytes, no table probe at all.
    let dense_len = match &readers[..] {
        [r] => r.dict_len(),
        _ => None,
    };

    let parallel = workers > 1 && num_rows >= 2;
    // Hashes route rows to partitions (parallel build) and serve as the
    // table probe hash (non-dense keys). The dense path indexes groups
    // by code, so serial dense builds skip hashing entirely.
    let need_hashes = parallel || (dense_len.is_none() && num_rows > 0);
    let hashes: Vec<u64> = if need_hashes {
        let chunk = num_rows.div_ceil(workers.max(1)).max(1);
        let nchunks = num_rows.div_ceil(chunk);
        crate::par::parallel_map(workers.max(1), nchunks, |c| {
            let lo = c * chunk;
            let hi = ((c + 1) * chunk).min(num_rows);
            Ok(hash_rows(&readers, sel, lo, hi))
        })?
        .concat()
    } else {
        Vec::new()
    };

    // Materialize a group's key scalars from its first-seen position —
    // once per group, not once per row.
    let emit_pos = |pos: usize| -> Vec<Value> {
        let i = sel.index(pos);
        readers.iter().map(|r| r.value_of(&r.part(i))).collect()
    };

    // One partition's build: fold every selected position whose stable
    // key hash maps to this partition, in ascending position order,
    // tracking each group's first position for the deterministic merge.
    // Group index = table entry id (entry ids are dense in insertion
    // order, and groups are pushed on insertion, so they stay aligned).
    // Keys live as canonical bytes in the table arena — no per-group
    // key vector and no `Value` clones until emit. `hashes` is only
    // indexed under `route` or a table probe (it stays empty otherwise),
    // so position-loop indexing is the correct shape, not a zip candidate.
    #[allow(clippy::needless_range_loop)]
    let build = |route: Option<(usize, usize)>| -> Result<Vec<(usize, Vec<Acc>)>> {
        let mut table = RawTable::new();
        let mut scratch: Vec<u8> = Vec::new();
        let mut groups: Vec<(usize, Vec<Acc>)> = Vec::new();
        let mut dense: Vec<usize> = vec![usize::MAX; dense_len.map_or(0, |d| d + 1)];
        let (mut rows_idx, mut assign): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        for pos in 0..num_rows {
            if let Some((nparts, p)) = route {
                if hashes[pos] as usize % nparts != p {
                    continue;
                }
            }
            let i = sel.index(pos);
            let gi = if dense_len.is_some() {
                let slot = match readers[0].part(i) {
                    KeyPart::Null => 0,
                    KeyPart::Code(c) => c as usize + 1,
                    // invariant: a reader with dict_len() set only
                    // emits Null and Code parts.
                    KeyPart::Val(_) => unreachable!("value part from a dictionary reader"),
                };
                if dense[slot] == usize::MAX {
                    dense[slot] = groups.len();
                    groups.push((pos, aggs.iter().map(Acc::new).collect()));
                }
                dense[slot]
            } else {
                scratch.clear();
                for r in &readers {
                    r.encode_part_at(i, &mut scratch);
                }
                let (e, inserted) = table.insert(hashes[pos], &scratch);
                if inserted {
                    groups.push((pos, aggs.iter().map(Acc::new).collect()));
                }
                e as usize
            };
            // Compiled path: record the assignment, fold per aggregate
            // below — no per-row `Value` materialization or dispatch.
            if compiled {
                rows_idx.push(i as u32);
                assign.push(gi as u32);
            } else {
                for (acc, arg) in groups[gi].1.iter_mut().zip(arg_cols) {
                    let v = arg.as_ref().map(|c| c.get(i));
                    acc.update(v.as_ref())?;
                }
            }
        }
        if compiled {
            fold_compiled(&mut groups, &rows_idx, &assign, aggs, arg_cols)?;
        }
        Ok(groups)
    };

    if !parallel {
        let groups = build(None)?;
        return Ok(groups
            .into_iter()
            .map(|(pos, a)| (emit_pos(pos), a))
            .collect());
    }

    // One build per hash partition. A group's rows all share a hash, so
    // they live in exactly one partition and fold in position order;
    // the merge sorts by global first-seen position, restoring the
    // serial discovery order.
    let nparts = workers;
    let parts = crate::par::parallel_map(workers, nparts, |p| build(Some((nparts, p))))?;
    let mut all: Vec<(usize, Vec<Acc>)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(first_pos, _)| *first_pos);
    Ok(all.into_iter().map(|(pos, a)| (emit_pos(pos), a)).collect())
}

/// The spilling build for one grouping set: every selected position's
/// group key is encoded into a spill record (stable hash + canonical
/// key bytes + position — the same format the grace join uses), then
/// recursively partitioned through disk until a partition's modeled
/// table fits the working budget. Each leaf builds its groups exactly
/// like the in-memory build; the final merge sorts by global first-seen
/// position, restoring the serial discovery order.
///
/// Byte-identity with the in-memory path: a group's rows all share a
/// key hash, so they land in one partition and fold in ascending
/// position order (partitioning preserves relative record order) —
/// the same fold order the serial loop uses, which is what keeps
/// order-sensitive accumulators (f64 sums, Welford variance, DISTINCT
/// first-seen order) bit-exact. The whole path is serial, so its spill
/// I/O schedule replays deterministically at any worker count.
fn build_groups_spilled(
    sel: &SelVec,
    key_cols: &[Arc<ColumnVector>],
    arg_cols: &[Option<Arc<ColumnVector>>],
    set: &[usize],
    aggs: &[AggExpr],
    sp: &SpillCtx<'_>,
) -> Result<Vec<(Vec<Value>, Vec<Acc>)>> {
    let num_rows = sel.len();
    let readers: Vec<KeyReader<'_>> = set
        .iter()
        .map(|&k| KeyReader::new(key_cols[k].as_ref()))
        .collect();
    let hashes = hash_rows(&readers, sel, 0, num_rows);
    let mut recs: Vec<u8> = Vec::new();
    let mut scratch: Vec<u8> = Vec::new();
    for (pos, h) in hashes.iter().enumerate() {
        scratch.clear();
        let i = sel.index(pos);
        for r in &readers {
            r.encode_part_at(i, &mut scratch);
        }
        // NULL is a group: every row has a key hash and a record.
        push_rec(&mut recs, *h, pos as u32, &scratch);
    }
    let op = sp.next_op();
    let mut groups: Vec<(usize, Vec<Acc>)> = Vec::new();
    let mut file_seq = 0u64;
    agg_solve(
        sp,
        op,
        sel,
        arg_cols,
        aggs,
        set.len().max(1),
        0,
        None,
        num_rows,
        &recs,
        &mut groups,
        &mut file_seq,
    )?;
    groups.sort_by_key(|(first_pos, _)| *first_pos);
    let emit_pos = |pos: usize| -> Vec<Value> {
        let i = sel.index(pos);
        readers.iter().map(|r| r.value_of(&r.part(i))).collect()
    };
    Ok(groups
        .into_iter()
        .map(|(pos, a)| (emit_pos(pos), a))
        .collect())
}

/// Solve one aggregation partition: fold it in memory (charging the
/// broker) or split it `fanout` ways through spill files and recurse —
/// the same discipline as the grace join's [`crate::spill::plan_partition`]
/// recursion, with the no-progress and depth guards bounding skewed
/// key distributions.
#[allow(clippy::too_many_arguments)]
fn agg_solve(
    sp: &SpillCtx<'_>,
    op: u64,
    sel: &SelVec,
    arg_cols: &[Option<Arc<ColumnVector>>],
    aggs: &[AggExpr],
    key_cols_n: usize,
    depth: u32,
    parent_rows: Option<usize>,
    rows: usize,
    recs: &[u8],
    out: &mut Vec<(usize, Vec<Acc>)>,
    file_seq: &mut u64,
) -> Result<()> {
    let est = crate::spill::estimate_agg_bytes(rows, key_cols_n, aggs.len());
    let plan = plan_partition(est, sp.broker.chunk_budget(), depth, rows, parent_rows);
    if plan.process_in_memory {
        // Forced when over budget: the skewed tail (one dominant key /
        // depth cap) proceeds rather than fails; see the broker peak.
        let _g = match sp.broker.try_reserve("group-by-partition", est) {
            Some(g) => g,
            None => sp.broker.force_reserve("group-by-partition", est),
        };
        let mut groups: Vec<(usize, Vec<Acc>)> = Vec::new();
        let mut table = RawTable::new();
        for rec in RecIter::new(recs) {
            let (h, pos, key) = rec?;
            let (e, inserted) = table.insert(h, key);
            if inserted {
                groups.push((pos as usize, aggs.iter().map(Acc::new).collect()));
            }
            let i = sel.index(pos as usize);
            for (acc, arg) in groups[e as usize].1.iter_mut().zip(arg_cols) {
                let v = arg.as_ref().map(|c| c.get(i));
                acc.update(v.as_ref())?;
            }
        }
        out.extend(groups);
        return Ok(());
    }

    let fanout = plan.fanout;
    let mut parts: Vec<(Vec<u8>, usize)> = vec![(Vec::new(), 0); fanout];
    for rec in RecIter::new(recs) {
        let (h, pos, key) = rec?;
        let p = partition_of(h, depth, fanout);
        push_rec(&mut parts[p].0, h, pos, key);
        parts[p].1 += 1;
    }
    // Write every partition before reading any back (the grace
    // discipline: one partition's records resident at a time below).
    let mut files = Vec::with_capacity(fanout);
    for (p, (buf, n)) in parts.drain(..).enumerate() {
        if buf.is_empty() {
            continue;
        }
        let id = *file_seq;
        *file_seq += 1;
        files.push((sp.write(&format!("op{op}-s{id}-p{p}.agg"), buf)?, n));
    }
    for (f, n) in files {
        let buf = sp.read(&f)?;
        drop(f);
        agg_solve(
            sp,
            op,
            sel,
            arg_cols,
            aggs,
            key_cols_n,
            depth + 1,
            Some(rows),
            n,
            &buf,
            out,
            file_seq,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::{DataType, Field, Schema};
    use hive_optimizer::eval::eval_scalar;
    use hive_optimizer::plan::LogicalPlan;
    use std::sync::Arc;

    fn input() -> VectorBatch {
        let schema = Schema::new(vec![
            Field::new("k", DataType::String),
            Field::new("v", DataType::Int),
        ]);
        VectorBatch::from_rows(
            &schema,
            &[
                Row::new(vec![Value::String("a".into()), Value::Int(1)]),
                Row::new(vec![Value::String("a".into()), Value::Int(2)]),
                Row::new(vec![Value::String("b".into()), Value::Int(10)]),
                Row::new(vec![Value::String("a".into()), Value::Null]),
                Row::new(vec![Value::Null, Value::Int(5)]),
            ],
        )
        .unwrap()
    }

    fn agg_schema(
        input: &VectorBatch,
        groups: &[ScalarExpr],
        sets: &Option<Vec<Vec<usize>>>,
        aggs: &[AggExpr],
    ) -> Schema {
        let plan = LogicalPlan::Aggregate {
            input: Arc::new(LogicalPlan::Values {
                schema: input.schema().clone(),
                rows: vec![],
            }),
            group_exprs: groups.to_vec(),
            grouping_sets: sets.clone(),
            aggs: aggs.to_vec(),
        };
        plan.schema()
    }

    fn sorted_rows(b: &VectorBatch) -> Vec<String> {
        let mut v: Vec<String> = b.to_rows().iter().map(|r| r.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn group_by_with_count_sum() {
        let b = input();
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
            AggExpr {
                func: AggFunc::Count,
                arg: Some(ScalarExpr::Column(1)),
                distinct: false,
            },
        ];
        let schema = agg_schema(&b, &groups, &None, &aggs);
        let out = execute_aggregate(&b, &groups, &None, &aggs, &schema).unwrap();
        assert_eq!(
            sorted_rows(&out),
            vec![
                "NULL\t1\t5\t1", // null group
                "a\t3\t3\t2",    // count(*)=3 but count(v)=2
                "b\t1\t10\t1",
            ]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let empty = VectorBatch::from_rows(&schema, &[]).unwrap();
        let aggs = vec![
            AggExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::Column(0)),
                distinct: false,
            },
        ];
        let out_schema = agg_schema(&empty, &[], &None, &aggs);
        let out = execute_aggregate(&empty, &[], &None, &aggs, &out_schema).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0).get(0), &Value::BigInt(0));
        assert!(out.row(0).get(1).is_null());
    }

    #[test]
    fn distinct_aggregates() {
        let b = input();
        let aggs = vec![AggExpr {
            func: AggFunc::Count,
            arg: Some(ScalarExpr::Column(1)),
            distinct: true,
        }];
        let schema = agg_schema(&b, &[], &None, &aggs);
        let out = execute_aggregate(&b, &[], &None, &aggs, &schema).unwrap();
        // Distinct non-null values of v: 1, 2, 10, 5.
        assert_eq!(out.row(0).get(0), &Value::BigInt(4));
    }

    #[test]
    fn avg_and_stddev() {
        let b = input();
        let aggs = vec![
            AggExpr {
                func: AggFunc::Avg,
                arg: Some(ScalarExpr::Column(1)),
                distinct: false,
            },
            AggExpr {
                func: AggFunc::StddevSamp,
                arg: Some(ScalarExpr::Column(1)),
                distinct: false,
            },
        ];
        let schema = agg_schema(&b, &[], &None, &aggs);
        let out = execute_aggregate(&b, &[], &None, &aggs, &schema).unwrap();
        let avg = out.row(0).get(0).as_f64().unwrap();
        assert!((avg - 4.5).abs() < 1e-9); // (1+2+10+5)/4
        let sd = out.row(0).get(1).as_f64().unwrap();
        assert!(sd > 0.0);
    }

    #[test]
    fn grouping_sets_emit_all_sets_with_gid() {
        let b = input();
        let groups = vec![ScalarExpr::Column(0)];
        let sets = Some(vec![vec![0], vec![]]); // (k), ()
        let aggs = vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }];
        let schema = agg_schema(&b, &groups, &sets, &aggs);
        let out = execute_aggregate(&b, &groups, &sets, &aggs, &schema).unwrap();
        // 3 grouped rows + 1 total row.
        assert_eq!(out.num_rows(), 4);
        let rows = sorted_rows(&out);
        assert!(rows.contains(&"NULL\t5\t1".to_string()), "{rows:?}"); // total: gid 1
        assert!(rows.contains(&"a\t3\t0".to_string()), "{rows:?}");
    }

    /// Run `execute_aggregate_par` (no grouping sets) and render rows in
    /// output order.
    fn par_rows(
        sb: &SelBatch,
        groups: &[ScalarExpr],
        aggs: &[AggExpr],
        out_schema: &Schema,
        workers: usize,
        spill: Option<&SpillCtx<'_>>,
    ) -> Vec<String> {
        let out = execute_aggregate_par(sb, groups, &None, aggs, out_schema, workers, spill, None)
            .unwrap();
        out.to_rows().iter().map(|r| r.to_string()).collect()
    }

    /// Row-at-a-time reference GROUP BY on column 0: each row finds its
    /// group by a linear scan with `Value::group_eq` (NULLs group
    /// together); groups emit in first-seen order with accumulators
    /// folded in row order.
    fn reference_group_by(b: &VectorBatch, aggs: &[AggExpr]) -> Vec<String> {
        let mut groups: Vec<(Value, Vec<Acc>)> = Vec::new();
        for row in b.to_rows() {
            let k = row.get(0);
            let g = match groups.iter().position(|(gk, _)| gk.group_eq(k)) {
                Some(g) => g,
                None => {
                    groups.push((k.clone(), aggs.iter().map(Acc::new).collect()));
                    groups.len() - 1
                }
            };
            for (acc, a) in groups[g].1.iter_mut().zip(aggs) {
                let v = a.arg.as_ref().map(|e| eval_scalar(e, row.values()));
                acc.update(v.transpose().unwrap().as_ref()).unwrap();
            }
        }
        groups
            .into_iter()
            .map(|(k, accs)| {
                let mut vals = vec![k];
                vals.extend(accs.into_iter().map(|a| a.finish().unwrap()));
                Row::new(vals).to_string()
            })
            .collect()
    }

    #[test]
    fn parallel_aggregate_is_byte_identical() {
        // Floating-point aggregates (avg, stddev) are fold-order
        // sensitive, so byte-identical output across worker counts is a
        // strong check that the partitioned build preserves row order.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Double),
        ]);
        let rows: Vec<Row> = (0..12_000)
            .map(|i| {
                let k = if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i * 37 % 97)
                };
                Row::new(vec![k, Value::Double(i as f64 * 0.25 - 100.0)])
            })
            .collect();
        let b = VectorBatch::from_rows(&schema, &rows).unwrap();
        let groups = vec![ScalarExpr::Column(0)];
        let aggs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::StddevSamp,
        ]
        .into_iter()
        .map(|func| AggExpr {
            func,
            arg: Some(ScalarExpr::Column(1)),
            distinct: false,
        })
        .collect::<Vec<_>>();
        let out_schema = agg_schema(&b, &groups, &None, &aggs);
        let sb = SelBatch::from_batch(b);
        let expected = reference_group_by(&sb.batch, &aggs);
        assert_eq!(expected.len(), 98); // 97 int keys + NULL group
        for workers in [1, 2, 8] {
            assert_eq!(
                par_rows(&sb, &groups, &aggs, &out_schema, workers, None),
                expected,
                "{workers} workers diverged"
            );
        }
    }

    #[test]
    fn distinct_aggregates_match_the_reference_across_workers() {
        // DISTINCT SUM over doubles is fold-order sensitive: identical
        // output across worker counts pins the first-seen dedup order.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Double),
        ]);
        let rows: Vec<Row> = (0..4_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % 7),
                    Value::Double((i * 31 % 113) as f64 * 0.125 - 3.0),
                ])
            })
            .collect();
        let b = VectorBatch::from_rows(&schema, &rows).unwrap();
        let groups = vec![ScalarExpr::Column(0)];
        let aggs: Vec<AggExpr> = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg]
            .into_iter()
            .map(|func| AggExpr {
                func,
                arg: Some(ScalarExpr::Column(1)),
                distinct: true,
            })
            .collect();
        let out_schema = agg_schema(&b, &groups, &None, &aggs);
        let sb = SelBatch::from_batch(b);
        let expected = reference_group_by(&sb.batch, &aggs);
        for workers in [1, 4] {
            assert_eq!(
                par_rows(&sb, &groups, &aggs, &out_schema, workers, None),
                expected,
                "{workers} workers diverged"
            );
        }
    }

    #[test]
    fn spilled_aggregate_is_byte_identical() {
        use crate::membroker::MemoryBroker;
        use hive_dfs::{DfsPath, DistFs};
        use std::sync::atomic::AtomicU64;
        // Order-sensitive aggregates (f64 sum/avg/stddev + DISTINCT
        // sum) over many groups: the partitioned spilling build must
        // reproduce the in-memory build byte for byte.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Double),
        ]);
        let rows: Vec<Row> = (0..12_000)
            .map(|i| {
                let k = if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i * 37 % 97)
                };
                Row::new(vec![k, Value::Double(i as f64 * 0.25 - 100.0)])
            })
            .collect();
        let b = VectorBatch::from_rows(&schema, &rows).unwrap();
        let groups = vec![ScalarExpr::Column(0)];
        let mut aggs: Vec<AggExpr> = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::StddevSamp,
        ]
        .into_iter()
        .map(|func| AggExpr {
            func,
            arg: Some(ScalarExpr::Column(1)),
            distinct: false,
        })
        .collect();
        aggs.push(AggExpr {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::Column(1)),
            distinct: true,
        });
        let out_schema = agg_schema(&b, &groups, &None, &aggs);
        let sb = SelBatch::from_batch(b);
        let expected = reference_group_by(&sb.batch, &aggs);
        assert_eq!(
            par_rows(&sb, &groups, &aggs, &out_schema, 1, None),
            expected,
            "in-memory build diverged from the reference"
        );
        let fs = DistFs::new();
        let broker = MemoryBroker::with_budget(16 * 1024);
        let ops = AtomicU64::new(0);
        let sp = SpillCtx::new(&fs, DfsPath::new("/tmp/spill/q0"), &broker, true, &ops);
        let got = par_rows(&sb, &groups, &aggs, &out_schema, 1, Some(&sp));
        assert_eq!(got, expected, "spilled build diverged");
        assert!(sp.stats.bytes_written() > 0, "group-by never spilled");
        assert!(
            fs.list_files_recursive(&DfsPath::new("/tmp/spill"))
                .is_empty(),
            "spill files all deleted"
        );
        assert_eq!(broker.reserved(), 0, "all grants released");
    }

    #[test]
    fn routing_hashes_are_pinned_fnv1a() {
        // Partition routing must stay on FNV-1a over the canonical key
        // encoding forever: a silent hash change would reshuffle rows
        // across build partitions and change the fault-injection
        // schedule (not results). Pinned against the vectors in
        // hive_common::hash.
        let ints = ColumnVector::Int(vec![42, 1], None);
        let strs = ColumnVector::Str(vec!["ab".into(), "cd".into()], None);
        let r_int = KeyReader::new(&ints);
        let hs = hash_rows(&[r_int], &SelVec::all(2), 0, 2);
        assert_eq!(hs[0], 0xb960_a184_f070_32c6); // fnv1a(enc(Int 42))
        assert_eq!(hs[1], 0x7194_f3e5_9ae4_7dcd); // fnv1a(enc(Int 1))
        let r_int = KeyReader::new(&ints);
        let r_str = KeyReader::new(&strs);
        let hs = hash_rows(&[r_int, r_str], &SelVec::all(2), 0, 2);
        // Column-wise folding equals fnv1a over the concatenated parts.
        assert_eq!(hs[0], 0x6161_74ad_148e_10c7); // fnv1a(enc(Int 42) ++ enc(Str "ab"))
    }
}
