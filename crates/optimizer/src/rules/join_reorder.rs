//! Cost-based join reordering (§4.1).
//!
//! Flattens a tree of inner/cross joins into a join graph, then rebuilds
//! a left-deep order greedily: root the tree at the largest connected
//! relation (the fact table — the executor builds hash tables on the
//! *right* input, so small filtered dimensions should join in as build
//! sides) and at each step attach the connected relation that minimizes
//! the estimated intermediate cardinality (falling back to Cartesian
//! expansion only when no connected relation remains). A final
//! projection restores the original column order.

use crate::expr::ScalarExpr;
use crate::plan::{JoinType, LogicalPlan};
use crate::rules::transform_up;
use crate::stats::{estimate_rows, StatsSource};
use hive_common::Result;
use hive_metastore::TableStats;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Reorder all maximal inner-join trees in the plan.
pub fn reorder_joins(plan: &LogicalPlan, stats: &dyn StatsSource) -> Result<LogicalPlan> {
    if stats.histograms_enabled() {
        return reorder_top_down(plan, &EstimateMemo::new(stats));
    }
    let mut err = None;
    let out = transform_up(plan, &mut |node| {
        if is_reorderable_join(&node) {
            match reorder_one(&node, stats) {
                Ok(p) => p,
                Err(e) => {
                    err = Some(e);
                    node
                }
            }
        } else {
            node
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Histogram-path traversal: joins are visited top-down so `flatten`
/// sees the whole maximal inner-join tree at once. (The bottom-up pass
/// rewrites inner joins first and caps each at a column-restoring
/// Project, which the outer flatten then treats as one opaque relation
/// — reordering degenerates to pairwise build-side choice and a
/// histogram can never move a selective dimension ahead of a bulky
/// one.) Relations discovered by `flatten` are recursed into, so join
/// trees under aggregates, set ops, or non-inner joins still reorder.
fn reorder_top_down(plan: &LogicalPlan, stats: &EstimateMemo) -> Result<LogicalPlan> {
    if is_reorderable_join(plan) {
        // Greedy left-deep rebuild versus the authored shape, costed
        // under the same estimator. Greedy's search space is left-deep
        // chains only; an authored bushy shape (e.g. cross-joining two
        // tiny dimensions before one multi-key probe of the fact) can
        // be strictly cheaper, and on a tie the authored tree wins —
        // it needs no column-restoring projection. Each relation below
        // the tree is reordered once, by `flatten`, and both shapes are
        // built over that one result.
        let graph = JoinGraph::flatten(plan, stats, &mut |rel| {
            let rel = Arc::new(reorder_top_down(rel, stats)?);
            stats.pin(&rel);
            Ok(rel)
        })?;
        let authored = Arc::unwrap_or_clone(authored_shape(plan, &mut graph.rels.iter()));
        let greedy = rebuild_greedy(graph, stats)?;
        return Ok(
            if join_tree_cost(&greedy, stats) < join_tree_cost(&authored, stats) {
                greedy
            } else {
                authored
            },
        );
    }
    let children = plan.children();
    if children.is_empty() {
        return Ok(plan.clone());
    }
    let mut new_children = Vec::with_capacity(children.len());
    for c in children {
        new_children.push(Arc::new(reorder_top_down(c, stats)?));
    }
    Ok(super::with_children(plan, new_children))
}

/// This maximal inner-join tree in its authored shape, with each
/// relation below it replaced by its (already reordered) relation from
/// `rels`, taken in `flatten` order.
fn authored_shape<'a>(
    plan: &LogicalPlan,
    rels: &mut impl Iterator<Item = &'a Rel>,
) -> Arc<LogicalPlan> {
    if is_reorderable_join(plan) {
        let children = plan
            .children()
            .into_iter()
            .map(|c| authored_shape(c, rels))
            .collect();
        Arc::new(super::with_children(plan, children))
    } else {
        rels.next().expect("one relation per leaf").plan.clone()
    }
}

/// The histogram path's statistics source for one reorder pass: it
/// answers [`estimate_rows`] for any node inside a reordered relation
/// from memory. Join trees nested under aggregates or subqueries are
/// costed again by every tree above them (candidate chains, authored
/// versus greedy); without the memo each level re-derives every level
/// below it. Relations are pinned for the whole pass, so a node's
/// address names that node alone, and the memo answers exactly what
/// the estimator computed for it.
struct EstimateMemo<'a> {
    inner: &'a dyn StatsSource,
    /// Reordered relations, kept alive for the pass.
    pinned: RefCell<Vec<Arc<LogicalPlan>>>,
    /// Every node inside a pinned relation, with its estimate once made.
    rows: RefCell<HashMap<*const LogicalPlan, Option<f64>>>,
}

impl<'a> EstimateMemo<'a> {
    fn new(inner: &'a dyn StatsSource) -> Self {
        EstimateMemo {
            inner,
            pinned: RefCell::new(Vec::new()),
            rows: RefCell::new(HashMap::new()),
        }
    }

    /// Make every node of `rel` memoizable for the rest of the pass.
    fn pin(&self, rel: &Arc<LogicalPlan>) {
        let mut rows = self.rows.borrow_mut();
        rel.visit(&mut |p| {
            rows.entry(p as *const LogicalPlan).or_insert(None);
        });
        self.pinned.borrow_mut().push(rel.clone());
    }
}

impl StatsSource for EstimateMemo<'_> {
    fn stats_for(&self, qualified_name: &str) -> Arc<TableStats> {
        self.inner.stats_for(qualified_name)
    }

    fn histograms_enabled(&self) -> bool {
        self.inner.histograms_enabled()
    }

    fn feedback_rows(&self, tables: &str) -> Option<u64> {
        self.inner.feedback_rows(tables)
    }

    fn memoized_rows(&self, plan: &LogicalPlan) -> Option<f64> {
        *self.rows.borrow().get(&(plan as *const LogicalPlan))?
    }

    fn memoize_rows(&self, plan: &LogicalPlan, rows: f64) {
        if let Some(slot) = self
            .rows
            .borrow_mut()
            .get_mut(&(plan as *const LogicalPlan))
        {
            *slot = Some(rows);
        }
    }
}

/// Cost of a join tree as the sum of estimated output rows over every
/// inner/cross join node: every intermediate a plan materializes is
/// work its downstream operators pay for again.
fn join_tree_cost(plan: &LogicalPlan, stats: &dyn StatsSource) -> f64 {
    let mut cost = 0.0;
    plan.visit(&mut |p| {
        if is_reorderable_join(p) {
            cost += estimate_rows(p, stats);
        }
    });
    cost
}

fn is_reorderable_join(node: &LogicalPlan) -> bool {
    matches!(
        node,
        LogicalPlan::Join {
            join_type: JoinType::Inner | JoinType::Cross,
            ..
        }
    )
}

/// One relation in the flattened join graph.
struct Rel {
    plan: Arc<LogicalPlan>,
    /// Offset of this relation's columns in the original global order.
    offset: usize,
    width: usize,
    rows: f64,
}

/// An equi edge in global column coordinates.
struct Edge {
    left_rel: usize,
    right_rel: usize,
    /// Exprs in each relation's local coordinates.
    left_expr: ScalarExpr,
    right_expr: ScalarExpr,
    used: bool,
}

/// A maximal inner-join tree flattened into relations, equi edges and
/// residual predicates (in global column coordinates).
struct JoinGraph {
    rels: Vec<Rel>,
    edges: Vec<Edge>,
    residuals: Vec<ScalarExpr>,
}

/// The greedy loop's state: the left-deep chain built so far, its
/// estimated rows, which relations it holds and where their columns
/// sit in its output.
struct Chain<'g> {
    rels: &'g [Rel],
    edges: &'g mut [Edge],
    joined: Vec<bool>,
    /// Output layout: (rel index, local col) per chain column.
    layout: Vec<(usize, usize)>,
    plan: Arc<LogicalPlan>,
    rows: f64,
}

fn reorder_one(node: &LogicalPlan, stats: &dyn StatsSource) -> Result<LogicalPlan> {
    let graph = JoinGraph::flatten(node, stats, &mut |rel| Ok(Arc::new(rel.clone())))?;
    if graph.rels.len() < 2 {
        return Ok(node.clone());
    }
    rebuild_greedy(graph, stats)
}

impl JoinGraph {
    /// Flatten the tree at `node`; `leaf` turns each relation below it
    /// into the plan the graph joins.
    fn flatten(
        node: &LogicalPlan,
        stats: &dyn StatsSource,
        leaf: &mut dyn FnMut(&LogicalPlan) -> Result<Arc<LogicalPlan>>,
    ) -> Result<JoinGraph> {
        let mut rels: Vec<Rel> = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();
        let mut residuals: Vec<ScalarExpr> = Vec::new(); // global coords
        flatten(node, &mut rels, &mut edges, &mut residuals, stats, leaf)?;
        Ok(JoinGraph {
            rels,
            edges,
            residuals,
        })
    }
}

/// Greedy left-deep rebuild of a flattened join tree, capped by a
/// projection that restores the original global column order.
fn rebuild_greedy(graph: JoinGraph, stats: &dyn StatsSource) -> Result<LogicalPlan> {
    let JoinGraph {
        rels,
        mut edges,
        residuals,
    } = graph;
    let n = rels.len();

    // Root the left-deep tree at the largest connected relation (the
    // fact table): the executor builds its hash table on the *right*
    // input, so smaller relations should join in as build sides.
    let start = (0..n)
        .max_by(|&a, &b| {
            let conn_a = edges.iter().any(|e| e.left_rel == a || e.right_rel == a);
            let conn_b = edges.iter().any(|e| e.left_rel == b || e.right_rel == b);
            conn_a
                .cmp(&conn_b)
                .then(rels[a].rows.partial_cmp(&rels[b].rows).unwrap())
        })
        .expect("nonempty");
    let mut chain = Chain {
        rels: &rels,
        edges: &mut edges,
        joined: vec![false; n],
        layout: (0..rels[start].width).map(|c| (start, c)).collect(),
        plan: rels[start].plan.clone(),
        rows: rels[start].rows,
    };
    chain.joined[start] = true;

    // On the histogram path a candidate must beat the incumbent by a
    // real margin: reservoir sampling and bucket interpolation put
    // noise on estimates that are logically equal (e.g. two unfiltered
    // FK dimensions), and deviating from the authored order on noise
    // buys nothing while the column-restoring projection it forces
    // costs real rows. Genuine wins (a filtered dimension versus an
    // unfiltered one) differ by integer factors, far past 10%.
    let margin = if stats.histograms_enabled() { 0.9 } else { 1.0 };
    while chain.joined.iter().any(|j| !j) {
        // Candidate = unjoined relation; prefer connected ones, pick the
        // one minimizing estimated output rows.
        let mut best: Option<(usize, f64, bool)> = None; // (rel, est, connected)
        for (r, rel) in rels.iter().enumerate() {
            if chain.joined[r] {
                continue;
            }
            let connected = chain.pending_edges(r).next().is_some();
            let est = if connected {
                if stats.histograms_enabled() {
                    // Cost the candidate through the full estimator
                    // (histogram overlap on the join keys, runtime
                    // feedback when present) by building the join it
                    // would produce.
                    chain.candidate_join_estimate(r, stats)
                } else {
                    // Constant-selectivity oracle: size-containment on
                    // the raw row counts.
                    chain.containment(r)
                }
            } else {
                chain.rows * rel.rows
            };
            let better = match &best {
                None => true,
                Some((_, b_est, b_conn)) => {
                    (connected && !b_conn) || (connected == *b_conn && est < *b_est * margin)
                }
            };
            if better {
                best = Some((r, est, connected));
            }
        }
        let (next, est, connected) = best.expect("some relation remains");
        chain.join(next, est, connected)?;
    }
    let Chain { plan, layout, .. } = chain;

    // Any unused edges (cycles) and residuals become a filter on top,
    // remapped from global coordinates to the final layout.
    let global_to_layout = |g: usize| -> Option<usize> {
        // Find which relation owns global column g.
        let rel = rels
            .iter()
            .position(|r| g >= r.offset && g < r.offset + r.width)?;
        let local = g - rels[rel].offset;
        layout.iter().position(|&(r, lc)| r == rel && lc == local)
    };
    let mut filters: Vec<ScalarExpr> = Vec::new();
    for e in edges.iter().filter(|e| !e.used) {
        let l = e.left_expr.clone().remap_columns(&|c| {
            layout
                .iter()
                .position(|&(r, lc)| r == e.left_rel && lc == c)
        })?;
        let r = e.right_expr.clone().remap_columns(&|c| {
            layout
                .iter()
                .position(|&(r2, lc)| r2 == e.right_rel && lc == c)
        })?;
        filters.push(ScalarExpr::eq(l, r));
    }
    for res in &residuals {
        filters.push(res.clone().remap_columns(&global_to_layout)?);
    }
    let mut out: Arc<LogicalPlan> = plan;
    if let Some(pred) = ScalarExpr::conjunction(filters) {
        out = Arc::new(LogicalPlan::Filter {
            input: out,
            predicate: pred,
        });
    }

    // Restore the original global column order.
    let schema = out.schema();
    let total: usize = rels.iter().map(|r| r.width).sum();
    let mut exprs = Vec::with_capacity(total);
    let mut names = Vec::with_capacity(total);
    for g in 0..total {
        let pos = global_to_layout(g)
            .ok_or_else(|| hive_common::HiveError::Plan("lost column in reorder".into()))?;
        exprs.push(ScalarExpr::Column(pos));
        names.push(schema.field(pos).name.clone());
    }
    Ok(LogicalPlan::Project {
        input: out,
        exprs,
        names,
    })
}

impl Chain<'_> {
    /// Unused edges between the chain and relation `r`, each as (edge
    /// index, chain relation, chain-side expr, `r`-side expr).
    fn pending_edges(
        &self,
        r: usize,
    ) -> impl Iterator<Item = (usize, usize, &ScalarExpr, &ScalarExpr)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.used)
            .filter_map(move |(i, e)| {
                if self.joined[e.left_rel] && e.right_rel == r {
                    Some((i, e.left_rel, &e.left_expr, &e.right_expr))
                } else if self.joined[e.right_rel] && e.left_rel == r {
                    Some((i, e.right_rel, &e.right_expr, &e.left_expr))
                } else {
                    None
                }
            })
    }

    /// A chain-side key expr remapped from its relation's local columns
    /// into the chain's output layout.
    fn remap_to_layout(&self, rel: usize, expr: &ScalarExpr) -> Result<ScalarExpr> {
        expr.clone().remap_columns(&|c| {
            self.layout
                .iter()
                .position(|&(rr, lc)| rr == rel && lc == c)
        })
    }

    /// Size-containment estimate of joining relation `r` on.
    fn containment(&self, r: usize) -> f64 {
        let rows = self.rels[r].rows;
        self.rows * rows / self.rows.max(rows).max(1.0)
    }

    /// Estimated output rows of joining relation `r` onto the chain,
    /// costed through [`estimate_rows`] on the candidate join node so
    /// histogram overlap and runtime feedback participate. Falls back
    /// to size-containment when the candidate's join keys cannot be
    /// expressed over the chain's layout.
    fn candidate_join_estimate(&self, r: usize, stats: &dyn StatsSource) -> f64 {
        let mut equi: Vec<(ScalarExpr, ScalarExpr)> = Vec::new();
        for (_, cur_rel, cur_expr, next_expr) in self.pending_edges(r) {
            let Ok(left) = self.remap_to_layout(cur_rel, cur_expr) else {
                return self.containment(r);
            };
            equi.push((left, next_expr.clone()));
        }
        if equi.is_empty() {
            return self.containment(r);
        }
        let candidate = LogicalPlan::Join {
            left: self.plan.clone(),
            right: self.rels[r].plan.clone(),
            join_type: JoinType::Inner,
            equi,
            residual: None,
        };
        estimate_rows(&candidate, stats).max(1.0)
    }

    /// Join relation `next` onto the chain over every pending edge to
    /// it (a cross join when there is none), marking those edges used.
    fn join(&mut self, next: usize, est: f64, connected: bool) -> Result<()> {
        let mut equi: Vec<(ScalarExpr, ScalarExpr)> = Vec::new();
        let mut used = Vec::new();
        for (i, cur_rel, cur_expr, next_expr) in self.pending_edges(next) {
            equi.push((self.remap_to_layout(cur_rel, cur_expr)?, next_expr.clone()));
            used.push(i);
        }
        for i in used {
            self.edges[i].used = true;
        }
        let join_type = if connected && !equi.is_empty() {
            JoinType::Inner
        } else {
            JoinType::Cross
        };
        self.plan = Arc::new(LogicalPlan::Join {
            left: self.plan.clone(),
            right: self.rels[next].plan.clone(),
            join_type,
            equi,
            residual: None,
        });
        self.layout
            .extend((0..self.rels[next].width).map(|c| (next, c)));
        self.joined[next] = true;
        self.rows = est.max(1.0);
        Ok(())
    }
}

/// Flatten nested inner/cross joins into relations + edges.
fn flatten(
    node: &LogicalPlan,
    rels: &mut Vec<Rel>,
    edges: &mut Vec<Edge>,
    residuals: &mut Vec<ScalarExpr>,
    stats: &dyn StatsSource,
    leaf: &mut dyn FnMut(&LogicalPlan) -> Result<Arc<LogicalPlan>>,
) -> Result<()> {
    match node {
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner | JoinType::Cross,
            equi,
            residual,
        } => {
            let left_start_rel = rels.len();
            flatten(left, rels, edges, residuals, stats, leaf)?;
            let right_start_rel = rels.len();
            let left_width: usize = rels[left_start_rel..right_start_rel]
                .iter()
                .map(|r| r.width)
                .sum();
            let left_offset = rels.get(left_start_rel).map(|r| r.offset).unwrap_or(0);
            flatten(right, rels, edges, residuals, stats, leaf)?;
            // Register equi edges: left expr over left subtree's local
            // coords, right over right subtree's.
            for (l, r) in equi {
                let (l_rel, l_local) = locate(rels, left_start_rel, right_start_rel, l, 0)?;
                let (r_rel, r_local) = locate(rels, right_start_rel, rels.len(), r, 0)?;
                edges.push(Edge {
                    left_rel: l_rel,
                    right_rel: r_rel,
                    left_expr: l_local,
                    right_expr: r_local,
                    used: false,
                });
            }
            if let Some(res) = residual {
                // Residual over (left ++ right) local coords → global.
                let shifted = res.clone().remap_columns(&|c| {
                    if c < left_width {
                        Some(left_offset + c)
                    } else {
                        let right_offset = rels.get(right_start_rel).map(|r| r.offset)?;
                        Some(right_offset + (c - left_width))
                    }
                })?;
                residuals.push(shifted);
            }
            Ok(())
        }
        other => {
            let plan = leaf(other)?;
            let offset = rels.iter().map(|r| r.width).sum();
            let width = other.schema().len();
            rels.push(Rel {
                rows: estimate_rows(&plan, stats),
                plan,
                offset,
                width,
            });
            Ok(())
        }
    }
}

/// Express a join-side expr in the local coordinates of the single
/// relation it references (errors when an expr spans relations — those
/// stay as residuals upstream of this rule).
fn locate(
    rels: &[Rel],
    rel_start: usize,
    rel_end: usize,
    expr: &ScalarExpr,
    _unused: usize,
) -> Result<(usize, ScalarExpr)> {
    // The expr is in the subtree's combined coordinates; relation widths
    // inside [rel_start, rel_end) partition that space in order.
    let cols = expr.columns();
    let mut acc = 0usize;
    for (idx, rel) in rels[rel_start..rel_end].iter().enumerate() {
        let lo = acc;
        let hi = acc + rel.width;
        if cols.iter().all(|&c| c >= lo && c < hi) {
            let local = expr.clone().remap_columns(&|c| Some(c - lo))?;
            return Ok((rel_start + idx, local));
        }
        acc = hi;
    }
    Err(hive_common::HiveError::Plan(
        "join key spans multiple relations".into(),
    ))
}
