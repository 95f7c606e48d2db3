//! Worst-case-optimal (Generic-Join-style) executor for cyclic variant
//! shapes.
//!
//! The backtracking binary join of [`crate::eval::JoinPlan::search_all`]
//! is provably suboptimal on cyclic CRPQ shapes: on a triangle over three
//! materialised atom relations it can touch `O(|R|²)` intermediate
//! bindings where the output is only `O(|R|^{3/2})` (the AGM bound). This
//! module implements the Generic Join recipe instead:
//!
//! 1. fix a **variable elimination order** up front (greedy: start from
//!    the smallest pruned domain, then repeatedly take the
//!    smallest-domain variable *adjacent to an already-ordered one*, so
//!    every level after the first is constrained by at least one bound
//!    relation row whenever the variant is connected);
//! 2. at each level, enumerate the variable's candidates by **leapfrog
//!    intersection** of sorted views — every relation row incident to the
//!    variable whose other endpoint is already bound, plus the semi-join
//!    pruned domain. All views expose the same seek primitive
//!    (`first_at_or_after`: binary search on sparse rows, word-scan on
//!    dense bitsets), so a candidate costs `O(Σ seeks)` with the
//!    **smallest view leading**, never a clone of the whole domain;
//! 3. at a complete assignment, run exactly the same per-semantics
//!    verification ([`JoinPlan::verify`] via [`VerifyScratch`]) and
//!    duplicate-projection prune as the binary join — the executors differ
//!    only in how they enumerate relation-consistent assignments.
//!
//! Under query-injective semantics already-used nodes are skipped during
//! enumeration (the binary join removes them from its candidate clone;
//! here they are filtered as the intersection streams by).
//!
//! This executor honours the streaming sink contract of
//! [`crate::eval`]: every level checks `should_stop` on entry, candidate
//! loops unwind on [`SinkStatus::Stop`], and each bind runs the inline
//! injectivity prune ([`JoinPlan::bind_allowed`], memoised per-atom
//! simple-path feasibility) before descending — both invariants are
//! documented in the `eval` module docs and must stay aligned with the
//! binary join.
//!
//! Dispatch lives in [`crate::eval`]: [`JoinPlan::is_cyclic`] sends cyclic
//! variants here under the default strategy, and
//! [`crate::eval::EvalStrategy::Wcoj`] forces this executor on any shape
//! (the fixed order handles acyclic variants too). Equivalence against the
//! binary join and the enumeration oracle is property-tested in
//! `tests/wcoj_equivalence.rs`.

use crate::eval::{JoinPlan, Semantics, SinkStatus, TupleSink, VerifyScratch};
use crpq_graph::rpq::{NodeSet, RelationRow};
use crpq_graph::GraphView;
use crpq_graph::NodeId;
use crpq_query::Var;

/// One sorted, seekable operand of the per-variable leapfrog intersection.
enum View<'a> {
    /// A relation row restricted by an already-bound neighbour.
    Row(RelationRow<'a>),
    /// The variable's semi-join pruned domain.
    Domain(&'a NodeSet),
}

impl View<'_> {
    /// The seek primitive: smallest id `≥ from` in the view.
    #[inline]
    fn first_at_or_after(&self, from: usize) -> Option<usize> {
        match self {
            View::Row(r) => r.first_at_or_after(from),
            View::Domain(d) => d.first_at_or_after(from),
        }
    }

    /// Ordering weight for the leapfrog lead: sparse views lead with their
    /// exact length; dense views (O(|V|/64) to measure exactly) follow
    /// behind all sparse ones. This keeps view selection O(1) per view —
    /// popcounting a dense bitset at every search-tree node would cost as
    /// much as the domain clones this executor exists to avoid.
    fn lead_weight(&self) -> usize {
        match self {
            View::Row(RelationRow::Sparse(ids)) => ids.len(),
            View::Domain(NodeSet::Sparse { ids, .. }) => ids.len(),
            View::Row(RelationRow::Dense(_)) | View::Domain(NodeSet::Dense(_)) => usize::MAX,
        }
    }
}

/// Runs the worst-case-optimal join to completion, inserting every
/// verified result projection into `out` — the WCOJ counterpart of
/// [`JoinPlan::search_all`].
pub(crate) fn search_all<G: GraphView>(
    plan: &JoinPlan<'_, G>,
    scratch: &mut VerifyScratch,
    out: &mut dyn TupleSink,
) -> SinkStatus {
    if plan.is_empty() {
        return SinkStatus::Continue;
    }
    scratch.begin_plan(plan.num_nodes());
    let order = elimination_order(plan, None);
    let mut assignment: Vec<Option<NodeId>> = vec![None; plan.q.num_vars];
    bind_level(plan, &order, 0, &mut assignment, scratch, out)
}

/// The elimination order with `var` pinned as its head — the order the
/// work-stealing driver of [`crate::parallel`] enumerates when it splits
/// the candidates of `var`. It depends only on `(plan, var)`, so the
/// driver computes it **once** per variant, not per stolen chunk.
pub(crate) fn fixed_order<G: GraphView>(plan: &JoinPlan<'_, G>, var: Var) -> Vec<Var> {
    elimination_order(plan, Some(var))
}

/// The static variable elimination order: `first` (when given) leads,
/// then greedily the unordered variable with the smallest pruned domain
/// among those **adjacent to an ordered one** — falling back to the
/// globally smallest domain when no unordered variable is adjacent (start
/// of a new connected component). Connectivity-first matters: a level
/// whose variable has no bound neighbour intersects nothing but its
/// domain, which degenerates to a cross product.
fn elimination_order<G: GraphView>(plan: &JoinPlan<'_, G>, first: Option<Var>) -> Vec<Var> {
    let n = plan.q.num_vars;
    let mut order: Vec<Var> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    if let Some(v) = first {
        order.push(v);
        placed[v.index()] = true;
    }
    while order.len() < n {
        let adjacent = |v: usize| {
            plan.atoms.iter().any(|a| {
                (a.src.index() == v && placed[a.dst.index()])
                    || (a.dst.index() == v && placed[a.src.index()])
            })
        };
        let next = (0..n)
            .filter(|&v| !placed[v])
            .min_by_key(|&v| (!adjacent(v), plan.domains[v].len()))
            .expect("some variable is still unordered"); // invariant: the loop runs only while variables remain unordered
        order.push(Var(next as u32));
        placed[next] = true;
    }
    order
}

/// Continues the worst-case-optimal join from `level` of `order`, with the
/// variables of `order[..level]` already bound in `assignment` — the
/// subtree hand-off point of the work-stealing driver in
/// [`crate::parallel`]: a worker that has explicitly enumerated the
/// stealable prefix levels delegates the remaining subtree here.
pub(crate) fn search_from_level<G: GraphView>(
    plan: &JoinPlan<'_, G>,
    order: &[Var],
    level: usize,
    assignment: &mut Vec<Option<NodeId>>,
    scratch: &mut VerifyScratch,
    out: &mut dyn TupleSink,
) -> SinkStatus {
    if plan.is_empty() {
        return SinkStatus::Continue;
    }
    bind_level(plan, order, level, assignment, scratch, out)
}

/// The candidates the leapfrog intersection would enumerate for
/// `order[level]` under the current partial assignment (query-injective
/// used-node filter included) — lets the work-stealing driver materialise
/// a level's domain as a splittable range instead of descending through
/// it. Must agree exactly with what [`bind_level`] enumerates; both go
/// through [`each_level_candidate`].
pub(crate) fn level_candidates<G: GraphView>(
    plan: &JoinPlan<'_, G>,
    order: &[Var],
    level: usize,
    assignment: &mut Vec<Option<NodeId>>,
) -> Vec<NodeId> {
    let mut cands = Vec::new();
    each_level_candidate(plan, order, level, assignment, |_, node| {
        cands.push(node);
        SinkStatus::Continue
    });
    cands
}

/// Binds `order[level..]` one variable at a time by leapfrog intersection,
/// verifying and emitting complete assignments.
fn bind_level<G: GraphView>(
    plan: &JoinPlan<'_, G>,
    order: &[Var],
    level: usize,
    assignment: &mut Vec<Option<NodeId>>,
    scratch: &mut VerifyScratch,
    out: &mut dyn TupleSink,
) -> SinkStatus {
    // Early exit: a stopped sink unwinds the whole search.
    if out.should_stop() {
        return SinkStatus::Stop;
    }
    // Duplicate-projection prune (same as the binary join): once every
    // free variable is bound, deeper levels only vary existential
    // variables — pointless if the projection is already a known result.
    let mut proj = std::mem::take(&mut scratch.tuple);
    let pruned = plan.projection_into(assignment, &mut proj) && out.contains_tuple(proj.as_slice());
    scratch.tuple = proj;
    if pruned {
        return SinkStatus::Continue;
    }
    if order.get(level).is_none() {
        // Complete assignment: standard consistency is guaranteed by the
        // views; verify the injective side and record the projection.
        let mut mu = std::mem::take(&mut scratch.mu);
        mu.clear();
        mu.extend(assignment.iter().map(|a| a.unwrap())); // invariant: every variable is bound at a leaf
        let ok = plan.verify(&mu, scratch);
        scratch.mu = mu;
        if ok {
            debug_assert_eq!(
                scratch.tuple.len(),
                plan.q.free.len(),
                "entry prune must have projected the complete assignment"
            );
            return out.insert_tuple(scratch.tuple.clone());
        }
        return SinkStatus::Continue;
    }
    let var = order[level];
    each_level_candidate(plan, order, level, assignment, |assignment, node| {
        if !plan.bind_allowed(var, node, assignment, scratch) {
            return SinkStatus::Continue;
        }
        assignment[var.index()] = Some(node);
        let status = bind_level(plan, order, level + 1, assignment, scratch, out);
        assignment[var.index()] = None;
        status
    })
}

/// Enumerates the candidates of `order[level]` by leapfrog intersection of
/// the restricting views, invoking `visit` once per candidate in ascending
/// id order until exhaustion or a [`SinkStatus::Stop`] from `visit` (which
/// is returned). Under query-injective semantics, nodes already used by
/// the assignment are filtered as the intersection streams by; the filter
/// re-reads `assignment` each round, so `visit` may bind and unbind
/// deeper variables between calls.
fn each_level_candidate<G: GraphView>(
    plan: &JoinPlan<'_, G>,
    order: &[Var],
    level: usize,
    assignment: &mut Vec<Option<NodeId>>,
    mut visit: impl FnMut(&mut Vec<Option<NodeId>>, NodeId) -> SinkStatus,
) -> SinkStatus {
    let var = order[level];
    // Collect the views restricting `var`: incident relation rows whose
    // other endpoint is bound, plus the pruned domain. Self-loop atoms
    // were folded into the domain at plan-build time.
    let mut views: Vec<View<'_>> = Vec::with_capacity(plan.atoms.len() + 1);
    for (atom, rel) in plan.atoms.iter().zip(&plan.relations) {
        if atom.src == atom.dst {
            continue;
        }
        if atom.src == var {
            if let Some(dst_node) = assignment[atom.dst.index()] {
                views.push(View::Row(rel.backward(dst_node)));
            }
        }
        if atom.dst == var {
            if let Some(src_node) = assignment[atom.src.index()] {
                views.push(View::Row(rel.forward(src_node)));
            }
        }
    }
    views.push(View::Domain(&plan.domains[var.index()]));
    // Lead with the (cheaply measurable) smallest view: leapfrog's outer
    // advance then steps through the fewest candidates.
    let lead = views
        .iter()
        .enumerate()
        .min_by_key(|(_, v)| v.lead_weight())
        .map(|(i, _)| i)
        .unwrap(); // invariant: a join plan has at least one view
    views.swap(0, lead);

    let inj = plan.sem == Semantics::QueryInjective;
    let mut lo = 0usize;
    'candidates: while let Some(first) = views[0].first_at_or_after(lo) {
        // Leapfrog round: raise `cand` through every view until all agree.
        let mut cand = first;
        let mut stable = false;
        while !stable {
            stable = true;
            for view in &views {
                match view.first_at_or_after(cand) {
                    None => break 'candidates,
                    Some(w) if w > cand => {
                        cand = w;
                        stable = false;
                    }
                    Some(_) => {}
                }
            }
        }
        lo = cand + 1;
        let node = NodeId(cand as u32);
        if inj && assignment.iter().flatten().any(|&used| used == node) {
            continue; // μ must be injective under q-inj
        }
        if visit(assignment, node) == SinkStatus::Stop {
            return SinkStatus::Stop;
        }
    }
    SinkStatus::Continue
}
