//! The join search: a worst-case-optimal (Generic-Join-style) executor,
//! run on every variant shape and terminal as one resumable cursor.
//!
//! A pairwise join is provably suboptimal on cyclic CRPQ shapes: on a
//! triangle over three materialised atom relations it can touch `O(|R|²)`
//! intermediate bindings where the output is only `O(|R|^{3/2})` (the AGM
//! bound). This module implements the Generic Join recipe instead:
//!
//! 1. fix a **variable elimination order** up front (greedy: start from
//!    the smallest pruned domain, then repeatedly take the
//!    smallest-domain variable *adjacent to an already-ordered one*, so
//!    every level after the first is constrained by at least one bound
//!    relation row whenever the variant is connected);
//! 2. at each level, enumerate the variable's candidates by **leapfrog
//!    intersection** of sorted views — every relation row incident to the
//!    variable whose other endpoint is already bound, plus the semi-join
//!    pruned domain. Every operand is one [`RelationRow`], the id-set
//!    view of `crpq_graph::rpq` (a domain lends one through
//!    [`NodeSet::row`](crpq_graph::rpq::NodeSet::row)), with its own
//!    position, and the one seek primitive is [`RelationRow::seek`]: a
//!    sparse view gallops forward from its position, a dense one
//!    word-scans from the target. A level's targets only grow until its
//!    views are rebuilt, so a candidate costs `O(Σ log gap)` with the
//!    **smallest view leading**, never a clone of the whole domain;
//! 3. at a complete assignment, run the per-semantics verification
//!    ([`JoinPlan::verify`] via [`VerifyScratch`]).
//!
//! Under query-injective semantics already-used nodes are filtered as the
//! intersection streams by, and each bind runs the inline injectivity
//! prune ([`JoinPlan::bind_allowed`], memoised per-atom simple-path
//! feasibility) before descending (see the `eval` module docs).
//!
//! The search is a [`Cursor`], not a recursion: per level it keeps the
//! bound node (in the assignment) and the leapfrog position (the smallest
//! candidate id not yet tried), so [`Cursor::advance`] can return one
//! verified projection and later resume exactly where it stopped, across
//! the ε-free variants in order. The views borrow the plans' domains and
//! the rows of a [`RowSource`], so the cursor stores none of them: a
//! `Views` buffer holds the active levels' views and their seek positions
//! for as long as its caller keeps it, and a fresh buffer rebuilds each
//! active level once from the assignment, its positions at 0.
//!
//! A plan names its relations by index into its row source, and the
//! source fixes the operand type ([`RowSource::Row`]). The memoised plans
//! read the [`RelationCatalog`], whose rows the views borrow as plain
//! [`RelationRow`]s. The witness phase (see the `eval` module docs) reads
//! the same catalog for the atoms it already holds and rows swept on
//! demand for the others; those rows are `Arc`-owned operands
//! ([`Row::Swept`]), so no view borrows the memo that keeps growing under
//! it. Its source also charges one unit per leapfrog candidate and per
//! scanned edge against a fixed budget ([`RowSource::charge`]), and the
//! cursor stops when it is spent.
//!
//! The projections a cursor returns are rows of one arity-strided buffer
//! (`Returned`). A plan whose order binds its free variables first and
//! resumes at the last free level after each emission reaches every
//! projection once, so a single such plan needs nothing else to keep its
//! output distinct. Otherwise (an existential variable ordered before the
//! last free one, or more than one ε-free variant) the cursor keeps a
//! `SeenIndex` of row numbers into the buffer, and the
//! duplicate-projection prune looks each projection up there. Equivalence
//! against the enumeration oracle is property-tested in
//! `tests/wcoj_equivalence.rs`.

use crate::eval::{CompiledAtom, JoinPlan, RelationCatalog, Semantics, VerifyScratch};
use crpq_graph::rpq::RelationRow;
use crpq_graph::GraphView;
use crpq_graph::NodeId;
use crpq_query::Var;
use crpq_util::FxHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A leapfrog operand's id set, read as one [`RelationRow`]; a domain
/// enters as a borrowed view.
pub(crate) trait Operand<'a>: From<RelationRow<'a>> {
    /// The id-set view of the operand.
    fn view(&self) -> RelationRow<'_>;
}

/// The memoised plans' operands: views borrowed from the catalog and the
/// plans, with no drop glue and no indirection.
impl<'a> Operand<'a> for RelationRow<'a> {
    #[inline]
    fn view(&self) -> RelationRow<'_> {
        *self
    }
}

/// The witness phase's operand: a view borrowed from the catalog or a
/// plan's domain, or a row it swept, owned through its `Arc`.
pub(crate) enum Row<'a> {
    /// A catalog relation row or a domain.
    Borrowed(RelationRow<'a>),
    /// A swept row: sorted, strictly ascending ids.
    Swept(Arc<[u32]>),
}

impl<'a> From<RelationRow<'a>> for Row<'a> {
    fn from(row: RelationRow<'a>) -> Self {
        Row::Borrowed(row)
    }
}

impl<'a> Operand<'a> for Row<'a> {
    #[inline]
    fn view(&self) -> RelationRow<'_> {
        match self {
            Row::Borrowed(row) => *row,
            Row::Swept(ids) => RelationRow::Sparse(ids),
        }
    }
}

/// Where a cursor reads the relation rows of its plans' atoms, which a
/// plan names by index (`JoinPlan::rel_ids`): the catalog for the
/// memoised plans, the witness phase's rows for its unpruned ones.
pub(crate) trait RowSource<'a> {
    /// The operand type the rows come as.
    type Row: Operand<'a>;

    /// The row of relation `id` forward from `u`: the nodes `u` reaches.
    fn forward(&mut self, id: usize, u: NodeId) -> Self::Row;

    /// The row of relation `id` backward from `v`: the nodes reaching `v`.
    fn backward(&mut self, id: usize, v: NodeId) -> Self::Row;

    /// Charges one leapfrog candidate; `false` once the source's work
    /// budget is spent, which stops the cursor.
    fn charge(&mut self) -> bool;

    /// Whether relation `id` holds `(s, d)`, as far as the source knows
    /// without new work: the leaf's debug check.
    fn debug_holds(&self, id: usize, s: NodeId, d: NodeId) -> bool;
}

/// The memoised plans' source: every relation is a catalog slot, and the
/// search has no budget.
impl<'a, 'c: 'a> RowSource<'a> for &'c RelationCatalog {
    type Row = RelationRow<'a>;

    #[inline]
    fn forward(&mut self, id: usize, u: NodeId) -> RelationRow<'a> {
        self.relation(id).forward(u)
    }

    #[inline]
    fn backward(&mut self, id: usize, v: NodeId) -> RelationRow<'a> {
        self.relation(id).backward(v)
    }

    #[inline]
    fn charge(&mut self) -> bool {
        true
    }

    fn debug_holds(&self, id: usize, s: NodeId, d: NodeId) -> bool {
        self.relation(id).contains(s, d)
    }
}

/// Ordering weight of a view for the leapfrog lead: sparse views lead
/// with their exact length; dense views (O(|V|/64) to measure exactly)
/// follow behind all sparse ones. This keeps view selection O(1) per view
/// — popcounting a dense bitset at every search-tree node would cost as
/// much as the domain clones this executor exists to avoid.
fn lead_weight(view: &RelationRow<'_>) -> usize {
    match view {
        RelationRow::Sparse(ids) => ids.len(),
        RelationRow::Dense(_) => usize::MAX,
    }
}

/// The views of the active levels `0..starts.len()`, stacked: level `l`
/// owns `views[starts[l]..]` up to the next level's start, lead first.
/// Each view is one sorted, seekable operand of the level's leapfrog
/// intersection: a relation row restricted by an already-bound
/// neighbour, or the variable's semi-join pruned domain. A level's views
/// depend only on the nodes bound above it, so rebinding level `l`
/// invalidates exactly the levels below it. Each view keeps its seek
/// position, which only grows while the level's views live: the level's
/// leapfrog targets start at its `next` and rise.
pub(crate) struct Views<R> {
    /// Each operand with its seek position ([`RelationRow::seek`]).
    views: Vec<(R, usize)>,
    starts: Vec<usize>,
}

impl<R> Default for Views<R> {
    fn default() -> Self {
        Views {
            views: Vec::new(),
            starts: Vec::new(),
        }
    }
}

impl<R> Views<R> {
    /// Keeps the views of the first `levels` levels only.
    fn truncate(&mut self, levels: usize) {
        if let Some(&start) = self.starts.get(levels) {
            self.views.truncate(start);
            self.starts.truncate(levels);
        }
    }

    /// The operands of built level `level`.
    fn level(&mut self, level: usize) -> &mut [(R, usize)] {
        let end = self
            .starts
            .get(level + 1)
            .copied()
            .unwrap_or(self.views.len());
        &mut self.views[self.starts[level]..end]
    }

    /// Builds the views of the next level, `order[self.starts.len()]`:
    /// incident relation rows whose other endpoint is bound, read from
    /// `rows`, plus the domain (self-loop atoms were folded into the domain
    /// at plan time or are checked at bind time), with the (cheaply
    /// measurable) smallest view leading so leapfrog's outer advance steps
    /// through the fewest candidates. Every position starts at 0.
    fn push_level<'a>(
        &mut self,
        plan: &'a JoinPlan,
        rows: &mut impl RowSource<'a, Row = R>,
        assignment: &[Option<NodeId>],
    ) where
        R: Operand<'a>,
    {
        let level = self.starts.len();
        let var = plan.order[level];
        // Only the levels above count: on a resume, deeper levels are
        // still bound in `assignment`.
        let above = |v: Var| assignment[v.index()].filter(|_| plan.level_of[v.index()] < level);
        let start = self.views.len();
        self.starts.push(start);
        for (atom, &id) in plan.atoms.iter().zip(&plan.rel_ids) {
            if atom.src == atom.dst {
                continue;
            }
            if atom.src == var {
                if let Some(dst_node) = above(atom.dst) {
                    self.views.push((rows.backward(id, dst_node), 0));
                }
            }
            if atom.dst == var {
                if let Some(src_node) = above(atom.src) {
                    self.views.push((rows.forward(id, src_node), 0));
                }
            }
        }
        let domain = plan.domains[var.index()].row();
        self.views.push((domain.into(), 0));
        let lead = (start..self.views.len())
            .min_by_key(|&i| lead_weight(&self.views[i].0.view()))
            .unwrap_or(start);
        self.views.swap(start, lead);
    }
}

/// The smallest id `≥ from` in every view: a leapfrog round raises the
/// candidate through each view until all agree. `views[0]` leads. Every
/// seek target is at least `from` and only rises, so each view resumes
/// from its position.
fn leapfrog<'a, R: Operand<'a>>(views: &mut [(R, usize)], from: usize) -> Option<usize> {
    let (lead, pos) = &mut views[0];
    let mut cand = lead.view().seek(pos, from)?;
    loop {
        let mut stable = true;
        for (row, pos) in views.iter_mut() {
            let w = row.view().seek(pos, cand)?;
            if w > cand {
                cand = w;
                stable = false;
            }
        }
        if stable {
            return Some(cand);
        }
    }
}

/// What entering a level decided.
enum Entry {
    /// Keep searching at the entered level.
    Descend,
    /// Nothing below can yield a new projection: undo the last bind.
    Skip,
    /// A verified, new projection is the last row of `Cursor::out`.
    Emit,
}

/// The projections a cursor returned, one arity-strided row each, in
/// search order, plus the row being built: the projection of the current
/// assignment sits past the last returned row until its leaf verifies.
struct Returned {
    /// Length of every row (the query's free tuple).
    arity: usize,
    /// The rows, back to back.
    rows: Vec<NodeId>,
    /// Rows returned (an arity-0 row takes no space in `rows`).
    len: usize,
}

impl Returned {
    /// The returned row `i`.
    fn row(&self, i: usize) -> &[NodeId] {
        &self.rows[i * self.arity..(i + 1) * self.arity]
    }

    /// The row being built (past the last returned row).
    fn pending(&self) -> &[NodeId] {
        &self.rows[self.len * self.arity..]
    }

    /// The returned rows, sorted and deduplicated, one `Vec` each: the
    /// only allocation per answer of a drained request.
    fn into_sorted(mut self) -> Vec<Vec<NodeId>> {
        self.rows.truncate(self.len * self.arity);
        match self.arity {
            // Every arity-0 row is the empty tuple.
            0 => vec![Vec::new(); self.len.min(1)],
            1 => sorted_fixed::<1>(&self.rows),
            2 => sorted_fixed::<2>(&self.rows),
            3 => sorted_fixed::<3>(&self.rows),
            arity => {
                let mut sorted: Vec<&[NodeId]> = self.rows.chunks_exact(arity).collect();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.into_iter().map(<[NodeId]>::to_vec).collect()
            }
        }
    }
}

/// [`Returned::into_sorted`] for rows of a small fixed width `N`, sorted
/// by value in one buffer rather than through references.
fn sorted_fixed<const N: usize>(rows: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut fixed: Vec<[NodeId; N]> = rows
        .chunks_exact(N)
        .map(|row| std::array::from_fn(|i| row[i]))
        .collect();
    fixed.sort_unstable();
    fixed.dedup();
    fixed.iter().map(|row| row.to_vec()).collect()
}

/// The hash of a row, for [`SeenIndex`].
fn row_hash(row: &[NodeId]) -> u64 {
    let mut h = FxHasher::default();
    row.iter().for_each(|v| v.hash(&mut h));
    h.finish()
}

/// Row numbers of a cursor's returned rows, keyed by the row's hash: an
/// open-addressing table (linear probing, at most half full) that stores
/// no projection of its own and compares the rows it probes against the
/// buffer. A slot is indexed by the hash's top bits, which depend on
/// every id of the row.
struct SeenIndex {
    /// Row numbers, `EMPTY` where free; the length is a power of two.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`.
    shift: u32,
}

impl SeenIndex {
    const EMPTY: u32 = u32::MAX;

    fn new() -> Self {
        SeenIndex {
            slots: vec![Self::EMPTY; 16],
            shift: 64 - 4,
        }
    }

    /// The slot holding a row equal to `row`, or the free slot where it
    /// would go.
    fn probe(&self, out: &Returned, row: &[NodeId]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (row_hash(row) >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                Self::EMPTY => return Err(slot),
                r if out.row(r as usize) == row => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Whether a returned row equals the pending row.
    fn contains(&self, out: &Returned) -> bool {
        self.probe(out, out.pending()).is_ok()
    }

    /// Records returned row `i` (not in the index yet), doubling the
    /// table once it is half full.
    fn insert(&mut self, out: &Returned, i: usize) {
        // invariant: 2^32 - 1 rows would need a 32 GiB table first
        let row = u32::try_from(i).expect("row number below u32::MAX");
        if 2 * (i + 1) > self.slots.len() {
            self.slots = vec![Self::EMPTY; 2 * self.slots.len()];
            self.shift -= 1;
            for r in 0..row {
                if let Err(slot) = self.probe(out, out.row(r as usize)) {
                    self.slots[slot] = r;
                }
            }
        }
        if let Err(slot) = self.probe(out, out.row(i)) {
            self.slots[slot] = row;
        }
    }
}

/// The resumable state of one request's join search over its plans (one
/// per ε-free variant, searched in order), with the request's semantics,
/// its verification scratch and the rows it returned. Owns no borrow:
/// every [`Self::advance`] is handed the graph, the catalog and the
/// plans, which hold no semantics, so one plan set serves a cursor under
/// each.
///
/// A cursor never returns a projection twice. A single plan that binds
/// its free variables first ([`JoinPlan::emits_once`]) cannot reach one
/// twice; otherwise the cursor keeps a `SeenIndex` over its returned rows
/// and skips every subtree whose projection it holds.
pub(crate) struct Cursor {
    /// The semantics every bind and leaf is verified under.
    sem: Semantics,
    /// The plan being searched; `plans.len()` once exhausted.
    variant: usize,
    /// Whether the current plan's root level was entered.
    entered: bool,
    /// `order[..depth]` is bound; level `depth` is being enumerated.
    depth: usize,
    /// Per level: the leapfrog position, the smallest id not yet tried.
    next: Vec<usize>,
    /// The bound node of every variable (`None` below `depth`).
    assignment: Vec<Option<NodeId>>,
    /// The projections returned so far, and the one being built.
    out: Returned,
    /// Row numbers of `out`, when the plans can reach one projection twice.
    seen: Option<SeenIndex>,
    /// A projection returned before the first step
    /// ([`Self::returned_before`]) that no seen index holds: the search
    /// skips every subtree projecting to it.
    skip: Option<Vec<NodeId>>,
    /// Complete-assignment buffer handed to verification.
    mu: Vec<NodeId>,
    /// The verification buffers and the per-plan atom memo.
    pub(crate) scratch: VerifyScratch,
}

impl Cursor {
    /// A cursor at the start of the first of `plans`, searching under
    /// `sem`, with a seen index only if more than one plan can yield
    /// answers or a plan does not emit each projection once.
    pub(crate) fn new(sem: Semantics, plans: &[JoinPlan]) -> Self {
        let seen = plans
            .iter()
            .filter(|p| !p.is_empty())
            .enumerate()
            .any(|(i, p)| i > 0 || !p.emits_once());
        Cursor {
            sem,
            variant: 0,
            entered: false,
            depth: 0,
            next: Vec::new(),
            assignment: Vec::new(),
            out: Returned {
                arity: plans.first().map_or(0, JoinPlan::arity),
                rows: Vec::new(),
                len: 0,
            },
            seen: seen.then(SeenIndex::new),
            skip: None,
            mu: Vec::new(),
            scratch: VerifyScratch::new(),
        }
    }

    /// Counts `row` as returned before the first step: it is part of the
    /// result, and the search skips every subtree whose projection equals
    /// it, so no step returns it. The witness phase's answer enters the
    /// planned cursor this way.
    pub(crate) fn returned_before(&mut self, row: &[NodeId]) {
        debug_assert_eq!(row.len(), self.out.arity);
        debug_assert_eq!(self.out.len, 0, "before the first step");
        self.out.rows.extend_from_slice(row);
        match &mut self.seen {
            Some(seen) => seen.insert(&self.out, 0),
            None => self.skip = Some(row.to_vec()),
        }
        self.out.len = 1;
    }

    /// The rows returned so far, sorted and deduplicated: the result of a
    /// request that stepped this cursor.
    pub(crate) fn into_tuples(self) -> Vec<Vec<NodeId>> {
        self.out.into_sorted()
    }

    /// Drops the returned rows unless the seen index refers to them: a
    /// stream, which hands each row out as it goes, calls it after every
    /// step, so it keeps only the rows its distinctness needs.
    pub(crate) fn release_rows(&mut self) {
        if self.seen.is_none() {
            self.out.rows.clear();
            self.out.len = 0;
        }
    }

    /// Runs the search to its next verified projection not returned
    /// before, and returns it; `None` once every plan is exhausted (and on
    /// every later call), or once `rows` refuses a charge (the witness
    /// phase's budget; the caller asks its source which it was). `views`
    /// caches the active levels' views and their seek positions while the
    /// caller passes the same buffer; a fresh (default) buffer is rebuilt
    /// from the assignment, at most once per active level.
    pub(crate) fn advance<'a, G: GraphView, S: RowSource<'a>>(
        &mut self,
        g: &G,
        rows: &mut S,
        plans: &'a [JoinPlan],
        views: &mut Views<S::Row>,
    ) -> Option<&[NodeId]> {
        while let Some(plan) = plans.get(self.variant) {
            if !self.entered {
                self.entered = true;
                views.truncate(0);
                self.depth = 0;
                self.assignment.clear();
                self.assignment.resize(plan.num_vars(), None);
                self.next.clear();
                self.next.resize(plan.order.len(), 0);
                if plan.is_empty() {
                    self.next_variant();
                    continue;
                }
                self.scratch.begin_plan();
                match self.enter(g, rows, plan, views, 0) {
                    Entry::Descend => {}
                    Entry::Skip => self.next_variant(),
                    Entry::Emit => return Some(self.out.row(self.out.len - 1)),
                }
                continue;
            }
            let level = self.depth;
            while views.starts.len() <= level {
                views.push_level(plan, rows, &self.assignment);
            }
            let Some(cand) = leapfrog(views.level(level), self.next[level]) else {
                // Level exhausted: backtrack to the one above.
                if level == 0 {
                    self.next_variant();
                } else {
                    views.truncate(level);
                    self.depth = level - 1;
                    self.assignment[plan.order[level - 1].index()] = None;
                }
                continue;
            };
            if !rows.charge() {
                return None;
            }
            self.next[level] = cand + 1;
            let (var, node) = (plan.order[level], NodeId(cand as u32));
            if self.sem == Semantics::QueryInjective && self.assignment.contains(&Some(node)) {
                continue; // μ must be injective under q-inj
            }
            if !plan.loops_hold(rows, var, node) {
                continue;
            }
            if !plan.bind_allowed(g, self.sem, var, node, &self.assignment, &mut self.scratch) {
                continue;
            }
            self.assignment[var.index()] = Some(node);
            match self.enter(g, rows, plan, views, level + 1) {
                Entry::Descend => {}
                Entry::Skip => self.assignment[var.index()] = None,
                Entry::Emit => return Some(self.out.row(self.out.len - 1)),
            }
        }
        None
    }

    /// Moves on to the next plan.
    fn next_variant(&mut self) {
        self.variant += 1;
        self.entered = false;
    }

    /// Enters `level` with `order[..level]` bound. At the level that binds
    /// the last free variable the projection is written as the pending row
    /// and the duplicate-projection prune runs (against the seen index, or
    /// the one row returned before the first step); at the leaf (every
    /// variable bound) the assignment is verified, and the pending row is
    /// returned. After an emission only existential variables could still
    /// vary below the last free one, so the cursor resumes at that
    /// variable's level.
    fn enter<'a, G: GraphView, S: RowSource<'a>>(
        &mut self,
        g: &G,
        rows: &mut S,
        plan: &'a JoinPlan,
        views: &mut Views<S::Row>,
        level: usize,
    ) -> Entry {
        if level == plan.proj_depth {
            let out = &mut self.out;
            out.rows.truncate(out.len * out.arity);
            plan.project_into(&self.assignment, &mut out.rows);
            if self.seen.as_ref().is_some_and(|seen| seen.contains(out))
                || self.skip.as_deref() == Some(out.pending())
            {
                return Entry::Skip;
            }
        }
        if level < plan.order.len() {
            self.depth = level;
            self.next[level] = 0;
            views.truncate(level);
            return Entry::Descend;
        }
        // Complete assignment: standard consistency is guaranteed by the
        // views; verify the injective side.
        self.mu.clear();
        for a in &self.assignment {
            self.mu.push(a.expect("leaf variables are bound")); // invariant: a leaf binds every variable
        }
        debug_assert!(plan.atoms.iter().zip(&plan.rel_ids).all(|(atom, &id)| {
            let (s, d) = (self.mu[atom.src.index()], self.mu[atom.dst.index()]);
            rows.debug_holds(id, s, d)
        }));
        if !plan.verify(g, self.sem, &self.mu, &mut self.scratch) {
            return Entry::Skip;
        }
        // The pending row was projected when `proj_depth` (≤ `level`) was
        // entered.
        if let Some(seen) = &mut self.seen {
            seen.insert(&self.out, self.out.len);
        }
        self.out.len += 1;
        match plan.proj_depth.checked_sub(1) {
            None => self.next_variant(),
            Some(resume) => {
                for &v in &plan.order[resume..] {
                    self.assignment[v.index()] = None;
                }
                self.depth = resume;
                views.truncate(resume + 1);
            }
        }
        Entry::Emit
    }
}

/// The static variable elimination order: greedily the unordered
/// variable with the smallest pruned domain among those **adjacent to an
/// ordered one**, falling back to the globally smallest domain when no
/// unordered variable is adjacent (the first variable, or the start of a
/// new connected component); ties go to the lowest variable index.
/// Connectivity-first matters: a level whose variable has no bound
/// neighbour intersects nothing but its domain, which degenerates to a
/// cross product.
pub(crate) fn elimination_order(atoms: &[CompiledAtom], domain_sizes: &[usize]) -> Vec<Var> {
    let n = domain_sizes.len();
    let mut order: Vec<Var> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let adjacent = |v: usize| {
            atoms.iter().any(|a| {
                (a.src.index() == v && placed[a.dst.index()])
                    || (a.dst.index() == v && placed[a.src.index()])
            })
        };
        let next = (0..n)
            .filter(|&v| !placed[v])
            .min_by_key(|&v| (!adjacent(v), domain_sizes[v]))
            .expect("some variable is still unordered"); // invariant: the loop runs only while variables remain unordered
        order.push(Var(next as u32));
        placed[next] = true;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_graph::{GraphBuilder, GraphDb};
    use crpq_query::parse_crpq;

    /// Drains a cursor over `text`'s memoised plans under st: whether it
    /// kept a seen index, and the tuples in search order.
    fn drain(edges: &[(&str, &str, &str)], text: &str) -> (bool, Vec<Vec<NodeId>>) {
        let mut b = GraphBuilder::new();
        for &(u, l, v) in edges {
            b.edge(u, l, v);
        }
        let mut g: GraphDb = b.finish();
        let q = parse_crpq(text, g.alphabet_mut()).unwrap();
        let mut catalog = RelationCatalog::new(&g);
        let plans = catalog.plans(&q, &g);
        let mut cursor = Cursor::new(Semantics::Standard, &plans);
        let mut views = Views::default();
        let mut tuples = Vec::new();
        while let Some(t) = cursor.advance(&g, &mut &catalog, &plans, &mut views) {
            tuples.push(t.to_vec());
        }
        (cursor.seen.is_some(), tuples)
    }

    /// The seen index exists only where the search can reach one
    /// projection twice, and every drain returns distinct tuples.
    #[test]
    fn seen_index_only_where_a_projection_can_repeat() {
        // x ∈ {u}, y ∈ {m}, z ∈ {w1, w2, w3}: the order is x, y, z, the
        // free variables first.
        let chain = [
            ("u", "a", "m"),
            ("m", "b", "w1"),
            ("m", "b", "w2"),
            ("m", "b", "w3"),
        ];
        let (seen, tuples) = drain(&chain, "(x, y) <- x -[a]-> y, y -[b]-> z");
        assert!(!seen, "free variables first, one variant: no index");
        assert_eq!(tuples.len(), 1);
        // The `cq_path2` shape: y ∈ {m, m2} is ordered first, before the
        // free x and z, and (x1, z1) is reached through both.
        let path2 = [
            ("x1", "d", "m"),
            ("x2", "d", "m"),
            ("x3", "d", "m"),
            ("x1", "d", "m2"),
            ("m", "a", "z1"),
            ("m", "a", "z2"),
            ("m", "a", "z3"),
            ("m2", "a", "z1"),
        ];
        let (seen, tuples) = drain(&path2, "(x, z) <- x -[d]-> y, y -[a]-> z");
        assert!(seen, "an existential variable before the last free one");
        assert_eq!(tuples.len(), 9);
        // `a*` has two ε-free variants, `x -[a a*]-> y` and x = y.
        let (seen, tuples) = drain(&chain, "(x, y) <- x -[a*]-> y");
        assert!(seen, "two variants that both yield answers");
        assert_eq!(tuples.len(), 6, "(u, m) and the diagonal: {tuples:?}");
        for (edges, text) in [
            (&chain[..], "(x, y) <- x -[a]-> y, y -[b]-> z"),
            (&path2[..], "(x, z) <- x -[d]-> y, y -[a]-> z"),
            (&chain[..], "(x, y) <- x -[a*]-> y"),
        ] {
            let (_, mut tuples) = drain(edges, text);
            let len = tuples.len();
            tuples.sort();
            tuples.dedup();
            assert_eq!(tuples.len(), len, "{text} returned a tuple twice");
        }
    }
}
