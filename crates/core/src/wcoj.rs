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
//!    [`NodeSet::row`](crpq_graph::rpq::NodeSet::row)), with one seek
//!    primitive (`first_at_or_after`: binary search on sparse sets,
//!    word-scan on dense bitsets), so a candidate costs `O(Σ seeks)` with
//!    the **smallest view leading**, never a clone of the whole domain;
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
//! the ε-free variants in order. The views borrow the catalog's relations
//! and the plans' domains, so the cursor stores none of them: a
//! `Views` buffer holds the active levels' views for as long as its
//! caller keeps it, and a fresh buffer rebuilds each active level once
//! from the assignment. Equivalence against the enumeration oracle is
//! property-tested in `tests/wcoj_equivalence.rs`.

use crate::eval::{CompiledAtom, JoinPlan, RelationCatalog, Semantics, VerifyScratch};
use crpq_graph::rpq::RelationRow;
use crpq_graph::GraphView;
use crpq_graph::NodeId;
use crpq_query::Var;
use crpq_util::FxHashSet;

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
/// invalidates exactly the levels below it.
#[derive(Default)]
pub(crate) struct Views<'a> {
    views: Vec<RelationRow<'a>>,
    starts: Vec<usize>,
}

impl<'a> Views<'a> {
    /// Keeps the views of the first `levels` levels only.
    fn truncate(&mut self, levels: usize) {
        if let Some(&start) = self.starts.get(levels) {
            self.views.truncate(start);
            self.starts.truncate(levels);
        }
    }

    /// The views of built level `level`.
    fn level(&self, level: usize) -> &[RelationRow<'a>] {
        let end = self
            .starts
            .get(level + 1)
            .copied()
            .unwrap_or(self.views.len());
        &self.views[self.starts[level]..end]
    }

    /// Builds the views of the next level, `order[self.starts.len()]`:
    /// incident relation rows whose other endpoint is bound, plus the
    /// pruned domain (self-loop atoms were folded into the domain at plan
    /// time), with the (cheaply measurable) smallest view leading so
    /// leapfrog's outer advance steps through the fewest candidates.
    fn push_level(
        &mut self,
        plan: &'a JoinPlan,
        catalog: &'a RelationCatalog,
        assignment: &[Option<NodeId>],
    ) {
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
            let rel = catalog.relation(id);
            if atom.src == var {
                if let Some(dst_node) = above(atom.dst) {
                    self.views.push(rel.backward(dst_node));
                }
            }
            if atom.dst == var {
                if let Some(src_node) = above(atom.src) {
                    self.views.push(rel.forward(src_node));
                }
            }
        }
        self.views.push(plan.domains[var.index()].row());
        let lead = (start..self.views.len())
            .min_by_key(|&i| lead_weight(&self.views[i]))
            .unwrap_or(start);
        self.views.swap(start, lead);
    }
}

/// The smallest id `≥ from` in every view: a leapfrog round raises the
/// candidate through each view until all agree. `views[0]` leads.
fn leapfrog(views: &[RelationRow<'_>], from: usize) -> Option<usize> {
    let mut cand = views[0].first_at_or_after(from)?;
    loop {
        let mut stable = true;
        for view in views {
            let w = view.first_at_or_after(cand)?;
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
    /// A verified, new projection is in `Cursor::tuple`.
    Emit,
}

/// The resumable state of one request's join search over its plans (one
/// per ε-free variant, searched in order), with the request's semantics
/// and its verification scratch. Owns no borrow: every [`Self::advance`]
/// is handed the graph, the catalog and the plans, which hold no
/// semantics, so one plan set serves a cursor under each.
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
    /// The projections returned so far, across plans: the
    /// duplicate-projection prune skips every subtree whose free
    /// variables already project onto one of them.
    pub(crate) seen: FxHashSet<Vec<NodeId>>,
    /// Projection buffer of the current assignment.
    tuple: Vec<NodeId>,
    /// Complete-assignment buffer handed to verification.
    mu: Vec<NodeId>,
    /// The verification buffers and the per-plan atom memo.
    pub(crate) scratch: VerifyScratch,
}

impl Cursor {
    /// A cursor at the start of the first plan, searching under `sem`.
    pub(crate) fn new(sem: Semantics) -> Self {
        Cursor {
            sem,
            variant: 0,
            entered: false,
            depth: 0,
            next: Vec::new(),
            assignment: Vec::new(),
            seen: FxHashSet::default(),
            tuple: Vec::new(),
            mu: Vec::new(),
            scratch: VerifyScratch::new(),
        }
    }

    /// Runs the search to its next verified projection not returned
    /// before, and returns it; `None` once every plan is exhausted (and on
    /// every later call). `views` caches the active levels' views while
    /// the caller passes the same buffer; a fresh (default) buffer is
    /// rebuilt from the assignment, at most once per active level.
    pub(crate) fn advance<'a, G: GraphView>(
        &mut self,
        g: &G,
        catalog: &'a RelationCatalog,
        plans: &'a [JoinPlan],
        views: &mut Views<'a>,
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
                match self.enter(g, catalog, plan, views, 0) {
                    Entry::Descend => {}
                    Entry::Skip => self.next_variant(),
                    Entry::Emit => return Some(&self.tuple),
                }
                continue;
            }
            let level = self.depth;
            while views.starts.len() <= level {
                views.push_level(plan, catalog, &self.assignment);
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
            self.next[level] = cand + 1;
            let (var, node) = (plan.order[level], NodeId(cand as u32));
            if self.sem == Semantics::QueryInjective && self.assignment.contains(&Some(node)) {
                continue; // μ must be injective under q-inj
            }
            if !plan.bind_allowed(g, self.sem, var, node, &self.assignment, &mut self.scratch) {
                continue;
            }
            self.assignment[var.index()] = Some(node);
            match self.enter(g, catalog, plan, views, level + 1) {
                Entry::Descend => {}
                Entry::Skip => self.assignment[var.index()] = None,
                Entry::Emit => return Some(&self.tuple),
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
    /// the last free variable the duplicate-projection prune runs; at the
    /// leaf (every variable bound) the assignment is verified, and a new
    /// projection is recorded and emitted. After an emission only
    /// existential variables could still vary below the last free one, so
    /// the cursor resumes at that variable's level.
    fn enter<'a, G: GraphView>(
        &mut self,
        g: &G,
        catalog: &'a RelationCatalog,
        plan: &'a JoinPlan,
        views: &mut Views<'a>,
        level: usize,
    ) -> Entry {
        if level == plan.proj_depth {
            plan.project_into(&self.assignment, &mut self.tuple);
            if self.seen.contains(self.tuple.as_slice()) {
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
        if !plan.verify(g, catalog, self.sem, &self.mu, &mut self.scratch) {
            return Entry::Skip;
        }
        // `tuple` was projected when `proj_depth` (≤ `level`) was entered.
        self.seen.insert(self.tuple.clone());
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
