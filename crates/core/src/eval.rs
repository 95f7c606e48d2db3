//! Direct evaluation of CRPQs under the three semantics (§2.1).
//!
//! Every question is asked through one request type, [`Eval`]: build it
//! with `Eval::new(&q, &g)`, shape it with setters (semantics, threads, a
//! caller-owned catalog) and end it with a terminal
//! (`tuples`, `ask`, `limit`, `contains`, or `stream` in
//! [`crate::stream`]).
//!
//! # Graphs are read through [`GraphView`]
//!
//! A request is generic over `G: `[`GraphView`] — the read-only
//! trait from `crpq_graph` whose contract (ascending per-label iterators,
//! node-major `(label, node)` order, post-build labels read as empty) is
//! documented in `crpq_graph::view`. Frozen
//! [`GraphDb`](crpq_graph::GraphDb)s monomorphise to
//! the original adjacency-slice loops at zero cost; `DeltaGraph` overlays run
//! the identical algorithms over the base+delta merge. An evaluation
//! borrows `&G` for its whole run, so it always observes one consistent
//! snapshot.
//!
//! # The footprint invariant under mutation
//!
//! The [`RelationCatalog`] caches materialised atom relations across
//! queries, and each entry records its NFA's **label footprint** (the
//! alphabet symbols the compiled automaton can read). The invariant that
//! keeps the cache sound on a mutable graph: *a cached relation is
//! invalidated by a mutation to label `ℓ` iff `ℓ` is in its footprint* —
//! an RPQ relation is a function of exactly the edges whose labels its NFA
//! mentions, so disjoint-footprint entries stay byte-for-byte valid and
//! keep serving hits. Owners of a mutable graph call
//! [`RelationCatalog::invalidate_label`] after each batch of mutations to
//! a label (or [`RelationCatalog::rebind`] when the node universe
//! changes); see the catalog's own docs for the slot-reuse mechanics and
//! the eviction counters the benchmarks assert on.
//!
//! # Planner / executor architecture
//!
//! Injective semantics force evaluating every ε-free variant of a query
//! ([`Crpq::epsilon_free_union`]) — and ε-elimination copies most atoms
//! *verbatim* into every variant, so a k-variant query used to pay for the
//! same relation k times. Evaluation is therefore split into two phases:
//!
//! * **Planning** (`JoinPlan::build`): each variant's atoms are compiled and
//!   resolved against a [`RelationCatalog`] — a per-graph store of
//!   materialised atom relations keyed by the *canonical structural key* of
//!   the compiled NFA ([`crpq_automata::Nfa::canonical_key`]). The first
//!   atom with a given key materialises its relation (a catalog **miss**);
//!   every later occurrence — across variants, across semantics, across
//!   repeated requests sharing the catalog — reuses it (a
//!   **hit**). Hit/miss counters and materialisation wall clock are
//!   exposed for tests and benchmarks. The catalog also memoises each
//!   query's finished plans ([`RelationCatalog`]'s plan memo): the
//!   relations are standard-semantics for every semantics (Remark 2.1),
//!   so one query's pruned domains and elimination order are the same
//!   under `st`, `a-inj` and `q-inj`, and a warm request skips expansion,
//!   compilation, the lookups and the semi-join fixpoint altogether.
//! * **Execution** (`JoinPlan`): the per-variant join names catalog
//!   entries by index instead of owning relations, prunes domains and is
//!   searched by the one join cursor (see below).
//!
//! # Executor dispatch: one Generic Join for every shape
//!
//! Every variant and terminal runs the **worst-case-optimal
//! join** of the `wcoj` module, a Generic-Join executor: it binds one
//! variable at a time along a static elimination order and enumerates
//! each variable's candidates by *leapfrog intersection* of sorted views
//! (the pruned domain plus every incident relation row restricted by the
//! bound neighbours), so the per-candidate cost tracks the **smallest**
//! participating view instead of the domain size.
//!
//! Why Generic Join: on cyclic shapes (triangle, 4-cycle,
//! diamond-with-chord, …) any pairwise join plan can bind asymptotically
//! more intermediate pairs than the output (`O(|R|²)` against the AGM
//! bound `O(|R|^{3/2})` on the triangle), while per-variable intersection
//! is worst-case optimal; on acyclic shapes it measures as fast as a
//! pairwise plan on every benchmark workload. The heavy-hitter triangle
//! (`crpq_workloads::cyclic::hub_triangle_graph`) is the instance where
//! the gap shows, and the `experiments --smoke` scaling gate runs on it.
//!
//! The order is static and computed once per variant at plan time: it
//! starts at the variable with the smallest pruned domain, then
//! repeatedly takes the smallest-domain unordered variable **adjacent to
//! an ordered one** (connectivity first), so every level after the first
//! of a connected variant intersects at least one bound relation row.
//! Self-loop atoms (`x -L-> x`) are folded into the domains at plan-build
//! time.
//!
//! Every id set the join reads — a relation row, a relation's source or
//! target set, a pruned domain — is one density-adaptive view
//! ([`crpq_graph::rpq::RelationRow`]: sorted-`u32` sparse vs. bitset
//! dense; a domain is an owned [`NodeSet`] read through
//! [`NodeSet::row`]), and the catalog can run the per-source BFS sweeps
//! on several threads, each claiming blocks of source ids
//! ([`crpq_graph::rpq::rpq_relation`]).
//!
//! # Two engines
//!
//! The join engine answers every enumerating terminal; one membership
//! engine (`VariantEval`, one pin-and-search entry `find`) answers every
//! question about one tuple — [`Eval::contains`], the enumeration oracle
//! [`eval_tuples_enumerate`], [`crate::witness::eval_witness`] and the
//! trail semantics of [`crate::trail`], each with its own leaf check.
//!
//! **Join-based ([`Eval::tuples`], [`Eval::ask`], [`Eval::limit`] and the
//! stream).** Every terminal that enumerates answers plans every ε-free
//! variant and steps one join cursor over the plans, in a relation-first
//! pipeline (on a cold catalog, `ask`, `limit` and a stream's first tuple
//! run the witness phase first; see "The request flow" below):
//!
//! 1. **Relation materialisation** — every *distinct* atom's full
//!    standard-semantics RPQ relation is computed by the one materialiser,
//!    [`crpq_graph::rpq::rpq_relation`]: one product BFS per source over
//!    the graph's node-major adjacency, swept in blocks of source ids.
//!    The relation is indexed both ways
//!    (`forward(u)` / `backward(v)` rows) and cached in the request's
//!    [`RelationCatalog`] — the caller's, or a fresh
//!    [`RelationCatalog::with_threads`]`(g, threads)`. On a warm catalog
//!    the request starts at step 3 with the memoised plans.
//! 2. **Semi-join pruning** — per-variable candidate domains start at `V`
//!    and are intersected with atom source/target sets, then shrunk to a
//!    fixpoint: a node stays in `dom(x)` only while every atom incident to
//!    `x` can still be matched inside the current domains.
//! 3. **Generic Join** — the variables are bound along the elimination
//!    order, each from the leapfrog intersection of its pruned domain and
//!    the relation rows of its bound neighbours (see above), on the
//!    calling thread. `threads` sizes only the materialisation of step 1.
//! 4. **Per-semantics verification** — the relations are *exact* for `st`,
//!    so a join solution is a result. For `a-inj`/`q-inj` they are a sound
//!    over-approximation (every simple path is a path): each join solution
//!    is verified by simple-path / simple-cycle search, or the jointly
//!    disjoint placement of `place_atoms` under `q-inj`. A single-edge
//!    atom (every word one letter) has no internal node, so the placement
//!    records its edge `[s, d]` without a search; a CQ, whose atoms are
//!    all single-edge, then costs under `q-inj` what the injective join
//!    already paid for `μ`. Where the search could reach one projection
//!    twice (an existential variable ordered before the last free one, or
//!    several ε-free variants), subtrees whose free-variable projection
//!    was already returned are pruned — only existential variables could
//!    still vary there.
//! 5. **Output** — every returned projection is one row of the cursor's
//!    arity-strided buffer; a drained request sorts the rows once and
//!    copies each into its own `Vec`, the one allocation per answer.
//!
//! Boolean queries take the same path: their one possible answer is the
//! empty projection.
//!
//! **Membership.** Pins the free variables to the tuple, backtracks over
//! the other variables with (exact-for-standard, sound-for-injective) RPQ
//! reachability pruning — each variable's candidates intersect the sorted
//! swept rows (`SweptRows`, the witness phase's row form) of its bound
//! neighbours — and hands each complete, standard-reachable
//! assignment to the caller's leaf; the first leaf that succeeds ends the
//! search. [`Eval::contains`] and the enumeration oracle verify per
//! semantics:
//!
//! * `st` — reachability pruning is already exact, nothing to re-check;
//! * `a-inj` — each atom re-checked independently by the join's per-atom
//!   check (free for deletion-closed languages, a simple-path or
//!   simple-cycle search otherwise);
//! * `q-inj` — assignments are generated injectively and atoms are *placed*
//!   one by one, each atom's search nested in the previous atom's on one
//!   set of used nodes, so paths stay internally disjoint (backtracking
//!   across atoms).
//!
//! The [`crate::witness::eval_witness`] leaf returns one path per atom
//! instead: a shortest path under `st`, a simple path or cycle under
//! `a-inj`, the joint placement's paths under `q-inj`. The trail leaves
//! search trails, under `st` pruning.
//!
//! **Enumeration oracle ([`eval_tuples_enumerate`]).** Enumerates all
//! `|V|^arity` candidate tuples and decides membership per tuple, sharing
//! one membership search per variant across the tuples — the
//! differential-testing ground truth for [`Eval`] and the baseline of the
//! `BENCH_eval` measurements.
//!
//! # Streaming enumeration: the cursor contract
//!
//! The join search is a resumable cursor (the `wcoj` module) over a
//! request's plans, and the cursor, not the plan, carries the semantics,
//! so one memoised plan set serves all three. Each step
//! returns the next verified projection that no earlier step returned —
//! across the ε-free variants in order — and keeps, per level, the bound
//! node and the leapfrog position to resume from. The terminals only
//! differ in how many steps they take: [`Eval::ask`] takes one,
//! [`Eval::limit`] takes `k`, [`Eval::tuples`] drains the cursor, and a
//! [`crate::TupleStream`] is the cursor, one step per `next()`. So the
//! first `k` tuples of a stream are exactly `limit(k)`, a stopped request
//! has done no work past its last tuple, and nothing runs between steps.
//! The contract: a step never returns a tuple twice, and once it returns
//! `None` every later step does too. A single plan that binds its free
//! variables before any existential one keeps it by its order alone: after
//! each emission it moves on at the last free level, so no projection is
//! reached twice. Every other request keeps a seen index of row numbers
//! into the cursor's buffer of returned rows.
//!
//! # The request flow and the witness phase
//!
//! `tuples()` asks the catalog's plan memo and, on a miss, plans (steps
//! 1–2 above) before its cursor runs. `limit(k)`, `ask()` and a stream
//! do the same on a memo hit. On a memo miss where at least one atom's
//! relation is not cached, they first run the **witness phase**
//! (`witness_phase`): an answer is one homomorphism from an expansion into
//! the graph, so one answer needs only the rows its search touches. The
//! phase runs the same cursor over plans that are not memoised
//! (`JoinPlan::unpruned`):
//!
//! * an atom whose relation is cached reads its catalog rows, and its
//!   source and target sets restrict its variables' domains;
//! * every other atom reads rows swept on demand (`SweptRows`): forward
//!   rows by [`rpq::rpq_reach_collect`], backward rows by
//!   [`rpq::rpq_reach_collect_back`] over the mirror automaton, memoised
//!   per (relation, direction, node) as `Arc`-owned operands, and only
//!   the non-empty ones kept;
//! * there is no semi-join pruning: the elimination order reads the known
//!   domain sizes and counts every other domain as `|V|`, and each
//!   self-loop atom is checked as its variable is bound;
//! * every leapfrog candidate and every scanned edge costs one unit of a
//!   fixed budget, `1/16` of `|V| + |E|` plus 4 096 units (the floor lets
//!   a small graph be searched whole).
//!
//! The phase ends in one of three ways. At its first verified answer,
//! which the request returns at once: `ask` and `limit(1)` stop there with
//! nothing cached, and the next step plans as above (materialising on
//! `threads` workers) and runs the planned cursor, which skips that one
//! answer. When its search is exhausted: the result is empty and nothing
//! is materialised. When the budget is spent: the request plans as if the
//! phase had not run. Only the first answer is lazy, because a stream
//! drained on swept rows would give up the bulk sweeps on several workers
//! and the semi-join pruning; drained requests and warm ones run exactly
//! the planned path.
//!
//! # Inline injective verification
//!
//! Under `a-inj`/`q-inj` the relations over-approximate, and verification
//! used to run post-hoc on complete assignments only — rejected candidates
//! are exactly what stalls a stream. The search now also prunes at **bind
//! time** (`JoinPlan::bind_allowed`): binding a node immediately checks
//! every incident atom whose other endpoint is already bound for per-atom
//! simple-path/-cycle feasibility (`atom_injective`, the one per-atom
//! check both engines share). Under `a-inj` the check is exact per atom;
//! under `q-inj` it is a sound *necessary* condition (the joint placement
//! blocks at least as many nodes as the empty blocked set). The pruning
//! invariant: `bind_allowed` only rejects assignments no completion of
//! which could verify, so pruned and unpruned searches emit the same tuple
//! set — differentially tested in `tests/stream_equivalence.rs`.
//!
//! Every atom language is classified once at compile time. For a
//! **factor-deletion-closed** language (`a`, `c + d`, `a*`, `d d*`, …) the
//! check is free and unmemoised: by the loop-pruning lemma (the tractable
//! side of the trichotomy the paper cites as \[3\]) a walk prunes to a
//! simple path still in the language, so the relations' standard
//! reachability is exact. A **single-edge** language (`a`, `a + b`) is
//! free in the self-loop arm too, and its q-inj placement is its edge.
//! Only the other languages (`(a a)*`, `a* b a*`, `d (a + b)`, …) search,
//! memoised per plan in `VerifyScratch`. Every engine-side search — the
//! a-inj check, the q-inj placement and the witness leaf — is one call of
//! [`crpq_graph::rpq::search_simple`] through `CompiledAtom::for_each_path`.
//! What it needs of the automaton (its live states, from which a final
//! state is still reachable, and the labels they read) is computed once
//! per atom in `compile_atoms`, so the memoised plans carry it. Its one
//! visited set is `VerifyScratch::used`, and its buffers (path, state
//! images) are pooled per placement depth in the `VerifyScratch` of the
//! cursor or evaluator. The q-inj placement seeds `used` with the μ-images
//! and runs each atom's search inside the previous atom's `visit`, so the
//! set already holds every earlier path and nothing is copied per
//! placement. A search then costs what its DFS scans, with no per-call
//! setup. The enumeration oracle alone searches every atom.

use crate::wcoj::{Cursor, Operand, Row, RowSource, Views};
use crpq_automata::{Nfa, NfaKey};
use crpq_graph::rpq::{
    LiveStates, NodeSet, ReachScratch, Relation, RelationRow, SimplePathScratch,
};
use crpq_graph::{rpq, GraphView, NodeId};
use crpq_query::{Crpq, Var};
use crpq_util::{BitSet, FxHashMap, Symbol};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// The three semantics of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Semantics {
    /// Arbitrary paths (`Q(G)_st`).
    Standard,
    /// Simple paths per atom (`Q(G)_a-inj`).
    AtomInjective,
    /// Injective assignment + internally disjoint simple paths (`Q(G)_q-inj`).
    QueryInjective,
}

impl Semantics {
    /// All three semantics, in hierarchy order (most restrictive last).
    pub const ALL: [Semantics; 3] = [
        Semantics::Standard,
        Semantics::AtomInjective,
        Semantics::QueryInjective,
    ];

    /// Short name as used in the paper.
    pub fn short_name(self) -> &'static str {
        match self {
            Semantics::Standard => "st",
            Semantics::AtomInjective => "a-inj",
            Semantics::QueryInjective => "q-inj",
        }
    }
}

impl std::fmt::Display for Semantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// One evaluation request for `Q(G)_sem`: the crate's entry point to the
/// join engine and to the membership engine.
///
/// Setters shape the request; each is optional:
///
/// * [`semantics`](Self::semantics) — `st` (the default), `a-inj` or
///   `q-inj`;
/// * [`threads`](Self::threads) — materialisation threads of a fresh
///   catalog (default 1; `0` = one per available CPU, capped at 16);
/// * [`catalog`](Self::catalog) — a caller-owned [`RelationCatalog`], so
///   relations materialised by one request serve the next; without it
///   every request plans against a fresh
///   [`RelationCatalog::with_threads`]`(g, threads)`.
///
/// One terminal consumes the request: [`tuples`](Self::tuples),
/// [`ask`](Self::ask), [`limit`](Self::limit),
/// [`contains`](Self::contains), or `stream` (on `Arc`-shared graphs, see
/// [`crate::stream`]).
///
/// ```
/// use crpq_core::{Eval, RelationCatalog, Semantics};
/// use crpq_graph::GraphBuilder;
/// use crpq_query::parse_crpq;
///
/// let mut b = GraphBuilder::new();
/// b.edge("u", "a", "v");
/// b.edge("v", "b", "w");
/// let mut g = b.finish();
/// let q = parse_crpq("(x, z) <- x -[a]-> y, y -[b]-> z", g.alphabet_mut()).unwrap();
/// let (u, w) = (g.node_by_name("u").unwrap(), g.node_by_name("w").unwrap());
///
/// let mut catalog = RelationCatalog::new(&g);
/// let all = Eval::new(&q, &g)
///     .semantics(Semantics::QueryInjective)
///     .catalog(&mut catalog)
///     .tuples();
/// assert_eq!(all, vec![vec![u, w]]);
/// // A second request on the same catalog, under another semantics,
/// // reuses the memoised plans and both relations.
/// assert!(Eval::new(&q, &g).catalog(&mut catalog).ask());
/// assert_eq!((catalog.misses(), catalog.hits()), (2, 2));
/// assert!(Eval::new(&q, &g).contains(&[u, w]));
/// ```
pub struct Eval<'a, G: GraphView> {
    pub(crate) q: &'a Crpq,
    pub(crate) g: &'a G,
    pub(crate) sem: Semantics,
    pub(crate) threads: usize,
    pub(crate) catalog: Option<&'a mut RelationCatalog>,
}

impl<'a, G: GraphView> Eval<'a, G> {
    /// A request for `q` on `g` under standard semantics, on one thread,
    /// with a fresh catalog.
    pub fn new(q: &'a Crpq, g: &'a G) -> Self {
        Eval {
            q,
            g,
            sem: Semantics::Standard,
            threads: 1,
            catalog: None,
        }
    }

    /// The semantics to evaluate under.
    pub fn semantics(mut self, sem: Semantics) -> Self {
        self.sem = sem;
        self
    }

    /// Threads for a fresh catalog's relation materialisation (see
    /// [`RelationCatalog::with_threads`]); the join search always runs on
    /// the calling thread. `0` = one per available CPU, capped at 16;
    /// larger counts are clamped to [`rpq::MAX_THREADS`] (256). A caller
    /// catalog keeps the thread count it was built with.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Plans against a caller-owned catalog, so repeated requests on the
    /// same graph reuse its work: other queries sharing atoms reuse every
    /// relation materialised so far, and a query planned before (under
    /// any semantics) reuses its memoised plans, skipping expansion,
    /// compilation and the semi-join fixpoint. [`Self::threads`] does not
    /// apply: the catalog keeps the thread count it was built with.
    pub fn catalog(mut self, catalog: &'a mut RelationCatalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// The full result set `Q(G)_sem`, sorted and deduplicated: the
    /// cursor drained. The cursor returns each tuple once (see the module
    /// docs' cursor contract) as one row of a flat buffer; the rows are
    /// sorted there and then copied out, one `Vec` per answer.
    pub fn tuples(self) -> Vec<Vec<NodeId>> {
        self.search(usize::MAX, false)
    }

    /// `ASK`: whether `Q(G)_sem ≠ ∅` — the cursor's first step, which
    /// stops the join search at the **first verified witness**. For a
    /// Boolean query this is the query's truth value. On a plan-memo miss
    /// that step is the witness phase's (see the module docs), which
    /// builds no relation when it answers.
    pub fn ask(self) -> bool {
        !self.limit(1).is_empty()
    }

    /// `LIMIT k`: the cursor's first `k` distinct result tuples (fewer
    /// when the result has fewer), sorted among themselves. They are a
    /// subset of [`Self::tuples`]; *which* subset is unspecified — it
    /// depends on the search order, like any engine's unordered `LIMIT`.
    /// [`Self::stream`] yields the same `k` tuples first. On a plan-memo
    /// miss the first tuple comes from the witness phase (see the module
    /// docs), and only a `k > 1` request then plans.
    pub fn limit(self, k: usize) -> Vec<Vec<NodeId>> {
        if k == 0 {
            return Vec::new();
        }
        self.search(k, true)
    }

    /// Whether `tuple ∈ Q(G)_sem`, decided per ε-free variant by the
    /// membership engine (see the module docs). Threads and catalog do
    /// not apply: nothing is materialised.
    ///
    /// # Panics
    ///
    /// If `tuple`'s arity differs from the query's free tuple.
    pub fn contains(self, tuple: &[NodeId]) -> bool {
        assert_eq!(
            self.q.free.len(),
            tuple.len(),
            "tuple arity must match free tuple"
        );
        self.q
            .epsilon_free_union()
            .iter()
            .any(|variant| VariantEval::build(variant, self.g, self.sem).contains(tuple))
    }

    /// The join driver behind every terminal but `contains`: at most `k`
    /// steps of one cursor under the request's semantics, over the plans
    /// of every ε-free variant from the request's catalog (or a fresh one,
    /// materialising on `threads` workers). With `witness_first`, a memo
    /// miss first runs the witness phase (see the module docs): its answer
    /// is the first step, and the planned cursor then skips it. Returns the
    /// rows returned, sorted.
    fn search(self, k: usize, witness_first: bool) -> Vec<Vec<NodeId>> {
        let Eval {
            q,
            g,
            sem,
            threads,
            catalog,
        } = self;
        let mut fresh;
        let catalog = match catalog {
            Some(catalog) => catalog,
            None => {
                fresh = RelationCatalog::with_threads(g, threads);
                &mut fresh
            }
        };
        let mut witness = None;
        let plans = match catalog.memoised(q, g) {
            Some(plans) => plans,
            None => {
                if witness_first {
                    match witness_phase(q, g, sem, catalog) {
                        Witnessed::Answer(row) if k == 1 => return vec![row],
                        Witnessed::Answer(row) => witness = Some(row),
                        Witnessed::NoAnswer => return Vec::new(),
                        Witnessed::Fallback => {}
                    }
                }
                catalog.plan(q, g)
            }
        };
        let mut cursor = Cursor::new(sem, &plans);
        if let Some(row) = &witness {
            cursor.returned_before(row);
        }
        let steps = k - usize::from(witness.is_some());
        let (rows, mut views) = (&mut &*catalog, Views::default());
        for _ in 0..steps {
            if cursor.advance(g, rows, &plans, &mut views).is_none() {
                break;
            }
        }
        cursor.into_tuples()
    }
}

/// The paper-faithful full-result oracle: `|V|^arity` candidate tuples,
/// one membership test each. Retained as the differential-testing ground
/// truth for [`Eval`] and as the `BENCH_eval` legacy baseline.
pub fn eval_tuples_enumerate<G: GraphView>(q: &Crpq, g: &G, sem: Semantics) -> Vec<Vec<NodeId>> {
    let mut out = BTreeSet::new();
    let variants = q.epsilon_free_union();
    // One evaluator per variant, shared across candidate tuples so the
    // reachability caches amortise.
    let mut evals: Vec<VariantEval<G>> = variants
        .iter()
        .map(|v| VariantEval::exact(v, g, sem))
        .collect();
    let arity = q.free.len();
    let mut tuple = vec![NodeId(0); arity];
    enumerate_tuples(g, &mut tuple, 0, &mut |tuple: &[NodeId]| {
        if evals.iter_mut().any(|e| e.contains(tuple)) {
            out.insert(tuple.to_vec());
        }
    });
    out.into_iter().collect()
}

/// Calls `f` on every extension of `tuple[..pos]` by nodes of `g`, in
/// lexicographic order.
pub(crate) fn enumerate_tuples<G: GraphView, F: FnMut(&[NodeId])>(
    g: &G,
    tuple: &mut Vec<NodeId>,
    pos: usize,
    f: &mut F,
) {
    if pos == tuple.len() {
        f(tuple);
        return;
    }
    for v in (0..g.num_nodes()).map(|v| NodeId(v as u32)) {
        tuple[pos] = v;
        enumerate_tuples(g, tuple, pos + 1, f);
    }
}

pub(crate) struct CompiledAtom {
    pub(crate) src: Var,
    pub(crate) dst: Var,
    pub(crate) nfa: Nfa,
    /// Whether the language is factor-deletion closed
    /// ([`crpq_automata::tractability::deletion_closed`]), which makes
    /// [`atom_injective`] free.
    deletion_closed: bool,
    /// Whether every word of the language is one letter
    /// (`Finite { max_len: 1 }`): the atom's path is one edge with no
    /// internal node, so the q-inj placement records `[s, d]` without a
    /// search and a self-loop atom needs no cycle search.
    single_edge: bool,
    /// The automaton's live states, computed once here so that every
    /// simple-path and trail search of the atom, in every request its
    /// memoised plan serves, starts without recomputing them.
    pub(crate) live: LiveStates,
}

impl CompiledAtom {
    /// The one engine-side simple-path search: enumerates the atom's
    /// non-empty simple paths from `s` to `d` whose internal nodes avoid
    /// `visited` — simple cycles at `s` for a self-loop atom — on the
    /// pooled buffers `search`, handing `visit` each path and the set (see
    /// [`rpq::search_simple`]). A non-self-loop atom has no path from a
    /// node to itself: the only simple one is empty, and atoms are ε-free.
    /// Returns `true` if enumeration ran to completion.
    fn for_each_path<G: GraphView>(
        &self,
        g: &G,
        s: NodeId,
        d: NodeId,
        visited: &mut BitSet,
        search: &mut SimplePathScratch,
        visit: impl FnMut(&[NodeId], &mut BitSet) -> ControlFlow<()>,
    ) -> bool {
        if self.src != self.dst && s == d {
            return true;
        }
        rpq::search_simple(g, &self.nfa, &self.live, s, d, visited, search, visit)
    }
}

/// Compiles a variant's atoms and classifies each language once.
fn compile_atoms(variant: &Crpq) -> Vec<CompiledAtom> {
    variant
        .atoms
        .iter()
        .map(|a| {
            let nfa = a.nfa();
            // ε-freeness is guaranteed upstream by the variant expansion, so
            // no atom can be matched by the empty path.
            debug_assert!(!nfa.accepts_epsilon(), "variants must be ε-free");
            CompiledAtom {
                src: a.src,
                dst: a.dst,
                deletion_closed: crpq_automata::tractability::deletion_closed(&nfa, &nfa.symbols()),
                single_edge: nfa.max_word_len() == Some(1),
                live: LiveStates::new(&nfa),
                nfa,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Planner layer: relation catalog + per-variant plans
// ---------------------------------------------------------------------------

/// Per-graph store of materialised atom relations, keyed by the canonical
/// structural key of the atom's compiled NFA.
///
/// The catalog is the unit of sharing in the planner: a k-variant query
/// whose variants repeat the same atom language materialises that
/// relation **once** (one miss, k−1 hits) instead of k times, and a
/// caller-owned catalog extends the sharing across queries and repeated
/// evaluations on the same graph. A miss calls the one materialiser,
/// [`rpq::rpq_relation`]: one product BFS per source that can start a
/// path, installed through the one relation builder of [`rpq`], which
/// also builds the backward index. The sweeps take blocks of source ids:
/// on the calling thread with a pooled
/// [`ReachScratch`] by default, and on that thread plus scoped workers
/// when built via [`RelationCatalog::with_threads`]. Every
/// materialisation's [`rpq::MaterialiseStats`] are summed into
/// [`Self::materialise_totals`].
///
/// # Label-footprint invalidation under mutation
///
/// The catalog is correct across **edge mutations** of its bound graph
/// (a [`crpq_graph::DeltaGraph`]) through footprint-keyed eviction: every
/// entry records the alphabet of its NFA at insert, and an atom relation
/// depends only on edges carrying labels in that alphabet. After mutating
/// edges with label `ℓ`, calling [`Self::invalidate_label`]`(ℓ)` evicts
/// exactly the entries whose footprint mentions `ℓ` — everything else
/// remains a valid cache hit (the invariant the differential suite
/// `tests/delta_equivalence.rs` counter-asserts). Node additions change
/// the universe every relation is sized by, so they require a full
/// [`Self::rebind`]. Labels interned *after* a relation was cached cannot
/// appear in its footprint, hence need no eviction path of their own.
///
/// # The plan memo
///
/// The catalog also memoises each query's join plans: the map from a
/// [`Crpq`] to the plans of its ε-free variants (relations named by slot,
/// semi-join-pruned domains, elimination order). A plan holds no
/// semantics — the relations are the standard ones under every semantics
/// (Remark 2.1), and the cursor carries the semantics — so one entry
/// serves `st`, `a-inj` and `q-inj`. A request for a query seen before
/// skips ε-expansion, NFA compilation, the relation lookups and the
/// semi-join fixpoint; a new query is planned once and stored.
///
/// * **When an entry is dropped.** [`Self::invalidate_label`] drops every
///   entry naming a slot it evicts, before that slot can be recycled: a
///   pruned domain is a function of exactly the relations its plan names.
///   [`Self::invalidate_all`] and [`Self::rebind`] (and so
///   [`Self::rehydrate_after_recovery`]) drop every entry.
/// * **Counters.** A memo hit runs the same misuse guards as
///   [`Self::get_or_materialize`] and counts one relation **hit** per atom
///   relation its plans name — the lookups planning would have made — so
///   [`Self::hits`], [`Self::misses`] and [`Self::hit_rate`] read as if
///   every request had planned afresh.
/// * **Memory.** Each plan stores one domain per variable, at most
///   `|V|/8` bytes each (a domain turns dense where a bitset is smaller),
///   so a cached query holds at most `num_vars · |V|/8` bytes of domains
///   per ε-free variant. Entries live until an invalidation drops them.
///
/// # Requests answered by the witness phase
///
/// A cold `limit`/`ask` (a plan-memo miss with some atom relation not
/// cached) runs the witness phase first (see the module docs). When that
/// phase answers (`ask`, `limit(1)`) or proves the result empty, the
/// request caches nothing: it reads the cached relations without counting
/// a hit, materialises nothing and memoises no plan, so [`Self::hits`],
/// [`Self::misses`], [`Self::cached_entries`] and [`Self::cached_plans`]
/// read as they did before it. A `limit(k)` with `k > 1` that gets an
/// answer, and any request whose phase hits its budget, then plans,
/// counting hits and misses as above.
pub struct RelationCatalog {
    /// Node count of the graph this catalog is bound to (O(1) misuse
    /// guard on every lookup).
    num_nodes: usize,
    /// Sampled structural fingerprint of the bound graph (debug-build
    /// misuse guard: a catalog must never serve relations for a different
    /// graph with the same node count).
    fingerprint: u64,
    index: FxHashMap<NfaKey, usize>,
    relations: Vec<Relation>,
    /// `footprints[slot]` = sorted alphabet of the NFA whose relation
    /// occupies `slot` — the eviction key of [`Self::invalidate_label`].
    footprints: Vec<Vec<Symbol>>,
    /// Slots vacated by eviction, reused by the next materialisation.
    free_slots: Vec<usize>,
    /// The plan memo: every planned query's plans (see the type docs).
    plans: FxHashMap<Crpq, Arc<[JoinPlan]>>,
    /// The bound graph mutated since the fingerprint was last sampled
    /// (set by the invalidation entry points, which have no `&G` in hand);
    /// the next lookup re-samples instead of tripping the misuse guard.
    fingerprint_stale: bool,
    scratch: ReachScratch,
    threads: usize,
    hits: usize,
    misses: usize,
    /// Entries evicted by [`Self::invalidate_label`] /
    /// [`Self::invalidate_all`] / [`Self::rebind`] — surfaced in the
    /// `--mutate-smoke` bench rows.
    evictions: usize,
    materialise_ms: f64,
    /// Sums of the per-materialisation stats.
    totals: MaterialiseTotals,
    /// Largest per-materialisation sweep-scratch footprint seen so far
    /// (stamp arrays + sparse visited maps, summed across workers) — the
    /// `scratch_bytes` observable of the scale benchmarks.
    peak_scratch_bytes: usize,
}

impl RelationCatalog {
    /// An empty catalog for `g`, materialising on a single thread.
    pub fn new<G: GraphView>(g: &G) -> Self {
        Self::with_threads(g, 1)
    }

    /// An empty catalog for `g` whose per-source BFS sweeps run on
    /// `threads` workers — the calling thread plus `threads − 1` scoped
    /// threads (`0` = one per available CPU, capped at 16; larger counts
    /// are clamped to [`rpq::MAX_THREADS`], 256).
    pub fn with_threads<G: GraphView>(g: &G, threads: usize) -> Self {
        RelationCatalog {
            num_nodes: g.num_nodes(),
            fingerprint: graph_fingerprint(g),
            index: FxHashMap::default(),
            relations: Vec::new(),
            footprints: Vec::new(),
            free_slots: Vec::new(),
            plans: FxHashMap::default(),
            fingerprint_stale: false,
            scratch: ReachScratch::new(),
            threads: rpq::effective_threads(threads),
            hits: 0,
            misses: 0,
            evictions: 0,
            materialise_ms: 0.0,
            totals: MaterialiseTotals::default(),
            peak_scratch_bytes: 0,
        }
    }

    /// The id of the relation for `nfa` on `g`, materialising it on first
    /// sight. Panics if `g` is not the graph the catalog was built for:
    /// node count is checked in O(1) on every lookup, and debug builds
    /// additionally verify a sampled structural fingerprint (edge count
    /// plus a sample of edges), so a swapped graph with the same node
    /// count is caught in tests without taxing the all-hits fast path
    /// (`GraphDb` is structurally immutable once built).
    pub fn get_or_materialize<G: GraphView>(&mut self, g: &G, nfa: &Nfa) -> usize {
        self.check_graph(g);
        let key = nfa.canonical_key();
        if let Some(&id) = self.index.get(&key) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        let t0 = Instant::now();
        let (rel, stats) = rpq::rpq_relation(g, nfa, &mut self.scratch, self.threads);
        self.peak_scratch_bytes = self.peak_scratch_bytes.max(stats.scratch_bytes);
        self.totals.add(&stats);
        // Retention policy: keep the scratch warm for the common case but
        // release what a one-off huge product forced beyond the budget
        // (worker scratches die with their threads; this is the pooled one).
        self.scratch.shrink_to(rpq::SCRATCH_RETAIN_STATES);
        self.materialise_ms += t0.elapsed().as_secs_f64() * 1e3;
        let footprint = nfa.symbols();
        let id = match self.free_slots.pop() {
            Some(slot) => {
                self.relations[slot] = rel;
                self.footprints[slot] = footprint;
                slot
            }
            None => {
                let id = self.relations.len();
                self.relations.push(rel);
                self.footprints.push(footprint);
                id
            }
        };
        self.index.insert(key, id);
        id
    }

    /// The join plans of every ε-free variant of `q`, in order: the
    /// memoised ones when `q` was planned before, otherwise planned now
    /// and stored — the one way a request plans
    /// ([`Self::memoised`], then [`Self::plan`]).
    pub(crate) fn plans<G: GraphView>(&mut self, q: &Crpq, g: &G) -> Arc<[JoinPlan]> {
        match self.memoised(q, g) {
            Some(plans) => plans,
            None => self.plan(q, g),
        }
    }

    /// The memoised plans of `q`, counting one hit per atom relation they
    /// name, or `None` on a memo miss. Runs the misuse guard first: panics
    /// like [`Self::get_or_materialize`] if `g` is not the bound graph.
    pub(crate) fn memoised<G: GraphView>(&mut self, q: &Crpq, g: &G) -> Option<Arc<[JoinPlan]>> {
        self.check_graph(g);
        let plans = self.plans.get(q).cloned()?;
        self.hits += plans.iter().map(|p| p.rel_ids.len()).sum::<usize>();
        Some(plans)
    }

    /// Plans every ε-free variant of `q` (materialising the relations not
    /// cached yet) and stores the plans: the memo miss of [`Self::plans`].
    pub(crate) fn plan<G: GraphView>(&mut self, q: &Crpq, g: &G) -> Arc<[JoinPlan]> {
        let plans: Arc<[JoinPlan]> = q
            .epsilon_free_union()
            .iter()
            .map(|variant| JoinPlan::build(variant, g, self))
            .collect();
        self.plans.insert(q.clone(), Arc::clone(&plans));
        plans
    }

    /// The slot of the cached relation for `nfa`, if any, without
    /// counting a lookup: the witness phase reads what is cached and
    /// caches nothing.
    fn cached_slot(&self, nfa: &Nfa) -> Option<usize> {
        self.index.get(&nfa.canonical_key()).copied()
    }

    /// The misuse guard of every lookup: the node count is checked in
    /// O(1), and debug builds compare a sampled structural fingerprint
    /// (re-sampled first when a mutation was reported since).
    fn check_graph<G: GraphView>(&mut self, g: &G) {
        assert_eq!(
            self.num_nodes,
            g.num_nodes(),
            "RelationCatalog is bound to a different graph"
        );
        if self.fingerprint_stale {
            // A mutation was reported since the last sample; surviving
            // entries are valid by the footprint invariant, so only the
            // misuse guard needs re-anchoring.
            self.fingerprint = graph_fingerprint(g);
            self.fingerprint_stale = false;
        }
        debug_assert_eq!(
            self.fingerprint,
            graph_fingerprint(g),
            "RelationCatalog is bound to a different graph"
        );
    }

    /// Evicts every entry whose label footprint mentions `label` — the
    /// invalidation hook for edge mutations: an atom relation depends only
    /// on edges labelled from its NFA alphabet, so after inserting or
    /// deleting `label`-edges, entries not mentioning `label` stay exact.
    /// Drops every memoised plan set that names an evicted slot, and marks
    /// the misuse-guard fingerprint stale (re-sampled at the next lookup).
    /// Returns the number of relation entries evicted.
    pub fn invalidate_label(&mut self, label: Symbol) -> usize {
        self.fingerprint_stale = true;
        let footprints = &self.footprints;
        let evicted: Vec<usize> = {
            let mut gone = Vec::new();
            self.index.retain(|_, &mut slot| {
                if footprints[slot].contains(&label) {
                    gone.push(slot);
                    false
                } else {
                    true
                }
            });
            gone
        };
        self.plans.retain(|_, plans| {
            !plans
                .iter()
                .any(|p| p.rel_ids.iter().any(|id| evicted.contains(id)))
        });
        for &slot in &evicted {
            // Release the relation's heap now (`Relation::empty` is O(1));
            // the slot id is recycled by the next materialisation.
            self.relations[slot] = Relation::empty(self.num_nodes);
            self.footprints[slot].clear();
            self.free_slots.push(slot);
        }
        self.evictions += evicted.len();
        evicted.len()
    }

    /// Replays a crash-recovery report against the catalog: evicts every
    /// entry whose footprint mentions a label the recovered WAL mutated
    /// (the same invalidations the pre-crash process had applied
    /// incrementally), and rebinds outright when the node universe is not
    /// the one this catalog was sized for. A process that reopens a
    /// durable graph and carries a warm catalog (e.g. deserialized, or a
    /// server restarting onto the same snapshot) must call this before
    /// serving queries — `tests/durability.rs` asserts the recovered
    /// catalog then answers exactly like a cold one. Returns the number
    /// of entries evicted.
    pub fn rehydrate_after_recovery<G: GraphView>(
        &mut self,
        g: &G,
        report: &crpq_graph::wal::RecoveryReport,
    ) -> usize {
        if self.num_nodes != g.num_nodes() {
            let evicted = self.cached_entries();
            self.rebind(g);
            return evicted;
        }
        // The fingerprint was sampled against the pre-crash state; force a
        // re-sample even when no label-footprint entry is evicted.
        self.fingerprint_stale = true;
        report
            .mutated_labels
            .iter()
            .map(|&l| self.invalidate_label(l))
            .sum()
    }

    /// Evicts **every** entry and memoised plan — the structure-oblivious
    /// baseline the `--mutate-smoke` benchmark compares footprint-keyed
    /// eviction against. Returns the number of relation entries evicted.
    pub fn invalidate_all(&mut self) -> usize {
        self.fingerprint_stale = true;
        let evicted = self.index.len();
        self.index.clear();
        self.plans.clear();
        for slot in 0..self.relations.len() {
            if !self.footprints[slot].is_empty() || !self.relations[slot].is_empty() {
                self.relations[slot] = Relation::empty(self.num_nodes);
            }
            self.footprints[slot].clear();
        }
        self.free_slots = (0..self.relations.len()).collect();
        self.evictions += evicted;
        evicted
    }

    /// Rebinds the catalog after a change to the **node universe** (e.g.
    /// [`crpq_graph::DeltaGraph::add_node`] or compaction): relations and
    /// domains are sized by `num_nodes`, so nothing cached survives, not
    /// even a memoised plan.
    pub fn rebind<G: GraphView>(&mut self, g: &G) {
        self.evictions += self.index.len();
        self.index.clear();
        self.plans.clear();
        self.relations.clear();
        self.footprints.clear();
        self.free_slots.clear();
        self.num_nodes = g.num_nodes();
        self.fingerprint = graph_fingerprint(g);
        self.fingerprint_stale = false;
    }

    /// Entries evicted so far by the invalidation entry points.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Number of currently cached (non-evicted) entries.
    pub fn cached_entries(&self) -> usize {
        self.index.len()
    }

    /// Number of queries whose plans are currently memoised.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// The materialised relation with the given id.
    pub fn relation(&self, id: usize) -> &Relation {
        &self.relations[id]
    }

    /// Number of distinct relations materialised so far.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether nothing has been materialised yet.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Lookups that reused an existing relation.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lookups that had to materialise (= number of materialisations).
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total wall clock spent materialising relations, in milliseconds.
    pub fn materialise_ms(&self) -> f64 {
        self.materialise_ms
    }

    /// The summed [`rpq::MaterialiseStats`] of every materialisation so
    /// far: sources swept, and the sweep and assembly milliseconds inside
    /// [`Self::materialise_ms`].
    pub fn materialise_totals(&self) -> MaterialiseTotals {
        self.totals
    }

    /// Approximate heap bytes of every relation materialised so far — the
    /// peak-RSS proxy `BENCH_eval` records alongside wall clock.
    pub fn relation_bytes(&self) -> usize {
        self.relations.iter().map(Relation::heap_bytes).sum()
    }

    /// Largest per-materialisation sweep-scratch footprint (stamp arrays
    /// across workers) seen by this catalog — recorded in the benchmark
    /// baselines so scratch regressions are visible across PRs.
    pub fn peak_scratch_bytes(&self) -> usize {
        self.peak_scratch_bytes
    }
}

/// Sums of the [`rpq::MaterialiseStats`] of a catalog's materialisations.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaterialiseTotals {
    /// Sources swept, summed over the materialisations.
    pub sources_swept: usize,
    /// Milliseconds producing forward rows ([`rpq::MaterialiseStats::sweep_ms`]).
    pub sweep_ms: f64,
    /// Milliseconds assembling relations
    /// ([`rpq::MaterialiseStats::assembly_ms`]).
    pub assembly_ms: f64,
    /// The largest assembly transient of one materialisation
    /// ([`rpq::MaterialiseStats::assembly_bytes`]) — a peak, not a sum.
    pub peak_assembly_bytes: usize,
}

impl MaterialiseTotals {
    fn add(&mut self, stats: &rpq::MaterialiseStats) {
        self.sources_swept += stats.sources_swept;
        self.sweep_ms += stats.sweep_ms;
        self.assembly_ms += stats.assembly_ms;
        self.peak_assembly_bytes = self.peak_assembly_bytes.max(stats.assembly_bytes);
    }
}

/// Sampled structural fingerprint of a graph: node count, edge count and
/// up to 64 stride-sampled edges. Cheap enough to recompute on every
/// catalog lookup, strong enough to catch the realistic misuse modes
/// (different graph with the same node count, mutated graph).
fn graph_fingerprint<G: GraphView>(g: &G) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crpq_util::FxHasher::default();
    g.num_nodes().hash(&mut h);
    g.num_edges().hash(&mut h);
    let n = g.num_nodes();
    let stride = (n / 64).max(1);
    let mut v = 0;
    while v < n {
        let node = NodeId(v as u32);
        for (sym, to) in g.out_edges_iter(node) {
            (v as u32, sym.0, to.0).hash(&mut h);
        }
        v += stride;
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Join-based engine (executor)
// ---------------------------------------------------------------------------

/// The compiled join pipeline for one ε-free variant: per-atom relations,
/// named by their [`RelationCatalog`] index (by their index in the
/// witness phase's rows, for its unpruned plans), semi-join-pruned
/// per-variable domains and the elimination order. It holds no semantics
/// (the cursor does), so the catalog's plan memo serves every semantics
/// with one entry, and it borrows nothing, so a [`crate::TupleStream`] can
/// own its plans next to the catalog they index.
pub(crate) struct JoinPlan {
    /// The variant's free tuple.
    free: Vec<Var>,
    pub(crate) atoms: Vec<CompiledAtom>,
    /// `rel_ids[i]` = index of atom `i`'s full standard-semantics relation
    /// in the plan's row source (the catalog, or the witness phase's rows).
    pub(crate) rel_ids: Vec<usize>,
    /// Per-variable candidate domains after semi-join fixpoint —
    /// density-adaptive ([`NodeSet`]: sorted-`u32` sparse / bitset dense),
    /// so domain storage is `O(candidates)` instead of `O(|V|)` per
    /// variable, and each domain is one seekable view of the leapfrog
    /// intersection.
    pub(crate) domains: Vec<NodeSet>,
    /// The static variable elimination order
    /// ([`crate::wcoj::elimination_order`]).
    pub(crate) order: Vec<Var>,
    /// `level_of[v]` = the position of variable `v` in `order`.
    pub(crate) level_of: Vec<usize>,
    /// Levels of `order` that bind every free variable: the level whose
    /// entry runs the duplicate-projection prune.
    pub(crate) proj_depth: usize,
    /// Self-loop atoms not folded into their variable's domain, checked as
    /// the variable is bound ([`Self::loops_hold`]): none in a memoised
    /// plan, every self-loop atom in the witness phase's.
    loops: Vec<usize>,
    /// Some domain is empty — the variant contributes nothing.
    empty: bool,
}

impl JoinPlan {
    /// Compiles a variant's atoms, resolves each against the catalog
    /// (materialising only relations never seen before), prunes variable
    /// domains to the semi-join fixpoint and fixes the elimination order.
    /// Only [`RelationCatalog::plans`] calls it, on a memo miss.
    fn build<G: GraphView>(variant: &Crpq, g: &G, catalog: &mut RelationCatalog) -> Self {
        let atoms = compile_atoms(variant);
        let rel_ids: Vec<usize> = atoms
            .iter()
            .map(|a| catalog.get_or_materialize(g, &a.nfa))
            .collect();
        let relations: Vec<&Relation> = rel_ids.iter().map(|&id| catalog.relation(id)).collect();

        let n = g.num_nodes();
        let mut domains = vec![NodeSet::full(n); variant.num_vars];

        // Initial restriction: sources/targets per incident atom; self-loop
        // atoms keep only nodes related to themselves. Each intersection
        // re-picks the domain's representation, so label-selective atoms
        // collapse their variables to small sorted id lists immediately.
        for (atom, rel) in atoms.iter().zip(&relations) {
            if atom.src == atom.dst {
                let diag: Vec<u32> = rel
                    .source_set()
                    .iter()
                    .filter(|&v| rel.contains(NodeId(v as u32), NodeId(v as u32)))
                    .map(|v| v as u32)
                    .collect();
                domains[atom.src.index()].intersect_with(RelationRow::Sparse(&diag));
            } else {
                domains[atom.src.index()].intersect_with(rel.source_set());
                domains[atom.dst.index()].intersect_with(rel.target_set());
            }
        }

        // Semi-join fixpoint: a node stays in dom(src) only while some
        // partner in dom(dst) is still related (and vice versa). Each pass
        // rebuilds the shrinking side from its survivors — `O(candidates)`
        // work and memory, not `O(|V|)`. Sizes are counted once here and
        // then kept in step with every rebuild.
        let mut sizes: Vec<usize> = domains.iter().map(|d| d.row().len()).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for (atom, rel) in atoms.iter().zip(&relations) {
                if atom.src == atom.dst {
                    continue;
                }
                let (s, d) = (atom.src.index(), atom.dst.index());
                let kept: Vec<u32> = domains[s]
                    .row()
                    .iter()
                    .filter(|&u| domains[d].row().intersects(&rel.forward(NodeId(u as u32))))
                    .map(|u| u as u32)
                    .collect();
                if kept.len() != sizes[s] {
                    sizes[s] = kept.len();
                    domains[s] = NodeSet::from_sorted_ids(kept, n);
                    changed = true;
                }
                let kept: Vec<u32> = domains[d]
                    .row()
                    .iter()
                    .filter(|&v| domains[s].row().intersects(&rel.backward(NodeId(v as u32))))
                    .map(|v| v as u32)
                    .collect();
                if kept.len() != sizes[d] {
                    sizes[d] = kept.len();
                    domains[d] = NodeSet::from_sorted_ids(kept, n);
                    changed = true;
                }
            }
        }

        Self::ordered(variant, atoms, rel_ids, domains, &sizes, Vec::new())
    }

    /// The witness phase's plan of a variant (see the module docs) over
    /// its compiled atoms, whose relations `rel_ids` name by index in
    /// `rows`: no semi-join pruning and no materialisation. A cached
    /// relation restricts its variables' domains to its source and target
    /// sets, and any other domain stays `V`, so the order counts it as
    /// `|V|`. Every self-loop atom is checked at bind time.
    fn unpruned<G: GraphView>(
        variant: &Crpq,
        atoms: Vec<CompiledAtom>,
        rel_ids: Vec<usize>,
        rows: &WitnessRows<'_, G>,
    ) -> Self {
        let mut domains = vec![NodeSet::full(rows.g.num_nodes()); variant.num_vars];
        let mut loops = Vec::new();
        for (i, (atom, &id)) in atoms.iter().zip(&rel_ids).enumerate() {
            let cached = rows.cached(id);
            if let Some(rel) = cached {
                domains[atom.src.index()].intersect_with(rel.source_set());
            }
            if atom.src == atom.dst {
                loops.push(i);
            } else if let Some(rel) = cached {
                domains[atom.dst.index()].intersect_with(rel.target_set());
            }
        }
        let sizes: Vec<usize> = domains.iter().map(|d| d.row().len()).collect();
        Self::ordered(variant, atoms, rel_ids, domains, &sizes, loops)
    }

    /// The plan over its domains, with the elimination order their sizes
    /// give.
    fn ordered(
        variant: &Crpq,
        atoms: Vec<CompiledAtom>,
        rel_ids: Vec<usize>,
        domains: Vec<NodeSet>,
        sizes: &[usize],
        loops: Vec<usize>,
    ) -> Self {
        let empty = sizes.contains(&0) && variant.num_vars > 0;
        let order = crate::wcoj::elimination_order(&atoms, sizes);
        let mut level_of = vec![0; order.len()];
        for (level, v) in order.iter().enumerate() {
            level_of[v.index()] = level;
        }
        let proj_depth = variant
            .free
            .iter()
            .map(|v| level_of[v.index()] + 1)
            .max()
            .unwrap_or(0);
        JoinPlan {
            free: variant.free.clone(),
            atoms,
            rel_ids,
            domains,
            order,
            level_of,
            proj_depth,
            loops,
            empty,
        }
    }

    /// Whether the pruned plan can produce no results at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.empty
    }

    /// Number of the variant's variables.
    pub(crate) fn num_vars(&self) -> usize {
        self.domains.len()
    }

    /// Length of the variant's free tuple.
    pub(crate) fn arity(&self) -> usize {
        self.free.len()
    }

    /// Whether the search reaches each projection at most once: every
    /// variable the order binds up to `proj_depth` is free, so the free
    /// variables are its first levels, and after an emission the cursor
    /// moves on at the last of them. Otherwise an existential variable
    /// ordered before the last free one can lead to one projection twice.
    pub(crate) fn emits_once(&self) -> bool {
        self.order[..self.proj_depth]
            .iter()
            .all(|v| self.free.contains(v))
    }

    /// Whether binding `node` to `var` satisfies every self-loop atom of
    /// `var` left to bind time (`loops`): `node` must be in its own
    /// forward row.
    #[inline]
    pub(crate) fn loops_hold<'a>(
        &self,
        rows: &mut impl RowSource<'a>,
        var: Var,
        node: NodeId,
    ) -> bool {
        self.loops.iter().all(|&i| {
            self.atoms[i].src != var
                || rows
                    .forward(self.rel_ids[i], node)
                    .view()
                    .contains(node.index())
        })
    }

    /// Appends the free-variable projection of `assignment` to `buf`.
    pub(crate) fn project_into(&self, assignment: &[Option<NodeId>], buf: &mut Vec<NodeId>) {
        for v in &self.free {
            buf.push(assignment[v.index()].expect("free variables are bound")); // invariant: the cursor projects only then
        }
    }

    /// Bind-time injectivity prune (see the module docs): whether binding
    /// `node` to `var` can still lead to a verifying completion, judged by
    /// the per-atom feasibility of every incident atom both of whose
    /// endpoints are now bound. Exact per atom under `a-inj`; a sound
    /// necessary condition under `q-inj` (the joint placement only blocks
    /// *more* nodes). Standard semantics never prunes — the relations are
    /// exact there.
    pub(crate) fn bind_allowed<G: GraphView>(
        &self,
        g: &G,
        sem: Semantics,
        var: Var,
        node: NodeId,
        assignment: &[Option<NodeId>],
        scratch: &mut VerifyScratch,
    ) -> bool {
        if sem == Semantics::Standard {
            return true;
        }
        for (i, atom) in self.atoms.iter().enumerate() {
            let (s, d) = if atom.src == atom.dst {
                if atom.src != var {
                    continue;
                }
                (node, node)
            } else if atom.src == var {
                match assignment[atom.dst.index()] {
                    Some(d) => (node, d),
                    None => continue,
                }
            } else if atom.dst == var {
                match assignment[atom.src.index()] {
                    Some(s) => (s, node),
                    None => continue,
                }
            } else {
                continue;
            };
            // Candidate generation intersects every incident relation row
            // and the domain fold guarantees self-loop pairs, so `(s, d)` is
            // standard-reachable, as `atom_injective` requires.
            if !atom_injective(g, &self.atoms, i, s, d, scratch) {
                return false;
            }
        }
        true
    }

    /// Verifies a complete, relation-consistent assignment under `sem`.
    /// For `st` the relations are exact, so there is nothing left to
    /// check; the injective semantics re-check paths. Called at every leaf
    /// of the search ([`crate::wcoj`]).
    pub(crate) fn verify<G: GraphView>(
        &self,
        g: &G,
        sem: Semantics,
        mu: &[NodeId],
        scratch: &mut VerifyScratch,
    ) -> bool {
        match sem {
            Semantics::Standard => true,
            // Every atom was already checked when its second endpoint was
            // bound, so this re-reads the memo (or a free arm) per atom.
            Semantics::AtomInjective => (0..self.atoms.len()).all(|i| {
                let (s, d) = (mu[self.atoms[i].src.index()], mu[self.atoms[i].dst.index()]);
                atom_injective(g, &self.atoms, i, s, d, scratch)
            }),
            Semantics::QueryInjective => verify_query_injective(g, &self.atoms, mu, scratch),
        }
    }
}

// ---------------------------------------------------------------------------
// Rows swept on demand, and the witness phase
// ---------------------------------------------------------------------------

/// Swept rows keyed by (relation, node).
type RowMemo = FxHashMap<(u32, u32), Arc<[u32]>>;

/// Relation rows swept on demand: per relation (an automaton and its
/// mirror), the forward rows of the collecting sweep
/// ([`rpq::rpq_reach_collect`]) and the backward rows of its twin
/// ([`rpq::rpq_reach_collect_back`]), memoised per (relation, direction,
/// node) and swept on one pooled [`ReachScratch`]. Only non-empty rows are
/// kept: an empty row costs no memory and is swept again when asked for
/// again. Each row is an `Arc<[u32]>`, so the cursor's views own the rows
/// they read while the memo grows. The row form of the witness phase and
/// of the membership engine.
pub(crate) struct SweptRows {
    /// Per relation: the automaton and its mirror.
    nfas: Vec<(Nfa, Nfa)>,
    /// The memoised non-empty rows: forward, then backward.
    rows: [RowMemo; 2],
    scratch: ReachScratch,
    /// The sweep's output buffer.
    buf: Vec<u32>,
    /// The one empty row every empty sweep returns.
    empty: Arc<[u32]>,
    /// Graph edges scanned by every sweep so far.
    scans: usize,
}

impl SweptRows {
    fn new() -> Self {
        SweptRows {
            nfas: Vec::new(),
            rows: Default::default(),
            scratch: ReachScratch::new(),
            buf: Vec::new(),
            empty: Arc::from([]),
            scans: 0,
        }
    }

    /// Adds the relation of `nfa`; returns its index.
    fn push(&mut self, nfa: &Nfa) -> usize {
        self.nfas.push((nfa.clone(), nfa.reverse()));
        self.nfas.len() - 1
    }

    /// The row of relation `rel` from `node`: the nodes it reaches, or
    /// with `back` the nodes reaching it. Sorted, strictly ascending.
    fn row<G: GraphView>(&mut self, g: &G, rel: usize, back: bool, node: NodeId) -> Arc<[u32]> {
        let key = (rel as u32, node.0);
        if let Some(row) = self.rows[usize::from(back)].get(&key) {
            return Arc::clone(row);
        }
        let (nfa, rev) = &self.nfas[rel];
        let (scratch, buf) = (&mut self.scratch, &mut self.buf);
        self.scans += if back {
            rpq::rpq_reach_collect_back(g, rev, node, scratch, buf)
        } else {
            rpq::rpq_reach_collect(g, nfa, node, scratch, buf)
        };
        if buf.is_empty() {
            return Arc::clone(&self.empty);
        }
        let row: Arc<[u32]> = Arc::from(&buf[..]);
        self.rows[usize::from(back)].insert(key, Arc::clone(&row));
        row
    }

    /// The memoised row of relation `rel` from `node`, if swept and
    /// non-empty.
    fn known(&self, rel: usize, back: bool, node: NodeId) -> Option<&[u32]> {
        self.rows[usize::from(back)]
            .get(&(rel as u32, node.0))
            .map(|row| &row[..])
    }
}

/// The witness phase's work budget, in units of one leapfrog candidate or
/// one scanned edge: `1/WITNESS_SHARE` of `|V| + |E|`, plus
/// `WITNESS_FLOOR` so that a small graph is searched whole. A miss then
/// costs a fixed fraction of one sweep over the graph, which is what
/// materialising even one relation costs at least.
const WITNESS_SHARE: usize = 16;

/// See [`WITNESS_SHARE`].
const WITNESS_FLOOR: usize = 4096;

/// Where the witness phase reads one relation.
#[derive(Clone, Copy)]
enum WitnessRel {
    /// The catalog holds it, in this slot.
    Cached(usize),
    /// Its rows are swept on demand: this relation of [`SweptRows`].
    Swept(usize),
}

/// The witness phase's [`RowSource`]: catalog rows for the relations the
/// catalog holds, rows swept on demand for the rest, and the phase's work
/// budget. Its relations are deduplicated by canonical key, like the
/// catalog's, so atoms sharing a language share their swept rows.
pub(crate) struct WitnessRows<'a, G: GraphView> {
    g: &'a G,
    catalog: &'a RelationCatalog,
    /// The relations the witness plans name, by index.
    rels: Vec<WitnessRel>,
    /// The index of each relation's canonical key in `rels`.
    keys: FxHashMap<NfaKey, usize>,
    swept: SweptRows,
    /// Leapfrog candidates charged so far.
    candidates: usize,
    /// The budget of candidates plus scanned edges.
    budget: usize,
}

impl<'a, G: GraphView> WitnessRows<'a, G> {
    fn new(g: &'a G, catalog: &'a RelationCatalog) -> Self {
        WitnessRows {
            g,
            catalog,
            rels: Vec::new(),
            keys: FxHashMap::default(),
            swept: SweptRows::new(),
            candidates: 0,
            budget: (g.num_nodes() + g.num_edges()) / WITNESS_SHARE + WITNESS_FLOOR,
        }
    }

    /// The index of the relation of `nfa`, added on first sight.
    fn resolve(&mut self, nfa: &Nfa) -> usize {
        let key = nfa.canonical_key();
        if let Some(&id) = self.keys.get(&key) {
            return id;
        }
        let rel = match self.catalog.cached_slot(nfa) {
            Some(slot) => WitnessRel::Cached(slot),
            None => WitnessRel::Swept(self.swept.push(nfa)),
        };
        self.rels.push(rel);
        self.keys.insert(key, self.rels.len() - 1);
        self.rels.len() - 1
    }

    /// The relation `id` if the catalog holds it.
    fn cached(&self, id: usize) -> Option<&'a Relation> {
        match self.rels[id] {
            WitnessRel::Cached(slot) => Some(self.catalog.relation(slot)),
            WitnessRel::Swept(_) => None,
        }
    }

    /// Whether the budget is spent.
    fn spent(&self) -> bool {
        self.candidates + self.swept.scans > self.budget
    }

    fn row(&mut self, id: usize, back: bool, node: NodeId) -> Row<'a> {
        match self.rels[id] {
            WitnessRel::Cached(slot) => {
                let rel = self.catalog.relation(slot);
                Row::Borrowed(if back {
                    rel.backward(node)
                } else {
                    rel.forward(node)
                })
            }
            WitnessRel::Swept(k) => Row::Swept(self.swept.row(self.g, k, back, node)),
        }
    }
}

impl<'a, 'r: 'a, G: GraphView> RowSource<'a> for WitnessRows<'r, G> {
    type Row = Row<'a>;

    fn forward(&mut self, id: usize, u: NodeId) -> Row<'a> {
        self.row(id, false, u)
    }

    fn backward(&mut self, id: usize, v: NodeId) -> Row<'a> {
        self.row(id, true, v)
    }

    fn charge(&mut self) -> bool {
        self.candidates += 1;
        !self.spent()
    }

    fn debug_holds(&self, id: usize, s: NodeId, d: NodeId) -> bool {
        match self.rels[id] {
            WitnessRel::Cached(slot) => self.catalog.relation(slot).contains(s, d),
            WitnessRel::Swept(k) => {
                let forward = self.swept.known(k, false, s);
                let backward = self.swept.known(k, true, d);
                forward.is_none_or(|row| row.binary_search(&d.0).is_ok())
                    && backward.is_none_or(|row| row.binary_search(&s.0).is_ok())
            }
        }
    }
}

/// How the witness phase of a request ended.
pub(crate) enum Witnessed {
    /// At its first verified answer.
    Answer(Vec<NodeId>),
    /// Its search was exhausted: the query has no answer.
    NoAnswer,
    /// It hit its budget, or did not run because every relation it would
    /// read is cached: the planned path answers.
    Fallback,
}

/// The witness phase of a request for `q` on `g` under `sem` (see the
/// module docs): one cursor over the unpruned plans of `q`'s ε-free
/// variants ([`JoinPlan::unpruned`]), reading the relations `catalog`
/// holds and sweeping the others' rows on demand, up to the first
/// verified answer, the end of the search or the budget. It changes
/// nothing in the catalog.
pub(crate) fn witness_phase<G: GraphView>(
    q: &Crpq,
    g: &G,
    sem: Semantics,
    catalog: &RelationCatalog,
) -> Witnessed {
    witness_search(q, sem, &mut WitnessRows::new(g, catalog))
}

/// The search of [`witness_phase`] on `rows`.
fn witness_search<G: GraphView>(
    q: &Crpq,
    sem: Semantics,
    rows: &mut WitnessRows<'_, G>,
) -> Witnessed {
    let variants = q.epsilon_free_union();
    let compiled: Vec<(Vec<CompiledAtom>, Vec<usize>)> = variants
        .iter()
        .map(|variant| {
            let atoms = compile_atoms(variant);
            let rel_ids = atoms.iter().map(|a| rows.resolve(&a.nfa)).collect();
            (atoms, rel_ids)
        })
        .collect();
    if !rows.rels.iter().any(|r| matches!(r, WitnessRel::Swept(_))) {
        return Witnessed::Fallback;
    }
    let plans: Vec<JoinPlan> = variants
        .iter()
        .zip(compiled)
        .map(|(variant, (atoms, rel_ids))| JoinPlan::unpruned(variant, atoms, rel_ids, rows))
        .collect();
    let g = rows.g;
    let mut cursor = Cursor::new(sem, &plans);
    match cursor.advance(g, rows, &plans, &mut Views::default()) {
        Some(row) => Witnessed::Answer(row.to_vec()),
        None if rows.spent() => Witnessed::Fallback,
        None => Witnessed::NoAnswer,
    }
}

// ---------------------------------------------------------------------------
// Membership engine (per-tuple backtracking)
// ---------------------------------------------------------------------------

/// Evaluation of a single ε-free variant.
pub(crate) struct VariantEval<'a, G: GraphView> {
    g: &'a G,
    q: &'a Crpq,
    atoms: Vec<CompiledAtom>,
    sem: Semantics,
    /// Each atom's relation rows (relation `i` is atom `i`'s), swept as
    /// the search asks for them.
    rows: SweptRows,
    scratch: VerifyScratch,
}

impl<'a, G: GraphView> VariantEval<'a, G> {
    /// The evaluator of one ε-free variant.
    pub(crate) fn build(variant: &'a Crpq, g: &'a G, sem: Semantics) -> Self {
        let atoms = compile_atoms(variant);
        let mut rows = SweptRows::new();
        for atom in &atoms {
            rows.push(&atom.nfa);
        }
        VariantEval {
            g,
            q: variant,
            atoms,
            sem,
            rows,
            scratch: VerifyScratch::new(),
        }
    }

    /// The evaluator behind [`eval_tuples_enumerate`]: every atom is
    /// verified by exhaustive simple-path search, never by the
    /// deletion-closed or single-edge shortcut, so the oracle stays
    /// independent of the language classifier it checks.
    fn exact(variant: &'a Crpq, g: &'a G, sem: Semantics) -> Self {
        let mut eval = Self::build(variant, g, sem);
        for atom in &mut eval.atoms {
            atom.deletion_closed = false;
            atom.single_edge = false;
        }
        eval
    }

    /// The assignment with the free variables pinned to `tuple`, or `None`
    /// when repeated free variables disagree or, under q-inj, two distinct
    /// pinned variables share a node (μ must be injective).
    fn pin(&self, tuple: &[NodeId]) -> Option<Vec<Option<NodeId>>> {
        let mut assignment: Vec<Option<NodeId>> = vec![None; self.q.num_vars];
        for (&v, &n) in self.q.free.iter().zip(tuple) {
            match assignment[v.index()] {
                Some(prev) if prev != n => return None,
                _ => assignment[v.index()] = Some(n),
            }
        }
        let pinned: Vec<NodeId> = assignment.iter().flatten().copied().collect();
        let clash = (0..pinned.len()).any(|i| pinned[i + 1..].contains(&pinned[i]));
        (self.sem != Semantics::QueryInjective || !clash).then_some(assignment)
    }

    /// The one pin-and-search entry: pins the free variables to `tuple`,
    /// backtracks over the rest with reachability pruning, and returns the
    /// first `Some` that `leaf` yields on a complete assignment whose every
    /// atom pair is standard-reachable.
    pub(crate) fn find<T>(
        &mut self,
        tuple: &[NodeId],
        mut leaf: impl FnMut(&mut Self, &[NodeId]) -> Option<T>,
    ) -> Option<T> {
        let mut assignment = self.pin(tuple)?;
        let mut found = None;
        let _ = self.search(&mut assignment, &mut |this, mu| {
            // Pruning enforced reachability for pairs bound through
            // `candidates`; tuple-pinned pairs never pass through there
            // (cheap thanks to the cache).
            let reachable = (0..this.atoms.len()).all(|i| {
                let (s, d) = (mu[this.atoms[i].src.index()], mu[this.atoms[i].dst.index()]);
                this.rows
                    .row(this.g, i, false, s)
                    .binary_search(&d.0)
                    .is_ok()
            });
            found = if reachable { leaf(this, mu) } else { None };
            if found.is_some() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        found
    }

    fn contains(&mut self, tuple: &[NodeId]) -> bool {
        self.find(tuple, |this, mu| this.verify(mu).then_some(()))
            .is_some()
    }

    /// Like `contains`, but returns the witnessing assignment and one node
    /// path per atom instead of a bare boolean.
    pub(crate) fn contains_witness(
        &mut self,
        tuple: &[NodeId],
    ) -> Option<(Vec<NodeId>, Vec<Vec<NodeId>>)> {
        self.find(tuple, |this, mu| {
            this.verify_paths(mu).map(|p| (mu.to_vec(), p))
        })
    }

    /// The compiled atoms, for leaves of [`Self::find`].
    pub(crate) fn atoms(&self) -> &[CompiledAtom] {
        &self.atoms
    }

    /// Backtracks over variable assignments, invoking `visit` on complete
    /// assignments that pass the reachability pruning.
    fn search(
        &mut self,
        assignment: &mut Vec<Option<NodeId>>,
        visit: &mut dyn FnMut(&mut Self, &[NodeId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Choose the unassigned var with the fewest candidates.
        let mut best: Option<(Var, Vec<NodeId>)> = None;
        for v in 0..assignment.len() {
            if assignment[v].is_some() {
                continue;
            }
            let cands = self.candidates(Var(v as u32), assignment);
            if cands.is_empty() {
                return ControlFlow::Continue(());
            }
            let better = best.as_ref().is_none_or(|(_, c)| cands.len() < c.len());
            if better {
                let single = cands.len() == 1;
                best = Some((Var(v as u32), cands));
                if single {
                    break;
                }
            }
        }
        let Some((var, cands)) = best else {
            let full: Vec<NodeId> = assignment.iter().map(|a| a.unwrap()).collect(); // invariant: every variable is bound at a leaf
            return visit(self, &full);
        };
        for node in cands {
            assignment[var.index()] = Some(node);
            self.search(assignment, visit)?;
            assignment[var.index()] = None;
        }
        ControlFlow::Continue(())
    }

    /// The candidates of `var`: the intersection of the sorted rows of
    /// every atom whose other endpoint is bound (every node when there is
    /// none), kept only where each self-loop atom of `var` holds and,
    /// under q-inj, where no other variable holds the node.
    fn candidates(&mut self, var: Var, assignment: &[Option<NodeId>]) -> Vec<NodeId> {
        let g = self.g;
        let mut rows: Vec<Arc<[u32]>> = Vec::new();
        for (i, atom) in self.atoms.iter().enumerate() {
            if atom.src == var && atom.dst == var {
                continue; // self-loop atoms handled per candidate below
            }
            if atom.src == var {
                if let Some(dst_node) = assignment[atom.dst.index()] {
                    rows.push(self.rows.row(g, i, true, dst_node));
                }
            }
            if atom.dst == var {
                if let Some(src_node) = assignment[atom.src.index()] {
                    rows.push(self.rows.row(g, i, false, src_node));
                }
            }
        }

        // The shortest row leads; every other row is probed per id.
        let lead = (0..rows.len()).min_by_key(|&r| rows[r].len());
        let mut cands: Vec<NodeId> = match lead {
            Some(lead) => rows[lead]
                .iter()
                .filter(|v| rows.iter().all(|row| row.binary_search(v).is_ok()))
                .map(|&v| NodeId(v))
                .collect(),
            None => (0..g.num_nodes()).map(|v| NodeId(v as u32)).collect(),
        };

        // Self-loop atoms: reachability from the node back to itself.
        for (i, atom) in self.atoms.iter().enumerate() {
            if atom.src == var && atom.dst == var {
                let rows = &mut self.rows;
                cands.retain(|&n| rows.row(g, i, false, n).binary_search(&n.0).is_ok());
            }
        }

        // Injectivity of μ under q-inj.
        if self.sem == Semantics::QueryInjective {
            cands.retain(|n| !assignment.iter().flatten().any(|used| used == n));
        }
        cands
    }

    /// Verifies a complete, standard-reachable assignment (the leaf
    /// precondition of [`Self::find`], and that of [`atom_injective`])
    /// according to the semantics.
    fn verify(&mut self, mu: &[NodeId]) -> bool {
        match self.sem {
            Semantics::Standard => true,
            Semantics::AtomInjective => (0..self.atoms.len()).all(|i| {
                let (s, d) = (mu[self.atoms[i].src.index()], mu[self.atoms[i].dst.index()]);
                atom_injective(self.g, &self.atoms, i, s, d, &mut self.scratch)
            }),
            Semantics::QueryInjective => {
                verify_query_injective(self.g, &self.atoms, mu, &mut self.scratch)
            }
        }
    }

    /// Like `verify`, but returns one witnessing node path per atom.
    fn verify_paths(&mut self, mu: &[NodeId]) -> Option<Vec<Vec<NodeId>>> {
        match self.sem {
            Semantics::Standard => (0..self.atoms.len())
                .map(|i| {
                    let atom = &self.atoms[i];
                    let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
                    rpq::shortest_path(self.g, &atom.nfa, s, d)
                })
                .collect(),
            Semantics::AtomInjective => {
                let (used, depths) = self.scratch.search_sets(self.g.num_nodes(), 1);
                self.atoms
                    .iter()
                    .map(|atom| {
                        let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
                        let mut cap: Option<Vec<NodeId>> = None;
                        atom.for_each_path(self.g, s, d, used, &mut depths[0], |p, _| {
                            cap = Some(p.to_vec());
                            ControlFlow::Break(())
                        });
                        cap
                    })
                    .collect()
            }
            // On success the placement leaves one path per atom in
            // `scratch.paths`.
            Semantics::QueryInjective => {
                verify_query_injective(self.g, &self.atoms, mu, &mut self.scratch)
                    .then(|| self.scratch.paths.clone())
            }
        }
    }
}

/// Reusable buffers for the injective verification path, owned by a join
/// cursor or a membership evaluator for its whole life.
///
/// Verification allocates nothing per join solution: the one visited set
/// of every simple-path search and, per placement depth, the search's
/// buffers ([`SimplePathScratch`]: path, per-depth state images) live here
/// and are reused across solutions, across variants and across resumes.
/// Depth `k` serves the `k`-th searching atom of a q-inj placement, whose
/// search runs nested inside the searches of the atoms before it, on the
/// same visited set; the a-inj checks and the witness leaf search one atom
/// at a time on depth 0. Every buffer is sized on first use, so a cursor
/// that never searches (`st`, or an injective query of free atoms)
/// allocates no `|V|`-bit set.
pub(crate) struct VerifyScratch {
    /// The visited set of every search, empty between searches. A q-inj
    /// placement seeds it with the μ-images and removes them again; each
    /// atom's search adds its path while it runs, so the next atom's
    /// search, nested inside it, keeps off every earlier path.
    used: BitSet,
    /// The simple-path search buffers of each placement depth.
    depths: Vec<SimplePathScratch>,
    /// One path buffer per atom, rewritten by every q-inj placement; the
    /// witness leaf clones it.
    paths: Vec<Vec<NodeId>>,
    /// Memo of the search arms of [`atom_injective`]: `(atom index, src
    /// node, dst node) → simple-path/-cycle existence`. Keyed by atom
    /// *index*, so entries are only valid for one variant —
    /// [`Self::begin_plan`] clears it (a [`VariantEval`] owns its
    /// scratch).
    atom_memo: FxHashMap<(u32, u32, u32), bool>,
}

impl VerifyScratch {
    pub(crate) fn new() -> Self {
        VerifyScratch {
            used: BitSet::new(0),
            depths: Vec::new(),
            paths: Vec::new(),
            atom_memo: FxHashMap::default(),
        }
    }

    /// Plan boundary: invalidates the per-plan atom memo. Called by the
    /// join cursor when it enters a variant; the memo stays valid across
    /// the variant's subtrees and across resumes.
    pub(crate) fn begin_plan(&mut self) {
        self.atom_memo.clear();
    }

    /// The visited set, sized for a graph of `nodes` nodes, and the search
    /// buffers of the first `depth` placement depths.
    fn search_sets(
        &mut self,
        nodes: usize,
        depth: usize,
    ) -> (&mut BitSet, &mut [SimplePathScratch]) {
        if self.used.capacity() != nodes {
            // Empty between searches, so resizing loses nothing.
            self.used.reset(nodes);
        }
        if self.depths.len() < depth {
            self.depths.resize_with(depth, SimplePathScratch::default);
        }
        (&mut self.used, &mut self.depths[..depth])
    }
}

impl Default for VerifyScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The one atom-injective check of atom `i` on `(s, d)`, shared by both
/// engines (branch order is semantics-critical): a simple path, or a
/// simple cycle for `x -L-> x` atoms. The caller must already know the
/// pair to be standard-reachable — from the relations in the join, from
/// the reachability cache in the membership engine — which is what makes
/// the free arms exact. Only the search arms are memoised, keyed by atom
/// index in `scratch.atom_memo`.
fn atom_injective<G: GraphView>(
    g: &G,
    atoms: &[CompiledAtom],
    i: usize,
    s: NodeId,
    d: NodeId,
    scratch: &mut VerifyScratch,
) -> bool {
    let atom = &atoms[i];
    if atom.src != atom.dst {
        if s == d {
            // A simple path from a node to itself is the empty path; atoms
            // are ε-free, so this is unsatisfiable.
            return false;
        }
        if atom.deletion_closed {
            // Loop-pruning lemma: for deletion-closed languages a walk
            // witness prunes to a simple path still in the language, so
            // standard reachability is exact.
            return true;
        }
    }
    if atom.single_edge {
        // A one-letter path is a simple path between distinct endpoints
        // (checked above) and a simple cycle at `s == d`; reachability
        // already guarantees the edge.
        return true;
    }
    let key = (i as u32, s.0, d.0);
    if let Some(&ok) = scratch.atom_memo.get(&key) {
        return ok;
    }
    let (used, depths) = scratch.search_sets(g.num_nodes(), 1);
    // The search breaks at the first path, so it ran to completion iff
    // there is none.
    let ok = !atom.for_each_path(g, s, d, used, &mut depths[0], |_, _| ControlFlow::Break(()));
    scratch.atom_memo.insert(key, ok);
    ok
}

/// Shared query-injective verification backing both engines: jointly place
/// internally disjoint simple paths for all atoms, with every μ-image
/// blocked as a path internal. All working sets come from `scratch`; when
/// every atom is single-edge nothing is searched, so the `|V|`-bit
/// visited set is not touched. Otherwise it is seeded with the μ-images
/// and emptied again by removing them, never by a `|V|`-bit clear.
fn verify_query_injective<G: GraphView>(
    g: &G,
    atoms: &[CompiledAtom],
    mu: &[NodeId],
    scratch: &mut VerifyScratch,
) -> bool {
    let mut paths = std::mem::take(&mut scratch.paths);
    paths.resize_with(atoms.len(), Vec::new);
    let searching = atoms.iter().filter(|a| !a.single_edge).count();
    let ok = if searching == 0 {
        place_atoms(g, atoms, mu, &mut scratch.used, &mut [], &mut paths)
    } else {
        let (used, depths) = scratch.search_sets(g.num_nodes(), searching);
        for &n in mu {
            used.insert(n.index());
        }
        let ok = place_atoms(g, atoms, mu, used, depths, &mut paths);
        // Every search restores `used`, so only the μ-images are left.
        for &n in mu {
            used.remove(n.index());
        }
        ok
    };
    scratch.paths = paths;
    ok
}

/// Places the atoms' paths one by one so that no internal node is reused
/// (query-injective joint search): each atom's search runs inside the
/// previous atom's `visit`, on the one visited set `used`, which then
/// holds the μ-images and every earlier atom's path. On success `paths[j]`
/// holds the chosen node path of atom `j`; `paths` has one entry per atom.
/// Single-edge atoms have no internal node, so their path is `[s, d]`
/// without a search. Unless every atom is single-edge, callers must have
/// sized `used`, seeded it with the μ-images and passed one search buffer
/// per searching atom in `depths`.
fn place_atoms<G: GraphView>(
    g: &G,
    atoms: &[CompiledAtom],
    mu: &[NodeId],
    used: &mut BitSet,
    depths: &mut [SimplePathScratch],
    paths: &mut [Vec<NodeId>],
) -> bool {
    let ([atom, atoms @ ..], [path, paths @ ..]) = (atoms, paths) else {
        return true;
    };
    let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
    debug_assert!(atom.src == atom.dst || s != d, "q-inj μ must be injective");
    if atom.single_edge {
        // Standard reachability (the caller's precondition) guarantees the
        // edge, and μ is injective, so `[s, d]` blocks nothing.
        path.clear();
        path.extend([s, d]);
        return place_atoms(g, atoms, mu, used, depths, paths);
    }
    // invariant: the caller passes one search buffer per searching atom.
    let (search, depths) = depths.split_first_mut().expect("a buffer per search");
    let mut placed = false;
    let complete = atom.for_each_path(g, s, d, used, search, |p, used| {
        path.clear();
        path.extend_from_slice(p);
        placed = place_atoms(g, atoms, mu, used, depths, paths);
        if placed {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    debug_assert!(complete || placed);
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_graph::{GraphBuilder, GraphDb};
    use crpq_query::parse_crpq;

    /// Builds a graph and keeps the shared alphabet for queries.
    fn graph(edges: &[(&str, &str, &str)]) -> GraphDb {
        let mut b = GraphBuilder::new();
        for &(u, l, v) in edges {
            b.edge(u, l, v);
        }
        b.finish()
    }

    fn q(text: &str, g: &mut GraphDb) -> Crpq {
        parse_crpq(text, g.alphabet_mut()).unwrap()
    }

    fn node(g: &GraphDb, n: &str) -> NodeId {
        g.node_by_name(n).unwrap()
    }

    #[test]
    fn huge_thread_counts_are_clamped() {
        // 100 000 OS threads would exhaust the process's memory mappings;
        // the count resolves to at most `rpq::MAX_THREADS`.
        assert_eq!(rpq::effective_threads(100_000), rpq::MAX_THREADS);
        let mut g = crpq_graph::generators::random_graph(30, 90, &["a"], 3);
        let query = q("(x, y) <- x -[a a]-> y", &mut g);
        let one = Eval::new(&query, &g).tuples();
        assert!(!one.is_empty());
        assert_eq!(Eval::new(&query, &g).threads(100_000).tuples(), one);
    }

    /// Figure 2 reconstruction (G): u -a-> v -b-> w, w -c-> v -c-> u.
    /// Satisfies Example 2.1's claims: (u,w) ∈ a-inj \ q-inj, st = a-inj.
    fn example21_g() -> GraphDb {
        graph(&[
            ("u", "a", "v"),
            ("v", "b", "w"),
            ("w", "c", "v"),
            ("v", "c", "u"),
        ])
    }

    /// Figure 2 reconstruction (G′): abab-walk from u to v repeats u;
    /// (u,v) ∈ st \ a-inj.
    fn example21_gprime() -> GraphDb {
        graph(&[
            ("u", "a", "w"),
            ("w", "b", "t"),
            ("t", "a", "u"),
            ("u", "b", "v"),
            ("v", "c", "u"),
        ])
    }

    #[test]
    fn catalog_sums_materialise_stats() {
        // `a*` around a 200-cycle sweeps the whole cycle from every
        // source, and single `a` steps one edge; both sweep every node.
        let mut g = crpq_graph::generators::labelled_cycle(200, &["a"]);
        let star = Nfa::from_regex(&crpq_automata::parse_regex("a*", g.alphabet_mut()).unwrap());
        let step = Nfa::from_regex(&crpq_automata::parse_regex("a", g.alphabet_mut()).unwrap());
        let mut catalog = RelationCatalog::with_threads(&g, 2);
        catalog.get_or_materialize(&g, &star);
        catalog.get_or_materialize(&g, &step);
        catalog.get_or_materialize(&g, &step);
        let totals = catalog.materialise_totals();
        assert_eq!(totals.sources_swept, 2 * 200);
        assert!(totals.sweep_ms + totals.assembly_ms <= catalog.materialise_ms());
        // The peak is the larger of the two assemblies' transients, not
        // their sum.
        let bytes = |nfa: &Nfa| {
            let scratch = &mut ReachScratch::new();
            rpq::rpq_relation(&g, nfa, scratch, 2).1.assembly_bytes
        };
        let (star_bytes, step_bytes) = (bytes(&star), bytes(&step));
        assert!(star_bytes > 0 && step_bytes > 0);
        assert_eq!(totals.peak_assembly_bytes, star_bytes.max(step_bytes));
    }

    #[test]
    fn example_2_1_graph_g() {
        let mut g = example21_g();
        let query = q("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut g);
        let (u, w) = (node(&g, "u"), node(&g, "w"));
        // (u, w) ∈ a-inj but ∉ q-inj:
        assert!(Eval::new(&query, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, w]));
        assert!(!Eval::new(&query, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[u, w]));
        // st = a-inj on G:
        let st = Eval::new(&query, &g).tuples();
        let ainj = Eval::new(&query, &g)
            .semantics(Semantics::AtomInjective)
            .tuples();
        assert_eq!(st, ainj);
    }

    #[test]
    fn example_2_1_graph_gprime() {
        let mut g = example21_gprime();
        let query = q("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut g);
        let (u, v) = (node(&g, "u"), node(&g, "v"));
        // (u, v) ∈ st (walk u a w b t a u b v + c edge back) but ∉ a-inj
        // (every (ab)^k path u→v repeats u).
        assert!(Eval::new(&query, &g).contains(&[u, v]));
        assert!(!Eval::new(&query, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, v]));
    }

    #[test]
    fn diagonal_pairs_from_epsilon() {
        // Both languages contain ε, so (n, n) holds for every node under all
        // semantics via the collapsed variant.
        let mut g = example21_g();
        let query = q("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut g);
        for n in g.nodes() {
            for sem in Semantics::ALL {
                assert!(
                    Eval::new(&query, &g).semantics(sem).contains(&[n, n]),
                    "({n:?},{n:?}) under {sem}"
                );
            }
        }
    }

    #[test]
    fn intro_example_atom_injective() {
        // §1: Q = ∃x,y,z x -(a+b)+-> y ∧ x -(b+c)+-> z holds on a b-path
        // under a-inj (overlapping paths allowed).
        let mut g = graph(&[("n0", "b", "n1"), ("n1", "b", "n2")]);
        let query = q("x -[(a+b)(a+b)*]-> y, x -[(b+c)(b+c)*]-> z", &mut g);
        assert!(Eval::new(&query, &g).contains(&[]));
        assert!(Eval::new(&query, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[]));
        // Under q-inj the two paths must be internally disjoint; on a single
        // b-path they can still be chosen as prefixes of different length
        // (e.g. y=n1, z=n2: paths n0→n1 and n0→n1→n2 share internal? path1
        // has no internal, path2 has internal n1 = image of y → blocked).
        // y=n1 (path n0-b->n1), z=n2 needs n0→n2 with internal n1 which is
        // μ(y): forbidden. Swapping roles is symmetric; y=z impossible
        // (injective). Hence q-inj fails.
        assert!(!Eval::new(&query, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[]));
    }

    #[test]
    fn query_injective_on_disjoint_branches() {
        // Two node-disjoint b/c branches from the root: q-inj succeeds.
        let mut g = graph(&[("r", "b", "p1"), ("p1", "b", "p2"), ("r", "c", "q1")]);
        let query = q("x -[(a+b)(a+b)*]-> y, x -[(b+c)(b+c)*]-> z", &mut g);
        assert!(Eval::new(&query, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[]));
    }

    #[test]
    fn self_loop_atom_semantics() {
        // x -[a a]-> x requires a simple 2-cycle under injective semantics;
        // a self-loop a-edge only yields the 1-cycle "a".
        let mut g = graph(&[("u", "a", "v"), ("v", "a", "u")]);
        let query = q("x -[a a]-> x", &mut g);
        for sem in Semantics::ALL {
            assert!(
                Eval::new(&query, &g).semantics(sem).contains(&[]),
                "2-cycle exists under {sem}"
            );
        }
        let mut g2 = graph(&[("u", "a", "u")]);
        let query2 = q("x -[a a]-> x", &mut g2);
        assert!(Eval::new(&query2, &g2).contains(&[]), "loop twice");
        assert!(
            !Eval::new(&query2, &g2)
                .semantics(Semantics::AtomInjective)
                .contains(&[]),
            "aa is not a simple cycle on a self-loop"
        );
        assert!(!Eval::new(&query2, &g2)
            .semantics(Semantics::QueryInjective)
            .contains(&[]));
    }

    #[test]
    fn distinct_vars_same_node_standard_only() {
        // Q(x,y) = x -a-> y with tuple (u, u): needs a-loop at u.
        let mut g = graph(&[("u", "a", "u"), ("u", "a", "v")]);
        let query = q("(x, y) <- x -[a]-> y", &mut g);
        let u = node(&g, "u");
        assert!(Eval::new(&query, &g).contains(&[u, u]));
        // a-inj: path from u to u must be simple, i.e. empty — but `a` is not ε.
        assert!(!Eval::new(&query, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, u]));
        // q-inj additionally needs μ injective: x≠y map to same node — no.
        assert!(!Eval::new(&query, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[u, u]));
    }

    #[test]
    fn tuple_enumeration_matches_membership() {
        let mut g = example21_g();
        let query = q("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut g);
        for sem in Semantics::ALL {
            let tuples = Eval::new(&query, &g).semantics(sem).tuples();
            for n1 in g.nodes() {
                for n2 in g.nodes() {
                    let member = Eval::new(&query, &g).semantics(sem).contains(&[n1, n2]);
                    assert_eq!(
                        tuples.contains(&vec![n1, n2]),
                        member,
                        "{n1:?},{n2:?} {sem}"
                    );
                }
            }
        }
    }

    #[test]
    fn join_and_enumeration_agree_on_examples() {
        for mut g in [example21_g(), example21_gprime()] {
            let query = q("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut g);
            for sem in Semantics::ALL {
                assert_eq!(
                    Eval::new(&query, &g).semantics(sem).tuples(),
                    eval_tuples_enumerate(&query, &g, sem),
                    "join vs oracle under {sem}"
                );
            }
        }
    }

    #[test]
    fn join_handles_existential_variables() {
        // Free y only; x, z existential: projection + dedup across
        // existential witnesses.
        let mut g = graph(&[
            ("a0", "a", "m"),
            ("a1", "a", "m"),
            ("m", "b", "t0"),
            ("m", "b", "t1"),
        ]);
        let query = q("(y) <- x -[a]-> y, y -[b]-> z", &mut g);
        for sem in Semantics::ALL {
            let join = Eval::new(&query, &g).semantics(sem).tuples();
            let oracle = eval_tuples_enumerate(&query, &g, sem);
            assert_eq!(join, oracle, "under {sem}");
            assert_eq!(join, vec![vec![node(&g, "m")]], "under {sem}");
        }
    }

    #[test]
    fn join_repeated_free_variable() {
        // Collapsed variants produce repeated free vars; also test a query
        // whose free tuple repeats a variable directly.
        let mut g = graph(&[("u", "a", "u"), ("u", "a", "v")]);
        let query = q("(x, x) <- x -[a]-> y", &mut g);
        for sem in Semantics::ALL {
            assert_eq!(
                Eval::new(&query, &g).semantics(sem).tuples(),
                eval_tuples_enumerate(&query, &g, sem),
                "under {sem}"
            );
        }
    }

    #[test]
    fn boolean_query_with_no_atoms() {
        let mut g = graph(&[("u", "a", "v")]);
        let query = q("(x) <- true", &mut g);
        let tuples = Eval::new(&query, &g)
            .semantics(Semantics::QueryInjective)
            .tuples();
        assert_eq!(tuples.len(), g.num_nodes());
    }

    #[test]
    fn empty_graph_rejects_atoms() {
        let mut b = GraphBuilder::new();
        b.node("only");
        let mut g = b.finish();
        let query = q("x -[a]-> y", &mut g);
        for sem in Semantics::ALL {
            assert!(!Eval::new(&query, &g).semantics(sem).contains(&[]));
            assert!(Eval::new(&query, &g).semantics(sem).tuples().is_empty());
        }
    }

    #[test]
    fn classified_engine_agrees_with_exact_oracle() {
        // a* and (a b)* atoms: the first is deletion-closed (free check),
        // the second is not; results must coincide with the oracle, which
        // searches simple paths for every atom.
        let mut g = example21_g();
        let query = q("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut g);
        for sem in Semantics::ALL {
            assert_eq!(
                Eval::new(&query, &g).semantics(sem).tuples(),
                eval_tuples_enumerate(&query, &g, sem),
                "classified engine must agree with the oracle under {sem}"
            );
        }
    }

    #[test]
    fn fast_path_is_exact_on_parity_trap() {
        // Walk witnesses exist for a* even where simple-path search must
        // prune: a graph with a long detour through a revisited hub.
        let mut g = graph(&[
            ("s", "a", "h"),
            ("h", "a", "m"),
            ("m", "a", "h"),
            ("h", "a", "t"),
        ]);
        let (s, t) = (node(&g, "s"), node(&g, "t"));
        // a a* is deletion-closed (free check); (a a)* is not, and the
        // parity matters for which pairs have a simple witness.
        for text in ["(x, y) <- x -[a a*]-> y", "(x, y) <- x -[(a a)*]-> y"] {
            let query = q(text, &mut g);
            let exact = eval_tuples_enumerate(&query, &g, Semantics::AtomInjective);
            assert_eq!(
                Eval::new(&query, &g)
                    .semantics(Semantics::AtomInjective)
                    .tuples(),
                exact,
                "{text}"
            );
            assert_eq!(
                Eval::new(&query, &g)
                    .semantics(Semantics::AtomInjective)
                    .contains(&[s, t]),
                exact.contains(&vec![s, t]),
                "{text}"
            );
        }
    }

    /// Runs the a-inj join search over every ε-free variant of `query`,
    /// returning the tuples and the number of simple-path/-cycle searches
    /// left in the per-plan memos.
    fn ainj_join_with_memo(query: &Crpq, g: &GraphDb) -> (Vec<Vec<NodeId>>, usize) {
        let mut catalog = RelationCatalog::new(g);
        let (mut out, mut searches) = (BTreeSet::new(), 0);
        for variant in &query.epsilon_free_union() {
            let plans = [JoinPlan::build(variant, g, &mut catalog)];
            let mut cursor = Cursor::new(Semantics::AtomInjective, &plans);
            let mut views = Views::default();
            while let Some(tuple) = cursor.advance(g, &mut &catalog, &plans, &mut views) {
                out.insert(tuple.to_vec());
            }
            searches += cursor.scratch.atom_memo.len();
        }
        (out.into_iter().collect(), searches)
    }

    /// A cursor sizes its verification buffers on first use: an st drain
    /// allocates no `|V|`-bit set, while an a-inj drain over an atom that
    /// needs the simple-path search does.
    #[test]
    fn st_cursor_allocates_no_verification_sets() {
        let mut g = example21_g();
        let query = q("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut g);
        let mut catalog = RelationCatalog::new(&g);
        let plans = catalog.plans(&query, &g);
        let drain = |sem| {
            let mut cursor = Cursor::new(sem, &plans);
            let mut views = Views::default();
            let mut tuples = 0;
            while cursor
                .advance(&g, &mut &catalog, &plans, &mut views)
                .is_some()
            {
                tuples += 1;
            }
            (cursor.scratch, tuples)
        };
        let (st, tuples) = drain(Semantics::Standard);
        assert!(tuples > 0);
        assert_eq!(st.used.capacity(), 0);
        assert!(st.depths.is_empty(), "st runs no simple-path search");
        let (ainj, tuples) = drain(Semantics::AtomInjective);
        assert!(tuples > 0);
        assert_eq!(
            ainj.used.capacity(),
            g.num_nodes(),
            "a-inj searches on `used`"
        );
        assert!(ainj.used.is_empty(), "every search restores `used`");
        assert_eq!(ainj.depths.len(), 1, "a-inj searches, on depth 0 only");
        let (qinj, tuples) = drain(Semantics::QueryInjective);
        assert!(tuples > 0);
        assert!(qinj.used.is_empty(), "every placement restores `used`");
        assert_eq!(qinj.depths.len(), 2, "one depth per searching atom");
    }

    #[test]
    fn deletion_closed_atoms_never_search() {
        // a-chain n0 → n1 → n2 into a b-cycle n2 → n3 → n2 plus n3 → n4.
        let mut g = graph(&[
            ("n0", "a", "n1"),
            ("n1", "a", "n2"),
            ("n2", "b", "n3"),
            ("n3", "b", "n2"),
            ("n3", "b", "n4"),
        ]);
        let closed = q("(x, z) <- x -[a]-> y, y -[b b*]-> z", &mut g);
        let (tuples, searches) = ainj_join_with_memo(&closed, &g);
        assert_eq!(
            tuples,
            eval_tuples_enumerate(&closed, &g, Semantics::AtomInjective)
        );
        assert!(!tuples.is_empty());
        assert_eq!(searches, 0, "deletion-closed atoms must not run a search");

        // (a a)* is not deletion-closed: its pairs need a simple-path search.
        let parity = q("(x, z) <- x -[(a a)*]-> y, y -[b b*]-> z", &mut g);
        let (tuples, searches) = ainj_join_with_memo(&parity, &g);
        assert_eq!(
            tuples,
            eval_tuples_enumerate(&parity, &g, Semantics::AtomInjective)
        );
        assert!(searches > 0, "(a a)* pairs must be searched");
    }

    #[test]
    fn elimination_order_reads_the_pruned_domain_sizes() {
        // An a-chain over 256 nodes, three b-edges and c self-loops on the
        // first 100 nodes. The semi-join fixpoint cuts x from 255 nodes
        // (dense) to 2 and z from 3 to 2, and s to the 98 nodes two
        // a-steps before a looped t: dense and sparse domains at once,
        // each reached by a rebuild in the fixpoint.
        let names: Vec<String> = (0..256).map(|i| format!("n{i}")).collect();
        let mut edges: Vec<(&str, &str, &str)> = (0..255)
            .map(|i| (names[i].as_str(), "a", names[i + 1].as_str()))
            .collect();
        for (u, v) in [(0, 5), (7, 9), (200, 201)] {
            edges.push((names[u].as_str(), "b", names[v].as_str()));
        }
        for name in &names[..100] {
            edges.push((name.as_str(), "c", name.as_str()));
        }
        let mut g = graph(&edges);
        let query = q(
            "(x, z) <- x -[a]-> y, y -[b]-> z, s -[a a]-> t, t -[c]-> t",
            &mut g,
        );
        let variants = query.epsilon_free_union();
        let mut catalog = RelationCatalog::new(&g);
        let plan = JoinPlan::build(&variants[0], &g, &mut catalog);
        let sizes: Vec<usize> = plan.domains.iter().map(|d| d.row().len()).collect();
        let order = crate::wcoj::elimination_order(&plan.atoms, &sizes);
        assert_eq!(plan.order, order);
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [2, 2, 2, 98, 98]);
        assert!(plan.domains.iter().any(|d| d.row().is_dense()));
        assert!(plan.domains.iter().any(|d| !d.row().is_dense()));
    }

    #[test]
    fn join_matches_oracle_on_cyclic_and_acyclic_shapes() {
        let mut g = graph(&[
            ("u", "a", "v"),
            ("v", "b", "w"),
            ("w", "c", "u"),
            ("v", "a", "w"),
            ("w", "b", "u"),
            ("u", "c", "v"),
        ]);
        for text in [
            "(x, y, z) <- x -[a]-> y, y -[b]-> z, z -[c]-> x",
            "(x, y) <- x -[a]-> y, y -[b]-> z",
            "(x) <- x -[(a b)*]-> y, y -[c*]-> x",
        ] {
            let query = q(text, &mut g);
            for sem in Semantics::ALL {
                let oracle = eval_tuples_enumerate(&query, &g, sem);
                for threads in [1, 3] {
                    assert_eq!(
                        Eval::new(&query, &g)
                            .semantics(sem)
                            .threads(threads)
                            .tuples(),
                        oracle,
                        "{text} under {sem}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn hierarchy_inclusion_on_examples() {
        for mut g in [example21_g(), example21_gprime()] {
            let query = q("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut g);
            let st = Eval::new(&query, &g).tuples();
            let ai = Eval::new(&query, &g)
                .semantics(Semantics::AtomInjective)
                .tuples();
            let qi = Eval::new(&query, &g)
                .semantics(Semantics::QueryInjective)
                .tuples();
            for t in &qi {
                assert!(ai.contains(t), "q-inj ⊆ a-inj violated at {t:?}");
            }
            for t in &ai {
                assert!(st.contains(t), "a-inj ⊆ st violated at {t:?}");
            }
        }
    }

    /// Compiles the `i`-th atom NFA of a single-variant query — the unit
    /// catalog lookups are keyed by.
    fn atom_nfa(query: &Crpq, i: usize) -> Nfa {
        compile_atoms(&query.epsilon_free_union()[0])[i].nfa.clone()
    }

    #[test]
    fn invalidate_label_evicts_only_footprint_matches() {
        let mut g = graph(&[("u", "a", "v"), ("v", "b", "w"), ("w", "c", "u")]);
        let query = q("(x, y) <- x -[a b*]-> y, y -[c]-> z", &mut g);
        let (ab, c) = (atom_nfa(&query, 0), atom_nfa(&query, 1));
        let mut catalog = RelationCatalog::new(&g);
        let ab_id = catalog.get_or_materialize(&g, &ab);
        let c_id = catalog.get_or_materialize(&g, &c);
        assert_eq!(catalog.cached_entries(), 2);

        // A `b`-mutation touches only the `a b*` atom's footprint.
        let b = g.alphabet().get("b").unwrap();
        assert_eq!(catalog.invalidate_label(b), 1);
        assert_eq!(catalog.evictions(), 1);
        assert_eq!(catalog.cached_entries(), 1);
        // The `c` entry survives as a hit; the evicted one re-materialises
        // into its recycled slot.
        let hits_before = catalog.hits();
        assert_eq!(catalog.get_or_materialize(&g, &c), c_id);
        assert_eq!(catalog.hits(), hits_before + 1);
        let misses_before = catalog.misses();
        assert_eq!(catalog.get_or_materialize(&g, &ab), ab_id);
        assert_eq!(catalog.misses(), misses_before + 1);

        // A label no footprint mentions evicts nothing.
        let d = g.alphabet_mut().intern("d");
        assert_eq!(catalog.invalidate_label(d), 0);
        assert_eq!(catalog.cached_entries(), 2);
    }

    #[test]
    fn invalidate_all_and_rebind_clear_everything() {
        let mut g = graph(&[("u", "a", "v"), ("v", "b", "w")]);
        let query = q("(x, z) <- x -[a]-> y, y -[b]-> z", &mut g);
        let (a, b) = (atom_nfa(&query, 0), atom_nfa(&query, 1));
        let mut catalog = RelationCatalog::new(&g);
        catalog.get_or_materialize(&g, &a);
        catalog.get_or_materialize(&g, &b);
        assert_eq!(catalog.invalidate_all(), 2);
        assert_eq!(catalog.cached_entries(), 0);
        assert_eq!(catalog.evictions(), 2);

        catalog.get_or_materialize(&g, &a);
        catalog.rebind(&g);
        assert_eq!(catalog.cached_entries(), 0);
        assert_eq!(catalog.evictions(), 3);
        // Rebinding re-anchors the fingerprint; lookups keep working.
        catalog.get_or_materialize(&g, &a);
        assert_eq!(catalog.cached_entries(), 1);
    }

    #[test]
    fn catalog_serves_delta_graph_across_mutations() {
        use crpq_graph::DeltaGraph;
        let base = graph(&[("u", "a", "v"), ("v", "b", "w"), ("u", "b", "w")]);
        let mut g = DeltaGraph::new(base);
        let mut alphabet = g.base().alphabet().clone();
        let query = parse_crpq("(x, y) <- x -[a b]-> y", &mut alphabet).unwrap();
        let nfa = atom_nfa(&query, 0);
        let (a, b) = (alphabet.get("a").unwrap(), alphabet.get("b").unwrap());

        let mut catalog = RelationCatalog::new(&g);
        let before = Eval::new(&query, &g).catalog(&mut catalog).tuples();
        assert_eq!(before.len(), 1, "u -a-> v -b-> w");

        // Mutate `b`: the cached `a b` relation must be evicted (its
        // footprint is {a, b}) and the post-mutation answers must match a
        // from-scratch evaluation.
        let (u, w) = (NodeId(0), NodeId(2));
        assert!(g.delete_edge(NodeId(1), b, w));
        assert!(g.insert_edge(w, a, u));
        assert_eq!(catalog.invalidate_label(b), 1);
        let after = Eval::new(&query, &g).catalog(&mut catalog).tuples();
        let fresh = Eval::new(&query, &g).tuples();
        assert_eq!(after, fresh, "catalog reuse must match rebuild");
        assert!(catalog.get_or_materialize(&g, &nfa) < catalog.len());
    }

    #[test]
    fn one_memo_entry_serves_every_semantics() {
        let mut g = example21_g();
        let query = q("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut g);
        let variants = query.epsilon_free_union().len();
        let mut catalog = RelationCatalog::new(&g);
        let first = Eval::new(&query, &g).catalog(&mut catalog).tuples();
        assert_eq!(catalog.cached_plans(), 1);
        let planned = Arc::as_ptr(&catalog.plans[&query]);
        assert_eq!(catalog.plans[&query].len(), variants);
        let lookups = catalog.hits() + catalog.misses();
        for sem in Semantics::ALL {
            let (hits, misses) = (catalog.hits(), catalog.misses());
            let warm = Eval::new(&query, &g)
                .semantics(sem)
                .catalog(&mut catalog)
                .tuples();
            assert_eq!(warm, Eval::new(&query, &g).semantics(sem).tuples(), "{sem}");
            // A memo hit counts one relation hit per lookup planning made.
            assert_eq!(catalog.hits(), hits + lookups, "{sem}");
            assert_eq!(catalog.misses(), misses, "{sem}");
        }
        assert_eq!(first, Eval::new(&query, &g).tuples());
        assert_eq!(catalog.cached_plans(), 1);
        assert_eq!(Arc::as_ptr(&catalog.plans[&query]), planned);
    }

    #[test]
    fn label_invalidation_drops_only_footprint_plans() {
        let mut g = graph(&[("u", "a", "v"), ("v", "b", "w"), ("w", "c", "u")]);
        let ab = q("(x, y) <- x -[a b]-> y", &mut g);
        let c = q("(x, y) <- x -[c]-> y", &mut g);
        let mut catalog = RelationCatalog::new(&g);
        Eval::new(&ab, &g).catalog(&mut catalog).tuples();
        Eval::new(&c, &g).catalog(&mut catalog).tuples();
        assert_eq!(catalog.cached_plans(), 2);
        // `c` is disjoint from the `a b` footprint: both plans stay.
        let d = g.alphabet_mut().intern("d");
        assert_eq!(catalog.invalidate_label(d), 0);
        assert_eq!(catalog.cached_plans(), 2);
        // `b` is in the `a b` footprint: its plans go, the `c` plans stay.
        let b = g.alphabet().get("b").unwrap();
        assert_eq!(catalog.invalidate_label(b), 1);
        assert_eq!(catalog.cached_plans(), 1);
        assert!(catalog.plans.contains_key(&c));
        let misses = catalog.misses();
        Eval::new(&c, &g).catalog(&mut catalog).ask();
        assert_eq!(catalog.misses(), misses);
        // A cold `ask` is answered by the witness phase, which caches
        // nothing; the full evaluation materialises and plans again.
        assert!(Eval::new(&ab, &g).catalog(&mut catalog).ask());
        assert_eq!((catalog.misses(), catalog.cached_plans()), (misses, 1));
        Eval::new(&ab, &g).catalog(&mut catalog).tuples();
        assert_eq!(catalog.misses(), misses + 1);
        assert_eq!(catalog.cached_plans(), 2);
    }

    /// The witness phase reads a cached relation from the catalog and
    /// sweeps the other atoms' rows; here the cached `b c*` atom gives the
    /// middle variable the smallest domain, so `y` is bound first and the
    /// `a` atom is read backward from it, by swept rows only.
    #[test]
    fn witness_phase_sweeps_backward_rows() {
        let mut g = graph(&[
            ("u", "a", "m"),
            ("v", "a", "m"),
            ("m", "b", "w"),
            ("w", "c", "t"),
        ]);
        let query = q("(x, z) <- x -[a]-> y, y -[b c*]-> z", &mut g);
        let warm = q("(y, z) <- y -[b c*]-> z", &mut g);
        let mut catalog = RelationCatalog::new(&g);
        Eval::new(&warm, &g).catalog(&mut catalog).tuples();
        let mut rows = WitnessRows::new(&g, &catalog);
        let Witnessed::Answer(row) = witness_search(&query, Semantics::Standard, &mut rows) else {
            panic!("the query has answers");
        };
        assert!(Eval::new(&query, &g).tuples().contains(&row), "{row:?}");
        let [forward, backward] = &rows.swept.rows;
        assert!(forward.is_empty(), "the order binds y before x");
        assert_eq!(backward.len(), 1, "one backward row, from the middle node");
        assert!(!rows.spent());
        assert_eq!(catalog.cached_entries(), 1);
    }

    #[test]
    #[should_panic(expected = "RelationCatalog is bound to a different graph")]
    fn memo_hit_on_another_graph_panics() {
        let mut g = graph(&[("u", "a", "v")]);
        let query = q("(x, y) <- x -[a]-> y", &mut g);
        let mut catalog = RelationCatalog::new(&g);
        Eval::new(&query, &g).catalog(&mut catalog).tuples();
        assert_eq!(catalog.cached_plans(), 1);
        // The same query text over a third node: the memo holds its key.
        let mut other = graph(&[("u", "a", "v"), ("v", "a", "w")]);
        assert_eq!(q("(x, y) <- x -[a]-> y", &mut other), query);
        Eval::new(&query, &other).catalog(&mut catalog).tuples();
    }
}
