//! Direct evaluation of CRPQs under the three semantics (§2.1).
//!
//! Every question is asked through one request type, [`Eval`]: build it
//! with `Eval::new(&q, &g)`, shape it with setters (semantics, threads, a
//! caller-owned catalog, a forced executor, the deletion-closed fast
//! path) and end it with a terminal (`tuples`, `ask`, `limit`,
//! `contains`, or `stream` in [`crate::stream`]).
//!
//! # Graphs are read through [`GraphView`]
//!
//! A request is generic over `G: `[`GraphView`] — the read-only
//! trait from `crpq_graph` whose contract (ascending per-label iterators,
//! node-major `(label, node)` order, post-build labels read as empty) is
//! documented in `crpq_graph::view`. Frozen [`GraphDb`]s monomorphise to
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
//! * **Planning** ([`plan_variant`]): each variant's atoms are compiled and
//!   resolved against a [`RelationCatalog`] — a per-graph store of
//!   materialised atom relations keyed by the *canonical structural key* of
//!   the compiled NFA ([`crpq_automata::Nfa::canonical_key`]). The first
//!   atom with a given key materialises its relation (a catalog **miss**);
//!   every later occurrence — across variants, across semantics, across
//!   repeated requests sharing the catalog — reuses it (a
//!   **hit**). Hit/miss counters and materialisation wall clock are
//!   exposed for tests and benchmarks.
//! * **Execution** ([`JoinPlan`]): the per-variant join *borrows* catalog
//!   entries instead of owning relations, prunes domains and runs one of
//!   two executors, picked per variant by shape (see below).
//!
//! # Executor dispatch: cyclic shapes go worst-case-optimal
//!
//! Two join executors sit behind the planner:
//!
//! * the **backtracking binary join** ([`JoinPlan::search_all`]) —
//!   selectivity-ordered variable assignment with domain-clone +
//!   row-intersection candidate generation; and
//! * the **worst-case-optimal join** ([`crate::wcoj`]) — a Generic-Join
//!   style executor that binds one variable at a time along a fixed
//!   elimination order, enumerating each variable's candidates by
//!   *leapfrog intersection* of sorted views (the pruned domain plus every
//!   incident relation row restricted by the bound neighbours), so the
//!   per-candidate cost tracks the **smallest** participating view instead
//!   of the domain size.
//!
//! Dispatch is structural ([`JoinPlan::is_cyclic`]): a variant whose
//! atom–variable incidence graph contains a **cycle** — a connected
//! component with at least as many (non-self-loop) atoms as variables,
//! which includes parallel atoms between the same variable pair — is run
//! through the WCOJ executor; acyclic (forest-shaped) variants keep the
//! backtracking join, whose dynamic fewest-candidates ordering is already
//! near-optimal there. The rationale is the AGM bound: on cyclic shapes
//! (triangle, 4-cycle, diamond-with-chord, …) any binary join plan can
//! produce asymptotically more intermediate bindings than the output size
//! (`O(|R|²)` vs `O(|R|^{3/2})` on the triangle), while Generic Join's
//! per-variable intersection is worst-case optimal. Self-loop atoms
//! (`x -L-> x`) are folded into the domains at plan-build time and close
//! no cycle. Both executors share [`RelationCatalog`] materialisation,
//! semi-join pruning, the duplicate-projection prune and the per-semantics
//! [`VerifyScratch`] verification, and [`EvalStrategy`] can force either
//! executor for differential testing and benchmarks.
//!
//! Relations themselves use density-adaptive rows
//! ([`crpq_graph::rpq::RelationRow`]: sorted-`u32` sparse vs. bitset
//! dense), and the catalog can run the per-source BFS sweeps on several
//! threads, each claiming blocks of source ids
//! ([`crpq_graph::rpq::rpq_relation_auto`]).
//!
//! # Two engines
//!
//! **Join-based ([`Eval::tuples`], [`Eval::ask`], [`Eval::limit`] and the
//! stream).** Every terminal that enumerates answers runs one driver,
//! `Eval::run`, per ε-free variant in a relation-first pipeline:
//!
//! 1. **Relation materialisation** — every *distinct* atom's full
//!    standard-semantics RPQ relation is computed by
//!    [`crpq_graph::rpq::rpq_relation_auto`]: one product BFS per source
//!    over the graph's node-major adjacency, swept in blocks of source
//!    ids, or the condensation closure when a sampled cost probe finds
//!    the product too dense. The relation is indexed both ways
//!    (`forward(u)` / `backward(v)` rows) and cached in the request's
//!    [`RelationCatalog`] — the caller's, or a fresh
//!    [`RelationCatalog::with_threads`]`(g, threads)`. The first tuple
//!    still waits for every full relation.
//! 2. **Semi-join pruning** — per-variable candidate domains start at `V`
//!    and are intersected with atom source/target sets, then shrunk to a
//!    fixpoint: a node stays in `dom(x)` only while every atom incident to
//!    `x` can still be matched inside the current domains.
//! 3. **Selectivity-ordered join** — backtracking assigns the unassigned
//!    variable with the fewest remaining candidates first (candidates =
//!    pruned domain ∩ relation rows of already-assigned neighbours), so the
//!    join tree stays narrow. With `threads > 1` and more than one
//!    candidate for the most selective variable, the work-stealing
//!    scheduler of [`crate::parallel`] splits the same search across
//!    workers; otherwise it runs on the calling thread.
//! 4. **Per-semantics verification** — the relations are *exact* for `st`,
//!    so a join solution is a result. For `a-inj`/`q-inj` they are a sound
//!    over-approximation (every simple path is a path): each join solution
//!    is verified by simple-path / simple-cycle search, or the jointly
//!    disjoint placement of [`place_atoms`] under `q-inj`. Subtrees whose
//!    free-variable projection is already in the result set are pruned —
//!    only existential variables could still vary there.
//!
//! Boolean queries take the same path: their one possible answer is the
//! empty projection.
//!
//! **Membership ([`Eval::contains`]).** Backtracks over variable
//! assignments with (exact-for-standard, sound-for-injective) RPQ
//! reachability pruning; fully assigned tuples are then verified per
//! semantics:
//!
//! * `st` — reachability pruning is already exact, nothing to re-check;
//! * `a-inj` — each atom re-checked with a simple-path (or simple-cycle)
//!   search, independently per atom;
//! * `q-inj` — assignments are generated injectively and atoms are *placed*
//!   one by one, accumulating the set of used nodes so paths stay internally
//!   disjoint (backtracking across atoms).
//!
//! **Enumeration oracle ([`eval_tuples_enumerate`]).** Enumerates all
//! `|V|^arity` candidate tuples and decides membership per tuple — the
//! differential-testing ground truth for [`Eval`] and the baseline of the
//! `BENCH_eval` measurements.
//!
//! # Streaming enumeration: the sink contract
//!
//! The driver emits results through a [`TupleSink`] rather than a concrete
//! set, and the sink steers the search: `insert_tuple` returns a
//! [`SinkStatus`] and `should_stop` is re-checked at every search-tree
//! node, so a sink can end the enumeration early — after the first witness
//! ([`Eval::ask`]), after `k` tuples ([`Eval::limit`]), or when a streaming
//! consumer hangs up ([`crate::stream`]). The contract: once a sink returns
//! [`SinkStatus::Stop`] (or starts reporting `should_stop`), every executor
//! — the backtracking join, the WCOJ executor ([`crate::wcoj`]) and the
//! work-stealing scheduler ([`crate::parallel`], via a shared cancellation
//! flag) — unwinds without inserting further tuples; a parallel worker may
//! at most finish verifying the candidate it was already on, so overshoot
//! is bounded by the worker count. The full-result set never stops.
//!
//! # Inline injective verification
//!
//! Under `a-inj`/`q-inj` the relations over-approximate, and verification
//! used to run post-hoc on complete assignments only — rejected candidates
//! are exactly what stalls a stream. The search now also prunes at **bind
//! time** ([`JoinPlan::bind_allowed`]): binding a node immediately checks
//! every incident atom whose other endpoint is already bound for per-atom
//! simple-path/-cycle feasibility, memoised per plan in [`VerifyScratch`].
//! Under `a-inj` the check is exact per atom; under `q-inj` it is a sound
//! *necessary* condition (the joint placement blocks at least as many
//! nodes as the empty blocked set). The pruning invariant: `bind_allowed`
//! only rejects assignments no completion of which could verify, so pruned
//! and unpruned searches emit the same tuple set — differentially tested
//! in `tests/stream_equivalence.rs`.

use crpq_automata::{Nfa, NfaKey};
use crpq_graph::rpq::{NodeSet, ReachScratch, Relation, RelationRow};
use crpq_graph::{rpq, GraphView, NodeId};
use crpq_query::{Crpq, Var};
use crpq_util::{BitSet, FxHashMap, FxHashSet, Symbol};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
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

/// Which join executor a request runs ([`Eval::strategy`]). Every strategy
/// returns the same answers — property-tested in `tests/wcoj_equivalence.rs`
/// — so the forced executors exist for differential tests and the
/// `BENCH_eval` WCOJ-vs-binary comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Per-variant structural dispatch ([`JoinPlan::is_cyclic`]): the
    /// worst-case-optimal join on cyclic variant shapes, the backtracking
    /// binary join on acyclic ones (see the module docs).
    #[default]
    Join,
    /// The backtracking binary join forced on every variant shape.
    BinaryJoin,
    /// The worst-case-optimal executor forced on every variant shape
    /// (leapfrog intersection also handles acyclic shapes, just without the
    /// dynamic variable ordering).
    Wcoj,
}

/// One evaluation request for `Q(G)_sem`: the crate's entry point to the
/// join engine and to the membership engine.
///
/// Setters shape the request; each is optional:
///
/// * [`semantics`](Self::semantics) — `st` (the default), `a-inj` or
///   `q-inj`;
/// * [`threads`](Self::threads) — join-search and materialisation threads
///   (default 1; `0` = one per available CPU, capped at 16);
/// * [`catalog`](Self::catalog) — a caller-owned [`RelationCatalog`], so
///   relations materialised by one request serve the next; without it
///   every request plans against a fresh
///   [`RelationCatalog::with_threads`]`(g, threads)`;
/// * [`strategy`](Self::strategy) — force a join executor;
/// * [`analyzed`](Self::analyzed) — route factor-deletion-closed atoms
///   through polynomial reachability under atom-injective semantics.
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
/// // A second request on the same catalog reuses both relations.
/// assert!(Eval::new(&q, &g).catalog(&mut catalog).threads(2).ask());
/// assert_eq!(catalog.misses(), 2);
/// assert!(Eval::new(&q, &g).contains(&[u, w]));
/// ```
pub struct Eval<'a, G: GraphView> {
    pub(crate) q: &'a Crpq,
    pub(crate) g: &'a G,
    pub(crate) sem: Semantics,
    pub(crate) threads: usize,
    pub(crate) catalog: Option<&'a mut RelationCatalog>,
    pub(crate) strategy: EvalStrategy,
    pub(crate) analyze: bool,
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
            strategy: EvalStrategy::Join,
            analyze: false,
        }
    }

    /// The semantics to evaluate under.
    pub fn semantics(mut self, sem: Semantics) -> Self {
        self.sem = sem;
        self
    }

    /// Threads for the join search (work stealing, see
    /// [`crate::parallel`]) and for a fresh catalog's materialisation.
    /// `0` = one per available CPU, capped at 16.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Plans against a caller-owned catalog, so repeated requests on the
    /// same graph (other queries sharing atoms, other semantics, re-runs)
    /// reuse every relation materialised so far.
    pub fn catalog(mut self, catalog: &'a mut RelationCatalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Forces a join executor (see [`EvalStrategy`]).
    pub fn strategy(mut self, strategy: EvalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// First classifies every atom language
    /// ([`crpq_automata::tractability`]) and routes **factor-deletion-closed**
    /// atoms through polynomial arbitrary-path reachability under
    /// atom-injective semantics.
    ///
    /// This is sound and complete by the loop-pruning lemma: for a
    /// deletion-closed language, a walk witness can be pruned to a simple
    /// path whose label stays in the language, so the (NP-hard in general)
    /// simple-path check degenerates to reachability — the executable
    /// content of the tractable side of the trichotomy the paper cites as
    /// [3].
    pub fn analyzed(mut self) -> Self {
        self.analyze = true;
        self
    }

    /// The full result set `Q(G)_sem`, sorted and deduplicated.
    pub fn tuples(self) -> Vec<Vec<NodeId>> {
        sorted_tuples(self.run(FxHashSet::default()))
    }

    /// `ASK`: whether `Q(G)_sem ≠ ∅`, stopping the join search at the
    /// **first verified witness**. For a Boolean query this is the query's
    /// truth value.
    pub fn ask(self) -> bool {
        !self.run(LimitSink::new(1)).is_empty()
    }

    /// `LIMIT k`: at most `k` distinct result tuples, stopping the search
    /// as soon as the k-th is found. The tuples are a subset of
    /// [`Self::tuples`], sorted among themselves; *which* subset is
    /// unspecified — it depends on search order (and, with several
    /// threads, on scheduling), like any engine's unordered `LIMIT`. The
    /// count is exact even with racing workers.
    pub fn limit(self, k: usize) -> Vec<Vec<NodeId>> {
        if k == 0 {
            return Vec::new();
        }
        sorted_tuples(self.run(LimitSink::new(k)).into_tuples())
    }

    /// Whether `tuple ∈ Q(G)_sem`, decided per ε-free variant by the
    /// membership engine (see the module docs). Threads, catalog and
    /// strategy do not apply: nothing is materialised.
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
        self.q.epsilon_free_union().iter().any(|variant| {
            VariantEval::build(variant, self.g, self.sem, self.analyze).contains(tuple)
        })
    }

    /// The join driver behind every terminal but `contains`, at every
    /// thread count: plan every ε-free variant against the request's
    /// catalog (or a fresh one), materialising each distinct atom relation
    /// once, then search each variant into `sink` through the executor the
    /// strategy selects, honouring the sink's stop signal between and
    /// inside variants. A variant runs the sequential search when
    /// `threads ≤ 1` or its most selective variable has at most one
    /// candidate; otherwise the work-stealing scheduler of
    /// [`crate::parallel`] splits it across `threads` workers feeding the
    /// same sink. Hands the sink back.
    pub(crate) fn run<S: TupleSink + Send>(self, mut sink: S) -> S {
        let Eval {
            q,
            g,
            sem,
            threads,
            catalog,
            strategy,
            analyze,
        } = self;
        let threads = rpq::effective_threads(threads);
        let mut fresh;
        let catalog = match catalog {
            Some(catalog) => catalog,
            None => {
                fresh = RelationCatalog::with_threads(g, threads);
                &mut fresh
            }
        };
        let variants = q.epsilon_free_union();
        let plans: Vec<VariantPlan> = variants
            .iter()
            .map(|v| plan_variant(v, g, analyze, catalog))
            .collect();
        let mut scratch = VerifyScratch::new();
        for (variant, plan) in variants.iter().zip(plans) {
            if sink.should_stop() {
                break;
            }
            let plan = JoinPlan::build(variant, g, sem, plan, catalog);
            let wcoj = plan.use_wcoj(strategy);
            let split = (threads > 1)
                .then(|| plan.split_candidates())
                .flatten()
                .filter(|(_, cands)| cands.len() > 1);
            let status = match split {
                Some((var, cands)) => {
                    // The WCOJ elimination order depends only on (plan,
                    // var): computed once here, not per stolen chunk.
                    let order = wcoj.then(|| crate::wcoj::fixed_order(&plan, var));
                    let order = order.as_deref();
                    crate::parallel::search_work_stealing(
                        &plan, order, var, cands, threads, &mut sink,
                    )
                }
                None if wcoj => crate::wcoj::search_all(&plan, &mut scratch, &mut sink),
                None => plan.search_all(&mut scratch, &mut sink),
            };
            if status == SinkStatus::Stop {
                break;
            }
        }
        sink
    }
}

/// Sorts a deduplicated tuple set into the engines' canonical output
/// order. The join engine accumulates into a hash set (insert and
/// projection-prune lookups are much cheaper than a `BTreeSet` of boxed
/// tuples) and pays for ordering once at the end.
fn sorted_tuples(out: FxHashSet<Vec<NodeId>>) -> Vec<Vec<NodeId>> {
    let mut tuples: Vec<Vec<NodeId>> = out.into_iter().collect();
    tuples.sort_unstable();
    tuples
}

/// `ControlFlow`-style steering signal a [`TupleSink`] hands back to the
/// executors: [`SinkStatus::Stop`] unwinds the search without inserting
/// further tuples (see the module docs for the full contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SinkStatus {
    /// Keep enumerating.
    Continue,
    /// The sink has everything it wants — unwind the search.
    Stop,
}

/// Result-set abstraction for the join search: the full-result hash set,
/// the early-exit [`LimitSink`], the streaming sink of [`crate::stream`]
/// and the cancellation-aware worker sinks of [`crate::parallel`] all
/// receive tuples through it, and the early-exit ones can end the
/// enumeration from inside the search.
///
/// Contract: after `insert_tuple` returns [`SinkStatus::Stop`],
/// `should_stop` must keep returning `true`; executors re-check it at
/// every search-tree node, so a stopped sink is never descended past.
pub(crate) trait TupleSink {
    /// Whether the projection is already a known result.
    fn contains_tuple(&self, t: &[NodeId]) -> bool;
    /// Records a verified result projection; [`SinkStatus::Stop`] ends the
    /// enumeration.
    fn insert_tuple(&mut self, t: Vec<NodeId>) -> SinkStatus;
    /// Whether the search should unwind before doing more work. Checked at
    /// search-node entry (and per candidate by the parallel driver), so a
    /// stop decision made elsewhere — another worker, a hung-up stream
    /// consumer — propagates promptly.
    fn should_stop(&self) -> bool {
        false
    }
    /// Whether the sink never answers [`SinkStatus::Stop`] — true only for
    /// the full-result set, whose parallel workers may then hand over their
    /// tuples in one batch instead of one lock acquisition per tuple.
    fn never_stops(&self) -> bool {
        false
    }
}

/// Lets the parallel scheduler share a caller's sink behind one mutex
/// without taking ownership of it.
impl<T: TupleSink + ?Sized> TupleSink for &mut T {
    fn contains_tuple(&self, t: &[NodeId]) -> bool {
        (**self).contains_tuple(t)
    }
    fn insert_tuple(&mut self, t: Vec<NodeId>) -> SinkStatus {
        (**self).insert_tuple(t)
    }
    fn should_stop(&self) -> bool {
        (**self).should_stop()
    }
    fn never_stops(&self) -> bool {
        (**self).never_stops()
    }
}

impl TupleSink for FxHashSet<Vec<NodeId>> {
    fn contains_tuple(&self, t: &[NodeId]) -> bool {
        self.contains(t)
    }
    fn insert_tuple(&mut self, t: Vec<NodeId>) -> SinkStatus {
        self.insert(t);
        SinkStatus::Continue
    }
    fn never_stops(&self) -> bool {
        true
    }
}

/// Early-exit sink behind [`Eval::ask`] and [`Eval::limit`]: accumulates
/// at most `limit` distinct tuples, then stops the search. The length
/// never exceeds `limit` even with racing parallel workers — an insert
/// against a full sink is refused (and answered with [`SinkStatus::Stop`]).
pub(crate) struct LimitSink {
    seen: FxHashSet<Vec<NodeId>>,
    limit: usize,
}

impl LimitSink {
    pub(crate) fn new(limit: usize) -> Self {
        LimitSink {
            seen: FxHashSet::default(),
            limit,
        }
    }

    /// The collected tuples (≤ `limit` of them).
    pub(crate) fn into_tuples(self) -> FxHashSet<Vec<NodeId>> {
        self.seen
    }

    /// Whether any tuple was collected.
    pub(crate) fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

impl TupleSink for LimitSink {
    fn contains_tuple(&self, t: &[NodeId]) -> bool {
        self.seen.contains(t)
    }
    fn insert_tuple(&mut self, t: Vec<NodeId>) -> SinkStatus {
        if self.seen.len() >= self.limit {
            return SinkStatus::Stop;
        }
        self.seen.insert(t);
        if self.seen.len() >= self.limit {
            SinkStatus::Stop
        } else {
            SinkStatus::Continue
        }
    }
    fn should_stop(&self) -> bool {
        self.seen.len() >= self.limit
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
        .map(|v| VariantEval::build(v, g, sem, false))
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

fn enumerate_tuples<G: GraphView, F: FnMut(&[NodeId])>(
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
    nfa: Nfa,
    nfa_rev: Nfa,
    /// `ε`-freeness is guaranteed upstream; kept as a debug invariant.
    accepts_epsilon: bool,
    /// Whether the language is factor-deletion closed (only computed under
    /// `analyze`): enables the polynomial reachability fast path for
    /// atom-injective checks.
    deletion_closed: bool,
}

fn compile_atoms(variant: &Crpq, analyze: bool) -> Vec<CompiledAtom> {
    variant
        .atoms
        .iter()
        .map(|a| {
            let nfa = a.nfa();
            debug_assert!(!nfa.accepts_epsilon(), "variants must be ε-free");
            let deletion_closed =
                analyze && crpq_automata::tractability::deletion_closed(&nfa, &nfa.symbols());
            CompiledAtom {
                src: a.src,
                dst: a.dst,
                nfa_rev: nfa.reverse(),
                accepts_epsilon: nfa.accepts_epsilon(),
                deletion_closed,
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
/// evaluations on the same graph. A miss materialises cost-adaptively
/// ([`rpq::rpq_relation_auto`]): per-source BFS sweeps by default, with a
/// sampled cost probe that escalates to the condensation bitset closure
/// ([`rpq::rpq_relation_closure_blocked`]) on dense products where per-source
/// exploration would be quadratically wasteful (the closure is
/// column-blocked, so its reach matrix stays within a fixed working-set
/// budget at any product size). Both install their rows through the one
/// relation builder of [`rpq`], which also builds the backward index. The
/// sweeps take blocks of source ids: on the calling thread with a pooled
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
    /// threads (`0` = one per available CPU, capped at 16); the sampled
    /// closure escalation is unaffected.
    pub fn with_threads<G: GraphView>(g: &G, threads: usize) -> Self {
        RelationCatalog {
            num_nodes: g.num_nodes(),
            fingerprint: graph_fingerprint(g),
            index: FxHashMap::default(),
            relations: Vec::new(),
            footprints: Vec::new(),
            free_slots: Vec::new(),
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
        let key = nfa.canonical_key();
        if let Some(&id) = self.index.get(&key) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        let t0 = Instant::now();
        let (rel, stats) =
            rpq::rpq_relation_auto_with_stats(g, nfa, &mut self.scratch, self.threads);
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

    /// Evicts every entry whose label footprint mentions `label` — the
    /// invalidation hook for edge mutations: an atom relation depends only
    /// on edges labelled from its NFA alphabet, so after inserting or
    /// deleting `label`-edges, entries not mentioning `label` stay exact.
    /// Marks the misuse-guard fingerprint stale (re-sampled at the next
    /// lookup). Returns the number of entries evicted.
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

    /// Evicts **every** entry — the structure-oblivious baseline the
    /// `--mutate-smoke` benchmark compares footprint-keyed eviction
    /// against. Returns the number of entries evicted.
    pub fn invalidate_all(&mut self) -> usize {
        self.fingerprint_stale = true;
        let evicted = self.index.len();
        self.index.clear();
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
    /// domains are sized by `num_nodes`, so nothing cached survives.
    pub fn rebind<G: GraphView>(&mut self, g: &G) {
        self.evictions += self.index.len();
        self.index.clear();
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
    /// far: which materialiser ran how often, sources swept, and the
    /// sweep and assembly milliseconds inside [`Self::materialise_ms`].
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
    /// Relations built by per-source sweeps.
    pub sweeps: usize,
    /// Relations built by the blocked closure.
    pub closures: usize,
    /// Sources swept, summed over the sweep materialisations.
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
        match stats.path {
            rpq::MaterialisePath::Sweeps => self.sweeps += 1,
            rpq::MaterialisePath::Closure => self.closures += 1,
        }
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

/// Planner output for one ε-free variant: compiled atoms plus the catalog
/// ids of their relations. Turned into an executable [`JoinPlan`] once all
/// variants are planned (so the catalog can be borrowed immutably).
pub(crate) struct VariantPlan {
    atoms: Vec<CompiledAtom>,
    rel_ids: Vec<usize>,
}

/// Compiles a variant's atoms and resolves each against the catalog,
/// materialising only relations never seen before.
pub(crate) fn plan_variant<G: GraphView>(
    variant: &Crpq,
    g: &G,
    analyze: bool,
    catalog: &mut RelationCatalog,
) -> VariantPlan {
    let atoms = compile_atoms(variant, analyze);
    let rel_ids = atoms
        .iter()
        .map(|a| catalog.get_or_materialize(g, &a.nfa))
        .collect();
    VariantPlan { atoms, rel_ids }
}

// ---------------------------------------------------------------------------
// Join-based engine (executor)
// ---------------------------------------------------------------------------

/// The compiled join pipeline for one ε-free variant: catalog-borrowed
/// per-atom relations plus semi-join-pruned per-variable domains.
/// Immutable once built, so [`crate::parallel`] can share one plan across
/// worker threads.
pub(crate) struct JoinPlan<'a, G: GraphView> {
    g: &'a G,
    pub(crate) q: &'a Crpq,
    pub(crate) sem: Semantics,
    pub(crate) atoms: Vec<CompiledAtom>,
    /// `relations[i]` = full standard-semantics relation of atom `i`,
    /// borrowed from the [`RelationCatalog`] it was planned against.
    pub(crate) relations: Vec<&'a Relation>,
    /// Per-variable candidate domains after semi-join fixpoint —
    /// density-adaptive ([`NodeSet`]: sorted-`u32` sparse / bitset dense),
    /// so domain storage and the per-backtracking-step clone+intersect are
    /// `O(candidates)` instead of `O(|V|)` per variable.
    pub(crate) domains: Vec<NodeSet>,
    /// `domain_sizes[v] == domains[v].len()`, recorded once at build time
    /// (domains never change after it): the search reads sizes at every
    /// node, and counting a dense domain is an `O(|V|/64)` popcount.
    pub(crate) domain_sizes: Vec<usize>,
    /// Some domain is empty — the variant contributes nothing.
    empty: bool,
}

impl<'a, G: GraphView> JoinPlan<'a, G> {
    /// Resolves a [`VariantPlan`] against the (now frozen) catalog and
    /// prunes variable domains to the semi-join fixpoint.
    pub(crate) fn build(
        variant: &'a Crpq,
        g: &'a G,
        sem: Semantics,
        plan: VariantPlan,
        catalog: &'a RelationCatalog,
    ) -> Self {
        let VariantPlan { atoms, rel_ids } = plan;
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
                domains[atom.src.index()].intersect_with_sorted(&diag);
            } else {
                domains[atom.src.index()].intersect_with_set(rel.source_set());
                domains[atom.dst.index()].intersect_with_set(rel.target_set());
            }
        }

        // Semi-join fixpoint: a node stays in dom(src) only while some
        // partner in dom(dst) is still related (and vice versa). Each pass
        // rebuilds the shrinking side from its survivors — `O(candidates)`
        // work and memory, not `O(|V|)`. Sizes are counted once here and
        // then kept in step with every rebuild.
        let mut sizes: Vec<usize> = domains.iter().map(NodeSet::len).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for (atom, rel) in atoms.iter().zip(&relations) {
                if atom.src == atom.dst {
                    continue;
                }
                let (s, d) = (atom.src.index(), atom.dst.index());
                let kept: Vec<u32> = domains[s]
                    .iter()
                    .filter(|&u| domains[d].intersects_row(&rel.forward(NodeId(u as u32))))
                    .map(|u| u as u32)
                    .collect();
                if kept.len() != sizes[s] {
                    sizes[s] = kept.len();
                    domains[s] = NodeSet::from_sorted_ids(kept, n);
                    changed = true;
                }
                let kept: Vec<u32> = domains[d]
                    .iter()
                    .filter(|&v| domains[s].intersects_row(&rel.backward(NodeId(v as u32))))
                    .map(|v| v as u32)
                    .collect();
                if kept.len() != sizes[d] {
                    sizes[d] = kept.len();
                    domains[d] = NodeSet::from_sorted_ids(kept, n);
                    changed = true;
                }
            }
        }

        let empty = sizes.contains(&0) && variant.num_vars > 0;
        JoinPlan {
            g,
            q: variant,
            sem,
            atoms,
            relations,
            domains,
            domain_sizes: sizes,
            empty,
        }
    }

    /// Whether the pruned plan can produce no results at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.empty
    }

    /// Node count of the plan's graph (for sizing scratch pools from the
    /// sibling executor modules, which cannot see the private graph ref).
    pub(crate) fn num_nodes(&self) -> usize {
        self.g.num_nodes()
    }

    /// Whether the variant's **atom–variable incidence graph is cyclic**:
    /// some connected component of the variable graph (one edge per
    /// non-self-loop atom, parallel atoms counted separately) contains a
    /// cycle. Detected by union-find — an atom whose endpoints are already
    /// connected closes a cycle, which covers both genuine cycles
    /// (triangle, 4-cycle) and parallel atoms between the same variable
    /// pair. Self-loop atoms are folded into the domains at build time and
    /// close no cycle. This is the [`EvalStrategy::Join`] dispatch
    /// predicate: cyclic shapes run the worst-case-optimal executor
    /// ([`crate::wcoj`]).
    pub(crate) fn is_cyclic(&self) -> bool {
        let mut uf = crpq_util::UnionFind::new(self.q.num_vars);
        self.atoms
            .iter()
            .filter(|a| a.src != a.dst)
            .any(|a| !uf.union(a.src.index(), a.dst.index()))
    }

    /// Executor dispatch for this variant under `strategy` (see module
    /// docs).
    pub(crate) fn use_wcoj(&self, strategy: EvalStrategy) -> bool {
        match strategy {
            EvalStrategy::Join => self.is_cyclic(),
            EvalStrategy::BinaryJoin => false,
            EvalStrategy::Wcoj => true,
        }
    }

    /// Runs the join to completion (or until the sink stops it), inserting
    /// every result projection (tuple of free-variable images) into `out`.
    /// `scratch` pools the verification buffers across solutions (and
    /// across variants when the caller reuses it); the per-plan atom memo
    /// is reset here.
    pub(crate) fn search_all(
        &self,
        scratch: &mut VerifyScratch,
        out: &mut dyn TupleSink,
    ) -> SinkStatus {
        if self.empty {
            return SinkStatus::Continue;
        }
        scratch.begin_plan(self.g.num_nodes());
        let mut assignment: Vec<Option<NodeId>> = vec![None; self.q.num_vars];
        self.search(&mut assignment, scratch, out)
    }

    /// The relation rows of `var`'s assigned neighbours — the selective
    /// constraints a partial assignment imposes on `var`'s candidates.
    fn neighbour_rows(&self, var: Var, assignment: &[Option<NodeId>]) -> Vec<RelationRow<'_>> {
        let mut rows = Vec::new();
        for (atom, rel) in self.atoms.iter().zip(&self.relations) {
            if atom.src == atom.dst {
                continue; // folded into the domain at build time
            }
            if atom.src == var {
                if let Some(dst_node) = assignment[atom.dst.index()] {
                    rows.push(rel.backward(dst_node));
                }
            }
            if atom.dst == var {
                if let Some(src_node) = assignment[atom.src.index()] {
                    rows.push(rel.forward(src_node));
                }
            }
        }
        rows
    }

    /// The candidate set for `var` given the current partial assignment:
    /// pruned domain ∩ relation rows of assigned neighbours (∖ used nodes
    /// under `q-inj`). When any neighbour is assigned, the intersection is
    /// **driven from the smallest neighbour row** — membership tests
    /// against the domain and the other rows — so the per-backtracking
    /// -step cost is `O(row)`, never `O(|V|)`: cloning a dense 10⁷-node
    /// domain at every step is exactly the quadratic wall the 10⁷ scale
    /// row exists to catch. Only an unconstrained variable (no neighbour
    /// assigned — in practice the root of the search) pays for a domain
    /// clone.
    fn candidates(&self, var: Var, assignment: &[Option<NodeId>]) -> NodeSet {
        let domain = &self.domains[var.index()];
        let rows = self.neighbour_rows(var, assignment);
        let mut cands = match rows
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.len())
            .map(|(i, _)| i)
        {
            Some(driver) => {
                let kept: Vec<u32> = rows[driver]
                    .iter()
                    .filter(|&u| {
                        domain.contains(u)
                            && rows
                                .iter()
                                .enumerate()
                                .all(|(i, r)| i == driver || r.contains(u))
                    })
                    .map(|u| u as u32)
                    .collect();
                NodeSet::from_sorted_ids(kept, domain.universe())
            }
            None => domain.clone(),
        };
        if self.sem == Semantics::QueryInjective {
            for node in assignment.iter().flatten() {
                cands.remove(node.index());
            }
        }
        cands
    }

    /// Writes the free-variable projection into `buf`; `false` (buffer
    /// contents unspecified) when some free variable is still unassigned.
    pub(crate) fn projection_into(
        &self,
        assignment: &[Option<NodeId>],
        buf: &mut Vec<NodeId>,
    ) -> bool {
        buf.clear();
        for v in &self.q.free {
            match assignment[v.index()] {
                Some(n) => buf.push(n),
                None => return false,
            }
        }
        true
    }

    /// The branch the sequential search takes from `assignment`: the
    /// unassigned variable with the fewest candidates plus its candidate
    /// set, or `None` when the assignment is complete. Shared by the
    /// recursive [`Self::search`] and the work-stealing driver in
    /// [`crate::parallel`], so a stolen subtree branches exactly like the
    /// sequential executor would. (An empty candidate set is returned
    /// as-is — the caller's zero-iteration loop prunes the subtree.)
    pub(crate) fn choose_branch(&self, assignment: &[Option<NodeId>]) -> Option<(Var, NodeSet)> {
        // Exact candidate counts for every unbound variable, none of them
        // O(|V|): row-constrained variables materialise their (small,
        // row-driven) candidate set; unconstrained ones read the domain
        // size recorded at build time (minus used nodes under q-inj) —
        // counting a dense domain here would be an O(|V|/64) popcount,
        // and cloning it an O(|V|) copy, per backtracking step. Only the
        // winning unconstrained variable is materialised at the end.
        let mut best: Option<(Var, Option<NodeSet>, usize)> = None;
        for v in 0..assignment.len() {
            if assignment[v].is_some() {
                continue;
            }
            let var = Var(v as u32);
            let (cands, size) = if self.neighbour_rows(var, assignment).is_empty() {
                let domain = &self.domains[v];
                let mut size = self.domain_sizes[v];
                if self.sem == Semantics::QueryInjective {
                    size -= assignment
                        .iter()
                        .flatten()
                        .filter(|node| domain.contains(node.index()))
                        .count();
                }
                (None, size)
            } else {
                let cands = self.candidates(var, assignment);
                let size = cands.len();
                (Some(cands), size)
            };
            if size == 0 {
                let cands = cands.unwrap_or_else(|| NodeSet::empty(self.domains[v].universe()));
                return Some((var, cands));
            }
            if best.as_ref().is_none_or(|&(_, _, s)| size < s) {
                best = Some((var, cands, size));
                if size == 1 {
                    break;
                }
            }
        }
        best.map(|(var, cands, _)| {
            let cands = cands.unwrap_or_else(|| self.candidates(var, assignment));
            (var, cands)
        })
    }

    /// Runs the backtracking join from an arbitrary partial `assignment`
    /// — the subtree hand-off point of the work-stealing driver
    /// ([`crate::parallel`]): a worker that has explicitly enumerated the
    /// stealable prefix levels delegates the remaining subtree here.
    pub(crate) fn search_from(
        &self,
        assignment: &mut Vec<Option<NodeId>>,
        scratch: &mut VerifyScratch,
        out: &mut dyn TupleSink,
    ) -> SinkStatus {
        self.search(assignment, scratch, out)
    }

    /// Selectivity-ordered backtracking join.
    fn search(
        &self,
        assignment: &mut Vec<Option<NodeId>>,
        scratch: &mut VerifyScratch,
        out: &mut dyn TupleSink,
    ) -> SinkStatus {
        // Early exit: a stopped sink (limit reached, stream hung up,
        // sibling worker cancelled) unwinds the whole search.
        if out.should_stop() {
            return SinkStatus::Stop;
        }
        // Prune: once all free variables are fixed, deeper levels only vary
        // existential variables — pointless if the projection is already a
        // known result. The projection goes through a pooled buffer; the
        // hash set answers slice lookups without an owned tuple.
        let mut proj = std::mem::take(&mut scratch.tuple);
        let pruned =
            self.projection_into(assignment, &mut proj) && out.contains_tuple(proj.as_slice());
        scratch.tuple = proj;
        if pruned {
            return SinkStatus::Continue;
        }
        let Some((var, cands)) = self.choose_branch(assignment) else {
            // Complete assignment: relations guaranteed it standard-wise;
            // verify the injective side and record the projection. `mu`
            // lives in the scratch pool; an owned tuple is only allocated
            // for solutions that actually verify.
            let mut mu = std::mem::take(&mut scratch.mu);
            mu.clear();
            mu.extend(assignment.iter().map(|a| a.unwrap())); // invariant: every variable is bound at a leaf
            let ok = self.verify(&mu, scratch);
            scratch.mu = mu;
            if ok {
                // `scratch.tuple` still holds this call's projection: the
                // entry prune filled it (the assignment is complete here,
                // so `projection_into` returned `true`) and `verify`
                // does not touch it.
                debug_assert_eq!(
                    scratch.tuple.len(),
                    self.q.free.len(),
                    "entry prune must have projected the complete assignment"
                );
                return out.insert_tuple(scratch.tuple.clone());
            }
            return SinkStatus::Continue;
        };
        for node in cands.iter() {
            let node = NodeId(node as u32);
            if !self.bind_allowed(var, node, assignment, scratch) {
                continue;
            }
            assignment[var.index()] = Some(node);
            let status = self.search(assignment, scratch, out);
            assignment[var.index()] = None;
            if status == SinkStatus::Stop {
                return SinkStatus::Stop;
            }
        }
        SinkStatus::Continue
    }

    /// Bind-time injectivity prune (see the module docs): whether binding
    /// `node` to `var` can still lead to a verifying completion, judged by
    /// the per-atom feasibility of every incident atom both of whose
    /// endpoints are now bound. Exact per atom under `a-inj`; a sound
    /// necessary condition under `q-inj` (the joint placement only blocks
    /// *more* nodes). Standard semantics never prunes — the relations are
    /// exact there.
    pub(crate) fn bind_allowed(
        &self,
        var: Var,
        node: NodeId,
        assignment: &[Option<NodeId>],
        scratch: &mut VerifyScratch,
    ) -> bool {
        if self.sem == Semantics::Standard {
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
            if !self.atom_feasible_ainj(i, s, d, scratch) {
                return false;
            }
        }
        true
    }

    /// Per-atom atom-injective feasibility of `(s, d)` for atom `i` —
    /// the branch structure mirrors [`verify_atom_injective`] exactly
    /// (semantics-critical), with the standard-reachability answer of the
    /// deletion-closed fast path constant-`true`: callers only ask about
    /// pairs already relation-consistent (candidate generation intersects
    /// every incident row; the domain fold guarantees self-loop pairs).
    /// Simple-path/-cycle answers are memoised per plan in `scratch`.
    fn atom_feasible_ainj(
        &self,
        i: usize,
        s: NodeId,
        d: NodeId,
        scratch: &mut VerifyScratch,
    ) -> bool {
        let atom = &self.atoms[i];
        if atom.src != atom.dst {
            if s == d {
                // Simple path from a node to itself is the empty path;
                // atoms are ε-free, so this is unsatisfiable.
                return atom.accepts_epsilon;
            }
            if atom.deletion_closed {
                // Loop-pruning lemma: standard reachability is exact, and
                // it is already enforced by the relations.
                return true;
            }
        }
        let key = (i as u32, s.0, d.0);
        if let Some(&ok) = scratch.atom_memo.get(&key) {
            return ok;
        }
        scratch.ensure_graph(self.g.num_nodes());
        let ok = if atom.src == atom.dst {
            rpq::simple_cycle_exists(self.g, &atom.nfa, s, &scratch.empty)
        } else {
            rpq::simple_path_exists(self.g, &atom.nfa, s, d, &scratch.empty)
        };
        scratch.atom_memo.insert(key, ok);
        ok
    }

    /// Verifies a complete, relation-consistent assignment under the plan's
    /// semantics. For `st` the relations are exact, so there is nothing
    /// left to check; the injective semantics re-check paths. Shared by
    /// both executors (backtracking and [`crate::wcoj`]).
    pub(crate) fn verify(&self, mu: &[NodeId], scratch: &mut VerifyScratch) -> bool {
        debug_assert!(self
            .atoms
            .iter()
            .zip(&self.relations)
            .all(|(atom, rel)| { rel.contains(mu[atom.src.index()], mu[atom.dst.index()]) }));
        match self.sem {
            Semantics::Standard => true,
            // Per-atom checks routed through the bind-time memo
            // ([`Self::atom_feasible_ainj`], same branch structure as
            // [`verify_atom_injective`] with constant-true `std_reach`):
            // with inline pruning active, every atom was already checked
            // when its second endpoint was bound, so this is a handful of
            // hash lookups.
            Semantics::AtomInjective => (0..self.atoms.len()).all(|i| {
                let (s, d) = (mu[self.atoms[i].src.index()], mu[self.atoms[i].dst.index()]);
                self.atom_feasible_ainj(i, s, d, scratch)
            }),
            Semantics::QueryInjective => verify_query_injective(self.g, &self.atoms, mu, scratch),
        }
    }

    /// For parallel evaluation: the variable the sequential search would
    /// assign first and its candidates, or `None` when the variant has no
    /// variables (pure Boolean check).
    pub(crate) fn split_candidates(&self) -> Option<(Var, Vec<NodeId>)> {
        let var = (0..self.q.num_vars)
            .min_by_key(|&v| self.domain_sizes[v])
            .map(|v| Var(v as u32))?;
        let cands = self.domains[var.index()]
            .iter()
            .map(|n| NodeId(n as u32))
            .collect();
        Some((var, cands))
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
    reach_fwd: FxHashMap<(usize, NodeId), BitSet>,
    reach_back: FxHashMap<(usize, NodeId), BitSet>,
    scratch: VerifyScratch,
}

impl<'a, G: GraphView> VariantEval<'a, G> {
    /// The evaluator of one ε-free variant; under `analyze`, classifies
    /// every atom language and marks factor-deletion-closed atoms for the
    /// reachability fast path.
    pub(crate) fn build(variant: &'a Crpq, g: &'a G, sem: Semantics, analyze: bool) -> Self {
        VariantEval {
            g,
            q: variant,
            atoms: compile_atoms(variant, analyze),
            sem,
            reach_fwd: FxHashMap::default(),
            reach_back: FxHashMap::default(),
            scratch: VerifyScratch::new(),
        }
    }

    fn contains(&mut self, tuple: &[NodeId]) -> bool {
        // Pin free variables; repeated free vars must agree.
        let mut assignment: Vec<Option<NodeId>> = vec![None; self.q.num_vars];
        for (&v, &n) in self.q.free.iter().zip(tuple) {
            match assignment[v.index()] {
                Some(prev) if prev != n => return false,
                _ => assignment[v.index()] = Some(n),
            }
        }
        if self.sem == Semantics::QueryInjective {
            // μ injective: distinct pinned vars need distinct nodes.
            for i in 0..assignment.len() {
                for j in i + 1..assignment.len() {
                    if let (Some(a), Some(b)) = (assignment[i], assignment[j]) {
                        if a == b {
                            return false;
                        }
                    }
                }
            }
        }
        let mut found = false;
        let _ = self.search(&mut assignment, &mut |this, full| {
            if this.verify(full) {
                found = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        found
    }

    /// Like `contains`, but returns the witnessing assignment and one node
    /// path per atom instead of a bare boolean.
    pub(crate) fn contains_witness(
        &mut self,
        tuple: &[NodeId],
    ) -> Option<(Vec<NodeId>, Vec<Vec<NodeId>>)> {
        let mut assignment: Vec<Option<NodeId>> = vec![None; self.q.num_vars];
        for (&v, &n) in self.q.free.iter().zip(tuple) {
            match assignment[v.index()] {
                Some(prev) if prev != n => return None,
                _ => assignment[v.index()] = Some(n),
            }
        }
        if self.sem == Semantics::QueryInjective {
            for i in 0..assignment.len() {
                for j in i + 1..assignment.len() {
                    if let (Some(a), Some(b)) = (assignment[i], assignment[j]) {
                        if a == b {
                            return None;
                        }
                    }
                }
            }
        }
        let mut witness = None;
        let _ = self.search(&mut assignment, &mut |this, full| {
            if let Some(paths) = this.verify_paths(full) {
                witness = Some((full.to_vec(), paths));
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        witness
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

    fn reach_fwd(&mut self, atom: usize, from: NodeId) -> &BitSet {
        if !self.reach_fwd.contains_key(&(atom, from)) {
            let set = rpq::rpq_reach(self.g, &self.atoms[atom].nfa, from);
            self.reach_fwd.insert((atom, from), set);
        }
        &self.reach_fwd[&(atom, from)]
    }

    fn reach_back(&mut self, atom: usize, to: NodeId) -> &BitSet {
        if !self.reach_back.contains_key(&(atom, to)) {
            let set = rpq::rpq_reach_back(self.g, &self.atoms[atom].nfa_rev, to);
            self.reach_back.insert((atom, to), set);
        }
        &self.reach_back[&(atom, to)]
    }

    fn candidates(&mut self, var: Var, assignment: &[Option<NodeId>]) -> Vec<NodeId> {
        let mut domain: Option<BitSet> = None;
        let restrict = |domain: &mut Option<BitSet>, set: &BitSet| match domain {
            None => *domain = Some(set.clone()),
            Some(d) => d.intersect_with(set),
        };

        for i in 0..self.atoms.len() {
            let (src, dst) = (self.atoms[i].src, self.atoms[i].dst);
            if src == var && dst == var {
                continue; // self-loop atoms handled per candidate below
            }
            if src == var {
                if let Some(dst_node) = assignment[dst.index()] {
                    let set = self.reach_back(i, dst_node).clone();
                    restrict(&mut domain, &set);
                }
            }
            if dst == var {
                if let Some(src_node) = assignment[src.index()] {
                    let set = self.reach_fwd(i, src_node).clone();
                    restrict(&mut domain, &set);
                }
            }
        }

        let mut cands: Vec<NodeId> = match domain {
            Some(d) => d.iter().map(|i| NodeId(i as u32)).collect(),
            None => (0..self.g.num_nodes()).map(|v| NodeId(v as u32)).collect(),
        };

        // Self-loop atoms: reachability from the node back to itself.
        let loop_atoms: Vec<usize> = (0..self.atoms.len())
            .filter(|&i| self.atoms[i].src == var && self.atoms[i].dst == var)
            .collect();
        for i in loop_atoms {
            cands.retain(|&n| {
                // borrow dance: compute membership through the cache
                let set = rpq::rpq_reach(self.g, &self.atoms[i].nfa, n);
                set.contains(n.index())
            });
        }

        // Injectivity of μ under q-inj.
        if self.sem == Semantics::QueryInjective {
            cands.retain(|n| !assignment.iter().flatten().any(|used| used == n));
        }
        cands
    }

    /// Verifies a complete assignment according to the semantics.
    fn verify(&mut self, mu: &[NodeId]) -> bool {
        match self.sem {
            Semantics::Standard => {
                // Pruning used exact reachability for non-loop atoms; loop
                // atoms were checked at candidate time. Re-check everything
                // defensively (cheap thanks to the cache).
                (0..self.atoms.len()).all(|i| {
                    let (s, d) = (mu[self.atoms[i].src.index()], mu[self.atoms[i].dst.index()]);
                    self.reach_fwd(i, s).contains(d.index())
                })
            }
            Semantics::AtomInjective => {
                // Split borrows so the deletion-closed fast path can go
                // through the mutable reachability cache while the shared
                // verifier reads the atoms and the scratch supplies the
                // pooled empty blocked set.
                let VariantEval {
                    g,
                    atoms,
                    reach_fwd,
                    scratch,
                    ..
                } = self;
                let g: &G = g;
                let atoms: &[CompiledAtom] = atoms.as_slice();
                scratch.prepare(g.num_nodes(), 0);
                let mut std_reach = |i: usize, s: NodeId, d: NodeId| {
                    reach_fwd
                        .entry((i, s))
                        .or_insert_with(|| rpq::rpq_reach(g, &atoms[i].nfa, s))
                        .contains(d.index())
                };
                verify_atom_injective(g, atoms, mu, &mut std_reach, &scratch.empty)
            }
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
            Semantics::AtomInjective => (0..self.atoms.len())
                .map(|i| {
                    let atom = &self.atoms[i];
                    let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
                    let mut cap: Option<Vec<NodeId>> = None;
                    if atom.src == atom.dst {
                        rpq::for_each_simple_cycle(self.g, &atom.nfa, s, &self.g.node_set(), |p| {
                            cap = Some(p.to_vec());
                            ControlFlow::Break(())
                        });
                    } else if s == d {
                        // Only the empty path is simple from a node to
                        // itself; atoms are ε-free, so this fails.
                        if atom.accepts_epsilon {
                            cap = Some(vec![s]);
                        }
                    } else {
                        rpq::for_each_simple_path(
                            self.g,
                            &atom.nfa,
                            s,
                            d,
                            &self.g.node_set(),
                            |p| {
                                cap = Some(p.to_vec());
                                ControlFlow::Break(())
                            },
                        );
                    }
                    cap
                })
                .collect(),
            Semantics::QueryInjective => {
                self.scratch.prepare(self.g.num_nodes(), self.atoms.len());
                for &n in mu {
                    self.scratch.used.insert(n.index());
                }
                let mut paths = Vec::with_capacity(self.atoms.len());
                place_atoms(self.g, &self.atoms, mu, 0, &mut self.scratch, &mut paths)
                    .then_some(paths)
            }
        }
    }
}

/// Reusable buffers for the injective verification path.
///
/// `simple_path_exists`/`place_atoms` verification used to allocate a
/// fresh `|V|`-bit blocked set per placement level plus a `Vec` of
/// internal nodes per candidate path — per *join solution*. The scratch
/// pools those allocations: the blocked accumulator and the per-depth
/// snapshot/internal buffers live here and are reused across solutions,
/// across variants, and (for long-lived callers) across evaluations.
pub(crate) struct VerifyScratch {
    /// Blocked-node accumulator for the q-inj joint placement.
    used: BitSet,
    /// Per-depth snapshots of `used` (the enumerator's blocked set).
    blocked: Vec<BitSet>,
    /// Per-depth internal-node buffers.
    internals: Vec<Vec<NodeId>>,
    /// Pooled path buffer for boolean (non-witness) verification.
    paths: Vec<Vec<NodeId>>,
    /// Always-empty set with graph capacity — the "nothing blocked"
    /// argument of the a-inj per-atom checks. Never mutated after sizing.
    empty: BitSet,
    /// Pooled projection buffer for the duplicate-result prune (shared
    /// with the [`crate::wcoj`] executor).
    pub(crate) tuple: Vec<NodeId>,
    /// Pooled complete-assignment buffer handed to verification (shared
    /// with the [`crate::wcoj`] executor).
    pub(crate) mu: Vec<NodeId>,
    /// Bind-time memo of per-atom a-inj feasibility: `(atom index, src
    /// node, dst node) → simple-path/-cycle existence`. Keyed by atom
    /// *index*, so entries are only valid for one [`JoinPlan`] —
    /// [`Self::begin_plan`] clears it (parallel workers get a fresh
    /// scratch per plan instead).
    atom_memo: FxHashMap<(u32, u32, u32), bool>,
}

impl VerifyScratch {
    pub(crate) fn new() -> Self {
        VerifyScratch {
            used: BitSet::new(0),
            blocked: Vec::new(),
            internals: Vec::new(),
            paths: Vec::new(),
            empty: BitSet::new(0),
            tuple: Vec::new(),
            mu: Vec::new(),
            atom_memo: FxHashMap::default(),
        }
    }

    /// Sizes the graph-capacity bitsets without touching their contents
    /// beyond a (re)allocation — cheap equality check when already sized.
    fn ensure_graph(&mut self, n: usize) {
        if self.used.capacity() != n {
            self.used = BitSet::new(n);
            self.empty = BitSet::new(n);
        }
    }

    /// Plan boundary: sizes the pools for a graph with `n` nodes and
    /// invalidates the per-plan atom memo. Called by both executors'
    /// `search_all`; the subtree entry points (`search_from`,
    /// `search_from_level`) deliberately don't — the memo stays valid
    /// across subtrees of one plan.
    pub(crate) fn begin_plan(&mut self, n: usize) {
        self.ensure_graph(n);
        self.atom_memo.clear();
    }

    /// Sizes the pools for a graph with `n` nodes and a placement search
    /// `depth` atoms deep, and clears the blocked accumulator.
    fn prepare(&mut self, n: usize, depth: usize) {
        self.ensure_graph(n);
        self.used.clear();
        while self.blocked.len() < depth {
            self.blocked.push(BitSet::new(0));
        }
        while self.internals.len() < depth {
            self.internals.push(Vec::new());
        }
    }
}

impl Default for VerifyScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared atom-injective verification backing both engines: every atom
/// needs a simple path (simple cycle for `x -L-> x` atoms). `std_reach(i,
/// s, d)` supplies the standard-reachability answer that the
/// deletion-closed fast path relies on — a relation lookup in the join
/// engine (already enforced during the search), a cached BFS in the
/// membership engine. `empty` is a pooled always-empty blocked set sized
/// for `g` (see [`VerifyScratch`]). Branch order is semantics-critical;
/// keep the two callers on this one implementation.
fn verify_atom_injective<G: GraphView>(
    g: &G,
    atoms: &[CompiledAtom],
    mu: &[NodeId],
    std_reach: &mut dyn FnMut(usize, NodeId, NodeId) -> bool,
    empty: &BitSet,
) -> bool {
    debug_assert!(empty.is_empty() && empty.capacity() == g.num_nodes());
    atoms.iter().enumerate().all(|(i, atom)| {
        let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
        if atom.src == atom.dst {
            rpq::simple_cycle_exists(g, &atom.nfa, s, empty)
        } else if s == d {
            // Simple path from a node to itself is the empty path; atoms
            // are ε-free, so this is unsatisfiable.
            atom.accepts_epsilon
        } else if atom.deletion_closed {
            // Loop-pruning lemma: for deletion-closed languages a walk
            // witness prunes to a simple path still in the language, so
            // standard reachability is exact.
            std_reach(i, s, d)
        } else {
            rpq::simple_path_exists(g, &atom.nfa, s, d, empty)
        }
    })
}

/// Shared query-injective verification backing both engines: jointly place
/// internally disjoint simple paths for all atoms, with every μ-image
/// blocked as a path internal. All working sets come from `scratch`.
fn verify_query_injective<G: GraphView>(
    g: &G,
    atoms: &[CompiledAtom],
    mu: &[NodeId],
    scratch: &mut VerifyScratch,
) -> bool {
    scratch.prepare(g.num_nodes(), atoms.len());
    for &n in mu {
        scratch.used.insert(n.index());
    }
    let mut paths = std::mem::take(&mut scratch.paths);
    paths.clear();
    let ok = place_atoms(g, atoms, mu, 0, scratch, &mut paths);
    scratch.paths = paths;
    ok
}

/// Recursively places atom paths so that no internal node is reused
/// (query-injective joint search). On success, `paths` holds the chosen
/// node path for every atom from `i` onwards (earlier entries untouched).
/// Callers must have run `scratch.prepare(n, atoms.len())` and seeded
/// `scratch.used` with the μ-images.
fn place_atoms<G: GraphView>(
    g: &G,
    atoms: &[CompiledAtom],
    mu: &[NodeId],
    i: usize,
    scratch: &mut VerifyScratch,
    paths: &mut Vec<Vec<NodeId>>,
) -> bool {
    if i == atoms.len() {
        return true;
    }
    let atom = &atoms[i];
    let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
    let mut placed = false;
    // Snapshot of the blocked set for the enumeration: `try_rest` restores
    // `used` to exactly this state before the enumerator resumes, so the
    // snapshot stays accurate throughout. The snapshot buffer is pooled
    // per depth; it is moved out so the closure can borrow `scratch`.
    let mut blocked = std::mem::replace(&mut scratch.blocked[i], BitSet::new(0));
    blocked.copy_from(&scratch.used);
    let complete = if atom.src == atom.dst {
        rpq::for_each_simple_cycle(g, &atom.nfa, s, &blocked, |path| {
            try_rest(g, atoms, mu, i, scratch, path, &mut placed, paths)
        })
    } else {
        rpq::for_each_simple_path(g, &atom.nfa, s, d, &blocked, |path| {
            try_rest(g, atoms, mu, i, scratch, path, &mut placed, paths)
        })
    };
    scratch.blocked[i] = blocked;
    debug_assert!(complete || placed);
    placed
}

fn try_rest<G: GraphView>(
    g: &G,
    atoms: &[CompiledAtom],
    mu: &[NodeId],
    i: usize,
    scratch: &mut VerifyScratch,
    path: &[NodeId],
    placed: &mut bool,
    paths: &mut Vec<Vec<NodeId>>,
) -> ControlFlow<()> {
    // Internal nodes of `path` (endpoints are μ-images, already in `used`);
    // the buffer is pooled per depth.
    let mut internals = std::mem::take(&mut scratch.internals[i]);
    internals.clear();
    internals.extend(
        path[1..path.len().saturating_sub(1)]
            .iter()
            .copied()
            .filter(|n| !scratch.used.contains(n.index())),
    );
    debug_assert_eq!(
        internals.len(),
        path.len().saturating_sub(2),
        "simple-path search must avoid used internals"
    );
    for n in &internals {
        scratch.used.insert(n.index());
    }
    paths.truncate(i);
    paths.push(path.to_vec());
    let ok = place_atoms(g, atoms, mu, i + 1, scratch, paths);
    for n in &internals {
        scratch.used.remove(n.index());
    }
    scratch.internals[i] = internals;
    if ok {
        *placed = true;
        ControlFlow::Break(())
    } else {
        ControlFlow::Continue(())
    }
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
        // source, so the probe escalates to the closure; single `a` steps
        // are swept, one source per node.
        let mut g = crpq_graph::generators::labelled_cycle(200, &["a"]);
        let star = Nfa::from_regex(&crpq_automata::parse_regex("a*", g.alphabet_mut()).unwrap());
        let step = Nfa::from_regex(&crpq_automata::parse_regex("a", g.alphabet_mut()).unwrap());
        let mut catalog = RelationCatalog::with_threads(&g, 2);
        catalog.get_or_materialize(&g, &star);
        catalog.get_or_materialize(&g, &step);
        catalog.get_or_materialize(&g, &step);
        let totals = catalog.materialise_totals();
        assert_eq!((totals.closures, totals.sweeps), (1, 1));
        assert_eq!(totals.sources_swept, 200);
        assert!(totals.sweep_ms + totals.assembly_ms <= catalog.materialise_ms());
        // The closure's 200² pairs assembled over the largest transients.
        assert!(totals.peak_assembly_bytes >= 8 * 200);
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
                    "strategy mismatch under {sem}"
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
    fn analyzed_evaluator_agrees_with_exact() {
        // a* and (a b)* atoms: the first is deletion-closed (fast path),
        // the second is not; results must coincide with the exact engine.
        let mut g = example21_g();
        let query = q("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", &mut g);
        for sem in Semantics::ALL {
            assert_eq!(
                Eval::new(&query, &g).semantics(sem).tuples(),
                Eval::new(&query, &g).semantics(sem).analyzed().tuples(),
                "analyzed engine must agree under {sem}"
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
        let query = q("(x, y) <- x -[a a*]-> y", &mut g);
        let (s, t) = (node(&g, "s"), node(&g, "t"));
        assert!(Eval::new(&query, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[s, t]));
        assert!(Eval::new(&query, &g)
            .semantics(Semantics::AtomInjective)
            .analyzed()
            .contains(&[s, t]));
        // (a a)* is NOT deletion-closed: no fast path, and the parity
        // matters — s →a→ h →a→ t is the only simple even path... of length
        // 2, which exists; extend the trap so only odd simple paths exist.
        let query2 = q("(x, y) <- x -[(a a)*]-> y", &mut g);
        assert_eq!(
            Eval::new(&query2, &g)
                .semantics(Semantics::AtomInjective)
                .contains(&[s, t]),
            Eval::new(&query2, &g)
                .semantics(Semantics::AtomInjective)
                .analyzed()
                .contains(&[s, t]),
        );
    }

    /// Builds the join plan of the query's first ε-free variant.
    fn first_variant_plan_is_cyclic(q: &Crpq, g: &GraphDb) -> bool {
        let variants = q.epsilon_free_union();
        let mut catalog = RelationCatalog::new(g);
        let plan = plan_variant(&variants[0], g, false, &mut catalog);
        JoinPlan::build(&variants[0], g, Semantics::Standard, plan, &catalog).is_cyclic()
    }

    #[test]
    fn recorded_domain_sizes_match_the_pruned_domains() {
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
        for sem in [
            Semantics::Standard,
            Semantics::AtomInjective,
            Semantics::QueryInjective,
        ] {
            let mut catalog = RelationCatalog::new(&g);
            let plan = plan_variant(&variants[0], &g, false, &mut catalog);
            let plan = JoinPlan::build(&variants[0], &g, sem, plan, &catalog);
            let sizes: Vec<usize> = plan.domains.iter().map(NodeSet::len).collect();
            assert_eq!(plan.domain_sizes, sizes, "{sem:?}");
            let mut sorted = sizes.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [2, 2, 2, 98, 98], "{sem:?}");
            assert!(plan.domains.iter().any(NodeSet::is_dense), "{sem:?}");
            assert!(plan.domains.iter().any(|d| !d.is_dense()), "{sem:?}");
        }
    }

    #[test]
    fn cyclic_shape_detection() {
        let mut g = graph(&[("u", "a", "v"), ("v", "b", "w"), ("w", "c", "u")]);
        // Chain and star: forests, acyclic.
        let chain = q("x -[a]-> y, y -[b]-> z", &mut g);
        assert!(!first_variant_plan_is_cyclic(&chain, &g));
        let star = q("x -[a]-> y, x -[b]-> z", &mut g);
        assert!(!first_variant_plan_is_cyclic(&star, &g));
        // Triangle closes a cycle.
        let triangle = q("x -[a]-> y, y -[b]-> z, z -[c]-> x", &mut g);
        assert!(first_variant_plan_is_cyclic(&triangle, &g));
        // Parallel atoms between the same pair are a cycle in the
        // atom–variable incidence graph.
        let parallel = q("x -[a]-> y, x -[b]-> y", &mut g);
        assert!(first_variant_plan_is_cyclic(&parallel, &g));
        // A self-loop atom is folded into the domain — no cycle.
        let self_loop = q("x -[a]-> y, y -[b c]-> y", &mut g);
        assert!(!first_variant_plan_is_cyclic(&self_loop, &g));
    }

    #[test]
    fn wcoj_and_binary_join_agree_on_cyclic_and_acyclic_shapes() {
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
                let auto = Eval::new(&query, &g).semantics(sem).tuples();
                let binary = Eval::new(&query, &g)
                    .semantics(sem)
                    .strategy(EvalStrategy::BinaryJoin)
                    .tuples();
                let wcoj = Eval::new(&query, &g)
                    .semantics(sem)
                    .strategy(EvalStrategy::Wcoj)
                    .tuples();
                let oracle = eval_tuples_enumerate(&query, &g, sem);
                assert_eq!(auto, oracle, "{text} auto vs oracle under {sem}");
                assert_eq!(binary, oracle, "{text} binary vs oracle under {sem}");
                assert_eq!(wcoj, oracle, "{text} wcoj vs oracle under {sem}");
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
        compile_atoms(&query.epsilon_free_union()[0], false)[i]
            .nfa
            .clone()
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
}
