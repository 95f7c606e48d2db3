//! # crpq-core
//!
//! The paper's primary contribution as an executable library: evaluation of
//! CRPQs under the three semantics of §2.1 —
//!
//! * **standard** (`st`): atoms are witnessed by arbitrary paths;
//! * **atom-injective** (`a-inj`): each atom by a simple path (simple cycle
//!   for `x -L-> x` atoms), paths of different atoms may overlap;
//! * **query-injective** (`q-inj`): additionally, the variable assignment is
//!   injective and paths of distinct atoms share no internal nodes.
//!
//! Two independent evaluators are provided:
//!
//! * [`Eval`] — the *direct* engine, one request type for every question
//!   the paper asks of `Q(G)_sem`: all tuples, `ASK`, `LIMIT k`, a pull
//!   stream, or membership of one tuple. Setters pick the semantics, the
//!   materialisation thread count and a shared [`RelationCatalog`]; every terminal except
//!   membership steps one resumable join cursor, and membership runs the
//!   one pin-and-search membership engine that the oracles share (see
//!   [`eval`]);
//! * [`expansion_eval`] — the *characterisation* engine implementing
//!   Prop 2.2/2.3 and Cor 4.5 literally: search an expansion
//!   `E ∈ Exp(Q)` with an (ordinary / atom-injective / injective)
//!   homomorphism into `(G, v̄)`.
//!
//! They must agree — that agreement is property-tested and is the deepest
//! internal consistency check of the reproduction. The paper-faithful
//! oracles stay alongside: [`eval_tuples_enumerate`] (tuple enumeration),
//! [`trail`] (the §7 trail semantics) and [`witness`] (certificates).

pub mod eval;
pub mod expansion_eval;
pub mod hierarchy;
pub mod stream;
pub mod trail;
pub(crate) mod wcoj;
pub mod witness;

pub use eval::{eval_tuples_enumerate, Eval, MaterialiseTotals, RelationCatalog, Semantics};
pub use expansion_eval::{eval_contains_via_expansions, EvalOutcome};
pub use hierarchy::check_hierarchy;
pub use stream::TupleStream;
pub use trail::{eval_boolean_trail, eval_contains_trail, eval_tuples_trail, TrailSemantics};
pub use witness::{eval_witness, verify_witness, Witness, WitnessError};

// The repository benchmark's engine adapter (`perfbench/src/engine.rs`)
// is pinned to these three calls. Each is one line into `Eval` and keeps
// the behaviour it had before the request type existed: the two catalog
// calls search on one thread against the caller's catalog, and the
// stream plans against a fresh `RelationCatalog::with_threads(g, threads)`.

#[doc(hidden)]
pub fn eval_tuples_with_catalog<G: crpq_graph::GraphView>(
    q: &crpq_query::Crpq,
    g: &G,
    sem: Semantics,
    catalog: &mut RelationCatalog,
) -> Vec<Vec<crpq_graph::NodeId>> {
    Eval::new(q, g).semantics(sem).catalog(catalog).tuples()
}

#[doc(hidden)]
pub fn eval_limit_with_catalog<G: crpq_graph::GraphView>(
    q: &crpq_query::Crpq,
    g: &G,
    sem: Semantics,
    k: usize,
    catalog: &mut RelationCatalog,
) -> Vec<Vec<crpq_graph::NodeId>> {
    Eval::new(q, g).semantics(sem).catalog(catalog).limit(k)
}

#[doc(hidden)]
pub fn eval_stream_parallel<G: crpq_graph::GraphView + Send + Sync + 'static>(
    q: &crpq_query::Crpq,
    g: &std::sync::Arc<G>,
    sem: Semantics,
    threads: usize,
) -> TupleStream<G> {
    Eval::new(q, g).semantics(sem).threads(threads).stream()
}
