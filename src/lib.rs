//! # crpq — Conjunctive Regular Path Queries under Injective Semantics
//!
//! A from-scratch Rust reproduction of *“Conjunctive Regular Path Queries
//! under Injective Semantics”* (Figueira & Romero, PODS 2023). This facade
//! crate re-exports the workspace crates:
//!
//! * [`automata`] — regular expressions, NFAs, DFAs and language algebra;
//! * [`graph`] — the edge-labelled graph database engine and RPQ path search;
//! * [`query`] — CQs, CRPQs, expansions and homomorphism engines;
//! * [`core`] — evaluation under the three semantics (`st`, `a-inj`, `q-inj`);
//! * [`containment`] — containment engines, including the PSpace abstraction
//!   algorithm for query-injective containment (Theorem 5.1 / Appendix C);
//! * [`reductions`] — the paper's hardness reductions (PCP, GCP2, ∀∃-QBF,
//!   subgraph isomorphism) with brute-force ground truth;
//! * [`workloads`] — seeded instance generators for the experiment suite.
//!
//! ## Quick start
//!
//! ```
//! use crpq::prelude::*;
//!
//! // A graph database: a directed path of two b-edges.
//! let mut b = GraphBuilder::new();
//! b.edge("u", "b", "v");
//! b.edge("v", "b", "w");
//! let mut g = b.finish();
//!
//! // The paper's §1 example:
//! // Q() = ∃x,y,z. x -(a+b)⁺-> y ∧ x -(b+c)⁺-> z   (Boolean query)
//! let q = parse_crpq(
//!     "x -[(a+b)(a+b)*]-> y, x -[(b+c)(b+c)*]-> z",
//!     g.alphabet_mut(),
//! )
//! .unwrap();
//!
//! // Every evaluation is one `Eval` request: set the semantics (and
//! // optionally threads or a shared `RelationCatalog`), then ask it for
//! // `tuples()`, `ask()`, `limit(k)`, `contains(&t)` or `stream()`.
//! // Overlapping witness paths are fine under standard and atom-injective
//! // semantics…
//! assert!(Eval::new(&q, &g).ask());
//! assert!(Eval::new(&q, &g).semantics(Semantics::AtomInjective).ask());
//! // …but query-injective semantics demands internally disjoint paths and
//! // an injective variable assignment, which the single b-path cannot offer.
//! assert!(!Eval::new(&q, &g).semantics(Semantics::QueryInjective).ask());
//! // A Boolean query's only possible answer is the empty tuple.
//! assert_eq!(Eval::new(&q, &g).tuples(), vec![Vec::<NodeId>::new()]);
//!
//! // Containment (Example 4.7): Q1 ⊆q-inj Q2 but Q1 ⊄a-inj Q2.
//! let mut sigma = Interner::new();
//! let q1 = parse_crpq("x -[a]-> y, y -[b]-> z", &mut sigma).unwrap();
//! let q2 = parse_crpq("x -[a b]-> y", &mut sigma).unwrap();
//! assert!(contain(&q1, &q2, Semantics::QueryInjective).is_contained());
//! assert!(contain(&q1, &q2, Semantics::AtomInjective).is_not_contained());
//! ```

pub use crpq_automata as automata;
pub use crpq_containment as containment;
pub use crpq_core as core;
pub use crpq_graph as graph;
pub use crpq_query as query;
pub use crpq_reductions as reductions;
pub use crpq_util as util;
pub use crpq_workloads as workloads;

/// Convenience re-exports covering the most common API surface.
pub mod prelude {
    pub use crpq_automata::{classify_simple_path, parse_regex, Dfa, Nfa, Regex, SimplePathClass};
    pub use crpq_containment::{
        check_boundedness, contain, contain_with, recommended_limits, Boundedness,
        BoundednessConfig, ExpansionLimits, Outcome,
    };
    pub use crpq_core::{
        check_hierarchy, eval_boolean_trail, eval_contains_trail, eval_tuples_trail, eval_witness,
        verify_witness, Eval, RelationCatalog, Semantics, TrailSemantics, Witness,
    };
    pub use crpq_graph::{generators, rpq, DeltaGraph, GraphBuilder, GraphDb, GraphView, NodeId};
    pub use crpq_query::{parse_crpq, Cq, CqAtom, Crpq, CrpqAtom, QueryClass, UnionCrpq, Var};
    pub use crpq_util::{Interner, Symbol};
}
