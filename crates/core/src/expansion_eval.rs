//! Characterisation-based evaluation (Prop 2.2, Prop 2.3, Cor 4.5).
//!
//! `v̄ ∈ Q(G)_st` iff some `E ∈ Exp(Q)` has `E → (G, v̄)`;
//! `v̄ ∈ Q(G)_q-inj` iff some `E` has `E -inj-> (G, v̄)`;
//! `v̄ ∈ Q(G)_a-inj` iff some `E` has `E -a-inj-> (G, v̄)`
//! (equivalently, Cor 4.5: some `F ∈ Exp_a-inj(Q)` with `F -inj-> (G, v̄)`).
//!
//! This engine searches expansions within explicit word-length bounds; it is
//! **complete** whenever the bound covers all relevant witnesses:
//!
//! * every injective witness path has at most `|V(G)|` nodes, so
//!   `max_word_len = |V(G)|` is complete for both injective semantics;
//! * a standard-semantics witness can be pumped down below
//!   `|V(G)| · |states|` in the product automaton, so that bound is complete
//!   for `st`.
//!
//! [`complete_limits`] computes those bounds; the engine then returns a
//! definite answer. With smaller bounds the result may be
//! [`EvalOutcome::Unknown`]. Used as the cross-check oracle for the direct
//! evaluator in [`crate::eval`].

use crate::eval::Semantics;
use crpq_graph::{GraphDb, NodeId};
use crpq_query::expansion::{enumerate_expansions, ExpansionLimits};
use crpq_query::hom::{hom_exists, pin_free_tuple};
use crpq_query::{Crpq, DistinctSpec};
use std::ops::ControlFlow;

/// Three-valued evaluation result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalOutcome {
    /// Membership established (a witnessing expansion + homomorphism found).
    True,
    /// Non-membership established (enumeration was exhaustive).
    False,
    /// The bounded enumeration found nothing but was not exhaustive.
    Unknown,
}

impl EvalOutcome {
    /// Collapses to `Option<bool>`.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            EvalOutcome::True => Some(true),
            EvalOutcome::False => Some(false),
            EvalOutcome::Unknown => None,
        }
    }
}

/// Limits making the expansion search complete on `(q, g)` for `sem`.
pub fn complete_limits(q: &Crpq, g: &GraphDb, sem: Semantics) -> ExpansionLimits {
    let n = g.num_nodes().max(1);
    let max_word_len = match sem {
        Semantics::Standard => {
            let states: usize = q
                .atoms
                .iter()
                .map(|a| a.nfa().num_states())
                .max()
                .unwrap_or(1);
            n * states
        }
        // Injective witnesses visit each node at most once: a simple path
        // has ≤ n nodes hence ≤ n-1 edges; a simple cycle ≤ n edges.
        Semantics::AtomInjective | Semantics::QueryInjective => n,
    };
    ExpansionLimits {
        max_word_len,
        max_expansions: usize::MAX,
    }
}

/// Evaluates `tuple ∈ Q(G)_sem` by expansion search within `limits`.
pub fn eval_contains_via_expansions(
    q: &Crpq,
    g: &GraphDb,
    tuple: &[NodeId],
    sem: Semantics,
    limits: ExpansionLimits,
) -> EvalOutcome {
    assert_eq!(
        q.free.len(),
        tuple.len(),
        "tuple arity must match free tuple"
    );
    let mut witnessed = false;
    let outcome = enumerate_expansions(q, limits, |exp| {
        let Some(pre) = pin_free_tuple(&exp.cq, tuple) else {
            return ControlFlow::Continue(());
        };
        let distinct = match sem {
            Semantics::Standard => DistinctSpec::None,
            Semantics::QueryInjective => DistinctSpec::AllPairs,
            Semantics::AtomInjective => DistinctSpec::Pairs(exp.atom_related_pairs()),
        };
        if hom_exists(&exp.cq, g, &pre, &distinct) {
            witnessed = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    if witnessed {
        EvalOutcome::True
    } else if outcome.complete {
        EvalOutcome::False
    } else {
        EvalOutcome::Unknown
    }
}

/// Complete expansion-based evaluation (uses [`complete_limits`]).
///
/// With the pumping bounds of [`complete_limits`], *no witness is lost*:
/// even when `Exp(Q)` is infinite (so the enumeration itself cannot be
/// exhaustive), any membership witness has an expansion within the bound.
/// Hence `Unknown` from the bounded search means definite non-membership.
pub fn eval_contains_complete(q: &Crpq, g: &GraphDb, tuple: &[NodeId], sem: Semantics) -> bool {
    matches!(
        eval_contains_via_expansions(q, g, tuple, sem, complete_limits(q, g, sem)),
        EvalOutcome::True
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Eval, Semantics};
    use crpq_graph::GraphBuilder;
    use crpq_query::parse_crpq;

    fn graph(edges: &[(&str, &str, &str)]) -> GraphDb {
        let mut b = GraphBuilder::new();
        for &(u, l, v) in edges {
            b.edge(u, l, v);
        }
        b.finish()
    }

    #[test]
    fn agrees_with_direct_engine_on_example21() {
        let mut g = graph(&[
            ("u", "a", "v"),
            ("v", "b", "w"),
            ("w", "c", "v"),
            ("v", "c", "u"),
        ]);
        let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut()).unwrap();
        for sem in Semantics::ALL {
            for n1 in g.nodes() {
                for n2 in g.nodes() {
                    let direct = Eval::new(&q, &g).semantics(sem).contains(&[n1, n2]);
                    let via_exp = eval_contains_complete(&q, &g, &[n1, n2], sem);
                    assert_eq!(
                        direct, via_exp,
                        "disagreement at ({n1:?},{n2:?}) under {sem}"
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_on_insufficient_bounds() {
        // (ab)^3 needed, but bound is 2.
        let mut g = graph(&[
            ("n0", "a", "n1"),
            ("n1", "b", "n2"),
            ("n2", "a", "n3"),
            ("n3", "b", "n4"),
            ("n4", "a", "n5"),
            ("n5", "b", "n6"),
        ]);
        let q = parse_crpq("x -[(a b)^+]-> y", g.alphabet_mut()).unwrap();
        let out = eval_contains_via_expansions(
            &q,
            &g,
            &[],
            Semantics::Standard,
            ExpansionLimits {
                max_word_len: 2,
                max_expansions: 1000,
            },
        );
        // Within bound 2 the word ab IS found (n0..n2), so membership holds.
        assert_eq!(out, EvalOutcome::True);
        // A query needing exactly length 6:
        let q6 = parse_crpq("x -[a b a b a b (a b)*]-> y", g.alphabet_mut()).unwrap();
        let out = eval_contains_via_expansions(
            &q6,
            &g,
            &[],
            Semantics::Standard,
            ExpansionLimits {
                max_word_len: 2,
                max_expansions: 1000,
            },
        );
        assert_eq!(out, EvalOutcome::Unknown);
        let out = eval_contains_via_expansions(
            &q6,
            &g,
            &[],
            Semantics::Standard,
            complete_limits(&q6, &g, Semantics::Standard),
        );
        assert_eq!(out, EvalOutcome::True);
    }

    #[test]
    fn subgraph_isomorphism_via_qinj() {
        // Prop 3.1 flavour: a triangle query maps q-injectively into a
        // triangle but not into a 6-cycle (which has a hom but no injective
        // short cycle image… actually a 3-cycle query needs a triangle).
        let mut tri = graph(&[("a1", "e", "a2"), ("a2", "e", "a3"), ("a3", "e", "a1")]);
        let q = parse_crpq("x -[e]-> y, y -[e]-> z, z -[e]-> x", tri.alphabet_mut()).unwrap();
        assert!(eval_contains_complete(
            &q,
            &tri,
            &[],
            Semantics::QueryInjective
        ));
        let mut hex = graph(&[
            ("b1", "e", "b2"),
            ("b2", "e", "b3"),
            ("b3", "e", "b4"),
            ("b4", "e", "b5"),
            ("b5", "e", "b6"),
            ("b6", "e", "b1"),
        ]);
        let q2 = parse_crpq("x -[e]-> y, y -[e]-> z, z -[e]-> x", hex.alphabet_mut()).unwrap();
        assert!(!eval_contains_complete(
            &q2,
            &hex,
            &[],
            Semantics::QueryInjective
        ));
        assert!(
            !eval_contains_complete(&q2, &hex, &[], Semantics::Standard),
            "6-cycle has no 3-cycle hom image (odd wrap impossible)"
        );
    }

    #[test]
    fn a_inj_distinct_pairs_only_within_atoms() {
        // §1 intro example: on a pure b-path the two atoms can share their
        // paths under a-inj but not q-inj.
        let mut g = graph(&[("n0", "b", "n1"), ("n1", "b", "n2")]);
        let q = parse_crpq(
            "x -[(a+b)(a+b)*]-> y, x -[(b+c)(b+c)*]-> z",
            g.alphabet_mut(),
        )
        .unwrap();
        assert!(eval_contains_complete(
            &q,
            &g,
            &[],
            Semantics::AtomInjective
        ));
        assert!(!eval_contains_complete(
            &q,
            &g,
            &[],
            Semantics::QueryInjective
        ));
    }
}
