//! The counter-example containment engine (§4.1).
//!
//! `E₁(ȳ)` is a **counter-example** for ★-semantics if `E₁` is a
//! ★-expansion of `Q₁` with `ȳ ∉ Q₂(E₁)★`. Then `Q₁ ⊆★ Q₂` iff no
//! counter-example exists. The ★-expansions are:
//!
//! * ordinary expansions `Exp(Q₁)` for `st` (Prop 4.2) and `q-inj`
//!   (Prop 4.3);
//! * a-inj-expansions `Exp_a-inj(Q₁)` for `a-inj` (Prop 4.6).
//!
//! The ∃-side — `ȳ ∈ Q₂(E₁)★` — is plain ★-evaluation of `Q₂` over the
//! candidate viewed as a graph database, which [`crpq_core::eval`] decides
//! exactly. The ∀-side is exhaustive precisely when the expansion
//! enumeration is ([`ExpansionLimits`] + finiteness), which the
//! [`Outcome`] reports faithfully.
//!
//! One sequential walk, `find_counter_example`, serves both entry points:
//! [`contain_with`] runs it with a one-query right side, and
//! [`contain_union_with`] once per left branch against the whole right
//! union.

use crpq_core::{Eval, Semantics};
use crpq_graph::NodeId;
use crpq_query::expansion::{enumerate_expansions, ExpansionLimits};
use crpq_query::{enumerate_a_inj_expansions, Cq, Crpq};
use crpq_util::Symbol;
use std::ops::ControlFlow;
use std::slice;

/// Result of a containment check.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// `Q₁ ⊆★ Q₂`, certified by exhaustive counter-example search.
    Contained,
    /// `Q₁ ⊄★ Q₂` with a concrete witness.
    NotContained(CounterExample),
    /// No counter-example within the budget, but the search was not
    /// exhaustive (infinite languages / caps). `Q₁ ⊆★ Q₂` *up to* the budget.
    Inconclusive {
        /// The budget that was exhausted.
        limits: ExpansionLimits,
    },
}

impl Outcome {
    /// Collapses to `Option<bool>` (`None` = inconclusive).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Outcome::Contained => Some(true),
            Outcome::NotContained(_) => Some(false),
            Outcome::Inconclusive { .. } => None,
        }
    }

    /// Whether this is a definite [`Outcome::Contained`].
    pub fn is_contained(&self) -> bool {
        matches!(self, Outcome::Contained)
    }

    /// Whether this is a definite [`Outcome::NotContained`].
    pub fn is_not_contained(&self) -> bool {
        matches!(self, Outcome::NotContained(_))
    }
}

/// A witness for non-containment: a ★-expansion of `Q₁` on which `Q₂` fails.
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// The counter-example as a CQ (`E₁` or `F₁`); its free tuple is `ȳ`.
    pub witness: Cq,
    /// The expansion words chosen per atom of the ε-free variant of `Q₁`.
    pub profile: Vec<Vec<Symbol>>,
    /// Number of variable merges applied (0 unless ★ = a-inj).
    pub merges: usize,
}

/// Decides `Q₁ ⊆★ Q₂` within the expansion budget `limits`.
///
/// Both queries must have the same free-tuple arity (containment between
/// different arities is vacuously false and rejected loudly).
pub fn contain_with(q1: &Crpq, q2: &Crpq, sem: Semantics, limits: ExpansionLimits) -> Outcome {
    assert_eq!(
        q1.free.len(),
        q2.free.len(),
        "containment requires equal free-tuple arity"
    );
    let num_symbols = alphabet_span([q1, q2]);
    match find_counter_example(q1, slice::from_ref(q2), sem, limits, num_symbols) {
        (Some(c), _) => Outcome::NotContained(c),
        (None, true) => Outcome::Contained,
        (None, false) => Outcome::Inconclusive { limits },
    }
}

/// Decides `(Q₁¹ ∨ … ∨ Q₁ᵏ) ⊆★ (Q₂¹ ∨ … ∨ Q₂ᵐ)` — unions of CRPQs
/// (UCRPQs, §7; also the natural form of the PCP reduction's right side).
///
/// The left union is contained iff **every** branch is; a branch's
/// counter-example must escape **every** right-hand branch (∃-side is the
/// union evaluation). The outcome is the weakest across branches:
/// any branch refutation refutes the union containment; any inconclusive
/// branch makes the whole answer inconclusive unless a refutation exists.
pub fn contain_union_with(
    u1: &crpq_query::UnionCrpq,
    u2: &crpq_query::UnionCrpq,
    sem: Semantics,
    limits: ExpansionLimits,
) -> Outcome {
    assert_eq!(
        u1.arity(),
        u2.arity(),
        "union containment requires equal arity"
    );
    let num_symbols = alphabet_span(u1.branches.iter().chain(&u2.branches));
    let mut inconclusive = false;
    for q1 in &u1.branches {
        match find_counter_example(q1, &u2.branches, sem, limits, num_symbols) {
            (Some(c), _) => return Outcome::NotContained(c),
            (None, complete) => inconclusive |= !complete,
        }
    }
    if inconclusive {
        Outcome::Inconclusive { limits }
    } else {
        Outcome::Contained
    }
}

/// The one counter-example walk: enumerates the ★-expansions of `q1`
/// within `limits` and returns the first on which no query of `q2s` holds
/// (the ∃-side, decided by exact evaluation over the expansion viewed as a
/// graph), with whether the enumeration was exhaustive.
fn find_counter_example(
    q1: &Crpq,
    q2s: &[Crpq],
    sem: Semantics,
    limits: ExpansionLimits,
    num_symbols: usize,
) -> (Option<CounterExample>, bool) {
    let mut counter = None;
    let mut check = |cq: &Cq, profile: &[Vec<Symbol>], merges: usize| {
        let g = cq.to_graph_anon(num_symbols);
        let tuple: Vec<NodeId> = cq.free.iter().map(|v| NodeId(v.0)).collect();
        if q2s
            .iter()
            .any(|q2| Eval::new(q2, &g).semantics(sem).contains(&tuple))
        {
            return ControlFlow::Continue(());
        }
        counter = Some(CounterExample {
            witness: cq.clone(),
            profile: profile.to_vec(),
            merges,
        });
        ControlFlow::Break(())
    };
    let outcome = match sem {
        Semantics::Standard | Semantics::QueryInjective => {
            enumerate_expansions(q1, limits, |exp| check(&exp.cq, &exp.profile, 0))
        }
        Semantics::AtomInjective => enumerate_a_inj_expansions(q1, limits, |aexp| {
            check(&aexp.cq, &aexp.base.profile, aexp.merges())
        }),
    };
    (counter, outcome.complete)
}

/// One more than the largest alphabet symbol the queries mention.
fn alphabet_span<'a>(qs: impl IntoIterator<Item = &'a Crpq>) -> usize {
    qs.into_iter()
        .flat_map(|q| q.atoms.iter())
        .flat_map(|a| a.regex.symbols())
        .map(|s| s.index() + 1)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_query::parse_crpq;
    use crpq_util::Interner;

    fn q(text: &str, it: &mut Interner) -> Crpq {
        parse_crpq(text, it).unwrap()
    }

    fn check(q1: &Crpq, q2: &Crpq, sem: Semantics) -> Outcome {
        contain_with(q1, q2, sem, ExpansionLimits::default())
    }

    /// Example 4.7, first pair: Q1 = x -a-> y ∧ y -b-> z, Q2 = x -[a b]-> y.
    #[test]
    fn example_4_7_q1_q2() {
        let mut it = Interner::new();
        let q1 = q("x -[a]-> y, y -[b]-> z", &mut it);
        let q2 = q("x -[a b]-> y", &mut it);
        // Q1 ⊆q-inj Q2 and Q1 ⊆st Q2, but Q1 ⊄a-inj Q2.
        assert!(check(&q1, &q2, Semantics::QueryInjective).is_contained());
        assert!(check(&q1, &q2, Semantics::Standard).is_contained());
        let out = check(&q1, &q2, Semantics::AtomInjective);
        assert!(out.is_not_contained(), "{out:?}");
        if let Outcome::NotContained(ce) = out {
            // The witness merges x and z (the a-inj-expansion F of the paper).
            assert_eq!(ce.merges, 1);
            assert_eq!(ce.witness.num_vars, 2);
        }
    }

    /// Example 4.7, second pair: Q1' = x -a-> y ∧ x -b-> y,
    /// Q2' = x -a-> y ∧ x' -b-> y'.
    #[test]
    fn example_4_7_q1p_q2p() {
        let mut it = Interner::new();
        let q1p = q("x -[a]-> y, x -[b]-> y", &mut it);
        let q2p = q("x -[a]-> y, x' -[b]-> y'", &mut it);
        // Q1' ⊆a-inj Q2' and Q1' ⊆st Q2', but Q1' ⊄q-inj Q2'.
        assert!(check(&q1p, &q2p, Semantics::AtomInjective).is_contained());
        assert!(check(&q1p, &q2p, Semantics::Standard).is_contained());
        assert!(check(&q1p, &q2p, Semantics::QueryInjective).is_not_contained());
    }

    #[test]
    fn reflexivity() {
        let mut it = Interner::new();
        let q1 = q("x -[a b]-> y, y -[c]-> x", &mut it);
        for sem in Semantics::ALL {
            assert!(check(&q1, &q1, sem).is_contained(), "Q ⊆{sem} Q");
        }
    }

    #[test]
    fn finite_relaxation_is_contained() {
        let mut it = Interner::new();
        let q1 = q("x -[a b]-> y", &mut it);
        let q2 = q("x -[a b + a c]-> y", &mut it);
        for sem in Semantics::ALL {
            assert!(check(&q1, &q2, sem).is_contained());
            assert!(check(&q2, &q1, sem).is_not_contained());
        }
    }

    #[test]
    fn star_relaxation_standard() {
        // x -[a a]-> y ⊆ x -[a^+]-> y under every semantics; the left is
        // finite so the check is complete.
        let mut it = Interner::new();
        let q1 = q("x -[a a]-> y", &mut it);
        let q2 = q("x -[a a*]-> y", &mut it);
        for sem in Semantics::ALL {
            assert!(check(&q1, &q2, sem).is_contained(), "under {sem}");
        }
    }

    #[test]
    fn star_lhs_is_inconclusive_or_refuted() {
        let mut it = Interner::new();
        // Free tuples pin the endpoints (the Boolean variants are trivially
        // contained: any a-path contains an a-edge somewhere).
        let q1 = q("(x, y) <- x -[a a*]-> y", &mut it);
        let q2 = q("(x, y) <- x -[a]-> y", &mut it);
        // aa ∈ L(Q1) refutes containment quickly.
        assert!(check(&q1, &q2, Semantics::Standard).is_not_contained());
        // Q1 ⊆ Q1' where Q1' = x -[a* a]-> y is genuinely contained but the
        // left side is infinite: the engine reports Inconclusive (sound).
        let q1b = q("(x, y) <- x -[a* a]-> y", &mut it);
        let out = check(&q1, &q1b, Semantics::Standard);
        assert!(matches!(out, Outcome::Inconclusive { .. }), "{out:?}");
    }

    #[test]
    fn boolean_star_relaxations_are_contained() {
        // Boolean existential queries: x -[a a*]-> y ⊆ x -[a]-> y holds
        // because any non-empty a-path contains an a-edge.
        let mut it = Interner::new();
        let q1 = q("x -[a a]-> y", &mut it);
        let q2 = q("x -[a]-> y", &mut it);
        for sem in Semantics::ALL {
            assert!(check(&q1, &q2, sem).is_contained(), "under {sem}");
        }
    }

    #[test]
    fn free_variable_positions_matter() {
        let mut it = Interner::new();
        let q1 = q("(x, y) <- x -[a]-> y", &mut it);
        let q2 = q("(y, x) <- x -[a]-> y", &mut it);
        // Q1(x,y) returns edges; Q2 returns reversed edges.
        for sem in Semantics::ALL {
            assert!(check(&q1, &q2, sem).is_not_contained(), "under {sem}");
        }
    }

    #[test]
    fn hierarchy_of_containment_strength() {
        // Dropping an atom is a relaxation under st and a-inj.
        let mut it = Interner::new();
        let q1 = q("x -[a]-> y, y -[b]-> z", &mut it);
        let q2 = q("x -[a]-> y", &mut it);
        assert!(check(&q1, &q2, Semantics::Standard).is_contained());
        assert!(check(&q1, &q2, Semantics::AtomInjective).is_contained());
        assert!(check(&q1, &q2, Semantics::QueryInjective).is_contained());
    }

    #[test]
    #[should_panic(expected = "equal free-tuple arity")]
    fn arity_mismatch_panics() {
        let mut it = Interner::new();
        let q1 = q("(x) <- x -[a]-> y", &mut it);
        let q2 = q("x -[a]-> y", &mut it);
        let _ = check(&q1, &q2, Semantics::Standard);
    }

    #[test]
    fn union_right_side_weaker_than_single() {
        use crpq_query::UnionCrpq;
        let mut it = Interner::new();
        // Q1 = x -[a+b]-> y is contained in (x-a->y ∨ x-b->y) but in
        // neither disjunct alone — the union is essential.
        let q1 = q("(x, y) <- x -[a+b]-> y", &mut it);
        let qa = q("(x, y) <- x -[a]-> y", &mut it);
        let qb = q("(x, y) <- x -[b]-> y", &mut it);
        for sem in Semantics::ALL {
            assert!(check(&q1, &qa, sem).is_not_contained());
            assert!(check(&q1, &qb, sem).is_not_contained());
            let out = contain_union_with(
                &UnionCrpq::single(q1.clone()),
                &UnionCrpq::new(vec![qa.clone(), qb.clone()]),
                sem,
                ExpansionLimits::default(),
            );
            assert!(out.is_contained(), "union containment under {sem}: {out:?}");
        }
    }

    #[test]
    fn union_left_side_needs_all_branches() {
        use crpq_query::UnionCrpq;
        let mut it = Interner::new();
        let qa = q("(x, y) <- x -[a]-> y", &mut it);
        let qb = q("(x, y) <- x -[b]-> y", &mut it);
        let u1 = UnionCrpq::new(vec![qa.clone(), qb.clone()]);
        // (a ∨ b) ⊄ a: the b-branch escapes.
        let out = contain_union_with(
            &u1,
            &UnionCrpq::single(qa.clone()),
            Semantics::Standard,
            ExpansionLimits::default(),
        );
        assert!(out.is_not_contained());
        // (a ∨ b) ⊆ (b ∨ a).
        let out = contain_union_with(
            &u1,
            &UnionCrpq::new(vec![qb, qa]),
            Semantics::Standard,
            ExpansionLimits::default(),
        );
        assert!(out.is_contained());
    }

    #[test]
    fn boolean_unsatisfiable_rhs() {
        let mut it = Interner::new();
        let q1 = q("x -[a]-> y", &mut it);
        let q2 = q("x -[∅ b]-> y", &mut it);
        // Q2 never holds, so Q1 ⊄ Q2 (Q1 is satisfiable).
        for sem in Semantics::ALL {
            assert!(check(&q1, &q2, sem).is_not_contained());
        }
    }
}
