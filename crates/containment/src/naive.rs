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

use crpq_core::{Eval, Semantics};
use crpq_graph::NodeId;
use crpq_query::expansion::{enumerate_expansions, ExpansionLimits};
use crpq_query::{enumerate_a_inj_expansions, Cq, Crpq};
use crpq_util::sync::atomic::{AtomicBool, Ordering};
use crpq_util::sync::Mutex;
use std::ops::ControlFlow;

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
    pub profile: Vec<Vec<crpq_util::Symbol>>,
    /// Number of variable merges applied (0 unless ★ = a-inj).
    pub merges: usize,
}

/// Budget and execution options.
#[derive(Clone, Copy, Debug)]
pub struct ContainmentConfig {
    /// Expansion enumeration budget for the ∀-side.
    pub limits: ExpansionLimits,
    /// Worker threads for the candidate checks (1 = sequential).
    pub threads: usize,
}

impl Default for ContainmentConfig {
    fn default() -> Self {
        Self {
            limits: ExpansionLimits::default(),
            threads: 1,
        }
    }
}

/// Decides `Q₁ ⊆★ Q₂` with an explicit configuration.
///
/// Both queries must have the same free-tuple arity (containment between
/// different arities is vacuously false and rejected loudly).
pub fn contain_with(q1: &Crpq, q2: &Crpq, sem: Semantics, config: ContainmentConfig) -> Outcome {
    assert_eq!(
        q1.free.len(),
        q2.free.len(),
        "containment requires equal free-tuple arity"
    );
    if config.threads > 1 {
        return contain_parallel(q1, q2, sem, config);
    }
    let num_symbols = alphabet_span(q1, q2);
    let mut counter: Option<CounterExample> = None;

    let check = |cq: &Cq,
                 profile: &[Vec<crpq_util::Symbol>],
                 merges: usize,
                 counter: &mut Option<CounterExample>|
     -> ControlFlow<()> {
        if !is_counter_example(cq, q2, sem, num_symbols) {
            return ControlFlow::Continue(());
        }
        *counter = Some(CounterExample {
            witness: cq.clone(),
            profile: profile.to_vec(),
            merges,
        });
        ControlFlow::Break(())
    };

    let outcome = match sem {
        Semantics::Standard | Semantics::QueryInjective => {
            enumerate_expansions(q1, config.limits, |exp| {
                check(&exp.cq, &exp.profile, 0, &mut counter)
            })
        }
        Semantics::AtomInjective => enumerate_a_inj_expansions(q1, config.limits, |aexp| {
            check(&aexp.cq, &aexp.base.profile, aexp.merges(), &mut counter)
        }),
    };

    match counter {
        Some(c) => Outcome::NotContained(c),
        None if outcome.complete => Outcome::Contained,
        None => Outcome::Inconclusive {
            limits: config.limits,
        },
    }
}

/// `ȳ ∉ Q₂(E₁)★`? — the ∃-side, decided by exact evaluation.
fn is_counter_example(e1: &Cq, q2: &Crpq, sem: Semantics, num_symbols: usize) -> bool {
    let g = e1.to_graph_anon(num_symbols);
    let tuple: Vec<NodeId> = e1.free.iter().map(|v| NodeId(v.0)).collect();
    !Eval::new(q2, &g).semantics(sem).contains(&tuple)
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
    config: ContainmentConfig,
) -> Outcome {
    assert_eq!(
        u1.arity(),
        u2.arity(),
        "union containment requires equal arity"
    );
    let num_symbols = u1
        .branches
        .iter()
        .chain(&u2.branches)
        .flat_map(|q| q.atoms.iter())
        .flat_map(|a| a.regex.symbols())
        .map(|s| s.index() + 1)
        .max()
        .unwrap_or(0);
    let mut inconclusive = false;
    for q1 in &u1.branches {
        let mut counter: Option<CounterExample> = None;
        let check = |cq: &Cq,
                     profile: &[Vec<crpq_util::Symbol>],
                     merges: usize,
                     counter: &mut Option<CounterExample>|
         -> ControlFlow<()> {
            let g = cq.to_graph_anon(num_symbols);
            let tuple: Vec<NodeId> = cq.free.iter().map(|v| NodeId(v.0)).collect();
            let matched = u2
                .branches
                .iter()
                .any(|q2| Eval::new(q2, &g).semantics(sem).contains(&tuple));
            if matched {
                return ControlFlow::Continue(());
            }
            *counter = Some(CounterExample {
                witness: cq.clone(),
                profile: profile.to_vec(),
                merges,
            });
            ControlFlow::Break(())
        };
        let outcome = match sem {
            Semantics::Standard | Semantics::QueryInjective => {
                enumerate_expansions(q1, config.limits, |exp| {
                    check(&exp.cq, &exp.profile, 0, &mut counter)
                })
            }
            Semantics::AtomInjective => enumerate_a_inj_expansions(q1, config.limits, |aexp| {
                check(&aexp.cq, &aexp.base.profile, aexp.merges(), &mut counter)
            }),
        };
        match counter {
            Some(c) => return Outcome::NotContained(c),
            None if outcome.complete => {}
            None => inconclusive = true,
        }
    }
    if inconclusive {
        Outcome::Inconclusive {
            limits: config.limits,
        }
    } else {
        Outcome::Contained
    }
}

fn alphabet_span(q1: &Crpq, q2: &Crpq) -> usize {
    q1.atoms
        .iter()
        .chain(&q2.atoms)
        .flat_map(|a| a.regex.symbols())
        .map(|s| s.index() + 1)
        .max()
        .unwrap_or(0)
}

/// Parallel candidate checking: the enumerator batches candidates, workers
/// evaluate them, an atomic flag short-circuits on the first counter-example.
fn contain_parallel(q1: &Crpq, q2: &Crpq, sem: Semantics, config: ContainmentConfig) -> Outcome {
    const BATCH: usize = 64;
    let num_symbols = alphabet_span(q1, q2);
    let found: Mutex<Option<CounterExample>> = Mutex::new(None);
    let stop = AtomicBool::new(false);

    let mut batch: Vec<CounterExample> = Vec::with_capacity(BATCH);
    let process_batch = |batch: &mut Vec<CounterExample>| {
        if batch.is_empty() || stop.load(Ordering::Relaxed) {
            batch.clear();
            return;
        }
        let (stop_ref, found_ref) = (&stop, &found);
        crpq_util::sync::thread::scope(|scope| {
            let chunk = batch.len().div_ceil(config.threads).max(1);
            for part in batch.chunks(chunk) {
                scope.spawn(move || {
                    for cand in part {
                        if stop_ref.load(Ordering::Relaxed) {
                            return;
                        }
                        if is_counter_example(&cand.witness, q2, sem, num_symbols) {
                            *found_ref.lock().unwrap() = Some(cand.clone()); // poison: re-raise a panicked sibling worker
                            stop_ref.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                });
            }
        });
        batch.clear();
    };

    let push = |cq: &Cq,
                profile: &[Vec<crpq_util::Symbol>],
                merges: usize,
                batch: &mut Vec<CounterExample>|
     -> ControlFlow<()> {
        batch.push(CounterExample {
            witness: cq.clone(),
            profile: profile.to_vec(),
            merges,
        });
        if batch.len() >= BATCH {
            process_batch(batch);
        }
        if stop.load(Ordering::Relaxed) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };

    let outcome = match sem {
        Semantics::Standard | Semantics::QueryInjective => {
            enumerate_expansions(q1, config.limits, |exp| {
                push(&exp.cq, &exp.profile, 0, &mut batch)
            })
        }
        Semantics::AtomInjective => enumerate_a_inj_expansions(q1, config.limits, |aexp| {
            push(&aexp.cq, &aexp.base.profile, aexp.merges(), &mut batch)
        }),
    };
    process_batch(&mut batch);

    let result = found.into_inner().unwrap(); // poison: re-raise a panicked sibling worker
    match result {
        Some(c) => Outcome::NotContained(c),
        None if outcome.complete => Outcome::Contained,
        None => Outcome::Inconclusive {
            limits: config.limits,
        },
    }
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
        contain_with(q1, q2, sem, ContainmentConfig::default())
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
    fn parallel_agrees_with_sequential() {
        let mut it = Interner::new();
        let q1 = q("x -[a+b]-> y, y -[a+b]-> z", &mut it);
        let q2 = q("x -[a]-> y, y -[a]-> z", &mut it);
        for sem in Semantics::ALL {
            let seq = check(&q1, &q2, sem);
            let par = contain_with(
                &q1,
                &q2,
                sem,
                ContainmentConfig {
                    limits: ExpansionLimits::default(),
                    threads: 4,
                },
            );
            assert_eq!(seq.as_bool(), par.as_bool(), "under {sem}");
        }
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
                ContainmentConfig::default(),
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
            ContainmentConfig::default(),
        );
        assert!(out.is_not_contained());
        // (a ∨ b) ⊆ (b ∨ a).
        let out = contain_union_with(
            &u1,
            &UnionCrpq::new(vec![qb, qa]),
            Semantics::Standard,
            ContainmentConfig::default(),
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
