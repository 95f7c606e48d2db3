//! Adversarial cross-validation of the Appendix-C abstraction engine
//! against the exhaustive counter-example engine on random `CRPQ_fin`
//! corpora — including self-loops, free variables, multi-atom sides and
//! 3-letter alphabets. Any disagreement is a real bug in one of the two
//! independent implementations.

use crpq::containment::abstraction::try_contain_qinj;
use crpq::prelude::*;
use crpq::query::ExpansionLimits;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random connected CRPQ_fin with optional self-loops and free vars.
fn random_connected_query(
    rng: &mut StdRng,
    sigma: &mut Interner,
    num_vars: usize,
    num_atoms: usize,
    alphabet: usize,
    arity: usize,
) -> Crpq {
    use crpq::automata::Regex;
    let syms: Vec<Symbol> = (0..alphabet)
        .map(|i| sigma.intern(&format!("s{i}")))
        .collect();
    let mut atoms = Vec::with_capacity(num_atoms);
    for k in 0..num_atoms {
        // Chain-ish connectivity: atom k links var k to a random earlier or
        // later var, keeping the constraint graph connected.
        let src = Var((k % num_vars) as u32);
        let dst = Var(rng.gen_range(0..num_vars) as u32);
        let words: Vec<Regex> = (0..rng.gen_range(1..=2))
            .map(|_| {
                let len = rng.gen_range(1..=2);
                Regex::word(
                    &(0..len)
                        .map(|_| syms[rng.gen_range(0..syms.len())])
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        atoms.push(CrpqAtom {
            src,
            dst,
            regex: Regex::alt(words),
        });
    }
    let free = (0..arity)
        .map(|_| Var(rng.gen_range(0..num_vars) as u32))
        .collect();
    Crpq {
        num_vars,
        atoms,
        free,
    }
}

fn exhaustive(q1: &Crpq, q2: &Crpq) -> Option<bool> {
    contain_with(
        q1,
        q2,
        Semantics::QueryInjective,
        ExpansionLimits {
            max_word_len: 6,
            max_expansions: usize::MAX,
        },
    )
    .as_bool()
}

#[test]
fn abstraction_agrees_on_adversarial_corpus() {
    let mut rng = StdRng::seed_from_u64(20230413); // the paper's arXiv date
    let mut applied = 0usize;
    let mut decided = 0usize;
    for trial in 0..160 {
        let mut sigma = Interner::new();
        let arity = rng.gen_range(0..=1);
        let (v1, a1, k1) = (
            rng.gen_range(2..=3),
            rng.gen_range(1..=2),
            rng.gen_range(2..=3),
        );
        let q1 = random_connected_query(&mut rng, &mut sigma, v1, a1, k1, arity);
        let (a2, k2) = (rng.gen_range(1..=2), rng.gen_range(2..=3));
        let q2 = random_connected_query(&mut rng, &mut sigma, 2, a2, k2, arity);
        if let Some(abs) = try_contain_qinj(&q1, &q2) {
            applied += 1;
            if let Some(naive) = exhaustive(&q1, &q2) {
                decided += 1;
                assert_eq!(
                    abs, naive,
                    "trial {trial}: engines disagree on\n  Q1 = {q1:?}\n  Q2 = {q2:?}"
                );
            }
        }
    }
    // The fragment must actually be exercised, not vacuously skipped.
    assert!(
        applied >= 40,
        "abstraction engine applied only {applied} times"
    );
    assert!(decided >= 40, "cross-checked only {decided} instances");
}

#[test]
fn abstraction_agrees_on_starred_instances_with_planted_words() {
    // For infinite-language left sides the naive engine cannot certify
    // containment, but it can refute: every abstraction-verdict `false`
    // must be confirmed by a bounded counter-example search, and every
    // bounded refutation must be matched by the abstraction engine.
    let mut rng = StdRng::seed_from_u64(7);
    let mut checked = 0usize;
    for _ in 0..60 {
        let mut sigma = Interner::new();
        use crpq::automata::Regex;
        let a = sigma.intern("a");
        let b = sigma.intern("b");
        // Q1 = x -[w1 (w2)*]-> y for random short words.
        let w = |rng: &mut StdRng, max: usize| -> Vec<Symbol> {
            (0..rng.gen_range(1..=max))
                .map(|_| if rng.gen_bool(0.5) { a } else { b })
                .collect()
        };
        let q1 = Crpq::with_free(
            vec![CrpqAtom {
                src: Var(0),
                dst: Var(1),
                regex: Regex::concat(vec![
                    Regex::word(&w(&mut rng, 2)),
                    Regex::star(Regex::word(&w(&mut rng, 2))),
                ]),
            }],
            vec![Var(0), Var(1)],
        );
        let q2 = Crpq::with_free(
            vec![CrpqAtom {
                src: Var(0),
                dst: Var(1),
                regex: Regex::concat(vec![
                    Regex::word(&w(&mut rng, 2)),
                    Regex::star(Regex::word(&w(&mut rng, 2))),
                ]),
            }],
            vec![Var(0), Var(1)],
        );
        let Some(abs) = try_contain_qinj(&q1, &q2) else {
            continue;
        };
        checked += 1;
        let bounded = contain_with(
            &q1,
            &q2,
            Semantics::QueryInjective,
            ExpansionLimits {
                max_word_len: 8,
                max_expansions: 100_000,
            },
        );
        match bounded {
            Outcome::NotContained(_) => {
                assert!(
                    !abs,
                    "bounded refutation vs abstraction `true`:\n{q1:?}\n{q2:?}"
                );
            }
            Outcome::Contained => {
                assert!(abs, "exhaustive containment vs abstraction `false`");
            }
            Outcome::Inconclusive { .. } => {
                // Single-atom q-inj containment coincides with language
                // inclusion (paths embed only as themselves): use the DFA
                // oracle as independent ground truth.
                let alphabet = [a, b];
                let truth = crpq::automata::dfa::nfa_subset(
                    &q1.atoms[0].nfa(),
                    &q2.atoms[0].nfa(),
                    &alphabet,
                );
                assert_eq!(
                    abs, truth,
                    "abstraction vs language inclusion:\n{q1:?}\n{q2:?}"
                );
            }
        }
    }
    assert!(checked >= 30, "only {checked} instances exercised");
}
