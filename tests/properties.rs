//! Property-based tests (proptest) over the whole stack: the regex/NFA/DFA
//! pipeline, the semantics hierarchy, and evaluator agreement.

use crpq::automata::{dfa, Dfa, Nfa, Regex};
use crpq::core::expansion_eval;
use crpq::prelude::*;
use proptest::prelude::*;

/// A strategy for random regexes over `k` symbols with bounded depth.
fn regex_strategy(k: u32) -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        (0..k).prop_map(|i| Regex::Literal(Symbol(i))),
        Just(Regex::Epsilon),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::star),
            inner.clone().prop_map(Regex::plus),
            inner.prop_map(Regex::optional),
        ]
    })
}

fn words_up_to(k: u32, len: usize) -> Vec<Vec<Symbol>> {
    let mut out: Vec<Vec<Symbol>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<Symbol>> = vec![Vec::new()];
    for _ in 0..len {
        let mut next = Vec::new();
        for w in &frontier {
            for s in 0..k {
                let mut w2 = w.clone();
                w2.push(Symbol(s));
                out.push(w2.clone());
                next.push(w2);
            }
        }
        frontier = next;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// NFA and DFA accept exactly the same words.
    #[test]
    fn nfa_dfa_language_agreement(r in regex_strategy(2)) {
        let nfa = Nfa::from_regex(&r);
        let alphabet = [Symbol(0), Symbol(1)];
        let dfa = Dfa::from_nfa(&nfa, &alphabet);
        for w in words_up_to(2, 4) {
            prop_assert_eq!(nfa.accepts(&w), dfa.accepts(&w), "word {:?}", w);
        }
    }

    /// Minimisation preserves the language and never grows the automaton.
    #[test]
    fn minimisation_sound(r in regex_strategy(2)) {
        let alphabet = [Symbol(0), Symbol(1)];
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r), &alphabet);
        let min = dfa.minimized();
        prop_assert!(min.num_states() <= dfa.num_states());
        prop_assert!(min.equivalent(&dfa));
    }

    /// `nullable` matches NFA ε-acceptance, star-free implies finite.
    #[test]
    fn regex_structure_predicates(r in regex_strategy(2)) {
        let nfa = Nfa::from_regex(&r);
        prop_assert_eq!(r.nullable(), nfa.accepts_epsilon());
        if r.is_star_free() {
            prop_assert!(nfa.is_finite(), "star-free regex {:?} must be finite", r);
        }
    }

    /// `without_epsilon` removes exactly ε.
    #[test]
    fn epsilon_removal_exact(r in regex_strategy(2)) {
        let nfa = Nfa::from_regex(&r);
        let no_eps = nfa.without_epsilon();
        prop_assert!(!no_eps.accepts_epsilon());
        for w in words_up_to(2, 3) {
            if w.is_empty() { continue; }
            prop_assert_eq!(nfa.accepts(&w), no_eps.accepts(&w), "word {:?}", w);
        }
    }

    /// Shortlex enumeration produces exactly the accepted words.
    #[test]
    fn enumeration_matches_membership(r in regex_strategy(2)) {
        let nfa = Nfa::from_regex(&r);
        let listed: std::collections::HashSet<Vec<Symbol>> =
            nfa.words_up_to(3, usize::MAX).into_iter().collect();
        for w in words_up_to(2, 3) {
            prop_assert_eq!(listed.contains(&w), nfa.accepts(&w), "word {:?}", w);
        }
    }

    /// Language subset decision agrees with word-level sampling.
    #[test]
    fn subset_decision_sound(r1 in regex_strategy(2), r2 in regex_strategy(2)) {
        let alphabet = [Symbol(0), Symbol(1)];
        let (n1, n2) = (Nfa::from_regex(&r1), Nfa::from_regex(&r2));
        let subset = dfa::nfa_subset(&n1, &n2, &alphabet);
        if subset {
            for w in words_up_to(2, 4) {
                prop_assert!(!n1.accepts(&w) || n2.accepts(&w), "violating word {:?}", w);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Semantics-level properties (smaller case counts: evaluation is costlier).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Remark 2.1 on random instances.
    #[test]
    fn hierarchy_always_holds(seed in 0u64..5000) {
        let mut sigma = Interner::new();
        let q = crpq::workloads::random::random_query(
            crpq::workloads::random::RandomQueryParams {
                class: QueryClass::CrpqFin,
                num_vars: 3,
                num_atoms: 2,
                alphabet: 2,
                arity: 1,
                max_word: 2,
            },
            &mut sigma,
            seed,
        );
        let g = crpq::workloads::random::random_graph_for(&mut sigma, 2, 5, 10, seed);
        let report = check_hierarchy(&q, &g);
        prop_assert!(report.holds(), "hierarchy violated: {:?}", report);
    }

    /// Direct evaluator ≡ expansion evaluator (Prop 2.2/2.3) on random
    /// finite instances, Boolean case.
    #[test]
    fn evaluators_agree(seed in 0u64..5000) {
        let mut sigma = Interner::new();
        let q = crpq::workloads::random::random_query(
            crpq::workloads::random::RandomQueryParams {
                class: QueryClass::CrpqFin,
                num_vars: 2,
                num_atoms: 2,
                alphabet: 2,
                arity: 0,
                max_word: 2,
            },
            &mut sigma,
            seed,
        );
        let g = crpq::workloads::random::random_graph_for(&mut sigma, 2, 4, 9, seed);
        for sem in Semantics::ALL {
            let direct = Eval::new(&q, &g).semantics(sem).contains(&[]);
            let via_exp = expansion_eval::eval_contains_complete(&q, &g, &[], sem);
            prop_assert_eq!(direct, via_exp, "seed {} sem {}", seed, sem);
        }
    }

    /// The exact regular-pattern CRPQ/CQ procedure agrees with the
    /// exhaustive counter-example engine on finite single-atom instances.
    #[test]
    fn rpq_cq_matches_naive(seed in 0u64..5000) {
        use crpq::containment::rpq_cq::try_contain_rpq_cq_st;
        let mut sigma = Interner::new();
        let q1 = crpq::workloads::random::random_query(
            crpq::workloads::random::RandomQueryParams {
                class: QueryClass::CrpqFin,
                num_vars: 2,
                num_atoms: 1,
                alphabet: 2,
                arity: 0,
                max_word: 3,
            },
            &mut sigma,
            seed,
        );
        let q2 = crpq::workloads::random::random_query(
            crpq::workloads::random::RandomQueryParams {
                class: QueryClass::Cq,
                num_vars: 3,
                num_atoms: 2,
                alphabet: 2,
                arity: 0,
                max_word: 1,
            },
            &mut sigma,
            seed + 9000,
        );
        // Skip self-loop left atoms (outside the fragment).
        prop_assume!(q1.atoms[0].src != q1.atoms[0].dst);
        let exact = try_contain_rpq_cq_st(&q1, &q2);
        let naive = contain_with(
            &q1,
            &q2,
            Semantics::Standard,
            crpq::query::ExpansionLimits {
                    max_word_len: 6,
                    max_expansions: usize::MAX,
                },
        )
        .as_bool();
        if let (Some(e), Some(n)) = (exact, naive) {
            prop_assert_eq!(e, n, "seed {}", seed);
        }
    }

    /// The trail-semantics hierarchy and its cross-link to the
    /// node-injective semantics (§7): q-trail ⊆ a-trail ⊆ st and
    /// a-inj ⊆ a-trail. (`q-inj ⊆ q-trail` is *not* an inclusion under the
    /// disjoint-trails reading: duplicate witness paths break it — found
    /// by this very property test.)
    #[test]
    fn trail_hierarchy_always_holds(seed in 0u64..5000) {
        let mut sigma = Interner::new();
        let q = crpq::workloads::random::random_query(
            crpq::workloads::random::RandomQueryParams {
                class: QueryClass::CrpqFin,
                num_vars: 3,
                num_atoms: 2,
                alphabet: 2,
                arity: 1,
                max_word: 2,
            },
            &mut sigma,
            seed,
        );
        let g = crpq::workloads::random::random_graph_for(&mut sigma, 2, 5, 10, seed + 77);
        let st = Eval::new(&q, &g).tuples();
        let a_inj = Eval::new(&q, &g).semantics(Semantics::AtomInjective).tuples();
        let q_inj = Eval::new(&q, &g).semantics(Semantics::QueryInjective).tuples();
        let a_trail = eval_tuples_trail(&q, &g, TrailSemantics::AtomTrail);
        let q_trail = eval_tuples_trail(&q, &g, TrailSemantics::QueryTrail);
        for t in &q_trail {
            prop_assert!(a_trail.contains(t), "q-trail ⊆ a-trail at {:?}", t);
        }
        for t in &a_trail {
            prop_assert!(st.contains(t), "a-trail ⊆ st at {:?}", t);
        }
        for t in &a_inj {
            prop_assert!(a_trail.contains(t), "a-inj ⊆ a-trail at {:?}", t);
        }
        // q-inj vs q-trail: no inclusion in general — duplicate witness
        // paths are allowed under q-inj (deduplicated expansions) but not
        // under disjoint-trail placement. Document by example rather than
        // asserting an inclusion.
        let _ = q_inj;
    }

    /// Witness extraction is complete and sound: a witness exists exactly
    /// when membership holds, and extracted witnesses pass the independent
    /// verifier.
    #[test]
    fn witnesses_exist_iff_member_and_verify(seed in 0u64..5000) {
        use crpq::core::{eval_witness, verify_witness, Eval};
        let mut sigma = Interner::new();
        let q = crpq::workloads::random::random_query(
            crpq::workloads::random::RandomQueryParams {
                class: QueryClass::Crpq,
                num_vars: 3,
                num_atoms: 2,
                alphabet: 2,
                arity: 1,
                max_word: 2,
            },
            &mut sigma,
            seed,
        );
        let g = crpq::workloads::random::random_graph_for(&mut sigma, 2, 5, 10, seed + 31);
        for sem in Semantics::ALL {
            for node in g.nodes() {
                let member = Eval::new(&q, &g).semantics(sem).contains(&[node]);
                let witness = eval_witness(&q, &g, &[node], sem);
                prop_assert_eq!(member, witness.is_some(), "seed {} sem {}", seed, sem);
                if let Some(w) = witness {
                    let verdict = verify_witness(&q, &g, &[node], sem, &w);
                    prop_assert!(verdict.is_ok(), "seed {} sem {}: {:?}", seed, sem, verdict);
                }
            }
        }
    }

    /// PCP well-formedness coincides with solutionhood on random small
    /// instances (equal-length candidates; the padding refinement is the
    /// documented out-of-scope appendix detail).
    #[test]
    fn pcp_wellformedness_tracks_solutions(seed in 0u64..200) {
        use crpq::reductions::pcp::{
            pcp_to_ainj_containment, satisfies_wellformedness, witness_expansion,
        };
        use crpq::reductions::PcpInstance;
        // Two pairs over {a, b}, word lengths 1–2, derived from the seed.
        let mut s = seed;
        let word = |s: &mut u64| {
            *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let len = 1 + ((*s >> 13) % 2) as usize;
            (0..len).map(|i| if (*s >> (17 + i)) & 1 == 0 { 'a' } else { 'b' }).collect::<String>()
        };
        let inst = PcpInstance {
            pairs: vec![(word(&mut s), word(&mut s)), (word(&mut s), word(&mut s))],
        };
        let mut sigma = Interner::new();
        let red = pcp_to_ainj_containment(&inst, &mut sigma);
        let mut seqs: Vec<Vec<usize>> = Vec::new();
        for a in 0..2 {
            seqs.push(vec![a]);
            for b in 0..2 {
                seqs.push(vec![a, b]);
            }
        }
        for seq in seqs {
            let u_len: usize = seq.iter().map(|&i| inst.pairs[i].0.len()).sum();
            let v_len: usize = seq.iter().map(|&i| inst.pairs[i].1.len()).sum();
            if u_len != v_len {
                continue;
            }
            let cand = witness_expansion(&red, &inst, &seq, false);
            prop_assert_eq!(
                satisfies_wellformedness(&red, &cand),
                inst.is_solution(&seq),
                "instance {:?} sequence {:?}", inst.pairs, seq
            );
        }
    }

    /// Atom minimisation is semantics-preserving: the minimised query gives
    /// the same result set as the original on random databases, under the
    /// semantics it was minimised for.
    #[test]
    fn minimization_preserves_semantics(seed in 0u64..5000) {
        use crpq::containment::optimize::minimize_atoms;
        let mut sigma = Interner::new();
        let q = crpq::workloads::random::random_query(
            crpq::workloads::random::RandomQueryParams {
                class: QueryClass::CrpqFin,
                num_vars: 3,
                num_atoms: 3,
                alphabet: 2,
                arity: 1,
                max_word: 2,
            },
            &mut sigma,
            seed,
        );
        for sem in Semantics::ALL {
            let result = minimize_atoms(&q, sem);
            if result.removed.is_empty() {
                continue;
            }
            let g = crpq::workloads::random::random_graph_for(&mut sigma, 2, 5, 11, seed + 7);
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).tuples(),
                Eval::new(&result.query, &g).semantics(sem).tuples(),
                "seed {} sem {} removed {:?}", seed, sem, result.removed
            );
        }
    }

    /// Containment is reflexive under every semantics (finite queries).
    #[test]
    fn containment_reflexive(seed in 0u64..5000) {
        let mut sigma = Interner::new();
        let q = crpq::workloads::random::random_query(
            crpq::workloads::random::RandomQueryParams {
                class: QueryClass::CrpqFin,
                num_vars: 2,
                num_atoms: 2,
                alphabet: 2,
                arity: 0,
                max_word: 2,
            },
            &mut sigma,
            seed,
        );
        for sem in Semantics::ALL {
            prop_assert!(contain(&q, &q, sem).is_contained(), "seed {} sem {}", seed, sem);
        }
    }
}
