//! Random query and instance generation, seeded and reproducible.

use crpq_automata::Regex;
use crpq_graph::{generators, GraphDb};
use crpq_query::{Crpq, CrpqAtom, QueryClass, Var};
use crpq_util::{Interner, Symbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for random CRPQ generation.
#[derive(Clone, Copy, Debug)]
pub struct RandomQueryParams {
    /// Target query class.
    pub class: QueryClass,
    /// Number of variables.
    pub num_vars: usize,
    /// Number of atoms.
    pub num_atoms: usize,
    /// Alphabet size.
    pub alphabet: usize,
    /// Free-variable tuple arity.
    pub arity: usize,
    /// Maximum word length inside finite languages / concatenations.
    pub max_word: usize,
}

impl Default for RandomQueryParams {
    fn default() -> Self {
        Self {
            class: QueryClass::CrpqFin,
            num_vars: 3,
            num_atoms: 3,
            alphabet: 3,
            arity: 0,
            max_word: 2,
        }
    }
}

/// Generates a random CRPQ of the requested class. Symbols `s0…s{k-1}` are
/// interned into `alphabet`.
pub fn random_query(params: RandomQueryParams, alphabet: &mut Interner, seed: u64) -> Crpq {
    let mut rng = StdRng::seed_from_u64(seed);
    let syms: Vec<Symbol> = (0..params.alphabet)
        .map(|i| alphabet.intern(&format!("s{i}")))
        .collect();
    let mut atoms = Vec::with_capacity(params.num_atoms);
    for _ in 0..params.num_atoms {
        let src = Var(rng.gen_range(0..params.num_vars) as u32);
        let dst = Var(rng.gen_range(0..params.num_vars) as u32);
        let regex = random_regex(&params, &syms, &mut rng);
        atoms.push(CrpqAtom { src, dst, regex });
    }
    let free = (0..params.arity)
        .map(|_| Var(rng.gen_range(0..params.num_vars) as u32))
        .collect();
    Crpq {
        num_vars: params.num_vars,
        atoms,
        free,
    }
}

fn random_regex(params: &RandomQueryParams, syms: &[Symbol], rng: &mut StdRng) -> Regex {
    let word = |rng: &mut StdRng| {
        let len = rng.gen_range(1..=params.max_word.max(1));
        Regex::word(
            &(0..len)
                .map(|_| syms[rng.gen_range(0..syms.len())])
                .collect::<Vec<_>>(),
        )
    };
    match params.class {
        QueryClass::Cq => Regex::lit(syms[rng.gen_range(0..syms.len())]),
        QueryClass::CrpqFin => {
            let alts = rng.gen_range(1..=2);
            Regex::alt((0..alts).map(|_| word(rng)).collect())
        }
        QueryClass::Crpq => {
            // A starred block optionally preceded/followed by words, never ε.
            let core = Regex::star(word(rng));
            let prefix = word(rng);
            Regex::concat(vec![prefix, core])
        }
    }
}

/// A random labelled graph whose alphabet lines up with `alphabet`'s
/// `s0…s{k-1}` symbols.
pub fn random_graph_for(
    alphabet: &mut Interner,
    k: usize,
    nodes: usize,
    edges: usize,
    seed: u64,
) -> GraphDb {
    let labels: Vec<String> = (0..k).map(|i| format!("s{i}")).collect();
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    for l in &labels {
        alphabet.intern(l);
    }
    // generators::random_graph interns labels in first-use order s0..s{k-1},
    // matching `alphabet` as long as callers intern the same way.
    generators::random_graph(nodes, edges, &refs, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_core::{Eval, Semantics};

    #[test]
    fn random_query_class_respected() {
        let mut it = Interner::new();
        for (seed, class) in [
            (1, QueryClass::Cq),
            (2, QueryClass::CrpqFin),
            (3, QueryClass::Crpq),
        ] {
            let q = random_query(
                RandomQueryParams {
                    class,
                    ..Default::default()
                },
                &mut it,
                seed,
            );
            // Classification is monotone: a CQ also classifies as CQ, etc.
            assert!(
                q.classify() <= class,
                "wanted {class:?}, got {:?}",
                q.classify()
            );
            assert_eq!(q.atoms.len(), 3);
        }
    }

    #[test]
    fn deterministic_generation() {
        let mut it1 = Interner::new();
        let mut it2 = Interner::new();
        let q1 = random_query(Default::default(), &mut it1, 7);
        let q2 = random_query(Default::default(), &mut it2, 7);
        assert_eq!(q1, q2);
    }

    #[test]
    fn hierarchy_property_on_random_instances() {
        // Remark 2.1 on random query/graph pairs — the core of experiment E3.
        for seed in 0..4 {
            let mut it = Interner::new();
            let q = random_query(
                RandomQueryParams {
                    arity: 1,
                    ..Default::default()
                },
                &mut it,
                seed,
            );
            let g = random_graph_for(&mut it, 3, 6, 14, seed);
            let st = Eval::new(&q, &g).tuples();
            let ai = Eval::new(&q, &g)
                .semantics(Semantics::AtomInjective)
                .tuples();
            let qi = Eval::new(&q, &g)
                .semantics(Semantics::QueryInjective)
                .tuples();
            for t in &qi {
                assert!(ai.contains(t), "q-inj ⊆ a-inj failed on seed {seed}");
            }
            for t in &ai {
                assert!(st.contains(t), "a-inj ⊆ st failed on seed {seed}");
            }
        }
    }
}
