//! Trail (edge-injective) semantics — the paper's §7 outlook, implemented.
//!
//! The paper closes by proposing the edge-injective analogues of its two
//! semantics: **atom-edge-injective** (`a-trail`: each atom witnessed by a
//! trail — no repeated edge; closed trail for `x -L-> x` atoms) and
//! **query-edge-injective** (`q-trail`: additionally, witness trails of
//! distinct atoms are pairwise edge-disjoint). Unlike query-injective
//! semantics there is *no* injectivity requirement on the variable
//! assignment — only edges are consumed.
//!
//! The hierarchy (mirroring Remark 2.1, plus a cross-link to the
//! node-injective semantics) is:
//!
//! ```text
//! q-trail ⊆ a-trail ⊆ st        a-inj ⊆ a-trail
//! ```
//!
//! (simple paths are trails). Note that `q-inj ⊆ q-trail` does **not**
//! hold under this operational definition: two atoms may pick *identical*
//! witness paths under q-inj (their expansion atoms coincide after
//! deduplication, so a node-injective homomorphism exists), while q-trail
//! demands pairwise edge-disjoint trails. On instances whose witnesses
//! never duplicate a whole path the inclusion holds — see the tests. The
//! paper's §7 outlook leaves this definitional choice open; we take the
//! disjoint-trails reading (the natural "edge-consuming" semantics).
//!
//! Membership runs the membership engine of [`crate::eval`] under `st`
//! (trail semantics put no injectivity on μ): it pins the free variables,
//! backtracks over the rest with standard-reachability pruning (every trail
//! is a path), and decides each complete assignment with a trail leaf —
//! one [`rpq::for_each_trail`] per atom for a-trail, a jointly
//! edge-disjoint placement over it for q-trail. Each search reads its
//! atom's live states, computed once when the atom was compiled, and
//! writes its state images into a `TrailBuffers` pool of one
//! [`rpq::TrailScratch`] per atom, which a whole evaluation shares.
//! [`eval_tuples_trail`] enumerates all `|V|^arity` candidate tuples and
//! shares one search per variant across them, so its reachability caches
//! amortise.

use crate::eval::{enumerate_tuples, CompiledAtom, Semantics, VariantEval};
use crpq_graph::rpq::{self, Edge, TrailScratch};
use crpq_graph::{GraphDb, NodeId};
use crpq_query::Crpq;
use crpq_util::FxHashSet;
use std::ops::ControlFlow;

/// The two edge-injective semantics of §7.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrailSemantics {
    /// Each atom witnessed by a trail; trails may share edges across atoms.
    AtomTrail,
    /// Witness trails of distinct atoms are pairwise edge-disjoint.
    QueryTrail,
}

impl TrailSemantics {
    /// Both variants.
    pub const ALL: [TrailSemantics; 2] = [TrailSemantics::AtomTrail, TrailSemantics::QueryTrail];

    /// Short display name.
    pub fn short_name(self) -> &'static str {
        match self {
            TrailSemantics::AtomTrail => "a-trail",
            TrailSemantics::QueryTrail => "q-trail",
        }
    }
}

impl std::fmt::Display for TrailSemantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Whether `tuple ∈ Q(G)_sem` under a trail semantics.
///
/// ```
/// use crpq_core::{eval_boolean_trail, TrailSemantics};
/// use crpq_graph::GraphBuilder;
/// use crpq_query::parse_crpq;
///
/// // Figure-of-eight: the trail a·b·c·d revisits m but repeats no edge.
/// let mut b = GraphBuilder::new();
/// b.edge("u", "a", "m").edge("m", "b", "n").edge("n", "c", "m").edge("m", "d", "v");
/// let mut g = b.finish();
/// let q = parse_crpq("x -[a b c d]-> y", g.alphabet_mut()).unwrap();
/// assert!(eval_boolean_trail(&q, &g, TrailSemantics::AtomTrail));
/// // No *simple path* spells abcd (m repeats):
/// use crpq_core::{Eval, Semantics};
/// assert!(!Eval::new(&q, &g).semantics(Semantics::AtomInjective).contains(&[]));
/// ```
pub fn eval_contains_trail(q: &Crpq, g: &GraphDb, tuple: &[NodeId], sem: TrailSemantics) -> bool {
    assert_eq!(
        q.free.len(),
        tuple.len(),
        "tuple arity must match free tuple"
    );
    let mut buffers = TrailBuffers::default();
    q.epsilon_free_union().iter().any(|v| {
        contains(
            &mut VariantEval::build(v, g, Semantics::Standard),
            g,
            tuple,
            sem,
            &mut buffers,
        )
    })
}

/// Whether the Boolean query holds under a trail semantics.
pub fn eval_boolean_trail(q: &Crpq, g: &GraphDb, sem: TrailSemantics) -> bool {
    assert!(
        q.is_boolean(),
        "eval_boolean_trail requires a Boolean query"
    );
    eval_contains_trail(q, g, &[], sem)
}

/// The full result set under a trail semantics (sorted, deduplicated).
pub fn eval_tuples_trail(q: &Crpq, g: &GraphDb, sem: TrailSemantics) -> Vec<Vec<NodeId>> {
    let variants = q.epsilon_free_union();
    // One evaluator per variant, shared across candidate tuples so the
    // reachability caches amortise.
    let mut evals: Vec<_> = variants
        .iter()
        .map(|v| VariantEval::build(v, g, Semantics::Standard))
        .collect();
    let (mut out, mut buffers) = (Vec::new(), TrailBuffers::default());
    let mut tuple = vec![NodeId(0); q.free.len()];
    enumerate_tuples(g, &mut tuple, 0, &mut |tuple: &[NodeId]| {
        if evals
            .iter_mut()
            .any(|e| contains(e, g, tuple, sem, &mut buffers))
        {
            out.push(tuple.to_vec());
        }
    });
    // Tuples are enumerated in lexicographic order, each once.
    out
}

/// The trail leaf's reusable buffers: the one edge set its searches run
/// on (empty between searches) and one search scratch per atom, so the
/// q-trail placement nests each atom's search in the previous one's.
#[derive(Default)]
struct TrailBuffers {
    used: FxHashSet<Edge>,
    depths: Vec<TrailScratch>,
}

/// Trail membership of `tuple` in the variant `eval` searches. `eval` runs
/// under `st`: trail semantics put no injectivity requirement on μ, and
/// standard reachability, which every trail witnesses, only prunes; the
/// trail leaf decides.
fn contains(
    eval: &mut VariantEval<'_, GraphDb>,
    g: &GraphDb,
    tuple: &[NodeId],
    sem: TrailSemantics,
    buffers: &mut TrailBuffers,
) -> bool {
    eval.find(tuple, |e, mu| {
        let atoms = e.atoms();
        let TrailBuffers { used, depths } = &mut *buffers;
        if depths.len() < atoms.len() {
            depths.resize_with(atoms.len(), TrailScratch::default);
        }
        let ok = match sem {
            TrailSemantics::AtomTrail => atoms.iter().all(|a| {
                let (s, d) = (mu[a.src.index()], mu[a.dst.index()]);
                let scratch = &mut depths[0];
                !rpq::for_each_trail(g, &a.nfa, &a.live, s, d, used, scratch, |_, _| {
                    ControlFlow::Break(())
                })
            }),
            TrailSemantics::QueryTrail => place_trails(g, atoms, mu, used, depths),
        };
        ok.then_some(())
    })
    .is_some()
}

/// Joint edge-disjoint placement for query-trail semantics: each atom's
/// search runs inside the previous atom's `visit`, on the one edge set
/// `used`, which then holds every earlier atom's trail. `depths` holds one
/// scratch per atom.
fn place_trails(
    g: &GraphDb,
    atoms: &[CompiledAtom],
    mu: &[NodeId],
    used: &mut FxHashSet<Edge>,
    depths: &mut [TrailScratch],
) -> bool {
    let Some((atom, rest)) = atoms.split_first() else {
        return true;
    };
    // invariant: `contains` sizes `depths` to the atoms.
    let (scratch, deeper) = depths.split_first_mut().expect("a scratch per atom");
    let (s, d) = (mu[atom.src.index()], mu[atom.dst.index()]);
    let mut placed = false;
    rpq::for_each_trail(g, &atom.nfa, &atom.live, s, d, used, scratch, |_, used| {
        placed = place_trails(g, rest, mu, used, deeper);
        if placed {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Eval, Semantics};
    use crpq_automata::Nfa;
    use crpq_graph::{generators, GraphBuilder};
    use crpq_query::parse_crpq;

    fn graph(edges: &[(&str, &str, &str)]) -> GraphDb {
        let mut b = GraphBuilder::new();
        for &(u, l, v) in edges {
            b.edge(u, l, v);
        }
        b.finish()
    }

    #[test]
    fn figure_of_eight_separates_trails_from_simple_paths() {
        // u -a-> m -b-> m2 -c-> m -d-> v: the abcd walk repeats node m but
        // no edge: a trail, not a simple path.
        let mut g = graph(&[
            ("u", "a", "m"),
            ("m", "b", "m2"),
            ("m2", "c", "m"),
            ("m", "d", "v"),
        ]);
        let q = parse_crpq("(x, y) <- x -[a b c d]-> y", g.alphabet_mut()).unwrap();
        let (u, v) = (g.node_by_name("u").unwrap(), g.node_by_name("v").unwrap());
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, v],
            TrailSemantics::AtomTrail
        ));
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, v],
            TrailSemantics::QueryTrail
        ));
        assert!(!Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, v]));
    }

    #[test]
    fn edge_disjointness_vs_sharing() {
        // Two atoms both needing the single a-edge: a-trail allows sharing,
        // q-trail does not.
        let mut g = graph(&[("u", "a", "v")]);
        let q = parse_crpq("x -[a]-> y, x -[a]-> z", g.alphabet_mut()).unwrap();
        assert!(eval_boolean_trail(&q, &g, TrailSemantics::AtomTrail));
        assert!(!eval_boolean_trail(&q, &g, TrailSemantics::QueryTrail));
        // With two parallel a-edges via an extra node, q-trail succeeds.
        let mut g2 = graph(&[("u", "a", "v"), ("u", "a", "w")]);
        let q2 = parse_crpq("x -[a]-> y, x -[a]-> z", g2.alphabet_mut()).unwrap();
        assert!(eval_boolean_trail(&q2, &g2, TrailSemantics::QueryTrail));
    }

    #[test]
    fn trail_semantics_do_not_require_injective_assignment() {
        // Q(x,y) = x -a-> y with tuple (u,u) on an a-loop: q-trail accepts
        // (no variable injectivity), q-inj rejects.
        let mut g = graph(&[("u", "a", "u")]);
        let q = parse_crpq("(x, y) <- x -[a]-> y", g.alphabet_mut()).unwrap();
        let u = g.node_by_name("u").unwrap();
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, u],
            TrailSemantics::QueryTrail
        ));
        assert!(!Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[u, u]));
        // And even a-inj rejects (simple path u→u must be empty):
        assert!(!Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, u]));
    }

    #[test]
    fn closed_trails_for_self_loop_atoms() {
        // x -[a a]-> x: closed trail of length 2 via u→v→u.
        let mut g = graph(&[("u", "a", "v"), ("v", "a", "u")]);
        let q = parse_crpq("x -[a a]-> x", g.alphabet_mut()).unwrap();
        for sem in TrailSemantics::ALL {
            assert!(eval_boolean_trail(&q, &g, sem), "under {sem}");
        }
        // A single self-loop cannot spell aa as a trail (edge repeats).
        let mut g2 = graph(&[("u", "a", "u")]);
        let q2 = parse_crpq("x -[a a]-> x", g2.alphabet_mut()).unwrap();
        assert!(!eval_boolean_trail(&q2, &g2, TrailSemantics::AtomTrail));
    }

    #[test]
    fn hierarchy_with_node_injective_semantics() {
        // q-trail ⊆ a-trail ⊆ st, a-inj ⊆ a-trail, q-inj ⊆ q-trail on the
        // paper's example instances and a random instance.
        for (edges, qtext) in [
            (
                vec![
                    ("u", "a", "v"),
                    ("v", "b", "w"),
                    ("w", "c", "v"),
                    ("v", "c", "u"),
                ],
                "(x, y) <- x -[(a b)*]-> y, y -[c*]-> x",
            ),
            (
                vec![
                    ("u", "a", "w"),
                    ("w", "b", "t"),
                    ("t", "a", "u"),
                    ("u", "b", "v"),
                    ("v", "c", "u"),
                ],
                "(x, y) <- x -[(a b)*]-> y, y -[c*]-> x",
            ),
        ] {
            let mut g = graph(&edges);
            let q = parse_crpq(qtext, g.alphabet_mut()).unwrap();
            let st = Eval::new(&q, &g).tuples();
            let a_inj = Eval::new(&q, &g)
                .semantics(Semantics::AtomInjective)
                .tuples();
            let q_inj = Eval::new(&q, &g)
                .semantics(Semantics::QueryInjective)
                .tuples();
            let a_trail = eval_tuples_trail(&q, &g, TrailSemantics::AtomTrail);
            let q_trail = eval_tuples_trail(&q, &g, TrailSemantics::QueryTrail);
            for t in &q_trail {
                assert!(a_trail.contains(t), "q-trail ⊆ a-trail");
            }
            for t in &a_trail {
                assert!(st.contains(t), "a-trail ⊆ st");
            }
            for t in &a_inj {
                assert!(a_trail.contains(t), "a-inj ⊆ a-trail");
            }
            // On these instances no q-inj witness duplicates a whole
            // path, so the q-inj ⊆ q-trail cross-link holds here (it is
            // not an inclusion in general — see the module docs).
            for t in &q_inj {
                assert!(q_trail.contains(t), "q-inj ⊆ q-trail on this instance");
            }
        }
    }

    #[test]
    fn example21_under_trail_semantics() {
        // On the Example 2.1 graph G, the cc-path and ab-path share node v
        // but no edge: (u,w) holds under q-trail although not under q-inj.
        let mut g = graph(&[
            ("u", "a", "v"),
            ("v", "b", "w"),
            ("w", "c", "v"),
            ("v", "c", "u"),
        ]);
        let q = parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut()).unwrap();
        let (u, w) = (g.node_by_name("u").unwrap(), g.node_by_name("w").unwrap());
        assert!(eval_contains_trail(
            &q,
            &g,
            &[u, w],
            TrailSemantics::QueryTrail
        ));
        assert!(!Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[u, w]));
    }

    /// Brute-force trail membership: every ε-free variant and every
    /// μ ∈ V^vars consistent with `tuple`, with no reachability pruning;
    /// a-trail checks each atom by `trail_exists`, q-trail places
    /// edge-disjoint trails atom by atom.
    fn oracle_contains(q: &Crpq, g: &GraphDb, tuple: &[NodeId], sem: TrailSemantics) -> bool {
        q.epsilon_free_union().iter().any(|variant| {
            let atoms: Vec<(usize, usize, Nfa)> = variant
                .atoms
                .iter()
                .map(|a| (a.src.index(), a.dst.index(), a.nfa()))
                .collect();
            let mut mu = vec![NodeId(0); variant.num_vars];
            loop {
                let pinned = variant
                    .free
                    .iter()
                    .zip(tuple)
                    .all(|(v, &t)| mu[v.index()] == t);
                let holds = pinned
                    && match sem {
                        TrailSemantics::AtomTrail => atoms
                            .iter()
                            .all(|(s, d, nfa)| rpq::trail_exists(g, nfa, mu[*s], mu[*d])),
                        TrailSemantics::QueryTrail => {
                            disjoint_trails(g, &atoms, &mu, &mut Vec::new())
                        }
                    };
                if holds {
                    return true;
                }
                // Next μ in odometer order; `false` once every μ was tried.
                let mut i = 0;
                loop {
                    if i == mu.len() {
                        return false;
                    }
                    mu[i].0 += 1;
                    if mu[i].index() < g.num_nodes() {
                        break;
                    }
                    mu[i] = NodeId(0);
                    i += 1;
                }
            }
        })
    }

    fn disjoint_trails(
        g: &GraphDb,
        atoms: &[(usize, usize, Nfa)],
        mu: &[NodeId],
        used: &mut Vec<Edge>,
    ) -> bool {
        let Some(((s, d, nfa), rest)) = atoms.split_first() else {
            return true;
        };
        let mut blocked: FxHashSet<Edge> = used.iter().copied().collect();
        let (live, mut scratch) = (rpq::LiveStates::new(nfa), TrailScratch::default());
        let mut ok = false;
        rpq::for_each_trail(
            g,
            nfa,
            &live,
            mu[*s],
            mu[*d],
            &mut blocked,
            &mut scratch,
            |edges, _| {
                let before = used.len();
                used.extend_from_slice(edges);
                ok = disjoint_trails(g, rest, mu, used);
                used.truncate(before);
                if ok {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        ok
    }

    #[test]
    fn trail_engine_agrees_with_brute_force_oracle() {
        let queries = [
            // Self-loop atom: a closed trail.
            "(x) <- x -[a b*]-> x",
            // Repeated free variable.
            "(x, x) <- x -[a]-> y, y -[b a*]-> x",
            // Existential variable z.
            "(x, y) <- x -[a]-> z, z -[a + b]-> y",
            // Nullable atom: several ε-free variants.
            "(x, y) <- x -[a b*]-> y, y -[a*]-> z, z -[b]-> x",
        ];
        // Answers per (query, semantics), so a vacuous oracle shows.
        let mut answers = [[0usize; 2]; 4];
        for seed in 0..12 {
            for (qi, text) in queries.into_iter().enumerate() {
                let nodes = 2 + (seed as usize) % 4;
                let mut g = generators::random_graph(nodes, 2 * nodes, &["a", "b"], seed);
                let q = parse_crpq(text, g.alphabet_mut()).unwrap();
                for (si, sem) in TrailSemantics::ALL.into_iter().enumerate() {
                    let mut expected = Vec::new();
                    let mut tuple = vec![NodeId(0); q.free.len()];
                    enumerate_tuples(&g, &mut tuple, 0, &mut |t: &[NodeId]| {
                        let want = oracle_contains(&q, &g, t, sem);
                        assert_eq!(
                            eval_contains_trail(&q, &g, t, sem),
                            want,
                            "{text} at {t:?} under {sem}, seed {seed}"
                        );
                        if want {
                            expected.push(t.to_vec());
                        }
                    });
                    assert_eq!(
                        eval_tuples_trail(&q, &g, sem),
                        expected,
                        "{text} under {sem}, seed {seed}"
                    );
                    answers[qi][si] += expected.len();
                }
            }
        }
        assert!(
            answers.iter().flatten().all(|&n| n > 0),
            "every query has answers under both semantics: {answers:?}"
        );
    }
}
