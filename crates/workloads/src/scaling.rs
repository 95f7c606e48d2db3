//! Scaling families for experiment E9 (evaluation complexity, Prop 3.1/3.2).
//!
//! * **data complexity**: a fixed small query evaluated over growing random
//!   graphs — standard semantics stays polynomial (product reachability),
//!   the injective semantics hit the NP wall (simple-path search);
//! * **combined complexity**: a growing chain query over a fixed graph.

use crpq_automata::Regex;
use crpq_graph::{generators, GraphDb};
use crpq_query::{parse_crpq, Crpq, CrpqAtom, Var};
use crpq_util::Interner;

/// A fixed 2-atom query exercising all three semantics
/// (`Q(x,y) = x -(ab)*-> y ∧ y -c*-> x`).
pub fn data_complexity_query(alphabet: &mut Interner) -> Crpq {
    parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", alphabet).unwrap() // invariant: fixed workload query text parses
}

/// Growing graph for the data-complexity sweep: `n` nodes, `3n` edges over
/// `{a, b, c}`.
pub fn data_complexity_graph(n: usize, seed: u64) -> GraphDb {
    generators::random_graph(n, 3 * n, &["a", "b", "c"], seed)
}

/// A 3-atom triangle query whose atoms are **all** ε-bearing
/// (`Q(x,y) = x -(ab)*-> y ∧ y -c*-> z ∧ z -(bc)*-> x`): ε-elimination
/// yields 2³ = 8 ε-free variants over only 3 distinct atom languages, each
/// shared by 4 variants. The multi-variant stress case for the relation
/// catalog — a per-variant engine materialises 12 relations where the
/// catalog materialises 3 (hit rate 3/4).
pub fn multi_variant_query(alphabet: &mut Interner) -> Crpq {
    parse_crpq(
        "(x, y) <- x -[(a b)*]-> y, y -[c*]-> z, z -[(b c)*]-> x",
        alphabet,
    )
    .unwrap() // invariant: fixed workload query text parses
}

/// Growing chain query for the combined-complexity sweep: `k` atoms
/// `xᵢ -[a+b]-> xᵢ₊₁` (Boolean).
pub fn combined_complexity_query(k: usize, alphabet: &mut Interner) -> Crpq {
    let a = alphabet.intern("a");
    let b = alphabet.intern("b");
    let atoms = (0..k)
        .map(|i| CrpqAtom {
            src: Var(i as u32),
            dst: Var(i as u32 + 1),
            regex: Regex::alt(vec![Regex::lit(a), Regex::lit(b)]),
        })
        .collect();
    Crpq::boolean(atoms)
}

/// Fixed graph for the combined-complexity sweep.
pub fn combined_complexity_graph(seed: u64) -> GraphDb {
    generators::random_graph(12, 40, &["a", "b"], seed)
}

/// Number of distinct edge labels in the label-rich (Wikidata-style)
/// scaling family — the knob that used to blow up the dense
/// `label × node` index layout.
pub const LABEL_RICH_LABELS: usize = 1000;

/// Zipf exponent of the label-rich family's label-frequency distribution
/// (≈ the skew observed on practical RPQ predicate workloads: a handful of
/// very frequent predicates, a long rare tail).
pub const LABEL_RICH_ZIPF_EXPONENT: f64 = 1.0;

/// The **label-rich scaling graph**: `n` nodes, `4n` edges over
/// [`LABEL_RICH_LABELS`] labels with Zipf-distributed frequencies
/// ([`crpq_graph::generators::zipf_label_graph`]). The scale benchmarks run
/// it at `n = 10⁵`, where a per-direction dense `label × node` offset table
/// would cost `4 · 10⁸` bytes against the node-major adjacency's few MB.
pub fn label_rich_graph(n: usize, seed: u64) -> GraphDb {
    generators::zipf_label_graph(n, 4 * n, LABEL_RICH_LABELS, LABEL_RICH_ZIPF_EXPONENT, seed)
}

/// The query evaluated over [`label_rich_graph`]: a two-atom chain over
/// the five most frequent labels —
/// `Q(x, y) = x -[l0 (l1+l2)*]-> y ∧ y -[l2 (l3+l4)*]-> z` (z
/// existential). The starred sub-expressions keep the product sweeps
/// non-trivial, the `l0`/`l2` anchors keep domains selective (a fraction
/// of `V`, not all of it), and the chain shape leaves a real join to run —
/// exactly the regime the adaptive (sparse) semi-join domains are built
/// for.
pub fn label_rich_query(alphabet: &mut Interner) -> Crpq {
    parse_crpq(
        "(x, y) <- x -[l0 (l1+l2)*]-> y, y -[l2 (l3+l4)*]-> z",
        alphabet,
    )
    .unwrap() // invariant: fixed workload query text parses
}

/// Number of (uniform) edge labels in the million-node scaling family.
/// Small enough that per-label neighbour slices stay non-trivial, large
/// enough that single-label subgraphs (mean degree `4/16 = 0.25`) stay
/// subcritical — so `(lᵢ+lⱼ)*` closures are bushels of small components,
/// not one giant SCC, and relation sizes track the touched sets.
pub const MILLION_LABELS: usize = 16;

/// The **million-node scaling graph**: `n` *anonymous* nodes (pure dense
/// ids, zero name bytes — [`crpq_graph::generators::anonymous_random_graph`])
/// and `4n` uniform edges over [`MILLION_LABELS`] labels. The scale
/// benchmarks run it at `n = 10⁶` / `4·10⁶` edges, where the pre-arena
/// layout (per-node `String` + name index, dense per-sweep stamp arrays,
/// `O(|V|)` reverse-assembly passes per relation) extrapolated to ≥ 1.5 GB
/// — the build+eval pipeline now has to hold index + names under ~200 MB.
pub fn million_graph(n: usize, seed: u64) -> GraphDb {
    crpq_graph::generators::anonymous_random_graph(n, 4 * n, MILLION_LABELS, seed)
}

/// The query evaluated over [`million_graph`]: the same anchored two-atom
/// chain shape as [`label_rich_query`] —
/// `Q(x, y) = x -[l0 (l1+l2)*]-> y ∧ y -[l2 (l3+l4)*]-> z` (z
/// existential). Both atoms are `l`-anchored (non-nullable, so no ε-variant
/// blowup), and the starred tails run over subcritical single-label
/// subgraphs: every product sweep touches a small cone of the 10⁶·|Q|
/// product, which is exactly the regime the sparse sweep scratch and the
/// touched-set relation assembly are built for.
pub fn million_query(alphabet: &mut Interner) -> Crpq {
    parse_crpq(
        "(x, y) <- x -[l0 (l1+l2)*]-> y, y -[l2 (l3+l4)*]-> z",
        alphabet,
    )
    .unwrap() // invariant: fixed workload query text parses
}

/// Zipf exponent of the skewed steal family — deliberately more skewed
/// than [`LABEL_RICH_ZIPF_EXPONENT`]: at 1.4 the head labels carry most
/// of the edges, so a handful of top-level join candidates own most of
/// the search space. The family was built to load a work-stealing search
/// (deleted since); the differential tests keep it as a skewed shape.
pub const STEAL_ZIPF_EXPONENT: f64 = 1.4;

/// The query evaluated over the skewed steal family: the same anchored
/// two-atom chain as [`label_rich_query`] — under the skewed label
/// distribution its `l0`/`l2` anchors produce few but heavy top-level
/// candidates.
pub fn steal_query(alphabet: &mut Interner) -> Crpq {
    label_rich_query(alphabet)
}

/// A worst-case family for simple-path search: a ladder of diamonds where
/// the number of simple paths is exponential in `n`.
pub fn diamond_ladder(n: usize) -> GraphDb {
    let mut b = crpq_graph::GraphBuilder::new();
    for i in 0..n {
        let (s, t) = (format!("s{i}"), format!("s{}", i + 1));
        b.edge(&s, "a", &format!("up{i}"));
        b.edge(&format!("up{i}"), "a", &t);
        b.edge(&s, "a", &format!("dn{i}"));
        b.edge(&format!("dn{i}"), "a", &t);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_core::{eval_tuples_enumerate, Eval, Semantics};

    #[test]
    fn data_family_evaluates() {
        let mut it = Interner::new();
        let q = data_complexity_query(&mut it);
        let g = data_complexity_graph(8, 5);
        let u = crpq_graph::NodeId(0);
        for sem in Semantics::ALL {
            let _ = Eval::new(&q, &g).semantics(sem).contains(&[u, u]); // diagonal always true via ε
        }
    }

    #[test]
    fn combined_family_evaluates() {
        let mut it = Interner::new();
        let q = combined_complexity_query(4, &mut it);
        let g = combined_complexity_graph(1);
        for sem in Semantics::ALL {
            let _ = Eval::new(&q, &g).semantics(sem).contains(&[]);
        }
    }

    #[test]
    fn label_rich_family_evaluates_consistently() {
        // Scaled-down instance of the |V| = 10⁵ family: the join engine
        // (adaptive domains, node-major adjacency) must agree with the
        // enumeration oracle under all three semantics.
        let mut g = crpq_graph::generators::zipf_label_graph(40, 160, 25, 1.0, 7);
        let q = label_rich_query(g.alphabet_mut());
        for sem in Semantics::ALL {
            let join = Eval::new(&q, &g).semantics(sem).tuples();
            let oracle = eval_tuples_enumerate(&q, &g, sem);
            assert_eq!(join, oracle, "label-rich join vs oracle under {sem}");
        }
    }

    #[test]
    fn million_family_scales_down_consistently() {
        // Scaled-down instance of the |V| = 10⁶ family: anonymous nodes,
        // uniform labels, same query shape. The join engine (sparse sweep
        // scratch + touched-set relation assembly) must agree with the
        // enumeration oracle under all three semantics.
        let mut g = crpq_graph::generators::anonymous_random_graph(40, 160, MILLION_LABELS, 3);
        assert!(!g.is_named());
        assert_eq!(g.name_bytes(), 0);
        let q = million_query(g.alphabet_mut());
        for sem in Semantics::ALL {
            let join = Eval::new(&q, &g).semantics(sem).tuples();
            let oracle = eval_tuples_enumerate(&q, &g, sem);
            assert_eq!(join, oracle, "million-family join vs oracle under {sem}");
        }
    }

    #[test]
    fn steal_family_thread_counts_agree() {
        // Scaled-down instance of the skewed steal family: a catalog swept
        // on four threads must agree with one thread under all three
        // semantics.
        let mut g = crpq_graph::generators::zipf_label_graph(40, 160, 25, STEAL_ZIPF_EXPONENT, 13);
        let q = steal_query(g.alphabet_mut());
        for sem in Semantics::ALL {
            let seq = Eval::new(&q, &g).semantics(sem).tuples();
            let four = Eval::new(&q, &g).semantics(sem).threads(4).tuples();
            assert_eq!(seq, four, "four threads vs one under {sem}");
        }
    }

    #[test]
    fn diamond_ladder_shape() {
        let g = diamond_ladder(3);
        assert_eq!(g.num_nodes(), 3 * 2 + 4); // 2 per rung + 4 spine
        assert_eq!(g.num_edges(), 12);
        // a^{2n} path exists from s0 to sn:
        let mut g2 = g.clone();
        let regex = crpq_automata::parse_regex("a a a a a a", g2.alphabet_mut()).unwrap();
        let nfa = crpq_automata::Nfa::from_regex(&regex);
        let s0 = g.node_by_name("s0").unwrap();
        let s3 = g.node_by_name("s3").unwrap();
        assert!(crpq_graph::rpq::simple_path_exists(
            &g2,
            &nfa,
            s0,
            s3,
            &g2.node_set()
        ));
    }
}
