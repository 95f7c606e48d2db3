//! Differential tests pinning the scale-path data structures against
//! oracles: the per-label adjacency slices against a filter of the edge
//! list (frozen, reversed and overlaid graphs), the materialiser's
//! backward index against its forward rows transposed, and the full join
//! engine (node-major adjacency with adaptive semi-join domains) against
//! the legacy enumeration oracle on label-rich Zipf graphs under all three
//! semantics. The sweeps at a small block size on several workers are
//! compared with the per-source oracle in `crpq_graph::rpq`'s own tests,
//! next to the private sweep they call.

use crpq::core::{eval_tuples_enumerate, Eval};
use crpq::graph::rpq::{self, ReachScratch};
use crpq::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

type EdgeSet = BTreeSet<(NodeId, Symbol, NodeId)>;

/// Every per-label and node-major read of `g` ≡ the matching filter of
/// `edges`, for every node and every label of `g`'s alphabet (including
/// labels no edge carries).
fn assert_reads_match(g: &impl GraphView, edges: &EdgeSet) -> Result<(), String> {
    prop_assert_eq!(g.num_edges(), edges.len());
    let labels: Vec<Symbol> = g.alphabet().iter().map(|(s, _)| s).collect();
    for v in (0..g.num_nodes() as u32).map(NodeId) {
        for &a in &labels {
            let succ: Vec<NodeId> = edges
                .iter()
                .filter(|&&(u, l, _)| u == v && l == a)
                .map(|&(_, _, w)| w)
                .collect();
            let mut pred: Vec<NodeId> = edges
                .iter()
                .filter(|&&(_, l, w)| w == v && l == a)
                .map(|&(u, _, _)| u)
                .collect();
            pred.sort_unstable();
            prop_assert_eq!(g.successors(v, a).collect::<Vec<_>>(), succ.clone());
            prop_assert_eq!(g.predecessors(v, a).collect::<Vec<_>>(), pred.clone());
            prop_assert_eq!(g.out_degree(v, a), succ.len());
            prop_assert_eq!(g.in_degree(v, a), pred.len());
            for &w in &succ {
                prop_assert!(g.has_edge(v, a, w));
            }
        }
        let out: Vec<(Symbol, NodeId)> = edges
            .iter()
            .filter(|&&(u, _, _)| u == v)
            .map(|&(_, l, w)| (l, w))
            .collect();
        let mut inc: Vec<(Symbol, NodeId)> = edges
            .iter()
            .filter(|&&(_, _, w)| w == v)
            .map(|&(u, l, _)| (l, u))
            .collect();
        inc.sort_unstable();
        prop_assert_eq!(g.out_edges_iter(v).collect::<Vec<_>>(), out);
        prop_assert_eq!(g.in_edges_iter(v).collect::<Vec<_>>(), inc);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The node-major adjacency's per-label slices ≡ a filter of the edge
    /// list — on the frozen graph, its reversal, and a `DeltaGraph` after
    /// inserts and deletes. The input has a hub row carrying every label
    /// and a label interned after the build.
    #[test]
    fn label_slices_match_edge_filter(seed in 0u64..100_000) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move |bound: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % bound
        };
        let (n, num_labels) = (30u32, 20u32);
        let mut b = generators::zipf_label_graph(n as usize, 120, num_labels as usize, 1.0, seed)
            .into_builder();
        let hub = NodeId(next(n));
        for l in 0..num_labels {
            for _ in 0..2 {
                b.edge_ids(hub, Symbol(l), NodeId(next(n)));
            }
        }
        let mut g = b.finish();
        let late = g.alphabet_mut().intern("late");
        let mut edges: EdgeSet = g.edges().collect();
        let hub_labels: BTreeSet<Symbol> = g.out_edges(hub).iter().map(|(l, _)| l).collect();
        prop_assert_eq!(hub_labels.len(), num_labels as usize);
        assert_reads_match(&g, &edges)?;
        let reversed: EdgeSet = edges.iter().map(|&(u, l, w)| (w, l, u)).collect();
        assert_reads_match(&g.reversed(), &reversed)?;

        let mut d = DeltaGraph::new(g);
        let fresh = d.add_node();
        for i in 0..40 {
            let u = NodeId(next(n + 1));
            let w = if i % 5 == 0 { fresh } else { NodeId(next(n + 1)) };
            let l = if i % 4 == 0 { late } else { Symbol(next(num_labels)) };
            prop_assert_eq!(d.insert_edge(u, l, w), edges.insert((u, l, w)));
        }
        let victims: Vec<_> = edges.iter().copied().filter(|_| next(3) == 0).collect();
        for (u, l, w) in victims {
            prop_assert!(d.delete_edge(u, l, w));
            edges.remove(&(u, l, w));
        }
        assert_reads_match(&d, &edges)?;
    }

    /// Join engine (adaptive domains over the node-major adjacency) ≡
    /// enumeration oracle on label-rich graphs, all three semantics.
    #[test]
    fn label_rich_join_matches_oracle(seed in 0u64..100_000) {
        let mut g = generators::zipf_label_graph(14, 56, 10, 1.0, seed);
        let q = crpq::workloads::scaling::label_rich_query(g.alphabet_mut());
        for sem in Semantics::ALL {
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).tuples(),
                eval_tuples_enumerate(&q, &g, sem),
                "seed {} sem {}", seed, sem
            );
        }
    }

    /// The million-node family scaled down: the O(touched) assembly +
    /// sparse-scratch paths (anonymous graph, uniform labels, anchored
    /// chain query) ≡ enumeration oracle under all three semantics.
    #[test]
    fn million_family_join_matches_oracle(seed in 0u64..100_000) {
        let mut g = generators::anonymous_random_graph(16, 64, 16, seed);
        let q = crpq::workloads::scaling::million_query(g.alphabet_mut());
        for sem in Semantics::ALL {
            prop_assert_eq!(
                Eval::new(&q, &g).semantics(sem).tuples(),
                eval_tuples_enumerate(&q, &g, sem),
                "seed {} sem {}", seed, sem
            );
        }
    }

    /// Touched-set backward assembly ≡ the forward rows transposed, on
    /// relations materialised by the one public materialiser
    /// (`rpq::rpq_relation`) on one and on two threads over anonymous
    /// graphs. A 48-node graph is one sweep block, so no worker thread
    /// spawns here; multi-worker sweeps are covered by the in-crate
    /// `relation_builder_matches_per_source_oracle`.
    #[test]
    fn reverse_index_matches_forward_transpose(seed in 0u64..100_000) {
        let mut g = generators::anonymous_random_graph(48, 150, 6, seed);
        let regex = crpq::automata::parse_regex("l0 (l1+l2)*", g.alphabet_mut()).unwrap();
        let nfa = crpq::automata::Nfa::from_regex(&regex);
        let (reference, _) = rpq::rpq_relation(&g, &nfa, &mut ReachScratch::new(), 1);
        for v in g.nodes() {
            let back: Vec<usize> = reference.backward(v).iter().collect();
            let expect: Vec<usize> = g
                .nodes()
                .filter(|&u| reference.contains(u, v))
                .map(crpq::prelude::NodeId::index)
                .collect();
            prop_assert_eq!(back, expect, "column {} seed {}", v.index(), seed);
        }
        let (two, _) = rpq::rpq_relation(&g, &nfa, &mut ReachScratch::new(), 2);
        prop_assert_eq!(&two, &reference);
    }
}
