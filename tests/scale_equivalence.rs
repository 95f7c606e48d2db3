//! Differential tests pinning the scale-path data structures against
//! oracles: the sparse-offset per-label CSR against the node-major flat
//! adjacency, the column-blocked closure materialiser against per-source
//! sweeps at every block size, and the full join engine (sparse-offset
//! CSR with adaptive semi-join domains) against the legacy enumeration
//! oracle on label-rich Zipf graphs under all three semantics.

use crpq::core::{eval_tuples_enumerate, Eval};
use crpq::graph::rpq::{self, ReachScratch};
use crpq::graph::{generators, NodeId};
use crpq::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The per-label sparse-offset CSR must agree with the node-major flat
    /// adjacency on every (node, label) pair — including labels the node
    /// never carries (absent slots) and labels the graph never uses.
    #[test]
    fn sparse_csr_matches_flat_adjacency(seed in 0u64..100_000) {
        let g = generators::zipf_label_graph(30, 120, 20, 1.0, seed);
        for v in g.nodes() {
            for (sym, _) in g.alphabet().iter() {
                let fwd: Vec<NodeId> = g
                    .out_edges(v)
                    .iter()
                    .filter(|&&(s, _)| s == sym)
                    .map(|&(_, t)| t)
                    .collect();
                prop_assert_eq!(g.successors_slice(v, sym), &fwd[..]);
                let bwd: Vec<NodeId> = g
                    .in_edges(v)
                    .iter()
                    .filter(|&&(s, _)| s == sym)
                    .map(|&(_, t)| t)
                    .collect();
                prop_assert_eq!(g.predecessors_slice(v, sym), &bwd[..]);
            }
        }
    }

    /// The blocked closure materialiser returns the same relation as the
    /// per-source sweeps whatever the block budget — from one word per row
    /// up to a single block.
    #[test]
    fn blocked_closure_matches_sweeps(seed in 0u64..100_000) {
        let mut g = generators::zipf_label_graph(60, 220, 8, 1.0, seed);
        let regex = crpq::automata::parse_regex("l0 (l1+l2)*", g.alphabet_mut()).unwrap();
        let nfa = crpq::automata::Nfa::from_regex(&regex);
        let reference = rpq::rpq_relation(&g, &nfa, &mut ReachScratch::new());
        for budget_bits in [64usize, 1 << 12, usize::MAX] {
            prop_assert_eq!(
                &rpq::rpq_relation_closure_blocked(&g, &nfa, budget_bits),
                &reference,
                "budget {} seed {}", budget_bits, seed
            );
        }
    }

    /// Join engine (adaptive domains over the sparse-offset CSR) ≡
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
    /// relations materialised through every entry path (sequential,
    /// parallel, auto) over anonymous graphs.
    #[test]
    fn reverse_index_matches_forward_transpose(seed in 0u64..100_000) {
        let mut g = generators::anonymous_random_graph(48, 150, 6, seed);
        let regex = crpq::automata::parse_regex("l0 (l1+l2)*", g.alphabet_mut()).unwrap();
        let nfa = crpq::automata::Nfa::from_regex(&regex);
        let reference = rpq::rpq_relation(&g, &nfa, &mut ReachScratch::new());
        for v in g.nodes() {
            let back: Vec<usize> = reference.backward(v).iter().collect();
            let expect: Vec<usize> = g
                .nodes()
                .filter(|&u| reference.contains(u, v))
                .map(crpq::prelude::NodeId::index)
                .collect();
            prop_assert_eq!(back, expect, "column {} seed {}", v.index(), seed);
        }
        let parallel = rpq::rpq_relation_parallel(&g, &nfa, 3);
        prop_assert_eq!(&parallel, &reference);
        let auto = rpq::rpq_relation_auto(&g, &nfa, &mut ReachScratch::new(), 2);
        prop_assert_eq!(&auto, &reference);
    }
}
