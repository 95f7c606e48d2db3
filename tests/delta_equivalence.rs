//! Differential tests for the dynamic-graph read path: a [`DeltaGraph`]
//! (base snapshot + sorted overlay) must be observationally equivalent to
//! a frozen [`GraphDb`] rebuilt from scratch over the same edge set, under
//! every semantics and terminal — `tuples` with one and with four
//! materialisation threads, and the stream. Schedules cover mixed
//! insert/delete churn, delete-heavy workloads (tombstone-dominated
//! overlays), and compaction boundaries (tiny threshold, compact + re-wrap
//! mid-schedule). The last tests counter-assert the label-footprint catalog
//! invalidation contract: mutating label `ℓ` evicts exactly the cached
//! relations whose NFA alphabet mentions `ℓ`, and every memoised plan that
//! names one of them, while `invalidate_all` and `rebind` drop every plan.

use crpq::core::{Eval, RelationCatalog, Semantics};
use crpq::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic splitmix64 — mutation schedules must be reproducible from
/// the proptest seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Rebuild a frozen snapshot from whatever the view exposes. Node ids are
/// dense and preserved (anonymous builder assigns `0..n` in order), so
/// answer tuples from the view and the rebuild compare directly.
fn rebuild<G: GraphView>(g: &G) -> GraphDb {
    let mut b = GraphBuilder::anonymous_with_alphabet(g.num_nodes(), g.alphabet().clone());
    for v in 0..g.num_nodes() {
        let v = NodeId(v as u32);
        for (l, t) in g.out_edges_iter(v) {
            b.edge_ids(v, l, t);
        }
    }
    b.finish()
}

/// The acceptance matrix: every semantics × every executor agrees between
/// the overlay view and the from-scratch rebuild.
fn assert_all_executors_agree(q: &Crpq, delta: &DeltaGraph, ctx: &str) {
    let frozen = rebuild(delta);
    assert_eq!(
        frozen.num_edges(),
        GraphView::num_edges(delta),
        "num_edges drifted from the overlay's incremental count [{ctx}]"
    );
    let shared = Arc::new(delta.clone());
    for sem in Semantics::ALL {
        let expect = Eval::new(q, &frozen).semantics(sem).tuples();
        let got = Eval::new(q, delta).semantics(sem).tuples();
        assert_eq!(got, expect, "sequential under {sem} [{ctx}]");
        let parallel = Eval::new(q, delta).semantics(sem).threads(4).tuples();
        assert_eq!(parallel, expect, "parallel under {sem} [{ctx}]");
        let mut streamed: Vec<Vec<NodeId>> =
            Eval::new(q, &shared).semantics(sem).stream().collect();
        streamed.sort();
        assert_eq!(streamed, expect, "stream under {sem} [{ctx}]");
    }
}

fn setup(seed: u64, nodes: usize, edges: usize) -> (Crpq, DeltaGraph, Vec<Symbol>) {
    let mut base = generators::random_graph(nodes, edges, &["a", "b", "c"], seed);
    let q = parse_crpq(
        "(x, y) <- x -[(a+b)b*]-> y, y -[c]-> z",
        base.alphabet_mut(),
    )
    .unwrap();
    let mut g = DeltaGraph::new(base);
    let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|l| g.label(l)).collect();
    (q, g, syms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed churn: interleaved inserts and deletes, including no-op
    /// duplicates and revivals, never diverge from a rebuild.
    #[test]
    fn delta_matches_rebuild_under_mixed_churn(seed in 0u64..100_000) {
        let (q, mut g, syms) = setup(seed, 12, 40);
        let n = GraphView::num_nodes(&g);
        let mut rng = Rng(seed ^ 0xD1F7);
        for step in 0..30 {
            let u = NodeId(rng.below(n) as u32);
            let v = NodeId(rng.below(n) as u32);
            let l = syms[rng.below(syms.len())];
            if rng.below(10) < 6 {
                g.insert_edge(u, l, v);
            } else {
                g.delete_edge(u, l, v);
            }
            if step % 10 == 9 {
                assert_all_executors_agree(&q, &g, &format!("mixed seed {seed} step {step}"));
            }
        }
    }

    /// Delete-heavy schedule: tombstone most of the base so the merge
    /// iterators spend their time cancelling base heads.
    #[test]
    fn delta_matches_rebuild_when_delete_heavy(seed in 0u64..100_000) {
        let (q, mut g, syms) = setup(seed, 12, 40);
        let n = GraphView::num_nodes(&g);
        let mut rng = Rng(seed ^ 0xBEEF);
        let all_edges: Vec<(NodeId, Symbol, NodeId)> = (0..n)
            .flat_map(|v| {
                let v = NodeId(v as u32);
                g.out_edges_iter(v).map(move |(l, t)| (v, l, t)).collect::<Vec<_>>()
            })
            .collect();
        for &(u, l, v) in &all_edges {
            if rng.below(10) < 7 {
                assert!(g.delete_edge(u, l, v), "live base edge must delete");
            }
        }
        // A sprinkle of inserts so adds and dels coexist per node.
        for _ in 0..5 {
            let u = NodeId(rng.below(n) as u32);
            let v = NodeId(rng.below(n) as u32);
            g.insert_edge(u, syms[rng.below(syms.len())], v);
        }
        assert_all_executors_agree(&q, &g, &format!("delete-heavy seed {seed}"));
    }

    /// Compaction boundary: a tiny threshold forces several compact +
    /// re-wrap cycles mid-schedule; equivalence must hold right before and
    /// right after each rebuild, and the final compacted snapshot must
    /// equal the rebuild of the view it replaced.
    #[test]
    fn delta_matches_rebuild_across_compaction(seed in 0u64..100_000) {
        let (q, g, syms) = setup(seed, 10, 30);
        let mut g = DeltaGraph::with_compact_threshold(rebuild(&g), 4);
        let n = GraphView::num_nodes(&g);
        let mut rng = Rng(seed ^ 0xC0DE);
        let mut compactions = 0usize;
        for step in 0..24 {
            let u = NodeId(rng.below(n) as u32);
            let v = NodeId(rng.below(n) as u32);
            let l = syms[rng.below(syms.len())];
            if rng.below(2) == 0 {
                g.insert_edge(u, l, v);
            } else {
                g.delete_edge(u, l, v);
            }
            if g.should_compact() {
                let expect = rebuild(&g);
                assert_all_executors_agree(&q, &g, &format!("pre-compact seed {seed} step {step}"));
                let threshold = g.compact_threshold();
                g.compact_in_place();
                assert_eq!(g.base().num_edges(), expect.num_edges(), "compact edge count");
                assert_eq!(g.compact_threshold(), threshold, "threshold survives");
                assert!(g.delta().is_empty(), "fresh overlay after compaction");
                assert_all_executors_agree(&q, &g, &format!("post-compact seed {seed} step {step}"));
                compactions += 1;
            }
        }
        assert!(compactions >= 1, "threshold 4 must trigger at least one compaction in 24 ops");
        assert_all_executors_agree(&q, &g, &format!("final seed {seed}"));
    }
}

/// Label-footprint catalog invalidation, counter-asserted: after mutating
/// label `a`, only the cached relation whose NFA alphabet mentions `a` is
/// evicted — the disjoint-footprint `c`-relation survives and keeps
/// serving hits — and the catalog-backed answers still match a rebuild.
#[test]
fn footprint_invalidation_evicts_only_matching_entries() {
    let mut base = generators::random_graph(10, 30, &["a", "b", "c"], 7);
    let q_ab = parse_crpq("(x, y) <- x -[a b*]-> y", base.alphabet_mut()).unwrap();
    let q_c = parse_crpq("(x, y) <- x -[c c*]-> y", base.alphabet_mut()).unwrap();
    let d = base.alphabet_mut().intern("d"); // interned, never used by any entry
    let mut g = DeltaGraph::new(base);
    let a = g.label("a");

    let mut catalog = RelationCatalog::new(&g);
    Eval::new(&q_ab, &g).catalog(&mut catalog).tuples();
    Eval::new(&q_c, &g).catalog(&mut catalog).tuples();
    let populated = catalog.cached_entries();
    assert!(
        populated >= 2,
        "both queries must cache at least one relation each"
    );

    // An untouched label evicts nothing.
    assert_eq!(catalog.invalidate_label(d), 0);
    assert_eq!(catalog.evictions(), 0);
    assert_eq!(catalog.cached_entries(), populated);

    // Mutate label `a`: the (a b*) entry goes, the (c c*) entry stays.
    let mutated = g.insert_edge(NodeId(0), a, NodeId(9)) || g.delete_edge(NodeId(0), a, NodeId(9));
    assert!(mutated, "schedule must actually change the graph");
    let evicted = catalog.invalidate_label(a);
    assert_eq!(
        evicted, 1,
        "exactly the footprint-matching entry is evicted"
    );
    assert_eq!(catalog.evictions(), 1);
    assert_eq!(catalog.cached_entries(), populated - 1);

    // The surviving entry is a warm hit: answering `q_c` adds no entries.
    let before = catalog.cached_entries();
    let got_c = Eval::new(&q_c, &g).catalog(&mut catalog).tuples();
    assert_eq!(
        catalog.cached_entries(),
        before,
        "disjoint-footprint entry must be a hit"
    );
    // The evicted entry re-materialises against the mutated view.
    let got_ab = Eval::new(&q_ab, &g).catalog(&mut catalog).tuples();
    assert_eq!(catalog.cached_entries(), populated);

    let frozen = rebuild(&g);
    assert_eq!(got_c, Eval::new(&q_c, &frozen).tuples());
    assert_eq!(got_ab, Eval::new(&q_ab, &frozen).tuples());
}

/// An anonymous overlay over `n` nodes with `a`/`b`/`c` edges, and the
/// query `(x, y) <- x -[a b*]-> y, y -[c]-> z` parsed against it.
fn memo_setup(n: usize, edges: &[(u32, &str, u32)]) -> (Crpq, DeltaGraph) {
    let mut b = GraphBuilder::anonymous(n);
    for &(u, l, v) in edges {
        let l = b.label(l);
        b.edge_ids(NodeId(u), l, NodeId(v));
    }
    let mut base = b.finish();
    let q = parse_crpq("(x, y) <- x -[a b*]-> y, y -[c]-> z", base.alphabet_mut()).unwrap();
    (q, DeltaGraph::new(base))
}

/// A memoised plan is dropped with the relations it names: after new
/// `a`-edges and `invalidate_label(a)`, the warm catalog finds the new
/// answers (the stale plan's pruned domains excluded their sources), and
/// a different relation materialised into the recycled slot cannot leak
/// into the first query's answers.
#[test]
fn memoised_plans_follow_label_invalidation_and_slot_recycling() {
    let edges = [(0, "a", 1), (1, "c", 2), (3, "b", 4), (5, "c", 6)];
    let (q, mut g) = memo_setup(7, &edges);
    let (a, b) = (g.label("a"), g.label("b"));
    let mut catalog = RelationCatalog::new(&g);
    let before = Eval::new(&q, &g).catalog(&mut catalog).tuples();
    assert_eq!(before, vec![vec![NodeId(0), NodeId(1)]]);
    assert_eq!(catalog.cached_plans(), 1);

    // n3 -a-> n5 -c-> n6 answers (n3, n5); n3 was pruned from dom(x).
    assert!(g.insert_edge(NodeId(3), a, NodeId(5)));
    assert_eq!(catalog.invalidate_label(a), 1);
    assert_eq!(catalog.cached_plans(), 0, "the plan named the evicted slot");

    // A `b` relation takes the slot the `a b*` relation vacated.
    let slots = catalog.len();
    let q_b = parse_crpq("(x, y) <- x -[b]-> y", &mut g.alphabet().clone()).unwrap();
    assert_eq!(q_b.atoms[0].regex, crpq::automata::Regex::Literal(b));
    let got_b = Eval::new(&q_b, &g).catalog(&mut catalog).tuples();
    assert_eq!(catalog.len(), slots, "the evicted slot was recycled");
    assert_eq!(got_b, Eval::new(&q_b, &rebuild(&g)).tuples());

    let frozen = rebuild(&g);
    for sem in Semantics::ALL {
        let got = Eval::new(&q, &g)
            .semantics(sem)
            .catalog(&mut catalog)
            .tuples();
        assert_eq!(got, Eval::new(&q, &frozen).semantics(sem).tuples(), "{sem}");
        assert_eq!(got, Eval::new(&q, &g).semantics(sem).tuples(), "{sem}");
        assert!(got.contains(&vec![NodeId(3), NodeId(5)]), "{sem}");
    }
    assert_eq!(catalog.cached_plans(), 2);
}

/// `invalidate_all` and `rebind` (after `add_node` and after compaction)
/// drop every memoised plan, and the replanned answers equal a fresh
/// catalog's.
#[test]
fn invalidate_all_and_rebind_clear_the_plan_memo() {
    let edges = [(0, "a", 1), (1, "c", 2), (3, "b", 4), (5, "c", 6)];
    let (q, mut g) = memo_setup(7, &edges);
    let a = g.label("a");
    let mut catalog = RelationCatalog::new(&g);
    Eval::new(&q, &g).catalog(&mut catalog).tuples();
    assert_eq!(catalog.cached_plans(), 1);

    let replan = |catalog: &mut RelationCatalog, g: &DeltaGraph, ctx: &str| {
        assert_eq!(catalog.cached_plans(), 0, "{ctx}");
        let misses = catalog.misses();
        let got = Eval::new(&q, g).catalog(catalog).tuples();
        assert!(
            catalog.misses() > misses,
            "{ctx}: replanning re-materialises"
        );
        assert_eq!(got, Eval::new(&q, g).tuples(), "{ctx}");
        assert_eq!(catalog.cached_plans(), 1, "{ctx}");
        got
    };

    assert!(g.insert_edge(NodeId(3), a, NodeId(5)));
    catalog.invalidate_all();
    let got = replan(&mut catalog, &g, "invalidate_all");
    assert!(got.contains(&vec![NodeId(3), NodeId(5)]));

    let fresh = g.add_node();
    assert!(g.insert_edge(fresh, a, NodeId(1)));
    catalog.rebind(&g);
    let got = replan(&mut catalog, &g, "rebind after add_node");
    assert!(got.contains(&vec![fresh, NodeId(1)]));

    g.compact_in_place();
    catalog.rebind(&g);
    replan(&mut catalog, &g, "rebind after compaction");
}
