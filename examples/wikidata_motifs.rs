//! Wikidata-style workload tour (the paper's §1 motivation, citing the
//! query-log studies [7, 8]): run a log of realistically shaped property
//! paths over a synthetic knowledge graph, compare the three semantics per
//! shape class, and use the tractability classifier to predict which
//! queries are cheap under simple-path evaluation.
//!
//! ```sh
//! cargo run --release --example wikidata_motifs
//! ```

use crpq::automata::tractability::{classify, AnalysisLimits, SimplePathClass};
use crpq::prelude::*;
use crpq::workloads::wikidata;

fn main() {
    let g = wikidata::knowledge_graph(60, 7);
    println!(
        "knowledge graph: {} entities, {} statements, properties {:?}",
        g.num_nodes(),
        g.num_edges(),
        wikidata::PROPERTIES
    );

    let mut sigma = g.alphabet().clone();
    let log = wikidata::query_log(12, &mut sigma, 99);
    println!(
        "\n{:<14} {:>5} {:>6} {:>6} {:>6}  analysis",
        "shape", "arity", "st", "a-inj", "q-inj"
    );
    let mut totals = [0usize; 3];
    for (shape, q) in &log {
        let st = Eval::new(q, &g).tuples().len();
        let ai = Eval::new(q, &g)
            .semantics(Semantics::AtomInjective)
            .analyzed()
            .tuples()
            .len();
        let qi = Eval::new(q, &g)
            .semantics(Semantics::QueryInjective)
            .tuples()
            .len();
        assert!(qi <= ai && ai <= st, "Remark 2.1 hierarchy");
        totals[0] += st;
        totals[1] += ai;
        totals[2] += qi;

        // Per-atom tractability: are the simple-path checks of this query
        // guaranteed cheap?
        let all_tractable = q.atoms.iter().all(|atom| {
            let nfa = atom.nfa();
            classify(&nfa, &nfa.symbols(), AnalysisLimits::default())
                .is_some_and(SimplePathClass::is_tractable)
        });
        let note = if all_tractable {
            "all atoms tractable"
        } else {
            "has frontier/hard atom"
        };
        println!(
            "{:<14} {:>5} {:>6} {:>6} {:>6}  {note}",
            format!("{shape:?}"),
            q.free.len(),
            st,
            ai,
            qi
        );
    }
    println!(
        "\ntotals: st {} ⊇ a-inj {} ⊇ q-inj {}  (Remark 2.1 on every query)",
        totals[0], totals[1], totals[2]
    );

    // The log-study observation that powers the fast path: transitive
    // closures of unions of properties are deletion-closed, so their
    // simple-path evaluation is reachability — the common case is the
    // cheap case.
    let mut s2 = Interner::new();
    let closure = parse_regex(
        "(instanceOf + subclassOf)(instanceOf + subclassOf)*",
        &mut s2,
    )
    .unwrap();
    let nfa = Nfa::from_regex(&closure);
    println!(
        "\n`(instanceOf+subclassOf)⁺` classifies as {:?}",
        classify(&nfa, &nfa.symbols(), AnalysisLimits::default()).unwrap()
    );
}
