//! The paper's motivating scenario (§1, §7): finding *disjoint* paths.
//!
//! On a social network, "x reaches two different people through completely
//! disjoint acquaintance chains" is expressible only under query-injective
//! semantics — standard and atom-injective semantics let the chains share
//! intermediaries.
//!
//! ```sh
//! cargo run --example social_network
//! ```

use crpq::graph::generators;
use crpq::prelude::*;

fn main() {
    // Two communities bridged by rare follows-edges.
    let mut g = generators::social_network(2, 6, 0.45, 0.03, 42);
    println!(
        "social network: {} people, {} relationships",
        g.num_nodes(),
        g.num_edges()
    );

    // Q(x): x reaches two distinct people via acquaintance chains that are
    // internally disjoint — a "redundant introduction" pattern.
    let q = parse_crpq(
        "(x) <- x -[knows knows]-> y, x -[knows knows]-> z",
        g.alphabet_mut(),
    )
    .unwrap();

    let st = Eval::new(&q, &g).tuples();
    let ai = Eval::new(&q, &g)
        .semantics(Semantics::AtomInjective)
        .tuples();
    let qi = Eval::new(&q, &g)
        .semantics(Semantics::QueryInjective)
        .tuples();
    println!("\npeople with two 2-hop introductions:");
    println!(
        "  standard        : {:>3} (chains may share everyone)",
        st.len()
    );
    println!(
        "  atom-injective  : {:>3} (each chain is a simple path)",
        ai.len()
    );
    println!(
        "  query-injective : {:>3} (chains are pairwise disjoint)",
        qi.len()
    );

    // Show a person separating the semantics, if any.
    if let Some(t) = ai.iter().find(|t| !qi.contains(t)) {
        println!(
            "\n{} has two simple 2-hop chains, but every pair overlaps: \
             a-inj ✓, q-inj ✗",
            g.node_name(t[0])
        );
    }

    // Hierarchy (Remark 2.1) always holds:
    let report = check_hierarchy(&q, &g);
    assert!(report.holds());
    println!(
        "\nRemark 2.1 check: q-inj ⊆ a-inj ⊆ st  ✓  ({} ⊆ {} ⊆ {})",
        report.query_injective, report.atom_injective, report.standard
    );

    // Cross-community couriers: a knows-chain out, a follows-edge back,
    // under each semantics.
    let courier = parse_crpq(
        "(x, y) <- x -[knows knows*]-> y, y -[follows]-> x",
        g.alphabet_mut(),
    )
    .unwrap();
    for sem in Semantics::ALL {
        let n = Eval::new(&courier, &g).semantics(sem).tuples().len();
        println!("courier pairs under {:>6}: {}", sem.to_string(), n);
    }
}
