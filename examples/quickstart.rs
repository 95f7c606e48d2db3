//! Quickstart: build a graph, run a CRPQ under all three semantics, and
//! check a containment.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use crpq::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. Build a graph database.
    // ------------------------------------------------------------------
    let mut b = GraphBuilder::new();
    b.edge("ada", "knows", "bob");
    b.edge("bob", "knows", "cleo");
    b.edge("cleo", "knows", "ada");
    b.edge("ada", "worksWith", "cleo");
    let mut g = b.finish();
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // ------------------------------------------------------------------
    // 2. Parse a CRPQ. `knows⁺` is written `knows knows*`.
    // ------------------------------------------------------------------
    let q = parse_crpq(
        "(x, y) <- x -[knows knows*]-> y, y -[worksWith]-> x",
        g.alphabet_mut(),
    )
    .expect("query parses");
    println!("query class: {}", q.classify());

    // ------------------------------------------------------------------
    // 3. Evaluate under the three semantics of the paper (§2.1).
    // ------------------------------------------------------------------
    for sem in Semantics::ALL {
        let tuples = Eval::new(&q, &g).semantics(sem).tuples();
        let rendered: Vec<String> = tuples
            .iter()
            .map(|t| format!("({}, {})", g.node_name(t[0]), g.node_name(t[1])))
            .collect();
        println!("{:>6}: {}", sem.to_string(), rendered.join(" "));
    }

    // ------------------------------------------------------------------
    // 4. Static analysis: containment under each semantics (§4).
    // ------------------------------------------------------------------
    let mut sigma = Interner::new();
    let q1 = parse_crpq("x -[a]-> y, y -[b]-> z", &mut sigma).unwrap();
    let q2 = parse_crpq("x -[a b]-> y", &mut sigma).unwrap();
    println!("\nExample 4.7 of the paper: Q1 = x-a->y ∧ y-b->z, Q2 = x-[ab]->y");
    for sem in Semantics::ALL {
        let out = contain(&q1, &q2, sem);
        println!("  Q1 ⊆{}? {:?}", sem, out.as_bool());
    }
}
