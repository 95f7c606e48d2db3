//! A guided tour through every numbered example of the paper, with the
//! library verifying each claim as it goes.
//!
//! ```sh
//! cargo run --example paper_tour
//! ```

use crpq::containment::abstraction;
use crpq::prelude::*;
use crpq::reductions::{
    gcp2_brute_force, gcp2_to_qinj_containment, pcp_brute_force, Gcp2Instance, PcpInstance,
};
use crpq::workloads::paper_examples as paper;

fn check(label: &str, ok: bool) {
    println!("  [{}] {label}", if ok { "✓" } else { "✗" });
    assert!(ok, "paper claim failed: {label}");
}

fn main() {
    // ---------------------------------------------------------------- §1
    println!("§1 — intro example Q = ∃x,y,z. x-(a+b)⁺->y ∧ x-(b+c)⁺->z");
    let mut sigma = Interner::new();
    let q = paper::intro_query(&mut sigma);
    let g = paper::intro_b_path(&sigma, 2);
    check(
        "holds on a b-path under a-inj",
        Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[]),
    );
    check(
        "fails on a b-path under q-inj",
        !Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[]),
    );

    // ---------------------------------------------------- §2.1, Example 2.1
    println!("\n§2.1 — Example 2.1 / Figure 2 (semantics separation)");
    let mut sigma = Interner::new();
    let q = paper::example21_query(&mut sigma);
    let g = paper::example21_g(&sigma);
    let (u, w) = (g.node_by_name("u").unwrap(), g.node_by_name("w").unwrap());
    check(
        "(u,w) ∈ Q(G)_a-inj",
        Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, w]),
    );
    check(
        "(u,w) ∉ Q(G)_q-inj",
        !Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[u, w]),
    );
    check(
        "Q(G)_st = Q(G)_a-inj",
        Eval::new(&q, &g).tuples()
            == Eval::new(&q, &g)
                .semantics(Semantics::AtomInjective)
                .tuples(),
    );
    let gp = paper::example21_gprime(&sigma);
    let (u, v) = (gp.node_by_name("u").unwrap(), gp.node_by_name("v").unwrap());
    check("(u,v) ∈ Q(G′)_st", Eval::new(&q, &gp).contains(&[u, v]));
    check(
        "(u,v) ∉ Q(G′)_a-inj",
        !Eval::new(&q, &gp)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, v]),
    );

    // ------------------------------------------------------- Remark 2.1
    println!("\nRemark 2.1 — the hierarchy q-inj ⊆ a-inj ⊆ st");
    let full = paper::example21_full_separation(&sigma);
    let report = check_hierarchy(&q, &full);
    check("hierarchy holds", report.holds());
    check(
        "all three semantics separated on one graph",
        report.fully_separated(),
    );

    // ------------------------------------------------------- Example 4.7
    println!("\n§4 — Example 4.7 (containment incomparability)");
    let mut sigma = Interner::new();
    let (q1, q2, q1p, q2p) = paper::example47_queries(&mut sigma);
    check(
        "Q1 ⊆q-inj Q2",
        contain(&q1, &q2, Semantics::QueryInjective).is_contained(),
    );
    check(
        "Q1 ⊆st Q2",
        contain(&q1, &q2, Semantics::Standard).is_contained(),
    );
    check(
        "Q1 ⊄a-inj Q2",
        contain(&q1, &q2, Semantics::AtomInjective).is_not_contained(),
    );
    check(
        "Q1′ ⊆a-inj Q2′",
        contain(&q1p, &q2p, Semantics::AtomInjective).is_contained(),
    );
    check(
        "Q1′ ⊆st Q2′",
        contain(&q1p, &q2p, Semantics::Standard).is_contained(),
    );
    check(
        "Q1′ ⊄q-inj Q2′",
        contain(&q1p, &q2p, Semantics::QueryInjective).is_not_contained(),
    );

    // ----------------------------------------------- Theorem 5.1 machinery
    println!("\n§5 — Theorem 5.1: the PSpace abstraction engine at work");
    let mut sigma = Interner::new();
    let qa = parse_crpq("(x, z) <- x -[a a*]-> y, y -[b b*]-> z", &mut sigma).unwrap();
    let qb = parse_crpq("(x, z) <- x -[a (a+b)* b]-> z", &mut sigma).unwrap();
    check(
        "a⁺·b⁺ chain ⊆q-inj a(a+b)*b (infinite languages, exact verdict)",
        abstraction::try_contain_qinj(&qa, &qb) == Some(true),
    );
    check(
        "converse refuted (abab-expansion)",
        abstraction::try_contain_qinj(&qb, &qa) == Some(false),
    );

    // ----------------------------------------------- Theorem 5.2 (PCP)
    println!("\n§5 — Theorem 5.2: the PCP reduction skeleton");
    let inst = PcpInstance {
        pairs: vec![("ab".into(), "a".into()), ("c".into(), "bc".into())],
    };
    let sol = pcp_brute_force(&inst, 6).unwrap();
    check("PCP instance (ab,a)(c,bc) solved by 1·2", sol == vec![0, 1]);
    let mut sigma = Interner::new();
    let red = crpq::reductions::pcp_to_ainj_containment(&inst, &mut sigma);
    let witness = crpq::reductions::pcp::witness_expansion(&red, &inst, &sol, false);
    check(
        "solution witness satisfies the I-Î condition",
        crpq::reductions::pcp::satisfies_wellformedness(&red, &witness),
    );

    // ----------------------------------------------- Theorem 6.1 (GCP2)
    println!("\n§6 — Theorem 6.1: GCP2 ⇒ q-inj containment (Figure 6)");
    let tri = Gcp2Instance::new(3, &[(0, 1), (1, 2), (0, 2)], 2);
    let mut sigma = Interner::new();
    let (g1, g2, _) = gcp2_to_qinj_containment(&tri, &mut sigma);
    check(
        "triangle not 2-colourable (brute force)",
        !gcp2_brute_force(&tri),
    );
    check(
        "reduction: Q1 ⊆q-inj Q2 (negative instance)",
        contain(&g1, &g2, Semantics::QueryInjective).is_contained(),
    );

    println!("\nAll paper claims verified. ∎");
}
