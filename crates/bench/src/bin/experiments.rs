//! The experiment harness: regenerates every figure/table of the paper as
//! console tables (the source of EXPERIMENTS.md's measured columns).
//!
//! ```sh
//! cargo run --release -p crpq-bench --bin experiments
//! ```
//!
//! With `--smoke`, runs only the evaluation benchmark (E2/E9 workloads,
//! join-based engine vs. the legacy enumeration oracle, plus the
//! label-rich scale workload at |V| = 10⁴ and the anonymous million-node
//! family at |V| = 10⁵, plus the streaming rows: time-to-first-tuple,
//! time-to-k, and ASK latency against the warm full-materialisation wall
//! clock at 10⁵ and 10⁶ nodes, with the ≤ 10% time-to-first floor and the
//! ASK ≤ time-to-first floor enforced at 10⁶) and writes the wall-clock
//! and index/name/relation/scratch-memory numbers to `BENCH_eval.json` —
//! the CI perf baseline:
//!
//! ```sh
//! cargo run --release -p crpq-bench --bin experiments -- --smoke
//! ```
//!
//! With `--scale-smoke`, runs the CI scale gates under hard wall-clock
//! ceilings: the |V| = 10⁵, ~10³-label Zipf workload (label-index offsets
//! stay O(|E| + Σ_l |V_l|), not O(|labels|·|V|)), the |V| = 10⁶ and
//! |V| = 10⁷ anonymous workloads at 4 edges/node (zero name bytes, index +
//! names under explicit per-size budgets, sweep scratch far below one
//! dense |V|·|Q| stamp array), plus the skewed-Zipf scheduler check
//! (work stealing vs. the same request on one thread, ≥ 1.5× floor on
//! ≥ 4-CPU machines). Rows append to `BENCH_scale.json` across runs, with
//! re-measured `(workload, |V|, threads)` configurations replacing their
//! prior rows instead of duplicating them:
//!
//! ```sh
//! cargo run --release -p crpq-bench --bin experiments -- --scale-smoke
//! ```
//!
//! With `--mutate-smoke`, runs the dynamic-graph churn gate: the
//! `|V| = 10⁵` million-family graph wrapped in a `DeltaGraph` overlay,
//! churned on one hot label and queried through a persistent catalog by a
//! mixed-label workload, asserting that footprint-keyed invalidation
//! (evict only the entries whose NFA alphabet mentions the churned label)
//! requeries strictly cheaper than evict-all, and that the eviction
//! counters show a strict non-empty subset was evicted. Writes
//! `mutate_rows` into `BENCH_scale.json` (append + dedupe, other arrays
//! carried through):
//!
//! ```sh
//! cargo run --release -p crpq-bench --bin experiments -- --mutate-smoke
//! ```
//!
//! With `--wal-smoke`, runs the durability gate: `|V| = 10⁵` single-label
//! churn through the write-ahead-logged `DurableGraph` on the real
//! filesystem under each sync policy (`always` via group commit,
//! `every:64`, `never`), asserting per-mutation apply latency and
//! recovery (reopen + replay) wall clock stay under their ceilings.
//! Writes `wal_rows` into `BENCH_scale.json` (append + dedupe, other
//! arrays carried through):
//!
//! ```sh
//! cargo run --release -p crpq-bench --bin experiments -- --wal-smoke
//! ```
//!
//! `--threads N` overrides the materialisation/evaluation worker count in
//! all benchmark modes (`0` keeps the documented fallback: one worker per
//! CPU, capped at 16), so baseline numbers are reproducible across
//! machines.

use crpq_containment::abstraction::try_contain_qinj;
use crpq_containment::{contain, Semantics};
use crpq_core::{check_hierarchy, Eval};
use crpq_graph::{generators, rpq};
use crpq_reductions as red;
use crpq_util::Interner;
use crpq_workloads::{figure1, paper_examples as paper, scaling};
use std::time::Instant;

use crpq_bench::bench_eval;

/// Parses `--threads N` from the command line; `0` (the default) keeps
/// the documented per-CPU fallback.
fn threads_flag() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == "--threads" {
            return pair[1]
                .parse()
                .unwrap_or_else(|e| panic!("bad --threads {:?}: {e}", pair[1]));
        }
    }
    0
}

fn main() {
    let threads = threads_flag();
    if std::env::args().any(|a| a == "--scale-smoke") {
        bench_eval::run_scale_smoke("BENCH_scale.json", threads);
        return;
    }
    if std::env::args().any(|a| a == "--mutate-smoke") {
        bench_eval::run_mutate_smoke("BENCH_scale.json", threads);
        return;
    }
    if std::env::args().any(|a| a == "--wal-smoke") {
        bench_eval::run_wal_smoke("BENCH_scale.json");
        return;
    }
    if std::env::args().any(|a| a == "--smoke") {
        bench_eval::run_smoke("BENCH_eval.json", true, threads);
        return;
    }
    println!("# crpq-injective experiment suite\n");
    e1_figure1();
    e2_example21();
    e3_hierarchy();
    e4_example47();
    e5_abstraction();
    e6_pcp();
    e7_gcp2();
    e8_qbf();
    e9_evaluation();
    e10_tractability();
    bench_eval::run_smoke("BENCH_eval.json", false, threads);
    println!("\nAll experiments completed.");
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn verdict(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "⊆",
        Some(false) => "⊄",
        None => "?",
    }
}

// ---------------------------------------------------------------------------

fn e1_figure1() {
    println!("## E1 — Figure 1 (containment landscape)\n");
    println!("| class pair | n | st | q-inj | a-inj |");
    println!("|---|---|---|---|---|");
    for pair in figure1::ClassPair::ALL {
        let n = 2;
        let mut it = Interner::new();
        let inst = figure1::instance(pair, n, true, &mut it);
        let mut row = format!("| {} | {} |", pair.name(), n);
        for sem in [
            Semantics::Standard,
            Semantics::QueryInjective,
            Semantics::AtomInjective,
        ] {
            let (out, ms) = timed(|| contain(&inst.q1, &inst.q2, sem));
            row += &format!(" {} {:.2}ms |", verdict(out.as_bool()), ms);
        }
        println!("{row}");
    }
    println!();
}

fn e2_example21() {
    println!("## E2 — Figure 2 / Example 2.1\n");
    let mut sigma = Interner::new();
    let q = paper::example21_query(&mut sigma);
    let g = paper::example21_g(&sigma);
    let (u, w) = (g.node_by_name("u").unwrap(), g.node_by_name("w").unwrap());
    println!(
        "(u,w) on G : st={} a-inj={} q-inj={}",
        Eval::new(&q, &g).contains(&[u, w]),
        Eval::new(&q, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, w]),
        Eval::new(&q, &g)
            .semantics(Semantics::QueryInjective)
            .contains(&[u, w]),
    );
    let gp = paper::example21_gprime(&sigma);
    let (u, v) = (gp.node_by_name("u").unwrap(), gp.node_by_name("v").unwrap());
    println!(
        "(u,v) on G′: st={} a-inj={} q-inj={}",
        Eval::new(&q, &gp).contains(&[u, v]),
        Eval::new(&q, &gp)
            .semantics(Semantics::AtomInjective)
            .contains(&[u, v]),
        Eval::new(&q, &gp)
            .semantics(Semantics::QueryInjective)
            .contains(&[u, v]),
    );
    println!(
        "Q(G)_st == Q(G)_a-inj: {}\n",
        Eval::new(&q, &g).tuples()
            == Eval::new(&q, &g)
                .semantics(Semantics::AtomInjective)
                .tuples()
    );
}

fn e3_hierarchy() {
    println!("## E3 — Remark 2.1 (hierarchy & selectivity)\n");
    println!("| graph | edges | |st| | |a-inj| | |q-inj| | holds |");
    println!("|---|---|---|---|---|---|");
    let mut sigma = Interner::new();
    let q = paper::example21_query(&mut sigma);
    for (name, g) in [
        ("G", paper::example21_g(&sigma)),
        ("G′", paper::example21_gprime(&sigma)),
        ("G∪G′", paper::example21_full_separation(&sigma)),
    ] {
        let r = check_hierarchy(&q, &g);
        println!(
            "| {name} | {} | {} | {} | {} | {} |",
            g.num_edges(),
            r.standard,
            r.atom_injective,
            r.query_injective,
            r.holds()
        );
    }
    for edges in [12usize, 24, 36] {
        let mut g = generators::random_graph(8, edges, &["a", "b", "c"], 7);
        let q = crpq_query::parse_crpq("(x, y) <- x -[(a b)*]-> y, y -[c*]-> x", g.alphabet_mut())
            .unwrap();
        let r = check_hierarchy(&q, &g);
        println!(
            "| random(8,{edges}) | {edges} | {} | {} | {} | {} |",
            r.standard,
            r.atom_injective,
            r.query_injective,
            r.holds()
        );
    }
    println!();
}

fn e4_example47() {
    println!("## E4 — Example 4.7 (containment incomparability)\n");
    let mut sigma = Interner::new();
    let (q1, q2, q1p, q2p) = paper::example47_queries(&mut sigma);
    println!("| claim | paper | measured |");
    println!("|---|---|---|");
    let rows: Vec<(&str, bool, Option<bool>)> = vec![
        (
            "Q1 ⊆q-inj Q2",
            true,
            contain(&q1, &q2, Semantics::QueryInjective).as_bool(),
        ),
        (
            "Q1 ⊆st Q2",
            true,
            contain(&q1, &q2, Semantics::Standard).as_bool(),
        ),
        (
            "Q1 ⊆a-inj Q2",
            false,
            contain(&q1, &q2, Semantics::AtomInjective).as_bool(),
        ),
        (
            "Q1′ ⊆a-inj Q2′",
            true,
            contain(&q1p, &q2p, Semantics::AtomInjective).as_bool(),
        ),
        (
            "Q1′ ⊆st Q2′",
            true,
            contain(&q1p, &q2p, Semantics::Standard).as_bool(),
        ),
        (
            "Q1′ ⊆q-inj Q2′",
            false,
            contain(&q1p, &q2p, Semantics::QueryInjective).as_bool(),
        ),
    ];
    for (claim, expected, got) in rows {
        println!(
            "| {claim} | {expected} | {} {} |",
            got.map_or("?".into(), |b| b.to_string()),
            if got == Some(expected) { "✓" } else { "✗" }
        );
    }
    println!();
}

fn e5_abstraction() {
    println!("## E5 — Theorem 5.1 (PSpace abstraction engine)\n");
    let mut it = Interner::new();
    let q1 = crpq_query::parse_crpq("(x, z) <- x -[a a*]-> y, y -[b b*]-> z", &mut it).unwrap();
    let q2 = crpq_query::parse_crpq("(x, z) <- x -[a (a+b)* b]-> z", &mut it).unwrap();
    let (fwd, ms1) = timed(|| try_contain_qinj(&q1, &q2));
    let (bwd, ms2) = timed(|| try_contain_qinj(&q2, &q1));
    println!("a⁺·b⁺ ⊆q-inj a(a+b)*b : {fwd:?} in {ms1:.2}ms (bounded engine: inconclusive)");
    println!("a(a+b)*b ⊆q-inj a⁺·b⁺ : {bwd:?} in {ms2:.2}ms (counter-example abab)");
    // Agreement corpus on finite instances:
    let mut agree = 0;
    let mut total = 0;
    for seed in 0..10u64 {
        let mut sigma = Interner::new();
        let p = crpq_workloads::random::RandomQueryParams {
            class: crpq_query::QueryClass::CrpqFin,
            num_vars: 2,
            num_atoms: 2,
            alphabet: 2,
            arity: 0,
            max_word: 2,
        };
        let qa = crpq_workloads::random::random_query(p, &mut sigma, seed);
        let qb = crpq_workloads::random::random_query(
            crpq_workloads::random::RandomQueryParams { num_atoms: 1, ..p },
            &mut sigma,
            seed + 500,
        );
        if let (Some(abs), Some(naive)) = (
            try_contain_qinj(&qa, &qb),
            contain(&qa, &qb, Semantics::QueryInjective).as_bool(),
        ) {
            total += 1;
            agree += usize::from(abs == naive);
        }
    }
    println!("abstraction vs naive agreement on random CRPQ_fin pairs: {agree}/{total}\n");
}

fn e6_pcp() {
    println!("## E6 — Theorem 5.2 (PCP reduction)\n");
    let solvable = red::PcpInstance {
        pairs: vec![("ab".into(), "a".into()), ("c".into(), "bc".into())],
    };
    let unsolvable = red::PcpInstance {
        pairs: vec![("a".into(), "b".into())],
    };
    let (sol, ms) = timed(|| red::pcp_brute_force(&solvable, 6));
    println!("solvable instance (ab,a)(c,bc): solution {sol:?} in {ms:.2}ms");
    let (none, ms) = timed(|| red::pcp_brute_force(&unsolvable, 8));
    println!("unsolvable instance (a,b): {none:?} within bound 8 in {ms:.2}ms");
    let mut it = Interner::new();
    let r = red::pcp_to_ainj_containment(&solvable, &mut it);
    println!(
        "encoding sizes: Q1 {} atoms over {} symbols; Q⟳/Q→ languages finite",
        r.q1.atoms.len(),
        it.len()
    );
    let s = sol.unwrap();
    let (wf, ms) = timed(|| {
        let w = red::pcp::witness_expansion(&r, &solvable, &s, false);
        red::pcp::satisfies_wellformedness(&r, &w)
    });
    println!("solution witness passes all four conditions: {wf} in {ms:.2}ms");
    let (ill, ms) = timed(|| {
        let w = red::pcp::witness_expansion(&r, &solvable, &s, true);
        red::pcp::satisfies_wellformedness(&r, &w)
    });
    println!("misaligned witness passes: {ill} (must be false) in {ms:.2}ms\n");
}

fn e7_gcp2() {
    println!("## E7 — Theorem 6.1 (GCP2 reduction)\n");
    println!("| instance | GCP2 (brute) | reduction verdict | agrees | time |");
    println!("|---|---|---|---|---|");
    let cases: Vec<(&str, red::Gcp2Instance)> = vec![
        (
            "C3, n=2",
            red::Gcp2Instance::new(3, &[(0, 1), (1, 2), (0, 2)], 2),
        ),
        ("P3, n=2", red::Gcp2Instance::new(3, &[(0, 1), (1, 2)], 2)),
        (
            "C4, n=2",
            red::Gcp2Instance::new(4, &[(0, 1), (1, 2), (2, 3), (0, 3)], 2),
        ),
        (
            "C5, n=2",
            red::Gcp2Instance::new(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 2),
        ),
        (
            "K3, n=3",
            red::Gcp2Instance::new(3, &[(0, 1), (1, 2), (0, 2)], 3),
        ),
    ];
    for (name, inst) in cases {
        let brute = red::gcp2_brute_force(&inst);
        let ((via, ms), _) = (
            timed(|| {
                let mut it = Interner::new();
                let (q1, q2, _) = red::gcp2_to_qinj_containment(&inst, &mut it);
                contain(&q1, &q2, Semantics::QueryInjective)
                    .as_bool()
                    .map(|contained| !contained)
            }),
            (),
        );
        println!(
            "| {name} | {brute} | {via:?} | {} | {ms:.1}ms |",
            via == Some(brute)
        );
    }
    println!();
}

fn e8_qbf() {
    println!("## E8 — Theorem 6.2 (∀∃-QBF reduction)\n");
    use red::{Literal, QbfInstance};
    let cases: Vec<(&str, QbfInstance)> = vec![
        (
            "∀x (x)",
            QbfInstance {
                num_universal: 1,
                num_existential: 0,
                clauses: vec![vec![Literal::X(0, true)]],
            },
        ),
        (
            "∀x (x ∨ ¬x)",
            QbfInstance {
                num_universal: 1,
                num_existential: 0,
                clauses: vec![vec![Literal::X(0, true), Literal::X(0, false)]],
            },
        ),
        (
            "∀x ∃y (x∨y)(¬x∨¬y)",
            QbfInstance {
                num_universal: 1,
                num_existential: 1,
                clauses: vec![
                    vec![Literal::X(0, true), Literal::Y(0, true)],
                    vec![Literal::X(0, false), Literal::Y(0, false)],
                ],
            },
        ),
    ];
    println!("| formula | valid (brute) | clean-quotient semantics agree | time |");
    println!("|---|---|---|---|");
    for (name, inst) in cases {
        let brute = red::qbf_brute_force(&inst);
        let (ok, ms) = timed(|| {
            let mut it = Interner::new();
            let r = red::qbf_to_ainj_containment(&inst, &mut it);
            red::qbf::check_reduction_clean_quotients(&inst, &r)
        });
        println!("| {name} | {brute} | {ok} | {ms:.1}ms |");
    }
    println!();
}

fn e9_evaluation() {
    println!("## E9 — Prop 3.1/3.2 (evaluation complexity)\n");
    println!("### data complexity (fixed query, growing random graph)\n");
    println!("| n | st | a-inj | q-inj |");
    println!("|---|---|---|---|");
    let mut sigma = Interner::new();
    let q = scaling::data_complexity_query(&mut sigma);
    for n in [6usize, 10, 14, 18] {
        let g = scaling::data_complexity_graph(n, 11);
        let tuple = [crpq_graph::NodeId(0), crpq_graph::NodeId((n - 1) as u32)];
        let mut row = format!("| {n} |");
        for sem in Semantics::ALL {
            let (_, ms) = timed(|| Eval::new(&q, &g).semantics(sem).contains(&tuple));
            row += &format!(" {ms:.2}ms |");
        }
        println!("{row}");
    }
    println!("\n### the simple-path wall (diamond ladder, failing query)\n");
    println!("| n | simple paths | simple-path search | standard reach |");
    println!("|---|---|---|---|");
    for n in [6usize, 10, 14] {
        let mut g = scaling::diamond_ladder(n);
        let expr = vec!["a"; 2 * n + 1].join(" ");
        let regex = crpq_automata::parse_regex(&expr, g.alphabet_mut()).unwrap();
        let nfa = crpq_automata::Nfa::from_regex(&regex);
        let s = g.node_by_name("s0").unwrap();
        let t = g.node_by_name(&format!("s{n}")).unwrap();
        let (_, ms_simple) = timed(|| rpq::simple_path_exists(&g, &nfa, s, t, &g.node_set()));
        let (_, ms_std) = timed(|| rpq::rpq_exists(&g, &nfa, s, t));
        println!("| {n} | 2^{n} | {ms_simple:.2}ms | {ms_std:.3}ms |");
    }
}

fn e10_tractability() {
    use crpq_automata::tractability::{classify, AnalysisLimits};

    use crpq_query::parse_crpq;

    println!("\n## E10 — §3 trichotomy discussion ([3]): simple-path tractability\n");
    println!("### language classification\n");
    println!("| language | class |");
    println!("|---|---|");
    for expr in [
        "a*",
        "(a a)*",
        "a* b a*",
        "(a b)*",
        "a b + b a",
        "(a+b)* c*",
    ] {
        let mut sigma = Interner::new();
        let nfa =
            crpq_automata::Nfa::from_regex(&crpq_automata::parse_regex(expr, &mut sigma).unwrap());
        let class = classify(&nfa, &nfa.symbols(), AnalysisLimits::default());
        println!("| `{expr}` | {class:?} |");
    }

    println!("\n### deletion-closed fast path (clique + unreachable target, a-inj)\n");
    println!("| n | exact (a·a*) | analyzed (a·a*) | exact ((aa)*) | analyzed ((aa)*) |");
    println!("|---|---|---|---|---|");
    for n in [6usize, 8, 9, 10] {
        let mut b = generators::clique(n, "a").into_builder();
        let t = b.node("t");
        let mut g = b.finish();
        let s = g.node_by_name("v0").unwrap();
        let q_easy = parse_crpq("(x, y) <- x -[a a*]-> y", g.alphabet_mut()).unwrap();
        let q_hard = parse_crpq("(x, y) <- x -[(a a)*]-> y", g.alphabet_mut()).unwrap();
        let (_, e1) = timed(|| {
            Eval::new(&q_easy, &g)
                .semantics(Semantics::AtomInjective)
                .contains(&[s, t])
        });
        let (_, a1) = timed(|| {
            Eval::new(&q_easy, &g)
                .semantics(Semantics::AtomInjective)
                .analyzed()
                .contains(&[s, t])
        });
        let (_, e2) = timed(|| {
            Eval::new(&q_hard, &g)
                .semantics(Semantics::AtomInjective)
                .contains(&[s, t])
        });
        let (_, a2) = timed(|| {
            Eval::new(&q_hard, &g)
                .semantics(Semantics::AtomInjective)
                .analyzed()
                .contains(&[s, t])
        });
        println!("| {n} | {e1:.2}ms | {a1:.3}ms | {e2:.2}ms | {a2:.2}ms |");
    }
}
