//! `warm_inj_hubs`: a pool spanning the paper's query classes over the
//! hub-skewed graph, against a catalog warmed during set-up. Requests
//! cycle through st, a-inj and q-inj.
//!
//! Nothing is materialised after set-up, so search and injective
//! verification take the whole request. The heavy-hitter triangle is the
//! case where a worst-case-optimal join should pay.

use crate::checks::{self, Hierarchy, RepeatCheck};
use crate::engine::{self, Crpq, GraphDb, RelationCatalog, Semantics};
use crate::harness::{digest, ms_since, Tracer};
use crate::hubs::{self, HubShape};
use crate::layers::{self, BuildStats, LayerInputs, LayerLog, E2E, REQUEST};
use crate::rng::Rng;
use crate::{durable_churn, Config, Outcome};
use std::time::Instant;

pub const SHAPE: HubShape = HubShape {
    nodes: 20_000,
    hub_edges: 12_000,
    d_edges: 4_000,
    exponent: 0.9,
};

/// The small instance the pool is checked on: denser, so that every
/// query has answers to compare.
pub const SMALL_SHAPE: HubShape = HubShape {
    nodes: 60,
    hub_edges: 150,
    d_edges: 40,
    exponent: 0.9,
};

/// The query pool: name (class and shape) and text.
pub const POOL: [(&str, &str); 5] = [
    // CQ, cyclic: the worst-case-optimal executor runs.
    (
        "cq_triangle",
        "(x, y, z) <- x -[a]-> y, y -[b]-> z, z -[c]-> x",
    ),
    // CQ, acyclic: the binary join runs.
    ("cq_path2", "(x, z) <- x -[d]-> y, y -[a]-> z"),
    // CRPQ_fin: concatenations under unions.
    ("fin_chain", "(x, y) <- x -[d (a + b)]-> y, y -[c + d]-> z"),
    ("fin_cycle", "(x, y) <- x -[d c]-> y, y -[a + d]-> x"),
    // CRPQ: one starred atom, over the subcritical label.
    ("crpq_dstar", "(x, y) <- x -[d d*]-> y, y -[b]-> z"),
];

/// The graph is drawn once from this seed, whatever `--seed` says, which
/// picks where the request cycle starts. Injective search cost hangs on a
/// handful of hubs and even on node order: graphs drawn afresh per seed,
/// or merely relabelled, differ in cost by 20–100 %, far more than the
/// engine changes this workload is meant to catch.
pub const GRAPH_SEED: u64 = 0x4855_4253;

/// Requests per run at the least, whatever `--seconds` says.
pub const MIN_REQUESTS: usize = 100;
const SETUPS: usize = 9;

fn build(shape: HubShape) -> GraphDb {
    engine::graph_from_edges(
        shape.nodes,
        &hubs::LABELS,
        &hubs::hub_edges(shape, GRAPH_SEED),
    )
}

fn parse_pool(g: &GraphDb) -> Vec<Crpq> {
    POOL.iter()
        .map(|(_, t)| engine::parse_query(g.alphabet(), t))
        .collect()
}

/// Materialises every relation the pool needs.
fn warm(g: &GraphDb, queries: &[Crpq]) -> RelationCatalog {
    let mut cat = engine::new_catalog(g);
    for q in queries {
        engine::all_answers(q, g, Semantics::Standard, &mut cat);
    }
    cat
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    let mut built = None;
    let mut build_stats = BuildStats::default();
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let g = build(SHAPE);
        let graph_ms = ms_since(t0);
        let queries = parse_pool(&g);
        let cat = warm(&g, &queries);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        build_stats = BuildStats {
            graph_ms,
            index_bytes: engine::index_bytes(&g),
        };
        built = Some((g, queries, cat));
    }
    let (g, queries, mut cat) = built.expect("at least one set-up");
    let warmed = engine::catalog_stats(&cat);

    let small = build(SMALL_SHAPE);
    for (q, (name, _)) in parse_pool(&small).iter().zip(POOL) {
        checks::against_oracle(&mut out.tally, name, q, &small);
    }

    // The traced pass gets a catalog of its own, warmed the same way.
    let mut split_cat = cfg.trace.then(|| warm(&g, &queries));
    let split_warmed = split_cat.as_ref().map(engine::catalog_stats);
    let mut tracer = cfg.trace.then(Tracer::new);
    let mut log = LayerLog::default();
    let mut repeats = RepeatCheck::default();
    let mut hierarchy = Hierarchy::default();
    let start = Instant::now();
    // The cycle of (query, semantics) pairs starts at a seeded offset.
    let offset = Rng::new(cfg.seed).below(POOL.len()) * 3;
    let mut i = 0;
    while i < MIN_REQUESTS || start.elapsed().as_secs_f64() < cfg.seconds {
        let qi = ((offset + i) / 3) % POOL.len();
        let sem = Semantics::ALL[i % 3];
        let q = &queries[qi];
        let root = tracer.as_mut().map(|t| {
            t.begin_request(i as u64);
            (t.enter(REQUEST), t.enter(E2E))
        });
        let t0 = Instant::now();
        let first = engine::first_answer(q, &g, sem, &mut cat);
        let first_ms = ms_since(t0);
        let all = engine::all_answers(q, &g, sem, &mut cat);
        let last_ms = ms_since(t0);
        out.busy_s += last_ms / 1e3;
        out.first_ms.push(first_ms);
        out.last_ms.push(last_ms);

        let key = format!("{}/{sem}", POOL[qi].0);
        let mut err = checks::sorted_distinct(&all)
            .or_else(|| checks::first_within(&first, &all))
            .or_else(|| repeats.check(&key, digest(&all)))
            .or_else(|| hierarchy.check(qi, sem, &all));
        if let (Some(t), Some((root, e2e)), Some(sc)) = (tracer.as_mut(), root, split_cat.as_mut())
        {
            t.exit(e2e);
            let split = layers::split_request(t, q, &g, sem, sc);
            layers::st_bound(t, q, &g, sem, sc);
            t.exit(root);
            err = err.or_else(|| layers::check_split(&split, digest(&all)));
            log.add(&[&split]);
        }
        out.tally.record(err);
        i += 1;
    }
    let misses = engine::catalog_stats(&cat).misses - warmed.misses;
    if misses != 0 {
        out.tally
            .fail(format!("{misses} catalog misses after the warm-up"));
    }

    out.facts = vec![
        ("nodes", SHAPE.nodes.to_string()),
        ("edges", (SHAPE.hub_edges + SHAPE.d_edges).to_string()),
        ("zipf_exponent", SHAPE.exponent.to_string()),
        ("pool", POOL.map(|(n, _)| n).join(",")),
        ("semantics", "st,a-inj,q-inj in turn".to_string()),
        ("catalog_misses_after_setup", misses.to_string()),
    ];
    if let (Some(t), Some(sc), Some(before)) = (tracer.as_ref(), split_cat.as_ref(), split_warmed) {
        let writes = durable_churn::write_probe(&g, "d", cfg, cfg.seed)?;
        out.layers = Some(layers::layer_metrics(&LayerInputs {
            tracer: t,
            log: &log,
            build: build_stats,
            catalog: layers::catalog_since(before, engine::catalog_stats(sc)),
            writes: &writes,
            e2e_runs_first: true,
        }));
    }
    out.tracer = tracer;
    Ok(out)
}
