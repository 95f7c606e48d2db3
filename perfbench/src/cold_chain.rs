//! `cold_chain_1m`: anchored two-atom chains over the uniform 10⁶-node
//! graph, each request a drained stream with a fresh catalog under st.
//!
//! Materialisation is most of a request and verification does no work:
//! this is where cold time to first tuple and scaling of the relation
//! layer show.

use crate::checks::{self, RepeatCheck};
use crate::engine::{self, Crpq, GraphDb, Semantics, Tuple};
use crate::harness::{digest, ms_since, Tracer};
use crate::layers::{self, BuildStats, LayerInputs, LayerLog, E2E, REQUEST};
use crate::rng::Rng;
use crate::{durable_churn, Config, Outcome};
use std::sync::Arc;
use std::time::Instant;

pub const NODES: usize = 1_000_000;
/// Distinct chain queries in the pool.
pub const POOL: usize = 20;
/// Node count of the small instance the pool is checked on.
pub const SMALL_NODES: usize = 60;
const SETUPS: usize = 3;
const LABELS: usize = 16;

/// `x -[lA (lB+lC)*]-> y, y -[lC (lD+lE)*]-> z` with five distinct labels
/// drawn per query.
pub fn pool(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    (0..POOL)
        .map(|_| {
            let mut picked: Vec<usize> = Vec::with_capacity(5);
            while picked.len() < 5 {
                let l = rng.below(LABELS);
                if !picked.contains(&l) {
                    picked.push(l);
                }
            }
            let [a, b, c, d, e] = [picked[0], picked[1], picked[2], picked[3], picked[4]];
            format!("(x, y) <- x -[l{a} (l{b}+l{c})*]-> y, y -[l{c} (l{d}+l{e})*]-> z")
        })
        .collect()
}

/// One drained stream: latency to the first and the last answer, the gaps
/// between answers, and the answers themselves.
struct Drained {
    first_ms: f64,
    last_ms: f64,
    gaps_us: Vec<f64>,
    answers: Vec<Tuple>,
}

fn drain(q: &Crpq, g: &Arc<GraphDb>) -> Drained {
    let t0 = Instant::now();
    let mut stream = engine::stream_answers(q, g, Semantics::Standard);
    let mut answers = Vec::new();
    let mut gaps_us = Vec::new();
    let mut first_ms = None;
    let mut prev = t0;
    for t in stream.by_ref() {
        let now = Instant::now();
        if first_ms.is_none() {
            first_ms = Some((now - t0).as_secs_f64() * 1e3);
        } else {
            gaps_us.push((now - prev).as_secs_f64() * 1e6);
        }
        prev = now;
        answers.push(t);
    }
    let last_ms = ms_since(t0);
    drop(stream);
    Drained {
        first_ms: first_ms.unwrap_or(last_ms),
        last_ms,
        gaps_us,
        answers,
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut rng = Rng::new(cfg.seed);
    let (graph_seed, pool_seed) = (rng.fork(), rng.fork());
    let mut out = Outcome::default();

    let mut build = BuildStats::default();
    let mut graph = None;
    for _ in 0..SETUPS {
        drop(graph.take());
        let t0 = Instant::now();
        let g = engine::million_graph(NODES, graph_seed);
        let secs = t0.elapsed().as_secs_f64();
        out.setup_s.push(secs);
        build = BuildStats {
            graph_ms: secs * 1e3,
            index_bytes: engine::index_bytes(&g),
        };
        graph = Some(g);
    }
    let g = graph.expect("at least one set-up");
    let texts = pool(pool_seed);
    let queries: Vec<Crpq> = texts
        .iter()
        .map(|t| engine::parse_query(g.alphabet(), t))
        .collect();

    let small = Arc::new(engine::million_graph(SMALL_NODES, graph_seed));
    for text in &texts {
        let q = engine::parse_query(small.alphabet(), text);
        checks::against_oracle(&mut out.tally, text, &q, &*small);
        let mut streamed = drain(&q, &small).answers;
        streamed.sort_unstable();
        let want = engine::oracle_answers(&q, &*small, Semantics::Standard);
        out.tally
            .record((streamed != want).then(|| format!("{text}: stream differs from the oracle")));
    }

    let g = Arc::new(g);
    let mut tracer = cfg.trace.then(Tracer::new);
    let mut log = LayerLog::default();
    let mut catalogs = engine::CatalogStats::default();
    let mut repeats = RepeatCheck::default();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let q = &queries[i % POOL];
        let key = format!("q{}", i % POOL);
        let root = tracer.as_mut().map(|t| {
            t.begin_request(i as u64);
            (t.enter(REQUEST), t.enter(E2E))
        });
        let d = drain(q, &g);
        out.busy_s += d.last_ms / 1e3;
        out.first_ms.push(d.first_ms);
        out.last_ms.push(d.last_ms);
        out.gaps_us.extend_from_slice(&d.gaps_us);

        let mut answers = d.answers;
        let arity_ok = answers.iter().all(|t| t.len() == 2);
        answers.sort_unstable();
        let mut err = checks::sorted_distinct(&answers)
            .or_else(|| (!arity_ok).then(|| "answer of the wrong arity".to_string()))
            .or_else(|| repeats.check(&key, digest(&answers)));
        if let (Some(t), Some((root, e2e))) = (tracer.as_mut(), root) {
            t.exit(e2e);
            let mut cat = engine::new_catalog(&*g);
            let split = layers::split_request(t, q, &*g, Semantics::Standard, &mut cat);
            t.exit(root);
            layers::catalog_add(&mut catalogs, engine::catalog_stats(&cat));
            err = err.or_else(|| layers::check_split(&split, digest(&answers)));
            log.add(&[&split]);
        }
        out.tally.record(err);
        i += 1;
    }

    out.facts = vec![
        ("nodes", NODES.to_string()),
        ("edges", (4 * NODES).to_string()),
        ("labels", LABELS.to_string()),
        ("pool", POOL.to_string()),
        ("semantics", "st".to_string()),
    ];
    if let Some(t) = tracer.as_ref() {
        let writes = durable_churn::write_probe(&g, "l0", cfg, graph_seed)?;
        out.layers = Some(layers::layer_metrics(&LayerInputs {
            tracer: t,
            log: &log,
            build,
            catalog: catalogs,
            writes: &writes,
            e2e_runs_first: false,
        }));
    }
    out.tracer = tracer;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_seeded_and_distinct_labelled() {
        assert_eq!(pool(3), pool(3));
        assert_ne!(pool(3), pool(4));
        assert_eq!(pool(3).len(), POOL);
    }

    #[test]
    fn streams_digest_like_the_direct_evaluation() {
        let g = Arc::new(engine::million_graph(2_000, 5));
        let q = engine::parse_query(g.alphabet(), &pool(1)[0]);
        let mut cat = engine::new_catalog(&*g);
        let direct = engine::all_answers(&q, &*g, Semantics::Standard, &mut cat);
        assert!(!direct.is_empty());
        assert_eq!(digest(&drain(&q, &g).answers), digest(&direct));
    }
}
