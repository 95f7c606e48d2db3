//! The traced run's layer split and the per-layer metrics.
//!
//! A traced request runs twice on equal inputs: once as the untraced run
//! does (span `e2e`), and once split into calls to each layer's public
//! functions (span `split`), each call inside a span of its own:
//!
//! 1. `query.expand` — ε-elimination into ε-free variants;
//! 2. `automata.compile` — one NFA per atom of every variant;
//! 3. `catalog.get_or_materialize` — one lookup per NFA, which
//!    materialises the relation on a miss;
//! 4. `search.first` — the warm catalog search stopped at one answer;
//! 5. `search.all` — the warm full evaluation.
//!
//! The split pass calls the layers in the planner's order with the
//! planner's keys, so the two searches find every relation cached: a
//! catalog miss inside them is counted as a failure.

use crate::engine::{self, CatalogStats, Crpq, GraphView, RelationCatalog, Semantics, Tuple};
use crate::harness::{median, ms_per_request, self_times_ns, Metrics, Tracer};

pub const REQUEST: &str = "request";
pub const E2E: &str = "e2e";
pub const SPLIT: &str = "split";
pub const EXPAND: &str = "query.expand";
pub const COMPILE: &str = "automata.compile";
pub const LOOKUP: &str = "catalog.get_or_materialize";
pub const FIRST: &str = "search.first";
pub const ALL: &str = "search.all";
/// The full evaluation under `st`, outside the split, for requests under
/// an injective semantics: `search.all − search.all_st` bounds the cost of
/// injective verification.
pub const ALL_ST: &str = "search.all_st";

/// What one split pass saw.
#[derive(Debug, Default)]
pub struct SplitOutcome {
    pub first: Vec<Tuple>,
    pub answers: Vec<Tuple>,
    pub variants: usize,
    pub states: usize,
    /// Pairs of the relations this pass materialised (misses only).
    pub pairs: usize,
    /// Catalog misses that happened inside the two search spans.
    pub search_misses: usize,
}

/// Runs `q` layer by layer against `cat` (see the module docs).
pub fn split_request<G: GraphView>(
    t: &mut Tracer,
    q: &Crpq,
    g: &G,
    sem: Semantics,
    cat: &mut RelationCatalog,
) -> SplitOutcome {
    let span = t.enter(SPLIT);
    let mut out = SplitOutcome::default();
    let variants = t.time(EXPAND, |_| engine::expand(q));
    out.variants = variants.len();
    let mut nfas = Vec::new();
    for v in &variants {
        for i in 0..engine::atom_count(v) {
            nfas.push(t.time(COMPILE, |_| engine::compile_atom(v, i)));
        }
    }
    out.states = nfas.iter().map(engine::nfa_states).sum();
    for nfa in &nfas {
        let before = engine::catalog_stats(cat).misses;
        let id = t.time(LOOKUP, |_| engine::get_or_materialize(cat, g, nfa));
        if engine::catalog_stats(cat).misses > before {
            out.pairs += engine::relation_pairs(cat, id);
        }
    }
    let before = engine::catalog_stats(cat).misses;
    out.first = t.time(FIRST, |_| engine::first_answer(q, g, sem, cat));
    out.answers = t.time(ALL, |_| engine::all_answers(q, g, sem, cat));
    out.search_misses = engine::catalog_stats(cat).misses - before;
    t.exit(span);
    out
}

/// The split pass must reproduce the one-call answers without a catalog
/// miss inside its searches.
pub fn check_split(split: &SplitOutcome, answers_digest: u64) -> Option<String> {
    if split.search_misses > 0 {
        Some(format!(
            "{} catalog misses inside the split searches",
            split.search_misses
        ))
    } else if crate::harness::digest(&split.answers) != answers_digest {
        Some("the split evaluation differs from the one-call request".to_string())
    } else {
        crate::checks::first_within(&split.first, &split.answers)
    }
}

/// The st bound of [`ALL_ST`]: skipped for requests already under st,
/// whose `search.all` is that bound.
pub fn st_bound<G: GraphView>(
    t: &mut Tracer,
    q: &Crpq,
    g: &G,
    sem: Semantics,
    cat: &mut RelationCatalog,
) {
    if sem != Semantics::Standard {
        t.time(ALL_ST, |_| {
            engine::all_answers(q, g, Semantics::Standard, cat)
        });
    }
}

/// Per-request counts the traced loop collects next to the spans.
#[derive(Default)]
pub struct LayerLog {
    pub variants: Vec<f64>,
    pub states: Vec<f64>,
    pub pairs: Vec<f64>,
    pub tuples: Vec<f64>,
    pub search_misses: usize,
}

impl LayerLog {
    /// Adds one split pass; several passes of one request add up.
    pub fn add(&mut self, request_parts: &[&SplitOutcome]) {
        let sum = |f: fn(&SplitOutcome) -> usize| -> f64 {
            request_parts.iter().map(|o| f(o) as f64).sum()
        };
        self.variants.push(sum(|o| o.variants));
        self.states.push(sum(|o| o.states));
        self.pairs.push(sum(|o| o.pairs));
        self.tuples.push(sum(|o| o.answers.len()));
        self.search_misses += request_parts.iter().map(|o| o.search_misses).sum::<usize>();
    }
}

/// Graph build figures of the set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    pub graph_ms: f64,
    pub index_bytes: usize,
}

/// Write-path figures: the churn loop itself on `durable_churn`, a fixed
/// probe over the workload's own graph elsewhere.
#[derive(Clone, Debug, Default)]
pub struct WriteStats {
    pub apply_us: Vec<f64>,
    pub delta_apply_us: Vec<f64>,
    pub overlay_len: Vec<f64>,
    pub wal_bytes_per_mutation: f64,
    pub compact_ms: Vec<f64>,
    pub decode_ms: f64,
    pub recover_ms: f64,
}

/// Catalog counters accrued between two readings of one catalog; the byte
/// figures are the later reading's.
pub fn catalog_since(before: CatalogStats, after: CatalogStats) -> CatalogStats {
    CatalogStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        ..after
    }
}

/// Adds another catalog's counters; the byte figures take the larger.
pub fn catalog_add(acc: &mut CatalogStats, other: CatalogStats) {
    acc.hits += other.hits;
    acc.misses += other.misses;
    acc.evictions += other.evictions;
    acc.rel_bytes = acc.rel_bytes.max(other.rel_bytes);
    acc.scratch_bytes = acc.scratch_bytes.max(other.scratch_bytes);
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub tracer: &'a Tracer,
    pub log: &'a LayerLog,
    pub build: BuildStats,
    /// Counters of the split pass's catalogs over the request phase.
    pub catalog: CatalogStats,
    pub writes: &'a WriteStats,
    /// Whether the untraced request calls `search.first` itself (the
    /// catalog-backed workloads) or streams (`cold_chain_1m`).
    pub e2e_runs_first: bool,
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// The `per_layer` metrics, every one on every workload.
pub fn layer_metrics(inp: &LayerInputs<'_>) -> Metrics {
    let spans = inp.tracer.spans();
    let selfs = self_times_ns(spans);
    let durations: Vec<u64> = spans
        .iter()
        .map(crate::harness::Span::duration_ns)
        .collect();
    let per = |name: &str| ms_per_request(spans, &selfs, name);
    let (expand, compile, lookup) = (per(EXPAND), per(COMPILE), per(LOOKUP));
    let (first, all, e2e) = (per(FIRST), per(ALL), per(E2E));
    let split = ms_per_request(spans, &durations, SPLIT);
    // Requests under st have no `search.all_st` span: their bound is
    // their own `search.all`.
    let all_st = st_bound_per_request(inp.tracer, &selfs);

    let mut m = Metrics::default();
    m.put("query.expand_us", med(&expand) * 1e3, "us");
    m.put("query.variants", med(&inp.log.variants), "count");
    m.put("automata.compile_us", med(&compile) * 1e3, "us");
    m.put("automata.states", med(&inp.log.states), "count");
    m.put("build.graph_ms", inp.build.graph_ms, "ms");
    m.put("build.index_bytes", inp.build.index_bytes as f64, "bytes");
    m.put("rpq.materialise_ms", med(&lookup), "ms");
    m.put("rpq.pairs", med(&inp.log.pairs), "count");
    m.put("rpq.rel_bytes", inp.catalog.rel_bytes as f64, "bytes");
    m.put(
        "rpq.scratch_bytes",
        inp.catalog.scratch_bytes as f64,
        "bytes",
    );
    let c = inp.catalog;
    m.put("catalog.hits", c.hits as f64, "count");
    m.put("catalog.misses", c.misses as f64, "count");
    m.put("catalog.evictions", c.evictions as f64, "count");
    let lookups = (c.hits + c.misses).max(1) as f64;
    m.put("catalog.hit_rate", c.hits as f64 / lookups, "ratio");
    m.put("search.first_warm_ms", med(&first), "ms");
    m.put("search.all_warm_ms", med(&all), "ms");
    m.put("search.all_warm_st_ms", med(&all_st), "ms");
    m.put("search.tuples", med(&inp.log.tuples), "count");
    m.put(
        "search.catalog_misses",
        inp.log.search_misses as f64,
        "count",
    );
    let w = inp.writes;
    m.put("delta.apply_us", med(&w.delta_apply_us), "us");
    m.put("delta.overlay_len", med(&w.overlay_len), "count");
    m.put("wal.apply_us", med(&w.apply_us), "us");
    m.put("wal.bytes_per_mutation", w.wal_bytes_per_mutation, "bytes");
    m.put("wal.compactions", w.compact_ms.len() as f64, "count");
    m.put("wal.compact_ms", med(&w.compact_ms), "ms");
    m.put("format.decode_ms", w.decode_ms, "ms");
    // The remainder is what the one-call request spends outside the
    // layers it is made of: stream and thread overhead, repeated planning.
    let remainder: Vec<f64> = (0..e2e.len())
        .map(|i| {
            let first_part = if inp.e2e_runs_first { first[i] } else { 0.0 };
            e2e[i] - (expand[i] + compile[i] + lookup[i] + first_part + all[i])
        })
        .collect();
    m.put("trace.remainder_ms", med(&remainder), "ms");
    // The traced pass against the untraced request on the same inputs.
    let (e2e_med, split_med) = (med(&e2e), med(&split));
    m.put(
        "trace.overhead_pct",
        100.0 * (split_med - e2e_med) / e2e_med.max(1e-9),
        "%",
    );
    m.put("trace.requests", e2e.len() as f64, "count");
    m
}

/// Per request: the summed `search.all_st` self time, or `search.all`
/// where the request has no st bound span.
fn st_bound_per_request(tracer: &Tracer, selfs: &[u64]) -> Vec<f64> {
    use std::collections::BTreeMap;
    let mut bound: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for (s, &ns) in tracer.spans().iter().zip(selfs) {
        let e = bound.entry(s.request).or_default();
        match s.name {
            ALL => e.0 += ns as f64 / 1e6,
            ALL_ST => e.1 += ns as f64 / 1e6,
            _ => {}
        }
    }
    bound
        .into_values()
        .map(|(all, st)| if st > 0.0 { st } else { all })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GraphDb;
    use crate::harness::digest;
    use crate::{cold_chain, durable_churn, hubs, warm_hubs};

    fn small_hub_graph() -> GraphDb {
        let shape = warm_hubs::SMALL_SHAPE;
        engine::graph_from_edges(shape.nodes, &hubs::LABELS, &hubs::hub_edges(shape, 9))
    }

    /// The pre-pass materialises under the planner's keys: the searches
    /// after it never miss, on a fresh catalog, for every pool query of
    /// every workload.
    #[test]
    fn split_searches_never_miss_after_the_pre_pass() {
        let hub = small_hub_graph();
        let uniform = engine::million_graph(300, 4);
        let mut cases: Vec<(&GraphDb, String)> = warm_hubs::POOL
            .iter()
            .map(|(_, t)| (&hub, (*t).to_string()))
            .collect();
        for t in cold_chain::pool(2).into_iter().take(4) {
            cases.push((&uniform, t));
        }
        for t in [durable_churn::HOT_QUERY, durable_churn::STILL_QUERY] {
            cases.push((&uniform, t.to_string()));
        }
        for (g, text) in cases {
            let q = engine::parse_query(g.alphabet(), &text);
            for sem in Semantics::ALL {
                let mut t = Tracer::new();
                let mut cat = engine::new_catalog(g);
                let split = split_request(&mut t, &q, g, sem, &mut cat);
                assert_eq!(split.search_misses, 0, "{text} under {sem}");
                let mut fresh = engine::new_catalog(g);
                let want = engine::all_answers(&q, g, sem, &mut fresh);
                assert_eq!(
                    check_split(&split, digest(&want)),
                    None,
                    "{text} under {sem}"
                );
                let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
                assert_eq!(names.first(), Some(&SPLIT));
                assert_eq!(&names[names.len() - 2..], &[FIRST, ALL]);
            }
        }
    }

    /// A catalog that lacks a relation the searches need is caught.
    #[test]
    fn a_miss_inside_the_searches_is_reported() {
        let g = small_hub_graph();
        let q = engine::parse_query(g.alphabet(), warm_hubs::POOL[0].1);
        let mut cat = engine::new_catalog(&g);
        let before = engine::catalog_stats(&cat).misses;
        let answers = engine::all_answers(&q, &g, Semantics::Standard, &mut cat);
        let outcome = SplitOutcome {
            answers,
            search_misses: engine::catalog_stats(&cat).misses - before,
            ..SplitOutcome::default()
        };
        assert!(check_split(&outcome, digest(&outcome.answers)).is_some());
    }

    #[test]
    fn every_layer_metric_is_reported_with_self_times() {
        let g = small_hub_graph();
        let q = engine::parse_query(g.alphabet(), warm_hubs::POOL[1].1);
        let mut cat = engine::new_catalog(&g);
        let mut t = Tracer::new();
        let mut log = LayerLog::default();
        for r in 0..3 {
            t.begin_request(r);
            let root = t.enter(REQUEST);
            t.time(E2E, |_| {
                engine::all_answers(&q, &g, Semantics::AtomInjective, &mut cat)
            });
            let split = split_request(&mut t, &q, &g, Semantics::AtomInjective, &mut cat);
            st_bound(&mut t, &q, &g, Semantics::AtomInjective, &mut cat);
            t.exit(root);
            log.add(&[&split]);
        }
        let m = layer_metrics(&LayerInputs {
            tracer: &t,
            log: &log,
            build: BuildStats::default(),
            catalog: CatalogStats::default(),
            writes: &WriteStats::default(),
            e2e_runs_first: true,
        });
        let json = m.to_json();
        for name in [
            "query.expand_us",
            "automata.compile_us",
            "rpq.materialise_ms",
            "search.first_warm_ms",
            "search.all_warm_ms",
            "search.all_warm_st_ms",
            "trace.remainder_ms",
            "trace.overhead_pct",
        ] {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
        }
        assert_eq!(m.get("trace.requests"), Some(3.0));
        assert!(m.get("search.all_warm_ms").unwrap() > 0.0);
    }
}
