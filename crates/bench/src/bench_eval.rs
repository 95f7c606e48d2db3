//! `BENCH_eval` — wall-clock comparison of the catalog-backed planner
//! engine against the legacy `|V|^arity` enumeration oracle, on the E2
//! (Example 2.1) and E9 (data-complexity) workloads, written to a JSON
//! baseline file.
//!
//! Two engines per row:
//!
//! * **join** — an [`Eval`] request against a fresh caller-owned
//!   [`RelationCatalog`]: each distinct atom relation materialised once
//!   per query (shared across ε-free variants), per-source sweeps over
//!   blocks of source ids on several threads, density-adaptive relation
//!   rows. Per-row
//!   catalog metrics (hits, misses, hit rate, materialisation wall clock)
//!   come from one instrumented run; `hit_rate > 0` on the multi-variant
//!   rows is the CI proof that atoms are shared.
//! * **legacy** — the enumeration oracle ([`eval_tuples_enumerate`]).
//!
//! Every row also records a **peak-RSS proxy**: `index_bytes` (the graph's
//! node-major adjacency, both directions) and `rel_bytes` (every relation
//! materialised by the instrumented
//! catalog run) — the two allocation sinks that gate large-graph scaling.
//!
//! The **scale workloads** (`scale_rows` in the JSON) are too large for
//! the legacy enumeration oracle, so they record only the catalog
//! engine's build/evaluation wall clock, the materialisation split
//! (`mat_ms` = `sweep_ms` producing rows + `assembly_ms` building the
//! relations + catalog upkeep), plus the memory proxies (`index_bytes`,
//! `name_bytes`, `rel_bytes`, `scratch_bytes`):
//!
//! * `scale_label_rich` evaluates [`scaling::label_rich_query`] over
//!   [`scaling::label_rich_graph`] (`4n` edges,
//!   [`scaling::LABEL_RICH_LABELS`] = 10³ Zipf-distributed labels) and
//!   asserts the adjacency memory contract: `index_bytes` is exactly
//!   `2·(4·(|V|+1) + 8·|E|)`, independent of the label count.
//!   `--smoke` runs `|V| = 10⁴`, `--scale-smoke` `|V| = 10⁵` under a hard
//!   wall-clock ceiling.
//! * `scale_million` evaluates [`scaling::million_query`] over
//!   [`scaling::million_graph`] (anonymous nodes, `4n` uniform edges over
//!   [`scaling::MILLION_LABELS`] labels) and asserts the O(touched)
//!   contract of the |V|-scale pipeline: zero name bytes, the same exact
//!   adjacency size, graph index + names under an explicit per-size
//!   budget, and peak sweep-scratch bytes
//!   far below one dense `|V|·|Q|` stamp array. `--smoke` runs `|V| = 10⁵`;
//!   `--scale-smoke` runs both `|V| = 10⁶ / 4·10⁶` edges (~200 MB budget)
//!   and `|V| = 10⁷ / 4·10⁷` edges (~2.4 GB index budget — the graph index
//!   is linear in |V|; the relation + scratch side must stay O(touched)),
//!   each under its own wall-clock ceiling; at `10⁶`, swept by two
//!   workers, relation assembly must take at most half the sweep time.
//!   Both rows also record `assembly_bytes`, the largest transient of one
//!   relation assembly, which must not exceed `rel_bytes`.
//!
//! The **scheduler workloads** (`steal_rows` in `BENCH_scale.json`) time
//! the work-stealing search ([`Eval::threads`]) against the same request
//! on one thread, on a Zipf-skewed label-rich graph
//! ([`scaling::steal_skew_graph`]) whose hot node's subtree a static
//! top-level split could not share out. `--scale-smoke` enforces the
//! ≥ 1.5× floor on machines with ≥ 4 CPUs; `scale_rows`/`steal_rows` are written append-style so
//! the cross-PR perf trajectory stays visible in the baseline file.
//!
//! The **cyclic workloads** (`cyclic_rows` in the JSON) time the join on
//! the triangle / 4-cycle / diamond-with-chord CRPQs of
//! [`crpq_workloads::cyclic`] (cold, medians of 5), and the warm triangle
//! join on the heavy-hitter [`cyclic::hub_triangle_graph`] at n = 5 000
//! and 80 000 under st and a-inj. `--smoke` gates the AGM scaling on the
//! hub rows: the 16× larger input may cost at most [`HUB_SCALING_BOUND`]×
//! the time, where the `|R|^{3/2}` bound allows 64× and a pairwise plan,
//! binding n² spoke pairs at the hub, pays 256×.
//!
//! The **injective workloads** (`injective_rows` in the JSON) time the
//! triangle on `cyclic_graph(2 000, 11)` under st, a-inj and q-inj over one
//! warm catalog (medians of 5 interleaved `tuples()` runs each), so nothing
//! but join search and injective verification is measured. `--smoke`
//! asserts that a-inj and q-inj each take at most 3× the st median.
//!
//! The **streaming workloads** (`stream_rows` in the JSON) time the
//! early-exit enumeration API on the million-node family: warm-catalog
//! time-to-first-tuple ([`Eval::limit`] with k = 1), time-to-k,
//! [`Eval::ask`] and the cold end-to-end first tuple off the pull stream
//! (`Eval::stream`), against the warm
//! full materialisation over the same catalog. `--smoke` enforces the CI
//! floors at `|V| = 10⁶`: time-to-first ≤ 50 % of the full-materialisation
//! wall clock, and `ASK` no slower than time-to-first (small noise guard).
//! Both sides pay the same semi-join pass, which bounds the ratio from
//! below; a `LIMIT 1` that drains the whole search reads ≈ 1.0.
//!
//! The **mutation workloads** (`mutate_rows` in `BENCH_scale.json`, the
//! `--mutate-smoke` gate) exercise the dynamic-graph path: a
//! [`DeltaGraph`] overlay over the `|V| = 10⁵` million-family graph under
//! single-hot-label churn, queried through a persistent
//! [`RelationCatalog`] by a mixed-label workload. Per row: mutation apply
//! latency, warm query latency, and requery latency after
//! **footprint-keyed** invalidation ([`RelationCatalog::invalidate_label`]
//! — only entries whose NFA alphabet mentions the churned label are
//! evicted) vs. after evict-all, with the CI floor that footprint keying
//! beats evict-all and the eviction counters prove a strict subset was
//! evicted.
//!
//! The JSON is hand-serialised (the workspace's `serde` is an offline no-op
//! shim); the schema is a `machine` object (CPUs, smoke threads, RAM) plus
//! `rows` + `scale_rows` + `stream_rows` +
//! `cyclic_rows` + `injective_rows` arrays with `workload` discriminators
//! (`BENCH_scale.json` holds `scale_rows` + `steal_rows` + `mutate_rows` +
//! `wal_rows` — the last measured by the `--wal-smoke` durability gate:
//! WAL apply latency per sync policy plus recovery wall clock). Rows in
//! **both**
//! baseline files are written append-style but **deduped** by
//! `(workload, graph, semantics, |V|, threads)` (absent fields key on
//! empty/0) — a repeated CI run replaces its own prior measurement instead
//! of growing the file unboundedly, while configurations no longer
//! measured keep their trajectory.

use crpq_core::{eval_tuples_enumerate, Eval, RelationCatalog, Semantics};
use crpq_graph::rpq::{NodeSet, RelationRow};
use crpq_graph::{DeltaGraph, DurableGraph, EdgeMutation, GraphDb, GraphView, NodeId, SyncPolicy};
use crpq_query::{parse_crpq, Crpq};
use crpq_util::{BitSet, Interner};
use crpq_workloads::{cyclic, paper_examples as paper, scaling};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Row {
    workload: String,
    graph: String,
    nodes: usize,
    edges: usize,
    arity: usize,
    semantics: &'static str,
    tuples: usize,
    /// Catalog-backed planner engine (the production path).
    join_ms: f64,
    /// `|V|^arity` enumeration oracle.
    legacy_ms: f64,
    /// Relation-materialisation wall clock inside one catalog-backed run.
    mat_ms: f64,
    catalog_hits: usize,
    catalog_misses: usize,
    /// Heap bytes of the graph's adjacency indexes (peak-RSS proxy).
    index_bytes: usize,
    /// Heap bytes of the catalog's materialised relations (peak-RSS proxy).
    rel_bytes: usize,
    /// Peak per-materialisation sweep-scratch bytes (stamp arrays +
    /// sparse visited maps, summed across workers) of the instrumented
    /// catalog run — so scratch regressions show up in the baselines.
    scratch_bytes: usize,
}

impl Row {
    /// The headline join-vs-legacy speedup (the ≥10× CI floor).
    fn speedup(&self) -> f64 {
        self.legacy_ms / self.join_ms.max(1e-9)
    }

    fn hit_rate(&self) -> f64 {
        let total = self.catalog_hits + self.catalog_misses;
        if total == 0 {
            0.0
        } else {
            self.catalog_hits as f64 / total as f64
        }
    }
}

/// Times one invocation of `f`, returning milliseconds.
fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Best-of-`n` timing, to damp scheduler noise. All engines go through
/// this with the same `n` — asymmetric sampling would bias the reported
/// speedups.
fn time_best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = time_once(&mut f);
    for _ in 1..n {
        let (v, ms) = time_once(&mut f);
        best = best.min(ms);
        out = v;
    }
    (out, best)
}

fn measure(
    workload: &str,
    graph_name: &str,
    q: &Crpq,
    g: &GraphDb,
    sem: Semantics,
    threads: usize,
) -> Row {
    const SAMPLES: usize = 3;
    // Every sample gets a fresh catalog so the timing covers the full
    // materialise-and-join cost (a warm catalog would make later samples
    // all-hits and flatter the engine).
    let (join, join_ms) = time_best_of(SAMPLES, || {
        let mut catalog = RelationCatalog::with_threads(g, threads);
        Eval::new(q, g)
            .semantics(sem)
            .catalog(&mut catalog)
            .tuples()
    });
    // One instrumented run for the catalog metrics.
    let mut catalog = RelationCatalog::with_threads(g, threads);
    let _ = Eval::new(q, g)
        .semantics(sem)
        .catalog(&mut catalog)
        .tuples();
    let (legacy, legacy_ms) = time_best_of(SAMPLES, || eval_tuples_enumerate(q, g, sem));
    assert_eq!(
        join, legacy,
        "join/legacy result mismatch on {workload}/{graph_name} {sem}"
    );
    Row {
        workload: workload.to_owned(),
        graph: graph_name.to_owned(),
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        arity: q.free.len(),
        semantics: sem.short_name(),
        tuples: join.len(),
        join_ms,
        legacy_ms,
        mat_ms: catalog.materialise_ms(),
        catalog_hits: catalog.hits(),
        catalog_misses: catalog.misses(),
        index_bytes: g.index_bytes(),
        rel_bytes: catalog.relation_bytes(),
        scratch_bytes: catalog.peak_scratch_bytes(),
    }
}

/// One row of the cyclic-shape workloads (`cyclic_rows` in the JSON): the
/// median `tuples()` wall clock of one workload under one semantics.
struct CyclicRow {
    workload: &'static str,
    semantics: Semantics,
    nodes: usize,
    edges: usize,
    tuples: usize,
    join_ms: f64,
}

/// Samples per timed configuration of the cyclic and injective rows
/// (median of 5).
const CYCLIC_SAMPLES: usize = 5;

/// The hub-triangle sizes of the AGM scaling gate: the larger input is
/// 16× the smaller.
const HUB_SIZES: [usize; 2] = [5_000, 80_000];

/// The AGM scaling gate: the warm join on `hub_triangle_graph(80 000)`
/// may take at most this many times its time at 5 000. The `|R|^{3/2}`
/// bound allows 64× and a pairwise plan pays 256×. On a 2-CPU machine the
/// Generic Join reads 25–34×, and the backtracking binary join it replaced
/// read 46–60×.
const HUB_SCALING_BOUND: f64 = 40.0;

/// The median of `samples` — the gate statistic for comparisons that sit
/// near parity, where a best-of-`n` minimum is too noise-sensitive.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times the join on one cyclic workload (standard semantics, so the
/// join cost is not mixed with injective verification). Every sample
/// includes its own catalog materialisation.
fn measure_cyclic(workload: &'static str, q: &Crpq, g: &GraphDb) -> CyclicRow {
    let mut tuples = 0;
    let samples = (0..CYCLIC_SAMPLES)
        .map(|_| {
            let (out, ms) = time_once(|| Eval::new(q, g).tuples());
            tuples = out.len();
            ms
        })
        .collect();
    CyclicRow {
        workload,
        semantics: Semantics::Standard,
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        tuples,
        join_ms: median(samples),
    }
}

/// The warm hub-triangle rows of the AGM scaling gate, st then a-inj,
/// each at every [`HUB_SIZES`] entry in order, over one warm catalog per
/// graph, so only the join search (and a-inj's free per-atom checks) is
/// timed. Each round times every size and semantics back to back, so a
/// slow phase of the machine lands on both sides of the ratio.
fn measure_hub_scaling() -> Vec<CyclicRow> {
    const SEMS: [Semantics; 2] = [Semantics::Standard, Semantics::AtomInjective];
    let graphs: Vec<(GraphDb, Crpq)> = HUB_SIZES
        .iter()
        .map(|&n| {
            let mut g = cyclic::hub_triangle_graph(n, 7);
            let q = cyclic::triangle_query(g.alphabet_mut());
            (g, q)
        })
        .collect();
    let mut catalogs: Vec<RelationCatalog> = graphs
        .iter()
        .map(|(g, q)| {
            let mut catalog = RelationCatalog::new(g);
            Eval::new(q, g).catalog(&mut catalog).tuples();
            catalog
        })
        .collect();
    let mut tuples = [[0; 2]; 2];
    let mut samples: [[Vec<f64>; 2]; 2] = Default::default();
    for _ in 0..CYCLIC_SAMPLES {
        for (k, &sem) in SEMS.iter().enumerate() {
            for (i, ((g, q), catalog)) in graphs.iter().zip(&mut catalogs).enumerate() {
                let (out, ms) =
                    time_once(|| Eval::new(q, g).semantics(sem).catalog(catalog).tuples());
                tuples[k][i] = out.len();
                samples[k][i].push(ms);
            }
        }
    }
    let mut rows = Vec::new();
    for (k, &sem) in SEMS.iter().enumerate() {
        for (i, (g, _)) in graphs.iter().enumerate() {
            rows.push(CyclicRow {
                workload: "hub_triangle_warm",
                semantics: sem,
                nodes: g.num_nodes(),
                edges: g.num_edges(),
                tuples: tuples[k][i],
                join_ms: median(std::mem::take(&mut samples[k][i])),
            });
        }
    }
    rows
}

/// The cyclic workload suite: triangle, 4-cycle and diamond-with-chord at
/// sizes where intermediate bindings are felt but the smoke stays fast.
fn measure_cyclic_rows() -> Vec<CyclicRow> {
    let mut rows = Vec::new();
    {
        let mut g = cyclic::cyclic_graph(20_000, 11);
        let q = cyclic::triangle_query(g.alphabet_mut());
        rows.push(measure_cyclic("cyclic_triangle", &q, &g));
    }
    {
        let mut g = cyclic::cyclic_graph(8_000, 13);
        let q = cyclic::four_cycle_query(g.alphabet_mut());
        rows.push(measure_cyclic("cyclic_4cycle", &q, &g));
    }
    {
        let mut g = cyclic::cyclic_graph_with_density(3_000, 8, 17);
        let q = cyclic::diamond_chord_query(g.alphabet_mut());
        rows.push(measure_cyclic("cyclic_diamond_chord", &q, &g));
    }
    rows
}

fn cyclic_rows_json(rows: &[CyclicRow]) -> String {
    let mut json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"semantics\": \"{}\", \"nodes\": {}, \"edges\": {}, \
             \"tuples\": {}, \"join_ms\": {:.4}}}{}",
            r.workload,
            r.semantics,
            r.nodes,
            r.edges,
            r.tuples,
            r.join_ms,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json
}

fn print_cyclic_rows(rows: &[CyclicRow]) {
    println!("\n## cyclic shapes — Generic Join (medians of {CYCLIC_SAMPLES})\n");
    println!("| workload | sem | n | edges | tuples | join |");
    println!("|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} | {} | {:.1}ms |",
            r.workload, r.semantics, r.nodes, r.edges, r.tuples, r.join_ms,
        );
    }
}

/// The injective/st gate: a-inj and q-inj may each take at most this many
/// times the st median. Every triangle atom is one letter, so
/// classification makes each per-atom check free: on a 2-CPU machine the
/// ratios read 1.0x (a-inj) and 1.3–1.5x (q-inj), against 12–16x for both
/// when every atom pair ran a simple-path search.
const INJECTIVE_RATIO_BOUND: f64 = 3.0;

/// The injective row (`injective_rows` in the JSON): result sizes and
/// median `tuples()` wall clock under each of [`Semantics::ALL`] for the
/// triangle on `cyclic_graph(2 000, 11)` over one warm catalog, so only
/// join search and injective verification are timed. One st run
/// materialises every relation, then the samples cycle through the three
/// semantics, so a slow phase of the machine lands on all of them.
fn measure_injective() -> ([usize; 3], [f64; 3]) {
    let mut g = cyclic::cyclic_graph(2_000, 11);
    let q = cyclic::triangle_query(g.alphabet_mut());
    let mut catalog = RelationCatalog::new(&g);
    Eval::new(&q, &g).catalog(&mut catalog).tuples();
    let mut tuples = [0; 3];
    let mut samples: [Vec<f64>; 3] = Default::default();
    for _ in 0..CYCLIC_SAMPLES {
        for (k, sem) in Semantics::ALL.into_iter().enumerate() {
            let (out, ms) = time_once(|| {
                Eval::new(&q, &g)
                    .semantics(sem)
                    .catalog(&mut catalog)
                    .tuples()
            });
            tuples[k] = out.len();
            samples[k].push(ms);
        }
    }
    (tuples, samples.map(median))
}

/// One row of the streaming workloads (`stream_rows` in the JSON): the
/// early-exit enumeration fast paths against full materialisation on the
/// million-node family, standard semantics.
struct StreamRow {
    workload: &'static str,
    nodes: usize,
    edges: usize,
    tuples: usize,
    /// Warm-catalog full materialisation — the baseline the floors
    /// compare against. Warm on both sides so the ratios measure search
    /// early-exit, not relation-materialisation sharing.
    full_ms: f64,
    /// Warm-catalog time-to-first-tuple (`Eval::limit` with k = 1).
    ttf_ms: f64,
    /// Warm-catalog time-to-k.
    ttk_ms: f64,
    /// The k of `ttk_ms`.
    k: usize,
    /// Warm-catalog existence check (`Eval::ask`).
    ask_ms: f64,
    /// Cold end-to-end wall clock until the pull stream yields its first
    /// tuple — includes relation materialisation, i.e. what a fresh
    /// caller actually waits.
    stream_first_ms: f64,
}

impl StreamRow {
    fn ttf_fraction(&self) -> f64 {
        self.ttf_ms / self.full_ms.max(1e-9)
    }
}

/// Measures the streaming fast paths on the million-node family at `n`
/// nodes. With `enforce_floor` (the CI gate at `|V| = 10⁶`):
/// time-to-first-tuple must be ≤ 50 % of the warm full-materialisation
/// wall clock — both pay the same semi-join pass, and an early exit that
/// broke would drain the whole search and read ≈ 100 % — and `ASK` must
/// be no slower than time-to-first (they do the same search; a 5 % + 1 ms
/// guard absorbs timer noise).
fn measure_stream(n: usize, threads: usize, enforce_floor: bool) -> StreamRow {
    const SAMPLES: usize = 3;
    const K: usize = 64;
    let mut g = scaling::million_graph(n, 7);
    let q = scaling::million_query(g.alphabet_mut());
    // Warm the shared catalog once; every timed path below then runs over
    // identical, already-materialised relations.
    let mut catalog = RelationCatalog::with_threads(&g, threads);
    let tuples = Eval::new(&q, &g).catalog(&mut catalog).tuples().len();
    assert!(
        tuples > K,
        "stream workload returned {tuples} tuples — too few for the time-to-k comparison"
    );
    let (_, full_ms) = time_best_of(SAMPLES, || Eval::new(&q, &g).catalog(&mut catalog).tuples());
    // `LIMIT 1` and `ASK` run the same search, and the gate compares them:
    // their samples alternate, so a slow phase of the machine lands on both.
    let (mut first, mut exists) = (Vec::new(), false);
    let (mut ttf_ms, mut ask_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        let ms;
        (first, ms) = time_once(|| Eval::new(&q, &g).catalog(&mut catalog).limit(1));
        ttf_ms = ttf_ms.min(ms);
        let ms;
        (exists, ms) = time_once(|| Eval::new(&q, &g).catalog(&mut catalog).ask());
        ask_ms = ask_ms.min(ms);
    }
    assert_eq!(first.len(), 1, "time-to-first run must yield one tuple");
    assert!(exists, "ASK must find the witness the full run found");
    let (topk, ttk_ms) = time_best_of(SAMPLES, || Eval::new(&q, &g).catalog(&mut catalog).limit(K));
    assert_eq!(topk.len(), K, "time-to-k run must yield k tuples");
    // Cold path: a fresh stream materialises its own relations before the
    // first tuple can surface.
    let g = Arc::new(g);
    let (_, stream_first_ms) = time_once(|| {
        Eval::new(&q, &g)
            .stream()
            .next()
            .expect("stream must yield a first tuple") // invariant: the workload has answers (asserted above)
    });
    let row = StreamRow {
        workload: "stream_million",
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        tuples,
        full_ms,
        ttf_ms,
        ttk_ms,
        k: K,
        ask_ms,
        stream_first_ms,
    };
    if enforce_floor {
        assert!(
            row.ttf_fraction() <= 0.50,
            "time-to-first-tuple above 50% of full materialisation at n={n}: \
             {:.2}ms vs {:.2}ms ({:.0}%)",
            row.ttf_ms,
            row.full_ms,
            row.ttf_fraction() * 100.0
        );
        assert!(
            row.ask_ms <= row.ttf_ms * 1.05 + 1.0,
            "ASK slower than time-to-first-tuple at n={n}: {:.2}ms vs {:.2}ms",
            row.ask_ms,
            row.ttf_ms
        );
    }
    row
}

fn stream_rows_json(rows: &[StreamRow]) -> String {
    let mut json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"nodes\": {}, \"edges\": {}, \"tuples\": {}, \
             \"full_ms\": {:.4}, \"ttf_ms\": {:.4}, \"ttk_ms\": {:.4}, \"k\": {}, \
             \"ask_ms\": {:.4}, \"stream_first_ms\": {:.4}, \"ttf_fraction\": {:.4}}}{}",
            r.workload,
            r.nodes,
            r.edges,
            r.tuples,
            r.full_ms,
            r.ttf_ms,
            r.ttk_ms,
            r.k,
            r.ask_ms,
            r.stream_first_ms,
            r.ttf_fraction(),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json
}

fn print_stream_rows(rows: &[StreamRow]) {
    println!("\n## streaming enumeration — early-exit fast paths vs full materialisation (st)\n");
    println!("| workload | n | tuples | full (warm) | first | k={} | ask | first (cold stream) | first/full |", rows.first().map_or(64, |r| r.k));
    println!("|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {:.1}ms | {:.2}ms | {:.2}ms | {:.2}ms | {:.1}ms | {:.1}% |",
            r.workload,
            r.nodes,
            r.tuples,
            r.full_ms,
            r.ttf_ms,
            r.ttk_ms,
            r.ask_ms,
            r.stream_first_ms,
            r.ttf_fraction() * 100.0,
        );
    }
}

/// One row of the scale workloads (`scale_rows` in the JSON): the
/// label-rich Zipf family (`scale_label_rich`) and the million-node
/// anonymous family (`scale_million`).
struct ScaleRow {
    workload: &'static str,
    nodes: usize,
    edges: usize,
    labels: usize,
    tuples: usize,
    build_ms: f64,
    eval_ms: f64,
    mat_ms: f64,
    /// The part of `mat_ms` producing forward rows (sweeps or closure)
    /// and the part assembling relations, summed over the catalog's
    /// materialisations ([`RelationCatalog::materialise_totals`]).
    sweep_ms: f64,
    assembly_ms: f64,
    index_bytes: usize,
    /// Node-name storage bytes (single arena for named graphs, 0 for
    /// anonymous ones) — the term that used to be per-name `String`s.
    name_bytes: usize,
    rel_bytes: usize,
    /// Peak sweep-scratch bytes across workers (see [`Row::scratch_bytes`]).
    scratch_bytes: usize,
    /// The largest transient of one relation assembly
    /// ([`crpq_core::MaterialiseTotals::peak_assembly_bytes`]).
    assembly_bytes: usize,
}

/// Asserts the adjacency memory contract: one node-major offsets/labels/
/// neighbours triple per direction, `2·(4·(|V|+1) + 8·|E|)` bytes — no
/// term in the label count, and no second (label-major) copy of the edges.
fn assert_index_layout(g: &GraphDb) {
    let expect = 2 * (4 * (g.num_nodes() + 1) + 8 * g.num_edges());
    assert_eq!(
        g.index_bytes(),
        expect,
        "graph index is not exactly one node-major adjacency per direction"
    );
}

/// Asserts the relation memory contract on every relation `catalog`
/// holds: per direction one CSR over the touched rows, whose heap bytes
/// are exactly, with `t` touched rows over `n` nodes, the touched set
/// (`4·t` while sparse, `12·⌈n/64⌉` for its bitset and rank table once
/// `32·t ≥ n`), `8·(t + 1)` offsets (none when `t = 0`), `4` bytes per id
/// of a sparse row and `8·⌈n/64⌉` plus its `(rank, bitset)` entry per
/// dense row — no slot per node, no per-row kind table.
fn assert_relation_layout(catalog: &RelationCatalog) {
    for id in 0..catalog.len() {
        let rel = catalog.relation(id);
        let n = rel.num_nodes();
        let words = n.div_ceil(64);
        // `row(v)` = (dense, ids) of the row of touched id `v`.
        let side = |set: &NodeSet, row: &dyn Fn(NodeId) -> (bool, usize)| {
            let t = set.len();
            if t == 0 {
                return 0;
            }
            let (mut dense_rows, mut dense_ids) = (0, 0);
            for (dense, k) in set.iter().map(|v| row(NodeId(v as u32))) {
                if dense {
                    dense_rows += 1;
                    dense_ids += k;
                }
            }
            let set_bytes = if set.is_dense() { 12 * words } else { 4 * t };
            let dense_bytes = 8 * words + std::mem::size_of::<(u32, BitSet)>();
            set_bytes + 8 * (t + 1) + 4 * (rel.len() - dense_ids) + dense_rows * dense_bytes
        };
        let shape = |r: RelationRow<'_>| (r.is_dense(), r.len());
        let expect = side(rel.source_set(), &|u| shape(rel.forward(u)))
            + side(rel.target_set(), &|v| shape(rel.backward(v)));
        assert_eq!(
            rel.heap_bytes(),
            expect,
            "relation {id} ({} pairs) is not exactly one CSR per direction",
            rel.len()
        );
    }
}

/// Builds the label-rich graph at `n` nodes and evaluates the scale query
/// once through the catalog engine, asserting the adjacency and relation
/// memory contracts ([`assert_index_layout`], [`assert_relation_layout`]).
/// With `enforce_ceiling`, build + evaluation must also finish under
/// `ceiling_ms` — the CI scale gate.
fn measure_scale(n: usize, ceiling_ms: f64, enforce_ceiling: bool, threads: usize) -> ScaleRow {
    let (mut g, build_ms) = time_once(|| scaling::label_rich_graph(n, 5));
    let q = scaling::label_rich_query(g.alphabet_mut());
    let mut catalog = RelationCatalog::with_threads(&g, threads);
    let (tuples, eval_ms) = time_once(|| Eval::new(&q, &g).catalog(&mut catalog).tuples().len());

    assert!(
        tuples > 0,
        "label-rich scale workload returned no tuples — the join is degenerate \
         and the smoke proves nothing"
    );
    assert_index_layout(&g);
    assert_relation_layout(&catalog);
    if enforce_ceiling {
        let total = build_ms + eval_ms;
        assert!(
            total <= ceiling_ms,
            "scale smoke exceeded the wall-clock ceiling: {total:.0}ms > {ceiling_ms:.0}ms"
        );
    }
    ScaleRow {
        workload: "scale_label_rich",
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        labels: g.alphabet().len(),
        tuples,
        build_ms,
        eval_ms,
        mat_ms: catalog.materialise_ms(),
        sweep_ms: catalog.materialise_totals().sweep_ms,
        assembly_ms: catalog.materialise_totals().assembly_ms,
        index_bytes: g.index_bytes(),
        name_bytes: g.name_bytes(),
        rel_bytes: catalog.relation_bytes(),
        scratch_bytes: catalog.peak_scratch_bytes(),
        assembly_bytes: catalog.materialise_totals().peak_assembly_bytes,
    }
}

/// Builds the million-node anonymous graph at `n` nodes / `4n` edges and
/// evaluates the anchored chain query once through the catalog engine (st),
/// asserting the |V|-scale memory contracts of the O(touched) pipeline:
///
/// * node-name storage is **zero** bytes (anonymous mode — the named mode
///   would be a single arena, never per-name `String`s);
/// * the graph index is exactly one adjacency per direction
///   ([`assert_index_layout`]), and every relation exactly one CSR per
///   direction ([`assert_relation_layout`]);
/// * graph index + names stay under the ~200 MB budget at 10⁶ nodes (the
///   pre-arena layout extrapolated to ≥ 1.5 GB);
/// * no materialisation run allocated dense per-worker stamp arrays: peak
///   sweep-scratch bytes stay far below one `|V|·|Q|` stamp array, let
///   alone one per worker.
///
/// With `enforce_ceiling`, build + evaluation must also finish under
/// `ceiling_ms` — the CI scale gate. `build_bytes_budget` is the explicit
/// index + names contract for the size being measured
/// ([`MILLION_BYTES_BUDGET`] at 10⁶ nodes, [`TEN_MILLION_BYTES_BUDGET`]
/// at 10⁷ — the budget is per-row because the graph index itself grows
/// linearly; what must NOT grow with |V| is the relation/scratch side).
fn measure_million(
    n: usize,
    ceiling_ms: f64,
    enforce_ceiling: bool,
    threads: usize,
    build_bytes_budget: usize,
) -> ScaleRow {
    let (mut g, build_ms) = time_once(|| scaling::million_graph(n, 7));
    let q = scaling::million_query(g.alphabet_mut());
    let mut catalog = RelationCatalog::with_threads(&g, threads);
    let (tuples, eval_ms) = time_once(|| Eval::new(&q, &g).catalog(&mut catalog).tuples().len());
    assert!(
        tuples > 0,
        "million-scale workload returned no tuples — the smoke proves nothing"
    );
    assert_eq!(
        g.name_bytes(),
        0,
        "anonymous scale graph must store zero name bytes"
    );
    assert_index_layout(&g);
    let build_bytes = g.index_bytes() + g.name_bytes();
    assert!(
        build_bytes <= build_bytes_budget,
        "graph index + names {build_bytes} B exceed the {build_bytes_budget} B scale budget"
    );
    // One dense |V|·|Q| stamp array would be ≥ 4·|V| bytes **per worker**
    // (that is what the pre-adaptive layout paid): peak scratch far below
    // that pins the sparse sweep contract. `peak_scratch_bytes` sums over
    // every worker, so the bound must scale with the resolved thread
    // count — a fixed `O(n)` bound would fail spuriously on many-core
    // machines whose per-worker floors add up. 256 KB/worker is ~100× the
    // measured footprint and ~10–100× below one dense stamp array.
    let workers = crpq_graph::rpq::effective_threads(threads) + 1;
    let scratch_budget = workers * 256 * 1024;
    let scratch_bytes = catalog.peak_scratch_bytes();
    assert!(
        scratch_bytes < scratch_budget,
        "sweep scratch {scratch_bytes} B over {workers} worker(s) exceeds the \
         {scratch_budget} B budget — dense stamp arrays were likely allocated \
         (one would be ≥ {} B per worker)",
        4 * n
    );
    assert_relation_layout(&catalog);
    // Building a relation's backward index must not allocate more than
    // the relations hold: no cursor per node of the graph, and one n-bit
    // set of the distinct targets only once the pairs pass the parity
    // point.
    let assembly_bytes = catalog.materialise_totals().peak_assembly_bytes;
    let rel_bytes = catalog.relation_bytes();
    assert!(
        assembly_bytes <= rel_bytes,
        "relation assembly allocated {assembly_bytes} B of transients, more than the \
         {rel_bytes} B of relations it built"
    );
    if enforce_ceiling {
        let total = build_ms + eval_ms;
        assert!(
            total <= ceiling_ms,
            "million-scale smoke exceeded the wall-clock ceiling: \
             {total:.0}ms > {ceiling_ms:.0}ms"
        );
    }
    ScaleRow {
        workload: "scale_million",
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        labels: g.alphabet().len(),
        tuples,
        build_ms,
        eval_ms,
        mat_ms: catalog.materialise_ms(),
        sweep_ms: catalog.materialise_totals().sweep_ms,
        assembly_ms: catalog.materialise_totals().assembly_ms,
        index_bytes: g.index_bytes(),
        name_bytes: g.name_bytes(),
        rel_bytes,
        scratch_bytes,
        assembly_bytes,
    }
}

fn scale_rows_json(scale_rows: &[ScaleRow]) -> String {
    let mut json = String::new();
    for (i, r) in scale_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"nodes\": {}, \"edges\": {}, \
             \"labels\": {}, \"tuples\": {}, \"build_ms\": {:.4}, \"eval_ms\": {:.4}, \
             \"mat_ms\": {:.4}, \"sweep_ms\": {:.4}, \"assembly_ms\": {:.4}, \
             \"index_bytes\": {}, \"name_bytes\": {}, \"rel_bytes\": {}, \
             \"scratch_bytes\": {}, \"assembly_bytes\": {}}}{}",
            r.workload,
            r.nodes,
            r.edges,
            r.labels,
            r.tuples,
            r.build_ms,
            r.eval_ms,
            r.mat_ms,
            r.sweep_ms,
            r.assembly_ms,
            r.index_bytes,
            r.name_bytes,
            r.rel_bytes,
            r.scratch_bytes,
            r.assembly_bytes,
            if i + 1 < scale_rows.len() { "," } else { "" }
        );
    }
    json
}

fn print_scale_rows(scale_rows: &[ScaleRow]) {
    println!(
        "\n## scale workloads — label-rich Zipf + million-node anonymous (catalog engine only)\n"
    );
    println!("| workload | n | edges | labels | tuples | build | eval | mat | sweep | assembly | index MB | names MB | rel MB | scratch KB | assembly KB |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    for r in scale_rows {
        println!(
            "| {} | {} | {} | {} | {} | {:.0}ms | {:.0}ms | {:.0}ms | {:.0}ms | {:.0}ms | {:.1} | {:.2} | {:.1} | {:.1} | {:.1} |",
            r.workload,
            r.nodes,
            r.edges,
            r.labels,
            r.tuples,
            r.build_ms,
            r.eval_ms,
            r.mat_ms,
            r.sweep_ms,
            r.assembly_ms,
            r.index_bytes as f64 / 1e6,
            r.name_bytes as f64 / 1e6,
            r.rel_bytes as f64 / 1e6,
            r.scratch_bytes as f64 / 1024.0,
            r.assembly_bytes as f64 / 1024.0,
        );
    }
}

/// One row of the work-stealing scheduler check (`steal_rows` in
/// `BENCH_scale.json`): full evaluation (st) of [`scaling::steal_query`]
/// over the Zipf-skewed [`scaling::steal_skew_graph`], once through the
/// work-stealing search and once as the same request on one thread.
struct StealRow {
    workload: &'static str,
    nodes: usize,
    edges: usize,
    labels: usize,
    /// The resolved worker count of the work-stealing run.
    threads: usize,
    /// Hardware parallelism actually available — the speedup column is
    /// only meaningful (and only CI-enforced) when this is ≥ 4; on a
    /// 1-core runner the workers timeshare one CPU and the ratio hovers
    /// around 1×.
    cpus: usize,
    tuples: usize,
    /// Work-stealing search ([`Eval::threads`]`(threads)`).
    ws_ms: f64,
    /// The same request on one thread.
    seq_ms: f64,
}

impl StealRow {
    fn speedup(&self) -> f64 {
        self.seq_ms / self.ws_ms.max(1e-9)
    }
}

/// Measures the work-stealing search against the same request on one
/// thread, on the skewed-Zipf workload at `n` nodes. With `enforce_floor`
/// (the CI gate), work stealing must win by ≥ 1.5× — enforced only when
/// the machine actually has ≥ 4 CPUs, since scheduling cannot buy wall
/// clock that the hardware doesn't have.
fn measure_steal(n: usize, threads: usize, enforce_floor: bool) -> StealRow {
    const SAMPLES: usize = 3;
    let mut g = scaling::steal_skew_graph(n, 19);
    let q = scaling::steal_query(g.alphabet_mut());
    let (ws, ws_ms) = time_best_of(SAMPLES, || Eval::new(&q, &g).threads(threads).tuples());
    let (seq, seq_ms) = time_best_of(SAMPLES, || Eval::new(&q, &g).threads(1).tuples());
    assert_eq!(ws, seq, "work-stealing/one-thread result mismatch at n={n}");
    assert!(
        !ws.is_empty(),
        "steal workload returned no tuples — the scheduler comparison proves nothing"
    );
    let cpus = crpq_util::sync::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let row = StealRow {
        workload: "steal_skew_zipf",
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        labels: g.alphabet().len(),
        threads: crpq_graph::rpq::effective_threads(threads),
        cpus,
        tuples: ws.len(),
        ws_ms,
        seq_ms,
    };
    if enforce_floor && cpus >= 4 {
        assert!(
            row.speedup() >= 1.5,
            "work stealing below the 1.5x floor over one thread on the skewed \
             workload: {:.2}x ({:.1}ms vs {:.1}ms at {} threads, {} cpus)",
            row.speedup(),
            row.ws_ms,
            row.seq_ms,
            row.threads,
            row.cpus
        );
    }
    row
}

fn steal_rows_json(rows: &[StealRow]) -> String {
    let mut json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"nodes\": {}, \"edges\": {}, \"labels\": {}, \
             \"threads\": {}, \"cpus\": {}, \"tuples\": {}, \"ws_ms\": {:.4}, \
             \"seq_ms\": {:.4}, \"ws_speedup\": {:.2}}}{}",
            r.workload,
            r.nodes,
            r.edges,
            r.labels,
            r.threads,
            r.cpus,
            r.tuples,
            r.ws_ms,
            r.seq_ms,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json
}

fn print_steal_rows(rows: &[StealRow]) {
    println!("\n## skewed-Zipf join parallelism — work stealing vs one thread (st)\n");
    println!("| workload | n | edges | threads | cpus | tuples | stealing | 1 thread | ws-x |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} | {} | {} | {:.1}ms | {:.1}ms | {:.2}x |",
            r.workload,
            r.nodes,
            r.edges,
            r.threads,
            r.cpus,
            r.tuples,
            r.ws_ms,
            r.seq_ms,
            r.speedup(),
        );
    }
}

/// One row of the dynamic-graph churn workloads (`mutate_rows` in
/// `BENCH_scale.json`): mutation apply latency, catalog-backed query
/// latency warm / after footprint-keyed invalidation / after evict-all,
/// and the catalog's eviction counters, on a [`DeltaGraph`] under
/// single-hot-label churn with a mixed-label query workload.
struct MutateRow {
    workload: &'static str,
    nodes: usize,
    edges: usize,
    threads: usize,
    /// Mutations applied per churn batch.
    churn_ops: usize,
    /// Mean per-mutation apply latency (µs) across all churn batches.
    apply_us: f64,
    /// Catalog-backed latency for the full query workload, fully warm
    /// catalog, no intervening mutation (the all-hits baseline).
    warm_ms: f64,
    /// Same workload right after a churn batch +
    /// [`RelationCatalog::invalidate_label`] on the churned label — only
    /// footprint-matching entries re-materialise.
    footprint_ms: f64,
    /// Same workload right after a churn batch +
    /// [`RelationCatalog::invalidate_all`] — the evict-everything
    /// baseline footprint keying is measured against.
    evict_all_ms: f64,
    /// Entries evicted by one footprint-keyed invalidation round.
    evictions_footprint: usize,
    /// Entries evicted by one evict-all round (= live entries).
    evictions_all: usize,
    /// Live catalog entries once the full workload is materialised.
    cached_entries: usize,
    catalog_hits: usize,
    catalog_misses: usize,
}

impl MutateRow {
    /// The headline ratio: how much cheaper requerying is when only the
    /// churned label's footprint is evicted instead of everything.
    fn footprint_speedup(&self) -> f64 {
        self.evict_all_ms / self.footprint_ms.max(1e-9)
    }

    fn hit_rate(&self) -> f64 {
        let total = self.catalog_hits + self.catalog_misses;
        if total == 0 {
            0.0
        } else {
            self.catalog_hits as f64 / total as f64
        }
    }
}

/// Deterministic splitmix64 for churn schedules — the bench must be
/// reproducible across runs without pulling a RNG dependency in.
struct SplitMix(u64);

impl SplitMix {
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

/// Measures the dynamic-graph churn workload at `n` nodes: the
/// million-family graph wrapped in a [`DeltaGraph`], churned on one hot
/// label (`l0`, alternating inserts and deletes), queried through a
/// persistent [`RelationCatalog`] by a **mixed-label workload** — the
/// scale query (footprint `l0..l4`) plus a disjoint-footprint twin over
/// `l8..l12`. Per batch the catalog is invalidated either by
/// [`RelationCatalog::invalidate_label`] on the churned label (only the
/// one `l0`-footprint entry re-materialises) or by
/// [`RelationCatalog::invalidate_all`] (every entry does).
///
/// With `enforce_floor` (the CI gate): footprint-keyed requery must be
/// strictly cheaper than requery after evict-all, and the eviction
/// counters must show footprint keying actually evicted a strict,
/// non-empty subset of the live entries.
fn measure_mutate(n: usize, threads: usize, enforce_floor: bool) -> MutateRow {
    const SAMPLES: usize = 3;
    const CHURN_OPS: usize = 2_000;
    let mut base = scaling::million_graph(n, 7);
    let q_hot = scaling::million_query(base.alphabet_mut());
    // Same chain shape over labels disjoint from `q_hot`'s footprint: the
    // entries footprint keying must keep alive across `l0` churn.
    let q_cold = parse_crpq(
        "(x, y) <- x -[l8 (l9+l10)*]-> y, y -[l10 (l11+l12)*]-> z",
        base.alphabet_mut(),
    )
    .unwrap(); // invariant: fixed bench query text parses
    let mut g = DeltaGraph::new(base);
    let hot = g.label("l0");

    let mut catalog = RelationCatalog::with_threads(&g, threads);
    let tuples = Eval::new(&q_hot, &g).catalog(&mut catalog).tuples().len()
        + Eval::new(&q_cold, &g).catalog(&mut catalog).tuples().len();
    assert!(
        tuples > 0,
        "mutate workload returned no tuples — the churn smoke proves nothing"
    );
    let cached_entries = catalog.cached_entries();
    assert!(
        cached_entries >= 4,
        "expected at least four distinct atom relations, got {cached_entries}"
    );
    let (_, warm_ms) = time_best_of(SAMPLES, || {
        Eval::new(&q_hot, &g).catalog(&mut catalog).tuples().len()
            + Eval::new(&q_cold, &g).catalog(&mut catalog).tuples().len()
    });

    let mut rng = SplitMix(0xC0FFEE ^ n as u64);
    let mut apply_us_sum = 0.0;
    let mut batches = 0usize;
    let churn = |g: &mut DeltaGraph, rng: &mut SplitMix| -> f64 {
        let t0 = Instant::now();
        for i in 0..CHURN_OPS {
            let u = NodeId(rng.below(n) as u32);
            let v = NodeId(rng.below(n) as u32);
            if i.is_multiple_of(2) {
                g.insert_edge(u, hot, v);
            } else {
                g.delete_edge(u, hot, v);
            }
        }
        t0.elapsed().as_secs_f64() * 1e6 / CHURN_OPS as f64
    };

    let mut footprint_ms = f64::INFINITY;
    let mut evict_all_ms = f64::INFINITY;
    let mut evictions_footprint = 0usize;
    let mut evictions_all = 0usize;
    for _ in 0..SAMPLES {
        // Footprint-keyed round: churn, evict only the hot label's
        // entries, requery the whole workload.
        apply_us_sum += churn(&mut g, &mut rng);
        batches += 1;
        evictions_footprint = catalog.invalidate_label(hot);
        let (_, ms) = time_once(|| {
            Eval::new(&q_hot, &g).catalog(&mut catalog).tuples().len()
                + Eval::new(&q_cold, &g).catalog(&mut catalog).tuples().len()
        });
        footprint_ms = footprint_ms.min(ms);
        // Evict-all round on the same (already mutated) graph.
        apply_us_sum += churn(&mut g, &mut rng);
        batches += 1;
        evictions_all = catalog.invalidate_all();
        let (_, ms) = time_once(|| {
            Eval::new(&q_hot, &g).catalog(&mut catalog).tuples().len()
                + Eval::new(&q_cold, &g).catalog(&mut catalog).tuples().len()
        });
        evict_all_ms = evict_all_ms.min(ms);
    }
    // Soundness of footprint-keyed invalidation: after one more churn +
    // label-keyed eviction, the catalog-backed answers equal a fresh
    // catalog-free evaluation of the mutated view.
    apply_us_sum += churn(&mut g, &mut rng);
    batches += 1;
    catalog.invalidate_label(hot);
    let via_catalog = Eval::new(&q_hot, &g).catalog(&mut catalog).tuples();
    assert_eq!(
        via_catalog,
        Eval::new(&q_hot, &g).tuples(),
        "catalog-backed answers diverged from a fresh evaluation after churn"
    );

    let row = MutateRow {
        workload: "mutate_churn_million",
        nodes: GraphView::num_nodes(&g),
        edges: GraphView::num_edges(&g),
        threads: crpq_graph::rpq::effective_threads(threads),
        churn_ops: CHURN_OPS,
        apply_us: apply_us_sum / batches as f64,
        warm_ms,
        footprint_ms,
        evict_all_ms,
        evictions_footprint,
        evictions_all,
        cached_entries,
        catalog_hits: catalog.hits(),
        catalog_misses: catalog.misses(),
    };
    if enforce_floor {
        assert!(
            row.evictions_footprint > 0 && row.evictions_footprint < row.evictions_all,
            "footprint keying must evict a strict non-empty subset: {} vs {} entries",
            row.evictions_footprint,
            row.evictions_all
        );
        assert!(
            row.footprint_ms < row.evict_all_ms,
            "footprint-keyed requery not cheaper than evict-all on the mixed-label \
             workload: {:.2}ms vs {:.2}ms",
            row.footprint_ms,
            row.evict_all_ms
        );
    }
    row
}

fn mutate_rows_json(rows: &[MutateRow]) -> String {
    let mut json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"nodes\": {}, \"edges\": {}, \"threads\": {}, \
             \"churn_ops\": {}, \"apply_us\": {:.4}, \"warm_ms\": {:.4}, \
             \"footprint_ms\": {:.4}, \"evict_all_ms\": {:.4}, \"footprint_speedup\": {:.2}, \
             \"evictions_footprint\": {}, \"evictions_all\": {}, \"cached_entries\": {}, \
             \"catalog_hits\": {}, \"catalog_misses\": {}, \"catalog_hit_rate\": {:.3}}}{}",
            r.workload,
            r.nodes,
            r.edges,
            r.threads,
            r.churn_ops,
            r.apply_us,
            r.warm_ms,
            r.footprint_ms,
            r.evict_all_ms,
            r.footprint_speedup(),
            r.evictions_footprint,
            r.evictions_all,
            r.cached_entries,
            r.catalog_hits,
            r.catalog_misses,
            r.hit_rate(),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json
}

fn print_mutate_rows(rows: &[MutateRow]) {
    println!(
        "\n## dynamic graphs — base+delta churn, footprint-keyed vs evict-all invalidation (st)\n"
    );
    println!("| workload | n | edges | threads | apply/op | warm | footprint | evict-all | fp-x | evicted | hit-rate |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} | {:.2}µs | {:.1}ms | {:.1}ms | {:.1}ms | {:.2}x | {}/{} | {:.0}% |",
            r.workload,
            r.nodes,
            r.edges,
            r.threads,
            r.apply_us,
            r.warm_ms,
            r.footprint_ms,
            r.evict_all_ms,
            r.footprint_speedup(),
            r.evictions_footprint,
            r.evictions_all,
            r.hit_rate() * 100.0,
        );
    }
}

/// Index + names budget of the 10⁶-node scale row (the PR-5 contract,
/// unchanged).
const MILLION_BYTES_BUDGET: usize = 200_000_000;

/// Index + names budget of the 10⁷-node / 4·10⁷-edge scale row: the graph
/// index grows linearly with |V| and |E| (exactly 720 MB here, see
/// [`assert_index_layout`]), so the explicit contract at this size is
/// 2.4 GB — what must stay O(touched), and is separately asserted, is the
/// relation + sweep-scratch side.
const TEN_MILLION_BYTES_BUDGET: usize = 2_400_000_000;

/// Extracts the rows of an existing `"name": [...]` array from a
/// previously written baseline file, returning them with a trailing comma
/// so new rows can be appended after them — the cross-PR perf trajectory.
/// Defensive on purpose: a missing file, missing array or empty array all
/// yield `""` (fresh start) rather than an error.
fn prior_rows(path: &str, name: &str) -> String {
    let Ok(text) = std::fs::read_to_string(path) else {
        return String::new();
    };
    let open = format!("\"{name}\": [\n");
    let Some(start) = text.find(&open) else {
        return String::new();
    };
    let body = &text[start + open.len()..];
    let Some(end) = body.find("\n  ]") else {
        return String::new();
    };
    let inner = &body[..end];
    if inner.trim().is_empty() {
        String::new()
    } else {
        format!("{inner},\n")
    }
}

/// The append-dedupe key of one serialised row:
/// `(workload, graph, semantics, |V|, threads)`. Rows without a `threads`
/// field (the scale rows) key on 0; rows without `graph` / `semantics`
/// discriminators (everything except `BENCH_eval.json`'s `rows`) key on
/// the empty string. `None` for lines that don't look like a measurement
/// row.
fn row_key(line: &str) -> Option<(String, String, String, usize, usize)> {
    fn field_num(line: &str, name: &str) -> Option<usize> {
        let tag = format!("\"{name}\": ");
        let rest = &line[line.find(&tag)? + tag.len()..];
        let digits = &rest[..rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len())];
        digits.parse().ok()
    }
    fn field_str(line: &str, name: &str) -> Option<String> {
        let tag = format!("\"{name}\": \"");
        let rest = &line[line.find(&tag)? + tag.len()..];
        Some(rest[..rest.find('"')?].to_string())
    }
    let workload = field_str(line, "workload")?;
    let nodes = field_num(line, "nodes")?;
    Some((
        workload,
        field_str(line, "graph").unwrap_or_default(),
        field_str(line, "semantics").unwrap_or_default(),
        nodes,
        field_num(line, "threads").unwrap_or(0),
    ))
}

/// [`prior_rows`] minus every row whose `(workload, |V|, threads)` key is
/// re-measured in `new_rows` — and minus within-file duplicates (keeping
/// the most recent, i.e. last, occurrence). This is what bounds
/// `BENCH_scale.json`: repeated CI runs replace their own prior rows
/// instead of appending forever, while rows of configurations *not*
/// re-measured keep their trajectory.
fn prior_rows_deduped(path: &str, name: &str, new_rows: &str) -> String {
    let prior = prior_rows(path, name);
    if prior.is_empty() {
        return prior;
    }
    let new_keys: Vec<_> = new_rows.lines().filter_map(row_key).collect();
    let lines: Vec<&str> = prior.lines().collect();
    let mut kept: Vec<String> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let keep = match row_key(line) {
            // Defensive: pass unrecognised non-empty lines through rather
            // than silently deleting hand-edited content.
            None => !line.trim().is_empty(),
            Some(key) => {
                !new_keys.contains(&key)
                    && !lines[i + 1..]
                        .iter()
                        .filter_map(|l| row_key(l))
                        .any(|k| k == key)
            }
        };
        if keep {
            kept.push(line.trim_end().trim_end_matches(',').to_string());
        }
    }
    if kept.is_empty() {
        String::new()
    } else {
        format!("{},\n", kept.join(",\n"))
    }
}

/// Re-emits a [`prior_rows`] extraction verbatim as a complete array body
/// (no new rows appended): strips the trailing separator comma so the
/// array stays valid JSON. Used to carry arrays a bench mode does *not*
/// re-measure through its rewrite of a shared baseline file.
fn array_body(prior: &str) -> String {
    match prior.strip_suffix(",\n") {
        Some(inner) => format!("{inner}\n"),
        None => prior.to_string(),
    }
}

/// The `--mutate-smoke` CI gate: the dynamic-graph churn workload at
/// `|V| = 10⁵` (see [`measure_mutate`]), with the footprint-vs-evict-all
/// floor enforced. Writes `mutate_rows` into `path` (`BENCH_scale.json`),
/// appending to prior rows with `(workload, |V|, threads)` dedupe and
/// carrying the file's `scale_rows` / `steal_rows` through untouched.
pub fn run_mutate_smoke(path: &str, threads: usize) {
    let rows = vec![measure_mutate(100_000, threads, true)];
    print_mutate_rows(&rows);
    let new_mutate = mutate_rows_json(&rows);
    let prior_mutate = prior_rows_deduped(path, "mutate_rows", &new_mutate);
    let scale = array_body(&prior_rows(path, "scale_rows"));
    let steal = array_body(&prior_rows(path, "steal_rows"));
    let wal = array_body(&prior_rows(path, "wal_rows"));
    let mutate = prior_mutate + &new_mutate;
    write_scale_file(path, "--mutate-smoke", threads, [scale, steal, mutate, wal]);
}

/// One row of the durability workloads (`wal_rows` in `BENCH_scale.json`):
/// per-mutation WAL apply latency under one sync policy, plus the
/// recovery (reopen + replay) wall clock, at `|V| = 10⁵` single-label
/// churn over the real filesystem ([`crpq_util::StdStorage`]).
struct WalRow {
    /// `wal_churn_<policy>` — the policy is part of the workload name so
    /// the append-dedupe key keeps one row per policy.
    workload: &'static str,
    nodes: usize,
    edges: usize,
    policy: String,
    churn_ops: usize,
    /// Mean per-mutation apply latency (µs), WAL append + policy sync
    /// included.
    apply_us: f64,
    /// Reopen wall clock: read checkpoint, verify, replay the full WAL.
    recover_ms: f64,
    /// Records replayed by that reopen (= records logged by the churn).
    replayed: usize,
    /// WAL size after the churn (bytes).
    wal_bytes: usize,
}

fn wal_rows_json(rows: &[WalRow]) -> String {
    let mut json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"nodes\": {}, \"edges\": {}, \"policy\": \"{}\", \
             \"churn_ops\": {}, \"apply_us\": {:.4}, \"recover_ms\": {:.4}, \
             \"replayed\": {}, \"wal_bytes\": {}}}{}",
            r.workload,
            r.nodes,
            r.edges,
            r.policy,
            r.churn_ops,
            r.apply_us,
            r.recover_ms,
            r.replayed,
            r.wal_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json
}

fn print_wal_rows(rows: &[WalRow]) {
    println!("\n## durable graphs — WAL apply + recovery vs sync policy (single-label churn)\n");
    println!("| workload | n | edges | policy | apply/op | recover | replayed | wal bytes |");
    println!("|---|---|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {} | {} | {:.2}µs | {:.1}ms | {} | {} |",
            r.workload,
            r.nodes,
            r.edges,
            r.policy,
            r.apply_us,
            r.recover_ms,
            r.replayed,
            r.wal_bytes,
        );
    }
}

/// Measures one durability row: churn `ops` single-label mutations at `n`
/// nodes through a [`DurableGraph`] on the real filesystem under
/// `policy`, then reopen and time recovery. `Always` drives group-commit
/// batches (100 mutations per `apply_batch`, one sync each); the other
/// policies apply single mutations. With `enforce_ceiling` (the CI gate),
/// the mean apply latency and the recovery wall clock must stay under
/// generous ceilings — like the scale gates, these only catch asymptotic
/// regressions (an fsync per byte, or recovery re-reading the WAL per
/// record, would blow straight through).
fn measure_wal(
    n: usize,
    ops: usize,
    workload: &'static str,
    policy: SyncPolicy,
    enforce_ceiling: bool,
) -> WalRow {
    const APPLY_CEILING_US: f64 = 2_000.0;
    const RECOVER_CEILING_MS: f64 = 60_000.0;
    let dir = std::env::temp_dir().join(format!("crpq_wal_smoke_{workload}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create wal smoke dir"); // invariant: harness IO is fail-fast
    let snap = dir.join("g.snap");
    let wal = dir.join("g.wal");
    let (snap, wal) = (snap.to_str().unwrap(), wal.to_str().unwrap()); // invariant: temp paths are UTF-8

    let base = scaling::million_graph(n, 7);
    let mut d =
        DurableGraph::create(snap, wal, base, policy).expect("init durable store for wal smoke"); // invariant: harness IO is fail-fast
    let hot = d.label("l0").expect("million graph interns l0"); // invariant: million_graph always interns l0
    let mut rng = SplitMix(0xD04AB1E ^ n as u64);
    let mutation = |rng: &mut SplitMix, i: usize| {
        let u = NodeId(rng.below(n) as u32);
        let v = NodeId(rng.below(n) as u32);
        if i.is_multiple_of(2) {
            EdgeMutation::Insert { u, label: hot, v }
        } else {
            EdgeMutation::Delete { u, label: hot, v }
        }
    };
    let t0 = Instant::now();
    if policy == SyncPolicy::Always {
        // Group commit: one append + one fsync per 100-mutation batch —
        // per-mutation fsync would measure the disk, not the WAL.
        for batch_start in (0..ops).step_by(100) {
            let batch: Vec<EdgeMutation> = (batch_start..(batch_start + 100).min(ops))
                .map(|i| mutation(&mut rng, i))
                .collect();
            d.apply_batch(&batch).expect("wal smoke batch"); // invariant: harness IO is fail-fast
        }
    } else {
        for i in 0..ops {
            match mutation(&mut rng, i) {
                EdgeMutation::Insert { u, label, v } => d.insert_edge(u, label, v),
                EdgeMutation::Delete { u, label, v } => d.delete_edge(u, label, v),
            }
            .expect("wal smoke mutation"); // invariant: harness IO is fail-fast
        }
        d.sync_wal().expect("wal smoke final sync"); // invariant: harness IO is fail-fast
    }
    let apply_us = t0.elapsed().as_secs_f64() * 1e6 / ops as f64;
    let logged = d.records_since_checkpoint();
    let live_edges = GraphView::num_edges(d.graph());
    drop(d);

    let wal_bytes = std::fs::metadata(wal).expect("stat wal").len() as usize; // invariant: harness IO is fail-fast
    let ((d2, report), recover_ms) =
        time_once(|| DurableGraph::open(snap, wal, policy).expect("wal smoke recovery")); // invariant: harness IO is fail-fast
    assert_eq!(
        report.replayed, logged,
        "recovery replayed a different record count than the writer logged"
    );
    assert_eq!(
        GraphView::num_edges(d2.graph()),
        live_edges,
        "recovered edge count diverged from the live graph"
    );
    assert_eq!(
        report.mutated_labels,
        vec![hot],
        "single-label churn must report exactly the hot label"
    );
    let row = WalRow {
        workload,
        nodes: GraphView::num_nodes(d2.graph()),
        edges: live_edges,
        policy: policy.to_string(),
        churn_ops: ops,
        apply_us,
        recover_ms,
        replayed: report.replayed,
        wal_bytes,
    };
    if enforce_ceiling {
        assert!(
            row.apply_us < APPLY_CEILING_US,
            "wal apply exceeded the per-mutation ceiling under {}: {:.1}µs > {APPLY_CEILING_US}µs",
            row.policy,
            row.apply_us
        );
        assert!(
            row.recover_ms < RECOVER_CEILING_MS,
            "wal recovery exceeded the wall-clock ceiling under {}: {:.0}ms > {RECOVER_CEILING_MS}ms",
            row.policy,
            row.recover_ms
        );
    }
    drop(d2);
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// The `--wal-smoke` CI gate: single-label churn through the durability
/// layer at `|V| = 10⁵` under each sync policy (`always` via 100-mutation
/// group commits, `every:64`, `never`), with apply-latency and
/// recovery-wall-clock ceilings enforced. Writes `wal_rows` into `path`
/// (`BENCH_scale.json`), appending with the usual `(workload, |V|)`
/// dedupe and carrying the other arrays through untouched.
pub fn run_wal_smoke(path: &str) {
    const OPS: usize = 10_000;
    const N: usize = 100_000;
    let rows = vec![
        measure_wal(N, OPS, "wal_churn_always", SyncPolicy::Always, true),
        measure_wal(N, OPS, "wal_churn_every64", SyncPolicy::EveryN(64), true),
        measure_wal(N, OPS, "wal_churn_never", SyncPolicy::Never, true),
    ];
    print_wal_rows(&rows);
    let new_wal = wal_rows_json(&rows);
    let prior_wal = prior_rows_deduped(path, "wal_rows", &new_wal);
    let scale = array_body(&prior_rows(path, "scale_rows"));
    let steal = array_body(&prior_rows(path, "steal_rows"));
    let mutate = array_body(&prior_rows(path, "mutate_rows"));
    let wal = prior_wal + &new_wal;
    write_scale_file(path, "--wal-smoke", 1, [scale, steal, mutate, wal]);
}

/// Writes `BENCH_scale.json` at `path`: the `experiments` mode that
/// generated it, the `machine` it ran on with `threads` workers, and the
/// bodies of its `scale_rows`, `steal_rows`, `mutate_rows` and `wal_rows`
/// arrays, in that order.
fn write_scale_file(path: &str, mode: &str, threads: usize, arrays: [String; 4]) {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p crpq-bench --bin experiments -- {mode}\","
    );
    let _ = writeln!(json, "  \"machine\": {},", machine_json(threads));
    let names = ["scale_rows", "steal_rows", "mutate_rows", "wal_rows"];
    for (i, (name, body)) in names.iter().zip(&arrays).enumerate() {
        let sep = if i + 1 < names.len() { "," } else { "" };
        let _ = write!(json, "  \"{name}\": [\n{body}  ]{sep}\n");
    }
    json.push_str("}\n");
    std::fs::write(path, &json).expect("write scale smoke JSON"); // invariant: harness IO is fail-fast
    println!("\nwrote {path}");
}

/// Upper bound on relation assembly time as a fraction of the sweep time
/// producing the rows, in the `10⁶` `scale_million` row.
const ASSEMBLY_SWEEP_RATIO: f64 = 0.5;

/// Sweep workers of the `10⁶` `scale_million` row, whatever the CPU count
/// or `--threads`: the assembly gate compares serial assembly against the
/// sweeps' wall clock, so it holds only at the worker count it was
/// measured at.
const ASSEMBLY_GATE_THREADS: usize = 2;

/// The `--scale-smoke` materialisation gate: in `row` (`scale_million`
/// at `10⁶` nodes, swept by [`ASSEMBLY_GATE_THREADS`] workers), summed
/// `assembly_ms ≤` [`ASSEMBLY_SWEEP_RATIO`] `· sweep_ms`. Assembly runs on
/// one thread after the sweeps, so the ratio pins that it stays a small
/// serial tail of materialisation without an absolute time bound.
fn assert_assembly_share(row: &ScaleRow) {
    assert_eq!(row.workload, "scale_million");
    let bound = ASSEMBLY_SWEEP_RATIO * row.sweep_ms;
    assert!(
        row.assembly_ms <= bound,
        "relation assembly {:.0}ms exceeds {bound:.0}ms ({ASSEMBLY_SWEEP_RATIO} x the \
         {:.0}ms of sweeps on {ASSEMBLY_GATE_THREADS} workers) at |V|={}",
        row.assembly_ms,
        row.sweep_ms,
        row.nodes,
    );
}

/// Upper bound on how much the non-materialisation time of the million
/// family may grow from `10⁶` to `10⁷` nodes (10× the data).
const SEARCH_SCALING_FACTOR: f64 = 30.0;

/// The `--scale-smoke` scaling gate over two `scale_million` rows of the
/// same run, `small` at `10⁶` and `large` at `10⁷` nodes: `large.eval_ms −
/// large.mat_ms ≤` [`SEARCH_SCALING_FACTOR`] `· (small.eval_ms −
/// small.mat_ms)`. Materialisation is excluded, so only the layers after
/// it (semi-join pruning, search, output) are gated.
fn assert_search_scaling(small: &ScaleRow, large: &ScaleRow) {
    assert_eq!(small.workload, "scale_million");
    assert_eq!(large.workload, "scale_million");
    let rest = |r: &ScaleRow| r.eval_ms - r.mat_ms;
    let (rest_small, rest_large) = (rest(small), rest(large));
    assert!(
        rest_large <= SEARCH_SCALING_FACTOR * rest_small,
        "search time scales superlinearly: {rest_large:.0}ms at |V|={} vs \
         {rest_small:.0}ms at |V|={} ({:.1}x, bound {SEARCH_SCALING_FACTOR}x)",
        large.nodes,
        small.nodes,
        rest_large / rest_small.max(1e-9)
    );
}

/// The `--scale-smoke` CI gate, four rows:
///
/// * `|V| = 10⁵`, 10³-label Zipf workload under its wall-clock ceiling
///   with the sparse label-index memory contract (the PR-3 gate,
///   unchanged);
/// * `|V| = 10⁶` / `4·10⁶`-edge anonymous workload (build + catalog
///   evaluation, st) under its own ceiling, with the O(touched) memory
///   contract: zero name bytes, index + names ≤ ~200 MB, and peak sweep
///   scratch far below one dense `|V|·|Q|` stamp array, assembly
///   transients no larger than the relations, and relation assembly at
///   most [`ASSEMBLY_SWEEP_RATIO`] of the sweep time; its catalog always
///   sweeps on [`ASSEMBLY_GATE_THREADS`] workers
///   ([`assert_assembly_share`]);
/// * `|V| = 10⁷` / `4·10⁷`-edge anonymous workload under the same
///   O(touched) contracts at its own index budget (~2.4 GB — the graph
///   index is linear in |V|; relations and scratch must not be), and
///   the scaling gate: its non-materialisation time (`eval_ms −
///   mat_ms`: semi-join pruning, search, output) is at most
///   [`SEARCH_SCALING_FACTOR`]× that of the `10⁶` row (linear scaling
///   reads 10×, a per-search-node `O(|V|)` term ~70×);
/// * the skewed-Zipf work-stealing row: full evaluation through the
///   work-stealing search and on one thread, with the ≥ 1.5× stealing
///   floor enforced on machines with ≥ 4 CPUs.
///
/// Writes the measurements to `path` (same `scale_rows` schema as
/// `BENCH_eval.json`), **appending** to any rows already present in the
/// file so the trajectory across PRs stays visible. `threads` sets the
/// sweep workers of every row but the `10⁶` one; `0` keeps the documented
/// fallback (one worker per CPU, capped at 16).
pub fn run_scale_smoke(path: &str, threads: usize) {
    // Generous ceilings: the workloads run in seconds on a laptop; the
    // ceilings only have to catch asymptotic regressions (a dense
    // label × node index rebuild, per-source quadratic sweeps or dense
    // per-worker scratch at 10⁶ nodes would blow straight through them).
    const CEILING_MS: f64 = 120_000.0;
    const MILLION_CEILING_MS: f64 = 300_000.0;
    const TEN_MILLION_CEILING_MS: f64 = 600_000.0;
    let rows = vec![
        measure_scale(100_000, CEILING_MS, true, threads),
        measure_million(
            1_000_000,
            MILLION_CEILING_MS,
            true,
            ASSEMBLY_GATE_THREADS,
            MILLION_BYTES_BUDGET,
        ),
        measure_million(
            10_000_000,
            TEN_MILLION_CEILING_MS,
            true,
            threads,
            TEN_MILLION_BYTES_BUDGET,
        ),
    ];
    // The scheduler comparison runs at 16 workers (the CI criterion size)
    // unless --threads overrides it.
    let steal_rows = vec![measure_steal(
        60_000,
        if threads == 0 { 16 } else { threads },
        true,
    )];
    print_scale_rows(&rows);
    print_steal_rows(&steal_rows);
    assert_assembly_share(&rows[1]);
    assert_search_scaling(&rows[1], &rows[2]);
    let new_scale = scale_rows_json(&rows);
    let new_steal = steal_rows_json(&steal_rows);
    let prior_scale = prior_rows_deduped(path, "scale_rows", &new_scale);
    let prior_steal = prior_rows_deduped(path, "steal_rows", &new_steal);
    // Not re-measured here — carried through so the smoke modes can
    // rewrite the shared file in any order.
    let mutate = array_body(&prior_rows(path, "mutate_rows"));
    let wal = array_body(&prior_rows(path, "wal_rows"));
    let (scale, steal) = (prior_scale + &new_scale, prior_steal + &new_steal);
    write_scale_file(path, "--scale-smoke", threads, [scale, steal, mutate, wal]);
}

/// The `machine` object of `BENCH_eval.json` and `BENCH_scale.json`:
/// available CPUs, the smoke's resolved thread count and total RAM from `/proc/meminfo` (`0` where
/// either is unreadable).
fn machine_json(threads: usize) -> String {
    let cpus = crpq_util::sync::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mem_total_kb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("MemTotal:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .unwrap_or(0);
    format!(
        "{{\"cpus\": {cpus}, \"threads\": {}, \"mem_total_kb\": {mem_total_kb}}}",
        crpq_graph::rpq::effective_threads(threads)
    )
}

/// Runs the E2 + E9 evaluation comparison and writes `path`.
///
/// With `enforce_floor`, the headline numbers are hard assertions (the CI
/// smoke gate): the ≥10× join-vs-legacy speedup at |V| = 10³, a catalog
/// hit-rate > 0 on the multi-variant E9 workload, the warm hub-triangle
/// join at n = 80 000 within [`HUB_SCALING_BOUND`]× its time at 5 000
/// under st and a-inj (medians of 5), and warm a-inj and q-inj each
/// within 3× of st on the triangle (medians of 5). Without it, shortfalls
/// are only reported — the full experiment suite should finish with
/// measurements either way.
/// `threads = 0` keeps the documented fallback (one materialisation
/// worker per CPU, capped at 16).
pub fn run_smoke(path: &str, enforce_floor: bool, threads: usize) {
    println!("## BENCH_eval — catalog-backed planner vs. legacy enumeration\n");
    println!("| workload | graph | n | sem | tuples | join | legacy | mat | hit-rate | legacy-x |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut rows: Vec<Row> = Vec::new();

    // E2: the paper's running example, all three semantics.
    let mut sigma = Interner::new();
    let q = paper::example21_query(&mut sigma);
    for (name, g) in [
        ("G", paper::example21_g(&sigma)),
        ("Gprime", paper::example21_gprime(&sigma)),
        ("Gfull", paper::example21_full_separation(&sigma)),
    ] {
        for sem in Semantics::ALL {
            rows.push(measure("e2_example21", name, &q, &g, sem, threads));
        }
    }

    // E9 data complexity: fixed arity-2 queries over growing random
    // graphs. Two query shapes:
    //
    // * `e9_data_complexity` — the original 2-atom query (both atoms
    //   nullable → 4 ε-free variants over 2 distinct atoms, hit rate 1/2);
    //   carries the historical ≥10× join-vs-legacy floor.
    // * `e9_multi_variant` — the 3-atom triangle with every atom nullable
    //   (2³ = 8 variants over 3 distinct atoms, hit rate 3/4): the
    //   planner-layer stress case, where a per-variant engine would
    //   materialise 12 relations against the catalog's 3. Carries the
    //   hit-rate > 0 gate.
    //
    // Standard semantics scales to |V| = 10³ (the headline comparisons);
    // the injective semantics are measured at |V| = 10² where the legacy
    // oracle still terminates quickly.
    let mut sigma = Interner::new();
    let q2 = scaling::data_complexity_query(&mut sigma);
    let mut sigma_mv = Interner::new();
    let qmv = scaling::multi_variant_query(&mut sigma_mv);
    for (workload, q) in [("e9_data_complexity", &q2), ("e9_multi_variant", &qmv)] {
        for n in [100usize, 300, 1000] {
            let g = scaling::data_complexity_graph(n, 11);
            rows.push(measure(
                workload,
                &format!("random({n})"),
                q,
                &g,
                Semantics::Standard,
                threads,
            ));
            if n <= 100 {
                for sem in [Semantics::AtomInjective, Semantics::QueryInjective] {
                    rows.push(measure(
                        workload,
                        &format!("random({n})"),
                        q,
                        &g,
                        sem,
                        threads,
                    ));
                }
            }
        }
    }

    // Scale workloads at trajectory sizes (the CI scale gate runs
    // |V| = 10⁵ / 10⁶ via `--scale-smoke`): records build/eval wall clock
    // plus the index/name/relation/scratch memory proxies, and asserts
    // the sparse label-index and O(touched) memory contracts here too.
    let scale_rows = vec![
        measure_scale(10_000, f64::INFINITY, false, threads),
        measure_million(100_000, f64::INFINITY, false, threads, MILLION_BYTES_BUDGET),
    ];

    // Cyclic shapes, plus the warm hub-triangle rows that carry the CI
    // AGM scaling gate: per semantics, the larger input's join time over
    // the smaller's.
    let mut cyclic_rows = measure_cyclic_rows();
    let hub_rows = measure_hub_scaling();
    let hub_ratios: Vec<f64> = hub_rows
        .chunks(HUB_SIZES.len())
        .map(|p| p[1].join_ms / p[0].join_ms.max(1e-9))
        .collect();
    let hub_tuples = hub_rows.iter().map(|r| r.tuples).min().unwrap_or(0);
    cyclic_rows.extend(hub_rows);

    // Injective verification over a warm catalog, for the CI "a-inj and
    // q-inj within 3x of st" gate.
    let (inj_tuples, inj_ms) = measure_injective();
    let over_st = |k: usize| inj_ms[k] / inj_ms[0].max(1e-9);

    // Streaming fast paths on the million family: 10⁵ for the trajectory,
    // 10⁶ as the CI floor carrier (time-to-first ≤ 50% of full, ASK no
    // slower than time-to-first).
    let stream_rows = vec![
        measure_stream(100_000, threads, false),
        measure_stream(1_000_000, threads, enforce_floor),
    ];

    for r in &rows {
        println!(
            "| {} | {} | {} | {} | {} | {:.3}ms | {:.3}ms | {:.3}ms | {:.0}% | {:.1}x |",
            r.workload,
            r.graph,
            r.nodes,
            r.semantics,
            r.tuples,
            r.join_ms,
            r.legacy_ms,
            r.mat_ms,
            r.hit_rate() * 100.0,
            r.speedup()
        );
    }

    print_scale_rows(&scale_rows);
    print_stream_rows(&stream_rows);
    print_cyclic_rows(&cyclic_rows);

    let mut new_rows = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            new_rows,
            "    {{\"workload\": \"{}\", \"graph\": \"{}\", \"nodes\": {}, \"edges\": {}, \
             \"arity\": {}, \"semantics\": \"{}\", \"tuples\": {}, \"join_ms\": {:.4}, \
             \"legacy_ms\": {:.4}, \"mat_ms\": {:.4}, \
             \"catalog_hits\": {}, \"catalog_misses\": {}, \"catalog_hit_rate\": {:.3}, \
             \"speedup\": {:.2}, \"index_bytes\": {}, \
             \"rel_bytes\": {}, \"scratch_bytes\": {}}}{}",
            r.workload,
            r.graph,
            r.nodes,
            r.edges,
            r.arity,
            r.semantics,
            r.tuples,
            r.join_ms,
            r.legacy_ms,
            r.mat_ms,
            r.catalog_hits,
            r.catalog_misses,
            r.hit_rate(),
            r.speedup(),
            r.index_bytes,
            r.rel_bytes,
            r.scratch_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    // Every array appends to the prior baseline with per-configuration
    // dedupe — same policy as BENCH_scale.json, so configurations dropped
    // from a future smoke keep their last measurement on record.
    let new_scale = scale_rows_json(&scale_rows);
    let new_stream = stream_rows_json(&stream_rows);
    let new_cyclic = cyclic_rows_json(&cyclic_rows);
    let new_injective = format!(
        "    {{\"workload\": \"injective_triangle\", \"graph\": \"cyclic(2000, 11)\", \
         \"tuples\": {inj_tuples:?}, \"ms\": [{:.4}, {:.4}, {:.4}], \"ainj_over_st\": {:.2}, \
         \"qinj_over_st\": {:.2}}}\n",
        inj_ms[0],
        inj_ms[1],
        inj_ms[2],
        over_st(1),
        over_st(2)
    );
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p crpq-bench --bin experiments -- --smoke\",\n",
    );
    let _ = writeln!(json, "  \"machine\": {},", machine_json(threads));
    json.push_str("  \"rows\": [\n");
    json.push_str(&prior_rows_deduped(path, "rows", &new_rows));
    json.push_str(&new_rows);
    json.push_str("  ],\n");
    json.push_str("  \"scale_rows\": [\n");
    json.push_str(&prior_rows_deduped(path, "scale_rows", &new_scale));
    json.push_str(&new_scale);
    json.push_str("  ],\n");
    json.push_str("  \"stream_rows\": [\n");
    json.push_str(&prior_rows_deduped(path, "stream_rows", &new_stream));
    json.push_str(&new_stream);
    json.push_str("  ],\n");
    json.push_str("  \"cyclic_rows\": [\n");
    json.push_str(&prior_rows_deduped(path, "cyclic_rows", &new_cyclic));
    json.push_str(&new_cyclic);
    json.push_str("  ],\n");
    json.push_str("  \"injective_rows\": [\n");
    json.push_str(&prior_rows_deduped(path, "injective_rows", &new_injective));
    json.push_str(&new_injective);
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json).expect("write BENCH_eval.json"); // invariant: harness IO is fail-fast
    println!("\nwrote {path}");

    // Headline numbers the CI smoke asserts on, over the E9 rows at
    // |V| ≈ 10³, arity 2:
    //
    // 1. the join engine must beat legacy enumeration by ≥ 10× (both E9
    //    query shapes);
    // 2. the multi-variant query must actually share atoms through the
    //    catalog (hit-rate > 0).
    let e9: Vec<&Row> = rows
        .iter()
        .filter(|r| r.workload.starts_with("e9_") && r.nodes >= 1000)
        .collect();
    let mv: Vec<&Row> = rows
        .iter()
        .filter(|r| r.workload == "e9_multi_variant" && r.nodes >= 1000)
        .collect();
    let headline = e9.iter().map(|r| r.speedup()).fold(f64::INFINITY, f64::min);
    let min_hit_rate = mv
        .iter()
        .map(|r| r.hit_rate())
        .fold(f64::INFINITY, f64::min);
    println!("headline e9 speedup at |V|=10^3: {headline:.1}x (target ≥ 10x)");
    println!(
        "e9 multi-variant catalog hit-rate at |V|=10^3: {:.0}% (target > 0)",
        min_hit_rate * 100.0
    );
    println!(
        "hub triangle warm join, n = {} -> {} (medians of {CYCLIC_SAMPLES}): st {:.1}x, \
         a-inj {:.1}x (target: each ≤ {HUB_SCALING_BOUND}x; AGM allows 64x, a pairwise plan 256x)",
        HUB_SIZES[0], HUB_SIZES[1], hub_ratios[0], hub_ratios[1]
    );
    println!(
        "injective triangle, warm catalog (medians of {CYCLIC_SAMPLES}): st {:.2}ms, \
         a-inj {:.2}x, q-inj {:.2}x (target: each ≤ {INJECTIVE_RATIO_BOUND}x st)",
        inj_ms[0],
        over_st(1),
        over_st(2)
    );
    if enforce_floor {
        assert!(
            headline >= 10.0,
            "join-based evaluator regressed below the 10x target: {headline:.1}x"
        );
        assert!(
            min_hit_rate > 0.0,
            "catalog hit-rate is 0 on the multi-variant E9 workload — atom sharing broke"
        );
        assert!(
            hub_ratios.iter().all(|&r| r <= HUB_SCALING_BOUND),
            "hub-triangle join grew more than {HUB_SCALING_BOUND}x over a 16x larger input: \
             st {:.1}x, a-inj {:.1}x",
            hub_ratios[0],
            hub_ratios[1]
        );
        assert!(
            hub_tuples > 0,
            "hub triangle returned no tuples — the scaling gate proves nothing"
        );
        assert!(
            inj_tuples.iter().all(|&t| t > 0),
            "injective triangle returned no tuples under some semantics — the gate proves nothing"
        );
        assert!(
            over_st(1) <= INJECTIVE_RATIO_BOUND && over_st(2) <= INJECTIVE_RATIO_BOUND,
            "injective verification more than {INJECTIVE_RATIO_BOUND}x the st join on the \
             triangle: st / a-inj / q-inj {inj_ms:.2?} ms"
        );
    } else {
        if headline < 10.0 {
            println!("warning: headline below the 10x target (not enforced outside --smoke)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{prior_rows_deduped, row_key};

    #[test]
    fn row_key_reads_workload_nodes_and_optional_discriminators() {
        let steal = r#"    {"workload": "zipf_steal", "nodes": 60000, "threads": 16, "ms": 1.0},"#;
        assert_eq!(
            row_key(steal),
            Some((
                "zipf_steal".to_string(),
                String::new(),
                String::new(),
                60_000,
                16
            ))
        );
        let scale = r#"    {"workload": "million", "nodes": 1000000, "eval_ms": 3.0}"#;
        assert_eq!(
            row_key(scale),
            Some((
                "million".to_string(),
                String::new(),
                String::new(),
                1_000_000,
                0
            ))
        );
        // The eval rows carry graph + semantics discriminators, so the
        // three semantics of one workload/graph pair stay distinct keys.
        let eval = r#"    {"workload": "e2", "graph": "G", "nodes": 5, "semantics": "a-inj"},"#;
        assert_eq!(
            row_key(eval),
            Some(("e2".to_string(), "G".to_string(), "a-inj".to_string(), 5, 0))
        );
        assert_eq!(row_key("  ],"), None);
    }

    #[test]
    fn prior_rows_dedupe_replaces_remeasured_and_keeps_last_duplicate() {
        let path = std::env::temp_dir().join(format!("bench-dedupe-{}.json", std::process::id()));
        let text = concat!(
            "{\n",
            "  \"scale_rows\": [\n",
            "    {\"workload\": \"zipf\", \"nodes\": 100000, \"threads\": 4, \"eval_ms\": 1.0},\n",
            "    {\"workload\": \"zipf\", \"nodes\": 100000, \"threads\": 4, \"eval_ms\": 2.0},\n",
            "    {\"workload\": \"million\", \"nodes\": 1000000, \"eval_ms\": 3.0}\n",
            "  ]\n",
            "}\n",
        );
        std::fs::write(&path, text).unwrap();
        let path_str = path.to_str().unwrap();

        // Re-measuring `million` drops its prior row; the duplicated `zipf`
        // row keeps only its last (most recent) occurrence.
        let new_rows = "    {\"workload\": \"million\", \"nodes\": 1000000, \"eval_ms\": 9.0},\n";
        let deduped = prior_rows_deduped(path_str, "scale_rows", new_rows);
        assert_eq!(
            deduped,
            "    {\"workload\": \"zipf\", \"nodes\": 100000, \"threads\": 4, \"eval_ms\": 2.0},\n"
        );

        // Nothing re-measured: both distinct keys survive, still deduped.
        let untouched = prior_rows_deduped(path_str, "scale_rows", "");
        assert_eq!(untouched.lines().count(), 2);
        assert!(untouched.contains("\"eval_ms\": 2.0"));
        assert!(untouched.contains("\"million\""));
        assert!(!untouched.contains("\"eval_ms\": 1.0"));

        // Missing file / missing array stay a fresh start.
        assert_eq!(prior_rows_deduped(path_str, "no_such_array", ""), "");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(prior_rows_deduped(path_str, "scale_rows", ""), "");
    }
}
