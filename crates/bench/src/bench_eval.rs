//! `BENCH_eval` — wall-clock comparison of the catalog-backed planner
//! engine against the legacy `|V|^arity` enumeration oracle, on the E2
//! (Example 2.1) and E9 (data-complexity) workloads, plus the scale,
//! streaming, cyclic, injective, scheduler, mutation and durability
//! workloads, written to JSON baseline files.
//!
//! Every measurement is one `Row`: the workload name followed by named
//! values. `print_table` prints a row set with one column per field under
//! its JSON name, and `write_baseline` rewrites a baseline file with one
//! JSON object per row. Every row records the `cpus` of the machine and
//! the resolved `threads` it was measured with, and its written JSON the
//! `mode` that wrote it.
//!
//! `rows` (E2/E9) time two engines per row:
//!
//! * **join** — an [`Eval`] request against a fresh caller-owned
//!   [`RelationCatalog`]: each distinct atom relation materialised once
//!   per query (shared across ε-free variants), per-source sweeps over
//!   blocks of source ids on several threads. Catalog metrics (hits,
//!   misses, hit rate, materialisation wall clock) come from one
//!   instrumented run; `catalog_hit_rate > 0` on the multi-variant rows is
//!   the CI proof that atoms are shared.
//! * **legacy** — the enumeration oracle ([`eval_tuples_enumerate`]).
//!
//! Every row also records a **peak-RSS proxy**: `index_bytes` (the graph's
//! node-major adjacency, both directions) and `rel_bytes` (every relation
//! materialised by the instrumented catalog run).
//!
//! The **scale workloads** (`scale_rows`) are too large for the legacy
//! enumeration oracle, so they record only the catalog engine's
//! build/evaluation wall clock, the materialisation split (`mat_ms` =
//! `sweep_ms` producing rows + `assembly_ms` building the relations +
//! catalog upkeep), plus the memory proxies (`index_bytes`, `name_bytes`,
//! `rel_bytes`, `scratch_bytes`, `assembly_bytes`):
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
//!   budget, peak sweep-scratch bytes far below one dense `|V|·|Q|` stamp
//!   array, and `assembly_bytes` no larger than `rel_bytes`. `--smoke`
//!   runs `|V| = 10⁵`; `--scale-smoke` runs `|V| = 10⁶` (~200 MB budget;
//!   swept by two workers, relation assembly at most half the sweep time)
//!   and `|V| = 10⁷` (~2.4 GB index budget), each under its own
//!   wall-clock ceiling.
//!
//! `steal_rows` in `BENCH_scale.json` are history: they timed a
//! work-stealing join search against one thread, which no row showed to
//! pay, so the search and its row were deleted and `write_baseline`
//! carries the committed rows through.
//!
//! The **cyclic workloads** (`cyclic_rows`) time the join on the triangle /
//! 4-cycle / diamond-with-chord CRPQs of [`crpq_workloads::cyclic`] (cold,
//! medians of 5), and the warm triangle join on the heavy-hitter
//! [`cyclic::hub_triangle_graph`] at n = 5 000 and 80 000 under st, a-inj
//! and q-inj. `--smoke` gates the AGM scaling on the hub rows: under each
//! semantics the 16× larger input may cost at most `HUB_SCALING_BOUND`×
//! the time, where the `|R|^{3/2}` bound allows 64× and a pairwise plan,
//! binding n² spoke pairs at the hub, pays 256×. At n = 80 000 q-inj may
//! take at most `INJECTIVE_RATIO_BOUND`× the st time: every atom is one
//! letter, so q-inj verification places nothing. The hub rows also carry
//! the warm `ask_ms`, and `--smoke` gates its growth from n = 5 000 to
//! 80 000 by `HUB_ASK_SCALING_BOUND`×: a warm ASK is one cursor step
//! over the catalog's memoised plans, with no `O(|V|)` planning. Their
//! `mat_ms` is the cold materialisation of the three atom relations, read
//! from the catalog after the warming `tuples()` (no gate).
//!
//! The **injective workload** (`injective_rows`) times the triangle on
//! `cyclic_graph(2 000, 11)` under st, a-inj and q-inj over one warm
//! catalog (medians of 5 interleaved `tuples()` runs each), so nothing but
//! join search and injective verification is measured. `--smoke` asserts
//! that a-inj and q-inj each take at most 3× the st median. Every triangle
//! atom is one letter, so that row never reaches the simple-path search;
//! the `injective_fin_chain` row times `FIN_CHAIN_QUERY` on the same
//! graph, whose `a (b + c)` atom searches for every candidate pair, and
//! `--smoke` bounds its a-inj/st and q-inj/st by
//! `FIN_CHAIN_RATIO_BOUND`×.
//!
//! The **streaming workloads** (`stream_rows`) time the early-exit
//! enumeration API on the million-node family: warm-catalog
//! time-to-first-tuple ([`Eval::limit`] with k = 1), time-to-k,
//! [`Eval::ask`] and the cold end-to-end first and last tuple off a fresh
//! pull stream (`Eval::stream`), against the warm full materialisation
//! over the same catalog, every path on one thread (there is no thread
//! knob). Every path is a median of 5 interleaved samples. `--smoke`
//! enforces the CI floors at `|V| = 10⁶`: time-to-first ≤ 50 % of the
//! full-materialisation wall clock, `ASK` no slower than time-to-first
//! (small noise guard), and the cold stream's first tuple within
//! `STREAM_FIRST_FRACTION_BOUND` of its last. Warm requests reuse the
//! catalog's memoised plans, so neither side pays the semi-join pass; a
//! `LIMIT 1` that drains the whole search reads ≈ 1.0. A cold stream's
//! first tuple comes from the witness phase, before any relation is
//! built (~0.01 of the drained stream); a first tuple that waits for
//! every relation reads ~0.85.
//!
//! The **mutation workload** (`mutate_rows` in `BENCH_scale.json`, the
//! `--mutate-smoke` gate) exercises the dynamic-graph path: a
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
//! The **durability workloads** (`wal_rows` in `BENCH_scale.json`, the
//! `--wal-smoke` gate) record WAL apply latency per sync policy plus the
//! recovery wall clock.
//!
//! The JSON is hand-serialised (the workspace's `serde` is an offline no-op
//! shim). A baseline file is a `generated_by` command (the mode that
//! rewrote the file last, not necessarily the one that measured a given
//! row), a `machine` object (`cpus`, `mem_total_kb`) and the file's arrays
//! (`BENCH_eval.json`: `EVAL_ARRAYS`; `BENCH_scale.json`: `SCALE_ARRAYS`).
//! Every row written records the `experiments` mode that measured it as
//! its `mode` field (rows written before the field was added lack it).
//! Each rewrite keeps the rows already in the file, then this run's rows,
//! and of those the last row per [`row_key`] — a repeated CI run replaces
//! its own prior measurement instead of growing the file, while
//! configurations no longer measured keep their trajectory.

use crpq_core::{eval_tuples_enumerate, Eval, RelationCatalog, Semantics};
use crpq_graph::rpq::{effective_threads, RelationRow};
use crpq_graph::{DeltaGraph, DurableGraph, EdgeMutation, GraphDb, GraphView, NodeId, SyncPolicy};
use crpq_query::{parse_crpq, Crpq};
use crpq_util::{BitSet, Interner};
use crpq_workloads::{cyclic, paper_examples as paper, scaling};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One field value of a [`Row`].
#[derive(Debug)]
enum Value {
    Int(usize),
    /// Written with 4 decimals.
    Num(f64),
    Text(String),
    List(Vec<Value>),
}

impl Value {
    fn json(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Num(v) => format!("{v:.4}"),
            Value::Text(s) => format!("\"{s}\""),
            Value::List(vs) => {
                let items: Vec<String> = vs.iter().map(Value::json).collect();
                format!("[{}]", items.join(", "))
            }
        }
    }

    fn num(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Num(v) => *v,
            v => panic!("{v:?} read as a number"),
        }
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(vs: [T; N]) -> Self {
        Value::List(vs.into_iter().map(Into::into).collect())
    }
}

/// One measurement: the `workload` name followed by named values, in the
/// order they are written.
struct Row(Vec<(&'static str, Value)>);

impl Row {
    fn new(workload: &str) -> Self {
        Row(vec![("workload", workload.into())])
    }

    fn with(mut self, name: &'static str, value: impl Into<Value>) -> Self {
        self.0.push((name, value.into()));
        self
    }

    /// Appends the machine's `cpus` and the resolved `threads` the row was
    /// measured with.
    fn measured_on(self, threads: usize) -> Self {
        self.with("cpus", cpus())
            .with("threads", effective_threads(threads))
    }

    /// The field `name`; gates read only fields their `measure_*` wrote.
    fn value(&self, name: &str) -> &Value {
        match self.0.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => v,
            None => panic!("row has no field {name:?}"),
        }
    }

    /// The numeric field `name`.
    fn get(&self, name: &str) -> f64 {
        self.value(name).num()
    }

    /// The numeric list field `name`.
    fn nums(&self, name: &str) -> Vec<f64> {
        match self.value(name) {
            Value::List(vs) => vs.iter().map(Value::num).collect(),
            v => panic!("field {name:?} is not a list: {v:?}"),
        }
    }

    /// The text field `name`.
    fn text(&self, name: &str) -> &str {
        match self.value(name) {
            Value::Text(s) => s,
            v => panic!("field {name:?} is not text: {v:?}"),
        }
    }

    /// The row as one JSON object.
    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, v)| format!("\"{name}\": {}", v.json()))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Prints `rows` as a markdown table with one column per field of the
/// first row, under its JSON name.
fn print_table(title: &str, rows: &[Row]) {
    let Some(first) = rows.first() else {
        return;
    };
    let names: Vec<&str> = first.0.iter().map(|(name, _)| *name).collect();
    println!("\n## {title}\n");
    println!("| {} |", names.join(" | "));
    println!("|{}", "---|".repeat(names.len()));
    for r in rows {
        let cells: Vec<String> = names
            .iter()
            .map(|&name| match r.value(name) {
                Value::Text(s) => s.clone(),
                v => v.json(),
            })
            .collect();
        println!("| {} |", cells.join(" | "));
    }
}

/// The dedupe key of one row's JSON text: the raw value text of
/// `workload`, `graph`, `semantics`, `nodes` and `threads`, `None` where
/// the row has no such field. Two rows with the same key measure the same
/// configuration.
pub fn row_key(json: &str) -> [Option<&str>; 5] {
    ["workload", "graph", "semantics", "nodes", "threads"].map(|name| {
        let tag = format!("\"{name}\": ");
        let rest = &json[json.find(&tag)? + tag.len()..];
        let end = match rest.strip_prefix('"') {
            Some(text) => text.find('"')? + 2,
            None => rest.find([',', '}'])?,
        };
        Some(&rest[..end])
    })
}

/// The JSON text of each row of array `name` in a baseline file's text,
/// one row per line; empty when the file has no such array.
fn file_rows<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
    let open = format!("\"{name}\": [");
    let Some(start) = text.find(&open) else {
        return Vec::new();
    };
    text[start + open.len()..]
        .lines()
        .skip(1)
        .map(str::trim)
        .take_while(|line| line.starts_with('{'))
        .map(|line| line.trim_end_matches(','))
        .collect()
}

/// The rows of array `name` in `prior` (a baseline file's text), then
/// `fresh`, keeping only the last row per [`row_key`]. A prior row without
/// `threads` is dropped: no row written now has that key, so nothing
/// could ever replace it.
fn merge_rows(prior: &str, name: &str, fresh: &[Row]) -> Vec<String> {
    let rows: Vec<String> = file_rows(prior, name)
        .into_iter()
        .filter(|row| row_key(row)[4].is_some())
        .map(str::to_owned)
        .chain(fresh.iter().map(Row::json))
        .collect();
    let keys: Vec<_> = rows.iter().map(|r| row_key(r)).collect();
    rows.iter()
        .enumerate()
        .filter(|&(i, _)| !keys[i + 1..].contains(&keys[i]))
        .map(|(_, r)| r.clone())
        .collect()
}

/// The arrays of `BENCH_eval.json`, in file order.
const EVAL_ARRAYS: [&str; 5] = [
    "rows",
    "scale_rows",
    "stream_rows",
    "cyclic_rows",
    "injective_rows",
];

/// The arrays of `BENCH_scale.json`, in file order.
const SCALE_ARRAYS: [&str; 4] = ["scale_rows", "steal_rows", "mutate_rows", "wal_rows"];

/// Rewrites the baseline file at `path`: the `experiments` `mode` that
/// wrote it last (`generated_by`), the `machine` it ran on and each of
/// `arrays` in order, holding the array's rows already in the file
/// followed by its rows in `fresh`, deduped by [`merge_rows`]. Each fresh
/// row records `mode` as its last field, outside the [`row_key`]. Arrays
/// without fresh rows pass through under the same rule; a missing file or
/// array starts empty.
fn write_baseline(path: &str, mode: &str, arrays: &[&str], mut fresh: Vec<(&str, Vec<Row>)>) {
    for row in fresh.iter_mut().flat_map(|(_, rows)| rows) {
        row.0.push(("mode", mode.into()));
    }
    let prior = std::fs::read_to_string(path).unwrap_or_default();
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p crpq-bench --bin experiments -- {mode}\","
    );
    let _ = writeln!(json, "  \"machine\": {},", machine_json());
    for (i, &name) in arrays.iter().enumerate() {
        let new = fresh
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[][..], |f| &f.1);
        let rows = merge_rows(&prior, name, new);
        let _ = writeln!(json, "  \"{name}\": [");
        for (k, row) in rows.iter().enumerate() {
            let sep = if k + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(json, "    {row}{sep}");
        }
        let sep = if i + 1 < arrays.len() { "," } else { "" };
        let _ = writeln!(json, "  ]{sep}");
    }
    json.push_str("}\n");
    std::fs::write(path, &json).expect("write baseline JSON"); // invariant: harness IO is fail-fast
    println!("\nwrote {path}");
}

/// The CPUs available to this process.
fn cpus() -> usize {
    crpq_util::sync::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The `machine` object of both baseline files: available CPUs and total
/// RAM from `/proc/meminfo` (`0` where unreadable).
fn machine_json() -> String {
    let mem_total_kb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("MemTotal:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .unwrap_or(0);
    format!("{{\"cpus\": {}, \"mem_total_kb\": {mem_total_kb}}}", cpus())
}

/// Times one invocation of `f`, returning milliseconds.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
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

/// `hits / (hits + misses)`, 0 before the first lookup.
fn hit_rate(hits: usize, misses: usize) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// One E2/E9 row (`rows`): the join engine over a fresh catalog against the
/// legacy enumeration oracle, best of 3 each, plus the catalog metrics of
/// one instrumented run.
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
    Row::new(workload)
        .with("graph", graph_name)
        .with("nodes", g.num_nodes())
        .with("edges", g.num_edges())
        .with("arity", q.free.len())
        .with("semantics", sem.short_name())
        .with("tuples", join.len())
        .with("join_ms", join_ms)
        .with("legacy_ms", legacy_ms)
        .with("mat_ms", catalog.materialise_ms())
        .with("catalog_hits", catalog.hits())
        .with("catalog_misses", catalog.misses())
        .with(
            "catalog_hit_rate",
            hit_rate(catalog.hits(), catalog.misses()),
        )
        // The headline join-vs-legacy speedup (the ≥10× CI floor).
        .with("speedup", legacy_ms / join_ms.max(1e-9))
        .with("index_bytes", g.index_bytes())
        .with("rel_bytes", catalog.relation_bytes())
        // Peak per-materialisation sweep-scratch bytes (stamp arrays +
        // sparse visited maps, summed across workers).
        .with("scratch_bytes", catalog.peak_scratch_bytes())
        .measured_on(threads)
}

/// Samples per timed configuration of the cyclic and injective rows and
/// of every stream row path (median of 5).
const MEDIAN_SAMPLES: usize = 5;

/// The cold first-tuple gate of the 10⁶ stream row: a fresh stream's
/// first tuple may take at most this fraction of the time to drain a
/// fresh stream (`stream_first_fraction`). The witness phase answers
/// before any relation is built (reads below 0.02 on 2 CPUs); a first
/// tuple that waits for every relation and the semi-join pass read ~0.85.
const STREAM_FIRST_FRACTION_BOUND: f64 = 0.2;

/// The hub-triangle sizes of the AGM scaling gate: the larger input is
/// 16× the smaller.
const HUB_SIZES: [usize; 2] = [5_000, 80_000];

/// The AGM scaling gate: the warm join on `hub_triangle_graph(80 000)`
/// may take at most this many times its time at 5 000. The `|R|^{3/2}`
/// bound allows 64× and a pairwise plan pays 256×. On a 2-CPU machine the
/// Generic Join reads 25–34×, and the backtracking binary join it replaced
/// read 46–60×.
const HUB_SCALING_BOUND: f64 = 40.0;

/// Warm `ask()`s averaged into one `ask_ms` sample of the hub rows: with
/// the plans memoised one ASK takes microseconds, below what a single
/// timer read resolves reliably.
const ASK_REPEATS: usize = 20;

/// The warm ASK scaling gate: under each semantics, `ask()` on
/// `hub_triangle_graph(80 000)` may take at most this many times its time
/// at 5 000. A warm ASK is one cursor step over memoised plans, so it
/// should barely grow with |V| (1.3–1.5x on 2 CPUs); replanning every
/// request (expansion, compilation and the `O(|V|)` semi-join fixpoint)
/// reads 15–17x.
const HUB_ASK_SCALING_BOUND: f64 = 4.0;

/// The median of `samples` — the gate statistic for comparisons that sit
/// near parity, where a best-of-`n` minimum is too noise-sensitive.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One cyclic row (`cyclic_rows`): the median `tuples()` wall clock of
/// one workload under one semantics, on one thread.
fn cyclic_row(workload: &str, sem: Semantics, g: &GraphDb, tuples: usize, join_ms: f64) -> Row {
    Row::new(workload)
        .with("semantics", sem.short_name())
        .with("nodes", g.num_nodes())
        .with("edges", g.num_edges())
        .with("tuples", tuples)
        .with("join_ms", join_ms)
        .measured_on(1)
}

/// Times the join on one cyclic workload (standard semantics, so the
/// join cost is not mixed with injective verification). Every sample
/// includes its own catalog materialisation.
fn measure_cyclic(workload: &str, q: &Crpq, g: &GraphDb) -> Row {
    let mut tuples = 0;
    let samples = (0..MEDIAN_SAMPLES)
        .map(|_| {
            let (out, ms) = time_once(|| Eval::new(q, g).tuples());
            tuples = out.len();
            ms
        })
        .collect();
    cyclic_row(workload, Semantics::Standard, g, tuples, median(samples))
}

/// The warm hub-triangle rows of the AGM scaling gate, one per semantics
/// of [`Semantics::ALL`] in order, each at every [`HUB_SIZES`] entry in
/// order, over one warm catalog per graph, so only the join search (and
/// the free injective checks of the one-letter atoms) is timed. Each row
/// also carries `ask_ms`, the median over rounds of the mean of
/// [`ASK_REPEATS`] warm `ask()`s: the gate on its growth catches a warm
/// request that pays planning again, and `mat_ms`, the catalog's
/// materialisation wall clock from the warming `tuples()`. Each round
/// times every size and semantics back to back, so a slow phase of the
/// machine lands on both sides of every ratio.
fn measure_hub_scaling() -> Vec<Row> {
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
    let mut tuples = [[0; 2]; 3];
    let mut samples: [[Vec<f64>; 2]; 3] = Default::default();
    let mut ask_samples: [[Vec<f64>; 2]; 3] = Default::default();
    for _ in 0..MEDIAN_SAMPLES {
        for (k, sem) in Semantics::ALL.into_iter().enumerate() {
            for (i, ((g, q), catalog)) in graphs.iter().zip(&mut catalogs).enumerate() {
                let (out, ms) =
                    time_once(|| Eval::new(q, g).semantics(sem).catalog(catalog).tuples());
                tuples[k][i] = out.len();
                samples[k][i].push(ms);
                let (found, ms) = time_once(|| {
                    (0..ASK_REPEATS).all(|_| Eval::new(q, g).semantics(sem).catalog(catalog).ask())
                });
                assert!(found, "ASK must find the answers the full run found");
                ask_samples[k][i].push(ms / ASK_REPEATS as f64);
            }
        }
    }
    let mut rows = Vec::new();
    for (k, sem) in Semantics::ALL.into_iter().enumerate() {
        for (i, (g, _)) in graphs.iter().enumerate() {
            let join_ms = median(std::mem::take(&mut samples[k][i]));
            let ask_ms = median(std::mem::take(&mut ask_samples[k][i]));
            rows.push(
                cyclic_row("hub_triangle_warm", sem, g, tuples[k][i], join_ms)
                    .with("ask_ms", ask_ms)
                    .with("mat_ms", catalogs[i].materialise_ms()),
            );
        }
    }
    rows
}

/// The cyclic workload suite: triangle, 4-cycle and diamond-with-chord at
/// sizes where intermediate bindings are felt but the smoke stays fast.
fn measure_cyclic_rows() -> Vec<Row> {
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

/// The injective/st gate: a-inj and q-inj may each take at most this many
/// times the st median, on the `cyclic_graph` triangle and, for q-inj, on
/// the n = 80 000 hub triangle. Every triangle atom is one letter, so
/// classification makes each per-atom check free and the q-inj placement
/// records each atom's edge without a search: on a 2-CPU machine the
/// ratios read ~1.0x (a-inj) and ~1.1x (q-inj), against 12–16x for both
/// when every atom pair ran a simple-path search.
const INJECTIVE_RATIO_BOUND: f64 = 3.0;

/// The finite-chain injective/st gate: on [`FIN_CHAIN_QUERY`] a-inj and
/// q-inj may each take at most this many times the st median. Its
/// `a (b + c)` atom is neither deletion-closed nor single-edge, so every
/// candidate pair runs the simple-path search, which is what the gate
/// times. On a 2-CPU machine the ratios read 2.6–2.8x (a-inj) and
/// 4.0–4.4x (q-inj); with a search that recomputed the automaton's live
/// states and allocated its buffers on every call they read 11–12x and
/// 19–22x.
const FIN_CHAIN_RATIO_BOUND: f64 = 7.0;

/// The CRPQ_fin chain of the `injective_fin_chain` row.
const FIN_CHAIN_QUERY: &str = "(x, y) <- x -[a (b + c)]-> y, y -[c]-> z";

/// One injective row (`injective_rows`): result sizes and median
/// `tuples()` wall clock under each of [`Semantics::ALL`] for the query
/// `query` builds, on `cyclic_graph(2 000, 11)` over one warm catalog, so
/// only join search and injective verification are timed. One st run
/// materialises every relation, then the samples cycle through the three
/// semantics, so a slow phase of the machine lands on all of them.
fn measure_injective(workload: &str, query: impl FnOnce(&mut Interner) -> Crpq) -> Row {
    let mut g = cyclic::cyclic_graph(2_000, 11);
    let q = query(g.alphabet_mut());
    let mut catalog = RelationCatalog::new(&g);
    Eval::new(&q, &g).catalog(&mut catalog).tuples();
    let mut tuples = [0; 3];
    let mut samples: [Vec<f64>; 3] = Default::default();
    for _ in 0..MEDIAN_SAMPLES {
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
    let ms = samples.map(median);
    let over_st = |k: usize| ms[k] / ms[0].max(1e-9);
    Row::new(workload)
        .with("graph", "cyclic(2000, 11)")
        .with("tuples", tuples)
        .with("ms", ms)
        .with("ainj_over_st", over_st(1))
        .with("qinj_over_st", over_st(2))
        .measured_on(1)
}

/// Measures the streaming fast paths (`stream_rows`, standard semantics)
/// on the million-node family at `n` nodes, every path on one thread:
/// warm-catalog full materialisation (`full_ms`, the baseline the floors
/// compare against — warm on both sides so the ratios measure search
/// early-exit, not relation sharing), time-to-first-tuple (`ttf_ms`,
/// `Eval::limit` with k = 1), time-to-k (`ttk_ms`), `ASK` (`ask_ms`), and
/// the cold end-to-end wait for a fresh pull stream's first tuple
/// (`stream_first_ms`) and for its last (`stream_last_ms`, relation
/// materialisation included). Every path is a median of
/// [`MEDIAN_SAMPLES`] interleaved samples. With `enforce_floor` (the CI
/// gate at `|V| = 10⁶`): time-to-first-tuple must be ≤ 50 % of the warm
/// full-materialisation wall clock — an early exit that broke would drain
/// the whole search and read ≈ 100 % — `ASK` must be no slower than
/// time-to-first (they do the same search; a 5 % + 1 ms guard absorbs
/// timer noise), and `stream_first_fraction` (`stream_first_ms /
/// stream_last_ms`) must be at most [`STREAM_FIRST_FRACTION_BOUND`].
fn measure_stream(n: usize, enforce_floor: bool) -> Row {
    const K: usize = 64;
    let mut g = scaling::million_graph(n, 7);
    let q = scaling::million_query(g.alphabet_mut());
    let g = Arc::new(g);
    // Warm the shared catalog once; every timed path below then runs over
    // identical, already-materialised relations.
    let mut catalog = RelationCatalog::new(&g);
    let tuples = Eval::new(&q, &g).catalog(&mut catalog).tuples().len();
    assert!(
        tuples > K,
        "stream workload returned {tuples} tuples — too few for the time-to-k comparison"
    );
    // Every path's samples alternate, so a slow phase of the machine lands
    // on all of them, and the gates read medians, which one slow sample
    // cannot move.
    let (mut first, mut exists, mut topk) = (Vec::new(), false, Vec::new());
    let mut samples: [Vec<f64>; 6] = Default::default();
    for _ in 0..MEDIAN_SAMPLES {
        let (all, ms) = time_once(|| Eval::new(&q, &g).catalog(&mut catalog).tuples());
        assert_eq!(all.len(), tuples, "a warm full run must repeat the first");
        samples[0].push(ms);
        let ms;
        (first, ms) = time_once(|| Eval::new(&q, &g).catalog(&mut catalog).limit(1));
        samples[1].push(ms);
        let ms;
        (topk, ms) = time_once(|| Eval::new(&q, &g).catalog(&mut catalog).limit(K));
        samples[2].push(ms);
        let ms;
        (exists, ms) = time_once(|| Eval::new(&q, &g).catalog(&mut catalog).ask());
        samples[3].push(ms);
        // Cold paths: a fresh stream plans against its own catalog.
        let (streamed, ms) = time_once(|| Eval::new(&q, &g).stream().next());
        assert!(
            streamed.is_some(),
            "a fresh stream must yield a first tuple"
        );
        samples[4].push(ms);
        let (streamed, ms) = time_once(|| Eval::new(&q, &g).stream().count());
        assert_eq!(
            streamed, tuples,
            "a drained fresh stream must yield every tuple"
        );
        samples[5].push(ms);
    }
    let [full_ms, ttf_ms, ttk_ms, ask_ms, stream_first_ms, stream_last_ms] = samples.map(median);
    assert_eq!(first.len(), 1, "time-to-first run must yield one tuple");
    assert!(exists, "ASK must find the witness the full run found");
    assert_eq!(topk.len(), K, "time-to-k run must yield k tuples");
    let ttf_fraction = ttf_ms / full_ms.max(1e-9);
    let stream_first_fraction = stream_first_ms / stream_last_ms.max(1e-9);
    if enforce_floor {
        assert!(
            ttf_fraction <= 0.50,
            "time-to-first-tuple above 50% of full materialisation at n={n}: \
             {ttf_ms:.2}ms vs {full_ms:.2}ms ({:.0}%)",
            ttf_fraction * 100.0
        );
        assert!(
            ask_ms <= ttf_ms * 1.05 + 1.0,
            "ASK slower than time-to-first-tuple at n={n}: {ask_ms:.2}ms vs {ttf_ms:.2}ms"
        );
        assert!(
            stream_first_fraction <= STREAM_FIRST_FRACTION_BOUND,
            "a cold stream's first tuple above {STREAM_FIRST_FRACTION_BOUND} of its last at \
             n={n}: {stream_first_ms:.2}ms vs {stream_last_ms:.2}ms"
        );
    }
    Row::new("stream_million")
        .with("nodes", g.num_nodes())
        .with("edges", g.num_edges())
        .with("tuples", tuples)
        .with("full_ms", full_ms)
        .with("ttf_ms", ttf_ms)
        .with("ttk_ms", ttk_ms)
        .with("k", K)
        .with("ask_ms", ask_ms)
        .with("stream_first_ms", stream_first_ms)
        .with("stream_last_ms", stream_last_ms)
        .with("ttf_fraction", ttf_fraction)
        .with("stream_first_fraction", stream_first_fraction)
        .measured_on(1)
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
        let side = |set: RelationRow<'_>, row: &dyn Fn(NodeId) -> (bool, usize)| {
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

/// One scale row (`scale_rows`) of `workload` over `g`, built in
/// `build_ms` and evaluated once in `eval_ms` through `catalog` (swept on
/// `threads` workers): the materialisation split and the memory proxies of
/// the module docs; `name_bytes` is 0 for anonymous graphs.
fn scale_row(
    workload: &str,
    g: &GraphDb,
    catalog: &RelationCatalog,
    tuples: usize,
    build_ms: f64,
    eval_ms: f64,
    threads: usize,
) -> Row {
    let totals = catalog.materialise_totals();
    Row::new(workload)
        .with("nodes", g.num_nodes())
        .with("edges", g.num_edges())
        .with("labels", g.alphabet().len())
        .with("tuples", tuples)
        .with("build_ms", build_ms)
        .with("eval_ms", eval_ms)
        .with("mat_ms", catalog.materialise_ms())
        .with("sweep_ms", totals.sweep_ms)
        .with("assembly_ms", totals.assembly_ms)
        .with("index_bytes", g.index_bytes())
        .with("name_bytes", g.name_bytes())
        .with("rel_bytes", catalog.relation_bytes())
        .with("scratch_bytes", catalog.peak_scratch_bytes())
        .with("assembly_bytes", totals.peak_assembly_bytes)
        .measured_on(threads)
}

/// Builds the label-rich graph at `n` nodes and evaluates the scale query
/// once through the catalog engine, asserting the adjacency and relation
/// memory contracts ([`assert_index_layout`], [`assert_relation_layout`]).
/// With `enforce_ceiling`, build + evaluation must also finish under
/// `ceiling_ms` — the CI scale gate.
fn measure_scale(n: usize, ceiling_ms: f64, enforce_ceiling: bool, threads: usize) -> Row {
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
    scale_row(
        "scale_label_rich",
        &g,
        &catalog,
        tuples,
        build_ms,
        eval_ms,
        threads,
    )
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
) -> Row {
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
    let workers = effective_threads(threads) + 1;
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
    scale_row(
        "scale_million",
        &g,
        &catalog,
        tuples,
        build_ms,
        eval_ms,
        threads,
    )
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

/// Measures the dynamic-graph churn workload at `n` nodes (`mutate_rows`):
/// the million-family graph wrapped in a [`DeltaGraph`], churned on one
/// hot label (`l0`, alternating inserts and deletes, `churn_ops` per
/// batch), queried through a persistent [`RelationCatalog`] by a
/// **mixed-label workload** — the scale query (footprint `l0..l4`) plus a
/// disjoint-footprint twin over `l8..l12`. Per batch the catalog is
/// invalidated either by [`RelationCatalog::invalidate_label`] on the
/// churned label (only the one `l0`-footprint entry re-materialises;
/// `footprint_ms`) or by [`RelationCatalog::invalidate_all`] (every entry
/// does; `evict_all_ms`). `warm_ms` is the all-hits baseline and
/// `apply_us` the mean per-mutation apply latency.
///
/// With `enforce_floor` (the CI gate): footprint-keyed requery must be
/// strictly cheaper than requery after evict-all, and the eviction
/// counters must show footprint keying actually evicted a strict,
/// non-empty subset of the live entries.
fn measure_mutate(n: usize, threads: usize, enforce_floor: bool) -> Row {
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

    if enforce_floor {
        assert!(
            evictions_footprint > 0 && evictions_footprint < evictions_all,
            "footprint keying must evict a strict non-empty subset: \
             {evictions_footprint} vs {evictions_all} entries"
        );
        assert!(
            footprint_ms < evict_all_ms,
            "footprint-keyed requery not cheaper than evict-all on the mixed-label \
             workload: {footprint_ms:.2}ms vs {evict_all_ms:.2}ms"
        );
    }
    Row::new("mutate_churn_million")
        .with("nodes", GraphView::num_nodes(&g))
        .with("edges", GraphView::num_edges(&g))
        .with("threads", effective_threads(threads))
        .with("churn_ops", CHURN_OPS)
        .with("apply_us", apply_us_sum / batches as f64)
        .with("warm_ms", warm_ms)
        .with("footprint_ms", footprint_ms)
        .with("evict_all_ms", evict_all_ms)
        // The headline ratio: how much cheaper requerying is when only the
        // churned label's footprint is evicted instead of everything.
        .with("footprint_speedup", evict_all_ms / footprint_ms.max(1e-9))
        .with("evictions_footprint", evictions_footprint)
        .with("evictions_all", evictions_all)
        .with("cached_entries", cached_entries)
        .with("catalog_hits", catalog.hits())
        .with("catalog_misses", catalog.misses())
        .with(
            "catalog_hit_rate",
            hit_rate(catalog.hits(), catalog.misses()),
        )
        .with("cpus", cpus())
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

/// The `--mutate-smoke` CI gate: the dynamic-graph churn workload at
/// `|V| = 10⁵` (see `measure_mutate`), with the footprint-vs-evict-all
/// floor enforced. Writes `mutate_rows` into `path` (`BENCH_scale.json`)
/// with `write_baseline`.
pub fn run_mutate_smoke(path: &str, threads: usize) {
    let rows = vec![measure_mutate(100_000, threads, true)];
    print_table(
        "dynamic graphs — base+delta churn, footprint-keyed vs evict-all invalidation (st)",
        &rows,
    );
    write_baseline(
        path,
        "--mutate-smoke",
        &SCALE_ARRAYS,
        vec![("mutate_rows", rows)],
    );
}

/// Measures one durability row (`wal_rows`): churn `ops` single-label
/// mutations at `n` nodes through a [`DurableGraph`] on the real
/// filesystem under `policy`, then reopen and time recovery. `workload`
/// names the policy, so the dedupe key keeps one row per policy. `Always`
/// drives group-commit batches (100 mutations per `apply_batch`, one sync
/// each); the other policies apply single mutations. The row records the
/// mean apply latency (`apply_us`, WAL append + policy sync), the reopen
/// wall clock (`recover_ms`: read checkpoint, verify, replay the full
/// WAL), the records it replayed and the WAL size. With `enforce_ceiling`
/// (the CI gate), the apply latency and the recovery wall clock must stay
/// under generous ceilings — like the scale gates, these only catch
/// asymptotic regressions (an fsync per byte, or recovery re-reading the
/// WAL per record, would blow straight through).
fn measure_wal(
    n: usize,
    ops: usize,
    workload: &str,
    policy: SyncPolicy,
    enforce_ceiling: bool,
) -> Row {
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
    if enforce_ceiling {
        assert!(
            apply_us < APPLY_CEILING_US,
            "wal apply exceeded the per-mutation ceiling under {policy}: \
             {apply_us:.1}µs > {APPLY_CEILING_US}µs"
        );
        assert!(
            recover_ms < RECOVER_CEILING_MS,
            "wal recovery exceeded the wall-clock ceiling under {policy}: \
             {recover_ms:.0}ms > {RECOVER_CEILING_MS}ms"
        );
    }
    let row = Row::new(workload)
        .with("nodes", GraphView::num_nodes(d2.graph()))
        .with("edges", live_edges)
        .with("policy", &*policy.to_string())
        .with("churn_ops", ops)
        .with("apply_us", apply_us)
        .with("recover_ms", recover_ms)
        .with("replayed", report.replayed)
        .with("wal_bytes", wal_bytes)
        .measured_on(1);
    drop(d2);
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// The `--wal-smoke` CI gate: single-label churn through the durability
/// layer at `|V| = 10⁵` under each sync policy (`always` via 100-mutation
/// group commits, `every:64`, `never`), with apply-latency and
/// recovery-wall-clock ceilings enforced. Writes `wal_rows` into `path`
/// (`BENCH_scale.json`) with `write_baseline`.
pub fn run_wal_smoke(path: &str) {
    const OPS: usize = 10_000;
    const N: usize = 100_000;
    let rows = vec![
        measure_wal(N, OPS, "wal_churn_always", SyncPolicy::Always, true),
        measure_wal(N, OPS, "wal_churn_every64", SyncPolicy::EveryN(64), true),
        measure_wal(N, OPS, "wal_churn_never", SyncPolicy::Never, true),
    ];
    print_table(
        "durable graphs — WAL apply + recovery vs sync policy (single-label churn)",
        &rows,
    );
    write_baseline(path, "--wal-smoke", &SCALE_ARRAYS, vec![("wal_rows", rows)]);
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
fn assert_assembly_share(row: &Row) {
    assert_eq!(row.text("workload"), "scale_million");
    let (assembly_ms, sweep_ms) = (row.get("assembly_ms"), row.get("sweep_ms"));
    let bound = ASSEMBLY_SWEEP_RATIO * sweep_ms;
    assert!(
        assembly_ms <= bound,
        "relation assembly {assembly_ms:.0}ms exceeds {bound:.0}ms ({ASSEMBLY_SWEEP_RATIO} x the \
         {sweep_ms:.0}ms of sweeps on {ASSEMBLY_GATE_THREADS} workers) at |V|={}",
        row.get("nodes"),
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
fn assert_search_scaling(small: &Row, large: &Row) {
    assert_eq!(small.text("workload"), "scale_million");
    assert_eq!(large.text("workload"), "scale_million");
    let rest = |r: &Row| r.get("eval_ms") - r.get("mat_ms");
    let (rest_small, rest_large) = (rest(small), rest(large));
    assert!(
        rest_large <= SEARCH_SCALING_FACTOR * rest_small,
        "search time scales superlinearly: {rest_large:.0}ms at |V|={} vs \
         {rest_small:.0}ms at |V|={} ({:.1}x, bound {SEARCH_SCALING_FACTOR}x)",
        large.get("nodes"),
        small.get("nodes"),
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
///   most `ASSEMBLY_SWEEP_RATIO` of the sweep time; its catalog always
///   sweeps on `ASSEMBLY_GATE_THREADS` workers
///   (`assert_assembly_share`);
/// * `|V| = 10⁷` / `4·10⁷`-edge anonymous workload under the same
///   O(touched) contracts at its own index budget (~2.4 GB — the graph
///   index is linear in |V|; relations and scratch must not be), and
///   the scaling gate: its non-materialisation time (`eval_ms −
///   mat_ms`: semi-join pruning, search, output) is at most
///   `SEARCH_SCALING_FACTOR`× that of the `10⁶` row (linear scaling
///   reads 10×, a per-search-node `O(|V|)` term ~70×).
///
/// Writes `scale_rows` into `path` (`BENCH_scale.json`)
/// with `write_baseline`. `threads` sets the sweep workers of every row
/// but the `10⁶` one; `0` keeps the documented fallback (one worker per
/// CPU, capped at 16).
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
    print_table(
        "scale workloads — label-rich Zipf + million-node anonymous (catalog engine only)",
        &rows,
    );
    assert_assembly_share(&rows[1]);
    assert_search_scaling(&rows[1], &rows[2]);
    write_baseline(
        path,
        "--scale-smoke",
        &SCALE_ARRAYS,
        vec![("scale_rows", rows)],
    );
}

/// Runs the E2 + E9 evaluation comparison and writes `path`.
///
/// With `enforce_floor`, the headline numbers are hard assertions (the CI
/// smoke gate): the ≥10× join-vs-legacy speedup at |V| = 10³, a catalog
/// hit-rate > 0 on the multi-variant E9 workload, the warm hub-triangle
/// join at n = 80 000 within `HUB_SCALING_BOUND`× its time at 5 000
/// under each semantics and q-inj within `INJECTIVE_RATIO_BOUND`× st
/// there (medians of 5), the warm hub-triangle ASK at n = 80 000 within
/// `HUB_ASK_SCALING_BOUND`× its time at 5 000 under each semantics
/// (medians of 5 means of `ASK_REPEATS`), warm a-inj and q-inj each within
/// `INJECTIVE_RATIO_BOUND`× st on the triangle and within
/// `FIN_CHAIN_RATIO_BOUND`× st on the finite chain (medians of 5), and at
/// 10⁶ the stream floors of `measure_stream`. Without it, shortfalls
/// are only reported — the full experiment suite should finish with
/// measurements either way.
/// `threads = 0` keeps the documented fallback (one materialisation
/// worker per CPU, capped at 16).
pub fn run_smoke(path: &str, enforce_floor: bool, threads: usize) {
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
    // One chunk per semantics, st first, each holding the HUB_SIZES rows.
    let hub_ms: Vec<[f64; 2]> = hub_rows
        .chunks(HUB_SIZES.len())
        .map(|p| [p[0].get("join_ms"), p[1].get("join_ms")])
        .collect();
    let hub_ratios: Vec<f64> = hub_ms.iter().map(|ms| ms[1] / ms[0].max(1e-9)).collect();
    let hub_ask_ms: Vec<[f64; 2]> = hub_rows
        .chunks(HUB_SIZES.len())
        .map(|p| [p[0].get("ask_ms"), p[1].get("ask_ms")])
        .collect();
    let hub_ask_ratios: Vec<f64> = hub_ask_ms
        .iter()
        .map(|ms| ms[1] / ms[0].max(1e-9))
        .collect();
    let hub_qinj_over_st = hub_ms[2][1] / hub_ms[0][1].max(1e-9);
    let hub_tuples = hub_rows
        .iter()
        .map(|r| r.get("tuples"))
        .fold(f64::INFINITY, f64::min);
    cyclic_rows.extend(hub_rows);

    // Injective verification over a warm catalog, for the CI "a-inj and
    // q-inj within 3x of st" gate on the triangle, whose atoms need no
    // search, and the finite-chain gate, whose first atom always does.
    let injective = measure_injective("injective_triangle", cyclic::triangle_query);
    let inj_tuples = injective.nums("tuples");
    let inj_ms = injective.nums("ms");
    let (ainj_over_st, qinj_over_st) =
        (injective.get("ainj_over_st"), injective.get("qinj_over_st"));
    let fin_chain = measure_injective("injective_fin_chain", |sigma| {
        parse_crpq(FIN_CHAIN_QUERY, sigma).expect("the finite chain parses") // invariant: fixed query text
    });
    let fin_tuples = fin_chain.nums("tuples");
    let fin_ms = fin_chain.nums("ms");
    let (fin_ainj_over_st, fin_qinj_over_st) =
        (fin_chain.get("ainj_over_st"), fin_chain.get("qinj_over_st"));

    // Streaming fast paths on the million family: 10⁵ for the trajectory,
    // 10⁶ as the CI floor carrier (time-to-first ≤ 50% of full, ASK no
    // slower than time-to-first, a cold stream's first tuple within
    // `STREAM_FIRST_FRACTION_BOUND` of its last).
    let stream_rows = vec![
        measure_stream(100_000, false),
        measure_stream(1_000_000, enforce_floor),
    ];

    print_table(
        "BENCH_eval — catalog-backed planner vs. legacy enumeration",
        &rows,
    );
    print_table(
        "scale workloads — label-rich Zipf + million-node anonymous (catalog engine only)",
        &scale_rows,
    );
    print_table(
        "streaming enumeration — early-exit fast paths vs full materialisation (st)",
        &stream_rows,
    );
    print_table(
        &format!("cyclic shapes — Generic Join (medians of {MEDIAN_SAMPLES})"),
        &cyclic_rows,
    );
    let injective_rows = vec![injective, fin_chain];
    print_table(
        &format!(
            "injective triangle and finite chain — warm catalog (medians of {MEDIAN_SAMPLES})"
        ),
        &injective_rows,
    );

    // Headline numbers the CI smoke asserts on, over the E9 rows at
    // |V| ≈ 10³, arity 2:
    //
    // 1. the join engine must beat legacy enumeration by ≥ 10× (both E9
    //    query shapes);
    // 2. the multi-variant query must actually share atoms through the
    //    catalog (hit-rate > 0).
    let e9_at = |prefix: &'static str| {
        rows.iter()
            .filter(move |r| r.text("workload").starts_with(prefix) && r.get("nodes") >= 1000.0)
    };
    let headline = e9_at("e9_")
        .map(|r| r.get("speedup"))
        .fold(f64::INFINITY, f64::min);
    let min_hit_rate = e9_at("e9_multi_variant")
        .map(|r| r.get("catalog_hit_rate"))
        .fold(f64::INFINITY, f64::min);

    write_baseline(
        path,
        "--smoke",
        &EVAL_ARRAYS,
        vec![
            ("rows", rows),
            ("scale_rows", scale_rows),
            ("stream_rows", stream_rows),
            ("cyclic_rows", cyclic_rows),
            ("injective_rows", injective_rows),
        ],
    );

    println!("headline e9 speedup at |V|=10^3: {headline:.1}x (target ≥ 10x)");
    println!(
        "e9 multi-variant catalog hit-rate at |V|=10^3: {:.0}% (target > 0)",
        min_hit_rate * 100.0
    );
    println!(
        "hub triangle warm join, n = {} -> {} (medians of {MEDIAN_SAMPLES}): st {:.1}x, \
         a-inj {:.1}x, q-inj {:.1}x (target: each ≤ {HUB_SCALING_BOUND}x; AGM allows 64x, \
         a pairwise plan 256x); q-inj/st at n = {} {hub_qinj_over_st:.2}x (target: ≤ \
         {INJECTIVE_RATIO_BOUND}x)",
        HUB_SIZES[0], HUB_SIZES[1], hub_ratios[0], hub_ratios[1], hub_ratios[2], HUB_SIZES[1]
    );
    println!(
        "hub triangle warm ASK, n = {} -> {} (medians of {MEDIAN_SAMPLES} means of \
         {ASK_REPEATS}): st {:.4} -> {:.4}ms {:.1}x, a-inj {:.1}x, q-inj {:.1}x (target: \
         each ≤ {HUB_ASK_SCALING_BOUND}x)",
        HUB_SIZES[0],
        HUB_SIZES[1],
        hub_ask_ms[0][0],
        hub_ask_ms[0][1],
        hub_ask_ratios[0],
        hub_ask_ratios[1],
        hub_ask_ratios[2]
    );
    println!(
        "injective triangle, warm catalog (medians of {MEDIAN_SAMPLES}): st {:.2}ms, \
         a-inj {ainj_over_st:.2}x, q-inj {qinj_over_st:.2}x (target: each ≤ \
         {INJECTIVE_RATIO_BOUND}x st)",
        inj_ms[0]
    );
    println!(
        "injective finite chain {FIN_CHAIN_QUERY}, warm catalog (medians of \
         {MEDIAN_SAMPLES}): st {:.2}ms, a-inj {fin_ainj_over_st:.2}x, q-inj \
         {fin_qinj_over_st:.2}x (target: each ≤ {FIN_CHAIN_RATIO_BOUND}x st)",
        fin_ms[0]
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
             st {:.1}x, a-inj {:.1}x, q-inj {:.1}x",
            hub_ratios[0],
            hub_ratios[1],
            hub_ratios[2]
        );
        assert!(
            hub_qinj_over_st <= INJECTIVE_RATIO_BOUND,
            "q-inj verification more than {INJECTIVE_RATIO_BOUND}x the st join on the hub \
             triangle at n = {}: st / q-inj {:.2} / {:.2} ms",
            HUB_SIZES[1],
            hub_ms[0][1],
            hub_ms[2][1]
        );
        assert!(
            hub_ask_ratios.iter().all(|&r| r <= HUB_ASK_SCALING_BOUND),
            "warm hub-triangle ASK grew more than {HUB_ASK_SCALING_BOUND}x over a 16x larger \
             input — a warm request is planning again: st {:.1}x, a-inj {:.1}x, q-inj {:.1}x \
             ({hub_ask_ms:.4?} ms)",
            hub_ask_ratios[0],
            hub_ask_ratios[1],
            hub_ask_ratios[2]
        );
        assert!(
            hub_tuples > 0.0,
            "hub triangle returned no tuples — the scaling gate proves nothing"
        );
        assert!(
            inj_tuples.iter().all(|&t| t > 0.0),
            "injective triangle returned no tuples under some semantics — the gate proves nothing"
        );
        assert!(
            ainj_over_st <= INJECTIVE_RATIO_BOUND && qinj_over_st <= INJECTIVE_RATIO_BOUND,
            "injective verification more than {INJECTIVE_RATIO_BOUND}x the st join on the \
             triangle: st / a-inj / q-inj {inj_ms:.2?} ms"
        );
        assert!(
            fin_tuples.iter().all(|&t| t > 0.0),
            "injective finite chain returned no tuples under some semantics — the gate proves \
             nothing"
        );
        assert!(
            fin_ainj_over_st <= FIN_CHAIN_RATIO_BOUND && fin_qinj_over_st <= FIN_CHAIN_RATIO_BOUND,
            "simple-path verification more than {FIN_CHAIN_RATIO_BOUND}x the st join on the \
             finite chain: st / a-inj / q-inj {fin_ms:.2?} ms"
        );
    } else {
        if headline < 10.0 {
            println!("warning: headline below the 10x target (not enforced outside --smoke)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{file_rows, merge_rows, row_key, write_baseline, Row};

    #[test]
    fn row_key_reads_workload_nodes_and_optional_discriminators() {
        let steal = r#"{"workload": "zipf_steal", "nodes": 60000, "threads": 16, "ms": 1.0}"#;
        assert_eq!(
            row_key(steal),
            [
                Some(r#""zipf_steal""#),
                None,
                None,
                Some("60000"),
                Some("16")
            ]
        );
        let scale = r#"{"workload": "million", "nodes": 1000000, "eval_ms": 3.0}"#;
        assert_eq!(
            row_key(scale),
            [Some(r#""million""#), None, None, Some("1000000"), None]
        );
        // The eval rows carry graph + semantics discriminators, so the
        // three semantics of one workload/graph pair stay distinct keys.
        let eval = r#"{"workload": "e2", "graph": "G", "nodes": 5, "semantics": "a-inj"}"#;
        assert_eq!(
            row_key(eval),
            [
                Some(r#""e2""#),
                Some(r#""G""#),
                Some(r#""a-inj""#),
                Some("5"),
                None
            ]
        );
        // Commas inside a text or list value do not split fields.
        let injective =
            r#"{"workload": "inj", "graph": "cyclic(2000, 11)", "tuples": [1, 2], "threads": 1}"#;
        assert_eq!(
            row_key(injective),
            [
                Some(r#""inj""#),
                Some(r#""cyclic(2000, 11)""#),
                None,
                None,
                Some("1")
            ]
        );
        // A written row keys on exactly the text `Row::json` gives it.
        let row = Row::new("w")
            .with("graph", "g, h")
            .with("nodes", 3usize)
            .with("ms", [1.5, 2.0]);
        assert_eq!(
            row.json(),
            r#"{"workload": "w", "graph": "g, h", "nodes": 3, "ms": [1.5000, 2.0000]}"#
        );
        assert_eq!(
            row_key(&row.json()),
            [Some(r#""w""#), Some(r#""g, h""#), None, Some("3"), None]
        );
    }

    #[test]
    fn prior_rows_dedupe_replaces_remeasured_and_keeps_last_duplicate() {
        let zipf1 = r#"{"workload": "zipf", "nodes": 100000, "threads": 4, "eval_ms": 1.0}"#;
        let zipf2 = r#"{"workload": "zipf", "nodes": 100000, "threads": 4, "eval_ms": 2.0}"#;
        let million = r#"{"workload": "million", "nodes": 1000000, "threads": 1, "eval_ms": 3.0}"#;
        // A row written before rows carried `threads`.
        let stale = r#"{"workload": "million", "nodes": 10000000, "eval_ms": 4.0}"#;
        let inj1 =
            r#"{"workload": "inj", "graph": "cyclic(2000, 11)", "threads": 1, "ms": [1.0, 1.5]}"#;
        let inj2 =
            r#"{"workload": "inj", "graph": "cyclic(2000, 11)", "threads": 1, "ms": [2.0, 2.5]}"#;
        let st = r#"{"workload": "e2", "graph": "G", "nodes": 3, "semantics": "st", "threads": 1}"#;
        let ainj =
            r#"{"workload": "e2", "graph": "G", "nodes": 3, "semantics": "a-inj", "threads": 1}"#;
        let gprime =
            r#"{"workload": "e2", "graph": "Gprime", "nodes": 3, "semantics": "st", "threads": 1}"#;
        let text = format!(
            "{{\n  \"rows\": [\n    {st},\n    {ainj},\n    {gprime}\n  ],\n  \
             \"scale_rows\": [\n    {zipf1},\n    {zipf2},\n    {stale},\n    {million}\n  ],\n  \
             \"injective_rows\": [\n    {inj1},\n    {inj2}\n  ]\n}}\n"
        );
        assert_eq!(
            file_rows(&text, "scale_rows"),
            [zipf1, zipf2, stale, million]
        );

        // Re-measuring `million` replaces its prior row; the duplicated
        // `zipf` row keeps only its last (most recent) occurrence, and
        // the row without `threads` is dropped.
        let fresh = [Row::new("million")
            .with("nodes", 1_000_000usize)
            .with("threads", 1usize)
            .with("eval_ms", 9.0)];
        let remeasured =
            r#"{"workload": "million", "nodes": 1000000, "threads": 1, "eval_ms": 9.0000}"#;
        assert_eq!(merge_rows(&text, "scale_rows", &fresh), [zipf2, remeasured]);
        // Nothing re-measured: both distinct keys survive, still deduped.
        assert_eq!(merge_rows(&text, "scale_rows", &[]), [zipf2, million]);
        // Rows without `nodes` key on the fields they have: two rows of
        // one workload and graph collapse to the last.
        assert_eq!(merge_rows(&text, "injective_rows", &[]), [inj2]);
        // `graph` and `semantics` discriminate.
        assert_eq!(merge_rows(&text, "rows", &[]), [st, ainj, gprime]);
        // A missing array is a fresh start.
        assert!(merge_rows(&text, "no_such_array", &[]).is_empty());
    }

    #[test]
    fn write_baseline_starts_fresh_and_carries_unmeasured_arrays() {
        let path = std::env::temp_dir().join(format!("bench-baseline-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let arrays = ["a_rows", "b_rows"];
        let x = r#"{"workload": "x", "nodes": 1, "threads": 1, "mode": "--test"}"#;

        // A missing file is a fresh start; an unmeasured array is empty.
        write_baseline(
            path,
            "--test",
            &arrays,
            vec![(
                "a_rows",
                vec![Row::new("x").with("nodes", 1usize).with("threads", 1usize)],
            )],
        );
        let first = std::fs::read_to_string(path).unwrap();
        assert!(first.starts_with(
            "{\n  \"generated_by\": \"cargo run --release -p crpq-bench --bin experiments -- --test\",\n"
        ));
        assert!(first.contains("\n  \"b_rows\": [\n  ]\n}\n"));
        assert_eq!(file_rows(&first, "a_rows"), [x]);
        assert!(file_rows(&first, "b_rows").is_empty());

        // A run that measures only `b_rows` passes `a_rows` through.
        let y = |ms: f64| {
            Row::new("y")
                .with("graph", "cyclic(2000, 11)")
                .with("threads", 1usize)
                .with("ms", ms)
        };
        write_baseline(
            path,
            "--test",
            &arrays,
            vec![("b_rows", vec![y(1.0), y(2.0)])],
        );
        let second = std::fs::read_to_string(path).unwrap();
        assert_eq!(file_rows(&second, "a_rows"), [x]);
        assert_eq!(
            file_rows(&second, "b_rows"),
            [
                r#"{"workload": "y", "graph": "cyclic(2000, 11)", "threads": 1, "ms": 2.0000, "mode": "--test"}"#
            ]
        );
        // `mode` is no part of the key: a row re-measured by another mode
        // replaces its twin.
        write_baseline(path, "--other", &arrays, vec![("b_rows", vec![y(3.0)])]);
        let third = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            file_rows(&third, "b_rows"),
            [
                r#"{"workload": "y", "graph": "cyclic(2000, 11)", "threads": 1, "ms": 3.0000, "mode": "--other"}"#
            ]
        );
        std::fs::remove_file(path).unwrap();
    }
}
