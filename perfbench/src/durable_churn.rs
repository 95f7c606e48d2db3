//! `durable_churn`: single-edge writes on one hot label of a durable 10⁵
//! graph, interleaved with catalog upkeep and reads, ending in a reopen.
//!
//! The read path runs over the overlay while writes land, so a read-side
//! gain that taxes writes, compaction or recovery shows here.

use crate::checks::{self, RepeatCheck};
use crate::engine::{
    self, Crpq, DeltaGraph, Durable, EdgeMutation, GraphDb, GraphView, NodeId, Semantics, Symbol,
    SyncPolicy,
};
use crate::harness::{digest, ms_since, Tracer};
use crate::layers::{self, BuildStats, LayerInputs, LayerLog, WriteStats, E2E, REQUEST};
use crate::rng::Rng;
use crate::{Config, Outcome};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NODES: usize = 100_000;
pub const POLICY: SyncPolicy = SyncPolicy::EveryN(64);
pub const OPS_PER_ROUND: usize = 600;
/// Rounds per run at the least, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 100;
/// Overlay mutations between compactions: half the engine's default, so
/// that a run of the least number of rounds still compacts at least three
/// times (deletes of overlay edges shrink the overlay).
pub const COMPACT_AFTER: usize = 8_192;
pub const HOT: &str = "l0";
/// Its footprint holds the hot label.
pub const HOT_QUERY: &str = "(x, y) <- x -[l0 (l1+l2)*]-> y, y -[l2 (l3+l4)*]-> z";
/// Its footprint does not: its answers never change.
pub const STILL_QUERY: &str = "(x, y) <- x -[l5 (l6+l7)*]-> y, y -[l7 (l8+l9)*]-> z";
/// Every this many rounds the hot query is checked against a fresh catalog.
const REFERENCE_EVERY: usize = 10;
const SETUPS: usize = 5;
/// Mutations between compactions in the write probe.
const PROBE_COMPACT_AFTER: usize = 1_024;
const PROBE_ROUNDS: usize = 4;

/// The files of one durable graph.
struct Store {
    dir: PathBuf,
    snapshot: String,
    wal: String,
}

impl Store {
    fn new(out_dir: &Path, tag: &str) -> Result<Store, String> {
        let dir = out_dir.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = |f: &str| dir.join(f).to_string_lossy().into_owned();
        Ok(Store {
            snapshot: path("graph.snap"),
            wal: path("graph.wal"),
            dir,
        })
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The write side of a round: random inserts and deletes on the hot label,
/// logged through the durable graph and, when traced, replayed on a plain
/// overlay.
struct WritePath {
    durable: Durable,
    plain: Option<DeltaGraph>,
    hot: Symbol,
    live: Vec<(NodeId, NodeId)>,
    nodes: usize,
    rng: Rng,
    wal: String,
}

impl WritePath {
    fn new(
        durable: Durable,
        store: &Store,
        plain: Option<DeltaGraph>,
        hot: Symbol,
        seed: u64,
    ) -> Self {
        let g = engine::durable_graph(&durable);
        let nodes = g.num_nodes();
        let live = engine::label_edges(engine::delta_base(g), hot);
        WritePath {
            durable,
            plain,
            hot,
            live,
            nodes,
            rng: Rng::new(seed),
            wal: store.wal.clone(),
        }
    }

    /// Applies `ops` mutations, half inserts of fresh edges and half
    /// deletes of live ones, then compacts if due. Returns whether it
    /// compacted and the time spent.
    fn round(&mut self, ops: usize, w: &mut WriteStats) -> Result<(bool, f64), String> {
        let mut busy_ms = 0.0;
        let mut applied = Vec::with_capacity(ops);
        for k in 0..ops {
            let m = if k % 2 == 0 || self.live.is_empty() {
                let u = NodeId(self.rng.below(self.nodes) as u32);
                let v = NodeId(self.rng.below(self.nodes) as u32);
                EdgeMutation::Insert {
                    u,
                    label: self.hot,
                    v,
                }
            } else {
                let (u, v) = self.live.swap_remove(self.rng.below(self.live.len()));
                EdgeMutation::Delete {
                    u,
                    label: self.hot,
                    v,
                }
            };
            let t0 = Instant::now();
            let changed = engine::durable_apply(&mut self.durable, m)?;
            let us = t0.elapsed().as_secs_f64() * 1e6;
            busy_ms += us / 1e3;
            w.apply_us.push(us);
            if changed {
                if let EdgeMutation::Insert { u, v, .. } = m {
                    self.live.push((u, v));
                }
                applied.push(m);
            }
        }
        if let Some(plain) = self.plain.as_mut() {
            for &m in &applied {
                let t0 = Instant::now();
                engine::delta_apply(plain, m);
                w.delta_apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            engine::delta_maybe_compact(plain);
        }
        w.overlay_len
            .push(engine::overlay_len(engine::durable_graph(&self.durable)) as f64);
        let records = engine::durable_records(&self.durable);
        let wal_bytes = std::fs::metadata(&self.wal)
            .map_err(|e| e.to_string())?
            .len();
        w.wal_bytes_per_mutation =
            wal_bytes.saturating_sub(engine::WAL_HEADER_BYTES) as f64 / records.max(1) as f64;
        let t0 = Instant::now();
        let compacted = engine::durable_maybe_compact(&mut self.durable)?;
        let ms = ms_since(t0);
        busy_ms += ms;
        if compacted {
            w.compact_ms.push(ms);
        }
        Ok((compacted, busy_ms))
    }

    /// Drops the handle and reopens the store: times the snapshot decode
    /// and the full reopen, and checks that recovery replays every logged
    /// record and restores every live edge.
    fn reopen(self, store: &Store, w: &mut WriteStats) -> Result<Option<String>, String> {
        let records = engine::durable_records(&self.durable);
        let live_edges = engine::durable_graph(&self.durable).num_edges();
        drop(self);
        let bytes = std::fs::read(&store.snapshot).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        engine::decode_snapshot(bytes)?;
        w.decode_ms = ms_since(t0);
        let t0 = Instant::now();
        let (reopened, replayed) = engine::durable_open(&store.snapshot, &store.wal, POLICY)?;
        w.recover_ms = ms_since(t0);
        let recovered_edges = engine::durable_graph(&reopened).num_edges();
        Ok(if replayed != records {
            Some(format!(
                "recovery replayed {replayed} of {records} logged records"
            ))
        } else if recovered_edges != live_edges {
            Some(format!(
                "recovered {recovered_edges} edges, {live_edges} were live"
            ))
        } else {
            None
        })
    }
}

/// The write path over another workload's graph, for its traced run: a
/// few churn rounds on `hot` with one compaction, then a reopen.
pub fn write_probe(g: &GraphDb, hot: &str, cfg: &Config, seed: u64) -> Result<WriteStats, String> {
    let store = Store::new(&cfg.out_dir, "probe")?;
    let hot = engine::label(g.alphabet(), hot);
    let mut durable = engine::durable_create(&store.snapshot, &store.wal, g.clone(), POLICY)?;
    engine::durable_set_compact_threshold(&mut durable, PROBE_COMPACT_AFTER);
    let plain = engine::delta_graph(g.clone(), PROBE_COMPACT_AFTER);
    let mut path = WritePath::new(durable, &store, Some(plain), hot, seed);
    let mut w = WriteStats::default();
    for _ in 0..PROBE_ROUNDS {
        path.round(OPS_PER_ROUND, &mut w)?;
    }
    if let Some(err) = path.reopen(&store, &mut w)? {
        return Err(err);
    }
    Ok(w)
}

/// One read request: both queries, first answer then all answers each.
struct Read {
    first_ms: f64,
    last_ms: f64,
    err: Option<String>,
    hot_answers: Vec<engine::Tuple>,
    still_digest: u64,
}

fn read<G: GraphView>(queries: &[Crpq; 2], g: &G, cat: &mut engine::RelationCatalog) -> Read {
    let t0 = Instant::now();
    let mut first_ms = 0.0;
    let mut err = None;
    let mut answers = Vec::new();
    for (k, q) in queries.iter().enumerate() {
        let first = engine::first_answer(q, g, Semantics::Standard, cat);
        if k == 0 {
            first_ms = ms_since(t0);
        }
        let all = engine::all_answers(q, g, Semantics::Standard, cat);
        err = err
            .or_else(|| checks::sorted_distinct(&all))
            .or_else(|| checks::first_within(&first, &all));
        answers.push(all);
    }
    let last_ms = ms_since(t0);
    let still = answers.pop().expect("two queries");
    Read {
        first_ms,
        last_ms,
        err,
        hot_answers: answers.pop().expect("two queries"),
        still_digest: digest(&still),
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut rng = Rng::new(cfg.seed);
    let (graph_seed, write_seed) = (rng.fork(), rng.fork());
    let mut out = Outcome::default();

    let mut made = None;
    let mut build = BuildStats::default();
    for k in 0..SETUPS {
        drop(made.take());
        let store = Store::new(&cfg.out_dir, &format!("churn{k}"))?;
        let t0 = Instant::now();
        let g = engine::million_graph(NODES, graph_seed);
        let graph_ms = ms_since(t0);
        let index_bytes = engine::index_bytes(&g);
        let durable = engine::durable_create(&store.snapshot, &store.wal, g, POLICY)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        build = BuildStats {
            graph_ms,
            index_bytes,
        };
        made = Some((store, durable));
    }
    let (store, mut durable) = made.expect("at least one set-up");
    engine::durable_set_compact_threshold(&mut durable, COMPACT_AFTER);

    // The pool on a small instance, after a few overlay mutations.
    let mut small = engine::delta_graph(engine::million_graph(60, graph_seed), usize::MAX);
    let small_hot = engine::label(small.alphabet(), HOT);
    for k in 0..30u32 {
        engine::delta_apply(
            &mut small,
            EdgeMutation::Insert {
                u: NodeId(k),
                label: small_hot,
                v: NodeId((k * 7 + 3) % 60),
            },
        );
    }
    for text in [HOT_QUERY, STILL_QUERY] {
        let q = engine::parse_query(small.alphabet(), text);
        checks::against_oracle(&mut out.tally, text, &q, &small);
    }

    let alphabet = engine::durable_graph(&durable).alphabet().clone();
    let hot = engine::label(&alphabet, HOT);
    let queries = [HOT_QUERY, STILL_QUERY].map(|t| engine::parse_query(&alphabet, t));
    let plain = cfg.trace.then(|| {
        let base = engine::delta_base(engine::durable_graph(&durable)).clone();
        engine::delta_graph(base, COMPACT_AFTER)
    });
    let mut path = WritePath::new(durable, &store, plain, hot, write_seed);
    let mut cat = engine::new_catalog(engine::durable_graph(&path.durable));
    // The traced pass reads through a shadow catalog that gets the same
    // upkeep, so both see the same misses.
    let mut shadow = cfg
        .trace
        .then(|| engine::new_catalog(engine::durable_graph(&path.durable)));
    let mut tracer = cfg.trace.then(Tracer::new);
    let mut log = LayerLog::default();
    let mut w = WriteStats::default();
    let mut repeats = RepeatCheck::default();
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < cfg.seconds {
        let (compacted, write_ms) = path.round(OPS_PER_ROUND, &mut w)?;
        let t0 = Instant::now();
        let g = engine::durable_graph(&path.durable);
        for c in std::iter::once(&mut cat).chain(shadow.as_mut()) {
            if compacted {
                engine::rebind(c, g);
            } else {
                engine::invalidate_label(c, hot);
            }
        }
        let upkeep_ms = ms_since(t0);

        let root = tracer.as_mut().map(|t| {
            t.begin_request(round as u64);
            (t.enter(REQUEST), t.enter(E2E))
        });
        let r = read(&queries, g, &mut cat);
        out.busy_s += (write_ms + upkeep_ms + r.last_ms) / 1e3;
        out.first_ms.push(r.first_ms);
        out.last_ms.push(r.last_ms);
        let mut err = r.err.or_else(|| repeats.check("still", r.still_digest));
        if round % REFERENCE_EVERY == 0 {
            let mut fresh = engine::new_catalog(g);
            let want = engine::all_answers(&queries[0], g, Semantics::Standard, &mut fresh);
            err = err.or_else(|| {
                (digest(&want) != digest(&r.hot_answers))
                    .then(|| format!("round {round}: hot query differs from a fresh catalog"))
            });
        }
        if let (Some(t), Some((root, e2e)), Some(sc)) = (tracer.as_mut(), root, shadow.as_mut()) {
            t.exit(e2e);
            let hot_split = layers::split_request(t, &queries[0], g, Semantics::Standard, sc);
            let still_split = layers::split_request(t, &queries[1], g, Semantics::Standard, sc);
            t.exit(root);
            err = err
                .or_else(|| layers::check_split(&hot_split, digest(&r.hot_answers)))
                .or_else(|| layers::check_split(&still_split, r.still_digest));
            log.add(&[&hot_split, &still_split]);
        }
        out.tally.record(err);
        round += 1;
    }

    // The shadow catalog was empty when the request phase began.
    let catalog = shadow.as_ref().map(engine::catalog_stats);
    let err = path.reopen(&store, &mut w)?;
    out.tally.record(err);
    out.writes_us.clone_from(&w.apply_us);
    out.recover_ms = Some(w.recover_ms);
    out.facts = vec![
        ("nodes", NODES.to_string()),
        ("edges", (4 * NODES).to_string()),
        ("sync_policy", POLICY.to_string()),
        ("ops_per_round", OPS_PER_ROUND.to_string()),
        ("hot_label", HOT.to_string()),
        ("compactions", w.compact_ms.len().to_string()),
    ];
    if let (Some(t), Some(catalog)) = (tracer.as_ref(), catalog) {
        out.layers = Some(layers::layer_metrics(&LayerInputs {
            tracer: t,
            log: &log,
            build,
            catalog,
            writes: &w,
            e2e_runs_first: true,
        }));
    }
    out.tracer = tracer;
    Ok(out)
}
