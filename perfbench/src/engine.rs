//! The adapter: every call the benchmark makes into the engine goes
//! through this module, and no other module names an engine crate.
//!
//! When the engine's evaluation API changes shape, this file is the one to
//! edit; the workloads, the metric definitions and the checks stay put.

use std::sync::Arc;

pub use crpq_automata::Nfa;
pub use crpq_core::{RelationCatalog, Semantics, TupleStream};
pub use crpq_graph::{DeltaGraph, EdgeMutation, GraphDb, GraphView, NodeId, SyncPolicy};
pub use crpq_query::Crpq;
pub use crpq_util::{Interner, Symbol};

/// A durable dynamic graph on the real filesystem.
pub type Durable = crpq_graph::DurableGraph<crpq_util::storage::StdStorage>;

/// One answer tuple.
pub type Tuple = Vec<NodeId>;

/// Threads the engine may use per request: relation materialisation in
/// every catalog, and the work-stealing search behind streams.
pub const ENGINE_THREADS: usize = 2;

// --- graph construction (crpq-graph build) --------------------------------

/// The uniform million-node family: `n` anonymous nodes, `4n` edges over
/// 16 labels `l0..l15`.
pub fn million_graph(n: usize, seed: u64) -> GraphDb {
    crpq_workloads::scaling::million_graph(n, seed)
}

/// An anonymous graph on `n` nodes from an explicit edge list over
/// `labels` (edge label = index into `labels`).
pub fn graph_from_edges(n: usize, labels: &[&str], edges: &[(u32, usize, u32)]) -> GraphDb {
    let mut b = crpq_graph::GraphBuilder::anonymous(n);
    let syms: Vec<Symbol> = labels.iter().map(|l| b.label(l)).collect();
    for &(u, l, v) in edges {
        b.edge_ids(NodeId(u), syms[l], NodeId(v));
    }
    b.finish()
}

/// Bytes held by the graph's label-indexed adjacency.
pub fn index_bytes(g: &GraphDb) -> usize {
    g.index_bytes()
}

/// Every `label`-edge of `g` as `(source, target)`.
pub fn label_edges(g: &GraphDb, label: Symbol) -> Vec<(NodeId, NodeId)> {
    g.edges()
        .filter(|&(_, l, _)| l == label)
        .map(|(u, _, v)| (u, v))
        .collect()
}

/// The id of an existing edge label.
pub fn label(alphabet: &Interner, name: &str) -> Symbol {
    alphabet
        .get(name)
        .unwrap_or_else(|| panic!("label `{name}` is not in the graph"))
}

// --- queries and automata (crpq-query, crpq-automata) ---------------------

/// Parses a query against a copy of `alphabet`; every label it names must
/// already exist.
pub fn parse_query(alphabet: &Interner, text: &str) -> Crpq {
    let mut scratch = alphabet.clone();
    let q = crpq_query::parse_crpq(text, &mut scratch)
        .unwrap_or_else(|e| panic!("query `{text}` does not parse: {e}"));
    assert_eq!(
        scratch.len(),
        alphabet.len(),
        "query `{text}` names a label the graph lacks"
    );
    q
}

/// ε-elimination: the ε-free variants the planner evaluates.
pub fn expand(q: &Crpq) -> Vec<Crpq> {
    q.epsilon_free_union()
}

/// Number of atoms of a query.
pub fn atom_count(q: &Crpq) -> usize {
    q.atoms.len()
}

/// The NFA of atom `i`, compiled the way the planner compiles it.
pub fn compile_atom(q: &Crpq, i: usize) -> Nfa {
    q.atoms[i].nfa()
}

/// Number of states of a compiled atom.
pub fn nfa_states(nfa: &Nfa) -> usize {
    nfa.num_states()
}

// --- relation catalog and materialisation (crpq-core, crpq-graph::rpq) ---

/// An empty catalog bound to `g`.
pub fn new_catalog<G: GraphView>(g: &G) -> RelationCatalog {
    RelationCatalog::with_threads(g, ENGINE_THREADS)
}

/// Looks `nfa` up in the catalog, materialising its relation on a miss.
/// Returns the relation id.
pub fn get_or_materialize<G: GraphView>(cat: &mut RelationCatalog, g: &G, nfa: &Nfa) -> usize {
    cat.get_or_materialize(g, nfa)
}

/// Pairs in a cached relation.
pub fn relation_pairs(cat: &RelationCatalog, id: usize) -> usize {
    cat.relation(id).len()
}

/// Counters a catalog keeps about itself.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CatalogStats {
    pub hits: usize,
    pub misses: usize,
    pub evictions: usize,
    pub rel_bytes: usize,
    pub scratch_bytes: usize,
}

pub fn catalog_stats(cat: &RelationCatalog) -> CatalogStats {
    CatalogStats {
        hits: cat.hits(),
        misses: cat.misses(),
        evictions: cat.evictions(),
        rel_bytes: cat.relation_bytes(),
        scratch_bytes: cat.peak_scratch_bytes(),
    }
}

/// Catalog upkeep after edges with `label` changed.
pub fn invalidate_label(cat: &mut RelationCatalog, label: Symbol) {
    cat.invalidate_label(label);
}

/// Catalog upkeep after the graph was compacted.
pub fn rebind<G: GraphView>(cat: &mut RelationCatalog, g: &G) {
    cat.rebind(g);
}

// --- search, verification and output (crpq-core) -------------------------

/// At most one answer, against a caller-owned catalog.
pub fn first_answer<G: GraphView>(
    q: &Crpq,
    g: &G,
    sem: Semantics,
    cat: &mut RelationCatalog,
) -> Vec<Tuple> {
    crpq_core::eval_limit_with_catalog(q, g, sem, 1, cat)
}

/// The full answer set, sorted, against a caller-owned catalog.
pub fn all_answers<G: GraphView>(
    q: &Crpq,
    g: &G,
    sem: Semantics,
    cat: &mut RelationCatalog,
) -> Vec<Tuple> {
    crpq_core::eval_tuples_with_catalog(q, g, sem, cat)
}

/// A pull-based stream of distinct answers with a fresh catalog of its own.
pub fn stream_answers(q: &Crpq, g: &Arc<GraphDb>, sem: Semantics) -> TupleStream {
    crpq_core::eval_stream_parallel(q, g, sem, ENGINE_THREADS)
}

/// The paper-faithful tuple-enumeration oracle (small graphs only).
pub fn oracle_answers<G: GraphView>(q: &Crpq, g: &G, sem: Semantics) -> Vec<Tuple> {
    crpq_core::eval_tuples_enumerate(q, g, sem)
}

// --- dynamic graphs (crpq-graph::delta) -----------------------------------

/// Bytes of a WAL holding only its checkpoint marker frame.
pub const WAL_HEADER_BYTES: u64 = 21;

/// A plain overlay over `base` that compacts after `threshold` mutations.
pub fn delta_graph(base: GraphDb, threshold: usize) -> DeltaGraph {
    DeltaGraph::with_compact_threshold(base, threshold)
}

/// The frozen base under an overlay.
pub fn delta_base(g: &DeltaGraph) -> &GraphDb {
    g.base()
}

/// Applies one mutation to a plain overlay; true iff the graph changed.
pub fn delta_apply(g: &mut DeltaGraph, m: EdgeMutation) -> bool {
    match m {
        EdgeMutation::Insert { u, label, v } => g.insert_edge(u, label, v),
        EdgeMutation::Delete { u, label, v } => g.delete_edge(u, label, v),
    }
}

/// Folds the overlay into the base when it passed its budget; true iff it
/// compacted.
pub fn delta_maybe_compact(g: &mut DeltaGraph) -> bool {
    let due = g.should_compact();
    if due {
        g.compact_in_place();
    }
    due
}

/// Sets the overlay's compaction budget of a durable graph.
pub fn durable_set_compact_threshold(d: &mut Durable, threshold: usize) {
    d.set_compact_threshold(threshold);
}

/// The live graph of a durable handle.
pub fn durable_graph(d: &Durable) -> &DeltaGraph {
    d.graph()
}

/// Mutations held in the overlay (not yet compacted into the base).
pub fn overlay_len(g: &DeltaGraph) -> usize {
    g.delta().len()
}

// --- durability (crpq-graph::wal, crpq-graph::format) ---------------------

/// Creates a durable graph: writes the checkpoint of `base` and a fresh WAL.
pub fn durable_create(
    snapshot: &str,
    wal: &str,
    base: GraphDb,
    policy: SyncPolicy,
) -> Result<Durable, String> {
    Durable::create(snapshot, wal, base, policy).map_err(|e| e.to_string())
}

/// Reopens a durable graph, replaying its WAL. Returns the handle and the
/// number of records replayed.
pub fn durable_open(
    snapshot: &str,
    wal: &str,
    policy: SyncPolicy,
) -> Result<(Durable, usize), String> {
    let (d, report) = Durable::open(snapshot, wal, policy).map_err(|e| e.to_string())?;
    Ok((d, report.replayed))
}

/// Applies and logs one mutation; true iff the graph changed.
pub fn durable_apply(d: &mut Durable, m: EdgeMutation) -> Result<bool, String> {
    match m {
        EdgeMutation::Insert { u, label, v } => d.insert_edge(u, label, v),
        EdgeMutation::Delete { u, label, v } => d.delete_edge(u, label, v),
    }
    .map_err(|e| e.to_string())
}

/// Compacts when the overlay passed its budget; true iff it compacted.
pub fn durable_maybe_compact(d: &mut Durable) -> Result<bool, String> {
    d.maybe_compact().map_err(|e| e.to_string())
}

/// Mutation records logged since the last checkpoint.
pub fn durable_records(d: &Durable) -> usize {
    d.records_since_checkpoint()
}

/// Decodes a binary snapshot.
pub fn decode_snapshot(bytes: Vec<u8>) -> Result<GraphDb, String> {
    crpq_graph::format::parse_graph_auto(bytes).map_err(|e| e.to_string())
}
