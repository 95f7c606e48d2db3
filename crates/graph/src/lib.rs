//! # crpq-graph
//!
//! The edge-labelled graph database substrate: a compact adjacency-indexed
//! store ([`GraphDb`]), deterministic generators for synthetic workloads,
//! text/binary serialisation, and the three flavours of RPQ path search the
//! paper's semantics need:
//!
//! * **arbitrary paths** (standard semantics) — product-automaton BFS,
//!   polynomial data complexity ([`rpq::rpq_exists`]);
//! * **simple paths / simple cycles** (atom-injective semantics) —
//!   backtracking DFS, NP-complete in data complexity
//!   ([`rpq::simple_path_exists`], [`rpq::simple_cycle_exists`]);
//! * **trails** (edge-injective; §7 outlook of the paper) —
//!   [`rpq::trail_exists`].

pub mod db;
pub mod delta;
pub mod format;
pub mod generators;
pub mod rpq;
pub mod two_way;
pub mod view;
pub mod wal;

pub use db::{EdgeRow, GraphBuilder, GraphDb, NodeId, NodeNames};
pub use delta::{DeltaGraph, GraphDelta};
pub use view::GraphView;
pub use wal::{DurableGraph, EdgeMutation, RecoveryReport, SyncPolicy, WalError};
