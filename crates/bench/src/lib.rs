//! Benchmark helpers shared by the bench targets and the experiments
//! binary. The criterion benches live in `benches/`; the join-vs-legacy
//! evaluation baseline lives in [`bench_eval`].
//!
//! # `BENCH_eval.json` schema
//!
//! * `rows` — one entry per (workload, graph, semantics): the two-engine
//!   wall clocks (`join_ms` / `legacy_ms`; rows before the `Eval` request
//!   type also carry the retired per-variant baseline's `unshared_ms`), catalog
//!   counters, and the **memory proxies** `index_bytes` (graph adjacency
//!   indexes: node-major flat arrays + both label-partitioned sparse CSRs)
//!   and `rel_bytes` (all relations the instrumented catalog run
//!   materialised).
//! * `scale_rows` — the label-rich Zipf workload
//!   (`crpq_workloads::scaling::label_rich_graph`; knobs:
//!   `LABEL_RICH_LABELS` = 10³ labels, `LABEL_RICH_ZIPF_EXPONENT` = 1.0,
//!   4n edges): catalog-engine-only build/eval/materialise wall clocks,
//!   the same memory proxies, plus `csr_offset_bytes` (what the sparse
//!   per-label CSR offsets actually cost, asserted
//!   `O(|E| + Σ_l |V_l|)`) against `dense_offset_bytes` (what the retired
//!   dense `label × node` layout would have cost). `--smoke` records it at
//!   `|V| = 10⁴`; `--scale-smoke` gates CI at `|V| = 10⁵` and writes the
//!   same schema to `BENCH_scale.json`.

pub mod bench_eval;
