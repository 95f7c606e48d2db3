//! Benchmark helpers shared by the bench targets and the experiments
//! binary. The criterion benches live in `benches/`; the join-vs-legacy
//! evaluation baseline lives in [`bench_eval`].
//!
//! # Baseline file schema
//!
//! `BENCH_eval.json` (`experiments --smoke`) and `BENCH_scale.json`
//! (`--scale-smoke`, `--mutate-smoke`, `--wal-smoke`) each hold a
//! `generated_by` command, a `machine` object (`cpus`, `mem_total_kb`) and
//! named arrays of rows, one JSON object per line. `generated_by` names
//! the last mode that rewrote the file; each row's own `mode` field names
//! the mode that measured it. Every row starts with its `workload` and
//! records the `cpus` and resolved `threads` it was measured with. A
//! rewrite keeps the last row per key — the raw `workload`, `graph`,
//! `semantics`, `nodes` and `threads` values ([`bench_eval::row_key`]; not
//! `mode`) — so rows of configurations no longer measured stay as history.
//! Rows written before a field was added lack it.
//!
//! `BENCH_eval.json`:
//!
//! * `rows` — one entry per (workload, graph, semantics) of E2/E9: the
//!   two-engine wall clocks (`join_ms` / `legacy_ms`, `speedup`),
//!   materialisation time and catalog counters, and the **memory
//!   proxies** `index_bytes` (the graph's node-major adjacency, both
//!   directions), `rel_bytes` (all relations the instrumented catalog run
//!   materialised) and `scratch_bytes` (peak sweep scratch).
//! * `scale_rows` — the label-rich Zipf workload
//!   (`crpq_workloads::scaling::label_rich_graph`; knobs:
//!   `LABEL_RICH_LABELS` = 10³ labels, `LABEL_RICH_ZIPF_EXPONENT` = 1.0,
//!   4n edges) at `|V| = 10⁴` and the anonymous million-node family at
//!   `|V| = 10⁵`: catalog-engine-only build/eval/materialise wall clocks
//!   (`mat_ms` split into `sweep_ms` and `assembly_ms`) and the memory
//!   proxies plus `name_bytes` and `assembly_bytes`, with `index_bytes`
//!   asserted to be exactly `2·(4·(|V|+1) + 8·|E|)`.
//! * `stream_rows` — warm time-to-first / time-to-k / `ASK` against the
//!   warm full run, and the cold stream's first tuple, at 10⁵ and 10⁶, on
//!   one thread (`--threads` does not reach them).
//! * `cyclic_rows` — the median join on the cyclic shapes and the warm
//!   hub triangle under st, a-inj and q-inj.
//! * `injective_rows` — the warm triangle (`injective_triangle`) and the
//!   warm finite chain (`injective_fin_chain`) under st, a-inj and q-inj
//!   (`tuples` and `ms` lists in that order) and the two ratios over st.
//!
//! `BENCH_scale.json`: `scale_rows` (the same schema at `|V| = 10⁵`, 10⁶
//! and 10⁷), `steal_rows` (history: a deleted work-stealing search
//! against one thread; no mode writes them any more),
//! `mutate_rows` (footprint-keyed against evict-all invalidation) and
//! `wal_rows` (WAL apply and recovery per sync policy).

pub mod bench_eval;
