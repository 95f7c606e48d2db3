//! # crpq-workloads
//!
//! Seeded, reproducible instance generators for the experiment suite
//! (`EXPERIMENTS.md`). Each experiment has a module:
//!
//! * [`paper_examples`] — the concrete objects of the paper: the Example 2.1
//!   query with Figure-2-style graphs `G`/`G′`, the Example 4.7 query
//!   quadruple, the §1 intro query (E2, E4);
//! * [`random`] — random CRPQs per query class and random graph databases
//!   (E3, E9);
//! * [`figure1`] — per-cell containment instance families scaling with a
//!   size parameter (E1);
//! * [`scaling`] — evaluation scaling families: data complexity (growing
//!   graphs) and combined complexity (growing queries) (E9);
//! * [`cyclic`] — cyclic-shape CRPQs (triangle, 4-cycle,
//!   diamond-with-chord) and the heavy-hitter hub triangle for the
//!   worst-case-optimal join, the engine's one join executor.

pub mod cyclic;
pub mod figure1;
pub mod paper_examples;
pub mod random;
pub mod scaling;
pub mod wikidata;
