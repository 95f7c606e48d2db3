//! The hub-skewed graph family of `warm_inj_hubs`.
//!
//! Labels `a`, `b` and `c` connect Zipf-distributed endpoints: node `r`
//! is drawn with weight `1/(r+1)^s`, so a handful of low-id hubs carry a
//! large share of those edges and the triangle over them has heavy
//! hitters. Label `d` connects uniform endpoints at mean out-degree below
//! one, so its subgraph stays subcritical and a `d*` closure stays small.

use crate::rng::Rng;

pub const LABELS: [&str; 4] = ["a", "b", "c", "d"];

#[derive(Clone, Copy, Debug)]
pub struct HubShape {
    pub nodes: usize,
    /// Edges over the hub labels `a`, `b`, `c` (label uniform among them).
    pub hub_edges: usize,
    /// Edges over the subcritical label `d`.
    pub d_edges: usize,
    /// Zipf exponent of the hub-label endpoints.
    pub exponent: f64,
}

/// The edge list `(source, label index into LABELS, target)`.
pub fn hub_edges(shape: HubShape, seed: u64) -> Vec<(u32, usize, u32)> {
    let mut rng = Rng::new(seed);
    let mut cum = Vec::with_capacity(shape.nodes);
    let mut total = 0.0;
    for r in 0..shape.nodes {
        total += 1.0 / ((r + 1) as f64).powf(shape.exponent);
        cum.push(total);
    }
    let zipf = |rng: &mut Rng| {
        let t = rng.unit() * total;
        cum.partition_point(|&c| c <= t).min(shape.nodes - 1) as u32
    };
    let mut edges = Vec::with_capacity(shape.hub_edges + shape.d_edges);
    for _ in 0..shape.hub_edges {
        let u = zipf(&mut rng);
        let v = zipf(&mut rng);
        edges.push((u, rng.below(3), v));
    }
    for _ in 0..shape.d_edges {
        let u = rng.below(shape.nodes) as u32;
        let v = rng.below(shape.nodes) as u32;
        edges.push((u, 3, v));
    }
    edges
}
