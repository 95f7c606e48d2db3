//! Workload-independent measurement: percentiles, answer digests, spans
//! and the result document.

use crate::engine::Tuple;
use crate::rng::mix64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    Some(if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    })
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`), reported only when
/// at least [`MIN_BEYOND`] samples lie beyond its rank.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990, not 9 991.
    let rank = (p / 100.0 * n as f64 - 1e-6).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// An order-independent digest of an answer set: equal sets give equal
/// digests whatever order the tuples arrive in.
pub fn digest(tuples: &[Tuple]) -> u64 {
    tuples.iter().fold(mix64(tuples.len() as u64), |acc, t| {
        acc.wrapping_add(tuple_hash(t))
    })
}

fn tuple_hash(t: &Tuple) -> u64 {
    t.iter()
        .fold(0x51_7CC1_B727_220A, |h, v| mix64(h ^ u64::from(v.0)))
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// --- spans ----------------------------------------------------------------

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Spans nest by open/close order; nothing is
/// written until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request: later spans carry its id.
    pub fn begin_request(&mut self, request: u64) {
        assert!(self.open.is_empty(), "request started inside a span");
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut covered: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let mut total = 0;
            let mut reach = s.start_ns;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    total += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - total
        })
        .collect()
}

/// Per request, the summed `ns` (one value per span, e.g. self times) of
/// every span named `name`, in ms.
pub fn ms_per_request(spans: &[Span], ns: &[u64], name: &str) -> Vec<f64> {
    let mut per: BTreeMap<u64, f64> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(ns) {
        if s.name == name {
            *per.entry(s.request).or_default() += ns as f64 / 1e6;
        }
    }
    per.into_values().collect()
}

// --- the result document --------------------------------------------------

/// Metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics(pub(crate) Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit));
    }

    /// Puts the value if there is one.
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.put(name, v, unit);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_f64(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A float as JSON: whole numbers keep a trailing `.0`, others print every
/// digit Rust's shortest round-trip form has.
pub fn json_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Requests attempted and failed, with the reason of each failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one checked request: a failure when `err` is set.
    pub fn record(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.fail(e);
        }
    }

    /// Counts a failure without a new attempt (a check on an attempt
    /// already counted).
    pub fn fail(&mut self, why: String) {
        if self.failures.len() < 32 {
            eprintln!("check failed: {why}");
        }
        self.failures.push(why);
    }

    pub fn error_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NodeId;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples sits at rank 90: only 9 beyond.
        assert_eq!(tail_percentile(&s, 90.0), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 90.0), Some(90.0));
        // p99.9 needs 10 000 samples.
        let s: Vec<f64> = (0..9_999).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 99.9), None);
        let s: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 99.9), Some(9_989.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let t = |a: u32, b: u32| vec![NodeId(a), NodeId(b)];
        let one = vec![t(1, 2), t(3, 4), t(5, 6)];
        let shuffled = vec![t(5, 6), t(1, 2), t(3, 4)];
        assert_eq!(digest(&one), digest(&shuffled));
        assert_ne!(digest(&one), digest(&[t(1, 2), t(3, 4)]));
        assert_ne!(digest(&one), digest(&[t(2, 1), t(3, 4), t(5, 6)]));
        assert_ne!(digest(&[]), digest(&[vec![]]));
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        // Overlapping children count their union once.
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::new();
        t.begin_request(7);
        t.time("outer", |t| t.time("inner", |_| ()));
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn metrics_print_as_json_numbers() {
        let mut m = Metrics::default();
        m.put("x_ms", 1.25, "ms");
        m.put("n", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"n\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }
}
