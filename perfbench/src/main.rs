//! The repository benchmark: three closed-loop workloads over the crpq
//! engine, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one. See `README.md` next to this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. It writes spans and scratch files
//! under `.bench_out/` there. The last line of standard output is the
//! result; the line before it holds the machine and every figure of the
//! run, including those gated on no workload.

mod checks;
mod cold_chain;
mod durable_churn;
mod engine;
mod harness;
mod hubs;
mod layers;
mod rng;
mod warm_hubs;

use harness::{json_f64, json_str, median, peak_rss_mb, tail_percentile, Metrics, Tally, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;

/// What a workload is run with.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space under the working directory (durable files, span dumps).
    pub out_dir: PathBuf,
}

/// What a workload measured. Latencies are per request; `busy_s` is the
/// request phase's time spent serving (checks and traced passes between
/// requests excluded).
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub first_ms: Vec<f64>,
    pub last_ms: Vec<f64>,
    pub gaps_us: Vec<f64>,
    pub busy_s: f64,
    pub writes_us: Vec<f64>,
    pub recover_ms: Option<f64>,
    pub tally: Tally,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Metrics>,
    pub tracer: Option<Tracer>,
    /// Workload facts worth keeping with the result (sizes, policy).
    pub facts: Vec<(&'static str, String)>,
}

const WORKLOADS: [&str; 3] = ["cold_chain_1m", "warm_inj_hubs", "durable_churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir,
    };
    let outcome = match args.workload.as_str() {
        "cold_chain_1m" => cold_chain::run(&cfg),
        "warm_inj_hubs" => warm_hubs::run(&cfg),
        _ => durable_churn::run(&cfg),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = &outcome.tracer {
        let path = cfg
            .out_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    report(&args, &outcome);
    ExitCode::SUCCESS
}

/// The `end_to_end` metrics: the figures every workload has.
fn end_to_end(o: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    m.put_opt("setup_s", median(&o.setup_s), "s");
    m.put_opt("first_p50_ms", median(&o.first_ms), "ms");
    m.put_opt("last_p50_ms", median(&o.last_ms), "ms");
    m.put(
        "queries_per_s",
        o.last_ms.len() as f64 / o.busy_s.max(1e-9),
        "1/s",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

/// Every figure of the run: the end-to-end metrics, the tail percentiles
/// that have enough samples, and the workload-specific ones.
fn detail(o: &Outcome, e2e: &Metrics) -> Metrics {
    let mut m = Metrics::default();
    m.put_opt("setup_s", e2e.get("setup_s"), "s");
    m.put_opt("first_p50_ms", e2e.get("first_p50_ms"), "ms");
    m.put_opt("first_p90_ms", tail_percentile(&o.first_ms, 90.0), "ms");
    m.put_opt("last_p50_ms", e2e.get("last_p50_ms"), "ms");
    m.put_opt("last_p90_ms", tail_percentile(&o.last_ms, 90.0), "ms");
    m.put_opt("delay_p999_us", tail_percentile(&o.gaps_us, 99.9), "us");
    m.put_opt("queries_per_s", e2e.get("queries_per_s"), "1/s");
    m.put_opt("write_p50_us", median(&o.writes_us), "us");
    m.put_opt("write_p99_us", tail_percentile(&o.writes_us, 99.0), "us");
    m.put_opt("recover_ms", o.recover_ms, "ms");
    m.put_opt("peak_rss_mb", e2e.get("peak_rss_mb"), "MB");
    m.put("error_frac", o.tally.error_frac(), "ratio");
    m.put("requests", o.last_ms.len() as f64, "count");
    m.put("setups", o.setup_s.len() as f64, "count");
    m
}

fn machine(args: &Args) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mem_kb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .unwrap_or_else(|| "0".to_string());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "{{\"cpus\": {cpus}, \"engine_threads\": {}, \"mem_total_kb\": {mem_kb}, \"rustc\": {}, \"commit\": {}, \"seed\": {}, \"workload\": {}, \"trace\": {}, \"seconds\": {}}}",
        engine::ENGINE_THREADS,
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&commit),
        args.seed,
        json_str(&args.workload),
        u8::from(args.trace),
        json_f64(args.seconds),
    )
}

fn report(args: &Args, o: &Outcome) {
    let e2e = end_to_end(o);
    let facts: Vec<String> = o
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"machine\": {}, \"facts\": {{{}}}, \"detail\": {}}}",
        machine(args),
        facts.join(", "),
        detail(o, &e2e).to_json()
    );
    let metrics = if args.trace {
        o.layers
            .as_ref()
            .expect("traced runs compute per-layer metrics")
            .to_json()
    } else {
        e2e.to_json()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.tally.failures.is_empty(),
        o.tally.attempted,
        o.tally.failures.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{layer_metrics, BuildStats, LayerInputs, LayerLog, WriteStats};

    /// `(name, unit)` of every metric listed under `section` in the
    /// repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = doc[start..].find(']').expect("section closes") + start;
        doc[start..end]
            .lines()
            .filter_map(|l| {
                let field = |key: &str| {
                    let at = l.find(&format!("\"{key}\": \""))? + key.len() + 5;
                    Some(l[at..at + l[at..].find('"')?].to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    }

    fn emitted(m: &Metrics) -> Vec<(String, String)> {
        m.0.iter()
            .map(|(n, _, u)| (n.clone(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn the_result_carries_exactly_the_declared_metrics() {
        let o = Outcome {
            setup_s: vec![1.0],
            first_ms: vec![1.0],
            last_ms: vec![2.0],
            busy_s: 2.0,
            ..Outcome::default()
        };
        assert_eq!(emitted(&end_to_end(&o)), declared("end_to_end"));
        let layers = layer_metrics(&LayerInputs {
            tracer: &Tracer::new(),
            log: &LayerLog::default(),
            build: BuildStats::default(),
            catalog: engine::CatalogStats::default(),
            writes: &WriteStats::default(),
            e2e_runs_first: true,
        });
        assert_eq!(emitted(&layers), declared("per_layer"));
    }
}
