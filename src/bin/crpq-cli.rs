//! `crpq-cli` — command-line front end for the library.
//!
//! ```sh
//! crpq-cli eval     --graph g.txt --query "(x,y) <- x -[a b]-> y" --semantics q-inj
//! crpq-cli contain  --q1 "x -[a]-> y, y -[b]-> z" --q2 "x -[a b]-> y" --semantics a-inj
//! crpq-cli classify --query "x -[(a b)*]-> y"
//! crpq-cli graph-info --graph g.txt
//! crpq-cli db-init  --graph g.txt --snapshot g.snap --wal g.wal
//! crpq-cli db-apply --snapshot g.snap --wal g.wal --mutations m.txt --sync every:8
//! crpq-cli db-info  --snapshot g.snap --wal g.wal
//! ```
//!
//! Graphs use either on-disk format of `crpq::graph::format` — the text
//! format (one `src label dst` edge per line) or the `CRPQ` binary
//! snapshot — detected by content. Semantics names: `st`, `a-inj`,
//! `q-inj`, `a-trail`, `q-trail`.
//!
//! Every user-facing failure (unknown flags/semantics, missing or
//! malformed graph files, unparsable queries) exits with an `error:` line
//! and a nonzero status — never a panic backtrace.

use crpq::core::{eval_contains_trail, eval_tuples_trail, Eval, TrailSemantics};
use crpq::graph::format::parse_graph_auto;
use crpq::graph::{DurableGraph, SyncPolicy};
use crpq::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((output, code)) => {
            println!("{output}");
            ExitCode::from(code)
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  crpq-cli eval       --graph FILE --query Q [--semantics S] [--threads N] [--ask | --limit K]
                      [--tuple n1,n2,…] [--witness]
  crpq-cli contain    --q1 Q --q2 Q [--semantics S]
  crpq-cli classify   --query Q
  crpq-cli bounded    --query Q [--max-level K]
  crpq-cli graph-info --graph FILE
  crpq-cli db-init    --graph FILE --snapshot SNAP --wal WAL [--sync P]
  crpq-cli db-apply   --snapshot SNAP --wal WAL --mutations FILE [--sync P] [--compact]
  crpq-cli db-info    --snapshot SNAP --wal WAL
semantics S: st | a-inj | q-inj | a-trail | q-trail (default: st)
sync P: always | never | every:N (default: always)
mutations FILE: one `insert SRC LABEL DST`, `delete SRC LABEL DST` or `add-node`
  per line; `#` comments; db-info exits 1 when recovery dropped a torn WAL tail
threads N: materialise relations on N threads (0 = one per CPU, capped at 16; at most 256)
--ask: existence only — prints true/false, exits 0 iff an answer exists (stops at first witness)
--limit K: prints at most K answer tuples, stopping the search early
graph FILE: text (one `src label dst` per line) or CRPQ binary snapshot";

/// Either a paper semantics or a §7 trail semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AnySemantics {
    Core(Semantics),
    Trail(TrailSemantics),
}

fn parse_semantics(name: &str) -> Result<AnySemantics, String> {
    Ok(match name {
        "st" | "standard" => AnySemantics::Core(Semantics::Standard),
        "a-inj" | "atom-injective" => AnySemantics::Core(Semantics::AtomInjective),
        "q-inj" | "query-injective" => AnySemantics::Core(Semantics::QueryInjective),
        "a-trail" => AnySemantics::Trail(TrailSemantics::AtomTrail),
        "q-trail" => AnySemantics::Trail(TrailSemantics::QueryTrail),
        other => return Err(format!("unknown semantics `{other}`")),
    })
}

/// Minimal `--flag value` parser.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == format!("--{name}"))
        .map(|w| w[1].as_str())
}

fn require<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing --{name}"))
}

/// Dispatches a command; `Ok` carries the output plus the process exit
/// code (nonzero only for `eval --ask` on an empty answer, grep-style).
fn run(args: &[String]) -> Result<(String, u8), String> {
    let command = args.first().ok_or("missing command")?;
    match command.as_str() {
        "eval" => cmd_eval(&args[1..]),
        "contain" => cmd_contain(&args[1..]).map(|out| (out, 0)),
        "classify" => cmd_classify(&args[1..]).map(|out| (out, 0)),
        "bounded" => cmd_bounded(&args[1..]).map(|out| (out, 0)),
        "graph-info" => cmd_graph_info(&args[1..]).map(|out| (out, 0)),
        "db-init" => cmd_db_init(&args[1..]).map(|out| (out, 0)),
        "db-apply" => cmd_db_apply(&args[1..]).map(|out| (out, 0)),
        "db-info" => cmd_db_info(&args[1..]),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn load_graph(path: &str) -> Result<GraphDb, String> {
    // Read raw bytes (not `read_to_string`): binary snapshots are legal
    // input, and a non-UTF-8 file must fail with a format diagnostic, not
    // an IO-layer UTF-8 error.
    let data = std::fs::read(path).map_err(|e| format!("cannot read graph file `{path}`: {e}"))?;
    parse_graph_auto(data).map_err(|e| format!("cannot parse graph file `{path}`: {e}"))
}

fn cmd_eval(args: &[String]) -> Result<(String, u8), String> {
    let mut g = load_graph(require(args, "graph")?)?;
    let query_text = require(args, "query")?;
    let q = parse_crpq(query_text, g.alphabet_mut()).map_err(|e| e.to_string())?;
    let sem = parse_semantics(flag(args, "semantics").unwrap_or("st"))?;

    // `--threads N` sweeps the atom relations on N threads; N = 0 keeps
    // the documented fallback (one thread per available CPU, capped at
    // 16). Without it they are swept on one. The join search always runs
    // on the calling thread.
    let threads: usize = flag(args, "threads")
        .map(|t| t.parse().map_err(|e| format!("bad --threads: {e}")))
        .transpose()?
        .unwrap_or(1);
    let ask = args.iter().any(|a| a == "--ask");
    let limit: Option<usize> = flag(args, "limit")
        .map(|k| k.parse().map_err(|e| format!("bad --limit: {e}")))
        .transpose()?;
    if ask && limit.is_some() {
        return Err("--ask and --limit are mutually exclusive".into());
    }
    if (ask || limit.is_some()) && flag(args, "tuple").is_some() {
        return Err("--ask/--limit query the answer set; --tuple tests one tuple".into());
    }

    if ask {
        let exists = match sem {
            AnySemantics::Core(s) => Eval::new(&q, &g).semantics(s).threads(threads).ask(),
            // Trail semantics have no early-exit engine; existence via the
            // materialised set keeps --ask total over every semantics.
            AnySemantics::Trail(s) => !eval_tuples_trail(&q, &g, s).is_empty(),
        };
        // grep-style exit status: 0 iff at least one answer exists.
        return Ok((exists.to_string(), u8::from(!exists)));
    }

    if let Some(tuple_text) = flag(args, "tuple") {
        let tuple: Vec<NodeId> = tuple_text
            .split(',')
            .map(|name| {
                let name = name.trim();
                // `#id` addresses nodes of anonymous (nameless) graphs —
                // the same rendering the output paths use for them. Named
                // graphs resolve strictly by name: a stored name may
                // legitimately start with `#`, and an id typo must error,
                // not silently test a different node.
                let by_id = if g.is_named() {
                    None
                } else {
                    name.strip_prefix('#').and_then(|id| {
                        let id: u32 = id.parse().ok()?;
                        ((id as usize) < g.num_nodes()).then_some(NodeId(id))
                    })
                };
                by_id
                    .or_else(|| g.node_by_name(name))
                    .ok_or_else(|| format!("unknown node `{name}`"))
            })
            .collect::<Result<_, _>>()?;
        // Guard the library's arity assertion: a wrong-length --tuple must
        // be a CLI error, not a panic backtrace.
        if tuple.len() != q.free.len() {
            return Err(format!(
                "--tuple has {} node(s) but the query's free tuple has arity {}",
                tuple.len(),
                q.free.len()
            ));
        }
        if args.iter().any(|a| a == "--witness") {
            let AnySemantics::Core(s) = sem else {
                return Err("--witness is implemented for st/a-inj/q-inj".into());
            };
            let out = match eval_witness(&q, &g, &tuple, s) {
                None => format!("({tuple_text}) ∉ Q(G)"),
                Some(w) => {
                    let mut out = format!("({tuple_text}) ∈ Q(G); witness paths:\n");
                    for (i, path) in w.atom_paths.iter().enumerate() {
                        let names: Vec<_> = path.iter().map(|&n| g.display_name(n)).collect();
                        out.push_str(&format!("  atom {i}: {}\n", names.join(" → ")));
                    }
                    out.trim_end().to_owned()
                }
            };
            return Ok((out, 0));
        }
        let member = match sem {
            AnySemantics::Core(s) => Eval::new(&q, &g).semantics(s).contains(&tuple),
            AnySemantics::Trail(s) => eval_contains_trail(&q, &g, &tuple, s),
        };
        return Ok((format!("({tuple_text}) ∈ Q(G): {member}"), 0));
    }

    let tuples = match (sem, limit) {
        (AnySemantics::Core(s), Some(k)) => {
            Eval::new(&q, &g).semantics(s).threads(threads).limit(k)
        }
        (AnySemantics::Core(s), None) => Eval::new(&q, &g).semantics(s).threads(threads).tuples(),
        (AnySemantics::Trail(s), k) => {
            // Trail enumeration has no early-exit engine; truncating the
            // materialised set keeps --limit total over every semantics.
            let mut tuples = eval_tuples_trail(&q, &g, s);
            if let Some(k) = k {
                tuples.truncate(k);
            }
            tuples
        }
    };
    let mut out = match limit {
        Some(k) => format!("{} result(s) (limit {k}):\n", tuples.len()),
        None => format!("{} result(s):\n", tuples.len()),
    };
    for t in &tuples {
        let names: Vec<_> = t.iter().map(|&n| g.display_name(n)).collect();
        out.push_str(&format!("  ({})\n", names.join(", ")));
    }
    Ok((out.trim_end().to_owned(), 0))
}

fn cmd_contain(args: &[String]) -> Result<String, String> {
    let mut sigma = Interner::new();
    let q1 = parse_crpq(require(args, "q1")?, &mut sigma).map_err(|e| e.to_string())?;
    let q2 = parse_crpq(require(args, "q2")?, &mut sigma).map_err(|e| e.to_string())?;
    let sem = match parse_semantics(flag(args, "semantics").unwrap_or("st"))? {
        AnySemantics::Core(s) => s,
        AnySemantics::Trail(_) => {
            return Err("containment is implemented for st/a-inj/q-inj".into())
        }
    };
    // Guard the library's arity assertion, as `eval --tuple` does.
    if q1.free.len() != q2.free.len() {
        return Err(format!(
            "--q1 has free-tuple arity {} but --q2 has arity {}; containment needs equal arities",
            q1.free.len(),
            q2.free.len()
        ));
    }
    let out = contain(&q1, &q2, sem);
    Ok(match out {
        Outcome::Contained => format!("Q1 ⊆{} Q2", sem.short_name()),
        Outcome::NotContained(ce) => format!(
            "Q1 ⊄{} Q2 (counter-example with {} atoms, {} merges)",
            sem.short_name(),
            ce.witness.atoms.len(),
            ce.merges
        ),
        Outcome::Inconclusive { limits } => format!(
            "inconclusive within budget (max word length {}): no counter-example found",
            limits.max_word_len
        ),
    })
}

fn cmd_classify(args: &[String]) -> Result<String, String> {
    use crpq::automata::tractability::{classify, AnalysisLimits};
    let mut sigma = Interner::new();
    let q = parse_crpq(require(args, "query")?, &mut sigma).map_err(|e| e.to_string())?;
    let mut out = format!(
        "class: {}\natoms: {}\nvariables: {}\nfree arity: {}\nconnected: {}\nε-atoms: {}",
        q.classify(),
        q.atoms.len(),
        q.num_vars,
        q.free.len(),
        q.is_connected(),
        q.has_epsilon_atoms(),
    );
    out.push_str("\nsimple-path classes:");
    for (i, atom) in q.atoms.iter().enumerate() {
        let nfa = atom.nfa();
        let verdict = match classify(&nfa, &nfa.symbols(), AnalysisLimits::default()) {
            Some(SimplePathClass::Finite { max_len }) => {
                format!("finite (≤ {max_len}; AC0-style)")
            }
            Some(SimplePathClass::DeletionClosed) => {
                "deletion-closed (reachability fast path)".into()
            }
            Some(SimplePathClass::ParityHard) => "parity-hard (NP-style)".into(),
            Some(SimplePathClass::Frontier) => "frontier (no guarantee)".into(),
            None => "inconclusive (monoid cap)".into(),
        };
        out.push_str(&format!("\n  atom {i}: {verdict}"));
    }
    Ok(out)
}

fn cmd_bounded(args: &[String]) -> Result<String, String> {
    let mut sigma = Interner::new();
    let q = parse_crpq(require(args, "query")?, &mut sigma).map_err(|e| e.to_string())?;
    let mut config = BoundednessConfig::default();
    if let Some(k) = flag(args, "max-level") {
        config.max_level = k.parse().map_err(|e| format!("bad --max-level: {e}"))?;
    }
    Ok(match check_boundedness(&q, config) {
        Boundedness::Bounded { level, union } => format!(
            "bounded (certified): equivalent to a union of {} CQ(s) at level {level}",
            union.len()
        ),
        Boundedness::BoundedUpTo { level, limits } => format!(
            "bounded up to budget (word length ≤ {}): Q ≡ Q^(≤{level}) held on every candidate",
            limits.max_word_len
        ),
        Boundedness::Refuted { level, .. } => {
            format!("unbounded evidence: every truncation level ≤ {level} refuted")
        }
    })
}

fn cmd_graph_info(args: &[String]) -> Result<String, String> {
    let g = load_graph(require(args, "graph")?)?;
    let labels: Vec<&str> = g.alphabet().iter().map(|(_, n)| n).collect();
    Ok(format!(
        "nodes: {}\nedges: {}\nlabels: {}",
        g.num_nodes(),
        g.num_edges(),
        labels.join(", ")
    ))
}

fn parse_sync(args: &[String]) -> Result<SyncPolicy, String> {
    SyncPolicy::parse(flag(args, "sync").unwrap_or("always"))
}

/// Node addressing for durable-store mutations — same contract as
/// `--tuple`: named snapshots resolve strictly by name, anonymous ones by
/// `#id` (bounds-checked against the *recovered* node count, so nodes
/// appended by `add-node` records are addressable).
fn resolve_node(g: &DeltaGraph, name: &str) -> Result<NodeId, String> {
    let by_id = if g.base().is_named() {
        None
    } else {
        name.strip_prefix('#').and_then(|id| {
            let id: u32 = id.parse().ok()?;
            ((id as usize) < GraphView::num_nodes(g)).then_some(NodeId(id))
        })
    };
    by_id
        .or_else(|| g.base().node_by_name(name))
        .ok_or_else(|| format!("unknown node `{name}`"))
}

fn cmd_db_init(args: &[String]) -> Result<String, String> {
    let g = load_graph(require(args, "graph")?)?;
    let snap = require(args, "snapshot")?;
    let wal = require(args, "wal")?;
    let policy = parse_sync(args)?;
    let d = DurableGraph::create(snap, wal, g, policy).map_err(|e| e.to_string())?;
    Ok(format!(
        "initialised durable store ({} node(s), {} edge(s))\nsnapshot: {snap}\nwal: {wal}\nsync policy: {policy}",
        GraphView::num_nodes(d.graph()),
        GraphView::num_edges(d.graph()),
    ))
}

fn cmd_db_apply(args: &[String]) -> Result<String, String> {
    let snap = require(args, "snapshot")?;
    let wal = require(args, "wal")?;
    let policy = parse_sync(args)?;
    let path = require(args, "mutations")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read mutations file `{path}`: {e}"))?;
    let (mut d, report) = DurableGraph::open(snap, wal, policy).map_err(|e| e.to_string())?;
    let mut applied = 0usize;
    let mut noops = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |e: String| format!("{path}:{}: {e}", idx + 1);
        let parts: Vec<&str> = line.split_whitespace().collect();
        let changed = match parts.as_slice() {
            ["add-node"] => {
                d.add_node().map_err(|e| at(e.to_string()))?;
                true
            }
            ["insert", u, l, v] | ["delete", u, l, v] => {
                let un = resolve_node(d.graph(), u).map_err(at)?;
                let vn = resolve_node(d.graph(), v).map_err(at)?;
                let sym = d.label(l).map_err(|e| at(e.to_string()))?;
                let res = if parts[0] == "insert" {
                    d.insert_edge(un, sym, vn)
                } else {
                    d.delete_edge(un, sym, vn)
                };
                res.map_err(|e| at(e.to_string()))?
            }
            _ => {
                return Err(at(format!(
                    "expected `insert SRC LABEL DST`, `delete SRC LABEL DST` or `add-node`, \
                     got `{line}`"
                )))
            }
        };
        if changed {
            applied += 1;
        } else {
            noops += 1;
        }
    }
    d.sync_wal().map_err(|e| e.to_string())?;
    let mut out = format!(
        "recovered {} record(s), applied {applied} mutation(s) ({noops} no-op(s))",
        report.replayed
    );
    if args.iter().any(|a| a == "--compact") {
        d.compact().map_err(|e| e.to_string())?;
        out.push_str("\ncompacted: checkpoint rewritten, wal truncated");
    } else {
        out.push_str(&format!(
            "\nwal records since checkpoint: {}",
            d.records_since_checkpoint()
        ));
    }
    Ok(out)
}

/// Opens the store (running recovery) and reports what was found. Exits 1
/// — message naming the byte offset — when recovery dropped a torn WAL
/// tail, so scripted health checks notice data loss; corruption behind
/// durable records is a hard `error:` exit like every other failure.
fn cmd_db_info(args: &[String]) -> Result<(String, u8), String> {
    let snap = require(args, "snapshot")?;
    let wal = require(args, "wal")?;
    let (d, report) =
        DurableGraph::open(snap, wal, SyncPolicy::Never).map_err(|e| e.to_string())?;
    let g = d.graph();
    let mut out = format!(
        "nodes: {}\nedges: {}\nwal records replayed: {}\nwal bytes: {}",
        GraphView::num_nodes(g),
        GraphView::num_edges(g),
        report.replayed,
        report.good_wal_bytes,
    );
    if report.fresh_wal {
        out.push_str("\nwal: fresh");
    }
    if report.stale_wal {
        out.push_str("\nwal: stale (discarded; superseded by the checkpoint)");
    }
    if !report.mutated_labels.is_empty() {
        let names: Vec<&str> = report
            .mutated_labels
            .iter()
            .map(|&l| GraphView::alphabet(g).resolve(l))
            .collect();
        out.push_str(&format!("\nmutated labels: {}", names.join(", ")));
    }
    match &report.dropped_tail {
        Some(tail) => {
            out.push_str(&format!(
                "\nwarning: torn wal tail dropped at byte offset {}: {}",
                tail.offset, tail.reason
            ));
            Ok((out, 1))
        }
        None => Ok((out, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(parts: &[&str]) -> Vec<String> {
        parts.iter().map(std::string::ToString::to_string).collect()
    }

    /// [`run`] minus the exit code, for tests that only assert on output.
    fn run_ok(args: &[String]) -> Result<String, String> {
        run(args).map(|(out, _)| out)
    }

    #[test]
    fn flag_parsing() {
        let args = a(&["--q1", "x -[a]-> y", "--semantics", "q-inj"]);
        assert_eq!(flag(&args, "q1"), Some("x -[a]-> y"));
        assert_eq!(flag(&args, "semantics"), Some("q-inj"));
        assert_eq!(flag(&args, "missing"), None);
        assert!(require(&args, "q2").is_err());
    }

    #[test]
    fn semantics_names() {
        assert_eq!(
            parse_semantics("st").unwrap(),
            AnySemantics::Core(Semantics::Standard)
        );
        assert_eq!(
            parse_semantics("q-trail").unwrap(),
            AnySemantics::Trail(TrailSemantics::QueryTrail)
        );
        assert!(parse_semantics("bogus").is_err());
    }

    #[test]
    fn contain_command_end_to_end() {
        let out = run_ok(&a(&[
            "contain",
            "--q1",
            "x -[a]-> y, y -[b]-> z",
            "--q2",
            "x -[a b]-> y",
            "--semantics",
            "a-inj",
        ]))
        .unwrap();
        assert!(out.contains('⊄'), "{out}");
        let out = run_ok(&a(&[
            "contain",
            "--q1",
            "x -[a]-> y, y -[b]-> z",
            "--q2",
            "x -[a b]-> y",
            "--semantics",
            "q-inj",
        ]))
        .unwrap();
        assert!(out.contains('⊆'), "{out}");
    }

    #[test]
    fn classify_command() {
        let out = run_ok(&a(&["classify", "--query", "(x, y) <- x -[(a b)*]-> y"])).unwrap();
        assert!(out.contains("class: CRPQ"), "{out}");
        assert!(out.contains("free arity: 2"), "{out}");
    }

    #[test]
    fn eval_command_with_temp_graph() {
        let dir = std::env::temp_dir().join("crpq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "u a v\nv b w\n").unwrap();
        let p = path.to_str().unwrap();
        let out = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[a b]-> y",
        ]))
        .unwrap();
        assert!(out.contains("1 result(s)"), "{out}");
        assert!(out.contains("(u, w)"), "{out}");
        let out = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[a b]-> y",
            "--tuple",
            "u,w",
            "--semantics",
            "q-trail",
        ]))
        .unwrap();
        assert!(out.contains("true"), "{out}");
        let out = run_ok(&a(&["graph-info", "--graph", p])).unwrap();
        assert!(out.contains("nodes: 3"), "{out}");
    }

    #[test]
    fn eval_threads_flag() {
        let dir = std::env::temp_dir().join("crpq_cli_test_threads");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "u a v\nv a w\nw b x\n").unwrap();
        let p = path.to_str().unwrap();
        let query = "(x, y) <- x -[a a*]-> y, y -[b]-> z";
        let seq = run_ok(&a(&["eval", "--graph", p, "--query", query])).unwrap();
        for threads in ["0", "1", "4"] {
            let par = run_ok(&a(&[
                "eval",
                "--graph",
                p,
                "--query",
                query,
                "--threads",
                threads,
            ]))
            .unwrap();
            assert_eq!(seq, par, "--threads {threads} changed the result");
        }
        let err = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            query,
            "--threads",
            "many",
        ]))
        .unwrap_err();
        assert!(err.contains("bad --threads"), "{err}");
    }

    #[test]
    fn ask_flag_exit_codes_and_output() {
        let dir = std::env::temp_dir().join("crpq_cli_test_ask");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "u a v\nv a w\nw b x\n").unwrap();
        let p = path.to_str().unwrap();
        // Existing answer: prints true, exits 0 — sequential and parallel.
        for extra in [&[][..], &["--threads", "2"][..]] {
            let mut args = a(&[
                "eval",
                "--graph",
                p,
                "--query",
                "(x, y) <- x -[a a]-> y",
                "--ask",
            ]);
            args.extend(extra.iter().map(std::string::ToString::to_string));
            let (out, code) = run(&args).unwrap();
            assert_eq!(out, "true");
            assert_eq!(code, 0, "existing answer must exit 0");
        }
        // No answer: prints false, exits nonzero (still Ok — not an error).
        let (out, code) = run(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[b a]-> y",
            "--ask",
        ]))
        .unwrap();
        assert_eq!(out, "false");
        assert_eq!(code, 1, "empty answer must exit 1");
        // Trail semantics stay total under --ask.
        let (out, code) = run(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[a a]-> y",
            "--ask",
            "--semantics",
            "a-trail",
        ]))
        .unwrap();
        assert_eq!((out.as_str(), code), ("true", 0));
    }

    #[test]
    fn limit_flag_caps_printed_tuples() {
        let dir = std::env::temp_dir().join("crpq_cli_test_limit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "u a v\nv a w\nw a x\n").unwrap();
        let p = path.to_str().unwrap();
        let query = "(x, y) <- x -[a a*]-> y";
        // The full answer set has 6 pairs; --limit k prints exactly
        // min(k, 6) of them, each a true answer line.
        let full = run_ok(&a(&["eval", "--graph", p, "--query", query])).unwrap();
        assert!(full.contains("6 result(s)"), "{full}");
        for (k, expect) in [("0", 0), ("2", 2), ("6", 6), ("10", 6)] {
            for extra in [&[][..], &["--threads", "2"][..]] {
                let mut args = a(&["eval", "--graph", p, "--query", query, "--limit", k]);
                args.extend(extra.iter().map(std::string::ToString::to_string));
                let out = run_ok(&args).unwrap();
                assert!(
                    out.starts_with(&format!("{expect} result(s) (limit {k})")),
                    "k={k}: {out}"
                );
                let lines: Vec<&str> = out.lines().skip(1).collect();
                assert_eq!(lines.len(), expect, "k={k} printed {out}");
                assert!(
                    lines.iter().all(|l| full.contains(l.trim())),
                    "k={k} printed a non-answer: {out}"
                );
            }
        }
        // Trail semantics stay total under --limit.
        let out = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            query,
            "--limit",
            "1",
            "--semantics",
            "a-trail",
        ]))
        .unwrap();
        assert!(out.contains("1 result(s) (limit 1)"), "{out}");
    }

    #[test]
    fn ask_and_limit_flag_misuse_errors() {
        let dir = std::env::temp_dir().join("crpq_cli_test_misuse");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "u a v\n").unwrap();
        let p = path.to_str().unwrap();
        let base = ["eval", "--graph", p, "--query", "(x, y) <- x -[a]-> y"];
        // Malformed --limit values: parse errors, not panics or silences.
        for bad in ["many", "-1", "1.5", ""] {
            let mut args = a(&base);
            args.extend(["--limit".to_string(), bad.to_string()]);
            let err = run(&args).unwrap_err();
            assert!(err.contains("bad --limit"), "--limit {bad:?}: {err}");
        }
        // Conflicting flag combinations.
        let mut args = a(&base);
        args.extend(["--ask".to_string(), "--limit".to_string(), "1".to_string()]);
        let err = run(&args).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        for exclusive in [&["--ask"][..], &["--limit", "1"][..]] {
            let mut args = a(&base);
            args.extend(exclusive.iter().map(std::string::ToString::to_string));
            args.extend(["--tuple".to_string(), "u,v".to_string()]);
            let err = run(&args).unwrap_err();
            assert!(err.contains("--tuple"), "{exclusive:?}: {err}");
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_ok(&a(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn user_input_failures_are_errors_not_panics() {
        let dir = std::env::temp_dir().join("crpq_cli_test_err");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "u a v\n").unwrap();
        let p = path.to_str().unwrap();
        // Malformed --semantics.
        let err = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "x -[a]-> y",
            "--semantics",
            "bogus",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown semantics"), "{err}");
        // Missing graph file.
        let err = run_ok(&a(&[
            "eval",
            "--graph",
            "/no/such/file.graph",
            "--query",
            "x -[a]-> y",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot read graph file"), "{err}");
        // Unreadable (corrupted) binary graph: magic intact, body garbage.
        let bin = dir.join("bad.bin");
        std::fs::write(&bin, b"CRPQ\x01\xff\xff\xff\xff").unwrap();
        let err = run_ok(&a(&["graph-info", "--graph", bin.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("cannot parse graph file"), "{err}");
        // Non-UTF-8 garbage without the magic.
        let raw = dir.join("raw.bin");
        std::fs::write(&raw, [0xffu8, 0xfe, 0x00]).unwrap();
        let err = run_ok(&a(&["graph-info", "--graph", raw.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("neither"), "{err}");
        // Wrong-arity --tuple.
        let err = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[a]-> y",
            "--tuple",
            "u",
        ]))
        .unwrap_err();
        assert!(err.contains("arity"), "{err}");
        // Unknown node in --tuple.
        let err = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[a]-> y",
            "--tuple",
            "u,ghost",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown node"), "{err}");
        // `#id` addressing is for anonymous graphs only: on a named graph
        // it must not silently resolve to a node id.
        let err = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[a]-> y",
            "--tuple",
            "u,#0",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown node"), "{err}");
        // Mismatched free-tuple arities in `contain`.
        let err = run_ok(&a(&[
            "contain",
            "--q1",
            "(x) <- x -[a]-> y",
            "--q2",
            "x -[a]-> y",
        ]))
        .unwrap_err();
        assert!(err.contains("arity 1") && err.contains("arity 0"), "{err}");
    }

    #[test]
    fn binary_snapshot_graphs_load() {
        use crpq::graph::format::{parse_graph_text, to_binary};
        let dir = std::env::temp_dir().join("crpq_cli_test_bin");
        std::fs::create_dir_all(&dir).unwrap();
        let g = parse_graph_text("u a v\nv b w\n").unwrap();
        let path = dir.join("g.bin");
        std::fs::write(&path, to_binary(&g).to_vec()).unwrap();
        let out = run_ok(&a(&[
            "eval",
            "--graph",
            path.to_str().unwrap(),
            "--query",
            "(x, y) <- x -[a b]-> y",
        ]))
        .unwrap();
        assert!(out.contains("(u, w)"), "{out}");
        let out = run_ok(&a(&["graph-info", "--graph", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("nodes: 3"), "{out}");
    }

    #[test]
    fn anonymous_snapshot_graphs_eval_with_id_addressing() {
        use crpq::graph::format::to_binary;
        use crpq::graph::{GraphBuilder, NodeId};
        let dir = std::env::temp_dir().join("crpq_cli_test_anon");
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = GraphBuilder::anonymous(3);
        let a_sym = b.label("a");
        let b_sym = b.label("b");
        b.edge_ids(NodeId(0), a_sym, NodeId(1));
        b.edge_ids(NodeId(1), b_sym, NodeId(2));
        let path = dir.join("g.bin");
        std::fs::write(&path, to_binary(&b.finish()).to_vec()).unwrap();
        let p = path.to_str().unwrap();
        // Result tuples print the #id rendering instead of panicking.
        let out = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[a b]-> y",
        ]))
        .unwrap();
        assert!(out.contains("(#0, #2)"), "{out}");
        // …and the same rendering addresses nodes in --tuple.
        let out = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[a b]-> y",
            "--tuple",
            "#0,#2",
        ]))
        .unwrap();
        assert!(out.contains("true"), "{out}");
        let err = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[a b]-> y",
            "--tuple",
            "#0,#9",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown node"), "{err}");
    }

    #[test]
    fn classify_reports_simple_path_classes() {
        let out = run_ok(&a(&["classify", "--query", "x -[a*]-> y, x -[(a a)*]-> y"])).unwrap();
        assert!(out.contains("deletion-closed"), "{out}");
        assert!(out.contains("parity-hard"), "{out}");
    }

    #[test]
    fn bounded_command() {
        let out = run_ok(&a(&["bounded", "--query", "(x, y) <- x -[a b + c]-> y"])).unwrap();
        assert!(out.contains("bounded (certified)"), "{out}");
        let out = run_ok(&a(&[
            "bounded",
            "--query",
            "(x, y) <- x -[a a*]-> y",
            "--max-level",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("unbounded evidence"), "{out}");
    }

    /// Fresh per-test scratch dir (durability tests mutate real files, so
    /// a stale store from an earlier run must not leak in).
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("crpq_cli_test_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn db_roundtrip_init_apply_info() {
        let dir = scratch("db");
        let g = dir.join("g.txt");
        std::fs::write(&g, "u a v\nv b w\n").unwrap();
        let m = dir.join("m.txt");
        std::fs::write(
            &m,
            "# churn\ninsert u a w\ninsert v a u\ndelete u a v\nadd-node\n",
        )
        .unwrap();
        let (snap, wal) = (dir.join("g.snap"), dir.join("g.wal"));
        let (snap, wal) = (snap.to_str().unwrap(), wal.to_str().unwrap());

        let out = run_ok(&a(&[
            "db-init",
            "--graph",
            g.to_str().unwrap(),
            "--snapshot",
            snap,
            "--wal",
            wal,
        ]))
        .unwrap();
        assert!(out.contains("3 node(s), 2 edge(s)"), "{out}");
        let out = run_ok(&a(&[
            "db-apply",
            "--snapshot",
            snap,
            "--wal",
            wal,
            "--mutations",
            m.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("applied 4 mutation(s)"), "{out}");
        // Reopen: the four records replay; exit 0 (no torn tail).
        let (out, code) = run(&a(&["db-info", "--snapshot", snap, "--wal", wal])).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("nodes: 4"), "{out}");
        assert!(out.contains("wal records replayed: 4"), "{out}");
        assert!(out.contains("mutated labels: a"), "{out}");
        // Re-applying the same file is all no-ops except add-node.
        let out = run_ok(&a(&[
            "db-apply",
            "--snapshot",
            snap,
            "--wal",
            wal,
            "--mutations",
            m.to_str().unwrap(),
            "--compact",
        ]))
        .unwrap();
        assert!(out.contains("recovered 4 record(s)"), "{out}");
        assert!(out.contains("compacted"), "{out}");
        // After compaction the checkpoint IS the graph: plain eval sees the
        // applied mutations, and the WAL is bare.
        let out = run_ok(&a(&[
            "eval",
            "--graph",
            snap,
            "--query",
            "(x, y) <- x -[a]-> y",
        ]))
        .unwrap();
        assert!(out.contains("(u, w)") && out.contains("(v, u)"), "{out}");
        assert!(!out.contains("(u, v)"), "deleted edge resurfaced: {out}");
        let (out, code) = run(&a(&["db-info", "--snapshot", snap, "--wal", wal])).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("wal records replayed: 0"), "{out}");
        // Bad mutation lines are positional errors, not panics.
        std::fs::write(&m, "insert u a\n").unwrap();
        let err = run(&a(&[
            "db-apply",
            "--snapshot",
            snap,
            "--wal",
            wal,
            "--mutations",
            m.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains(":1:") && err.contains("expected"), "{err}");
        std::fs::write(&m, "insert u a ghost\n").unwrap();
        let err = run(&a(&[
            "db-apply",
            "--snapshot",
            snap,
            "--wal",
            wal,
            "--mutations",
            m.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("unknown node `ghost`"), "{err}");
    }

    /// Satellite: a truncated v2 snapshot errors with the byte offset —
    /// nonzero exit, no panic.
    #[test]
    fn db_truncated_snapshot_names_byte_offset() {
        use crpq::graph::format::{parse_graph_text, to_binary};
        let dir = scratch("db_trunc");
        let bytes = to_binary(&parse_graph_text("u a v\nv b w\n").unwrap()).to_vec();
        let snap = dir.join("g.snap");
        std::fs::write(&snap, &bytes[..bytes.len() - 6]).unwrap();
        let wal = dir.join("g.wal");
        let err = run(&a(&[
            "db-info",
            "--snapshot",
            snap.to_str().unwrap(),
            "--wal",
            wal.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("byte offset"), "{err}");
        assert!(err.contains("g.snap"), "{err}");
    }

    /// Satellite: a bad-CRC snapshot errors with the trailer's byte offset.
    #[test]
    fn db_bad_crc_snapshot_names_byte_offset() {
        use crpq::graph::format::{parse_graph_text, to_binary};
        let dir = scratch("db_crc");
        // Flip bit 0 of the last edge's dst id (`u` = node 0 → node 1):
        // still a valid node id, so the structural decode succeeds and the
        // checksum is what catches the corruption.
        let mut bytes = to_binary(&parse_graph_text("u a v\nw b u\n").unwrap()).to_vec();
        let idx = bytes.len() - 8;
        bytes[idx] ^= 0x01;
        let snap = dir.join("g.snap");
        std::fs::write(&snap, &bytes).unwrap();
        let err = run(&a(&[
            "db-info",
            "--snapshot",
            snap.to_str().unwrap(),
            "--wal",
            dir.join("g.wal").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(
            err.contains(&format!("byte offset {}", bytes.len() - 4)),
            "{err}"
        );
    }

    /// Satellite: WAL damage — a bad-CRC record *behind* durable records
    /// is a hard error naming the byte offset; a torn tail is dropped with
    /// a warning naming the byte offset and a nonzero exit.
    #[test]
    fn db_bad_crc_and_torn_wal_name_byte_offsets() {
        let dir = scratch("db_wal");
        let g = dir.join("g.txt");
        std::fs::write(&g, "u a v\nv b w\n").unwrap();
        let m = dir.join("m.txt");
        std::fs::write(&m, "insert u a w\ninsert v a u\ninsert w b u\n").unwrap();
        let (snap, wal) = (dir.join("g.snap"), dir.join("g.wal"));
        let (snap, wal) = (snap.to_str().unwrap(), wal.to_str().unwrap());
        run_ok(&a(&[
            "db-init",
            "--graph",
            g.to_str().unwrap(),
            "--snapshot",
            snap,
            "--wal",
            wal,
        ]))
        .unwrap();
        run_ok(&a(&[
            "db-apply",
            "--snapshot",
            snap,
            "--wal",
            wal,
            "--mutations",
            m.to_str().unwrap(),
        ]))
        .unwrap();
        let pristine = std::fs::read(wal).unwrap();

        // Flip a byte in the FIRST mutation record (header is 21 bytes):
        // two intact records follow, so this is mid-log corruption — hard
        // error at the damaged frame's offset, never a silent truncation.
        let mut bad = pristine.clone();
        bad[26] ^= 0x10;
        std::fs::write(wal, &bad).unwrap();
        let err = run(&a(&["db-info", "--snapshot", snap, "--wal", wal])).unwrap_err();
        assert!(err.contains("byte offset 21"), "{err}");

        // Tear the final record mid-payload: recovery drops it, reports the
        // offset, and exits 1.
        std::fs::write(wal, &pristine[..pristine.len() - 7]).unwrap();
        let (out, code) = run(&a(&["db-info", "--snapshot", snap, "--wal", wal])).unwrap();
        assert_eq!(code, 1, "torn tail must exit nonzero: {out}");
        // The dropped frame starts one 21-byte edge record before EOF.
        assert!(
            out.contains(&format!("byte offset {}", pristine.len() - 21)),
            "{out}"
        );
        assert!(out.contains("wal records replayed: 2"), "{out}");
        // The store stays usable after the lossy recovery (tail truncated).
        let (out, code) = run(&a(&["db-info", "--snapshot", snap, "--wal", wal])).unwrap();
        assert_eq!(code, 0, "recovery must have repaired the wal: {out}");
        assert!(out.contains("wal records replayed: 2"), "{out}");
    }

    #[test]
    fn eval_witness_flag() {
        let dir = std::env::temp_dir().join("crpq_cli_test_w");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "u a v\nv b w\n").unwrap();
        let p = path.to_str().unwrap();
        let out = run_ok(&a(&[
            "eval",
            "--graph",
            p,
            "--query",
            "(x, y) <- x -[a b]-> y",
            "--tuple",
            "u,w",
            "--semantics",
            "a-inj",
            "--witness",
        ]))
        .unwrap();
        assert!(out.contains("u → v → w"), "{out}");
    }
}
