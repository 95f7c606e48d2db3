//! Dev workflow tasks (`cargo xtask <command>`), in the cargo-xtask
//! tradition: plain Rust, no dependencies, invoked through the alias in
//! `.cargo/config.toml`.
//!
//! * `cargo xtask lint` — source-level invariant scan (see [`lint`]):
//!   the `crpq_util::sync` façade is the only door to the concurrency
//!   primitives, the `crpq_util::storage` façade the only door to the
//!   filesystem, and library code has no undocumented panic sites.
//! * `cargo xtask model-check` — build and run the bounded-exploration
//!   concurrency suite (`crates/check` unit tests plus every `model_*`
//!   protocol test) under `--cfg crpq_model_check`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("model-check") => model_check(),
        _ => {
            eprintln!("usage: cargo xtask <lint | model-check>");
            ExitCode::FAILURE
        }
    }
}

/// Workspace root: xtask lives at `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

// -------------------------------------------------------------------------
// `cargo xtask lint`
// -------------------------------------------------------------------------

/// Paths (relative to the workspace root, `/`-separated) exempt from the
/// façade-only rule: the façade itself and the checker it routes to — the
/// only modules allowed to name the raw std primitives.
const FACADE_EXEMPT: &[&str] = &["crates/check/", "crates/util/src/sync.rs", "crates/xtask/"];

/// Substrings whose presence on a (non-exempt, non-comment) line flags a
/// direct use of a std concurrency primitive that has a façade double.
/// `std::sync::Arc` and friends stay legal — only the primitives the
/// model checker must interpose on are gated.
const FACADE_NAMES: &[&str] = &["Mutex", "Condvar", "mpsc", "AtomicBool", "AtomicUsize"];

/// Top-level directories the lint does not scan: `perfbench/` is a package
/// of its own (its own `[workspace]`) that drives the engine from outside
/// — it reads `/proc`, writes its result files and sizes its own threads —
/// so the engine's façade and panic rules do not govern it.
const OUTSIDE_WORKSPACE: &[&str] = &["perfbench"];

struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    text: String,
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files);
    files.sort();

    let mut violations = Vec::new();
    for rel in &files {
        let path = root.join(rel);
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        scan_file(rel, &src, &mut violations);
    }

    if violations.is_empty() {
        println!("xtask lint: OK ({} files scanned)", files.len());
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.text);
    }
    eprintln!(
        "\nxtask lint: {} violation(s).\n\
         - facade-only: import concurrency primitives through `crpq_util::sync`,\n\
           never `std::sync`/`std::thread` directly (the model checker must be\n\
           able to interpose on every acquire/release/park point).\n\
         - storage-facade: library code must not touch `std::fs` directly;\n\
           route file IO through `crpq_util::storage::Storage` so the\n\
           crash-fault harness can interpose on every write/sync/rename.\n\
         - documented-panic: library code must not panic without a stated\n\
           reason; restructure, or add a `// invariant: ...` (why it cannot\n\
           fail) or `// poison: ...` (poisoning policy) comment on or above\n\
           the line.",
        violations.len()
    );
    ExitCode::FAILURE
}

/// Recursively collect `.rs` files as `/`-separated root-relative paths,
/// skipping VCS and build output and the [`OUTSIDE_WORKSPACE`] packages.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            let outside = dir == root && OUTSIDE_WORKSPACE.contains(&name.as_ref());
            if name == "target" || name.starts_with('.') || outside {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
}

/// Whether the documented-panic rule applies to this file at all: library
/// sources only — not tests, benches, examples, binaries, the checker, or
/// this tool.
fn panic_rule_applies(rel: &str) -> bool {
    let exempt_dir = ["tests/", "benches/", "examples/", "src/bin/"]
        .iter()
        .any(|d| rel.contains(d) || rel.starts_with(d));
    let exempt_crate = rel.starts_with("crates/check/") || rel.starts_with("crates/xtask/");
    !(exempt_dir || exempt_crate)
}

/// Whether the storage-façade rule applies: library sources only (same
/// scoping as the panic rule), minus the façade itself and the bench
/// harness (whose result-file IO is deliberately outside the crash-fault
/// seam). Everything durable in library code must flow through
/// `crpq_util::storage` so `FaultyStorage` can interpose on every write,
/// sync, and rename.
fn storage_rule_applies(rel: &str) -> bool {
    panic_rule_applies(rel)
        && rel != "crates/util/src/storage.rs"
        && !rel.starts_with("crates/bench/")
}

fn scan_file(rel: &str, src: &str, out: &mut Vec<Violation>) {
    let facade_rule = !FACADE_EXEMPT.iter().any(|p| rel.starts_with(p));
    let panic_rule = panic_rule_applies(rel);
    let storage_rule = storage_rule_applies(rel);
    if !facade_rule && !panic_rule && !storage_rule {
        return;
    }

    // Brace-depth state machine to skip `#[cfg(test)] mod ... { ... }`
    // (and `#[cfg(all(test, ...))]`) blocks: unit tests may panic freely.
    let mut depth: i32 = 0;
    let mut skip_until: Option<i32> = None;
    let mut pending_cfg_test = false;
    let mut prev_comment_justifies = false;

    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();

        if skip_until.is_none() {
            if trimmed.starts_with("#[cfg(") && trimmed.contains("test") {
                pending_cfg_test = true;
            } else if pending_cfg_test
                && (trimmed.starts_with("mod ") || trimmed.starts_with("pub mod "))
            {
                skip_until = Some(depth);
                pending_cfg_test = false;
            } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                pending_cfg_test = false;
            }
        }
        depth += raw.matches('{').count() as i32 - raw.matches('}').count() as i32;
        if let Some(d) = skip_until {
            if depth <= d {
                skip_until = None;
            }
            prev_comment_justifies = false;
            continue;
        }

        // Split off any trailing comment; comment-only lines (incl. doc
        // comments, whose examples are compiled as test code) are skipped.
        let (code, comment) = match raw.find("//") {
            Some(i) => (&raw[..i], &raw[i..]),
            None => (raw, ""),
        };
        let justified = comment.contains("invariant:") || comment.contains("poison:");
        if code.trim().is_empty() {
            prev_comment_justifies = justified;
            continue;
        }

        if facade_rule {
            let std_sync =
                code.contains("std::sync") && FACADE_NAMES.iter().any(|n| code.contains(n));
            if std_sync || code.contains("std::thread") {
                out.push(Violation {
                    file: rel.to_string(),
                    line,
                    rule: "facade-only",
                    text: trimmed.to_string(),
                });
            }
        }

        if storage_rule && code.contains("std::fs") {
            out.push(Violation {
                file: rel.to_string(),
                line,
                rule: "storage-facade",
                text: trimmed.to_string(),
            });
        }

        if panic_rule
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !justified
            && !prev_comment_justifies
        {
            out.push(Violation {
                file: rel.to_string(),
                line,
                rule: "documented-panic",
                text: trimmed.to_string(),
            });
        }
        prev_comment_justifies = false;
    }
}

// -------------------------------------------------------------------------
// `cargo xtask model-check`
// -------------------------------------------------------------------------

/// Runs the full bounded-exploration suite: the checker's own unit tests
/// (deadlock/lost-wakeup detectors, mutant detection) and every `model_*`
/// protocol test, all compiled with `--cfg crpq_model_check` so the
/// `crpq_util::sync` façade routes to the shadow primitives.
fn model_check() -> ExitCode {
    let root = workspace_root();
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.contains("crpq_model_check") {
        if !rustflags.is_empty() {
            rustflags.push(' ');
        }
        rustflags.push_str("--cfg crpq_model_check");
    }

    let suites: &[&[&str]] = &[
        &["test", "-p", "crpq-check", "--lib", "-q"],
        &["test", "-p", "crpq-util", "--lib", "-q", "sync"],
        &["test", "-p", "crpq-core", "--lib", "-q", "model_"],
    ];
    for args in suites {
        println!("$ RUSTFLAGS=\"{rustflags}\" cargo {}", args.join(" "));
        let status = Command::new("cargo")
            .args(*args)
            .current_dir(&root)
            .env("RUSTFLAGS", &rustflags)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("model-check suite failed: {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("failed to spawn cargo: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("xtask model-check: OK");
    ExitCode::SUCCESS
}
