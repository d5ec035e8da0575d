//! Project-specific static analysis for untrusted decode paths and
//! concurrency discipline.
//!
//! LogGrep queries archives without fully decompressing them, so the
//! CapsuleBox parser, wire reader, and codec decompressors routinely
//! consume bytes this process did not produce; the worker pool and the
//! replicated cluster add lock ordering and blocking-call discipline on
//! top. This crate walks the workspace with a hand-rolled Rust lexer, a
//! lightweight item parser ([`parser`]), and four rule passes:
//!
//! * [`rules`] — token-window rules: panics in decode paths, crate-root
//!   hygiene;
//! * [`dataflow`] — flow-sensitive taint tracking from wire sources to
//!   allocation/arithmetic/cast sinks;
//! * [`lockorder`] — a global lock-order graph (cycle ⇒ potential
//!   deadlock), blocking calls under locks, blocking calls in pool
//!   workers;
//! * [`hygiene`] — swallowed `Result`s, telemetry span balance, stale
//!   `lint:allow` hatches.
//!
//! Every run is cold (~100 ms over the workspace): the per-file passes
//! run first, then the global ones (cycle detection, suppression,
//! stale-allow). Output formats: human text and `--json`.
//!
//! Run it as `cargo run -p lint` (see `--help` for flags);
//! `scripts/ci.sh` enforces a zero-diagnostics gate before tests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod dataflow;
pub mod hygiene;
pub mod lexer;
pub mod lockorder;
pub mod parser;
pub mod rules;

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lexer::Allow;
use lockorder::{FileLockInfo, FnLockSummary};
use rules::Diagnostic;

/// Everything the analyzer learned about one file. `raw` is
/// *pre-suppression*: the stale-allow pass needs to know what an allow
/// would have suppressed, so suppression is applied later, centrally,
/// in [`finalize`].
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// Raw per-file diagnostics, before suppression.
    pub raw: Vec<Diagnostic>,
    /// `lint:allow` comments found in the file.
    pub allows: Vec<Allow>,
    /// Per-function lock summaries for the global lock-order pass.
    pub locks: Vec<FnLockSummary>,
}

/// Counters for one analyzer run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Total `.rs` files considered.
    pub files: usize,
    /// Wall time of the run in milliseconds.
    pub wall_ms: u64,
}

/// Runs the full analyzer over the workspace at `root` (which must
/// contain `Cargo.toml`): walk, per-file passes, global passes,
/// suppression. Diagnostics come back sorted by file and line.
pub fn run(root: &Path) -> std::io::Result<(Vec<Diagnostic>, RunStats)> {
    let started = Instant::now();
    let mut analyses = Vec::new();
    for file in workspace_files(root)? {
        let Ok(src) = fs::read_to_string(&file) else {
            continue;
        };
        analyses.push(analyze_file(&relative(root, &file), &src));
    }
    let diags = finalize(&analyses);
    let stats = RunStats {
        files: analyses.len(),
        wall_ms: started.elapsed().as_millis() as u64,
    };
    Ok((diags, stats))
}

/// Runs every per-file pass over one source file.
pub fn analyze_file(rel: &str, src: &str) -> FileAnalysis {
    let lexed = lexer::lex(src);
    let toks = &lexed.tokens;
    let mut raw = Vec::new();
    if let Some(scope) = config::scope_for(rel) {
        raw.extend(rules::check_panic(rel, toks, scope));
        raw.extend(dataflow::check(rel, toks, scope));
    }
    let lockinfo = lockorder::analyze(rel, toks);
    raw.extend(lockinfo.diags);
    raw.extend(hygiene::check(rel, toks));
    if let Some(is_lib) = crate_root_kind(rel) {
        raw.extend(rules::check_crate_root(rel, src, is_lib));
    }
    FileAnalysis {
        file: rel.to_string(),
        raw,
        allows: lexed.allows,
        locks: lockinfo.fns,
    }
}

/// The global phase: lock-order cycles across files, then suppression,
/// allow-reason, and stale-allow bookkeeping.
pub fn finalize(analyses: &[FileAnalysis]) -> Vec<Diagnostic> {
    let infos: Vec<FileLockInfo> = analyses
        .iter()
        .map(|a| FileLockInfo {
            file: a.file.clone(),
            fns: a.locks.clone(),
            diags: Vec::new(),
        })
        .collect();
    let info_refs: Vec<&FileLockInfo> = infos.iter().collect();
    let mut global_by_file: HashMap<String, Vec<Diagnostic>> = HashMap::new();
    for d in lockorder::global(&info_refs) {
        global_by_file.entry(d.file.clone()).or_default().push(d);
    }

    let mut out = Vec::new();
    for a in analyses {
        let mut file_raw = a.raw.clone();
        if let Some(globals) = global_by_file.remove(&a.file) {
            file_raw.extend(globals);
        }
        let mut allowed: HashSet<(u32, &str)> = HashSet::new();
        for allow in &a.allows {
            if !allow.has_reason {
                out.push(Diagnostic {
                    file: a.file.clone(),
                    line: allow.line,
                    rule: rules::RULE_ALLOW_REASON,
                    message: "lint:allow must state a reason after the rule list".to_string(),
                });
            }
            for r in &allow.rules {
                allowed.insert((allow.line, r.as_str()));
                allowed.insert((allow.line + 1, r.as_str()));
            }
        }
        for d in &file_raw {
            if !allowed.contains(&(d.line, d.rule)) {
                out.push(d.clone());
            }
        }
        out.extend(hygiene::stale_allows(&a.file, &a.allows, &file_raw));
    }
    // Cycle diagnostics pointing at files outside the walk (shouldn't
    // happen, but never drop a deadlock report silently).
    for (_, globals) in global_by_file {
        out.extend(globals);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Renders diagnostics as a JSON array (no external deps, so by hand).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape(&d.file),
            d.line,
            escape(d.rule),
            escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Every workspace `.rs` file under `root`, sorted.
fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            collect_rs(&dir.join("src"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();
    Ok(files)
}

/// Recursively collects `.rs` files under `dir` (sorted by the caller).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// If `rel` is a crate root, returns `Some(is_lib)`.
fn crate_root_kind(rel: &str) -> Option<bool> {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["src", "lib.rs"] | ["crates", _, "src", "lib.rs"] => Some(true),
        ["src", "main.rs"] | ["crates", _, "src", "main.rs"] => Some(false),
        ["crates", _, "src", "bin", f] if f.ends_with(".rs") => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::{RULE_ALLOW_REASON, RULE_LOCK_CYCLE, RULE_PANIC, RULE_PREALLOC, RULE_STALE_ALLOW};

    fn one_file(src: &str) -> Vec<Diagnostic> {
        let a = analyze_file("crates/loggrep/src/wire.rs", src);
        finalize(&[a])
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(no-panic-in-decode) — caller guarantees Some\n    x.unwrap()\n}";
        assert!(one_file(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_diagnostic() {
        let src = "fn f(x: Option<u8>) {\n    // lint:allow(no-panic-in-decode)\n    x.unwrap();\n}";
        let d = one_file(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_ALLOW_REASON);
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let src = "fn f(x: Option<u8>) {\n    // lint:allow(no-as-truncation) — wrong rule\n    x.unwrap();\n}";
        let d = one_file(src);
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RULE_PANIC), "{d:?}");
        assert!(rules.contains(&RULE_STALE_ALLOW), "{d:?}");
    }

    #[test]
    fn stale_allow_fires_after_fix() {
        // The unwrap was fixed but the hatch stayed behind.
        let src = "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(no-panic-in-decode) — caller guarantees Some\n    x.unwrap_or(0)\n}";
        let d = one_file(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_STALE_ALLOW);
    }

    /// Self-test: seed a taint-laundering bug (wire length laundered
    /// through two locals into an allocation) and prove the dataflow
    /// pass catches it end to end through the public entry point.
    #[test]
    fn seeded_taint_laundering_is_caught() {
        let src = "fn decode(r: &mut Reader) -> Result<Vec<u8>> {\n\
                   \x20   let n = r.get_usize()?;\n\
                   \x20   let hops = n;\n\
                   \x20   let total = hops;\n\
                   \x20   let out = Vec::with_capacity(total);\n\
                   \x20   Ok(out)\n}";
        let d = one_file(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_PREALLOC);
        assert_eq!(d[0].line, 5);
    }

    /// Self-test: seed a cross-file lock-order cycle and prove the
    /// global pass reports the deadlock.
    #[test]
    fn seeded_lock_order_cycle_is_caught() {
        let a = analyze_file(
            "crates/pool/src/a.rs",
            "impl Queue { fn push(&self) { let g = self.items.lock(); let h = self.stats.lock(); } }",
        );
        let b = analyze_file(
            "crates/pool/src/b.rs",
            "impl Queue { fn report(&self) { let h = self.stats.lock(); let g = self.items.lock(); } }",
        );
        let d = finalize(&[a, b]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_LOCK_CYCLE);
        assert!(d[0].message.contains("Queue.items"), "{}", d[0].message);
        assert!(d[0].message.contains("Queue.stats"), "{}", d[0].message);
    }
}
