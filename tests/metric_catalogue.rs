//! README's telemetry catalogue names only metrics the code emits.
//!
//! The `Counters:` / `Gauges:` paragraphs of README.md list metric names in
//! backticks, with `{a,b}` groups and a `<name>` placeholder for the codec
//! name. Every name they expand to must be registered by some non-test
//! source file under `crates/*/src`: a `telemetry::counter` / `gauge` /
//! `histogram` call (function or macro form) whose first argument is that
//! name as a string literal, or a `format!` pattern with `{name}` where the
//! catalogue has `<name>`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The backticked names of README's `Counters:` and `Gauges:` paragraphs.
fn catalogue() -> Vec<String> {
    let readme = std::fs::read_to_string(Path::new(ROOT).join("README.md")).unwrap();
    let start = readme.find("\nCounters: ").expect("README has a `Counters:` catalogue");
    let gauges = start + readme[start..].find("\nGauges: ").expect("and a `Gauges:` one");
    let end = gauges + readme[gauges..].find(".\n").expect("`Gauges:` ends with a period");
    readme[start..end]
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// Expands every `{a,b,…}` group of `name`, left to right.
fn expand(name: &str) -> Vec<String> {
    let Some(open) = name.find('{') else {
        return vec![name.to_string()];
    };
    let close = open + name[open..].find('}').expect("unclosed `{` group");
    name[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{}{alt}{}", &name[..open], &name[close + 1..])))
        .collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The metric names non-test code under `crates/*/src` registers; a
/// `format!` pattern keeps its `{name}` hole.
fn registered() -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(Path::new(ROOT).join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let code: String = text
            .lines()
            .take_while(|l| l.trim() != "#[cfg(test)]")
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect::<Vec<_>>()
            .join("\n");
        for kind in ["counter", "gauge", "histogram"] {
            let call = format!("telemetry::{kind}");
            for (at, _) in code.match_indices(&call) {
                let rest = code[at + call.len()..].trim_start_matches('!');
                let Some(rest) = rest.strip_prefix('(') else { continue };
                let rest = rest.trim_start();
                let rest = rest.strip_prefix("&format!(").unwrap_or(rest);
                let Some(rest) = rest.strip_prefix('"') else { continue };
                if let Some(end) = rest.find('"') {
                    names.insert(rest[..end].to_string());
                }
            }
        }
    }
    names
}

#[test]
fn readme_metric_catalogue_names_emitted_metrics() {
    let registered = registered();
    let documented: Vec<String> = catalogue().iter().flat_map(|n| expand(n)).collect();
    assert!(documented.len() >= 30, "catalogue parsed too few names: {documented:?}");
    let stale: Vec<&String> = documented
        .iter()
        .filter(|n| !registered.contains(&n.replace("<name>", "{name}")))
        .collect();
    assert!(stale.is_empty(), "README documents metrics no code emits: {stale:?}");
}
