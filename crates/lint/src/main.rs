//! CLI driver:
//! `cargo run -p lint [--json] [--bench-out FILE] [--max-ms N] [root]`.
//!
//! Exits 0 when the workspace is clean, 1 when any diagnostic fires,
//! and 2 on usage or I/O errors (including a blown `--max-ms` budget).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut bench_out: Option<PathBuf> = None;
    let mut max_ms: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--bench-out" => {
                let Some(path) = args.next() else {
                    eprintln!("lint: --bench-out needs a file path");
                    return ExitCode::from(2);
                };
                bench_out = Some(PathBuf::from(path));
            }
            "--max-ms" => {
                let Some(n) = args.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("lint: --max-ms needs a number");
                    return ExitCode::from(2);
                };
                max_ms = Some(n);
            }
            "--help" | "-h" => {
                println!("usage: lint [--json] [--bench-out FILE] [--max-ms N] [workspace-root]");
                println!("rules: {}", lint::rules::ALL_RULES.join(", "));
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root = PathBuf::from(other),
            other => {
                eprintln!("lint: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    if !root.join("Cargo.toml").is_file() {
        eprintln!("lint: {} is not a workspace root (no Cargo.toml)", root.display());
        return ExitCode::from(2);
    }
    let (diags, stats) = match lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", lint::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            println!("lint: clean ({} files, {} ms)", stats.files, stats.wall_ms);
        } else {
            println!("lint: {} diagnostic(s)", diags.len());
        }
    }

    if let Some(path) = bench_out {
        let bench = format!(
            "{{\n  \"bench\": \"lint\",\n  \"wall_ms\": {},\n  \"files\": {},\n  \"diagnostics\": {}\n}}\n",
            stats.wall_ms,
            stats.files,
            diags.len()
        );
        if let Err(e) = std::fs::write(&path, bench) {
            eprintln!("lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(budget) = max_ms {
        if stats.wall_ms > budget {
            eprintln!(
                "lint: run took {} ms, over the {} ms budget",
                stats.wall_ms, budget
            );
            return ExitCode::from(2);
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
