//! A near-line debugging session in *refining mode* (§3, §6.3): an engineer
//! starts from a broad query and narrows it step by step. The query cache
//! makes each repeated prefix of the session cheap, and the per-query
//! statistics show how runtime patterns and stamps limit decompression.
//!
//! Run with: `cargo run --release --example debugging_session`

use loggrep::{LogGrep, LogGrepConfig};
use std::time::Instant;

fn main() {
    // "Log A" stands in for a production request log; pretend a customer
    // reported failing closed-state requests this morning.
    let spec = workloads::by_name("Log A").expect("catalog has Log A");
    let raw = spec.generate(2024, 8 << 20);
    println!(
        "ingesting {:.1} MiB of request logs ...",
        raw.len() as f64 / (1 << 20) as f64
    );

    let engine = LogGrep::new(LogGrepConfig::default());
    let t = Instant::now();
    let archive = engine.compress_to_archive(&raw).expect("clean text input");
    println!(
        "compressed in {:?} ({:.1}x ratio)\n",
        t.elapsed(),
        raw.len() as f64 / archive.capsule_box().compressed_size() as f64
    );

    // The refining session: each command builds on the previous one. The
    // open archive keeps what a command decompressed resident, so the next
    // command decompresses only the Capsules no earlier one touched.
    let session = [
        "ERROR",
        "ERROR and state:REQ_ST_CLOSED",
        "ERROR and state:REQ_ST_CLOSED and 20012",
        "ERROR and state:REQ_ST_CLOSED and 20012 and reqId:5E9D21AD0",
    ];
    for command in session {
        let t = Instant::now();
        let result = archive.query(command).expect("valid query");
        println!("engineer> {command}");
        println!(
            "  {} hit(s) in {:?}  [decompressed {} capsule(s) / {} KiB, {} resident, cache {}]",
            result.lines.len(),
            t.elapsed(),
            result.stats.capsules_decompressed,
            result.stats.bytes_decompressed / 1024,
            result.stats.capsules_resident,
            if result.stats.cache_hit { "hit" } else { "miss" }
        );
        if let Some(line) = result.lines_utf8().first() {
            println!("  e.g. {line}");
        }
        println!();
    }

    // Re-running the final command is a pure cache hit.
    let final_cmd = session[session.len() - 1];
    let t = Instant::now();
    let again = archive.query(final_cmd).expect("valid query");
    println!(
        "re-run of the final command: {:?} (cache {})",
        t.elapsed(),
        if again.stats.cache_hit { "hit" } else { "miss" }
    );
}
