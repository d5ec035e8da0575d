//! Parallelism must be invisible in the output: compressing with N worker
//! threads yields the byte-identical CapsuleBox a serial run produces.
//!
//! This holds by construction (capsule ids are assigned at submission and
//! committed in submission order); the test pins the construction down
//! across the full workloads catalog. Reads have no thread count to vary:
//! they are serial per block.

use loggrep::{LogGrep, LogGrepConfig};

/// Per-log raw size for the catalog sweep: big enough to exercise the
/// parallel paths (several groups, thousands of rows), small enough that a
/// 37-log sweep stays fast.
const LOG_BYTES: usize = 48 * 1024;

fn engine(threads: usize) -> LogGrep {
    LogGrep::new(LogGrepConfig {
        threads,
        ..LogGrepConfig::default()
    })
}

#[test]
fn parallel_compression_is_byte_identical_to_serial() {
    for spec in workloads::all_logs() {
        let raw = spec.generate(11, LOG_BYTES);
        let serial = engine(1).compress(&raw).unwrap().to_bytes();
        for threads in [2, 4] {
            let parallel = engine(threads).compress(&raw).unwrap().to_bytes();
            assert_eq!(
                serial, parallel,
                "{}: {threads}-thread archive differs from serial",
                spec.name
            );
        }
    }
}
