//! End-to-end correctness: for every configuration (full, SP, each §6.3
//! ablation), query results must equal a naive line-by-line oracle, and
//! reconstruction must be byte-exact.

use loggrep::query::lang::Query;
use loggrep::{Archive, LogGrep, LogGrepConfig};
use logparse::DEFAULT_DELIMS;

/// A deterministic synthetic log mixing real-pattern, nominal-pattern and
/// unstructured content.
fn sample_log(lines: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..lines {
        let line = match i % 5 {
            0 => format!(
                "2021-01-{:02} 10:{:02}:{:02} INFO blk_17{:05} replicated to 11.187.{}.{}",
                i % 28 + 1,
                (i / 60) % 60,
                i % 60,
                i,
                i % 250,
                (i * 7) % 250
            ),
            1 => format!("T{} bk.{:02X}.{} read", 100 + i, i % 256, i % 16),
            2 => format!(
                "T{} state: {}#16{:02}",
                100 + i,
                if i % 7 == 0 { "ERR" } else { "SUC" },
                i % 100
            ),
            3 => format!(
                "ERROR quota exceeded user:{} limit={}",
                ["alice", "bob", "carol"][i % 3],
                (i % 4) * 100
            ),
            _ => format!(
                "write to file:/root/usr/admin/1FF8{:04X}.log code={}",
                i * 31 % 65536,
                i % 3
            ),
        };
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

fn oracle(raw: &[u8], command: &str) -> Vec<Vec<u8>> {
    let q = Query::parse(command).unwrap();
    loggrep::engine::split_lines(raw)
        .into_iter()
        .filter(|l| q.expr.matches_line(l, DEFAULT_DELIMS))
        .map(|l| l.to_vec())
        .collect()
}

fn queries() -> Vec<&'static str> {
    vec![
        "read",
        "ERROR",
        "ERR#16",
        "state: SUC",
        "blk_17",
        "user:alice",
        "user:alice and limit=300",
        "ERROR not user:bob",
        "read or ERROR",
        "11.187.49",
        "1FF8",
        "file:/root/usr/admin",
        "code=2",
        "replicated to 11.187.*",
        "user:*e",
        "bk.*.5 and read",
        "zzz-no-match-zzz",
        "ERR#16 or blk_1700007 not ERROR",
        "T10",
        "0",
    ]
}

fn configs() -> Vec<(&'static str, LogGrepConfig)> {
    vec![
        ("full", LogGrepConfig::default()),
        ("sp", LogGrepConfig::sp()),
        ("w/o real", LogGrepConfig::without_real()),
        ("w/o nomi", LogGrepConfig::without_nominal()),
        ("w/o stamp", LogGrepConfig::without_stamps()),
        ("w/o fixed", LogGrepConfig::without_fixed()),
        ("w/o cache", LogGrepConfig::without_cache()),
    ]
}

#[test]
fn query_results_match_oracle_across_configs() {
    let raw = sample_log(600);
    for (name, config) in configs() {
        let engine = LogGrep::new(config);
        let archive = engine.compress_to_archive(&raw).unwrap();
        for q in queries() {
            let got = archive.query(q).unwrap();
            let want = oracle(&raw, q);
            assert_eq!(
                got.lines, want,
                "config `{name}` query `{q}`: got {} lines, want {}",
                got.lines.len(),
                want.len()
            );
        }
    }
}

#[test]
fn reconstruction_is_byte_exact() {
    let raw = sample_log(400);
    let lines: Vec<&[u8]> = loggrep::engine::split_lines(&raw);
    for (name, config) in configs() {
        let engine = LogGrep::new(config);
        let archive = engine.compress_to_archive(&raw).unwrap();
        let got = archive.reconstruct_all().unwrap();
        assert_eq!(got.len(), lines.len(), "config `{name}`");
        for (i, (g, w)) in got.iter().zip(&lines).enumerate() {
            assert_eq!(g, w, "config `{name}` line {i}");
        }
    }
}

#[test]
fn serialization_roundtrip_preserves_queries() {
    let raw = sample_log(300);
    let engine = LogGrep::new(LogGrepConfig::default());
    let boxed = engine.compress(&raw).unwrap();
    let bytes = boxed.to_bytes();
    let archive = Archive::from_bytes(&bytes).unwrap();
    for q in ["read", "ERROR not user:bob", "blk_17"] {
        assert_eq!(archive.query(q).unwrap().lines, oracle(&raw, q), "query `{q}`");
    }
}

#[test]
fn query_cache_returns_identical_results() {
    let raw = sample_log(200);
    let engine = LogGrep::new(LogGrepConfig::default());
    let archive = engine.compress_to_archive(&raw).unwrap();
    let first = archive.query("ERROR and user:alice").unwrap();
    assert!(!first.stats.cache_hit);
    let second = archive.query("ERROR and user:alice").unwrap();
    assert!(second.stats.cache_hit);
    assert_eq!(first.lines, second.lines);
}

#[test]
fn compression_ratio_beats_plain_deflate_on_structured_logs() {
    use codec::Codec;
    let raw = sample_log(4000);
    let engine = LogGrep::new(LogGrepConfig::default());
    let (boxed, stats) = engine.compress_with_stats(&raw).unwrap();
    let gzip_len = codec::Deflate::default().compress(&raw).len();
    assert!(
        (boxed.compressed_size() as f64) < gzip_len as f64 * 1.15,
        "loggrep {} should be near/below gzip {}",
        boxed.compressed_size(),
        gzip_len
    );
    assert!(stats.ratio() > 5.0, "ratio {}", stats.ratio());
}

#[test]
fn stamps_reduce_decompression_work() {
    let raw = sample_log(2000);
    let with = LogGrep::new(LogGrepConfig::default())
        .compress_to_archive(&raw)
        .unwrap();
    let without = LogGrep::new(LogGrepConfig::without_stamps())
        .compress_to_archive(&raw)
        .unwrap();
    // A keyword whose type mask clashes with most capsules.
    let q = "ERR#1623";
    let a = with.query(q).unwrap();
    let b = without.query(q).unwrap();
    assert_eq!(a.lines, b.lines);
    assert!(
        a.stats.capsules_decompressed <= b.stats.capsules_decompressed,
        "stamps should not increase work: {} vs {}",
        a.stats.capsules_decompressed,
        b.stats.capsules_decompressed
    );
}

#[test]
fn alternate_packer_codecs_work_end_to_end() {
    // The Packer's second-stage codec is configurable (§3 uses LZMA).
    let raw = sample_log(300);
    for codec_name in ["deflate", "fastlz", "store"] {
        let config = LogGrepConfig {
            codec_name: codec_name.to_string(),
            ..LogGrepConfig::default()
        };
        let engine = LogGrep::new(config);
        let archive = engine.compress_to_archive(&raw).unwrap();
        for q in ["read", "ERROR not user:bob"] {
            assert_eq!(
                archive.query(q).unwrap().lines,
                oracle(&raw, q),
                "codec {codec_name} query `{q}`"
            );
        }
    }
}

#[test]
fn empty_and_degenerate_blocks() {
    let engine = LogGrep::new(LogGrepConfig::default());
    for raw in [&b""[..], b"\n", b"single line", b"\n\n\n"] {
        let archive = engine.compress_to_archive(raw).unwrap();
        let want: Vec<Vec<u8>> = loggrep::engine::split_lines(raw)
            .into_iter()
            .map(|l| l.to_vec())
            .collect();
        assert_eq!(archive.reconstruct_all().unwrap(), want, "raw {raw:?}");
    }
}
