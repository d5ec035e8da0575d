//! Deterministic corrupt-archive mutation suite.
//!
//! Four mutation families over one serialized CapsuleBox:
//!
//! 1. **truncation** at every cut point — `from_bytes` must return an error;
//! 2. **whole-file bit flips** — any single flipped bit must be caught by
//!    the CRC-32 trailer;
//! 3. **body corruption with a recomputed CRC** (bit flips and zero-fill),
//!    which sails past the checksum and exercises the structural
//!    validation behind it — opening, decompressing every capsule and
//!    querying must never panic, and a mutant that still opens must
//!    report the original line count (`total_lines` is load-bearing for
//!    the line index, so lying about it is not an acceptable outcome);
//! 4. **targeted lies** in exactly the fields the compiled renderer reads
//!    per row — outlier rows, dictionary region widths, index digits,
//!    Capsule payloads shorter than their group, Capsule row counts — each
//!    re-serialized with a valid CRC: reading every line back must end in
//!    `Error::Corrupt`, never a panic, an out-of-bounds slice or a
//!    quietly wrong line.
//!
//! All randomness is a seeded xorshift, so failures reproduce exactly.

use loggrep::capsule::Layout;
use loggrep::vector::VectorMeta;
use loggrep::wire::crc32;
use loggrep::{Archive, CapsuleBox, Error, LogGrep, LogGrepConfig};

/// A log mixing real-pattern (block ids, IPs), nominal-pattern (enum-like
/// status tokens) and plain content, so the box contains every vector kind.
fn sample_log(lines: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..lines {
        let line = match i % 4 {
            0 => format!(
                "2021-01-{:02} INFO blk_17{:05} replicated to 11.187.{}.{}",
                i % 28 + 1,
                i,
                i % 250,
                (i * 7) % 250
            ),
            1 => format!(
                "T{} state: {}#16{:02}",
                100 + i,
                if i % 7 == 0 { "ERR" } else { "SUC" },
                i % 100
            ),
            2 => format!(
                "ERROR quota exceeded user:{} limit={}",
                ["alice", "bob", "carol"][i % 3],
                (i % 4) * 100
            ),
            _ => format!("write to file:/tmp/1FF8{:04X}.log code={}", i * 31 % 65536, i % 3),
        };
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

fn archive_bytes() -> (Vec<u8>, u32) {
    let raw = sample_log(240);
    let engine = LogGrep::new(LogGrepConfig::default());
    let boxed = engine.compress(&raw).unwrap();
    let lines = boxed.total_lines;
    (boxed.to_bytes(), lines)
}

/// Deterministic xorshift64* PRNG.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const QUERIES: &[&str] = &["read", "ERROR", "user:alice and limit=300", "blk_17", "SUC#16"];

/// Opens a mutant and, if it opens at all, drives every decode path that a
/// reader would hit. Returns whether it opened. Panics (failing the test)
/// only if a structurally-accepted mutant lies about its line count.
fn exercise(bytes: &[u8], original_lines: u32) -> bool {
    let Ok(archive) = Archive::from_bytes(bytes) else {
        return false;
    };
    assert_eq!(
        archive.total_lines(),
        original_lines,
        "mutant opened with a different line count"
    );
    let boxed = archive.capsule_box();
    for id in 0..boxed.capsules.len() as u32 {
        let _ = boxed.decompress_capsule(id);
    }
    // Whatever survives validation renders through the compiled group
    // renderer: a damaged payload is a typed codec error, a damaged
    // structure is `Corrupt`, and nothing else comes out.
    let typed = |e: &Error| matches!(e, Error::Corrupt(_) | Error::Codec(_));
    for q in QUERIES {
        assert!(archive.query(q).map_or_else(|e| typed(&e), |_| true), "query `{q}`");
    }
    assert!(archive.reconstruct_all().map_or_else(|e| typed(&e), |_| true));
    true
}

#[test]
fn truncation_at_every_cut_is_an_error() {
    let (bytes, _) = archive_bytes();
    for cut in 0..bytes.len() {
        assert!(
            Archive::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} of {} bytes was accepted",
            bytes.len()
        );
    }
}

#[test]
fn single_bit_flips_are_caught_by_the_crc() {
    let (bytes, _) = archive_bytes();
    let mut rng = XorShift(0x1091_7bfe_dead_beef);
    let mut mutant = bytes.clone();
    // A sampled sweep keeps the quadratic CRC cost in check; the guarantee
    // is positional anyway (a single flipped bit always changes the CRC).
    for _ in 0..400 {
        let off = rng.below(bytes.len());
        let bit = 1u8 << rng.below(8);
        mutant[off] ^= bit;
        assert!(
            Archive::from_bytes(&mutant).is_err(),
            "bit flip at byte {off} mask {bit:#x} was accepted"
        );
        mutant[off] ^= bit;
    }
    assert_eq!(mutant, bytes, "mutation sweep must restore the original");
}

/// Replaces the 4-byte CRC trailer so the mutation is only visible to the
/// structural validators.
fn restamp(mutant: &mut [u8]) {
    let body_len = mutant.len() - 4;
    let crc = crc32(&mutant[..body_len]).to_le_bytes();
    mutant[body_len..].copy_from_slice(&crc);
}

#[test]
fn body_bit_flips_with_valid_crc_never_panic_or_lie() {
    let (bytes, lines) = archive_bytes();
    let mut rng = XorShift(0x5eed_0fc0_ffee);
    let mut opened = 0u32;
    for _ in 0..150 {
        let mut mutant = bytes.clone();
        let off = rng.below(bytes.len() - 4);
        mutant[off] ^= 1u8 << rng.below(8);
        restamp(&mut mutant);
        if exercise(&mutant, lines) {
            opened += 1;
        }
    }
    // Most flips land in the blob or a non-load-bearing field, so a decent
    // share of mutants must still open — otherwise `exercise` tested nothing.
    assert!(opened > 0, "no mutant survived validation; suite is vacuous");
}

#[test]
fn body_zero_fill_with_valid_crc_never_panics_or_lies() {
    let (bytes, lines) = archive_bytes();
    let mut rng = XorShift(0xfeed_face_cafe);
    for _ in 0..60 {
        let mut mutant = bytes.clone();
        let start = rng.below(bytes.len() - 4);
        let len = 1 + rng.below(64);
        let end = (start + len).min(bytes.len() - 4);
        mutant[start..end].fill(0);
        restamp(&mut mutant);
        exercise(&mutant, lines);
    }
}

/// Real values with a minority the pattern cannot hold (outliers), a
/// three-value dictionary, and a plain tail.
fn lying_log() -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..400 {
        let value = if i % 37 == 5 {
            format!("?!odd{i}")
        } else {
            format!("blk_{:06x}", i * 7919)
        };
        let user = ["alice", "bob", "carol"][i % 3];
        out.extend_from_slice(format!("store {value} by user:{user} code={}\n", i % 7).as_bytes());
    }
    out
}

/// Points Capsule `id` at `payload`, stored uncompressed at the end of the
/// blob.
fn replace_payload(boxed: &mut CapsuleBox, id: u32, payload: &[u8]) {
    let packed = codec::by_name("store").expect("store codec").compress(payload);
    let meta = &mut boxed.capsules[id as usize];
    meta.offset = boxed.blob.len() as u64;
    meta.clen = packed.len() as u64;
    meta.codec = 0;
    boxed.blob.extend_from_slice(&packed);
}

/// Re-serializes a lying box (valid CRC) and reads everything back. A lie
/// may already be caught at open; one that opens must fail `Corrupt` when
/// every line is rendered, and queries must stay typed.
fn must_be_detected(what: &str, boxed: &CapsuleBox) {
    let archive = match Archive::from_bytes(&boxed.to_bytes()) {
        Ok(archive) => archive,
        Err(e) => {
            assert!(matches!(e, Error::Corrupt(_)), "{what}: open failed with {e}");
            return;
        }
    };
    for q in ["blk_0", "?!odd", "user:bob", "code=3 and carol", "st*re"] {
        if let Err(e) = archive.query(q) {
            assert!(matches!(e, Error::Corrupt(_)), "{what}: query `{q}`: {e}");
        }
    }
    match archive.reconstruct_all() {
        Err(Error::Corrupt(_)) => {}
        other => panic!("{what}: reconstruct_all returned {:?}", other.map(|l| l.len())),
    }
}

#[test]
fn lies_in_the_fields_the_renderer_reads_end_in_corrupt() {
    let raw = lying_log();
    let honest = LogGrep::new(LogGrepConfig::default()).compress(&raw).unwrap();
    let vectors = || honest.groups.iter().enumerate().flat_map(|(g, group)| {
        group.vectors.iter().enumerate().map(move |(v, vector)| (g, v, vector))
    });
    let (rg, rv, sub_cap) = vectors()
        .find_map(|(g, v, vector)| match vector {
            VectorMeta::Real { outlier_rows, sub_caps, .. } if !outlier_rows.is_empty() => {
                Some((g, v, *sub_caps.first()?))
            }
            _ => None,
        })
        .expect("the log has a real vector with outliers");
    let (ng, nv, index_cap) = vectors()
        .find_map(|(g, v, vector)| match vector {
            VectorMeta::Nominal { index_cap, dict_len, .. } if *dict_len > 1 => {
                Some((g, v, *index_cap))
            }
            _ => None,
        })
        .expect("the log has a nominal vector");
    let outliers_of = |boxed: &mut CapsuleBox| match &mut boxed.groups[rg].vectors[rv] {
        VectorMeta::Real { outlier_rows, .. } => std::mem::take(outlier_rows),
        _ => unreachable!("found above"),
    };
    let set_outliers = |boxed: &mut CapsuleBox, rows: Vec<u32>| {
        if let VectorMeta::Real { outlier_rows, .. } = &mut boxed.groups[rg].vectors[rv] {
            *outlier_rows = rows;
        }
    };

    // An outlier row the outlier Capsule holds no value for.
    let mut lying = honest.clone();
    let mut rows = outliers_of(&mut lying);
    let extra = (0..).find(|r| !rows.contains(r)).expect("some row is no outlier");
    rows.push(extra);
    rows.sort_unstable();
    set_outliers(&mut lying, rows);
    must_be_detected("extra outlier row", &lying);

    // An outlier row missing from the table: one pattern row too many for
    // the sub-variable Capsules.
    let mut lying = honest.clone();
    let mut rows = outliers_of(&mut lying);
    rows.pop();
    set_outliers(&mut lying, rows);
    must_be_detected("dropped outlier row", &lying);

    // A dictionary region wider than the whole dictionary payload.
    let mut lying = honest.clone();
    if let VectorMeta::Nominal { patterns, .. } = &mut lying.groups[ng].vectors[nv] {
        patterns[0].max_len = 1 << 20;
    }
    must_be_detected("oversized region width", &lying);

    // Index rows that are not digits, then digits past the dictionary.
    let Layout::Padded { width } = honest.capsules[index_cap as usize].layout else {
        panic!("index capsules are padded");
    };
    let len = honest.decompress_capsule(index_cap).unwrap().len();
    let mut lying = honest.clone();
    replace_payload(&mut lying, index_cap, &vec![b'x'; len]);
    must_be_detected("non-digit index", &lying);
    let mut lying = honest.clone();
    let rows = len / width as usize;
    lying.capsules[index_cap as usize].layout = Layout::Padded { width: width + 1 };
    replace_payload(&mut lying, index_cap, &vec![b'9'; rows * (width as usize + 1)]);
    must_be_detected("index past the dictionary", &lying);

    // A sub-variable Capsule holding half the rows its group has.
    let mut lying = honest.clone();
    let payload = honest.decompress_capsule(sub_cap).unwrap();
    let Layout::Padded { width } = honest.capsules[sub_cap as usize].layout else {
        panic!("sub-variable capsules are padded");
    };
    let half = payload.len() / width as usize / 2 * width as usize;
    replace_payload(&mut lying, sub_cap, &payload[..half]);
    must_be_detected("short sub-variable capsule", &lying);

    // Every Capsule claiming one row more than its payload holds. The
    // renderer addresses rows by payload, so the lines still come back;
    // the searches that size their view by the count must refuse.
    let mut lying = honest.clone();
    for meta in &mut lying.capsules {
        meta.rows += 1;
    }
    let archive = Archive::from_bytes(&lying.to_bytes()).expect("row counts are checked on use");
    let mut refused = 0;
    for q in ["blk_0", "?!odd", "user:bob", "code=3 and carol", "st*re"] {
        match archive.query(q) {
            Ok(_) => {}
            Err(Error::Corrupt(_)) => refused += 1,
            Err(e) => panic!("lying row counts: query `{q}`: {e}"),
        }
    }
    assert!(refused > 0, "no search noticed the lying row counts");
    match archive.reconstruct_all() {
        Ok(lines) => assert_eq!(lines.len(), 400),
        Err(e) => assert!(matches!(e, Error::Corrupt(_)), "lying row counts: {e}"),
    }
}
