//! Deterministic corrupt-archive mutation suite.
//!
//! Five mutation families over serialized CapsuleBoxes:
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
//!    quietly wrong line;
//! 5. **implied boxes**, whose largest group's line numbers are rebuilt at
//!    open: an implied id past the group count, a wrong implied row count,
//!    two groups claiming one line, and a tiny body claiming `u32::MAX`
//!    lines are each a named `Error::Corrupt` at open; an implied catalog
//!    box survives every cut and seeded flips like any other.
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

/// One template holds 90 % of the lines, two small ones the rest: a box
/// whose largest group is implied, with two explicit groups beside it.
fn implied_log() -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..480 {
        let line = match i % 20 {
            6 => format!("ERROR disk {} failed on node-{}", i % 5, i % 3),
            14 => format!(
                "WARN scheduler queue drained after {} retries of job-{i} at tier {}",
                i % 4,
                i % 2
            ),
            _ => format!("INFO served request {} in {} ms", 1000 + i, i % 97),
        };
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

/// An implied box, its implied group's id, and the two largest explicit
/// groups' ids.
fn implied_box() -> (CapsuleBox, usize, [usize; 2]) {
    let boxed = LogGrep::new(LogGrepConfig::default())
        .compress(&implied_log())
        .unwrap();
    let implied = boxed.implied_group().expect("one template dominates");
    let mut explicit: Vec<usize> = (0..boxed.groups.len()).filter(|&g| g != implied).collect();
    explicit.sort_by_key(|&g| std::cmp::Reverse(boxed.groups[g].rows()));
    assert!(
        explicit.len() >= 2 && boxed.groups[explicit[1]].rows() > 0,
        "want two explicit groups, got {:?}",
        explicit
            .iter()
            .map(|&g| boxed.groups[g].rows())
            .collect::<Vec<_>>()
    );
    (boxed, implied, [explicit[0], explicit[1]])
}

/// Opening must fail `Corrupt` for one of `reasons`.
fn refused(what: &str, bytes: &[u8], reasons: &[&str]) {
    match Archive::from_bytes(bytes) {
        Err(Error::Corrupt(got)) => assert!(reasons.contains(&got.as_str()), "{what}: {got}"),
        Err(e) => panic!("{what}: open failed with {e}"),
        Ok(a) => panic!("{what}: opened with {} lines", a.total_lines()),
    }
}

#[test]
fn hostile_implied_boxes_end_in_typed_errors() {
    let (honest, implied, [a, b]) = implied_box();
    let bytes = honest.to_bytes();
    assert!(Archive::from_bytes(&bytes).is_ok());

    // The implied-group varint follows magic, version, flags, line count,
    // byte count and group count; it is rewritten to name no group.
    let mut r = loggrep::wire::Reader::new(&bytes);
    r.get_raw(6).unwrap();
    r.get_u32().unwrap();
    r.get_u64().unwrap();
    let ngroups = r.get_usize().unwrap();
    let at = r.position();
    assert_eq!(r.get_usize().unwrap(), implied);
    for id in [ngroups + 1, ngroups + 1000, u32::MAX as usize] {
        let mut w = loggrep::wire::Writer::new();
        w.put_raw(&bytes[..at]);
        w.put_usize(id);
        w.put_raw(&bytes[r.position()..bytes.len() - 4]);
        let mut mutant = w.into_bytes();
        mutant.extend_from_slice(&crc32(&mutant).to_le_bytes());
        refused(
            &format!("implied id {id}"),
            &mutant,
            &["implied group out of range"],
        );
    }

    // A stored row count one short or one over `total_lines − Σ explicit`:
    // the group's dictionaries (checked first) or the block's line count
    // disagree with it.
    let rows_lie = [
        "dictionary value counts do not sum to rows",
        "group rows do not sum to total_lines",
    ];
    let mut lying = honest.clone();
    lying.groups[implied].line_numbers.pop();
    refused("implied rows − 1", &lying.to_bytes(), &rows_lie);
    let mut lying = honest.clone();
    lying.groups[implied].line_numbers.push(u32::MAX);
    refused("implied rows + 1", &lying.to_bytes(), &rows_lie);

    // Group `a` gives up its first line and claims one of `b`'s instead:
    // the rows still sum, but two groups claim a line and one line is no
    // one's. Before the implied group this surfaced only at query time.
    let mut lying = honest.clone();
    let stolen = honest.groups[b].line_numbers[0];
    let lines = &mut lying.groups[a].line_numbers;
    lines.remove(0);
    lines.push(stolen);
    lines.sort_unstable();
    lines.dedup();
    assert_eq!(
        lines.len(),
        honest.groups[a].line_numbers.len(),
        "line {stolen} was already a's"
    );
    assert_eq!(lying.implied_group(), Some(implied));
    refused("overlap", &lying.to_bytes(), &["two groups claim one line"]);
}

#[test]
fn a_tiny_body_claiming_every_line_is_refused_before_allocating() {
    // One slotless group of u32::MAX implied rows in a 26-byte body: the
    // lines-per-byte bound refuses it before the 512 MiB bitset or the
    // 16 GiB column is allocated (it is checked first, and named).
    let mut w = loggrep::wire::Writer::new();
    w.put_raw(b"LGRB");
    w.put_u8(4);
    w.put_bool(true);
    w.put_u32(u32::MAX);
    w.put_u64(0);
    w.put_usize(1); // groups
    w.put_usize(0); // the implied group
    w.put_usize(1); // one static piece
    w.put_u8(0);
    w.put_bytes(b"x");
    w.put_u32(u32::MAX); // its row count
    w.put_usize(0); // vectors
    w.put_usize(0); // capsules
    w.put_bytes(b""); // payload region
    let mut bomb = w.into_bytes();
    assert_eq!(bomb.len(), 26);
    bomb.extend_from_slice(&crc32(&bomb).to_le_bytes());
    refused(
        "u32::MAX lines",
        &bomb,
        &["implied lines exceed the body's bound"],
    );
}

#[test]
fn implied_catalog_box_survives_cuts_and_flips() {
    let raw = workloads::by_name("Android")
        .unwrap()
        .generate(13, 48 * 1024);
    let boxed = LogGrep::new(LogGrepConfig::default())
        .compress(&raw)
        .unwrap();
    assert!(boxed.implied_group().is_some(), "Android is implied");
    let (bytes, lines) = (boxed.to_bytes(), boxed.total_lines);
    for cut in 0..bytes.len() {
        assert!(Archive::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
    }
    let mut rng = XorShift(0x1A7E_D00D_CAFE_F00D);
    let mut opened = 0u32;
    for _ in 0..256 {
        let mut mutant = bytes.clone();
        let off = rng.below(bytes.len() - 4);
        mutant[off] ^= 1u8 << rng.below(8);
        restamp(&mut mutant);
        if exercise(&mutant, lines) {
            opened += 1;
        }
    }
    assert!(
        opened > 0,
        "no mutant survived validation; suite is vacuous"
    );
}

#[test]
fn a_million_identical_slotless_lines_stay_explicit() {
    // One static template, no Capsules, no payload: 1 M lines cannot be
    // implied within 16 lines per body byte, so the box keeps its explicit
    // column — version 3's 1 000 047 bytes plus the one header varint.
    let raw = b"service heartbeat ok\n".repeat(1_000_000);
    let boxed = LogGrep::new(LogGrepConfig::default())
        .compress(&raw)
        .unwrap();
    assert_eq!((boxed.groups.len(), boxed.blob.len()), (1, 0));
    assert_eq!(boxed.implied_group(), None);
    let bytes = boxed.to_bytes();
    assert_eq!(bytes.len(), 1_000_048);
    let opened = CapsuleBox::from_bytes(&bytes).unwrap();
    assert_eq!(opened.groups[0].line_numbers, boxed.groups[0].line_numbers);
}
