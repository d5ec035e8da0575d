//! The on-disk format is pinned.
//!
//! 1. **Byte identity.** A read-side change must not move a stored byte:
//!    every catalog log, compressed with the default configuration, must
//!    serialize to the size and CRC-32 trailer recorded here (captured at
//!    format version 4). The trailer is the checksum of every byte before
//!    it, so it pins the encoders, the container layout and `wire::crc32`
//!    at once. The third column, the CRC-32 of the payload region alone,
//!    has not moved since version 3: the version-4 bump changed metadata
//!    bytes only.
//! 2. **Current format version only.** `CapsuleBox::from_bytes` reads
//!    version 4 and nothing else; a body stamped with an older version is
//!    rejected by name, not misparsed.
//! 3. **Codec ids 0–3 only.** Id 4 named a codec that has been deleted; a
//!    capsule table that names it is a typed error at open, like any other
//!    unknown id.
//! 4. **Implied columns are exact.** A group whose line numbers are not
//!    stored comes back from open with exactly the lines it had.

use loggrep::wire::crc32;
use loggrep::{CapsuleBox, Error, LogGrep, LogGrepConfig};

const SEED: u64 = 13;
const BYTES: usize = 48 * 1024;

/// `(log, serialized size, CRC-32 trailer, CRC-32 of the payload region)`
/// of `generate(SEED, BYTES)`.
const PINS: &[(&str, usize, u32, u32)] = &[
    ("Log A", 8452, 0x2E126DA8, 0x5F68919E),
    ("Log B", 8100, 0x41433AA1, 0x358CA1FC),
    ("Log C", 3399, 0xCF93BCE8, 0x5843BE3A),
    ("Log D", 6435, 0x4E680947, 0xDC977BF0),
    ("Log E", 5141, 0x75A88947, 0x18315AED),
    ("Log F", 5902, 0xE49F2389, 0x72F84329),
    ("Log G", 14662, 0x461FAE31, 0x78921B94),
    ("Log H", 5917, 0x4EEFBAA9, 0x635D88DD),
    ("Log I", 8507, 0x3380D200, 0xCEADE411),
    ("Log J", 3401, 0xFA645FF1, 0x50F607C2),
    ("Log K", 8420, 0x109A3A8F, 0x0BEFBCC7),
    ("Log L", 2471, 0xFC0E36EC, 0x7CEA87C6),
    ("Log M", 5014, 0x8B02D2C7, 0x4A92299B),
    ("Log N", 4019, 0x827EDB02, 0x57732636),
    ("Log O", 5320, 0xFC42719E, 0xCA13A6B9),
    ("Log P", 12378, 0xA3B493F1, 0x60A91A4E),
    ("Log Q", 4505, 0xFE2D9CB1, 0x0D71AE2F),
    ("Log R", 4762, 0xF89C9156, 0xF0AC1BFD),
    ("Log S", 3045, 0x539F2486, 0x482EFFD8),
    ("Log T", 7927, 0xA31EA34D, 0x772A406F),
    ("Log U", 3744, 0xA857E81A, 0x62A400FF),
    ("Android", 4628, 0x3B81698F, 0x4697E7D2),
    ("Apache", 2234, 0xAFD6D84C, 0x06C2FCE8),
    ("Bgl", 3566, 0x9FA6925E, 0xF2676E9D),
    ("Hadoop", 4642, 0x59CC540E, 0xAED7EC91),
    ("Hdfs", 5921, 0x99AB790F, 0xDCA5CF6D),
    ("Healthapp", 3160, 0xE7B7154D, 0x5C217DC8),
    ("Hpc", 4155, 0xC86123A6, 0x16FD7154),
    ("Linux", 4456, 0x1B404449, 0x004A1165),
    ("Mac", 3564, 0x0842E5E3, 0x73D4707C),
    ("Openstack", 4184, 0x36E19861, 0xC9275072),
    ("Proxifier", 2090, 0x86D7579D, 0x85E433EC),
    ("Spark", 3965, 0x5E7C8BFF, 0x25AE4C3C),
    ("Ssh", 6025, 0x1E2F145A, 0xA1440B94),
    ("Thunderbird", 3484, 0x0618322B, 0xA896C709),
    ("Windows", 3399, 0xECB2EAB5, 0x61D44B22),
    ("Zookeeper", 3104, 0xA7B84ABA, 0x5995EA36),
];

fn archive(log: &str) -> CapsuleBox {
    let raw = workloads::by_name(log)
        .expect("catalog log")
        .generate(SEED, BYTES);
    LogGrep::new(LogGrepConfig::default())
        .compress(&raw)
        .expect("catalog logs compress")
}

fn archive_bytes(log: &str) -> Vec<u8> {
    archive(log).to_bytes()
}

#[test]
fn catalog_archives_keep_their_pinned_bytes() {
    assert_eq!(
        PINS.len(),
        workloads::all_logs().len(),
        "a catalog log has no pin"
    );
    for &(log, size, trailer, payload) in PINS {
        let boxed = archive(log);
        let bytes = boxed.to_bytes();
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().expect("four trailer bytes"));
        assert_eq!(crc32(&boxed.blob), payload, "{log}: payload bytes moved");
        assert_eq!(
            (bytes.len(), stored),
            (size, trailer),
            "{log}: archive bytes moved (got size {} trailer {stored:#010X})",
            bytes.len()
        );
        assert_eq!(
            crc32(body),
            trailer,
            "{log}: crc32 disagrees with the stored trailer"
        );
    }
}

#[test]
fn other_format_versions_are_rejected() {
    let bytes = archive_bytes("Log A");
    assert!(CapsuleBox::from_bytes(&bytes).is_ok());
    // Byte 4 follows the 4-byte magic: the format version.
    assert_eq!(bytes[4], 4);
    for version in [2u8, 3, 5] {
        let mut stamped = bytes.clone();
        stamped[4] = version;
        let body_len = stamped.len() - 4;
        let crc = crc32(&stamped[..body_len]).to_le_bytes();
        stamped[body_len..].copy_from_slice(&crc);
        let err =
            CapsuleBox::from_bytes(&stamped).expect_err("a body of another version must not open");
        assert!(
            err.to_string()
                .contains(&format!("unsupported version {version}")),
            "version {version} rejected for the wrong reason: {err}"
        );
    }
}

#[test]
fn retired_codec_id_is_rejected() {
    let mut boxed = CapsuleBox::from_bytes(&archive_bytes("Log A")).expect("pinned archive opens");
    boxed.capsules[0].codec = 4;
    // `to_bytes` recomputes the trailer, so only the codec id is wrong.
    match CapsuleBox::from_bytes(&boxed.to_bytes()) {
        Err(Error::Corrupt(reason)) => assert_eq!(reason, "unknown codec id 4"),
        other => panic!("codec id 4 must be Error::Corrupt, got {other:?}"),
    }
}

/// Every group's line numbers after `to_bytes` → `from_bytes` are the
/// ones the box was serialized with; returns whether a group was implied.
fn line_numbers_round_trip(what: &str, boxed: &CapsuleBox) -> bool {
    let opened = CapsuleBox::from_bytes(&boxed.to_bytes()).expect("serialized box opens");
    assert_eq!(opened.groups.len(), boxed.groups.len(), "{what}");
    for (gid, (got, want)) in opened.groups.iter().zip(&boxed.groups).enumerate() {
        assert_eq!(got.line_numbers, want.line_numbers, "{what}: group {gid}");
    }
    boxed.implied_group().is_some()
}

#[test]
fn implied_line_numbers_come_back_exactly() {
    let mut implied = 0;
    for spec in workloads::all_logs() {
        implied += usize::from(line_numbers_round_trip(&spec.name, &archive(&spec.name)));
    }
    assert!(implied > 0, "no catalog archive has an implied group");
    // `suite`'s `cold_agg` corpus at seed 1: each public log's 512 KiB
    // block, generated from seed 0x100 + its index. Every block has one
    // dominant template, so every one is implied.
    let engine = LogGrep::new(LogGrepConfig::default());
    for (i, spec) in workloads::public_logs().into_iter().enumerate() {
        let raw = spec.generate(0x100 + i as u64, 512 << 10);
        let boxed = engine.compress(&raw).expect("public logs compress");
        assert!(
            line_numbers_round_trip(&spec.name, &boxed),
            "{}: cold_agg block not implied",
            spec.name
        );
    }
}
