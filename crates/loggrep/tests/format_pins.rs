//! The on-disk format is pinned.
//!
//! 1. **Byte identity.** A read-side change must not move a stored byte:
//!    every catalog log, compressed with the default configuration, must
//!    serialize to the size and CRC-32 trailer recorded here (captured at
//!    the commit before the table-driven inflate and the slicing-by-8
//!    CRC). The trailer is the checksum of every byte before it, so it
//!    pins the encoders, the container layout and `wire::crc32` at once.
//! 2. **Current format version only.** `CapsuleBox::from_bytes` reads
//!    version 3 and nothing else; a body stamped with an older version is
//!    rejected by name, not misparsed.
//! 3. **Codec ids 0–3 only.** Id 4 named a codec that has been deleted; a
//!    capsule table that names it is a typed error at open, like any other
//!    unknown id.

use loggrep::wire::crc32;
use loggrep::{CapsuleBox, Error, LogGrep, LogGrepConfig};

const SEED: u64 = 13;
const BYTES: usize = 48 * 1024;

/// `(log, serialized size, CRC-32 trailer)` of `generate(SEED, BYTES)`.
const PINS: &[(&str, usize, u32)] = &[
    ("Log A", 8451, 0xDC3B85DB),
    ("Log B", 8099, 0x69D1E1B8),
    ("Log C", 4224, 0xC1641232),
    ("Log D", 6434, 0x222BBB07),
    ("Log E", 5922, 0x74245889),
    ("Log F", 6722, 0x36304093),
    ("Log G", 14661, 0xE349D49D),
    ("Log H", 6795, 0xDF0A157F),
    ("Log I", 9260, 0xB765346A),
    ("Log J", 3400, 0x5C17C25D),
    ("Log K", 8419, 0xB846592C),
    ("Log L", 3687, 0x53874761),
    ("Log M", 5629, 0xEAA649FC),
    ("Log N", 4018, 0x84F6DA40),
    ("Log O", 6124, 0x19559BCD),
    ("Log P", 12377, 0x5AADBF7F),
    ("Log Q", 5179, 0xD7F08637),
    ("Log R", 5675, 0x81876132),
    ("Log S", 3670, 0x541F64E1),
    ("Log T", 7926, 0x436F0427),
    ("Log U", 4693, 0x53526E76),
    ("Android", 5222, 0x6A099BCD),
    ("Apache", 2763, 0x58BA642C),
    ("Bgl", 4255, 0xA473F4A5),
    ("Hadoop", 5035, 0x6B093872),
    ("Hdfs", 6343, 0xD99555B2),
    ("Healthapp", 4001, 0x1FE09CCB),
    ("Hpc", 4820, 0xFCF7B699),
    ("Linux", 5074, 0x15DA9585),
    ("Mac", 4108, 0x6A945A88),
    ("Openstack", 4543, 0x38A8EF7A),
    ("Proxifier", 2534, 0xC06274ED),
    ("Spark", 4610, 0x8FA1E1CA),
    ("Ssh", 6540, 0x0C47EBBF),
    ("Thunderbird", 3927, 0xD2992655),
    ("Windows", 3944, 0xEBE3EAEB),
    ("Zookeeper", 3569, 0x27C38238),
];

fn archive_bytes(log: &str) -> Vec<u8> {
    let raw = workloads::by_name(log)
        .expect("catalog log")
        .generate(SEED, BYTES);
    LogGrep::new(LogGrepConfig::default())
        .compress(&raw)
        .expect("catalog logs compress")
        .to_bytes()
}

#[test]
fn catalog_archives_keep_their_pinned_bytes() {
    assert_eq!(
        PINS.len(),
        workloads::all_logs().len(),
        "a catalog log has no pin"
    );
    for &(log, size, trailer) in PINS {
        let bytes = archive_bytes(log);
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().expect("four trailer bytes"));
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
    let mut bytes = archive_bytes("Log A");
    assert!(CapsuleBox::from_bytes(&bytes).is_ok());
    // Byte 4 follows the 4-byte magic: the format version.
    assert_eq!(bytes[4], 3);
    bytes[4] = 2;
    let body_len = bytes.len() - 4;
    let crc = crc32(&bytes[..body_len]).to_le_bytes();
    bytes[body_len..].copy_from_slice(&crc);
    let err = CapsuleBox::from_bytes(&bytes).expect_err("a version-2 body must not open");
    assert!(
        err.to_string().contains("unsupported version 2"),
        "rejected for the wrong reason: {err}"
    );
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
