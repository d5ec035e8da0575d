//! The codecs against real Capsule payloads.
//!
//! 1. **Round trip.** Every Capsule of every catalog log decodes, with the
//!    codec it was stored with, to a payload that the unchanged encoder
//!    turns back into the stored bytes; and every payload survives
//!    deflate and fastlz whichever codec the cost model chose for it.
//! 2. **Corrupt streams** (deflate and fastlz, the two table/word-copy
//!    decoders): a stream cut at any byte, or with seeded bits flipped,
//!    must come back as an error or as an output of exactly the length its
//!    header declares — never a panic, never a longer buffer.

use loggrep::capsule::codec_by_id;
use loggrep::{LogGrep, LogGrepConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(stored codec id, stored bytes, payload)` of every Capsule of one log.
fn capsules(log: &str, bytes: usize) -> Vec<(u8, Vec<u8>, Vec<u8>)> {
    let raw = workloads::by_name(log)
        .expect("catalog log")
        .generate(17, bytes);
    let boxed = LogGrep::new(LogGrepConfig::default())
        .compress(&raw)
        .expect("catalog logs compress");
    (0..boxed.capsules.len())
        .map(|id| {
            let meta = &boxed.capsules[id];
            let stored = boxed.blob[meta.offset as usize..][..meta.clen as usize].to_vec();
            let payload = boxed
                .decompress_capsule(id as u32)
                .expect("own capsules decode");
            (meta.codec, stored, payload)
        })
        .collect()
}

#[test]
fn every_catalog_payload_round_trips() {
    let deflate = codec::by_name("deflate").expect("deflate");
    let fastlz = codec::by_name("fastlz").expect("fastlz");
    let mut buf = vec![0xAB; 64];
    let mut seen = [0usize; 4];
    // Small blocks of everything, and one block large enough that the cost
    // model hands its near-incompressible Capsules to fastlz.
    let blocks = workloads::all_logs()
        .into_iter()
        .map(|spec| (spec.name, 32 * 1024))
        .chain([("Log G".to_string(), 512 * 1024)]);
    for (log, bytes) in blocks {
        for (codec_id, stored, payload) in capsules(&log, bytes) {
            let stored_with = codec_by_id(codec_id).expect("stored codec id");
            assert_eq!(stored_with.compress(&payload), stored, "{log}: re-encode");
            seen[codec_id as usize] += 1;
            for codec in [&deflate, &fastlz] {
                codec
                    .decompress_into(&codec.compress(&payload), &mut buf)
                    .unwrap_or_else(|e| panic!("{log}: {}: {e}", codec.name()));
                assert_eq!(buf, payload, "{log}: {}", codec.name());
            }
        }
    }
    // Store, deflate, lzma-lite and fastlz streams were all read back.
    assert!(
        seen.iter().all(|&n| n > 0),
        "capsules per codec id: {seen:?}"
    );
}

#[test]
fn cut_and_flipped_streams_never_panic_or_overrun() {
    let mut rng = StdRng::seed_from_u64(0xc0de_c57e_a5ed);
    let mut payloads: Vec<Vec<u8>> = ["Log A", "Log G", "Hdfs", "Ssh"]
        .iter()
        .flat_map(|log| capsules(log, 16 * 1024))
        .map(|(_, _, payload)| payload)
        .filter(|p| p.len() >= 64)
        .collect();
    payloads.sort_by_key(Vec::len);
    assert!(payloads.len() >= 24, "only {} payloads", payloads.len());
    // The 8 smallest take every cut; 16 more, spread up to the largest, take
    // seeded cuts.
    let step = (payloads.len() - 8) / 16;
    let sample = (0..8).chain((8..payloads.len()).step_by(step.max(1)));
    let mut buf = Vec::new();
    let (mut errors, mut survivors) = (0usize, 0usize);
    for i in sample {
        let payload = &payloads[i];
        for name in ["deflate", "fastlz"] {
            let codec = codec::by_name(name).expect("codec");
            let packed = codec.compress(payload);
            let mut check = |mutant: &[u8], what: &str| {
                let declared = codec::varint::get_uvarint(mutant).map(|(n, _)| n);
                match codec.decompress_into(mutant, &mut buf) {
                    Ok(()) => {
                        assert_eq!(Some(buf.len() as u64), declared, "{name}: {what}");
                        survivors += 1;
                    }
                    Err(_) => errors += 1,
                }
            };
            if i < 8 {
                for cut in 0..packed.len() {
                    check(&packed[..cut], &format!("cut {cut}"));
                }
            } else {
                for _ in 0..64 {
                    let cut = rng.gen_range(0..packed.len());
                    check(&packed[..cut], &format!("cut {cut}"));
                }
            }
            let mut mutant = packed.clone();
            for _ in 0..256 {
                let (at, bit) = (
                    rng.gen_range(0..mutant.len()),
                    1u8 << rng.gen_range(0..8u32),
                );
                mutant[at] ^= bit;
                check(&mutant, &format!("flip {at}:{bit:#x}"));
                mutant[at] ^= bit;
            }
            assert_eq!(mutant, packed);
        }
    }
    // Cuts always fail (the streams are self-terminating), so errors
    // dominate; some flips land in literals and still decode.
    assert!(
        errors > 10_000 && survivors > 0,
        "{errors} errors, {survivors} survivors"
    );
}
