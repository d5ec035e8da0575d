//! Property-based round-trip tests across all codecs.

use codec::{by_name, Codec, Deflate, FastLz, LzmaLite, Store};
use proptest::prelude::*;

fn codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(Store),
        Box::new(Deflate::default()),
        Box::new(LzmaLite::default()),
        Box::new(FastLz::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for c in codecs() {
            let packed = c.compress(&data);
            prop_assert_eq!(c.decompress(&packed).unwrap(), data.clone(), "codec {}", c.name());
        }
    }

    #[test]
    fn roundtrip_low_entropy(data in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b' ')], 0..8192)) {
        for c in codecs() {
            let packed = c.compress(&data);
            prop_assert_eq!(c.decompress(&packed).unwrap(), data.clone(), "codec {}", c.name());
        }
    }

    #[test]
    fn roundtrip_repeated_blocks(block in proptest::collection::vec(any::<u8>(), 1..64), reps in 1usize..200) {
        let data: Vec<u8> = block.iter().copied().cycle().take(block.len() * reps).collect();
        for c in codecs() {
            let packed = c.compress(&data);
            prop_assert_eq!(c.decompress(&packed).unwrap(), data.clone(), "codec {}", c.name());
        }
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        for c in codecs() {
            let _ = c.decompress(&data);
        }
    }
}

#[test]
fn ratio_ordering_on_log_text() {
    // The paper's evaluation depends on gzip < zstd-in-ratio relationships
    // holding: lzma-lite >= deflate > fastlz in ratio on log-like text.
    let mut data = Vec::new();
    for i in 0..20_000 {
        data.extend_from_slice(
            format!(
                "2021-01-15 08:{:02}:{:02}.{:03} INFO blk_17{:06} replicated to 11.187.{}.{} ok\n",
                (i / 60) % 60,
                i % 60,
                i % 1000,
                i,
                i % 256,
                (i * 7) % 256
            )
            .as_bytes(),
        );
    }
    let lzma = by_name("lzma-lite").unwrap().compress(&data).len();
    let defl = by_name("deflate").unwrap().compress(&data).len();
    let fast = by_name("fastlz").unwrap().compress(&data).len();
    assert!(lzma < defl, "lzma {lzma} !< deflate {defl}");
    assert!(defl < fast, "deflate {defl} !< fastlz {fast}");
    assert!(fast < data.len());
}
