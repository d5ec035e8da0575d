//! The compiled group renderer against the raw lines.
//!
//! Over the whole `workloads` catalog and every storage shape the
//! Reconstructor has a column reader for — the default engine, "w/o fixed"
//! (delimited Capsules), LogGrep-SP (every vector `Plain`), forced outliers
//! (whole lines of mixed formats under one majority pattern),
//! and dictionaries carrying empty regions — `reconstruct_all()` must equal
//! the raw lines, and queries built from seeded lines (each selects its own
//! ascending subset of every group's rows, the wildcard forms through
//! verify-by-reconstruction) must equal the independent oracle.

use difftest::strategies::oracle_lines;
use loggrep::boxfile::GroupMeta;
use loggrep::capsule::{CapsuleMeta, Layout, Stamp};
use loggrep::engine::split_lines;
use loggrep::extract::DictPattern;
use loggrep::pattern::{RuntimePattern, Segment};
use loggrep::vector::VectorMeta;
use loggrep::{Archive, CapsuleBox, LogGrep, LogGrepConfig};
use logparse::{Piece, Template, DEFAULT_DELIMS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BYTES: usize = 24 * 1024;

/// One learned template, so most lines land whole in the catch-all slot; a
/// split is accepted when half the sampled values have the delimiter and a
/// pattern is never abandoned: the lines of the minority formats fill the
/// outlier Capsule.
fn forced_outliers() -> LogGrepConfig {
    let mut config = LogGrepConfig {
        split_coverage: 0.5,
        max_outlier_rate: 1.0,
        ..LogGrepConfig::default()
    };
    config.parser.max_templates = 1;
    config
}

/// A zero-count region in front of every dictionary: it owns no bytes and
/// no index, and shares its successor's first index.
fn with_empty_regions(mut boxed: CapsuleBox) -> CapsuleBox {
    for vector in boxed.groups.iter_mut().flat_map(|g| &mut g.vectors) {
        if let VectorMeta::Nominal { patterns, .. } = vector {
            patterns.insert(
                0,
                DictPattern {
                    pattern: RuntimePattern {
                        segments: vec![Segment::Const(b"never".to_vec())],
                        sub_stamps: Vec::new(),
                    },
                    count: 0,
                    max_len: 5,
                },
            );
        }
    }
    boxed
}

fn outlier_rows(boxed: &CapsuleBox) -> usize {
    boxed
        .groups
        .iter()
        .flat_map(|g| &g.vectors)
        .map(|v| match v {
            VectorMeta::Real { outlier_rows, .. } => outlier_rows.len(),
            _ => 0,
        })
        .sum()
}

/// A literal and an in-token wildcard (`worker` → `wor*er`) from each of a
/// few seeded lines.
fn seeded_queries(lines: &[&[u8]], rng: &mut StdRng) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..4 {
        let line = lines[rng.gen_range(0..lines.len())];
        let tokens: Vec<&[u8]> = line
            .split(|b| DEFAULT_DELIMS.contains(b))
            .filter(|t| t.len() >= 4 && t.iter().all(|b| b.is_ascii_alphanumeric()))
            .collect();
        if tokens.is_empty() {
            continue;
        }
        let token = String::from_utf8_lossy(tokens[rng.gen_range(0..tokens.len())]).into_owned();
        let mid = token.len() / 2;
        out.push(format!("{}*{}", &token[..mid], &token[mid + 1..]));
        out.push(token);
    }
    out
}

fn check(log: &str, shape: &str, archive: &Archive, raw: &[u8], queries: &[String]) {
    let lines = split_lines(raw);
    let got = archive
        .reconstruct_all()
        .unwrap_or_else(|e| panic!("{log}/{shape}: {e}"));
    assert!(
        got.iter().map(Vec::as_slice).eq(lines.iter().copied()),
        "{log}/{shape}: reconstruct_all"
    );
    for q in queries {
        let Some(want) = oracle_lines(raw, q) else {
            continue;
        };
        let got = archive
            .query(q)
            .unwrap_or_else(|e| panic!("{log}/{shape}: `{q}`: {e}"));
        assert_eq!(got.lines, want, "{log}/{shape}: query `{q}`");
    }
}

#[test]
fn every_storage_shape_renders_the_catalog_exactly() {
    let mut rng = StdRng::seed_from_u64(0x1395_eed0_fc0d);
    let mut outliers = 0usize;
    for spec in workloads::all_logs() {
        let raw = spec.generate(29, BYTES);
        let queries = seeded_queries(&split_lines(&raw), &mut rng);
        let shapes = [
            ("default", LogGrepConfig::default()),
            ("w/o fixed", LogGrepConfig::without_fixed()),
            ("sp", LogGrepConfig::sp()),
            ("forced outliers", forced_outliers()),
        ];
        for (shape, config) in shapes {
            let engine = LogGrep::new(config);
            let boxed = engine.compress(&raw).expect("catalog logs compress");
            if shape == "forced outliers" {
                outliers += outlier_rows(&boxed);
            }
            check(&spec.name, shape, &engine.open(boxed), &raw, &queries);
        }
        let engine = LogGrep::new(LogGrepConfig::default());
        let boxed = with_empty_regions(engine.compress(&raw).expect("catalog logs compress"));
        // Through the wire, so the structural validation sees the regions.
        let archive = Archive::from_bytes(&boxed.to_bytes()).expect("empty regions are valid");
        check(&spec.name, "empty regions", &archive, &raw, &queries);
    }
    assert!(
        outliers > 1000,
        "the forced-outlier shape produced only {outliers} outlier rows"
    );
}

/// A hand-assembled dictionary with every region oddity at once: a
/// zero-width region (its one value is the empty string and owns no
/// bytes), zero-count regions at the front, in the middle and at the end,
/// and ordinary regions around them.
#[test]
fn zero_width_and_empty_dictionary_regions_render() {
    let region = |text: &[u8], count: u32, max_len: u32| DictPattern {
        pattern: RuntimePattern {
            segments: if text.is_empty() {
                Vec::new()
            } else {
                vec![Segment::Const(text.to_vec())]
            },
            sub_stamps: Vec::new(),
        },
        count,
        max_len,
    };
    // Dictionary values by index: 0 "a", 1 "", 2 "bb", 3 "c".
    let patterns = vec![
        region(b"never", 0, 5),
        region(b"a", 1, 1),
        region(b"", 1, 0),
        region(b"gone", 0, 4),
        region(b"x", 2, 2),
        region(b"tail", 0, 4),
    ];
    let dict_payload = b"abbc\0".to_vec();
    let index = [3u8, 1, 0, 2, 1, 3, 0];
    let index_payload: Vec<u8> = index.iter().map(|i| b'0' + i).collect();
    let want: Vec<&[u8]> = index
        .iter()
        .map(|&i| [&b"v=a;"[..], b"v=;", b"v=bb;", b"v=c;"][i as usize])
        .collect();

    let store = codec::by_name("store").expect("store codec");
    let mut blob = Vec::new();
    let mut capsule = |payload: &[u8], layout: Layout, rows: u32| {
        let packed = store.compress(payload);
        let meta = CapsuleMeta {
            layout,
            rows,
            stamp: Stamp::of([payload]),
            offset: blob.len() as u64,
            clen: packed.len() as u64,
            codec: 0,
        };
        blob.extend_from_slice(&packed);
        meta
    };
    let capsules = vec![
        capsule(&dict_payload, Layout::Raw, 4),
        capsule(
            &index_payload,
            Layout::Padded { width: 1 },
            index.len() as u32,
        ),
    ];
    let mut value_counts = vec![0u32; 4];
    for &i in &index {
        value_counts[i as usize] += 1;
    }
    let boxed = CapsuleBox {
        groups: vec![GroupMeta {
            template: Template::from_pieces(vec![
                Piece::Static(b"v=".to_vec()),
                Piece::Slot(0),
                Piece::Static(b";".to_vec()),
            ]),
            line_numbers: (0..index.len() as u32).collect(),
            vectors: vec![VectorMeta::Nominal {
                patterns,
                dict_cap: 0,
                index_cap: 1,
                idx_len: 1,
                dict_len: 4,
                value_counts,
            }],
        }],
        capsules,
        blob,
        total_lines: index.len() as u32,
        raw_size: want.iter().map(|l| l.len() as u64 + 1).sum(),
        fixed_length: true,
    };
    let archive = Archive::from_bytes(&boxed.to_bytes()).expect("the box is structurally valid");
    let got = archive.reconstruct_all().expect("every index resolves");
    assert!(
        got.iter().map(Vec::as_slice).eq(want.iter().copied()),
        "{got:?}"
    );
    // One index past the dictionary is corrupt, not a panic or a wrong value.
    let mut lying = boxed.clone();
    let past = store.compress(b"3104213");
    let VectorMeta::Nominal { index_cap, .. } = &lying.groups[0].vectors[0] else {
        unreachable!("built above");
    };
    let meta = &mut lying.capsules[*index_cap as usize];
    meta.offset = lying.blob.len() as u64;
    meta.clen = past.len() as u64;
    lying.blob.extend_from_slice(&past);
    let err = Archive::from_box(lying)
        .reconstruct_all()
        .expect_err("index 4 has no value");
    assert!(matches!(err, loggrep::Error::Corrupt(_)), "{err}");
}
