//! The resident-Capsule table: an open `Archive` decompresses a Capsule
//! once, not once per query.
//!
//! Over the `workloads` catalog: a repeat — through the Query Cache, or as a
//! distinct command over the same groups — decompresses nothing and returns
//! the same lines; `clear_caches` and the "w/o cache" ablation both mean a
//! cold archive; concurrent queries agree with serial ones. On hand-built
//! boxes larger than the budget: the bound holds after every operation, and
//! a corrupt Capsule fails every time it is asked for.

use loggrep::boxfile::{GroupMeta, RESIDENT_BUDGET_BYTES};
use loggrep::capsule::{build_payload, CapsuleMeta};
use loggrep::vector::VectorMeta;
use loggrep::{Archive, CapsuleBox, LogGrep, LogGrepConfig, QueryStats};
use logparse::{Piece, Template};
use std::sync::Barrier;

const SEED: u64 = 11;
const BYTES: usize = 24 * 1024;

fn catalog(config: LogGrepConfig) -> impl Iterator<Item = (workloads::LogSpec, Archive)> {
    let engine = LogGrep::new(config);
    workloads::all_logs().into_iter().map(move |log| {
        let boxed = engine
            .compress(&log.generate(SEED, BYTES))
            .expect("catalog logs compress");
        (log, engine.open(boxed))
    })
}

fn decompressed(stats: &QueryStats) -> (usize, u64) {
    (stats.capsules_decompressed, stats.bytes_decompressed)
}

fn touched(stats: &QueryStats) -> (usize, u64) {
    (
        stats.capsules_decompressed + stats.capsules_resident,
        stats.bytes_decompressed + stats.bytes_resident,
    )
}

#[test]
fn a_repeat_decompresses_nothing() {
    let mut cold_decompressions = 0;
    for (log, archive) in catalog(LogGrepConfig::default()) {
        for q in &log.queries {
            let at = format!("{} `{q}`", log.name);
            archive.clear_caches();
            let cold = archive.query(q).expect("cold");
            cold_decompressions += cold.stats.capsules_decompressed;
            assert_eq!(cold.stats.capsules_resident, 0, "{at}");

            // The same command: the Query Cache skips locating, and rendering
            // reads Capsules the cold run left behind.
            let cached = archive.query(q).expect("cached");
            assert!(cached.stats.cache_hit, "{at}");
            assert_eq!(cached.stats.capsules_decompressed, 0, "{at}");
            assert_eq!(cached.lines, cold.lines, "{at}");

            // A distinct command over the same groups: located and rendered
            // in full, from the same Capsules.
            let spelled = format!("{q} ");
            let warm = archive.query(&spelled).expect("warm");
            assert!(!warm.stats.cache_hit, "{at}");
            assert_eq!(warm.stats.capsules_decompressed, 0, "{at}");
            assert_eq!(touched(&warm.stats), touched(&cold.stats), "{at}");
            assert_eq!(warm.lines, cold.lines, "{at}");
            assert_eq!(warm.line_numbers, cold.line_numbers, "{at}");
        }
    }
    assert!(cold_decompressions > 0, "the catalog queries read Capsules");
}

#[test]
fn clear_caches_means_a_fresh_open() {
    for ((log, held), (_, fresh)) in
        catalog(LogGrepConfig::default()).zip(catalog(LogGrepConfig::default()))
    {
        for q in &log.queries {
            held.query(q).expect("warm-up");
        }
        held.reconstruct_all().expect("warm-up");
        held.clear_caches();
        assert_eq!(held.resident_bytes(), 0, "{}", log.name);
        let q = &log.queries[0];
        let (again, first) = (held.query(q).expect("held"), fresh.query(q).expect("fresh"));
        assert_eq!(
            decompressed(&again.stats),
            decompressed(&first.stats),
            "{}",
            log.name
        );
        assert_eq!(
            touched(&again.stats),
            decompressed(&first.stats),
            "{}",
            log.name
        );
    }
}

#[test]
fn without_cache_nothing_is_resident() {
    for (log, archive) in catalog(LogGrepConfig::without_cache()) {
        let q = &log.queries[0];
        let first = archive.query(q).expect("first");
        assert_eq!(archive.resident_bytes(), 0, "{}", log.name);
        let second = archive.query(q).expect("second");
        assert_eq!(second.stats.capsules_resident, 0, "{}", log.name);
        assert_eq!(
            decompressed(&second.stats),
            decompressed(&first.stats),
            "{}",
            log.name
        );
        archive.reconstruct_all().expect("reconstruct_all");
        assert_eq!(archive.resident_bytes(), 0, "{}", log.name);
    }
    // Switching the ablation on drops what an archive already holds.
    let (log, mut archive) = catalog(LogGrepConfig::default()).next().expect("Log A");
    archive.query(&log.queries[0]).expect("query");
    assert!(archive.resident_bytes() > 0);
    archive.set_query_cache(false);
    assert_eq!(archive.resident_bytes(), 0);
}

#[test]
fn four_threads_get_the_serial_results() {
    const THREADS: usize = 4;
    for ((log, shared), (_, serial)) in
        catalog(LogGrepConfig::default()).zip(catalog(LogGrepConfig::default()))
    {
        let want: Vec<_> = log
            .queries
            .iter()
            .map(|q| serial.query(q).expect("serial"))
            .collect();
        let all = serial.reconstruct_all().expect("serial");
        // Every thread asks the same Capsules at the same moment: one takes
        // a resident entry, the others miss and decompress their own.
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (log, shared, want, all, start) = (&log, &shared, &want, &all, &start);
                s.spawn(move || {
                    for round in 0..3 {
                        start.wait();
                        for (q, want) in log.queries.iter().zip(want) {
                            let got = shared.query(q).expect("concurrent");
                            assert_eq!(got.lines, want.lines, "{} `{q}` thread {t}", log.name);
                            assert_eq!(got.line_numbers, want.line_numbers);
                        }
                        if (round + t) % 2 == 0 {
                            assert_eq!(&shared.reconstruct_all().expect("concurrent"), all);
                        }
                    }
                });
            }
        });
        assert!(shared.resident_bytes() <= RESIDENT_BUDGET_BYTES);
    }
}

/// One group of two rows whose template is one slot per Capsule; Capsule
/// `i` decompresses to `sizes[i]` bytes (two padded rows), stored verbatim.
fn wide_box(sizes: &[usize]) -> CapsuleBox {
    let store = codec::by_name("store").expect("store codec");
    let (mut pieces, mut vectors, mut capsules, mut blob) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, &size) in sizes.iter().enumerate() {
        if i > 0 {
            pieces.push(Piece::Static(b" ".to_vec()));
        }
        pieces.push(Piece::Slot(i));
        let fill = b'a' + (i % 26) as u8;
        let rows = [vec![fill; size / 2], vec![fill + 1; size / 2]];
        let (payload, layout, stamp, rows) = build_payload(rows.iter().map(Vec::as_slice), true);
        assert_eq!(payload.len(), size);
        let compressed = store.compress(&payload);
        capsules.push(CapsuleMeta {
            layout,
            rows,
            stamp,
            offset: blob.len() as u64,
            clen: compressed.len() as u64,
            codec: 0,
        });
        blob.extend_from_slice(&compressed);
        vectors.push(VectorMeta::Plain { capsule: i as u32 });
    }
    CapsuleBox {
        groups: vec![GroupMeta {
            template: Template::from_pieces(pieces),
            line_numbers: vec![0, 1],
            vectors,
        }],
        capsules,
        blob,
        total_lines: 2,
        raw_size: sizes.iter().sum::<usize>() as u64 + 2 * sizes.len() as u64,
        fixed_length: true,
    }
}

#[test]
fn the_byte_bound_holds_after_every_operation() {
    // 5 × 3 MiB: any two fit, three do not.
    let archive = Archive::from_box(wide_box(&[3 << 20; 5]));
    let all = archive.reconstruct_all().expect("reconstruct_all");
    assert_eq!(all.len(), 2);
    assert_eq!(all[0].len(), 5 * (3 << 19) + 4);
    assert_eq!(archive.resident_bytes(), 2 * (3 << 20));
    assert_eq!(archive.resident_evictions(), 3);

    // Line 0 is `aa.. bb.. cc.. dd.. ee..`, line 1 `bb.. cc.. dd.. ee.. ff..`.
    for (q, hits) in [
        ("bbbb", 2),
        ("cccc", 2),
        ("aaaa", 1),
        ("ffff", 1),
        ("bbbb", 2),
        ("zzzz", 0),
    ] {
        let got = archive.query(q).expect("query");
        assert_eq!(got.lines.len(), hits, "`{q}`");
        assert!(archive.resident_bytes() <= RESIDENT_BUDGET_BYTES, "`{q}`");
        assert!(
            archive.resident_bytes() >= 3 << 20,
            "`{q}`: the table is in use"
        );
    }
    assert_eq!(archive.reconstruct_all().expect("again"), all);
    assert!(archive.resident_bytes() <= RESIDENT_BUDGET_BYTES);

    // A larger-than-budget scan keeps hitting the part that stays.
    let first = archive.query("bbbb").expect("first");
    let second = archive.query("bbbb ").expect("second");
    assert_eq!(touched(&first.stats), touched(&second.stats));
    assert!(second.stats.capsules_resident >= 2);
}

#[test]
fn a_capsule_larger_than_the_budget_is_used_and_dropped() {
    let big = RESIDENT_BUDGET_BYTES + 2;
    let archive = Archive::from_box(wide_box(&[1024, big]));
    for _ in 0..2 {
        let got = archive.query("bbbb").expect("query");
        assert_eq!(got.lines.len(), 2);
        assert_eq!(got.lines[0].len(), 512 + 1 + big / 2);
        assert_eq!(
            archive.resident_bytes(),
            1024,
            "only the small Capsule stays"
        );
    }
    assert_eq!(archive.resident_evictions(), 2);
    let repeat = archive.query("bbbb ").expect("repeat");
    assert_eq!(decompressed(&repeat.stats), (1, big as u64));
    assert_eq!(
        (repeat.stats.capsules_resident, repeat.stats.bytes_resident),
        (1, 1024)
    );
}

#[test]
fn a_corrupt_capsule_errors_on_every_attempt() {
    let (log, _) = catalog(LogGrepConfig::default()).next().expect("Log A");
    let engine = LogGrep::new(LogGrepConfig::default());
    let mut boxed = engine
        .compress(&log.generate(SEED, BYTES))
        .expect("compress");
    // Wreck the compressed bytes of the largest Capsule, past the checksum's
    // reach (the box is opened in memory).
    let (victim, meta) = boxed
        .capsules
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.clen)
        .expect("a Capsule");
    let (start, end) = (meta.offset as usize, (meta.offset + meta.clen) as usize);
    boxed.blob[start..end].fill(0xff);
    assert!(boxed.decompress_capsule(victim as u32).is_err());

    let archive = engine.open(boxed);
    for attempt in 0..3 {
        assert!(archive.reconstruct_all().is_err(), "attempt {attempt}");
        // The Capsules read before the failure are kept; the failure is not.
        assert!(archive.resident_bytes() > 0, "attempt {attempt}");
    }
    archive.clear_caches();
    assert!(archive.reconstruct_all().is_err(), "after clear_caches");
}
