//! `byte_map` accounts for every stored byte: its sections sum exactly to
//! the serialized size of every catalog log's archive and of a multi-block
//! `.lgb` file, which is what lets `stat` say where an archive's bytes live.

use loggrep::{BlockFile, LogGrep, LogGrepConfig};

#[test]
fn catalog_byte_maps_sum_to_the_file_size() {
    let engine = LogGrep::new(LogGrepConfig::default());
    for spec in workloads::all_logs() {
        let raw = spec.generate(13, 48 * 1024);
        let file = BlockFile::compress(&engine, &raw, raw.len()).unwrap();
        assert_eq!(file.blocks().len(), 1, "{}", spec.name);
        let map = file.byte_map();
        assert_eq!(map.total(), file.to_bytes().len() as u64, "{}", spec.name);

        let boxed = file.blocks()[0].capsule_box();
        let box_map = boxed.byte_map();
        assert_eq!(
            box_map.total(),
            boxed.to_bytes().len() as u64,
            "{}",
            spec.name
        );
        assert_eq!(map.total(), box_map.total() + 16, "{}: framing", spec.name);
        let payload: u64 = box_map.payload.values().sum();
        assert_eq!(payload, boxed.blob.len() as u64, "{}", spec.name);
        for (section, n) in [
            ("header", map.header),
            ("templates", map.templates),
            ("line_numbers", map.line_numbers),
            ("vector_refs", map.vector_refs),
            ("stamps", map.stamps),
            ("capsule_table", map.capsule_table),
        ] {
            assert!(n > 0, "{}: empty {section}", spec.name);
        }
        assert_eq!((map.checksum, map.framing), (4, 16), "{}", spec.name);
    }
}

#[test]
fn multi_block_byte_map_sums_to_the_file_size() {
    let engine = LogGrep::new(LogGrepConfig::default());
    let raw = workloads::by_name("Log C")
        .unwrap()
        .generate(11, 200 * 1024);
    let file = BlockFile::compress(&engine, &raw, 24 * 1024).unwrap();
    let blocks = file.blocks().len() as u64;
    assert!(blocks >= 3, "{blocks} blocks");
    let map = file.byte_map();
    assert_eq!(map.total(), file.to_bytes().len() as u64);
    assert_eq!(map.framing, 8 + 8 * blocks);
    assert_eq!(map.checksum, 4 * blocks);
    let sections = map.sections();
    assert_eq!(sections.iter().map(|(_, n)| n).sum::<u64>(), map.total());
    assert!(sections
        .iter()
        .any(|(name, n)| name.starts_with("payload.") && *n > 0));
}
