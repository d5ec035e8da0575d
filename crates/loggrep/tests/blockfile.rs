//! The one multi-block container: `LogGrep::compress_blocks`, the `.lgb`
//! framing and `BlockFile`'s cross-block merge and atomic commit.
//!
//! Every test drives real multi-block archives by passing a small
//! `block_bytes`, the same code path a 64 MiB-block CLI run takes.

use loggrep::{split_blocks, AggSpec, Archive, BlockFile, LogGrep, LogGrepConfig};
use std::path::{Path, PathBuf};

fn engine(threads: usize) -> LogGrep {
    LogGrep::new(LogGrepConfig {
        threads,
        ..LogGrepConfig::default()
    })
}

/// The container exactly as the CLI has always framed it: the magic, then
/// per block a little-endian `u64` length and the CapsuleBox bytes.
fn hand_framed(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut file = b"LGBFILE1".to_vec();
    for body in bodies {
        file.extend_from_slice(&(body.len() as u64).to_le_bytes());
        file.extend_from_slice(body);
    }
    file
}

#[test]
fn compress_blocks_is_compress_on_every_slice_at_every_thread_count() {
    let raw = workloads::by_name("Log C").unwrap().generate(11, 200 * 1024);
    for block_bytes in [1 << 10, 64 << 10, raw.len()] {
        let slices = split_blocks(&raw, block_bytes);
        let want: Vec<Vec<u8>> = slices
            .iter()
            .map(|s| engine(1).compress(s).unwrap().to_bytes())
            .collect();
        for threads in [1, 2, 4] {
            let got: Vec<Vec<u8>> = engine(threads)
                .compress_blocks(&raw, block_bytes)
                .unwrap()
                .iter()
                .map(|b| b.to_bytes())
                .collect();
            assert_eq!(got.len(), slices.len());
            assert!(got == want, "block_bytes {block_bytes}, {threads} thread(s)");
        }
    }
}

#[test]
fn empty_input_is_no_boxes_but_one_stored_block() {
    assert!(engine(2).compress_blocks(b"", 1024).unwrap().is_empty());
    let file = BlockFile::compress(&engine(2), b"", 1024).unwrap();
    assert_eq!(file.blocks().len(), 1);
    assert_eq!(file.blocks()[0].total_lines(), 0);
    let reopened = BlockFile::from_bytes(&file.to_bytes()).unwrap();
    assert_eq!(reopened.blocks().len(), 1);
    assert!(reopened.blocks()[0].query("x").unwrap().lines.is_empty());
}

#[test]
fn multi_block_file_answers_like_a_single_block() {
    for name in ["Log C", "Log H", "Hdfs"] {
        let spec = workloads::by_name(name).unwrap();
        let raw = spec.generate(11, 96 * 1024);
        let engine = engine(2);
        let single = BlockFile::compress(&engine, &raw, raw.len()).unwrap();
        assert_eq!(single.blocks().len(), 1);
        let built = BlockFile::compress(&engine, &raw, 24 * 1024).unwrap();
        assert!(built.blocks().len() >= 3, "{name}: {} block(s)", built.blocks().len());
        // Through the serialized container, as a file on disk would be read.
        let multi = BlockFile::from_bytes(&built.to_bytes()).unwrap();
        assert_eq!(multi.blocks().len(), built.blocks().len());

        let lines = |file: &BlockFile, query: Option<&str>| -> Vec<Vec<u8>> {
            let per_block = |a: &Archive| match query {
                Some(q) => a.query(q).unwrap().lines,
                None => a.reconstruct_all().unwrap(),
            };
            file.blocks().iter().flat_map(per_block).collect()
        };
        assert_eq!(lines(&multi, None), lines(&single, None), "{name}: round trip");
        for query in &spec.queries {
            assert_eq!(
                lines(&multi, Some(query)),
                lines(&single, Some(query)),
                "{name}: `{query}`"
            );
        }

        let filter = spec.queries[0].as_str();
        for (filter, agg) in [
            (None, "count"),
            (Some(filter), "count"),
            (None, "count-by-template"),
            (None, "histogram 200"),
        ] {
            let agg_spec = AggSpec::parse(agg).unwrap();
            let (want, _) = single.query_agg(filter, &agg_spec).unwrap();
            let (got, stats) = multi.query_agg(filter, &agg_spec).unwrap();
            assert_eq!(got, want, "{name}: `{agg}` filter {filter:?}");
            assert_eq!(stats.len(), multi.blocks().len());
        }
    }
}

#[test]
fn hand_framed_container_is_the_format() {
    let raw = workloads::by_name("Log C").unwrap().generate(5, 128 * 1024);
    let engine = engine(1);
    let block_bytes = 40 * 1024;
    let bodies: Vec<Vec<u8>> = split_blocks(&raw, block_bytes)
        .iter()
        .map(|s| engine.compress(s).unwrap().to_bytes())
        .collect();
    assert!(bodies.len() >= 3);
    let framed = hand_framed(&bodies);

    let opened = BlockFile::from_bytes(&framed).unwrap();
    assert_eq!(opened.blocks().len(), bodies.len());
    assert!(opened.to_bytes() == framed, "re-serialised bytes differ");
    let written = BlockFile::compress(&engine, &raw, block_bytes).unwrap();
    assert!(written.to_bytes() == framed, "written bytes differ from the hand-framed ones");
}

#[test]
fn hostile_containers_are_errors() {
    let engine = engine(1);
    let bodies = [
        engine.compress(b"a 1\na 2\n").unwrap().to_bytes(),
        engine.compress(b"b 3\n").unwrap().to_bytes(),
    ];
    let good = hand_framed(&bodies);
    assert_eq!(BlockFile::from_bytes(&good).unwrap().blocks().len(), 2);

    assert!(BlockFile::from_bytes(b"").is_err(), "empty file");
    assert!(BlockFile::from_bytes(b"definitely not an archive").is_err(), "bad magic");
    let mut bad_magic = good.clone();
    bad_magic[7] ^= 1;
    assert!(BlockFile::from_bytes(&bad_magic).is_err(), "bad magic");

    // Every cut is an error, except the two that fall on a frame boundary:
    // the container has no trailer, so those read as a shorter archive
    // (DESIGN "Block files"; `commit` is what keeps them off the disk).
    let first_frame_end = 8 + 8 + bodies[0].len();
    for cut in 0..good.len() {
        let opened = BlockFile::from_bytes(&good[..cut]);
        match cut {
            8 => assert_eq!(opened.unwrap().blocks().len(), 0),
            c if c == first_frame_end => assert_eq!(opened.unwrap().blocks().len(), 1),
            _ => assert!(opened.is_err(), "cut at {cut} of {}", good.len()),
        }
    }

    // A length the file cannot hold is rejected from the header alone.
    for declared in [u64::MAX, bodies[0].len() as u64 + 1] {
        let mut lying = b"LGBFILE1".to_vec();
        lying.extend_from_slice(&declared.to_le_bytes());
        lying.extend_from_slice(&bodies[0]);
        assert!(BlockFile::from_bytes(&lying).is_err(), "declared length {declared}");
    }

    for garbage in [&b"x"[..], b"garbage", &[0u8; 8], &[0xffu8; 16]] {
        let mut trailing = good.clone();
        trailing.extend_from_slice(garbage);
        assert!(BlockFile::from_bytes(&trailing).is_err(), "trailing {garbage:?}");
    }

    let mut corrupt_box = bodies[0].clone();
    let mid = corrupt_box.len() / 2;
    corrupt_box[mid] ^= 0x40;
    let framed = hand_framed(&[corrupt_box, bodies[1].clone()]);
    assert!(BlockFile::from_bytes(&framed).is_err(), "corrupt CapsuleBox in a valid frame");
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loggrep-blockfile-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tmp_of(output: &Path) -> PathBuf {
    let mut tmp = output.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

#[test]
fn commit_replaces_the_output_all_or_nothing() {
    let dir = scratch("commit");
    let output = dir.join("out.lgb");
    let tmp = tmp_of(&output);
    let engine = engine(2);
    std::fs::write(&output, b"the previous archive").unwrap();

    // Compression fails (a NUL byte): nothing is committed, nothing staged.
    assert!(BlockFile::compress(&engine, b"fine line\nbad \0 line\n", 8).is_err());
    assert_eq!(std::fs::read(&output).unwrap(), b"the previous archive");
    assert!(!tmp.exists());

    // The commit itself fails (`<out>.tmp` cannot be created as a file):
    // the old output survives byte for byte.
    let file = BlockFile::compress(&engine, b"fine line\nanother line\n", 8).unwrap();
    assert!(file.blocks().len() >= 2);
    std::fs::create_dir(&tmp).unwrap();
    assert!(file.commit(&output).is_err());
    assert_eq!(std::fs::read(&output).unwrap(), b"the previous archive");
    std::fs::remove_dir(&tmp).unwrap();

    // A stale `.tmp` left by a crashed run is replaced, not appended to or
    // tripped over, and a successful commit leaves none behind.
    std::fs::write(&tmp, b"half an archive from a crashed run").unwrap();
    let written = file.commit(&output).unwrap();
    assert!(!tmp.exists());
    let on_disk = std::fs::read(&output).unwrap();
    assert_eq!(written, on_disk.len() as u64);
    assert!(on_disk == file.to_bytes());
    let reopened = BlockFile::open(&output).unwrap();
    assert_eq!(reopened.blocks().len(), file.blocks().len());
    assert_eq!(reopened.blocks()[0].query("fine").unwrap().lines, vec![b"fine line".to_vec()]);

    assert!(BlockFile::open(dir.join("missing.lgb")).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
