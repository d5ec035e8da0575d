//! `compress <input.log> <output.lgb>`.

use crate::{human, BLOCK_SIZE};
use loggrep::{BlockFile, LogGrep, LogGrepConfig};

/// Compresses `input` into a multi-block `.lgb` archive, one CapsuleBox per
/// [`BLOCK_SIZE`] of raw log, blocks compressed in parallel on the worker
/// pool.
///
/// A failed block aborts the whole run with that block's error, and the
/// archive reaches `output` by [`BlockFile::commit`]: whatever `output`
/// held before is either fully replaced or untouched.
pub(crate) fn compress_file(input: &str, output: &str) -> Result<(), String> {
    let raw = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
    let engine = LogGrep::new(LogGrepConfig::default());
    let file = BlockFile::compress(&engine, &raw, BLOCK_SIZE).map_err(|e| e.to_string())?;
    let stored = file.commit(output).map_err(|e| e.to_string())?;
    println!(
        "compressed {} -> {} ({:.2}x, {} block(s))",
        human(raw.len() as u64),
        human(stored),
        raw.len() as f64 / stored.max(1) as f64,
        file.blocks().len()
    );
    Ok(())
}
