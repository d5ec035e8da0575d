//! Block files: a log as a sequence of blocks (§3), each one CapsuleBox.
//!
//! The one place that splits a log on line boundaries and decides the pool
//! level ([`LogGrep::compress_blocks`]), that knows the `.lgb` container
//! ([`BlockFile`]: an 8-byte magic, then per block a little-endian `u64`
//! length and that many CapsuleBox bytes) and that merges aggregates across
//! blocks ([`BlockFile::query_agg`]). A line query is a loop over
//! [`BlockFile::blocks`], so block *k*'s hits can go out before block *k+1*
//! is touched.
//!
//! The container has no trailer and no block count: a file cut exactly on a
//! frame boundary parses as a shorter archive. [`BlockFile::commit`] is what
//! keeps such a file from ever appearing under the final name.

use crate::boxfile::{Archive, ByteMap, CapsuleBox};
use crate::engine::LogGrep;
use crate::error::{Error, Result};
use crate::query::lang::AggSpec;
use crate::query::AggResult;
use crate::stats::QueryStats;
use pool::Pool;
use std::io::Write;
use std::path::Path;

/// Container magic of a `.lgb` file.
const MAGIC: &[u8; 8] = b"LGBFILE1";

/// Splits raw logs into blocks of about `block_bytes` (at least one byte)
/// on line boundaries: every block but the last ends with a newline, so no
/// line straddles two blocks. Empty input has no blocks.
pub fn split_blocks(raw: &[u8], block_bytes: usize) -> Vec<&[u8]> {
    let mut blocks = Vec::new();
    let mut start = 0usize;
    while start < raw.len() {
        let mut end = start.saturating_add(block_bytes.max(1)).min(raw.len());
        // Extend to the next newline so lines never straddle blocks.
        while end < raw.len() && raw.get(end - 1) != Some(&b'\n') {
            end += 1;
        }
        blocks.push(raw.get(start..end).unwrap_or_default());
        start = end;
    }
    blocks
}

impl LogGrep {
    /// Compresses `raw` in blocks of about `block_bytes` ([`split_blocks`]):
    /// box for box what [`LogGrep::compress`] returns for the same slice, at
    /// every thread count; no boxes for empty input; on failure the first
    /// failing block's error.
    ///
    /// One pool level per call: several blocks fan out across the worker
    /// pool, each serial inside its worker; a single block instead gets the
    /// pool for its own parse / extract / encode fan-out.
    pub fn compress_blocks(&self, raw: &[u8], block_bytes: usize) -> Result<Vec<CapsuleBox>> {
        let blocks = split_blocks(raw, block_bytes);
        let pool = Pool::new(self.config().threads);
        let inner = if blocks.len() > 1 { Pool::serial() } else { pool };
        pool.try_map(&blocks, |_, block| {
            self.compress_block(block, &inner).map(|(boxed, _)| boxed)
        })
    }
}

/// A multi-block archive: the queryable blocks of one `.lgb` file, in log
/// order.
///
/// # Examples
///
/// ```
/// use loggrep::{AggSpec, BlockFile, LogGrep, LogGrepConfig};
///
/// let raw = b"a 1\na 2\nb 3\n";
/// let engine = LogGrep::new(LogGrepConfig::default());
/// let file = BlockFile::compress(&engine, raw, 4).unwrap();
/// assert_eq!(file.blocks().len(), 3);
/// let reopened = BlockFile::from_bytes(&file.to_bytes()).unwrap();
/// let (count, _) = reopened.query_agg(Some("a"), &AggSpec::parse("count").unwrap()).unwrap();
/// assert_eq!(count.to_json(), r#"{"count": 2}"#);
/// ```
#[derive(Debug)]
pub struct BlockFile {
    blocks: Vec<Archive>,
}

impl BlockFile {
    /// [`LogGrep::compress_blocks`], each block opened with the engine's
    /// query flags. An empty input is stored as one empty block.
    pub fn compress(engine: &LogGrep, raw: &[u8], block_bytes: usize) -> Result<Self> {
        let mut boxes = engine.compress_blocks(raw, block_bytes)?;
        if boxes.is_empty() {
            boxes.push(engine.compress(&[])?);
        }
        Ok(Self {
            blocks: boxes.into_iter().map(|b| engine.open(b)).collect(),
        })
    }

    /// Parses a serialized container: [`Error::Corrupt`] on a bad magic, a
    /// frame header or body running past the end of `bytes` (so trailing
    /// garbage too), or a block [`Archive::from_bytes`] rejects. A frame is
    /// a sub-slice of `bytes`; nothing is allocated from a declared length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let Some(mut rest) = bytes.strip_prefix(MAGIC.as_slice()) else {
            return Err(Error::Corrupt("not a `.lgb` block file (bad magic)".into()));
        };
        let mut blocks = Vec::new();
        while !rest.is_empty() {
            let Some((header, tail)) = rest.split_first_chunk::<8>() else {
                return Err(Error::Corrupt("truncated block header".into()));
            };
            let frame = usize::try_from(u64::from_le_bytes(*header))
                .ok()
                .and_then(|len| tail.split_at_checked(len));
            let Some((block, tail)) = frame else {
                return Err(Error::Corrupt("truncated block".into()));
            };
            blocks.push(Archive::from_bytes(block)?);
            rest = tail;
        }
        Ok(Self { blocks })
    }

    /// Reads and parses the container at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| Error::Io(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }

    /// Serializes the container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        for block in &self.blocks {
            let body = block.capsule_box().to_bytes();
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
            out.extend_from_slice(&body);
        }
        out
    }

    /// Where the container's bytes go: each block's
    /// [`CapsuleBox::byte_map`] plus the framing. The total is the length
    /// of [`Self::to_bytes`].
    pub fn byte_map(&self) -> ByteMap {
        let mut map = ByteMap {
            framing: (MAGIC.len() + 8 * self.blocks.len()) as u64,
            ..ByteMap::default()
        };
        for block in &self.blocks {
            map.add(&block.capsule_box().byte_map());
        }
        map
    }

    /// Writes the container to `path` all or nothing and returns its size:
    /// to `<path>.tmp`, synced, renamed over `path`, the directory synced.
    /// Neither a failure nor a crash leaves a partial archive under the
    /// final name, and a failure removes the `.tmp`.
    pub fn commit(&self, path: impl AsRef<Path>) -> Result<u64> {
        let path = path.as_ref();
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let io_err = |e: std::io::Error| Error::Io(format!("write {}: {e}", path.display()));
        let written = std::fs::File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(&bytes)?;
                file.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(io_err(e));
        }
        // The rename is durable once the directory entry is.
        let dir = path
            .parent()
            .filter(|dir| !dir.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        std::fs::File::open(dir)
            .and_then(|dir| dir.sync_all())
            .map_err(io_err)?;
        Ok(bytes.len() as u64)
    }

    /// The per-block archives, in log order.
    pub fn blocks(&self) -> &[Archive] {
        &self.blocks
    }

    /// Runs an aggregate on every block, numbering a block's lines from the
    /// total of the blocks before it (so `histogram` buckets are global),
    /// and merges the answers: the result equals a single block's over the
    /// same log. Also returns each block's stats, parallel to `blocks()`.
    pub fn query_agg(
        &self,
        filter: Option<&str>,
        spec: &AggSpec,
    ) -> Result<(AggResult, Vec<QueryStats>)> {
        let mut merged = AggResult::empty(spec);
        let mut stats = Vec::with_capacity(self.blocks.len());
        let mut offset = 0u64;
        for block in &self.blocks {
            let r = block.query_agg_at(filter, spec, offset)?;
            merged.merge(&r.agg)?;
            stats.push(r.stats);
            offset += u64::from(block.total_lines());
        }
        Ok((merged, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_blocks_respects_line_boundaries() {
        let raw: Vec<u8> = (0..500)
            .flat_map(|i| format!("INFO req {i} from host{}\n", i % 7).into_bytes())
            .collect();
        for block_bytes in [0, 1, 700] {
            let blocks = split_blocks(&raw, block_bytes);
            assert!(blocks.len() > 1);
            assert_eq!(blocks.concat(), raw);
            assert!(blocks.iter().all(|b| b.last() == Some(&b'\n')));
        }
        assert_eq!(split_blocks(&raw, raw.len()), vec![&raw[..]]);
        assert_eq!(split_blocks(b"a\nbc", 1), vec![&b"a\n"[..], b"bc"]);
        assert!(split_blocks(b"", 64).is_empty());
    }
}
