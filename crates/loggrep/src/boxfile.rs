//! The CapsuleBox: LogGrep's on-disk container for one compressed log block
//! (§3, Figure 1) — metadata (static patterns, runtime patterns, stamps,
//! row maps) plus independently compressed Capsules.

use crate::capsule::{codec_by_id, CapsuleMeta, Layout, Stamp};
use crate::error::{Error, Result};
use crate::typemask::TypeMask;
use crate::vector::VectorMeta;
use crate::wire::{Reader, Writer};
use logparse::{Piece, Template};

/// Magic bytes of the container format.
const MAGIC: &[u8; 4] = b"LGRB";
/// Current format version. Version 2 added the CRC-32 integrity
/// trailer and requires the metadata stream to be fully consumed.
/// Version 3 added per-value occurrence counts to nominal vector
/// metadata (aggregate pushdown reads them instead of the Capsules).
const VERSION: u8 = 3;

/// Metadata of one group (all entries of one static pattern).
#[derive(Debug, Clone)]
pub struct GroupMeta {
    /// The static pattern.
    pub template: Template,
    /// Original line number of each row, ascending (the logical timestamps
    /// used to restore global order during reconstruction).
    pub line_numbers: Vec<u32>,
    /// One encoded vector per template slot.
    pub vectors: Vec<VectorMeta>,
}

impl GroupMeta {
    /// Number of rows (entries) in this group.
    pub fn rows(&self) -> u32 {
        self.line_numbers.len() as u32
    }
}

/// A compressed log block: all Capsules plus their metadata.
#[derive(Debug, Clone)]
pub struct CapsuleBox {
    /// Per-group metadata (index = group id = template id).
    pub groups: Vec<GroupMeta>,
    /// Capsule table; `VectorMeta` refers into it by id.
    pub capsules: Vec<CapsuleMeta>,
    /// Concatenated compressed Capsule payloads.
    pub blob: Vec<u8>,
    /// Number of lines in the original block.
    pub total_lines: u32,
    /// Size of the original block in bytes.
    pub raw_size: u64,
    /// Whether Capsules use fixed-length padding (config echo).
    pub fixed_length: bool,
}

impl CapsuleBox {
    /// Total serialized size in bytes (what the compression ratio counts).
    pub fn compressed_size(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serializes the box.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(MAGIC);
        w.put_u8(VERSION);
        w.put_bool(self.fixed_length);
        w.put_u32(self.total_lines);
        w.put_u64(self.raw_size);

        w.put_usize(self.groups.len());
        for g in &self.groups {
            let pieces = g.template.pieces();
            w.put_usize(pieces.len());
            for p in pieces {
                match p {
                    Piece::Static(s) => {
                        w.put_u8(0);
                        w.put_bytes(s);
                    }
                    Piece::Slot(i) => {
                        w.put_u8(1);
                        w.put_usize(*i);
                    }
                }
            }
            w.put_ascending_u32s(&g.line_numbers);
            w.put_usize(g.vectors.len());
            for v in &g.vectors {
                v.write(&mut w);
            }
        }

        w.put_usize(self.capsules.len());
        for c in &self.capsules {
            match c.layout {
                Layout::Padded { width } => {
                    w.put_u8(0);
                    w.put_u32(width);
                }
                Layout::Delimited => w.put_u8(1),
                Layout::Raw => w.put_u8(2),
            }
            w.put_u32(c.rows);
            c.stamp.write(&mut w);
            w.put_u64(c.offset);
            w.put_u64(c.clen);
            w.put_u8(c.codec);
        }

        w.put_bytes(&self.blob);
        let mut bytes = w.into_bytes();
        let crc = crate::wire::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Deserializes a box.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation, bad magic, a CRC-32
    /// trailer mismatch, or structural inconsistencies (e.g. capsule
    /// payload ranges outside the blob, group rows not summing to
    /// `total_lines`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        // The CRC-32 trailer goes first: any bit-level damage is caught
        // before the damaged bytes are interpreted structurally.
        let body_len = bytes
            .len()
            .checked_sub(4)
            .ok_or_else(|| Error::Corrupt("missing checksum trailer".into()))?;
        let body = bytes
            .get(..body_len)
            .ok_or_else(|| Error::Corrupt("missing checksum trailer".into()))?;
        let want = match bytes.get(body_len..) {
            Some([a, b, c, d]) => u32::from_le_bytes([*a, *b, *c, *d]),
            _ => return Err(Error::Corrupt("missing checksum trailer".into())),
        };
        if crate::wire::crc32(body) != want {
            return Err(Error::Corrupt("checksum mismatch".into()));
        }
        let mut r = Reader::new(body);
        if r.get_raw(4)? != MAGIC {
            return Err(Error::Corrupt("bad magic".into()));
        }
        let version = r.get_u8()?;
        if version != VERSION {
            return Err(Error::Corrupt(format!("unsupported version {version}")));
        }
        let fixed_length = r.get_bool()?;
        let total_lines = r.get_u32()?;
        let raw_size = r.get_u64()?;

        let ngroups = r.get_len(r.remaining())?;
        let mut groups = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let npieces = r.get_len(r.remaining())?;
            let mut pieces = Vec::with_capacity(npieces);
            let mut next_slot = 0usize;
            for _ in 0..npieces {
                match r.get_u8()? {
                    0 => pieces.push(Piece::Static(r.get_bytes()?.to_vec())),
                    1 => {
                        let i = r.get_usize()?;
                        if i != next_slot {
                            return Err(Error::Corrupt("non-sequential slots".into()));
                        }
                        next_slot += 1;
                        pieces.push(Piece::Slot(i));
                    }
                    t => return Err(Error::Corrupt(format!("bad piece tag {t}"))),
                }
            }
            let template = Template::from_pieces(pieces);
            let line_numbers = r.get_ascending_u32s()?;
            let nvec = r.get_len(r.remaining())?;
            if nvec != template.slots() {
                return Err(Error::Corrupt("vector/slot mismatch".into()));
            }
            let mut vectors = Vec::with_capacity(nvec);
            for _ in 0..nvec {
                vectors.push(VectorMeta::read(&mut r)?);
            }
            groups.push(GroupMeta {
                template,
                line_numbers,
                vectors,
            });
        }

        let ncaps = r.get_len(r.remaining())?;
        let mut capsules = Vec::with_capacity(ncaps);
        for _ in 0..ncaps {
            let layout = match r.get_u8()? {
                0 => {
                    let width = r.get_u32()?;
                    if width == 0 {
                        return Err(Error::Corrupt("zero-width capsule".into()));
                    }
                    Layout::Padded { width }
                }
                1 => Layout::Delimited,
                2 => Layout::Raw,
                t => return Err(Error::Corrupt(format!("bad layout tag {t}"))),
            };
            let rows = r.get_u32()?;
            let stamp = Stamp::read(&mut r)?;
            let offset = r.get_u64()?;
            let clen = r.get_u64()?;
            let codec = r.get_u8()?;
            capsules.push(CapsuleMeta {
                layout,
                rows,
                stamp,
                offset,
                clen,
                codec,
            });
        }

        let blob = r.get_bytes()?.to_vec();
        if r.remaining() != 0 {
            return Err(Error::Corrupt("trailing bytes after blob".into()));
        }
        // Validate capsule ranges and references up front so later accesses
        // cannot go out of bounds.
        for c in &capsules {
            let end = c
                .offset
                .checked_add(c.clen)
                .ok_or_else(|| Error::Corrupt("capsule range overflow".into()))?;
            if end > blob.len() as u64 {
                return Err(Error::Corrupt("capsule range outside blob".into()));
            }
            codec_by_id(c.codec)?;
        }
        let mut rows_total = 0u64;
        for g in &groups {
            let rows = g.rows();
            rows_total += u64::from(rows);
            for v in &g.vectors {
                for cid in v.capsules() {
                    if cid as usize >= capsules.len() {
                        return Err(Error::Corrupt("capsule id out of range".into()));
                    }
                }
                match v {
                    VectorMeta::Real { outlier_rows, .. } => {
                        // Outlier rows must be vector-local, strictly
                        // ascending, and in range — `pattern_row_map` and
                        // the outlier lookup in query exec rely on it.
                        let ascending = outlier_rows
                            .iter()
                            .zip(outlier_rows.iter().skip(1))
                            .all(|(a, b)| a < b);
                        if !ascending || outlier_rows.last().is_some_and(|&last| last >= rows) {
                            return Err(Error::Corrupt("outlier rows out of range".into()));
                        }
                    }
                    VectorMeta::Nominal {
                        patterns,
                        dict_len,
                        value_counts,
                        ..
                    } => {
                        // Region arithmetic must not overflow, and the
                        // per-pattern counts must sum to the dictionary
                        // length (the §5.2 direct-jump computation).
                        VectorMeta::dict_regions(patterns)?;
                        let counted: u64 =
                            patterns.iter().map(|p| u64::from(p.count)).sum();
                        if counted != u64::from(*dict_len) {
                            return Err(Error::Corrupt("dictionary count mismatch".into()));
                        }
                        // Each row stores exactly one dictionary index, so
                        // the per-value occurrence counts must sum to the
                        // group's row count; aggregate pushdown trusts them
                        // instead of reading the index Capsule.
                        let occurrences: u64 =
                            value_counts.iter().map(|&c| u64::from(c)).sum();
                        if occurrences != u64::from(rows) {
                            return Err(Error::Corrupt(
                                "dictionary value counts do not sum to rows".into(),
                            ));
                        }
                    }
                    VectorMeta::Plain { .. } => {}
                }
            }
            // Line numbers are ascending by wire construction; they must
            // also be strictly ascending (each row is a distinct line)
            // and in range.
            let strict = g
                .line_numbers
                .iter()
                .zip(g.line_numbers.iter().skip(1))
                .all(|(a, b)| a < b);
            if !strict {
                return Err(Error::Corrupt("duplicate line numbers".into()));
            }
            if let Some(&last) = g.line_numbers.last() {
                if last >= total_lines {
                    return Err(Error::Corrupt("line number out of range".into()));
                }
            }
        }
        // Groups partition the block's lines, so their row counts must sum
        // to `total_lines`; `Archive::line_index` sizes its table by it.
        if rows_total != u64::from(total_lines) {
            return Err(Error::Corrupt("group rows do not sum to total_lines".into()));
        }

        Ok(Self {
            groups,
            capsules,
            blob,
            total_lines,
            raw_size,
            fixed_length,
        })
    }

    /// Decompresses one Capsule payload.
    pub fn decompress_capsule(&self, id: u32) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decompress_capsule_into(id, &mut out)?;
        Ok(out)
    }

    /// Decompresses one Capsule payload into a caller-provided buffer
    /// (cleared first), reusing its capacity — the arena-friendly form the
    /// query engine's payload cache uses.
    pub fn decompress_capsule_into(&self, id: u32, out: &mut Vec<u8>) -> Result<()> {
        let meta = self
            .capsules
            .get(id as usize)
            .ok_or_else(|| Error::Corrupt("capsule id out of range".into()))?;
        let start = usize::try_from(meta.offset)
            .map_err(|_| Error::Corrupt("capsule offset overflow".into()))?;
        let clen = usize::try_from(meta.clen)
            .map_err(|_| Error::Corrupt("capsule length overflow".into()))?;
        let end = start
            .checked_add(clen)
            .ok_or_else(|| Error::Corrupt("capsule range overflow".into()))?;
        let payload = self
            .blob
            .get(start..end)
            .ok_or_else(|| Error::Corrupt("capsule range outside blob".into()))?;
        let codec = codec_by_id(meta.codec)?;
        codec.decompress_tracked_into(payload, out)?;
        Ok(())
    }
}

/// An opened CapsuleBox with a query engine attached.
///
/// See [`crate::engine::LogGrep`] for compression and
/// [`Archive::query`] for the grep-like interface.
#[derive(Debug)]
pub struct Archive {
    pub(crate) boxed: CapsuleBox,
    pub(crate) cache: crate::query::cache::QueryCache,
    pub(crate) use_query_cache: bool,
    pub(crate) use_stamps: bool,
    /// Lazily built map: line number → (group id, group row).
    line_index: std::sync::OnceLock<Vec<(u32, u32)>>,
    /// Recycled decompression buffers: queries decompress Capsules into
    /// these and return them when they finish, so repeated queries stop
    /// re-allocating megabytes of payload Vecs (see `query::exec::ExecCtx`).
    arena: parking_lot::Mutex<Vec<Vec<u8>>>,
}

/// Most buffers the arena will hold; beyond it, returned buffers are freed.
/// Bounds idle memory at `ARENA_MAX_BUFFERS ×` the largest payload while
/// still covering every Capsule of a typical block.
const ARENA_MAX_BUFFERS: usize = 64;

impl Archive {
    /// Opens an archive from serialized CapsuleBox bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(Self::from_box(CapsuleBox::from_bytes(bytes)?))
    }

    /// Opens an archive from an in-memory CapsuleBox.
    pub fn from_box(boxed: CapsuleBox) -> Self {
        open_archives_gauge().add(1);
        Self {
            boxed,
            cache: crate::query::cache::QueryCache::new(),
            use_query_cache: true,
            use_stamps: true,
            line_index: std::sync::OnceLock::new(),
            arena: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Takes a recycled decompression buffer (empty, capacity retained), or
    /// a fresh one when the arena is dry.
    pub(crate) fn take_buffer(&self) -> Vec<u8> {
        self.arena.lock().pop().unwrap_or_default()
    }

    /// Returns a buffer to the arena for the next query. The buffer
    /// is cleared here; its capacity is what gets recycled.
    pub(crate) fn return_buffer(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut arena = self.arena.lock();
        if arena.len() < ARENA_MAX_BUFFERS {
            arena.push(buf);
        }
    }

    /// Number of buffers currently parked in the decompression arena
    /// (test/telemetry visibility for the recycling path).
    pub fn arena_buffers(&self) -> usize {
        self.arena.lock().len()
    }

    /// The line-number → (group, row) map, built on first use.
    pub(crate) fn line_index(&self) -> &[(u32, u32)] {
        self.line_index.get_or_init(|| {
            // lint:allow(no-untrusted-prealloc) — from_bytes enforces Σ group rows == total_lines, so this allocation is bounded by the archive's actual row count
            let mut index = vec![(u32::MAX, u32::MAX); self.boxed.total_lines as usize];
            for (gid, g) in self.boxed.groups.iter().enumerate() {
                for (row, &lineno) in g.line_numbers.iter().enumerate() {
                    if let Some(slot) = index.get_mut(lineno as usize) {
                        *slot = (gid as u32, row as u32);
                    }
                }
            }
            index
        })
    }

    /// Disables/enables the query cache ("w/o cache" ablation).
    pub fn set_query_cache(&mut self, on: bool) {
        self.use_query_cache = on;
    }

    /// Disables/enables stamp filtering ("w/o stamp" ablation).
    pub fn set_stamps(&mut self, on: bool) {
        self.use_stamps = on;
    }

    /// Does nothing: reads are serial per block; kept for the benchmark
    /// package, remove with its call sites.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Caps the query cache at `entries` entries (LRU; `0` = unbounded).
    pub fn set_query_cache_entries(&mut self, entries: usize) {
        self.cache.set_capacity(entries);
    }

    /// Drops the query-result cache, so benchmarks can re-time a query cold.
    pub fn clear_caches(&self) {
        self.cache.clear();
    }

    /// Number of entries currently held by the query cache (test/telemetry
    /// visibility for the LRU bound).
    pub fn query_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Entries the query cache has evicted under its LRU bound so far.
    pub fn query_cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// The underlying box.
    pub fn capsule_box(&self) -> &CapsuleBox {
        &self.boxed
    }

    /// Number of lines stored.
    pub fn total_lines(&self) -> u32 {
        self.boxed.total_lines
    }
}

/// The `archive.open` gauge: archives currently open in this process
/// (every constructor counts up, [`Drop`] counts down).
fn open_archives_gauge() -> &'static telemetry::Gauge {
    static G: std::sync::OnceLock<&'static telemetry::Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| telemetry::gauge("archive.open"))
}

impl Drop for Archive {
    fn drop(&mut self) {
        open_archives_gauge().add(-1);
    }
}

/// Builds a `TypeMask` summary over a whole group's static text — used by
/// the §2.2-style strictness experiments.
pub fn group_static_mask(group: &GroupMeta) -> TypeMask {
    TypeMask::of(&group.template.static_text())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_box() -> CapsuleBox {
        // Hand-assemble a one-group, one-plain-vector box.
        let values: Vec<&[u8]> = vec![b"aa", b"b"];
        let (payload, layout, stamp, rows) = crate::capsule::build_payload(values, true);
        let codec = codec::by_name("store").unwrap();
        let compressed = codec.compress(&payload);
        let capsule = CapsuleMeta {
            layout,
            rows,
            stamp,
            offset: 0,
            clen: compressed.len() as u64,
            codec: 0,
        };
        let template = Template::from_pieces(vec![
            Piece::Static(b"v=".to_vec()),
            Piece::Slot(0),
        ]);
        CapsuleBox {
            groups: vec![GroupMeta {
                template,
                line_numbers: vec![0, 1],
                vectors: vec![VectorMeta::Plain { capsule: 0 }],
            }],
            capsules: vec![capsule],
            blob: compressed,
            total_lines: 2,
            raw_size: 9,
            fixed_length: true,
        }
    }

    #[test]
    fn roundtrip_serialization() {
        let b = tiny_box();
        let bytes = b.to_bytes();
        let got = CapsuleBox::from_bytes(&bytes).unwrap();
        assert_eq!(got.total_lines, 2);
        assert_eq!(got.raw_size, 9);
        assert_eq!(got.groups.len(), 1);
        assert_eq!(got.groups[0].rows(), 2);
        assert_eq!(got.capsules.len(), 1);
        let payload = got.decompress_capsule(0).unwrap();
        assert_eq!(payload, b"aab\0");
    }

    #[test]
    fn corrupt_bytes_error_not_panic() {
        let bytes = tiny_box().to_bytes();
        for cut in 0..bytes.len() {
            let _ = CapsuleBox::from_bytes(&bytes[..cut]);
        }
        let mut bad = bytes.clone();
        for i in 0..bad.len() {
            bad[i] ^= 0x1;
            let _ = CapsuleBox::from_bytes(&bad);
            bad[i] ^= 0x1;
        }
    }

    #[test]
    fn single_bit_flips_rejected_by_checksum() {
        let bytes = tiny_box().to_bytes();
        let mut bad = bytes.clone();
        for i in 0..bad.len() {
            for bit in [0x01u8, 0x10, 0x80] {
                bad[i] ^= bit;
                assert!(CapsuleBox::from_bytes(&bad).is_err(), "flip {i}:{bit:#x} accepted");
                bad[i] ^= bit;
            }
        }
    }

    #[test]
    fn rows_must_sum_to_total_lines() {
        let mut b = tiny_box();
        b.total_lines = 3; // Lies: the only group has 2 rows.
        let bytes = b.to_bytes(); // to_bytes stamps a valid CRC over the lie.
        assert!(CapsuleBox::from_bytes(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let bytes = tiny_box().to_bytes();
        let mut body = bytes[..bytes.len() - 4].to_vec();
        body.push(0xAB);
        let crc = crate::wire::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert!(CapsuleBox::from_bytes(&body).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = tiny_box().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            CapsuleBox::from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }
}
