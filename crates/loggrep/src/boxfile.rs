//! The CapsuleBox: LogGrep's on-disk container for one compressed log block
//! (§3, Figure 1) — metadata (static patterns, runtime patterns, stamps,
//! row maps) plus independently compressed Capsules.

use crate::capsule::{codec_by_id, CapsuleMeta, Layout, Stamp};
use crate::error::{Error, Result};
use crate::typemask::TypeMask;
use crate::vector::VectorMeta;
use crate::wire::{Reader, Writer};
use logparse::{Piece, Template};
use std::cell::OnceCell;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Magic bytes of the container format.
const MAGIC: &[u8; 4] = b"LGRB";
/// Current format version. Version 2 added the CRC-32 integrity
/// trailer and requires the metadata stream to be fully consumed.
/// Version 3 added per-value occurrence counts to nominal vector
/// metadata (aggregate pushdown reads them instead of the Capsules).
/// Version 4 stores no line numbers for the implied group
/// ([`CapsuleBox::implied_group`]): open rebuilds them as the lines no
/// other group claims.
const VERSION: u8 = 4;

/// A block's largest group is implied when the other groups together hold
/// at most `1 / IMPLIED_MINORITY_DIVISOR` of its lines. The larger the
/// minority, the less filling the complement at open saves over decoding
/// the varints; 1/8 stays clear of the measured break-even (DESIGN.md
/// "CapsuleBox format" has the sweep).
const IMPLIED_MINORITY_DIVISOR: u64 = 8;

/// An implied box may claim at most this many lines per body byte: its
/// group's line numbers are allocated from a header field, not from bytes
/// read, so open refuses a larger claim before allocating. The catalog
/// stores at most ~0.35 lines per byte; a box past the bound (e.g. a
/// million identical slotless lines) is written explicit.
const MAX_IMPLIED_LINES_PER_BYTE: u64 = 16;

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

/// A group's static pattern: piece count, then each piece.
fn write_template(w: &mut Writer, template: &Template) {
    let pieces = template.pieces();
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
}

/// A group's line-number column: the row count, then (unless the group is
/// implied) the ascending line numbers as deltas.
fn write_line_numbers(w: &mut Writer, line_numbers: &[u32], implied: bool) {
    if implied {
        w.put_usize(line_numbers.len());
    } else {
        w.put_ascending_u32s(line_numbers);
    }
}

/// A group's vector count, then each vector's metadata.
fn write_vectors(w: &mut Writer, vectors: &[VectorMeta]) {
    w.put_usize(vectors.len());
    for v in vectors {
        v.write(w);
    }
}

/// The Capsule count, then each Capsule's layout, rows, stamp, payload
/// range and codec.
fn write_capsule_table(w: &mut Writer, capsules: &[CapsuleMeta]) {
    w.put_usize(capsules.len());
    for c in capsules {
        match c.layout {
            Layout::Padded { width } => {
                w.put_u8(0);
                w.put_u32(width);
            }
            Layout::Delimited => w.put_u8(1),
            Layout::Raw => w.put_u8(2),
        }
        w.put_u32(c.rows);
        c.stamp.write(w);
        w.put_u64(c.offset);
        w.put_u64(c.clen);
        w.put_u8(c.codec);
    }
}

/// Where the bytes of a serialized box ([`CapsuleBox::byte_map`]) or of a
/// `.lgb` file ([`crate::BlockFile::byte_map`]) go, section by section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteMap {
    /// Magic, version, flags, line and byte counts, group count, implied
    /// group.
    pub header: u64,
    /// Static patterns: each group's pieces.
    pub templates: u64,
    /// Each group's line-number column: count and delta varints (the
    /// implied group's count alone).
    pub line_numbers: u64,
    /// Runtime patterns of real vectors and dictionary patterns, with
    /// their sub-variable stamps.
    pub runtime_patterns: u64,
    /// Outlier row lists of real vectors.
    pub outlier_rows: u64,
    /// Per-value occurrence counts of dictionaries.
    pub value_counts: u64,
    /// The rest of the vector metadata: counts, tags, Capsule ids,
    /// dictionary sizes.
    pub vector_refs: u64,
    /// Capsule stamps: type mask and max length.
    pub stamps: u64,
    /// The rest of the Capsule table (count, layouts, rows, payload ranges,
    /// codec ids) and the payload region's length prefix.
    pub capsule_table: u64,
    /// Compressed Capsule payload bytes per codec name.
    pub payload: BTreeMap<&'static str, u64>,
    /// CRC-32 trailers.
    pub checksum: u64,
    /// `.lgb` container framing: the magic and one length per block.
    pub framing: u64,
}

impl ByteMap {
    /// Every section as `(name, bytes)`, payload as `payload.<codec>`, in
    /// file order.
    pub fn sections(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = [
            ("header", self.header),
            ("templates", self.templates),
            ("line_numbers", self.line_numbers),
            ("runtime_patterns", self.runtime_patterns),
            ("outlier_rows", self.outlier_rows),
            ("value_counts", self.value_counts),
            ("vector_refs", self.vector_refs),
            ("stamps", self.stamps),
            ("capsule_table", self.capsule_table),
        ]
        .into_iter()
        .map(|(name, bytes)| (name.to_string(), bytes))
        .collect();
        out.extend(
            self.payload
                .iter()
                .map(|(codec, bytes)| (format!("payload.{codec}"), *bytes)),
        );
        out.push(("checksum".into(), self.checksum));
        out.push(("framing".into(), self.framing));
        out
    }

    /// The sum of every section.
    pub fn total(&self) -> u64 {
        self.sections().iter().map(|(_, bytes)| bytes).sum()
    }

    /// Adds `other`'s bytes to this map, section by section.
    pub fn add(&mut self, other: &ByteMap) {
        self.header += other.header;
        self.templates += other.templates;
        self.line_numbers += other.line_numbers;
        self.runtime_patterns += other.runtime_patterns;
        self.outlier_rows += other.outlier_rows;
        self.value_counts += other.value_counts;
        self.vector_refs += other.vector_refs;
        self.stamps += other.stamps;
        self.capsule_table += other.capsule_table;
        for (&codec, &bytes) in &other.payload {
            *self.payload.entry(codec).or_default() += bytes;
        }
        self.checksum += other.checksum;
        self.framing += other.framing;
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

    /// The group whose line numbers [`Self::to_bytes`] leaves out, because
    /// they are exactly the lines no other group claims: the largest group
    /// (the lowest id among equals, so the choice is a function of the
    /// box), when the others together hold at most an eighth of the block's
    /// lines and the payload region alone keeps the box within 16 lines per
    /// byte (`MAX_IMPLIED_LINES_PER_BYTE`; the payload is a lower bound of
    /// the body the reader measures). `None` writes every column explicit.
    pub fn implied_group(&self) -> Option<usize> {
        // `max_by_key` keeps the last of equal maxima; reversed, the lowest id.
        let (gid, largest) = self
            .groups
            .iter()
            .enumerate()
            .rev()
            .max_by_key(|(_, g)| g.line_numbers.len())?;
        let rows: u64 = self
            .groups
            .iter()
            .map(|g| g.line_numbers.len() as u64)
            .sum();
        let others = rows.saturating_sub(largest.line_numbers.len() as u64);
        let lines = u64::from(self.total_lines);
        let minority = others.saturating_mul(IMPLIED_MINORITY_DIVISOR) <= lines;
        let bounded = lines <= MAX_IMPLIED_LINES_PER_BYTE.saturating_mul(self.blob.len() as u64);
        (minority && bounded).then_some(gid)
    }

    /// Serializes the box.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let implied = self.implied_group();
        self.write_header(&mut w, implied);
        for (gid, g) in self.groups.iter().enumerate() {
            write_template(&mut w, &g.template);
            write_line_numbers(&mut w, &g.line_numbers, implied == Some(gid));
            write_vectors(&mut w, &g.vectors);
        }
        write_capsule_table(&mut w, &self.capsules);
        w.put_bytes(&self.blob);
        let mut bytes = w.into_bytes();
        let crc = crate::wire::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Magic, version, flags, line and byte counts, group count, then the
    /// implied group's id (the group count for none).
    fn write_header(&self, w: &mut Writer, implied: Option<usize>) {
        w.put_raw(MAGIC);
        w.put_u8(VERSION);
        w.put_bool(self.fixed_length);
        w.put_u32(self.total_lines);
        w.put_u64(self.raw_size);
        w.put_usize(self.groups.len());
        w.put_usize(implied.unwrap_or(self.groups.len()));
    }

    /// Where [`Self::to_bytes`]' bytes go: each section is serialized on
    /// its own through the same writers and measured. The sections add up
    /// to the serialized size whenever the Capsules tile the payload
    /// region, as they do in every box [`crate::LogGrep`] builds.
    pub fn byte_map(&self) -> ByteMap {
        fn measure(write: impl FnOnce(&mut Writer)) -> u64 {
            let mut w = Writer::new();
            write(&mut w);
            w.len() as u64
        }
        let implied = self.implied_group();
        let mut map = ByteMap {
            header: measure(|w| self.write_header(w, implied)),
            checksum: 4,
            ..ByteMap::default()
        };
        for (gid, g) in self.groups.iter().enumerate() {
            map.templates += measure(|w| write_template(w, &g.template));
            map.line_numbers +=
                measure(|w| write_line_numbers(w, &g.line_numbers, implied == Some(gid)));
            let mut vectors = measure(|w| write_vectors(w, &g.vectors));
            for v in &g.vectors {
                let (patterns, outliers, counts) = match v {
                    VectorMeta::Plain { .. } => (0, 0, 0),
                    VectorMeta::Real {
                        pattern,
                        outlier_rows,
                        ..
                    } => (
                        measure(|w| pattern.write(w)),
                        measure(|w| w.put_ascending_u32s(outlier_rows)),
                        0,
                    ),
                    VectorMeta::Nominal {
                        patterns,
                        value_counts,
                        ..
                    } => (
                        patterns
                            .iter()
                            .map(|p| measure(|w| p.pattern.write(w)))
                            .sum(),
                        0,
                        value_counts
                            .iter()
                            .map(|&c| measure(|w| w.put_u32(c)))
                            .sum(),
                    ),
                };
                map.runtime_patterns += patterns;
                map.outlier_rows += outliers;
                map.value_counts += counts;
                vectors -= patterns + outliers + counts;
            }
            map.vector_refs += vectors;
        }
        map.stamps = self
            .capsules
            .iter()
            .map(|c| measure(|w| c.stamp.write(w)))
            .sum();
        map.capsule_table = measure(|w| write_capsule_table(w, &self.capsules)) - map.stamps
            + measure(|w| w.put_usize(self.blob.len()));
        for c in &self.capsules {
            let codec = codec_by_id(c.codec).map_or("unknown", |codec| codec.name());
            *map.payload.entry(codec).or_default() += c.clen;
        }
        map
    }

    /// Deserializes a box.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation, bad magic, a CRC-32
    /// trailer mismatch, or structural inconsistencies (e.g. capsule
    /// payload ranges outside the blob, group rows not summing to
    /// `total_lines`, two groups of an implied box claiming one line).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let _open = telemetry::span("open");
        telemetry::counter!("open.bytes", bytes.len() as u64);
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
        let checksum = telemetry::span("checksum");
        if crate::wire::crc32(body) != want {
            return Err(Error::Corrupt("checksum mismatch".into()));
        }
        drop(checksum);
        let _metadata = telemetry::span("metadata");
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
        let implied = r.get_usize()?;
        if implied > ngroups {
            return Err(Error::Corrupt("implied group out of range".into()));
        }
        // The implied group is filled from `total_lines`, not from bytes
        // read: an absurd claim is refused before anything is allocated.
        if implied < ngroups
            && u64::from(total_lines) > MAX_IMPLIED_LINES_PER_BYTE.saturating_mul(body.len() as u64)
        {
            return Err(Error::Corrupt(
                "implied lines exceed the body's bound".into(),
            ));
        }
        // Stored row count of the implied group; its `line_numbers` stay
        // empty until every explicit column has been read and checked.
        let mut implied_rows = 0u32;
        let mut groups = Vec::with_capacity(ngroups);
        for gid in 0..ngroups {
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
            let line_numbers = if gid == implied {
                implied_rows = r.get_u32()?;
                Vec::new()
            } else {
                r.get_ascending_u32s()?
            };
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
        for (gid, g) in groups.iter().enumerate() {
            let rows = if gid == implied {
                implied_rows
            } else {
                g.rows()
            };
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
                        if !strictly_ascending(outlier_rows)
                            || outlier_rows.last().is_some_and(|&last| last >= rows)
                        {
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
            // and in range. (The implied group's column is still empty.)
            if !strictly_ascending(&g.line_numbers) {
                return Err(Error::Corrupt("duplicate line numbers".into()));
            }
            if let Some(&last) = g.line_numbers.last() {
                if last >= total_lines {
                    return Err(Error::Corrupt("line number out of range".into()));
                }
            }
        }
        // Groups partition the block's lines, so their row counts must sum
        // to `total_lines`.
        if rows_total != u64::from(total_lines) {
            return Err(Error::Corrupt("group rows do not sum to total_lines".into()));
        }
        if implied < ngroups {
            let lines = unclaimed_lines(&groups, total_lines, implied_rows)?;
            if let Some(g) = groups.get_mut(implied) {
                g.line_numbers = lines;
            }
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
        Ok(codec.decompress_tracked(payload)?)
    }
}

/// One decompressed Capsule, as a query's payload table and the archive's
/// resident table hold it.
#[derive(Debug)]
pub(crate) struct Loaded {
    pub(crate) bytes: Vec<u8>,
    /// Row byte-ranges of a delimited Capsule, computed on first row access.
    pub(crate) ranges: OnceCell<Vec<(usize, usize)>>,
    /// Whether the query holding it took it from the resident table
    /// instead of decompressing it.
    pub(crate) was_resident: bool,
}

impl Loaded {
    /// Bytes this entry charges against [`RESIDENT_BUDGET_BYTES`].
    fn cost(&self) -> usize {
        let ranges = self.ranges.get().map_or(0, Vec::len);
        self.bytes.len() + ranges * std::mem::size_of::<(usize, usize)>()
    }
}

/// Decompressed bytes one open [`Archive`] keeps between queries: the sum
/// over its resident Capsules of payload length plus row-range table. What
/// a query holds while it runs is not counted — a full reconstruction needs
/// every payload at once whatever the budget. 8 MiB is an eighth of the
/// paper's 64 MiB block; DESIGN.md "Resident Capsules & cursor lifetimes"
/// has the sweep behind it.
pub const RESIDENT_BUDGET_BYTES: usize = 8 << 20;

/// The Capsules an [`Archive`] keeps decompressed between queries, least
/// recently used first out.
#[derive(Debug, Default)]
struct Resident {
    /// Capsule id → its payload and the tick of the query that last held it.
    entries: HashMap<u32, (Loaded, u64)>,
    /// Sum of the entries' [`Loaded::cost`]; at most the budget.
    bytes: usize,
    /// Counts put-backs: every Capsule one query returns shares a tick.
    tick: u64,
    evictions: u64,
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
    /// Decompressed Capsules kept between queries. A query *moves* an entry
    /// out while it runs and back when it ends (see `query::exec::Payloads`),
    /// so the lock is held for a table operation only — never across a
    /// decompression or a render.
    resident: Mutex<Resident>,
}

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
            cache: crate::query::cache::QueryCache::default(),
            use_query_cache: true,
            use_stamps: true,
            resident: Mutex::default(),
        }
    }

    /// Moves a Capsule out of the resident table, if it is there. Two
    /// queries never share an entry: the second to ask decompresses its own.
    pub(crate) fn take_resident(&self, id: u32) -> Result<Option<Loaded>> {
        // The "w/o cache" ablation keeps no state between queries at all.
        if !self.use_query_cache {
            return Ok(None);
        }
        let mut table = self.resident.lock().map_err(|_| {
            Error::Corrupt("a query panicked holding the resident-Capsule table".into())
        })?;
        let Some((mut loaded, _)) = table.entries.remove(&id) else {
            return Ok(None);
        };
        table.bytes -= loaded.cost();
        loaded.was_resident = true;
        Ok(Some(loaded))
    }

    /// Makes a finished query's Capsules resident, then evicts the least
    /// recently used entries (ties by Capsule id, so a repeated scan larger
    /// than the budget keeps hitting the same part of it) until the table
    /// is within [`RESIDENT_BUDGET_BYTES`]. A Capsule larger than the whole
    /// budget is dropped, and so is one another query made resident first.
    pub(crate) fn put_back_resident(&self, capsules: impl Iterator<Item = (u32, Loaded)>) {
        if !self.use_query_cache {
            return;
        }
        // A poisoned table takes nothing back: the buffers are freed.
        let Ok(mut table) = self.resident.lock() else {
            return;
        };
        let table = &mut *table;
        table.tick += 1;
        let mut evicted = 0u64;
        for (id, loaded) in capsules {
            let cost = loaded.cost();
            if cost > RESIDENT_BUDGET_BYTES {
                evicted += 1;
            } else if let Entry::Vacant(slot) = table.entries.entry(id) {
                slot.insert((loaded, table.tick));
                table.bytes += cost;
            }
        }
        if table.bytes > RESIDENT_BUDGET_BYTES {
            let mut oldest: Vec<(u64, u32)> = table
                .entries
                .iter()
                .map(|(&id, &(_, used))| (used, id))
                .collect();
            oldest.sort_unstable();
            for (_, id) in oldest {
                if table.bytes <= RESIDENT_BUDGET_BYTES {
                    break;
                }
                if let Some((loaded, _)) = table.entries.remove(&id) {
                    table.bytes -= loaded.cost();
                    evicted += 1;
                }
            }
        }
        if evicted > 0 {
            table.evictions += evicted;
            telemetry::counter!("query.resident.evictions", evicted);
        }
    }

    /// Decompressed bytes currently resident (test/telemetry visibility for
    /// the [`RESIDENT_BUDGET_BYTES`] bound).
    pub fn resident_bytes(&self) -> usize {
        self.resident.lock().map_or(0, |table| table.bytes)
    }

    /// Capsules the resident table has declined or evicted under its byte
    /// bound since the last [`Archive::clear_caches`].
    pub fn resident_evictions(&self) -> u64 {
        self.resident.lock().map_or(0, |table| table.evictions)
    }

    /// Disables/enables everything an archive remembers between queries —
    /// the query cache and the resident Capsules ("w/o cache" ablation).
    pub fn set_query_cache(&mut self, on: bool) {
        self.use_query_cache = on;
        if !on {
            self.clear_caches();
        }
    }

    /// Disables/enables stamp filtering ("w/o stamp" ablation).
    pub fn set_stamps(&mut self, on: bool) {
        self.use_stamps = on;
    }

    /// Does nothing: reads are serial per block; kept for the benchmark
    /// package, remove with its call sites.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Drops the query-result cache and every resident Capsule, so
    /// benchmarks can re-time a query cold.
    pub fn clear_caches(&self) {
        self.cache.clear();
        // Whatever state a panicked query left, overwriting it is valid.
        *self.resident.lock().unwrap_or_else(PoisonError::into_inner) = Resident::default();
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

/// Whether `values` strictly ascend. The fold has no early exit, so the
/// comparisons vectorize: open runs it over every row of the box.
fn strictly_ascending(values: &[u32]) -> bool {
    values
        .iter()
        .zip(values.iter().skip(1))
        .fold(true, |ok, (a, b)| ok & (a < b))
}

/// The implied group's line numbers: every line below `total_lines` that no
/// group in `groups` claims (the implied group's own column is empty), in
/// ascending order. The explicit columns are checked in range and summed
/// with `rows` to `total_lines` before this runs, so more unclaimed lines
/// than `rows` can only mean two groups claim one line.
fn unclaimed_lines(groups: &[GroupMeta], total_lines: u32, rows: u32) -> Result<Vec<u32>> {
    let claimed = groups.iter().flat_map(|g| g.line_numbers.iter().copied());
    let mut taken = line_bitmap(claimed, total_lines)?;
    // The lines past the end of the last word are no one's to fill.
    if let (Some(last), 1..) = (taken.last_mut(), total_lines % 64) {
        *last |= u64::MAX << (total_lines % 64);
    }
    let free: usize = taken.iter().map(|w| w.count_zeros() as usize).sum();
    if free != rows as usize {
        return Err(Error::Corrupt("two groups claim one line".into()));
    }
    let mut out = Vec::with_capacity(free);
    push_unclaimed(&taken, &mut out);
    Ok(out)
}

/// A bitset over the lines `0..total_lines`, one `u64` word per 64 lines,
/// with the bit of each of `lines` set (a line past the last word is
/// ignored).
pub(crate) fn line_bitmap(
    lines: impl IntoIterator<Item = u32>,
    total_lines: u32,
) -> Result<Vec<u64>> {
    let total =
        usize::try_from(total_lines).map_err(|_| Error::Corrupt("line count overflow".into()))?;
    let mut words = vec![0u64; total.div_ceil(64)];
    for line in lines {
        if let Some(word) = words.get_mut(line as usize / 64) {
            *word |= 1 << (line % 64);
        }
    }
    Ok(words)
}

/// `SET_BITS[b]`: the positions of byte `b`'s set bits, ascending, padded
/// to eight, and how many there are.
const SET_BITS: [([u8; 8], u8); 256] = {
    let mut table = [([0u8; 8], 0u8); 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut positions, mut count, mut bit) = (0u64, 0u8, 0);
        while bit < 8 {
            if byte >> bit & 1 != 0 {
                positions |= (bit as u64) << (8 * count);
                count += 1;
            }
            bit += 1;
        }
        table[byte] = (positions.to_le_bytes(), count); // lint:allow(no-panic-in-decode) — const-evaluated; byte < 256 by the loop bound
        byte += 1;
    }
    table
};

/// Appends, ascending, the index of every clear bit of `taken` (bit `i % 64`
/// of word `i / 64` is line `i`). A word with no bit set is one 64-line
/// range and a word with every bit set is skipped; a mixed word goes a byte
/// at a time through [`SET_BITS`], always writing eight candidates into a
/// stack buffer and keeping as many as the byte has free lines.
fn push_unclaimed(taken: &[u64], out: &mut Vec<u32>) {
    // 56 kept candidates at most before the last byte writes its eight.
    let mut buf = [0u32; 72];
    for (i, &word) in taken.iter().enumerate() {
        let base = (i as u32) << 6;
        match !word {
            0 => {}
            u64::MAX => out.extend(base..base + 64),
            free => {
                let mut kept = 0;
                for (j, byte) in free.to_le_bytes().into_iter().enumerate() {
                    let (Some((positions, count)), Some(slots)) =
                        (SET_BITS.get(usize::from(byte)), buf.get_mut(kept..kept + 8))
                    else {
                        continue;
                    };
                    let at = base + 8 * j as u32;
                    for (slot, &p) in slots.iter_mut().zip(positions) {
                        *slot = at + u32::from(p);
                    }
                    kept += usize::from(*count);
                }
                out.extend_from_slice(buf.get(..kept).unwrap_or_default());
            }
        }
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

    /// A box of slotless groups with these line-number columns over
    /// `total_lines`, and a payload region of `blob` bytes.
    fn columns_box(columns: &[Vec<u32>], total_lines: u32, blob: usize) -> CapsuleBox {
        CapsuleBox {
            groups: columns
                .iter()
                .enumerate()
                .map(|(gid, lines)| GroupMeta {
                    template: Template::from_pieces(vec![Piece::Static(
                        format!("t{gid}").into_bytes(),
                    )]),
                    line_numbers: lines.clone(),
                    vectors: Vec::new(),
                })
                .collect(),
            capsules: Vec::new(),
            blob: vec![0; blob],
            total_lines,
            raw_size: 0,
            fixed_length: true,
        }
    }

    /// Splits `0..total` into two columns, the second taking every
    /// `stride`-th line.
    fn two_columns(total: u32, stride: u32) -> Vec<Vec<u32>> {
        let (minor, major) = (0..total).partition(|l| l % stride == 0);
        vec![major, minor]
    }

    #[test]
    fn implied_group_rule() {
        // The minority at exactly 1/8 is implied, just above it is not.
        let at = columns_box(&two_columns(64, 8), 64, 64);
        assert_eq!(at.implied_group(), Some(0));
        let above = columns_box(&two_columns(63, 7), 63, 64);
        assert_eq!(above.implied_group(), None);
        // The largest group wins wherever it sits, the lowest id on a tie.
        let [major, minor] = <[Vec<u32>; 2]>::try_from(two_columns(64, 8)).unwrap();
        let swapped = columns_box(&[minor, major], 64, 64);
        assert_eq!(swapped.implied_group(), Some(1));
        let tied = columns_box(&[vec![], vec![]], 0, 0);
        assert_eq!(tied.implied_group(), Some(0));
        assert_eq!(columns_box(&[], 0, 0).implied_group(), None);
        // The payload region must cover a sixteenth of the lines.
        let lines = vec![(0..1600).collect::<Vec<u32>>()];
        assert_eq!(columns_box(&lines, 1600, 100).implied_group(), Some(0));
        assert_eq!(columns_box(&lines, 1600, 99).implied_group(), None);
        for boxed in [at, above, swapped, columns_box(&lines, 1600, 99)] {
            let got = CapsuleBox::from_bytes(&boxed.to_bytes()).unwrap();
            for (g, want) in got.groups.iter().zip(&boxed.groups) {
                assert_eq!(g.line_numbers, want.line_numbers);
            }
        }
    }

    /// A seeded xorshift generator.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn table_fill_equals_the_naive_complement() {
        let mut next = xorshift(0x0DDB_1A5E_5BAD_5EED);
        for total in [0usize, 1, 63, 64, 65, 129, 40_000] {
            // All taken, none taken, then taken with probability 1/2, 7/8,
            // 63/64 and 999/1000.
            for density in [None, Some(0), Some(2), Some(8), Some(64), Some(1000)] {
                let mut taken_line = |_: usize| match density {
                    None => true,
                    Some(0) => false,
                    Some(d) => !next().is_multiple_of(d),
                };
                let mut taken = vec![0u64; total.div_ceil(64)];
                let mut want = Vec::new();
                for line in 0..total {
                    if taken_line(line) {
                        taken[line / 64] |= 1 << (line % 64);
                    } else {
                        want.push(line as u32);
                    }
                }
                if let (Some(last), 1..) = (taken.last_mut(), total % 64) {
                    *last |= u64::MAX << (total % 64);
                }
                let mut got = Vec::new();
                push_unclaimed(&taken, &mut got);
                assert_eq!(got, want, "total {total} density {density:?}");
            }
        }
    }
}
