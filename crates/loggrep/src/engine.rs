//! The LogGrep engine: the compression pipeline of §3 (Parser → Extractor →
//! Assembler → Packer).

use crate::boxfile::{Archive, CapsuleBox, GroupMeta};
use crate::capsule::{build_payload, codec_id_by_name, CapsuleMeta, Layout, Stamp};
use crate::config::LogGrepConfig;
use crate::error::{Error, Result};
use crate::extract::nominal::write_index_into;
use crate::extract::{extract_vector, Extraction};
use crate::stats::ArchiveStats;
use crate::vector::VectorMeta;
use logparse::Parser;
use pool::Pool;
use std::time::Instant;

/// The LogGrep compressor.
///
/// # Examples
///
/// ```
/// use loggrep::{LogGrep, LogGrepConfig};
///
/// let engine = LogGrep::new(LogGrepConfig::default());
/// let boxed = engine.compress(b"a 1\na 2\n").unwrap();
/// assert_eq!(boxed.total_lines, 2);
/// ```
#[derive(Debug)]
pub struct LogGrep {
    config: LogGrepConfig,
}

/// One pending Capsule: its payload plus the metadata known at submission.
struct CapsuleJob {
    payload: Vec<u8>,
    layout: Layout,
    stamp: Stamp,
    rows: u32,
}

/// Accumulates Capsule *jobs* while assembling a box.
///
/// `push` only records the payload and assigns the id — the expensive codec
/// work happens in [`Packer::finish`], which fans the pure
/// [`encode_capsule`] stage out across the worker pool and then commits the
/// results **in submission order**. Capsule ids, metadata order, and blob
/// layout therefore depend only on the submission sequence, never on
/// scheduling: parallel and serial compression produce byte-identical
/// archives.
struct Packer<'a> {
    config: &'a LogGrepConfig,
    jobs: Vec<CapsuleJob>,
    main_codec_id: u8,
}

/// Sentinel "codec id" selecting the per-capsule cost model. Never written
/// to the wire: [`encode_capsule`] resolves it to a concrete codec id per
/// payload before the capsule is committed.
const CODEC_AUTO: u8 = u8::MAX;

/// The config name that selects [`CODEC_AUTO`].
pub(crate) const CODEC_NAME_AUTO: &str = "auto";

impl<'a> Packer<'a> {
    fn new(config: &'a LogGrepConfig) -> Result<Self> {
        let main_codec_id = if config.codec_name == CODEC_NAME_AUTO {
            CODEC_AUTO
        } else {
            codec_id_by_name(&config.codec_name)?
        };
        Ok(Self {
            config,
            jobs: Vec::new(),
            main_codec_id,
        })
    }

    /// Records one Capsule payload for encoding; returns its id.
    fn push(&mut self, payload: Vec<u8>, layout: Layout, stamp: Stamp, rows: u32) -> u32 {
        telemetry::counter!("pack.capsules", 1);
        let id = self.jobs.len() as u32;
        self.jobs.push(CapsuleJob {
            payload,
            layout,
            stamp,
            rows,
        });
        id
    }

    /// Builds a Capsule from values (padding per the config) and returns
    /// its id.
    fn push_values<'v, I>(&mut self, values: I) -> u32
    where
        I: IntoIterator<Item = &'v [u8]> + Clone,
    {
        let (payload, layout, stamp, rows) = build_payload(values, self.config.fixed_length);
        self.push(payload, layout, stamp, rows)
    }

    /// Builds the outlier Capsule: always delimited (outliers have wildly
    /// varying lengths and are always fully scanned anyway).
    fn push_outliers<'v, I>(&mut self, values: I) -> u32
    where
        I: IntoIterator<Item = &'v [u8]> + Clone,
    {
        let (payload, layout, stamp, rows) = build_payload(values, false);
        self.push(payload, layout, stamp, rows)
    }

    /// Number of Capsules recorded so far.
    fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Encodes all recorded Capsules (fanned out across `pool`) and commits
    /// them sequentially in submission order.
    fn finish(self, pool: &Pool) -> (Vec<CapsuleMeta>, Vec<u8>) {
        let main_codec_id = self.main_codec_id;
        let encoded = pool.map(&self.jobs, |_, job| {
            encode_capsule(&job.payload, main_codec_id)
        });
        let mut metas = Vec::with_capacity(self.jobs.len());
        let mut blob = Vec::new();
        for (job, (compressed, codec_id)) in self.jobs.iter().zip(&encoded) {
            metas.push(CapsuleMeta {
                layout: job.layout,
                rows: job.rows,
                stamp: job.stamp,
                offset: blob.len() as u64,
                clen: compressed.len() as u64,
                codec: *codec_id,
            });
            blob.extend_from_slice(compressed);
        }
        (metas, blob)
    }
}

/// Lines per parallel-parse chunk. Fixed (not derived from the pool
/// size) so chunk boundaries — and the per-chunk scratch reuse pattern —
/// never depend on the thread count.
const PARSE_CHUNK_LINES: usize = 2048;

/// Payloads below this size always use the store codec: headers dominate.
const MIN_CODEC_LEN: usize = 64;
/// Cost-model band: payloads up to this size may take LzmaLite.
const LZMA_BAND_MAX: usize = 4096;
/// Cost-model probe: bytes of payload sampled for the redundancy estimate.
const PROBE_LEN: usize = 4096;

/// The per-capsule codec cost model: picks a concrete codec id for one
/// payload. A **pure function of the payload bytes** — no clocks, no
/// shared state — so the choice (and therefore the archive) is identical
/// no matter which worker thread encodes the capsule.
///
/// `suite`'s `codec.<name>.*` layer metrics report what the picks cost and
/// bought on each workload. Thresholds come from the capsule-class
/// ratio-vs-speed table emitted by
/// `crates/bench/benches/micro_codecs.rs` (Log C, 4 MiB, this container):
///
/// * LzmaLite compresses at 2–12 MB/s vs Deflate's 25–37 MB/s, and its
///   ratio edge over Deflate is large only on the small dictionary-class
///   capsules (4.4× vs 2.3×); on the index class it is 13.9× vs 10.6×
///   and on plain capsules Deflate actually wins (3.29× vs 3.21×).
/// * So: LzmaLite only inside the small band (≤ [`LZMA_BAND_MAX`]) where
///   its absolute cost is bounded and its edge is largest, and only when
///   a FastLz probe confirms the payload is match-structured (dictionary
///   capsules probe ≥ 1.27×, sub-value noise probes ≈ 1.0×).
/// * Large payloads take Deflate, unless the probe of a strided sample
///   finds essentially no matches — then FastLz, whose attempt is ~5×
///   cheaper and whose miss is absorbed by the store fallback in
///   [`encode_capsule`].
fn cost_model_pick(payload: &[u8]) -> u8 {
    let fastlz = crate::capsule::codec_by_id(3).expect("known codec id");
    if payload.len() <= LZMA_BAND_MAX {
        // Small band: LzmaLite iff the probe shows match structure
        // (probe ratio ≥ 8/7), else Deflate.
        let probe = fastlz.compress(payload).len();
        return if probe.saturating_mul(8) <= payload.len().saturating_mul(7) {
            2 // lzma-lite
        } else {
            1 // deflate
        };
    }
    // Large band: probe a strided sample (head + middle) so a payload
    // whose redundancy only shows up later still registers.
    let head = payload.get(..PROBE_LEN / 2).unwrap_or(payload);
    let mid_at = payload.len() / 2;
    let mid = payload
        .get(mid_at..(mid_at + PROBE_LEN / 2).min(payload.len()))
        .unwrap_or_default();
    let sampled = head.len() + mid.len();
    let probe = fastlz.compress(head).len() + fastlz.compress(mid).len();
    if probe.saturating_mul(50) <= sampled.saturating_mul(49) {
        1 // deflate: enough match structure to pay for the deeper search
    } else {
        3 // fastlz: near-incompressible, take the cheap attempt
    }
}

/// The pure encode stage: compresses one Capsule payload, returning the
/// compressed bytes and the codec id actually used. Safe to run on any
/// worker thread — it touches no shared state beyond telemetry.
fn encode_capsule(payload: &[u8], main_codec_id: u8) -> (Vec<u8>, u8) {
    let _ctx = telemetry::context("compress");
    let _span = telemetry::span("encode");
    // Tiny payloads skip the heavy codec: headers would dominate.
    let codec_id = if payload.len() < MIN_CODEC_LEN {
        0
    } else if main_codec_id == CODEC_AUTO {
        cost_model_pick(payload)
    } else {
        main_codec_id
    };
    let codec = crate::capsule::codec_by_id(codec_id).expect("known codec id");
    let compressed = codec.compress_tracked(payload);
    if codec_id != 0 && compressed.len() >= payload.len() {
        // The codec expanded (or broke even on) an incompressible payload:
        // store wins on size and decodes for free. Still a pure function
        // of the payload, so thread-count determinism holds.
        let store = crate::capsule::codec_by_id(0).expect("known codec id");
        let stored = store.compress_tracked(payload);
        if stored.len() < compressed.len() {
            telemetry::counter!("pack.codec.store_fallback", 1);
            return (stored, 0);
        }
    }
    (compressed, codec_id)
}

impl LogGrep {
    /// Creates an engine with the given configuration.
    pub fn new(config: LogGrepConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LogGrepConfig {
        &self.config
    }

    /// Compresses one log block into a CapsuleBox.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedByte`] if the input contains NUL (the
    /// reserved pad byte), or a codec error on internal failure.
    pub fn compress(&self, raw: &[u8]) -> Result<CapsuleBox> {
        self.compress_block(raw, &Pool::new(self.config.threads)).map(|(b, _)| b)
    }

    /// Compresses and reports statistics. Measuring `compressed_size`
    /// serialises the box once, which [`LogGrep::compress`] does not pay.
    pub fn compress_with_stats(&self, raw: &[u8]) -> Result<(CapsuleBox, ArchiveStats)> {
        let (boxed, mut stats) = self.compress_block(raw, &Pool::new(self.config.threads))?;
        stats.compressed_size = boxed.compressed_size() as u64;
        Ok((boxed, stats))
    }

    /// The write pipeline for one block, fanning its parse / extract /
    /// encode stages out over `pool`; leaves `compressed_size` unset.
    pub(crate) fn compress_block(
        &self,
        raw: &[u8],
        pool: &Pool,
    ) -> Result<(CapsuleBox, ArchiveStats)> {
        if let Some(offset) = raw.iter().position(|&b| b == crate::PAD) {
            return Err(Error::UnsupportedByte { offset });
        }
        let start = Instant::now();
        let _compress_span = telemetry::span("compress");
        telemetry::counter!("compress.bytes_raw", raw.len() as u64);
        let lines: Vec<&[u8]> = split_lines(raw);

        // Parser: static patterns from a 5 % sample, then a full parse
        // fanned out over fixed-size line chunks. `merge_chunks`
        // concatenates per-chunk groups in chunk order, so the block — and
        // therefore the archive — is byte-identical for every thread count.
        let parsed = {
            let _span = telemetry::span("parse");
            let parser = {
                let _span = telemetry::span("train");
                Parser::train(&self.config.parser, lines.iter().copied())
            };
            let chunks: Vec<(usize, &[&[u8]])> =
                lines.chunks(PARSE_CHUNK_LINES.max(1)).enumerate().collect();
            let parts = pool.map(&chunks, |_, &(i, chunk)| {
                let _ctx = telemetry::context("compress");
                let _span = telemetry::span("parse.chunk");
                parser.parse_chunk(chunk.iter().copied(), (i * PARSE_CHUNK_LINES) as u32)
            });
            parser.merge_chunks(parts)
        };

        let mut stats = ArchiveStats {
            raw_size: raw.len() as u64,
            catch_all_lines: parsed.groups[logparse::CATCH_ALL as usize].rows() as u32,
            ..Default::default()
        };

        // Extractor (§4.1): every variable vector is extracted independently
        // — the outcome depends only on `(values, config, vector_id)` — so
        // the stage fans out across the pool in deterministic order.
        let mut extract_jobs: Vec<(usize, usize, u64)> = Vec::new();
        let mut vector_id = 0u64;
        for (tid, group) in parsed.groups.iter().enumerate() {
            if group.rows() == 0 {
                continue;
            }
            for slot in 0..group.vars.len() {
                vector_id += 1;
                extract_jobs.push((tid, slot, vector_id));
            }
        }
        let extractions = pool.map(&extract_jobs, |_, &(tid, slot, vid)| {
            let _ctx = telemetry::context("compress");
            let _span = telemetry::span("extract");
            extract_vector(&parsed.groups[tid].vars[slot], &self.config, vid)
        });

        // Assembler: walk groups in order, consuming the extractions in the
        // same order they were submitted, recording Capsule jobs.
        let _assemble_span = telemetry::span("assemble");
        let mut packer = Packer::new(&self.config)?;
        let mut groups = Vec::new();
        let mut extractions = extractions.into_iter();
        for (tid, group) in parsed.groups.iter().enumerate() {
            if group.rows() == 0 {
                continue;
            }
            let template = parsed.templates[tid].clone();
            let mut vectors = Vec::with_capacity(group.vars.len());
            for values in &group.vars {
                let extraction = extractions.next().expect("one extraction per vector");
                let meta = self.assemble_vector(values, extraction, &mut packer, &mut stats);
                vectors.push(meta);
            }
            groups.push(GroupMeta {
                template,
                line_numbers: group.line_numbers.clone(),
                vectors,
            });
        }
        stats.groups = groups.len();
        stats.capsules = packer.len();
        drop(_assemble_span);

        // Packer: encode every Capsule across the pool, commit in order.
        let (capsules, blob) = packer.finish(pool);

        let boxed = CapsuleBox {
            groups,
            capsules,
            blob,
            total_lines: parsed.total_lines,
            raw_size: raw.len() as u64,
            fixed_length: self.config.fixed_length,
        };
        stats.elapsed = start.elapsed();
        Ok((boxed, stats))
    }

    /// Compresses and opens the result as a queryable [`Archive`], with the
    /// configuration's ablation flags applied.
    pub fn compress_to_archive(&self, raw: &[u8]) -> Result<Archive> {
        let boxed = self.compress(raw)?;
        Ok(self.open(boxed))
    }

    /// Opens a CapsuleBox as an [`Archive`] with this configuration's query
    /// flags (stamps, cache).
    pub fn open(&self, boxed: CapsuleBox) -> Archive {
        let mut archive = Archive::from_box(boxed);
        archive.set_query_cache(self.config.use_query_cache);
        archive.set_stamps(self.config.use_stamps);
        archive
    }

    /// Assembles one variable vector from its extraction (the Assembler of
    /// §3): builds payloads and records Capsule jobs with the Packer.
    fn assemble_vector(
        &self,
        values: &logparse::Column,
        extraction: Extraction<'_>,
        packer: &mut Packer<'_>,
        stats: &mut ArchiveStats,
    ) -> VectorMeta {
        match extraction {
            Extraction::Real(ex) => {
                stats.real_vectors += 1;
                telemetry::counter!("extract.vectors.real", 1);
                let sub_caps: Vec<u32> = ex
                    .sub_values
                    .iter()
                    .map(|sv| packer.push_values(sv.iter().copied()))
                    .collect();
                let outlier_cap = packer.push_outliers(ex.outlier_values.iter().copied());
                VectorMeta::Real {
                    pattern: ex.pattern,
                    sub_caps,
                    outlier_cap,
                    outlier_rows: ex.outlier_rows,
                }
            }
            Extraction::Nominal(ex) => {
                stats.nominal_vectors += 1;
                telemetry::counter!("extract.vectors.nominal", 1);
                // Dictionary payload: regions padded per pattern width
                // (fixed mode) or newline-delimited (w/o fixed).
                let (dict_payload, dict_layout, dict_rows) = if self.config.fixed_length {
                    let cap: usize = ex
                        .patterns
                        .iter()
                        .map(|p| p.count as usize * p.max_len as usize)
                        .sum();
                    let mut payload = Vec::with_capacity(cap);
                    let mut di = 0usize;
                    for p in &ex.patterns {
                        for _ in 0..p.count {
                            let v = &ex.dict_values[di];
                            payload.extend_from_slice(v);
                            payload
                                .resize(payload.len() + (p.max_len as usize - v.len()), crate::PAD);
                            di += 1;
                        }
                    }
                    (payload, Layout::Raw, ex.dict_values.len() as u32)
                } else {
                    let cap: usize = ex.dict_values.iter().map(|v| v.len() + 1).sum();
                    let mut payload = Vec::with_capacity(cap);
                    for v in &ex.dict_values {
                        payload.extend_from_slice(v);
                        payload.push(b'\n');
                    }
                    (payload, Layout::Delimited, ex.dict_values.len() as u32)
                };
                let dict_stamp = Stamp::of(ex.dict_values.iter().map(|v| v.as_slice()));
                let dict_cap = packer.push(dict_payload, dict_layout, dict_stamp, dict_rows);

                // Index payload: fixed-width decimals (IdxLen digits),
                // written straight into one payload buffer instead of one
                // Vec per row. Every value is exactly `idx_len` digits
                // (`idx_len = decimal_width(dict_len - 1)`), so the stamp
                // and padded layout of `build_payload` are reproduced by
                // slicing the buffer back into rows.
                let fixed = self.config.fixed_length;
                let idx_w = ex.idx_len as usize; // decimal_width is >= 1.
                let stride = idx_w + usize::from(!fixed);
                let mut payload = Vec::with_capacity(ex.index.len() * stride);
                for &i in &ex.index {
                    write_index_into(i, ex.idx_len, &mut payload);
                    if !fixed {
                        payload.push(b'\n');
                    }
                }
                let stamp = Stamp::of(payload.chunks_exact(stride).map(|c| &c[..idx_w]));
                let layout = if fixed {
                    Layout::Padded {
                        width: stamp.max_len.max(1),
                    }
                } else {
                    Layout::Delimited
                };
                let index_cap = packer.push(payload, layout, stamp, ex.index.len() as u32);

                // Per-value occurrence counts: a histogram over the index
                // vector, kept in metadata so aggregates can rank values
                // without decompressing either Capsule.
                let mut value_counts = vec![0u32; ex.dict_values.len()];
                for &i in &ex.index {
                    if let Some(c) = value_counts.get_mut(i as usize) {
                        *c += 1;
                    }
                }

                VectorMeta::Nominal {
                    patterns: ex.patterns,
                    dict_cap,
                    index_cap,
                    idx_len: ex.idx_len,
                    dict_len: ex.dict_values.len() as u32,
                    value_counts,
                }
            }
            Extraction::Plain => {
                stats.plain_vectors += 1;
                telemetry::counter!("extract.vectors.plain", 1);
                let capsule = packer.push_values(values.iter());
                VectorMeta::Plain { capsule }
            }
        }
    }
}

/// Splits a raw block into lines (without trailing newlines). A trailing
/// newline does not produce a final empty line.
pub fn split_lines(raw: &[u8]) -> Vec<&[u8]> {
    let body = if raw.last() == Some(&b'\n') {
        &raw[..raw.len() - 1]
    } else {
        raw
    };
    if body.is_empty() && raw.len() <= 1 {
        return if raw.is_empty() { Vec::new() } else { vec![b""] };
    }
    body.split(|&b| b == b'\n').collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_lines_edges() {
        assert_eq!(split_lines(b""), Vec::<&[u8]>::new());
        assert_eq!(split_lines(b"\n"), vec![&b""[..]]);
        assert_eq!(split_lines(b"a"), vec![&b"a"[..]]);
        assert_eq!(split_lines(b"a\n"), vec![&b"a"[..]]);
        assert_eq!(split_lines(b"a\nb"), vec![&b"a"[..], b"b"]);
        assert_eq!(split_lines(b"a\n\nb\n"), vec![&b"a"[..], b"", b"b"]);
    }

    #[test]
    fn nul_bytes_rejected() {
        let engine = LogGrep::new(LogGrepConfig::default());
        let err = engine.compress(b"ab\0cd").unwrap_err();
        assert_eq!(err, Error::UnsupportedByte { offset: 2 });
    }

    #[test]
    fn empty_input_compresses() {
        let engine = LogGrep::new(LogGrepConfig::default());
        let boxed = engine.compress(b"").unwrap();
        assert_eq!(boxed.total_lines, 0);
        let archive = Archive::from_box(boxed);
        assert!(archive.reconstruct_all().unwrap().is_empty());
    }
}
