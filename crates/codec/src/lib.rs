//! From-scratch compression codecs used as LogGrep's compression substrate.
//!
//! The LogGrep paper compresses Capsules with LZMA (7-zip), compares against
//! a gzip baseline, and against CLP which uses zstd as its second-stage
//! compressor. None of those implementations are available to this offline
//! reproduction, so this crate implements three codecs with the same
//! *relative* characteristics from first principles:
//!
//! * [`Deflate`] — LZ77 (32 KiB window) + canonical Huffman coding. Plays the
//!   role of **gzip**: moderate ratio, fast.
//! * [`LzmaLite`] — LZ77 (1 MiB window) + adaptive binary range coder with
//!   context modeling. Plays the role of **LZMA**: best ratio, slowest.
//! * [`FastLz`] — byte-oriented LZ77 in an LZ4-style token format. Plays the
//!   role of **zstd** in CLP: fastest, lowest ratio.
//!
//! All codecs are self-framing: the compressed buffer records the
//! uncompressed length, so [`Codec::decompress`] needs no side information.
//!
//! # Examples
//!
//! ```
//! use codec::{Codec, Deflate};
//!
//! let data = b"the quick brown fox jumps over the lazy dog, the quick brown fox";
//! let codec = Deflate::default();
//! let packed = codec.compress(data);
//! assert_eq!(codec.decompress(&packed).unwrap(), data);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bitio;
pub mod deflate;
pub mod fastlz;
pub mod huffman;
pub mod lz77;
pub mod lzma_lite;
pub mod rangecoder;
pub mod varint;

use std::fmt;

pub use deflate::Deflate;
pub use fastlz::FastLz;
pub use lzma_lite::LzmaLite;

/// Error produced when decompressing a corrupt or truncated buffer.
///
/// Compression itself is infallible: every byte sequence can be compressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of what went wrong.
    pub reason: String,
}

impl CodecError {
    /// Creates a new error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.reason)
    }
}

impl std::error::Error for CodecError {}

/// A lossless, self-framing compression codec.
///
/// Implementations must guarantee `decompress(&compress(x)) == x` for every
/// input `x`, and must never panic on arbitrary (possibly corrupt)
/// `decompress` input — corruption is reported via [`CodecError`].
pub trait Codec: Send + Sync {
    /// Short stable name used in experiment output (e.g. `"lzma-lite"`).
    fn name(&self) -> &'static str;

    /// Compresses `input` into a self-framing buffer.
    fn compress(&self, input: &[u8]) -> Vec<u8>;

    /// Decompresses a buffer produced by [`Codec::compress`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the buffer is truncated or corrupt.
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError>;

    /// Decompresses into a caller-provided buffer, reusing its capacity.
    ///
    /// `out` is cleared first; on error its contents are unspecified. The
    /// built-in codecs all override this with an allocation-free decode so
    /// a caller can recycle one buffer across payloads; the
    /// default forwards to [`Codec::decompress`] and moves the result.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the buffer is truncated or corrupt.
    fn decompress_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        *out = self.decompress(input)?;
        Ok(())
    }

    /// [`Codec::compress`] plus per-codec byte accounting.
    ///
    /// When telemetry is enabled, records `codec.<name>.compress.bytes_in`
    /// / `.bytes_out` counters; otherwise identical to `compress`. Pipeline
    /// call sites (the Capsule packer) use this so `--trace` can break
    /// stored bytes down by codec.
    fn compress_tracked(&self, input: &[u8]) -> Vec<u8> {
        let out = self.compress(input);
        if telemetry::enabled() {
            let name = self.name();
            telemetry::counter(&format!("codec.{name}.compress.bytes_in")).add(input.len() as u64);
            telemetry::counter(&format!("codec.{name}.compress.bytes_out")).add(out.len() as u64);
        }
        out
    }

    /// [`Codec::decompress`] plus per-codec byte accounting
    /// (`codec.<name>.decompress.bytes_in` / `.bytes_out`).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the buffer is truncated or corrupt.
    fn decompress_tracked(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let out = self.decompress(input)?;
        if telemetry::enabled() {
            let name = self.name();
            telemetry::counter(&format!("codec.{name}.decompress.bytes_in"))
                .add(input.len() as u64);
            telemetry::counter(&format!("codec.{name}.decompress.bytes_out"))
                .add(out.len() as u64);
        }
        Ok(out)
    }
}

/// The identity codec: stores data uncompressed (behind a length header).
///
/// Used by ablations and as the stored-fields format of the MiniEs baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct Store;

impl Codec for Store {
    fn name(&self) -> &'static str {
        "store"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() + 5);
        varint::put_uvarint(&mut out, input.len() as u64);
        out.extend_from_slice(input);
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(input, &mut out)?;
        Ok(out)
    }

    fn decompress_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.clear();
        let (len, consumed) = varint::get_uvarint(input)
            .ok_or_else(|| CodecError::new("store: truncated length header"))?;
        let body = input.get(consumed..).unwrap_or_default();
        if body.len() != len as usize {
            return Err(CodecError::new(format!(
                "store: length mismatch (header {} vs body {})",
                len,
                body.len()
            )));
        }
        out.extend_from_slice(body);
        Ok(())
    }
}

/// Enumerates the codecs by name, for CLI/bench selection.
///
/// Returns `None` for an unknown name.
pub fn by_name(name: &str) -> Option<Box<dyn Codec>> {
    match name {
        "store" => Some(Box::new(Store)),
        "deflate" | "gzip" => Some(Box::new(Deflate::default())),
        "lzma-lite" | "lzma" => Some(Box::new(LzmaLite::default())),
        "fastlz" | "zstd" => Some(Box::new(FastLz::default())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_roundtrip() {
        let c = Store;
        for data in [&b""[..], b"a", b"hello world"] {
            assert_eq!(c.decompress(&c.compress(data)).unwrap(), data);
        }
    }

    #[test]
    fn store_rejects_truncation() {
        let c = Store;
        let packed = c.compress(b"hello world");
        assert!(c.decompress(&packed[..packed.len() - 1]).is_err());
        assert!(c.decompress(&[]).is_err());
    }

    #[test]
    fn tracked_hooks_record_per_codec_bytes() {
        telemetry::set_enabled(true);
        let c = Store;
        let data = b"tracked roundtrip payload";
        let packed = c.compress_tracked(data);
        let unpacked = c.decompress_tracked(&packed).unwrap();
        assert_eq!(unpacked, data);
        telemetry::set_enabled(false);
        let snap = telemetry::snapshot();
        assert!(snap.counter("codec.store.compress.bytes_in") >= data.len() as u64);
        assert!(snap.counter("codec.store.compress.bytes_out") >= packed.len() as u64);
        assert!(snap.counter("codec.store.decompress.bytes_out") >= data.len() as u64);
    }

    #[test]
    fn by_name_resolves_all() {
        for name in ["store", "deflate", "gzip", "lzma-lite", "fastlz", "zstd"] {
            assert!(by_name(name).is_some(), "missing codec {name}");
        }
        assert!(by_name("bogus").is_none());
    }

    #[test]
    fn decompress_into_reuses_dirty_buffers() {
        // A recycled buffer arrives full of stale bytes; every codec
        // must clear it and produce the same output as `decompress`.
        let data: Vec<u8> = (0..997u32).map(|i| (i * 31 % 251) as u8).collect();
        for name in ["store", "deflate", "lzma-lite", "fastlz"] {
            let c = by_name(name).unwrap();
            let packed = c.compress(&data);
            let mut buf = vec![0xAB; 4096];
            c.decompress_into(&packed, &mut buf).unwrap();
            assert_eq!(buf, data, "codec {name}");
            // Empty payloads must clear the buffer too.
            let empty = c.compress(b"");
            c.decompress_into(&empty, &mut buf).unwrap();
            assert!(buf.is_empty(), "codec {name}");
        }
    }
}
