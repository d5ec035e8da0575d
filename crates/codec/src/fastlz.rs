//! A fast byte-oriented LZ77 codec in an LZ4-style token format.
//!
//! This is the repository's stand-in for **zstd**, which CLP uses as its
//! second-stage compressor: much faster than [`crate::Deflate`] and
//! [`crate::LzmaLite`] in both directions, at a lower compression ratio.
//! The format is LZ4's block format in spirit: a token byte packs the
//! literal-run length and match length (with 255-continuation extension
//! bytes), followed by the literals and a 16-bit little-endian match offset.

use crate::lz77::{self, Lz77Params, MatchFinder, Token};
use crate::varint;
use crate::{Codec, CodecError};

const MIN_MATCH: u32 = 4;

/// The fast LZ codec. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct FastLz {
    params: Lz77Params,
}

impl Default for FastLz {
    fn default() -> Self {
        let mut params = Lz77Params::FAST;
        // Offsets are stored in 16 bits, so distances must stay <= 65535.
        params.window = 65_535;
        Self { params }
    }
}

fn put_ext_len(out: &mut Vec<u8>, mut extra: u32) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn get_ext_len(input: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let mut total = 0u32;
    loop {
        let b = *input
            .get(*pos)
            .ok_or_else(|| CodecError::new("fastlz: truncated length extension"))?;
        *pos += 1;
        total = total
            .checked_add(b as u32)
            .ok_or_else(|| CodecError::new("fastlz: length overflow"))?;
        if b != 255 {
            return Ok(total);
        }
    }
}

impl Codec for FastLz {
    fn name(&self) -> &'static str {
        "fastlz"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        varint::put_uvarint(&mut out, input.len() as u64);
        if input.is_empty() {
            return out;
        }
        let tokens = MatchFinder::new(input, self.params).tokenize();

        // Re-group the token stream into (literal run, match) sequences.
        let mut pos = 0usize; // Position in `input` of the next literal run.
        let mut lit_start = 0usize;
        let flush = |out: &mut Vec<u8>, lit: &[u8], m: Option<(u32, u32)>| {
            let lit_len = lit.len() as u32;
            let lit_nib = lit_len.min(15);
            let (match_stored, match_nib) = match m {
                Some((len, _)) => {
                    let stored = len - MIN_MATCH;
                    (stored, stored.min(15))
                }
                None => (0, 0),
            };
            out.push(((lit_nib as u8) << 4) | match_nib as u8);
            if lit_nib == 15 {
                put_ext_len(out, lit_len - 15);
            }
            out.extend_from_slice(lit);
            if let Some((_, dist)) = m {
                out.extend_from_slice(&(dist as u16).to_le_bytes());
                if match_nib == 15 {
                    put_ext_len(out, match_stored - 15);
                }
            }
        };
        for t in &tokens {
            match *t {
                Token::Literal(_) => pos += 1,
                Token::Match { len, dist } => {
                    flush(&mut out, &input[lit_start..pos], Some((len, dist)));
                    pos += len as usize;
                    lit_start = pos;
                }
            }
        }
        // Trailing literals (possibly empty) terminate the stream.
        flush(&mut out, &input[lit_start..pos], None);
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress_into(input, &mut out)?;
        Ok(out)
    }

    fn decompress_into(&self, input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.clear();
        let (expected_len, consumed) = varint::get_uvarint(input)
            .ok_or_else(|| CodecError::new("fastlz: truncated header"))?;
        let expected_len = expected_len as usize;
        if expected_len == 0 {
            return Ok(());
        }
        // Cap the preallocation: the declared length is untrusted input.
        out.reserve(expected_len.min(1 << 20));
        let mut pos = consumed;
        loop {
            let token = *input
                .get(pos)
                .ok_or_else(|| CodecError::new("fastlz: truncated token"))?;
            pos += 1;
            let mut lit_len = (token >> 4) as u32;
            if lit_len == 15 {
                lit_len += get_ext_len(input, &mut pos)?;
            }
            let lit_end = pos
                .checked_add(lit_len as usize)
                .ok_or_else(|| CodecError::new("fastlz: literal run overflow"))?;
            let lits = input
                .get(pos..lit_end)
                .ok_or_else(|| CodecError::new("fastlz: truncated literals"))?;
            out.extend_from_slice(lits);
            pos = lit_end;
            if out.len() > expected_len {
                return Err(CodecError::new("fastlz: output exceeds declared length"));
            }
            if out.len() == expected_len && pos == input.len() {
                return Ok(());
            }
            let Some((off, _)) = input.get(pos..).and_then(|t| t.split_first_chunk::<2>()) else {
                return Err(CodecError::new("fastlz: truncated offset"));
            };
            let dist = u16::from_le_bytes(*off) as usize;
            pos += 2;
            let mut match_len = (token & 0x0f) as u32;
            if match_len == 15 {
                match_len += get_ext_len(input, &mut pos)?;
            }
            let match_len = match_len + MIN_MATCH;
            if dist == 0 {
                // The final sequence stores no match; a zero distance with a
                // minimal match nibble can only come from that path.
                if pos == input.len() && out.len() == expected_len {
                    return Ok(());
                }
                return Err(CodecError::new("fastlz: zero distance"));
            }
            let match_len = match_len as usize;
            if out.len() + match_len > expected_len {
                return Err(CodecError::new("fastlz: output exceeds declared length"));
            }
            lz77::copy_match(out, dist, match_len)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = FastLz::default();
        let packed = c.compress(data);
        assert_eq!(c.decompress(&packed).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn roundtrip_basic() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcd");
        roundtrip(b"hello hello hello hello hello hello");
        roundtrip(&vec![b'r'; 300_000]);
    }

    #[test]
    fn roundtrip_long_literal_runs() {
        // > 15 literals forces the extension-byte path.
        let mut state = 99u32;
        let data: Vec<u8> = (0..1000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_long_matches() {
        // > 15+4 match length forces the match extension path.
        let mut data = b"0123456789abcdef".to_vec();
        for _ in 0..200 {
            let copy = data.clone();
            data.extend_from_slice(&copy[..copy.len().min(500)]);
        }
        data.truncate(50_000);
        roundtrip(&data);
    }

    #[test]
    fn trailing_literals_at_exact_end() {
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaz");
        roundtrip(b"abcabcabcabcabc");
    }

    #[test]
    fn corrupt_input_is_error_not_panic() {
        let c = FastLz::default();
        let packed = c.compress(b"the rain in spain the rain in spain");
        for cut in 0..packed.len() {
            let _ = c.decompress(&packed[..cut]);
        }
        let mut bad = packed.clone();
        for i in 0..bad.len() {
            bad[i] = bad[i].wrapping_add(0x41);
            let _ = c.decompress(&bad);
            bad[i] = bad[i].wrapping_sub(0x41);
        }
    }

    #[test]
    fn is_faster_format_than_deflate_on_ratio_tradeoff() {
        // Sanity: fastlz compresses worse than deflate on log text (it's the
        // speed-oriented codec), but still compresses.
        let mut data = Vec::new();
        for i in 0..3000 {
            data.extend_from_slice(format!("req={} status=OK latency={}us\n", i, i * 7).as_bytes());
        }
        let f = FastLz::default().compress(&data);
        let d = crate::Deflate::default().compress(&data);
        assert!(f.len() < data.len());
        assert!(d.len() < f.len(), "deflate {} vs fastlz {}", d.len(), f.len());
    }
}
