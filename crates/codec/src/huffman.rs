//! Canonical, length-limited Huffman coding.
//!
//! Code lengths are computed with a standard heap-built Huffman tree and then
//! clamped to [`MAX_CODE_LEN`] with a Kraft-sum repair pass, so the resulting
//! lengths always describe a valid prefix code. Codes are assigned
//! canonically (ordered by `(length, symbol)`), which lets the decoder be
//! reconstructed from the length table alone.

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum code length in bits. Matches DEFLATE's limit.
pub const MAX_CODE_LEN: u32 = 15;

/// Computes length-limited Huffman code lengths for the given frequencies.
///
/// Symbols with frequency zero get length zero (no code). If only one symbol
/// has a nonzero frequency it is assigned length 1 so the decoder can always
/// make progress.
pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let n = freqs.len();
    let mut lens = vec![0u32; n];
    let live: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match live.len() {
        0 => return lens,
        1 => {
            lens[live[0]] = 1;
            return lens;
        }
        _ => {}
    }

    // Node arena: leaves first, then internal nodes; parent links let us
    // read off depths without building an explicit tree structure.
    let mut parent: Vec<usize> = vec![usize::MAX; live.len()];
    let mut weights: Vec<u64> = live.iter().map(|&i| freqs[i]).collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| Reverse((w, i)))
        .collect();
    while heap.len() > 1 {
        let Reverse((w1, a)) = heap.pop().expect("heap has >= 2 items");
        let Reverse((w2, b)) = heap.pop().expect("heap has >= 2 items");
        let id = weights.len();
        weights.push(w1.saturating_add(w2));
        parent.push(usize::MAX);
        parent[a] = id;
        parent[b] = id;
        heap.push(Reverse((weights[id], id)));
    }

    // Depth of each leaf = number of parent hops to the root.
    for (leaf, &sym) in live.iter().enumerate() {
        let mut depth = 0u32;
        let mut node = leaf;
        while parent[node] != usize::MAX {
            node = parent[node];
            depth += 1;
        }
        lens[sym] = depth;
    }

    limit_lengths(&mut lens, MAX_CODE_LEN);
    lens
}

/// Clamps code lengths to `max` and repairs the Kraft sum so the lengths
/// still describe a complete-enough prefix code (sum of 2^-len <= 1).
fn limit_lengths(lens: &mut [u32], max: u32) {
    let unit = 1u64 << max; // Represent 2^-len as unit >> len.
    let mut kraft: u64 = lens
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| unit >> l.min(max))
        .sum();
    for l in lens.iter_mut() {
        if *l > max {
            *l = max;
        }
    }
    // Demote codes (increase length) until the Kraft inequality holds.
    while kraft > unit {
        // Find the longest code shorter than max and lengthen it.
        let victim = (0..lens.len())
            .filter(|&i| lens[i] > 0 && lens[i] < max)
            .max_by_key(|&i| lens[i])
            .expect("kraft overflow implies a code shorter than max exists");
        kraft -= unit >> lens[victim];
        lens[victim] += 1;
        kraft += unit >> lens[victim];
    }
}

/// Encoder table: canonical code bits (LSB-first as written to the stream)
/// and lengths per symbol.
#[derive(Debug, Clone)]
pub struct Encoder {
    codes: Vec<u32>,
    lens: Vec<u32>,
}

impl Encoder {
    /// Builds the canonical encoder from code lengths.
    pub fn from_lengths(lens: &[u32]) -> Self {
        let codes = canonical_codes(lens);
        Self {
            codes,
            lens: lens.to_vec(),
        }
    }

    /// Writes the code for `symbol`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `symbol` has no code (length 0).
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: usize) {
        let len = self.lens[symbol];
        debug_assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(self.codes[symbol] as u64, len);
    }

    /// Length in bits of the code for `symbol` (0 = no code).
    pub fn len_of(&self, symbol: usize) -> u32 {
        self.lens[symbol]
    }
}

/// Assigns canonical codes from lengths. Codes are bit-reversed so they can
/// be written LSB-first and decoded by reading one bit at a time.
fn canonical_codes(lens: &[u32]) -> Vec<u32> {
    let max = lens.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; (max + 1) as usize];
    for &l in lens {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; (max + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=max {
        code = (code + bl_count[(bits - 1) as usize]) << 1;
        next_code[bits as usize] = code;
    }
    lens.iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                reverse_bits(c, l)
            }
        })
        .collect()
}

/// The low `nbits` bits of `value`, reversed.
#[inline]
fn reverse_bits(value: u32, nbits: u32) -> u32 {
    value.reverse_bits().checked_shr(32 - nbits).unwrap_or(0)
}

/// Width in bits of the decoder's primary lookup table.
const PRIMARY_BITS: u32 = 10;

/// Decoder built from canonical code lengths.
///
/// Codes of up to [`PRIMARY_BITS`] bits decode with one table lookup on the
/// next [`PRIMARY_BITS`] bits of the stream: an entry is `symbol << 4 | len`
/// and every slot whose low `len` bits spell the code holds it. Longer
/// codes (and bit patterns no code claims) leave their slots zero and fall
/// back to the classic canonical loop (`first_code`/`first_symbol` per
/// length), one bit at a time, at most [`MAX_CODE_LEN`] iterations.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// count[l] = number of codes of length l.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
    /// `symbol << 4 | len` per [`PRIMARY_BITS`]-bit prefix; 0 = fall back.
    primary: Box<[u16; 1 << PRIMARY_BITS]>,
}

impl Decoder {
    /// Builds a decoder from code lengths.
    ///
    /// # Errors
    ///
    /// Returns an error if the lengths oversubscribe the code space (which
    /// would make decoding ambiguous) or the alphabet has more than 4096
    /// symbols (a table entry keeps the symbol in 12 bits).
    pub fn from_lengths(lens: &[u32]) -> Result<Self, CodecError> {
        if lens.len() > 1 << 12 {
            return Err(CodecError::new("huffman: alphabet too large"));
        }
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in lens.iter().filter(|&&l| l > 0) {
            *count
                .get_mut(l as usize)
                .ok_or_else(|| CodecError::new("huffman: code length exceeds limit"))? += 1;
        }
        // Validate the Kraft sum.
        let unit = 1u64 << MAX_CODE_LEN;
        let kraft: u64 = (1..=MAX_CODE_LEN)
            .zip(count.iter().skip(1))
            .map(|(l, &c)| u64::from(c) << (MAX_CODE_LEN - l))
            .sum();
        if kraft > unit {
            return Err(CodecError::new("huffman: oversubscribed code lengths"));
        }
        // Per length: the next canonical code and the next slot of
        // `symbols` (symbols sorted by (length, symbol)).
        let mut next = [(0u32, 0u32); MAX_CODE_LEN as usize + 1];
        let (mut code, mut index, mut shorter) = (0u32, 0u32, 0u32);
        for (slot, &c) in next.iter_mut().zip(&count).skip(1) {
            code = (code + shorter) << 1;
            *slot = (code, index);
            index += c;
            shorter = c;
        }
        let mut symbols = vec![0u32; index as usize];
        let mut primary = Box::new([0u16; 1 << PRIMARY_BITS]);
        for (symbol, &len) in lens.iter().enumerate().filter(|(_, &len)| len > 0) {
            let Some((code, index)) = next.get_mut(len as usize) else {
                continue; // Lengths were bounded while counting.
            };
            if let Some(slot) = symbols.get_mut(*index as usize) {
                *slot = symbol as u32;
            }
            if len <= PRIMARY_BITS {
                // Codes go out bit-reversed, i.e. in stream order: the code
                // is the low `len` bits of every slot it owns.
                let entry = (symbol as u16) << 4 | len as u16;
                let first = reverse_bits(*code, len) as usize;
                for slot in primary.iter_mut().skip(first).step_by(1 << len) {
                    *slot = entry;
                }
            }
            *code += 1;
            *index += 1;
        }
        Ok(Self {
            count,
            symbols,
            primary,
        })
    }

    /// Decodes one symbol from the reader.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or an invalid code.
    #[inline(always)]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let prefix = r.peek(PRIMARY_BITS) as usize;
        let entry = self.primary.get(prefix).copied().unwrap_or(0);
        let len = u32::from(entry & 0xf);
        if len == 0 {
            return self.decode_long(r);
        }
        r.consume(len)?;
        Ok(u32::from(entry >> 4))
    }

    /// The canonical bit-at-a-time decode: codes longer than the primary
    /// table is wide, and prefixes that belong to no code.
    fn decode_long(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let mut code: u32 = 0; // Code value, MSB-first semantics.
        let mut first: u32 = 0; // First canonical code of this length.
        let mut index: u32 = 0; // Index of first symbol of this length.
        for len in 1..=MAX_CODE_LEN {
            code |= r.read_bits(1)? as u32;
            let count = self.count.get(len as usize).copied().unwrap_or(0);
            if code < first + count {
                let off = index + (code - first);
                return self
                    .symbols
                    .get(off as usize)
                    .copied()
                    .ok_or_else(|| CodecError::new("huffman: invalid code"));
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(CodecError::new("huffman: invalid code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(freqs: &[u64], stream: &[usize]) {
        let lens = code_lengths(freqs);
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut w = BitWriter::new();
        for &s in stream {
            enc.encode(&mut w, s);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &s in stream {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn single_symbol_alphabet() {
        roundtrip(&[0, 5, 0], &[1, 1, 1, 1]);
    }

    #[test]
    fn two_symbols() {
        roundtrip(&[3, 7], &[0, 1, 1, 0, 1]);
    }

    #[test]
    fn skewed_distribution() {
        let freqs = [1000, 500, 250, 125, 60, 30, 15, 7, 3, 1];
        let stream: Vec<usize> = (0..freqs.len()).cycle().take(200).collect();
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn lengths_are_limited() {
        // A Fibonacci-like distribution forces deep trees without a limit.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let next = a + b;
            a = b;
            b = next;
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
        // Must still be a valid prefix code.
        assert!(Decoder::from_lengths(&lens).is_ok());
        let stream: Vec<usize> = (0..40).collect();
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn table_decode_equals_the_canonical_loop() {
        // Random valid length tables, short codes and long ones mixed: every
        // symbol must decode the same through the primary table as through
        // the bit-at-a-time loop, and the two must leave the reader at the
        // same bit.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut long_codes = 0;
        for round in 0..40 {
            let n = 2 + next(285) as usize;
            // Cubing skews the weights enough to push the rare symbols
            // past the primary table's width.
            let freqs: Vec<u64> = (0..n).map(|_| next(60).pow(3)).collect();
            let lens = code_lengths(&freqs);
            let live: Vec<usize> = (0..n).filter(|&s| lens[s] > 0).collect();
            if live.is_empty() {
                continue;
            }
            long_codes += lens.iter().filter(|&&l| l > PRIMARY_BITS).count();
            let enc = Encoder::from_lengths(&lens);
            let dec = Decoder::from_lengths(&lens).unwrap();
            let stream: Vec<usize> = (0..500).map(|_| live[next(live.len() as u64) as usize]).collect();
            let mut w = BitWriter::new();
            for &s in &stream {
                enc.encode(&mut w, s);
            }
            let buf = w.finish();
            let (mut fast, mut slow) = (BitReader::new(&buf), BitReader::new(&buf));
            for &s in &stream {
                assert_eq!(dec.decode(&mut fast).unwrap() as usize, s, "round {round}");
                assert_eq!(dec.decode_long(&mut slow).unwrap() as usize, s, "round {round}");
                assert_eq!(fast.remaining_bits(), slow.remaining_bits());
            }
        }
        assert!(long_codes > 100, "only {long_codes} codes took the fallback");
    }

    #[test]
    fn long_codes_take_the_fallback() {
        // Fibonacci weights: code lengths 1, 2, 3, ... up to the limit, so
        // the rare symbols are past the primary table and own no slot.
        let mut freqs = vec![0u64; 24];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut().rev() {
            *f = a;
            (a, b) = (b, a + b);
        }
        let lens = code_lengths(&freqs);
        let long: Vec<usize> = (0..freqs.len()).filter(|&s| lens[s] > PRIMARY_BITS).collect();
        assert!(long.len() >= 4, "lengths {lens:?}");
        let dec = Decoder::from_lengths(&lens).unwrap();
        assert!(dec.primary.iter().all(|&e| e == 0 || !long.contains(&usize::from(e >> 4))));
        let stream: Vec<usize> = long.iter().copied().chain(0..freqs.len()).collect();
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn kraft_validation_rejects_bad_lengths() {
        // Three codes of length 1 oversubscribe the space.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn optimal_for_uniform() {
        let lens = code_lengths(&[1, 1, 1, 1]);
        assert!(lens.iter().all(|&l| l == 2));
    }

    #[test]
    fn empty_and_zero_freqs() {
        assert!(code_lengths(&[]).is_empty());
        assert_eq!(code_lengths(&[0, 0, 0]), vec![0, 0, 0]);
    }
}
