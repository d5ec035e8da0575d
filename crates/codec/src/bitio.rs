//! LSB-first bit-level I/O, in the style used by DEFLATE.
//!
//! Bits are packed into bytes starting at the least-significant bit; multi-bit
//! values are written least-significant-bit first, so
//! `write_bits(0b101, 3)` followed by `write_bits(0b11, 2)` produces the byte
//! `0b000_11_101`.

use crate::CodecError;

/// Accumulates bits into a byte buffer, LSB-first.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits accumulated but not yet flushed into `bytes` (low bits valid).
    acc: u64,
    /// Number of valid bits in `acc` (always < 8 after `flush_acc`).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `count` bits of `value` (LSB first). `count <= 57`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `count > 57` or `value` has bits set above
    /// `count`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 57, "bit run too long: {count}");
        debug_assert!(
            count == 64 || value < (1u64 << count),
            "value {value:#x} does not fit in {count} bits"
        );
        self.acc |= value << self.nbits;
        self.nbits += count;
        while self.nbits >= 8 {
            self.bytes.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Number of complete bytes written so far (excluding pending bits).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Pads with zero bits to a byte boundary and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.bytes.push((self.acc & 0xff) as u8);
        }
        self.bytes
    }
}

/// Reads bits from a byte buffer, LSB-first (mirror of [`BitWriter`]).
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte index to refill from.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Tops the accumulator up to at least 57 bits while input remains:
    /// one 8-byte little-endian load when that many bytes are left, a byte
    /// loop over the tail otherwise. Callers refill only when short of a
    /// request, so `nbits <= 56` here. The wide load may deposit bits of a
    /// byte it does not yet count in `nbits`; the next refill ORs the same
    /// bits onto the same positions, so they are never wrong, only early.
    #[inline]
    fn refill(&mut self) {
        debug_assert!(self.nbits <= 56);
        if let Some(chunk) = self.bytes.get(self.pos..).and_then(|t| t.first_chunk::<8>()) {
            self.acc |= u64::from_le_bytes(*chunk) << self.nbits;
            let whole = (64 - self.nbits) >> 3;
            self.pos += whole as usize;
            self.nbits += whole * 8;
            return;
        }
        while self.nbits <= 56 {
            let Some(&b) = self.bytes.get(self.pos) else { break };
            self.acc |= u64::from(b) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// The next `count` bits (LSB-first) without consuming them; bits past
    /// the end of the stream read as zero, and [`BitReader::consume`]
    /// reports the truncation. `count <= 57`.
    #[inline(always)]
    pub fn peek(&mut self, count: u32) -> u64 {
        debug_assert!(count <= 57);
        if self.nbits < count {
            self.refill();
        }
        self.acc & ((1u64 << count) - 1)
    }

    /// Drops `count` bits, normally ones just inspected with
    /// [`BitReader::peek`].
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than `count` bits remain.
    #[inline(always)]
    pub fn consume(&mut self, count: u32) -> Result<(), CodecError> {
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(CodecError::new("bit stream truncated"));
            }
        }
        self.acc >>= count;
        self.nbits -= count;
        Ok(())
    }

    /// Reads `count` bits (LSB-first). `count <= 57`.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than `count` bits remain.
    #[inline(always)]
    pub fn read_bits(&mut self, count: u32) -> Result<u64, CodecError> {
        let value = self.peek(count);
        self.consume(count)?;
        Ok(value)
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? != 0)
    }

    /// Number of bits still available (including buffered padding bits).
    pub fn remaining_bits(&self) -> usize {
        self.nbits as usize + (self.bytes.len() - self.pos) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let values: Vec<(u64, u32)> = vec![
            (0b1, 1),
            (0b0, 1),
            (0b101, 3),
            (0xdead, 16),
            (0x1f_ffff, 21),
            (0, 7),
            (1, 57),
            (0x123456789, 36),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
    }

    #[test]
    #[allow(clippy::unusual_byte_groupings)] // grouped as padding|write2|write1
    fn lsb_first_layout_matches_deflate_convention() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11, 2);
        let buf = w.finish();
        assert_eq!(buf, vec![0b000_11_101]);
    }

    #[test]
    fn peek_then_consume_equals_read_bits_at_every_width() {
        // Seeded bytes, seeded widths: the wide refill, the tail loop and
        // the hand-over between them all have to agree with a bit-by-bit
        // reference, for streams shorter and longer than one refill.
        let mut state = 0x1234_5678_9abc_def1u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 64, 257] {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let bit = |i: usize| u64::from(bytes[i / 8] >> (i % 8) & 1);
            let mut r = BitReader::new(&bytes);
            let mut at = 0usize;
            loop {
                let width = (next() % 58) as u32;
                let left = len * 8 - at;
                let want = (0..(width as usize).min(left)).fold(0u64, |v, i| v | bit(at + i) << i);
                assert_eq!(r.peek(width), want, "len {len} at {at} width {width}");
                if width as usize > left {
                    assert!(r.consume(width).is_err());
                    break;
                }
                r.consume(width).unwrap();
                at += width as usize;
                assert_eq!(r.remaining_bits(), len * 8 - at);
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let mut w = BitWriter::new();
        w.write_bits(0xff, 8);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        r.read_bits(8).unwrap();
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn empty_reader_has_no_bits() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.remaining_bits(), 0);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn many_single_bits() {
        let mut w = BitWriter::new();
        let bits: Vec<bool> = (0..1000).map(|i| (i * 7) % 3 == 0).collect();
        for &b in &bits {
            w.write_bit(b);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &b in &bits {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }
}
