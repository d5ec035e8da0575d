//! Hand-rolled binary serialization for the CapsuleBox on-disk format.
//!
//! All integers are unsigned LEB128 varints (via [`codec::varint`]); byte
//! strings are length-prefixed. The reader checks bounds on every access so
//! corrupt buffers produce [`Error::Corrupt`] instead of panics.

use crate::error::{Error, Result};
use codec::varint;

/// An append-only wire writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a varint.
    pub fn put_u64(&mut self, v: u64) {
        varint::put_uvarint(&mut self.buf, v);
    }

    /// Appends a `u32` as a varint.
    pub fn put_u32(&mut self, v: u32) {
        self.put_u64(v as u64);
    }

    /// Appends a `usize` as a varint.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a single raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a delta-encoded ascending `u32` sequence.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the sequence is not ascending.
    pub fn put_ascending_u32s(&mut self, values: &[u32]) {
        self.put_usize(values.len());
        let mut prev = 0u32;
        for (i, &v) in values.iter().enumerate() {
            if i == 0 {
                self.put_u32(v);
            } else {
                debug_assert!(v >= prev, "sequence not ascending");
                self.put_u32(v - prev);
            }
            prev = v;
        }
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked wire reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn corrupt(what: &str) -> Error {
        Error::Corrupt(format!("truncated {what}"))
    }

    /// Reads a varint.
    pub fn get_u64(&mut self) -> Result<u64> {
        let tail = self.buf.get(self.pos..).unwrap_or_default();
        let (v, n) = varint::get_uvarint(tail).ok_or_else(|| Self::corrupt("varint"))?;
        self.pos += n;
        Ok(v)
    }

    /// Reads a length/count varint and rejects anything above `max`.
    ///
    /// This is the required entry point for any value that sizes an
    /// allocation: callers pass the tightest bound they know (usually
    /// [`Self::remaining`], since every wire element occupies at least
    /// one byte), so a four-byte varint can never reserve gigabytes.
    pub fn get_len(&mut self, max: usize) -> Result<usize> {
        let n = self.get_usize()?;
        if n > max {
            return Err(Error::Corrupt(format!("length {n} exceeds bound {max}")));
        }
        Ok(n)
    }

    /// Reads a `u32` varint, rejecting overflow.
    pub fn get_u32(&mut self) -> Result<u32> {
        let v = self.get_u64()?;
        u32::try_from(v).map_err(|_| Error::Corrupt("u32 overflow".into()))
    }

    /// Reads a `usize` varint, rejecting overflow.
    pub fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| Error::Corrupt("usize overflow".into()))
    }

    /// Reads one raw byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| Self::corrupt("byte"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a `bool` byte (anything nonzero is true).
    pub fn get_bool(&mut self) -> Result<bool> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_usize()?;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Self::corrupt("byte string"))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| Self::corrupt("byte string"))?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a delta-encoded ascending `u32` sequence.
    pub fn get_ascending_u32s(&mut self) -> Result<Vec<u32>> {
        // Each entry takes at least one byte, so `remaining` bounds the
        // count: an impossible claim is rejected before reserving.
        let n = self.get_len(self.remaining())?;
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u32;
        for i in 0..n {
            let d = self.get_u32()?;
            let v = if i == 0 {
                d
            } else {
                prev.checked_add(d)
                    .ok_or_else(|| Error::Corrupt("ascending overflow".into()))?
            };
            out.push(v);
            prev = v;
        }
        Ok(out)
    }

    /// Reads `len` raw bytes.
    pub fn get_raw(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Self::corrupt("raw bytes"))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| Self::corrupt("raw bytes"))?;
        self.pos = end;
        Ok(s)
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// Slicing-by-8 tables of the standard CRC-32 (IEEE 802.3, reflected, poly
/// 0xEDB88320): `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so table 0 is the classic bytewise table.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        // One more zero byte run through the register per table.
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                bit += 1;
            }
            tables[k][n] = c; // lint:allow(no-panic-in-decode) — const-evaluated; k < 8 and n < 256 by the loop bounds
            k += 1;
        }
        n += 1;
    }
    tables
};

/// Table `k`'s entry for `byte`.
#[inline]
fn crc_lane(k: usize, byte: u8) -> u32 {
    CRC_TABLES[k][usize::from(byte)] // lint:allow(no-panic-in-decode) — every caller passes a literal k < 8; a u8 indexes 256 entries
}

/// CRC-32 checksum of `bytes`, used as the CapsuleBox integrity
/// trailer: it detects all single-bit flips and virtually all burst
/// corruption, so a damaged archive fails fast with [`Error::Corrupt`]
/// instead of parsing into a structurally-valid-but-wrong state.
///
/// Eight bytes per step: the register is folded into the first four, and
/// each byte looks up the table for its distance from the end of the step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let Ok([b0, b1, b2, b3, b4, b5, b6, b7]) = <[u8; 8]>::try_from(chunk) else {
            continue; // `chunks_exact(8)` yields only 8-byte slices.
        };
        let [c0, c1, c2, c3] = c.to_le_bytes();
        c = crc_lane(7, b0 ^ c0)
            ^ crc_lane(6, b1 ^ c1)
            ^ crc_lane(5, b2 ^ c2)
            ^ crc_lane(4, b3 ^ c3)
            ^ crc_lane(3, b4)
            ^ crc_lane(2, b5)
            ^ crc_lane(1, b6)
            ^ crc_lane(0, b7);
    }
    for &b in chunks.remainder() {
        let [low, ..] = c.to_le_bytes();
        c = crc_lane(0, low ^ b) ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        w.put_u32(12345);
        w.put_u8(7);
        w.put_bool(true);
        w.put_bytes(b"hello");
        w.put_ascending_u32s(&[3, 3, 10, 500]);
        w.put_raw(b"xyz");
        let buf = w.into_bytes();

        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_u32().unwrap(), 12345);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_ascending_u32s().unwrap(), vec![3, 3, 10, 500]);
        assert_eq!(r.get_raw(3).unwrap(), b"xyz");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let mut w = Writer::new();
        w.put_bytes(b"hello world");
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.get_bytes().is_err(), "cut {cut}");
        }
    }

    #[test]
    fn u32_overflow_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let buf = w.into_bytes();
        assert!(Reader::new(&buf).get_u32().is_err());
    }

    #[test]
    fn hostile_sequence_count_rejected() {
        let mut w = Writer::new();
        w.put_usize(usize::MAX / 2); // Claims a huge element count.
        let buf = w.into_bytes();
        assert!(Reader::new(&buf).get_ascending_u32s().is_err());
    }

    #[test]
    fn get_len_enforces_bound() {
        let mut w = Writer::new();
        w.put_usize(100);
        let buf = w.into_bytes();
        assert_eq!(Reader::new(&buf).get_len(100).unwrap(), 100);
        assert!(Reader::new(&buf).get_len(99).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table loop `crc32` replaced, kept as its reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = crc_lane(0, c.to_le_bytes()[0] ^ b) ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_equals_the_bytewise_loop() {
        // Every length 0..=64 at every start offset 0..8 (every alignment
        // of the 8-byte steps against the tail), then one large buffer.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        };
        let small: Vec<u8> = (0..72).map(|_| next()).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let window = &small[offset..offset + len];
                assert_eq!(crc32(window), crc32_bytewise(window), "offset {offset} len {len}");
            }
        }
        let large: Vec<u8> = (0..1 << 20).map(|_| next()).collect();
        assert_eq!(crc32(&large), crc32_bytewise(&large));
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at {i}:{bit} undetected");
                copy[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn empty_sequences() {
        let mut w = Writer::new();
        w.put_ascending_u32s(&[]);
        w.put_bytes(b"");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(r.get_ascending_u32s().unwrap().is_empty());
        assert_eq!(r.get_bytes().unwrap(), b"");
    }
}
