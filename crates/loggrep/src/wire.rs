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
    ///
    /// Line-number columns are mostly one-byte deltas: wherever the next
    /// eight bytes are all single-byte varints they decode as one step
    /// (`byte_run`) and are prefix-summed; anything else goes one
    /// varint at a time. A sum past `u32::MAX` is `ascending overflow`
    /// either way.
    pub fn get_ascending_u32s(&mut self) -> Result<Vec<u32>> {
        // Each entry takes at least one byte, so `remaining` bounds the
        // count: an impossible claim is rejected before reserving.
        let n = self.get_len(self.remaining())?;
        let mut out = Vec::with_capacity(n);
        let overflow = || Error::Corrupt("ascending overflow".into());
        let mut prev = 0u32;
        while out.len() < n {
            let scalar = match self.byte_run(n - out.len()) {
                Ok(run) => {
                    // At most 8 × 127: only the last sum can overflow first.
                    let mut sum = 0u32;
                    let mut values = [0u32; 8];
                    for (v, d) in values.iter_mut().zip(run) {
                        sum += u32::from(d);
                        *v = prev.wrapping_add(sum);
                    }
                    prev = prev.checked_add(sum).ok_or_else(overflow)?;
                    out.extend_from_slice(&values);
                    continue;
                }
                Err(scalar) => scalar,
            };
            for _ in 0..scalar {
                prev = prev.checked_add(self.get_u32()?).ok_or_else(overflow)?;
                out.push(prev);
            }
        }
        Ok(out)
    }

    /// Reads `n` `u32` varints; `n` above [`Self::remaining`] is refused
    /// before anything is reserved, since each varint takes at least one
    /// byte. Runs of single-byte varints decode eight at a time, as in
    /// [`Self::get_ascending_u32s`].
    pub fn get_u32s(&mut self, n: usize) -> Result<Vec<u32>> {
        let max = self.remaining();
        if n > max {
            return Err(Error::Corrupt(format!("length {n} exceeds bound {max}")));
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.byte_run(n - out.len()) {
                Ok(run) => out.extend(run.map(u32::from)),
                Err(scalar) => {
                    for _ in 0..scalar {
                        out.push(self.get_u32()?);
                    }
                }
            }
        }
        Ok(out)
    }

    /// With `wanted` varints still to read: consumes the next eight bytes
    /// if there are eight to want and each is a whole single-byte varint
    /// (one test on their high bits). Otherwise returns how many varints to
    /// read one at a time before testing again — the single-byte ones the
    /// test saw, plus the longer one after them — so a failed test is never
    /// repeated on the same bytes.
    #[inline]
    fn byte_run(&mut self, wanted: usize) -> std::result::Result<[u8; 8], usize> {
        if wanted < 8 {
            return Err(wanted);
        }
        let Some(&run) = self.buf.get(self.pos..).and_then(<[u8]>::first_chunk::<8>) else {
            return Err(1);
        };
        let high = u64::from_le_bytes(run) & 0x8080_8080_8080_8080;
        if high != 0 {
            return Err(high.trailing_zeros() as usize / 8 + 1);
        }
        self.pos += 8;
        Ok(run)
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

/// The standard CRC-32 polynomial (IEEE 802.3), bit-reflected.
const CRC_POLY: u32 = 0xEDB8_8320;

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
                c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
                bit += 1;
            }
            tables[k][n] = c; // lint:allow(no-panic-in-decode) — const-evaluated; k < 8 and n < 256 by the loop bounds
            k += 1;
        }
        n += 1;
    }
    tables
};

/// Slicing-by-8 tables for one lane of four braided lanes:
/// `CRC_BRAID[k][b]` is `CRC_TABLES[k][b]` followed by 24 more zero bytes,
/// the three words of the other lanes that sit between two words of this
/// one. Built with the combine operator, so it is exact by the algebra that
/// `crc32_combine_is_the_crc_of_the_concatenation` tests.
const CRC_BRAID: [[u32; 256]; 8] = {
    let shift = x8n_mod_p(24);
    let mut tables = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            tables[k][n] = multmodp(shift, CRC_TABLES[k][n]); // lint:allow(no-panic-in-decode) — const-evaluated; k < 8 and n < 256 by the loop bounds
            n += 1;
        }
        k += 1;
    }
    tables
};

/// Table `k`'s entry for `byte` in a slicing-by-8 table set.
#[inline]
fn crc_lane(tables: &[[u32; 256]; 8], k: usize, byte: u8) -> u32 {
    tables[k][usize::from(byte)] // lint:allow(no-panic-in-decode) — every caller passes a literal k < 8; a u8 indexes 256 entries
}

/// `a · b mod P` over GF(2), both operands and the result as CRC registers
/// (reflected: the top bit is the coefficient of x^0).
const fn multmodp(mut a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    while a != 0 {
        if a & (1 << 31) != 0 {
            product ^= b;
        }
        a <<= 1;
        b = if b & 1 != 0 { CRC_POLY ^ (b >> 1) } else { b >> 1 };
    }
    product
}

/// `X2N[k]` is x^(2^k) mod P as a CRC register, for every k a `u64` count
/// of zero *bytes* can reach (x^(8n) needs k up to 63 + 3).
const X2N: [u32; 67] = {
    let mut table = [0u32; 67];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < 67 {
        table[k] = p; // lint:allow(no-panic-in-decode) — const-evaluated; k < 67 by the loop bound
        p = multmodp(p, p);
        k += 1;
    }
    table
};

/// x^(8n) mod P: multiplying a CRC register by it appends `n` zero bytes
/// to the message (zlib's `crc32_combine` operator), by square-and-multiply
/// over the bits of `n`.
const fn x8n_mod_p(mut n: u64) -> u32 {
    // p starts at x^0; from X2N[3] = x^8 on, one power per bit of `n`.
    let mut p = 1 << 31;
    let [_, _, _, powers @ ..] = &X2N;
    let mut powers: &[u32] = powers;
    while let ([power, rest @ ..], true) = (powers, n != 0) {
        if n & 1 != 0 {
            p = multmodp(*power, p);
        }
        n >>= 1;
        powers = rest;
    }
    p
}

/// One slicing-by-8 step through `tables`: the register is folded into the
/// first four bytes, and each byte looks up the table for its distance from
/// the end of the step.
#[inline(always)]
fn crc_step8(tables: &[[u32; 256]; 8], c: u32, word: &[u8; 8]) -> u32 {
    let [b0, b1, b2, b3, b4, b5, b6, b7] = (u64::from_le_bytes(*word) ^ u64::from(c)).to_le_bytes();
    crc_lane(tables, 7, b0)
        ^ crc_lane(tables, 6, b1)
        ^ crc_lane(tables, 5, b2)
        ^ crc_lane(tables, 4, b3)
        ^ crc_lane(tables, 3, b4)
        ^ crc_lane(tables, 2, b5)
        ^ crc_lane(tables, 1, b6)
        ^ crc_lane(tables, 0, b7)
}

/// Inputs at least this long run as four braided lanes, shorter ones as
/// one. Two 32-byte blocks is the least the braid can use (below that the
/// merge block is all there is), and measured on x86-64 it is already
/// ~1.4× the single lane there.
const CRC_LANES_MIN: usize = 64;

/// CRC-32 checksum of `bytes`, used as the CapsuleBox integrity
/// trailer: it detects all single-bit flips and virtually all burst
/// corruption, so a damaged archive fails fast with [`Error::Corrupt`]
/// instead of parsing into a structurally-valid-but-wrong state.
///
/// Inputs from `CRC_LANES_MIN` bytes on run as four braided lanes
/// (`crc32_braided`); shorter ones as one, eight bytes a step.
#[inline]
pub fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() >= CRC_LANES_MIN {
        return crc32_braided(bytes);
    }
    crc_serial(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Advances register `c` over `bytes` in one lane: eight bytes a step,
/// then one byte a step.
#[inline(always)]
fn crc_serial(mut c: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        c = crc_step8(&CRC_TABLES, c, word);
    }
    for &b in tail {
        let [low, ..] = c.to_le_bytes();
        c = crc_lane(&CRC_TABLES, 0, low ^ b) ^ (c >> 8);
    }
    c
}

/// [`crc32`] as four lanes braided word by word: lane `j` takes words `j`,
/// `j + 4`, `j + 8`, … (one register would wait on each step's table
/// loads; four keep the loads busy). A lane's register is what the bytes
/// it has seen contribute to its *next* word, so each step goes through
/// [`CRC_BRAID`], which also carries it past the other lanes' three words.
/// The last 32-byte block merges the lanes: one register runs over its
/// four words with each lane's contribution XORed in before its word, then
/// over the last `len % 32` bytes. Out of line, so that short inputs run
/// the same code as before the lanes.
#[inline(never)]
fn crc32_braided(bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<32>();
    let Some((last, blocks)) = blocks.split_last() else {
        return crc_serial(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF;
    };
    let mut lanes = [0xFFFF_FFFFu32, 0, 0, 0];
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = crc_step8(&CRC_BRAID, *lane, word);
        }
    }
    let mut c = 0;
    for (lane, word) in lanes.iter().zip(last.as_chunks::<8>().0) {
        c = crc_step8(&CRC_TABLES, c ^ lane, word);
    }
    crc_serial(c, tail) ^ 0xFFFF_FFFF
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
            c = crc_lane(&CRC_TABLES, 0, c.to_le_bytes()[0] ^ b) ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
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
    fn crc32_equals_the_bytewise_loop() {
        // Every length within 72 bytes of the lane threshold at every start
        // offset 0..8 (so every alignment of the 32-byte blocks and of the
        // 8-byte steps against the tail, on both sides of the threshold),
        // then seeded lengths up to 256 KiB and one 1 MiB buffer.
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        let large: Vec<u8> = (0..1 << 20).map(|_| (next() >> 32) as u8).collect();
        for offset in 0..8 {
            for len in CRC_LANES_MIN.saturating_sub(72)..=CRC_LANES_MIN + 72 {
                let window = &large[offset..offset + len];
                assert_eq!(
                    crc32(window),
                    crc32_bytewise(window),
                    "offset {offset} len {len}"
                );
            }
        }
        for _ in 0..48 {
            let len = next() as usize % (256 << 10);
            let offset = next() as usize % 8;
            let window = &large[offset..offset + len];
            assert_eq!(
                crc32(window),
                crc32_bytewise(window),
                "offset {offset} len {len}"
            );
        }
        assert_eq!(crc32(&large), crc32_bytewise(&large));
    }

    #[test]
    fn crc32_combine_is_the_crc_of_the_concatenation() {
        // crc(A ‖ B) = crc(A) · x^(8|B|) ⊕ crc(B): the algebra the braid
        // tables are built with, over seeded splits including |A| = 0 and
        // |B| = 0.
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let data: Vec<u8> = (0..64 << 10).map(|_| (next() >> 32) as u8).collect();
        for round in 0..64 {
            let len = next() as usize % data.len();
            let split = match round {
                0 => 0,
                1 => len,
                _ => next() as usize % (len + 1),
            };
            let (a, b) = data[..len].split_at(split);
            let combined = multmodp(x8n_mod_p(b.len() as u64), crc32(a)) ^ crc32(b);
            assert_eq!(
                combined,
                crc32(&data[..len]),
                "|A| {} |B| {}",
                a.len(),
                b.len()
            );
        }
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

    /// The one-varint-at-a-time loop `get_ascending_u32s` runs beside its
    /// eight-byte runs, kept as its reference: same values, same errors.
    fn ascending_scalar(r: &mut Reader<'_>) -> Result<Vec<u32>> {
        let n = r.get_len(r.remaining())?;
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u32;
        for i in 0..n {
            let d = r.get_u32()?;
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

    /// `get_u32s`' reference: `n` varints one at a time.
    fn u32s_scalar(r: &mut Reader<'_>, n: usize) -> Result<Vec<u32>> {
        (0..n).map(|_| r.get_u32()).collect()
    }

    /// Seeded varints of 1–5 bytes, mostly one byte, so that runs of
    /// single-byte varints start and end at every offset mod 8; the
    /// five-byte ones may exceed `u32::MAX`.
    fn mixed_varints(next: &mut impl FnMut() -> u64, count: usize) -> Writer {
        let mut w = Writer::new();
        for _ in 0..count {
            let bits = match next() % 100 {
                0..=79 => 7,
                80..=91 => 14,
                92..=96 => 21,
                97..=98 => 28,
                _ => 35,
            };
            w.put_u64(next() % (1 << bits));
        }
        w
    }

    #[test]
    fn varint_runs_decode_as_the_scalar_loop() {
        let mut next = xorshift(0xD1B5_4A32_D192_ED03);
        let mut runs = 0;
        for case in 0..400 {
            let count = next() as usize % 96;
            let body = mixed_varints(&mut next, count).into_bytes();
            runs += body
                .windows(8)
                .filter(|w| w.iter().all(|&b| b < 0x80))
                .count();
            let mut column = Writer::new();
            column.put_usize(count);
            column.put_raw(&body);
            let column = column.into_bytes();
            // Whole, then cut at every byte: every cut is an error, the same
            // error the scalar loop gives.
            for cut in (0..=column.len()).rev() {
                let bytes = &column[..cut];
                let (mut fast, mut slow) = (Reader::new(bytes), Reader::new(bytes));
                let got = fast.get_ascending_u32s();
                assert_eq!(got, ascending_scalar(&mut slow), "case {case} cut {cut}");
                if got.is_ok() {
                    assert_eq!(fast.position(), slow.position(), "case {case} cut {cut}");
                }
                assert!(cut == column.len() || got.is_err(), "case {case} cut {cut}");
                // A count above the bytes left is refused up front (see
                // below); any other cut errors as the scalar loop does.
                let bytes = &body[..cut.min(body.len())];
                let (mut fast, mut slow) = (Reader::new(bytes), Reader::new(bytes));
                let got = fast.get_u32s(count);
                if count <= bytes.len() {
                    assert_eq!(got, u32s_scalar(&mut slow, count), "case {case} cut {cut}");
                    if got.is_ok() {
                        assert_eq!(fast.position(), slow.position(), "case {case} cut {cut}");
                    }
                }
                assert!(cut >= body.len() || got.is_err(), "case {case} cut {cut}");
            }
        }
        assert!(
            runs > 1000,
            "only {runs} eight-byte runs: the run path went untested"
        );
    }

    #[test]
    fn overflow_inside_a_run_is_the_scalar_error() {
        // The first value sits k single-byte deltas of 100 below u32::MAX,
        // so the sum overflows at every position of the first run.
        for k in 0..10u32 {
            let mut w = Writer::new();
            w.put_usize(17);
            w.put_u32(u32::MAX - 100 * k);
            for _ in 0..16 {
                w.put_u32(100);
            }
            let buf = w.into_bytes();
            let want = ascending_scalar(&mut Reader::new(&buf));
            assert_eq!(
                want,
                Err(Error::Corrupt("ascending overflow".into())),
                "k {k}"
            );
            assert_eq!(Reader::new(&buf).get_ascending_u32s(), want, "k {k}");
        }
    }

    #[test]
    fn run_decoders_refuse_counts_above_remaining() {
        let mut w = Writer::new();
        for v in 0..32u32 {
            w.put_u32(v);
        }
        let buf = w.into_bytes();
        assert_eq!(
            Reader::new(&buf).get_u32s(32).unwrap(),
            (0..32).collect::<Vec<_>>()
        );
        // A claim past the bytes left is refused before anything is read
        // or reserved, even one no allocation could satisfy.
        let refused = |n: usize, max: usize| {
            Err(Error::Corrupt(format!("length {n} exceeds bound {max}")))
        };
        assert_eq!(Reader::new(&buf).get_u32s(33), refused(33, 32));
        assert_eq!(Reader::new(&buf).get_u32s(usize::MAX), refused(usize::MAX, 32));
        // The bound counts the count's own byte, as it always has.
        let mut w = Writer::new();
        w.put_usize(34);
        w.put_raw(&buf);
        assert_eq!(Reader::new(&w.into_bytes()).get_ascending_u32s(), refused(34, 33));
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
