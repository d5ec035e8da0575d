//! LZ77 match finding with hash chains and one-step lazy matching.
//!
//! Produces a token stream of literals and `(length, distance)` matches that
//! the [`crate::deflate`] and [`crate::lzma_lite`] codecs entropy-code.

use crate::CodecError;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match {
        /// Match length in bytes (>= MIN_MATCH of the parameterization).
        len: u32,
        /// Distance in bytes (1 = previous byte).
        dist: u32,
    },
}

/// Tuning parameters for the match finder.
#[derive(Debug, Clone, Copy)]
pub struct Lz77Params {
    /// Sliding-window size in bytes; distances never exceed this.
    pub window: u32,
    /// Minimum emitted match length.
    pub min_match: u32,
    /// Maximum emitted match length.
    pub max_match: u32,
    /// Maximum hash-chain links followed per position.
    pub max_chain: u32,
    /// Enables one-step lazy matching (better ratio, slower).
    pub lazy: bool,
}

impl Lz77Params {
    /// DEFLATE-like parameters: 32 KiB window, matches 3..=258.
    pub const DEFLATE: Self = Self {
        window: 32 * 1024,
        min_match: 3,
        max_match: 258,
        max_chain: 64,
        lazy: true,
    };

    /// LZMA-like parameters: 4 MiB window, matches 2..=273, deep chains.
    pub const LZMA: Self = Self {
        window: 4 * 1024 * 1024,
        min_match: 2,
        max_match: 273,
        max_chain: 384,
        lazy: true,
    };

    /// Fast parameters: short chains, no lazy matching.
    pub const FAST: Self = Self {
        window: 64 * 1024,
        min_match: 4,
        max_match: 0xffff,
        max_chain: 8,
        lazy: false,
    };
}

const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;

#[inline]
fn hash4(data: &[u8], pos: usize) -> usize {
    // Multiplicative hash over 4 bytes; callers guarantee pos + 4 <= len.
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Hash-chain match finder over a single buffer.
pub struct MatchFinder<'a> {
    data: &'a [u8],
    params: Lz77Params,
    /// head[h] = most recent position with hash h (+1; 0 = none).
    head: Vec<u32>,
    /// prev[pos & mask] = previous position with the same hash (+1; 0 = none).
    prev: Vec<u32>,
    window_mask: usize,
}

impl<'a> MatchFinder<'a> {
    /// Creates a match finder over `data` with the given parameters.
    pub fn new(data: &'a [u8], params: Lz77Params) -> Self {
        // Positions never exceed `data.len()`, so for an input shorter than
        // the window a table of the input's size indexes identically
        // (`pos & mask == pos`), and a few-KiB payload does not allocate and
        // zero the 16 MiB a 4 MiB window would.
        let window = (params.window as usize).min(data.len()).next_power_of_two();
        Self {
            data,
            params,
            head: vec![0; HASH_SIZE],
            prev: vec![0; window],
            window_mask: window - 1,
        }
    }

    #[inline]
    fn insert(&mut self, pos: usize) {
        if pos + 4 > self.data.len() {
            return;
        }
        let h = hash4(self.data, pos);
        self.prev[pos & self.window_mask] = self.head[h];
        self.head[h] = pos as u32 + 1;
    }

    /// Finds the best match at `pos`, or `None`.
    #[inline]
    fn best_match(&self, pos: usize) -> Option<(u32, u32)> {
        let data = self.data;
        let n = data.len();
        if pos + 4 > n {
            return None;
        }
        let max_len = (self.params.max_match as usize).min(n - pos);
        if max_len < self.params.min_match as usize {
            return None;
        }
        let mut best_len = self.params.min_match as usize - 1;
        let mut best_dist = 0u32;
        let mut cand = self.head[hash4(data, pos)];
        let mut chain = self.params.max_chain;
        while cand != 0 && chain > 0 {
            let cpos = (cand - 1) as usize;
            let dist = pos - cpos;
            if dist > self.params.window as usize || dist == 0 {
                break;
            }
            // Quick reject: check the byte just past the current best.
            if best_len < max_len && data[cpos + best_len] == data[pos + best_len] {
                let len = common_prefix(data, cpos, pos, max_len);
                if len > best_len {
                    best_len = len;
                    best_dist = dist as u32;
                    if len >= max_len {
                        break;
                    }
                }
            }
            cand = self.prev[cpos & self.window_mask];
            chain -= 1;
        }
        if best_dist != 0 {
            Some((best_len as u32, best_dist))
        } else {
            None
        }
    }

    /// Tokenizes the whole buffer.
    pub fn tokenize(mut self) -> Vec<Token> {
        let data = self.data;
        let n = data.len();
        let mut tokens = Vec::with_capacity(n / 4 + 16);
        let mut pos = 0usize;
        while pos < n {
            let found = self.best_match(pos);
            match found {
                Some((len, dist)) => {
                    let mut take = (len, dist);
                    if self.params.lazy && pos + 1 < n {
                        // Peek one position ahead; if a strictly longer match
                        // starts there, emit a literal instead.
                        self.insert(pos);
                        if let Some((len2, dist2)) = self.best_match(pos + 1) {
                            if len2 > len {
                                tokens.push(Token::Literal(data[pos]));
                                pos += 1;
                                take = (len2, dist2);
                            }
                        }
                        tokens.push(Token::Match {
                            len: take.0,
                            dist: take.1,
                        });
                        // Insert positions covered by the match (cap the work
                        // for very long matches).
                        let end = pos + take.0 as usize;
                        let insert_end = end.min(pos + 64);
                        // `pos` may already be inserted; insert is idempotent
                        // enough for a heuristic finder.
                        for p in pos + 1..insert_end {
                            self.insert(p);
                        }
                        pos = end;
                    } else {
                        tokens.push(Token::Match { len, dist });
                        let end = pos + len as usize;
                        let insert_end = end.min(pos + 64);
                        for p in pos..insert_end {
                            self.insert(p);
                        }
                        pos = end;
                    }
                }
                None => {
                    self.insert(pos);
                    tokens.push(Token::Literal(data[pos]));
                    pos += 1;
                }
            }
        }
        tokens
    }
}

/// Longest common prefix of the windows starting at `a` and `b`, capped at
/// `max`. Word-parallel via the shared SWAR kernel: the two windows are
/// plain overlapping-read slices, so comparing them eight bytes at a time
/// is safe even for self-referential matches (`b - a < 8`).
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let wa = data.get(a..data.len().min(a + max)).unwrap_or_default();
    let wb = data.get(b..data.len().min(b + max)).unwrap_or_default();
    strsearch::swar::common_prefix(wa, wb)
}

/// Appends `len` bytes to `out`, copied from `dist` bytes behind its end —
/// the back-reference copy every LZ77 decoder here shares. A match that
/// does not reach its own output (`dist >= len`) is one block copy; an
/// overlapping one repeats the last `dist` bytes, doubling the block
/// copied each round (everything from the match source to the end of `out`
/// has period `dist`, so it is all valid source).
///
/// # Errors
///
/// Returns an error if `dist` is zero or reaches before the start of `out`.
#[inline]
pub fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) -> Result<(), CodecError> {
    let start = match out.len().checked_sub(dist) {
        Some(start) if dist != 0 => start,
        _ => return Err(CodecError::new("lz77: distance out of range")),
    };
    let mut remaining = len;
    while remaining > 0 {
        let n = remaining.min(out.len() - start);
        out.extend_from_within(start..start + n);
        remaining -= n;
    }
    Ok(())
}

/// Expands a token stream back into bytes.
///
/// # Errors
///
/// Returns the number of bytes produced so far on an invalid distance.
pub fn expand_into(tokens: &[Token], out: &mut Vec<u8>) -> Result<(), usize> {
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                copy_match(out, dist as usize, len as usize).map_err(|_| out.len())?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], params: Lz77Params) {
        let tokens = MatchFinder::new(data, params).tokenize();
        let mut out = Vec::new();
        expand_into(&tokens, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog. the quick brown fox again.";
        roundtrip(data, Lz77Params::DEFLATE);
        roundtrip(data, Lz77Params::LZMA);
        roundtrip(data, Lz77Params::FAST);
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"aaaa"] {
            roundtrip(data, Lz77Params::DEFLATE);
        }
    }

    #[test]
    fn finds_repeats() {
        let data = b"abcabcabcabcabcabcabcabc";
        let tokens = MatchFinder::new(data, Lz77Params::DEFLATE).tokenize();
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one match token: {tokens:?}"
        );
        let literals = tokens
            .iter()
            .filter(|t| matches!(t, Token::Literal(_)))
            .count();
        assert!(literals <= 6, "too many literals: {literals}");
    }

    #[test]
    fn overlapping_match_run() {
        // A run of a single byte compresses as an overlapping dist=1 match.
        let data = vec![b'x'; 1000];
        roundtrip(&data, Lz77Params::DEFLATE);
        let tokens = MatchFinder::new(&data, Lz77Params::DEFLATE).tokenize();
        assert!(tokens.len() < 20);
    }

    #[test]
    fn copy_match_equals_the_bytewise_loop() {
        let seed: Vec<u8> = (0..40u8).map(|i| b'a' + i % 7).collect();
        for dist in 1..=seed.len() {
            for len in 0..130 {
                let mut want = seed.clone();
                for i in 0..len {
                    want.push(want[seed.len() - dist + i]);
                }
                let mut got = seed.clone();
                copy_match(&mut got, dist, len).unwrap();
                assert_eq!(got, want, "dist {dist} len {len}");
            }
        }
        let mut out = seed.clone();
        assert!(copy_match(&mut out, 0, 3).is_err());
        assert!(copy_match(&mut out, seed.len() + 1, 3).is_err());
        assert_eq!(out, seed, "a rejected match writes nothing");
    }

    #[test]
    fn expand_rejects_bad_distance() {
        let tokens = vec![Token::Match { len: 3, dist: 5 }];
        let mut out = Vec::new();
        assert!(expand_into(&tokens, &mut out).is_err());
    }

    #[test]
    fn roundtrip_pseudo_random() {
        // Deterministic xorshift noise: worst case for matching, must still
        // round-trip as (mostly) literals.
        let mut state = 0x1234_5678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state & 0xff) as u8
            })
            .collect();
        roundtrip(&data, Lz77Params::DEFLATE);
        roundtrip(&data, Lz77Params::LZMA);
    }
}
