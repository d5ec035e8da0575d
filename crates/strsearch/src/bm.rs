//! Boyer-Moore string search with both the bad-character and good-suffix
//! heuristics.
//!
//! This is the algorithm LogGrep uses to scan decompressed Capsules (§5.2):
//! it may *skip* characters, which is only safe for row-number recovery when
//! every row has a fixed width.

/// A preprocessed Boyer-Moore searcher for one needle.
#[derive(Debug, Clone)]
pub struct BoyerMoore {
    needle: Vec<u8>,
    /// bad_char[b] = rightmost index of byte b in the needle, or -1.
    bad_char: [i64; 256],
    /// Good-suffix shift table (classic `delta2`).
    good_suffix: Vec<usize>,
}

impl BoyerMoore {
    /// Preprocesses `needle`.
    ///
    /// # Panics
    ///
    /// Panics if `needle` is empty — use [`crate::find`] for the degenerate
    /// cases.
    pub fn new(needle: &[u8]) -> Self {
        assert!(!needle.is_empty(), "Boyer-Moore needs a non-empty needle");
        let m = needle.len();

        let mut bad_char = [-1i64; 256];
        for (i, &b) in needle.iter().enumerate() {
            bad_char[b as usize] = i as i64;
        }

        // Good-suffix table via the standard two-pass border computation.
        let mut shift = vec![0usize; m + 1];
        let mut border = vec![0usize; m + 1];
        // Pass 1: strong suffix borders.
        let mut i = m;
        let mut j = m + 1;
        border[i] = j;
        while i > 0 {
            while j <= m && needle[i - 1] != needle[j - 1] {
                if shift[j] == 0 {
                    shift[j] = j - i;
                }
                j = border[j];
            }
            i -= 1;
            j -= 1;
            border[i] = j;
        }
        // Pass 2: fill remaining shifts from the active border width.
        j = border[0];
        for (k, s) in shift.iter_mut().enumerate() {
            if *s == 0 {
                *s = j;
            }
            if k == j {
                j = border[j];
            }
        }

        Self {
            needle: needle.to_vec(),
            bad_char,
            good_suffix: shift,
        }
    }

    /// Length of the needle.
    pub fn needle_len(&self) -> usize {
        self.needle.len()
    }

    /// The needle's bytes.
    pub fn needle(&self) -> &[u8] {
        &self.needle
    }

    /// Finds the first match at or after `from`.
    pub fn find_from(&self, haystack: &[u8], from: usize) -> Option<usize> {
        let m = self.needle.len();
        let n = haystack.len();
        if m > n {
            return None;
        }
        let last = self.needle[m - 1];
        let mut s = from; // Current alignment of the needle in the haystack.
        while s + m <= n {
            // SWAR gallop: an alignment is only viable when its final byte
            // equals the needle's final byte, so jump straight to the next
            // such alignment word-parallel. This only ever skips alignments
            // the compare loop would reject at j == m-1, so no match is
            // missed, and it is at least as far as the bad-character shift
            // for a final-byte mismatch.
            let hit = crate::swar::find_byte(haystack, last, s + m - 1)?;
            s = hit + 1 - m;
            let mut j = m as i64 - 2; // Final byte already matched.
            while j >= 0 && self.needle[j as usize] == haystack[s + j as usize] {
                j -= 1;
            }
            if j < 0 {
                return Some(s);
            }
            let bc = self.bad_char[haystack[s + j as usize] as usize];
            let bad_shift = (j - bc).max(1) as usize;
            let good_shift = self.good_suffix[(j + 1) as usize];
            s += bad_shift.max(good_shift);
        }
        None
    }

    /// Finds the first match.
    pub fn find(&self, haystack: &[u8]) -> Option<usize> {
        self.find_from(haystack, 0)
    }

    /// Returns the offsets of all (possibly overlapping) matches.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(pos) = self.find_from(haystack, from) {
            out.push(pos);
            from = pos + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_all(haystack: &[u8], needle: &[u8]) -> Vec<usize> {
        if haystack.len() < needle.len() {
            return Vec::new();
        }
        (0..=haystack.len() - needle.len())
            .filter(|&i| &haystack[i..i + needle.len()] == needle)
            .collect()
    }

    #[test]
    fn matches_naive_on_fixtures() {
        let cases: Vec<(&[u8], &[u8])> = vec![
            (b"hello world hello", b"hello"),
            (b"aaaaaaa", b"aa"),
            (b"abcabcabc", b"abcabc"),
            (b"GCATCGCAGAGAGTATACAGTACG", b"GCAGAGAG"),
            (b"needle at the end needle", b"needle"),
            (b"no match here", b"zzz"),
            (b"x", b"x"),
        ];
        for (h, n) in cases {
            let bm = BoyerMoore::new(n);
            assert_eq!(bm.find_all(h), naive_all(h, n), "h={h:?} n={n:?}");
        }
    }

    #[test]
    fn find_from_skips_earlier_matches() {
        let bm = BoyerMoore::new(b"ab");
        assert_eq!(bm.find_from(b"ab ab ab", 1), Some(3));
        assert_eq!(bm.find_from(b"ab ab ab", 7), None);
    }

    #[test]
    fn overlapping_matches_found() {
        let bm = BoyerMoore::new(b"aba");
        assert_eq!(bm.find_all(b"ababa"), vec![0, 2]);
    }

    #[test]
    fn periodic_needles() {
        for n in [&b"abab"[..], b"aab", b"aabaab", b"abaaba"] {
            let h = b"aabaabaabaababababaabab";
            let bm = BoyerMoore::new(n);
            assert_eq!(bm.find_all(h), naive_all(h, n), "needle {n:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_needle_panics() {
        let _ = BoyerMoore::new(b"");
    }
}
