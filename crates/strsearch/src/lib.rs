//! String-search substrate for the LogGrep reproduction.
//!
//! Section 5.2 of the paper argues that padding Capsule values to a fixed
//! length lets the query engine use Boyer-Moore (which skips characters and
//! therefore cannot count delimiters) instead of KMP, because the row number
//! of a hit can be recovered as `position / width`. This crate provides both
//! algorithms, the fixed-width row-search layer built on Boyer-Moore, and the
//! in-token wildcard matcher used by the query language.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bm;
pub mod fixed;
pub mod kmp;
pub mod swar;
pub mod wildcard;

pub use bm::BoyerMoore;
pub use fixed::FixedRows;
pub use kmp::Kmp;
pub use wildcard::TokenPattern;

/// A needle preprocessed once for any number of searches: a SWAR
/// first-byte skip with in-place verification for needles of up to four
/// bytes (cheaper than building tables, and allocation-free), Boyer-Moore
/// above that. Hot loops that test one needle against many values or lines
/// build one `Finder` per scan rather than calling [`find`] per value.
#[derive(Debug, Clone)]
pub struct Finder(Needle);

#[derive(Debug, Clone)]
enum Needle {
    Short { bytes: [u8; 4], len: usize },
    // Boxed: the tables are 2 KiB, the short form a few words.
    Long(Box<BoyerMoore>),
}

impl Finder {
    /// Preprocesses `needle` (which may be empty: it then occurs at every
    /// offset).
    #[inline]
    pub fn new(needle: &[u8]) -> Self {
        Self(match needle.len() {
            0..=4 => {
                let mut bytes = [0u8; 4];
                bytes[..needle.len()].copy_from_slice(needle);
                Needle::Short {
                    bytes,
                    len: needle.len(),
                }
            }
            _ => Needle::Long(Box::new(BoyerMoore::new(needle))),
        })
    }

    /// The needle's bytes.
    pub fn needle(&self) -> &[u8] {
        match &self.0 {
            Needle::Short { bytes, len } => &bytes[..*len],
            Needle::Long(bm) => bm.needle(),
        }
    }

    /// Finds the first occurrence starting at or after `from`.
    #[inline]
    pub fn find_from(&self, haystack: &[u8], from: usize) -> Option<usize> {
        match &self.0 {
            Needle::Long(bm) => bm.find_from(haystack, from),
            Needle::Short { bytes, len } => find_short(haystack, &bytes[..*len], from),
        }
    }

    /// Finds the first occurrence.
    #[inline]
    pub fn find(&self, haystack: &[u8]) -> Option<usize> {
        self.find_from(haystack, 0)
    }

    /// True if `haystack` contains the needle.
    #[inline]
    pub fn contains(&self, haystack: &[u8]) -> bool {
        self.find(haystack).is_some()
    }
}

/// Finds the first occurrence of a needle of at most four bytes at or after
/// `from`: SWAR-skip to its first byte and verify in place.
#[inline]
fn find_short(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    match needle {
        [] => (from <= haystack.len()).then_some(from),
        &[byte] => swar::find_byte(haystack, byte, from),
        _ => {
            let mut from = from;
            while let Some(pos) = swar::find_byte(haystack, needle[0], from) {
                if haystack.get(pos..pos + needle.len()) == Some(needle) {
                    return Some(pos);
                }
                from = pos + 1;
            }
            None
        }
    }
}

/// Finds the first occurrence of `needle` in `haystack`: what a [`Finder`]
/// does, without building one (per-call callers on the write path would
/// pay for moving its tables).
///
/// Returns the byte offset of the first match, or `None`.
///
/// # Examples
///
/// ```
/// assert_eq!(strsearch::find(b"hello world", b"world"), Some(6));
/// assert_eq!(strsearch::find(b"hello world", b"xyz"), None);
/// ```
#[inline]
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    match needle.len() {
        0..=4 => find_short(haystack, needle, 0),
        _ => BoyerMoore::new(needle).find(haystack),
    }
}

/// True if `haystack` contains `needle`.
#[inline]
pub fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    find(haystack, needle).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_basic() {
        assert_eq!(find(b"", b""), Some(0));
        assert_eq!(find(b"abc", b""), Some(0));
        assert_eq!(find(b"", b"a"), None);
        assert_eq!(find(b"abcdef", b"cd"), Some(2));
        assert_eq!(find(b"aaaab", b"ab"), Some(3));
    }

    #[test]
    fn contains_single_byte() {
        assert!(contains(b"xyz", b"y"));
        assert!(!contains(b"xyz", b"q"));
    }

    #[test]
    fn finder_agrees_with_naive_at_every_offset() {
        let haystack = b"abcab abcabcab cabcab\tabc";
        for needle in [
            &b""[..],
            b"a",
            b"ab",
            b"cab",
            b"abca",
            b"abcab",
            b"cabcab",
            b"zz",
            b"abcabcabcab",
        ] {
            let finder = Finder::new(needle);
            assert_eq!(finder.needle(), needle);
            for from in 0..=haystack.len() + 1 {
                let naive = (from..=haystack.len()).find(|&i| haystack[i..].starts_with(needle));
                assert_eq!(
                    finder.find_from(haystack, from),
                    naive,
                    "{needle:?} from {from}"
                );
            }
        }
    }
}
