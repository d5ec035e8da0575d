//! Fixed-width row search over padded buffers.
//!
//! LogGrep's Packer pads every value of a Capsule to the stamp max-length
//! (§5.2), so a Capsule decompresses to `rows * width` bytes. This module
//! searches such buffers with Boyer-Moore and recovers row numbers as
//! `position / width`, plus direct row probes used when one keyword match
//! requires several Capsules to agree.

use crate::bm::BoyerMoore;
use crate::Finder;

/// How a needle must relate to a row's (unpadded) value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mode {
    /// The value equals the needle.
    Exact,
    /// The value starts with the needle.
    Prefix,
    /// The value ends with the needle.
    Suffix,
    /// The value contains the needle.
    Contains,
}

impl Mode {
    /// Whether `value` satisfies this mode for `needle` (one value; a
    /// scan over many builds a [`Mode::matcher`] once).
    #[inline]
    pub fn matches(self, value: &[u8], needle: &[u8]) -> bool {
        match self {
            Mode::Exact => value == needle,
            Mode::Prefix => value.starts_with(needle),
            Mode::Suffix => value.ends_with(needle),
            Mode::Contains => crate::contains(value, needle),
        }
    }

    /// Prepares `(self, needle)` for testing many values: a `Contains`
    /// matcher builds its [`Finder`] here, once per scan.
    pub fn matcher(self, needle: &[u8]) -> ModeMatcher<'_> {
        match self {
            Mode::Exact => ModeMatcher::Exact(needle),
            Mode::Prefix => ModeMatcher::Prefix(needle),
            Mode::Suffix => ModeMatcher::Suffix(needle),
            Mode::Contains => ModeMatcher::Contains(Finder::new(needle)),
        }
    }
}

/// A [`Mode`] and its needle, prepared once (see [`Mode::matcher`]).
#[derive(Debug, Clone)]
pub enum ModeMatcher<'n> {
    /// [`Mode::Exact`].
    Exact(&'n [u8]),
    /// [`Mode::Prefix`].
    Prefix(&'n [u8]),
    /// [`Mode::Suffix`].
    Suffix(&'n [u8]),
    /// [`Mode::Contains`], with the needle's finder.
    Contains(Finder),
}

impl ModeMatcher<'_> {
    /// Whether `value` satisfies the mode for the needle.
    #[inline]
    pub fn matches(&self, value: &[u8]) -> bool {
        match self {
            ModeMatcher::Exact(needle) => value == *needle,
            ModeMatcher::Prefix(needle) => value.starts_with(needle),
            ModeMatcher::Suffix(needle) => value.ends_with(needle),
            ModeMatcher::Contains(finder) => finder.contains(value),
        }
    }
}

/// A view of a decompressed fixed-width Capsule buffer.
#[derive(Debug, Clone, Copy)]
pub struct FixedRows<'a> {
    buf: &'a [u8],
    width: usize,
    pad: u8,
}

impl<'a> FixedRows<'a> {
    /// Wraps `buf` as rows of `width` bytes padded with `pad`.
    ///
    /// A `width` of zero is allowed (every value is empty) and yields zero
    /// addressable rows unless the buffer is empty too.
    ///
    /// # Panics
    ///
    /// Panics if `width > 0` and `buf.len()` is not a multiple of `width`.
    pub fn new(buf: &'a [u8], width: usize, pad: u8) -> Self {
        if width > 0 {
            // lint:allow(no-panic-in-decode) — documented contract; decode paths validate size via CapsuleView::new before wrapping
            assert!(
                buf.len().is_multiple_of(width),
                "buffer length {} not a multiple of width {width}",
                buf.len()
            );
        } else {
            // lint:allow(no-panic-in-decode) — documented contract; decode paths validate size via CapsuleView::new before wrapping
            assert!(buf.is_empty(), "zero width requires an empty buffer");
        }
        Self { buf, width, pad }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.buf.len().checked_div(self.width).unwrap_or(0)
    }

    /// The row width in bytes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The underlying padded buffer.
    pub fn buf(&self) -> &'a [u8] {
        self.buf
    }

    /// A sub-view over rows `[start, end)` (clamped to the row count).
    pub fn slice_rows(&self, start: usize, end: usize) -> FixedRows<'a> {
        let n = self.rows();
        let lo = start.min(n) * self.width;
        let hi = end.min(n).max(start.min(n)) * self.width;
        FixedRows::new(self.buf.get(lo..hi).unwrap_or_default(), self.width, self.pad)
    }

    /// The unpadded value of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn value(&self, row: usize) -> &'a [u8] {
        let start = row * self.width;
        // lint:allow(no-panic-in-decode) — documented panic contract; callers bound row by rows()
        let raw = &self.buf[start..start + self.width];
        // SWAR pad trim: find the last non-pad byte word-parallel.
        let end = crate::swar::rfind_not_byte(raw, self.pad).map_or(0, |p| p + 1);
        // lint:allow(no-panic-in-decode) — end ≤ raw.len() by rposition
        &raw[..end]
    }

    /// Checks `mode` against a single row (the direct-probe path of §5.2).
    pub fn probe(&self, row: usize, needle: &[u8], mode: Mode) -> bool {
        mode.matches(self.value(row), needle)
    }

    /// Returns the rows whose values satisfy `mode` for `needle`, in
    /// ascending order without duplicates.
    ///
    /// Uses a single Boyer-Moore pass over the whole buffer for non-empty
    /// needles; matches that straddle a row boundary or fall inside padding
    /// are rejected by position arithmetic.
    pub fn find(&self, needle: &[u8], mode: Mode) -> Vec<u32> {
        if self.width == 0 {
            return Vec::new();
        }
        if needle.is_empty() {
            // An empty needle: Exact matches empty values; the rest match all.
            return (0..self.rows() as u32)
                .filter(|&r| mode != Mode::Exact || self.value(r as usize).is_empty())
                .collect();
        }
        if needle.len() > self.width {
            return Vec::new();
        }
        let bm = BoyerMoore::new(needle);
        let mut rows = Vec::new();
        let mut from = 0usize;
        let mut last_row = usize::MAX;
        while let Some(pos) = bm.find_from(self.buf, from) {
            from = pos + 1;
            let row = pos / self.width;
            let col = pos % self.width;
            if col + needle.len() > self.width {
                continue; // Straddles a row boundary.
            }
            if row == last_row {
                continue;
            }
            let ok = match mode {
                Mode::Contains => true,
                Mode::Prefix => col == 0,
                Mode::Suffix => self.value(row).len() == col + needle.len(),
                Mode::Exact => col == 0 && self.value(row).len() == needle.len(),
            };
            // For anchored modes a rejected hit may still be followed by an
            // accepted one in the same row only for Suffix/Exact oddities;
            // keep scanning rather than skipping the row.
            if ok {
                rows.push(row as u32);
                last_row = row;
                // Skip the rest of this row: it is already reported.
                from = (row + 1) * self.width;
            }
        }
        rows
    }
}

/// Builds a padded fixed-width buffer from values (the Packer-side helper).
///
/// # Panics
///
/// Panics if any value is longer than `width` or contains the pad byte.
pub fn pad_values<I, V>(values: I, width: usize, pad: u8) -> Vec<u8>
where
    I: IntoIterator<Item = V>,
    V: AsRef<[u8]>,
{
    let mut out = Vec::new();
    for v in values {
        let v = v.as_ref();
        // lint:allow(no-panic-in-decode) — compression-side helper; inputs are trusted builder output
        assert!(v.len() <= width, "value longer than row width");
        debug_assert!(!v.contains(&pad), "value contains the pad byte");
        out.extend_from_slice(v);
        out.resize(out.len() + (width - v.len()), pad);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAD: u8 = 0;

    fn rows_of(values: &[&str], width: usize) -> Vec<u8> {
        pad_values(values.iter().map(|v| v.as_bytes()), width, PAD)
    }

    #[test]
    fn value_trims_padding() {
        let buf = rows_of(&["ab", "c", ""], 4);
        let f = FixedRows::new(&buf, 4, PAD);
        assert_eq!(f.rows(), 3);
        assert_eq!(f.value(0), b"ab");
        assert_eq!(f.value(1), b"c");
        assert_eq!(f.value(2), b"");
    }

    #[test]
    fn contains_finds_rows_once() {
        let buf = rows_of(&["8F8F", "1234", "x8F8", "8F8F"], 4);
        let f = FixedRows::new(&buf, 4, PAD);
        assert_eq!(f.find(b"8F", Mode::Contains), vec![0, 2, 3]);
    }

    #[test]
    fn no_cross_row_matches() {
        // Row 0 ends with "ab", row 1 starts with "cd": "bc" spans the
        // boundary only if padding is absent; with exact-width rows it can
        // appear only when width == value length.
        let buf = rows_of(&["ab", "cd"], 2);
        let f = FixedRows::new(&buf, 2, PAD);
        assert_eq!(f.find(b"bc", Mode::Contains), Vec::<u32>::new());
    }

    #[test]
    fn prefix_suffix_exact() {
        let buf = rows_of(&["ERR", "ERRX", "XERR", "E"], 4);
        let f = FixedRows::new(&buf, 4, PAD);
        assert_eq!(f.find(b"ERR", Mode::Prefix), vec![0, 1]);
        assert_eq!(f.find(b"ERR", Mode::Suffix), vec![0, 2]);
        assert_eq!(f.find(b"ERR", Mode::Exact), vec![0]);
        assert_eq!(f.find(b"ERR", Mode::Contains), vec![0, 1, 2]);
    }

    #[test]
    fn needle_longer_than_width() {
        let buf = rows_of(&["ab"], 2);
        let f = FixedRows::new(&buf, 2, PAD);
        assert!(f.find(b"abc", Mode::Contains).is_empty());
    }

    #[test]
    fn empty_needle_semantics() {
        let buf = rows_of(&["a", "", "b"], 2);
        let f = FixedRows::new(&buf, 2, PAD);
        assert_eq!(f.find(b"", Mode::Contains), vec![0, 1, 2]);
        assert_eq!(f.find(b"", Mode::Exact), vec![1]);
    }

    #[test]
    fn probe_matches_find() {
        let buf = rows_of(&["8F8F", "1F", "F8F8"], 4);
        let f = FixedRows::new(&buf, 4, PAD);
        for (needle, mode) in [
            (&b"8F"[..], Mode::Contains),
            (b"8F", Mode::Prefix),
            (b"8F", Mode::Suffix),
            (b"1F", Mode::Exact),
        ] {
            let found = f.find(needle, mode);
            for row in 0..f.rows() {
                assert_eq!(
                    found.contains(&(row as u32)),
                    f.probe(row, needle, mode),
                    "row {row} needle {needle:?} mode {mode:?}"
                );
            }
        }
    }

    #[test]
    fn suffix_after_rejected_hit_in_same_row() {
        // "aXa" with needle "a": first hit col 0 fails Suffix, second hit
        // col 2 succeeds — the scan must not skip it.
        let buf = rows_of(&["aXa"], 3);
        let f = FixedRows::new(&buf, 3, PAD);
        assert_eq!(f.find(b"a", Mode::Suffix), vec![0]);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn misaligned_buffer_panics() {
        let _ = FixedRows::new(b"abc", 2, PAD);
    }
}
