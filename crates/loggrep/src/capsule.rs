//! Capsules and Capsule stamps (§4.2, §4.3).
//!
//! A Capsule is LogGrep's unit of independent compression: a sub-variable
//! vector, an outlier vector, a dictionary vector, an index vector, or (for
//! Plain storage) a whole variable vector. Its *stamp* records the six-bit
//! character-type mask and the max value length, which the query engine uses
//! to skip decompression entirely (§5.1).

use crate::error::{Error, Result};
use crate::typemask::TypeMask;
use crate::wire::{Reader, Writer};
use crate::PAD;
use strsearch::fixed::{pad_values, FixedRows, Mode};
use strsearch::Kmp;

/// A Capsule stamp: type mask + maximum value length (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp {
    /// Six-bit character-type mask of all values.
    pub mask: TypeMask,
    /// Maximum (unpadded) value length in bytes.
    pub max_len: u32,
}

impl Stamp {
    /// Computes the stamp of a value set.
    pub fn of<'a, I: IntoIterator<Item = &'a [u8]>>(values: I) -> Stamp {
        let mut mask = TypeMask::EMPTY;
        let mut max_len = 0u32;
        for v in values {
            mask.absorb(v);
            max_len = max_len.max(v.len() as u32);
        }
        Stamp { mask, max_len }
    }

    /// The §5.1 filter: can a value-part equal to `needle` occur here?
    ///
    /// Checks `K & C == K` on type masks and `len(needle) <= max_len`.
    pub fn admits(&self, needle: &[u8]) -> bool {
        needle.len() as u32 <= self.max_len && self.mask.admits(TypeMask::of(needle))
    }

    /// Serializes the stamp.
    pub fn write(&self, w: &mut Writer) {
        w.put_u8(self.mask.0);
        w.put_u32(self.max_len);
    }

    /// Deserializes a stamp.
    pub fn read(r: &mut Reader<'_>) -> Result<Stamp> {
        Ok(Stamp {
            mask: TypeMask(r.get_u8()?),
            max_len: r.get_u32()?,
        })
    }
}

/// How a Capsule's values are laid out in its decompressed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Fixed-width rows padded with [`PAD`] (the paper's default, §5.2).
    Padded {
        /// Row width in bytes (>= 1).
        width: u32,
    },
    /// `\n`-separated variant-length values (the "w/o fixed" ablation).
    Delimited,
    /// Opaque bytes interpreted by the owning vector (dictionary capsules,
    /// whose regions have per-pattern widths).
    Raw,
}

/// Per-Capsule metadata stored in the CapsuleBox.
#[derive(Debug, Clone)]
pub struct CapsuleMeta {
    /// Value layout of the decompressed payload.
    pub layout: Layout,
    /// Number of values.
    pub rows: u32,
    /// The Capsule stamp.
    pub stamp: Stamp,
    /// Offset of the compressed payload in the blob section.
    pub offset: u64,
    /// Length of the compressed payload.
    pub clen: u64,
    /// Codec id (see [`codec_by_id`]).
    pub codec: u8,
}

/// Maps a codec id to a codec. Ids are stable on-disk values.
pub fn codec_by_id(id: u8) -> Result<Box<dyn codec::Codec>> {
    let name = match id {
        0 => "store",
        1 => "deflate",
        2 => "lzma-lite",
        3 => "fastlz",
        _ => return Err(Error::Corrupt(format!("unknown codec id {id}"))),
    };
    codec::by_name(name).ok_or_else(|| Error::Corrupt(format!("codec {name} unavailable")))
}

/// Maps a codec name to its on-disk id.
pub fn codec_id_by_name(name: &str) -> Result<u8> {
    match name {
        "store" => Ok(0),
        "deflate" | "gzip" => Ok(1),
        "lzma-lite" | "lzma" => Ok(2),
        "fastlz" | "zstd" => Ok(3),
        _ => Err(Error::Corrupt(format!("unknown codec name {name}"))),
    }
}

/// Builds a Capsule payload from values, returning `(payload, layout, stamp)`.
///
/// With `fixed_length`, values are padded to the max length (minimum width 1
/// so rows stay addressable); otherwise they are `\n`-separated.
pub fn build_payload<'a, I>(values: I, fixed_length: bool) -> (Vec<u8>, Layout, Stamp, u32)
where
    I: IntoIterator<Item = &'a [u8]> + Clone,
{
    let stamp = Stamp::of(values.clone());
    let rows = values.clone().into_iter().count() as u32;
    if fixed_length {
        let width = stamp.max_len.max(1);
        let payload = pad_values(values, width as usize, PAD);
        (payload, Layout::Padded { width }, stamp, rows)
    } else {
        let mut payload = Vec::new();
        for v in values {
            payload.extend_from_slice(v);
            payload.push(b'\n');
        }
        (payload, Layout::Delimited, stamp, rows)
    }
}

/// A decompressed Capsule payload ready for searching.
#[derive(Debug)]
pub enum CapsuleView<'a> {
    /// Fixed-width rows: O(1) addressing, Boyer-Moore scanning.
    Padded(FixedRows<'a>),
    /// Variant-length values: KMP scanning, O(n) addressing.
    Delimited {
        /// Value slices in row order.
        values: Vec<&'a [u8]>,
        /// The raw payload (for KMP record scans).
        payload: &'a [u8],
    },
    /// Opaque payload; the owning vector slices it (dictionary regions).
    Raw(&'a [u8]),
}

impl<'a> CapsuleView<'a> {
    /// Creates a view over a decompressed payload.
    pub fn new(payload: &'a [u8], meta: &CapsuleMeta) -> Result<Self> {
        match meta.layout {
            Layout::Padded { width } => {
                // Compare in u64 so width * rows cannot overflow usize.
                let expected = u64::from(width) * u64::from(meta.rows);
                if width == 0 || payload.len() as u64 != expected {
                    return Err(Error::Corrupt(format!(
                        "padded capsule size {} != width {} * rows {}",
                        payload.len(),
                        width,
                        meta.rows
                    )));
                }
                Ok(CapsuleView::Padded(FixedRows::new(payload, width as usize, PAD)))
            }
            Layout::Raw => Ok(CapsuleView::Raw(payload)),
            Layout::Delimited => {
                // Payload is value '\n' value '\n' ... (trailing newline),
                // so the declared row count can never exceed the payload
                // size — the bound caps the reservation for corrupt metas.
                let mut values: Vec<&[u8]> =
                    Vec::with_capacity((meta.rows as usize).min(payload.len()));
                match payload.split_last() {
                    None => {}
                    Some((&b'\n', body)) => values.extend(body.split(|&b| b == b'\n')),
                    Some(_) => {
                        return Err(Error::Corrupt("delimited capsule missing trailer".into()))
                    }
                }
                if values.len() != meta.rows as usize {
                    return Err(Error::Corrupt(format!(
                        "delimited capsule rows {} != declared {}",
                        values.len(),
                        meta.rows
                    )));
                }
                Ok(CapsuleView::Delimited { values, payload })
            }
        }
    }

    /// Number of rows (zero for [`CapsuleView::Raw`]; the owning vector
    /// tracks region row counts itself).
    pub fn rows(&self) -> usize {
        match self {
            CapsuleView::Padded(f) => f.rows(),
            CapsuleView::Delimited { values, .. } => values.len(),
            CapsuleView::Raw(_) => 0,
        }
    }

    /// The raw payload of a [`CapsuleView::Raw`] capsule.
    ///
    /// # Panics
    ///
    /// Panics if the view is not raw.
    pub fn raw(&self) -> &'a [u8] {
        match self {
            CapsuleView::Raw(p) => p,
            // lint:allow(no-panic-in-decode) — programming-error guard, not data-dependent: callers dispatch on the layout they validated
            _ => panic!("capsule is not raw"),
        }
    }

    /// The unpadded value of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range; callers bound `row` by
    /// [`CapsuleView::rows`] (row sources — search hits, row maps — are
    /// validated against the view before lookup).
    pub fn value(&self, row: usize) -> &'a [u8] {
        match self {
            CapsuleView::Padded(f) => f.value(row),
            // lint:allow(no-panic-in-decode) — contract documented above: callers bound row by rows()
            CapsuleView::Delimited { values, .. } => values[row],
            // lint:allow(no-panic-in-decode) — programming-error guard, not data-dependent: callers dispatch on the layout they validated
            CapsuleView::Raw(_) => panic!("raw capsules have no row addressing"),
        }
    }

    /// Rows whose values satisfy `mode` for `needle` (ascending, unique).
    ///
    /// Padded capsules use the Boyer-Moore fixed-width scan; delimited
    /// capsules use a KMP record scan plus per-record verification — the
    /// performance contrast of §5.2's "w/o fixed" ablation.
    pub fn find(&self, needle: &[u8], mode: Mode) -> Vec<u32> {
        match self {
            CapsuleView::Padded(f) => f.find(needle, mode),
            CapsuleView::Delimited { values, payload } => {
                if needle.is_empty() {
                    return (0..values.len() as u32)
                        .filter(|&r| {
                            mode != Mode::Exact
                                || values.get(r as usize).copied().unwrap_or_default().is_empty()
                        })
                        .collect();
                }
                // KMP over the whole payload narrows candidates; each
                // candidate record is verified for the anchored modes.
                // Record numbers are re-checked against the value table so
                // a count disagreement degrades to a miss, never a panic.
                let candidates = Kmp::new(needle).find_records(payload, b'\n');
                candidates
                    .into_iter()
                    .filter(|&r| {
                        // KMP already proved containment.
                        values.get(r).copied().is_some_and(|v| {
                            mode == Mode::Contains || mode.matches(v, needle)
                        })
                    })
                    .map(|r| r as u32)
                    .collect()
            }
            CapsuleView::Raw(_) => Vec::new(),
        }
    }

    /// Scans rows in a sub-range `[start, end)` (used for dictionary-region
    /// jumps, §5.2). Returned rows are absolute (re-based on `start`).
    pub fn find_in_rows(&self, needle: &[u8], mode: Mode, start: u32, end: u32) -> Vec<u32> {
        match self {
            CapsuleView::Padded(f) => {
                let slice = f.slice_rows(start as usize, end as usize);
                slice.find(needle, mode).into_iter().map(|r| r + start).collect()
            }
            CapsuleView::Delimited { values, .. } => {
                let matcher = mode.matcher(needle);
                (start..end.min(values.len() as u32))
                    .filter(|&r| {
                        values
                            .get(r as usize)
                            .copied()
                            .is_some_and(|v| matcher.matches(v))
                    })
                    .collect()
            }
            CapsuleView::Raw(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_of_values() {
        let s = Stamp::of([&b"1F"[..], b"8F8F", b"2"]);
        assert_eq!(s.mask.0, 0b101);
        assert_eq!(s.max_len, 4);
    }

    #[test]
    fn stamp_admits() {
        let s = Stamp::of([&b"1F"[..], b"8F8F"]);
        assert!(s.admits(b"8F8"));
        assert!(!s.admits(b"8F8F8")); // Too long.
        assert!(!s.admits(b"8g")); // Wrong type.
    }
}
