//! The Reconstructor (§3, §5): a group's static pattern compiled once into
//! a flat list of column readers, so rendering a row is one pass of appends
//! into the caller's line buffer.
//!
//! An [`Op`] borrows the decompressed payloads of the query's [`Payloads`]
//! table. Payloads are still decompressed lazily — a column loads its
//! Capsule on the first row asked of it, exactly the Capsules the rows
//! rendered need — and at most once per query, whoever asks first.

use crate::boxfile::GroupMeta;
use crate::capsule::Layout;
use crate::error::{Error, Result};
use crate::extract::nominal::parse_index;
use crate::pattern::{RuntimePattern, Segment};
use crate::query::exec::Payloads;
use crate::vector::{DictRegion, VectorMeta};
use crate::PAD;
use logparse::Piece;
use strsearch::swar::rfind_not_byte;

fn corrupt(what: &str) -> Error {
    Error::Corrupt(what.into())
}

/// A padded row without its trailing pad bytes.
fn trim_pad(raw: &[u8]) -> &[u8] {
    let end = rfind_not_byte(raw, PAD).map_or(0, |p| p + 1);
    raw.get(..end).unwrap_or_default()
}

/// The row addressing of one loaded Capsule.
enum Rows<'c> {
    /// Fixed-width rows: row `r` is `payload[r * width..][..width]`.
    Padded { payload: &'c [u8], width: usize },
    /// `\n`-terminated rows: row `r` is `payload[ranges[r]]`.
    Delimited {
        payload: &'c [u8],
        ranges: &'c [(usize, usize)],
    },
}

/// One Capsule read as a column of row values.
pub(crate) struct Column<'c> {
    payloads: &'c Payloads<'c>,
    id: u32,
    /// `None` until the first row is asked for.
    rows: Option<Rows<'c>>,
}

impl<'c> Column<'c> {
    fn new(payloads: &'c Payloads<'c>, id: u32) -> Self {
        Self {
            payloads,
            id,
            rows: None,
        }
    }

    /// The unpadded value of `row`.
    fn value(&mut self, row: u32) -> Result<&'c [u8]> {
        let (payloads, id) = (self.payloads, self.id);
        let rows = match &self.rows {
            Some(rows) => rows,
            None => self.rows.insert(match payloads.meta(id)?.layout {
                Layout::Padded { width } => {
                    let (payload, width) = (payloads.bytes(id)?, width as usize);
                    if width == 0 || payload.len() % width != 0 {
                        return Err(corrupt("capsule payload misaligned"));
                    }
                    Rows::Padded { payload, width }
                }
                Layout::Delimited => Rows::Delimited {
                    payload: payloads.bytes(id)?,
                    ranges: payloads.row_ranges(id)?,
                },
                Layout::Raw => return Err(corrupt("raw capsule has no row addressing")),
            }),
        };
        let value = match *rows {
            Rows::Padded { payload, width } => (row as usize)
                .checked_mul(width)
                .and_then(|start| payload.get(start..start.checked_add(width)?))
                .map(trim_pad),
            Rows::Delimited { payload, ranges } => ranges
                .get(row as usize)
                .and_then(|&(lo, hi)| payload.get(lo..hi)),
        };
        value.ok_or_else(|| corrupt("capsule row out of range"))
    }

    /// Appends the unpadded value of `row` to `out`.
    fn append(&mut self, row: u32, out: &mut Vec<u8>) -> Result<()> {
        out.extend_from_slice(self.value(row)?);
        Ok(())
    }
}

/// One piece of a real vector's runtime pattern.
pub(crate) enum Part<'c> {
    Const(&'c [u8]),
    Sub(Column<'c>),
}

/// The values of a nominal vector's dictionary, by dictionary index.
pub(crate) enum Dict<'c> {
    /// A raw dictionary Capsule: one padded region per merged pattern,
    /// located through the vector's region table (§5.2).
    Regions {
        payloads: &'c Payloads<'c>,
        id: u32,
        payload: Option<&'c [u8]>,
    },
    /// A row-addressed dictionary Capsule ("w/o fixed").
    Rows(Column<'c>),
}

impl<'c> Dict<'c> {
    pub(crate) fn new(payloads: &'c Payloads<'c>, id: u32) -> Result<Self> {
        Ok(match payloads.meta(id)?.layout {
            Layout::Raw => Dict::Regions {
                payloads,
                id,
                payload: None,
            },
            _ => Dict::Rows(Column::new(payloads, id)),
        })
    }

    /// Appends the value with dictionary index `idx` to `out`; `regions` is
    /// the vector's [`VectorMeta::dict_regions`] table.
    pub(crate) fn append(
        &mut self,
        regions: &[DictRegion],
        idx: u32,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let payload = match self {
            Dict::Rows(column) => return column.append(idx, out),
            Dict::Regions {
                payloads,
                id,
                payload,
            } => match *payload {
                Some(payload) => payload,
                None => *payload.insert(payloads.bytes(*id)?),
            },
        };
        // The last region starting at or before `idx` (empty regions share
        // their successor's first index and never win).
        let region = regions
            .partition_point(|r| r.first_index <= idx)
            .checked_sub(1)
            .and_then(|at| regions.get(at))
            .filter(|r| idx - r.first_index < r.count)
            .ok_or_else(|| corrupt("dict index out of range"))?;
        // `dict_regions` checked that every region's extent fits a usize.
        let width = region.width as usize;
        let start = region.byte_offset + (idx - region.first_index) as usize * width;
        let value = payload
            .get(start..start + width)
            .ok_or_else(|| corrupt("dict region outside payload"))?;
        out.extend_from_slice(trim_pad(value));
        Ok(())
    }
}

/// One step of rendering a row: a run of static text, or the value of one
/// variable vector read straight from its Capsule columns.
pub(crate) enum Op<'c> {
    /// Static text of the template.
    Static(&'c [u8]),
    /// A plain vector: the row's value in one Capsule.
    Plain(Column<'c>),
    /// A real vector: pattern constants interleaved with sub-variable
    /// columns, or the outlier column for rows the pattern missed.
    Real {
        parts: Vec<Part<'c>>,
        outliers: Column<'c>,
        outlier_rows: &'c [u32],
        /// Outlier rows below the last row rendered. Rows arrive
        /// ascending, so this only moves forward (it is re-seated by
        /// binary search if a caller ever steps back).
        cursor: usize,
    },
    /// A nominal vector: the row's index digits, then the dictionary value
    /// found through the region table computed once here.
    Nominal {
        index: Column<'c>,
        regions: Vec<DictRegion>,
        dict: Dict<'c>,
    },
}

impl<'c> Op<'c> {
    /// The reader of one variable vector.
    pub(crate) fn for_vector(payloads: &'c Payloads<'c>, vector: &'c VectorMeta) -> Result<Self> {
        Ok(match vector {
            VectorMeta::Plain { capsule } => Op::Plain(Column::new(payloads, *capsule)),
            VectorMeta::Real {
                pattern,
                sub_caps,
                outlier_cap,
                outlier_rows,
            } => Op::real(payloads, pattern, sub_caps, *outlier_cap, outlier_rows)?,
            VectorMeta::Nominal {
                patterns,
                dict_cap,
                index_cap,
                ..
            } => Op::Nominal {
                index: Column::new(payloads, *index_cap),
                regions: VectorMeta::dict_regions(patterns)?,
                dict: Dict::new(payloads, *dict_cap)?,
            },
        })
    }

    /// The reader of a real vector.
    pub(crate) fn real(
        payloads: &'c Payloads<'c>,
        pattern: &'c RuntimePattern,
        sub_caps: &[u32],
        outlier_cap: u32,
        outlier_rows: &'c [u32],
    ) -> Result<Self> {
        let mut parts = Vec::with_capacity(pattern.segments.len());
        for segment in &pattern.segments {
            parts.push(match segment {
                Segment::Const(c) => Part::Const(c),
                Segment::Var(v) => {
                    let cap = sub_caps
                        .get(*v)
                        .ok_or_else(|| corrupt("pattern sub-variable outside capsule table"))?;
                    Part::Sub(Column::new(payloads, *cap))
                }
            });
        }
        Ok(Op::Real {
            parts,
            outliers: Column::new(payloads, outlier_cap),
            outlier_rows,
            cursor: 0,
        })
    }

    /// Appends this op's bytes for vector row `row` to `out`.
    pub(crate) fn append(&mut self, row: u32, out: &mut Vec<u8>) -> Result<()> {
        match self {
            Op::Static(text) => out.extend_from_slice(text),
            Op::Plain(column) => column.append(row, out)?,
            Op::Real {
                parts,
                outliers,
                outlier_rows,
                cursor,
            } => {
                if *cursor > 0 && outlier_rows.get(*cursor - 1).is_some_and(|&r| r >= row) {
                    *cursor = outlier_rows.partition_point(|&r| r < row);
                }
                while outlier_rows.get(*cursor).is_some_and(|&r| r < row) {
                    *cursor += 1;
                }
                if outlier_rows.get(*cursor) == Some(&row) {
                    outliers.append(*cursor as u32, out)?;
                } else {
                    // Sub-variable Capsules hold the pattern rows only.
                    let pattern_row = row - *cursor as u32;
                    for part in parts {
                        match part {
                            Part::Const(text) => out.extend_from_slice(text),
                            Part::Sub(column) => column.append(pattern_row, out)?,
                        }
                    }
                }
            }
            Op::Nominal {
                index,
                regions,
                dict,
            } => {
                let idx =
                    parse_index(index.value(row)?).ok_or_else(|| corrupt("bad index value"))?;
                dict.append(regions, idx, out)?;
            }
        }
        Ok(())
    }
}

/// Compiles a group's template for rendering: static text and one reader per
/// slot, in line order. Appending every op for a row yields the original
/// line; ascending rows keep every outlier cursor on its forward path.
pub(crate) fn group_ops<'c>(
    payloads: &'c Payloads<'c>,
    group: &'c GroupMeta,
) -> Result<Vec<Op<'c>>> {
    let mut ops = Vec::with_capacity(group.template.pieces().len());
    for piece in group.template.pieces() {
        ops.push(match piece {
            Piece::Static(text) => Op::Static(text),
            Piece::Slot(slot) => {
                let vector = group.vectors.get(*slot);
                Op::for_vector(
                    payloads,
                    vector.ok_or_else(|| corrupt("template slot outside vector table"))?,
                )?
            }
        });
    }
    Ok(ops)
}
