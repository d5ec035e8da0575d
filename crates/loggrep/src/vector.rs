//! Encoded variable vectors: how one template slot's values are stored as
//! Capsules (§4.2).

use crate::error::{Error, Result};
use crate::extract::DictPattern;
use crate::pattern::RuntimePattern;
use crate::wire::{Reader, Writer};

/// Capsule ids are indices into the CapsuleBox capsule table.
pub type CapsuleId = u32;

/// The storage form of one variable vector.
#[derive(Debug, Clone)]
pub enum VectorMeta {
    /// One Capsule holding every value (LogGrep-SP and fallbacks).
    Plain {
        /// The value Capsule.
        capsule: CapsuleId,
    },
    /// A real vector: one runtime pattern, one Capsule per sub-variable,
    /// plus an outlier Capsule for values the pattern did not match.
    Real {
        /// The extracted runtime pattern (with per-sub-variable stamps).
        pattern: RuntimePattern,
        /// Sub-variable Capsules, indexed by sub-variable number.
        sub_caps: Vec<CapsuleId>,
        /// The outlier Capsule (may have zero rows).
        outlier_cap: CapsuleId,
        /// Vector-local rows stored in the outlier Capsule, ascending.
        outlier_rows: Vec<u32>,
    },
    /// A nominal vector: dictionary Capsule (values grouped by pattern) +
    /// index Capsule (fixed-width decimal indices).
    Nominal {
        /// Merged dictionary patterns, in region order.
        patterns: Vec<DictPattern>,
        /// The dictionary Capsule.
        dict_cap: CapsuleId,
        /// The index Capsule.
        index_cap: CapsuleId,
        /// Digits per stored index (`IdxLen`).
        idx_len: u32,
        /// Total number of dictionary values.
        dict_len: u32,
        /// Occurrences of each dictionary value in the index vector,
        /// indexed by dictionary index. Sums to the group's row count, so
        /// aggregate verbs can count values without touching either
        /// Capsule.
        value_counts: Vec<u32>,
    },
}

impl VectorMeta {
    /// For a real vector, builds the mapping pattern-row → vector row (the
    /// rows not stored in the outlier Capsule, ascending).
    pub fn pattern_row_map(outlier_rows: &[u32], total_rows: u32) -> Vec<u32> {
        let mut map = Vec::with_capacity((total_rows as usize).saturating_sub(outlier_rows.len()));
        let mut outliers = outlier_rows.iter().copied().peekable();
        for row in 0..total_rows {
            if outliers.peek() == Some(&row) {
                outliers.next();
            } else {
                map.push(row);
            }
        }
        map
    }

    /// For a nominal vector, the dictionary regions as
    /// `(byte_offset, first_dict_index, count, width)`, in order — the §5.2
    /// direct-jump computation `Σ countᵢ × lenᵢ`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the accumulated offsets or indices
    /// overflow (possible only for corrupt metadata, since legitimate
    /// region sizes are bounded by the decompressed dictionary payload).
    pub fn dict_regions(patterns: &[DictPattern]) -> Result<Vec<DictRegion>> {
        let overflow = || Error::Corrupt("dictionary region overflow".into());
        let mut out = Vec::with_capacity(patterns.len());
        let mut offset = 0usize;
        let mut first = 0u32;
        for p in patterns {
            out.push(DictRegion {
                byte_offset: offset,
                first_index: first,
                count: p.count,
                width: p.max_len,
            });
            let span = usize::try_from(u64::from(p.count) * u64::from(p.max_len))
                .map_err(|_| overflow())?;
            offset = offset.checked_add(span).ok_or_else(overflow)?;
            first = first.checked_add(p.count).ok_or_else(overflow)?;
        }
        Ok(out)
    }

    /// All Capsule ids this vector references.
    pub fn capsules(&self) -> Vec<CapsuleId> {
        match self {
            VectorMeta::Plain { capsule } => vec![*capsule],
            VectorMeta::Real {
                sub_caps,
                outlier_cap,
                ..
            } => {
                let mut v = sub_caps.clone();
                v.push(*outlier_cap);
                v
            }
            VectorMeta::Nominal {
                dict_cap,
                index_cap,
                ..
            } => vec![*dict_cap, *index_cap],
        }
    }

    /// Serializes the vector metadata.
    pub fn write(&self, w: &mut Writer) {
        match self {
            VectorMeta::Plain { capsule } => {
                w.put_u8(0);
                w.put_u32(*capsule);
            }
            VectorMeta::Real {
                pattern,
                sub_caps,
                outlier_cap,
                outlier_rows,
            } => {
                w.put_u8(1);
                pattern.write(w);
                w.put_usize(sub_caps.len());
                for c in sub_caps {
                    w.put_u32(*c);
                }
                w.put_u32(*outlier_cap);
                w.put_ascending_u32s(outlier_rows);
            }
            VectorMeta::Nominal {
                patterns,
                dict_cap,
                index_cap,
                idx_len,
                dict_len,
                value_counts,
            } => {
                w.put_u8(2);
                w.put_usize(patterns.len());
                for p in patterns {
                    p.pattern.write(w);
                    w.put_u32(p.count);
                    w.put_u32(p.max_len);
                }
                w.put_u32(*dict_cap);
                w.put_u32(*index_cap);
                w.put_u32(*idx_len);
                w.put_u32(*dict_len);
                for c in value_counts {
                    w.put_u32(*c);
                }
            }
        }
    }

    /// Deserializes vector metadata.
    pub fn read(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(VectorMeta::Plain {
                capsule: r.get_u32()?,
            }),
            1 => {
                let pattern = RuntimePattern::read(r)?;
                let n = r.get_len(r.remaining())?;
                let mut sub_caps = Vec::with_capacity(n);
                for _ in 0..n {
                    sub_caps.push(r.get_u32()?);
                }
                let outlier_cap = r.get_u32()?;
                let outlier_rows = r.get_ascending_u32s()?;
                if pattern.sub_vars() != sub_caps.len() {
                    return Err(Error::Corrupt("sub-variable/capsule mismatch".into()));
                }
                Ok(VectorMeta::Real {
                    pattern,
                    sub_caps,
                    outlier_cap,
                    outlier_rows,
                })
            }
            2 => {
                let n = r.get_len(r.remaining())?;
                let mut patterns = Vec::with_capacity(n);
                for _ in 0..n {
                    let pattern = RuntimePattern::read(r)?;
                    let count = r.get_u32()?;
                    let max_len = r.get_u32()?;
                    patterns.push(DictPattern {
                        pattern,
                        count,
                        max_len,
                    });
                }
                let dict_cap = r.get_u32()?;
                let index_cap = r.get_u32()?;
                let idx_len = r.get_u32()?;
                let dict_len = r.get_u32()?;
                // One count varint per dictionary value follows; each
                // occupies at least one byte, so `remaining` bounds the
                // loop before anything is read.
                if dict_len as usize > r.remaining() {
                    return Err(Error::Corrupt("dictionary value-count truncated".into()));
                }
                let value_counts = r.get_u32s(dict_len as usize)?;
                Ok(VectorMeta::Nominal {
                    patterns,
                    dict_cap,
                    index_cap,
                    idx_len,
                    dict_len,
                    value_counts,
                })
            }
            t => Err(Error::Corrupt(format!("bad vector tag {t}"))),
        }
    }
}

/// One dictionary region (all values of one merged pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DictRegion {
    /// Byte offset of the region in the dictionary payload.
    pub byte_offset: usize,
    /// Dictionary index of the region's first value.
    pub first_index: u32,
    /// Number of values in the region.
    pub count: u32,
    /// Padded width of each value in the region.
    pub width: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capsule::Stamp;
    use crate::pattern::Segment;
    use crate::typemask::TypeMask;

    fn sample_real() -> VectorMeta {
        VectorMeta::Real {
            pattern: RuntimePattern {
                segments: vec![
                    Segment::Const(b"blk_".to_vec()),
                    Segment::Var(0),
                ],
                sub_stamps: vec![Stamp {
                    mask: TypeMask(1),
                    max_len: 7,
                }],
            },
            sub_caps: vec![4],
            outlier_cap: 5,
            outlier_rows: vec![2, 9],
        }
    }

    #[test]
    fn serialization_roundtrip_all_variants() {
        let metas = vec![
            VectorMeta::Plain { capsule: 3 },
            sample_real(),
            VectorMeta::Nominal {
                patterns: vec![DictPattern {
                    pattern: RuntimePattern {
                        segments: vec![Segment::Const(b"SUCC".to_vec())],
                        sub_stamps: vec![],
                    },
                    count: 1,
                    max_len: 4,
                }],
                dict_cap: 7,
                index_cap: 8,
                idx_len: 2,
                dict_len: 1,
                value_counts: vec![3],
            },
        ];
        for meta in metas {
            let mut w = Writer::new();
            meta.write(&mut w);
            let buf = w.into_bytes();
            let got = VectorMeta::read(&mut Reader::new(&buf)).unwrap();
            // Compare via re-serialization (no PartialEq on purpose: the
            // enum holds float-free data so bytes are canonical).
            let mut w2 = Writer::new();
            got.write(&mut w2);
            assert_eq!(w2.into_bytes(), {
                let mut w3 = Writer::new();
                meta.write(&mut w3);
                w3.into_bytes()
            });
        }
    }

    #[test]
    fn pattern_row_map_skips_outliers() {
        let map = VectorMeta::pattern_row_map(&[1, 3], 6);
        assert_eq!(map, vec![0, 2, 4, 5]);
        assert_eq!(VectorMeta::pattern_row_map(&[], 3), vec![0, 1, 2]);
        assert_eq!(VectorMeta::pattern_row_map(&[0, 1, 2], 3), Vec::<u32>::new());
    }

    #[test]
    fn dict_regions_accumulate() {
        let mk = |count, max_len| DictPattern {
            pattern: RuntimePattern {
                segments: vec![Segment::Const(b"x".to_vec())],
                sub_stamps: vec![],
            },
            count,
            max_len,
        };
        let regions = VectorMeta::dict_regions(&[mk(2, 7), mk(1, 4), mk(3, 2)]).unwrap();
        assert_eq!(regions[0], DictRegion { byte_offset: 0, first_index: 0, count: 2, width: 7 });
        assert_eq!(regions[1], DictRegion { byte_offset: 14, first_index: 2, count: 1, width: 4 });
        assert_eq!(regions[2], DictRegion { byte_offset: 18, first_index: 3, count: 3, width: 2 });
    }

    #[test]
    fn capsule_listing() {
        assert_eq!(sample_real().capsules(), vec![4, 5]);
        assert_eq!(VectorMeta::Plain { capsule: 9 }.capsules(), vec![9]);
    }
}
