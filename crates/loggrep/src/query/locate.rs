//! The Locator (§5.1): keyword × static pattern × runtime pattern × Capsule
//! stamp → which Capsules a search has to open.
//!
//! [`locate`] reads metadata only. The executor runs the probes it returns
//! and [`crate::Archive::explain`] prints them, so the plan shown is the plan
//! run: both count group skips and stamp rejections off the same tree.

use crate::boxfile::{Archive, GroupMeta};
use crate::capsule::Stamp;
use crate::error::{Error, Result};
use crate::extract::DictPattern;
use crate::pattern::RuntimePattern;
use crate::query::plan::{plan, Mode, Plan, SegRef};
use crate::vector::{DictRegion, VectorMeta};
use std::collections::BTreeSet;

/// What one keyword needs from one group.
pub(crate) struct Located<'a> {
    /// The rows that can match and the Capsules that decide them.
    pub(crate) matches: Matches<'a>,
    /// Requirements a stamp refused while resolving `matches`.
    pub(crate) stamp_rejections: usize,
}

/// The possible matches of a keyword on a pattern, each requirement resolved
/// to the Capsules holding its variable.
pub(crate) enum Matches<'a> {
    /// The keyword lies in the pattern's constants: every row matches.
    All,
    /// The planner overflowed: every row's value is rendered and tested.
    Overflow,
    /// A row matches if every probe of some conjunction does. Conjunctions
    /// with a requirement that cannot match are already gone; none left
    /// means no row can match and nothing is opened.
    Any(Vec<Vec<Probe<'a>>>),
}

/// One surviving requirement: the values of `target` must relate to `part`
/// according to `mode`.
pub(crate) struct Probe<'a> {
    pub(crate) part: &'a [u8],
    pub(crate) mode: Mode,
    pub(crate) target: Target<'a>,
}

/// The Capsules holding one variable, by storage form (§4.2).
pub(crate) enum Target<'a> {
    /// Every value in one Capsule.
    Plain { cap: u32 },
    /// Pattern rows decided by `sub` over the sub-variable Capsules; rows the
    /// pattern missed sit in the outlier Capsule, which is always scanned
    /// when it has rows (§4.1).
    Real {
        pattern: &'a RuntimePattern,
        sub_caps: &'a [u32],
        outlier_cap: u32,
        outlier_rows: &'a [u32],
        sub: Matches<'a>,
    },
    /// The dictionary regions whose pattern can match, then the index
    /// Capsule for the rows holding the matched values.
    Nominal {
        regions: Vec<DictRegion>,
        dict_cap: u32,
        index_cap: u32,
        idx_len: u32,
    },
}

impl Matches<'_> {
    /// True when no row can match.
    pub(crate) fn is_dead(&self) -> bool {
        matches!(self, Matches::Any(conjs) if conjs.is_empty())
    }

    /// Adds every Capsule the probes may open to `out`: an upper bound on
    /// what matching decompresses (reconstructing hits is on top of it).
    pub(crate) fn capsules(&self, out: &mut BTreeSet<u32>) {
        let Matches::Any(conjs) = self else { return };
        for probe in conjs.iter().flatten() {
            match &probe.target {
                Target::Plain { cap } => {
                    out.insert(*cap);
                }
                Target::Real {
                    sub_caps,
                    outlier_cap,
                    outlier_rows,
                    sub,
                    ..
                } => {
                    match sub {
                        Matches::Overflow => out.extend(sub_caps.iter()),
                        _ => sub.capsules(out),
                    }
                    if !outlier_rows.is_empty() {
                        out.insert(*outlier_cap);
                    }
                }
                Target::Nominal {
                    dict_cap,
                    index_cap,
                    ..
                } => {
                    out.insert(*dict_cap);
                    out.insert(*index_cap);
                }
            }
        }
    }
}

/// Locates `(mode, needle)` in one group without decompressing anything.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] if the group's metadata contradicts itself (a
/// slot without a vector, a sub-variable without a Capsule).
pub(crate) fn locate<'a>(
    archive: &'a Archive,
    group: &'a GroupMeta,
    needle: &'a [u8],
    mode: Mode,
) -> Result<Located<'a>> {
    let _span = telemetry::span("plan");
    let mut locator = Locator {
        archive,
        stamp_rejections: 0,
    };
    let segs: Vec<SegRef<'_>> = group.template.pieces().iter().map(SegRef::from).collect();
    let matches = locator.resolve(&segs, Vars::Slots(&group.vectors), needle, mode)?;
    Ok(Located {
        matches,
        stamp_rejections: locator.stamp_rejections,
    })
}

/// What the variables of a planned pattern are.
#[derive(Clone, Copy)]
enum Vars<'a> {
    /// Template slots, one vector each.
    Slots(&'a [VectorMeta]),
    /// Sub-variables of a runtime pattern, one Capsule each.
    Caps(&'a [u32]),
}

struct Locator<'a> {
    archive: &'a Archive,
    stamp_rejections: usize,
}

fn corrupt(what: &str) -> Error {
    Error::Corrupt(what.into())
}

impl<'a> Locator<'a> {
    /// The stamp pre-filter: false means `part` cannot occur under `stamp`.
    fn admits(&mut self, stamp: &Stamp, part: &[u8]) -> bool {
        let ok = !self.archive.use_stamps || stamp.admits(part);
        if !ok {
            self.stamp_rejections += 1;
        }
        ok
    }

    /// Plans `(mode, needle)` over `segs` and resolves each requirement.
    fn resolve(
        &mut self,
        segs: &[SegRef<'_>],
        vars: Vars<'a>,
        needle: &'a [u8],
        mode: Mode,
    ) -> Result<Matches<'a>> {
        let conjs = match plan(segs, needle, mode) {
            Plan::All => return Ok(Matches::All),
            Plan::Overflow => return Ok(Matches::Overflow),
            Plan::Conjs(conjs) => conjs,
        };
        let mut live = Vec::with_capacity(conjs.len());
        'conjs: for conj in &conjs {
            let mut probes = Vec::with_capacity(conj.len());
            for req in conj {
                let part = needle
                    .get(req.lo..req.hi)
                    .ok_or_else(|| corrupt("plan range outside keyword"))?;
                match self.target(vars, req.var, part, req.mode)? {
                    Some(target) => probes.push(Probe {
                        part,
                        mode: req.mode,
                        target,
                    }),
                    // One requirement that cannot match kills the
                    // conjunction before any of its Capsules is opened.
                    None => continue 'conjs,
                }
            }
            live.push(probes);
        }
        Ok(Matches::Any(live))
    }

    /// Where the values of variable `var` live, or `None` when `(mode, part)`
    /// cannot match any of them.
    fn target(
        &mut self,
        vars: Vars<'a>,
        var: usize,
        part: &'a [u8],
        mode: Mode,
    ) -> Result<Option<Target<'a>>> {
        let vectors = match vars {
            Vars::Slots(vectors) => vectors,
            Vars::Caps(caps) => {
                let cap = caps
                    .get(var)
                    .ok_or_else(|| corrupt("plan sub-variable outside capsule table"))?;
                return Ok(self.plain(*cap, part));
            }
        };
        let vector = vectors
            .get(var)
            .ok_or_else(|| corrupt("template slot outside vector table"))?;
        Ok(match vector {
            VectorMeta::Plain { capsule } => self.plain(*capsule, part),
            VectorMeta::Real {
                pattern,
                sub_caps,
                outlier_cap,
                outlier_rows,
            } => {
                let segs: Vec<SegRef<'_>> = pattern.segments.iter().map(SegRef::from).collect();
                let sub = self.resolve(&segs, Vars::Caps(sub_caps), part, mode)?;
                (!sub.is_dead() || !outlier_rows.is_empty()).then_some(Target::Real {
                    pattern,
                    sub_caps,
                    outlier_cap: *outlier_cap,
                    outlier_rows,
                    sub,
                })
            }
            VectorMeta::Nominal {
                patterns,
                dict_cap,
                index_cap,
                idx_len,
                ..
            } => {
                let mut regions = Vec::new();
                for (p, region) in patterns.iter().zip(VectorMeta::dict_regions(patterns)?) {
                    if self.region_could_match(p, part, mode) {
                        regions.push(region);
                    }
                }
                (!regions.is_empty()).then_some(Target::Nominal {
                    regions,
                    dict_cap: *dict_cap,
                    index_cap: *index_cap,
                    idx_len: *idx_len,
                })
            }
        })
    }

    fn plain(&mut self, cap: u32, part: &[u8]) -> Option<Target<'a>> {
        // A bad Capsule id stays fail-open: opening it reports the Corrupt
        // error with context.
        let meta = self.archive.boxed.capsules.get(cap as usize);
        meta.is_none_or(|meta| self.admits(&meta.stamp, part))
            .then_some(Target::Plain { cap })
    }

    /// Could `(mode, part)` match a dictionary value of this pattern?
    /// Pattern structure plus its sub-variable stamps.
    fn region_could_match(&mut self, p: &DictPattern, part: &[u8], mode: Mode) -> bool {
        if part.len() as u64 > u64::from(p.max_len) {
            return false;
        }
        let segs: Vec<SegRef<'_>> = p.pattern.segments.iter().map(SegRef::from).collect();
        match plan(&segs, part, mode) {
            Plan::All | Plan::Overflow => true,
            // Out-of-range plan references stay fail-open: a region is only
            // dropped when a stamp proves a non-match.
            Plan::Conjs(conjs) => conjs.iter().any(|conj| {
                conj.iter().all(|req| {
                    let stamp = p.pattern.sub_stamps.get(req.var);
                    let sub = part.get(req.lo..req.hi);
                    stamp
                        .zip(sub)
                        .is_none_or(|(stamp, sub)| self.admits(stamp, sub))
                })
            }),
        }
    }
}
