//! Keyword matching on patterns (§5.1): enumerate all *possible matches* of
//! a keyword on a pattern of constants and variables.
//!
//! The same enumeration serves two levels: a static pattern (variables are
//! template slots) and a runtime pattern (variables are sub-variable
//! Capsules). Each possible match is a conjunction of requirements
//! `Exact/Prefix/Suffix/Contains(part)` on variables — the head, tail and
//! body cases of Figure 6 fall out of the recursion over constants.

use crate::pattern::Segment;
use logparse::Piece;
pub use strsearch::fixed::Mode;

/// A segment reference handed to the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegRef<'a> {
    /// Constant bytes.
    Const(&'a [u8]),
    /// Variable number `usize` (template slot or sub-variable index).
    Var(usize),
}

impl<'a> From<&'a Piece> for SegRef<'a> {
    /// A static-pattern piece: its variables are template slots.
    fn from(piece: &'a Piece) -> Self {
        match piece {
            Piece::Static(text) => SegRef::Const(text),
            Piece::Slot(slot) => SegRef::Var(*slot),
        }
    }
}

impl<'a> From<&'a Segment> for SegRef<'a> {
    /// A runtime-pattern segment: its variables are sub-variable numbers.
    fn from(segment: &'a Segment) -> Self {
        match segment {
            Segment::Const(text) => SegRef::Const(text),
            Segment::Var(sub) => SegRef::Var(*sub),
        }
    }
}

/// One requirement on one variable: `kw[lo..hi]` must relate to the
/// variable's value according to `mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Req {
    /// The variable index.
    pub var: usize,
    /// How the part must relate to the value.
    pub mode: Mode,
    /// Start of the keyword part.
    pub lo: usize,
    /// End (exclusive) of the keyword part.
    pub hi: usize,
}

/// A conjunction of requirements; the empty conjunction matches every row.
pub type Conj = Vec<Req>;

/// The enumeration result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Every row matches (the keyword is contained in constants alone).
    All,
    /// The union over conjunctions of the intersection of their rows.
    Conjs(Vec<Conj>),
    /// Enumeration exceeded its budget; the caller must fall back to a scan.
    Overflow,
}

impl Plan {
    /// True if no row can match.
    pub fn is_empty(&self) -> bool {
        matches!(self, Plan::Conjs(c) if c.is_empty())
    }
}

/// Budget on enumerated conjunctions; beyond this the caller scans instead.
const MAX_CONJS: usize = 2048;

struct Ctx<'a> {
    segs: &'a [SegRef<'a>],
    kw: &'a [u8],
    budget: usize,
    overflow: bool,
}

impl<'a> Ctx<'a> {
    fn spend(&mut self, n: usize) -> bool {
        if self.budget < n {
            self.overflow = true;
            return false;
        }
        self.budget -= n;
        true
    }
}

/// Enumerates the possible matches of `kw` against `segs` under `mode`
/// (`Contains` = the keyword occurs anywhere in the concatenated value).
pub fn plan(segs: &[SegRef<'_>], kw: &[u8], mode: Mode) -> Plan {
    let mut ctx = Ctx {
        segs,
        kw,
        budget: MAX_CONJS,
        overflow: false,
    };
    let conjs = match mode {
        Mode::Contains => sub_m(&mut ctx),
        Mode::Prefix => prefix_m(&mut ctx, 0, 0),
        Mode::Suffix => suffix_m(&mut ctx, segs.len(), kw.len()),
        Mode::Exact => exact_m(&mut ctx, 0, 0),
    };
    if ctx.overflow {
        return Plan::Overflow;
    }
    // An empty conjunction subsumes everything.
    if conjs.iter().any(|c| c.is_empty()) {
        return Plan::All;
    }
    let mut dedup: Vec<Conj> = Vec::new();
    for mut c in conjs {
        c.sort_unstable();
        c.dedup();
        if !dedup.contains(&c) {
            dedup.push(c);
        }
    }
    Plan::Conjs(dedup)
}

/// `kw[k..]` must be a prefix of the value of `segs[s..]`.
fn prefix_m(ctx: &mut Ctx<'_>, s: usize, k: usize) -> Vec<Conj> {
    if k >= ctx.kw.len() {
        return vec![Vec::new()];
    }
    if !ctx.spend(1) {
        return Vec::new();
    }
    let kw = &ctx.kw[k..];
    match ctx.segs.get(s) {
        None => Vec::new(),
        Some(SegRef::Const(c)) => {
            if kw.len() <= c.len() {
                if c.starts_with(kw) {
                    vec![Vec::new()]
                } else {
                    Vec::new()
                }
            } else if kw.starts_with(c) {
                prefix_m(ctx, s + 1, k + c.len())
            } else {
                Vec::new()
            }
        }
        Some(SegRef::Var(v)) => {
            // The variable absorbs kw entirely (value starts with kw) ...
            let mut out = vec![vec![Req {
                var: *v,
                mode: Mode::Prefix,
                lo: k,
                hi: ctx.kw.len(),
            }]];
            // ... or exactly the first j bytes, the rest flowing onward.
            for j in 0..kw.len() {
                for mut conj in prefix_m(ctx, s + 1, k + j) {
                    conj.push(Req {
                        var: *v,
                        mode: Mode::Exact,
                        lo: k,
                        hi: k + j,
                    });
                    out.push(conj);
                    if !ctx.spend(1) {
                        return out;
                    }
                }
            }
            out
        }
    }
}

/// `kw[..k]` must be a suffix of the value of `segs[..s]`.
fn suffix_m(ctx: &mut Ctx<'_>, s: usize, k: usize) -> Vec<Conj> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if !ctx.spend(1) {
        return Vec::new();
    }
    if s == 0 {
        return Vec::new();
    }
    let kw = &ctx.kw[..k];
    match ctx.segs[s - 1] {
        SegRef::Const(c) => {
            if kw.len() <= c.len() {
                if c.ends_with(kw) {
                    vec![Vec::new()]
                } else {
                    Vec::new()
                }
            } else if kw.ends_with(c) {
                suffix_m(ctx, s - 1, k - c.len())
            } else {
                Vec::new()
            }
        }
        SegRef::Var(v) => {
            let mut out = vec![vec![Req {
                var: v,
                mode: Mode::Suffix,
                lo: 0,
                hi: k,
            }]];
            for j in 0..kw.len() {
                // The variable's value is exactly the last j bytes of kw.
                for mut conj in suffix_m(ctx, s - 1, k - j) {
                    conj.push(Req {
                        var: v,
                        mode: Mode::Exact,
                        lo: k - j,
                        hi: k,
                    });
                    out.push(conj);
                    if !ctx.spend(1) {
                        return out;
                    }
                }
            }
            out
        }
    }
}

/// `kw[k..]` must equal the value of `segs[s..]` exactly.
fn exact_m(ctx: &mut Ctx<'_>, s: usize, k: usize) -> Vec<Conj> {
    if !ctx.spend(1) {
        return Vec::new();
    }
    let kw = &ctx.kw[k..];
    match ctx.segs.get(s) {
        None => {
            if kw.is_empty() {
                vec![Vec::new()]
            } else {
                Vec::new()
            }
        }
        Some(SegRef::Const(c)) => {
            if kw.starts_with(c) {
                exact_m(ctx, s + 1, k + c.len())
            } else {
                Vec::new()
            }
        }
        Some(SegRef::Var(v)) => {
            let mut out = Vec::new();
            for j in 0..=kw.len() {
                for mut conj in exact_m(ctx, s + 1, k + j) {
                    conj.push(Req {
                        var: *v,
                        mode: Mode::Exact,
                        lo: k,
                        hi: k + j,
                    });
                    out.push(conj);
                    if !ctx.spend(1) {
                        return out;
                    }
                }
            }
            out
        }
    }
}

/// `kw` occurs somewhere in the concatenated value.
fn sub_m(ctx: &mut Ctx<'_>) -> Vec<Conj> {
    let kw = ctx.kw;
    if kw.is_empty() {
        return vec![Vec::new()];
    }
    let mut out: Vec<Conj> = Vec::new();
    for i in 0..ctx.segs.len() {
        match ctx.segs[i] {
            SegRef::Var(v) => {
                // Case ①/⑤ of Figure 6: keyword fully inside this variable.
                out.push(vec![Req {
                    var: v,
                    mode: Mode::Contains,
                    lo: 0,
                    hi: kw.len(),
                }]);
                // Keyword starts inside the variable (a nonempty suffix of
                // the value) and continues into the following segments.
                for j in 1..kw.len() {
                    for mut conj in prefix_m(ctx, i + 1, j) {
                        conj.push(Req {
                            var: v,
                            mode: Mode::Suffix,
                            lo: 0,
                            hi: j,
                        });
                        out.push(conj);
                        if !ctx.spend(1) {
                            return out;
                        }
                    }
                }
            }
            SegRef::Const(c) => {
                // Body case ③: keyword fully inside the constant → every row.
                if strsearch::contains(c, kw) {
                    out.push(Vec::new());
                    continue;
                }
                // Head case ④ (and the boundary case o == start): a suffix
                // of the constant is a prefix of the keyword; the rest of the
                // keyword must prefix the following segments.
                for o in 0..c.len() {
                    let overlap = c.len() - o;
                    if overlap >= kw.len() {
                        continue; // Would be fully inside; handled above.
                    }
                    if c[o..] == kw[..overlap] {
                        out.extend(prefix_m(ctx, i + 1, overlap));
                    }
                    if ctx.overflow {
                        return out;
                    }
                }
            }
        }
        if ctx.overflow {
            return out;
        }
    }
    out
}

/// What the aggregate planner knows about a `top-K` target vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggTargetKind {
    /// The (template, slot) target does not exist in this archive.
    Missing,
    /// A plain vector (values only in its Capsule).
    Plain,
    /// A real vector (values reconstructed from pattern + sub-Capsules).
    Real,
    /// A nominal vector whose dictionary patterns are all constant-only:
    /// every value is renderable from metadata.
    NominalConst,
    /// A nominal vector with at least one variable-bearing pattern: values
    /// live in the dictionary Capsule.
    NominalMixed,
}

/// Predicts the cheapest storage layer that can answer `spec` (the
/// aggregate pushdown rule). Deterministic in its inputs, so
/// [`crate::stats::QueryStats::agg_layer`] can be drift-checked against
/// it: execution must never need a *more* expensive layer than planned.
///
/// `target` only matters for `top-K`; `filtered` is whether a line filter
/// restricts the aggregated rows (the filter's own Capsule touches are
/// accounted separately by the regular query stats).
pub fn plan_agg(
    spec: &crate::query::lang::AggSpec,
    target: AggTargetKind,
    filtered: bool,
) -> crate::stats::AggLayer {
    use crate::query::lang::AggSpec;
    use crate::stats::AggLayer;
    match spec {
        // Counts and line-number histograms come from group metadata
        // (row sets + line numbers) at any selectivity.
        AggSpec::Count | AggSpec::CountByTemplate | AggSpec::Histogram { .. } => {
            AggLayer::Metadata
        }
        AggSpec::TopK { .. } => match (target, filtered) {
            (AggTargetKind::Missing, _) => AggLayer::Metadata,
            (AggTargetKind::NominalConst, false) => AggLayer::Metadata,
            (AggTargetKind::NominalMixed, false) => AggLayer::Dictionary,
            (AggTargetKind::NominalConst | AggTargetKind::NominalMixed, true) => {
                AggLayer::CapsuleScan
            }
            (AggTargetKind::Plain | AggTargetKind::Real, _) => AggLayer::Reconstruct,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segs_of(spec: &[&str]) -> Vec<SegRef<'static>> {
        // "c:xyz" = const, "v0" = var 0.
        spec.iter()
            .map(|s| {
                if let Some(rest) = s.strip_prefix("c:") {
                    SegRef::Const(Box::leak(rest.as_bytes().to_vec().into_boxed_slice()))
                } else {
                    SegRef::Var(s[1..].parse().unwrap())
                }
            })
            .collect()
    }

    /// Oracle: does `kw` relate to any concatenation of assignments drawn
    /// from `choices` per var under `mode`? Exhaustive over tiny alphabets.
    #[allow(clippy::needless_range_loop)] // `r` indexes the inner per-var lists
    fn oracle(segs: &[SegRef<'_>], choices: &[&[&[u8]]], kw: &[u8], mode: Mode) -> Vec<usize> {
        // Each "row" = one assignment per variable (same row index in each
        // variable's choice list).
        let rows = choices.first().map(|c| c.len()).unwrap_or(1);
        let mut hits = Vec::new();
        for r in 0..rows {
            let mut value = Vec::new();
            for seg in segs {
                match seg {
                    SegRef::Const(c) => value.extend_from_slice(c),
                    SegRef::Var(v) => value.extend_from_slice(choices[*v][r]),
                }
            }
            let ok = match mode {
                Mode::Contains => strsearch::contains(&value, kw),
                Mode::Prefix => value.starts_with(kw),
                Mode::Suffix => value.ends_with(kw),
                Mode::Exact => value == kw,
            };
            if ok {
                hits.push(r);
            }
        }
        hits
    }

    /// Evaluates a plan against the same assignment table.
    #[allow(clippy::needless_range_loop)] // `r` indexes the inner per-var lists
    fn eval_plan(plan: &Plan, choices: &[&[&[u8]]], kw: &[u8]) -> Vec<usize> {
        let rows = choices.first().map(|c| c.len()).unwrap_or(1);
        match plan {
            Plan::All => (0..rows).collect(),
            Plan::Overflow => panic!("unexpected overflow in test"),
            Plan::Conjs(conjs) => {
                let mut hits = Vec::new();
                for r in 0..rows {
                    let matched = conjs.iter().any(|conj| {
                        conj.iter().all(|req| {
                            let v = choices[req.var][r];
                            let part = &kw[req.lo..req.hi];
                            match req.mode {
                                Mode::Contains => strsearch::contains(v, part),
                                Mode::Prefix => v.starts_with(part),
                                Mode::Suffix => v.ends_with(part),
                                Mode::Exact => v == part,
                            }
                        })
                    });
                    if matched {
                        hits.push(r);
                    }
                }
                hits
            }
        }
    }

    fn check(spec: &[&str], choices: &[&[&[u8]]], kw: &[u8]) {
        let segs = segs_of(spec);
        for mode in [Mode::Contains, Mode::Prefix, Mode::Suffix, Mode::Exact] {
            let p = plan(&segs, kw, mode);
            assert_eq!(
                eval_plan(&p, choices, kw),
                oracle(&segs, choices, kw, mode),
                "kw={:?} mode={:?} plan={:?}",
                String::from_utf8_lossy(kw),
                mode,
                p
            );
        }
    }

    #[test]
    fn figure6_pattern() {
        // block_<sv1>F8<sv2>, stamps aside.
        let spec = ["c:block_", "v0", "c:F8", "v1"];
        let choices: &[&[&[u8]]] = &[
            &[b"1", b"8", b"2", b""],
            &[b"1F", b"F8FE", b"E", b"8F8F"],
        ];
        for kw in [
            &b"8F8F"[..],
            b"F8",
            b"block",
            b"ock_1",
            b"_8F8F8FE",
            b"k_2F8E",
            b"zz",
            b"block_1F81F",
            b"8",
        ] {
            check(&spec, choices, kw);
        }
    }

    #[test]
    fn keyword_inside_constant_matches_all() {
        let segs = segs_of(&["c:ERROR code=", "v0"]);
        assert_eq!(plan(&segs, b"RROR", Mode::Contains), Plan::All);
    }

    #[test]
    fn impossible_keyword_yields_empty() {
        let segs = segs_of(&["c:abc"]);
        let p = plan(&segs, b"xyz", Mode::Contains);
        assert!(p.is_empty(), "{p:?}");
    }

    #[test]
    fn spanning_keywords() {
        let spec = ["v0", "c:#", "v1"];
        let choices: &[&[&[u8]]] = &[
            &[b"SUC", b"ERR", b"ERR"],
            &[b"1604", b"1623", b"404"],
        ];
        for kw in [
            &b"SUC#1604"[..],
            b"ERR#16",
            b"C#1",
            b"#",
            b"ERR#404",
            b"R#40",
            b"404",
            b"SUC#1623",
        ] {
            check(&spec, choices, kw);
        }
    }

    #[test]
    fn adjacent_constants_and_edges() {
        let spec = ["c:[", "v0", "c:]", "c:-", "v1"];
        let choices: &[&[&[u8]]] = &[&[b"a", b""], &[b"x", b"yz"]];
        for kw in [&b"[a]-x"[..], b"[]-yz", b"]-", b"[", b"]-y", b"a]-"] {
            check(&spec, choices, kw);
        }
    }

    #[test]
    fn empty_variable_values() {
        let spec = ["c:a", "v0", "c:b"];
        let choices: &[&[&[u8]]] = &[&[b"", b"x", b"ab"]];
        for kw in [&b"ab"[..], b"axb", b"aabb", b"b", b"a"] {
            check(&spec, choices, kw);
        }
    }

    #[test]
    fn repetitive_constants_stress() {
        let spec = ["v0", "c:aa", "v1", "c:aa", "v2"];
        let choices: &[&[&[u8]]] = &[
            &[b"a", b"", b"aa"],
            &[b"a", b"aaa", b""],
            &[b"", b"a", b"aa"],
        ];
        for kw in [&b"aaaa"[..], b"aaa", b"aaaaa", b"aaaaaa", b"a"] {
            check(&spec, choices, kw);
        }
    }

    #[test]
    fn agg_pushdown_picks_the_cheapest_layer() {
        use crate::query::lang::AggSpec;
        use crate::stats::AggLayer;
        let topk = AggSpec::TopK { k: 3, template: 0, slot: 0 };
        for filtered in [false, true] {
            for spec in [
                AggSpec::Count,
                AggSpec::CountByTemplate,
                AggSpec::Histogram { bucket: 10 },
            ] {
                assert_eq!(
                    plan_agg(&spec, AggTargetKind::Missing, filtered),
                    AggLayer::Metadata
                );
            }
        }
        assert_eq!(
            plan_agg(&topk, AggTargetKind::NominalConst, false),
            AggLayer::Metadata
        );
        assert_eq!(
            plan_agg(&topk, AggTargetKind::NominalMixed, false),
            AggLayer::Dictionary
        );
        assert_eq!(
            plan_agg(&topk, AggTargetKind::NominalConst, true),
            AggLayer::CapsuleScan
        );
        assert_eq!(
            plan_agg(&topk, AggTargetKind::Plain, false),
            AggLayer::Reconstruct
        );
        assert_eq!(
            plan_agg(&topk, AggTargetKind::Real, true),
            AggLayer::Reconstruct
        );
        assert_eq!(
            plan_agg(&topk, AggTargetKind::Missing, true),
            AggLayer::Metadata
        );
    }

    #[test]
    fn overflow_on_pathological_patterns() {
        // Many variables and a long low-information keyword force overflow
        // rather than exponential blowup.
        let segs: Vec<SegRef<'_>> = (0..12).map(SegRef::Var).collect();
        let kw = vec![b'a'; 40];
        let p = plan(&segs, &kw, Mode::Exact);
        assert_eq!(p, Plan::Overflow);
    }
}
