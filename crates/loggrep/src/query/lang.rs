//! The grep-like query language (§3, §5).
//!
//! A query is search strings joined by `and` / `or` / `not` (case
//! insensitive), e.g. `error AND dst:11.8.* NOT state:503`. A search string
//! may span several tokens (`socket read length failure`) and may contain
//! `*` wildcards, which match within a single token only — a wildcard never
//! crosses token delimiters or line breaks.

use crate::error::{Error, Result};

/// One element of a compiled search string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Element {
    /// Literal bytes that must appear verbatim.
    Lit(Vec<u8>),
    /// `*`: any run (possibly empty) of non-delimiter bytes.
    Star,
}

/// A compiled search string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchString {
    /// The original text.
    pub raw: String,
    /// Compiled elements (consecutive stars collapsed).
    pub elements: Vec<Element>,
}

impl SearchString {
    /// Compiles a search string.
    pub fn compile(text: &str) -> Result<Self> {
        if text.is_empty() {
            return Err(Error::BadQuery("empty search string".into()));
        }
        let mut elements = Vec::new();
        let mut lit = Vec::new();
        for &b in text.as_bytes() {
            if b == b'*' {
                if !lit.is_empty() {
                    elements.push(Element::Lit(std::mem::take(&mut lit)));
                }
                if !matches!(elements.last(), Some(Element::Star)) {
                    elements.push(Element::Star);
                }
            } else {
                lit.push(b);
            }
        }
        if !lit.is_empty() {
            elements.push(Element::Lit(lit));
        }
        if elements.iter().all(|e| matches!(e, Element::Star)) {
            return Err(Error::BadQuery(format!(
                "search string `{text}` has no literal content"
            )));
        }
        Ok(Self {
            raw: text.to_string(),
            elements,
        })
    }

    /// True if the string contains a wildcard.
    pub fn has_wildcard(&self) -> bool {
        self.elements.iter().any(|e| matches!(e, Element::Star))
    }

    /// The literal bytes if the string has no wildcard.
    pub fn as_literal(&self) -> Option<&[u8]> {
        match (&self.elements[..], self.has_wildcard()) {
            ([Element::Lit(l)], false) => Some(l),
            _ => None,
        }
    }

    /// The longest literal fragment (pre-filter for wildcard strings).
    pub fn longest_literal(&self) -> &[u8] {
        self.elements
            .iter()
            .filter_map(|e| match e {
                Element::Lit(l) => Some(l.as_slice()),
                Element::Star => None,
            })
            .fold(&b""[..], |best, l| if l.len() > best.len() { l } else { best })
    }

    /// Ground-truth matcher: does the string occur in `line`, with `*`
    /// confined to runs of non-delimiter bytes? This is the oracle the
    /// gzip+grep baseline uses and the reference the engine must agree with.
    /// Callers testing many lines compile a [`SearchString::matcher`] once.
    pub fn matches_line(&self, line: &[u8], delims: &[u8]) -> bool {
        self.matcher().matches(line, delims)
    }

    /// Compiles the string for matching many lines.
    pub fn matcher(&self) -> LineMatcher<'_> {
        // A leading star may consume nothing, so it reaches every start
        // offset: dropping it leaves the set of matching lines unchanged.
        let elements = match self.elements.as_slice() {
            [Element::Star, rest @ ..] => rest,
            all => all,
        };
        // `compile` guarantees a literal here; a hand-built string without
        // one anchors on the empty needle, i.e. at every offset.
        let (first, rest) = match elements {
            [Element::Lit(first), rest @ ..] => (first.as_slice(), rest),
            _ => (&b""[..], elements),
        };
        LineMatcher {
            first: strsearch::Finder::new(first),
            rest,
        }
    }

    /// Does `elements` match `line` starting exactly at `pos`? Stars
    /// backtrack over runs of non-delimiter bytes.
    fn match_at(elements: &[Element], line: &[u8], pos: usize, delims: &[u8]) -> bool {
        match elements.first() {
            None => true,
            Some(Element::Lit(l)) => {
                line[pos..].starts_with(l)
                    && Self::match_at(&elements[1..], line, pos + l.len(), delims)
            }
            Some(Element::Star) => {
                // Consume 0..k non-delimiter bytes, backtracking.
                let mut end = pos;
                loop {
                    if Self::match_at(&elements[1..], line, end, delims) {
                        return true;
                    }
                    if end >= line.len() || delims.contains(&line[end]) || line[end] == b'\n' {
                        return false;
                    }
                    end += 1;
                }
            }
        }
    }
}

/// A [`SearchString`] compiled for matching many lines: every match starts
/// with the string's first literal (after any leading star), so the
/// matcher finds each occurrence of that literal with a prebuilt
/// [`strsearch::Finder`] and backtracks over the remaining elements only
/// from there.
#[derive(Debug, Clone)]
pub struct LineMatcher<'s> {
    first: strsearch::Finder,
    rest: &'s [Element],
}

impl LineMatcher<'_> {
    /// Same truth table as [`SearchString::matches_line`].
    pub fn matches(&self, line: &[u8], delims: &[u8]) -> bool {
        let len = self.first.needle().len();
        let mut from = 0;
        while let Some(at) = self.first.find_from(line, from) {
            if SearchString::match_at(self.rest, line, at + len, delims) {
                return true;
            }
            from = at + 1;
        }
        false
    }
}

/// A parsed query expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A single search string.
    Str(SearchString),
    /// Both sides must match (`and`).
    And(Box<Expr>, Box<Expr>),
    /// Either side matches (`or`).
    Or(Box<Expr>, Box<Expr>),
    /// Left matches and right does not (`not`, binary as in Table 1).
    Not(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluates the expression against one line (the oracle semantics).
    pub fn matches_line(&self, line: &[u8], delims: &[u8]) -> bool {
        match self {
            Expr::Str(s) => s.matches_line(line, delims),
            Expr::And(a, b) => a.matches_line(line, delims) && b.matches_line(line, delims),
            Expr::Or(a, b) => a.matches_line(line, delims) || b.matches_line(line, delims),
            Expr::Not(a, b) => a.matches_line(line, delims) && !b.matches_line(line, delims),
        }
    }

    /// All search strings in the expression, left to right.
    pub fn search_strings(&self) -> Vec<&SearchString> {
        match self {
            Expr::Str(s) => vec![s],
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Not(a, b) => {
                let mut v = a.search_strings();
                v.extend(b.search_strings());
                v
            }
        }
    }
}

/// A parsed query: the raw text plus the expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The raw query text (the query-cache key).
    pub raw: String,
    /// The parsed expression.
    pub expr: Expr,
}

impl Query {
    /// Parses a query command.
    ///
    /// Words are whitespace-separated; the standalone words `and`, `or`,
    /// `not` (any case) are operators, everything between two operators is
    /// one search string (inner whitespace normalized to single spaces).
    /// Operators associate left: `A and B not C or D` means
    /// `((A and B) not C) or D`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadQuery`] on empty queries, dangling operators, or
    /// search strings with no literal content.
    pub fn parse(text: &str) -> Result<Query> {
        #[derive(PartialEq, Clone, Copy)]
        enum Op {
            And,
            Or,
            Not,
        }
        let mut expr: Option<Expr> = None;
        let mut pending_op: Option<Op> = None;
        let mut current: Vec<&str> = Vec::new();

        let flush = |expr: &mut Option<Expr>,
                         pending_op: &mut Option<Op>,
                         current: &mut Vec<&str>|
         -> Result<()> {
            if current.is_empty() {
                return if pending_op.is_some() || expr.is_none() {
                    Err(Error::BadQuery("operator without operand".into()))
                } else {
                    Ok(())
                };
            }
            let s = SearchString::compile(&current.join(" "))?;
            current.clear();
            let rhs = Expr::Str(s);
            *expr = Some(match (expr.take(), pending_op.take()) {
                (None, None) => rhs,
                (Some(lhs), Some(Op::And)) => Expr::And(Box::new(lhs), Box::new(rhs)),
                (Some(lhs), Some(Op::Or)) => Expr::Or(Box::new(lhs), Box::new(rhs)),
                (Some(lhs), Some(Op::Not)) => Expr::Not(Box::new(lhs), Box::new(rhs)),
                (None, Some(_)) => return Err(Error::BadQuery("query starts with operator".into())),
                (Some(_), None) => unreachable!("operands always separated by operators"),
            });
            Ok(())
        };

        for word in text.split_whitespace() {
            let op = match word.to_ascii_lowercase().as_str() {
                "and" => Some(Op::And),
                "or" => Some(Op::Or),
                "not" => Some(Op::Not),
                _ => None,
            };
            match op {
                Some(op) => {
                    flush(&mut expr, &mut pending_op, &mut current)?;
                    if expr.is_none() {
                        return Err(Error::BadQuery("query starts with operator".into()));
                    }
                    pending_op = Some(op);
                }
                None => current.push(word),
            }
        }
        flush(&mut expr, &mut pending_op, &mut current)?;
        if pending_op.is_some() {
            return Err(Error::BadQuery("query ends with operator".into()));
        }
        let expr = expr.ok_or_else(|| Error::BadQuery("empty query".into()))?;
        Ok(Query {
            raw: text.to_string(),
            expr,
        })
    }
}

/// An aggregate verb: what to compute over the (optionally filtered) lines.
///
/// Rendered/parsed syntax (the `--agg` argument and the cache-key form):
///
/// * `count` — number of matching lines;
/// * `count-by-template` — matching lines per static pattern;
/// * `top-K tT.vS` — value frequencies of slot `S` of template `T`
///   (e.g. `top-3 t0.v2`), reported as the `K` most frequent values;
/// * `histogram B` — matching lines per bucket of `B` consecutive line
///   numbers (a time histogram once timestamps index the lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggSpec {
    /// Count matching lines.
    Count,
    /// Count matching lines per template (static pattern).
    CountByTemplate,
    /// The `k` most frequent values of one template slot.
    TopK {
        /// How many values to report.
        k: usize,
        /// Template (group) index.
        template: usize,
        /// Variable slot index within the template.
        slot: usize,
    },
    /// Matching lines per bucket of `bucket` consecutive line numbers.
    Histogram {
        /// Bucket width in lines (> 0).
        bucket: u64,
    },
}

impl AggSpec {
    /// Parses an aggregate verb (see the type docs for the syntax).
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadQuery`] on unknown verbs, malformed `tT.vS`
    /// targets, zero `K`/bucket widths, or trailing words.
    pub fn parse(text: &str) -> Result<Self> {
        let bad = |what: &str| Error::BadQuery(format!("bad aggregate `{text}`: {what}"));
        let mut words = text.split_whitespace();
        let head = words
            .next()
            .ok_or_else(|| Error::BadQuery("empty aggregate".into()))?
            .to_ascii_lowercase();
        let spec = match head.as_str() {
            "count" => AggSpec::Count,
            "count-by-template" => AggSpec::CountByTemplate,
            "histogram" => {
                let bucket: u64 = words
                    .next()
                    .ok_or_else(|| bad("histogram needs a bucket width"))?
                    .parse()
                    .map_err(|_| bad("bucket width must be a number"))?;
                if bucket == 0 {
                    return Err(bad("bucket width must be > 0"));
                }
                AggSpec::Histogram { bucket }
            }
            _ if head.starts_with("top-") => {
                let k: usize = head[4..]
                    .parse()
                    .map_err(|_| bad("top-K needs a numeric K"))?;
                if k == 0 {
                    return Err(bad("K must be > 0"));
                }
                let target = words.next().ok_or_else(|| bad("top-K needs a tT.vS target"))?;
                let (t, v) = target
                    .split_once('.')
                    .filter(|(t, v)| t.starts_with('t') && v.starts_with('v'))
                    .ok_or_else(|| bad("target must look like t0.v2"))?;
                let template = t[1..].parse().map_err(|_| bad("bad template index"))?;
                let slot = v[1..].parse().map_err(|_| bad("bad slot index"))?;
                AggSpec::TopK { k, template, slot }
            }
            _ => return Err(bad("unknown verb")),
        };
        if words.next().is_some() {
            return Err(bad("trailing words"));
        }
        Ok(spec)
    }

    /// The canonical textual form (parses back to the same spec; used as
    /// the aggregate cache-key component).
    pub fn render(&self) -> String {
        match self {
            AggSpec::Count => "count".to_string(),
            AggSpec::CountByTemplate => "count-by-template".to_string(),
            AggSpec::TopK { k, template, slot } => format!("top-{k} t{template}.v{slot}"),
            AggSpec::Histogram { bucket } => format!("histogram {bucket}"),
        }
    }
}

impl std::fmt::Display for AggSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logparse::DEFAULT_DELIMS;

    fn m(s: &str, line: &str) -> bool {
        SearchString::compile(s)
            .unwrap()
            .matches_line(line.as_bytes(), DEFAULT_DELIMS)
    }

    /// The unanchored matcher the compiled one replaced: backtrack from
    /// every byte offset.
    fn matches_line_reference(s: &SearchString, line: &[u8], delims: &[u8]) -> bool {
        (0..=line.len()).any(|start| SearchString::match_at(&s.elements, line, start, delims))
    }

    /// A deterministic xorshift stream (no external RNG in this crate).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    #[test]
    fn anchored_matcher_agrees_with_reference() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut positives = 0;
        for case in 0..12_000 {
            // A third of the cases draw from two letters and a delimiter,
            // so literals overlap themselves across token boundaries.
            let alphabet: &[u8] = if case % 3 == 0 { b"a:b" } else { b"abc:=/ \t" };
            let line: Vec<u8> = (0..rng.below(201))
                .map(|_| alphabet[rng.below(alphabet.len())])
                .collect();
            // Half the literals are cut from the line itself, so they occur
            // (often repeatedly) and may contain delimiters.
            let lit = |rng: &mut Rng| -> Vec<u8> {
                let n = 1 + rng.below(3);
                if !line.is_empty() && rng.below(2) == 0 {
                    let at = rng.below(line.len());
                    line[at..(at + n).min(line.len())].to_vec()
                } else {
                    (0..n)
                        .map(|_| alphabet[rng.below(alphabet.len())])
                        .collect()
                }
            };
            let mut pattern = Vec::new();
            if rng.below(3) == 0 {
                pattern.push(b'*');
            }
            for i in 0..1 + rng.below(3) {
                if i > 0 {
                    // Interior stars, sometimes doubled.
                    pattern.extend_from_slice(if rng.below(4) == 0 { b"**" } else { b"*" });
                }
                pattern.extend(lit(&mut rng));
            }
            if rng.below(3) == 0 {
                pattern.push(b'*');
            }
            let s = SearchString::compile(std::str::from_utf8(&pattern).unwrap()).unwrap();
            let want = matches_line_reference(&s, &line, DEFAULT_DELIMS);
            assert_eq!(
                s.matcher().matches(&line, DEFAULT_DELIMS),
                want,
                "case {case}: pattern {:?} line {:?}",
                s.raw,
                String::from_utf8_lossy(&line)
            );
            positives += usize::from(want);
        }
        // Both outcomes are well represented.
        assert!((2_000..10_000).contains(&positives), "{positives} matches");
    }

    #[test]
    fn overlapping_first_literal() {
        // `a:a` fails at offset 0 (`*b` meets the delimiter) and matches at
        // offset 2, which overlaps the first occurrence.
        assert!(m("a:a*b", "a:a:ab"));
        assert!(!m("a:a*b", "a:a:a"));
    }

    #[test]
    fn leading_star_is_not_quadratic() {
        let line = vec![b'c'; 10 * 1024];
        assert!(!m("*ch", std::str::from_utf8(&line).unwrap()));
        let mut hit = line.clone();
        hit.push(b'h');
        assert!(m("*ch", std::str::from_utf8(&hit).unwrap()));
    }

    #[test]
    fn literal_substring_semantics() {
        assert!(m("read", "T134 bk.FF.13 read"));
        assert!(m("bk.FF", "T134 bk.FF.13 read"));
        assert!(!m("write", "T134 bk.FF.13 read"));
        assert!(m("state: SUC", "T169 state: SUC#1604"));
    }

    #[test]
    fn wildcard_within_token() {
        assert!(m("dst:11.8.*", "error dst:11.8.42 x"));
        assert!(m("dst:11.8.* x", "error dst:11.8.42 x"));
        assert!(!m("dst:11.9.*", "error dst:11.8.42 x"));
        // A star must not cross a space.
        assert!(!m("dst:*done", "dst:abc then done"));
        assert!(m("dst:*one", "dst:someone said"));
    }

    #[test]
    fn star_can_be_empty() {
        assert!(m("a*b", "ab"));
        assert!(m("blk_*", "blk_"));
    }

    #[test]
    fn parse_table1_style_queries() {
        let q = Query::parse("ERROR and state:REQ_ST_CLOSED and 20012 and reqId:5E9D").unwrap();
        assert_eq!(q.expr.search_strings().len(), 4);
        let q2 = Query::parse("ERROR and socket read length failure -104").unwrap();
        let ss = q2.expr.search_strings();
        assert_eq!(ss.len(), 2);
        assert_eq!(ss[1].raw, "socket read length failure -104");
    }

    #[test]
    fn left_associativity() {
        let q = Query::parse("A and B not C or D").unwrap();
        match &q.expr {
            Expr::Or(lhs, _) => match &**lhs {
                Expr::Not(lhs2, _) => assert!(matches!(&**lhs2, Expr::And(_, _))),
                other => panic!("expected Not, got {other:?}"),
            },
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn expr_oracle_semantics() {
        let q = Query::parse("ERROR not UserId:-2").unwrap();
        assert!(q.expr.matches_line(b"ERROR UserId:7 boom", DEFAULT_DELIMS));
        assert!(!q.expr.matches_line(b"ERROR UserId:-2 boom", DEFAULT_DELIMS));
        assert!(!q.expr.matches_line(b"WARN UserId:7", DEFAULT_DELIMS));
    }

    #[test]
    fn bad_queries_rejected() {
        assert!(Query::parse("").is_err());
        assert!(Query::parse("and x").is_err());
        assert!(Query::parse("x and").is_err());
        assert!(Query::parse("x and and y").is_err());
        assert!(Query::parse("*").is_err());
        assert!(Query::parse("**").is_err());
    }

    #[test]
    fn case_insensitive_operators() {
        let q = Query::parse("alpha AND beta Or gamma NOT delta").unwrap();
        assert_eq!(q.expr.search_strings().len(), 4);
    }

    #[test]
    fn agg_spec_parse_and_render_roundtrip() {
        let cases = [
            ("count", AggSpec::Count),
            ("count-by-template", AggSpec::CountByTemplate),
            ("top-3 t0.v2", AggSpec::TopK { k: 3, template: 0, slot: 2 }),
            ("top-10 t12.v0", AggSpec::TopK { k: 10, template: 12, slot: 0 }),
            ("histogram 50", AggSpec::Histogram { bucket: 50 }),
        ];
        for (text, want) in cases {
            let got = AggSpec::parse(text).unwrap();
            assert_eq!(got, want, "{text}");
            assert_eq!(AggSpec::parse(&got.render()).unwrap(), want, "{text}");
        }
        // Whitespace and verb case are normalized; targets are not.
        assert_eq!(
            AggSpec::parse("  COUNT ").unwrap(),
            AggSpec::Count,
        );
        assert_eq!(
            AggSpec::parse("Top-2  t1.v1").unwrap(),
            AggSpec::TopK { k: 2, template: 1, slot: 1 },
        );
    }

    #[test]
    fn bad_agg_specs_rejected() {
        for text in [
            "",
            "sum",
            "count extra",
            "top-0 t0.v0",
            "top-x t0.v0",
            "top-3",
            "top-3 v0.t0",
            "top-3 t0v0",
            "top-3 t.v0",
            "histogram",
            "histogram 0",
            "histogram x",
            "histogram 5 5",
        ] {
            assert!(AggSpec::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn longest_literal_fragment() {
        let s = SearchString::compile("blk_*.tmp").unwrap();
        assert_eq!(s.longest_literal(), b"blk_");
        let t = SearchString::compile("plain").unwrap();
        assert_eq!(t.longest_literal(), b"plain");
        assert_eq!(t.as_literal(), Some(&b"plain"[..]));
        assert_eq!(s.as_literal(), None);
    }
}
