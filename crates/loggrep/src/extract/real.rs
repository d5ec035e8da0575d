//! Tree-expanding runtime-pattern extraction for real variable vectors
//! (§4.1, Figure 4).
//!
//! A sample of the vector's values is placed in a root node; leaves are
//! repeatedly split by a delimiter — a non-alphanumeric character drawn from
//! a randomly picked value, or the longest common substring (LCS) of two
//! randomly picked values — accepted when at least 95 % of the leaf's values
//! contain it. All-equal leaves become constants; unsplitable leaves become
//! sub-variables. The expansion is O(n) in the sample size because the
//! iteration count is bounded by the (constant-ish) number of sub-variables.

use crate::capsule::Stamp;
use crate::config::LogGrepConfig;
use crate::pattern::{RuntimePattern, Segment};
use logparse::Column;
use rand::rngs::StdRng;
use rand::Rng;

/// A real vector decomposed by its extracted runtime pattern.
#[derive(Debug)]
pub struct RealExtraction<'a> {
    /// The extracted pattern, with per-sub-variable stamps filled in.
    pub pattern: RuntimePattern,
    /// `sub_values[v][pattern_row]` = value of sub-variable `v`; pattern
    /// rows exclude outliers.
    pub sub_values: Vec<Vec<&'a [u8]>>,
    /// Rows (vector-local, ascending) whose value did not match the pattern.
    pub outlier_rows: Vec<u32>,
    /// The outlier values, parallel to `outlier_rows`.
    pub outlier_values: Vec<&'a [u8]>,
}

/// Fraction of a variable vector sampled for the root node (§4.1: 5 %).
const VALUE_SAMPLE_RATE: f64 = 0.05;
/// Delimiter attempts per leaf before marking it unsplitable (§4.1: 3).
const DELIMITER_ATTEMPTS: u32 = 3;
/// Maximum pattern-tree depth (bounds pattern size).
const MAX_TREE_DEPTH: u32 = 8;

/// One leaf of the (flattened, in-order) pattern tree.
enum Leaf {
    Const(Vec<u8>),
    Var,
}

/// Extracts the runtime pattern of `values` and decomposes every value.
///
/// Returns `None` when no useful pattern exists (pattern would be a single
/// sub-variable) or too many values fail to match it.
pub fn extract<'a>(
    values: &'a Column,
    config: &LogGrepConfig,
    rng: &mut StdRng,
) -> Option<RealExtraction<'a>> {
    // Sample 5 % (at least 32) and deduplicate: the root node.
    let want = ((values.len() as f64 * VALUE_SAMPLE_RATE).ceil() as usize)
        .max(32)
        .min(values.len());
    let stride = values.len().div_ceil(want).max(1);
    let mut sample: Vec<&[u8]> = values.iter().step_by(stride).collect();
    sample.sort_unstable();
    sample.dedup();
    if sample.is_empty() {
        return None;
    }

    let leaves = expand(sample, 0, config, rng);

    // Assemble segments from leaves: drop empty constants, merge adjacent
    // constants, number the sub-variables left to right.
    let mut segments: Vec<Segment> = Vec::new();
    let mut nvars = 0usize;
    for leaf in leaves {
        match leaf {
            Leaf::Const(c) => {
                if c.is_empty() {
                    continue;
                }
                if let Some(Segment::Const(prev)) = segments.last_mut() {
                    prev.extend_from_slice(&c);
                } else {
                    segments.push(Segment::Const(c));
                }
            }
            Leaf::Var => {
                segments.push(Segment::Var(nvars));
                nvars += 1;
            }
        }
    }
    // A single bare sub-variable carries no information.
    if segments.len() == 1 && matches!(segments[0], Segment::Var(_)) {
        return None;
    }
    if segments.is_empty() {
        return None;
    }
    let mut pattern = RuntimePattern {
        segments,
        sub_stamps: vec![Stamp::default(); nvars],
    };

    // Decompose the full vector; pattern misses become outliers.
    let mut sub_values: Vec<Vec<&[u8]>> = vec![Vec::new(); nvars];
    let mut outlier_rows = Vec::new();
    let mut outlier_values = Vec::new();
    for (row, value) in values.iter().enumerate() {
        match pattern.decompose(value) {
            Some(subs) => {
                for (v, s) in subs.into_iter().enumerate() {
                    sub_values[v].push(s);
                }
            }
            None => {
                outlier_rows.push(row as u32);
                outlier_values.push(value);
            }
        }
    }
    if (outlier_rows.len() as f64) > values.len() as f64 * config.max_outlier_rate {
        return None;
    }

    // Stamp each sub-variable vector (§4.3).
    for (v, vals) in sub_values.iter().enumerate() {
        pattern.sub_stamps[v] = Stamp::of(vals.iter().copied());
    }

    telemetry::counter!("extract.outlier_rows", outlier_rows.len() as u64);
    Some(RealExtraction {
        pattern,
        sub_values,
        outlier_rows,
        outlier_values,
    })
}

/// Recursively expands a leaf into in-order leaves.
fn expand(
    values: Vec<&[u8]>,
    depth: u32,
    config: &LogGrepConfig,
    rng: &mut StdRng,
) -> Vec<Leaf> {
    debug_assert!(!values.is_empty());
    telemetry::counter!("extract.tree_rounds", 1);
    if values.iter().all(|v| *v == values[0]) {
        return vec![Leaf::Const(values[0].to_vec())];
    }
    if depth >= MAX_TREE_DEPTH {
        return vec![Leaf::Var];
    }

    let mut tried: Vec<Vec<u8>> = Vec::new();
    for _ in 0..DELIMITER_ATTEMPTS {
        let Some(delim) = pick_delimiter(&values, &tried, rng) else {
            break;
        };
        tried.push(delim.clone());
        let containing = values
            .iter()
            .filter(|v| strsearch::contains(v, &delim))
            .count();
        if (containing as f64) < values.len() as f64 * config.split_coverage {
            continue;
        }
        // Accepted: split each containing value at the first occurrence;
        // the few non-containing sample values drop out (they will simply
        // be outliers of the final pattern).
        let mut lefts = Vec::with_capacity(containing);
        let mut rights = Vec::with_capacity(containing);
        for v in &values {
            if let Some(at) = strsearch::find(v, &delim) {
                lefts.push(&v[..at]);
                rights.push(&v[at + delim.len()..]);
            }
        }
        let mut out = expand(lefts, depth + 1, config, rng);
        out.push(Leaf::Const(delim));
        out.extend(expand(rights, depth + 1, config, rng));
        return out;
    }
    vec![Leaf::Var]
}

/// Picks a candidate delimiter: a non-alphanumeric byte from a random value,
/// falling back to the LCS of two random values. Skips candidates already
/// tried. Returns `None` if no fresh candidate exists.
fn pick_delimiter(values: &[&[u8]], tried: &[Vec<u8>], rng: &mut StdRng) -> Option<Vec<u8>> {
    // Try a few random draws for a non-alphanumeric character.
    for _ in 0..4 {
        let v = values[rng.gen_range(0..values.len())];
        let non_alnum: Vec<u8> = v
            .iter()
            .copied()
            .filter(|b| !b.is_ascii_alphanumeric())
            .collect();
        if !non_alnum.is_empty() {
            let d = vec![non_alnum[rng.gen_range(0..non_alnum.len())]];
            if !tried.contains(&d) {
                return Some(d);
            }
        }
    }
    // LCS fallback: longest common substring of two random values.
    for _ in 0..4 {
        let a = values[rng.gen_range(0..values.len())];
        let b = values[rng.gen_range(0..values.len())];
        if a == b {
            continue;
        }
        let lcs = longest_common_substring(a, b);
        if lcs.len() >= 2 && !tried.contains(&lcs) {
            return Some(lcs);
        }
    }
    None
}

/// Longest common substring via dynamic programming (values are short).
fn longest_common_substring(a: &[u8], b: &[u8]) -> Vec<u8> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut best_len = 0usize;
    let mut best_end = 0usize; // End index in `a` (exclusive).
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            cur[j] = if a[i - 1] == b[j - 1] { prev[j - 1] + 1 } else { 0 };
            if cur[j] > best_len {
                best_len = cur[j];
                best_end = i;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    a[best_end - best_len..best_end].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn column_of(values: &[String]) -> Column {
        Column::from_values(values.iter().map(|s| s.as_bytes()))
    }

    fn run(values: Vec<String>) -> Option<RealExtraction<'static>> {
        // Leak for 'static convenience in tests.
        let values: &'static Column = Box::leak(Box::new(column_of(&values)));
        let cfg = LogGrepConfig::default();
        let mut rng = StdRng::seed_from_u64(42);
        extract(values, &cfg, &mut rng)
    }

    #[test]
    fn block_ids_extract_prefix_pattern() {
        let values: Vec<String> = (0..500).map(|i| format!("blk_{}", 1_000_000 + i * 7)).collect();
        let ex = run(values).expect("pattern expected");
        let display = ex.pattern.display();
        assert!(display.starts_with("blk_") || display.contains("blk"), "{display}");
        assert!(ex.outlier_rows.is_empty());
        assert_eq!(ex.pattern.sub_vars(), ex.sub_values.len());
    }

    #[test]
    fn figure4_mixed_values_have_outliers() {
        let mut values: Vec<String> = (0..200).map(|i| format!("block_{:X}F8{:X}", i % 16, i * 3 % 256)).collect();
        values.push("Failed".to_string());
        let ex = run(values).expect("pattern expected");
        assert_eq!(ex.outlier_values.len(), 1);
        assert_eq!(ex.outlier_values[0], b"Failed");
    }

    #[test]
    fn sub_values_reconstruct_rows() {
        let values: Vec<String> = (0..300)
            .map(|i| format!("/root/usr/admin/task{}.log", i))
            .collect();
        let raw = column_of(&values);
        let cfg = LogGrepConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let ex = extract(&raw, &cfg, &mut rng).expect("pattern expected");
        // Walk pattern rows and rebuild each value.
        let mut pr = 0usize;
        for (row, value) in raw.iter().enumerate() {
            if ex.outlier_rows.binary_search(&(row as u32)).is_ok() {
                continue;
            }
            let subs: Vec<&[u8]> = ex.sub_values.iter().map(|sv| sv[pr]).collect();
            assert_eq!(ex.pattern.render(&subs), value, "row {row}");
            pr += 1;
        }
    }

    #[test]
    fn incompatible_values_yield_none_or_high_outliers() {
        // Random-ish unrelated strings: no single pattern covers them.
        let values: Vec<String> = (0..100)
            .map(|i| match i % 4 {
                0 => format!("alpha{i}"),
                1 => format!("{i}beta"),
                2 => format!("g-{i}-h"),
                _ => format!("{i}"),
            })
            .collect();
        // Either no pattern, or one with acceptable outliers; both are
        // valid outcomes — correctness is preserved by the outlier path.
        let _ = run(values);
    }

    #[test]
    fn lcs_basics() {
        assert_eq!(longest_common_substring(b"abcdef", b"zcdez"), b"cde");
        assert_eq!(longest_common_substring(b"abc", b"xyz"), b"");
        assert_eq!(longest_common_substring(b"", b"x"), b"");
        assert_eq!(longest_common_substring(b"1FF8aa", b"1FF8bb"), b"1FF8");
    }

    #[test]
    fn all_identical_values_become_constant() {
        let values: Vec<String> = (0..100).map(|_| "same".to_string()).collect();
        // Duplication rate is high, so this is normally nominal; call the
        // tree expander directly to check the constant path.
        let raw = column_of(&values);
        let cfg = LogGrepConfig::default();
        let mut rng = StdRng::seed_from_u64(9);
        let ex = extract(&raw, &cfg, &mut rng).expect("constant pattern");
        assert_eq!(ex.pattern.sub_vars(), 0);
        assert!(ex.outlier_rows.is_empty());
    }
}
