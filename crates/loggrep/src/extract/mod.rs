//! Runtime-pattern extraction (§4.1): categorize each variable vector by
//! duplication rate, then extract with the tree-expanding method (real
//! vectors) or the pattern-merging method (nominal vectors).

pub mod nominal;
pub mod real;

pub use nominal::{DictPattern, NominalExtraction};
pub use real::RealExtraction;

use crate::config::LogGrepConfig;
use logparse::Column;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// The outcome of runtime-pattern extraction for one variable vector.
#[derive(Debug)]
pub enum Extraction<'a> {
    /// A real (low-duplication) vector decomposed by one runtime pattern.
    Real(RealExtraction<'a>),
    /// A nominal (high-duplication) vector as dictionary + index.
    Nominal(NominalExtraction),
    /// No useful runtime pattern; store the vector as a single Capsule.
    Plain,
}

/// Duplication rate of a value set: `(total - unique) / total` (§4.1).
///
/// Returns 0.0 for an empty set.
pub fn duplication_rate(values: &Column) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let unique: HashSet<&[u8]> = values.iter().collect();
    (values.len() - unique.len()) as f64 / values.len() as f64
}

/// Categorization outcome, reported by stats and Figure 3's harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Duplication rate below the threshold → tree-expanding extraction.
    Real,
    /// Duplication rate at/above the threshold → pattern merging.
    Nominal,
}

/// Duplication-rate threshold separating real (<) from nominal (>=)
/// variable vectors (§4.1; the paper uses 0.5).
const DUPLICATION_THRESHOLD: f64 = 0.5;

/// Categorizes a vector by the paper's 0.5 duplication-rate heuristic.
pub fn categorize(values: &Column) -> Category {
    if duplication_rate(values) < DUPLICATION_THRESHOLD {
        Category::Real
    } else {
        Category::Nominal
    }
}

/// Extracts runtime pattern(s) for one variable vector.
///
/// `vector_id` seeds the randomized delimiter choices so compression is
/// deterministic for a given configuration.
pub fn extract_vector<'a>(
    values: &'a Column,
    config: &LogGrepConfig,
    vector_id: u64,
) -> Extraction<'a> {
    if values.len() < config.min_vector_for_patterns {
        return Extraction::Plain;
    }
    match categorize(values) {
        Category::Real if config.use_runtime_real => {
            let mut rng = StdRng::seed_from_u64(config.seed ^ vector_id.wrapping_mul(0x9e37));
            match real::extract(values, config, &mut rng) {
                Some(ex) => Extraction::Real(ex),
                None => Extraction::Plain,
            }
        }
        Category::Nominal if config.use_runtime_nominal => {
            Extraction::Nominal(nominal::extract(values))
        }
        _ => Extraction::Plain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(strs: &[&str]) -> Column {
        Column::from_values(strs.iter().map(|s| s.as_bytes()))
    }

    #[test]
    fn duplication_rate_basics() {
        assert_eq!(duplication_rate(&Column::new()), 0.0);
        assert_eq!(duplication_rate(&v(&["a", "b", "c"])), 0.0);
        assert!((duplication_rate(&v(&["a", "a", "b", "b"])) - 0.5).abs() < 1e-9);
        assert!((duplication_rate(&v(&["a", "a", "a", "a"])) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn categorization_uses_threshold() {
        assert_eq!(categorize(&v(&["a", "b", "c", "d"])), Category::Real);
        // Exactly at the threshold (rate 0.5) is nominal.
        assert_eq!(categorize(&v(&["a", "a", "b", "b"])), Category::Nominal);
        assert_eq!(categorize(&v(&["a", "a", "a", "b"])), Category::Nominal);
    }

    #[test]
    fn small_vectors_stay_plain() {
        let cfg = LogGrepConfig::default();
        let values = v(&["blk_1", "blk_2", "blk_3"]);
        assert!(matches!(
            extract_vector(&values, &cfg, 0),
            Extraction::Plain
        ));
    }

    #[test]
    fn toggles_disable_extraction() {
        let owned: Vec<Vec<u8>> = (0..100).map(|i| format!("blk_{i}").into_bytes()).collect();
        let values = Column::from_values(owned.iter().map(|v| v.as_slice()));
        let cfg = LogGrepConfig::sp();
        assert!(matches!(
            extract_vector(&values, &cfg, 0),
            Extraction::Plain
        ));
    }

    #[test]
    fn real_extraction_is_deterministic() {
        let owned: Vec<Vec<u8>> = (0..200)
            .map(|i| format!("blk_{:04x}F8{}", i * 37 % 4096, i % 10).into_bytes())
            .collect();
        let values = Column::from_values(owned.iter().map(|v| v.as_slice()));
        let cfg = LogGrepConfig::default();
        let a = match extract_vector(&values, &cfg, 7) {
            Extraction::Real(e) => e.pattern.display(),
            other => panic!("expected real extraction, got {other:?}"),
        };
        let b = match extract_vector(&values, &cfg, 7) {
            Extraction::Real(e) => e.pattern.display(),
            _ => unreachable!(),
        };
        assert_eq!(a, b);
    }
}
