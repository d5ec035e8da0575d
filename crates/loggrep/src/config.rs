//! Engine configuration, including the ablation toggles of §6.3.

use logparse::ParserConfig;

/// Configuration for the LogGrep engine.
///
/// The defaults reproduce the full system as evaluated in the paper; the
/// `without_*` constructors produce the §6.3 ablations, and [`Self::sp`]
/// produces **LogGrep-SP** (static patterns only, the paper's first attempt
/// of §2.2).
#[derive(Debug, Clone)]
pub struct LogGrepConfig {
    /// Static-pattern parser configuration (5 % sampling by default).
    pub parser: ParserConfig,
    /// Fraction of sampled values that must contain a candidate delimiter
    /// for a tree split to be accepted (paper: 95 %).
    pub split_coverage: f64,
    /// Vectors smaller than this stay Plain: metadata would outweigh gains.
    pub min_vector_for_patterns: usize,
    /// If more than this fraction of values fail to match the extracted
    /// pattern, the vector falls back to Plain storage.
    pub max_outlier_rate: f64,
    /// Extract runtime patterns in real variable vectors ("w/o real" off).
    pub use_runtime_real: bool,
    /// Extract runtime patterns in nominal variable vectors ("w/o nomi" off).
    pub use_runtime_nominal: bool,
    /// Filter Capsules with their stamps during queries ("w/o stamp" off).
    pub use_stamps: bool,
    /// Pad values to fixed length and search with Boyer-Moore; when false,
    /// Capsules are delimiter-separated and scanned with KMP ("w/o fixed").
    pub fixed_length: bool,
    /// Cache query results ("w/o cache" off).
    pub use_query_cache: bool,
    /// Second-stage codec name (see [`codec::by_name`]), or `"auto"` for
    /// the per-capsule cost model that picks LzmaLite, Deflate, or FastLz
    /// from payload size and a sampled redundancy probe. The paper uses
    /// LZMA everywhere, reproduced here by `"lzma-lite"`; `"auto"` keeps
    /// LzmaLite where its ratio edge pays (small dictionary-class
    /// capsules) and takes the 3–6× faster stages elsewhere.
    pub codec_name: String,
    /// Seed for the randomized choices in tree expansion (reproducibility).
    pub seed: u64,
    /// Worker-pool size of the write side (extraction and Capsule
    /// encoding); `0` (the default) resolves through `LOGGREP_THREADS` /
    /// `available_parallelism`. Output is byte-identical for every value.
    /// Reads are serial per block and parallel across blocks.
    pub threads: usize,
}

impl Default for LogGrepConfig {
    fn default() -> Self {
        Self {
            parser: ParserConfig::default(),
            split_coverage: 0.95,
            min_vector_for_patterns: 16,
            max_outlier_rate: 0.3,
            use_runtime_real: true,
            use_runtime_nominal: true,
            use_stamps: true,
            fixed_length: true,
            use_query_cache: true,
            codec_name: "auto".to_string(),
            seed: 0x1095_5e23,
            threads: 0,
        }
    }
}

impl LogGrepConfig {
    /// LogGrep-SP: static patterns only (§2.2) — no runtime patterns at all.
    pub fn sp() -> Self {
        Self {
            use_runtime_real: false,
            use_runtime_nominal: false,
            ..Self::default()
        }
    }

    /// The "w/o real" ablation: no runtime patterns in real vectors.
    pub fn without_real() -> Self {
        Self {
            use_runtime_real: false,
            ..Self::default()
        }
    }

    /// The "w/o nomi" ablation: no runtime patterns in nominal vectors.
    pub fn without_nominal() -> Self {
        Self {
            use_runtime_nominal: false,
            ..Self::default()
        }
    }

    /// The "w/o stamp" ablation: Capsule stamps are not used for filtering.
    pub fn without_stamps() -> Self {
        Self {
            use_stamps: false,
            ..Self::default()
        }
    }

    /// The "w/o fixed" ablation: variant-length Capsules queried with KMP.
    pub fn without_fixed() -> Self {
        Self {
            fixed_length: false,
            ..Self::default()
        }
    }

    /// The "w/o cache" ablation: the query cache is disabled.
    pub fn without_cache() -> Self {
        Self {
            use_query_cache: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = LogGrepConfig::default();
        assert!((c.split_coverage - 0.95).abs() < 1e-9);
        assert!(c.use_runtime_real && c.use_runtime_nominal);
        assert!(c.use_stamps && c.fixed_length && c.use_query_cache);
    }

    #[test]
    fn parallelism_defaults_to_auto() {
        let c = LogGrepConfig::default();
        assert_eq!(c.threads, 0); // 0 = LOGGREP_THREADS / available_parallelism.
    }

    #[test]
    fn ablations_flip_exactly_one_knob() {
        assert!(!LogGrepConfig::without_real().use_runtime_real);
        assert!(!LogGrepConfig::without_nominal().use_runtime_nominal);
        assert!(!LogGrepConfig::without_stamps().use_stamps);
        assert!(!LogGrepConfig::without_fixed().fixed_length);
        assert!(!LogGrepConfig::without_cache().use_query_cache);
        let sp = LogGrepConfig::sp();
        assert!(!sp.use_runtime_real && !sp.use_runtime_nominal);
        assert!(sp.use_stamps);
    }
}
