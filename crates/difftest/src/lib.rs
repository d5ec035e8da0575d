//! Differential fuzzing harness: one oracle, every engine, every knob.
//!
//! LogGrep's core claim is that pattern-level filtering, stamp pruning and
//! fixed-length matching return *exactly* the lines a full scan would
//! (PAPER.md §4–§5), under **every** `LogGrepConfig` knob combination of the
//! §6.3 ablation matrix. This crate falsifies that claim automatically:
//!
//! 1. [`genlog`] builds adversarial logs — workload-catalog output layered
//!    with mutators (schema drift mid-block, padding-edge token lengths,
//!    type-mask flips, empty/huge variable vectors, multi-block splits);
//! 2. [`query`] grows grammar-based query ASTs whose tokens are sampled
//!    from the generated log plus near-misses that straddle capsule/stamp
//!    boundaries;
//! 3. [`oracle`] is a trivially-correct line scanner with its own tiny
//!    query evaluator — independent of `strsearch` and the planner;
//! 4. [`harness`] runs each case through every engine in
//!    [`baselines::LogGrepSystem`] (full, SP, every §6.3 ablation;
//!    compressed at `threads ∈ {1, 4}` with byte-identical archives,
//!    queried once) plus the non-LogGrep baselines, asserting identical
//!    matched line sets and sane `QueryStats` invariants;
//! 5. [`shrink`] minimizes failures (drop lines → shorten tokens →
//!    simplify the query AST) and [`corpus`] writes them as replayable
//!    fixture files under `crates/difftest/corpus/`, which the test suite
//!    replays as regressions.
//!
//! Everything is seeded and std-only: the same `--seed` reproduces the
//! same cases byte for byte.
//!
//! A sibling mode reuses the generators: [`aggregates`] cross-checks the
//! aggregate sink (`count`, `count-by-template`, `top-K`, `histogram`)
//! against a naive raw-line oracle plus the zero-decompression pushdown
//! contract.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregates;
pub mod corpus;
pub mod genlog;
pub mod harness;
pub mod oracle;
pub mod query;
pub mod shrink;
pub mod strategies;

pub use corpus::Case;
pub use harness::{Failure, Harness};
pub use query::QueryAst;

/// Mixes a run seed and a case index into one per-case RNG seed
/// (splitmix64-style finalizer, so nearby indices get unrelated streams).
pub fn case_seed(seed: u64, case: u64) -> u64 {
    let mut z = seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_distinct_and_stable() {
        assert_eq!(case_seed(1, 0), case_seed(1, 0));
        assert_ne!(case_seed(1, 0), case_seed(1, 1));
        assert_ne!(case_seed(1, 0), case_seed(2, 0));
    }
}
