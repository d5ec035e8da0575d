//! Reproduction of **LogGrep** (Wei et al., EuroSys 2023): fast and cheap
//! cloud log storage by exploiting both static and runtime patterns.
//!
//! LogGrep compresses a log block in three layers:
//!
//! 1. a **static-pattern** parse (via [`logparse`]) splits entries into
//!    templates and *variable vectors* — all values of one printf `%s`;
//! 2. a **runtime-pattern** extractor (§4.1) finds the pattern *inside* each
//!    variable vector — `block_<*>F8<*>` — using a tree-expanding method for
//!    low-duplication ("real") vectors and a pattern-merging method for
//!    high-duplication ("nominal") vectors;
//! 3. the vector is decomposed into fine-grained **Capsules** (§4.2) — one
//!    per sub-variable, or a dictionary + index pair — each padded to a
//!    fixed width, stamped with a character-type mask and max length
//!    (§4.3), and compressed independently (LZMA-like codec by default).
//!
//! Queries (§5) match keywords against static patterns, runtime patterns and
//! Capsule stamps so that only the few Capsules that could contain a match
//! are ever decompressed; decompressed Capsules are scanned with fixed-width
//! Boyer-Moore matching.
//!
//! # Quick start
//!
//! ```
//! use loggrep::{LogGrep, LogGrepConfig};
//!
//! let raw = b"T134 bk.FF.13 read\nT169 state: SUC#1604\nT179 bk.C5.15 read\n";
//! let engine = LogGrep::new(LogGrepConfig::default());
//! let boxed = engine.compress(raw).unwrap();
//! let archive = loggrep::Archive::from_bytes(&boxed.to_bytes()).unwrap();
//! let hits = archive.query("read").unwrap();
//! assert_eq!(hits.lines.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod blockfile;
pub mod boxfile;
pub mod capsule;
pub mod config;
pub mod engine;
pub mod error;
pub mod extract;
pub mod pattern;
pub mod query;
pub mod rowset;
pub mod stats;
pub mod typemask;
pub mod vector;
pub mod wire;

pub use blockfile::{split_blocks, BlockFile};
pub use boxfile::{Archive, ByteMap, CapsuleBox};
pub use config::LogGrepConfig;
pub use engine::LogGrep;
pub use error::{Error, Result};
pub use query::explain::{AggDrift, Explanation, GroupDecision, PlanDrift};
pub use query::lang::{AggSpec, Query};
pub use query::{AggQueryResult, AggResult, QueryResult};
pub use stats::{AggLayer, ArchiveStats, QueryStats};
pub use typemask::TypeMask;

/// The pad byte used for fixed-width Capsule storage. NUL never occurs in
/// text logs, so padded values cannot collide with real content and
/// Boyer-Moore matches cannot straddle rows.
pub const PAD: u8 = 0;
