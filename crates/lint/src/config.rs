//! Which files and functions the untrusted-input rules cover.
//!
//! The designation answers one question: *can these tokens be reached
//! with bytes this process did not produce?* Whole files whose job is
//! deserializing or querying archive bytes are covered entirely;
//! codec files are covered only in their decode-side functions (the
//! compress side consumes trusted, locally-produced input).

use crate::rules::ScopeSpec;

/// Decode-path designations, matched by workspace-relative path suffix.
pub const DESIGNATED: &[(&str, ScopeSpec)] = &[
    ("crates/loggrep/src/wire.rs", ScopeSpec::WholeFile),
    ("crates/loggrep/src/boxfile.rs", ScopeSpec::WholeFile),
    ("crates/loggrep/src/blockfile.rs", ScopeSpec::WholeFile),
    ("crates/loggrep/src/capsule.rs", ScopeSpec::WholeFile),
    ("crates/loggrep/src/vector.rs", ScopeSpec::WholeFile),
    ("crates/loggrep/src/pattern.rs", ScopeSpec::WholeFile),
    ("crates/loggrep/src/query/exec.rs", ScopeSpec::WholeFile),
    ("crates/loggrep/src/query/locate.rs", ScopeSpec::WholeFile),
    ("crates/loggrep/src/query/render.rs", ScopeSpec::WholeFile),
    ("crates/cli/src/query.rs", ScopeSpec::WholeFile),
    ("crates/cli/src/stat.rs", ScopeSpec::WholeFile),
    ("crates/cli/src/trace.rs", ScopeSpec::WholeFile),
    ("crates/strsearch/src/fixed.rs", ScopeSpec::WholeFile),
    (
        "crates/codec/src/lib.rs",
        ScopeSpec::Functions(&["decompress", "decompress_into", "decompress_tracked"]),
    ),
    (
        "crates/codec/src/deflate.rs",
        ScopeSpec::Functions(&["decompress", "decompress_into", "read_len_table"]),
    ),
    (
        "crates/codec/src/fastlz.rs",
        ScopeSpec::Functions(&["decompress", "decompress_into", "get_ext_len"]),
    ),
    (
        "crates/codec/src/lzma_lite.rs",
        ScopeSpec::Functions(&["decompress", "decompress_into"]),
    ),
    ("crates/codec/src/huffman.rs", ScopeSpec::Functions(&["from_lengths", "decode", "decode_long"])),
    (
        "crates/codec/src/bitio.rs",
        ScopeSpec::Functions(&["read_bit", "read_bits", "peek", "consume", "refill", "align_byte"]),
    ),
    (
        "crates/codec/src/rangecoder.rs",
        ScopeSpec::Functions(&["new", "next_byte", "decode_bit", "decode_direct", "decode"]),
    ),
    ("crates/codec/src/varint.rs", ScopeSpec::Functions(&["get_uvarint"])),
    ("crates/codec/src/lz77.rs", ScopeSpec::Functions(&["copy_match", "expand_into"])),
];

/// The scope designated for `rel` (forward-slash relative path), if any.
pub fn scope_for(rel: &str) -> Option<ScopeSpec> {
    DESIGNATED
        .iter()
        .find(|(suffix, _)| rel == *suffix || rel.ends_with(&format!("/{suffix}")))
        .map(|(_, scope)| *scope)
}
