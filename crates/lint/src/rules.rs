//! Shared diagnostic types, the rule registry, and the token-window
//! rules (panic-in-decode, crate hygiene).
//!
//! The flow-sensitive untrusted-input rules live in [`crate::dataflow`],
//! the concurrency pack in [`crate::lockorder`], and the hygiene pack in
//! [`crate::hygiene`]; all of them emit the [`Diagnostic`] type defined
//! here and register their rule names in [`ALL_RULES`]. Every rule can
//! be suppressed per line with a `// lint:allow(<rule>) — <reason>`
//! comment on the same line or the line immediately above; suppression
//! is applied centrally in [`crate::finalize`] so the raw
//! (pre-suppression) diagnostics can feed the stale-allow pass.

use crate::lexer::{TokKind, Token};
use crate::parser::{match_open, parse, prev_ends_expr, punct_at};

/// `unwrap`/`expect`/`panic!`/`assert!`/bare indexing in decode paths.
pub const RULE_PANIC: &str = "no-panic-in-decode";
/// `Vec::with_capacity`/`vec![_; n]` sized by wire-derived values.
pub const RULE_PREALLOC: &str = "no-untrusted-prealloc";
/// Unchecked `+`/`*` on wire-derived values.
pub const RULE_ARITH: &str = "checked-length-arithmetic";
/// `as usize`/`as u32` narrowing of wire-read `u64`s.
pub const RULE_TRUNC: &str = "no-as-truncation";
/// Crate roots must forbid `unsafe_code` and deny `missing_docs`.
pub const RULE_HYGIENE: &str = "crate-hygiene";
/// A `lint:allow` comment must state a reason.
pub const RULE_ALLOW_REASON: &str = "allow-needs-reason";
/// A cycle in the global lock-order graph (potential deadlock).
pub const RULE_LOCK_CYCLE: &str = "lock-order-cycle";
/// A blocking call (`send`/`recv`/`rpc`/`join`/...) while a lock is held.
pub const RULE_LOCK_BLOCKING: &str = "no-lock-across-blocking";
/// A blocking call inside a `Pool::map`/`try_map` closure.
pub const RULE_POOL_BLOCKING: &str = "no-blocking-in-pool-worker";
/// `let _ =` discarding the `Result` of a fallible decode/cluster call.
pub const RULE_SWALLOWED: &str = "swallowed-result";
/// Unbalanced or immediately-dropped telemetry spans.
pub const RULE_SPAN_BALANCE: &str = "span-balance";
/// A `lint:allow` that no longer suppresses anything.
pub const RULE_STALE_ALLOW: &str = "stale-allow";

/// Every rule the analyzer knows, for the `--help` listing.
pub const ALL_RULES: &[&str] = &[
    RULE_PANIC,
    RULE_PREALLOC,
    RULE_ARITH,
    RULE_TRUNC,
    RULE_HYGIENE,
    RULE_ALLOW_REASON,
    RULE_LOCK_CYCLE,
    RULE_LOCK_BLOCKING,
    RULE_POOL_BLOCKING,
    RULE_SWALLOWED,
    RULE_SPAN_BALANCE,
    RULE_STALE_ALLOW,
];

/// One finding, pointing at a source line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The rule that fired (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable explanation with a suggested fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Where the untrusted-input rules apply within a designated file.
#[derive(Debug, Clone, Copy)]
pub enum ScopeSpec {
    /// The whole file is a decode path (minus `#[cfg(test)]` regions).
    WholeFile,
    /// Only the bodies of functions with these names.
    Functions(&'static [&'static str]),
}

/// Methods whose call panics (`.unwrap()` etc.).
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
/// Macros that panic. `debug_assert*` is deliberately absent: it
/// compiles out in release and is allowed for packer-side invariants.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Marks which tokens the untrusted-input rules inspect.
pub fn designated_mask(toks: &[Token], scope: ScopeSpec) -> Vec<bool> {
    let parsed = parse(toks);
    let mut mask = match scope {
        ScopeSpec::WholeFile => vec![true; toks.len()],
        ScopeSpec::Functions(names) => {
            let mut m = vec![false; toks.len()];
            for f in &parsed.functions {
                if names.contains(&f.name.as_str()) {
                    for slot in m.iter_mut().take(f.body_close).skip(f.body_open + 1) {
                        *slot = true;
                    }
                }
            }
            m
        }
    };
    for (slot, in_test) in mask.iter_mut().zip(&parsed.test_mask) {
        if *in_test {
            *slot = false;
        }
    }
    mask
}

/// Runs the panic rule over one file's designated regions. Returns raw
/// (pre-suppression) diagnostics.
pub fn check_panic(file: &str, toks: &[Token], scope: ScopeSpec) -> Vec<Diagnostic> {
    let designated = designated_mask(toks, scope);
    let mut diags = Vec::new();
    for i in 0..toks.len() {
        if !designated.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => {
                let name = t.text.as_str();
                if PANIC_METHODS.contains(&name)
                    && punct_at(toks, i.wrapping_sub(1), '.')
                    && punct_at(toks, i + 1, '(')
                {
                    diags.push(Diagnostic {
                        file: file.to_string(),
                        line: t.line,
                        rule: RULE_PANIC,
                        message: format!(
                            ".{name}() can panic on corrupt input; return Error::Corrupt instead"
                        ),
                    });
                } else if PANIC_MACROS.contains(&name) && punct_at(toks, i + 1, '!') {
                    diags.push(Diagnostic {
                        file: file.to_string(),
                        line: t.line,
                        rule: RULE_PANIC,
                        message: format!(
                            "{name}! can panic on corrupt input; return Error::Corrupt instead"
                        ),
                    });
                }
            }
            TokKind::Punct
                if t.is_punct('[')
                    && prev_ends_expr(toks, i)
                    && !content_is_full_range(toks, i) =>
            {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: t.line,
                    rule: RULE_PANIC,
                    message: "bare indexing can panic on corrupt input; use .get()/.get_mut() and return Error::Corrupt".to_string(),
                });
            }
            _ => {}
        }
    }
    diags
}

/// Runs the crate-hygiene rule over a crate root file.
pub fn check_crate_root(file: &str, src: &str, is_lib: bool) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !src.contains("#![forbid(unsafe_code)]") {
        diags.push(Diagnostic {
            file: file.to_string(),
            line: 1,
            rule: RULE_HYGIENE,
            message: "crate root must carry #![forbid(unsafe_code)]".to_string(),
        });
    }
    if is_lib && !src.contains("#![deny(missing_docs)]") {
        diags.push(Diagnostic {
            file: file.to_string(),
            line: 1,
            rule: RULE_HYGIENE,
            message: "crate root must carry #![deny(missing_docs)]".to_string(),
        });
    }
    diags
}

/// True if the bracket group at `open` contains exactly `..` (a full
/// range, which cannot panic).
fn content_is_full_range(toks: &[Token], open: usize) -> bool {
    let Some(close) = match_open(toks, open) else {
        return false;
    };
    close == open + 3 && punct_at(toks, open + 1, '.') && punct_at(toks, open + 2, '.')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn whole(src: &str) -> Vec<Diagnostic> {
        let l = lex(src);
        check_panic("test.rs", &l.tokens, ScopeSpec::WholeFile)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn unwrap_fires() {
        let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_of(&whole(bad)), vec![RULE_PANIC]);
    }

    #[test]
    fn expect_and_panic_macros_fire() {
        let d = whole("fn f() { y.expect(\"msg\"); panic!(\"boom\"); assert!(c); unreachable!() }");
        assert_eq!(rules_of(&d), vec![RULE_PANIC; 4]);
    }

    #[test]
    fn debug_assert_and_unwrap_or_pass() {
        assert!(whole("fn f() { debug_assert!(x); let y = o.unwrap_or(0); }").is_empty());
    }

    #[test]
    fn indexing_fires_but_full_range_and_attrs_pass() {
        assert_eq!(rules_of(&whole("fn f(v: &[u8]) -> u8 { v[0] }")), vec![RULE_PANIC]);
        assert_eq!(rules_of(&whole("fn f(v: &[u8]) { g(&v[1..]); }")), vec![RULE_PANIC]);
        assert!(whole("#[derive(Debug)]\nstruct S { x: [u8; 4] }\nfn f(v: &[u8]) -> &[u8] { &v[..] }").is_empty());
        assert!(whole("fn f(v: &[u8]) -> Option<&u8> { v.get(0) }").is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); v[0]; }\n}\nfn real() { }";
        assert!(whole(src).is_empty());
    }

    #[test]
    fn fn_scope_limits_rules() {
        let src = "fn decode(v: &[u8]) -> u8 { v[0] }\nfn encode(v: &[u8]) -> u8 { v[0] }";
        let l = lex(src);
        let d = check_panic("t.rs", &l.tokens, ScopeSpec::Functions(&["decode"]));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn hygiene_fires_and_passes() {
        let bare = "pub fn f() {}";
        let d = check_crate_root("lib.rs", bare, true);
        assert_eq!(d.len(), 2);
        let good = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}";
        assert!(check_crate_root("lib.rs", good, true).is_empty());
        let bin = "#![forbid(unsafe_code)]\nfn main() {}";
        assert!(check_crate_root("main.rs", bin, false).is_empty());
    }
}
