//! Concurrency rule pack: lock-order graph, lock-held-across-blocking,
//! and blocking-call-in-pool-worker.
//!
//! The cluster (PR 8) and the worker pool (PR 2) made lock discipline a
//! correctness surface: a deadlock in the decode path is as much a
//! denial-of-service as an unbounded allocation. This pass:
//!
//! 1. walks every non-test function tracking **which locks are held at
//!    each point** — `let g = x.lock()` holds until its block ends or
//!    `drop(g)`, a bare `x.lock().f()` holds for the statement;
//! 2. records an **edge A → B** whenever B is acquired while A is held
//!    (including one level of calls into other in-workspace functions
//!    that themselves lock), and reports any **cycle** in the global
//!    graph as a potential deadlock (`lock-order-cycle`) — reacquiring
//!    a held lock is the one-node cycle;
//! 3. flags **blocking calls while a lock is held** (`send` / `recv` /
//!    `rpc` / `join` / `sleep` / ..., rule `no-lock-across-blocking`);
//! 4. flags blocking calls inside closures handed to
//!    `Pool::map` / `try_map` (rule
//!    `no-blocking-in-pool-worker`) — a sleeping worker starves the
//!    bounded pool.
//!
//! Lock identity: `self.field` chains qualify by the `impl` type
//! (`SimNet.state`), `UPPER_CASE` statics are global by name, and other
//! locals are file + function qualified so unrelated locals never
//! unify.

use std::collections::{HashMap, HashSet};

use crate::lexer::{TokKind, Token};
use crate::parser::{match_open, parse, punct_at, receiver_chain, Function};
use crate::rules::{Diagnostic, RULE_LOCK_BLOCKING, RULE_LOCK_CYCLE, RULE_POOL_BLOCKING};

/// Method names that acquire a lock when called with no arguments.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];
/// Calls that can block indefinitely (never safe while holding a lock).
const BLOCKING: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "rpc",
    "join",
    "wait",
    "wait_timeout",
    "sleep",
    "accept",
    "connect",
];
/// Common method names never resolved as in-workspace callees (they are
/// std vocabulary; resolving them by bare name would mis-link).
const CALLEE_STOPLIST: &[&str] = &[
    "new", "default", "len", "is_empty", "push", "pop", "get", "get_mut", "insert", "remove",
    "clone", "next", "clear", "drain", "iter", "iter_mut", "fmt", "drop", "eq", "hash", "from",
    "into", "as_ref", "as_str", "to_string", "unwrap_or_else", "map", "and_then", "ok", "err",
    "expect", "unwrap", "min", "max", "take", "replace", "retain", "extend", "append", "contains",
    "sort", "last", "first", "with_capacity", "capacity", "resize", "truncate", "split_off",
    "record", "add", "set",
];

/// One `A held while B acquired` observation.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The lock already held.
    pub from: String,
    /// The lock acquired under it.
    pub to: String,
    /// 1-based line of the inner acquisition.
    pub line: u32,
}

/// A call made while a lock is held (candidate interprocedural edge).
#[derive(Debug, Clone)]
pub struct HeldCall {
    /// The held lock.
    pub lock: String,
    /// Bare callee name (`publish_health`).
    pub callee: String,
    /// 1-based line of the call.
    pub line: u32,
}

/// Per-function lock summary (serialized into the incremental cache).
#[derive(Debug, Clone, Default)]
pub struct FnLockSummary {
    /// `Type::name`-qualified function name.
    pub qual_name: String,
    /// Direct acquisitions `(lock id, line)`, in order.
    pub locks: Vec<(String, u32)>,
    /// Nested-acquisition edges observed inside this function.
    pub edges: Vec<LockEdge>,
    /// Calls made while holding a lock.
    pub held_calls: Vec<HeldCall>,
}

/// Lock analysis of one file: summaries for the global pass plus the
/// file-local diagnostics.
#[derive(Debug, Default)]
pub struct FileLockInfo {
    /// Workspace-relative path.
    pub file: String,
    /// Per-function summaries (functions that touch locks only).
    pub fns: Vec<FnLockSummary>,
    /// File-local diagnostics (blocking-while-held, pool-worker).
    pub diags: Vec<Diagnostic>,
}

/// A lock currently held during the body walk.
struct Guard {
    /// Binding name; `None` for statement temporaries.
    var: Option<String>,
    lock: String,
    /// Brace depth at the binding (released when the block closes).
    depth: i32,
    /// `true` for statement temporaries released at the next `;`.
    stmt_temp: bool,
}

/// Analyzes one file's functions.
pub fn analyze(file: &str, toks: &[Token]) -> FileLockInfo {
    let parsed = parse(toks);
    let mut info = FileLockInfo {
        file: file.to_string(),
        ..FileLockInfo::default()
    };
    for func in &parsed.functions {
        if func.in_test {
            continue;
        }
        let summary = walk_function(file, toks, func, &mut info.diags);
        if !summary.locks.is_empty() || !summary.edges.is_empty() {
            info.fns.push(summary);
        }
        check_pool_workers(file, toks, func, &mut info.diags);
    }
    info
}

/// The impl-type prefix of a qualified name (`SimNet::rpc` → `SimNet`).
fn impl_type(qual_name: &str) -> Option<&str> {
    qual_name.split_once("::").map(|(ty, _)| ty)
}

/// Canonical lock identity for a receiver chain seen inside `func`.
fn lock_id(file: &str, func: &Function, chain: &str) -> String {
    if let Some(rest) = chain.strip_prefix("self.") {
        match impl_type(&func.qual_name) {
            Some(ty) => return format!("{ty}.{rest}"),
            None => return format!("{file}:{rest}"),
        }
    }
    let is_static = !chain.is_empty()
        && chain
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
    if is_static {
        // Statics unify by name across the file; prefix with the file so
        // two crates' `LOCK` statics stay distinct.
        return format!("{file}:{chain}");
    }
    format!("{file}:{}:{chain}", func.qual_name)
}

/// Walks one function body tracking held locks.
fn walk_function(
    file: &str,
    toks: &[Token],
    func: &Function,
    diags: &mut Vec<Diagnostic>,
) -> FnLockSummary {
    let mut summary = FnLockSummary {
        qual_name: func.qual_name.clone(),
        ..FnLockSummary::default()
    };
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = func.body_open + 1;
    while i < func.body_close {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.is_punct('{') => depth += 1,
            TokKind::Punct if t.is_punct('}') => {
                depth -= 1;
                // A statement temporary surviving to a `}` at its own
                // depth is a `for`/`match` header temporary; it dies with
                // the construct's block.
                held.retain(|g| g.depth <= depth && !(g.stmt_temp && g.depth == depth));
            }
            TokKind::Punct if t.is_punct(';') => {
                held.retain(|g| !(g.stmt_temp && g.depth == depth));
            }
            TokKind::Ident
                if LOCK_METHODS.contains(&t.text.as_str())
                    && punct_at(toks, i.wrapping_sub(1), '.')
                    && punct_at(toks, i + 1, '(')
                    && punct_at(toks, i + 2, ')') =>
            {
                if let Some(chain) = receiver_chain(toks, i) {
                    let lock = lock_id(file, func, &chain);
                    for g in &held {
                        if g.lock == lock {
                            diags.push(Diagnostic {
                                file: file.to_string(),
                                line: t.line,
                                rule: RULE_LOCK_CYCLE,
                                message: format!(
                                    "`{chain}` reacquired while already held in {} — self-deadlock on a non-reentrant lock",
                                    func.qual_name
                                ),
                            });
                        } else {
                            summary.edges.push(LockEdge {
                                from: g.lock.clone(),
                                to: lock.clone(),
                                line: t.line,
                            });
                        }
                    }
                    summary.locks.push((lock.clone(), t.line));
                    let (var, stmt_temp) = if guard_is_consumed(toks, i + 1) {
                        // `m.lock().iter().collect()` — the guard is a
                        // chain temporary; the binding (if any) holds the
                        // collected value, not the lock.
                        (None, true)
                    } else {
                        binding_of(toks, func, i)
                    };
                    held.push(Guard {
                        var,
                        lock,
                        depth,
                        stmt_temp,
                    });
                }
            }
            // `drop(g)` / `mem::drop(g)` releases the named guard.
            TokKind::Ident if t.text == "drop" && punct_at(toks, i + 1, '(') => {
                if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                    if punct_at(toks, i + 3, ')') {
                        held.retain(|g| g.var.as_deref() != Some(name.text.as_str()));
                    }
                }
            }
            // Any other call while a lock is held: candidate
            // interprocedural edge + blocking check.
            TokKind::Ident
                if !held.is_empty()
                    && punct_at(toks, i + 1, '(')
                    && !LOCK_METHODS.contains(&t.text.as_str())
                    && !crate::parser::KEYWORDS.contains(&t.text.as_str()) =>
            {
                let name = t.text.as_str();
                if BLOCKING.contains(&name) {
                    let locks: Vec<&str> = held.iter().map(|g| g.lock.as_str()).collect();
                    diags.push(Diagnostic {
                        file: file.to_string(),
                        line: t.line,
                        rule: RULE_LOCK_BLOCKING,
                        message: format!(
                            "`{name}()` called while holding {} — a blocked holder stalls every other thread; drop the guard first",
                            locks.join(", ")
                        ),
                    });
                } else if !CALLEE_STOPLIST.contains(&name) && resolvable_call(toks, i) {
                    for g in &held {
                        summary.held_calls.push(HeldCall {
                            lock: g.lock.clone(),
                            callee: name.to_string(),
                            line: t.line,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    summary
}

/// Methods through which the lock guard itself flows (poison handling).
const GUARD_PRESERVING: &[&str] = &["unwrap", "unwrap_or_else", "expect"];

/// True when the chain continues past `m.lock()` (and any poison
/// handling) with a consuming method: the guard is then a statement
/// temporary, whatever the surrounding `let` binds.
fn guard_is_consumed(toks: &[Token], open_paren: usize) -> bool {
    let Some(mut c) = match_open(toks, open_paren) else {
        return false;
    };
    loop {
        if punct_at(toks, c + 1, '?') {
            c += 1;
            continue;
        }
        if punct_at(toks, c + 1, '.')
            && toks
                .get(c + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && GUARD_PRESERVING.contains(&t.text.as_str()))
            && punct_at(toks, c + 3, '(')
        {
            match match_open(toks, c + 3) {
                Some(n) => c = n,
                None => return false,
            }
            continue;
        }
        return punct_at(toks, c + 1, '.');
    }
}

/// Only calls we can plausibly resolve to an in-workspace function are
/// recorded as interprocedural candidates: free/path calls, and
/// `self.helper()` methods. `guard.reset()`-style method calls on other
/// receivers share bare names with unrelated types far too often.
fn resolvable_call(toks: &[Token], call_idx: usize) -> bool {
    if !punct_at(toks, call_idx.wrapping_sub(1), '.') {
        return true; // free or path call
    }
    receiver_chain(toks, call_idx).is_some_and(|c| c == "self" || c.starts_with("self."))
}

/// Is the acquisition at `method_idx` bound by `let <name> =`?
/// Returns `(Some(name), false)` for real bindings, `(None, true)` for
/// statement temporaries (including the `let _ =` footgun, whose guard
/// drops immediately).
fn binding_of(toks: &[Token], func: &Function, method_idx: usize) -> (Option<String>, bool) {
    // Scan back to the statement boundary.
    let mut j = method_idx;
    while j > func.body_open + 1 {
        let t = &toks[j - 1];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        j -= 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_ident("let")) {
        return (None, true);
    }
    let mut k = j + 1;
    if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
        k += 1;
    }
    match toks.get(k) {
        Some(t) if t.kind == TokKind::Ident && t.text != "_" => (Some(t.text.clone()), false),
        Some(t) if t.is_punct('_') || t.text == "_" => (None, true),
        _ => (None, true),
    }
}

/// Flags blocking calls inside closures handed to a pool's
/// `map` / `try_map`.
fn check_pool_workers(file: &str, toks: &[Token], func: &Function, diags: &mut Vec<Diagnostic>) {
    for i in func.body_open + 1..func.body_close {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || !matches!(t.text.as_str(), "map" | "try_map")
            || !punct_at(toks, i.wrapping_sub(1), '.')
            || !punct_at(toks, i + 1, '(')
        {
            continue;
        }
        let Some(chain) = receiver_chain(toks, i) else {
            continue;
        };
        let is_pool = chain == "pool"
            || chain.ends_with(".pool")
            || chain.starts_with("Pool::")
            || chain == "self.pool";
        if !is_pool {
            continue;
        }
        let Some(close) = match_open(toks, i + 1) else {
            continue;
        };
        for j in i + 2..close {
            let c = &toks[j];
            if c.kind == TokKind::Ident
                && BLOCKING.contains(&c.text.as_str())
                && punct_at(toks, j + 1, '(')
            {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: c.line,
                    rule: RULE_POOL_BLOCKING,
                    message: format!(
                        "`{}()` inside a pool worker closure — a blocked worker starves the bounded pool; move the blocking call outside `{}`",
                        c.text, t.text
                    ),
                });
            }
        }
    }
}

/// The global pass: resolves one level of held-calls into interprocedural
/// edges and reports every distinct cycle in the lock-order graph.
pub fn global(infos: &[&FileLockInfo]) -> Vec<Diagnostic> {
    // Bare name → indices of summaries with that name.
    let mut by_name: HashMap<&str, Vec<(&str, &FnLockSummary)>> = HashMap::new();
    for info in infos {
        for f in &info.fns {
            let bare = f.qual_name.rsplit("::").next().unwrap_or(&f.qual_name);
            by_name.entry(bare).or_default().push((&info.file, f));
        }
    }

    // Edge map: (from, to) → representative (file, line).
    let mut edges: HashMap<(String, String), (String, u32)> = HashMap::new();
    for info in infos {
        for f in &info.fns {
            for e in &f.edges {
                edges
                    .entry((e.from.clone(), e.to.clone()))
                    .or_insert_with(|| (info.file.clone(), e.line));
            }
            for call in &f.held_calls {
                // Resolve only unique, lock-acquiring workspace functions.
                let Some(cands) = by_name.get(call.callee.as_str()) else {
                    continue;
                };
                let locking: Vec<_> = cands
                    .iter()
                    .filter(|(_, s)| !s.locks.is_empty())
                    .collect();
                if locking.len() != 1 {
                    continue;
                }
                let (_, callee) = locking[0];
                for (lock, _) in &callee.locks {
                    if *lock != call.lock {
                        edges
                            .entry((call.lock.clone(), lock.clone()))
                            .or_insert_with(|| (info.file.clone(), call.line));
                    }
                }
            }
        }
    }

    // Cycle detection: DFS with tri-color marking.
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut nodes: Vec<&str> = adj.keys().copied().collect();
    nodes.sort_unstable();
    let mut color: HashMap<&str, u8> = HashMap::new(); // 0 white, 1 gray, 2 black
    let mut reported: HashSet<Vec<String>> = HashSet::new();
    let mut diags = Vec::new();
    for &start in &nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        color.insert(start, 1);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let neighbors = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if *next < neighbors.len() {
                let n = neighbors[*next];
                *next += 1;
                match color.get(n).copied().unwrap_or(0) {
                    0 => {
                        color.insert(n, 1);
                        stack.push((n, 0));
                        path.push(n);
                    }
                    1 => {
                        // Back edge: the cycle is path[pos..] + n.
                        let pos = path.iter().position(|&p| p == n).unwrap_or(0);
                        let cycle: Vec<String> =
                            path[pos..].iter().map(|s| s.to_string()).collect();
                        let mut key = cycle.clone();
                        key.sort();
                        if reported.insert(key) {
                            diags.push(cycle_diag(&cycle, &edges));
                        }
                    }
                    _ => {}
                }
            } else {
                color.insert(node, 2);
                stack.pop();
                path.pop();
            }
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    diags
}

/// Builds the deadlock diagnostic for one cycle.
fn cycle_diag(cycle: &[String], edges: &HashMap<(String, String), (String, u32)>) -> Diagnostic {
    let mut sites = Vec::new();
    for k in 0..cycle.len() {
        let from = &cycle[k];
        let to = &cycle[(k + 1) % cycle.len()];
        if let Some((file, line)) = edges.get(&(from.clone(), to.clone())) {
            sites.push(format!("{to} under {from} at {file}:{line}"));
        }
    }
    let (file, line) = cycle
        .first()
        .zip(cycle.get(1).or(cycle.first()))
        .and_then(|(a, b)| edges.get(&(a.clone(), b.clone())))
        .cloned()
        .unwrap_or_else(|| ("<graph>".to_string(), 0));
    let ring = {
        let mut r = cycle.join(" -> ");
        r.push_str(" -> ");
        r.push_str(&cycle[0]);
        r
    };
    Diagnostic {
        file,
        line,
        rule: RULE_LOCK_CYCLE,
        message: format!(
            "lock-order cycle (potential deadlock): {ring} [{}]",
            sites.join("; ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn analyze_src(src: &str) -> FileLockInfo {
        let l = lex(src);
        analyze("t.rs", &l.tokens)
    }

    #[test]
    fn nested_guards_record_an_edge() {
        let src = "impl S { fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); use_both(a, b); } }";
        let info = analyze_src(src);
        let f = &info.fns[0];
        assert_eq!(f.locks.len(), 2);
        assert_eq!(f.edges.len(), 1);
        assert_eq!(f.edges[0].from, "S.alpha");
        assert_eq!(f.edges[0].to, "S.beta");
    }

    #[test]
    fn opposite_orders_make_a_cycle() {
        let a = analyze_src(
            "impl S { fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); } }",
        );
        let b = analyze_src(
            "impl S { fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); } }",
        );
        let diags = global(&[&a, &b]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_LOCK_CYCLE);
        assert!(diags[0].message.contains("cycle"), "{}", diags[0].message);
    }

    #[test]
    fn consistent_order_is_clean() {
        let a = analyze_src(
            "impl S { fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); } }",
        );
        let b = analyze_src(
            "impl S { fn g(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); } }",
        );
        assert!(global(&[&a, &b]).is_empty());
    }

    #[test]
    fn block_scope_releases_guard() {
        // beta is taken after alpha's block closed: no edge.
        let src = "impl S { fn f(&self) { { let a = self.alpha.lock(); touch(a); } let b = self.beta.lock(); } }";
        let info = analyze_src(src);
        assert!(info.fns[0].edges.is_empty(), "{:?}", info.fns[0].edges);
    }

    #[test]
    fn drop_releases_guard() {
        let src = "impl S { fn f(&self) { let a = self.alpha.lock(); drop(a); let b = self.beta.lock(); } }";
        let info = analyze_src(src);
        assert!(info.fns[0].edges.is_empty());
    }

    #[test]
    fn statement_temporary_releases_at_semi() {
        let src = "impl S { fn f(&self) { self.alpha.lock().clear(); let b = self.beta.lock(); } }";
        let info = analyze_src(src);
        assert!(info.fns[0].edges.is_empty(), "{:?}", info.fns[0].edges);
    }

    #[test]
    fn reacquire_while_held_is_a_self_deadlock() {
        let src = "impl S { fn f(&self) { let a = self.alpha.lock(); let b = self.alpha.lock(); } }";
        let info = analyze_src(src);
        assert_eq!(info.diags.len(), 1);
        assert_eq!(info.diags[0].rule, RULE_LOCK_CYCLE);
    }

    #[test]
    fn interprocedural_edge_through_unique_callee() {
        let a = analyze_src(
            "impl S { fn f(&self) { let a = self.alpha.lock(); self.publish_beta(); } }",
        );
        let b = analyze_src("impl S { fn publish_beta(&self) { let b = self.beta.lock(); } }");
        // f holds alpha and calls publish_beta (locks beta) → alpha→beta;
        // with the reverse order in another fn this would cycle.
        let c = analyze_src(
            "impl S { fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); } }",
        );
        let diags = global(&[&a, &b, &c]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_LOCK_CYCLE);
    }

    #[test]
    fn drop_before_call_avoids_interprocedural_edge() {
        let a = analyze_src(
            "impl S { fn f(&self) { let a = self.alpha.lock(); drop(a); self.publish_beta(); } }",
        );
        let b = analyze_src("impl S { fn publish_beta(&self) { let b = self.beta.lock(); } }");
        let c = analyze_src(
            "impl S { fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); } }",
        );
        assert!(global(&[&a, &b, &c]).is_empty());
    }

    #[test]
    fn blocking_while_held_fires() {
        let src = "impl S { fn f(&self) { let a = self.state.lock(); self.tx.send(x); } }";
        let info = analyze_src(src);
        assert_eq!(info.diags.len(), 1);
        assert_eq!(info.diags[0].rule, RULE_LOCK_BLOCKING);
    }

    #[test]
    fn blocking_after_drop_is_clean() {
        let src = "impl S { fn f(&self) { let a = self.state.lock(); drop(a); self.tx.send(x); } }";
        let info = analyze_src(src);
        assert!(info.diags.is_empty(), "{:?}", info.diags);
    }

    #[test]
    fn pool_worker_blocking_fires_and_iterator_map_does_not() {
        let bad = "fn f(pool: &Pool) { pool.map(&items, |_, x| { sleep(d); x }); }";
        let info = analyze_src(bad);
        assert_eq!(info.diags.len(), 1);
        assert_eq!(info.diags[0].rule, RULE_POOL_BLOCKING);
        let ok = "fn f() { let v: Vec<_> = items.iter().map(|x| { sleep(d); x }).collect(); }";
        assert!(analyze_src(ok).diags.is_empty());
    }

    #[test]
    fn test_functions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn f(pool: &Pool) { pool.map(&i, |_, x| { sleep(d); x }); } }";
        assert!(analyze_src(src).diags.is_empty());
    }

    #[test]
    fn locals_do_not_unify_across_functions() {
        let a = analyze_src("fn f() { let a = alpha.lock(); let b = beta.lock(); }");
        let b = analyze_src("fn g() { let b = beta.lock(); let a = alpha.lock(); }");
        // Locals are fn-qualified: f's alpha ≠ g's alpha, so no cycle.
        assert!(global(&[&a, &b]).is_empty());
    }
}
