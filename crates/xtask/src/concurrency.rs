//! Concurrency-correctness lints (DESIGN.md §14).
//!
//! Two passes over the stripped source view from [`crate::scan`],
//! guarding what the endpoint's threads share the way the protocol
//! lints in [`crate::lints`] guard the wire format:
//!
//! 1. **atomic-ordering** — every atomic operation carrying a memory
//!    ordering must name an atomic registered in `atomics.toml`, and
//!    the ordering must match the registered *role*: `counter` atomics
//!    (statistics) use `Relaxed` only; `flag` atomics (publish a state
//!    change to another thread) load `Acquire` and store `Release`;
//!    `sync` atomics (hand-rolled synchronization) use
//!    `Acquire`/`Release`/`AcqRel`. `SeqCst` is never accepted — a site
//!    that needs it needs a registry discussion, not a stronger default.
//!    Each registry entry carries a one-line justification, and stale
//!    entries (atomics that no longer exist) fail the lint too.
//! 2. **unsafe-audit** — every `unsafe` keyword outside `#[cfg(test)]`
//!    must be immediately preceded (modulo attributes) by a `//`
//!    comment block containing `SAFETY:`. The compiler checks that
//!    unsafe code is *declared*; this checks that it is *argued*.

use crate::lints::{SourceFile, Violation};
use crate::scan;
use std::collections::BTreeMap;
use std::ops::Range;

// ---------------------------------------------------------------------
// Mini TOML: array-of-tables with string values
// ---------------------------------------------------------------------

/// One `[[table]]` from a registry file: its name plus `key = "value"`
/// pairs. The registries only ever need string values, so this parser
/// accepts nothing else — a syntax error in a registry should fail the
/// lint loudly, not be guessed around.
pub struct Table {
    /// The `[[name]]` header.
    pub kind: String,
    /// 1-based line of the header, for error messages.
    pub line: usize,
    /// The key/value pairs.
    pub entries: BTreeMap<String, String>,
}

/// Parses the registry dialect: `[[name]]` headers, `key = "value"`
/// lines, `#` comments and blank lines. Anything else is an error.
pub fn parse_tables(text: &str) -> Result<Vec<Table>, String> {
    let mut tables: Vec<Table> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        if let Some(head) = l.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            tables.push(Table {
                kind: head.trim().to_string(),
                line,
                entries: BTreeMap::new(),
            });
            continue;
        }
        let Some((key, value)) = l.split_once('=') else {
            return Err(format!(
                "line {line}: expected `[[table]]` or `key = \"value\"`"
            ));
        };
        let value = value.trim();
        let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            return Err(format!("line {line}: value must be a \"quoted string\""));
        };
        let Some(table) = tables.last_mut() else {
            return Err(format!(
                "line {line}: key/value before any [[table]] header"
            ));
        };
        let key = key.trim().to_string();
        if table
            .entries
            .insert(key.clone(), value.to_string())
            .is_some()
        {
            return Err(format!("line {line}: duplicate key `{key}`"));
        }
    }
    Ok(tables)
}

fn required<'t>(t: &'t Table, key: &str, file: &str) -> Result<&'t str, String> {
    t.entries
        .get(key)
        .map(String::as_str)
        .filter(|v| !v.is_empty())
        .ok_or_else(|| {
            format!(
                "{file}: [[{}]] at line {}: missing or empty `{key}`",
                t.kind, t.line
            )
        })
}

// ---------------------------------------------------------------------
// Pass 1: atomic-ordering discipline
// ---------------------------------------------------------------------

/// What an atomic is *for* — which fixes the orderings it may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A statistic: increments commute, reads are reports. `Relaxed`
    /// everywhere; anything stronger buys nothing and taxes the fast
    /// path.
    Counter,
    /// Publishes a state change (shutdown, readiness) another thread
    /// acts on: store `Release`, load `Acquire`, so writes before the
    /// raise happen-before the observing thread's next reads.
    Flag,
    /// Hand-rolled synchronization carrying data visibility: paired
    /// `Acquire`/`Release`, `AcqRel` for read-modify-write.
    Sync,
}

impl Role {
    fn parse(s: &str) -> Option<Role> {
        match s {
            "counter" => Some(Role::Counter),
            "flag" => Some(Role::Flag),
            "sync" => Some(Role::Sync),
            _ => None,
        }
    }
}

/// One registered atomic.
#[derive(Debug)]
pub struct AtomicEntry {
    /// The variable/field identifier as it appears at use sites.
    pub name: String,
    /// Workspace-relative path (suffix) of the declaring file.
    pub file: String,
    /// The role fixing its permitted orderings.
    pub role: Role,
    /// One line on why this atomic exists and why the role fits.
    pub justification: String,
}

/// Parses `atomics.toml`.
pub fn parse_atomics_registry(text: &str, file: &str) -> Result<Vec<AtomicEntry>, String> {
    let mut out = Vec::new();
    for t in parse_tables(text).map_err(|e| format!("{file}: {e}"))? {
        if t.kind != "atomic" {
            return Err(format!(
                "{file}: unknown table [[{}]] at line {}",
                t.kind, t.line
            ));
        }
        let role_str = required(&t, "role", file)?;
        let role = Role::parse(role_str).ok_or_else(|| {
            format!(
                "{file}: line {}: role `{role_str}` is not counter|flag|sync",
                t.line
            )
        })?;
        out.push(AtomicEntry {
            name: required(&t, "name", file)?.to_string(),
            file: required(&t, "file", file)?.to_string(),
            role,
            justification: required(&t, "justification", file)?.to_string(),
        });
    }
    // Name-keyed registry: two atomics may share a name (e.g. a clone
    // handle) only if they also share a role, otherwise use sites are
    // ambiguous.
    for (i, a) in out.iter().enumerate() {
        for b in &out[..i] {
            if a.name == b.name && a.file == b.file {
                return Err(format!(
                    "{file}: duplicate entry for `{}` in {}",
                    a.name, a.file
                ));
            }
            if a.name == b.name && a.role != b.role {
                return Err(format!(
                    "{file}: `{}` registered with conflicting roles; rename one",
                    a.name
                ));
            }
        }
    }
    Ok(out)
}

/// The atomic orderings (anything else after `Ordering::` — `Less`,
/// `Equal`, ... — is `std::cmp::Ordering` and not ours).
const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic methods, by operation class.
const LOAD_METHODS: &[&str] = &["load"];
const STORE_METHODS: &[&str] = &["store"];
const RMW_METHODS: &[&str] = &[
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

fn allowed(role: Role, method: &str, ordering: &str) -> bool {
    if ordering == "SeqCst" {
        return false;
    }
    match role {
        Role::Counter => ordering == "Relaxed",
        Role::Flag | Role::Sync => {
            if LOAD_METHODS.contains(&method) {
                ordering == "Acquire"
            } else if STORE_METHODS.contains(&method) {
                ordering == "Release"
            } else {
                // RMW on a flag/sync atomic does both halves.
                ordering == "AcqRel"
            }
        }
    }
}

fn expectation(role: Role, method: &str) -> &'static str {
    match role {
        Role::Counter => "Relaxed (role counter)",
        Role::Flag | Role::Sync => {
            if LOAD_METHODS.contains(&method) {
                "Acquire (role flag/sync load)"
            } else if STORE_METHODS.contains(&method) {
                "Release (role flag/sync store)"
            } else {
                "AcqRel (role flag/sync rmw)"
            }
        }
    }
}

/// One resolved atomic operation site.
struct AtomicSite {
    /// Byte offset of the `Ordering::` token (for line reporting).
    at: usize,
    /// Receiver identifier (`stop` in `self.stop.load(..)`).
    receiver: String,
    /// Method name (`load`, `store`, `fetch_add`, ...).
    method: String,
    /// Ordering variant (`Relaxed`, ...).
    ordering: String,
}

fn ident_before(b: &[u8], end: usize) -> Option<(usize, usize)> {
    let mut e = end;
    while e > 0 && b[e - 1].is_ascii_whitespace() {
        e -= 1;
    }
    let mut s = e;
    while s > 0 && (b[s - 1].is_ascii_alphanumeric() || b[s - 1] == b'_') {
        s -= 1;
    }
    (s < e).then_some((s, e))
}

/// Resolves each `Ordering::<Variant>` occurrence to the atomic call it
/// is an argument of: walks back over balanced parens to the enclosing
/// call's `(`, then reads `receiver.method` off the text before it.
fn atomic_sites(stripped: &str, tests: &[Range<usize>]) -> Vec<Result<AtomicSite, usize>> {
    let b = stripped.as_bytes();
    let mut out = Vec::new();
    for at in scan::word_offsets(stripped, "Ordering") {
        if tests.iter().any(|r| r.contains(&at)) {
            continue;
        }
        // `Ordering::<Variant>` — anything else (an import, a bare
        // `Ordering` type mention) is not an operation site.
        let rest = &stripped[at + "Ordering".len()..];
        let Some(rest) = rest.strip_prefix("::") else {
            continue;
        };
        let variant: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !MEMORY_ORDERINGS.contains(&variant.as_str()) {
            continue; // std::cmp::Ordering
        }
        // Walk back to the opening paren of the enclosing call.
        let mut depth = 0usize;
        let mut i = at;
        let open = loop {
            if i == 0 {
                break None;
            }
            i -= 1;
            match b[i] {
                b')' => depth += 1,
                b'(' if depth == 0 => break Some(i),
                b'(' => depth -= 1,
                b';' | b'{' | b'}' if depth == 0 => break None,
                _ => {}
            }
        };
        let Some(open) = open else {
            out.push(Err(at)); // `use ...::Ordering::X` or similar — flag it.
            continue;
        };
        let Some((ms, me)) = ident_before(b, open) else {
            out.push(Err(at));
            continue;
        };
        let method = stripped[ms..me].to_string();
        let known = LOAD_METHODS.contains(&method.as_str())
            || STORE_METHODS.contains(&method.as_str())
            || RMW_METHODS.contains(&method.as_str());
        if !known {
            out.push(Err(at));
            continue;
        }
        // Receiver: the identifier before the `.`.
        let mut d = ms;
        while d > 0 && b[d - 1].is_ascii_whitespace() {
            d -= 1;
        }
        if d == 0 || b[d - 1] != b'.' {
            out.push(Err(at));
            continue;
        }
        let Some((rs, re)) = ident_before(b, d - 1) else {
            out.push(Err(at));
            continue;
        };
        out.push(Ok(AtomicSite {
            at,
            receiver: stripped[rs..re].to_string(),
            method,
            ordering: variant,
        }));
    }
    out
}

/// Checks one file's atomic operations against the registry.
pub fn check_atomic_ordering(file: &SourceFile, registry: &[AtomicEntry]) -> Vec<Violation> {
    let stripped = scan::strip(&file.content);
    let tests = scan::test_item_ranges(&stripped);
    let mut out = Vec::new();
    let mut push = |at: usize, message: String| {
        out.push(Violation {
            file: file.path.clone(),
            line: scan::line_of(&stripped, at),
            lint: "atomic-ordering",
            message,
            line_text: scan::line_text(&file.content, at).to_string(),
        });
    };
    for site in atomic_sites(&stripped, &tests) {
        match site {
            Err(at) => push(
                at,
                "memory ordering outside a recognized atomic operation \
                 (registry cannot attribute it)"
                    .to_string(),
            ),
            Ok(s) => match registry.iter().find(|e| e.name == s.receiver) {
                None => push(
                    s.at,
                    format!(
                        "atomic `{}` is not in atomics.toml — register it with a \
                         role (counter|flag|sync) and a justification",
                        s.receiver
                    ),
                ),
                Some(entry) => {
                    if !allowed(entry.role, &s.method, &s.ordering) {
                        push(
                            s.at,
                            format!(
                                "`{}.{}` uses Ordering::{} but the registry expects {}",
                                s.receiver,
                                s.method,
                                s.ordering,
                                expectation(entry.role, &s.method)
                            ),
                        );
                    }
                }
            },
        }
    }
    out
}

/// Registry staleness: every entry's name must still occur in its
/// declaring file. `files` is the full scanned set.
pub fn check_atomic_registry_live(
    registry: &[AtomicEntry],
    files: &[SourceFile],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for entry in registry {
        let Some(file) = files.iter().find(|f| f.path.ends_with(&entry.file)) else {
            out.push(Violation {
                file: entry.file.clone(),
                line: 1,
                lint: "atomic-ordering",
                message: format!(
                    "atomics.toml registers `{}` in {} but that file is not scanned",
                    entry.name, entry.file
                ),
                line_text: String::new(),
            });
            continue;
        };
        let stripped = scan::strip(&file.content);
        if scan::word_offsets(&stripped, &entry.name).is_empty() {
            out.push(Violation {
                file: file.path.clone(),
                line: 1,
                lint: "atomic-ordering",
                message: format!(
                    "stale atomics.toml entry: `{}` no longer appears in {}",
                    entry.name, entry.file
                ),
                line_text: String::new(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Pass 2: unsafe-audit
// ---------------------------------------------------------------------

/// Checks that every `unsafe` outside `#[cfg(test)]` is immediately
/// preceded — attributes skipped — by a `//` comment block containing
/// `SAFETY:`.
pub fn check_unsafe_audit(file: &SourceFile) -> Vec<Violation> {
    let stripped = scan::strip(&file.content);
    let tests = scan::test_item_ranges(&stripped);
    let lines: Vec<&str> = file.content.lines().collect();
    let mut out = Vec::new();
    let mut flagged_lines = Vec::new();
    for at in scan::word_offsets(&stripped, "unsafe") {
        if tests.iter().any(|r| r.contains(&at)) {
            continue;
        }
        let line = scan::line_of(&stripped, at); // 1-based
        if flagged_lines.contains(&line) {
            continue; // one finding per line is enough
        }
        // Walk upward: skip attribute lines, then collect the contiguous
        // `//` comment block.
        let mut i = line - 1; // index of the unsafe line in `lines`
        let mut block_ok = false;
        while i > 0 {
            i -= 1;
            let l = lines[i].trim();
            if l.starts_with("#[") || l.starts_with("#![") {
                continue;
            }
            if l.starts_with("//") {
                // Found the adjacent comment block; scan all of it.
                let mut j = i;
                loop {
                    let c = lines[j].trim();
                    if !c.starts_with("//") {
                        break;
                    }
                    if c.contains("SAFETY:") {
                        block_ok = true;
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
            }
            break;
        }
        if !block_ok {
            flagged_lines.push(line);
            out.push(Violation {
                file: file.path.clone(),
                line,
                lint: "unsafe-audit",
                message: "`unsafe` without an immediately preceding `// SAFETY:` \
                          comment arguing why the invariants hold"
                    .to_string(),
                line_text: scan::line_text(&file.content, at).to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, content: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            content: content.to_string(),
        }
    }

    fn registry() -> Vec<AtomicEntry> {
        parse_atomics_registry(
            "[[atomic]]\n\
             name = \"accepted\"\n\
             file = \"crates/io/src/endpoint.rs\"\n\
             role = \"counter\"\n\
             justification = \"stat\"\n\
             [[atomic]]\n\
             name = \"stop\"\n\
             file = \"crates/io/src/endpoint.rs\"\n\
             role = \"flag\"\n\
             justification = \"shutdown publish\"\n",
            "atomics.toml",
        )
        .expect("registry parses")
    }

    #[test]
    fn counter_relaxed_and_flag_acqrel_are_clean() {
        let src = file(
            "crates/io/src/endpoint.rs",
            "fn f(s: &S) { s.stats.accepted.fetch_add(1, Ordering::Relaxed); \
             if s.stop.load(Ordering::Acquire) { return; } \
             s.stop.store(true, Ordering::Release); }",
        );
        let v = check_atomic_ordering(&src, &registry());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn seqcst_is_always_rejected() {
        let src = file(
            "crates/io/src/endpoint.rs",
            "fn f(s: &S) { s.stop.store(true, Ordering::SeqCst); }",
        );
        let v = check_atomic_ordering(&src, &registry());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("SeqCst"));
    }

    #[test]
    fn counter_with_acquire_and_flag_with_relaxed_are_rejected() {
        let src = file(
            "crates/io/src/endpoint.rs",
            "fn f(s: &S) { let _ = s.accepted.load(Ordering::Acquire); \
             s.stop.store(true, Ordering::Relaxed); }",
        );
        let v = check_atomic_ordering(&src, &registry());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].message.contains("Relaxed (role counter)"));
        assert!(v[1].message.contains("Release (role flag/sync store)"));
    }

    #[test]
    fn unregistered_atomic_is_rejected() {
        let src = file(
            "crates/io/src/endpoint.rs",
            "fn f(x: &AtomicU64) { x.rogue.fetch_add(1, Ordering::Relaxed); }",
        );
        let v = check_atomic_ordering(&src, &registry());
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("not in atomics.toml"));
    }

    #[test]
    fn cmp_ordering_and_test_atomics_are_ignored() {
        let src = file(
            "crates/io/src/endpoint.rs",
            "fn f(a: u8, b: u8) -> Ordering { a.cmp(&b) }\n\
             fn g() -> Ordering { Ordering::Less }\n\
             #[cfg(test)]\nmod tests { fn t(x: &A) { x.anything.load(Ordering::SeqCst); } }",
        );
        assert!(check_atomic_ordering(&src, &registry()).is_empty());
    }

    #[test]
    fn conflicting_roles_fail_parse() {
        let err = parse_atomics_registry(
            "[[atomic]]\nname = \"x\"\nfile = \"a.rs\"\nrole = \"flag\"\njustification = \"j\"\n\
             [[atomic]]\nname = \"x\"\nfile = \"b.rs\"\nrole = \"counter\"\njustification = \"j\"\n",
            "atomics.toml",
        )
        .unwrap_err();
        assert!(err.contains("conflicting roles"));
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let src = file(
            "crates/io/src/mmsg.rs",
            "fn f() {\n    let r = unsafe { g() };\n}",
        );
        let v = check_unsafe_audit(&src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn safety_comment_blocks_satisfy_the_audit() {
        let src = file(
            "crates/io/src/mmsg.rs",
            "fn f() {\n\
             // SAFETY: g has no preconditions here.\n\
             let r = unsafe { g() };\n\
             // The argument may span lines and sit above attributes.\n\
             // SAFETY: trait contract upheld by construction.\n\
             #[allow(unsafe_code)]\n\
             unsafe impl Send for T {}\n\
             }",
        );
        let v = check_unsafe_audit(&src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn non_safety_comment_does_not_satisfy_the_audit() {
        let src = file(
            "crates/io/src/mmsg.rs",
            "fn f() {\n// this is fine, trust me\nlet r = unsafe { g() };\n}",
        );
        assert_eq!(check_unsafe_audit(&src).len(), 1);
    }

    #[test]
    fn unsafe_in_tests_is_exempt() {
        let src = file(
            "crates/util/src/alloc_count.rs",
            "fn safe() {}\n#[cfg(test)]\nmod tests {\n fn t() { unsafe { g() } }\n}",
        );
        assert!(check_unsafe_audit(&src).is_empty());
    }
}
