//! The MPQUIC lint catalogue.
//!
//! Three lints, each guarding a protocol invariant from the paper that the
//! compiler cannot check (see DESIGN.md §9 for the full table):
//!
//! 1. **frame-exhaustiveness** — every `Frame` variant must appear in each
//!    of the four lifecycle match sites (encode, decode, on-ack, on-loss),
//!    and none of those sites may contain a wildcard `_ =>` arm. A new
//!    frame type therefore cannot be added without deciding its encode,
//!    decode, acked and lost behaviour explicitly.
//! 2. **no-panic** — `unwrap`/`expect`/`panic!`-family macros and
//!    slice/array indexing are denied in the wire codec and the real-socket
//!    io driver. A malformed datagram must surface as a `DecodeError`, not
//!    a remote crash. Justified sites go in `allowlist.txt` next to this
//!    crate, one `path-suffix :: line-pattern :: reason` per line.
//! 3. **pn-discipline** — the per-path packet-number counter (`next_pn`)
//!    may only be touched inside its owning module (`core/src/recovery.rs`),
//!    and the allocator `next_packet_number()` may only be called from the
//!    owning module and the one sanctioned packetizer site
//!    (`Connection::finalize`). Monotonic, never-reused packet numbers are
//!    what make MPQUIC's RTT samples unambiguous (paper §3).

use crate::scan;
use std::fmt;
use std::ops::Range;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Which lint fired.
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line (trimmed), used for allowlist matching.
    pub line_text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A loaded source file (tests construct these in memory).
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: String,
    /// Raw contents.
    pub content: String,
}

impl SourceFile {
    /// Stripped view plus the ranges to ignore (`#[cfg(test)]` items).
    fn prepared(&self) -> (String, Vec<Range<usize>>) {
        let stripped = scan::strip(&self.content);
        let tests = scan::test_item_ranges(&stripped);
        (stripped, tests)
    }
}

fn in_ranges(ranges: &[Range<usize>], at: usize) -> bool {
    ranges.iter().any(|r| r.contains(&at))
}

// ---------------------------------------------------------------------
// Lint 1: frame exhaustiveness
// ---------------------------------------------------------------------

/// The four lifecycle match sites every `Frame` variant must appear in.
/// `(file suffix, impl type, fn name, role)`.
pub const FRAME_SITES: &[(&str, &str, &str, &str)] = &[
    ("crates/wire/src/frame.rs", "Frame", "encode", "encode"),
    ("crates/wire/src/frame.rs", "Frame", "decode", "decode"),
    ("crates/wire/src/frame.rs", "Frame", "wire_size", "sizing"),
    ("crates/wire/src/frame.rs", "Frame", "frame_type", "typing"),
    (
        "crates/core/src/connection/dispatch.rs",
        "Connection",
        "on_frame_acked",
        "on-ack",
    ),
    (
        "crates/core/src/connection/dispatch.rs",
        "Connection",
        "requeue_lost_frames",
        "on-loss",
    ),
    (
        "crates/core/src/connection/dispatch.rs",
        "Connection",
        "handle_frame",
        "dispatch",
    ),
];

/// Reads the `Frame` variant list out of the wire crate's source.
pub fn frame_variants(frame_rs: &SourceFile) -> Vec<String> {
    let stripped = scan::strip(&frame_rs.content);
    scan::enum_variants(&stripped, "Frame")
}

/// Checks one match site: every variant must be named (`Frame::V`), and no
/// wildcard `_ =>` arm may appear.
pub fn check_frame_site(
    file: &SourceFile,
    impl_ty: &str,
    fn_name: &str,
    role: &str,
    variants: &[String],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let stripped = scan::strip(&file.content);
    let Some(body_range) = scan::fn_body(&stripped, Some(impl_ty), fn_name) else {
        out.push(Violation {
            file: file.path.clone(),
            line: 1,
            lint: "frame-exhaustiveness",
            message: format!("match site `{impl_ty}::{fn_name}` ({role}) not found"),
            line_text: String::new(),
        });
        return out;
    };
    let body = &stripped[body_range.clone()];
    for v in variants {
        let pattern = format!("Frame::{v}");
        let present = scan::word_offsets(body, "Frame").iter().any(|&at| {
            body[at..]
                .strip_prefix("Frame")
                .map(|rest| {
                    let rest = rest.trim_start();
                    rest.strip_prefix("::")
                        .map(|r| {
                            let r = r.trim_start();
                            r.starts_with(v.as_str())
                                && !r[v.len()..]
                                    .starts_with(|c: char| c.is_alphanumeric() || c == '_')
                        })
                        .unwrap_or(false)
                })
                .unwrap_or(false)
        });
        if !present {
            out.push(Violation {
                file: file.path.clone(),
                line: scan::line_of(&stripped, body_range.start),
                lint: "frame-exhaustiveness",
                message: format!(
                    "variant `{pattern}` missing from {role} site `{impl_ty}::{fn_name}`"
                ),
                line_text: String::new(),
            });
        }
    }
    // Wildcard arms: a standalone `_` whose next token is `=>`.
    let bytes = body.as_bytes();
    for at in scan::word_offsets(body, "_") {
        let mut j = at + 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) == Some(&b'=') && bytes.get(j + 1) == Some(&b'>') {
            let abs = body_range.start + at;
            out.push(Violation {
                file: file.path.clone(),
                line: scan::line_of(&stripped, abs),
                lint: "frame-exhaustiveness",
                message: format!(
                    "wildcard `_ =>` arm in {role} site `{impl_ty}::{fn_name}` \
                     would silently swallow new Frame variants"
                ),
                line_text: scan::line_text(&file.content, abs).to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Lint 2: no-panic protocol paths
// ---------------------------------------------------------------------

/// Panicking constructs denied on protocol paths: method calls and macros.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that legitimately precede `[` without it being an index
/// expression (`&mut [u8]`, `return [a, b]`, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "in", "return", "else", "as", "dyn", "impl", "ref", "box", "move", "where", "use",
    "pub", "let", "static", "const", "break", "continue", "match", "if",
];

/// Scans one file for panicking constructs outside `#[cfg(test)]` items.
pub fn check_no_panic(file: &SourceFile) -> Vec<Violation> {
    let (stripped, tests) = file.prepared();
    let b = stripped.as_bytes();
    let mut out = Vec::new();
    let mut push = |at: usize, what: String, stripped: &str| {
        out.push(Violation {
            file: file.path.clone(),
            line: scan::line_of(stripped, at),
            lint: "no-panic",
            message: what,
            line_text: scan::line_text(&file.content, at).to_string(),
        });
    };

    for method in PANIC_METHODS {
        for at in scan::word_offsets(&stripped, method) {
            if in_ranges(&tests, at) {
                continue;
            }
            // Must be a method call: preceded by `.`, followed by `(`.
            let preceded = at > 0 && b[at - 1] == b'.';
            let mut j = at + method.len();
            while j < b.len() && b[j].is_ascii_whitespace() {
                j += 1;
            }
            if preceded && b.get(j) == Some(&b'(') {
                push(at, format!(".{method}() on a protocol path"), &stripped);
            }
        }
    }
    for mac in PANIC_MACROS {
        for at in scan::word_offsets(&stripped, mac) {
            if in_ranges(&tests, at) {
                continue;
            }
            if b.get(at + mac.len()) == Some(&b'!') {
                push(at, format!("{mac}! on a protocol path"), &stripped);
            }
        }
    }
    // Slice/array indexing: `expr[...]` panics out-of-bounds. An opening
    // `[` is an index when the previous non-space char ends an expression
    // (identifier, `)`, `]`, `?`) and the preceding word is not a keyword.
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'[' && !in_ranges(&tests, i) {
            let mut p = i;
            while p > 0 && b[p - 1].is_ascii_whitespace() && b[p - 1] != b'\n' {
                p -= 1;
            }
            if p > 0 {
                let prev = b[p - 1];
                let expr_end = prev.is_ascii_alphanumeric()
                    || prev == b'_'
                    || prev == b')'
                    || prev == b']'
                    || prev == b'?';
                if expr_end {
                    // Extract the preceding word (if identifier-like).
                    let mut w = p;
                    while w > 0 && (b[w - 1].is_ascii_alphanumeric() || b[w - 1] == b'_') {
                        w -= 1;
                    }
                    let word = &stripped[w..p];
                    if !NON_INDEX_KEYWORDS.contains(&word) {
                        push(
                            i,
                            format!(
                                "slice/array indexing `{}[..]` on a protocol path \
                                 (use .get()/.first() and return DecodeError)",
                                if word.is_empty() { "expr" } else { word }
                            ),
                            &stripped,
                        );
                    }
                }
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------
// Lint 3: packet-number discipline
// ---------------------------------------------------------------------

/// The module that owns per-path packet-number state.
pub const PN_OWNER: &str = "crates/core/src/recovery.rs";
/// The one sanctioned allocation site outside the owner.
pub const PN_PACKETIZER: (&str, &str, &str) =
    ("crates/core/src/connection.rs", "Connection", "finalize");

/// Checks one file for packet-number discipline: no `next_pn` access and
/// no `next_packet_number()` call outside the owner/packetizer.
pub fn check_pn_discipline(file: &SourceFile) -> Vec<Violation> {
    if file.path.ends_with(PN_OWNER) {
        return Vec::new();
    }
    let (stripped, tests) = file.prepared();
    let mut out = Vec::new();
    for at in scan::word_offsets(&stripped, "next_pn") {
        if in_ranges(&tests, at) {
            continue;
        }
        out.push(Violation {
            file: file.path.clone(),
            line: scan::line_of(&stripped, at),
            lint: "pn-discipline",
            message: "direct access to per-path packet-number counter `next_pn` \
                      outside its owning module (core/src/recovery.rs)"
                .to_string(),
            line_text: scan::line_text(&file.content, at).to_string(),
        });
    }
    let packetizer_body = if file.path.ends_with(PN_PACKETIZER.0) {
        scan::fn_body(&stripped, Some(PN_PACKETIZER.1), PN_PACKETIZER.2)
    } else {
        None
    };
    for at in scan::word_offsets(&stripped, "next_packet_number") {
        if in_ranges(&tests, at) {
            continue;
        }
        if packetizer_body.as_ref().is_some_and(|r| r.contains(&at)) {
            continue;
        }
        out.push(Violation {
            file: file.path.clone(),
            line: scan::line_of(&stripped, at),
            lint: "pn-discipline",
            message: format!(
                "packet-number allocation outside the owning module and the \
                 sanctioned packetizer site `{}::{}`",
                PN_PACKETIZER.1, PN_PACKETIZER.2
            ),
            line_text: scan::line_text(&file.content, at).to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------

/// One allowlist entry: `path-suffix :: line-pattern :: reason`.
pub struct AllowEntry {
    /// Suffix of the workspace-relative path the entry applies to.
    pub path_suffix: String,
    /// Substring that must appear on the offending line.
    pub pattern: String,
    /// Why the site is justified (shown in `xtask lint --verbose`).
    pub reason: String,
}

/// Parses `allowlist.txt`: `#` comments and blank lines ignored.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, "::").map(str::trim);
            Some(AllowEntry {
                path_suffix: parts.next()?.to_string(),
                pattern: parts.next()?.to_string(),
                reason: parts.next().unwrap_or("").to_string(),
            })
        })
        .collect()
}

/// Filters no-panic violations through the allowlist. Exhaustiveness and
/// pn-discipline findings are never allowlistable: those invariants have
/// no justified exceptions.
pub fn apply_allowlist(violations: Vec<Violation>, allow: &[AllowEntry]) -> Vec<Violation> {
    violations
        .into_iter()
        .filter(|v| {
            v.lint != "no-panic"
                || !allow
                    .iter()
                    .any(|a| v.file.ends_with(&a.path_suffix) && v.line_text.contains(&a.pattern))
        })
        .collect()
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

    const FRAME_ENUM: &str =
        "pub enum Frame { Padding { len: usize }, Ping, Ack(AckFrame), Stream(StreamFrame) }";

    #[test]
    fn complete_site_is_clean() {
        let variants = frame_variants(&file("frame.rs", FRAME_ENUM));
        assert_eq!(variants, vec!["Padding", "Ping", "Ack", "Stream"]);
        let site = file(
            "crates/wire/src/frame.rs",
            "impl Frame { fn encode(&self) { match self { \
             Frame::Padding { .. } => a(), Frame::Ping => b(), \
             Frame::Ack(x) => c(x), Frame::Stream(s) => d(s), } } }",
        );
        let v = check_frame_site(&site, "Frame", "encode", "encode", &variants);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn removed_variant_is_flagged() {
        // The acceptance-criterion demonstration: drop `Frame::Stream`
        // from the match and the lint must fail.
        let variants = frame_variants(&file("frame.rs", FRAME_ENUM));
        let site = file(
            "crates/wire/src/frame.rs",
            "impl Frame { fn encode(&self) { match self { \
             Frame::Padding { .. } => a(), Frame::Ping => b(), \
             Frame::Ack(x) => c(x), } } }",
        );
        let v = check_frame_site(&site, "Frame", "encode", "encode", &variants);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("Frame::Stream"));
    }

    #[test]
    fn wildcard_arm_is_flagged() {
        let variants = frame_variants(&file("frame.rs", FRAME_ENUM));
        let site = file(
            "crates/wire/src/frame.rs",
            "impl Frame { fn encode(&self) { match self { \
             Frame::Padding { .. } => a(), Frame::Ping => b(), \
             Frame::Ack(x) => c(x), Frame::Stream(s) => d(s), _ => e(), } } }",
        );
        let v = check_frame_site(&site, "Frame", "encode", "encode", &variants);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("wildcard"));
    }

    #[test]
    fn tuple_wildcards_are_not_wildcard_arms() {
        let variants = vec!["Ping".to_string()];
        let site = file(
            "f.rs",
            "impl Frame { fn encode(&self) { match self { Frame::Ping => b(), \
             Frame::Ack(_) => c(), Frame::Stream(_s) => d(), } } }",
        );
        let v = check_frame_site(&site, "Frame", "encode", "encode", &variants);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_in_decode_path_is_flagged() {
        // The other acceptance-criterion demonstration: add an `unwrap()`
        // to a wire decode path and the lint must fail.
        let src = file(
            "crates/wire/src/frame.rs",
            "fn decode(buf: &mut B) -> Result<Frame, DecodeError> {\n\
             let first = buf.chunk().first().unwrap();\n Ok(x) }",
        );
        let v = check_no_panic(&src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("unwrap"));
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn panics_inside_test_mod_are_exempt() {
        let src = file(
            "crates/wire/src/frame.rs",
            "fn ok() -> u8 { 0 }\n#[cfg(test)]\nmod tests {\n\
             #[test] fn t() { decode().unwrap(); assert!(x[0] == 1); panic!(); }\n}",
        );
        assert!(check_no_panic(&src).is_empty());
    }

    #[test]
    fn indexing_is_flagged_but_types_are_not() {
        let src = file(
            "f.rs",
            "fn f(buf: &mut [u8], arr: [u8; 4]) -> u8 {\n\
             let x: [u8; 2] = [0, 1];\n\
             let v = vec![1, 2];\n\
             buf[0]\n}",
        );
        let v = check_no_panic(&src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("indexing"));
    }

    #[test]
    fn slicing_is_flagged() {
        let src = file("f.rs", "fn f(b: &[u8], n: usize) -> &[u8] { &b[..n] }");
        let v = check_no_panic(&src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn comments_and_strings_do_not_trigger() {
        let src = file(
            "f.rs",
            "/// calls .unwrap() — see panic! docs\n\
             fn f() { g(\"x.unwrap() panic! a[0]\"); }",
        );
        assert!(check_no_panic(&src).is_empty());
    }

    #[test]
    fn pn_mutation_outside_owner_is_flagged() {
        let src = file(
            "crates/core/src/scheduler.rs",
            "fn cheat(r: &mut Recovery) { r.next_pn += 1; }",
        );
        let v = check_pn_discipline(&src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("next_pn"));
    }

    #[test]
    fn pn_allocation_allowed_only_in_finalize() {
        let in_finalize = file(
            "crates/core/src/connection.rs",
            "impl Connection { fn finalize(&mut self) { \
             let pn = path.recovery.next_packet_number(); } }",
        );
        assert!(check_pn_discipline(&in_finalize).is_empty());
        let elsewhere = file(
            "crates/core/src/connection.rs",
            "impl Connection { fn emit_data(&mut self) { \
             let pn = path.recovery.next_packet_number(); } }",
        );
        assert_eq!(check_pn_discipline(&elsewhere).len(), 1);
    }

    #[test]
    fn owner_module_is_exempt() {
        let src = file(
            "crates/core/src/recovery.rs",
            "impl Recovery { pub fn next_packet_number(&mut self) -> u64 { \
             let pn = self.next_pn; self.next_pn += 1; pn } }",
        );
        assert!(check_pn_discipline(&src).is_empty());
    }

    #[test]
    fn allowlist_suppresses_matching_no_panic_only() {
        let allow = parse_allowlist(
            "# justified sites\n\
             driver.rs :: &self.buf[..len] :: len bounded by poll_recv contract\n",
        );
        let v = vec![
            Violation {
                file: "crates/io/src/driver.rs".into(),
                line: 10,
                lint: "no-panic",
                message: "indexing".into(),
                line_text: ".handle_datagram(now, local, remote, &self.buf[..len]);".into(),
            },
            Violation {
                file: "crates/io/src/driver.rs".into(),
                line: 20,
                lint: "pn-discipline",
                message: "next_pn".into(),
                line_text: "&self.buf[..len]".into(),
            },
        ];
        let kept = apply_allowlist(v, &allow);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].lint, "pn-discipline");
    }
}
