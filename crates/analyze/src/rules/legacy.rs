//! The eight original lint rules (MEBL001–MEBL008), ported from the
//! retired string-stripping scanner onto the lexer-backed [`CodeView`].
//!
//! Message strings are byte-identical to the old scanner's so the
//! differential test (`tests/analyze_differential.rs`) can compare hit
//! streams exactly. The raw-line-scanned marker spellings are assembled
//! with `concat!` so the analyzer's own source never trips them.

use crate::diag::{Diagnostic, Severity};
use crate::workspace::{crate_of, SourceFile, BINARY_CRATES, HARNESS_CRATES};

use super::{col_at, find_token};

/// Files allowed to read wall clocks.
pub const CLOCK_SITES: &[&str] = &["crates/route/src/report.rs", "crates/testkit/src/bench.rs"];

const TASK_MARKERS: [&str; 2] = [concat!("TO", "DO"), concat!("FIX", "ME")];
const UNREACHABLE_MARK: &str = concat!("unreach", "able:");
const UNREACHABLE_MACRO: &str = concat!("unreach", "able!(");

/// Whether the no-panic / silent-fallback rules apply to this file.
fn panic_rule_applies(rel: &str) -> bool {
    match crate_of(rel) {
        Some(c) => !BINARY_CRATES.contains(&c) && !HARNESS_CRATES.contains(&c),
        // Root `tests/` files are test code.
        None => false,
    }
}

fn print_rule_applies(rel: &str) -> bool {
    match crate_of(rel) {
        Some(c) => !BINARY_CRATES.contains(&c) && c != "bench",
        None => false,
    }
}

fn clock_rule_applies(rel: &str) -> bool {
    !CLOCK_SITES.contains(&rel)
}

/// Only the pool implementation itself may start threads.
fn spawn_rule_applies(rel: &str) -> bool {
    crate_of(rel) != Some("par")
}

/// Only the service crate, the coordinator, and the testkit's loopback
/// client may touch raw sockets (MEBL018 further confines *outbound*
/// connects to the latter two).
fn net_rule_applies(rel: &str) -> bool {
    crate_of(rel) != Some("serve")
        && crate_of(rel) != Some("coord")
        && rel != "crates/testkit/src/client.rs"
}

fn diag(
    code: &'static str,
    rule: &'static str,
    file: &SourceFile,
    line: usize,
    col: usize,
    message: String,
) -> Diagnostic {
    Diagnostic {
        code,
        rule,
        severity: Severity::Error,
        file: file.rel.clone(),
        line,
        col,
        message,
    }
}

/// Runs MEBL001–MEBL008 over one file.
pub fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let rel = file.rel.as_str();
    let panic_tokens = [".unwrap()", ".expect(", "panic!("];
    let clock_tokens = ["Instant::now", "SystemTime::now"];
    let print_tokens = ["println!(", "print!(", "dbg!("];

    for (idx, (raw, code)) in file
        .view
        .raw_lines
        .iter()
        .zip(file.view.code_lines.iter())
        .enumerate()
    {
        let line = idx + 1;
        let in_test = file.view.test_mask[idx];

        // todo-tag looks at raw text (comments included), tests too.
        for marker in TASK_MARKERS {
            if let Some(pos) = raw.find(marker) {
                let tagged = raw[pos..].starts_with(&format!("{marker}(#"));
                if !tagged {
                    out.push(diag(
                        "MEBL005",
                        "todo-tag",
                        file,
                        line,
                        col_at(raw, pos),
                        format!("untagged {marker}; write `{marker}(#<issue>): ...`"),
                    ));
                }
            }
        }

        // no-raw-spawn applies to test code as well, so check it before
        // the test-block exemption kicks in.
        if spawn_rule_applies(rel) {
            if let Some(pos) = find_token(code, "thread::spawn") {
                out.push(diag(
                    "MEBL006",
                    "no-raw-spawn",
                    file,
                    line,
                    col_at(code, pos),
                    "`thread::spawn` outside crates/par; fan out through \
                     `mebl_par::Pool` so results stay deterministic"
                        .to_string(),
                ));
            }
        }

        // no-raw-net covers test code too: loopback harnesses go
        // through `mebl_testkit::TestClient`, never raw sockets.
        if net_rule_applies(rel) {
            for tok in ["TcpListener", "TcpStream"] {
                if let Some(pos) = find_token(code, tok) {
                    out.push(diag(
                        "MEBL007",
                        "no-raw-net",
                        file,
                        line,
                        col_at(code, pos),
                        format!(
                            "`{tok}` outside crates/serve; speak HTTP through \
                             `mebl_testkit::TestClient` instead"
                        ),
                    ));
                }
            }
        }

        if in_test {
            continue;
        }
        // The Dial rewrite's structural guarantee: no heap in the
        // detailed-routing hot path (tests above are already exempt).
        if crate_of(rel) == Some("detailed") {
            if let Some(pos) = find_token(code, "BinaryHeap") {
                out.push(diag(
                    "MEBL008",
                    "no-binary-heap",
                    file,
                    line,
                    col_at(code, pos),
                    "`BinaryHeap` in crates/detailed; the hot path uses \
                     `mebl_graph::BucketQueue` (Dial) — see DESIGN.md §11"
                        .to_string(),
                ));
            }
        }
        if panic_rule_applies(rel) {
            for tok in panic_tokens {
                if let Some(pos) = find_token(code, tok) {
                    out.push(diag(
                        "MEBL001",
                        "no-panic",
                        file,
                        line,
                        col_at(code, pos),
                        format!("`{tok}` in library code; handle the None/Err case"),
                    ));
                }
            }
            // Silent fallbacks: both the macro and the comment convention
            // that marks a branch as impossible. The marker lives in
            // comments, so scan the raw line.
            let hit = find_token(code, UNREACHABLE_MACRO)
                .map(|p| col_at(code, p))
                .or_else(|| raw.find(UNREACHABLE_MARK).map(|p| col_at(raw, p)));
            if let Some(col) = hit {
                out.push(diag(
                    "MEBL002",
                    "silent-fallback",
                    file,
                    line,
                    col,
                    "asserted-unreachable fallback in library code; \
                     record a Degradation or return a typed error"
                        .to_string(),
                ));
            }
        }
        if clock_rule_applies(rel) {
            for tok in clock_tokens {
                if let Some(pos) = find_token(code, tok) {
                    out.push(diag(
                        "MEBL003",
                        "no-clock",
                        file,
                        line,
                        col_at(code, pos),
                        format!(
                            "`{tok}` outside the sanctioned timing sites ({})",
                            CLOCK_SITES.join(", ")
                        ),
                    ));
                }
            }
        }
        if print_rule_applies(rel) {
            for tok in print_tokens {
                if let Some(pos) = find_token(code, tok) {
                    out.push(diag(
                        "MEBL004",
                        "no-debug-print",
                        file,
                        line,
                        col_at(code, pos),
                        format!("`{tok}` in a library crate; return data instead"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<&'static str> {
        let file = SourceFile::new(rel, src);
        let mut out = Vec::new();
        check_file(&file, &mut out);
        out.into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn unwrap_in_library_code_flagged() {
        let src = "fn f() { let x = g().unwrap(); }\n";
        assert_eq!(rules("crates/geom/src/a.rs", src), vec!["no-panic"]);
    }

    #[test]
    fn unwrap_in_binary_and_harness_crates_allowed() {
        let src = "fn f() { let x = g().unwrap(); }\n";
        assert!(rules("crates/cli/src/main.rs", src).is_empty());
        assert!(rules("crates/testkit/src/prop.rs", src).is_empty());
        assert!(rules("crates/bench/src/main.rs", src).is_empty());
        assert!(rules("tests/flow.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_test_block_allowed_and_code_after_still_linted() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}

fn lib() { y.expect(\"boom\"); }
";
        let file = SourceFile::new("crates/geom/src/a.rs", src);
        let mut out = Vec::new();
        check_file(&file, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 6);
        assert_eq!(out[0].code, "MEBL001");
    }

    #[test]
    fn comments_strings_and_raw_strings_do_not_trigger() {
        let src = "\
/// Call `.unwrap()` at your peril. panic!(
// x.unwrap()
/* multi
   .expect( panic!( */
fn f() { let s = \".unwrap() panic!(\"; let r = r#\"dbg!(\"#; }
";
        assert!(rules("crates/geom/src/a.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        let src = "fn f() { g().unwrap_or(0); g().unwrap_or_else(|| 0); }\n";
        assert!(rules("crates/geom/src/a.rs", src).is_empty());
    }

    #[test]
    fn unreachable_macro_and_marker_flagged_in_library_code() {
        let src = format!("fn f() {{ match x {{ None => {}\"no\") }} }}\n", UNREACHABLE_MACRO);
        assert_eq!(rules("crates/geom/src/a.rs", &src), vec!["silent-fallback"]);
        let marked = format!("fn f() {{\n    // {} callers filter blanks\n    0\n}}\n", UNREACHABLE_MARK);
        assert_eq!(rules("crates/geom/src/a.rs", &marked), vec!["silent-fallback"]);
        assert!(rules("crates/cli/src/main.rs", &src).is_empty());
        assert!(rules("tests/flow.rs", &src).is_empty());
    }

    #[test]
    fn clock_flagged_outside_sanctioned_files() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules("crates/global/src/router.rs", src), vec!["no-clock"]);
        assert!(rules("crates/route/src/report.rs", src).is_empty());
        assert!(rules("crates/testkit/src/bench.rs", src).is_empty());
    }

    #[test]
    fn debug_print_flagged_in_libraries_only() {
        let src = "fn f() { println!(\"x\"); dbg!(1); }\n";
        assert_eq!(
            rules("crates/route/src/lib.rs", src),
            vec!["no-debug-print", "no-debug-print"]
        );
        assert!(rules("crates/cli/src/main.rs", src).is_empty());
        assert!(rules("crates/bench/src/main.rs", src).is_empty());
    }

    #[test]
    fn println_does_not_match_print_token_twice() {
        let src = "fn f() { println!(\"x\"); }\n";
        assert_eq!(rules("crates/geom/src/a.rs", src).len(), 1);
    }

    #[test]
    fn todo_requires_issue_tag() {
        let src = format!(
            "// {m}: make this faster\n// {m}(#12): tracked\n// {f} fix me\n",
            m = TASK_MARKERS[0],
            f = TASK_MARKERS[1]
        );
        let file = SourceFile::new("crates/geom/src/a.rs", &src);
        let mut out = Vec::new();
        check_file(&file, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.rule == "todo-tag"));
        assert_eq!(out[0].line, 1);
        assert_eq!(out[1].line, 3);
    }

    #[test]
    fn raw_spawn_flagged_everywhere_but_par_even_in_tests() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules("crates/global/src/router.rs", src), vec!["no-raw-spawn"]);
        assert_eq!(rules("crates/cli/src/main.rs", src), vec!["no-raw-spawn"]);
        assert_eq!(rules("tests/flow.rs", src), vec!["no-raw-spawn"]);
        assert!(rules("crates/par/src/lib.rs", src).is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
        assert_eq!(rules("crates/geom/src/a.rs", gated), vec!["no-raw-spawn"]);
        // The pool's internal scoped `s.spawn(...)` is not the token.
        let scoped = "fn f(s: &S) { s.spawn(|| {}); }\n";
        assert!(rules("crates/geom/src/a.rs", scoped).is_empty());
    }

    #[test]
    fn raw_net_confined_to_serve_and_client() {
        let src = "fn f() { let l = std::net::TcpListener::bind(\"x\"); }\n";
        assert_eq!(rules("crates/route/src/lib.rs", src), vec!["no-raw-net"]);
        assert_eq!(rules("tests/serve.rs", src), vec!["no-raw-net"]);
        assert!(rules("crates/serve/src/lib.rs", src).is_empty());
        let stream = "fn f(s: std::net::TcpStream) {}\n";
        assert_eq!(rules("crates/audit/src/lib.rs", stream), vec!["no-raw-net"]);
        assert!(rules("crates/testkit/src/client.rs", stream).is_empty());
        assert!(rules("crates/coord/src/dispatch.rs", stream).is_empty());
    }

    #[test]
    fn binary_heap_banned_in_detailed_only() {
        let src = "use std::collections::BinaryHeap;\nfn f() { let h: BinaryHeap<u32> = BinaryHeap::new(); }\n";
        assert_eq!(
            rules("crates/detailed/src/router.rs", src),
            vec!["no-binary-heap"; 2]
        );
        assert!(rules("crates/graph/src/mcmf.rs", src).is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n    use std::collections::BinaryHeap;\n}\n";
        assert!(rules("crates/detailed/src/dense.rs", gated).is_empty());
    }

    #[test]
    fn diagnostics_carry_columns() {
        let src = "fn f() { g().unwrap(); }\n";
        let file = SourceFile::new("crates/geom/src/a.rs", src);
        let mut out = Vec::new();
        check_file(&file, &mut out);
        assert_eq!(out.len(), 1);
        // `.unwrap()` starts at the `.` (byte 12, col 13).
        assert_eq!(out[0].col, 13);
    }
}
