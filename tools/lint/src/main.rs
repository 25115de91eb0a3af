//! `sli-lint`: the repo's concurrency-hygiene gate.
//!
//! Dependency-free static analysis (substring + brace tracking — "AST
//! lite", deliberately not `syn`: the container has no registry access
//! and the rules below don't need type information). Six rules, all
//! scoped to library code of the first-party crates plus the vendored
//! `parking_lot` (the other vendored crates are third-party snapshots):
//!
//! 1. **safety-comment** — every `unsafe` keyword must carry a
//!    `// SAFETY:` justification (or a `# Safety` doc section for
//!    `unsafe trait`/`unsafe fn` declarations) on the same line or in the
//!    comment block above.
//! 2. **ordering-comment** — every non-`SeqCst` atomic ordering
//!    (`Relaxed`, `Acquire`, `Release`, `AcqRel`) must carry an
//!    `// ordering:` justification nearby. Test code is exempt: stress
//!    tests legitimately use `Relaxed` counters.
//! 3. **sleep** — no `thread::sleep` in library code. Sleeping is how
//!    lost wakeups hide; production waits must go through the parker.
//!    Tests, benches, examples and the experiment harness are exempt.
//! 4. **latch-across-park** — textual heuristic: a live lock/latch guard
//!    binding in scope when a `park(`/`park_timeout(` call appears. A
//!    thread that parks while holding a latch deadlocks the tree.
//! 5. **durability** — in recovery code (files whose path contains
//!    `recovery`), every direct storage mutation (`heap.`/`primary.`/
//!    `ordered.` followed by a mutator method) must carry a
//!    `// durability:` comment explaining why mutating pages outside a
//!    transaction is safe. One comment covers the contiguous mutation
//!    cluster it precedes.
//! 6. **env** — no `std::env::var` in library code. An environment read
//!    inside the engine is a hidden option that a stray variable turns on
//!    for any embedder; knobs belong to the benches, tests and examples
//!    (exempt) and to the harness, whose library reads them in one
//!    suppressed place and passes them in through config structs.
//!
//! A site can be suppressed with `// sli-lint: allow(<rule>)` on the same
//! line or the line above — the suppression is itself greppable, so the
//! escape hatch leaves an audit trail.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Lexing: split each source line into code and comment channels
// ---------------------------------------------------------------------------

/// One source line, split into its code text (comments removed) and its
/// comment text (everything inside `//`, `///`, `//!` or `/* … */` on
/// that line). String literal contents are dropped from the code channel
/// so keywords inside them cannot trip the rules.
#[derive(Debug, Default, Clone)]
struct SplitLine {
    code: String,
    comment: String,
}

/// Lexer state carried across lines.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LexState {
    Normal,
    /// Inside `/* … */`; Rust block comments nest, hence the depth.
    Block(u32),
    /// Inside a string literal (`"`).
    Str,
    /// Inside a raw string; the payload is the number of `#`s.
    RawStr(u32),
}

/// Split `src` into per-line code/comment channels. Handles line and
/// (nested) block comments, string/char literals, raw strings, and the
/// lifetime-vs-char-literal ambiguity well enough for keyword scanning.
fn split_lines(src: &str) -> Vec<SplitLine> {
    let mut out = Vec::new();
    let mut state = LexState::Normal;
    for line in src.lines() {
        let bytes = line.as_bytes();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0usize;
        while i < bytes.len() {
            match state {
                LexState::Block(depth) => {
                    if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        state = if depth > 1 {
                            LexState::Block(depth - 1)
                        } else {
                            LexState::Normal
                        };
                        i += 2;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(bytes[i] as char);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if bytes[i] == b'\\' {
                        i += 2; // skip the escaped byte
                    } else if bytes[i] == b'"' {
                        state = LexState::Normal;
                        code.push('"');
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if bytes[i] == b'"' {
                        let h = hashes as usize;
                        if bytes.len() >= i + 1 + h
                            && bytes[i + 1..i + 1 + h].iter().all(|&b| b == b'#')
                        {
                            state = LexState::Normal;
                            code.push('"');
                            i += 1 + h;
                            continue;
                        }
                    }
                    i += 1;
                }
                LexState::Normal => match bytes[i] {
                    b'/' if bytes.get(i + 1) == Some(&b'/') => {
                        comment.push_str(&line[i + 2..]);
                        i = bytes.len();
                    }
                    b'/' if bytes.get(i + 1) == Some(&b'*') => {
                        state = LexState::Block(1);
                        i += 2;
                    }
                    b'"' => {
                        state = LexState::Str;
                        code.push('"');
                        i += 1;
                    }
                    b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                        // Possible raw string: r"…" or r#"…"#.
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&b'#') {
                            j += 1;
                        }
                        if bytes.get(j) == Some(&b'"') {
                            state = LexState::RawStr((j - i - 1) as u32);
                            code.push('"');
                            i = j + 1;
                        } else {
                            code.push('r');
                            i += 1;
                        }
                    }
                    b'\'' => {
                        // Char literal vs lifetime: a literal closes with a
                        // `'` within a few bytes (`'a'`, `'\n'`, `'\u{..}'`).
                        let rest = &bytes[i + 1..];
                        let close = if rest.first() == Some(&b'\\') {
                            rest.iter().skip(1).position(|&b| b == b'\'').map(|p| p + 1)
                        } else {
                            (rest.len() >= 2 && rest[1] == b'\'').then_some(1)
                        };
                        match close {
                            Some(p) => i += p + 2, // skip the whole literal
                            None => {
                                code.push('\'');
                                i += 1;
                            }
                        }
                    }
                    b => {
                        code.push(b as char);
                        i += 1;
                    }
                },
            }
        }
        out.push(SplitLine { code, comment });
    }
    out
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    SafetyComment,
    OrderingComment,
    Sleep,
    LatchAcrossPark,
    Durability,
    Env,
}

impl Rule {
    fn name(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::OrderingComment => "ordering-comment",
            Rule::Sleep => "sleep",
            Rule::LatchAcrossPark => "latch-across-park",
            Rule::Durability => "durability",
            Rule::Env => "env",
        }
    }
}

#[derive(Debug)]
struct Finding {
    file: PathBuf,
    /// 1-based line number.
    line: usize,
    rule: Rule,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

/// How a file is classified for rule exemptions.
#[derive(Debug, Clone, Copy)]
struct FileClass {
    /// Test/bench/example/harness code: exempt from the ordering and
    /// sleep rules (stress tests poll; harness drivers pace phases).
    relaxed: bool,
    /// Test/bench/example code: exempt from the env rule. Harness library
    /// code is not: it reads its knobs in one suppressed place.
    env_exempt: bool,
}

fn classify(rel: &str) -> FileClass {
    let env_exempt = rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/");
    let relaxed = env_exempt || rel.contains("crates/harness/");
    FileClass {
        relaxed,
        env_exempt,
    }
}

/// Mark every line inside a `#[cfg(test)]`-gated item (or a `#[test]`
/// function) so the ordering/sleep rules can skip test code embedded in
/// lib files. Brace-tracked from the attribute to the close of the item
/// it gates.
fn test_regions(lines: &[SplitLine]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.trim();
        let is_gate = code.contains("#[cfg(test)]")
            || code.contains("#[cfg(all(test")
            || code.contains("#[test]")
            || code.contains("#[bench]");
        if !is_gate {
            i += 1;
            continue;
        }
        // Scan forward to the item's opening brace, then to its close.
        let mut depth = 0i32;
        let mut opened = false;
        let mut bare_item = false;
        let mut j = i;
        while j < lines.len() {
            in_test[j] = true;
            for b in lines[j].code.bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    // An attribute gating a brace-less item (e.g. a
                    // `#[cfg(test)] use …;`) ends at the semicolon.
                    b';' if !opened && depth == 0 => bare_item = true,
                    _ => {}
                }
            }
            if (opened && depth <= 0) || bare_item {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    in_test
}

/// Is this site suppressed with `// sli-lint: allow(<rule>)` on its line
/// or the line above?
fn suppressed(lines: &[SplitLine], idx: usize, rule: Rule) -> bool {
    let needle = format!("sli-lint: allow({})", rule.name());
    lines[idx].comment.contains(&needle) || (idx > 0 && lines[idx - 1].comment.contains(&needle))
}

/// How many comment/attribute/blank lines the upward justification walk
/// may cross. Statement-continuation lines are free: a justification
/// covers the whole (possibly long) statement it precedes, but never a
/// *different* completed statement.
const JUSTIFY_WINDOW: usize = 12;

/// Walk upward from `idx` looking for any of `needles` in comment text.
/// The walk passes through comments, attributes, blank lines, and lines
/// that do not end a statement (so a comment above a multi-line call or a
/// large struct-literal statement still counts for every site inside it),
/// and stops at the first completed statement or item boundary.
fn justified_above(lines: &[SplitLine], idx: usize, needles: &[&str]) -> bool {
    let has = |i: usize| {
        let lower = lines[i].comment.to_ascii_lowercase();
        needles
            .iter()
            .any(|n| lower.contains(&n.to_ascii_lowercase()))
    };
    if has(idx) {
        return true;
    }
    let mut steps = 0;
    let mut i = idx;
    while i > 0 && steps < JUSTIFY_WINDOW {
        i -= 1;
        if has(i) {
            return true;
        }
        let code = lines[i].code.trim();
        if code.ends_with(';') || code.ends_with('}') {
            // A completed statement (or closed block) above the site: any
            // comment further up belongs to other code.
            return false;
        }
        if code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#!")
            || code.ends_with('{')
        {
            // Comments, attributes, blanks and block/statement openers
            // consume the budget; continuation lines of the site's own
            // statement do not (a justification covers the whole
            // statement, however long).
            steps += 1;
        }
    }
    false
}

/// Find `park(`/`park_timeout(` call tokens in a code line, excluding
/// `unpark…` (and any other identifier merely containing "park").
fn has_park_call(code: &str) -> bool {
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("park") {
        let i = from + pos;
        from = i + 4;
        // The char before must be a separator (`.`, `:`, whitespace,
        // start, `(`), not an identifier char (which would catch
        // `unpark`, `spark_…`).
        if i > 0 {
            let prev = b[i - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let rest = &code[i + 4..];
        if rest.starts_with('(') || rest.starts_with("_timeout(") {
            return true;
        }
    }
    false
}

/// A live guard binding for the latch-across-park heuristic.
#[derive(Debug)]
struct Guard {
    name: String,
    depth: i32,
    line: usize,
}

/// Extract a guard binding from a code line: `let <name> = <expr>` where
/// the expression calls a lock/latch acquisition method. `let _ = …` is
/// skipped (the guard temporary is dropped at the end of the statement).
fn guard_binding(code: &str) -> Option<String> {
    const ACQUIRERS: [&str; 8] = [
        ".lock()",
        ".try_lock()",
        ".acquire()",
        ".try_acquire()",
        ".read()",
        ".try_read()",
        ".write()",
        ".try_write()",
    ];
    if !ACQUIRERS.iter().any(|a| code.contains(a)) {
        return None;
    }
    let let_pos = code.find("let ")?;
    let after = &code[let_pos + 4..];
    let name: String = after
        .trim_start()
        .trim_start_matches("mut ")
        .trim_start_matches("Some(") // `if let Some(g) = x.try_lock()`
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name == "_" {
        return None;
    }
    Some(name)
}

/// Does a code line mutate storage directly (bypassing a transaction)?
/// Matches a storage receiver (`heap.`, `primary.`, `ordered.`) followed
/// immediately by a mutator method call.
fn durability_mutation(code: &str) -> bool {
    const RECEIVERS: [&str; 3] = ["heap.", "primary.", "ordered."];
    const MUTATORS: [&str; 6] = [
        "insert(",
        "update(",
        "delete(",
        "restore(",
        "remove(",
        "ensure_page(",
    ];
    for recv in RECEIVERS {
        let mut from = 0;
        while let Some(pos) = code[from..].find(recv) {
            let i = from + pos + recv.len();
            from = i;
            if MUTATORS.iter().any(|m| code[i..].starts_with(m)) {
                return true;
            }
        }
    }
    false
}

/// Like [`justified_above`] for the durability rule, but the upward walk
/// also passes through *other mutator lines*: recovery mutations come in
/// clusters (restore + index insert + ordered insert), and one
/// `// durability:` comment above the cluster covers all of it. Any
/// unrelated completed statement still ends the walk.
fn durability_justified(lines: &[SplitLine], idx: usize) -> bool {
    let has = |i: usize| {
        lines[i]
            .comment
            .to_ascii_lowercase()
            .contains("durability:")
    };
    if has(idx) {
        return true;
    }
    let mut steps = 0;
    let mut i = idx;
    while i > 0 && steps < JUSTIFY_WINDOW {
        i -= 1;
        if has(i) {
            return true;
        }
        let code = lines[i].code.trim();
        if durability_mutation(code) || code == "}" {
            // Same mutation cluster (or the close of a conditional inside
            // it): keep walking.
            steps += 1;
            continue;
        }
        if code.ends_with(';') || code.ends_with('}') {
            return false;
        }
        if code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#!")
            || code.ends_with('{')
        {
            steps += 1;
        }
    }
    false
}

fn analyze(rel: &Path, src: &str, findings: &mut Vec<Finding>) {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let class = classify(&rel_str);
    let lines = split_lines(src);
    let in_test = test_regions(&lines);

    let mut depth = 0i32;
    let mut guards: Vec<Guard> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = &line.code;
        let trimmed = code.trim();
        let test_code = class.relaxed || in_test[idx];

        // Rule 1: unsafe needs SAFETY. Applies everywhere, tests included
        // — unsafe is unsafe no matter where it lives.
        if let Some(pos) = find_word(code, "unsafe") {
            // `unsafe trait`/`unsafe fn` declarations may carry the
            // justification as a `# Safety` doc section instead.
            let decl = code[pos..].contains("unsafe trait") || code[pos..].contains("unsafe fn");
            let needles: &[&str] = if decl {
                &["SAFETY:", "# Safety"]
            } else {
                &["SAFETY:"]
            };
            if !justified_above(&lines, idx, needles)
                && !suppressed(&lines, idx, Rule::SafetyComment)
            {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: lineno,
                    rule: Rule::SafetyComment,
                    message: "`unsafe` without a `// SAFETY:` justification".into(),
                });
            }
        }

        // Rule 2: non-SeqCst orderings need an `// ordering:` note.
        if !test_code {
            const WEAK: [&str; 4] = [
                "Ordering::Relaxed",
                "Ordering::Acquire",
                "Ordering::Release",
                "Ordering::AcqRel",
            ];
            if WEAK.iter().any(|w| code.contains(w))
                && !justified_above(&lines, idx, &["ordering:"])
                && !suppressed(&lines, idx, Rule::OrderingComment)
            {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: lineno,
                    rule: Rule::OrderingComment,
                    message: "non-SeqCst atomic ordering without an `// ordering:` justification"
                        .into(),
                });
            }
        }

        // Rule 3: no thread::sleep in library code.
        if !test_code
            && (code.contains("thread::sleep") || code.contains("sleep_ms"))
            && !suppressed(&lines, idx, Rule::Sleep)
        {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: Rule::Sleep,
                message: "thread::sleep in library code (waits must go through the parker)".into(),
            });
        }

        // Rule 6: no environment reads in library code.
        if !(class.env_exempt || in_test[idx])
            && code.contains("env::var")
            && !suppressed(&lines, idx, Rule::Env)
        {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: Rule::Env,
                message: "environment read in library code (pass knobs in through config)".into(),
            });
        }

        // Rule 5: recovery code mutating pages outside a transaction
        // must say why that is safe. Scoped to recovery source files —
        // everywhere else, storage mutation goes through a transaction
        // and the WAL, so the comment would be noise.
        if !test_code
            && rel_str.contains("recovery")
            && durability_mutation(code)
            && !durability_justified(&lines, idx)
            && !suppressed(&lines, idx, Rule::Durability)
        {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: lineno,
                rule: Rule::Durability,
                message: "recovery-path storage mutation without a `// durability:` justification"
                    .into(),
            });
        }

        // Rule 4: latch held across a park call (textual heuristic, so it
        // also runs on test code — a test that parks under a latch hangs
        // the suite just as hard).
        for b in trimmed.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
        guards.retain(|g| g.depth <= depth && !code.contains(&format!("drop({})", g.name)));
        if has_park_call(code) {
            if let Some(g) = guards.first() {
                if !suppressed(&lines, idx, Rule::LatchAcrossPark) {
                    findings.push(Finding {
                        file: rel.to_path_buf(),
                        line: lineno,
                        rule: Rule::LatchAcrossPark,
                        message: format!(
                            "park call while guard `{}` (bound line {}) may still be live",
                            g.name, g.line
                        ),
                    });
                }
            }
        }
        if let Some(name) = guard_binding(code) {
            guards.push(Guard {
                name,
                depth,
                line: lineno,
            });
        }
        // Function boundaries reset the guard set (a `fn` at depth ≤ 1
        // covers free functions and impl-block methods).
        if depth <= 1 && find_word(trimmed, "fn").is_some() {
            guards.clear();
        }
    }
}

/// Find `word` in `code` at an identifier boundary.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let i = from + pos;
        from = i + word.len();
        let pre_ok = i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        let post = i + word.len();
        let post_ok = post >= b.len() || !(b[post].is_ascii_alphanumeric() || b[post] == b'_');
        if pre_ok && post_ok {
            return Some(i);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Directories scanned, relative to the workspace root. Third-party
/// vendored snapshots are excluded wholesale; `vendor/parking_lot` is
/// first-party (written for this tree) and is held to the same bar.
const SCAN_ROOTS: [&str; 6] = [
    "crates",
    "tools",
    "src",
    "tests",
    "examples",
    "vendor/parking_lot",
];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

fn workspace_root() -> PathBuf {
    // Compiled location: <root>/tools/lint. A positional argument
    // overrides (useful for pointing the lint at a different checkout).
    let fallback = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or(fallback)
}

fn main() -> ExitCode {
    let root = workspace_root();
    let root = root.canonicalize().unwrap_or(root);
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        collect_rs(&root.join(scan), &mut files);
    }
    if files.is_empty() {
        eprintln!("sli-lint: no Rust sources under {}", root.display());
        return ExitCode::FAILURE;
    }

    let mut findings = Vec::new();
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path.strip_prefix(&root).unwrap_or(path);
        analyze(rel, &src, &mut findings);
    }

    if findings.is_empty() {
        println!("sli-lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "sli-lint: {} finding(s) in {} files scanned",
            findings.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<String> {
        let mut findings = Vec::new();
        analyze(Path::new(rel), src, &mut findings);
        findings.iter().map(|f| f.rule.name().to_string()).collect()
    }

    #[test]
    fn annotated_unsafe_passes_and_bare_unsafe_fails() {
        let good = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid.
    unsafe { *p }
}
";
        assert!(run("crates/x/src/lib.rs", good).is_empty());

        // The acceptance-criteria mutation: strip the SAFETY comment and
        // the same site must fail.
        let bad = "\
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
";
        assert_eq!(run("crates/x/src/lib.rs", bad), ["safety-comment"]);
    }

    #[test]
    fn safety_comment_is_found_through_attributes_and_multiline_statements() {
        let good = "\
// SAFETY: the raw mutex serializes access.
#[allow(clippy::mut_from_ref)]
unsafe impl<T> Sync for Cell<T> {}

fn g(slot: &[u8], i: usize) {
    let v =
        // SAFETY: index checked above.
        unsafe { slot.get_unchecked(i) };
}
";
        assert!(run("crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn unsafe_decl_accepts_doc_safety_section() {
        let good = "\
/// Raw lock.
///
/// # Safety
///
/// Implementations must provide mutual exclusion.
pub unsafe trait RawMutex {}
";
        assert!(run("crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_ignored() {
        let ok = "\
// This mentions unsafe in prose only.
fn f() {
    let s = \"unsafe { }\";
}
";
        assert!(run("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn weak_ordering_requires_justification_outside_tests() {
        let bad = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        assert_eq!(run("crates/x/src/lib.rs", bad), ["ordering-comment"]);

        let good = "// ordering: stats counter, no synchronization implied.\n\
                    fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        assert!(run("crates/x/src/lib.rs", good).is_empty());

        let trailing =
            "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) } // ordering: stats only\n";
        assert!(run("crates/x/src/lib.rs", trailing).is_empty());

        // SeqCst needs no note: it is the "I mean full order" default.
        let seqcst = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::SeqCst) }\n";
        assert!(run("crates/x/src/lib.rs", seqcst).is_empty());
    }

    #[test]
    fn ordering_rule_exempts_test_code() {
        let in_cfg_test = "\
#[cfg(test)]
mod tests {
    fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }
}
";
        assert!(run("crates/x/src/lib.rs", in_cfg_test).is_empty());
        // Integration tests and benches are exempt by path.
        let bare = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        assert!(run("crates/x/tests/stress.rs", bare).is_empty());
        assert!(run("crates/x/benches/micro.rs", bare).is_empty());
    }

    #[test]
    fn sleep_is_banned_in_lib_code_only() {
        let bad = "fn f() { std::thread::sleep(Duration::from_millis(1)); }\n";
        assert_eq!(run("crates/x/src/lib.rs", bad), ["sleep"]);
        assert!(run("crates/harness/src/driver.rs", bad).is_empty());
        assert!(run("crates/x/tests/stress.rs", bad).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::sleep(D); }\n}\n";
        assert!(run("crates/x/src/lib.rs", in_test).is_empty());
    }

    #[test]
    fn env_read_is_banned_in_lib_code_only() {
        let bad = "fn f() -> Option<String> { std::env::var(\"KNOB\").ok() }\n";
        assert_eq!(run("crates/x/src/lib.rs", bad), ["env"]);
        assert_eq!(run("vendor/parking_lot/src/lib.rs", bad), ["env"]);
        assert!(run("crates/harness/tests/stress.rs", bad).is_empty());
        assert!(run("crates/harness/examples/diag.rs", bad).is_empty());
        assert!(run("crates/x/benches/micro.rs", bad).is_empty());
        assert!(run("tests/stress.rs", bad).is_empty());
        assert!(run("examples/demo.rs", bad).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { std::env::var(\"X\"); }\n}\n";
        assert!(run("crates/x/src/lib.rs", in_test).is_empty());
    }

    #[test]
    fn env_read_is_banned_in_harness_lib_code() {
        let bad = "fn f() -> Option<String> { std::env::var(\"KNOB\").ok() }\n";
        assert_eq!(run("crates/harness/src/setup.rs", bad), ["env"]);
        assert_eq!(run("crates/harness/src/main.rs", bad), ["env"]);
        let allowed = "// The front door. sli-lint: allow(env)\n\
                       fn f() -> Option<String> { std::env::var(\"KNOB\").ok() }\n";
        assert!(run("crates/harness/src/setup.rs", allowed).is_empty());
        // The harness keeps its ordering and sleep exemptions.
        let sleepy = "fn f() { std::thread::sleep(D); }\n";
        assert!(run("crates/harness/src/driver.rs", sleepy).is_empty());
    }

    #[test]
    fn env_read_can_be_suppressed_with_a_reason() {
        let allowed = "// A deployment path, not an engine knob. sli-lint: allow(env)\n\
                       fn f() -> Option<String> { std::env::var(\"KNOB\").ok() }\n";
        assert!(run("crates/x/src/lib.rs", allowed).is_empty());
    }

    #[test]
    fn park_under_live_guard_is_flagged() {
        let bad = "\
fn f(l: &Latch) {
    let g = l.acquire();
    shim::park();
}
";
        assert_eq!(run("crates/x/src/lib.rs", bad), ["latch-across-park"]);

        // Guard dropped by scope before the park: fine.
        let scoped = "\
fn f(l: &Latch) {
    {
        let g = l.acquire();
    }
    shim::park();
}
";
        assert!(run("crates/x/src/lib.rs", scoped).is_empty());

        // Explicit drop before the park: fine.
        let dropped = "\
fn f(l: &Latch) {
    let g = l.acquire();
    drop(g);
    shim::park();
}
";
        assert!(run("crates/x/src/lib.rs", dropped).is_empty());

        // `unpark` is not a park call.
        let unpark = "\
fn f(l: &Latch, t: &Thread) {
    let g = l.acquire();
    t.unpark();
}
";
        assert!(run("crates/x/src/lib.rs", unpark).is_empty());
    }

    #[test]
    fn recovery_mutations_need_a_durability_comment() {
        let bad = "\
fn put(t: &TableData) {
    t.heap.restore(rid, data);
}
";
        assert_eq!(run("crates/engine/src/recovery.rs", bad), ["durability"]);
        // The same code outside a recovery file is not this rule's business.
        assert!(run("crates/engine/src/session.rs", bad).is_empty());
        // Test code is exempt (integration tests drive storage directly).
        assert!(run("crates/engine/tests/recovery_proptest.rs", bad).is_empty());

        let good = "\
fn put(t: &TableData) {
    // durability: redo places the exact logged bytes back.
    t.heap.restore(rid, data);
}
";
        assert!(run("crates/engine/src/recovery.rs", good).is_empty());
    }

    #[test]
    fn one_durability_comment_covers_a_mutation_cluster() {
        let cluster = "\
fn put(t: &TableData) {
    // durability: index entries are rebuilt from the logged record.
    t.heap.ensure_page(page);
    t.heap.restore(rid, data);
    t.primary.insert(key, rid);
    if let Some(ok) = okey {
        t.ordered.insert(ok, rid);
    }
}
";
        assert!(run("crates/engine/src/recovery.rs", cluster).is_empty());

        // An unrelated statement between the comment and the mutation
        // breaks the cluster: the mutation below it is uncovered.
        let broken = "\
fn put(t: &TableData) {
    // durability: covers only the restore.
    t.heap.restore(rid, data);
    let n = counter.fetch_add(1);
    t.primary.insert(key, rid);
}
";
        assert_eq!(run("crates/engine/src/recovery.rs", broken), ["durability"]);

        // Reads are not mutations.
        let reads = "\
fn hash(t: &TableData) {
    t.heap.scan(|rid, data| acc = fnv(acc, data));
    t.primary.for_each(|k, r| acc += k);
}
";
        assert!(run("crates/engine/src/recovery.rs", reads).is_empty());
    }

    #[test]
    fn suppression_comment_silences_a_site() {
        let suppressed = "// sli-lint: allow(sleep)\n\
                          fn f() { std::thread::sleep(D); }\n";
        assert!(run("crates/x/src/lib.rs", suppressed).is_empty());
    }

    #[test]
    fn lexer_strips_nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ unsafe fn f() {}\n";
        // The unsafe survives into the code channel; the block comment
        // around it does not hide it, and it has no SAFETY text (the
        // comment channel is checked, but this one says nothing).
        assert_eq!(run("crates/x/src/lib.rs", src), ["safety-comment"]);
        let all_comment = "/* unsafe Ordering::Relaxed thread::sleep */ fn f() {}\n";
        assert!(run("crates/x/src/lib.rs", all_comment).is_empty());
    }
}
