//! CI gate: every atomic, lock, and thread primitive in `priosched-core`
//! must route through the `crate::sync` facade.
//!
//! The facade is what lets `--cfg loom` swap the whole crate onto the
//! in-tree loom shim for model checking (see the crate's "Model-checked
//! properties" docs) — a single direct `std::sync::atomic` / `std::thread`
//! / `parking_lot` import silently exempts that code from every
//! interleaving the models explore. This binary walks `crates/core/src`,
//! strips comments and everything at or below the first `#[cfg(test)]`
//! line (test modules run only in non-loom builds and may use std
//! directly), and fails if any forbidden import survives. It also prints a
//! per-module census of `Ordering::` usage by flavor, so ordering-strength
//! creep shows up in CI logs.
//!
//! The same walk holds `unsafe` blocks to the crate's discipline, in
//! `crates/core/src` and in `crates/pq/src` (the sequential heaps' sift
//! kernel): every `unsafe {` outside test modules needs a `// SAFETY:`
//! comment, either trailing on its own line or in the comment block
//! directly above the statement that contains it (attributes such as
//! `#[cfg(..)]` may sit in between). A SAFETY comment covers one
//! statement: it does not carry over a line that ends in `;`, `{` or `}`.
//!
//! Usage: `cargo run -p priosched-bench --bin atomics_audit` (run from
//! anywhere inside the workspace; the source dirs are located relative to
//! `CARGO_MANIFEST_DIR`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Substrings that must not appear outside the facade and test modules.
const FORBIDDEN: &[&str] = &["std::sync::atomic", "std::thread", "parking_lot"];

/// The facade itself is the one legitimate home for direct imports.
const EXEMPT_FILES: &[&str] = &["sync.rs"];

const FLAVORS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// `crates/<name>/src`, found from the bench crate's manifest dir.
fn crate_src_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench crate lives under crates/")
        .join(name)
        .join("src")
}

/// The `.rs` files directly in `dir`, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().is_some_and(|x| x == "rs")).then_some(path)
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .rs files under {}", dir.display());
    files
}

/// `file:line` of every unjustified `unsafe` block in `files`.
fn unjustified_in(files: &[PathBuf]) -> Vec<String> {
    let mut out = Vec::new();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for lineno in unsafe_without_safety(&text) {
            out.push(format!("{name}:{lineno}"));
        }
    }
    out
}

/// The non-test prefix of a source file: everything before the first line
/// that is exactly a `#[cfg(test)]` attribute.
fn non_test_lines(text: &str) -> Vec<&str> {
    text.lines()
        .take_while(|line| line.trim_start() != "#[cfg(test)]")
        .collect()
}

/// The auditable prefix of a source file: comment lines blanked, test
/// modules cut off (see [`non_test_lines`]).
fn auditable_lines(text: &str) -> Vec<(usize, String)> {
    non_test_lines(text)
        .into_iter()
        .enumerate()
        .map(|(idx, line)| {
            let code = if line.trim_start().starts_with("//") {
                String::new()
            } else {
                line.to_string()
            };
            (idx + 1, code)
        })
        .collect()
}

/// Whether the code part of `line` opens an `unsafe` block.
fn opens_unsafe_block(line: &str) -> bool {
    let code = line.split("//").next().unwrap_or("");
    code.match_indices("unsafe").any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let word_start = before.is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        word_start && code[at + "unsafe".len()..].trim_start().starts_with('{')
    })
}

/// 1-based numbers of the non-test lines that open an `unsafe` block
/// without a `// SAFETY:` comment on the line or directly above its
/// statement.
fn unsafe_without_safety(text: &str) -> Vec<usize> {
    let lines = non_test_lines(text);
    let justified = |idx: usize| {
        if lines[idx].contains("// SAFETY:") {
            return true;
        }
        let mut in_comment = false;
        for above in lines[..idx].iter().rev().map(|l| l.trim()) {
            if above.starts_with("// SAFETY:") {
                return true;
            }
            if above.starts_with("//") {
                in_comment = true;
                continue;
            }
            // Code above the comment block, or the end of the previous
            // statement: the search has left this statement.
            let ends_statement =
                above.ends_with(';') || above.ends_with('{') || above.ends_with('}');
            if in_comment || ends_statement {
                return false;
            }
            // An attribute or a blank line, or an earlier line of the same
            // statement: keep walking up.
        }
        false
    };
    (0..lines.len())
        .filter(|&idx| opens_unsafe_block(lines[idx]) && !justified(idx))
        .map(|idx| idx + 1)
        .collect()
}

fn main() -> ExitCode {
    let dir = crate_src_dir("core");
    let files = rust_files(&dir);
    let pq_dir = crate_src_dir("pq");
    let pq_files = rust_files(&pq_dir);

    let mut violations = Vec::new();
    let mut unjustified = unjustified_in(&files);
    unjustified.extend(
        unjustified_in(&pq_files)
            .into_iter()
            .map(|u| format!("pq/{u}")),
    );
    let mut census: BTreeMap<String, BTreeMap<&str, usize>> = BTreeMap::new();

    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let lines = auditable_lines(&text);

        let counts = census.entry(name.clone()).or_default();
        for (_, line) in &lines {
            for flavor in FLAVORS {
                counts.entry(flavor).or_insert(0);
                let pat = format!("Ordering::{flavor}");
                *counts.get_mut(flavor).unwrap() += line.matches(&pat).count();
            }
        }

        if EXEMPT_FILES.contains(&name.as_str()) {
            continue;
        }
        for (lineno, line) in &lines {
            for pat in FORBIDDEN {
                if line.contains(pat) {
                    violations.push(format!("{name}:{lineno}: `{pat}` — {}", line.trim()));
                }
            }
        }
    }

    println!(
        "atomics audit: {} files under {} ({} more under {} for the unsafe rule)",
        files.len(),
        dir.display(),
        pq_files.len(),
        pq_dir.display()
    );
    println!(
        "\n{:<18} {:>8} {:>8} {:>8} {:>7} {:>7}",
        "module", "Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"
    );
    for (name, counts) in &census {
        if counts.values().all(|&c| c == 0) {
            continue;
        }
        println!(
            "{:<18} {:>8} {:>8} {:>8} {:>7} {:>7}",
            name,
            counts["Relaxed"],
            counts["Acquire"],
            counts["Release"],
            counts["AcqRel"],
            counts["SeqCst"]
        );
    }

    let mut ok = true;
    if violations.is_empty() {
        println!("\nOK: all sync primitives route through crate::sync");
    } else {
        ok = false;
        println!(
            "\nFAIL: {} direct sync import(s) bypass the crate::sync facade",
            violations.len()
        );
        for v in &violations {
            println!("  {v}");
        }
        println!("route them through crate::sync so loom models cover this code");
    }
    if unjustified.is_empty() {
        println!("OK: every unsafe block carries a // SAFETY: comment");
    } else {
        ok = false;
        println!(
            "\nFAIL: {} unsafe block(s) without a // SAFETY: comment",
            unjustified.len()
        );
        for u in &unjustified {
            println!("  {u}");
        }
        println!("state why each block is sound in a // SAFETY: comment directly above it");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_unsafe_blocks_only() {
        assert!(opens_unsafe_block("    let x = unsafe { &*p };"));
        assert!(opens_unsafe_block("unsafe {"));
        assert!(!opens_unsafe_block("unsafe impl<T> Send for X<T> {}"));
        assert!(!opens_unsafe_block("    unsafe fn f() {}"));
        assert!(!opens_unsafe_block("    not_unsafe { }"));
        assert!(!opens_unsafe_block("    // unsafe { in a comment }"));
    }

    #[test]
    fn safety_comment_must_directly_precede() {
        let ok = "// SAFETY: fine.\nlet a = unsafe { f() };\n";
        assert!(unsafe_without_safety(ok).is_empty());
        let block = "// SAFETY: a long\n// argument.\n#[cfg(x)]\nunsafe { f() };\n";
        assert!(unsafe_without_safety(block).is_empty());
        let trailing = "let a = unsafe { f() }; // SAFETY: fine.\n";
        assert!(unsafe_without_safety(trailing).is_empty());
        let stale = "// SAFETY: for the first.\nlet a = unsafe { f() };\nlet b = unsafe { g() };\n";
        assert_eq!(unsafe_without_safety(stale), vec![3]);
        let chained = "// SAFETY: fine.\nlet a = x\n    .cell\n    .with(|c| unsafe { g(c) });\n";
        assert!(unsafe_without_safety(chained).is_empty());
        let nested = "// SAFETY: for the loop?\nfor x in xs {\n    unsafe { f(x) };\n}\n";
        assert_eq!(unsafe_without_safety(nested), vec![3]);
        let plain = "// Not a justification.\nlet a = unsafe { f() };\n";
        assert_eq!(unsafe_without_safety(plain), vec![2]);
    }

    /// The sequential heaps carry `unsafe` blocks (the hole-based sift
    /// kernel); the audit reads their sources and finds every block
    /// justified.
    #[test]
    fn pq_sources_are_audited() {
        let files = rust_files(&crate_src_dir("pq"));
        let blocks: usize = files
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path).expect("readable source");
                non_test_lines(&text)
                    .into_iter()
                    .filter(|l| opens_unsafe_block(l))
                    .count()
            })
            .sum();
        assert!(blocks > 0, "the pq crate has unsafe blocks to audit");
        assert_eq!(unjustified_in(&files), Vec::<String>::new());
    }

    #[test]
    fn test_modules_are_exempt() {
        let text = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { unsafe { h() }; } }\n";
        assert!(unsafe_without_safety(text).is_empty());
    }
}
