//! A ratchet on ROADMAP item 1 (panic containment): the library code's
//! `.lock()`, `.read()` and `.write()` calls whose guard is taken with
//! `.unwrap()` or `.expect()`. Each such site turns one panic under the lock
//! into a panic for every later caller, because the lock stays poisoned.
//! The count may fall; it may not grow.

use std::fs;
use std::path::{Path, PathBuf};

/// The sites counted when the ratchet was set. Item 1 lowers this to 0;
/// nothing raises it.
const PINNED_SITES: usize = 92;

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// A source file up to its first `#[cfg(test)]` line.
fn library_part(text: &str) -> &str {
    let mut end = 0;
    for line in text.split_inclusive('\n') {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        end += line.len();
    }
    &text[..end]
}

/// `.lock()`, `.read()` or `.write()` followed by `.unwrap(` or `.expect(`,
/// with any whitespace, newlines included, between the two.
fn panicking_guard_sites(code: &str) -> usize {
    ["lock", "read", "write"]
        .iter()
        .map(|guard| {
            let call = format!(".{guard}()");
            (code.match_indices(&call))
                .filter(|&(at, _)| {
                    let rest = code[at + call.len()..].trim_start();
                    rest.starts_with(".unwrap(") || rest.starts_with(".expect(")
                })
                .count()
        })
        .sum()
}

#[test]
fn the_matcher_counts_split_chains_and_nothing_else() {
    let code = "a.lock().unwrap();\n b.read()\n    .expect(\"poisoned\");\n\
                c.write()?; d.lock().unwrap_or_else(|e| e.into_inner()); e.lock();";
    assert_eq!(panicking_guard_sites(code), 2);
    let file = "x.lock().unwrap();\n#[cfg(test)]\nmod tests { y.lock().unwrap(); }\n";
    assert_eq!(panicking_guard_sites(library_part(file)), 1);
}

#[test]
fn panicking_lock_guards_never_increase() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let src = krate.expect("readable crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    assert!(!files.is_empty(), "no sources under {}", root.display());
    let mut total = 0;
    let mut by_file = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        let n = panicking_guard_sites(library_part(&text));
        if n > 0 {
            let shown = path.strip_prefix(&root).unwrap_or(path).display();
            by_file.push(format!("{shown}: {n}"));
            total += n;
        }
    }
    assert!(
        total <= PINNED_SITES,
        "{total} `.lock()`/`.read()`/`.write()` guards outside tests are taken with \
         `.unwrap()`/`.expect()`, above the pin of {PINNED_SITES}. A panic under such a \
         lock poisons it for every later caller (ROADMAP item 1). Item 1 lowers the pin \
         to 0; nothing raises it. By file:\n{}",
        by_file.join("\n")
    );
}
