//! Every `MG_*` environment variable the crates read is documented: the
//! set of `"MG_…"` string literals under `crates/*/src` must equal the
//! names in README's "Environment variables" table.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whole string literals of the form `"MG_[A-Z0-9_]+"` in `src`.
fn env_literals(src: &str, out: &mut BTreeSet<String>) {
    for (at, _) in src.match_indices("\"MG_") {
        let rest = &src[at + 1..];
        let len = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        if rest[len..].starts_with('"') {
            out.insert(rest[..len].to_string());
        }
    }
}

/// The first-column names of README's "Environment variables" table.
fn documented() -> BTreeSet<String> {
    let readme = std::fs::read_to_string(root().join("README.md")).unwrap();
    let section = readme
        .split("\n## Environment variables\n")
        .nth(1)
        .expect("README has an \"Environment variables\" section");
    let section = section.split("\n## ").next().unwrap();
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `MG_"))
        .map(|l| format!("MG_{}", &l[..l.find('`').unwrap()]))
        .collect()
}

#[test]
fn every_env_var_read_is_in_the_readme_table() {
    let mut read = BTreeSet::new();
    for krate in std::fs::read_dir(root().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            let mut files = Vec::new();
            rust_files(&src, &mut files);
            for f in files {
                env_literals(&std::fs::read_to_string(f).unwrap(), &mut read);
            }
        }
    }
    assert!(read.contains("MG_TRACE"), "the scan found {read:?}");
    assert_eq!(
        read,
        documented(),
        "crates read (left) vs README lists (right)"
    );
}
