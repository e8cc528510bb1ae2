//! Stamps the crate with a fingerprint of the workspace sources: 64-bit
//! FNV-1a over the relative path and bytes of every `.rs` and `.toml`
//! file under `crates/`, in sorted path order. It is the rule perfbench's
//! run stamp uses for its `source` field, so the two agree on one tree.
//! The campaign result cache stores it in each entry and serves only
//! entries written by the same sources.

use std::path::{Path, PathBuf};

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .path();
        if path.is_dir() {
            walk(&path, files);
        } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
            files.push(path);
        }
    }
}

fn main() {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("../..");
    let crates = root.join("crates");
    println!("cargo:rerun-if-changed={}", crates.display());
    let mut files = Vec::new();
    walk(&crates, &mut files);
    // `read_dir` order is unspecified; the fingerprint must not be.
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file).to_string_lossy();
        let bytes = std::fs::read(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        for b in rel.bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=COOPCKPT_SOURCE_FNV={h:016x}");
}
