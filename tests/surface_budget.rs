//! Budgets for each library crate's public surface.
//!
//! A crate root exports only what something outside the crate names: other
//! crates, the facade's `src/`, `tests/` and `examples/`, and `benchmark/`.
//! This test counts the lines under `crates/<name>/src` that open with
//! `pub ` (so `pub(crate)` does not count) and holds every crate to the
//! budget below. A count may fall freely but not rise: growing the public
//! surface is an edit to this file. Lower a budget whenever a crate's count
//! drops.

use std::path::Path;

const BUDGETS: [(&str, usize); 11] = [
    ("cn-fit", 121),
    ("cn-gen", 50),
    ("cn-live", 76),
    ("cn-mcn", 89),
    ("cn-obs", 132),
    ("cn-scenario", 47),
    ("cn-statemachine", 59),
    ("cn-stats", 93),
    ("cn-trace", 122),
    ("cn-verify", 126),
    ("cn-world", 15),
];

/// Lines opening with `pub ` in every `.rs` file under `dir`.
fn pub_lines(dir: &Path) -> usize {
    let mut count = 0;
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            count += pub_lines(&path);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            count += text
                .lines()
                .filter(|line| line.trim_start().starts_with("pub "))
                .count();
        }
    }
    count
}

#[test]
fn public_surfaces_stay_within_their_budgets() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut on_disk: Vec<String> = std::fs::read_dir(&crates)
        .expect("crates/")
        .map(|entry| entry.expect("crates/ entry").file_name())
        .map(|name| name.into_string().expect("UTF-8 crate name"))
        .collect();
    on_disk.sort();
    let budgeted: Vec<&str> = BUDGETS.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        on_disk, budgeted,
        "every crate under crates/ needs exactly one budget in tests/surface_budget.rs"
    );
    for (name, budget) in BUDGETS {
        let count = pub_lines(&crates.join(name).join("src"));
        assert!(
            count <= budget,
            "{name} has {count} `pub ` lines, over its budget of {budget}: make the new \
             items private or pub(crate) unless another crate names them, or raise the \
             budget in tests/surface_budget.rs on purpose"
        );
    }
}
