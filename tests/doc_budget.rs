//! Byte budgets for the two design documents, and the shape of a
//! CHANGES.md entry.
//!
//! `DESIGN.md` and `TESTING.md` may shrink freely but not grow past the
//! budgets below, so growth is a decision: raising a budget is an edit to
//! this file. Lower a budget whenever a document is cut.
//!
//! A CHANGES.md entry is a line starting with `- ` and the lines that
//! follow it up to the next entry. Each entry stays within
//! `CHANGES_ENTRY_LINES` lines of at most `CHANGES_COLUMNS` columns; the
//! long story of a change lives in git, not in the log.

const BUDGETS: [(&str, u64); 2] = [("DESIGN.md", 64_035), ("TESTING.md", 38_929)];

const CHANGES_ENTRY_LINES: usize = 10;
const CHANGES_COLUMNS: usize = 100;

#[test]
fn design_documents_stay_within_their_byte_budgets() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (doc, budget) in BUDGETS {
        let size = std::fs::metadata(root.join(doc))
            .unwrap_or_else(|e| panic!("{doc}: {e}"))
            .len();
        assert!(
            size <= budget,
            "{doc} is {size} bytes, over its {budget}-byte budget: cut it, \
             or raise the budget in tests/doc_budget.rs on purpose"
        );
    }
}

#[test]
fn changes_entries_stay_short_and_narrow() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("CHANGES.md")).expect("CHANGES.md");
    let mut entry: Option<(usize, usize)> = None; // (first line number, line count)
    for (i, line) in text.lines().enumerate() {
        let number = i + 1;
        let columns = line.chars().count();
        assert!(
            columns <= CHANGES_COLUMNS,
            "CHANGES.md:{number} is {columns} columns wide, over {CHANGES_COLUMNS}"
        );
        if line.starts_with("- ") {
            entry = Some((number, 1));
        } else if !line.trim().is_empty() {
            let (start, count) = entry
                .as_mut()
                .unwrap_or_else(|| panic!("CHANGES.md:{number} comes before the first `- ` entry"));
            *count += 1;
            assert!(
                *count <= CHANGES_ENTRY_LINES,
                "the CHANGES.md entry at line {start} runs past {CHANGES_ENTRY_LINES} lines"
            );
        }
    }
}
