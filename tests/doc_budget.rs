//! Byte budgets for the two design documents.
//!
//! `DESIGN.md` and `TESTING.md` may shrink freely but not grow past the
//! budgets below, so growth is a decision: raising a budget is an edit to
//! this file. Lower a budget whenever a document is cut.

const BUDGETS: [(&str, u64); 2] = [("DESIGN.md", 64_703), ("TESTING.md", 54_099)];

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
