//! Executable-claim verdicts.
//!
//! A [`Verdict`] states one checkable claim ("replay accepts 100% of
//! generated events"), the value actually measured, and whether the claim
//! held. A [`VerdictReport`] collects the verdicts of one validation run so
//! that the round-trip harness and the paper-claims table of
//! [`verdicts`](crate::verdicts()) share one report shape.

use serde::{Deserialize, Serialize};

/// One executable claim with its measured value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Verdict {
    /// The claim being checked, stated as the expected behavior.
    pub(crate) claim: String,
    /// What was actually measured.
    pub(crate) measured: String,
    /// Whether the measurement satisfies the claim.
    pub(crate) pass: bool,
}

/// An ordered collection of verdicts from one validation run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct VerdictReport {
    /// What was validated (e.g. "round-trip recovery, seed 11").
    pub(crate) title: String,
    /// The individual verdicts, in check order.
    pub(crate) verdicts: Vec<Verdict>,
}

impl VerdictReport {
    /// An empty report.
    pub(crate) fn new(title: impl Into<String>) -> VerdictReport {
        VerdictReport {
            title: title.into(),
            verdicts: Vec::new(),
        }
    }

    /// Record one check and return whether it passed.
    pub(crate) fn check(
        &mut self,
        claim: impl Into<String>,
        measured: impl Into<String>,
        pass: bool,
    ) -> bool {
        self.verdicts.push(Verdict {
            claim: claim.into(),
            measured: measured.into(),
            pass,
        });
        pass
    }

    /// Number of verdicts recorded.
    pub(crate) fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Number of passing verdicts.
    pub(crate) fn passed(&self) -> usize {
        self.verdicts.iter().filter(|v| v.pass).count()
    }

    /// True when every recorded verdict passed (vacuously true when empty).
    pub(crate) fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// Human-readable rendering: one `[PASS]`/`[FAIL]` line per verdict
    /// plus a summary line.
    pub(crate) fn render(&self) -> String {
        let claim_width = self
            .verdicts
            .iter()
            .map(|v| v.claim.len())
            .max()
            .unwrap_or(0);
        let mut out = format!("== {} ==\n", self.title);
        for v in &self.verdicts {
            let tag = if v.pass { "PASS" } else { "FAIL" };
            out.push_str(&format!(
                "[{tag}] {claim:<width$}  {measured}\n",
                claim = v.claim,
                width = claim_width,
                measured = v.measured,
            ));
        }
        out.push_str(&format!("{}/{} claims hold\n", self.passed(), self.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_records_and_reports() {
        let mut r = VerdictReport::new("demo");
        assert_eq!(r.len(), 0);
        assert!(r.all_pass());
        assert!(r.check("a", "1", true));
        assert!(!r.check("b", "2", false));
        assert_eq!(r.len(), 2);
        assert_eq!(r.passed(), 1);
        assert!(!r.all_pass());
        let text = r.render();
        assert!(text.contains("[PASS] a"));
        assert!(text.contains("[FAIL] b"));
        assert!(text.contains("1/2 claims hold"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = VerdictReport::new("serde");
        r.check("claim", "measured", true);
        let json = serde_json::to_string(&r).unwrap();
        let back: VerdictReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
