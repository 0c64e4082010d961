//! Graphviz (DOT) rendering of the state machines.
//!
//! `dot -Tsvg` on the output reproduces Fig. 5 / Fig. 6 of the paper —
//! useful for documentation and for eyeballing that the encoded transition
//! sets really are the figures.

use crate::emm_ecm::TopTransition;
use crate::fiveg::Sa5gState;
use crate::two_level::BottomTransition;
use cn_trace::EventType;

/// DOT for the two-level LTE machine (Fig. 5): top-level states as a
/// cluster of boxes, sub-states as ovals inside CONNECTED/IDLE clusters.
pub fn two_level_dot() -> String {
    let mut out =
        String::from("digraph two_level {\n  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n");
    out.push_str("  EMM_DEREGISTERED [shape=box];\n");
    out.push_str("  subgraph cluster_connected {\n    label=\"ECM_CONNECTED\";\n");
    for s in ["SRV_REQ_S", "HO_S", "TAU_S_CONN"] {
        out.push_str(&format!("    {s} [shape=ellipse];\n"));
    }
    out.push_str("  }\n");
    out.push_str("  subgraph cluster_idle {\n    label=\"ECM_IDLE\";\n");
    for s in ["S1_REL_S_1", "TAU_S_IDLE", "S1_REL_S_2"] {
        out.push_str(&format!("    {s} [shape=ellipse];\n"));
    }
    out.push_str("  }\n");

    // Second-level edges, straight from the encoded transition set.
    for t in BottomTransition::ALL {
        out.push_str(&format!(
            "  {} -> {} [label=\"{}\"];\n",
            t.from().label(),
            t.to().label(),
            t.event().mnemonic()
        ));
    }
    // Top-level edges, drawn between representative entry states.
    for t in TopTransition::ALL {
        let (from, to) = match t {
            TopTransition::DeregToConn => ("EMM_DEREGISTERED", "SRV_REQ_S"),
            TopTransition::ConnToIdle => ("SRV_REQ_S", "S1_REL_S_1"),
            TopTransition::ConnToDereg => ("SRV_REQ_S", "EMM_DEREGISTERED"),
            TopTransition::IdleToConn => ("S1_REL_S_1", "SRV_REQ_S"),
            TopTransition::IdleToDereg => ("S1_REL_S_1", "EMM_DEREGISTERED"),
        };
        out.push_str(&format!(
            "  {from} -> {to} [label=\"{}\", style=bold];\n",
            t.event().mnemonic()
        ));
    }
    out.push_str("}\n");
    out
}

/// DOT for the adjusted 5G SA machine (Fig. 6).
pub fn fiveg_sa_dot() -> String {
    let mut out =
        String::from("digraph fiveg_sa {\n  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n");
    out.push_str("  \"RM-DEREGISTERED\" [shape=box];\n");
    out.push_str("  \"CM-IDLE\" [shape=box];\n");
    out.push_str("  subgraph cluster_connected {\n    label=\"CM-CONNECTED\";\n");
    out.push_str("    SRV_REQ_S [shape=ellipse];\n    HO_S [shape=ellipse];\n  }\n");
    // Enumerate legal moves of the encoded machine.
    for s in Sa5gState::ALL {
        for e in EventType::ALL {
            if let Some(next) = s.apply(e) {
                out.push_str(&format!(
                    "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
                    s.label(),
                    next.label(),
                    e.mnemonic()
                ));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_dot_contains_all_nine_second_level_edges() {
        let dot = two_level_dot();
        for t in BottomTransition::ALL {
            assert!(
                dot.contains(&format!("{} -> {}", t.from().label(), t.to().label())),
                "missing {t}"
            );
        }
        assert!(dot.contains("EMM_DEREGISTERED"));
        assert!(dot.contains("cluster_idle"));
        // Balanced braces — parseable by graphviz.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn fiveg_dot_has_no_tau() {
        let dot = fiveg_sa_dot();
        assert!(!dot.contains("TAU"));
        assert!(dot.contains("RM-DEREGISTERED"));
        assert!(dot.contains("AN_REL") || dot.contains("S1_CONN_REL"));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
