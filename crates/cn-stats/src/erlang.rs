//! Erlang-C: the closed form for an M/M/c queue, the yardstick a
//! queueing simulator is checked against.

/// Steady-state waiting in an M/M/c queue — Poisson arrivals, `c`
/// identical exponential servers, one FIFO queue, no loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErlangC {
    /// Probability that an arriving job finds every server busy.
    pub(crate) p_wait: f64,
    /// Mean time in queue, in units of the mean service time.
    pub mean_wait: f64,
}

/// Erlang-C for `servers` servers at `offered_load` = λ/μ erlangs.
/// `None` unless `0 < offered_load < servers` (the stable regime).
pub fn erlang_c(servers: u32, offered_load: f64) -> Option<ErlangC> {
    let c = f64::from(servers);
    if !(offered_load > 0.0 && offered_load < c) {
        return None;
    }
    // Erlang-B by its stable recursion, then B → C.
    let blocking = (1..=servers).fold(1.0, |b, k| {
        offered_load * b / (f64::from(k) + offered_load * b)
    });
    let p_wait = blocking / (1.0 - offered_load / c * (1.0 - blocking));
    Some(ErlangC {
        p_wait,
        mean_wait: p_wait / (c - offered_load),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_textbook_values() {
        // M/M/1: P(wait) = ρ, W_q = ρ / (1 - ρ) service times.
        let one = erlang_c(1, 0.6).unwrap();
        assert!((one.p_wait - 0.6).abs() < 1e-12);
        assert!((one.mean_wait - 1.5).abs() < 1e-12);
        // M/M/2 at one erlang: C = 1/3.
        let two = erlang_c(2, 1.0).unwrap();
        assert!((two.p_wait - 1.0 / 3.0).abs() < 1e-12);
        assert!((two.mean_wait - 1.0 / 3.0).abs() < 1e-12);
        // Four servers at 70 % load (cp-bench's `mcn:mmc` shape).
        let four = erlang_c(4, 2.8).unwrap();
        assert!((four.p_wait - 0.428_66).abs() < 1e-4, "{four:?}");
        assert!((four.mean_wait - 0.357_22).abs() < 1e-4, "{four:?}");
    }

    #[test]
    fn rejects_unstable_or_empty_loads() {
        assert_eq!(erlang_c(4, 4.0), None);
        assert_eq!(erlang_c(4, 5.0), None);
        assert_eq!(erlang_c(4, 0.0), None);
        assert_eq!(erlang_c(0, 0.5), None);
        assert_eq!(erlang_c(4, f64::NAN), None);
    }
}
