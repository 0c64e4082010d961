//! Session-process sampling: clumpy arrivals and mixture durations.

use crate::profile::SessionProfile;
use cn_trace::{Timestamp, MS_PER_HOUR};
use rand::Rng;

/// Upper bound on how far ahead the piecewise sampler will search before
/// giving up (all-zero rates); 60 days in seconds.
const MAX_LOOKAHEAD_SECS: f64 = 60.0 * 86_400.0;

/// Draw the waiting time (seconds) until the next arrival of a Poisson
/// process whose rate is piecewise-constant per 1-hour slot.
///
/// `rate_per_hour(t)` gives the hourly rate in effect at time `t` (the
/// callee may consult hour-of-day *and* day-of-week). This is the exact
/// inversion method for non-homogeneous exponentials with piecewise
/// constant rate. Returns `None` when no arrival occurs within the
/// lookahead window (effectively-zero rates).
pub(crate) fn piecewise_exp_gap<R: Rng + ?Sized, F: Fn(Timestamp) -> f64>(
    now_secs: f64,
    rate_per_hour: F,
    rng: &mut R,
) -> Option<f64> {
    let hour_secs = (MS_PER_HOUR / 1_000) as f64;
    // Exponential "work" to accumulate, in units of (rate × time).
    let mut budget = -(1.0f64 - rng.gen::<f64>()).ln();
    let mut t = now_secs;
    while t - now_secs < MAX_LOOKAHEAD_SECS {
        let rate = rate_per_hour(Timestamp::from_secs_f64(t)).max(0.0) / hour_secs; // per second
        let boundary = (t / hour_secs).floor() * hour_secs + hour_secs;
        let span = boundary - t;
        if rate > 0.0 {
            let need = budget / rate;
            if need <= span {
                return Some(t + need - now_secs);
            }
            budget -= rate * span;
        }
        t = boundary;
    }
    None
}

/// Draw the gap (seconds) from the end of the previous session to the start
/// of the next: a short in-clump gap with probability `burst_prob`, else a
/// diurnally-modulated background gap.
pub(crate) fn next_session_gap<R: Rng + ?Sized>(
    profile: &SessionProfile,
    now_secs: f64,
    rate_multiplier: impl Fn(Timestamp) -> f64,
    rng: &mut R,
) -> Option<f64> {
    if rng.gen::<f64>() < profile.burst_prob {
        Some(profile.burst_gap.sample(rng))
    } else {
        piecewise_exp_gap(
            now_secs,
            |t| profile.base_rate_per_hour * rate_multiplier(t),
            rng,
        )
    }
}

/// Draw one session duration (seconds) from the profile's mixture.
pub(crate) fn sample_duration<R: Rng + ?Sized>(profile: &SessionProfile, rng: &mut R) -> f64 {
    let total: f64 = profile.durations.iter().map(|(w, _)| w).sum();
    let mut pick = rng.gen::<f64>() * total;
    for (w, dist) in &profile.durations {
        pick -= w;
        if pick <= 0.0 {
            return dist.sample(rng).max(0.1);
        }
    }
    // Floating-point fallthrough: use the last component.
    profile
        .durations
        .last()
        .expect("non-empty mixture")
        .1
        .sample(rng)
        .max(0.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;
    use cn_trace::DeviceType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn piecewise_gap_matches_constant_rate() {
        // With a flat rate the piecewise sampler must behave like a plain
        // exponential: mean gap = 1/rate.
        let mut rng = StdRng::seed_from_u64(3);
        let rate = 6.0; // per hour
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| piecewise_exp_gap(0.0, |_| rate, &mut rng).unwrap())
            .sum::<f64>()
            / n as f64;
        let expected = 3_600.0 / rate;
        assert!((mean - expected).abs() / expected < 0.03, "mean {mean}");
    }

    #[test]
    fn piecewise_gap_skips_dead_hours() {
        // Rate is zero except during hour 5: every arrival starting from
        // hour 0 must land inside hour 5.
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let gap = piecewise_exp_gap(
                0.0,
                |t| {
                    if t.hour_of_day().get() == 5 {
                        100.0
                    } else {
                        0.0
                    }
                },
                &mut rng,
            )
            .unwrap();
            let t = gap; // started at 0
            let hour = (t / 3_600.0) as u64 % 24;
            assert_eq!(hour, 5, "arrival at t={t}");
        }
    }

    #[test]
    fn all_zero_rate_returns_none() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(piecewise_exp_gap(0.0, |_| 0.0, &mut rng).is_none());
    }

    #[test]
    fn gap_respects_start_offset() {
        // Starting mid-hour-4 with rate only in hour 5: gap < 2 hours.
        let mut rng = StdRng::seed_from_u64(6);
        let start = 4.0 * 3_600.0 + 1_800.0;
        let gap = piecewise_exp_gap(
            start,
            |t| {
                if t.hour_of_day().get() == 5 {
                    1_000.0
                } else {
                    0.0
                }
            },
            &mut rng,
        )
        .unwrap();
        assert!(gap > 1_700.0 && gap < 2.0 * 3_600.0, "gap {gap}");
    }

    #[test]
    fn durations_positive_and_heavy_tailed() {
        let p = DeviceProfile::preset(DeviceType::Phone);
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..50_000)
            .map(|_| sample_duration(&p.session, &mut rng))
            .collect();
        assert!(samples.iter().all(|&d| d > 0.0));
        let max = samples.iter().copied().fold(0.0, f64::max);
        // The Pareto tail should reach well past 1000 s in 50k draws.
        assert!(max > 1_000.0, "max {max}");
        // ... while the median stays modest (body of the mixture).
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(median < 60.0, "median {median}");
    }

    #[test]
    fn burst_prob_produces_short_gaps() {
        let p = DeviceProfile::preset(DeviceType::Phone);
        let mut rng = StdRng::seed_from_u64(8);
        let n = 10_000;
        let gaps: Vec<f64> = (0..n)
            .filter_map(|_| next_session_gap(&p.session, 12.0 * 3_600.0, |_| 1.0, &mut rng))
            .collect();
        let short = gaps.iter().filter(|&&g| g < 120.0).count() as f64 / gaps.len() as f64;
        // At least the burst fraction of gaps is short.
        assert!(short > 0.3, "short fraction {short}");
    }
}
