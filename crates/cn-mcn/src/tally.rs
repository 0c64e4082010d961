//! Exact latency tallies for the DES report.
//!
//! The simulator reports type-7 percentiles, a maximum and a mean over
//! integer-microsecond latencies — one per completed procedure and one
//! per stage per NF, millions per run. Storing every value to sort it
//! once at the end costs O(run) memory and an O(n log n) sort for four
//! numbers. A [`LatencyTally`] *counts* instead: values below
//! [`DIRECT_LIMIT`] increment a slot of a direct table, the rare larger
//! ones go to an overflow vector. The ascending `(value, multiplicity)`
//! walk over the two is exactly the sorted vector, run-length encoded, so
//! every statistic is the one the sort gave — bit for bit, including the
//! mean, which is summed in the same ascending order with one `f64`
//! addition per recorded value.

/// Values below this (2^20 µs ≈ 1.05 s) are counted in the direct table.
const DIRECT_LIMIT: u64 = 1 << 20;

/// Mean, type-7 p50/p99 and maximum of a tally, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct LatencySummary {
    pub(crate) mean_ms: f64,
    pub(crate) p50_ms: f64,
    pub(crate) p99_ms: f64,
    pub(crate) max_ms: f64,
}

/// An exact multiset of integer-microsecond latencies.
#[derive(Debug)]
pub(crate) struct LatencyTally {
    /// `direct[v]` = recorded occurrences of `v < DIRECT_LIMIT`, up to
    /// `counter_cap`. Grows by doubling to cover the largest such value
    /// seen — 4 MiB at most — so a short run neither maps nor walks the
    /// full range.
    direct: Vec<u32>,
    /// Values `>= DIRECT_LIMIT`, plus occurrences of a direct value past
    /// its slot's cap. Unordered until [`LatencyTally::summary`].
    overflow: Vec<u64>,
    count: u64,
    counter_cap: u32,
}

impl LatencyTally {
    pub(crate) fn new() -> LatencyTally {
        LatencyTally::with_counter_cap(u32::MAX)
    }

    /// A tally whose direct slots saturate at `counter_cap` — `u32::MAX`
    /// in the simulator; tests narrow it to reach the saturated branch.
    fn with_counter_cap(counter_cap: u32) -> LatencyTally {
        LatencyTally {
            direct: Vec::new(),
            overflow: Vec::new(),
            count: 0,
            counter_cap,
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, us: u64) {
        self.count += 1;
        if us < DIRECT_LIMIT {
            let index = us as usize;
            if index >= self.direct.len() {
                self.direct.resize((index + 1).next_power_of_two(), 0);
            }
            let slot = &mut self.direct[index];
            if *slot < self.counter_cap {
                *slot += 1;
                return;
            }
        }
        self.overflow.push(us);
    }

    /// Visit every distinct value in ascending order with its
    /// multiplicity. An overflow entry below `DIRECT_LIMIT` exists only
    /// beside a saturated (hence non-zero) direct slot, so the direct
    /// pass meets every such value.
    fn walk_ascending(&mut self, mut visit: impl FnMut(u64, u64)) {
        self.overflow.sort_unstable();
        let mut spilled: &[u64] = &self.overflow;
        for (value, &n) in self.direct.iter().enumerate() {
            if n > 0 {
                let value = value as u64;
                visit(value, u64::from(n) + split_run(&mut spilled, value));
            }
        }
        while let Some(&value) = spilled.first() {
            visit(value, split_run(&mut spilled, value));
        }
    }

    /// The statistics of the recorded multiset (all zero when empty).
    pub(crate) fn summary(&mut self) -> LatencySummary {
        let n = self.count;
        if n == 0 {
            return LatencySummary::default();
        }
        // Type 7: h = p (n - 1), interpolating ranks ⌊h⌋ and ⌈h⌉.
        let h = [0.50, 0.99].map(|p: f64| p * (n - 1) as f64);
        let ranks = [h[0].floor(), h[0].ceil(), h[1].floor(), h[1].ceil()].map(|r| r as u64);
        let mut at_rank = [0.0f64; 4];
        let mut seen = 0u64;
        let mut sum = 0.0f64;
        let mut max_ms = 0.0f64;
        self.walk_ascending(|us, multiplicity| {
            let ms = us as f64 / 1_000.0;
            for _ in 0..multiplicity {
                sum += ms;
            }
            for (rank, slot) in ranks.iter().zip(&mut at_rank) {
                if (seen..seen + multiplicity).contains(rank) {
                    *slot = ms;
                }
            }
            seen += multiplicity;
            max_ms = ms;
        });
        debug_assert_eq!(seen, n);
        let type7 = |lo: f64, hi: f64, h: f64| lo + (hi - lo) * (h - h.floor());
        LatencySummary {
            mean_ms: sum / n as f64,
            p50_ms: type7(at_rank[0], at_rank[1], h[0]),
            p99_ms: type7(at_rank[2], at_rank[3], h[1]),
            max_ms,
        }
    }
}

/// Strip the leading run of `value` off `sorted`, returning its length.
fn split_run(sorted: &mut &[u64], value: u64) -> u64 {
    let n = sorted.iter().take_while(|&&v| v == value).count();
    *sorted = &sorted[n..];
    n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_stats::summary::percentile_sorted;
    use proptest::prelude::*;

    /// The store-sort-copy computation the tallies replaced, kept as the
    /// oracle: every value stored, sorted, copied to `f64` milliseconds.
    fn store_and_sort(mut lat_us: Vec<u64>) -> LatencySummary {
        if lat_us.is_empty() {
            return LatencySummary::default();
        }
        lat_us.sort_unstable();
        let ms: Vec<f64> = lat_us.iter().map(|&l| l as f64 / 1_000.0).collect();
        LatencySummary {
            mean_ms: ms.iter().sum::<f64>() / ms.len() as f64,
            p50_ms: percentile_sorted(&ms, 0.50),
            p99_ms: percentile_sorted(&ms, 0.99),
            max_ms: *ms.last().expect("non-empty"),
        }
    }

    fn assert_bit_identical(values: &[u64], counter_cap: u32) {
        let mut tally = LatencyTally::with_counter_cap(counter_cap);
        for &v in values {
            tally.record(v);
        }
        let got = tally.summary();
        let want = store_and_sort(values.to_vec());
        for (name, g, w) in [
            ("mean", got.mean_ms, want.mean_ms),
            ("p50", got.p50_ms, want.p50_ms),
            ("p99", got.p99_ms, want.p99_ms),
            ("max", got.max_ms, want.max_ms),
        ] {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{name}: tally {g} != sort {w} over {} values (cap {counter_cap})",
                values.len()
            );
        }
    }

    /// Latency multisets shaped like the simulator's: a heavy-duplicate
    /// cluster, a wide sub-second spread, values hugging 2^20 from both
    /// sides, and multi-second stragglers.
    fn latency() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..8,
            0u64..DIRECT_LIMIT,
            DIRECT_LIMIT - 3..DIRECT_LIMIT + 3,
            DIRECT_LIMIT..20_000_000,
            Just(u64::MAX),
        ]
    }

    proptest! {
        #[test]
        fn tally_is_the_sort_bit_for_bit(values in prop::collection::vec(latency(), 0..400)) {
            assert_bit_identical(&values, u32::MAX);
        }

        /// With slots that saturate after 1–3 hits, duplicates spill into
        /// the overflow vector below 2^20 and the walk must merge them
        /// back at the right place.
        #[test]
        fn saturated_counters_spill_without_changing_a_bit(
            values in prop::collection::vec(latency(), 0..400),
            cap in 1u32..4,
        ) {
            assert_bit_identical(&values, cap);
        }

        /// Everything past the direct range: a core so slow that every
        /// latency is above a second.
        #[test]
        fn all_overflow_multisets_agree(
            values in prop::collection::vec(DIRECT_LIMIT..30_000_000, 1..300),
        ) {
            assert_bit_identical(&values, u32::MAX);
        }
    }

    #[test]
    fn edge_multisets_agree() {
        assert_bit_identical(&[], u32::MAX);
        assert_bit_identical(&[0], u32::MAX);
        assert_bit_identical(&[DIRECT_LIMIT - 1], u32::MAX);
        assert_bit_identical(&[DIRECT_LIMIT], u32::MAX);
        assert_bit_identical(&[7, 7], u32::MAX);
        assert_bit_identical(&[DIRECT_LIMIT - 1, DIRECT_LIMIT], u32::MAX);
        // A mean whose rounding depends on summation order: 10^5 copies
        // of 0.1 ms-ish values followed by large ones.
        let mut many: Vec<u64> = vec![101; 100_000];
        many.extend([3_000_017, 2_999_999, 900_001, 1, 1_048_575, 1_048_576]);
        assert_bit_identical(&many, u32::MAX);
        assert_bit_identical(&many, 1_000);
    }

    #[test]
    fn a_saturated_slot_keeps_counting_in_the_overflow() {
        let mut tally = LatencyTally::with_counter_cap(2);
        for _ in 0..5 {
            tally.record(42);
        }
        assert_eq!(tally.direct[42], 2);
        assert_eq!(tally.overflow, vec![42, 42, 42]);
        let mut walked = Vec::new();
        tally.walk_ascending(|v, n| walked.push((v, n)));
        assert_eq!(walked, vec![(42, 5)]);
    }

    #[test]
    fn the_direct_table_covers_only_what_was_recorded() {
        let mut tally = LatencyTally::new();
        tally.record(DIRECT_LIMIT + 1);
        assert!(tally.direct.is_empty());
        tally.record(5);
        assert_eq!(tally.direct.len(), 8);
        tally.record(DIRECT_LIMIT - 1);
        assert_eq!(tally.direct.len(), DIRECT_LIMIT as usize);
        assert_eq!(
            (tally.direct[5], tally.direct[DIRECT_LIMIT as usize - 1]),
            (1, 1)
        );
    }
}
