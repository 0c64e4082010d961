//! Population-scale world generation.
//!
//! Simulates every UE of a [`PopulationMix`] independently (the paper's UEs
//! are i.i.d. given their type, §4.1.1) into one time-sorted trace. Workers
//! claim blocks of [`BLOCK_UES`] UEs from one counter, each into its own
//! run, laid out by block index whatever thread claimed it; each UE derives
//! its RNG seed from the world seed, so no thread count changes a bit. The
//! runs lie in UE order and each UE's times strictly increase, so a stable
//! sort on time alone is the `(t, ue, event)` order: a scatter into buckets
//! on the top time bits, then [`radix_sort`] on each bucket's low bits, the
//! buckets split by record count across the same workers.

use crate::profile::DeviceProfile;
use cn_trace::{radix_sort, DeviceType, PopulationMix, Trace, TraceRecord, UeId};
use serde::{Deserialize, Serialize};
use std::mem::replace;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Mutex;

/// UEs a worker claims at a time.
const BLOCK_UES: u32 = 16;

/// Top time bits the scatter buckets on.
const BUCKET_BITS: u32 = 10;

/// Configuration of a ground-truth world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// How many UEs of each device type to simulate.
    pub mix: PopulationMix,
    /// Trace length in days (day 0 starts at midnight, t = 0).
    pub days: f64,
    /// Master seed; every UE's stream is a pure function of
    /// `(seed, ue_index)`.
    pub(crate) seed: u64,
    /// Per-device behavioral profiles, indexed by [`DeviceType::code`].
    pub profiles: Vec<DeviceProfile>,
    /// Number of worker threads (`0` = all available cores).
    pub(crate) threads: usize,
}

impl WorldConfig {
    /// A world with preset profiles for the given population and length.
    pub fn new(mix: PopulationMix, days: f64, seed: u64) -> WorldConfig {
        WorldConfig {
            mix,
            days,
            seed,
            profiles: DeviceProfile::all_presets().to_vec(),
            threads: 0,
        }
    }

    /// Device type of the UE at `index` (phones first, then connected
    /// cars, then tablets — matching [`PopulationMix`] order).
    pub fn device_of(&self, index: u32) -> DeviceType {
        if index < self.mix.phones {
            DeviceType::Phone
        } else if index < self.mix.phones + self.mix.connected_cars {
            DeviceType::ConnectedCar
        } else {
            DeviceType::Tablet
        }
    }
}

/// SplitMix64 — derives decorrelated per-UE seeds from the master seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-UE seed for a world.
pub(crate) fn ue_seed(world_seed: u64, ue_index: u32) -> u64 {
    splitmix64(world_seed ^ splitmix64(u64::from(ue_index).wrapping_add(0xA5A5_5A5A)))
}

/// Generate the world trace.
///
/// # Panics
/// Panics if `profiles` does not cover all three device types.
pub fn generate_world(config: &WorldConfig) -> Trace {
    Trace::from_records(simulate_world(config))
}

/// The world's records in `(t, ue, event)` order, which `from_records` only confirms.
fn simulate_world(config: &WorldConfig) -> Vec<TraceRecord> {
    let total = config.mix.total();
    if total == 0 || config.days <= 0.0 {
        return Vec::new();
    }
    let indexed = |d: DeviceType| config.profiles.get(d.code() as usize).map(|p| p.device);
    let indexed = DeviceType::ALL.into_iter().all(|d| indexed(d) == Some(d));
    assert!(indexed, "profiles must be indexed by device code");
    let horizon_secs = config.days * 86_400.0;
    let blocks = total.div_ceil(BLOCK_UES);
    let threads = match config.threads {
        0 => std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
        n => n,
    }
    .min(blocks as usize);
    // Every time is below the horizon: the top `BUCKET_BITS` of the
    // horizon's width name a record's bucket, the low bits sort within it.
    let horizon_bits = u64::BITS - ((horizon_secs * 1_000.0) as u64).leading_zeros();
    let low_bits = horizon_bits.saturating_sub(BUCKET_BITS);
    let bucket = |r: &TraceRecord| (r.t.as_millis() >> low_bits) as usize;

    let next = AtomicU32::new(0);
    let claimed = on_workers(threads, || {
        let (mut runs, mut counts) = (Vec::new(), vec![0; 1 << BUCKET_BITS]);
        // A claim publishes no data: the runs come back through `join`.
        let claim = || next.fetch_add(1, Relaxed);
        for block in std::iter::repeat_with(claim).take_while(|&block| block < blocks) {
            let mut run = Vec::new();
            for index in block * BLOCK_UES..total.min((block + 1).saturating_mul(BLOCK_UES)) {
                let profile = &config.profiles[config.device_of(index).code() as usize];
                let seed = ue_seed(config.seed, index);
                crate::ue::simulate_ue(UeId(index), profile, horizon_secs, seed, &mut run);
            }
            run.iter().for_each(|r| counts[bucket(r)] += 1);
            runs.push((block, run));
        }
        (runs, counts)
    });
    // Runs by block index; bucket `b` starts at `starts[b]`, and the
    // last entry is the record count.
    let mut runs = vec![Vec::new(); blocks as usize];
    let mut starts = vec![0; (1 << BUCKET_BITS) + 1];
    for (mine, counts) in claimed {
        mine.into_iter().for_each(|(b, run)| runs[b as usize] = run);
        starts.iter_mut().zip(counts).for_each(|(s, n)| *s += n);
    }
    let len = starts.iter_mut().fold(0, |n, start| n + replace(start, n));
    let Some(&first) = runs.iter().find_map(|run| run.first()) else {
        return Vec::new();
    };

    // Split the buckets across the workers by record count. Each worker
    // scatters its buckets' records from every run, in block order, so each
    // bucket holds its records in UE order; then it sorts them by time.
    let mut records = vec![first; len];
    let (mut shares, mut rest, mut lo) = (Vec::new(), &mut records[..], 0);
    for w in 1..=threads {
        let hi = starts.partition_point(|&start| start < w * len / threads);
        let (share, tail) = std::mem::take(&mut rest).split_at_mut(starts[hi] - starts[lo]);
        shares.push((lo..hi, share));
        (rest, lo) = (tail, hi);
    }
    let queue = Mutex::new(shares.into_iter());
    on_workers(threads, || {
        let share = queue.lock().expect("no worker panicked").next();
        let (buckets, share) = share.expect("a share for every worker");
        let base = starts[buckets.start];
        let mut ends: Vec<usize> = starts[buckets.clone()].iter().map(|s| s - base).collect();
        for r in runs.iter().flatten() {
            if let Some(at) = ends.get_mut(bucket(r).wrapping_sub(buckets.start)) {
                share[*at] = *r;
                *at += 1;
            }
        }
        let mut scratch = Vec::new();
        for b in buckets {
            let bucket = &mut share[starts[b] - base..starts[b + 1] - base];
            radix_sort(bucket, &mut scratch, 0..low_bits, |r| r.t.as_millis());
        }
    });
    records
}

/// Run `work` on the caller and `n − 1` scoped workers: one spawn fewer,
/// and on two cores one worker at a time, so which allocator arena a
/// thread inherits does not hang on which worker happened to exit first.
fn on_workers<T: Send>(n: usize, work: impl Fn() -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..n).map(|_| scope.spawn(&work)).collect();
        let mut all = vec![work()];
        all.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked")),
        );
        all
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::check_well_formed;

    fn tiny_config(seed: u64, threads: usize) -> WorldConfig {
        let mut c = WorldConfig::new(PopulationMix::new(12, 6, 4), 1.0, seed);
        c.threads = threads;
        c
    }

    #[test]
    fn empty_population_or_zero_days() {
        let c = WorldConfig::new(PopulationMix::new(0, 0, 0), 1.0, 1);
        assert!(generate_world(&c).is_empty());
        let c = WorldConfig::new(PopulationMix::new(5, 0, 0), 0.0, 1);
        assert!(generate_world(&c).is_empty());
    }

    /// Each UE simulated serially, then std's stable sort on the record key.
    fn reference(config: &WorldConfig) -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for index in 0..config.mix.total() {
            let profile = &config.profiles[config.device_of(index).code() as usize];
            let (horizon_secs, seed) = (config.days * 86_400.0, ue_seed(config.seed, index));
            crate::ue::simulate_ue(UeId(index), profile, horizon_secs, seed, &mut records);
        }
        records.sort_by_key(|r| (r.t, r.ue, r.event.code()));
        records
    }

    #[test]
    fn every_thread_count_matches_the_serial_reference() {
        let worlds = [
            (PopulationMix::new(1, 0, 0), 2.0),
            // Fewer UEs than threads.
            (PopulationMix::new(1, 1, 0), 1.0),
            // Three blocks, the last one short.
            (PopulationMix::new(2 * BLOCK_UES - 4, 5, 2), 1.0),
            // The benchmark's mix, over one day.
            (PopulationMix::new(1200, 500, 250), 1.0),
        ];
        for (mix, days) in worlds {
            let mut config = WorldConfig::new(mix, days, 7);
            let expect = reference(&config);
            assert!(!expect.is_empty());
            for threads in [1, 2, 3, 7] {
                config.threads = threads;
                let world = simulate_world(&config);
                assert!(world == expect, "{mix:?} on {threads} threads");
            }
        }
    }

    #[test]
    fn world_is_well_formed_and_covers_population() {
        let c = tiny_config(7, 0);
        let t = generate_world(&c);
        assert!(check_well_formed(&t).is_empty());
        // Nearly every UE should emit something in a full day.
        let ues = t.ues();
        assert!(ues.len() >= 20, "only {} of 22 UEs active", ues.len());
        // Device assignment follows the mix layout.
        assert_eq!(t.device_of(UeId(0)), Some(DeviceType::Phone));
        for r in t.iter() {
            assert_eq!(r.device, c.device_of(r.ue.get()));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_world(&tiny_config(1, 2));
        let b = generate_world(&tiny_config(2, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn device_of_partitions() {
        let c = WorldConfig::new(PopulationMix::new(3, 2, 1), 1.0, 0);
        let devices: Vec<DeviceType> = (0..6).map(|i| c.device_of(i)).collect();
        assert_eq!(
            devices,
            vec![
                DeviceType::Phone,
                DeviceType::Phone,
                DeviceType::Phone,
                DeviceType::ConnectedCar,
                DeviceType::ConnectedCar,
                DeviceType::Tablet
            ]
        );
    }

    #[test]
    fn ue_seed_decorrelates() {
        let s: Vec<u64> = (0..100).map(|i| ue_seed(42, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100);
    }
}
