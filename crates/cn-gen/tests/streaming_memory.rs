//! The streaming memory contract: a longer window may not cost more
//! memory, and more threads cost only the model clone.
//!
//! [`PopulationStream`] promises O(population) resident state, independent
//! of trace length. Nothing held it to that: the calendar queue the slab
//! merge replaced sized a bucket table by the horizon (56 MiB a pool at
//! 20 000 UEs × 168 h) and every test stayed green. One test in its own
//! file, so the allocator's counters are this test's alone: the same
//! 20 000 UEs streamed over 24 h and over 168 h, by the sequential stream
//! and by [`ShardedStream`] on 4 threads, peak live heap bytes above the
//! fitted model measured for each. Per engine, the week may not peak above
//! 1.1× the day; per horizon, the 4-thread stream's peak less its model
//! clone may not exceed 1.25× the sequential stream's — one slab in
//! flight, not one per thread.
//!
//! A release build drains every stream to the end. A debug build (tier-1)
//! drains the same prefix of each, which still covers construction — where
//! an O(horizon) structure is sized — and a million records of steady state.

use cn_fit::{fit, FitConfig, Method};
use cn_gen::{GenConfig, PopulationStream, ShardedStream};
use cn_trace::{PopulationMix, Timestamp};
use cn_world::{generate_world, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const UES: u32 = 20_000;
const MAX_GROWTH: f64 = 1.1;
const THREADS: usize = 4;
/// Bound on the 4-thread stream's peak, less its model clone, over the
/// sequential stream's.
const MAX_PARALLEL_OVERHEAD: f64 = 1.25;
/// Records a debug build drains from each stream.
const DEBUG_PREFIX: u64 = 1_000_000;

/// Counts live heap bytes and their high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: defers to `System` for every operation; the bookkeeping is two
// static atomics, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_week_streams_in_the_memory_of_a_day() {
    let world = generate_world(&WorldConfig::new(PopulationMix::new(120, 50, 25), 2.0, 77));
    let models = fit(&world, &FitConfig::new(Method::Ours));
    drop(world);
    let limit = if cfg!(debug_assertions) {
        DEBUG_PREFIX
    } else {
        u64::MAX
    };
    // What one model clone holds: the parallel stream's helpers share one.
    let floor = LIVE.load(Relaxed);
    let clone = models.clone();
    let clone_bytes = LIVE.load(Relaxed) - floor;
    drop(clone);

    // Printed per point: libtest shows it when the test fails.
    println!("threads hours    events  peak MiB above the model");
    let mut peaks = [[0usize; 2]; 2];
    for (engine, threads) in [1, THREADS].into_iter().enumerate() {
        for (point, hours) in [24.0, 168.0].into_iter().enumerate() {
            let mix = PopulationMix::new(UES * 5 / 8, UES / 4, UES / 8);
            let config = GenConfig::new(mix, Timestamp::at_hour(0, 6), hours, 2023);
            let floor = LIVE.load(Relaxed);
            PEAK.store(floor, Relaxed);
            let mut events = 0u64;
            if threads == 1 {
                let mut stream = PopulationStream::new(&models, &config);
                while events < limit && stream.next().is_some() {
                    events += 1;
                }
            } else {
                let mut stream = ShardedStream::with_shards(&models, &config, threads);
                assert_eq!(stream.worker_threads(), threads - 1);
                while events < limit && stream.try_next().expect("no fault").is_some() {
                    events += 1;
                }
                stream.finish().expect("no fault");
            }
            let peak = PEAK.load(Relaxed) - floor;
            println!(
                "{threads:>7} {hours:>5} {events:>9} {:>9.2}",
                peak as f64 / (1 << 20) as f64
            );
            assert!(events >= DEBUG_PREFIX, "{hours} h: only {events} events");
            peaks[engine][point] = peak;
        }
    }
    for (engine, [day, week]) in peaks.iter().map(|p| p.map(|b| b as f64)).enumerate() {
        assert!(
            week <= day * MAX_GROWTH,
            "engine {engine}: 168 h peaked at {week} bytes, more than {MAX_GROWTH}x the \
             {day} bytes of 24 h: resident state grows with the window"
        );
    }
    for (sequential, parallel) in peaks[0].into_iter().zip(peaks[1]) {
        let shared = parallel.saturating_sub(clone_bytes) as f64;
        assert!(
            shared <= sequential as f64 * MAX_PARALLEL_OVERHEAD,
            "{THREADS} threads peaked at {parallel} bytes ({clone_bytes} of them the model \
             clone), more than {MAX_PARALLEL_OVERHEAD}x the sequential {sequential} bytes"
        );
    }
}
