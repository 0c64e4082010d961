//! The streaming memory contract: a longer window may not cost more
//! memory.
//!
//! [`PopulationStream`] promises O(population) resident state, independent
//! of trace length. Nothing held it to that: the calendar queue the slab
//! merge replaced sized a bucket table by the horizon (56 MiB a pool at
//! 20 000 UEs × 168 h) and every test stayed green. One test in its own
//! file, so the allocator's counters are this test's alone: the same
//! 20 000 UEs streamed over 24 h and over 168 h, peak live heap bytes
//! above the fitted model measured for each, and the week may not peak
//! above 1.1× the day.
//!
//! A release build drains both streams to the end. A debug build (tier-1)
//! drains the same prefix of each, which still covers construction — where
//! an O(horizon) structure is sized — and a million records of steady state.

use cn_fit::{fit, FitConfig, Method};
use cn_gen::{GenConfig, PopulationStream};
use cn_trace::{PopulationMix, Timestamp};
use cn_world::{generate_world, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const UES: u32 = 20_000;
const MAX_GROWTH: f64 = 1.1;
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

    // Printed per point: libtest shows it when the test fails.
    println!("hours    events  peak MiB above the model");
    let mut peaks = Vec::new();
    for hours in [24.0, 168.0] {
        let mix = PopulationMix::new(UES * 5 / 8, UES / 4, UES / 8);
        let config = GenConfig::new(mix, Timestamp::at_hour(0, 6), hours, 2023);
        let floor = LIVE.load(Relaxed);
        PEAK.store(floor, Relaxed);
        let mut stream = PopulationStream::new(&models, &config);
        let mut events = 0u64;
        while events < limit && stream.next().is_some() {
            events += 1;
        }
        drop(stream);
        let peak = PEAK.load(Relaxed) - floor;
        println!(
            "{hours:>5} {events:>9} {:>9.2}",
            peak as f64 / (1 << 20) as f64
        );
        assert!(events >= DEBUG_PREFIX, "{hours} h: only {events} events");
        peaks.push(peak);
    }
    let (day, week) = (peaks[0] as f64, peaks[1] as f64);
    assert!(
        week <= day * MAX_GROWTH,
        "168 h peaked at {week} bytes, more than {MAX_GROWTH}x the {day} bytes of 24 h: \
         resident state grows with the window"
    );
}
