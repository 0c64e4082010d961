//! Struct-of-arrays UE pool: generation by time slab.
//!
//! A population stream is the k-way merge of one strictly ascending run
//! per UE. Merging *per event* — a tournament tree, a heap, a calendar
//! queue — visits the UEs in event order, and that order is what the
//! generator pays for, not its arithmetic. Measured on the 2-core box, a
//! dependent random load costs
//!
//! | working set | 1 MiB | 8 MiB | 24 MiB | beyond   |
//! |-------------|-------|-------|--------|----------|
//! | ns per load | 7     | 57    | 146    | ~200     |
//!
//! and a per-event merge makes ~2.5 such loads per event: into the fitted
//! model's ECDF samples (22 MiB, all 24 hours live at once), into the
//! per-UE generator state (8 MiB at 20 K UEs, touched in event order), and
//! into the merge structure itself. That — not the model — is why
//! throughput fell as the population grew; shrinking the fitted world to
//! 1/35 of its samples took the per-UE stage from ~206 to 69 ns/event with
//! the code unchanged.
//!
//! [`UePool`] therefore generates **by time slab**. It keeps one pending
//! `(t, event)` per UE slot in two dense arrays, and to refill it
//!
//! 1. walks the slots in ascending order and runs every UE whose pending
//!    time falls before the slab's end through its [`UeEventIter`] up to
//!    that end, appending one packed `u64` key per event,
//!    `t_rel << 27 | slot << 3 | event` (`t_rel` in ms since
//!    `config.start`: 37 bits, ~4.3 years; 24 slot bits; 3 event bits);
//! 2. sorts the slab with a stable LSD radix on the time bits *only*:
//!    the runs arrive in slot order and each is ascending, so stability
//!    yields the `(t, slot)` order without ever comparing a slot;
//! 3. emits records decoded from the sorted keys until the slab is drained.
//!
//! UE state is read sequentially, once per slab instead of once per event;
//! the model is touched one time window at a time; and there is no
//! per-event heap, no per-bucket allocation and no O(horizon) structure —
//! resident state is the generators plus one slab. The slab's width
//! adapts towards `SLAB_TARGET_EVENTS`; any width yields the same bytes.
//! A refill reads every slot's pending time, so a pool of N UEs carries
//! N / target sequential loads per event — negligible at the populations
//! the streams serve, and the reason millions of UEs go through
//! [`crate::outofcore`]'s chunks rather than one pool.
//!
//! The key order embeds the record order exactly: per-UE timestamps
//! strictly increase, every UE lives in exactly one slot, and slots are
//! assigned in ascending UE order, so `(t_rel, slot)` sorts identically
//! to the global `(t, ue)` record order (event type never breaks a tie —
//! `(t, ue)` is already unique). The pool's output is byte-identical to
//! a tournament-tree merge; the `cn-verify` golden gate holds at pin parity.
//! (The tournament tree, `cn_trace::KeyLoserTree`, is still the right tool
//! where runs are few and long: the shard and out-of-core merges.)
//!
//! The same pool drives the sequential stream, each shard worker of the
//! parallel stream (over a strided index set), and each UE-range chunk
//! of the out-of-core generator ([`crate::outofcore`]).

use crate::engine::GenConfig;
use crate::per_ue::UeEventIter;
use cn_fit::ModelSet;
use cn_obs::{Counter, TraceSink, TraceSpan};
use cn_trace::{EventType, Timestamp, TraceRecord, UeId};

/// Bits of a packed key holding the event code (six event types).
const EVENT_BITS: u32 = 3;
/// Bits of a packed key holding the UE slot index.
const SLOT_BITS: u32 = 24;
/// Where `t_rel` starts in a packed key.
const TIME_SHIFT: u32 = SLOT_BITS + EVENT_BITS;
/// Maximum UEs per pool (16.7M); larger populations go through the
/// chunked out-of-core path.
const MAX_POOL: usize = 1 << SLOT_BITS;
/// Exclusive bound on a pool's horizon: what is left of a key for `t_rel`.
const MAX_HORIZON_MS: u64 = 1 << (64 - TIME_SHIFT);
/// Events a slab's width adapts towards (perf, not correctness: any
/// width yields the same output). Keys plus radix scratch are 16 bytes an
/// event. Wider slabs run each UE further per visit (131 072 measured
/// ~8 % faster sequentially), but a shard worker's slab has to fit its
/// channel ([`crate::shard::CHANNEL_BLOCKS`]) for fill and drain to overlap.
pub(crate) const SLAB_TARGET_EVENTS: usize = 1 << 15;
/// Widest slab (~17 min): [`RADIX_PASSES_MAX`] passes always cover it, and
/// a sparse pool, whose width would otherwise stretch over several model
/// hours, is not caught wide when the hourly rate jumps (a slab overshoots
/// its target by the rate's jump from one slab to the next).
const MAX_WIDTH_MS: u64 = 1 << (RADIX_BITS * RADIX_PASSES_MAX);
/// Width of the first slab; it doubles per refill until the target binds.
const FIRST_WIDTH_MS: u64 = 1 << 10;
/// Time bits one radix pass sorts on (a 1024-entry, 4 KiB histogram).
const RADIX_BITS: u32 = 10;
const RADIX_PASSES_MAX: u32 = 2;
/// Pending time of a slot whose UE has run dry.
const DRY: u64 = u64::MAX;

/// The slab merge core, independent of what produces the per-slot runs:
/// `advance(slot)` yields the slot's next `(t_rel, event)`, strictly
/// ascending in `t_rel`, or `None` once the run is dry.
struct Slab {
    /// Start-relative time of each slot's pending event ([`DRY`] once its
    /// run ended): generated, not yet in a slab.
    pending_t: Vec<u64>,
    pending_event: Vec<EventType>,
    /// The current slab's keys, sorted; `keys[cursor..]` are unemitted.
    keys: Vec<u64>,
    cursor: usize,
    scratch: Vec<u64>,
    /// Start of the next slab: the earliest pending time.
    start: u64,
    /// Width of the next slab in ms, in `1..=MAX_WIDTH_MS`.
    width: u64,
    target: u64,
    /// Slots with a pending event.
    live: usize,
    /// Slots whose run ended inside the current slab.
    retiring: usize,
}

impl Slab {
    fn new(pending_t: Vec<u64>, pending_event: Vec<EventType>, target: usize) -> Slab {
        Slab {
            live: pending_t.iter().filter(|&&t| t != DRY).count(),
            start: pending_t.iter().copied().min().unwrap_or(DRY),
            pending_t,
            pending_event,
            keys: Vec::new(),
            cursor: 0,
            scratch: Vec::new(),
            width: FIRST_WIDTH_MS,
            target: target.max(1) as u64,
            retiring: 0,
        }
    }

    /// True when the current slab is drained and another can be filled.
    #[inline]
    fn wants_fill(&self) -> bool {
        self.cursor == self.keys.len() && self.live > 0
    }

    /// The next key in `(t_rel, slot)` order; `None` when the current
    /// slab is drained.
    #[inline]
    fn pop(&mut self) -> Option<u64> {
        let key = *self.keys.get(self.cursor)?;
        self.cursor += 1;
        Some(key)
    }

    /// Slots with events not yet popped, counted at slab granularity.
    fn live(&self) -> usize {
        let draining = self.cursor < self.keys.len();
        self.live + if draining { self.retiring } else { 0 }
    }

    /// Build the slab `[start, start + width)`: every slot's events in
    /// that window, sorted; an event exactly at the end stays pending.
    fn fill(&mut self, mut advance: impl FnMut(usize) -> Option<(u64, EventType)>) {
        let (start, end) = (self.start, self.start + self.width);
        self.keys.clear();
        self.cursor = 0;
        self.retiring = 0;
        let mut next_start = DRY;
        for (slot, pending) in self.pending_t.iter_mut().enumerate() {
            let mut t = *pending;
            if t < end {
                let slot_bits = (slot as u64) << EVENT_BITS;
                let mut event = self.pending_event[slot];
                loop {
                    self.keys
                        .push(t << TIME_SHIFT | slot_bits | u64::from(event.code()));
                    match advance(slot) {
                        Some(next) => (t, event) = next,
                        None => {
                            t = DRY;
                            self.live -= 1;
                            self.retiring += 1;
                        }
                    }
                    if t >= end {
                        break;
                    }
                }
                *pending = t;
                self.pending_event[slot] = event;
            }
            next_start = next_start.min(t);
        }
        let span_bits = u64::BITS - (self.width - 1).leading_zeros();
        sort_by_time(&mut self.keys, &mut self.scratch, start, span_bits);
        debug_assert!(
            self.keys.windows(2).all(|w| w[0] < w[1]),
            "slab keys out of (t, slot) order"
        );
        // Steer towards the target, at most doubling; jump any silent
        // stretch to the earliest pending event.
        let ideal = self.width * self.target / self.keys.len().max(1) as u64;
        self.width = ideal.clamp(1, (2 * self.width).min(MAX_WIDTH_MS));
        self.start = next_start;
    }
}

/// Stable LSD radix sort of `keys` on the low `span_bits` bits of
/// `t_rel - origin` — the time bits only. Slot-ordered ascending runs in,
/// `(t_rel, slot)` order out.
fn sort_by_time(keys: &mut Vec<u64>, scratch: &mut Vec<u64>, origin: u64, span_bits: u32) {
    debug_assert!(span_bits <= RADIX_BITS * RADIX_PASSES_MAX);
    scratch.resize(keys.len(), 0);
    let origin = origin << TIME_SHIFT;
    let mut shift = TIME_SHIFT;
    while shift < TIME_SHIFT + span_bits {
        let digit = |key: u64| ((key - origin) >> shift) as usize & ((1 << RADIX_BITS) - 1);
        let mut offsets = [0u32; 1 << RADIX_BITS];
        for &key in keys.iter() {
            offsets[digit(key)] += 1;
        }
        let mut sum = 0;
        for offset in &mut offsets {
            sum += std::mem::replace(offset, sum);
        }
        for &key in keys.iter() {
            let at = &mut offsets[digit(key)];
            scratch[*at as usize] = key;
            *at += 1;
        }
        std::mem::swap(keys, scratch);
        shift += RADIX_BITS;
    }
}

/// Telemetry of an observed pool (the shard workers of an observed
/// stream); an unobserved pool carries `None` and reads no clock.
#[derive(Clone)]
pub(crate) struct SlabObs {
    /// Where `cn_gen_slab_fill` spans go: one per fill, on the filling thread.
    pub(crate) trace: TraceSink,
    /// `cn_gen_slabs_total` — slabs filled.
    pub(crate) slabs: Counter,
}

impl SlabObs {
    fn on_fill(&self) -> TraceSpan {
        self.slabs.inc();
        self.trace.span("cn_gen_slab_fill")
    }
}

/// A population of per-UE generators merged by time slab (see module
/// docs).
pub struct UePool<'m> {
    iters: Vec<UeEventIter<'m>>,
    /// The UE each slot generates for.
    ues: Vec<u32>,
    slab: Slab,
    /// Start, for start-relative key times; population, for device types.
    config: GenConfig,
    obs: Option<SlabObs>,
}

impl<'m> UePool<'m> {
    /// Build a pool over the UEs named by `indices`, with the same seeds,
    /// device assignment, and semantics as [`crate::generate`] — so any
    /// partition of the population into pools merges back byte-identically.
    ///
    /// `indices` must be strictly increasing (every natural partition —
    /// ranges, strides — is), so slot order embeds UE order, and must
    /// name at most 2²⁴ UEs per pool; larger populations are chunked by
    /// [`crate::outofcore`]. The window must be shorter than 2³⁷ ms (~4.3
    /// years). Both are checked in release builds too: a key that
    /// overflows would silently reorder records.
    pub fn new(
        models: &'m ModelSet,
        config: &GenConfig,
        indices: impl Iterator<Item = u32>,
    ) -> UePool<'m> {
        Self::with_slab_target(models, config, indices, SLAB_TARGET_EVENTS)
    }

    fn with_slab_target(
        models: &'m ModelSet,
        config: &GenConfig,
        indices: impl Iterator<Item = u32>,
        target: usize,
    ) -> UePool<'m> {
        let end = config.end();
        let base_ms = config.start.as_millis();
        let horizon_ms = end.as_millis().saturating_sub(base_ms);
        assert!(
            horizon_ms < MAX_HORIZON_MS,
            "a UePool spans less than {MAX_HORIZON_MS} ms (~4.3 years), got {horizon_ms} ms: \
             later events would overflow the merge key"
        );
        let (lo, hi) = indices.size_hint();
        let cap = hi.unwrap_or(lo);
        let mut iters = Vec::with_capacity(cap);
        let mut ues = Vec::with_capacity(cap);
        let mut pending_t = Vec::with_capacity(cap);
        let mut pending_event = Vec::with_capacity(cap);
        for index in indices {
            assert!(
                ues.last().is_none_or(|&last| index > last),
                "pool indices must be strictly increasing (got {index} after {:?})",
                ues.last()
            );
            let mut it = UeEventIter::with_semantics(
                models.device(config.device_of(index)),
                models.method,
                UeId(index),
                config.start,
                end,
                crate::engine::ue_stream_seed(config.seed, index),
                config.semantics,
            );
            let first = it.next();
            pending_t.push(first.map_or(DRY, |r| r.t.as_millis() - base_ms));
            pending_event.push(first.map_or(EventType::Attach, |r| r.event));
            ues.push(index);
            iters.push(it);
        }
        assert!(
            iters.len() <= MAX_POOL,
            "a UePool holds at most {MAX_POOL} UEs; chunk larger populations \
             through the out-of-core path"
        );
        UePool {
            iters,
            ues,
            slab: Slab::new(pending_t, pending_event, target),
            config: *config,
            obs: None,
        }
    }

    /// Record every slab fill from here on into `obs`, if anything listens.
    pub(crate) fn observe(&mut self, obs: &SlabObs) {
        let listening = obs.slabs.is_enabled() || obs.trace.is_enabled();
        self.obs = listening.then(|| obs.clone());
    }

    /// Emit the globally next record, filling the next slab when the
    /// current one is drained.
    #[inline]
    pub fn next_record(&mut self) -> Option<TraceRecord> {
        if self.slab.wants_fill() {
            self.fill();
        }
        let key = self.slab.pop()?;
        let ue = self.ues[(key >> EVENT_BITS) as usize & (MAX_POOL - 1)];
        Some(TraceRecord {
            t: Timestamp::from_millis(self.config.start.as_millis() + (key >> TIME_SHIFT)),
            ue: UeId(ue),
            device: self.config.device_of(ue),
            event: EventType::ALL[(key & ((1 << EVENT_BITS) - 1)) as usize],
        })
    }

    #[cold]
    fn fill(&mut self) {
        let _span = self.obs.as_ref().map(SlabObs::on_fill);
        let (iters, base_ms) = (&mut self.iters, self.config.start.as_millis());
        self.slab.fill(|slot| {
            let rec = iters[slot].next()?;
            Some((rec.t.as_millis() - base_ms, rec.event))
        });
    }

    /// Number of UEs that still have events to emit, counted at slab
    /// granularity: a UE whose last event sits in the current slab counts
    /// until that slab is drained. `live() == 0` exactly when
    /// [`Self::next_record`] would return `None`.
    pub fn live(&self) -> usize {
        self.slab.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HourSemantics;
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::PopulationMix;
    use cn_world::{generate_world, WorldConfig};
    use proptest::prelude::*;

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(30, 14, 8), 2.0, 5));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    #[test]
    fn partitioned_pools_cover_the_full_population() {
        // Merging two disjoint pools by hand must equal one pool over all
        // UEs — the invariant the shard workers and out-of-core chunks
        // both rely on.
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(14, 6, 4),
            Timestamp::at_hour(0, 11),
            2.0,
            99,
        );
        let total = config.population.total();
        let mut whole = Vec::new();
        let mut pool = UePool::new(&models, &config, 0..total);
        while let Some(r) = pool.next_record() {
            whole.push(r);
        }
        assert_eq!(pool.live(), 0);

        let mut halves = Vec::new();
        for range in [0..total / 2, total / 2..total] {
            let mut p = UePool::new(&models, &config, range);
            while let Some(r) = p.next_record() {
                halves.push(r);
            }
        }
        halves.sort();
        assert_eq!(whole, halves);
        assert!(whole.len() > 50, "only {} events", whole.len());
    }

    #[test]
    fn empty_pool_yields_nothing() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(0, 0, 0),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        let mut pool = UePool::new(&models, &config, std::iter::empty());
        assert_eq!(pool.next_record(), None);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_indices_are_rejected() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(4, 2, 1),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        UePool::new(&models, &config, [1u32, 0].into_iter());
    }

    #[test]
    #[should_panic(expected = "overflow the merge key")]
    fn a_window_past_the_key_range_is_rejected() {
        let models = fitted();
        let hours = (MAX_HORIZON_MS / cn_trace::MS_PER_HOUR + 1) as f64;
        let config = GenConfig::new(
            PopulationMix::new(1, 0, 0),
            Timestamp::at_hour(0, 0),
            hours,
            1,
        );
        UePool::new(&models, &config, 0..1);
    }

    /// Any slab width yields the same bytes: one pool's output equals the
    /// sorted per-UE batch output of its index set at every slab target,
    /// for contiguous and strided index sets, under both hour semantics.
    #[test]
    fn slab_target_and_partition_do_not_change_the_bytes() {
        let models = fitted();
        for semantics in [HourSemantics::EntryHour, HourSemantics::TruncateAtBoundary] {
            let mut config = GenConfig::new(
                PopulationMix::new(14, 6, 4),
                Timestamp::at_hour(0, 7),
                9.0,
                41,
            );
            config.semantics = semantics;
            let total = config.population.total();
            let partitions: [Vec<u32>; 2] = [(0..total).collect(), (1..total).step_by(3).collect()];
            for indices in partitions {
                let mut expected: Vec<TraceRecord> = Vec::new();
                for &ue in &indices {
                    let per_ue = crate::per_ue::generate_ue_with(
                        models.device(config.device_of(ue)),
                        models.method,
                        UeId(ue),
                        config.start,
                        config.end(),
                        crate::engine::ue_stream_seed(config.seed, ue),
                        semantics,
                    );
                    expected.extend(per_ue.iter());
                }
                expected.sort();
                assert!(expected.len() > 200, "only {} events", expected.len());
                for target in [1, 97, 4_096, SLAB_TARGET_EVENTS] {
                    let mut pool =
                        UePool::with_slab_target(&models, &config, indices.iter().copied(), target);
                    let mut got = Vec::with_capacity(expected.len());
                    while pool.live() > 0 {
                        got.push(pool.next_record().expect("a live pool yields a record"));
                    }
                    assert_eq!(pool.next_record(), None);
                    assert!(
                        got == expected,
                        "{semantics:?}, {} UEs, slab target {target}: output diverged",
                        indices.len()
                    );
                }
            }
        }
    }

    fn key(t: u64, slot: usize, event: EventType) -> u64 {
        t << TIME_SHIFT | (slot as u64) << EVENT_BITS | u64::from(event.code())
    }

    /// Drain a [`Slab`] over synthetic per-slot runs, checking the
    /// `live() == 0 ⇔ exhausted` contract at every step; returns the keys
    /// popped and the number of slabs filled.
    fn drain_slab(runs: &[Vec<(u64, EventType)>], target: usize) -> (Vec<u64>, usize) {
        let first = |run: &Vec<(u64, EventType)>| run.first().copied();
        let mut slab = Slab::new(
            runs.iter().map(|r| first(r).map_or(DRY, |f| f.0)).collect(),
            runs.iter()
                .map(|r| first(r).map_or(EventType::Attach, |f| f.1))
                .collect(),
            target,
        );
        let mut next = vec![1usize; runs.len()];
        let (mut out, mut fills) = (Vec::new(), 0);
        loop {
            if slab.wants_fill() {
                fills += 1;
                let end = slab.start + slab.width;
                slab.fill(|slot| {
                    next[slot] += 1;
                    runs[slot].get(next[slot] - 1).copied()
                });
                assert!(!slab.keys.is_empty(), "a fill yields at least one key");
                assert!(slab.keys.iter().all(|k| k >> TIME_SHIFT < end));
                assert!(slab.pending_t.iter().all(|&t| t >= end));
            }
            let live = slab.live();
            match slab.pop() {
                Some(k) => {
                    assert!(live > 0, "live() == 0 with a key left");
                    out.push(k);
                }
                None => {
                    assert_eq!(live, 0, "live() > 0 on an exhausted slab");
                    return (out, fills);
                }
            }
        }
    }

    fn sorted_keys(runs: &[Vec<(u64, EventType)>]) -> Vec<u64> {
        let mut keys: Vec<u64> = runs
            .iter()
            .enumerate()
            .flat_map(|(slot, run)| run.iter().map(move |&(t, e)| key(t, slot, e)))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The boundary cases by hand: equal times across slots, an event
    /// exactly at the slab's end, a silent stretch longer than the widest
    /// slab, a dry slot, and a single-slot pool.
    #[test]
    fn slab_boundaries_ties_and_silence() {
        use EventType::{Handover, ServiceRequest, Tau};
        let far = 5 * MAX_WIDTH_MS + 3;
        let runs = vec![
            // The first slab is [0, FIRST_WIDTH_MS): the event at its end
            // waits for the next one.
            vec![
                (0, Tau),
                (FIRST_WIDTH_MS, Handover),
                (far, Tau),
                (far + 1, Tau),
            ],
            vec![],
            vec![
                (0, ServiceRequest),
                (FIRST_WIDTH_MS - 1, Tau),
                (FIRST_WIDTH_MS, Tau),
                (far, Handover),
            ],
        ];
        for target in [1, 3, 1_000] {
            let (keys, fills) = drain_slab(&runs, target);
            assert_eq!(keys, sorted_keys(&runs), "target {target}");
            // The silence is jumped, not walked slab by slab.
            assert!(fills <= 8, "target {target}: {fills} fills");
        }
        let (first_slab, _) = drain_slab(&[runs[0][..1].to_vec(), runs[2][..2].to_vec()], 1_000);
        assert_eq!(first_slab.len(), 3);

        let single = vec![vec![(7, Tau), (8, Handover), (far, Tau)]];
        assert_eq!(drain_slab(&single, 2).0, sorted_keys(&single));
        assert_eq!(drain_slab(&[], 2), (Vec::new(), 0));
    }

    /// Per-slot ascending runs from gap lists: short gaps collide across
    /// slots, long ones outlast the widest slab.
    fn arb_runs() -> impl Strategy<Value = Vec<Vec<(u64, EventType)>>> {
        let gap = prop_oneof![1u64..4, 1u64..3_000, MAX_WIDTH_MS..3 * MAX_WIDTH_MS];
        let run = proptest::collection::vec((gap, 0usize..6), 0..40).prop_map(|steps| {
            let mut t = 0;
            steps
                .into_iter()
                .map(|(gap, e)| {
                    t += gap;
                    (t - 1, EventType::ALL[e])
                })
                .collect::<Vec<_>>()
        });
        proptest::collection::vec(run, 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The time-only stable radix over run-concatenated keys is the
        /// full-key sort.
        #[test]
        fn time_only_radix_equals_the_full_key_sort(
            runs in arb_runs(),
            origin in 0u64..5_000,
            span_bits in 0u32..=RADIX_BITS * RADIX_PASSES_MAX,
        ) {
            // Fold every run into the window `[origin, origin + 2^span_bits)`,
            // keeping it ascending (not strictly: the sort never needs it).
            let mut keys = Vec::new();
            for (slot, run) in runs.iter().enumerate() {
                let mut times: Vec<u64> =
                    run.iter().map(|&(t, _)| origin + t % (1 << span_bits)).collect();
                times.sort_unstable();
                times.dedup();
                keys.extend(times.iter().zip(run).map(|(&t, &(_, e))| key(t, slot, e)));
            }
            let mut expected = keys.clone();
            expected.sort_unstable();
            sort_by_time(&mut keys, &mut Vec::new(), origin, span_bits);
            prop_assert_eq!(keys, expected);
        }

        /// Slab by slab, at any target, the core pops exactly the sorted
        /// union of its runs.
        #[test]
        fn slab_merge_equals_the_sorted_union(
            runs in arb_runs(),
            target in prop_oneof![Just(1usize), 2usize..40, Just(SLAB_TARGET_EVENTS)],
        ) {
            prop_assert_eq!(drain_slab(&runs, target).0, sorted_keys(&runs));
        }
    }
}
