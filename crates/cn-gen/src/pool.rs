//! The population stream: per-UE generators merged by time slab, the slab
//! filled chunk by chunk by however many threads generate.
//!
//! A population stream is the k-way merge of one strictly ascending run
//! per UE. Merging *per event* — a tournament tree, a heap, a calendar
//! queue — visits the UEs in event order, and that order, a cache miss
//! into the model and the generator state per event, is what the
//! generator pays for, not its arithmetic (DESIGN.md §5b has the numbers).
//!
//! [`PopulationStream`] therefore generates **by time slab**. A slot is a
//! UE with at least one event in the window: a UE whose generator yields
//! nothing is dropped when the pool is built and holds no state. The slots
//! are cut into **chunks** of consecutive slots, each keeping one pending
//! `(t, event)` per slot in two dense arrays. To fill the slab
//! `[start, start + width)`:
//!
//! 1. every chunk walks its slots in ascending order and runs every UE
//!    whose pending time falls before the slab's end through its generator
//!    up to that end, appending one packed `u64` key per event to the
//!    chunk's buffer, `t_rel << 27 | slot << 3 | event` (`t_rel` in ms
//!    since `config.start`: 37 bits, ~4.3 years; 24 slot bits; 3 event
//!    bits);
//! 2. the chunk buffers are concatenated in chunk order — which is slot
//!    order — and sorted with a stable LSD radix on the time bits *only*:
//!    the runs arrive in slot order and each is ascending, so stability
//!    yields the `(t, slot)` order without ever comparing a slot;
//! 3. records decoded from the sorted keys are emitted until the slab is
//!    drained.
//!
//! UE state is read sequentially, once per slab instead of once per event;
//! the model is touched one time window at a time; and there is no
//! per-event heap, no per-bucket allocation and no O(horizon) structure.
//! The slab's width adapts towards `SLAB_TARGET_EVENTS`; any width, and
//! any chunk size, yields the same bytes. A fill reads every slot of a
//! chunk with an event in the slab, which is why millions of UEs go
//! through [`crate::generate_out_of_core`]'s pools rather than one.
//!
//! The key order embeds the record order exactly: per-UE timestamps
//! strictly increase, every UE with an event lives in exactly one slot,
//! and slots are assigned in ascending UE order, so `(t_rel, slot)` sorts
//! identically to the global `(t, ue)` record order (event type never
//! breaks a tie — `(t, ue)` is already unique).
//!
//! ### Sharing the fill
//!
//! A slab is *opened* under a fresh epoch; helper threads
//! ([`crate::ShardedStream`]) and the calling thread claim its chunks one
//! at a time through one epoch-tagged atomic counter (the tag keeps a
//! thread that finished slab *n* from claiming a chunk of slab *n + 1*
//! under slab *n*'s end). The caller waits for the last chunk, swaps the
//! buffers out, and opens the next slab *before* sorting this one, so
//! helpers fill slab *n + 1* while the caller drains slab *n*. With no
//! helper the pool is one chunk, which the caller fills itself.

use crate::engine::GenConfig;
use crate::fault::{FaultPlan, ShardFault};
use crate::per_ue::UeState;
use crate::shard::{panic_payload, WorkerOutcome};
use cn_fit::ModelSet;
use cn_obs::{Counter, TraceSink};
use cn_trace::{radix_sort, EventType, RecordSource, StreamError, Timestamp, TraceRecord, UeId};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
/// event.
pub(crate) const SLAB_TARGET_EVENTS: usize = 1 << 17;
/// Slots per chunk, the unit of work a thread claims: large enough that
/// claiming is rare next to generating, small enough that a slab has
/// dozens of chunks to balance across threads.
pub(crate) const CHUNK_SLOTS: usize = 256;
/// Widest slab (~17 min): two radix passes always cover it, and a sparse
/// pool, whose width would otherwise stretch over several model hours, is
/// not caught wide when the hourly rate jumps (a slab overshoots its target
/// by the rate's jump from one slab to the next).
const MAX_WIDTH_MS: u64 = 1 << 20;
/// Width of the first slab; it doubles per fill until the target binds.
const FIRST_WIDTH_MS: u64 = 1 << 10;
/// Pending time of a slot whose UE has run dry.
const DRY: u64 = u64::MAX;
/// Polls of the filled count before the caller blocks on the last chunk:
/// a few microseconds, about what a futex wake-up costs.
const SPIN_POLLS: u32 = 1 << 10;

/// Consecutive slots and their runs: `advance(gen)` yields a slot's next
/// `(t_rel, event)`, strictly ascending in `t_rel`, or `None` once the run
/// is dry. Aligned so that two threads filling neighbouring chunks never
/// write to one cache line (a fill updates `keys`' length per key).
#[repr(align(128))]
struct Chunk<G> {
    /// Slot of `gens[0]`.
    first_slot: u64,
    gens: Vec<G>,
    /// Start-relative time of each slot's pending event ([`DRY`] once its
    /// run ended): generated, not yet in a slab.
    pending_t: Vec<u64>,
    pending_event: Vec<EventType>,
    /// The earliest of `pending_t`.
    next_t: u64,
    /// Keys of the last fill, in slot order.
    keys: Vec<u64>,
    fault: Option<ShardFault>,
}

impl<G> Chunk<G> {
    /// Append every slot's events before `end` to `keys`; an event
    /// exactly at the end stays pending.
    fn fill(&mut self, end: u64, advance: &impl Fn(&mut G) -> Option<(u64, EventType)>) {
        debug_assert!(self.keys.is_empty(), "fill over uncollected keys");
        if self.next_t < end {
            let mut next_t = DRY;
            for (i, pending) in self.pending_t.iter_mut().enumerate() {
                let mut t = *pending;
                if t < end {
                    let slot_bits = (self.first_slot + i as u64) << EVENT_BITS;
                    let mut event = self.pending_event[i];
                    loop {
                        self.keys
                            .push(t << TIME_SHIFT | slot_bits | u64::from(event.code()));
                        match advance(&mut self.gens[i]) {
                            Some(next) => (t, event) = next,
                            None => t = DRY,
                        }
                        if t >= end {
                            break;
                        }
                    }
                    *pending = t;
                    self.pending_event[i] = event;
                }
                next_t = next_t.min(t);
            }
            self.next_t = next_t;
        }
        if let Some(fault) = &mut self.fault {
            fault.on_fill(self.keys.len() as u64);
        }
    }
}

/// How a stream's generation stopped, as its helpers see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// Every run is dry: every key was generated.
    Completed,
    /// The stream was finished or dropped first.
    Cancelled,
}

/// The open slab, as the threads that fill it see it.
struct Window {
    epoch: u32,
    end: u64,
    stop: Option<Stop>,
    /// The first fill that panicked, as the error naming its chunk.
    failure: Option<StreamError>,
}

/// The chunks and the open slab: everything the threads filling a pool
/// share.
pub(crate) struct Shared<G> {
    chunks: Box<[Mutex<Chunk<G>>]>,
    /// `epoch << 32 | next unclaimed chunk` of the open slab.
    claim: AtomicU64,
    /// Chunks of the open slab filled so far.
    filled: AtomicUsize,
    window: Mutex<Window>,
    /// Wakes helpers: a slab opened or the stream stopped.
    opened: Condvar,
    /// Wakes the caller: the open slab is filled, or a fill failed.
    done: Condvar,
}

impl<G> Shared<G> {
    fn window(&self) -> MutexGuard<'_, Window> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn claim(&self, epoch: u32) -> Option<usize> {
        let mut claim = self.claim.load(Ordering::Acquire);
        loop {
            let next = (claim & u64::from(u32::MAX)) as usize;
            if (claim >> 32) as u32 != epoch || next >= self.chunks.len() {
                return None;
            }
            match (self.claim).compare_exchange_weak(
                claim,
                claim + 1,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(next),
                Err(seen) => claim = seen,
            }
        }
    }

    /// Claim and fill chunks of slab `epoch`, which ends at `end`, until
    /// none is left: the keys this thread generated, or — its fill having
    /// panicked — the error naming the chunk, also recorded for the caller.
    pub(crate) fn help(
        &self,
        epoch: u32,
        end: u64,
        advance: &impl Fn(&mut G) -> Option<(u64, EventType)>,
    ) -> Result<u64, StreamError> {
        let mut keys = 0;
        while let Some(c) = self.claim(epoch) {
            let fill = catch_unwind(AssertUnwindSafe(|| {
                let mut chunk = self.chunks[c]
                    .lock()
                    .expect("a failed fill ends the stream");
                chunk.fill(end, advance);
                chunk.keys.len() as u64
            }));
            match fill {
                Ok(n) => keys += n,
                Err(payload) => {
                    let err = StreamError::WorkerPanicked {
                        shard: c,
                        payload: panic_payload(payload.as_ref()),
                    };
                    self.window().failure.get_or_insert_with(|| err.clone());
                    self.done.notify_one();
                    return Err(err);
                }
            }
            if self.filled.fetch_add(1, Ordering::AcqRel) + 1 == self.chunks.len() {
                // Under the lock, so the caller cannot miss the wake-up
                // between reading the count and blocking.
                drop(self.window());
                self.done.notify_one();
            }
        }
        Ok(keys)
    }

    /// Block until every chunk of the open slab is filled, or return the
    /// first failure.
    fn wait_filled(&self) -> Result<(), StreamError> {
        let n = self.chunks.len();
        for _ in 0..SPIN_POLLS {
            if self.filled.load(Ordering::Acquire) == n {
                return Ok(());
            }
            std::hint::spin_loop();
        }
        let mut window = self.window();
        loop {
            if let Some(e) = &window.failure {
                return Err(e.clone());
            }
            if self.filled.load(Ordering::Acquire) == n {
                return Ok(());
            }
            window = self
                .done
                .wait(window)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn open(&self, epoch: u32, end: u64) {
        self.filled.store(0, Ordering::Relaxed);
        self.claim.store(u64::from(epoch) << 32, Ordering::Release);
        let mut window = self.window();
        (window.epoch, window.end) = (epoch, end);
        drop(window);
        self.opened.notify_all();
    }

    /// Stop claims and tell the helpers how generation ended (the first
    /// call wins).
    pub(crate) fn stop(&self, how: Stop) {
        self.claim.fetch_or(u64::from(u32::MAX), Ordering::AcqRel);
        self.window().stop.get_or_insert(how);
        self.opened.notify_all();
    }

    /// Block until a slab other than `seen` opens: its epoch and end, or
    /// how the stream stopped.
    pub(crate) fn next_window(&self, seen: u32) -> Result<(u32, u64), Stop> {
        let mut window = self.window();
        loop {
            if let Some(stop) = window.stop {
                return Err(stop);
            }
            if window.epoch != seen {
                return Ok((window.epoch, window.end));
            }
            window = self
                .opened
                .wait(window)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The first fill failure, if any.
    pub(crate) fn failure(&self) -> Option<StreamError> {
        self.window().failure.clone()
    }
}

/// The calling thread's side of a pool: the slab being drained, and the
/// schedule of the one open (see module docs).
struct Slab<G> {
    shared: Arc<Shared<G>>,
    /// The current slab's keys, sorted; `keys[cursor..]` are unemitted.
    keys: Vec<u64>,
    cursor: usize,
    /// Keys of the slabs drained before the current one.
    retired: u64,
    scratch: Vec<u64>,
    /// Per chunk, its buffer from the slab before, emptied: swapped back
    /// in when the open slab is collected.
    spare: Vec<Vec<u64>>,
    /// Epoch and start of the open slab ([`DRY`] once every run has
    /// ended: nothing is open).
    epoch: u32,
    start: u64,
    /// Width of the open slab in ms, in `1..=MAX_WIDTH_MS`.
    width: u64,
    target: u64,
    /// Keys the calling thread generated.
    generated: u64,
    /// The calling thread's own failed fill.
    panicked: Option<String>,
}

/// Append a slot running `gen`, whose first event is `first`, to the last
/// of `chunks`, opening a chunk of up to `chunk_slots` slots (of at most
/// `slots` in all) when it is full.
fn push_slot<G>(
    chunks: &mut Vec<Chunk<G>>,
    chunk_slots: usize,
    slots: usize,
    gen: G,
    (t, event): (u64, EventType),
) {
    if chunks
        .last()
        .is_none_or(|c| c.gens.len() >= chunk_slots.max(1))
    {
        let slot = chunks
            .last()
            .map_or(0, |c| c.first_slot as usize + c.gens.len());
        let cap = chunk_slots.min(slots.saturating_sub(slot));
        chunks.push(Chunk {
            first_slot: slot as u64,
            gens: Vec::with_capacity(cap),
            pending_t: Vec::with_capacity(cap),
            pending_event: Vec::with_capacity(cap),
            next_t: DRY,
            keys: Vec::new(),
            fault: None,
        });
    }
    let chunk = chunks.last_mut().expect("a chunk was just opened");
    chunk.gens.push(gen);
    chunk.pending_t.push(t);
    chunk.pending_event.push(event);
    chunk.next_t = chunk.next_t.min(t);
}

impl<G> Slab<G> {
    /// A pool over `chunks` (see [`push_slot`]).
    fn new(chunks: Vec<Chunk<G>>, target: usize) -> Slab<G> {
        let start = chunks.iter().map(|c| c.next_t).min().unwrap_or(DRY);
        let spare = chunks.iter().map(|_| Vec::new()).collect();
        Slab {
            shared: Arc::new(Shared {
                chunks: chunks.into_iter().map(Mutex::new).collect(),
                claim: AtomicU64::new(0),
                filled: AtomicUsize::new(0),
                window: Mutex::new(Window {
                    epoch: 0,
                    end: 0,
                    stop: None,
                    failure: None,
                }),
                opened: Condvar::new(),
                done: Condvar::new(),
            }),
            keys: Vec::new(),
            cursor: 0,
            retired: 0,
            scratch: Vec::new(),
            spare,
            epoch: 0,
            start,
            width: FIRST_WIDTH_MS,
            target: target.max(1) as u64,
            generated: 0,
            panicked: None,
        }
    }

    /// True when the current slab is drained.
    #[inline]
    fn is_drained(&self) -> bool {
        self.cursor == self.keys.len()
    }

    /// The next key in `(t_rel, slot)` order; `None` when the current
    /// slab is drained.
    #[inline]
    fn pop(&mut self) -> Option<u64> {
        let key = *self.keys.get(self.cursor)?;
        self.cursor += 1;
        Some(key)
    }

    /// Retire the drained slab and make the open one current: help fill
    /// it, wait for the helpers' last chunk, open the next, and sort.
    /// Once every run is dry the new slab is empty.
    fn fill(
        &mut self,
        advance: &impl Fn(&mut G) -> Option<(u64, EventType)>,
    ) -> Result<(), StreamError> {
        debug_assert!(self.is_drained(), "fill over unpopped keys");
        self.retired += self.keys.len() as u64;
        self.keys.clear();
        self.cursor = 0;
        if self.start == DRY {
            return Ok(());
        }
        let shared = &*self.shared;
        let (start, width) = (self.start, self.width);
        let help = shared.help(self.epoch, start + width, advance);
        self.generated += help.inspect_err(|e| self.panicked = Some(e.to_string()))?;
        shared.wait_filled()?;
        let mut next_start = DRY;
        for (chunk, spare) in shared.chunks.iter().zip(&mut self.spare) {
            let mut chunk = chunk.lock().expect("a filled chunk is unpoisoned");
            next_start = next_start.min(chunk.next_t);
            std::mem::swap(&mut chunk.keys, spare);
        }
        // Steer towards the target, at most doubling; jump any silent
        // stretch to the earliest pending event. Open the next slab before
        // sorting this one, so helpers fill it meanwhile.
        let len: usize = self.spare.iter().map(Vec::len).sum();
        let ideal = width * self.target / len.max(1) as u64;
        self.width = ideal.clamp(1, (2 * width).min(MAX_WIDTH_MS));
        self.start = next_start;
        self.epoch = self.epoch.wrapping_add(1);
        if next_start == DRY {
            shared.stop(Stop::Completed);
        } else {
            shared.open(self.epoch, next_start + self.width);
        }
        self.keys.reserve(len);
        for spare in &mut self.spare {
            self.keys.extend_from_slice(spare);
            spare.clear();
        }
        // Slot-ordered ascending runs in, `(t_rel, slot)` order out: a
        // stable radix on the time bits alone.
        let time_bits = TIME_SHIFT..TIME_SHIFT + u64::BITS - (width - 1).leading_zeros();
        let relative = |&key: &u64| key - (start << TIME_SHIFT);
        radix_sort(&mut self.keys, &mut self.scratch, time_bits, relative);
        debug_assert!(
            self.keys.windows(2).all(|w| w[0] < w[1]),
            "slab keys out of (t, slot) order"
        );
        Ok(())
    }
}

/// Telemetry of an observed stream; an unobserved stream's handles are
/// no-ops and read no clock.
#[derive(Clone, Default)]
pub(crate) struct FillObs {
    /// `cn_gen_shard_events_total{shard=i}` — keys this thread generated.
    pub(crate) events: Counter,
    /// Where `cn_gen_slab_fill` spans go: one per slab this thread helped
    /// fill.
    pub(crate) trace: TraceSink,
}

/// A time-ordered event stream over a synthesized population, merged by
/// time slab (see module docs): one generator state per UE with an event
/// plus two slabs resident, never O(total events).
pub struct PopulationStream<'m> {
    models: &'m ModelSet,
    slab: Slab<UeState>,
    /// The UE each slot generates for.
    ues: Vec<u32>,
    /// Start, for start-relative key times; population, for device types.
    config: GenConfig,
    /// The calling thread's share of the telemetry.
    obs: FillObs,
    /// `cn_gen_slabs_total` — slabs filled.
    slabs: Counter,
    /// Fed the records emitted, slab by slab and the rest on drop (the
    /// `cn_gen_merge_events_total` of an observed sharded stream).
    merged: Counter,
}

impl<'m> PopulationStream<'m> {
    /// Create the stream for a generation configuration: the same records,
    /// in the same order, as [`crate::generate`].
    pub fn new(models: &'m ModelSet, config: &GenConfig) -> PopulationStream<'m> {
        Self::with_ues(models, config, 0..config.population.total())
    }

    /// The stream over the UEs named by `indices`, with the same seeds,
    /// device assignment, and semantics as the whole population's — so any
    /// partition of the population into pools merges back byte-identically.
    ///
    /// `indices` must be strictly increasing (every natural partition —
    /// ranges, strides — is), so slot order embeds UE order, and must
    /// name at most 2²⁴ UEs per pool; larger populations are chunked by
    /// [`crate::generate_out_of_core`]. The window must be shorter than
    /// 2³⁷ ms (~4.3 years). Both are checked in release builds too: a key
    /// that overflows would silently reorder records.
    ///
    /// Chunks are what threads share; a stream filled by its caller alone
    /// keeps its slots in one.
    pub(crate) fn with_ues(
        models: &'m ModelSet,
        config: &GenConfig,
        indices: impl Iterator<Item = u32>,
    ) -> PopulationStream<'m> {
        Self::with_layout(models, config, indices, usize::MAX, SLAB_TARGET_EVENTS)
    }

    /// As [`PopulationStream::with_ues`] with `chunk_slots` slots per
    /// chunk and slabs steered towards `target` events.
    pub(crate) fn with_layout(
        models: &'m ModelSet,
        config: &GenConfig,
        indices: impl Iterator<Item = u32>,
        chunk_slots: usize,
        target: usize,
    ) -> PopulationStream<'m> {
        let end = config.end();
        let base_ms = config.start.as_millis();
        let horizon_ms = end.as_millis().saturating_sub(base_ms);
        assert!(
            horizon_ms < MAX_HORIZON_MS,
            "a pool spans less than {MAX_HORIZON_MS} ms (~4.3 years), got {horizon_ms} ms: \
             later events would overflow the merge key"
        );
        let (lo, hi) = indices.size_hint();
        let slots = hi.unwrap_or(lo);
        let mut ues: Vec<u32> = Vec::with_capacity(slots);
        let mut chunks = Vec::new();
        let mut last = None;
        let advance = |gen: &mut UeState| gen.advance(models, base_ms);
        for index in indices {
            assert!(
                last.is_none_or(|last| index > last),
                "pool indices must be strictly increasing (got {index} after {last:?})"
            );
            last = Some(index);
            let mut gen = UeState::new(
                models.device(config.device_of(index)),
                models.method,
                config.start,
                end,
                crate::engine::ue_stream_seed(config.seed, index),
                config.semantics,
            );
            // A UE silent over the whole window takes no slot.
            if let Some(first) = advance(&mut gen) {
                push_slot(&mut chunks, chunk_slots, slots, gen, first);
                ues.push(index);
            }
        }
        assert!(
            ues.len() <= MAX_POOL,
            "a pool holds at most {MAX_POOL} UEs; chunk larger populations \
             through the out-of-core path"
        );
        let slab = Slab::new(chunks, target);
        PopulationStream {
            models,
            slab,
            ues,
            config: *config,
            obs: FillObs::default(),
            slabs: Counter::noop(),
            merged: Counter::noop(),
        }
    }

    /// Record from here on: `merged` fed every record emitted, at slab
    /// granularity (each drained slab when the next is filled, or the
    /// stream runs dry, and the current slab's emitted part on drop);
    /// `slabs` counting slabs filled; `obs` the calling thread's share.
    pub(crate) fn observe(&mut self, merged: Counter, slabs: Counter, obs: FillObs) {
        (self.merged, self.slabs, self.obs) = (merged, slabs, obs);
    }

    /// Inject `plan`'s faults, keyed by chunk; panics when the plan names
    /// a chunk the pool does not have (the fault could never fire).
    pub(crate) fn inject(&mut self, plan: &FaultPlan) {
        let chunks = &self.slab.shared.chunks;
        for target in plan.targets() {
            assert!(
                target < chunks.len(),
                "fault plan targets chunk {target}, but the stream has {} chunks",
                chunks.len()
            );
        }
        for (c, chunk) in chunks.iter().enumerate() {
            chunk.lock().expect("no fill has run").fault = plan.for_shard(c);
        }
    }

    /// What the threads filling this pool share.
    pub(crate) fn shared(&self) -> &Arc<Shared<UeState>> {
        &self.slab.shared
    }

    /// Records emitted so far.
    pub(crate) fn emitted(&self) -> u64 {
        self.slab.retired + self.slab.cursor as u64
    }

    /// How the calling thread's share of generation ended.
    pub(crate) fn outcome(&self) -> WorkerOutcome {
        match &self.slab.panicked {
            Some(payload) => WorkerOutcome::Panicked {
                payload: payload.clone(),
            },
            None if self.slab.start == DRY => WorkerOutcome::Completed {
                events: self.slab.generated,
            },
            None => WorkerOutcome::Cancelled,
        }
    }

    /// The fallible pull: `Err` when a fill panicked, on this thread or a
    /// helper. The stream emits nothing after an error.
    #[inline]
    pub(crate) fn pull(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        if self.slab.is_drained() {
            self.fill()?;
        }
        Ok(self.pop())
    }

    /// The next record of the current slab.
    #[inline]
    fn pop(&mut self) -> Option<TraceRecord> {
        let key = self.slab.pop()?;
        let ue = self.ues[(key >> EVENT_BITS) as usize & (MAX_POOL - 1)];
        Some(TraceRecord {
            t: Timestamp::from_millis(self.config.start.as_millis() + (key >> TIME_SHIFT)),
            ue: UeId(ue),
            device: self.config.device_of(ue),
            event: EventType::ALL[(key & ((1 << EVENT_BITS) - 1)) as usize],
        })
    }

    /// Make the open slab current (see [`Slab::fill`]), accounting for it.
    #[cold]
    pub(crate) fn fill(&mut self) -> Result<(), StreamError> {
        self.merged.add(self.slab.keys.len() as u64);
        let live = self.slab.start != DRY;
        self.slabs.add(u64::from(live));
        let _span = live.then(|| self.obs.trace.span("cn_gen_slab_fill"));
        let generated = self.slab.generated;
        let (models, base_ms) = (self.models, self.config.start.as_millis());
        let filled = self
            .slab
            .fill(&|gen: &mut UeState| gen.advance(models, base_ms));
        self.obs.events.add(self.slab.generated - generated);
        filled
    }
}

impl Iterator for PopulationStream<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        if self.slab.is_drained() {
            if let Err(e) = self.fill() {
                match e {
                    StreamError::WorkerPanicked { payload, .. } => resume_unwind(Box::new(payload)),
                    other => panic!("{other}"),
                }
            }
        }
        self.pop()
    }
}

/// The sequential stream cannot fail: it is the [`Iterator`] above under
/// the fallible pull every downstream stage speaks.
impl RecordSource for PopulationStream<'_> {
    type Stats = ();

    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        Ok(self.next())
    }

    fn finish(self) -> Result<(), StreamError> {
        Ok(())
    }
}

impl Drop for PopulationStream<'_> {
    fn drop(&mut self) {
        self.merged.add(self.slab.cursor as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // UEs — the invariant the out-of-core chunks rely on.
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(14, 6, 4),
            Timestamp::at_hour(0, 11),
            2.0,
            99,
        );
        let total = config.population.total();
        let mut pool = PopulationStream::new(&models, &config);
        let whole: Vec<TraceRecord> = pool.by_ref().collect();
        assert_eq!(pool.emitted(), whole.len() as u64);

        let mut halves = Vec::new();
        for range in [0..total / 2, total / 2..total] {
            halves.extend(PopulationStream::with_ues(&models, &config, range));
        }
        halves.sort();
        assert_eq!(whole, halves);
        assert!(whole.len() > 50, "only {} events", whole.len());
    }

    #[test]
    fn silent_ues_hold_no_slot() {
        // A quarter hour at night: most UEs have no event. Only the ones
        // that do take a slot, in every chunk layout, and the output is the
        // reference merge byte for byte at every thread count.
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(1_200, 500, 300),
            Timestamp::at_hour(0, 3),
            0.25,
            17,
        );
        let total = config.population.total();
        let expected = crate::engine::reference(&models, &config, 0..total);
        let mut active: Vec<u32> = expected.iter().map(|r| r.ue.get()).collect();
        active.sort_unstable();
        active.dedup();
        assert!(
            !active.is_empty() && active.len() < total as usize / 2,
            "{} of {total} UEs active",
            active.len()
        );
        for chunk_slots in [1, 7, CHUNK_SLOTS, usize::MAX] {
            let pool = PopulationStream::with_layout(
                &models,
                &config,
                0..total,
                chunk_slots,
                SLAB_TARGET_EVENTS,
            );
            let slots: usize = (pool.slab.shared.chunks.iter())
                .map(|c| c.lock().expect("no fill has run").gens.len())
                .sum();
            assert_eq!(slots, active.len(), "chunk {chunk_slots}: slots");
            assert!(pool.ues == active, "chunk {chunk_slots}: slot UEs");
        }
        let expected = cn_trace::io::to_binary(&cn_trace::Trace::from_records(expected));
        for threads in [1, 2, 3] {
            let (got, _) = crate::ShardedStream::with_shards(&models, &config, threads)
                .collect_trace()
                .expect("no fault injected");
            assert!(
                cn_trace::io::to_binary(&got) == expected,
                "{threads} threads: bytes diverged"
            );
        }
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
        let mut pool = PopulationStream::with_ues(&models, &config, std::iter::empty());
        assert_eq!(pool.next(), None);
        assert_eq!(pool.emitted(), 0);
    }

    #[test]
    fn stream_is_globally_time_ordered() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(20, 8, 5),
            Timestamp::at_hour(0, 10),
            2.0,
            13,
        );
        let mut last: Option<TraceRecord> = None;
        let mut n = 0usize;
        for rec in PopulationStream::new(&models, &config) {
            if let Some(prev) = last {
                assert!(prev <= rec, "{prev:?} then {rec:?}");
            }
            last = Some(rec);
            n += 1;
        }
        assert!(n > 50, "stream produced only {n} events");
    }

    #[test]
    fn empty_population_streams_nothing() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(0, 0, 0),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        assert_eq!(PopulationStream::new(&models, &config).count(), 0);
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
        PopulationStream::with_ues(&models, &config, [1u32, 0].into_iter());
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
        PopulationStream::with_ues(&models, &config, 0..1);
    }

    fn key(t: u64, slot: usize, event: EventType) -> u64 {
        t << TIME_SHIFT | (slot as u64) << EVENT_BITS | u64::from(event.code())
    }

    type Run = std::vec::IntoIter<(u64, EventType)>;

    /// Drain a [`Slab`] over synthetic per-slot runs cut into chunks of
    /// `chunk_slots`, checking its pop count at every step; returns the
    /// keys popped and the number of non-empty slabs filled.
    fn drain_slab(
        runs: &[Vec<(u64, EventType)>],
        chunk_slots: usize,
        target: usize,
    ) -> (Vec<u64>, usize) {
        let advance = |run: &mut Run| run.next();
        let mut chunks = Vec::new();
        for run in runs {
            let mut run = run.clone().into_iter();
            let first = advance(&mut run).unwrap_or((DRY, EventType::Attach));
            push_slot(&mut chunks, chunk_slots, runs.len(), run, first);
        }
        let mut slab = Slab::new(chunks, target);
        let (mut out, mut fills) = (Vec::new(), 0);
        loop {
            if slab.is_drained() {
                let (live, end) = (slab.start != DRY, slab.start.saturating_add(slab.width));
                slab.fill(&advance).expect("synthetic runs never panic");
                if live {
                    fills += 1;
                    assert!(!slab.keys.is_empty(), "a fill yields at least one key");
                    assert!(slab.keys.iter().all(|k| k >> TIME_SHIFT < end));
                    for chunk in slab.shared.chunks.iter() {
                        let chunk = chunk.lock().expect("no fill panicked");
                        assert!(chunk.pending_t.iter().all(|&t| t >= end));
                    }
                } else {
                    assert!(slab.keys.is_empty(), "a dry slab fills nothing");
                }
            }
            assert_eq!(slab.retired + slab.cursor as u64, out.len() as u64);
            match slab.pop() {
                Some(k) => out.push(k),
                None => return (out, fills),
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

    /// The boundary cases by hand: equal times across slots and chunks,
    /// an event exactly at the slab's end, a silent stretch longer than
    /// the widest slab, a dry slot, and a single-slot pool.
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
        for chunk_slots in [1, 2, CHUNK_SLOTS] {
            for target in [1, 3, 1_000] {
                let (keys, fills) = drain_slab(&runs, chunk_slots, target);
                assert_eq!(
                    keys,
                    sorted_keys(&runs),
                    "chunk {chunk_slots}, target {target}"
                );
                // The silence is jumped, not walked slab by slab.
                assert!(fills <= 8, "target {target}: {fills} fills");
            }
        }
        let first = [runs[0][..1].to_vec(), runs[2][..2].to_vec()];
        assert_eq!(drain_slab(&first, 1, 1_000).0.len(), 3);

        let single = vec![vec![(7, Tau), (8, Handover), (far, Tau)]];
        assert_eq!(drain_slab(&single, 1, 2).0, sorted_keys(&single));
        assert_eq!(drain_slab(&[], 1, 2), (Vec::new(), 0));
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
            span_bits in 0u32..=MAX_WIDTH_MS.ilog2(),
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
            let time_bits = TIME_SHIFT..TIME_SHIFT + span_bits;
            radix_sort(&mut keys, &mut Vec::new(), time_bits, |&k| k - (origin << TIME_SHIFT));
            prop_assert_eq!(keys, expected);
        }

        /// Slab by slab, at any chunk size and target, the core pops
        /// exactly the sorted union of its runs.
        #[test]
        fn slab_merge_equals_the_sorted_union(
            runs in arb_runs(),
            chunk_slots in prop_oneof![Just(1usize), 2usize..5, Just(CHUNK_SLOTS)],
            target in prop_oneof![Just(1usize), 2usize..40, Just(SLAB_TARGET_EVENTS)],
        ) {
            prop_assert_eq!(drain_slab(&runs, chunk_slots, target).0, sorted_keys(&runs));
        }
    }
}
