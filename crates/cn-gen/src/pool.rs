//! Struct-of-arrays UE pool: the compact merge hot path.
//!
//! Merging one run per UE through a tournament tree is *structurally*
//! expensive: every emitted event replays ⌈log₂k⌉ matches whose memory
//! accesses form a serial dependency chain — ~15 dependent cache reads
//! per record at 20K UEs, whatever the node encoding — and profiling the
//! 20K-UE × 12h benchmark workload showed such a merge layer costing
//! ~3–4× the pure generation work. (The tournament tree,
//! `cn_trace::KeyLoserTree`, is still the right tool where runs are few
//! and long: the shard and out-of-core merges.)
//!
//! [`UePool`] therefore splits the state into parallel arrays
//! (struct-of-arrays) and replaces the tournament with a **calendar
//! queue** bucketed by event time:
//!
//! * `pending: Vec<TraceRecord>` — the next record per UE slot, read
//!   exactly once per emission;
//! * `iters: Vec<UeEventIter>` — the per-UE generator state, touched
//!   only when the winning UE must be advanced;
//! * [`CalendarQueue`] — packed `u64` keys (`t_rel_ms << 24 | slot`)
//!   bucketed into coarse time slices sized for ~16 pending events each.
//!   The bucket currently draining is a tiny binary min-heap (usually a
//!   handful of keys, L1-resident), so emitting a record costs O(log
//!   *bucket*) ≈ 4 compares on dense memory plus one push into a future
//!   bucket — instead of ⌈log₂k⌉ dependent misses.
//!
//! The key order embeds the record order exactly: per-UE timestamps
//! strictly increase, every UE lives in exactly one slot, and slots are
//! assigned in ascending UE order, so `(t_rel, slot)` sorts identically
//! to the global `(t, ue)` record order (event type never breaks a tie —
//! `(t, ue)` is already unique). The pool's output is byte-identical to
//! a tournament-tree merge; the `cn-verify` golden gate holds at pin parity.
//!
//! The same pool drives the sequential stream, each shard worker of the
//! parallel stream (over a strided index set), and each UE-range chunk
//! of the out-of-core generator ([`crate::outofcore`]).

use crate::engine::GenConfig;
use crate::per_ue::UeEventIter;
use cn_fit::ModelSet;
use cn_trace::{DeviceType, EventType, Timestamp, TraceRecord, UeId};

/// Filler for `pending` slots whose UE produced no events; never emitted
/// (exhausted slots have no key in the queue).
const VACANT: TraceRecord = TraceRecord {
    t: Timestamp(0),
    ue: UeId(0),
    device: DeviceType::Phone,
    event: EventType::Attach,
};

/// Bits of a packed key reserved for the UE slot index.
const IDX_BITS: u32 = 24;
/// Maximum UEs per pool (16.7M); larger populations go through the
/// chunked out-of-core path.
const MAX_POOL: usize = 1 << IDX_BITS;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;
/// Bucket-count ceiling: past this the bucket width widens instead.
const MAX_BUCKETS: u64 = 1 << 22;
/// Events-per-UE-hour guess used only to size buckets (perf, not
/// correctness: any bucket width yields the same output order).
const EST_EVENTS_PER_UE_HOUR: u64 = 16;
/// Target pending keys per bucket.
const TARGET_PER_BUCKET: u64 = 16;

/// A monotone priority queue over packed `(t_rel_ms << 24 | slot)` keys:
/// coarse time buckets, each drained through a small binary min-heap.
///
/// Monotone means pops come out in ascending key order and every insert
/// is `>=` the last popped key — exactly the discipline of a k-way merge
/// of per-UE streams with strictly increasing timestamps. Inserts into
/// the bucket currently draining go straight into its heap; later
/// buckets are plain unsorted `Vec` pushes, heapified on first drain.
struct CalendarQueue {
    /// log₂ of the bucket width in ms.
    shift: u32,
    /// Future keys, bucketed by `t_rel >> shift` (index clamped to the
    /// last bucket).
    buckets: Vec<Vec<u64>>,
    /// Min-heap over the keys of the bucket currently draining.
    active: Vec<u64>,
    /// Index of the draining bucket (`usize::MAX` before the first pop).
    open: usize,
    /// Total queued keys (active + all buckets).
    len: usize,
}

impl CalendarQueue {
    /// Queue for keys with `t_rel` in `[0, horizon_ms)`, sized so that
    /// `est_events` spread over the horizon land ~[`TARGET_PER_BUCKET`]
    /// keys per bucket.
    fn new(horizon_ms: u64, est_events: u64) -> CalendarQueue {
        let width = (horizon_ms / (est_events / TARGET_PER_BUCKET).max(1)).max(1);
        let mut shift = width.ilog2();
        while (horizon_ms >> shift) + 2 > MAX_BUCKETS {
            shift += 1;
        }
        let nbuckets = ((horizon_ms >> shift) + 2) as usize;
        CalendarQueue {
            shift,
            buckets: vec![Vec::new(); nbuckets],
            active: Vec::new(),
            open: usize::MAX,
            len: 0,
        }
    }

    /// Which bucket a key belongs to.
    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (((key >> IDX_BITS) >> self.shift) as usize).min(self.buckets.len() - 1)
    }

    #[inline]
    fn insert(&mut self, key: u64) {
        self.len += 1;
        let b = self.bucket_of(key);
        // A monotone insert can only target the draining bucket or a
        // later one; `open` is MAX before the first pop, so priming
        // inserts always take the bucket branch.
        if b == self.open {
            heap_push(&mut self.active, key);
        } else {
            self.buckets[b].push(key);
        }
    }

    /// Current minimum without removing it, opening the next non-empty
    /// bucket if the draining one is exhausted.
    #[inline]
    fn peek(&mut self) -> Option<u64> {
        while self.active.is_empty() {
            if self.len == 0 {
                return None;
            }
            let mut b = self.open.wrapping_add(1);
            while self.buckets[b].is_empty() {
                b += 1;
            }
            self.active = std::mem::take(&mut self.buckets[b]);
            make_heap(&mut self.active);
            self.open = b;
        }
        Some(self.active[0])
    }

    /// Replace the current minimum (which the caller has peeked and
    /// consumed) with `key`, which must compare `>=` it. When `key` lands
    /// in the draining bucket — the common case for short inter-event
    /// gaps — this is a single root sift instead of a pop-sift plus a
    /// push-sift. Equivalent to `pop` then `insert`.
    #[inline]
    fn replace_top(&mut self, key: u64) {
        debug_assert!(!self.active.is_empty(), "replace_top follows peek");
        let b = self.bucket_of(key);
        if b == self.open {
            self.active[0] = key;
            sift_down(&mut self.active, 0);
        } else {
            self.buckets[b].push(key);
            heap_pop(&mut self.active);
        }
    }

    /// Drop the current minimum (peeked, consumed, and its UE exhausted).
    #[inline]
    fn pop_discard(&mut self) {
        debug_assert!(!self.active.is_empty(), "pop_discard follows peek");
        heap_pop(&mut self.active);
        self.len -= 1;
    }

    /// Full pop (open-next-bucket included). The production drain goes
    /// through [`Self::peek`] + [`Self::replace_top`] / [`Self::pop_discard`];
    /// this is the reference discipline the queue's ordering test drains
    /// through.
    #[cfg(test)]
    fn pop(&mut self) -> Option<u64> {
        loop {
            if let Some(k) = heap_pop(&mut self.active) {
                self.len -= 1;
                return Some(k);
            }
            if self.len == 0 {
                return None;
            }
            // Open the next non-empty bucket. `len > 0` with an empty
            // active heap guarantees one exists past `open`.
            let mut b = self.open.wrapping_add(1);
            while self.buckets[b].is_empty() {
                b += 1;
            }
            self.active = std::mem::take(&mut self.buckets[b]);
            make_heap(&mut self.active);
            self.open = b;
        }
    }
}

#[inline]
fn heap_push(h: &mut Vec<u64>, key: u64) {
    h.push(key);
    let mut i = h.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if h[parent] <= h[i] {
            break;
        }
        h.swap(parent, i);
        i = parent;
    }
}

#[inline]
fn heap_pop(h: &mut Vec<u64>) -> Option<u64> {
    let last = h.len().checked_sub(1)?;
    h.swap(0, last);
    let top = h.pop();
    sift_down(h, 0);
    top
}

fn make_heap(h: &mut [u64]) {
    for i in (0..h.len() / 2).rev() {
        sift_down(h, i);
    }
}

#[inline]
fn sift_down(h: &mut [u64], mut i: usize) {
    loop {
        let l = 2 * i + 1;
        if l >= h.len() {
            return;
        }
        let r = l + 1;
        let c = if r < h.len() && h[r] < h[l] { r } else { l };
        if h[i] <= h[c] {
            return;
        }
        h.swap(i, c);
        i = c;
    }
}

/// Records generated ahead per UE while its iterator state is cache-hot.
///
/// Each UE owns an independent RNG, so advancing one UE several events
/// past the merge frontier never changes any draw order — the buffered
/// records are exactly what the iterator would produce on demand, and
/// the queue still holds one key (the next *unemitted* event) per live
/// UE, so global emission order is untouched. What changes is the cost:
/// the iterator's scattered state is touched once per `LOOKAHEAD`
/// emissions instead of once per emission.
const LOOKAHEAD: usize = 8;

/// A population of per-UE generators merged through the calendar-queue
/// struct-of-arrays hot path (see module docs).
pub struct UePool<'m> {
    iters: Vec<UeEventIter<'m>>,
    /// Per-UE lookahead buffers of generated-but-unemitted records.
    bufs: Vec<[TraceRecord; LOOKAHEAD]>,
    /// Next buffer index to emit, per UE.
    pos: Vec<u8>,
    /// Valid records in the buffer, per UE.
    fill: Vec<u8>,
    queue: CalendarQueue,
    /// `config.start` in ms — keys carry start-relative times.
    base_ms: u64,
}

impl<'m> UePool<'m> {
    /// Build a pool over the UEs named by `indices`, with the same seeds,
    /// device assignment, and semantics as [`crate::generate`] — so any
    /// partition of the population into pools merges back byte-identically.
    ///
    /// `indices` must be strictly increasing (every natural partition —
    /// ranges, strides — is), so slot order embeds UE order, and must
    /// name at most 2²⁴ UEs per pool; larger populations are chunked by
    /// [`crate::outofcore`].
    pub fn new(
        models: &'m ModelSet,
        config: &GenConfig,
        indices: impl Iterator<Item = u32>,
    ) -> UePool<'m> {
        let end = config.end();
        let base_ms = config.start.as_millis();
        let horizon_ms = end.as_millis().saturating_sub(base_ms).max(1);
        let (lo, hi) = indices.size_hint();
        let cap = hi.unwrap_or(lo);
        let mut iters = Vec::with_capacity(cap);
        let mut bufs = Vec::with_capacity(cap);
        let mut pos = Vec::with_capacity(cap);
        let mut fill = Vec::with_capacity(cap);
        let mut primed: Vec<u64> = Vec::with_capacity(cap);
        let mut last_index = None;
        for index in indices {
            assert!(
                last_index.is_none_or(|last| index > last),
                "pool indices must be strictly increasing (got {index} after {last_index:?})"
            );
            last_index = Some(index);
            let device = config.device_of(index);
            let mut it = UeEventIter::with_semantics(
                models.device(device),
                models.method,
                UeId(index),
                config.start,
                end,
                crate::engine::ue_stream_seed(config.seed, index),
                config.semantics,
            );
            let slot = iters.len();
            let mut buf = [VACANT; LOOKAHEAD];
            let mut k = 0usize;
            while k < LOOKAHEAD {
                match it.next() {
                    Some(r) => {
                        buf[k] = r;
                        k += 1;
                    }
                    None => break,
                }
            }
            if k > 0 {
                primed.push(pack_key(buf[0].t.as_millis() - base_ms, slot));
            }
            bufs.push(buf);
            pos.push(0u8);
            fill.push(k as u8);
            iters.push(it);
        }
        assert!(
            iters.len() <= MAX_POOL,
            "a UePool holds at most {MAX_POOL} UEs; chunk larger populations \
             through the out-of-core path"
        );
        let est = (iters.len() as u64)
            .saturating_mul(horizon_ms.div_ceil(3_600_000))
            .saturating_mul(EST_EVENTS_PER_UE_HOUR);
        let mut queue = CalendarQueue::new(horizon_ms, est.max(1));
        for key in primed {
            queue.insert(key);
        }
        UePool {
            iters,
            bufs,
            pos,
            fill,
            queue,
            base_ms,
        }
    }

    /// Emit the globally next record, advancing its UE's generator.
    #[inline]
    pub fn next_record(&mut self) -> Option<TraceRecord> {
        let key = self.queue.peek()?;
        let slot = (key & IDX_MASK) as usize;
        let p = self.pos[slot] as usize;
        let rec = self.bufs[slot][p];
        if p + 1 < self.fill[slot] as usize {
            // Serve the next emission from the lookahead buffer.
            self.pos[slot] = (p + 1) as u8;
            let nt = self.bufs[slot][p + 1].t.as_millis();
            self.queue.replace_top(pack_key(nt - self.base_ms, slot));
        } else {
            // Buffer drained: refill while the iterator state is hot.
            let buf = &mut self.bufs[slot];
            let it = &mut self.iters[slot];
            let mut k = 0usize;
            while k < LOOKAHEAD {
                match it.next() {
                    Some(r) => {
                        buf[k] = r;
                        k += 1;
                    }
                    None => break,
                }
            }
            self.pos[slot] = 0;
            self.fill[slot] = k as u8;
            if k > 0 {
                let nt = buf[0].t.as_millis();
                self.queue.replace_top(pack_key(nt - self.base_ms, slot));
            } else {
                self.queue.pop_discard();
            }
        }
        Some(rec)
    }

    /// Number of UEs that still have events pending.
    pub fn live(&self) -> usize {
        self.queue.len
    }
}

/// Pack a start-relative event time and a pool slot into one orderable
/// key. `t_rel` gets 40 bits (~34 years of ms); slots get [`IDX_BITS`].
#[inline]
fn pack_key(t_rel: u64, slot: usize) -> u64 {
    debug_assert!(t_rel < 1 << (64 - IDX_BITS), "event time out of key range");
    (t_rel << IDX_BITS) | slot as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::PopulationMix;
    use cn_world::{generate_world, WorldConfig};

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

    /// The calendar queue is a plain monotone priority queue under the
    /// hood; hammer it with a synthetic merge-shaped workload (every
    /// insert >= the last pop) across bucket geometries.
    #[test]
    fn calendar_queue_pops_in_sorted_order() {
        // Deterministic pseudo-random keys via splitmix-style mixing.
        let mut x = 0x9E37_79B9u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (horizon, est) in [(1_000, 10), (100_000, 1_000), (3_600_000, 10)] {
            let mut q = CalendarQueue::new(horizon, est);
            let mut keys: Vec<u64> = (0..500u64)
                .map(|i| pack_key(next() % horizon, (i % 64) as usize))
                .collect();
            for &k in &keys {
                q.insert(k);
            }
            // Pop half, interleaving monotone re-inserts.
            let mut out = Vec::new();
            for _ in 0..250 {
                let k = q.pop().unwrap();
                let t_rel = k >> IDX_BITS;
                if t_rel + 10 < horizon {
                    let nk = pack_key(t_rel + 1 + next() % 9, (next() % 64) as usize);
                    q.insert(nk);
                    keys.push(nk);
                }
                out.push(k);
            }
            while let Some(k) = q.pop() {
                out.push(k);
            }
            assert_eq!(q.len, 0);
            keys.sort_unstable();
            // `out` is `keys` minus the 250 popped-and-not-reinserted…
            // actually every key inserted is eventually popped exactly
            // once, so the multisets match.
            let mut sorted_out = out.clone();
            sorted_out.sort_unstable();
            assert_eq!(sorted_out, keys, "horizon {horizon} est {est}");
            assert!(out.windows(2).all(|w| w[0] <= w[1]), "pop order not sorted");
        }
    }
}
