//! Out-of-core generation: population-scale binary export under a
//! bounded memory budget.
//!
//! [`PopulationStream`] keeps one live generator
//! per UE, so its resident set grows linearly with the population — at
//! 10M UEs that is gigabytes of iterator state before the first record is
//! written. [`generate_out_of_core`] bounds both sides:
//!
//! 1. **Chunked generation on worker threads** — the population is split
//!    into contiguous UE-range chunks of [`OutOfCoreConfig::chunk_ues`],
//!    dealt round-robin to `W` = [`GenConfig::threads`] scoped workers (`0`
//!    = [`crate::effective_parallelism`]; the workers borrow the caller's
//!    [`ModelSet`], nothing is cloned). A worker runs one chunk's
//!    [`PopulationStream`] at a time (only `chunk_ues` generators resident
//!    per worker) and encodes it straight into a time-sorted *run* in the
//!    on-disk 14-byte record format, one [`EncodedBlock`] at a time —
//!    records are encoded exactly once, at generation.
//! 2. **Budgeted spill on the same workers** — a worker alone owns the
//!    runs of its stripe (chunks `w, w + W, …`), its share `budget / W` of
//!    [`OutOfCoreConfig::buffer_budget_bytes`] and its spill files. Its
//!    runs buffer in memory until they would exceed the share; a run
//!    growing past it moves to an anonymous temp file (created then
//!    immediately unlinked, so a crash leaks nothing) and keeps appending
//!    there. A stripe's chunk order is fixed, so which runs spill is a
//!    pure function of the configuration and the worker count. The runs
//!    come back when the workers join.
//! 3. **Range-partitioned merge by sort** — the caller, now the owner of
//!    every run, spill file and the sink, cuts the runs into
//!    *slices* by key: every run's records `<=` a bound (a binary search
//!    over [`record_key_at`]), copied back to back in run order into one
//!    buffer of at most [`MERGE_SLICE_BYTES`] (see [`cut_slice`]). Slices
//!    go round-robin to [`GenConfig::threads`] scoped merge workers, which
//!    order a slice's encoded records in place with one stable
//!    [`radix_sort`] on time alone (see "Byte identity"), each reusing
//!    one scratch buffer; the caller lands the outputs strictly in slice
//!    order through one output window, one
//!    [`BinaryStreamWriter::write_encoded`] per window. No record is
//!    decoded or re-encoded between generation and disk, and sink writes
//!    are O(bytes / window) however finely the runs interleave.
//!
//! Peak RSS is O(workers × chunk state) while generating, then O(budget +
//! slices in flight + spill-read windows) — the last two a few slices'
//! worth whatever the run count — independent of trace length.
//!
//! ### Byte identity
//!
//! Record order is a strict total order and every UE lives in exactly one
//! chunk, so cross-run key comparisons never tie (see
//! `TraceRecord::merge_key`). A slice lays its runs' parts down in run
//! order, runs are chunks over ascending disjoint UE ranges, and per-UE
//! times strictly increase, so records of equal time already stand in
//! `(ue, event)` order: a stable sort on time alone yields the full key
//! order, and runs that do share a key keep run order. The
//! merged byte stream is *the* unique sorted trace, which any key bound
//! splits into a prefix and a suffix, identical to
//! [`cn_trace::io::to_binary`] of [`crate::generate`]'s output for the
//! same [`GenConfig`] — at every chunk size, every spill budget
//! (including a zero budget that spills every run), every thread count
//! and every slice size. The `cn-verify` golden gate pins this.
//!
//! ### Failure containment
//!
//! Spill and export I/O failures surface as typed
//! [`StreamError::Io`] values carrying the failing stage, and a panicking
//! chunk or merge worker as [`StreamError::WorkerPanicked`] carrying the
//! chunk or slice index — the same contract the sharded pipeline
//! established. The first chunk worker to fail raises a stop flag that
//! every other one checks after each block; in the merge, whichever side
//! fails first hangs up on the other (a blocked send or receive fails and
//! the worker exits). Either way every worker is joined before the export
//! returns. The sink is driven through [`BinaryStreamWriter`], so an
//! export that errors out leaves the unfinished-count sentinel in the
//! header: the partial file *fails* [`cn_trace::io::from_binary`] loudly
//! and is salvageable only via the explicit
//! [`cn_trace::io::recover_binary`] path. A truncated spill file (torn write, full disk) is caught by
//! exact-length reads during the merge and becomes a `spill-read` error,
//! never a silently shortened trace.

use crate::engine::GenConfig;
use crate::fault::FaultPlan;
use crate::pool::PopulationStream;
use crate::shard::panic_payload;
use cn_fit::ModelSet;
use cn_obs::TraceSink;
use cn_trace::io::{record_key_at, BinaryStreamWriter, RECORD_BYTES};
use cn_trace::{radix_sort, EncodedBlock, StreamError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::ScopedJoinHandle;

/// Records per block while draining a chunk into its run (~56 KiB of
/// encoded bytes: large enough to amortize the append, small enough to
/// stay cache-resident while filling).
const CHUNK_BLOCK_RECORDS: usize = 4096;

/// Shares of a merge slice (see [`cut_slice`]) one spill read loads: all
/// spill windows together stay under this many slices' worth plus one.
const SPILL_READ_SHARES: usize = 8;

/// Bytes of merge output staged between sink writes (112 KiB).
const OUTPUT_WINDOW_BYTES: usize = RECORD_BYTES * 8192;

/// Upper bound on the bytes of one merge slice; one in flight holds at
/// most this much plus as much sort scratch. Half this stays under glibc's
/// mmap threshold, ~2.7 MiB lighter, and merges ~5 % slower end to end.
const MERGE_SLICE_BYTES: usize = 256 << 10;

/// Slices a merge worker may hold, queued or merged, before the calling
/// thread lands the oldest: one to work on while the next is being cut.
const MERGE_WORKER_SLICES: usize = 2;

/// Tuning knobs for [`generate_out_of_core`].
#[derive(Debug, Clone)]
pub struct OutOfCoreConfig {
    /// UEs resident per generation chunk (clamped to ≥ 1). Each chunk
    /// holds `chunk_ues` generator states plus the pool's key/pending
    /// arrays; one sorted run is produced per chunk.
    pub chunk_ues: u32,
    /// Total bytes of run data allowed to stay buffered in memory across
    /// all runs: each of the `W` chunk workers buffers at most
    /// `budget / W` across its own runs, and a run whose growth would
    /// exceed that share spills to an unlinked temp file. `0` forces every
    /// run to disk.
    pub buffer_budget_bytes: usize,
    /// Directory for spill files (`None` = [`std::env::temp_dir`]).
    pub temp_dir: Option<PathBuf>,
}

impl Default for OutOfCoreConfig {
    fn default() -> OutOfCoreConfig {
        OutOfCoreConfig {
            chunk_ues: 65_536,
            buffer_budget_bytes: 64 << 20,
            temp_dir: None,
        }
    }
}

/// What a completed out-of-core export did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfCoreReport {
    /// Records written to the sink.
    pub events: u64,
    /// Sorted runs generated (one per UE chunk).
    pub runs: usize,
    /// Runs that exceeded the memory budget and spilled to temp files.
    pub spilled_runs: usize,
    /// Total bytes written to the sink (header + records).
    pub bytes_written: u64,
}

/// Typed-error helper: stringify an underlying failure under its stage.
fn io_err(stage: &'static str, e: impl std::fmt::Display) -> StreamError {
    StreamError::Io {
        stage,
        message: e.to_string(),
    }
}

/// Monotonic disambiguator for spill-file names within this process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Create an anonymous spill file in `dir`: created exclusively, then
/// immediately unlinked so the kernel reclaims it when the handle drops —
/// a crash mid-export leaks no on-disk state.
fn create_spill_file(occ: &OutOfCoreConfig) -> Result<File, StreamError> {
    // Spills are cold (one per run that exceeds the budget, each
    // involving file I/O), so resolving the global sink here is fine.
    let _spill_span = cn_obs::trace::global_span("cn_gen_ooc_spill");
    let dir = occ.temp_dir.clone().unwrap_or_else(std::env::temp_dir);
    let path = dir.join(format!(
        "cn-gen-spill-{}-{}.run",
        std::process::id(),
        SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(|e| io_err("spill-create", format!("{}: {e}", path.display())))?;
    // Unlink eagerly; the open handle keeps the data alive.
    let _ = std::fs::remove_file(&path);
    Ok(file)
}

/// One chunk's sorted run: encoded record bytes, in memory until its
/// worker's share of the budget forces them to disk.
struct RunStore {
    data: RunData,
    len_bytes: u64,
}

enum RunData {
    Mem(Vec<u8>),
    Spilled(File),
}

impl RunStore {
    fn new() -> RunStore {
        RunStore {
            data: RunData::Mem(Vec::new()),
            len_bytes: 0,
        }
    }

    /// Append encoded record bytes, spilling this run to a temp file when
    /// its worker's in-memory total (`buffered`) would exceed `share`.
    fn append(
        &mut self,
        bytes: &[u8],
        buffered: &mut usize,
        share: usize,
        occ: &OutOfCoreConfig,
    ) -> Result<(), StreamError> {
        match &mut self.data {
            RunData::Mem(buf) => {
                if *buffered + bytes.len() > share {
                    let mut file = create_spill_file(occ)?;
                    file.write_all(buf).map_err(|e| io_err("spill-write", e))?;
                    file.write_all(bytes)
                        .map_err(|e| io_err("spill-write", e))?;
                    *buffered -= buf.len();
                    self.data = RunData::Spilled(file);
                } else {
                    buf.extend_from_slice(bytes);
                    *buffered += bytes.len();
                }
            }
            RunData::Spilled(file) => {
                file.write_all(bytes)
                    .map_err(|e| io_err("spill-write", e))?;
            }
        }
        self.len_bytes += bytes.len() as u64;
        Ok(())
    }

    fn is_spilled(&self) -> bool {
        matches!(self.data, RunData::Spilled(_))
    }
}

/// Merge-side view of one run: a window of undelivered encoded bytes (a
/// memory run is one window; a spilled run's grows by [`Self::refill`]).
struct RunReader {
    buf: Vec<u8>,
    /// Offset of the window in `buf`.
    pos: usize,
    /// A spilled run's file and how many of its bytes are not loaded yet.
    spill: Option<(File, u64)>,
    /// Whole records per spill read; the merge re-aims it at every cut.
    read_bytes: usize,
}

impl RunReader {
    fn new(store: RunStore) -> Result<RunReader, StreamError> {
        let (buf, spill) = match store.data {
            RunData::Mem(buf) => (buf, None),
            RunData::Spilled(mut file) => {
                file.seek(SeekFrom::Start(0))
                    .map_err(|e| io_err("spill-read", e))?;
                (Vec::new(), Some((file, store.len_bytes)))
            }
        };
        Ok(RunReader {
            buf,
            pos: 0,
            spill,
            read_bytes: RECORD_BYTES,
        })
    }

    /// The undelivered bytes currently in memory (whole records).
    fn window(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }

    /// Move the window to the front of the buffer and append the next
    /// read of a spilled run behind it; `Ok(false)` when the run has no
    /// bytes left to load (always, for memory runs). A spill file shorter
    /// than the run's recorded length — a torn or truncated file — fails
    /// the exact-length read and surfaces as a typed `spill-read` error.
    fn refill(&mut self) -> Result<bool, StreamError> {
        let Some((file, left)) = &mut self.spill else {
            return Ok(false);
        };
        if *left == 0 {
            return Ok(false);
        }
        let take = (*left).min(self.read_bytes as u64) as usize;
        self.buf.drain(..self.pos);
        self.pos = 0;
        let tail = self.buf.len();
        self.buf.resize(tail + take, 0);
        file.read_exact(&mut self.buf[tail..]).map_err(|e| {
            io_err(
                "spill-read",
                format!("torn spill file ({take} byte read): {e}"),
            )
        })?;
        *left -= take as u64;
        Ok(true)
    }
}

/// A merge worker as the calling thread sees it: slice outputs coming
/// back, and the worker's verdict.
struct Lane<'scope, T> {
    /// First slice of the worker's stripe (every `workers`-th).
    first: usize,
    rx: Receiver<T>,
    handle: ScopedJoinHandle<'scope, Result<(), StreamError>>,
}

impl<T> Lane<'_, T> {
    /// Hang up and take the worker's verdict; one that is still working
    /// exits at its next send.
    fn join(self) -> Result<(), StreamError> {
        drop(self.rx);
        // The worker body runs under `catch_unwind`, so a join error can
        // only come from outside it; report it rather than re-raise.
        self.handle.join().unwrap_or_else(|payload| {
            Err(StreamError::WorkerPanicked {
                shard: self.first,
                payload: panic_payload(payload.as_ref()),
            })
        })
    }
}

/// Phase 1: one sorted, arena-encoded run per UE-range chunk, each
/// generated, budgeted and spilled by the worker that owns its stripe
/// (see module docs). The first worker to fail raises `stop`, which the
/// others check after each block; the lowest failed worker's error is
/// the one reported.
fn generate_runs(
    models: &ModelSet,
    config: &GenConfig,
    occ: &OutOfCoreConfig,
    trace: &TraceSink,
    plan: &FaultPlan,
) -> Result<Vec<RunStore>, StreamError> {
    let total = config.population.total();
    let chunk_ues = occ.chunk_ues.max(1);
    let chunks = total.div_ceil(chunk_ues) as usize;
    let workers = config.resolved_threads().min(chunks);
    let stop = AtomicBool::new(false);
    let stripes: Vec<Result<Vec<RunStore>, StreamError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|first| {
                let (stop, trace) = (&stop, trace.clone());
                scope.spawn(move || {
                    let share = occ.buffer_budget_bytes / workers;
                    let (mut buffered, mut runs) = (0usize, Vec::new());
                    let mut block = EncodedBlock::with_capacity(CHUNK_BLOCK_RECORDS);
                    let mut chunk = first;
                    let stripe = catch_unwind(AssertUnwindSafe(|| {
                        while chunk < chunks {
                            // `chunk < ⌈total / chunk_ues⌉`, so `lo < total`.
                            let lo = chunk as u32 * chunk_ues;
                            let hi = lo.saturating_add(chunk_ues).min(total);
                            let _chunk_span = trace
                                .is_enabled()
                                .then(|| trace.span(&format!("cn_gen_ooc_chunk:{lo}-{hi}")));
                            let mut fault = plan.for_shard(chunk);
                            let mut stream = PopulationStream::with_ues(models, config, lo..hi);
                            let mut run = RunStore::new();
                            loop {
                                block.clear();
                                (stream.by_ref().take(CHUNK_BLOCK_RECORDS))
                                    .for_each(|rec| block.push(&rec));
                                if let Some(fault) = &mut fault {
                                    fault.on_fill(block.len() as u64);
                                }
                                // Relaxed: the flag publishes no data; the
                                // runs and errors travel through the joins.
                                if stop.load(Ordering::Relaxed) {
                                    return Ok(());
                                }
                                run.append(block.as_bytes(), &mut buffered, share, occ)?;
                                if block.len() < CHUNK_BLOCK_RECORDS {
                                    break;
                                }
                            }
                            runs.push(run);
                            chunk += workers;
                        }
                        Ok(())
                    }))
                    .unwrap_or_else(|payload| {
                        Err(StreamError::WorkerPanicked {
                            shard: chunk,
                            payload: panic_payload(payload.as_ref()),
                        })
                    });
                    if stripe.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    stripe.map(|()| runs)
                })
            })
            .collect();
        // A join error can only come from outside the `catch_unwind`.
        (handles.into_iter().enumerate())
            .map(|(first, handle)| {
                handle.join().unwrap_or_else(|payload| {
                    Err(StreamError::WorkerPanicked {
                        shard: first,
                        payload: panic_payload(payload.as_ref()),
                    })
                })
            })
            .collect()
    });
    let mut stripes = stripes
        .into_iter()
        .map(|stripe| stripe.map(Vec::into_iter))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((0..chunks)
        .map(|chunk| stripes[chunk % workers].next().expect("one run per chunk"))
        .collect())
}

/// Bytes of the whole records at the front of sorted `bytes` whose key is
/// `<= bound` (a binary search over keys read in place).
fn prefix_bytes(bytes: &[u8], bound: u128) -> usize {
    let (records, _) = bytes.as_chunks::<RECORD_BYTES>();
    records.partition_point(|r| record_key_at(r, 0) <= bound) * RECORD_BYTES
}

/// Cut the next slice off the runs: every record `<=` a key bound under
/// which no run gives more than `share` — `slice_bytes` split over the
/// last cut's `live` runs — and one gives all of it, the runs' parts
/// back to back in run order. `None` when drained. The bound is a full
/// key, not a time: many UEs sharing one millisecond would otherwise
/// force a slice past its size.
fn cut_slice(
    readers: &mut [RunReader],
    slice_bytes: usize,
    live: &mut usize,
) -> Result<Option<Vec<u8>>, StreamError> {
    let share = (slice_bytes / RECORD_BYTES / (*live).max(1)).max(1) * RECORD_BYTES;
    let mut bound = u128::MAX;
    *live = 0;
    for reader in readers.iter_mut() {
        // Topped up to its share, a window that still falls short is the
        // whole rest of its run: it hides no record below any bound.
        reader.read_bytes = SPILL_READ_SHARES * share;
        while reader.window().len() < share && reader.refill()? {}
        let window = reader.window();
        *live += usize::from(!window.is_empty());
        if window.len() >= share {
            bound = bound.min(record_key_at(window, share / RECORD_BYTES - 1));
        }
    }
    if *live == 0 {
        return Ok(None);
    }
    let cuts: Vec<usize> = readers
        .iter()
        .map(|reader| prefix_bytes(reader.window(), bound))
        .collect();
    let mut slice = Vec::with_capacity(cuts.iter().sum());
    for (reader, cut) in readers.iter_mut().zip(cuts) {
        slice.extend_from_slice(&reader.window()[..cut]);
        reader.consume(cut);
    }
    Ok(Some(slice))
}

/// Order one slice's encoded records in place with a stable radix on
/// `t_ms` alone, which yields the full key order (see "Byte identity" in
/// the module docs); `scratch` is the radix's buffer.
fn sort_slice(slice: &mut [u8], scratch: &mut Vec<[u8; RECORD_BYTES]>) {
    let (records, _) = slice.as_chunks_mut::<RECORD_BYTES>();
    let t_ms = |r: &[u8; RECORD_BYTES]| u64::from_le_bytes(*r.first_chunk().expect("8-byte t_ms"));
    let (min, max) =
        (records.iter().map(t_ms)).fold((u64::MAX, 0), |(lo, hi), t| (lo.min(t), hi.max(t)));
    let time_bits = 0..u64::BITS - max.saturating_sub(min).leading_zeros();
    radix_sort(records, scratch, time_bits, |r| t_ms(r) - min);
    debug_assert!(
        records.is_sorted_by_key(|r| record_key_at(r, 0)),
        "slice out of key order"
    );
}

/// The calling thread's side of phase 2: deal slices round-robin to the
/// merge workers and land their outputs on `writer` strictly in slice
/// order, coalesced through one output window.
fn slice_and_write<W: Write + Seek>(
    readers: &mut [RunReader],
    txs: &[SyncSender<(usize, Vec<u8>)>],
    lanes: &[Lane<'_, Vec<u8>>],
    writer: &mut BinaryStreamWriter<W>,
    slice_bytes: usize,
) -> Result<(), StreamError> {
    // A worker only hangs up by panicking; the join reports that instead.
    fn hung_up<E>(_: E) -> StreamError {
        io_err("merge-worker", "hung up mid-merge")
    }
    let mut write = |bytes: &[u8]| {
        writer
            .write_encoded(bytes)
            .map_err(|e| io_err("export-write", e))
    };
    let mut staged: Vec<u8> = Vec::with_capacity(OUTPUT_WINDOW_BYTES);
    let (mut dealt, mut landed, mut live) = (0usize, 0usize, readers.len());
    loop {
        let slice = cut_slice(readers, slice_bytes, &mut live)?;
        // Land the oldest slice when the workers hold their fill, and
        // every one once the runs are drained.
        while landed < dealt
            && (slice.is_none() || dealt - landed == lanes.len() * MERGE_WORKER_SLICES)
        {
            let out = lanes[landed % lanes.len()].rx.recv().map_err(hung_up)?;
            landed += 1;
            if staged.len() + out.len() > OUTPUT_WINDOW_BYTES {
                write(&staged)?;
                staged.clear();
            }
            if out.len() >= OUTPUT_WINDOW_BYTES {
                // Already window-sized (nothing is staged ahead of it
                // now): straight through, no copy.
                write(&out)?;
            } else {
                staged.extend_from_slice(&out);
            }
        }
        let Some(slice) = slice else {
            return write(&staged);
        };
        txs[dealt % txs.len()]
            .send((dealt, slice))
            .map_err(hung_up)?;
        dealt += 1;
    }
}

/// Phase 2: range-partitioned merge of the encoded runs into `writer` —
/// slices cut and written on this thread, sorted on `workers` scoped
/// threads (see module docs). `plan` names slices.
fn merge_runs<W: Write + Seek>(
    runs: Vec<RunStore>,
    writer: &mut BinaryStreamWriter<W>,
    workers: usize,
    slice_bytes: usize,
    trace: &TraceSink,
    plan: &FaultPlan,
) -> Result<(), StreamError> {
    let _merge_span = trace.is_enabled().then(|| trace.span("cn_gen_ooc_merge"));
    let mut readers = runs
        .into_iter()
        .map(RunReader::new)
        .collect::<Result<Vec<_>, _>>()?;
    std::thread::scope(|scope| {
        let (txs, lanes): (Vec<_>, Vec<_>) = (0..workers.max(1))
            .map(|first| {
                let (tx, slices) = sync_channel::<(usize, Vec<u8>)>(MERGE_WORKER_SLICES);
                let (out_tx, rx) = sync_channel(MERGE_WORKER_SLICES);
                let trace = trace.clone();
                let handle = scope.spawn(move || {
                    let (mut slice, mut scratch) = (first, Vec::new());
                    catch_unwind(AssertUnwindSafe(|| {
                        for (n, mut bytes) in slices {
                            slice = n;
                            let _slice_span = trace
                                .is_enabled()
                                .then(|| trace.span(&format!("cn_gen_ooc_merge_slice:{n}")));
                            if let Some(mut fault) = plan.for_shard(n) {
                                fault.on_fill((bytes.len() / RECORD_BYTES) as u64);
                            }
                            sort_slice(&mut bytes, &mut scratch);
                            if out_tx.send(bytes).is_err() {
                                return;
                            }
                        }
                    }))
                    .map_err(|payload| StreamError::WorkerPanicked {
                        shard: slice,
                        payload: panic_payload(payload.as_ref()),
                    })
                });
                (tx, Lane { first, rx, handle })
            })
            .unzip();
        let merged = slice_and_write(&mut readers, &txs, &lanes, writer, slice_bytes);
        // Hang up both ways — a worker waiting for a slice, merging one or
        // blocked handing one back exits — and join every worker inside
        // the scope. A panic outranks the hang-up it caused on this side.
        drop(txs);
        let mut panicked = Ok(());
        for lane in lanes {
            panicked = panicked.and(lane.join());
        }
        panicked.and(merged)
    })
}

/// Generate `config`'s population straight into a binary-format sink
/// under the memory bounds of `occ` (see module docs), returning the
/// export report and the sink.
///
/// The produced bytes are identical to
/// `cn_trace::io::to_binary(&crate::generate(models, config))` for every
/// `occ` and every `config.threads` — chunking, spilling and the worker
/// count change *where* bytes wait, never what is written. On error the
/// sink is left with the unfinished-count sentinel in its header
/// (finish-or-recover contract: the partial export cannot pose as a
/// complete trace).
pub fn generate_out_of_core<W: Write + Seek>(
    models: &ModelSet,
    config: &GenConfig,
    occ: &OutOfCoreConfig,
    sink: W,
) -> Result<(OutOfCoreReport, W), StreamError> {
    export_with_faults(models, config, occ, sink, &FaultPlan::new())
}

/// [`generate_out_of_core`] with `plan`'s faults injected into the chunks
/// it names, as [`crate::ShardedStream`]'s pool takes them: empty in
/// production, a test's plan in this module's tests.
fn export_with_faults<W: Write + Seek>(
    models: &ModelSet,
    config: &GenConfig,
    occ: &OutOfCoreConfig,
    sink: W,
    plan: &FaultPlan,
) -> Result<(OutOfCoreReport, W), StreamError> {
    let mut writer = BinaryStreamWriter::new(sink).map_err(|e| io_err("export-header", e))?;
    // One sink resolution for the whole export, cloned into the workers:
    // the merge span nests under the export span on this thread, chunk,
    // spill and slice spans open on the workers' own threads.
    let trace = cn_obs::trace::global();
    let _export_span = trace.is_enabled().then(|| trace.span("cn_gen_ooc_export"));

    let runs = generate_runs(models, config, occ, &trace, plan)?;
    let run_count = runs.len();
    let spilled_runs = runs.iter().filter(|r| r.is_spilled()).count();

    merge_runs(
        runs,
        &mut writer,
        config.resolved_threads(),
        MERGE_SLICE_BYTES,
        &trace,
        &FaultPlan::new(),
    )?;

    let events = writer.written();
    let sink = writer.finish().map_err(|e| io_err("export-finish", e))?;
    Ok((
        OutOfCoreReport {
            events,
            runs: run_count,
            spilled_runs,
            bytes_written: 16 + events * RECORD_BYTES as u64,
        },
        sink,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::generate;
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::io::{from_binary, recover_binary, to_binary, FailingWriter, UNFINISHED_COUNT};
    use cn_trace::{PopulationMix, Timestamp};
    use cn_world::{generate_world, WorldConfig};
    use proptest::prelude::*;
    use std::io::Cursor;
    use std::time::Duration;

    fn fitted() -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(24, 10, 6), 2.0, 5));
        fit(&trace, &FitConfig::new(Method::Ours))
    }

    fn config() -> GenConfig {
        GenConfig::new(
            PopulationMix::new(18, 8, 5),
            Timestamp::at_hour(0, 9),
            2.0,
            7,
        )
    }

    /// As [`config`] with an explicit worker count.
    fn config_threads(threads: usize) -> GenConfig {
        GenConfig {
            threads,
            ..config()
        }
    }

    /// A population whose export spans several output windows and whose
    /// single-UE chunks interleave record by record.
    fn wide_config() -> GenConfig {
        GenConfig::new(
            PopulationMix::new(600, 250, 150),
            Timestamp::at_hour(0, 9),
            24.0,
            11,
        )
    }

    fn occ(chunk_ues: u32, budget: usize) -> OutOfCoreConfig {
        OutOfCoreConfig {
            chunk_ues,
            buffer_budget_bytes: budget,
            temp_dir: None,
        }
    }

    /// A sink left by a failed export: at most the header, carrying the
    /// unfinished sentinel, so it can never parse as a complete trace.
    fn assert_unfinished_header_only(bytes: &[u8]) {
        assert_eq!(bytes.len(), 16, "the merge never started");
        assert_eq!(bytes[8..], UNFINISHED_COUNT.to_le_bytes());
        assert!(from_binary(bytes).is_err());
    }

    /// The export with the merge's private arguments — worker count,
    /// slice size, sink for the slice spans, faults by slice — in the
    /// caller's hands.
    fn export_sliced<W: Write + Seek>(
        models: &ModelSet,
        config: &GenConfig,
        occ: &OutOfCoreConfig,
        sink: W,
        (workers, slice_bytes): (usize, usize),
        trace: &TraceSink,
        plan: &FaultPlan,
    ) -> Result<W, StreamError> {
        let mut writer = BinaryStreamWriter::new(sink).unwrap();
        let runs = generate_runs(
            models,
            config,
            occ,
            &TraceSink::disabled(),
            &FaultPlan::new(),
        )?;
        merge_runs(runs, &mut writer, workers, slice_bytes, trace, plan)?;
        Ok(writer.finish().unwrap())
    }

    #[test]
    fn matches_batch_to_binary_across_chunks_and_budgets() {
        let models = fitted();
        let batch = generate(&models, &config());
        let expect = to_binary(&batch);
        let total = config().population.total();
        // A chunk whose UEs are all silent yields an empty run, which
        // never spills, whatever the budget.
        let nonempty_runs = |chunk: u32| {
            (0..total)
                .step_by(chunk as usize)
                .filter(|&lo| {
                    batch
                        .iter()
                        .any(|r| (lo..lo.saturating_add(chunk)).contains(&r.ue.get()))
                })
                .count()
        };
        // (chunk size, budget): single chunk, fine chunks; all-memory,
        // forced-spill (0), and a budget small enough to spill some runs
        // but not all — each at one worker, a few, and more workers than
        // there are chunks.
        for (chunk, budget) in [
            (1_000, usize::MAX),
            (1_000, 0),
            (7, usize::MAX),
            (7, 0),
            (7, 4 * 1024),
            (1, 0),
            (5, 64),
        ] {
            for threads in [1, 2, 3, 8] {
                let what = format!("chunk {chunk} budget {budget} threads {threads}");
                let (report, cursor) = generate_out_of_core(
                    &models,
                    &config_threads(threads),
                    &occ(chunk, budget),
                    Cursor::new(Vec::new()),
                )
                .unwrap_or_else(|e| panic!("{what}: {e}"));
                let bytes = cursor.into_inner();
                assert_eq!(bytes, expect, "{what}: bytes diverged");
                assert_eq!(report.events as usize, (bytes.len() - 16) / RECORD_BYTES);
                assert_eq!(report.bytes_written, bytes.len() as u64);
                assert_eq!(
                    report.runs,
                    (total as usize).div_ceil(chunk as usize),
                    "{what}"
                );
                if budget == 0 {
                    assert_eq!(
                        report.spilled_runs,
                        nonempty_runs(chunk),
                        "{what}: zero budget spills every non-empty run"
                    );
                } else if budget == usize::MAX {
                    assert_eq!(
                        report.spilled_runs, 0,
                        "{what}: unbounded budget spills none"
                    );
                }
                // The same runs cut into slices of one record (a boundary
                // after every record: inside a spill read, on a run's
                // last), of a prime number of records, and of a size
                // that is no whole number of records.
                for slice_bytes in [RECORD_BYTES, 97 * RECORD_BYTES, 1000] {
                    let sliced = export_sliced(
                        &models,
                        &config_threads(threads),
                        &occ(chunk, budget),
                        Cursor::new(Vec::new()),
                        (threads, slice_bytes),
                        &TraceSink::disabled(),
                        &FaultPlan::new(),
                    )
                    .unwrap_or_else(|e| panic!("{what} slice {slice_bytes}: {e}"));
                    assert!(
                        sliced.into_inner() == expect,
                        "{what} slice {slice_bytes}: bytes diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn report_is_a_pure_function_of_config_and_thread_count() {
        // Which runs spill depends on the order a worker appends blocks
        // to its share of the budget; a stripe's chunk order is fixed,
        // never timing, so a budget that spills some runs but not all
        // reports the same split every time.
        let models = fitted();
        for threads in [1, 2, 3, 8] {
            let export = || {
                generate_out_of_core(
                    &models,
                    &config_threads(threads),
                    &occ(3, 2 * 1024),
                    Cursor::new(Vec::new()),
                )
                .unwrap()
                .0
            };
            let first = export();
            assert!(
                0 < first.spilled_runs && first.spilled_runs < first.runs,
                "threads {threads}: the budget must split the runs, got {first:?}"
            );
            for _ in 0..4 {
                assert_eq!(export(), first, "threads {threads}");
            }
        }
    }

    #[test]
    fn empty_population_exports_an_empty_trace() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(0, 0, 0),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        let (report, cursor) = generate_out_of_core(
            &models,
            &config,
            &OutOfCoreConfig::default(),
            Cursor::new(Vec::new()),
        )
        .unwrap();
        assert_eq!(report.events, 0);
        assert_eq!(report.runs, 0);
        assert_eq!(from_binary(&cursor.into_inner()).unwrap().len(), 0);
    }

    /// Counts the `write` calls that reach the wrapped cursor.
    struct CountingWriter {
        inner: Cursor<Vec<u8>>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.inner.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    impl Seek for CountingWriter {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn sink_writes_scale_with_bytes_not_with_merge_prefixes() {
        // One run per UE: the merge hands over a prefix every time the
        // next record belongs to another UE, i.e. nearly once per record.
        let models = fitted();
        let config = wide_config();
        let batch = generate(&models, &config);
        let records: Vec<_> = batch.iter().collect();
        let prefixes = 1 + records.windows(2).filter(|w| w[0].ue != w[1].ue).count();
        assert!(
            prefixes > 100_000,
            "workload too coarse to show anything: {prefixes} prefixes"
        );
        let sink = CountingWriter {
            inner: Cursor::new(Vec::new()),
            writes: 0,
        };
        let (report, sink) =
            generate_out_of_core(&models, &config, &occ(1, 1 << 20), sink).unwrap();
        assert_eq!(sink.inner.get_ref(), &to_binary(&batch));
        // Two header writes, the count patch, and one write per window
        // (a window closes at most one sub-window prefix short of full).
        let windows = (report.bytes_written as usize).div_ceil(OUTPUT_WINDOW_BYTES);
        assert!(
            sink.writes <= 3 + 2 * windows,
            "{} writes for {} bytes ({windows} windows, {prefixes} prefixes)",
            sink.writes,
            report.bytes_written
        );
    }

    #[test]
    fn failing_sink_is_a_typed_error_and_never_a_complete_trace() {
        let models = fitted();
        let config = config();
        // Enough budget for the header plus a few records: the export
        // write must fail mid-merge.
        let mut backing = Cursor::new(Vec::new());
        let sink = FailingWriter::new(&mut backing, 16 + 10 * RECORD_BYTES);
        let err = match generate_out_of_core(&models, &config, &occ(7, usize::MAX), sink) {
            Err(e) => e,
            Ok((report, _)) => panic!("sink budget exhausted, yet export wrote {report:?}"),
        };
        assert!(
            matches!(err, StreamError::Io { stage, .. } if stage.starts_with("export")),
            "{err}"
        );
        // Finish never ran: the unfinished sentinel makes the partial
        // file fail from_binary (finish-or-recover contract) even though
        // the whole export sat in the output window and only the header
        // landed.
        let bytes = backing.into_inner();
        assert!(!bytes.is_empty(), "header reached the sink");
        assert!(
            from_binary(&bytes).is_err(),
            "partial export must not parse"
        );
    }

    /// Export into a sink that dies after `budget` bytes and hold what
    /// landed to the finish-or-recover contract against the clean bytes.
    fn assert_fault_offset_contained(
        models: &ModelSet,
        config: &GenConfig,
        occ: &OutOfCoreConfig,
        clean: &[u8],
        budget: usize,
    ) {
        let mut backing = Cursor::new(Vec::new());
        let sink = FailingWriter::new(&mut backing, budget);
        let err = match generate_out_of_core(models, config, occ, sink) {
            Err(e) => e,
            Ok(_) => panic!(
                "budget {budget} of {} bytes, yet the export finished",
                clean.len()
            ),
        };
        assert!(
            matches!(err, StreamError::Io { stage, .. } if stage.starts_with("export-")),
            "budget {budget}: {err}"
        );
        let landed = backing.into_inner();
        assert!(landed.len() <= budget, "budget {budget}");
        // A strict prefix of the clean export, modulo the count field.
        let mut want = clean[..landed.len()].to_vec();
        if let Some(count) = want.get_mut(8..16) {
            count.copy_from_slice(&UNFINISHED_COUNT.to_le_bytes());
        }
        assert_eq!(landed, want, "budget {budget}: not a prefix");
        assert!(from_binary(&landed).is_err(), "budget {budget}: parsed");
        if landed.len() >= 16 {
            // Only whole windows of whole records ever reach the sink.
            let salvaged = recover_binary(&landed)
                .unwrap_or_else(|e| panic!("budget {budget}: payload is whole records: {e}"));
            assert_eq!(to_binary(&salvaged)[16..], clean[16..landed.len()]);
        }
    }

    #[test]
    fn no_sink_fault_offset_yields_bytes_that_parse() {
        let models = fitted();
        // A small export sits entirely inside the output window: every
        // fault offset lands at most the header. Byte by byte through the
        // header and the first records, then at a stride coprime to the
        // record size.
        let small = config();
        let clean = to_binary(&generate(&models, &small));
        let head = 16 + 4 * RECORD_BYTES;
        assert!(clean.len() > head && clean.len() < OUTPUT_WINDOW_BYTES);
        for budget in (0..head).chain((head..clean.len()).step_by(97)) {
            assert_fault_offset_contained(&models, &small, &occ(7, 4 * 1024), &clean, budget);
        }
        // An export of several windows: whole windows land before the
        // fault. Probe each window edge from both sides, and the last
        // byte.
        let wide = GenConfig {
            duration_hours: 2.0,
            ..wide_config()
        };
        let clean = to_binary(&generate(&models, &wide));
        let windows = (clean.len() - 16) / OUTPUT_WINDOW_BYTES;
        assert!((2..=5).contains(&windows), "{} bytes", clean.len());
        let edges = (1..=windows).flat_map(|w| {
            let edge = 16 + w * OUTPUT_WINDOW_BYTES;
            [edge - 1, edge, edge + 1]
        });
        for budget in edges.chain([clean.len() - 1]) {
            assert_fault_offset_contained(&models, &wide, &occ(64, 1 << 20), &clean, budget);
        }
    }

    #[test]
    fn chunk_worker_panic_is_a_typed_error_naming_the_chunk() {
        let models = fitted();
        // 31 UEs in chunks of 7: five chunks. Panic in a worker's first
        // chunk, in a later chunk of its stripe, before the first record
        // and mid-run — at one worker, several, and more than chunks.
        for threads in [1, 2, 3, 8] {
            for (chunk, k) in [(0, 0), (1, 3), (3, 0), (4, 2)] {
                let plan = FaultPlan::new().panic_shard_at(chunk, k);
                let mut sink = Cursor::new(Vec::new());
                let err = export_with_faults(
                    &models,
                    &config_threads(threads),
                    &occ(7, usize::MAX),
                    &mut sink,
                    &plan,
                )
                .expect_err("a chunk worker panicked");
                match &err {
                    StreamError::WorkerPanicked { shard, payload } => {
                        assert_eq!(*shard, chunk, "threads {threads}: {err}");
                        assert!(payload.contains(&format!("record {k}")), "{err}");
                    }
                    other => panic!("threads {threads} chunk {chunk}: {other}"),
                }
                assert_unfinished_header_only(sink.get_ref());
            }
        }
    }

    #[test]
    fn merge_worker_panic_is_a_typed_error_naming_the_slice() {
        let models = fitted();
        // 97-record slices of a ~700-record export: panic on the first
        // slice and on a later one, at one worker and at several.
        for workers in [1, 2, 3] {
            for slice in [0, 5] {
                let plan = FaultPlan::new().panic_shard_at(slice, 0);
                let mut sink = Cursor::new(Vec::new());
                let err = export_sliced(
                    &models,
                    &config(),
                    &occ(7, 4 * 1024),
                    &mut sink,
                    (workers, 97 * RECORD_BYTES),
                    &TraceSink::disabled(),
                    &plan,
                )
                .expect_err("a merge worker panicked");
                match &err {
                    StreamError::WorkerPanicked { shard, payload } => {
                        assert_eq!(*shard, slice, "workers {workers}: {err}");
                        assert!(payload.contains("injected fault"), "{err}");
                    }
                    other => panic!("workers {workers} slice {slice}: {other}"),
                }
                assert_unfinished_header_only(sink.get_ref());
            }
        }
    }

    #[test]
    fn sink_error_mid_merge_hangs_up_on_busy_merge_workers() {
        // Quarter-window slices, every one held up 10 ms on its worker,
        // and a sink that dies on the first window: when the write fails
        // the workers hold a full deal of slices — asleep mid-slice or
        // waiting to hand one back. Returning at all shows the hang-up
        // reached them; the error is the sink's.
        let models = fitted();
        let wide = GenConfig {
            duration_hours: 2.0,
            threads: 2,
            ..wide_config()
        };
        let plan = (0..1024).fold(FaultPlan::new(), |plan, slice| {
            plan.slow_shard(slice, Duration::from_millis(10))
        });
        let mut backing = Cursor::new(Vec::new());
        let err = export_sliced(
            &models,
            &wide,
            &occ(64, 1 << 20),
            FailingWriter::new(&mut backing, 16 + 10 * RECORD_BYTES),
            (2, OUTPUT_WINDOW_BYTES / 4),
            &TraceSink::disabled(),
            &plan,
        )
        .map(drop)
        .expect_err("the sink dies on the first window");
        assert!(
            matches!(
                err,
                StreamError::Io {
                    stage: "export-write",
                    ..
                }
            ),
            "{err}"
        );
        assert_unfinished_header_only(backing.get_ref());
    }

    #[test]
    fn every_slice_is_a_span_on_its_merge_workers_thread() {
        let models = fitted();
        let trace = TraceSink::new();
        export_sliced(
            &models,
            &config(),
            &occ(7, usize::MAX),
            Cursor::new(Vec::new()),
            (2, 97 * RECORD_BYTES),
            &trace,
            &FaultPlan::new(),
        )
        .unwrap();
        let events = trace.events();
        let merge = events
            .iter()
            .find(|e| e.name == "cn_gen_ooc_merge")
            .expect("the calling thread's span");
        let mut spans: Vec<(usize, u64)> = events
            .iter()
            .filter_map(|e| {
                let n = e.name.strip_prefix("cn_gen_ooc_merge_slice:")?;
                assert!(
                    merge.ts_us <= e.ts_us && e.ts_us + e.dur_us <= merge.ts_us + merge.dur_us + 2,
                    "{e:?} outside {merge:?}"
                );
                assert_ne!(e.tid, merge.tid, "slice {n} merged on the calling thread");
                Some((n.parse().unwrap(), e.tid))
            })
            .collect();
        spans.sort_unstable();
        assert!(spans.len() > 4, "{spans:?}");
        assert_ne!(spans[0].1, spans[1].1, "one thread merged everything");
        for (i, &(n, tid)) in spans.iter().enumerate() {
            // Slice n goes to worker n mod 2, whatever the timing.
            assert_eq!((n, tid), (i, spans[i % 2].1), "{spans:?}");
        }
    }

    #[test]
    fn equal_keys_across_runs_leave_the_lower_run_first_at_every_slice_size() {
        // A UE lives in one chunk, so generated runs never share a key.
        // Three hand-built runs share every one of theirs, each twice
        // over; the device byte, no part of the key, tells a record's run.
        // The stable order is the generic merge rule: run 0's
        // records of a key, then run 1's, then run 2's.
        use cn_trace::{DeviceType, EventType, TraceRecord, UeId};
        let devices = [
            DeviceType::Phone,
            DeviceType::ConnectedCar,
            DeviceType::Tablet,
        ];
        let record = |t: u64, d| {
            TraceRecord::new(Timestamp::from_millis(t / 2), UeId(3), d, EventType::Attach)
        };
        let mut expect = EncodedBlock::new();
        for t in (0..40).step_by(2) {
            for d in devices {
                expect.push(&record(t, d));
                expect.push(&record(t + 1, d));
            }
        }
        for budget in [usize::MAX, 0] {
            for workers in [1, 2] {
                for slice_records in [1, 2, 3, 7, 1000] {
                    let runs = devices
                        .iter()
                        .map(|&d| {
                            let mut block = EncodedBlock::new();
                            (0..40).for_each(|t| block.push(&record(t, d)));
                            let mut run = RunStore::new();
                            run.append(block.as_bytes(), &mut 0, budget, &occ(1, budget))
                                .unwrap();
                            run
                        })
                        .collect();
                    let mut writer = BinaryStreamWriter::new(Cursor::new(Vec::new())).unwrap();
                    merge_runs(
                        runs,
                        &mut writer,
                        workers,
                        slice_records * RECORD_BYTES,
                        &TraceSink::disabled(),
                        &FaultPlan::new(),
                    )
                    .unwrap();
                    assert!(
                        writer.finish().unwrap().into_inner()[16..] == *expect.as_bytes(),
                        "budget {budget} workers {workers} slices of {slice_records}"
                    );
                }
            }
        }
    }

    /// A slice as [`cut_slice`] lays one down: runs over disjoint
    /// ascending UE ranges, each `(t, ue)`-sorted, back to back in run
    /// order. Every UE has an event at one shared time, so times tie across
    /// runs; the slice sits at an arbitrary origin.
    fn arb_slice() -> impl Strategy<Value = Vec<u8>> {
        use cn_trace::{DeviceType, EventType, TraceRecord, UeId};
        let ue = proptest::collection::vec((1u64..4, 0usize..6), 0..12);
        let run = (proptest::collection::vec(ue, 1..4), 0u32..3);
        let runs = proptest::collection::vec(run, 1..6);
        (runs, 0u64..1 << 40, 0u64..30).prop_map(|(runs, origin, tie)| {
            let (mut slice, mut ue) = (EncodedBlock::new(), 0);
            for (ues, skip) in runs {
                let mut records = Vec::new();
                for steps in ues {
                    let mut t = 0;
                    let mut times: Vec<u64> = (steps.iter())
                        .map(|&(gap, _)| {
                            t += gap;
                            t
                        })
                        .chain([tie])
                        .collect();
                    times.sort_unstable();
                    times.dedup();
                    for (i, t) in times.into_iter().enumerate() {
                        let event = EventType::ALL[steps.get(i).map_or(0, |&(_, e)| e)];
                        let t = Timestamp::from_millis(origin + t);
                        records.push(TraceRecord::new(t, UeId(ue), DeviceType::Phone, event));
                    }
                    ue += 1;
                }
                records.sort_unstable();
                records.iter().for_each(|r| slice.push(r));
                ue += skip;
            }
            slice.as_bytes().to_vec()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The stable time radix orders such a slice exactly as the
        /// stable sort by full key does, whatever its scratch held before.
        #[test]
        fn slice_time_radix_equals_the_full_key_sort(slice in arb_slice(), stale in 0usize..64) {
            let mut expected = slice.clone();
            let (records, _) = expected.as_chunks_mut::<RECORD_BYTES>();
            records.sort_by_key(|r| record_key_at(r, 0));
            let mut got = slice;
            sort_slice(&mut got, &mut vec![[0xa5; RECORD_BYTES]; stale]);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn spill_error_hangs_up_on_blocked_workers() {
        // No spill directory, one-UE chunks and a 3 KiB share for each of
        // two workers: a worker fails once its runs outgrow its share.
        // Worker 0 sleeps in every chunk, so worker 1 fails first, and its
        // stop flag must end worker 0 at its next block — long before
        // worker 0 would outgrow its own share and fail by itself.
        let models = fitted();
        let config = config_threads(2);
        let total = config.population.total();
        let mut bad = occ(1, 6 * 1024);
        bad.temp_dir = Some(PathBuf::from("/nonexistent-cn-gen-spill-dir"));
        let plan = (0..total as usize)
            .step_by(2)
            .fold(FaultPlan::new(), |plan, chunk| {
                plan.slow_shard(chunk, Duration::from_millis(50))
            });
        let spill_create = |err: &StreamError| {
            matches!(
                err,
                StreamError::Io {
                    stage: "spill-create",
                    ..
                }
            )
        };
        let trace = TraceSink::new();
        let err = generate_runs(&models, &config, &bad, &trace, &plan)
            .map(drop)
            .expect_err("spill dir does not exist");
        assert!(spill_create(&err), "{err}");
        // The chunk at which worker 0's runs, alone, outgrow its share.
        let batch = generate(&models, &config);
        let mut buffered = 0;
        let alone = 1
            + (0..total)
                .step_by(2)
                .position(|ue| {
                    buffered += batch.iter().filter(|r| r.ue.get() == ue).count() * RECORD_BYTES;
                    buffered > bad.buffer_budget_bytes / 2
                })
                .expect("worker 0 outgrows its share");
        let ran = (trace.events().iter())
            .filter_map(|e| e.name.strip_prefix("cn_gen_ooc_chunk:"))
            .filter(|ues| ues.split('-').next().unwrap().parse::<u32>().unwrap() % 2 == 0)
            .count();
        assert!(
            alone >= 3 && ran < alone,
            "worker 0 ran {ran} chunks; alone it fails in chunk {alone} of its stripe"
        );
        let mut sink = Cursor::new(Vec::new());
        let err = export_with_faults(&models, &config, &bad, &mut sink, &plan)
            .map(drop)
            .expect_err("spill dir does not exist");
        assert!(spill_create(&err), "{err}");
        assert_unfinished_header_only(sink.get_ref());
    }

    #[test]
    fn unwritable_temp_dir_is_a_typed_spill_create_error() {
        let models = fitted();
        let config = config();
        let mut bad = occ(7, 0); // zero budget: first append must spill
        bad.temp_dir = Some(PathBuf::from("/nonexistent-cn-gen-spill-dir"));
        let err = generate_out_of_core(&models, &config, &bad, Cursor::new(Vec::new()))
            .expect_err("spill dir does not exist");
        assert!(
            matches!(
                err,
                StreamError::Io {
                    stage: "spill-create",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn torn_spill_file_is_a_typed_spill_read_error() {
        // A spill file shorter than the run's recorded length (torn
        // trailing write, ENOSPC, external truncation) must fail the
        // merge with a typed error — never emit a shortened trace.
        let mut store = RunStore::new();
        let mut buffered = 0usize;
        let cfg = occ(1, 0); // zero budget: append goes straight to disk
        let mut block = EncodedBlock::new();
        for t in 0..10u64 {
            block.push(&cn_trace::TraceRecord::new(
                Timestamp::from_millis(t),
                cn_trace::UeId(0),
                cn_trace::DeviceType::Phone,
                cn_trace::EventType::Attach,
            ));
        }
        store
            .append(block.as_bytes(), &mut buffered, 0, &cfg)
            .unwrap();
        assert!(store.is_spilled());
        // Tear the file: claim the full length but truncate the bytes.
        if let RunData::Spilled(file) = &store.data {
            file.set_len(store.len_bytes - 7).unwrap();
        }
        // The exact-length read hits the tear either on the eager first
        // window (small runs) or on a later refill.
        let err = match RunReader::new(store) {
            Err(e) => e,
            Ok(mut reader) => loop {
                let w = reader.window().len();
                reader.consume(w);
                match reader.refill() {
                    Ok(true) => continue,
                    Ok(false) => panic!("torn file read as clean exhaustion"),
                    Err(e) => break e,
                }
            },
        };
        assert!(
            matches!(
                err,
                StreamError::Io {
                    stage: "spill-read",
                    ..
                }
            ),
            "{err}"
        );
    }
}
