//! Measurement plumbing shared by the four workloads: process CPU time and
//! peak RSS from `/proc`, order statistics, a running record hash, O(1)
//! memory histograms, and the stage tracer of the traced run.
//!
//! Everything here is memory-constant in the number of events, so the
//! harness never shows up in `peak_rss_mb`.

use cn_obs::{TraceSink, TraceSpan};
use cn_trace::TraceRecord;
use std::path::Path;
use std::time::Instant;

/// CPU seconds (user + system) this process has used so far, all threads,
/// exited ones included (`/proc/self/stat` fields 14 and 15, in `USER_HZ` =
/// 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; count from its closing paren.
    let (_, rest) = stat
        .rsplit_once(')')
        .expect("/proc/self/stat has a comm field");
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (ticks() + ticks()) as f64 / 100.0
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Hand the allocator's free pages back to the kernel, then reset the
/// kernel's peak-RSS watermark (`VmHWM`) to the current RSS, so what set-up
/// allocated and freed does not count towards a workload's `peak_rss_mb`.
/// Without the trim, glibc keeps set-up's freed heap (~160 MiB) resident and
/// every workload smaller than that reads the same. Where the kernel refuses
/// the reset (no `clear_refs`), the watermark simply keeps the set-up peak.
pub fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and may be called at any
        // time from any thread; it only releases pages that are already free.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// rule the acceptance check is written in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Running FNV-1a over each record's two packed words (`t_ms`, then
/// `ue << 16 | device << 8 | event` — the same fields the 14-byte wire
/// frame carries). Word-wise instead of byte-wise so the check costs two
/// multiplies per record and stays out of the numbers it guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHash {
    fnv: u64,
    /// Records folded in.
    pub count: u64,
    last_t_ms: u64,
    /// False once a record arrived with an earlier timestamp than its
    /// predecessor.
    pub sorted: bool,
}

impl Default for RecordHash {
    fn default() -> RecordHash {
        RecordHash {
            fnv: 0xcbf2_9ce4_8422_2325,
            count: 0,
            last_t_ms: 0,
            sorted: true,
        }
    }
}

impl RecordHash {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    #[inline]
    pub fn push(&mut self, r: &TraceRecord) {
        let t = r.t.as_millis();
        let tail = u64::from(r.ue.get()) << 16
            | u64::from(r.device.code()) << 8
            | u64::from(r.event.code());
        self.fnv = (self.fnv ^ t).wrapping_mul(Self::PRIME);
        self.fnv = (self.fnv ^ tail).wrapping_mul(Self::PRIME);
        self.sorted &= t >= self.last_t_ms;
        self.last_t_ms = t;
        self.count += 1;
    }

    pub fn fnv(&self) -> u64 {
        self.fnv
    }
}

/// FNV-1a over bytes, for hashing rendered reports.
pub fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(RecordHash::PRIME)
    })
}

/// A 64-bit hash as a metric value: its top 53 bits, which an `f64` (and so
/// a JSON number) holds exactly.
pub fn hash_metric(h: u64) -> f64 {
    (h >> 11) as f64
}

/// Log-linear histogram of `u64` values: 128 sub-buckets per power of two,
/// so a reported quantile is within 1/128 (< 1 %) of the true value. Fixed
/// size whatever the sample count.
pub struct LogLinHist {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

impl Default for LogLinHist {
    fn default() -> LogLinHist {
        LogLinHist {
            buckets: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            count: 0,
            max: 0,
        }
    }
}

impl LogLinHist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // >= SUB_BITS
        let octave = u64::from(e - SUB_BITS);
        (SUB + octave * SUB + ((v >> octave) - SUB)) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let octave = (i - SUB) / SUB;
        let lo = (SUB + (i - SUB) % SUB) as f64 * (1u64 << octave) as f64;
        (lo, (1u64 << octave) as f64)
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value below which `rank` samples lie, interpolated inside its
    /// bucket; `None` when `rank` is beyond the sample count.
    fn value_at_rank(&self, rank: f64) -> Option<f64> {
        let mut before = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let (lo, width) = Self::bucket(i);
                return Some(lo + width * (rank - before as f64) / c as f64);
            }
            before += c;
        }
        None
    }

    /// Quantile `q` in `[0, 1]` (0.0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        self.value_at_rank(q * self.count as f64).unwrap_or(0.0)
    }
}

/// Histogram of *signed* nanosecond offsets for min-anchored lag: 256 ns
/// linear bins across ±67 ms around the provisional anchor (the first
/// record), a [`LogLinHist`] beyond, and the exact minimum kept aside. The
/// anchor can be moved to the true minimum only after the last sample, so
/// the bins must not depend on it — which rules out a purely logarithmic
/// layout.
pub struct LagHist {
    linear: Vec<u32>,
    over: LogLinHist,
    /// Samples more than 67 ms *before* the anchor (clamped into bin 0).
    pub underflow: u64,
    min_ns: i64,
    count: u64,
}

const LAG_BIN_SHIFT: u32 = 8;
const LAG_HALF_RANGE_NS: i64 = 1 << 26;

impl Default for LagHist {
    fn default() -> LagHist {
        LagHist {
            linear: vec![0; ((2 * LAG_HALF_RANGE_NS) >> LAG_BIN_SHIFT) as usize],
            over: LogLinHist::default(),
            underflow: 0,
            min_ns: i64::MAX,
            count: 0,
        }
    }
}

impl LagHist {
    #[inline]
    pub fn record(&mut self, offset_ns: i64) {
        self.min_ns = self.min_ns.min(offset_ns);
        self.count += 1;
        if offset_ns >= LAG_HALF_RANGE_NS {
            self.over.record(offset_ns as u64);
        } else {
            if offset_ns < -LAG_HALF_RANGE_NS {
                self.underflow += 1;
            }
            let shifted = (offset_ns + LAG_HALF_RANGE_NS).max(0);
            self.linear[(shifted >> LAG_BIN_SHIFT) as usize] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Quantile `q` of the lag (offset minus the minimum offset), in µs.
    pub fn lag_quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let width = (1i64 << LAG_BIN_SHIFT) as f64;
        let mut before = 0u64;
        let mut offset_ns = None;
        for (i, &c) in self.linear.iter().enumerate() {
            let c = u64::from(c);
            if c > 0 && (before + c) as f64 >= rank {
                let lo = (i as i64 * (1 << LAG_BIN_SHIFT) - LAG_HALF_RANGE_NS) as f64;
                offset_ns = Some(lo + width * (rank - before as f64) / c as f64);
                break;
            }
            before += c;
        }
        let offset_ns = offset_ns
            .or_else(|| self.over.value_at_rank(rank - before as f64))
            .unwrap_or(self.over.max() as f64);
        ((offset_ns - self.min_ns as f64) / 1e3).max(0.0)
    }

    /// The largest lag, in µs (bucket resolution).
    pub fn lag_max_us(&self) -> f64 {
        self.lag_quantile_us(1.0)
    }
}

/// The layers a staged run attributes time to (one per crate on the hot
/// path), each with the metric that reports its share of staged CPU time.
pub const LAYERS: [(&str, &str); 5] = [
    ("gen", "staged.gen_share"),
    ("trace", "staged.trace_share"),
    ("scenario", "staged.scenario_share"),
    ("live", "staged.live_share"),
    ("mcn", "staged.mcn_share"),
];

/// The stage tracer of a traced run: one `cn_obs::TraceSink` span per stage
/// under a root span named after the workload, plus wall and CPU seconds per
/// stage. Staging costs two clock reads and two `/proc` reads per stage —
/// nothing per record.
pub struct Staged {
    sink: TraceSink,
    root: Option<TraceSpan>,
    /// The finished stages, in execution order.
    pub stages: Vec<Stage>,
}

/// One finished stage of a traced run.
pub struct Stage {
    pub layer: &'static str,
    pub name: String,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Staged {
    pub fn new(workload: &str) -> Staged {
        let sink = TraceSink::new();
        let root = Some(sink.span(workload));
        Staged {
            sink,
            root,
            stages: Vec::new(),
        }
    }

    /// Run `f` as the stage `name` of `layer` (a member of [`LAYERS`], or
    /// `"setup"` / `"pipeline"` / `"harness"` for time that belongs to no
    /// single hot-path crate). Returns `f`'s value and the stage's wall
    /// seconds.
    pub fn stage<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.sink.span(&format!("{layer}:{name}"));
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        drop(span);
        self.stages.push(Stage {
            layer,
            name: name.to_string(),
            wall_s,
            cpu_s,
        });
        (out, wall_s)
    }

    /// Share of the hot-path layers' staged CPU time that `layer` used.
    pub fn cpu_share(&self, layer: &str) -> f64 {
        let of = |l: &str| -> f64 {
            self.stages
                .iter()
                .filter(|s| s.layer == l)
                .fold(0.0, |sum, s| sum + s.cpu_s)
        };
        let total = LAYERS.iter().fold(0.0, |sum, (l, _)| sum + of(l));
        if total > 0.0 {
            of(layer) / total
        } else {
            0.0
        }
    }

    /// Close the root span and write `DIR/<workload>.trace.json`
    /// (Chrome/Perfetto trace-event JSON).
    pub fn write(&mut self, dir: &Path, workload: &str) -> std::io::Result<std::path::PathBuf> {
        drop(self.root.take());
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, self.sink.to_chrome_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn log_lin_hist_quantiles_are_within_one_percent() {
        let mut h = LogLinHist::default();
        for v in 1..=100_000u64 {
            h.record(v * 37);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let want = q * 100_000.0 * 37.0;
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.max(), 3_700_000);
    }

    #[test]
    fn lag_hist_anchors_on_the_minimum_whatever_the_first_sample() {
        let mut h = LagHist::default();
        // First sample late by 5 ms; the rest spread 0..1 ms above the true min.
        h.record(0);
        for i in 0..10_000i64 {
            h.record(-5_000_000 + i * 100);
        }
        let p50 = h.lag_quantile_us(0.5);
        assert!((p50 - 500.0).abs() < 2.0, "p50 {p50}");
        assert!((h.lag_max_us() - 5_000.0).abs() < 2.0);
        // A sample past the linear range lands in the log-linear tail.
        h.record(200_000_000);
        assert!((h.lag_max_us() - 205_000.0).abs() / 205_000.0 < 0.01);
    }
}
