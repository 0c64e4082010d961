//! The out-of-core memory contract: 10× the population may not cost 2×
//! the memory.
//!
//! One test in its own file, so the process — and therefore `VmHWM` — is
//! this test's alone. The exporter runs at 20 K → 200 K → 2 M UEs under
//! one fixed chunk size and spill budget, with the kernel's peak-RSS
//! watermark reset before each point; resident state is bounded by the
//! chunk plus the budget, so each point's peak must stay within 2× of its
//! predecessor's. Window lengths shrink as the population grows to keep
//! the run to seconds; RSS is a function of the chunk and the budget, not
//! of the window, so the shrink does not soften the contract.
//!
//! The growth bound alone lets the merge's working set (slices in flight,
//! spill-read windows) swell unnoticed, so a release build also holds the
//! 2 M point under an absolute ceiling, and every point's merge-phase
//! peak — the watermark reset again at the first merged bytes — is
//! printed beside its whole-export peak.
//!
//! Linux only: skipped where `/proc/self/clear_refs` is unwritable.

use cn_fit::{fit, FitConfig, Method};
use cn_gen::{generate_out_of_core, GenConfig, OutOfCoreConfig};
use cn_trace::{PopulationMix, Timestamp};
use cn_world::{generate_world, WorldConfig};
use std::io::{Seek, SeekFrom, Write};

const CHUNK_UES: u32 = 16_384;
/// (UEs, window hours): 10× the population per point.
const AXIS: [(u32, f64); 3] = [(20_000, 2.0), (200_000, 1.0), (2_000_000, 0.25)];
const MAX_GROWTH: f64 = 2.0;
/// Release-profile ceiling on the 2 M point's peak. Measured 43.2–44.5
/// MiB; the one-window merge this replaced ran at 47–53, and a merge
/// with 1 MiB slices over 112 KiB spill windows at 55–60.
const CEILING_2M_MIB: f64 = 48.0;

/// Reset `VmHWM` to the current RSS; `false` where the knob is missing.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// An on-disk sink, unlinked at once: the exported bytes land on disk as
/// a real run's would, where a `Vec` sink would inflate the very RSS being
/// measured.
fn unlinked_sink(ues: u32) -> std::fs::File {
    let path = std::env::temp_dir().join(format!(
        "cn-gen-bounded-rss-{}-{ues}.bin",
        std::process::id()
    ));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .expect("create export sink in temp dir");
    let _ = std::fs::remove_file(&path);
    file
}

/// A sink that notes the peak so far and resets the watermark on the
/// first write after the header's two: the merge's first output window.
struct PhaseSink {
    file: std::fs::File,
    writes: usize,
    generation_peak_mib: f64,
}

impl Write for PhaseSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        if self.writes == 3 {
            self.generation_peak_mib = peak_rss_mib();
            reset_peak_rss();
        }
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Seek for PhaseSink {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.file.seek(pos)
    }
}

#[test]
fn peak_rss_stays_bounded_as_the_population_grows_tenfold() {
    if !reset_peak_rss() {
        eprintln!("skipped: /proc/self/clear_refs is not writable here");
        return;
    }
    let world = generate_world(&WorldConfig::new(PopulationMix::new(120, 50, 25), 2.0, 77));
    let models = fit(&world, &FitConfig::new(Method::Ours));
    let occ = OutOfCoreConfig {
        chunk_ues: CHUNK_UES,
        buffer_budget_bytes: 16 << 20,
        temp_dir: None,
    };

    // Printed per point: libtest shows it when the test fails, so a broken
    // contract is diagnosable from the log alone.
    println!("     ues   events  runs spilled    MiB  (generation, merge)");
    let mut points = Vec::new();
    for (ues, hours) in AXIS {
        let mix = PopulationMix::new(ues * 5 / 8, ues / 4, ues / 8);
        let config = GenConfig::new(mix, Timestamp::at_hour(0, 6), hours, 2023);
        assert!(reset_peak_rss(), "clear_refs stopped being writable");
        let sink = PhaseSink {
            file: unlinked_sink(ues),
            writes: 0,
            generation_peak_mib: 0.0,
        };
        let (report, sink) = generate_out_of_core(&models, &config, &occ, sink)
            .expect("out-of-core export with a healthy sink and temp dir");
        let merge_mib = peak_rss_mib();
        let generation_mib = sink.generation_peak_mib;
        let mib = merge_mib.max(generation_mib);
        println!(
            "{ues:>8} {:>8} {:>5} {:>7} {mib:>6.1}  ({generation_mib:.1}, {merge_mib:.1})",
            report.events, report.runs, report.spilled_runs
        );
        assert!(report.events > 0, "{ues} UEs generated no events");
        assert_eq!(report.runs, ues.div_ceil(CHUNK_UES) as usize);
        points.push((ues, mib, report.spilled_runs));
    }

    // The contract is only exercised if the budget actually binds.
    let &(ues, _, spilled) = points.last().expect("three points");
    assert!(
        spilled > 0,
        "{ues} UEs never spilled: the budget is not binding"
    );
    if !cfg!(debug_assertions) {
        let &(ues, mib, _) = points.last().expect("three points");
        assert!(
            mib <= CEILING_2M_MIB,
            "{ues} UEs peaked at {mib:.1} MiB, above the {CEILING_2M_MIB} MiB ceiling: the \
             merge's working set (slices in flight, spill-read windows) has grown"
        );
    }
    for pair in points.windows(2) {
        let ((small, a, _), (big, b, _)) = (pair[0], pair[1]);
        assert!(
            b <= a * MAX_GROWTH,
            "{big} UEs peaked at {b:.1} MiB, more than {MAX_GROWTH}x the {a:.1} MiB peak at \
             {small} UEs: resident state grows with the population"
        );
    }
}
