//! The shape every workload run shares: options in, an [`Outcome`] out, the
//! set-up / timed-repetitions protocol of the untraced run in between.

use crate::harness::{cpu_seconds, peak_rss_mib, quartiles, reset_peak_rss, Staged, LAYERS};
use crate::setup::{set_up, Scale, SetUp};
use cn_fit::ModelSet;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How many times the untraced run sets up; `setup_s` is the median.
const SETUPS: usize = 3;
/// Timed repetitions never number fewer than this, whatever `--seconds`.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    pub trace_dir: PathBuf,
}

/// What one workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Records the workload expected its final consumer to receive.
    pub attempted: u64,
    /// Records missing, dropped, gap-marked, or belonging to a repetition
    /// that failed a check.
    pub failed: u64,
    /// Failed self-checks, in words.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail (quartiles, sample counts, trace file).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a self-check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The set-up layer metrics of a traced run.
    pub fn set_setup_layers(&mut self, s: &SetUp) {
        self.set("world.simulate_s", s.simulate_s);
        self.set("world.events", s.world_events as f64);
        self.set("statemachine.replay_s", s.replay_s);
        self.set("statemachine.violations", s.violations as f64);
        self.set("fit.fit_s", s.fit_s);
        self.set("fit.cells", s.cells as f64);
        self.check(s.violations == 0, || {
            format!("the world trace replays with {} violations", s.violations)
        });
    }

    /// Per-layer CPU shares and the trace file of a finished traced run.
    pub fn set_staged(&mut self, staged: &mut Staged, opts: &Options, workload: &str) {
        for (layer, share_metric) in LAYERS {
            self.set(share_metric, staged.cpu_share(layer));
        }
        for s in &staged.stages {
            self.notes.push(format!(
                "stage {}:{}: wall {:.4} s, cpu {:.2} s",
                s.layer, s.name, s.wall_s, s.cpu_s
            ));
        }
        match staged.write(&opts.trace_dir, workload) {
            Ok(path) => self.notes.push(format!("wrote {}", path.display())),
            Err(e) => self
                .failures
                .push(format!("writing the trace file failed: {e}")),
        }
    }
}

/// Set up [`SETUPS`] times (each timed, `setup_s` is the median), keep the
/// last model set, and reset the RSS watermark so the workload's peak is
/// its own.
pub fn timed_set_up(opts: &Options, out: &mut Outcome) -> ModelSet {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut models = None;
    for _ in 0..SETUPS {
        drop(models.take());
        // Keep a copy of the model set made on a fresh thread, not the
        // original: the original is many small vectors allocated between
        // set-up's temporaries, and left where it is it pins 40-90 MiB of
        // half-empty pages, a different amount from run to run. A fresh
        // thread gets an allocator arena of its own, so the copy is compact.
        // Trim and reset after every set-up, so the three do not build on
        // each other's garbage.
        let (fragmented, s) = set_up(opts.seed, opts.scale, None);
        seconds.push(s.seconds());
        models = Some(std::thread::scope(|scope| {
            scope
                .spawn(|| fragmented.clone())
                .join()
                .expect("clone does not panic")
        }));
        drop(fragmented);
        reset_peak_rss();
    }
    let (q1, med, q3) = quartiles(&seconds);
    out.set("setup_s", med);
    out.notes.push(format!(
        "setup_s: median {med:.4} q1 {q1:.4} q3 {q3:.4} n {SETUPS}"
    ));
    out.notes.push(format!(
        "resident after set-up (watermark reset here): {:.1} MiB",
        peak_rss_mib()
    ));
    models.expect("SETUPS > 0")
}

/// Wall and CPU seconds of one timed region.
pub struct Stopwatch {
    t0: Instant,
    cpu0: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu0: cpu_seconds(),
            t0: Instant::now(),
        }
    }

    pub fn stop(self) -> (f64, f64) {
        let wall = self.t0.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu0)
    }
}

/// One timed repetition: records delivered to the final consumer, and the
/// wall and CPU seconds of the timed region only (checks excluded).
pub struct Rep {
    pub events: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Repeat `rep` until `seconds` have passed (at least [`MIN_REPS`] times),
/// then [`report_reps`].
pub fn timed_reps(
    seconds: f64,
    out: &mut Outcome,
    mut rep: impl FnMut(usize, &mut Outcome) -> Rep,
) {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        reps.push(rep(reps.len(), out));
    }
    report_reps(out, &reps);
}

/// The throughput metrics every workload shares: `events_per_s` is the
/// median over repetitions, `cpu_us_per_event` the whole timed region's CPU
/// over its events (per repetition the 10 ms tick of `/proc/self/stat`
/// would show), `peak_rss_mb` the watermark since set-up.
pub fn report_reps(out: &mut Outcome, reps: &[Rep]) {
    let rates: Vec<f64> = reps.iter().map(|r| r.events as f64 / r.wall_s).collect();
    let events: u64 = reps.iter().map(|r| r.events).sum();
    let cpu_s: f64 = reps.iter().map(|r| r.cpu_s).sum();
    let (q1, med, q3) = quartiles(&rates);
    out.set("events_per_s", med);
    out.set("cpu_us_per_event", cpu_s * 1e6 / events as f64);
    out.set("peak_rss_mb", peak_rss_mib());
    out.notes.push(format!(
        "events_per_s: median {med:.0} q1 {q1:.0} q3 {q3:.0} n {} ({events} events, {cpu_s:.2} cpu s)",
        rates.len()
    ));
}
