//! The timed-pass loop of the batch workloads (`table1_paper`,
//! `scale_50k`): passes over the workload's job list until the run's
//! seconds are spent, every second pass traced in a traced run, and the
//! end-to-end and attribution metrics derived from the pass walls.

use crate::report::{self, Report, TracedPass};
use crate::stats::{self, percentile, sorted};
use crate::Args;
use std::time::Instant;

/// Fewest timed passes, so every run re-checks that a pass repeats the
/// first one exactly.
const MIN_PASSES: usize = 2;

/// One pass's product with its wall time and the CPU utilization of the
/// `nproc` threads over it.
pub struct Timed<T> {
    pub out: T,
    pub wall: f64,
    pub cpu_util: f64,
}

/// Runs `work` under the wall and process-CPU clocks.
pub fn timed<T>(work: impl FnOnce() -> T) -> Timed<T> {
    let cpu0 = stats::process_cpu_seconds();
    let t = Instant::now();
    let out = work();
    let wall = t.elapsed().as_secs_f64();
    let cpu_util = (stats::process_cpu_seconds() - cpu0) / (wall * crate::host::nproc() as f64);
    Timed {
        out,
        wall,
        cpu_util,
    }
}

/// What the passes of one run measured.
#[derive(Default)]
pub struct Passes {
    walls: Vec<f64>,
    cpu_utils: Vec<f64>,
    ok_jobs: u64,
    traced_walls: Vec<f64>,
    layers: Vec<Vec<(&'static str, f64)>>,
    lost: u64,
    /// The Perfetto trace of the last traced pass.
    pub trace: Option<String>,
}

/// Runs passes of `jobs` jobs each. `pass` does the work under
/// [`timed`]; `check`, outside the timed region, compares a pass's
/// product with the first pass's, records failures and returns the jobs
/// that came back ok; `layers` adds workload-specific attribution from a
/// traced pass.
pub fn run<T>(
    args: &Args,
    jobs: u64,
    report: &mut Report,
    mut pass: impl FnMut() -> Timed<T>,
    mut check: impl FnMut(T, &mut Report) -> u64,
    layers: impl Fn(&TracedPass) -> Vec<(&'static str, f64)>,
) -> Passes {
    let mut p = Passes::default();
    let began = Instant::now();
    loop {
        let done = p.walls.len() + p.traced_walls.len();
        if done >= MIN_PASSES && began.elapsed().as_secs_f64() >= args.seconds {
            return p;
        }
        report.attempted += jobs;
        if args.trace && done % 2 == 1 {
            let ((timed, counters, conflicts), traced) = report::traced(|| {
                let c0 = aig::profile::snapshot();
                let h0 = report::conflicts_snapshot();
                let timed = pass();
                let counters = aig::profile::snapshot().delta_since(&c0);
                (timed, counters, report::conflicts_snapshot().since(h0))
            });
            check(timed.out, report);
            p.traced_walls.push(timed.wall);
            p.lost += traced.lost;
            let mut values = report::engine_layers(&traced, &counters, conflicts);
            values.extend(layers(&traced));
            p.layers.push(values);
            p.trace = Some(traced.text);
        } else {
            let timed = pass();
            p.ok_jobs += check(timed.out, report);
            p.walls.push(timed.wall);
            p.cpu_utils.push(timed.cpu_util);
        }
    }
}

impl Passes {
    /// Records the end-to-end metrics of the untraced passes — a pass is
    /// a batch user's request, so its wall gives the latencies — and, in
    /// a traced run, the per-layer medians over the traced passes.
    pub fn record(&self, report: &mut Report, jobs: u64, traced_run: bool) {
        let wall = stats::median(&self.walls);
        let by_rank = sorted(&self.walls);
        report.note("passes", self.walls.len());
        report.note("pass_walls_s", format!("{:?}", self.walls));
        report.note(
            "p95_ms",
            "nearest-rank p95 of the pass walls: the slowest pass for fewer than 20 passes",
        );
        report.set("wall_s", wall);
        report.set("p50_ms", percentile(&by_rank, 0.5).unwrap_or(0.0) * 1e3);
        report.set("p95_ms", percentile(&by_rank, 0.95).unwrap_or(0.0) * 1e3);
        report.set(
            "goodput_jobs_per_s",
            self.ok_jobs as f64 / self.walls.iter().sum::<f64>(),
        );
        report.set("capacity_jobs_per_s", jobs as f64 / wall);
        if traced_run {
            report::record_layer_medians(report, &self.layers);
            report.set("rayon.cpu_util", stats::median(&self.cpu_utils));
            report.set(
                "obs.trace_overhead_ratio",
                stats::median(&self.traced_walls) / wall,
            );
            report.set("obs.trace_events_lost", self.lost as f64);
            report.note("traced_passes", self.traced_walls.len());
            report.unmeasured_prefixed(&["serve."], "no server runs on this workload");
        }
    }
}
