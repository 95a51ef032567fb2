//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload table1_paper|scale_50k|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload against the public entry points of the stack for
//! about `S` seconds, checks every output, and prints one JSON object as
//! the last line of stdout: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from span-traced passes) with `--trace 1`. The full result,
//! with host and inputs, and the Perfetto trace of a traced run are
//! written under `perfbench/out/`. See `perfbench/README.md`.

mod batch;
mod host;
mod inputs;
mod report;
mod scale;
mod serve_mix;
mod stats;
mod table1;
mod trace;

use report::{json_f64, json_str, Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

/// Child processes that each run the workload's set-up alone, before
/// the run's own; `setup_s` is the median of their set-up times. (Probes
/// sampled after the timed phase ranged up to 1.8 times those of an idle
/// host, which made the median flip between runs.)
const SETUP_PROBES: usize = 9;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Table1Paper,
    Scale50k,
    ServeMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "table1_paper" => Some(Workload::Table1Paper),
            "scale_50k" => Some(Workload::Scale50k),
            "serve_mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Table1Paper => "table1_paper",
            Workload::Scale50k => "scale_50k",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// The command line.
pub struct Args {
    pub workload: Workload,
    /// Workload seed: drives the `rand` generator, the fresh serve
    /// circuits and the arrival schedule.
    pub seed: u64,
    /// How long the timed phase runs, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Internal: only run the workload's set-up and print its duration.
    pub setup_probe: bool,
}

const USAGE: &str =
    "usage: perfbench --workload table1_paper|scale_50k|serve_mix --seed N --seconds S --trace 0|1";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut setup_probe = false;
    while let Some(flag) = argv.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_probe,
    })
}

/// What a workload's run hands back besides its report.
pub struct RunOut {
    /// Process start → first timed call, seconds.
    pub setup_s: f64,
    /// The Perfetto trace of a traced pass (traced runs only).
    pub trace: Option<String>,
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let setup_s = match args.workload {
            Workload::Table1Paper => table1::setup_probe(start),
            Workload::Scale50k => scale::setup_probe(&args, start),
            Workload::ServeMix => serve_mix::setup_probe(&args, start),
        };
        println!("{}", json_f64(setup_s));
        return ExitCode::SUCCESS;
    }

    let mut report = Report::default();
    let probes: Vec<f64> = if args.trace {
        Vec::new()
    } else {
        (0..SETUP_PROBES)
            .filter_map(|_| probe_setup(&args, &mut report))
            .collect()
    };
    // The run's own set-up is timed from here, after the probes.
    let run_start = Instant::now();
    let out = match args.workload {
        Workload::Table1Paper => table1::run(&args, run_start, &mut report),
        Workload::Scale50k => scale::run(&args, run_start, &mut report),
        Workload::ServeMix => serve_mix::run(&args, run_start, &mut report),
    };
    report.note("setup_s_run", json_f64(out.setup_s));
    if !args.trace {
        report.note("setup_s_probes", format!("{probes:?}"));
        report.set("setup_s", stats::median(&probes));
        let attempted = report.attempted.max(1);
        report.set(
            "ok_frac",
            1.0 - report.failed.min(attempted) as f64 / attempted as f64,
        );
    }

    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = report.metrics_json(names);
    let correct = report.correct();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted.max(1),
        report.failed,
    );
    write_outputs(&args, &report, &line, out.trace.as_deref());
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Repeats the workload's set-up in a fresh process; its duration, or
/// `None` (recorded as a failure) when the child misbehaves.
fn probe_setup(args: &Args, report: &mut Report) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let output = std::process::Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output();
    let parsed = output.ok().filter(|o| o.status.success()).and_then(|o| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<f64>().ok())
    });
    report.attempted += 1;
    if parsed.is_none() {
        report.fail(1, "set-up probe process failed");
    }
    parsed
}

fn json_object(m: &std::collections::BTreeMap<&'static str, String>) -> String {
    let parts: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Writes the full result (host, inputs, metrics, notes, failures) and
/// the trace of a traced run under `perfbench/out/`.
fn write_outputs(args: &Args, report: &Report, line: &str, trace: Option<&str>) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let stem = format!(
        "{dir}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let host = host::describe();
    let host_json = format!(
        "{{\"nproc\": {}, \"rayon_threads\": {}, \"cpu\": {}, \"rustc\": {}, \"git_commit\": {}, \"source_digest\": {}}}",
        host.nproc,
        host.rayon_threads,
        json_str(&host.cpu),
        json_str(host.rustc),
        host.git_commit.as_deref().map_or("null".into(), json_str),
        json_str(&host.source_digest),
    );
    let doc = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"host\": {host_json},\n  \"result\": {line},\n  \"notes\": {},\n  \
         \"unmeasured\": {},\n  \"failures\": [{}]\n}}\n",
        json_str(args.workload.name()),
        args.seed,
        json_f64(args.seconds),
        args.trace,
        json_object(&report.notes),
        json_object(&report.unmeasured),
        report
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
    );
    eprintln!("perfbench: host {host_json}");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(format!("{stem}.json"), &doc))
        .and_then(|()| match trace {
            Some(t) => std::fs::write(format!("{stem}.perfetto.json"), t),
            None => Ok(()),
        });
    match written {
        Ok(()) => eprintln!("perfbench: result written to {stem}.json"),
        Err(e) => eprintln!("perfbench: cannot write {stem}.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::ServeMix);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.setup_probe),
            (7, 12.0, true, false)
        );
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "scale_50k", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "scale_50k", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "scale_50k", "--seed"]).is_err());
        assert!(args(&["--workload", "scale_50k", "--frob", "1"]).is_err());
    }
}
