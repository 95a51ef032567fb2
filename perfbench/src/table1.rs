//! `table1_paper`: the paper's own experiment at its own setting — the
//! 12 catalog circuits × 3 gate families through
//! `engine::run_table1_subset` with choice-aware mapping, the default
//! flow and 640 K power-estimation patterns. This is what a reproducer
//! runs. Power estimation and the three-way mapping portfolio do most
//! of the work, on small, narrow networks; sweeping at scale and the
//! server are bypassed.

use crate::report::Report;
use crate::{batch, stats, Args, RunOut};
use ambipolar::engine;
use ambipolar::{PipelineConfig, Table1, Table1Config};
use gate_lib::GateFamily;
use std::time::Instant;

/// (circuit, family) jobs in one pass.
const JOBS_PER_PASS: u64 = 12 * 3;

fn config(verify: techmap::Verify) -> Table1Config {
    Table1Config {
        pipeline: PipelineConfig {
            choices: true,
            verify,
            ..PipelineConfig::paper()
        },
    }
}

/// Builds every process-wide engine cache the table needs: the three
/// characterized libraries, their NPN match caches and the rewrite
/// library. Returns the time it took.
pub fn warm_engine() -> f64 {
    let t = Instant::now();
    engine::rewrite_library();
    for family in GateFamily::ALL {
        engine::library(family);
        engine::match_cache(family);
    }
    t.elapsed().as_secs_f64()
}

/// Set-up only, for a probe process.
pub fn setup_probe(start: Instant) -> f64 {
    warm_engine();
    start.elapsed().as_secs_f64()
}

/// Everything Table 1 reports, with every digit: two passes agree
/// exactly when these strings do.
fn qor_digest(table: &Table1) -> String {
    format!("{:?}", table.rows)
}

pub fn run(args: &Args, start: Instant, report: &mut Report) -> RunOut {
    let warm_s = warm_engine();
    let setup_s = start.elapsed().as_secs_f64();
    report.set("charlib.warm_s", warm_s);

    let timed = config(techmap::Verify::Off);
    let mut first: Option<(String, Table1)> = None;
    let passes = batch::run(
        args,
        JOBS_PER_PASS,
        report,
        || batch::timed(|| engine::run_table1_subset(&timed, None)),
        |result, report| match result {
            Ok(table) => {
                let digest = qor_digest(&table);
                match &first {
                    None => first = Some((digest, table)),
                    Some((d, _)) if *d != digest => {
                        report.fail(
                            JOBS_PER_PASS,
                            "a timed pass's QoR differs from the first pass",
                        );
                        return 0;
                    }
                    Some(_) => {}
                }
                JOBS_PER_PASS
            }
            Err(e) => {
                report.fail(JOBS_PER_PASS, format!("table pass failed: {e}"));
                0
            }
        },
        |_| Vec::new(),
    );

    // The workload's memory high-water mark, before the checks add
    // their own.
    report.set("peak_rss_mb", stats::peak_rss_mb());

    // Correctness gate, outside the timed passes: every mapped netlist
    // SAT-proven equivalent to its synthesized network, with the same
    // QoR as the timed passes.
    report.attempted += JOBS_PER_PASS;
    match engine::run_table1_subset(&config(techmap::Verify::Sat), None) {
        Ok(table) => {
            if first
                .as_ref()
                .is_some_and(|(d, _)| *d != qor_digest(&table))
            {
                report.fail(
                    JOBS_PER_PASS,
                    "the SAT-verified pass's QoR differs from the timed passes",
                );
            }
        }
        Err(e) => report.fail(JOBS_PER_PASS, format!("SAT-verified pass failed: {e}")),
    }

    if let Some((_, table)) = &first {
        record_qor(report, table);
    }
    passes.record(report, JOBS_PER_PASS, args.trace);
    if args.trace {
        report.unmeasured_prefixed(
            &["aig.synth_s.", "aig.dch_s.", "techmap.map_s."],
            "per-generator phase spans exist only on scale_50k",
        );
    }
    RunOut {
        setup_s,
        trace: passes.trace,
    }
}

/// The QoR the paper reports, summed or averaged over the 36 results.
fn record_qor(report: &mut Report, table: &Table1) {
    let results: Vec<&ambipolar::CircuitResult> =
        table.rows.iter().flat_map(|r| r.results.iter()).collect();
    report.set(
        "gates_total",
        results.iter().map(|r| r.gates).sum::<usize>() as f64,
    );
    report.set(
        "ands_total",
        table.rows.iter().map(|r| r.ands).sum::<usize>() as f64,
    );
    let delays: Vec<f64> = results.iter().map(|r| r.delay.value() * 1e12).collect();
    let powers: Vec<f64> = results
        .iter()
        .map(|r| r.total_power().value() * 1e6)
        .collect();
    report.set("delay_ps_geomean", stats::geomean(&delays));
    report.set("pt_uw_geomean", stats::geomean(&powers));
}
