//! `scale_50k`: the `mult`, `tree` and `rand` generators of
//! `bench_circuits::scale` at ~50 k ANDs, each through the three phases
//! the `scale` harness times — the synth flow, `dch` on the raw network,
//! and mapping of the synthesized network. The `aig` passes, the cut
//! database, the sweeper and SAT, the rayon pool and the mapper on wide
//! networks do nearly all the work; there is no power estimation and no
//! server. Within the workload `rand` loads the sweeper and SAT, `tree`
//! bypasses them (no merges), and `mult` has the most cut reuse.

use crate::inputs::relabel;
use crate::report::Report;
use crate::{batch, stats, Args, RunOut};
use aig::check::{check_equivalence, Equivalence};
use aig::{Aig, Flow};
use ambipolar::{engine, PipelineConfig};
use bench_circuits::scale::{adder_xor_tree, random_kregular, wide_multiplier};
use charlib::CharacterizedLibrary;
use gate_lib::GateFamily;
use std::time::Instant;

/// Target AND count of every generator.
const TARGET_ANDS: usize = 50_000;

/// The synth measurement flow of the `scale` harness (ABC's `resyn2`
/// shape).
const SYNTH_FLOW: &str = "b;rw;rf;b;rw -z;b";

/// The per-generator phase metrics, by benchmark span phase, in
/// generator order.
const PHASE_METRICS: [(&str, [&str; 3]); 3] = [
    (
        "synth",
        ["aig.synth_s.mult", "aig.synth_s.tree", "aig.synth_s.rand"],
    ),
    (
        "dch",
        ["aig.dch_s.mult", "aig.dch_s.tree", "aig.dch_s.rand"],
    ),
    (
        "map",
        [
            "techmap.map_s.mult",
            "techmap.map_s.tree",
            "techmap.map_s.rand",
        ],
    ),
];

/// Power-estimation patterns for the QoR record of the mapped networks
/// (outside the timed passes; the workload itself estimates no power).
const QOR_PATTERNS: usize = 4096;

/// The mapping library: the generalized ambipolar family.
const FAMILY: GateFamily = GateFamily::ALL[0];

struct Setup {
    gens: Vec<(&'static str, Aig)>,
    synth: Flow,
    dch: Flow,
}

/// Seed of the `rand` generator network the workload seed relabels
/// (the one the `scale` harness and its committed baseline use).
const RAND_GENERATOR_SEED: u64 = 0x5CA1_AB1E;

fn setup(seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    engine::rewrite_library();
    engine::library(FAMILY);
    engine::match_cache(FAMILY);
    let warm_s = t.elapsed().as_secs_f64();
    let setup = Setup {
        gens: vec![
            ("mult", wide_multiplier(TARGET_ANDS)),
            ("tree", adder_xor_tree(TARGET_ANDS)),
            (
                "rand",
                relabel(&random_kregular(TARGET_ANDS, RAND_GENERATOR_SEED), seed),
            ),
        ],
        synth: Flow::parse(SYNTH_FLOW).expect("the synth flow parses"),
        dch: Flow::parse("dch").expect("the dch flow parses"),
    };
    (setup, warm_s)
}

/// Set-up only, for a probe process.
pub fn setup_probe(args: &Args, start: Instant) -> f64 {
    let _ = setup(args.seed);
    start.elapsed().as_secs_f64()
}

/// One generator's products in one pass.
struct Products {
    synth: Aig,
    dch: Aig,
    mapped: Result<techmap::MappedNetlist, techmap::MapError>,
}

/// One pass over the three generators. Benchmark spans around each
/// phase call give the traced run its per-generator phase times.
fn pass(setup: &Setup) -> Vec<Products> {
    let library = engine::library(FAMILY);
    let cache = engine::match_cache(FAMILY);
    let map_config = PipelineConfig::default().map;
    setup
        .gens
        .iter()
        .map(|(name, aig)| {
            let synth = {
                let _s = obs::span!("bench/synth/{name}");
                setup.synth.run(aig)
            };
            let dch = {
                let _s = obs::span!("bench/dch/{name}");
                setup.dch.run(aig)
            };
            let mapped = {
                let _s = obs::span!("bench/map/{name}");
                techmap::map_aig_with_cache(&synth, library, cache, &map_config)
            };
            Products { synth, dch, mapped }
        })
        .collect()
}

/// What later passes must reproduce exactly: networks, and the mapped
/// netlist as structural Verilog.
struct Reference {
    synth: Vec<Aig>,
    dch: Vec<Aig>,
    verilog: Vec<String>,
    mapped: Vec<techmap::MappedNetlist>,
}

pub fn run(args: &Args, start: Instant, report: &mut Report) -> RunOut {
    let (setup, warm_s) = setup(args.seed);
    let setup_s = start.elapsed().as_secs_f64();
    report.set("charlib.warm_s", warm_s);
    report.note(
        "input_ands",
        format!(
            "{:?}",
            setup
                .gens
                .iter()
                .map(|(n, a)| (*n, a.and_count()))
                .collect::<Vec<_>>()
        ),
    );
    let jobs = setup.gens.len() as u64;
    let library = engine::library(FAMILY);

    let mut reference: Option<Reference> = None;
    let passes = batch::run(
        args,
        jobs,
        report,
        || batch::timed(|| pass(&setup)),
        |products, report| check_pass(&setup, products, &mut reference, library, report),
        |traced| {
            let mut values = Vec::new();
            for (phase, names) in PHASE_METRICS {
                for ((gen, _), metric) in setup.gens.iter().zip(names) {
                    if let Some(s) = traced.total_s(&format!("bench/{phase}/{gen}")) {
                        values.push((metric, s));
                    }
                }
            }
            values
        },
    );

    // The workload's memory high-water mark, before the checks add
    // their own.
    report.set("peak_rss_mb", stats::peak_rss_mb());

    // Correctness gate, outside the timed passes: each synthesized
    // network SAT-proven equivalent to its generator output. The proofs
    // are independent and mostly serial, so they run side by side.
    let gate = Instant::now();
    if let Some(r) = &reference {
        let proofs: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = setup
                .gens
                .iter()
                .zip(&r.synth)
                .map(|((_, aig), synth)| scope.spawn(move || check_equivalence(aig, synth)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for ((name, _), proof) in setup.gens.iter().zip(proofs) {
            report.attempted += 1;
            match proof {
                Ok(Ok(Equivalence::Equal)) => {}
                Ok(Ok(Equivalence::Counterexample(_))) => {
                    report.fail(1, format!("{name}: synthesized network is not equivalent"))
                }
                Ok(Err(e)) => report.fail(1, format!("{name}: synthesized network shape: {e}")),
                Err(_) => report.fail(1, format!("{name}: the equivalence proof panicked")),
            }
        }
        record_qor(report, r, library);
    }
    report.note("gate_s", gate.elapsed().as_secs_f64());

    passes.record(report, jobs, args.trace);
    if args.trace {
        for (name, why) in [
            (
                "power-est.estimate_s",
                "no power estimation on this workload",
            ),
            (
                "core.map_s",
                "the mapper is called directly, not through the pipeline's portfolio",
            ),
            (
                "sat.verify_s",
                "no post-mapping verification on this workload",
            ),
        ] {
            report.unmeasured(name, why);
        }
    }
    RunOut {
        setup_s,
        trace: passes.trace,
    }
}

/// Checks one pass against the first (recording the first as the
/// reference); returns the jobs that came back ok.
fn check_pass(
    setup: &Setup,
    products: Vec<Products>,
    reference: &mut Option<Reference>,
    library: &CharacterizedLibrary,
    report: &mut Report,
) -> u64 {
    let mut ok = 0;
    let mut fresh = Reference {
        synth: Vec::new(),
        dch: Vec::new(),
        verilog: Vec::new(),
        mapped: Vec::new(),
    };
    for (i, ((name, _), p)) in setup.gens.iter().zip(products).enumerate() {
        let mapped = match p.mapped {
            Ok(m) => m,
            Err(e) => {
                report.fail(1, format!("{name}: mapping failed: {e}"));
                continue;
            }
        };
        let verilog = techmap::to_structural_verilog(&mapped, library, name);
        match reference {
            Some(r) => {
                if !(r.synth[i].same_structure(&p.synth)
                    && r.dch[i].same_structure(&p.dch)
                    && r.verilog[i] == verilog)
                {
                    report.fail(
                        1,
                        format!("{name}: a timed pass diverged from the first pass"),
                    );
                    continue;
                }
            }
            None => {
                fresh.synth.push(p.synth);
                fresh.dch.push(p.dch);
                fresh.verilog.push(verilog);
                fresh.mapped.push(mapped);
            }
        }
        ok += 1;
    }
    if reference.is_none() {
        if fresh.synth.len() == setup.gens.len() {
            *reference = Some(fresh);
        } else {
            report.fail(0, "the first pass failed; nothing to compare against");
        }
    }
    ok
}

/// QoR of the reference pass: mapped gates, synthesized ANDs, and the
/// STA delay and estimated total power of each mapped network.
fn record_qor(report: &mut Report, r: &Reference, library: &CharacterizedLibrary) {
    let config = PipelineConfig {
        patterns: QOR_PATTERNS,
        ..PipelineConfig::default()
    };
    let results: Vec<ambipolar::CircuitResult> = r
        .mapped
        .iter()
        .map(|m| ambipolar::pipeline::evaluate_mapped(m, library, &config))
        .collect();
    report.set(
        "gates_total",
        r.mapped.iter().map(|m| m.gate_count()).sum::<usize>() as f64,
    );
    report.set(
        "ands_total",
        r.synth.iter().map(Aig::and_count).sum::<usize>() as f64,
    );
    let delays: Vec<f64> = results.iter().map(|c| c.delay.value() * 1e12).collect();
    let powers: Vec<f64> = results
        .iter()
        .map(|c| c.total_power().value() * 1e6)
        .collect();
    report.set("delay_ps_geomean", stats::geomean(&delays));
    report.set("pt_uw_geomean", stats::geomean(&powers));
}
