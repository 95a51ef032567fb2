//! `serve_mix`: `synthd` in-process, driven over TCP by an open loop at
//! one fixed offered rate — independent users submitting jobs, so each
//! request's latency is timed from when it was due.
//!
//! After a warm-up pass over the 36 catalog (circuit, family) specs,
//! 3 in 4 requests repeat a catalog spec: cache hits that run only map,
//! SAT verify and estimate. The rest are fresh circuits of catalog size
//! (seeded relabelings of catalog circuits), each submitted as a
//! 3-family fan-out: the first request leads the synthesis, a concurrent
//! one waits as a single-flight follower. The same cache layer is read
//! and written, and LRU eviction runs. Synthesis at scale and heavy
//! simulation are bypassed.

use crate::inputs::{relabel, Rng};
use crate::report::{self, Report};
use crate::stats::{self, percentile, tail_percentile, HistSnap};
use crate::{Args, RunOut};
use ambipolar::{engine, PipelineConfig};
use gate_lib::GateFamily;
use serve::{Client, JobSpec, Response, Server, ServerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The offered rate of the open loop, jobs per second; fixed, never
/// adapted per commit. On a 2-core AMD EPYC host the closed-loop
/// capacity of this mix measured 25–35 jobs/s, so this is a third to a
/// half of it. At 16 jobs/s the median and p95 latency spread 18% and
/// 22% over five seeds, too close to the largest bound a metric may
/// have; here they spread 8.5% and 18%.
pub const RATE_JOBS_PER_S: f64 = 12.0;

/// The latency limit `goodput_jobs_per_s` counts against, ms.
pub const SLO_MS: f64 = 1000.0;

/// Fewest requests in an open-loop phase. From 200 on, the p95 rank has
/// ten samples beyond it; two rounds (288 requests) left the p95 spread
/// over five seeds at 25%, three rounds (432) at 18%.
const MIN_REQUESTS: usize = 400;

/// Most client connections (never more than the host's cores).
const MAX_CONNECTIONS: usize = 2;

/// Power-estimation patterns per job.
const PATTERNS: u64 = 1024;

/// Units per block of the request stream; one unit in each block is a
/// fresh 3-family fan-out, the rest are single catalog requests — so
/// fresh requests are exactly 3 of every 12.
const UNITS_PER_BLOCK: usize = 10;

/// Blocks per round: one fan-out per catalog circuit.
const BLOCKS_PER_ROUND: usize = 12;

/// Requests per unit, on average.
const JOBS_PER_UNIT: f64 = (UNITS_PER_BLOCK + 2) as f64 / UNITS_PER_BLOCK as f64;

/// Requests per round.
const JOBS_PER_ROUND: usize = BLOCKS_PER_ROUND * (UNITS_PER_BLOCK + 2);

/// Circuits the server's warm cache holds: the 12 catalog circuits and
/// a few fresh ones, so fresh entries are evicted in LRU order.
const CACHE_CAPACITY: usize = 20;

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Catalog spec `i` (circuit `i / 3`, family `i % 3`).
    Catalog(usize),
    /// A fresh circuit's request for family `family`.
    Fresh { family: usize },
}

struct Request {
    /// Offset from the start of the phase, seconds.
    due: f64,
    kind: Kind,
    spec: JobSpec,
}

fn spec(name: &str, aiger: Vec<u8>, family: GateFamily) -> JobSpec {
    let pipeline = PipelineConfig::default();
    JobSpec {
        family,
        objective: pipeline.map.objective,
        cut_k: pipeline.map.cut_k as u8,
        max_cuts: 0,
        verify: techmap::Verify::Sat,
        choices: false,
        patterns: PATTERNS,
        seed: pipeline.seed,
        timeout_ms: 0,
        flow: pipeline.flow,
        name: name.to_owned(),
        aiger,
    }
}

/// The pipeline configuration `synthd` derives from [`spec`]'s knobs.
fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        patterns: PATTERNS as usize,
        verify: techmap::Verify::Sat,
        ..PipelineConfig::default()
    }
}

struct Inputs {
    /// The 12 catalog circuits fresh circuits are relabeled from.
    circuits: Vec<(&'static str, aig::Aig)>,
    /// The 36 catalog specs, circuit-major.
    catalog: Vec<JobSpec>,
    rng: Rng,
    fresh_made: usize,
    /// Catalog specs not yet drawn in the current round.
    spec_round: Vec<usize>,
    /// Catalog circuits not yet relabeled in the current round.
    circuit_round: Vec<usize>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let circuits: Vec<(&'static str, aig::Aig)> = bench_circuits::table1_benchmarks()
            .into_iter()
            .map(|b| (b.name, b.aig))
            .collect();
        let catalog = circuits
            .iter()
            .flat_map(|(name, aig)| {
                let aiger = aig::to_aiger_binary(aig);
                GateFamily::ALL.map(|f| spec(name, aiger.clone(), f))
            })
            .collect();
        Inputs {
            circuits,
            catalog,
            rng: Rng(seed),
            fresh_made: 0,
            spec_round: Vec::new(),
            circuit_round: Vec::new(),
        }
    }

    /// A fresh circuit's fan-out, the same network for every family: a
    /// seeded relabeling of a catalog circuit (see [`relabel`]) — new
    /// bytes, so a cache miss, of catalog size and cost.
    fn fresh_fanout(&mut self, due: f64) -> Vec<Request> {
        let base = draw(&mut self.circuit_round, self.circuits.len(), &mut self.rng);
        let (base_name, base_aig) = &self.circuits[base];
        let aig = relabel(base_aig, self.rng.next());
        let aiger = aig::to_aiger_binary(&aig);
        let name = format!("{base_name}_v{}", self.fresh_made);
        self.fresh_made += 1;
        GateFamily::ALL
            .iter()
            .enumerate()
            .map(|(family, &f)| Request {
                due,
                kind: Kind::Fresh { family },
                spec: spec(&name, aiger.clone(), f),
            })
            .collect()
    }

    fn catalog_request(&mut self, i: usize, due: f64) -> Request {
        Request {
            due,
            kind: Kind::Catalog(i),
            spec: self.catalog[i].clone(),
        }
    }

    /// The warm-up pass: every catalog spec once.
    fn warmup(&mut self) -> Vec<Request> {
        (0..self.catalog.len())
            .map(|i| self.catalog_request(i, 0.0))
            .collect()
    }

    /// `rounds` rounds of the mix. A round is [`BLOCKS_PER_ROUND`]
    /// blocks of [`UNITS_PER_BLOCK`] units; one seeded unit of each block
    /// is a fresh fan-out, the rest single catalog requests. Over a round
    /// every catalog spec comes three times and every catalog circuit is
    /// relabeled once, so runs on different seeds carry the same work.
    /// With `unit_rate`, unit `k` is due at `(k + u_k) / unit_rate`, `u_k`
    /// uniform in [0, 1); without, everything is due at once (a closed
    /// loop).
    fn mix(&mut self, rounds: usize, unit_rate: Option<f64>) -> Vec<Request> {
        let mut out = Vec::new();
        for block in 0..rounds * BLOCKS_PER_ROUND {
            let fanout = self.rng.below(UNITS_PER_BLOCK);
            for slot in 0..UNITS_PER_BLOCK {
                let unit = (block * UNITS_PER_BLOCK + slot) as f64;
                let due = unit_rate.map_or(0.0, |r| (unit + self.rng.unit()) / r);
                if slot == fanout {
                    out.extend(self.fresh_fanout(due));
                } else {
                    let i = draw(&mut self.spec_round, self.catalog.len(), &mut self.rng);
                    out.push(self.catalog_request(i, due));
                }
            }
        }
        out
    }

    /// An open-loop schedule offering [`RATE_JOBS_PER_S`]: whole rounds,
    /// at least `seconds` long and [`MIN_REQUESTS`] big. Returns the
    /// requests and the schedule's length, seconds.
    fn open_loop(&mut self, seconds: f64) -> (Vec<Request>, f64) {
        let unit_rate = RATE_JOBS_PER_S / JOBS_PER_UNIT;
        let round_s = (BLOCKS_PER_ROUND * UNITS_PER_BLOCK) as f64 / unit_rate;
        let rounds = ((seconds / round_s).ceil() as usize)
            .max(MIN_REQUESTS.div_ceil(JOBS_PER_ROUND))
            .max(1);
        (self.mix(rounds, Some(unit_rate)), rounds as f64 * round_s)
    }
}

/// The next of `0..n` from `round`, refilled in seeded order when
/// empty: every value once per round, so each run draws the catalog in
/// the same proportions.
fn draw(round: &mut Vec<usize>, n: usize, rng: &mut Rng) -> usize {
    if round.is_empty() {
        *round = (0..n).collect();
        rng.shuffle(round);
    }
    round.pop().expect("refilled above")
}

/// When one request was due, found a free connection, went out and
/// came back — seconds from the start of its phase.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub due: f64,
    pub free: f64,
    pub sent: f64,
    pub done: f64,
}

impl Timing {
    /// Latency as a user sees it: from the due time to the response.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// Time a due request waited for a free connection.
    pub fn client_wait(&self) -> f64 {
        (self.free - self.due).max(0.0)
    }

    /// The generator's own lateness: send time past the moment both the
    /// request was due and a connection was free.
    pub fn sched_lag(&self) -> f64 {
        self.sent - self.due.max(self.free)
    }
}

/// Drives requests due at `due` (ascending offsets, seconds) through
/// `connections`: each connection takes the next request in due order
/// once it is free, waits for the due time, and runs `send` on it. A
/// closed loop is the same with every request due at 0.
pub fn drive<R: Send, C: FnMut(usize) -> R + Send>(
    due: &[f64],
    connections: &mut [C],
) -> Vec<(Timing, R)> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(Timing, R)>>> = Mutex::new((0..due.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for send in connections.iter_mut() {
            let (next, slots) = (&next, &slots);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= due.len() {
                    return;
                }
                let free = start.elapsed().as_secs_f64();
                if due[i] > free {
                    std::thread::sleep(Duration::from_secs_f64(due[i] - free));
                }
                let sent = start.elapsed().as_secs_f64();
                let reply = send(i);
                let done = start.elapsed().as_secs_f64();
                let timing = Timing {
                    due: due[i],
                    free,
                    sent,
                    done,
                };
                slots
                    .lock()
                    .expect("no sender panics while holding the lock")[i] = Some((timing, reply));
            });
        }
    });
    slots
        .into_inner()
        .expect("no sender panics while holding the lock")
        .into_iter()
        .map(|s| s.expect("every request was driven"))
        .collect()
}

/// One driven request and its reply.
struct Served {
    timing: Timing,
    kind: Kind,
    reply: Result<Response, String>,
}

fn run_phase(clients: &mut [Client], requests: &[Request]) -> (Vec<Served>, f64) {
    let due: Vec<f64> = requests.iter().map(|r| r.due).collect();
    let mut senders: Vec<_> = clients
        .iter_mut()
        .map(|c| move |i: usize| c.submit(&requests[i].spec).map_err(|e| e.to_string()))
        .collect();
    let t = Instant::now();
    let driven = drive(&due, &mut senders);
    let wall = t.elapsed().as_secs_f64();
    let served = driven
        .into_iter()
        .zip(requests)
        .map(|((timing, reply), r)| Served {
            timing,
            kind: r.kind,
            reply,
        })
        .collect();
    (served, wall)
}

/// The catalog references: each spec's (netlist, QoR document) from
/// the warm-up pass.
type References = Vec<Option<(String, String)>>;

/// Checks replies; counts attempts and failures. Catalog replies must
/// repeat the warm-up bytes exactly; fresh replies must be `Ok`.
fn check(served: &[Served], refs: &References, report: &mut Report) {
    for s in served {
        report.attempted += 1;
        match (&s.reply, s.kind) {
            (
                Ok(Response::Ok {
                    netlist_verilog,
                    qor_json,
                    ..
                }),
                Kind::Catalog(i),
            ) => {
                if refs[i]
                    .as_ref()
                    .is_some_and(|(n, q)| n != netlist_verilog || q != qor_json)
                {
                    report.fail(
                        1,
                        format!("catalog spec {i}: reply diverged from the warm-up bytes"),
                    );
                }
            }
            (Ok(Response::Ok { .. }), Kind::Fresh { .. }) => {}
            (Ok(other), _) => report.fail(1, format!("{:?}: {}", s.kind, brief(other))),
            (Err(e), _) => report.fail(1, format!("{:?}: transport error: {e}", s.kind)),
        }
    }
}

fn brief(r: &Response) -> String {
    match r {
        Response::Busy => "refused (busy)".into(),
        Response::Error { msg, .. } => format!("error: {msg}"),
        Response::Timeout { .. } => "timed out".into(),
        other => format!("unexpected response {other:?}"),
    }
}

fn is_ok(s: &Served) -> bool {
    matches!(s.reply, Ok(Response::Ok { .. }))
}

/// Latencies from due time, ms, ascending; a failed request misses any
/// limit, so it sorts last as infinity.
fn latencies_ms(served: &[Served]) -> Vec<f64> {
    let v: Vec<f64> = served
        .iter()
        .map(|s| {
            if is_ok(s) {
                s.timing.latency() * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    stats::sorted(&v)
}

struct Setup {
    inputs: Inputs,
    server: Server,
    clients: Vec<Client>,
    warm_s: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let warm_s = crate::table1::warm_engine();
    let inputs = Inputs::new(seed);
    let connections = MAX_CONNECTIONS.min(crate::host::nproc());
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: crate::host::nproc(),
        // Never full: at most one request per connection is in flight.
        queue_depth: connections * 2,
        cache_capacity: CACHE_CAPACITY,
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let clients = (0..connections)
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    Ok(Setup {
        inputs,
        server,
        clients,
        warm_s,
    })
}

/// Set-up only, for a probe process.
pub fn setup_probe(args: &Args, start: Instant) -> f64 {
    let setup = setup(args.seed).expect("set-up succeeds");
    let setup_s = start.elapsed().as_secs_f64();
    drop(setup.clients);
    setup.server.shutdown();
    setup_s
}

pub fn run(args: &Args, start: Instant, report: &mut Report) -> RunOut {
    let mut s = match setup(args.seed) {
        Ok(s) => s,
        Err(e) => {
            report.attempted += 1;
            report.fail(1, e);
            return RunOut {
                setup_s: start.elapsed().as_secs_f64(),
                trace: None,
            };
        }
    };
    let setup_s = start.elapsed().as_secs_f64();
    report.set("charlib.warm_s", s.warm_s);
    report.note("rate_jobs_per_s", RATE_JOBS_PER_S);
    report.note("slo_ms", SLO_MS);
    report.note("connections", s.clients.len());

    // Warm-up: every catalog spec once; its replies are the references.
    let warmup = s.inputs.warmup();
    let (served, _) = run_phase(&mut s.clients, &warmup);
    let mut refs: References = vec![None; s.inputs.catalog.len()];
    for x in &served {
        if let (
            Kind::Catalog(i),
            Ok(Response::Ok {
                netlist_verilog,
                qor_json,
                ..
            }),
        ) = (x.kind, &x.reply)
        {
            refs[i] = Some((netlist_verilog.clone(), qor_json.clone()));
        }
    }
    check(&served, &refs, report);

    let mut trace_text = None;
    if args.trace {
        let (plain, _) = s.inputs.open_loop(args.seconds);
        let cpu0 = stats::process_cpu_seconds();
        let (plain_served, plain_wall) = run_phase(&mut s.clients, &plain);
        let cpu =
            (stats::process_cpu_seconds() - cpu0) / (plain_wall * crate::host::nproc() as f64);
        check(&plain_served, &refs, report);

        let (requests, _) = s.inputs.open_loop(args.seconds);
        let before = PhaseCounters::now(&mut s.clients[0]);
        let ((served, _), pass) = report::traced(|| run_phase(&mut s.clients, &requests));
        let after = PhaseCounters::now(&mut s.clients[0]);
        check(&served, &refs, report);
        record_layers(report, &served, &before, &after, &pass);
        let p50 = |v: &[Served]| percentile(&latencies_ms(v), 0.5).unwrap_or(0.0);
        report.set(
            "obs.trace_overhead_ratio",
            p50(&served) / p50(&plain_served),
        );
        report.set("obs.trace_events_lost", pass.lost as f64);
        report.set("rayon.cpu_util", cpu);
        report.unmeasured_prefixed(
            &["aig.synth_s.", "aig.dch_s.", "techmap.map_s."],
            "per-generator phase spans exist only on scale_50k",
        );
        trace_text = Some(pass.text);
    } else {
        // Closed-loop capacity: one round of the mix with every
        // connection saturated.
        let jobs = s.inputs.mix(1, None);
        let (served, wall) = run_phase(&mut s.clients, &jobs);
        check(&served, &refs, report);
        report.set("wall_s", wall);
        report.set(
            "capacity_jobs_per_s",
            served.iter().filter(|x| is_ok(x)).count() as f64 / wall,
        );

        // The open loop at the fixed offered rate.
        let (requests, schedule_s) = s.inputs.open_loop(args.seconds);
        let (served, phase_s) = run_phase(&mut s.clients, &requests);
        check(&served, &refs, report);
        let lat = latencies_ms(&served);
        report.note("requests", lat.len());
        report.note(
            "latency_deciles_ms",
            format!(
                "{:?}",
                (1..10)
                    .filter_map(|d| percentile(&lat, d as f64 / 10.0))
                    .map(|v| v.round())
                    .collect::<Vec<_>>()
            ),
        );
        report.note("schedule_s", schedule_s);
        match (tail_percentile(&lat, 0.5), tail_percentile(&lat, 0.95)) {
            (Some(p50), Some(p95)) => {
                report.set("p50_ms", p50);
                report.set("p95_ms", p95);
            }
            _ => report.fail(0, format!("{} requests cannot support a p95", lat.len())),
        }
        // Per second of the phase as it ran: the schedule plus the drain
        // of the last responses.
        let good = lat.iter().filter(|&&l| l <= SLO_MS).count();
        report.note("phase_s", phase_s);
        report.set("goodput_jobs_per_s", good as f64 / phase_s);
        report.note(
            "sched_lag_p95_ms",
            percentile(
                &stats::sorted(
                    &served
                        .iter()
                        .map(|x| x.timing.sched_lag() * 1e3)
                        .collect::<Vec<_>>(),
                ),
                0.95,
            )
            .unwrap_or(0.0),
        );
    }

    // The workload's memory high-water mark, before the checks add
    // their own.
    report.set("peak_rss_mb", stats::peak_rss_mb());

    // Correctness gate, after the timed phases: each catalog spec's QoR
    // equals the in-process pipeline's.
    let gate = Instant::now();
    gate_in_process(&s.inputs.catalog, &refs, report);
    report.note("gate_s", gate.elapsed().as_secs_f64());
    record_qor(report, &refs);

    drop(s.clients);
    s.server.shutdown();
    RunOut {
        setup_s,
        trace: trace_text,
    }
}

/// Lifetime server and registry counters at one instant.
struct PhaseCounters {
    stats: String,
    singleflight: HistSnap,
    conflicts: HistSnap,
    profile: aig::profile::Counters,
}

impl PhaseCounters {
    fn now(client: &mut Client) -> PhaseCounters {
        PhaseCounters {
            stats: client.stats().unwrap_or_default(),
            singleflight: HistSnap::of(obs::histogram("synthd_cache_singleflight_wait_us")),
            conflicts: report::conflicts_snapshot(),
            profile: aig::profile::snapshot(),
        }
    }
}

/// The per-layer metrics of a traced open-loop phase.
fn record_layers(
    report: &mut Report,
    served: &[Served],
    before: &PhaseCounters,
    after: &PhaseCounters,
    pass: &report::TracedPass,
) {
    let counters = after.profile.delta_since(&before.profile);
    let conflicts = after.conflicts.since(before.conflicts);
    for (k, v) in report::engine_layers(pass, &counters, conflicts) {
        report.set(k, v);
    }
    let telemetry: Vec<(f64, f64, f64)> = served
        .iter()
        .filter_map(|x| match &x.reply {
            Ok(Response::Ok { telemetry_json, .. }) => Some((
                stats::json_number(telemetry_json, "wall_ms")?,
                stats::json_number(telemetry_json, "queue_wait_ms")?,
                (x.timing.done - x.timing.sent) * 1e3,
            )),
            _ => None,
        })
        .collect();
    let col = |f: fn(&(f64, f64, f64)) -> f64| {
        stats::sorted(&telemetry.iter().map(f).collect::<Vec<_>>())
    };
    let walls = col(|t| t.0);
    let waits = col(|t| t.1);
    let wires = col(|t| t.2 - t.0 - t.1);
    let client_waits = stats::sorted(
        &served
            .iter()
            .map(|x| x.timing.client_wait() * 1e3)
            .collect::<Vec<_>>(),
    );
    let lags = stats::sorted(
        &served
            .iter()
            .map(|x| x.timing.sched_lag() * 1e3)
            .collect::<Vec<_>>(),
    );
    for (name, v) in [
        ("serve.server_wall_p50_ms", tail_percentile(&walls, 0.5)),
        ("serve.server_wall_p95_ms", tail_percentile(&walls, 0.95)),
        ("serve.queue_wait_p95_ms", tail_percentile(&waits, 0.95)),
        ("serve.wire_p50_ms", tail_percentile(&wires, 0.5)),
        (
            "serve.client_wait_p95_ms",
            tail_percentile(&client_waits, 0.95),
        ),
        ("serve.sched_lag_p95_ms", tail_percentile(&lags, 0.95)),
    ] {
        match v {
            Some(v) => report.set(name, v),
            None => report.unmeasured(name, format!("{} samples cannot support it", walls.len())),
        }
    }
    let delta = |key: &str| stats::counter_delta(&before.stats, &after.stats, key);
    match (
        delta("cache_hits"),
        delta("cache_misses"),
        delta("jobs_busy"),
    ) {
        (Some(hits), Some(misses), Some(busy)) => {
            let lookups = (hits + misses).max(1);
            report.set("serve.cache_hit_ratio", hits as f64 / lookups as f64);
            report.set("serve.cache_misses", misses as f64);
            report.set("serve.busy_refusals", busy as f64);
        }
        _ => report.fail(0, "the server's Stats frame lacks a counter"),
    }
    report.set(
        "serve.singleflight_wait_ms",
        after.singleflight.since(before.singleflight).sum as f64 / 1e3,
    );
    report.set(
        "serve.synthesize_s",
        pass.total_s("synthesize").unwrap_or(0.0),
    );
}

/// Each catalog spec's QoR document must equal what the in-process
/// pipeline (`engine` synthesis + `pipeline::run_job`) produces.
fn gate_in_process(catalog: &[JobSpec], refs: &References, report: &mut Report) {
    let config = pipeline_config();
    let flow = match engine::parse_flow(&config) {
        Ok(f) => f,
        Err(e) => {
            report.fail(catalog.len() as u64, format!("flow: {e}"));
            return;
        }
    };
    for (c, circuit) in catalog.chunks(GateFamily::ALL.len()).enumerate() {
        let input = match aig::from_aiger_auto(&circuit[0].aiger) {
            Ok(a) => a,
            Err(e) => {
                report.fail(circuit.len() as u64, format!("{}: {e}", circuit[0].name));
                continue;
            }
        };
        let (synthesized, choices) = engine::synthesize_with_choices(&flow, &input, &config);
        let db = ambipolar::pipeline::mapper_cut_db(&config.map);
        for (f, spec) in circuit.iter().enumerate() {
            report.attempted += 1;
            let i = c * GateFamily::ALL.len() + f;
            let job = ambipolar::run_job(
                &synthesized,
                choices.as_ref(),
                engine::library(spec.family),
                &config,
                &mut db.clone(),
                None,
            );
            match job {
                Ok(job) => {
                    let qor = serve::job_qor_json(spec, synthesized.and_count(), &job);
                    if refs[i].as_ref().is_none_or(|(_, q)| *q != qor) {
                        report.fail(
                            1,
                            format!(
                                "{}/{}: server QoR differs from in-process",
                                spec.name, spec.family
                            ),
                        );
                    }
                }
                Err(e) => report.fail(
                    1,
                    format!("{}/{}: in-process job failed: {e}", spec.name, spec.family),
                ),
            }
        }
    }
}

/// QoR over the 36 catalog specs, from their QoR documents.
fn record_qor(report: &mut Report, refs: &References) {
    let field = |key: &str| -> Vec<f64> {
        refs.iter()
            .flatten()
            .filter_map(|(_, q)| stats::json_number(q, key))
            .collect()
    };
    let gates = field("gates");
    let ands = field("synth_ands");
    report.set("gates_total", gates.iter().sum());
    // Every circuit appears once per family.
    report.set(
        "ands_total",
        ands.iter().sum::<f64>() / GateFamily::ALL.len() as f64,
    );
    let delays: Vec<f64> = field("delay_s").iter().map(|d| d * 1e12).collect();
    let powers: Vec<f64> = field("pt_w").iter().map(|p| p * 1e6).collect();
    report.set("delay_ps_geomean", stats::geomean(&delays));
    report.set("pt_uw_geomean", stats::geomean(&powers));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_raises_the_latency_of_requests_scheduled_after_it() {
        // One connection to a fake server that answers in 2 ms, except
        // request 2, which stalls for 150 ms. Requests are due every
        // 20 ms.
        let due: Vec<f64> = (0..8).map(|i| i as f64 * 0.020).collect();
        let mut conns = [|i: usize| {
            std::thread::sleep(Duration::from_millis(if i == 2 { 150 } else { 2 }));
            i
        }];
        let out = drive(&due, &mut conns);
        assert!(out.iter().enumerate().all(|(i, (_, r))| *r == i));
        let t = |i: usize| out[i].0;
        // Before the stall, latency is the service time.
        assert!(t(1).latency() < 0.015, "{:?}", t(1));
        // Request 3 was due at 60 ms but the connection was busy until
        // about 190 ms: its latency from due counts that wait, its
        // round trip does not.
        assert!(t(3).latency() > 0.100, "{:?}", t(3));
        assert!(t(3).done - t(3).sent < 0.015, "{:?}", t(3));
        assert!(t(3).client_wait() > 0.100);
        // Later requests still queue behind the stall.
        assert!(t(4).latency() > t(7).latency());
        assert!(t(4).latency() > 0.050);
        // The generator itself was never late by more than scheduling
        // jitter.
        assert!(out.iter().all(|(t, _)| t.sched_lag() < 0.010), "{out:?}");
    }

    #[test]
    fn schedules_are_seeded_and_a_quarter_fresh() {
        let mut a = Inputs::new(7);
        let mut b = Inputs::new(7);
        let mut c = Inputs::new(8);
        let (sa, len) = a.open_loop(20.0);
        let (sb, _) = b.open_loop(20.0);
        let (sc, _) = c.open_loop(20.0);
        let key = |s: &[Request]| -> Vec<(u64, Kind, Vec<u8>)> {
            s.iter()
                .map(|r| (r.due.to_bits(), r.kind, r.spec.aiger.clone()))
                .collect()
        };
        assert!(key(&sa) == key(&sb), "the same seed gives the same inputs");
        assert!(key(&sa) != key(&sc), "another seed gives other inputs");
        assert!(sa.len() >= MIN_REQUESTS);
        assert!(sa.windows(2).all(|w| w[0].due <= w[1].due));
        let fresh = sa
            .iter()
            .filter(|r| matches!(r.kind, Kind::Fresh { .. }))
            .count();
        assert_eq!(4 * fresh, sa.len(), "a quarter of the requests are fresh");
        assert!(sa.last().expect("non-empty").due < len);
        assert_eq!(sa.len() as f64 / len, RATE_JOBS_PER_S);
        // Whole rounds: every catalog spec equally often, every catalog
        // circuit relabeled equally often.
        let mut specs = [0usize; 36];
        let mut bases = std::collections::BTreeMap::new();
        for r in &sa {
            match r.kind {
                Kind::Catalog(i) => specs[i] += 1,
                Kind::Fresh { .. } => {
                    let base = r.spec.name.split('_').next().expect("named after its base");
                    *bases.entry(base.to_owned()).or_insert(0) += 1;
                }
            }
        }
        assert!(specs.iter().all(|&n| n == specs[0]), "{specs:?}");
        assert_eq!(bases.len(), 12);
        assert!(
            bases.values().all(|&n| n == 3 * sa.len() / JOBS_PER_ROUND),
            "{bases:?}"
        );

        let cap = a.mix(1, None);
        assert_eq!(cap.len(), JOBS_PER_ROUND);
        assert!(cap.iter().all(|r| r.due == 0.0));
    }
}
