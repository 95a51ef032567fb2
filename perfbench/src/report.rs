//! Metric names, the result line, and the per-layer attribution shared
//! by the workloads.

use crate::stats::{median, HistSnap};
use crate::trace::{self, SpanAgg};
use std::collections::BTreeMap;

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order.
/// An untraced run prints all of them on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("goodput_jobs_per_s", "1/s"),
    ("capacity_jobs_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("gates_total", "count"),
    ("ands_total", "count"),
    ("delay_ps_geomean", "ps"),
    ("pt_uw_geomean", "uW"),
];

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A
/// traced run prints all of them on every workload; one the workload
/// does not exercise reads 0 and its reason is recorded.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("charlib.warm_s", "s"),
    ("aig.synth_s.mult", "s"),
    ("aig.synth_s.tree", "s"),
    ("aig.synth_s.rand", "s"),
    ("aig.dch_s.mult", "s"),
    ("aig.dch_s.tree", "s"),
    ("aig.dch_s.rand", "s"),
    ("aig.flow_b_s", "s"),
    ("aig.flow_rw_s", "s"),
    ("aig.flow_rf_s", "s"),
    ("aig.flow_dch_s", "s"),
    ("aig.refine_s", "s"),
    ("aig.refine_rounds", "count"),
    ("aig.sim_words", "count"),
    ("aig.cuts_computed", "count"),
    ("aig.cuts_reused", "count"),
    ("aig.cut_reuse_ratio", "ratio"),
    ("sat.merge_calls", "count"),
    ("sat.merge_proven", "count"),
    ("sat.merge_refuted", "count"),
    ("sat.merge_budget_out", "count"),
    ("sat.merge_proven_ratio", "ratio"),
    ("sat.verify_s", "s"),
    ("sat.conflicts_per_proof_mean", "count"),
    ("techmap.map_s.mult", "s"),
    ("techmap.map_s.tree", "s"),
    ("techmap.map_s.rand", "s"),
    ("techmap.cuts_s", "s"),
    ("techmap.match_s", "s"),
    ("techmap.select_s", "s"),
    ("techmap.recover_s", "s"),
    ("techmap.cover_s", "s"),
    ("techmap.materialize_s", "s"),
    ("techmap.mappings", "count"),
    ("power-est.estimate_s", "s"),
    ("core.map_s", "s"),
    ("rayon.cpu_util", "ratio"),
    ("rayon.par_tasks", "count"),
    ("serve.server_wall_p50_ms", "ms"),
    ("serve.server_wall_p95_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.wire_p50_ms", "ms"),
    ("serve.client_wait_p95_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.busy_refusals", "count"),
    ("serve.singleflight_wait_ms", "ms"),
    ("serve.synthesize_s", "s"),
    ("serve.sched_lag_p95_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.trace_events_lost", "count"),
];

/// What one run measured and what went wrong.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (jobs, including the correctness gate's).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out, diverged or
    /// were mis-verified.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Why a per-layer metric could not be measured on this workload.
    pub unmeasured: BTreeMap<&'static str, String>,
    /// Sample counts and other context for the result file.
    pub notes: BTreeMap<&'static str, String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts `n` failed operations with their reason.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        let why = why.into();
        eprintln!("perfbench: FAILED: {why}");
        self.failed += n;
        self.failures.push(why);
    }

    /// Records context for the result file.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.insert(key, value.to_string());
    }

    /// Marks a per-layer metric as not measurable here.
    pub fn unmeasured(&mut self, name: &'static str, why: impl Into<String>) {
        self.unmeasured.insert(name, why.into());
    }

    /// Marks every per-layer metric whose name starts with one of
    /// `prefixes` as not measurable here.
    pub fn unmeasured_prefixed(&mut self, prefixes: &[&str], why: &str) {
        for &(name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.unmeasured(name, why);
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The `metrics` object: every metric of `names`, missing per-layer
    /// metrics as 0 with a recorded reason.
    pub fn metrics_json(&mut self, names: &[(&'static str, &'static str)]) -> String {
        let mut parts = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    let v = *v;
                    self.fail(0, format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    if !self.unmeasured.contains_key(name) {
                        self.unmeasured
                            .insert(name, "not exercised by this workload".into());
                    }
                    0.0
                }
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_f64(value)
            ));
        }
        format!("{{{}}}", parts.join(", "))
    }
}

/// A finite f64 as a JSON number with every significant digit.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// A string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What one traced pass recorded: per-name span aggregates (self time
/// across threads), the events the ring dropped, and the raw export.
pub struct TracedPass {
    /// Aggregates by span name.
    pub spans: BTreeMap<String, SpanAgg>,
    /// Closed spans missing from the export.
    pub lost: u64,
    /// The Chrome-trace/Perfetto document.
    pub text: String,
}

/// Runs `work` with span recording on, from an empty ring, and exports
/// what it recorded. The export happens after `work` returns, outside
/// any time `work` measures.
pub fn traced<R>(work: impl FnOnce() -> R) -> (R, TracedPass) {
    obs::reset();
    obs::set_enabled(true);
    let r = work();
    obs::set_enabled(false);
    let text = obs::export_trace();
    let spans = trace::parse_spans(&text);
    let lost = trace::events_lost(&obs::span_stats(), &spans);
    let pass = TracedPass {
        spans: trace::aggregate(&spans),
        lost,
        text,
    };
    (r, pass)
}

impl TracedPass {
    fn agg(&self, name: &str) -> Option<SpanAgg> {
        self.spans.get(name).copied()
    }

    /// Summed self time of the named spans, seconds (`None` when none
    /// of them closed).
    pub fn self_s(&self, names: &[&str]) -> Option<f64> {
        let aggs: Vec<SpanAgg> = names.iter().filter_map(|n| self.agg(n)).collect();
        (!aggs.is_empty()).then(|| aggs.iter().map(|a| a.self_us).sum::<u64>() as f64 / 1e6)
    }

    /// Summed duration of the named span, seconds.
    pub fn total_s(&self, name: &str) -> Option<f64> {
        self.agg(name).map(|a| a.total_us as f64 / 1e6)
    }

    /// Spans closed under the name.
    pub fn count(&self, name: &str) -> u64 {
        self.agg(name).map_or(0, |a| a.count)
    }
}

/// The per-layer values one traced pass yields for the engine layers:
/// span self/total times where the span closed, and the `aig::profile`
/// counter and `sat_conflicts_per_proof` histogram deltas of the pass.
pub fn engine_layers(
    pass: &TracedPass,
    counters: &aig::profile::Counters,
    conflicts: HistSnap,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let spans: [(&'static str, Option<f64>); 14] = [
        ("aig.flow_b_s", pass.self_s(&["flow/b"])),
        (
            "aig.flow_rw_s",
            pass.self_s(&["flow/rw", "flow/rw -z", "flow/rw -l", "flow/rw -z -l"]),
        ),
        ("aig.flow_rf_s", pass.self_s(&["flow/rf"])),
        ("aig.flow_dch_s", pass.self_s(&["flow/dch"])),
        ("aig.refine_s", pass.self_s(&["verify/refine"])),
        ("sat.verify_s", pass.total_s("verify")),
        ("techmap.cuts_s", pass.self_s(&["map/cuts"])),
        ("techmap.match_s", pass.self_s(&["map/match"])),
        ("techmap.select_s", pass.self_s(&["map/select"])),
        ("techmap.recover_s", pass.self_s(&["map/recover"])),
        ("techmap.cover_s", pass.self_s(&["map/cover"])),
        ("techmap.materialize_s", pass.self_s(&["map/materialize"])),
        ("power-est.estimate_s", pass.total_s("estimate")),
        ("core.map_s", pass.total_s("map")),
    ];
    out.extend(spans.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))));
    let c = counters;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.extend([
        ("techmap.mappings", pass.count("map/cuts") as f64),
        ("aig.refine_rounds", c.refine_rounds as f64),
        ("aig.sim_words", c.sim_words as f64),
        ("aig.cuts_computed", c.cuts_computed as f64),
        ("aig.cuts_reused", c.cuts_reused as f64),
        (
            "aig.cut_reuse_ratio",
            ratio(c.cuts_reused, c.cuts_reused + c.cuts_computed),
        ),
        ("sat.merge_calls", c.sat_merge_calls as f64),
        ("sat.merge_proven", c.sat_merge_proven as f64),
        ("sat.merge_refuted", c.sat_merge_refuted as f64),
        ("sat.merge_budget_out", c.sat_merge_budget_out as f64),
        (
            "sat.merge_proven_ratio",
            ratio(c.sat_merge_proven, c.sat_merge_calls),
        ),
        ("sat.conflicts_per_proof_mean", conflicts.mean()),
        ("rayon.par_tasks", c.par_tasks as f64),
    ]);
    out
}

/// Folds per-pass layer values into the report as medians over passes.
/// A name missing from some passes is taken over the passes that have
/// it.
pub fn record_layer_medians(report: &mut Report, passes: &[Vec<(&'static str, f64)>]) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        for &(k, v) in pass {
            by_name.entry(k).or_default().push(v);
        }
    }
    for (k, v) in by_name {
        report.set(k, median(&v));
    }
}

/// The `sat_conflicts_per_proof` histogram now.
pub fn conflicts_snapshot() -> HistSnap {
    HistSnap::of(obs::histogram("sat_conflicts_per_proof"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree: the
    /// runner reads the file, the binary prints these lists.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(doc) = std::fs::read_to_string(path) else {
            return; // the benchmark package on its own, without the repo
        };
        let section = |key: &str| -> Vec<(String, String)> {
            let start = doc.find(&format!("\"{key}\"")).expect("section present");
            let end = doc[start..].find(']').expect("section closes") + start;
            doc[start..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("closing quote")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn missing_metrics_read_zero_with_a_reason() {
        let mut r = Report::default();
        r.set("setup_s", 1.5);
        r.unmeasured("serve.cache_misses", "no server on this workload");
        let json = r.metrics_json(&[
            ("setup_s", "s"),
            ("serve.cache_misses", "count"),
            ("x", "s"),
        ]);
        assert_eq!(
            json,
            "{\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"serve.cache_misses\": {\"value\": 0.0, \"unit\": \"count\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"s\"}}"
        );
        assert_eq!(
            r.unmeasured["serve.cache_misses"],
            "no server on this workload"
        );
        assert!(r.unmeasured.contains_key("x"));
        assert!(r.correct());
        r.set("p50_ms", f64::NAN);
        r.metrics_json(&[("p50_ms", "ms")]);
        assert!(!r.correct(), "a non-finite metric fails the run");
    }
}
