//! The benchmark's own arithmetic: percentiles, medians, geometric
//! means, `/proc` parsing and per-phase deltas of cumulative counters.
//! Everything here is a pure function so the self-tests below can pin
//! it down exactly.

/// Samples that must lie beyond a tail percentile's rank before that
/// percentile is reported (fewer makes the tail one or two samples).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
pub const USER_HZ: f64 = 100.0;

/// Nearest-rank percentile of ascending `sorted`: the sample at rank
/// `ceil(q·n)` (1-based). `None` on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// [`percentile`] for a tail: `None` unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond the rank.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = rank(sorted.len(), q)?;
    (sorted.len() - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps q·n that is an integer in exact arithmetic
    // (0.95 · 200) from rounding up past it in binary floating point.
    let rank = (q * n as f64 - 1e-9).ceil().max(1.0) as usize;
    Some(rank.min(n))
}

/// The values sorted ascending (NaN-free input assumed; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median: the middle sample, or the mean of the two middle samples
/// for an even count. 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values (0 for no samples).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name (field 2) is parenthesized and may hold spaces or
/// parentheses itself, so fields are counted after its last `)`.
pub fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14
    // and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` document,
/// in kB.
pub fn status_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// This process's CPU time (all threads, live and exited), seconds.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / USER_HZ)
}

/// This process's peak resident set, MB (MiB).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The number a flat JSON document holds under `key` (first
/// occurrence; keys of the documents read here are unique). Reads the
/// server's Stats frame and per-response telemetry.
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let tail = doc[at..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Growth of a cumulative counter between two Stats documents — the
/// share of a lifetime counter that one phase caused. `None` when
/// either document lacks the key or the counter went backwards.
pub fn counter_delta(before: &str, after: &str, key: &str) -> Option<u64> {
    let b = json_number(before, key)?;
    let a = json_number(after, key)?;
    (a >= b).then_some((a - b) as u64)
}

/// A histogram's cumulative (count, sum) at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSnap {
    /// Observations so far.
    pub count: u64,
    /// Sum of the observed values so far.
    pub sum: u64,
}

impl HistSnap {
    /// Snapshot of a registry histogram.
    pub fn of(h: &obs::Histogram) -> HistSnap {
        HistSnap {
            count: h.count(),
            sum: h.sum(),
        }
    }

    /// Observations made since `earlier`.
    pub fn since(self, earlier: HistSnap) -> HistSnap {
        HistSnap {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Mean observed value (0 without observations).
    pub fn mean(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank_ceil_q_n() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0)); // ceil(5) = rank 5
        assert_eq!(percentile(&v, 0.51), Some(6.0)); // ceil(5.1) = rank 6
        assert_eq!(percentile(&v, 0.95), Some(10.0)); // ceil(9.5) = rank 10
        assert_eq!(percentile(&v, 0.0), Some(1.0)); // rank clamps to 1
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        // q·n that is integral in exact arithmetic does not round up.
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), Some(190.0));
    }

    #[test]
    fn a_tail_with_fewer_than_ten_samples_beyond_is_missing() {
        // n = 200: p95 is rank 190, exactly ten samples beyond.
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&w, 0.95), Some(190.0));
        // n = 199: rank ceil(189.05) = 190, nine beyond — missing.
        assert_eq!(tail_percentile(&w[..199], 0.95), None);
        // The median needs twenty samples for ten beyond it.
        assert_eq!(tail_percentile(&w[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&w[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn parses_proc_self_stat_with_a_hostile_command_name() {
        // Fields after the command: state ppid pgrp session tty tpgid
        // flags minflt cminflt majflt cmajflt utime stime ...
        let stat = "4242 (perf bench) (x)) S 1 4242 4242 0 -1 4194560 \
                    900 0 0 0 1234 56 0 0 20 0 3 0 777 1000 100";
        assert_eq!(stat_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(stat_cpu_ticks("4242 (x) S 1 2"), None);
        assert_eq!(stat_cpu_ticks("no parens at all"), None);
        // The live file parses too.
        let live = std::fs::read_to_string("/proc/self/stat").expect("procfs");
        assert!(stat_cpu_ticks(&live).is_some());
    }

    #[test]
    fn parses_vm_hwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(status_vm_hwm_kb(status), Some(51234));
        assert_eq!(status_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(status_vm_hwm_kb("VmHWM:\t garbage kB\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn per_phase_deltas_of_cumulative_stats() {
        let before =
            "{\"jobs_ok\": 36, \"jobs_busy\": 0, \"cache_hits\": 24, \"cache_misses\": 12}";
        let after =
            "{\"jobs_ok\": 260, \"jobs_busy\": 2, \"cache_hits\": 215, \"cache_misses\": 33}";
        assert_eq!(counter_delta(before, after, "jobs_ok"), Some(224));
        assert_eq!(counter_delta(before, after, "jobs_busy"), Some(2));
        assert_eq!(counter_delta(before, after, "cache_hits"), Some(191));
        assert_eq!(counter_delta(before, after, "cache_misses"), Some(21));
        // A key's name being a prefix of another's does not confuse it.
        assert_eq!(counter_delta(before, after, "jobs"), None);
        // A counter that went backwards is not a delta.
        assert_eq!(counter_delta(after, before, "jobs_ok"), None);

        let h0 = HistSnap {
            count: 10,
            sum: 500,
        };
        let h1 = HistSnap {
            count: 14,
            sum: 900,
        };
        assert_eq!(h1.since(h0), HistSnap { count: 4, sum: 400 });
        assert_eq!(h1.since(h0).mean(), 100.0);
        assert_eq!(h0.since(h0).mean(), 0.0);
    }

    #[test]
    fn reads_telemetry_fields() {
        let t = "{\"deterministic\": {\"cache_hit\": true, \"cuts_reused\": 3}, \
                 \"timing\": {\"request_id\": 7, \"wall_ms\": 1.25e1, \"queue_wait_ms\": 3.5e-2}}";
        assert_eq!(json_number(t, "wall_ms"), Some(12.5));
        assert_eq!(json_number(t, "queue_wait_ms"), Some(0.035));
        assert_eq!(json_number(t, "missing"), None);
    }
}
