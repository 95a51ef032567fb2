//! Per-layer attribution from the flight recorder's Chrome-trace export.
//!
//! `obs::span_stats` subtracts only same-thread children from a span's
//! self time, so a parent that waits on rayon workers is charged for
//! their work. Here a span's self time is its duration minus the part of
//! its interval that its child spans cover, on any thread — children are
//! found through the `parent` link every exported event carries.

use std::collections::{BTreeMap, HashMap};

/// One completed span of an exported trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (`flow/rw`, `map/select`, …).
    pub name: String,
    /// Start, µs since the trace epoch.
    pub ts: u64,
    /// Duration, µs.
    pub dur: u64,
    /// Span id.
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
}

/// Aggregate of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Spans closed under the name.
    pub count: u64,
    /// Summed durations, µs.
    pub total_us: u64,
    /// Summed self times (duration minus child-covered time), µs.
    pub self_us: u64,
}

/// Parses the complete (`"ph":"X"`) events of an `obs::export_trace`
/// document (one event per line). Instant events are skipped. The fixed
/// fields precede the free-form `args`, so they are read in order.
pub fn parse_spans(trace: &str) -> Vec<SpanEvent> {
    trace.lines().filter_map(parse_line).collect()
}

fn parse_line(line: &str) -> Option<SpanEvent> {
    let rest = line.strip_prefix("{\"name\":\"")?;
    let (name, rest) = json_string_body(rest)?;
    let rest = after(rest, "\"ph\":\"")?;
    if !rest.starts_with('X') {
        return None;
    }
    let (ts, rest) = number_after(rest, "\"ts\":")?;
    let (dur, rest) = number_after(rest, "\"dur\":")?;
    let (id, rest) = number_after(rest, "\"id\":")?;
    let (parent, _) = number_after(rest, "\"parent\":")?;
    Some(SpanEvent {
        name,
        ts,
        dur,
        id,
        parent,
    })
}

/// Decodes a JSON string body up to its closing quote; returns the text
/// and the remainder after the quote.
fn json_string_body(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4)
                        .filter_map(|_| chars.next().map(|(_, c)| c))
                        .collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn after<'a>(s: &'a str, pat: &str) -> Option<&'a str> {
    Some(&s[s.find(pat)? + pat.len()..])
}

fn number_after<'a>(s: &'a str, pat: &str) -> Option<(u64, &'a str)> {
    let rest = after(s, pat)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    Some((rest[..end].parse().ok()?, &rest[end..]))
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own), children on any thread.
pub fn self_times(spans: &[SpanEvent]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.ts, s.ts + s.dur);
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&c| (spans[c].ts.max(lo), (spans[c].ts + spans[c].dur).min(hi)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur - covered
        })
        .collect()
}

/// Per-name count, total and self time.
pub fn aggregate(spans: &[SpanEvent]) -> BTreeMap<String, SpanAgg> {
    let mut out: BTreeMap<String, SpanAgg> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times(spans)) {
        let agg = out.entry(s.name.clone()).or_default();
        agg.count += 1;
        agg.total_us += s.dur;
        agg.self_us += self_us;
    }
    out
}

/// Spans the recorder closed but the exported ring no longer holds (it
/// keeps the newest 65 536 events and drops the oldest).
pub fn events_lost(stats: &[obs::SpanStat], exported: &[SpanEvent]) -> u64 {
    let closed: u64 = stats.iter().map(|s| s.count).sum();
    closed.saturating_sub(exported.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: u64, dur: u64, id: u64, parent: u64) -> SpanEvent {
        SpanEvent {
            name: name.into(),
            ts,
            dur,
            id,
            parent,
        }
    }

    #[test]
    fn children_on_other_threads_are_subtracted_once_where_they_overlap() {
        // A parent [0, 100) waits on two overlapping worker spans
        // [10, 60) and [40, 80): they cover [10, 80) = 70 µs.
        let spans = vec![
            span("flow/dch", 0, 100, 1, 0),
            span("verify/refine", 10, 50, 2, 1),
            span("verify/refine", 40, 40, 3, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 50, 40]);
        let agg = aggregate(&spans);
        assert_eq!(
            agg["verify/refine"],
            SpanAgg {
                count: 2,
                total_us: 90,
                self_us: 90
            }
        );
        assert_eq!(agg["flow/dch"].self_us, 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval_and_grandchildren_ignored() {
        let spans = vec![
            span("map", 100, 50, 1, 0),
            span("map/cuts", 90, 20, 2, 1), // covers [100, 110)
            span("map/select", 120, 10, 3, 1),
            span("map/select/inner", 121, 5, 4, 3),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 5, 5]);
    }

    #[test]
    fn parses_the_exported_trace_and_counts_lost_events() {
        obs::set_enabled(true);
        obs::reset();
        {
            let mut outer = obs::span!("bench/outer");
            outer.record_str("name", "x\"y\\\"ts\":9");
            obs::event("cache/hit");
            let _inner = obs::span!("bench/inner");
        }
        obs::set_enabled(false);
        let text = obs::export_trace();
        let spans = parse_spans(&text);
        assert_eq!(spans.len(), 2, "{text}");
        let outer = spans
            .iter()
            .find(|s| s.name == "bench/outer")
            .expect("outer");
        let inner = spans
            .iter()
            .find(|s| s.name == "bench/inner")
            .expect("inner");
        assert_eq!(inner.parent, outer.id);
        assert!(inner.ts >= outer.ts && inner.dur <= outer.dur);
        assert_eq!(events_lost(&obs::span_stats(), &spans), 0);
        // Fewer exported events than closed spans are reported lost.
        assert_eq!(events_lost(&obs::span_stats(), &spans[..1]), 1);
        obs::reset();
    }

    #[test]
    fn decodes_escaped_names() {
        let line = r#"{"name":"a\"b\\c\u0041","cat":"obs","ph":"X","ts":5,"dur":7,"pid":1,"tid":2,"args":{"id":9,"parent":4}}"#;
        assert_eq!(parse_spans(line), vec![span("a\"b\\cA", 5, 7, 9, 4)]);
        let instant = r#"{"name":"cache/hit","cat":"obs","ph":"i","ts":5,"s":"t","pid":1,"tid":2,"args":{"id":0,"parent":4}}"#;
        assert!(parse_spans(instant).is_empty());
    }
}
