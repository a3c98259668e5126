//! Metric names, the per-layer report of a traced run, and the result
//! line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Hist;
use crate::trace::SpanLog;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("device_slices_per_ref_s", "slices/ref-s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("energy_per_device_slice", "W"),
    ("mean_wait_slices", "slices"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// workload that never reaches a layer reports 0 for its metrics; every
/// `_p50`/`_ptail` pair states its sample count in the `_calls`/`count`
/// metric beside it (see `stats::tail_percentile` for which percentile
/// `_ptail` is).
pub const PER_LAYER: [(&str, &str); 56] = [
    ("serve.daemon.trace_parse_s", "s"),
    ("serve.daemon.build_rack_s", "s"),
    ("serve.daemon.recover_s", "s"),
    ("serve.daemon.report_ms", "ms"),
    ("serve.checkpoint.encode_ms_p50", "ms"),
    ("serve.checkpoint.encode_ms_ptail", "ms"),
    ("serve.checkpoint.write_ms_p50", "ms"),
    ("serve.checkpoint.write_ms_ptail", "ms"),
    ("serve.checkpoint.count", "count"),
    ("serve.checkpoint.bytes", "bytes"),
    ("sim.hierarchy.arrival_slice_us_p50", "us"),
    ("sim.hierarchy.arrival_slice_us_ptail", "us"),
    ("sim.hierarchy.arrival_slice_calls", "count"),
    ("sim.hierarchy.arrival_slice_busy_share", "fraction"),
    ("sim.hierarchy.advance_gap_us_p50", "us"),
    ("sim.hierarchy.advance_gap_us_ptail", "us"),
    ("sim.hierarchy.advance_gap_calls", "count"),
    ("sim.hierarchy.gap_slices", "slices"),
    ("sim.hierarchy.advance_gap_busy_share", "fraction"),
    ("sim.hierarchy.vetoed_wakeups", "count"),
    ("sim.hierarchy.shed_arrivals", "count"),
    ("sim.hierarchy.retried", "count"),
    ("sim.hierarchy.lost", "count"),
    ("sim.hierarchy.vetoes_per_arrival_slice", "ratio"),
    ("sim.fleet.build_s", "s"),
    ("sim.fleet_batch.run_s", "s"),
    ("sim.fleet_batch.cohorts", "count"),
    ("sim.fleet_batch.devices", "count"),
    ("sim.fleet.dynamic_run_s", "s"),
    ("sim.fleet.dynamic_devices", "count"),
    ("core.agent.decide_ns_p50", "ns"),
    ("core.agent.decide_ns_ptail", "ns"),
    ("core.agent.decide_calls", "count"),
    ("core.agent.observe_ns_p50", "ns"),
    ("core.agent.observe_ns_ptail", "ns"),
    ("core.agent.observe_calls", "count"),
    ("sim.adaptive.build_ms", "ms"),
    ("sim.adaptive.decide_ns_p50", "ns"),
    ("sim.adaptive.decide_calls", "count"),
    ("sim.adaptive.observe_ns_p50", "ns"),
    ("sim.adaptive.observe_ns_ptail", "ns"),
    ("sim.adaptive.observe_ns_max", "ns"),
    ("sim.adaptive.observe_calls", "count"),
    ("sim.adaptive.resolves", "count"),
    ("sim.adaptive.alarms", "count"),
    ("mdp.solve_ms_total", "ms"),
    ("sim.engine.step_ns_p50", "ns"),
    ("sim.engine.step_ns_ptail", "ns"),
    ("sim.engine.step_calls", "count"),
    ("sim.engine.step_self_ns_mean", "ns"),
    ("sim.parallel.busy_share", "fraction"),
    ("sim.failed_share", "fraction"),
    ("sim.deadline_miss_share", "fraction"),
    ("trace.overhead_share", "fraction"),
    ("trace.spans", "count"),
    ("trace.timer_ns", "ns"),
];

/// Nanoseconds per second.
pub const NS_PER_S: f64 = 1e9;
/// Nanoseconds per millisecond.
pub const NS_PER_MS: f64 = 1e6;
/// Nanoseconds per microsecond.
pub const NS_PER_US: f64 = 1e3;

fn is_per_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|&(n, _)| n == name)
}

/// What a traced call measured: per-layer values, the spans behind them
/// and the distributions of calls too frequent to keep as spans.
#[derive(Debug, Default)]
pub struct LayerReport {
    values: BTreeMap<&'static str, f64>,
    /// Spans around the coarse calls (one per slice, checkpoint or cell).
    pub spans: SpanLog,
    /// Per-call durations (ns) of the hot calls, by span name.
    pub hists: BTreeMap<&'static str, Hist>,
}

impl LayerReport {
    /// A report over `spans`.
    #[must_use]
    pub fn new(spans: SpanLog) -> Self {
        LayerReport {
            values: BTreeMap::new(),
            spans,
            hists: BTreeMap::new(),
        }
    }

    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a typo here would
    /// silently report 0 under the real name).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(is_per_layer(name), "{name} is not a per-layer metric");
        self.values.insert(name, value);
    }

    /// The value of a per-layer metric (0 when the run never set it).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Durations (ns) of every span named `name`.
    #[must_use]
    pub fn span_hist(&self, name: &str) -> Hist {
        let mut h = Hist::default();
        for s in self.spans.spans().iter().filter(|s| s.name == name) {
            h.record(s.end - s.start);
        }
        h
    }

    /// Summed duration (ns) of every span named `name`.
    #[must_use]
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Sets `<p50>` and `<ptail>` from `hist`, scaled from ns by `per`.
    pub fn set_percentiles(
        &mut self,
        p50: &'static str,
        ptail: &'static str,
        hist: &Hist,
        per: f64,
    ) {
        let (mid, tail) = hist.summary();
        self.set(p50, mid as f64 / per);
        self.set(ptail, tail.map_or(0.0, |(_, v)| v as f64) / per);
    }

    /// Values of every [`PER_LAYER`] metric, in its order.
    #[must_use]
    pub fn all(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
            .collect()
    }

    /// The human-readable per-layer table: span counts, total and self
    /// time per span name, the hot-call distributions with the sample
    /// count behind each percentile, then every metric.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<42} {:>9} {:>12} {:>12} {:>12} {:>16}",
            "span", "count", "total_ms", "self_ms", "p50_us", "tail_us(pct,n)"
        );
        for (name, totals) in self.spans.by_name() {
            let hist = self.span_hist(name);
            let (mid, tail) = hist.summary();
            let _ = writeln!(
                out,
                "{:<42} {:>9} {:>12.3} {:>12.3} {:>12.3} {:>16}",
                name,
                totals.count,
                totals.total_ns as f64 / NS_PER_MS,
                totals.self_ns as f64 / NS_PER_MS,
                mid as f64 / NS_PER_US,
                tail_cell(tail, hist.count(), NS_PER_US),
            );
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "{:<42} {:>9} {:>12} {:>12} {:>12} {:>16}",
                "call", "n", "mean_ns", "max_ns", "p50_ns", "tail_ns(pct,n)"
            );
            for (name, hist) in &self.hists {
                let (mid, tail) = hist.summary();
                let _ = writeln!(
                    out,
                    "{:<42} {:>9} {:>12.1} {:>12} {:>12} {:>16}",
                    name,
                    hist.count(),
                    hist.mean(),
                    hist.max(),
                    mid,
                    tail_cell(tail, hist.count(), 1.0),
                );
            }
        }
        for (name, value, unit) in self.all() {
            let _ = writeln!(out, "  {name:<44} {value:>16.6} {unit}");
        }
        out
    }
}

fn tail_cell(tail: Option<(f64, u64)>, n: u64, per: f64) -> String {
    match tail {
        Some((pct, v)) => format!("{:.3}(p{pct},{n})", v as f64 / per),
        None => format!("-(n={n}<20)"),
    }
}

/// The result object the benchmark prints as its last line.
///
/// # Errors
///
/// A metric that is not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for &(name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}, not a finite number"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units here and in `BENCHMARK.json` must agree, or
    /// the printed result would not match the declared metrics.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let rest = &json[start..];
            let end = rest.find(']').expect("section closes");
            rest[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field present");
                        let value = &entry[at + key.len() + 2..];
                        let open = value.find('"').expect("string value") + 1;
                        let close = value[open..].find('"').expect("string closes") + open;
                        value[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line =
            result_line(true, 3, 0, &[("setup_s", 0.25, "s"), ("n", 12.0, "count")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"n\": {\"value\": 12, \"unit\": \"count\"}}}"
        );
        assert!(result_line(true, 1, 0, &[("x", f64::NAN, "s")]).is_err());
    }

    #[test]
    fn unset_per_layer_metrics_read_zero() {
        let mut r = LayerReport::default();
        r.set("trace.spans", 4.0);
        assert_eq!(r.get("trace.spans"), 4.0);
        assert_eq!(r.get("mdp.solve_ms_total"), 0.0);
        assert_eq!(r.all().len(), PER_LAYER.len());
    }
}
