//! What a run reports: the metric tables `BENCHMARK.json` mirrors, the
//! result of one run, and the line the driver reads.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The five workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "explore",
    "check",
    "serve_hot",
    "serve_miss",
    "cluster_outage",
];

/// An end-to-end metric: name, unit, whether higher is better, and the
/// share of the parent's median by which it may worsen.
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The bounds are three times the typical run-to-run spread of identical
/// code, capped at the quarter the contract allows: the two-core box this
/// was sized on changes its own speed by ±10 % over tens of seconds (see
/// the README), so timing metrics of 20 s runs spread by 3–8 % (`explore`:
/// up to 19 %) whatever the benchmark does.
pub const END_TO_END: [EndToEndMetric; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_per_s", "1/s", true, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("latency_p90_ms", "ms", false, 0.25),
    e2e("cpu_us_per_unit", "us", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.15),
    e2e("ok_share", "share", true, 0.02),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEndMetric {
    EndToEndMetric {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// The per-layer metrics of the traced run: name, unit, higher-is-better.
/// A workload that never enters a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str, bool); 52] = [
    ("sim.explorer.plain_s", "s", false),
    ("sim.explorer.reduced_s", "s", false),
    ("sim.explorer.runs", "count", false),
    ("sim.explorer.states_canonicalized", "count", true),
    ("sim.explorer.sleep_set_pruned", "count", true),
    ("sim.explorer.steals", "count", true),
    ("par.threads", "count", true),
    ("sim.checkpoint.overhead_share", "share", false),
    ("store.journal.append_batch_us", "us", false),
    ("epistemic.checker.new_s", "s", false),
    ("epistemic.checker.knows_s", "s", false),
    ("epistemic.checker.temporal_s", "s", false),
    ("epistemic.checker.tables", "count", false),
    ("epistemic.checker.table_bytes", "bytes", false),
    ("epistemic.conditions.a1_a5_s", "s", false),
    ("serve.wire.request_decode_us", "us", false),
    ("serve.wire.response_encode_us", "us", false),
    ("serve.wire.request_encode_us", "us", false),
    ("serve.wire.response_decode_us", "us", false),
    ("serve.cache.key_of_us", "us", false),
    ("serve.cache.get_hit_us", "us", false),
    ("serve.metrics.record_us", "us", false),
    ("serve.metrics.report_us", "us", false),
    ("serve.server.service_us_p50", "us", false),
    ("serve.server.ping_rtt_us", "us", false),
    ("serve.transport.residual_us", "us", false),
    ("serve.server.hit_share", "share", true),
    ("core.harness.run_cell_ms", "ms", false),
    ("serve.server.compute_ms_p50", "ms", false),
    ("serve.server.queue_wait_ms_p50", "ms", false),
    ("serve.server.overhead_ms", "ms", false),
    ("serve.cache.insert_evict_us", "us", false),
    ("serve.admission.try_admit_us", "us", false),
    ("serve.admission.observe_us", "us", false),
    ("par.pool.submit_us", "us", false),
    ("store.snapshot.save_ms", "ms", false),
    ("serve.server.single_flight_share", "share", true),
    ("serve.server.shed_share", "share", false),
    ("serve.ring.shard_for_ns", "ns", false),
    ("serve.ring.replicas_ns", "ns", false),
    ("fd.phi.update_ns", "ns", false),
    ("serve.router.hop_added_ms", "ms", false),
    ("serve.router.failovers", "count", false),
    ("serve.detector.detect_ms", "ms", false),
    ("serve.detector.readmit_ms", "ms", false),
    ("serve.detector.probes_per_s", "1/s", false),
    ("serve.detector.false_suspicions", "count", false),
    ("serve.router.unserved_ms_per_outage", "ms", false),
    ("serve.router.bystander_miss_share", "share", false),
    ("loadgen.cpu_share", "share", false),
    ("loadgen.late_p99_ms", "ms", false),
    ("trace.overhead_share", "share", false),
];

/// Per-layer values of one traced run, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "`{name}` is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The seven end-to-end values of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub cpu_us_per_unit: f64,
    pub peak_rss_mb: f64,
    pub ok_share: f64,
}

impl EndToEnd {
    /// Values in [`END_TO_END`] order.
    pub fn values(&self) -> [f64; 7] {
        [
            self.setup_s,
            self.throughput_per_s,
            self.latency_p50_ms,
            self.latency_p90_ms,
            self.cpu_us_per_unit,
            self.peak_rss_mb,
            self.ok_share,
        ]
    }
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// No answer differed from the oracle's.
    pub correct: bool,
    /// Operations attempted in the window (requests, or whole units for
    /// the in-process workloads).
    pub attempted: u64,
    /// Operations refused, answered with a typed error, or never answered.
    pub failed: u64,
    pub end_to_end: EndToEnd,
    pub layers: Layers,
    /// Latency samples behind the two percentiles.
    pub latency_samples: usize,
    /// Exact counts that must repeat for a fixed seed (`--stability`).
    pub exact_counts: Vec<(&'static str, u64)>,
    /// Why `correct` is false, when it is.
    pub mismatches: Vec<String>,
    /// Anything else worth a line in the table (e.g. why requests failed).
    pub notes: Vec<String>,
}

impl Outcome {
    /// A run that has not gone wrong yet.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.correct = false;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what.into());
        }
    }

    /// Human-readable table: every metric of this mode by name and unit.
    pub fn table(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {workload}: correct={} attempted={} failed={} latency_samples={} \
             (p90 needs 100; this sample supports p{})",
            self.correct,
            self.attempted,
            self.failed,
            self.latency_samples,
            stats::highest_supported_percentile(self.latency_samples),
        );
        for why in &self.mismatches {
            let _ = writeln!(out, "  MISMATCH {why}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for (name, count) in &self.exact_counts {
            let _ = writeln!(out, "  exact {name} {count}");
        }
        if traced {
            for (name, unit, _) in PER_LAYER {
                let _ = writeln!(out, "  {name:<40} {:>16.6} {unit}", self.layers.get(name));
            }
        } else {
            for (metric, value) in END_TO_END.iter().zip(self.end_to_end.values()) {
                let _ = writeln!(out, "  {:<40} {value:>16.6} {}", metric.name, metric.unit);
            }
        }
        out
    }

    /// The one-line JSON object the driver parses.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|(name, unit, _)| metric_json(name, self.layers.get(name), unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(self.end_to_end.values())
                .map(|(m, value)| metric_json(m.name, value, m.unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // `{}` on an f64 prints the shortest decimal that round-trips, i.e.
    // every digit that was measured; JSON has no NaN or infinity.
    assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        v.get(name).unwrap_or_else(|| panic!("missing `{name}`"))
    }

    fn string(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn array(v: &Value) -> &[Value] {
        match v {
            Value::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    /// `BENCHMARK.json` and the tables above must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let spec: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            array(field(&spec, key))
                .iter()
                .map(|m| string(field(m, "name")).to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|(n, _, _)| *n).collect::<Vec<_>>()
        );
        let better = |higher: bool| if higher { "higher" } else { "lower" };
        for (json, table) in array(field(&spec, "end_to_end")).iter().zip(&END_TO_END) {
            assert_eq!(string(field(json, "unit")), table.unit);
            assert_eq!(
                string(field(json, "better")),
                better(table.higher_is_better)
            );
            assert_eq!(
                serde_json::to_string(field(json, "bound")).unwrap(),
                serde_json::to_string(&table.bound).unwrap()
            );
        }
        for (json, (_, unit, higher)) in array(field(&spec, "per_layer")).iter().zip(&PER_LAYER) {
            assert_eq!(string(field(json, "unit")), *unit);
            assert_eq!(string(field(json, "better")), better(*higher));
        }
    }

    #[test]
    fn json_line_carries_every_metric_of_its_mode() {
        let mut outcome = Outcome::new();
        outcome.attempted = 5;
        outcome.end_to_end.setup_s = 0.25;
        outcome.layers.set("par.threads", 2.0);
        let plain: Value = serde_json::from_str(&outcome.json_line(false)).unwrap();
        let traced: Value = serde_json::from_str(&outcome.json_line(true)).unwrap();
        for metric in &END_TO_END {
            assert!(field(&plain, "metrics").get(metric.name).is_some());
        }
        for (name, _, _) in PER_LAYER {
            assert!(field(&traced, "metrics").get(name).is_some());
        }
        assert_eq!(
            serde_json::to_string(field(field(&plain, "metrics"), "setup_s")).unwrap(),
            r#"{"value":0.25,"unit":"s"}"#
        );
    }
}
