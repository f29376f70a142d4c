//! The metric catalogue and the result line.
//!
//! Every metric the benchmark reports is declared here once, with its
//! unit; `BENCHMARK.json` lists the same names and units, and the
//! benchmark's tests check that the two agree.

use std::collections::BTreeMap;

use experiments::Json;

use crate::layers::{AgentKind, QueueKind};

/// End-to-end metrics, measured on untraced runs.
const END_TO_END: [(&str, &str); 6] = [
    ("events_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_share", "ratio"),
];

/// Per-layer metrics before the per-queue-kind and per-agent-role groups.
const ENGINE_LAYER: [(&str, &str); 16] = [
    ("scenario.build_s", "s"),
    ("scenario.routes_s", "s"),
    ("scenario.collect_s", "s"),
    ("engine.run_s", "s"),
    ("engine.self_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.events", "count"),
    ("engine.enqueues", "count"),
    ("engine.drops", "count"),
    ("engine.tx_starts", "count"),
    ("engine.arrivals", "count"),
    ("engine.deliveries", "count"),
    ("engine.slice_ms.p50", "ms"),
    ("engine.slice_ms.p95", "ms"),
    ("arena.capacity", "count"),
    ("engine.live_packets_end", "count"),
];

/// Metrics reported for each queue kind, after `queue.<kind>.`.
pub(crate) const QUEUE_FIELDS: [(&str, &str); 7] = [
    ("enqueue_calls", "count"),
    ("enqueue_ns_per_call", "ns"),
    ("dequeue_calls", "count"),
    ("dequeue_ns_per_call", "ns"),
    ("dequeue_hit_ratio", "ratio"),
    ("drop_ratio", "ratio"),
    ("self_s", "s"),
];

/// Metrics reported for each agent role, after `<role>.`.
pub(crate) const AGENT_FIELDS: [(&str, &str); 5] = [
    ("on_packet_calls", "count"),
    ("on_packet_ns_per_call", "ns"),
    ("on_timer_calls", "count"),
    ("on_timer_ns_per_call", "ns"),
    ("self_s", "s"),
];

/// Per-layer metrics after the per-role groups.
const PROTOCOL_EXCHANGE_TRACE: [(&str, &str); 13] = [
    ("fault.drop_ratio", "ratio"),
    ("rla.retransmit_ratio", "ratio"),
    ("tcp.retransmit_ratio", "ratio"),
    ("rla.window_cuts", "count"),
    ("tcp.timeouts", "count"),
    ("exchange.domains", "count"),
    ("exchange.epochs", "count"),
    ("exchange.load_imbalance", "ratio"),
    ("exchange.model_speedup", "ratio"),
    ("exchange.measured_speedup", "ratio"),
    ("exchange.overhead_s", "s"),
    ("exchange.cpu_per_wall", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &str)> = ENGINE_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for kind in QueueKind::ALL {
        for (field, unit) in QUEUE_FIELDS {
            all.push((format!("queue.{}.{field}", kind.name()), unit));
        }
    }
    for kind in AgentKind::ALL {
        for (field, unit) in AGENT_FIELDS {
            all.push((format!("{}.{field}", kind.name()), unit));
        }
    }
    all.extend(
        PROTOCOL_EXCHANGE_TRACE
            .iter()
            .map(|&(n, u)| (n.to_string(), u)),
    );
    all
}

/// What one benchmark invocation measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Simulation runs started.
    pub attempted: u64,
    /// Runs that panicked or failed a check.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The metrics of `catalogue` with their values, in catalogue order.
    /// A metric without a value is a bug unless a run failed, in which
    /// case the metrics are left out.
    pub fn metrics(
        &self,
        catalogue: &[(String, &'static str)],
    ) -> Vec<(String, &'static str, f64)> {
        if self.failed > 0 {
            return Vec::new();
        }
        catalogue
            .iter()
            .map(|(name, unit)| {
                let v = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name.clone(), *unit, v)
            })
            .collect()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value": .., "unit": ..}`.
    pub fn result_line(&self, catalogue: &[(String, &'static str)]) -> String {
        let metrics = self
            .metrics(catalogue)
            .into_iter()
            .map(|(name, unit, v)| {
                let entry = Json::obj(vec![("value", v.into()), ("unit", unit.into())]);
                (name, entry)
            })
            .collect();
        let result = Json::obj(vec![
            ("correct", (self.failed == 0).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ]);
        // `pretty` puts each member on its own line and escapes every
        // string, so joining the trimmed lines gives valid one-line JSON.
        result.pretty().lines().map(str::trim_start).collect()
    }
}

/// The end-to-end catalogue in the form [`Report::metrics`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}
