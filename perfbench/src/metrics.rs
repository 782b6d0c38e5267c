//! Metric names, units, and the result line.
//!
//! These lists are the benchmark's contract: a test checks that they
//! match `BENCHMARK.json` name for name and unit for unit.

use std::collections::BTreeMap;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serviced.submit_ack_ms", "ms"),
    ("serviced.accepted_to_done_ms", "ms"),
    ("serviced.spec_parse_us", "us"),
    ("serviced.journal_accept_us", "us"),
    ("serviced.journal_batch_mean", "records"),
    ("serviced.checksum_ms", "ms"),
    ("serviced.unaccounted_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.wake_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("runtime.exchange_ms", "ms"),
    ("runtime.outside_exchange_ms", "ms"),
    ("runtime.seed_ms", "ms"),
    ("runtime.assembly_cpu_ms", "ms"),
    ("runtime.transport_cpu_ms", "ms"),
    ("runtime.rearrange_cpu_ms", "ms"),
    ("runtime.rho_ns_per_byte", "ns/B"),
    ("runtime.model_us", "us"),
    ("runtime.wire_bytes", "B"),
    ("runtime.messages", "count"),
    ("runtime.bytes_copied", "B"),
    ("runtime.rearranged_bytes", "B"),
    ("runtime.allocations", "count"),
    ("runtime.peak_node_bytes", "B"),
    ("runtime.injected_drops", "count"),
    ("runtime.timeouts", "count"),
    ("runtime.resends", "count"),
    ("runtime.resend_ratio", "ratio"),
    ("message.crc32_gb_s", "GB/s"),
    ("message.encode_us", "us"),
    ("message.decode_us", "us"),
    ("core.plan_build_ms", "ms"),
    ("collective_plan.lower_ms", "ms"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer counters that repeat exactly for a given seed (per-job
/// means over the replay's fixed job set). `runtime.allocations` and
/// `runtime.timeouts` depend on timing: see `perfbench/README.md`.
pub const EXACT: &[&str] = &[
    "runtime.wire_bytes",
    "runtime.messages",
    "runtime.bytes_copied",
    "runtime.rearranged_bytes",
    "runtime.peak_node_bytes",
    "runtime.injected_drops",
    "runtime.resends",
    "service.cache_hit_ratio",
];

#[cfg(test)]
/// A metric name is 1..=64 of `[A-Za-z0-9_.-]`, starting with a letter
/// or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values by name; emitted in name order.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`, which must be in `END_TO_END` or `PER_LAYER`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        self.0.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// The result line's `metrics` object for the names in `list`, each
    /// `{"value": v, "unit": u}`. Panics if one was never recorded — a
    /// result line must carry every metric of its mode.
    pub fn json(&self, list: &[(&str, &str)]) -> String {
        let fields: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The unit registered for `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A finite JSON number with all its digits (non-finite values, which
/// no metric should produce, become 0 so the line stays valid JSON).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_serviced::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        for name in EXACT {
            assert!(unit_of(name).is_some(), "{name}");
        }
        assert!(valid_name("a.b-c_9") && !valid_name("_x") && !valid_name("a b"));
        assert!(!valid_name("") && !valid_name(&"x".repeat(65)));
    }

    #[test]
    fn emitted_names_are_exactly_those_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let expected: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn result_json_carries_every_listed_metric() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let text = m.json(END_TO_END);
        let parsed = json::parse(&text).unwrap();
        for (name, unit) in END_TO_END {
            let entry = parsed.get(name).unwrap();
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
        }
    }
}
