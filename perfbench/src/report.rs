//! One run's result: metrics, run metadata and correctness verdicts,
//! printed as readable lines followed by the one-line JSON summary.

use std::fmt::Write as _;

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload never calls reports 0 (e.g. `serving.*` on
/// `batch_offline`, which has no server).
pub const PER_LAYER: [(&str, &str); 24] = [
    ("data.parse_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("similarity.warm_ms", "ms"),
    ("similarity.warm_lists", "count"),
    ("similarity.peers_us", "us"),
    ("similarity.cold_frac", "ratio"),
    ("core.predict_ms", "ms"),
    ("core.predict_share", "ratio"),
    ("core.pool_us", "us"),
    ("core.pool_items", "count"),
    ("core.select_us", "us"),
    ("engine.assemble_us", "us"),
    ("engine.request_ms", "ms"),
    ("metrics.observe_us", "us"),
    ("serving.submit_us", "us"),
    ("serving.coalesced_frac", "ratio"),
    ("serving.batch_mean", "count"),
    ("serving.wait_ms", "ms"),
    ("engine.ingest_delta_ms", "ms"),
    ("engine.ingest_blanket_ms", "ms"),
    ("engine.ingest_delta_frac", "ratio"),
    ("engine.delta_touched", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("groups_per_s", "1/s"),
    ("fresh_p50_ms", "ms"),
    ("fairness_mean", "ratio"),
    ("worst_member_utility", "ratio"),
];

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    meta: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        if !value.is_finite() {
            self.error(format!("metric {name} is not finite ({value})"));
        }
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_owned(), value, unit.to_owned())),
        }
    }

    /// Pre-fills every per-layer metric with 0, so a traced run always
    /// prints the full set.
    pub fn per_layer_defaults(&mut self) {
        for (name, unit) in PER_LAYER {
            self.metric(name, 0.0, unit);
        }
    }

    /// Records a metadata field; `value` must already be JSON.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_owned(), value.to_string()));
    }

    /// Records a correctness failure: the run reports `correct: false`.
    pub fn error(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("perfbench: correctness failure: {message}");
        self.errors.push(message);
    }

    /// Keeps exactly the end-to-end metrics, in their fixed order; a
    /// missing one is a failure of the harness.
    pub fn retain_end_to_end(&mut self) {
        self.retain(&END_TO_END);
    }

    pub fn retain_per_layer(&mut self) {
        self.retain(&PER_LAYER);
    }

    fn retain(&mut self, keep: &[(&str, &str)]) {
        let mut kept = Vec::with_capacity(keep.len());
        for (name, unit) in keep {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some(m) => kept.push(m.clone()),
                None => {
                    self.error(format!("metric {name} was not measured"));
                    kept.push((name.to_string(), 0.0, unit.to_string()));
                }
            }
        }
        self.metrics = kept;
    }

    /// Folds another workload's report into this one, prefixing its
    /// metric names with the workload (the `--workload all` summary).
    pub fn absorb(&mut self, workload: &str, other: &Report) {
        for (name, value, unit) in &other.metrics {
            self.metrics
                .push((format!("{workload}/{name}"), *value, unit.clone()));
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors.iter().cloned());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Readable lines, the metadata line, and last the JSON summary.
    pub fn print(&self, workload: &str) {
        self.print_lines(workload);
        println!("{}", self.summary_json());
    }

    /// Readable lines (`<workload> <metric> <value> <unit>`) and the
    /// metadata line.
    pub fn print_lines(&self, workload: &str) {
        for (name, value, unit) in &self.metrics {
            println!("{workload:<14} {name:<26} {value:>14.6} {unit}");
        }
        println!(
            "{workload:<14} {:<26} {:>14.6} ratio  ({} failed of {} attempted)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        let mut meta = String::from("{");
        for (i, (key, value)) in self.meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(meta, "{sep}{}: {value}", json_str(key));
        }
        meta.push('}');
        println!("meta {workload} {meta}");
    }

    pub fn summary_json(&self) -> String {
        let mut metrics = String::from("{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        metrics.push('}');
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the f64 (shortest round-trip
/// form); non-finite values, which JSON cannot carry and which
/// [`Report::metric`] already flags as failures, become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
        for workload in crate::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\"")));
        }
    }

    #[test]
    fn summary_json_has_the_contract_keys_and_full_digits() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_p50_ms", 1.234_567_890_123, "ms");
        assert_eq!(
            r.summary_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}}}"
        );
        r.retain_end_to_end();
        assert!(!r.correct(), "missing metrics are a harness failure");
    }
}
