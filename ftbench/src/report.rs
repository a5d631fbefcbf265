//! The result line the benchmark prints last, and the detail line before it.

use serde::{Serialize, Value};

/// End-to-end metrics (`--trace 0`), with units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("converge_s", "s"),
    ("cells_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
];

/// Node names whose time, share and computed GFLOP/s the traced run
/// reports (the AlexNet plan's compute nodes in execution order).
pub const PLAN_NODES: [&str; 8] = ["conv1", "conv2", "conv3", "conv4", "conv5", "fc1", "fc2", "fc3"];

/// Per-layer metrics (`--trace 1`) other than the per-node ones, with units.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("host.canary_ms", "ms"),
    ("data.synth_s", "s"),
    ("models.load_s", "s"),
    ("quant.quantize_s", "s"),
    ("quant.batch_ms", "ms"),
    ("nn.compile_ms", "ms"),
    ("nn.batch_ms", "ms"),
    ("nn.node_sum_ratio", "ratio"),
    ("tensor.sgemm_gflops", "GFLOP/s"),
    ("tensor.i16gemm_gops", "GOP/s"),
    ("core.eval_ms", "ms"),
    ("core.eval_share", "ratio"),
    ("core.prefix_hit_rate", "ratio"),
    ("core.prefix_mb", "MB"),
    ("core.suffix_cell_share", "ratio"),
    ("core.clean_images_per_s", "1/s"),
    ("fault.cells", "count"),
    ("fault.zero_fault_share", "ratio"),
    ("fault.faults_per_cell", "count"),
    ("fault.overhead_ms", "ms"),
    ("store.record_us", "us"),
    ("store.lookup_us", "us"),
    ("bench.overhead_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.job_setup_s", "s"),
    ("serve.job_cells_s", "s"),
    ("serve.get_p50_ms", "ms"),
    ("serve.cpu_per_wall", "ratio"),
    ("serve.stream_no_terminal", "count"),
    ("serve.jobs_executed", "count"),
    ("serve.cache_hits", "count"),
    ("trace.converge_overhead_s", "s"),
    ("trace.job_overhead_s", "s"),
];

/// Every per-layer metric name and unit, node metrics included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for node in PLAN_NODES {
        all.push((format!("nn.{node}.ms"), "ms"));
        all.push((format!("nn.{node}.share"), "ratio"));
        all.push((format!("nn.{node}.gflops"), "GFLOP/s"));
    }
    all
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn object<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: wrong output, unexpected status or a
    /// transport error.
    pub failed: u64,
    /// Human-readable reasons for each failure.
    pub failures: Vec<String>,
    metrics: Vec<(String, f64)>,
    detail: Vec<(String, Value)>,
}

impl Report {
    /// Counts one attempted operation; `Err` counts it failed too.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Records a failure without a separate attempt (a check over
    /// operations already counted).
    pub fn fail(&mut self, why: String) {
        eprintln!("[ftbench] FAILED: {why}");
        self.failed += 1;
        self.failures.push(why);
    }

    /// Sets a metric value.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Adds a detail entry.
    pub fn detail(&mut self, key: &str, value: impl Serialize) {
        self.detail.push((key.to_string(), value.to_value()));
    }

    /// The detail line: settings, sample counts, drift and trace summaries
    /// that do not fit the result line's fixed keys.
    pub fn detail_line(&self) -> String {
        render(&object([("detail", Value::Object(self.detail.clone()))]))
    }

    /// The result line for the given metric list. A metric that was not
    /// measured, or is not a finite number, marks the run incorrect.
    pub fn result_line(&mut self, wanted: &[(String, &'static str)]) -> String {
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in wanted {
            match self.get(name).filter(|v| v.is_finite()) {
                Some(value) => metrics.push((
                    name.clone(),
                    object([("value", Value::Number(value)), ("unit", unit.to_value())]),
                )),
                None => missing.push(name.clone()),
            }
        }
        for name in missing {
            self.fail(format!("metric {name} was not measured"));
        }
        render(&object([
            ("correct", Value::Bool(self.failed == 0 && self.attempted > 0)),
            ("attempted", self.attempted.max(1).to_value()),
            ("failed", self.failed.to_value()),
            ("metrics", Value::Object(metrics)),
        ]))
    }
}

/// Compact JSON text of `value`.
pub fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("rendering a value tree cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys_and_full_digits() {
        let mut report = Report::default();
        report.op(Ok(()));
        report.metric("converge_s", 1.234_567_890_123);
        let wanted = vec![("converge_s".to_string(), "s"), ("setup_s".to_string(), "s")];
        let line = report.result_line(&wanted);
        let value = serde_json::from_str(&line).expect("the result line is JSON");
        let keys: Vec<&str> = value.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // the unmeasured metric fails the run
        assert_eq!(value.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(value.get("failed").and_then(Value::as_u64), Some(1));
        let converge = value.get("metrics").and_then(|m| m.get("converge_s")).unwrap();
        assert_eq!(converge.get("value").and_then(Value::as_f64), Some(1.234_567_890_123));
        assert_eq!(converge.get("unit").and_then(Value::as_str), Some("s"));
    }
}
