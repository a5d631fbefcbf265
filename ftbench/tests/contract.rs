//! The benchmark's own contract: metric names agree with `BENCHMARK.json`,
//! the environment checks refuse what they should, and the traced run's
//! count metrics repeat exactly for a seed.
//!
//! Run with `cargo test --release --manifest-path ftbench/Cargo.toml`; the
//! traced test drives real campaigns on the committed model.

use std::path::{Path, PathBuf};

use ftbench::report::{per_layer_metrics, Report, END_TO_END};
use ftbench::workloads::{check_environment_with, Workload, REFUSED_ENV};
use serde::Value;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("checkout root")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text =
        std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json at the checkout root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_units(value: &Value, key: &str) -> Vec<(String, String)> {
    value
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a '{key}' list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let json = benchmark_json();
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(names_units(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> =
        per_layer_metrics().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(names_units(&json, "per_layer"), layers);
    let workloads: Vec<String> = names_units(&json, "workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn refuses_tuning_variables_and_missing_weights() {
    for name in REFUSED_ENV {
        let err = check_environment_with(&root(), |n| n == name).unwrap_err();
        assert!(err.contains(name), "{err}");
    }
    assert!(check_environment_with(&root(), |_| false).is_ok());
    let err = check_environment_with(&root().join("no-such-dir"), |_| false).unwrap_err();
    assert!(err.contains("weights"), "{err}");
}

#[test]
fn traced_counts_repeat_exactly_for_a_seed() {
    let run = || {
        let mut report = Report::default();
        ftbench::trace::traced(&root(), Workload::LateLayers, 11, &mut report);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        report
    };
    let (a, b) = (run(), run());
    for name in ["fault.cells", "fault.zero_fault_share", "core.prefix_hit_rate", "serve.jobs_executed"] {
        let (x, y) = (a.get(name), b.get(name));
        assert!(x.is_some(), "{name} was not measured");
        assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits), "{name} differs between runs of one seed");
    }
    // every per-layer metric is measured on this workload
    for (name, _) in per_layer_metrics() {
        assert!(a.get(&name).is_some_and(f64::is_finite), "{name} missing");
    }
}
