//! `ftbench`: the end-to-end and per-layer benchmark of the FT-ClipAct
//! reproduction. See `ftbench/README.md` for the workloads, the metrics and
//! how to read them.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod report;
pub mod service;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::Path;

use report::{object, per_layer_metrics, Report, END_TO_END};
use serde::Serialize;
use workloads::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input-generation seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: ftbench --workload f32-sweep|late-layers|serve-mixed --seed N --seconds S --trace 0|1";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A message for a missing, unknown or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?);
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed '{value}'"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(|| format!("bad seconds '{value}'"))?,
                    );
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace '{value}'")),
                    });
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Runs the benchmark from the checkout root `root`; returns the detail
/// line and the result line.
pub fn run(root: &Path, args: &Args) -> (String, String) {
    let mut report = Report::default();
    report.detail("workload", args.workload.name());
    report.detail("seed", args.seed);
    report.detail("seconds", args.seconds);
    report.detail(
        "settings",
        object([
            ("thread_budget", 1usize.to_value()),
            (
                "available_parallelism",
                std::thread::available_parallelism().map_or(0, usize::from).to_value(),
            ),
            ("spec_seed", workloads::SPEC_SEED.to_value()),
            ("campaign_setups", campaign::SETUPS.to_value()),
            ("serve_setups", service::SETUPS.to_value()),
            ("prefix_cache", "default".to_value()),
            ("plan_cache", "on".to_value()),
            ("failpoints", "off".to_value()),
        ]),
    );
    let wanted: Vec<(String, &'static str)> = if args.trace {
        trace::traced(root, args.workload, args.seed, &mut report);
        per_layer_metrics()
    } else {
        let before = stats::canary_ms();
        match args.workload {
            Workload::ServeMixed => service::end_to_end(root, args.seed, args.seconds, &mut report),
            w => campaign::end_to_end(root, w, args.seed, args.seconds, &mut report),
        }
        let after = stats::canary_ms();
        report.detail("canary_ms", object([("before", before.to_value()), ("after", after.to_value())]));
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let result = report.result_line(&wanted);
    (report.detail_line(), result)
}
