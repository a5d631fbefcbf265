//! The three workloads, the specs they run and the environment they refuse.
//!
//! Every spec keeps `seed: 42`, the only seed whose AlexNet weights are
//! committed under `assets/`; any other spec seed would retrain the model
//! inside the measured set-up. The benchmark's workload seed only draws the
//! generated inputs: a per-rate jitter of the fixed `late-layers` grid and
//! the service job mix.
//!
//! The adaptive sweep runs the paper grid unjittered. Its work jumps with
//! the rates: one rare catastrophic flip sends a rate from 2 to 50
//! repetitions, so a 2% rate jitter moved `f32-sweep` between 14 and 110
//! cells, and `converge_s` would have measured the seed, not the program.
//! A seed-free spec also lets its table be pinned byte for byte.

use std::path::{Path, PathBuf};

use ftclip_bench::{ExperimentSpec, Procedure, RateGrid, RunSettings, TargetSpec};
use ftclip_fault::StoppingRule;

use crate::stats::SeedRng;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole-network adaptive bit-flip campaign, f32 (Fig. 1b).
    F32Sweep,
    /// Fixed-grid per-layer campaign on FC-1 (Fig. 3 rates), f32.
    LateLayers,
    /// `ftclipd` in-process under a seeded closed-loop job mix.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::F32Sweep, Workload::LateLayers, Workload::ServeMixed];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::F32Sweep => "f32-sweep",
            Workload::LateLayers => "late-layers",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The spec seed with committed weights.
pub const SPEC_SEED: u64 = 42;

/// The committed weights every workload loads (relative to the checkout).
pub const WEIGHTS: &str = "assets/alexnet-w0.1250-c10-s42-e10-b64-lr0.0300-a1.ftcw";

/// Environment variables that would change what the program does under the
/// benchmark's feet: thread count, injected faults, cache budgets and
/// locations. The benchmark refuses to run with any of them set.
pub const REFUSED_ENV: [&str; 5] =
    ["FTCLIP_THREADS", "FTCLIP_FAILPOINTS", "FTCLIP_PREFIX_CACHE_MB", "FTCLIP_PLAN_CACHE", "FTCLIP_CACHE"];

/// Checks the process environment and the committed weights.
///
/// # Errors
///
/// A message naming the offending variable or the missing weights file.
pub fn check_environment(root: &Path) -> Result<(), String> {
    check_environment_with(root, |name| std::env::var_os(name).is_some())
}

/// [`check_environment`] over an explicit `is_set` lookup.
///
/// # Errors
///
/// See [`check_environment`].
pub fn check_environment_with(root: &Path, is_set: impl Fn(&str) -> bool) -> Result<(), String> {
    if let Some(name) = REFUSED_ENV.iter().find(|name| is_set(name)) {
        return Err(format!("{name} is set; unset it so the benchmark measures the default configuration"));
    }
    if !root.join(WEIGHTS).is_file() {
        return Err(format!(
            "committed weights {WEIGHTS} are missing; refusing to run, because the model would be retrained inside the measurement"
        ));
    }
    Ok(())
}

/// The rates scaled by a seeded factor in `[1 - spread, 1 + spread)` each.
fn jitter(rng: &mut SeedRng, rates: &[f64], spread: f64) -> Vec<f64> {
    rates.iter().map(|r| r * (1.0 + spread * (2.0 * rng.unit() - 1.0))).collect()
}

/// The Fig. 3 per-layer rate grid.
pub const PER_LAYER_RATES: [f64; 8] = [1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4];

/// Per-rate jitter of the generated grids: small enough that every seed
/// asks for about the same work, large enough that each seed addresses its
/// own cells.
pub const RATE_JITTER: f64 = 0.02;

/// Repetitions per rate of the fixed `late-layers` grid.
pub const LATE_LAYER_REPS: usize = 20;

/// The spec a campaign workload runs for `seed`.
///
/// # Panics
///
/// Panics for [`Workload::ServeMixed`], which runs a job mix instead.
pub fn campaign_spec(workload: Workload, seed: u64) -> ExperimentSpec {
    let mut rng = SeedRng::new(seed, 1);
    let builder = match workload {
        Workload::F32Sweep => ExperimentSpec::builder(Procedure::CampaignSummary, "f32_sweep")
            .rates(RateGrid::PaperScaled)
            .stopping(StoppingRule { target_half_width: 0.02, min_reps: 2, max_reps: 50 }),
        Workload::LateLayers => ExperimentSpec::builder(Procedure::CampaignSummary, "late_layers")
            .target(TargetSpec::Layer("FC-1".into()))
            .rates(RateGrid::Scaled(jitter(&mut rng, &PER_LAYER_RATES, RATE_JITTER)))
            .repetitions(LATE_LAYER_REPS),
        Workload::ServeMixed => panic!("serve-mixed runs a job mix, not one campaign spec"),
    };
    builder
        .eval_size(256)
        .seed(SPEC_SEED)
        .build()
        .expect("benchmark specs validate")
}

/// The warm-up twin of a campaign spec: same model, data, evaluation and
/// precision, one zero-rate cell. Running it fills a runner's workload and
/// clean-accuracy memos without touching the
/// measured spec's cells.
pub fn warmup_spec(spec: &ExperimentSpec) -> ExperimentSpec {
    let mut warm = spec.clone();
    warm.name = format!("{}_warmup", spec.name);
    warm.rates = RateGrid::Absolute(vec![0.0]);
    warm.repetitions = 1;
    warm.stopping = None;
    warm
}

/// Rates of the small FC-1 jobs the service mix submits.
const SERVE_RATES: [f64; 4] = [1e-5, 5e-5, 1e-4, 5e-4];

/// The `index`-th fresh job of the service mix: a small `late-layers`-shaped
/// campaign (4 rates × 5 repetitions on FC-1) whose seeded rate jitter gives
/// every job its own fingerprint.
pub fn serve_job_spec(rng: &mut SeedRng, index: usize) -> ExperimentSpec {
    ExperimentSpec::builder(Procedure::CampaignSummary, &format!("serve_job_{index}"))
        .target(TargetSpec::Layer("FC-1".into()))
        .rates(RateGrid::Scaled(jitter(rng, &SERVE_RATES, RATE_JITTER)))
        .repetitions(5)
        .eval_size(256)
        .seed(SPEC_SEED)
        .build()
        .expect("benchmark specs validate")
}

/// Run settings rooted in `dir`: results under `dir/results`, the cell
/// store under `dir/cache`, the committed model zoo under `root/assets`.
pub fn run_settings(root: &Path, dir: &Path) -> RunSettings {
    RunSettings {
        scale: None,
        quick: false,
        reps: None,
        eval_size: None,
        seed: None,
        adaptive: false,
        ci_eps: None,
        out_dir: dir.join("results"),
        cache_root: Some(dir.join("cache")),
        assets_dir: root.join("assets"),
    }
}

/// A scratch directory under the checkout's `.bench_work/`, emptied first.
///
/// # Errors
///
/// Any filesystem error creating it.
pub fn work_dir(root: &Path, tag: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(".bench_work").join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_only_generated_inputs() {
        let (a, b) = (campaign_spec(Workload::LateLayers, 1), campaign_spec(Workload::LateLayers, 2));
        assert_eq!(a.seed, SPEC_SEED);
        assert_eq!(a, campaign_spec(Workload::LateLayers, 1), "same seed, same spec");
        assert_ne!(a.rates, b.rates, "the seed jitters the rate grid");
        let mut b_same_rates = b.clone();
        b_same_rates.rates = a.rates.clone();
        assert_eq!(a, b_same_rates, "nothing but the grid depends on the seed");
        assert_eq!(
            campaign_spec(Workload::F32Sweep, 1),
            campaign_spec(Workload::F32Sweep, 2),
            "the sweep runs the paper grid"
        );
        let (mut r1, mut r2) = (SeedRng::new(1, 2), SeedRng::new(2, 2));
        assert_ne!(
            serve_job_spec(&mut r1, 0).fingerprint().key(),
            serve_job_spec(&mut r2, 0).fingerprint().key()
        );
    }

    #[test]
    fn warmup_keeps_model_data_and_precision() {
        let spec = campaign_spec(Workload::LateLayers, 3);
        let warm = warmup_spec(&spec);
        assert_eq!(
            (&warm.workload, &warm.data, warm.eval_size),
            (&spec.workload, &spec.data, spec.eval_size)
        );
        assert_eq!(warm.precision, spec.precision);
        assert_ne!(warm.fingerprint().key(), spec.fingerprint().key());
    }
}
