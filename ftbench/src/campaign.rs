//! The campaign workloads (`f32-sweep`, `late-layers`)
//! measured end to end through `Runner`, the entry point `ftclip run`
//! uses.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ftclip_bench::{ExperimentSpec, RunOutcome, Runner};
use ftclip_store::ResultStore;

use serde::Serialize;

use crate::report::{object, Report};
use crate::stats::{due, median, tail};
use crate::workloads::{campaign_spec, run_settings, warmup_spec, work_dir, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Cache-hit re-runs per measurement, spread evenly over the window. With
/// 60 samples `hit_tail_ms` is the 83rd percentile; more samples would push
/// it into the few seconds of a transient host slowdown.
pub const HITS: usize = 60;

/// Most cache hits run back to back between two fresh runs. A longer burst
/// can sit inside one transient host slowdown and carry `hit_tail_ms`, the
/// eleventh-slowest hit, with it.
pub const HIT_BURST: usize = 10;

/// Fresh runs per measurement, at least, however long they take.
pub const MIN_FRESH: usize = 3;

/// A runner whose memos were filled by the warm-up spec.
pub struct Warmed {
    /// The runner; every measured run goes through it.
    pub runner: Runner,
    /// The measured spec.
    pub spec: ExperimentSpec,
    /// Scratch directory holding the runner's results and cell store.
    pub dir: PathBuf,
}

/// One fresh run: the campaign from an empty store to the table on disk.
#[derive(Debug, Clone)]
pub struct Fresh {
    /// Wall seconds of `Runner::run`.
    pub secs: f64,
    /// Cells computed (the store holds exactly these afterwards).
    pub cells: usize,
    /// The result table's CSV bytes.
    pub csv: Vec<u8>,
}

/// Runs `spec` on a single-thread budget and returns the CSV it wrote.
pub(crate) fn run_once(runner: &Runner, spec: &ExperimentSpec) -> Result<Vec<u8>, String> {
    let outcomes: Vec<RunOutcome> = runner
        .run_batch_with_threads(std::slice::from_ref(spec), 1)
        .map_err(|e| format!("{}: {e}", spec.name))?;
    let outcome = outcomes.first().ok_or_else(|| format!("{}: no outcome", spec.name))?;
    if !outcome.passed() {
        return Err(format!("{}: shape checks failed: {:?}", spec.name, outcome.failures));
    }
    let csv = outcome
        .tables
        .iter()
        .find(|p| p.extension().is_some_and(|e| e == "csv"))
        .ok_or_else(|| format!("{}: no CSV table written", spec.name))?;
    std::fs::read(csv).map_err(|e| format!("{}: reading {}: {e}", spec.name, csv.display()))
}

/// Sets a fresh runner up `times` times (each a new `Runner` running the
/// warm-up spec) and returns the last one with the set-up seconds.
///
/// # Errors
///
/// The first failing warm-up.
pub fn set_up(
    root: &Path,
    dir: &Path,
    spec: &ExperimentSpec,
    times: usize,
) -> Result<(Warmed, Vec<f64>), String> {
    let warm = warmup_spec(spec);
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let runner = Runner::new(run_settings(root, dir));
        let t = Instant::now();
        run_once(&runner, &warm)?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(runner);
    }
    let runner = last.expect("at least one set-up");
    Ok((Warmed { runner, spec: spec.clone(), dir: dir.to_path_buf() }, secs))
}

impl Warmed {
    fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    /// Cells held by the cell store.
    pub fn stored_cells(&self) -> usize {
        let store = ResultStore::new(self.cache_dir());
        store
            .sessions()
            .into_iter()
            .filter_map(|key| store.summary(key))
            .map(|s| s.cells)
            .sum()
    }

    /// Empties the cell store, so the next run computes every cell.
    pub fn clear_store(&self) {
        let dir = self.cache_dir();
        if dir.exists() {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A fresh run: empty store, then `Runner::run` to the table on disk.
    ///
    /// # Errors
    ///
    /// A failed run.
    pub fn fresh(&self) -> Result<Fresh, String> {
        self.clear_store();
        let t = Instant::now();
        let csv = run_once(&self.runner, &self.spec)?;
        let secs = t.elapsed().as_secs_f64();
        Ok(Fresh { secs, cells: self.stored_cells(), csv })
    }

    /// A cache-hit re-run: every cell replayed from the store. Returns the
    /// milliseconds and the CSV.
    ///
    /// # Errors
    ///
    /// A failed run.
    pub fn hit(&self) -> Result<(f64, Vec<u8>), String> {
        let t = Instant::now();
        let csv = run_once(&self.runner, &self.spec)?;
        Ok((t.elapsed().as_secs_f64() * 1e3, csv))
    }
}

/// Compares a CSV with the first one this run produced.
fn same_table(reference: &mut Option<Vec<u8>>, csv: Vec<u8>, what: &str) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(csv);
            Ok(())
        }
        Some(first) if *first == csv => Ok(()),
        Some(_) => Err(format!("{what}: result CSV differs from the first run of this seed")),
    }
}

/// The measured samples of one campaign workload run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up seconds.
    pub setups: Vec<f64>,
    /// Fresh runs.
    pub fresh: Vec<Fresh>,
    /// Cache-hit milliseconds.
    pub hits: Vec<f64>,
    /// The first CSV, every later one must equal it.
    pub csv: Option<Vec<u8>>,
}

/// Measures a campaign workload for `seconds` (at least [`MIN_FRESH`]
/// fresh runs), counting operations and output checks into `report`.
///
/// # Errors
///
/// Set-up failures (nothing can be measured without a model).
pub fn measure(
    root: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<Samples, String> {
    let spec = campaign_spec(workload, seed);
    let dir = work_dir(root, workload.name()).map_err(|e| e.to_string())?;
    let (warmed, setups) = set_up(root, &dir, &spec, SETUPS)?;
    report.attempted += setups.len() as u64;
    let mut samples = Samples { setups, ..Samples::default() };
    let start = Instant::now();
    loop {
        match warmed.fresh() {
            Ok(fresh) => {
                let cells_match = samples.fresh.first().is_none_or(|f| f.cells == fresh.cells);
                let table = same_table(&mut samples.csv, fresh.csv.clone(), "fresh run");
                report.op(table.and_then(|()| {
                    if cells_match {
                        Ok(())
                    } else {
                        Err(format!(
                            "fresh run computed {} cells, the first computed {:?}",
                            fresh.cells,
                            samples.fresh.first().map(|f| f.cells)
                        ))
                    }
                }));
                samples.fresh.push(fresh);
            }
            Err(e) => report.op(Err(e)),
        }
        let target = due(HITS, HIT_BURST, samples.hits.len(), start.elapsed().as_secs_f64(), seconds);
        while samples.hits.len() < target {
            match warmed.hit() {
                Ok((ms, csv)) => {
                    report.op(same_table(&mut samples.csv, csv, "cache-hit run"));
                    samples.hits.push(ms);
                }
                Err(e) => {
                    report.op(Err(e));
                    break;
                }
            }
        }
        let done = samples.fresh.len() >= MIN_FRESH && start.elapsed().as_secs_f64() >= seconds;
        if done || report.failed > 0 {
            break;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(samples)
}

/// Runs a campaign workload with tracing off and records the end-to-end
/// metrics.
pub fn end_to_end(root: &Path, workload: Workload, seed: u64, seconds: f64, report: &mut Report) {
    let samples = match measure(root, workload, seed, seconds, report) {
        Ok(samples) => samples,
        Err(e) => {
            report.op(Err(e));
            return;
        }
    };
    let converge: Vec<f64> = samples.fresh.iter().map(|f| f.secs).collect();
    let rates: Vec<f64> = samples.fresh.iter().map(|f| f.cells as f64 / f.secs).collect();
    report.metric("setup_s", median(&samples.setups));
    report.metric("converge_s", median(&converge));
    report.metric("cells_per_s", median(&rates));
    // a campaign job is one `Runner::run`: submission to table on disk
    report.metric("job_p50_s", median(&converge));
    report.metric("hit_p50_ms", median(&samples.hits));
    if let Some((pct, value)) = tail(&samples.hits) {
        report.metric("hit_tail_ms", value);
        report.detail(
            "hit_tail",
            object([("percentile", pct.to_value()), ("samples", samples.hits.len().to_value())]),
        );
    }
    report.detail("setup_s", samples.setups.as_slice());
    report.detail("converge_s", converge.as_slice());
    report.detail("fresh_cells", samples.fresh.iter().map(|f| f.cells).collect::<Vec<_>>());
    if let Some(csv) = &samples.csv {
        let hash = fnv64(csv);
        report.detail("csv_fnv64", format!("{hash:016x}"));
        // the sweep's spec does not depend on the seed, so its table is
        // pinned: one that changes between processes fails
        if workload == Workload::F32Sweep {
            report.op(if hash == F32_SWEEP_CSV_FNV64 {
                Ok(())
            } else {
                Err(format!("f32-sweep table hashes to {hash:016x}, expected {F32_SWEEP_CSV_FNV64:016x}"))
            });
        }
    }
}

/// The FNV-1a 64 hash of `f32-sweep`'s result table.
pub const F32_SWEEP_CSV_FNV64: u64 = 0xcdfe_452e_c544_029a;

/// FNV-1a 64 of a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
