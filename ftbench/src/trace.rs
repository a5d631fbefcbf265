//! The traced run: per-layer metrics from timed calls into each crate's
//! public functions, made from the benchmark's own code.
//!
//! Spans (name, start, end, parent) are kept in memory and written to
//! `.bench_work/traces/` when the run ends; each layer's self time is its
//! spans' duration minus the part covered by their children.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ftclip_bench::{campaign_summary_table, load_workload, spec_data, ExperimentSpec, Workload as Loaded};
use ftclip_core::{EvalSet, EvalSettings, PrefixCacheStats};
use ftclip_fault::{
    Campaign, CampaignCache, CampaignConfig, CampaignObserver, CampaignResult, CellEval, RunRecord,
    SuffixHint,
};
use ftclip_nn::{ForwardPlan, Layer, PlanNode, Scratch, Sequential, Span};
use ftclip_quant::QuantizedPlan;
use ftclip_store::{campaign_fingerprint, ResultStore};
use ftclip_tensor::Tensor;

use crate::campaign::set_up;
use serde::{Serialize, Value};

use crate::report::{object, render, Report, PLAN_NODES};
use crate::stats::{canary_ms, median, SeedRng};
use crate::workloads::{campaign_spec, serve_job_spec, work_dir, Workload};

/// One recorded span; times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `nn.batch`.
    pub name: String,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Records a finished span and returns its index.
    pub fn record(&self, name: &str, start: Instant, end: Instant, parent: Option<usize>) -> usize {
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(SpanRec {
            name: name.to_string(),
            start: self.at(start),
            end: self.at(end),
            parent,
        });
        spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Closes a span opened with [`Tracer::open`]; returns its seconds.
    pub fn close(&self, id: usize) -> f64 {
        let end = self.at(Instant::now());
        let mut spans = self.spans.lock().expect("span lock");
        spans[id].end = end;
        end - spans[id].start
    }

    /// Times `f` as a span; returns its value and seconds.
    pub fn time<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(name, start, end, parent);
        (value, (end - start).as_secs_f64())
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// `true` before the first span.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per span name: `(name, count, total seconds, self seconds)`, largest
    /// self time first.
    pub fn self_times(&self) -> Vec<(String, usize, f64, f64)> {
        let spans = self.spans.lock().expect("span lock");
        let mut child = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let total = s.end - s.start;
            let own = (total - child[i]).max(0.0);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name.clone(), 1, total, own)),
            }
        }
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// Writes every span as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span lock");
        let rows: Vec<Value> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                object([
                    ("id", i.to_value()),
                    ("name", s.name.to_value()),
                    ("start", s.start.to_value()),
                    ("end", s.end.to_value()),
                    ("parent", s.parent.to_value()),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, render(&Value::Array(rows)) + "\n")
    }
}

/// Median milliseconds of `reps` calls of `f`, each recorded as a span.
fn median_ms(tracer: &Tracer, name: &str, parent: Option<usize>, reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| tracer.time(name, parent, &mut f).1 * 1e3).collect();
    median(&times)
}

/// Multiply-accumulates of one compute node on a batch, from the shapes
/// the plan inferred (`None` for non-compute nodes).
fn node_macs(net: &Sequential, plan: &ForwardPlan, node: &PlanNode) -> Option<f64> {
    match *node {
        PlanNode::ConvAct { conv, .. } => {
            let Layer::Conv2d(c) = &net.layers()[conv] else { return None };
            let out = plan.shape_at(conv + 1)?;
            let k = c.geometry().kernel;
            Some((out.iter().product::<usize>() * c.in_channels() * k * k) as f64)
        }
        PlanNode::LinearAct { lin, .. } => {
            let Layer::Linear(l) = &net.layers()[lin] else { return None };
            let batch = plan.shape_at(lin)?[0];
            Some((batch * l.in_features() * l.out_features()) as f64)
        }
        _ => None,
    }
}

/// Times the `data`, `models`, `nn`, `tensor` and `quant` layers on the
/// workload's own model and data. Returns the loaded workload.
fn layer_probes(root: &Path, spec: &ExperimentSpec, tracer: &Tracer, report: &mut Report) -> Loaded {
    let probes = tracer.open("probes", None);
    let parent = Some(probes);
    let (data, synth_s) = tracer.time("data.synth", parent, || spec_data(spec));
    let (loaded, load_s) =
        tracer.time("models.load", parent, || load_workload(spec, &data, &root.join("assets")));
    report.metric("data.synth_s", synth_s);
    report.metric("models.load_s", load_s);
    let net = &loaded.model.network;
    let batch = spec.eval_batch;
    let eval = EvalSet::from_settings(
        data.test(),
        &EvalSettings {
            subset_size: spec.eval_size,
            seed: spec.seed,
            batch_size: batch,
        },
    );
    let x = eval.images().slice_batch(0..batch.min(eval.len()));
    let dims = x.shape().dims().to_vec();
    let mut scratch = Scratch::new();

    report.metric(
        "nn.compile_ms",
        median_ms(tracer, "nn.compile", parent, 21, || {
            std::hint::black_box(ForwardPlan::compile(net, &dims));
        }),
    );
    let batch_ms = median_ms(tracer, "nn.batch", parent, 15, || {
        std::hint::black_box(net.execute(&x, Span::full(), &mut scratch));
    });
    report.metric("nn.batch_ms", batch_ms);

    // each compute node as its own span of layers, so fusion stays intact
    let plan = net.plan(&dims);
    let mut input = x.clone();
    let mut names = PLAN_NODES.iter();
    let mut node_sum = 0.0;
    let mut conv4 = None;
    for node in plan.node_descs() {
        let range = node.layers();
        let span = Span::range(range.start, range.end);
        let compute = matches!(node, PlanNode::ConvAct { .. } | PlanNode::LinearAct { .. });
        if compute {
            let Some(name) = names.next() else { break };
            let ms = median_ms(tracer, &format!("nn.{name}"), parent, 15, || {
                std::hint::black_box(net.execute(&input, span, &mut scratch));
            });
            node_sum += ms;
            report.metric(&format!("nn.{name}.ms"), ms);
            report.metric(&format!("nn.{name}.share"), ms / batch_ms);
            if let Some(macs) = node_macs(net, &plan, &node) {
                report.metric(&format!("nn.{name}.gflops"), 2.0 * macs / (ms * 1e6));
            }
            if *name == "conv4" {
                conv4 = Some(node);
            }
        }
        input = net.execute(&input, span, &mut scratch);
    }
    report.metric("nn.node_sum_ratio", node_sum / batch_ms);

    // conv4's im2col product, on the f32 and the int8 (i16-pair) kernels
    if let Some(PlanNode::ConvAct { conv, .. }) = conv4 {
        if let (Layer::Conv2d(c), Some(out)) = (&net.layers()[conv], plan.shape_at(conv + 1)) {
            let k = c.geometry().kernel;
            let (m, kk, n) = (c.out_channels(), c.in_channels() * k * k, out[0] * out[2] * out[3]);
            gemm_probes(tracer, parent, m, kk, n, report);
        }
    }

    let calib = loaded.data.val().subset(64.min(loaded.data.val().len()), spec.seed);
    let mut plan8 = None;
    let quantize_s: Vec<f64> = (0..3)
        .map(|_| {
            let (p, s) =
                tracer.time("quant.quantize", parent, || QuantizedPlan::quantize(net, calib.images()));
            plan8 = p.ok();
            s
        })
        .collect();
    report.metric("quant.quantize_s", median(&quantize_s));
    match &plan8 {
        Some(p) => report.metric(
            "quant.batch_ms",
            median_ms(tracer, "quant.batch", parent, 15, || {
                std::hint::black_box(p.execute(&x));
            }),
        ),
        None => report.fail("int8 quantization of the workload model failed".into()),
    }
    tracer.close(probes);
    loaded
}

/// `tensor.sgemm_gflops` and `tensor.i16gemm_gops` on an `m × k × n`
/// product with seeded operands.
fn gemm_probes(tracer: &Tracer, parent: Option<usize>, m: usize, k: usize, n: usize, report: &mut Report) {
    let mut rng = SeedRng::new(7, 3);
    let mut fill = |len: usize| -> Vec<f32> { (0..len).map(|_| rng.unit() as f32 - 0.5).collect() };
    let a = Tensor::from_vec(fill(m * k), &[m, k]).expect("gemm lhs");
    let b = Tensor::from_vec(fill(k * n), &[k, n]).expect("gemm rhs");
    let mut c = Tensor::zeros(&[m, n]);
    let ops = 2.0 * (m * k * n) as f64;
    let ms = median_ms(tracer, "tensor.sgemm", parent, 9, || ftclip_tensor::matmul_into(&a, &b, &mut c));
    report.metric("tensor.sgemm_gflops", ops / (ms * 1e6));

    let kp = k + (k & 1);
    let a16: Vec<i16> = (0..m * kp).map(|i| (i % 251) as i16 - 125).collect();
    let b16: Vec<i16> = (0..kp * n).map(|i| (i % 241) as i16 - 120).collect();
    let mut out = vec![0i32; m * n];
    let ms = median_ms(tracer, "tensor.i16gemm", parent, 9, || {
        ftclip_tensor::matmul_i16_pairs_into(&a16, &b16, &mut out, kp, n);
    });
    report.metric("tensor.i16gemm_gops", 2.0 * (m * kp * n) as f64 / (ms * 1e6));
}

/// Times and counts cell-store calls.
struct TimedCache<'a> {
    inner: &'a dyn CampaignCache,
    lookup_ns: AtomicU64,
    lookups: AtomicU64,
    record_ns: AtomicU64,
    records: AtomicU64,
}

impl<'a> TimedCache<'a> {
    fn new(inner: &'a dyn CampaignCache) -> Self {
        TimedCache {
            inner,
            lookup_ns: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            record_ns: AtomicU64::new(0),
            records: AtomicU64::new(0),
        }
    }

    fn store_s(&self) -> f64 {
        (self.lookup_ns.load(Ordering::Relaxed) + self.record_ns.load(Ordering::Relaxed)) as f64 * 1e-9
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl CampaignCache for TimedCache<'_> {
    fn lookup(&self, rate_index: usize, repetition: usize) -> Option<RunRecord> {
        let t = Instant::now();
        let hit = self.inner.lookup(rate_index, repetition);
        self.lookup_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.lookups.fetch_add(1, Ordering::Relaxed);
        hit
    }

    fn record(&self, record: &RunRecord) {
        let t = Instant::now();
        self.inner.record(record);
        self.record_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
    }

    fn clean_accuracy(&self) -> Option<f64> {
        self.inner.clean_accuracy()
    }

    fn record_clean(&self, accuracy: f64) {
        self.inner.record_clean(accuracy);
    }
}

/// Counters of the timing evaluator.
#[derive(Default)]
struct EvalCounters {
    ns: AtomicU64,
    cells: AtomicUsize,
    cell_ns: AtomicU64,
    suffix_cells: AtomicUsize,
}

/// A timing `CellEval` around the suffix evaluator the campaigns use.
struct TimedEval<'a, E: CellEval> {
    inner: &'a E,
    counters: &'a EvalCounters,
    tracer: &'a Tracer,
    parent: Option<usize>,
}

impl<E: CellEval> CellEval for TimedEval<'_, E> {
    fn eval_cell(&self, net: &Sequential, hint: SuffixHint) -> f64 {
        let start = Instant::now();
        let accuracy = self.inner.eval_cell(net, hint);
        let ns = ns_since(start);
        self.tracer.record("core.eval", start, Instant::now(), self.parent);
        self.counters.ns.fetch_add(ns, Ordering::Relaxed);
        // faulted cells carry a cut; the clean evaluation carries none
        if let Some(cut) = hint.cut {
            self.counters.cells.fetch_add(1, Ordering::Relaxed);
            self.counters.cell_ns.fetch_add(ns, Ordering::Relaxed);
            if cut > 0 {
                self.counters.suffix_cells.fetch_add(1, Ordering::Relaxed);
            }
        }
        accuracy
    }
}

/// Records the campaign's cell timestamps (clean first, cells after).
#[derive(Default)]
struct CellClock {
    clean: Mutex<Option<Instant>>,
    last_cell: Mutex<Option<Instant>>,
}

impl CampaignObserver for CellClock {
    fn on_cell(&self, _record: &RunRecord, _cached: bool) {
        *self.last_cell.lock().expect("clock lock") = Some(Instant::now());
    }

    fn on_clean(&self, _accuracy: f64) {
        *self.clean.lock().expect("clock lock") = Some(Instant::now());
    }
}

/// Fault-sampling counts of a finished campaign.
fn record_fault_counts(runs: &[RunRecord], report: &mut Report) {
    let cells = runs.len().max(1) as f64;
    report.metric("fault.cells", runs.len() as f64);
    report.metric(
        "fault.zero_fault_share",
        runs.iter().filter(|r| r.fault_count == 0).count() as f64 / cells,
    );
    report.metric("fault.faults_per_cell", runs.iter().map(|r| r.fault_count as f64).sum::<f64>() / cells);
}

/// Plain and wrapped direct runs whose wall-time difference is the tracing
/// overhead; the pairs alternate their order so a host-speed trend cancels.
pub const OVERHEAD_PAIRS: usize = 3;

/// The campaign of a spec, driven directly rather than through `Runner`,
/// so the evaluator and the cell store can be wrapped in timers.
struct Direct<'a> {
    net: &'a Sequential,
    cfg: CampaignConfig,
    eval: EvalSet,
    dir: PathBuf,
    runs: usize,
}

/// One directly driven campaign run and its timers' readings (zero for a
/// plain run).
struct DirectRun {
    result: CampaignResult,
    wall: f64,
    counters: EvalCounters,
    prefix: PrefixCacheStats,
    store_s: f64,
    record_us: f64,
    lookup_us: f64,
}

impl Direct<'_> {
    /// Runs the campaign on an empty store. With `timers` (the tracer and
    /// the parent span) the evaluator and the store session are wrapped.
    fn run(&mut self, timers: Option<(&Tracer, usize)>) -> Result<DirectRun, String> {
        self.runs += 1;
        let session = ResultStore::new(self.dir.join(format!("direct-{}", self.runs)))
            .session(&campaign_fingerprint(self.net, &self.cfg))
            .map_err(|e| format!("direct store session: {e}"))?;
        let timed = TimedCache::new(&session);
        let counters = EvalCounters::default();
        let suffix = self.eval.suffix_eval();
        // shares the prefix cache, so its statistics read the same after a
        // plain run
        let plain = suffix.clone();
        let campaign = Campaign::new(self.cfg.clone());
        let start = Instant::now();
        let result = match timers {
            None => campaign.run_parallel_cached_with_threads(self.net, 1, &session, plain),
            Some((tracer, parent)) => {
                let eval = TimedEval {
                    inner: &suffix,
                    counters: &counters,
                    tracer,
                    parent: Some(parent),
                };
                campaign.run_parallel_cached_with_threads(self.net, 1, &timed, eval)
            }
        };
        let wall = start.elapsed().as_secs_f64();
        let per_us = |ns: &AtomicU64, n: &AtomicU64| {
            ns.load(Ordering::Relaxed) as f64 * 1e-3 / n.load(Ordering::Relaxed).max(1) as f64
        };
        Ok(DirectRun {
            result,
            wall,
            counters,
            prefix: suffix.cache().stats(),
            store_s: timed.store_s(),
            record_us: per_us(&timed.record_ns, &timed.records),
            lookup_us: per_us(&timed.lookup_ns, &timed.lookups),
        })
    }
}

/// Traces one campaign spec through `Runner::run` (observed) and through
/// directly driven campaigns, plain and with timing wrappers around the
/// evaluator and the cell store.
fn trace_campaign(
    root: &Path,
    spec: &ExperimentSpec,
    loaded: &Loaded,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let dir = work_dir(root, "trace-campaign").map_err(|e| e.to_string())?;
    let (warmed, _) = set_up(root, &dir, spec, 1)?;
    report.attempted += 1;

    // Runner::run with the cell clock installed
    let clock = Arc::new(CellClock::default());
    let run_span = tracer.open("bench.run", None);
    let observer: Arc<dyn CampaignObserver> = clock.clone();
    let runner_run = ftclip_fault::with_observer(observer, || warmed.fresh())?;
    tracer.close(run_span);
    report.attempted += 1;

    let net = &loaded.model.network;
    let mut cfg = spec
        .campaign_config_with_scale(loaded.rate_scale())
        .map_err(|e| e.to_string())?;
    cfg.target = spec.target.resolve(net).map_err(|e| e.to_string())?;
    let eval = EvalSet::from_settings(
        loaded.data.test(),
        &EvalSettings {
            subset_size: spec.eval_size,
            seed: spec.seed,
            batch_size: spec.eval_batch,
        },
    );
    let mut direct = Direct { net, cfg, eval, dir: dir.join("direct"), runs: 0 };

    let mut overheads = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut measured: Option<DirectRun> = None;
    for pair in 0..OVERHEAD_PAIRS {
        let mut walls = [0.0; 2];
        let order = if pair % 2 == 0 { [false, true] } else { [true, false] };
        for wrapped in order {
            let span = tracer.open(if wrapped { "fault.campaign" } else { "fault.campaign_plain" }, None);
            let run = direct.run(wrapped.then_some((tracer, span)))?;
            tracer.close(span);
            let csv = campaign_summary_table(&spec.name, &run.result, &spec.rates.label_rates())
                .map_err(|e| e.to_string())?
                .to_csv();
            report.op(if csv.as_bytes() == runner_run.csv.as_slice() {
                Ok(())
            } else {
                Err("directly driven campaign table differs from the Runner table".into())
            });
            walls[usize::from(wrapped)] = run.wall;
            if wrapped && measured.is_none() {
                measured = Some(run);
            }
        }
        overheads.push(walls[1] - walls[0]);
    }
    report.metric("trace.converge_overhead_s", median(&overheads));
    report.detail("converge_overhead_s", overheads.as_slice());
    let run = measured.ok_or("no wrapped campaign run")?;

    record_fault_counts(&run.result.runs, report);
    let cells = run.result.runs.len().max(1) as f64;
    let evaluated = run.counters.cells.load(Ordering::Relaxed).max(1) as f64;
    let eval_s = run.counters.ns.load(Ordering::Relaxed) as f64 * 1e-9;
    report.metric("core.eval_ms", run.counters.cell_ns.load(Ordering::Relaxed) as f64 * 1e-6 / evaluated);
    report.metric("core.eval_share", eval_s / run.wall);
    report.metric(
        "core.suffix_cell_share",
        run.counters.suffix_cells.load(Ordering::Relaxed) as f64 / evaluated,
    );
    report.metric("core.prefix_hit_rate", run.prefix.hit_rate());
    report.metric("core.prefix_mb", run.prefix.bytes_held as f64 / (1u64 << 20) as f64);
    report.metric("fault.overhead_ms", (run.wall - eval_s - run.store_s) * 1e3 / cells);
    report.metric("store.record_us", run.record_us);
    report.metric("store.lookup_us", run.lookup_us);

    // Runner::run wall minus the campaign inside it
    let clean_at = *clock.clean.lock().expect("clock lock");
    let last_at = *clock.last_cell.lock().expect("clock lock");
    let (Some(clean), Some(last)) = (clean_at, last_at) else {
        return Err("the cell clock saw no campaign inside Runner::run".into());
    };
    tracer.record("fault.runner_campaign", clean, last, Some(run_span));
    report.metric("bench.overhead_ms", (runner_run.secs - (last - clean).as_secs_f64()) * 1e3);

    // clean evaluation throughput, full forward on every batch
    let clean: Vec<f64> = (0..3)
        .map(|_| {
            tracer
                .time("core.clean_eval", None, || std::hint::black_box(direct.eval.accuracy(net)))
                .1
        })
        .collect();
    report.metric("core.clean_images_per_s", direct.eval.len() as f64 / median(&clean));
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Runs `workload` traced: layer probes, the traced campaign, and the
/// service (the full mix on `serve-mixed`, a one-job probe elsewhere).
pub fn traced(root: &Path, workload: Workload, seed: u64, report: &mut Report) {
    let before = canary_ms();
    let tracer = Tracer::default();
    let spec = match workload {
        Workload::ServeMixed => serve_job_spec(&mut SeedRng::new(seed, 2), 0),
        w => campaign_spec(w, seed),
    };
    let result = ftclip_tensor::with_thread_limit(1, || -> Result<(), String> {
        let loaded = layer_probes(root, &spec, &tracer, report);
        trace_campaign(root, &spec, &loaded, &tracer, report)
    });
    if let Err(e) = result {
        report.op(Err(e));
    }

    // the service untraced, then with the event watcher; fixed work, so the
    // counts repeat exactly for a seed
    let serve_span = tracer.open("serve.mix", None);
    let jobs = if workload == Workload::ServeMixed { crate::service::MIN_JOBS } else { 1 };
    let both = crate::service::measure(root, seed, 0.0, jobs, 1, false, report).and_then(|untraced| {
        crate::service::measure(root, seed, 0.0, jobs, 1, true, report).map(|traced| (untraced, traced))
    });
    match both {
        Ok((untraced, traced)) => {
            let p50 = |s: &crate::service::ServeSamples| {
                median(&s.jobs.iter().map(|j| j.job_s).collect::<Vec<_>>())
            };
            report.metric("trace.job_overhead_s", p50(&traced) - p50(&untraced));
            crate::service::record_per_layer(&traced, report);
        }
        Err(e) => report.op(Err(e)),
    }
    tracer.close(serve_span);

    let after = canary_ms();
    report.metric("host.canary_ms", 0.5 * (before + after));
    report.detail("canary_ms", object([("before", before.to_value()), ("after", after.to_value())]));
    report.detail("spans", tracer.len());
    let rows: Vec<Value> = tracer
        .self_times()
        .into_iter()
        .map(|(name, n, total, own)| {
            object([
                ("span", name.to_value()),
                ("count", n.to_value()),
                ("total_s", total.to_value()),
                ("self_s", own.to_value()),
            ])
        })
        .collect();
    report.detail("self_time", Value::Array(rows));
    let path = root
        .join(".bench_work")
        .join("traces")
        .join(format!("{}-s{seed}.json", workload.name()));
    match tracer.write(&path) {
        Ok(()) => report.detail("spans_file", path.strip_prefix(root).unwrap_or(&path).display().to_string()),
        Err(e) => report.fail(format!("writing spans: {e}")),
    }
}
