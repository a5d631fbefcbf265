//! The `serve-mixed` workload: `ftclipd` started in-process with
//! `Server::start` (one worker, thread budget 1) on a fresh state
//! directory, driven by one closed-loop client through the crate's own
//! `HttpClient`.
//!
//! Each round of the seeded mix submits one fresh FC-1 job and awaits it on
//! its event stream, confirms completion with `GET /v1/jobs/:id`, fetches
//! the result CSV, then re-submits finished specs (cache hits) and fetches
//! one finished table again.
//!
//! The mix is a sampling choice, not a model of real traffic: fresh jobs
//! run back to back for the window, cache hits are as many as
//! `hit_tail_ms` needs, spread over the window as the campaign workloads
//! spread theirs, and one repeated fetch per round checks that a stored
//! table is served unchanged.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ftclip_bench::Runner;
use ftclip_serve::{HttpClient, HttpReply, Scheduler, ServeConfig, Server};
use serde::{Serialize, Value};

use crate::report::{object, Report};
use crate::stats::{due, median, ms_since, process_cpu_s, tail, thread_cpu_s, SeedRng};
use crate::workloads::{run_settings, serve_job_spec, warmup_spec, work_dir};

/// Server set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Cache-hit re-submissions per measurement, spread evenly over the
/// window; 50 samples put `hit_tail_ms` at the 80th percentile.
pub const HITS: usize = 50;

/// Most cache hits back to back between two fresh jobs.
pub const HIT_BURST: usize = 12;

/// Fresh jobs per measurement, at least.
pub const MIN_JOBS: usize = 4;

/// Starts a one-worker, one-thread server over `state`, loading the
/// committed model zoo from the checkout.
fn start(root: &Path, state: &Path) -> std::io::Result<Server> {
    let mut config = ServeConfig::new(state);
    config.workers = 1;
    config.threads = 1;
    config.settings = run_settings(root, state);
    config.resume = false;
    config.keep_jobs = None;
    config.admin_token = None;
    config.max_queue = None;
    config.default_deadline = None;
    config.max_retries = None;
    Server::start(config)
}

/// Polls `GET /v1/jobs/:id` until the job completes; returns its cells.
/// Completion is confirmed by the job resource, not by the event stream,
/// which can close before its terminal line.
fn wait_completed(client: &HttpClient, id: &str, t0: Instant) -> Result<usize, String> {
    loop {
        let reply = client.get(&format!("/v1/jobs/{id}"));
        expect_status(&reply, 200, "job status")?;
        let job = reply.map_err(|e| e.to_string())?.json().ok_or("job status: body is not JSON")?;
        match field(&job, "status") {
            Some("completed") => {
                return Ok(job.get("cells_done").and_then(Value::as_u64).unwrap_or(0) as usize)
            }
            Some("failed" | "cancelled") => {
                return Err(format!("job {id} ended {:?}", field(&job, "status")))
            }
            _ if t0.elapsed() > Duration::from_secs(120) => return Err(format!("job {id} never completed")),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// One set-up: `Server::start`, the first `200 /healthz`, then a one-cell
/// warm-up job to completion, which is the time a cold service takes to
/// return its first result. Returns the server and the seconds to healthy
/// and to that first result.
fn start_warm(root: &Path, state: &Path) -> Result<(Server, f64, f64), String> {
    let t = Instant::now();
    let server = start(root, state).map_err(|e| format!("server start: {e}"))?;
    let client = HttpClient::new(server.addr()).with_timeout(Duration::from_secs(120));
    while !client.get("/healthz").is_ok_and(|r| r.status == 200) {
        if t.elapsed() > Duration::from_secs(10) {
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let healthy = t.elapsed().as_secs_f64();
    let warm = warmup_spec(&serve_job_spec(&mut SeedRng::new(0, 0), 0));
    let reply = client.post_json("/v1/specs", &warm.to_json());
    expect_status(&reply, 202, "warm-up submission")?;
    let body = reply
        .map_err(|e| e.to_string())?
        .json()
        .ok_or("warm-up submission: body is not JSON")?;
    wait_completed(&client, field(&body, "id").ok_or("warm-up submission: no job id")?, t)?;
    Ok((server, healthy, t.elapsed().as_secs_f64()))
}

/// One fresh job's timings, in seconds from its POST unless noted.
#[derive(Debug, Clone, Default)]
pub struct JobSample {
    /// POST round trip, ms.
    pub submit_ms: f64,
    /// POST to terminal status confirmed by `GET /v1/jobs/:id`.
    pub job_s: f64,
    /// POST to the result CSV in hand.
    pub converge_s: f64,
    /// Cells the job computed.
    pub cells: usize,
    /// Event arrival times seen in-process (traced runs only).
    pub events: Vec<(String, f64)>,
}

impl JobSample {
    fn first(&self, event: &str) -> Option<f64> {
        self.events.iter().find(|(e, _)| e == event).map(|&(_, t)| t)
    }

    fn last(&self, event: &str) -> Option<f64> {
        self.events.iter().rev().find(|(e, _)| e == event).map(|&(_, t)| t)
    }
}

/// Everything one service measurement produced.
#[derive(Debug, Default)]
pub struct ServeSamples {
    /// Seconds from each server start to its warm-up job's result.
    pub setups: Vec<f64>,
    /// Seconds from each server start to its first `200 /healthz`.
    pub healthy: Vec<f64>,
    /// Fresh jobs.
    pub jobs: Vec<JobSample>,
    /// Cache-hit POST round trips, ms.
    pub hits: Vec<f64>,
    /// Result GET round trips, ms.
    pub gets: Vec<f64>,
    /// Event streams that closed without a terminal event.
    pub stream_no_terminal: usize,
    /// `/v1/metrics` `jobs_executed` and `cache_hits` at the end.
    pub server_counts: (u64, u64),
    /// Server CPU (process minus benchmark threads) per wall second.
    pub cpu_per_wall: f64,
    /// CPU seconds of the benchmark's event watchers.
    watcher_cpu_s: f64,
}

fn expect_status(reply: &std::io::Result<HttpReply>, status: u16, what: &str) -> Result<(), String> {
    match reply {
        Ok(r) if r.status == status => Ok(()),
        Ok(r) => Err(format!("{what}: status {} (expected {status}): {}", r.status, r.text().trim())),
        Err(e) => Err(format!("{what}: transport error {e}")),
    }
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    value.get(key).and_then(Value::as_str)
}

/// Watches a job's event log in-process and timestamps each event
/// relative to `t0`; returns the events and the watcher's own CPU seconds.
fn watch_events(
    scheduler: Arc<Scheduler>,
    id: String,
    t0: Instant,
) -> std::thread::JoinHandle<(Vec<(String, f64)>, f64)> {
    std::thread::spawn(move || {
        let cpu0 = thread_cpu_s().unwrap_or(0.0);
        let mut seen = Vec::new();
        let Some(job) = scheduler.find_job(&id) else { return (seen, 0.0) };
        let mut terminal_polls = 0;
        while terminal_polls < 5 && t0.elapsed() < Duration::from_secs(120) {
            let lines = job.events_from(seen.len());
            let now = t0.elapsed().as_secs_f64();
            for line in lines {
                let event = serde_json::from_str(line.trim())
                    .ok()
                    .and_then(|v| field(&v, "event").map(str::to_string))
                    .unwrap_or_default();
                seen.push((event, now));
            }
            if job.is_terminal() {
                terminal_polls += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (seen, thread_cpu_s().unwrap_or(0.0) - cpu0)
    })
}

struct Finished {
    json: String,
    fingerprint: String,
    table: String,
    csv: Vec<u8>,
    spec: ftclip_bench::ExperimentSpec,
}

/// Runs one fresh job through the service; returns its sample and the
/// finished record for later hits.
fn fresh_job(
    server: &Server,
    client: &HttpClient,
    spec: ftclip_bench::ExperimentSpec,
    traced: bool,
    samples: &mut ServeSamples,
    report: &mut Report,
) -> Result<(JobSample, Finished), String> {
    let json = spec.to_json();
    let t0 = Instant::now();
    let reply = client.post_json("/v1/specs", &json);
    let submit_ms = ms_since(t0);
    report.op(expect_status(&reply, 202, "fresh submission"));
    let body = reply
        .map_err(|e| e.to_string())?
        .json()
        .ok_or("fresh submission: body is not JSON")?;
    let id = field(&body, "id").ok_or("fresh submission: no job id")?.to_string();
    let fingerprint = field(&body, "fingerprint")
        .ok_or("fresh submission: no fingerprint")?
        .to_string();
    let watcher = traced.then(|| watch_events(server.scheduler().clone(), id.clone(), t0));

    let stream = client.get(&format!("/v1/jobs/{id}/events"));
    report.op(expect_status(&stream, 200, "event stream"));
    if let Ok(stream) = &stream {
        let terminal = stream
            .ndjson()
            .iter()
            .any(|e| matches!(field(e, "event"), Some("completed" | "failed" | "cancelled")));
        if !terminal {
            samples.stream_no_terminal += 1;
        }
    }

    let cells = wait_completed(client, &id, t0)?;
    report.attempted += 1;
    let job_s = t0.elapsed().as_secs_f64();

    let table = spec.name.clone();
    let csv = client.get(&format!("/v1/results/{fingerprint}?table={table}&format=csv"));
    report.op(expect_status(&csv, 200, "result fetch"));
    let csv = csv.map_err(|e| e.to_string())?.body;
    let converge_s = t0.elapsed().as_secs_f64();

    let mut events = Vec::new();
    if let Some(watcher) = watcher {
        let (seen, cpu) = watcher.join().map_err(|_| "event watcher panicked".to_string())?;
        samples.watcher_cpu_s += cpu;
        events = seen;
    }
    let sample = JobSample { submit_ms, job_s, converge_s, cells, events };
    Ok((sample, Finished { json, fingerprint, table, csv, spec }))
}

/// Measures the service mix for `seconds` (at least `min_jobs` fresh
/// jobs). `traced` adds the in-process event watcher.
///
/// # Errors
///
/// A server that cannot start.
pub fn measure(
    root: &Path,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
    setups: usize,
    traced: bool,
    report: &mut Report,
) -> Result<ServeSamples, String> {
    let dir =
        work_dir(root, if traced { "serve-traced" } else { "serve-mixed" }).map_err(|e| e.to_string())?;
    let mut samples = ServeSamples::default();
    let mut server = None;
    for i in 0..setups {
        let (started, healthy, ready) = start_warm(root, &dir.join(format!("state{i}")))?;
        report.attempted += 1;
        samples.healthy.push(healthy);
        samples.setups.push(ready);
        if let Some(previous) = server.replace(started) {
            Server::shutdown(previous);
        }
    }
    let server = server.expect("at least one server start");
    let client = HttpClient::new(server.addr()).with_timeout(Duration::from_secs(120));
    let mut rng = SeedRng::new(seed, 2);
    let mut finished: Vec<Finished> = Vec::new();

    let wall0 = Instant::now();
    let cpu0 = process_cpu_s().unwrap_or(0.0) - thread_cpu_s().unwrap_or(0.0);
    let mut index = 0;
    loop {
        let spec = serve_job_spec(&mut rng, index);
        index += 1;
        match fresh_job(&server, &client, spec, traced, &mut samples, report) {
            Ok((sample, done)) => {
                samples.jobs.push(sample);
                finished.push(done);
            }
            Err(e) => report.fail(e),
        }
        if finished.is_empty() {
            break;
        }
        let target = due(HITS, HIT_BURST, samples.hits.len(), wall0.elapsed().as_secs_f64(), seconds);
        while samples.hits.len() < target {
            let done = &finished[rng.below(finished.len())];
            let t = Instant::now();
            let reply = client.post_json("/v1/specs", &done.json);
            let ms = ms_since(t);
            let cached = reply
                .as_ref()
                .ok()
                .and_then(HttpReply::json)
                .and_then(|v| v.get("cached").and_then(Value::as_bool))
                == Some(true);
            report.op(expect_status(&reply, 200, "cache-hit submission").and_then(|()| {
                if cached {
                    Ok(())
                } else {
                    Err("cache-hit submission: reply is not marked cached".into())
                }
            }));
            samples.hits.push(ms);
        }
        let done = &finished[rng.below(finished.len())];
        let t = Instant::now();
        let reply = client.get(&format!("/v1/results/{}?table={}&format=csv", done.fingerprint, done.table));
        let ms = ms_since(t);
        report.op(expect_status(&reply, 200, "result GET").and_then(|()| {
            if reply.as_ref().is_ok_and(|r| r.body == done.csv) {
                Ok(())
            } else {
                Err("result GET: body differs from the first fetch".into())
            }
        }));
        samples.gets.push(ms);
        let done = samples.jobs.len() >= min_jobs && wall0.elapsed().as_secs_f64() >= seconds;
        if done || report.failed > 0 {
            break;
        }
    }
    let cpu1 = process_cpu_s().unwrap_or(0.0) - thread_cpu_s().unwrap_or(0.0);
    samples.cpu_per_wall = (cpu1 - cpu0 - samples.watcher_cpu_s) / wall0.elapsed().as_secs_f64();

    let metrics = client.get("/v1/metrics");
    report.op(expect_status(&metrics, 200, "metrics"));
    if let Some(m) = metrics.ok().and_then(|r| r.json()) {
        let count = |k: &str| m.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
        samples.server_counts = (count("jobs_executed"), count("cache_hits"));
        let (executed, hits) = samples.server_counts;
        // the last server also ran its warm-up job
        if executed != samples.jobs.len() as u64 + 1 {
            report.fail(format!("jobs_executed {executed} != {} fresh submissions + 1", samples.jobs.len()));
        }
        if hits != samples.hits.len() as u64 {
            report.fail(format!("cache_hits {hits} != {} hit submissions", samples.hits.len()));
        }
    }
    // the pooled keep-alive connection would hold shutdown until it idles out
    drop(client);
    server.shutdown();

    // every served table must equal what a local `Runner::run` writes
    let local = Runner::new(run_settings(root, &dir.join("local")));
    for done in &finished {
        let matches = crate::campaign::run_once(&local, &done.spec).and_then(|csv| {
            if csv == done.csv {
                Ok(())
            } else {
                Err(format!("served {} differs from the local Runner table", done.table))
            }
        });
        report.op(matches);
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(samples)
}

/// Runs the service mix with tracing off and records the end-to-end
/// metrics.
pub fn end_to_end(root: &Path, seed: u64, seconds: f64, report: &mut Report) {
    let samples = match measure(root, seed, seconds, MIN_JOBS, SETUPS, false, report) {
        Ok(samples) => samples,
        Err(e) => {
            report.op(Err(e));
            return;
        }
    };
    record_end_to_end(&samples, report);
}

/// Records the end-to-end metrics of one service measurement.
pub fn record_end_to_end(samples: &ServeSamples, report: &mut Report) {
    let job_s: Vec<f64> = samples.jobs.iter().map(|j| j.job_s).collect();
    let converge: Vec<f64> = samples.jobs.iter().map(|j| j.converge_s).collect();
    let rates: Vec<f64> = samples.jobs.iter().map(|j| j.cells as f64 / j.job_s).collect();
    report.metric("setup_s", median(&samples.setups));
    report.metric("converge_s", median(&converge));
    report.metric("cells_per_s", median(&rates));
    report.metric("job_p50_s", median(&job_s));
    report.metric("hit_p50_ms", median(&samples.hits));
    if let Some((pct, value)) = tail(&samples.hits) {
        report.metric("hit_tail_ms", value);
        report.detail(
            "hit_tail",
            object([("percentile", pct.to_value()), ("samples", samples.hits.len().to_value())]),
        );
    }
    report.detail("setup_s", samples.setups.as_slice());
    report.detail("healthy_s", samples.healthy.as_slice());
    report.detail("job_s", job_s.as_slice());
    report.detail("jobs", samples.jobs.len());
}

/// Records the per-layer `serve.*` metrics of a traced measurement.
pub fn record_per_layer(samples: &ServeSamples, report: &mut Report) {
    let jobs = &samples.jobs;
    let each = |f: &dyn Fn(&JobSample) -> Option<f64>| -> Vec<f64> { jobs.iter().filter_map(f).collect() };
    report.metric("serve.submit_ms", median(&each(&|j| Some(j.submit_ms))));
    report.metric("serve.queue_wait_ms", median(&each(&|j| j.first("started").map(|t| t * 1e3))));
    report.metric("serve.job_setup_s", median(&each(&|j| Some(j.first("clean")? - j.first("started")?))));
    report.metric("serve.job_cells_s", median(&each(&|j| Some(j.last("cell")? - j.first("clean")?))));
    report.metric("serve.get_p50_ms", median(&samples.gets));
    report.metric("serve.cpu_per_wall", samples.cpu_per_wall);
    report.metric("serve.stream_no_terminal", samples.stream_no_terminal as f64);
    report.metric("serve.jobs_executed", samples.server_counts.0 as f64);
    report.metric("serve.cache_hits", samples.server_counts.1 as f64);
}
