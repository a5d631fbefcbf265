//! The `ftclipd` server: configuration, HTTP routing and lifecycle.
//!
//! One accept thread runs the [`crate::rt::Executor`] with a non-blocking
//! listener; every connection is an async task on that thread. Connection
//! handlers never do campaign work — they validate, consult the
//! [`Scheduler`] and read files — so the accept thread stays responsive
//! while the worker threads burn the CPU budget on campaigns.
//!
//! Lifecycle verbs, in decreasing gentleness:
//!
//! * [`Server::shutdown`] (or `POST /v1/admin/shutdown`) — stop accepting,
//!   finish the jobs already running, join; still-queued jobs stay
//!   persisted on disk and resume on the next boot.
//! * [`Server::abandon`] — crash simulation: running campaigns unwind at
//!   the next cell boundary and **nothing** is persisted beyond what a real
//!   crash would leave (the submitted spec and the store's completed
//!   cells). Tests use this to prove crash-resume is bit-identical.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ftclip_bench::{ExperimentSpec, RunSettings};
use ftclip_store::ResultStore;
use ftclip_tensor::failpoint;
use serde::Value;

use crate::http::{
    finish_chunks, read_request, write_chunk, write_response, Request, Response, KEEP_ALIVE_IDLE,
};
use crate::jobs::{Job, JobStatus, MetricsSnapshot, Scheduler, Submission, RESULT_DIR};
use crate::rt::{yield_now, Executor};

/// Server configuration. Construct with [`ServeConfig::new`] and override
/// fields as needed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Persistent root: job records under `jobs/`, the campaign-cell store
    /// under `cache/` (unless relocated via `settings.cache_root`).
    pub state_dir: PathBuf,
    /// Concurrent campaign workers.
    pub workers: usize,
    /// Total thread budget shared by the workers (each gets its remainder
    /// share, exactly like `Runner::run_batch`).
    pub threads: usize,
    /// Base run settings for every job. `out_dir` is ignored — each job
    /// writes to its own result directory; `cache_root` and `assets_dir`
    /// are shared across jobs so campaigns reuse cells and trained models.
    pub settings: RunSettings,
    /// Re-queue persisted unfinished jobs on boot.
    pub resume: bool,
    /// Retain at most this many **terminal** job records on disk: the
    /// oldest completed/failed/cancelled `jobs/<fingerprint>/` directories
    /// beyond the cap are deleted at boot and after each job finishes.
    /// `None` (the default) keeps everything. Unfinished jobs and the
    /// campaign-cell store are never evicted — dropping a job record only
    /// costs re-deriving its tables from still-cached cells.
    pub keep_jobs: Option<usize>,
    /// Bearer token required on every `/v1/admin/*` request. `None` (the
    /// default when `FTCLIP_ADMIN_TOKEN` is unset) leaves the admin
    /// endpoints open — fine on loopback, set a token anywhere else.
    pub admin_token: Option<String>,
    /// Submission-queue capacity; submissions beyond it are shed with
    /// `503 + Retry-After`. `None` (the default when `FTCLIP_MAX_QUEUE` is
    /// unset) accepts everything.
    pub max_queue: Option<usize>,
    /// Default wall-clock deadline for jobs submitted without an explicit
    /// `?deadline_s=`. `None` (the default when `FTCLIP_DEADLINE_SECS` is
    /// unset) lets jobs run indefinitely.
    pub default_deadline: Option<Duration>,
    /// Supervised retries before a panicking job is marked failed. `None`
    /// (the default when `FTCLIP_RETRIES` is unset) keeps
    /// [`crate::RetryPolicy::default`]'s count.
    pub max_retries: Option<usize>,
}

impl ServeConfig {
    /// Defaults: loopback on a free port, 2 workers over the process
    /// thread budget, store and assets under `state_dir`, resume on, and
    /// the admin token taken from `FTCLIP_ADMIN_TOKEN` when set.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        let state_dir = state_dir.into();
        let settings = RunSettings {
            cache_root: Some(state_dir.join("cache")),
            assets_dir: state_dir.join("assets"),
            ..RunSettings::default()
        };
        let env_usize = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<usize>().ok());
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            threads: ftclip_tensor::num_threads(),
            settings,
            state_dir,
            resume: true,
            keep_jobs: None,
            admin_token: std::env::var("FTCLIP_ADMIN_TOKEN").ok().filter(|t| !t.is_empty()),
            max_queue: env_usize("FTCLIP_MAX_QUEUE"),
            default_deadline: std::env::var("FTCLIP_DEADLINE_SECS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&s| s > 0)
                .map(Duration::from_secs),
            max_retries: env_usize("FTCLIP_RETRIES"),
        }
    }
}

struct Shared {
    scheduler: Arc<Scheduler>,
    workers: usize,
    threads: usize,
    cache_root: Option<PathBuf>,
    admin_token: Option<String>,
}

/// A running `ftclipd` instance. Dropping the handle shuts it down
/// gracefully.
pub struct Server {
    addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl Server {
    /// Binds, resumes persisted jobs (when configured) and starts the
    /// accept and worker threads.
    ///
    /// # Errors
    ///
    /// Any socket error binding the listener.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let scheduler = Scheduler::new(config.state_dir.clone(), config.settings.clone());
        scheduler.set_keep_jobs(config.keep_jobs);
        scheduler.set_max_queue(config.max_queue);
        scheduler.set_default_deadline(config.default_deadline);
        if let Some(max_retries) = config.max_retries {
            let policy = crate::jobs::RetryPolicy { max_retries, ..scheduler.retry_policy() };
            scheduler.set_retry_policy(policy);
        }
        if config.resume {
            let resumed = scheduler.resume_from_disk();
            if resumed > 0 {
                eprintln!("[ftclipd] resumed {resumed} unfinished job(s)");
            }
        }
        // boot-time retention pass: a prior server life (or a lower cap)
        // may have left more terminal records than we now want to keep
        let evicted = scheduler.gc_terminal_jobs();
        if evicted > 0 {
            eprintln!("[ftclipd] evicted {evicted} old job record(s)");
        }

        let workers = config.workers.max(1);
        let threads = config.threads.max(1);
        let shared = Arc::new(Shared {
            scheduler: scheduler.clone(),
            workers,
            threads,
            cache_root: config.settings.cache_root.clone(),
            admin_token: config.admin_token.clone(),
        });

        let inner = threads / workers;
        let spare = threads % workers;
        let worker_handles = (0..workers)
            .map(|w| {
                let scheduler = scheduler.clone();
                let budget = (inner + usize::from(w < spare)).max(1);
                std::thread::spawn(move || scheduler.worker_loop(budget))
            })
            .collect();
        let accept = std::thread::spawn(move || accept_loop(&shared, &listener));

        Ok(Server {
            addr,
            scheduler,
            accept: Some(accept),
            workers: worker_handles,
        })
    }

    /// The bound address (with the OS-chosen port when the config said
    /// port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler, for in-process inspection in tests and tools.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// A snapshot of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.scheduler.metrics.snapshot()
    }

    /// Graceful shutdown: finish running jobs and event streams, join all
    /// threads.
    pub fn shutdown(mut self) {
        self.scheduler.request_shutdown();
        self.join_threads();
    }

    /// Crash simulation: cancel running campaigns at their next cell
    /// boundary *without* persisting any job completion state, then join.
    /// A subsequent [`Server::start`] over the same state directory
    /// re-queues the interrupted jobs and their campaigns resume from the
    /// content-addressed store, bit-identically.
    pub fn abandon(mut self) {
        self.scheduler.request_abandon();
        self.join_threads();
    }

    /// Blocks until a shutdown is requested (e.g. `POST
    /// /v1/admin/shutdown`), then joins. The `ftclipd` binary's main loop.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        // a panicking service thread is already a bug report; escalating it
        // into a panic inside Drop would abort the whole process
        if let Some(handle) = self.accept.take() {
            if handle.join().is_err() {
                eprintln!("[ftclipd] accept thread panicked");
            }
        }
        for handle in self.workers.drain(..) {
            if handle.join().is_err() {
                eprintln!("[ftclipd] worker thread panicked");
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.scheduler.request_shutdown();
        self.join_threads();
    }
}

/// The accept thread: accept until stopping, tick the executor until every
/// connection task has finished.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut ex = Executor::new();
    loop {
        let mut progress = false;
        if !shared.scheduler.stopping() {
            loop {
                match failpoint::check_io("serve.accept").and_then(|()| listener.accept()) {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_ok() {
                            let shared = shared.clone();
                            ex.spawn(async move { handle_connection(&shared, &stream).await });
                            progress = true;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    // transient accept failures (injected or real, e.g.
                    // EMFILE) drop one connection attempt, never the loop
                    Err(_) => break,
                }
            }
        }
        if ex.tick() {
            progress = true;
        }
        if shared.scheduler.stopping() && ex.task_count() == 0 {
            return;
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// One keep-alive connection: requests in, responses (or one event stream)
/// out, until the client closes or errors.
async fn handle_connection(shared: &Arc<Shared>, stream: &TcpStream) {
    loop {
        let request = match read_request(stream, KEEP_ALIVE_IDLE).await {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let resp = Response::error(400, "bad-request", &e.to_string());
                let _ = write_response(stream, &resp, false).await;
                return;
            }
            Err(_) => return,
        };
        let keep_alive = request.keep_alive();
        match dispatch(shared, &request) {
            Handled::Reply(response) => {
                if write_response(stream, &response, keep_alive).await.is_err() || !keep_alive {
                    return;
                }
            }
            Handled::Events(job) => {
                stream_events(shared, stream, &job).await;
                return; // chunked stream ends the connection
            }
        }
    }
}

/// Streams a job's NDJSON events until the job is terminal (or the server
/// is stopping and the job will not run before it exits), then terminates
/// the chunked body.
async fn stream_events(shared: &Arc<Shared>, stream: &TcpStream, job: &Arc<Job>) {
    let head = Response::new(200)
        .header("Content-Type", "application/x-ndjson")
        .header("Transfer-Encoding", "chunked");
    if write_response(stream, &head, false).await.is_err() {
        return;
    }
    let mut sent = 0usize;
    loop {
        // read the end condition before the log: the terminal event is
        // pushed before the status flips, so once the job reads terminal
        // here the read below still returns that last line
        let done = job.is_terminal()
            || shared.scheduler.abandoning()
            || (shared.scheduler.stopping() && job.status() != JobStatus::Running);
        let lines = job.events_from(sent);
        if lines.is_empty() {
            if done {
                break;
            }
            yield_now().await;
            continue;
        }
        sent += lines.len();
        // an injected stream fault behaves exactly like the client hanging
        // up mid-stream: the connection dies, the job is unaffected and a
        // reconnect replays the full event log from index 0
        if failpoint::check_io("serve.stream").is_err()
            || write_chunk(stream, lines.concat().as_bytes()).await.is_err()
        {
            return;
        }
    }
    let _ = finish_chunks(stream).await;
}

enum Handled {
    Reply(Response),
    Events(Arc<Job>),
}

/// Routes one request. Everything here is fast: scheduler bookkeeping and
/// small file reads, never campaign work.
fn dispatch(shared: &Arc<Shared>, req: &Request) -> Handled {
    let path = req.path.clone();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let reply = |r: Response| Handled::Reply(r);
    if let ["v1", "admin", ..] = segments.as_slice() {
        if let Some(denied) = admin_auth_error(shared, req) {
            return reply(denied);
        }
    }
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => reply(Response::text(200, "ok\n")),
        ("GET", ["v1", "metrics"]) => reply(metrics_response(shared)),
        ("POST", ["v1", "specs"]) => reply(submit_spec(shared, req)),
        ("GET", ["v1", "jobs"]) => {
            let jobs: Vec<Value> = shared.scheduler.jobs().iter().map(|j| j.describe()).collect();
            reply(Response::json(200, &Value::Array(jobs)))
        }
        ("GET", ["v1", "jobs", id]) => match shared.scheduler.find_job(id) {
            Some(job) => reply(Response::json(200, &job.describe())),
            None => reply(Response::error(404, "unknown-job", &format!("no job '{id}'"))),
        },
        ("DELETE", ["v1", "jobs", id]) => match shared.scheduler.find_job(id) {
            Some(job) => {
                if shared.scheduler.cancel(&job) {
                    reply(Response::json(
                        202,
                        &Value::Object(vec![
                            ("id".to_string(), Value::String(job.id_str())),
                            ("status".to_string(), Value::String(job.status().as_str().to_string())),
                        ]),
                    ))
                } else {
                    reply(Response::error(
                        409,
                        "not-cancellable",
                        &format!("job '{id}' already {}", job.status().as_str()),
                    ))
                }
            }
            None => reply(Response::error(404, "unknown-job", &format!("no job '{id}'"))),
        },
        ("GET", ["v1", "jobs", id, "events"]) => match shared.scheduler.find_job(id) {
            Some(job) => Handled::Events(job),
            None => reply(Response::error(404, "unknown-job", &format!("no job '{id}'"))),
        },
        ("GET", ["v1", "results", fingerprint]) => reply(result_response(shared, req, fingerprint)),
        ("GET", ["v1", "store", "sessions"]) => reply(sessions_response(shared)),
        ("POST", ["v1", "admin", "shutdown"]) => {
            shared.scheduler.request_shutdown();
            reply(Response::json(
                202,
                &Value::Object(vec![("status".to_string(), Value::String("shutting-down".to_string()))]),
            ))
        }
        (_, ["healthz" | "v1", ..]) => {
            reply(Response::error(405, "method-not-allowed", "unsupported method for this path"))
        }
        _ => reply(Response::error(404, "not-found", "unknown path")),
    }
}

/// `Some(401)` when the server has an admin token configured and the
/// request's `Authorization: Bearer <token>` does not match it exactly.
/// `None` (request allowed) when no token is configured.
fn admin_auth_error(shared: &Arc<Shared>, req: &Request) -> Option<Response> {
    let expected = shared.admin_token.as_deref()?;
    let presented = req
        .header("authorization")
        .and_then(|v| v.strip_prefix("Bearer "))
        .map(str::trim);
    if presented == Some(expected) {
        return None;
    }
    Some(
        Response::error(401, "unauthorized", "admin endpoints require a valid bearer token")
            .header("WWW-Authenticate", "Bearer"),
    )
}

fn metrics_response(shared: &Arc<Shared>) -> Response {
    let m = shared.scheduler.metrics.snapshot();
    let uint = |n: usize| Value::Number(n as f64);
    let mut rows = vec![
        ("jobs_submitted".to_string(), uint(m.jobs_submitted)),
        ("jobs_executed".to_string(), uint(m.jobs_executed)),
        ("jobs_completed".to_string(), uint(m.jobs_completed)),
        ("jobs_failed".to_string(), uint(m.jobs_failed)),
        ("jobs_cancelled".to_string(), uint(m.jobs_cancelled)),
        ("cache_hits".to_string(), uint(m.cache_hits)),
        ("coalesced".to_string(), uint(m.coalesced)),
        ("queue_depth".to_string(), uint(m.queue_depth)),
        ("jobs_shed".to_string(), uint(m.jobs_shed)),
        ("jobs_retried".to_string(), uint(m.jobs_retried)),
        ("jobs_panicked".to_string(), uint(m.jobs_panicked)),
        ("jobs_deadline_expired".to_string(), uint(m.jobs_deadline_expired)),
        ("workers".to_string(), uint(shared.workers)),
        ("threads".to_string(), uint(shared.threads)),
    ];
    if failpoint::enabled() {
        let fired = failpoint::stats()
            .into_iter()
            .map(|(site, count)| (site, Value::Number(count as f64)))
            .collect();
        rows.push(("failpoints_fired".to_string(), Value::Object(fired)));
    }
    Response::json(200, &Value::Object(rows))
}

/// `POST /v1/specs`: validate, dedup, queue — or answer from the store.
fn submit_spec(shared: &Arc<Shared>, req: &Request) -> Response {
    if shared.scheduler.stopping() {
        return Response::error(503, "shutting-down", "server is shutting down");
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "bad-request", "spec body must be UTF-8 JSON");
    };
    let spec = match ExperimentSpec::from_json(body) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, "bad-spec", &e.to_string()),
    };
    let priority = match req.query_param("priority") {
        None => 5u8,
        Some(raw) => match raw.parse::<u8>() {
            Ok(p) if p <= 9 => p,
            _ => return Response::error(400, "bad-priority", "priority must be an integer 0-9"),
        },
    };
    let deadline = match req.query_param("deadline_s") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(s) if s > 0 => Some(Duration::from_secs(s)),
            _ => {
                return Response::error(
                    400,
                    "bad-deadline",
                    "deadline_s must be a positive integer number of seconds",
                )
            }
        },
    };

    match shared.scheduler.submit_with_deadline(spec, priority, deadline) {
        Submission::CachedResult { fingerprint } => cached_result_response(shared, req, &fingerprint),
        Submission::Existing(job) => accepted_response(&job, true),
        Submission::Queued(job) => accepted_response(&job, false),
        Submission::Shed { queue_depth, retry_after } => Response::error(
            503,
            "queue-full",
            &format!("submission queue is at capacity ({queue_depth} queued); retry later"),
        )
        .header("Retry-After", &retry_after.as_secs().max(1).to_string()),
    }
}

/// The `202 Accepted` body for a queued or coalesced submission.
fn accepted_response(job: &Arc<Job>, coalesced: bool) -> Response {
    Response::json(
        202,
        &Value::Object(vec![
            ("id".to_string(), Value::String(job.id_str())),
            ("fingerprint".to_string(), Value::String(job.fingerprint.clone())),
            ("status".to_string(), Value::String(job.status().as_str().to_string())),
            ("coalesced".to_string(), Value::Bool(coalesced)),
        ]),
    )
    .header("Location", &format!("/v1/jobs/{}", job.id_str()))
    .header("ETag", &etag(&job.fingerprint))
}

/// A spec whose result is already stored: `304` when the client's
/// `If-None-Match` matches, else `200` with the completion record.
fn cached_result_response(shared: &Arc<Shared>, req: &Request, fingerprint: &str) -> Response {
    let tag = etag(fingerprint);
    if if_none_match(req, &tag) {
        return Response::new(304).header("ETag", &tag);
    }
    match shared.scheduler.stored_result(fingerprint) {
        Some(Value::Object(mut fields)) => {
            fields.push(("cached".to_string(), Value::Bool(true)));
            Response::json(200, &Value::Object(fields)).header("ETag", &tag)
        }
        _ => Response::error(500, "corrupt-result", "stored completion record is unreadable"),
    }
}

/// `GET /v1/results/:fingerprint[?table=NAME&format=csv|json]`.
fn result_response(shared: &Arc<Shared>, req: &Request, fingerprint: &str) -> Response {
    if fingerprint.len() != 32 || !fingerprint.chars().all(|c| c.is_ascii_hexdigit()) {
        return Response::error(400, "bad-fingerprint", "fingerprint must be 32 hex digits");
    }
    let Some(stored) = shared.scheduler.stored_result(fingerprint) else {
        return Response::error(404, "unknown-result", "no stored result for this fingerprint");
    };
    let tag = etag(fingerprint);
    if if_none_match(req, &tag) {
        return Response::new(304).header("ETag", &tag);
    }
    let Some(table) = req.query_param("table") else {
        return Response::json(200, &stored).header("ETag", &tag);
    };
    if table.is_empty() || !table.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')) {
        return Response::error(400, "bad-table", "table must be a plain file stem");
    }
    let (extension, content_type) = match req.query_param("format").unwrap_or("csv") {
        "csv" => ("csv", "text/csv"),
        "json" => ("json", "application/json"),
        other => {
            return Response::error(400, "bad-format", &format!("unknown format '{other}'"));
        }
    };
    let path = shared
        .scheduler
        .job_dir(fingerprint)
        .join(RESULT_DIR)
        .join(format!("{table}.{extension}"));
    match std::fs::read(&path) {
        Ok(bytes) => Response::new(200)
            .header("Content-Type", content_type)
            .header("ETag", &tag)
            .with_body(bytes),
        Err(_) => Response::error(404, "unknown-table", &format!("no table '{table}'")),
    }
}

/// `GET /v1/store/sessions`: the content-addressed store's sessions.
fn sessions_response(shared: &Arc<Shared>) -> Response {
    let Some(root) = &shared.cache_root else {
        return Response::json(200, &Value::Array(Vec::new()));
    };
    let store = ResultStore::new(root.clone());
    let sessions: Vec<Value> = store
        .sessions()
        .into_iter()
        .filter_map(|key| store.summary(key))
        .map(|s| {
            Value::Object(vec![
                ("key".to_string(), Value::String(s.key.to_hex())),
                ("cells".to_string(), Value::Number(s.cells as f64)),
                ("has_clean".to_string(), Value::Bool(s.has_clean)),
            ])
        })
        .collect();
    Response::json(200, &Value::Array(sessions))
}

fn etag(fingerprint: &str) -> String {
    format!("\"{fingerprint}\"")
}

/// `true` when the request's `If-None-Match` matches `tag` (quoted or
/// bare, `*` matches anything).
fn if_none_match(req: &Request, tag: &str) -> bool {
    req.header("if-none-match").is_some_and(|raw| {
        raw.split(',')
            .map(str::trim)
            .any(|candidate| candidate == "*" || candidate == tag || candidate == tag.trim_matches('"'))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn test_shared(tag: &str) -> (Arc<Shared>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ftclipd-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let settings = RunSettings {
            cache_root: Some(dir.join("cache")),
            assets_dir: dir.join("assets"),
            ..RunSettings::default()
        };
        let scheduler = Scheduler::new(dir.clone(), settings);
        (
            Arc::new(Shared {
                scheduler,
                workers: 2,
                threads: 4,
                cache_root: Some(dir.join("cache")),
                admin_token: None,
            }),
            dir,
        )
    }

    fn status_of(handled: Handled) -> u16 {
        match handled {
            Handled::Reply(r) => r.status,
            Handled::Events(_) => panic!("expected a plain reply"),
        }
    }

    #[test]
    fn routing_covers_the_surface() {
        let (shared, dir) = test_shared("routes");
        assert_eq!(status_of(dispatch(&shared, &req("GET", "/healthz"))), 200);
        assert_eq!(status_of(dispatch(&shared, &req("GET", "/v1/metrics"))), 200);
        assert_eq!(status_of(dispatch(&shared, &req("GET", "/v1/jobs"))), 200);
        assert_eq!(status_of(dispatch(&shared, &req("GET", "/v1/jobs/job-9"))), 404);
        assert_eq!(status_of(dispatch(&shared, &req("DELETE", "/v1/jobs/job-9"))), 404);
        assert_eq!(status_of(dispatch(&shared, &req("GET", "/v1/jobs/job-9/events"))), 404);
        assert_eq!(status_of(dispatch(&shared, &req("GET", "/v1/results/zz"))), 400);
        assert_eq!(
            status_of(dispatch(&shared, &req("GET", "/v1/results/0123456789abcdef0123456789abcdef"))),
            404
        );
        assert_eq!(status_of(dispatch(&shared, &req("GET", "/v1/store/sessions"))), 200);
        assert_eq!(status_of(dispatch(&shared, &req("GET", "/nowhere"))), 404);
        assert_eq!(status_of(dispatch(&shared, &req("PUT", "/v1/jobs"))), 405);
        // bad spec bodies are 400s with the typed message
        let mut post = req("POST", "/v1/specs");
        post.body = br#"{"name": "x"}"#.to_vec();
        match dispatch(&shared, &post) {
            Handled::Reply(r) => {
                assert_eq!(r.status, 400);
                assert!(String::from_utf8_lossy(&r.body).contains("procedure"), "{:?}", r.body);
            }
            Handled::Events(_) => panic!("expected reply"),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn if_none_match_accepts_quoted_bare_and_star() {
        let tag = "\"abc\"";
        let mut r = req("GET", "/");
        assert!(!if_none_match(&r, tag));
        r.headers = vec![("if-none-match".to_string(), "\"abc\"".to_string())];
        assert!(if_none_match(&r, tag));
        r.headers = vec![("if-none-match".to_string(), "abc".to_string())];
        assert!(if_none_match(&r, tag));
        r.headers = vec![("if-none-match".to_string(), "\"zzz\", *".to_string())];
        assert!(if_none_match(&r, tag));
        r.headers = vec![("if-none-match".to_string(), "\"zzz\"".to_string())];
        assert!(!if_none_match(&r, tag));
    }

    #[test]
    fn submissions_during_shutdown_are_rejected() {
        let (shared, dir) = test_shared("shutdown");
        shared.scheduler.request_shutdown();
        let mut post = req("POST", "/v1/specs");
        post.body = br#"{"name": "x", "procedure": "model-sizes"}"#.to_vec();
        assert_eq!(status_of(dispatch(&shared, &post)), 503);
        std::fs::remove_dir_all(dir).ok();
    }
}
