//! End-to-end tests of the `ftclipd` service contract, driven over real
//! sockets with the blocking [`HttpClient`]: submit → stream → cache-hit
//! dedup, cancellation while running, concurrent-duplicate coalescing, and
//! bit-identical crash-resume via [`Server::abandon`].

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ftclip_bench::{ExperimentSpec, Procedure, RateGrid, RunSettings, Runner};
use ftclip_serve::{HttpClient, ServeConfig, Server};
use serde::Value;

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftclipd-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server(dir: &Path, workers: usize, threads: usize) -> (Server, HttpClient) {
    let mut config = ServeConfig::new(dir.to_path_buf());
    config.workers = workers;
    config.threads = threads;
    let server = Server::start(config).expect("server starts");
    let client = HttpClient::new(server.addr()).with_timeout(Duration::from_secs(120));
    (server, client)
}

/// A spec whose campaign finishes in well under a second: untrained
/// sliver-width workload, 2 rates × 2 repetitions over 32 images.
fn tiny_spec(name: &str) -> ExperimentSpec {
    let mut spec = ExperimentSpec::builder(Procedure::CampaignSummary, name)
        .rates(RateGrid::Absolute(vec![1e-4, 1e-3]))
        .repetitions(2)
        .eval_size(32)
        .build()
        .unwrap();
    spec.workload.epochs = 0;
    spec.workload.width_mult = 0.05;
    spec.data.train_size = 16;
    spec.data.val_size = 16;
    spec.data.test_size = 64;
    spec
}

/// A spec with enough cells (2 rates × `reps`) that tests can reliably
/// interrupt it mid-campaign. Cells stay as cheap as [`tiny_spec`]'s —
/// duration comes from the cell count, keeping debug-build runtimes sane.
fn slow_spec(name: &str, reps: usize) -> ExperimentSpec {
    let mut spec = tiny_spec(name);
    spec.repetitions = reps;
    spec
}

fn submit(client: &HttpClient, spec: &ExperimentSpec) -> (u16, Value) {
    let reply = client.post_json("/v1/specs", &spec.to_json()).expect("submit");
    let body = reply.json().expect("submission body is JSON");
    (reply.status, body)
}

fn job_detail(client: &HttpClient, id: &str) -> Value {
    client
        .get(&format!("/v1/jobs/{id}"))
        .expect("job detail")
        .json()
        .expect("job JSON")
}

fn job_status(detail: &Value) -> String {
    detail.get("status").and_then(Value::as_str).unwrap_or("?").to_string()
}

/// Polls until `pred` holds on the job detail; panics after `timeout`.
fn wait_for(client: &HttpClient, id: &str, timeout: Duration, pred: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + timeout;
    loop {
        let detail = job_detail(client, id);
        if pred(&detail) {
            return detail;
        }
        assert!(Instant::now() < deadline, "timed out waiting on {id}: {detail:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn metrics(client: &HttpClient) -> Value {
    client.get("/v1/metrics").expect("metrics").json().expect("metrics JSON")
}

fn metric(client: &HttpClient, name: &str) -> u64 {
    metrics(client)
        .get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("metric {name}"))
}

#[test]
fn submit_stream_and_cache_hit_round_trip() {
    let dir = state_dir("roundtrip");
    let (server, client) = server(&dir, 2, 2);
    let spec = tiny_spec("rt");
    let fingerprint = spec.fingerprint().key().to_hex();

    let (status, body) = submit(&client, &spec);
    assert_eq!(status, 202, "{body:?}");
    assert_eq!(body.get("fingerprint").and_then(Value::as_str), Some(fingerprint.as_str()));
    let id = body.get("id").and_then(Value::as_str).unwrap().to_string();

    // the event stream blocks until the job finishes and ends 'completed'
    let events = client.get(&format!("/v1/jobs/{id}/events")).expect("events");
    assert_eq!(events.status, 200);
    let lines = events.ndjson();
    let kinds: Vec<&str> = lines.iter().filter_map(|v| v.get("event").and_then(Value::as_str)).collect();
    assert_eq!(kinds.first(), Some(&"queued"));
    assert_eq!(kinds.last(), Some(&"completed"));
    assert_eq!(kinds.iter().filter(|k| **k == "cell").count(), 4, "{kinds:?}");

    // identical re-submission: HTTP 200, marked cached, fingerprint ETag,
    // and no additional execution
    let executed = metric(&client, "jobs_executed");
    let again = client.post_json("/v1/specs", &spec.to_json()).expect("resubmit");
    assert_eq!(again.status, 200);
    assert_eq!(again.json().unwrap().get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(again.header("etag"), Some(format!("\"{fingerprint}\"").as_str()));
    assert_eq!(metric(&client, "jobs_executed"), executed, "cache hits must not recompute");

    // conditional revalidation and result retrieval
    let conditional = client
        .request(
            "POST",
            "/v1/specs",
            &[("Content-Type", "application/json"), ("If-None-Match", &format!("\"{fingerprint}\""))],
            spec.to_json().as_bytes(),
        )
        .unwrap();
    assert_eq!(conditional.status, 304);
    let result = client.get(&format!("/v1/results/{fingerprint}")).unwrap();
    assert_eq!(result.status, 200);
    let tables = result.json().unwrap();
    let table = tables
        .get("tables")
        .and_then(Value::as_array)
        .and_then(|t| t.first())
        .and_then(Value::as_str)
        .expect("at least one table")
        .to_string();
    let csv = client
        .get(&format!("/v1/results/{fingerprint}?table={table}&format=csv"))
        .unwrap();
    assert_eq!(csv.status, 200);
    assert!(csv.text().starts_with("fault_rate") || !csv.body.is_empty());

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn cancel_while_running_frees_the_worker_for_the_next_job() {
    let dir = state_dir("cancel");
    let (server, client) = server(&dir, 1, 2); // one worker: job B can only
                                               // run if cancelling A freed it
    let (status, body) = submit(&client, &slow_spec("long", 300));
    assert_eq!(status, 202);
    let id = body.get("id").and_then(Value::as_str).unwrap().to_string();

    // wait until the campaign is demonstrably mid-flight, then cancel
    wait_for(&client, &id, Duration::from_secs(60), |d| {
        d.get("cells_done").and_then(Value::as_u64).unwrap_or(0) >= 3
    });
    let cancel = client.delete(&format!("/v1/jobs/{id}")).expect("cancel");
    assert_eq!(cancel.status, 202);
    let detail = wait_for(&client, &id, Duration::from_secs(60), |d| job_status(d) == "cancelled");
    let cells_at_cancel = detail.get("cells_done").and_then(Value::as_u64).unwrap();
    assert!(cells_at_cancel >= 3);

    // the worker and its thread budget are free again: a fresh job on the
    // single-worker server completes
    let (status, body) = submit(&client, &tiny_spec("after-cancel"));
    assert_eq!(status, 202);
    let id2 = body.get("id").and_then(Value::as_str).unwrap().to_string();
    wait_for(&client, &id2, Duration::from_secs(120), |d| job_status(d) == "completed");

    // cancelling a terminal job is a 409, and re-submitting the cancelled
    // spec queues a fresh attempt rather than a cache hit
    assert_eq!(client.delete(&format!("/v1/jobs/{id}")).unwrap().status, 409);
    let (status, body) = submit(&client, &slow_spec("long", 300));
    assert_eq!(status, 202);
    assert_eq!(metric(&client, "jobs_cancelled"), 1);

    // cancel the re-queued attempt too, so graceful shutdown below does
    // not sit through the whole 600-cell campaign
    let id3 = body.get("id").and_then(Value::as_str).unwrap().to_string();
    assert_eq!(client.delete(&format!("/v1/jobs/{id3}")).unwrap().status, 202);
    wait_for(&client, &id3, Duration::from_secs(60), |d| job_status(d) == "cancelled");

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn concurrent_duplicate_submissions_coalesce_to_one_execution() {
    let dir = state_dir("coalesce");
    let (server, client) = server(&dir, 2, 2);
    let spec = slow_spec("dup", 32);
    let spec_json = spec.to_json();

    let statuses: Vec<(u16, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let client = client.clone();
                let spec_json = &spec_json;
                scope.spawn(move || {
                    let reply = client.post_json("/v1/specs", spec_json).expect("concurrent submit");
                    let id = reply
                        .json()
                        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string));
                    (reply.status, id)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter panicked")).collect()
    });

    // every submission was accepted, all onto the same single job
    let ids: Vec<&String> = statuses.iter().filter_map(|(_, id)| id.as_ref()).collect();
    assert!(!ids.is_empty());
    assert!(ids.iter().all(|i| *i == ids[0]), "{statuses:?}");
    assert!(statuses.iter().all(|(s, _)| *s == 200 || *s == 202), "{statuses:?}");

    wait_for(&client, ids[0], Duration::from_secs(300), |d| job_status(d) == "completed");
    assert_eq!(metric(&client, "jobs_executed"), 1, "duplicates must share one execution");
    assert_eq!(metric(&client, "jobs_submitted"), 1);
    assert_eq!(
        metric(&client, "coalesced") + metric(&client, "cache_hits"),
        7,
        "the other seven submissions coalesced or hit the stored result"
    );

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn abandoned_server_resumes_bit_identically_from_the_store() {
    let dir = state_dir("resume");
    let spec = slow_spec("crashy", 40);

    // reference: the same spec run locally through the Runner (the
    // bit-identical guarantee spans CLI and service executions)
    let reference_dir = state_dir("resume-ref");
    let settings = RunSettings {
        out_dir: reference_dir.join("out"),
        cache_root: Some(reference_dir.join("cache")),
        assets_dir: reference_dir.join("assets"),
        ..RunSettings::default()
    };
    let reference = Runner::new(settings).run(&spec).expect("reference run");
    assert!(reference.passed());

    // life 1: start the campaign, then abandon mid-flight (crash sim — no
    // completion state is persisted)
    let (server1, client1) = server(&dir, 1, 2);
    let (status, body) = submit(&client1, &spec);
    assert_eq!(status, 202);
    let id = body.get("id").and_then(Value::as_str).unwrap().to_string();
    let fingerprint = body.get("fingerprint").and_then(Value::as_str).unwrap().to_string();
    wait_for(&client1, &id, Duration::from_secs(60), |d| {
        d.get("cells_done").and_then(Value::as_u64).unwrap_or(0) >= 5
    });
    server1.abandon();
    let job_dir = dir.join("jobs").join(&fingerprint);
    assert!(job_dir.join("spec.json").is_file(), "submission must be persisted");
    assert!(!job_dir.join("done.json").is_file(), "abandon must not fake completion");

    // life 2: boot over the same state; the job re-queues and its campaign
    // replays the already-paid cells from the content-addressed store
    let (server2, client2) = server(&dir, 1, 2);
    let resumed = server2.scheduler().jobs();
    assert_eq!(resumed.len(), 1, "the unfinished job re-queues on boot");
    let resumed_id = resumed[0].id_str();
    let events = client2.get(&format!("/v1/jobs/{resumed_id}/events")).expect("resumed events");
    let lines = events.ndjson();
    assert_eq!(lines.last().and_then(|v| v.get("event")).and_then(Value::as_str), Some("completed"));
    let cached_cells = lines
        .iter()
        .filter(|v| v.get("event").and_then(Value::as_str) == Some("cell"))
        .filter(|v| v.get("cached").and_then(Value::as_bool) == Some(true))
        .count();
    assert!(cached_cells >= 5, "resume must replay the pre-crash cells, saw {cached_cells}");

    // the resumed result is byte-identical to the uninterrupted reference
    for table in &reference.tables {
        let stem = table.file_stem().unwrap().to_string_lossy();
        let served = client2
            .get(&format!("/v1/results/{fingerprint}?table={stem}&format=csv"))
            .expect("served table");
        assert_eq!(served.status, 200, "table {stem} missing from the resumed result");
        let reference_bytes = std::fs::read(table).unwrap();
        assert_eq!(served.body, reference_bytes, "table {stem} must be bit-identical");
    }

    server2.shutdown();
    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir_all(reference_dir).ok();
}

#[test]
fn admin_endpoints_require_bearer_token_when_configured() {
    let dir = state_dir("admin-auth");
    let mut config = ServeConfig::new(dir.clone());
    config.workers = 1;
    config.threads = 1;
    config.admin_token = Some("sesame".to_string());
    let server = Server::start(config).expect("server starts");
    let client = HttpClient::new(server.addr()).with_timeout(Duration::from_secs(30));

    // no credentials → 401 with a challenge, and the server keeps running
    let denied = client.request("POST", "/v1/admin/shutdown", &[], b"").expect("bare request");
    assert_eq!(denied.status, 401, "{}", denied.text());
    assert_eq!(denied.header("www-authenticate"), Some("Bearer"));
    let code = denied.json().and_then(|v| {
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .map(String::from)
    });
    assert_eq!(code.as_deref(), Some("unauthorized"));

    // a wrong token is rejected the same way
    let wrong = client
        .request("POST", "/v1/admin/shutdown", &[("Authorization", "Bearer open")], b"")
        .expect("wrong-token request");
    assert_eq!(wrong.status, 401);

    // non-admin endpoints stay open without credentials
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    assert_eq!(client.get("/v1/metrics").expect("metrics").status, 200);

    // the exact token is accepted and the shutdown goes through
    let ok = client
        .request("POST", "/v1/admin/shutdown", &[("Authorization", "Bearer sesame")], b"")
        .expect("authorized request");
    assert_eq!(ok.status, 202, "{}", ok.text());
    server.join();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn admin_endpoints_stay_open_without_a_configured_token() {
    let dir = state_dir("admin-open");
    let mut config = ServeConfig::new(dir.clone());
    config.workers = 1;
    config.threads = 1;
    config.admin_token = None;
    let server = Server::start(config).expect("server starts");
    let client = HttpClient::new(server.addr()).with_timeout(Duration::from_secs(30));
    let ok = client.request("POST", "/v1/admin/shutdown", &[], b"").expect("request");
    assert_eq!(ok.status, 202, "{}", ok.text());
    server.join();
    std::fs::remove_dir_all(dir).ok();
}

/// The `event` field of a stream's last line.
fn last_event(client: &HttpClient, id: &str) -> String {
    let events = client.get(&format!("/v1/jobs/{id}/events")).expect("events");
    assert_eq!(events.status, 200);
    let lines = events.ndjson();
    lines
        .last()
        .and_then(|v| v.get("event"))
        .and_then(Value::as_str)
        .unwrap_or("<none>")
        .to_string()
}

#[test]
fn every_stream_ends_with_its_terminal_event() {
    let dir = state_dir("terminal");
    let (server, client) = server(&dir, 1, 1);
    let submit_id = |path: &str, spec: &ExperimentSpec| {
        let reply = client.post_json(path, &spec.to_json()).expect("submit");
        assert_eq!(reply.status, 202, "{}", reply.text());
        reply
            .json()
            .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
            .unwrap()
    };
    // one worker runs them in order: `done` completes; `late` waits past
    // its deadline and fails; `stopped` is cancelled mid-run; `dropped`
    // is cancelled while still queued
    let jobs = [
        (submit_id("/v1/specs", &tiny_spec("term-done")), "completed"),
        (submit_id("/v1/specs?deadline_s=1", &slow_spec("term-late", 2000)), "failed"),
        (submit_id("/v1/specs", &slow_spec("term-stopped", 300)), "cancelled"),
        (submit_id("/v1/specs", &slow_spec("term-dropped", 300)), "cancelled"),
    ];
    // streams opened while each job is still live, several per job so some
    // are mid-poll when the job finishes
    let addr = server.addr();
    let live: Vec<_> = jobs
        .iter()
        .flat_map(|(id, want)| (0..3).map(move |_| (id.clone(), *want)))
        .map(|(id, want)| {
            std::thread::spawn(move || {
                let client = HttpClient::new(addr).with_timeout(Duration::from_secs(120));
                (last_event(&client, &id), want, id)
            })
        })
        .collect();
    let dropped = &jobs[3].0;
    assert_eq!(client.delete(&format!("/v1/jobs/{dropped}")).unwrap().status, 202);
    let stopped = &jobs[2].0;
    wait_for(&client, stopped, Duration::from_secs(120), |d| {
        d.get("cells_done").and_then(Value::as_u64).unwrap_or(0) >= 1
    });
    assert_eq!(client.delete(&format!("/v1/jobs/{stopped}")).unwrap().status, 202);

    for handle in live {
        let (got, want, id) = handle.join().expect("stream thread");
        assert_eq!(got, want, "live stream of {id}");
    }
    // and a stream opened after the fact replays the same ending
    for (id, want) in &jobs {
        assert_eq!(job_status(&job_detail(&client, id)), *want, "{id}");
        assert_eq!(last_event(&client, id), *want, "replayed stream of {id}");
    }
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn cache_hit_posts_answer_without_a_nagle_stall() {
    // a request sent as two writes (head, then body) waits on the server's
    // delayed ACK, about 40 ms per POST on Linux loopback
    let dir = state_dir("hit-latency");
    let (server, client) = server(&dir, 1, 1);
    let spec = tiny_spec("hit-latency");
    let (status, body) = submit(&client, &spec);
    assert_eq!(status, 202);
    let id = body.get("id").and_then(Value::as_str).unwrap().to_string();
    wait_for(&client, &id, Duration::from_secs(120), |d| job_status(d) == "completed");

    let json = spec.to_json();
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            let reply = client.post_json("/v1/specs", &json).expect("cache-hit POST");
            assert_eq!(reply.status, 200, "{}", reply.text());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = (ms[9] + ms[10]) / 2.0;
    assert!(median < 20.0, "median cache-hit POST {median:.1} ms: {ms:?}");
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}
