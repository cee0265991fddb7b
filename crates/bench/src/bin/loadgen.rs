//! `loadgen` — load generator and chaos client for `repro serve`.
//!
//! Drives sustained concurrent `greencloud-spec/1` traffic at the service
//! and, with `--chaos`, mixes in adversarial clients: malformed JSON,
//! oversized bodies, mid-request disconnects, post-request disconnects
//! (cancelling in-flight solves), and tiny-deadline storms. Reports
//! throughput, p50/p99 latency, shed rate, and cache hit rate, and exits
//! nonzero when any response falls outside the allowed status set or an
//! `--expect-shed` / `--min-ok` assertion fails — the measurable proof
//! that overload produces 429s and cancellations, never panics or
//! unbounded queueing.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7411 --spec examples/quick.spec.json \
//!         --requests 2000 --concurrency 24 --chaos [--unique] \
//!         [--no-cache] [--deadline-ms N] [--expect-shed] [--min-ok N] \
//!         [--rate N] [--histogram] [--min-hit-rate P] \
//!         [--backends a:p,b:p,...] \
//!         [--jobs --jobs-dir DIR [--allow-transport]] \
//!         [--verify-jobs DIR]
//! ```
//!
//! `--backends a,b,c` names the `repro serve` fleet behind a router at
//! `--addr`. After the burst, loadgen fetches each backend's `/v1/stats`
//! for a per-backend cache view and asserts *hit-rate parity*: on a
//! duplicate-spec burst, a single backend would miss each distinct spec
//! once, so a correctly sharding router (same spec → same backend) must
//! land within 5 points of that ideal — a round-robin front-end would
//! miss once per backend instead and fail the assertion. Concurrent
//! duplicate misses race the first cache fill, so the ideal allows
//! `concurrency` extra misses. `--min-hit-rate P` independently asserts
//! the observed client-side hit rate is at least `P` percent.
//!
//! `--unique` perturbs `experiment.config.start_hour` per request so every
//! spec is genuinely distinct (defeats the report cache and forces real
//! solver load); without it, identical specs exercise the cache path.
//!
//! `--rate N` switches from the closed-loop worker pool to an *open-loop*
//! arrival process: one dispatcher thread launches requests at fixed
//! `1/N`-second intervals regardless of completions (each request gets its
//! own thread), which is what exposes queueing collapse — a closed loop
//! self-throttles exactly when the server is drowning. Open-loop runs
//! print a log₂ latency histogram (also available via `--histogram`).
//!
//! `--jobs` submits the normal-traffic slots to the durable job API
//! (`POST /v1/jobs`, expecting 202) and, with `--jobs-dir`, records each
//! acknowledged job's spec as `DIR/<job_id>.spec.json`. A later
//! `loadgen --verify-jobs DIR` run — typically after killing and
//! restarting the server — polls every recorded job to a terminal state
//! and, for completed ones, asserts the stored report is byte-identical
//! (after clock-field normalization) to a fresh synchronous solve of the
//! same spec. `--allow-transport` additionally tolerates transport errors
//! (statuses 0/599), for bursts deliberately cut down by `kill -9`.

use greencloud_api::http::{write_request_head, Reader, Response};
use greencloud_api::json::Json;
use greencloud_api::normalize_report_json;
use greencloud_api::wallclock::Stopwatch;
use greencloud_bench::Args;

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// What one request attempt produced.
#[derive(Debug, Clone)]
struct Sample {
    /// Which client behavior issued it (see `KIND_*`).
    kind: &'static str,
    /// HTTP status, or 0 when no response was expected/read (disconnect
    /// chaos), or 599 on a transport error.
    status: u16,
    /// Wall latency in milliseconds.
    ms: f64,
    /// True when the response carried `X-Cache: hit`.
    cache_hit: bool,
}

const KIND_NORMAL: &str = "normal";
const KIND_JOB: &str = "job-submit";
const KIND_MALFORMED: &str = "malformed";
const KIND_OVERSIZED: &str = "oversized";
const KIND_MIDCUT: &str = "mid-disconnect";
const KIND_POSTCUT: &str = "post-disconnect";
const KIND_STORM: &str = "deadline-storm";

struct Config {
    addr: String,
    spec_paths: Vec<String>,
    requests: usize,
    concurrency: usize,
    chaos: bool,
    unique: bool,
    no_cache: bool,
    deadline_ms: u64,
    expect_shed: bool,
    min_ok: usize,
    /// Open-loop arrival rate in req/s (0 = closed-loop worker pool).
    rate: f64,
    /// Print the latency histogram even for closed-loop runs.
    histogram: bool,
    /// Submit normal traffic to `POST /v1/jobs` instead of the
    /// synchronous experiments endpoint.
    jobs: bool,
    /// Where `--jobs` records acknowledged specs for later verification.
    jobs_dir: Option<String>,
    /// Verify a directory of recorded jobs instead of generating load.
    verify_jobs: Option<String>,
    /// Tolerate transport errors (0/599) — for kill -9 bursts.
    allow_transport: bool,
    /// Per-job budget for `--verify-jobs` polling, seconds.
    verify_timeout_s: u64,
    /// Backend addresses behind a router at `--addr`: enables the
    /// per-backend stats report and the hit-rate parity assertion.
    backends: Vec<String>,
    /// Minimum acceptable cache hit rate in percent (negative = off).
    min_hit_rate: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:7411".to_string(),
            spec_paths: Vec::new(),
            requests: 200,
            concurrency: 8,
            chaos: false,
            unique: false,
            no_cache: false,
            deadline_ms: 0,
            expect_shed: false,
            min_ok: 0,
            rate: 0.0,
            histogram: false,
            jobs: false,
            jobs_dir: None,
            verify_jobs: None,
            allow_transport: false,
            verify_timeout_s: 180,
            backends: Vec::new(),
            min_hit_rate: -1.0,
        }
    }
}

const USAGE: &str = "usage: loadgen --addr A --spec F [--spec F ...] [--requests N] [--concurrency N]
               [--chaos] [--unique] [--no-cache] [--deadline-ms N] [--expect-shed] [--min-ok N]
               [--rate N] [--histogram] [--min-hit-rate P] [--backends a:p,b:p,...]
               [--jobs --jobs-dir DIR [--allow-transport]] [--verify-jobs DIR [--verify-timeout-s N]]";

fn parse_args() -> Config {
    let mut args = Args::from_env(USAGE);
    let mut cfg = Config::default();
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--addr" => cfg.addr = args.value(),
            "--spec" => cfg.spec_paths.push(args.value()),
            "--requests" => cfg.requests = args.value(),
            "--concurrency" => cfg.concurrency = args.value(),
            "--deadline-ms" => cfg.deadline_ms = args.value(),
            "--min-ok" => cfg.min_ok = args.value(),
            "--rate" => cfg.rate = args.value(),
            "--jobs-dir" => cfg.jobs_dir = Some(args.value()),
            "--verify-jobs" => cfg.verify_jobs = Some(args.value()),
            "--verify-timeout-s" => cfg.verify_timeout_s = args.value(),
            "--backends" => cfg.backends = args.list(),
            "--min-hit-rate" => cfg.min_hit_rate = args.value(),
            "--chaos" => cfg.chaos = true,
            "--unique" => cfg.unique = true,
            "--no-cache" => cfg.no_cache = true,
            "--expect-shed" => cfg.expect_shed = true,
            "--histogram" => cfg.histogram = true,
            "--jobs" => cfg.jobs = true,
            "--allow-transport" => cfg.allow_transport = true,
            other => args.fail(&format!("loadgen: unknown flag {other}")),
        }
    }
    if cfg.spec_paths.is_empty() {
        cfg.spec_paths.push("examples/quick.spec.json".to_string());
    }
    cfg.requests = cfg.requests.max(1);
    cfg.concurrency = cfg.concurrency.max(1);
    cfg
}

/// Sets `experiment.config.start_hour` in a parsed spec document so each
/// request describes a genuinely different experiment.
fn perturb_start_hour(doc: &mut Json, hour: u64) -> bool {
    let Json::Object(fields) = doc else {
        return false;
    };
    let Some(experiment) = fields
        .iter_mut()
        .find(|(k, _)| k == "experiment")
        .map(|(_, v)| v)
    else {
        return false;
    };
    let Json::Object(exp_fields) = experiment else {
        return false;
    };
    let Some(config) = exp_fields
        .iter_mut()
        .find(|(k, _)| k == "config")
        .map(|(_, v)| v)
    else {
        return false;
    };
    let Json::Object(cfg_fields) = config else {
        return false;
    };
    match cfg_fields.iter_mut().find(|(k, _)| k == "start_hour") {
        Some((_, v)) => *v = Json::Number(hour as f64),
        None => cfg_fields.push(("start_hour".to_string(), Json::Number(hour as f64))),
    }
    true
}

/// Sends one request over a fresh `Connection: close` connection and
/// reads the response. `cut_after` truncates the write mid-body and hangs
/// up (mid-request disconnect chaos); `drop_after_send` hangs up right
/// after writing without reading the response (cancels the in-flight
/// solve).
fn send_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    headers: &[(&str, String)],
    cut_after: Option<usize>,
    drop_after_send: bool,
) -> Result<Option<Response>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(150)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let len = body.len().to_string();
    let fixed = [
        ("Host", addr),
        ("Content-Type", "application/json"),
        ("Content-Length", len.as_str()),
        ("Connection", "close"),
    ];
    let extra = headers.iter().map(|(k, v)| (*k, v.as_str()));
    write_request_head(&mut stream, method, path, fixed.into_iter().chain(extra))
        .map_err(|e| format!("write head: {e}"))?;
    if let Some(cut) = cut_after {
        let _ = stream.write_all(&body[..cut.min(body.len())]);
        let _ = stream.flush();
        // Hang up mid-body: the server's read budget must reclaim this.
        return Ok(None);
    }
    stream
        .write_all(body)
        .map_err(|e| format!("write body: {e}"))?;
    stream.flush().map_err(|e| format!("flush: {e}"))?;
    if drop_after_send {
        // Hang up without reading: the server should detect the vanished
        // client and cancel the solve.
        return Ok(None);
    }
    Reader::new(stream)
        .read_response(150_000)
        .map(Some)
        .map_err(|e| format!("read: {e}"))
}

/// One worker request: picks a behavior for request `i` and executes it.
fn run_one(cfg: &Config, specs: &[String], i: usize) -> Sample {
    let chaos_slot = if cfg.chaos { i % 10 } else { 10 };
    let spec_text = &specs[i % specs.len()];
    let spec = spec_text.as_bytes();
    let sw = Stopwatch::start();
    let huge;
    let mut headers: Vec<(&str, String)> = Vec::new();
    // (kind, body, cut the write after this many body bytes, hang up
    // right after sending)
    let (kind, body, cut_after, drop_after_send): (_, &[u8], _, _) = match chaos_slot {
        // 10% malformed JSON → 400.
        7 => (
            KIND_MALFORMED,
            b"{\"schema\": \"greencloud-spec/1\", ",
            None,
            false,
        ),
        // 10% oversized body → 413 (2 MiB of padding).
        8 => {
            huge = vec![b' '; 2 * 1024 * 1024];
            (KIND_OVERSIZED, &huge, None, false)
        }
        // 5% mid-request disconnect → no response, server must recover.
        9 if (i / 10).is_multiple_of(2) => (KIND_MIDCUT, spec, Some(spec.len() / 2), false),
        // 5% post-request disconnect → in-flight solve is cancelled.
        9 => (KIND_POSTCUT, spec, None, true),
        // 10% deadline storm: a 1 ms deadline → 408 (or a 200 when the
        // report was already cached / solved inside the window).
        6 => {
            headers.push(("X-Deadline-Ms", "1".to_string()));
            (KIND_STORM, spec, None, false)
        }
        // The rest: honest traffic — synchronous solves, or durable job
        // submissions under --jobs.
        _ => {
            if cfg.no_cache {
                headers.push(("Cache-Control", "no-cache".to_string()));
            }
            if cfg.deadline_ms > 0 {
                headers.push(("X-Deadline-Ms", cfg.deadline_ms.to_string()));
            }
            let kind = if cfg.jobs { KIND_JOB } else { KIND_NORMAL };
            (kind, spec, None, false)
        }
    };
    let path = if kind == KIND_JOB {
        "/v1/jobs"
    } else {
        "/v1/experiments"
    };
    let outcome = send_request(
        &cfg.addr,
        "POST",
        path,
        body,
        &headers,
        cut_after,
        drop_after_send,
    );
    if let (KIND_JOB, Some(dir), Ok(Some(r))) = (kind, &cfg.jobs_dir, &outcome) {
        if r.status == 202 {
            record_job(dir, &r.body, spec_text);
        }
    }
    let (status, cache_hit) = match &outcome {
        Ok(Some(r)) => (
            r.status,
            r.header("x-cache").is_some_and(|v| v.contains("hit")),
        ),
        Ok(None) => (0, false),
        Err(_) => (599, false),
    };
    Sample {
        kind,
        status,
        ms: sw.elapsed_ms(),
        cache_hit,
    }
}

/// One backend's `(received, cache_hits)` counters from `/v1/stats`, or
/// `None` when the backend is unreachable (e.g. killed mid-burst).
fn backend_cache_counters(addr: &str) -> Option<(u64, u64)> {
    let resp = send_request(addr, "GET", "/v1/stats", b"", &[], None, false).ok()??;
    if resp.status != 200 {
        return None;
    }
    let doc = Json::parse(&resp.body).ok()?;
    let received = doc.get("received").and_then(Json::as_u64)?;
    let hits = doc.get("cache_hits").and_then(Json::as_u64)?;
    Some((received, hits))
}

/// Writes an acknowledged job's spec to `DIR/<job_id>.spec.json` so a
/// later `--verify-jobs` run can check it survived.
fn record_job(dir: &str, ack_body: &str, spec_text: &str) {
    let Some(id) = Json::parse(ack_body)
        .ok()
        .and_then(|doc| doc.get("job_id").and_then(Json::as_str).map(str::to_string))
    else {
        eprintln!("loadgen: 202 ack without a job_id: {ack_body}");
        return;
    };
    let path = format!("{dir}/{id}.spec.json");
    if let Err(e) = std::fs::write(&path, spec_text) {
        eprintln!("loadgen: cannot record {path}: {e}");
    }
}

/// Statuses each client kind may legitimately receive. Anything else is a
/// violation (a panic, a hang surfacing as 599, an unmapped error).
/// `allow_transport` extends every set with 0/599 — a `kill -9` mid-burst
/// legitimately cuts connections down.
fn allowed(kind: &str, status: u16, allow_transport: bool) -> bool {
    if allow_transport && matches!(status, 0 | 599) {
        return true;
    }
    match kind {
        // 429/503 are load shedding; 408 a deadline met under load.
        KIND_NORMAL => matches!(status, 200 | 408 | 429 | 503),
        // Job submissions are acknowledged (202) or shed, never solved
        // inline.
        KIND_JOB => matches!(status, 202 | 429 | 503),
        KIND_MALFORMED => matches!(status, 400 | 429 | 503),
        KIND_OVERSIZED => matches!(status, 413 | 429 | 503),
        // No response expected; transport errors are fine too (the server
        // may reset the socket mid-write).
        KIND_MIDCUT | KIND_POSTCUT => matches!(status, 0 | 599),
        KIND_STORM => matches!(status, 200 | 408 | 429 | 503),
        _ => false,
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0 * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len()) - 1;
    sorted_ms.get(idx).copied().unwrap_or(0.0)
}

/// Prints a log₂-bucketed latency histogram: `[1,2) [2,4) … [32768,∞)` ms,
/// each bucket with a proportional bar — the sustained-run view a single
/// p50/p99 pair hides (bimodality under load shedding, queueing tails).
fn print_histogram(ms: &[f64]) {
    if ms.is_empty() {
        return;
    }
    let mut buckets = [0usize; 17];
    for &v in ms {
        let mut b = 0usize;
        let mut bound = 1.0f64;
        while v >= bound && b < 16 {
            bound *= 2.0;
            b += 1;
        }
        buckets[b] += 1;
    }
    let tallest = buckets.iter().copied().max().unwrap_or(1).max(1);
    println!("latency histogram ({} responses):", ms.len());
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for (b, &count) in buckets.iter().enumerate() {
        if count > 0 {
            let bar = "#".repeat((count * 40).div_ceil(tallest));
            let label = if b == 16 {
                format!(">= {lo:.0} ms")
            } else {
                format!("{lo:.0}-{hi:.0} ms")
            };
            println!("  {label:<16} {count:>7}  {bar}");
        }
        lo = hi;
        hi *= 2.0;
    }
}

/// `--verify-jobs DIR`: every job recorded by an earlier `--jobs` run must
/// reach a terminal state, and completed reports must match a fresh
/// synchronous solve byte-for-byte after clock normalization. Returns the
/// process exit code.
fn verify_jobs(cfg: &Config, dir: &str) -> i32 {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("loadgen: cannot read --verify-jobs dir {dir}: {e}");
            return 2;
        }
    };
    let mut jobs: Vec<(String, String)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        let Some(id) = name.strip_suffix(".spec.json") else {
            continue;
        };
        match std::fs::read_to_string(entry.path()) {
            Ok(spec) => jobs.push((id.to_string(), spec)),
            Err(e) => {
                eprintln!("loadgen: cannot read {name}: {e}");
                return 2;
            }
        }
    }
    jobs.sort();
    if jobs.is_empty() {
        eprintln!("loadgen: no recorded jobs in {dir}");
        return 2;
    }
    println!(
        "verifying {} recorded jobs against {}",
        jobs.len(),
        cfg.addr
    );
    let mut completed = 0usize;
    let mut other_terminal = 0usize;
    let mut failures = 0usize;
    for (id, spec) in &jobs {
        match verify_one_job(cfg, id, spec) {
            VerifyOutcome::Completed => completed += 1,
            VerifyOutcome::Terminal(status) => {
                other_terminal += 1;
                println!("  job {id}: terminal ({status})");
            }
            VerifyOutcome::Failed(why) => {
                failures += 1;
                println!("  job {id}: FAILED — {why}");
            }
        }
    }
    println!(
        "verified: {completed} completed (reports byte-identical), \
         {other_terminal} otherwise terminal, {failures} failures"
    );
    if failures > 0 {
        1
    } else {
        println!(
            "loadgen: all {} acknowledged jobs reached a terminal state",
            jobs.len()
        );
        0
    }
}

enum VerifyOutcome {
    /// Completed with a report matching the synchronous reference.
    Completed,
    /// Terminal but not completed (failed/cancelled) — allowed; named.
    Terminal(String),
    /// Non-terminal at timeout, unreachable, or a report mismatch.
    Failed(String),
}

fn verify_one_job(cfg: &Config, id: &str, spec: &str) -> VerifyOutcome {
    let budget = Stopwatch::start();
    let report = loop {
        if budget.elapsed_ms() / 1e3 > cfg.verify_timeout_s as f64 {
            return VerifyOutcome::Failed(format!("not terminal within {}s", cfg.verify_timeout_s));
        }
        let resp = send_request(
            &cfg.addr,
            "GET",
            &format!("/v1/jobs/{id}"),
            b"",
            &[],
            None,
            false,
        );
        match resp {
            Ok(Some(r)) if r.status == 200 => {
                let Ok(doc) = Json::parse(&r.body) else {
                    return VerifyOutcome::Failed("unparseable job body".to_string());
                };
                let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
                if schema != "greencloud-job/1" {
                    // Not a state document: the finished report itself.
                    break r.body;
                }
                match doc.get("status").and_then(Json::as_str).unwrap_or("") {
                    "failed" | "cancelled" => {
                        let code = doc
                            .get("error_code")
                            .and_then(Json::as_str)
                            .or_else(|| doc.get("cancel_reason").and_then(Json::as_str))
                            .unwrap_or("-");
                        return VerifyOutcome::Terminal(format!(
                            "{}: {code}",
                            doc.get("status").and_then(Json::as_str).unwrap_or("?")
                        ));
                    }
                    // accepted/started: still working; poll again.
                    _ => {}
                }
            }
            Ok(Some(r)) => {
                return VerifyOutcome::Failed(format!("GET /v1/jobs/{id} returned {}", r.status))
            }
            // Server may still be restarting; keep polling.
            Ok(None) | Err(_) => {}
        }
        thread::sleep(Duration::from_millis(250));
    };
    // Reference solve of the same spec, cache bypassed: deterministic
    // engines must reproduce the recovered report byte-for-byte once
    // clocks are zeroed.
    let reference = loop {
        if budget.elapsed_ms() / 1e3 > 2.0 * cfg.verify_timeout_s as f64 {
            return VerifyOutcome::Failed("reference solve did not complete in budget".to_string());
        }
        match send_request(
            &cfg.addr,
            "POST",
            "/v1/experiments",
            spec.as_bytes(),
            &[("Cache-Control", "no-cache".to_string())],
            None,
            false,
        ) {
            Ok(Some(r)) if r.status == 200 => break r.body,
            // Shed under recovery load: back off and retry.
            Ok(Some(r)) if matches!(r.status, 429 | 503) => {
                thread::sleep(Duration::from_millis(500));
            }
            Ok(Some(r)) => {
                return VerifyOutcome::Failed(format!("reference solve returned {}", r.status))
            }
            Ok(None) | Err(_) => thread::sleep(Duration::from_millis(500)),
        }
    };
    match (
        normalize_report_json(&report).ok(),
        normalize_report_json(&reference).ok(),
    ) {
        (Some(a), Some(b)) if a == b => VerifyOutcome::Completed,
        (Some(_), Some(_)) => {
            VerifyOutcome::Failed("recovered report differs from reference solve".to_string())
        }
        _ => VerifyOutcome::Failed("report is not parseable JSON".to_string()),
    }
}

fn main() {
    let cfg = parse_args();
    if let Some(dir) = cfg.verify_jobs.clone() {
        std::process::exit(verify_jobs(&cfg, &dir));
    }
    // Load and pre-render every spec body once; with --unique, each
    // request index gets its own start_hour so no two specs match.
    let mut base_docs: Vec<Json> = Vec::new();
    for path in &cfg.spec_paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("loadgen: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        match Json::parse(&text) {
            Ok(doc) => base_docs.push(doc),
            Err(e) => {
                eprintln!("loadgen: {path} is not JSON: {e}");
                std::process::exit(2);
            }
        }
    }
    let specs: Vec<String> = if cfg.unique {
        (0..cfg.requests)
            .map(|i| {
                let mut doc = base_docs[i % base_docs.len()].clone();
                if !perturb_start_hour(&mut doc, (i as u64) * 24 % 8000) {
                    eprintln!("loadgen: warning: spec has no experiment.config to perturb");
                }
                doc.render()
            })
            .collect()
    } else {
        base_docs.iter().map(Json::render).collect()
    };
    if let Some(dir) = &cfg.jobs_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("loadgen: cannot create --jobs-dir {dir}: {e}");
            std::process::exit(2);
        }
    }

    let cfg = Arc::new(cfg);
    let specs = Arc::new(specs);
    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
    let wall = Stopwatch::start();
    let mut workers = Vec::new();
    if cfg.rate > 0.0 {
        // Open loop: dispatch at fixed intervals no matter how slow the
        // server is — each request gets a short-lived thread, so arrivals
        // never wait on completions.
        for i in 0..cfg.requests {
            let due_ms = i as f64 * 1000.0 / cfg.rate;
            let wait = due_ms - wall.elapsed_ms();
            if wait > 0.25 {
                thread::sleep(Duration::from_micros((wait * 1000.0) as u64));
            }
            let cfg = Arc::clone(&cfg);
            let specs = Arc::clone(&specs);
            let samples = Arc::clone(&samples);
            workers.push(thread::spawn(move || {
                let s = run_one(&cfg, &specs, i);
                if let Ok(mut guard) = samples.lock() {
                    guard.push(s);
                }
            }));
        }
    } else {
        // Closed loop: a fixed worker pool, each worker issuing the next
        // request as soon as its previous one resolves.
        let next = Arc::new(AtomicUsize::new(0));
        for _ in 0..cfg.concurrency {
            let cfg = Arc::clone(&cfg);
            let specs = Arc::clone(&specs);
            let next = Arc::clone(&next);
            let samples = Arc::clone(&samples);
            workers.push(thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= cfg.requests {
                    return;
                }
                let s = run_one(&cfg, &specs, i);
                if let Ok(mut guard) = samples.lock() {
                    guard.push(s);
                }
            }));
        }
    }
    for w in workers {
        let _ = w.join();
    }
    let wall_s = wall.elapsed_ms() / 1e3;

    let samples = samples.lock().map(|g| g.clone()).unwrap_or_default();
    let total = samples.len();
    let ok: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.status == 200 || s.status == 202)
        .collect();
    let shed = samples.iter().filter(|s| s.status == 429).count();
    let deadline = samples.iter().filter(|s| s.status == 408).count();
    let hits = ok.iter().filter(|s| s.cache_hit).count();
    let hit_rate = if ok.is_empty() {
        0.0
    } else {
        100.0 * hits as f64 / ok.len() as f64
    };
    let mut ok_ms: Vec<f64> = ok.iter().map(|s| s.ms).collect();
    ok_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let violations: Vec<&Sample> = samples
        .iter()
        .filter(|s| !allowed(s.kind, s.status, cfg.allow_transport))
        .collect();

    println!("==== loadgen report ====");
    println!("requests        {total}");
    println!("wall time       {wall_s:.2} s");
    if cfg.rate > 0.0 {
        println!("arrival rate    {:.1} req/s (open loop)", cfg.rate);
    }
    println!(
        "throughput      {:.1} req/s",
        total as f64 / wall_s.max(1e-9)
    );
    println!(
        "ok (200/202)    {} ({hits} cache hits, {hit_rate:.1}% hit rate)",
        ok.len(),
    );
    println!(
        "shed (429)      {shed} ({:.1}% shed rate)",
        100.0 * shed as f64 / total.max(1) as f64
    );
    println!("deadline (408)  {deadline}");
    println!(
        "p50 latency     {:.1} ms (over 200s/202s)",
        percentile(&ok_ms, 50.0)
    );
    println!(
        "p99 latency     {:.1} ms (over 200s/202s)",
        percentile(&ok_ms, 99.0)
    );
    for kind in [
        KIND_NORMAL,
        KIND_JOB,
        KIND_STORM,
        KIND_MALFORMED,
        KIND_OVERSIZED,
        KIND_MIDCUT,
        KIND_POSTCUT,
    ] {
        let n = samples.iter().filter(|s| s.kind == kind).count();
        if n > 0 {
            println!("  {kind:<16} {n}");
        }
    }
    if cfg.rate > 0.0 || cfg.histogram {
        print_histogram(&ok_ms);
    }

    let mut failed = false;
    if !violations.is_empty() {
        failed = true;
        println!(
            "VIOLATIONS: {} responses outside the allowed set",
            violations.len()
        );
        for v in violations.iter().take(10) {
            println!("  {} got {}", v.kind, v.status);
        }
    }
    if cfg.expect_shed && shed == 0 {
        failed = true;
        println!("ASSERTION FAILED: --expect-shed but no request was shed (429)");
    }
    if ok.len() < cfg.min_ok {
        failed = true;
        println!(
            "ASSERTION FAILED: --min-ok {} but only {} requests got 200/202",
            cfg.min_ok,
            ok.len()
        );
    }
    if !cfg.backends.is_empty() {
        println!(
            "==== backend cache parity ({} backends) ====",
            cfg.backends.len()
        );
        for b in &cfg.backends {
            match backend_cache_counters(b) {
                Some((received, backend_hits)) => {
                    println!("  {b:<24} received {received:>7}  cache hits {backend_hits:>7}")
                }
                None => println!("  {b:<24} unreachable"),
            }
        }
        // A single backend misses each distinct spec once (plus up to
        // `concurrency` duplicate misses racing the first fill); a
        // sharding router must match that, a scattering one cannot.
        let mut distinct: Vec<&String> = specs.iter().collect();
        distinct.sort();
        distinct.dedup();
        let ideal_misses = distinct.len() + cfg.concurrency;
        if ok.len() > ideal_misses {
            let ideal = 100.0 * (ok.len() - ideal_misses) as f64 / ok.len() as f64;
            println!(
                "parity: observed hit rate {hit_rate:.1}% vs single-backend ideal {ideal:.1}%"
            );
            if hit_rate < ideal - 5.0 {
                failed = true;
                println!(
                    "ASSERTION FAILED: hit rate {hit_rate:.1}% is more than 5 points \
                     below the single-backend ideal {ideal:.1}% — the router is \
                     scattering identical specs across backends"
                );
            }
        }
    }
    if cfg.min_hit_rate >= 0.0 && hit_rate < cfg.min_hit_rate {
        failed = true;
        println!(
            "ASSERTION FAILED: --min-hit-rate {:.1} but observed {hit_rate:.1}%",
            cfg.min_hit_rate
        );
    }
    if failed {
        std::process::exit(1);
    }
    println!("loadgen: all {total} requests resolved within the allowed status set");
}
