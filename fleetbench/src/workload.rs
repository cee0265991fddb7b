//! The workloads, replayed through the router.
//!
//! * `exact_miss` — closed loop, two clients, unique ExactSiting specs on
//!   `POST /v1/experiments` (every request misses the report cache).
//! * `annual_jobs` — closed loop, two clients, unique 720 h Annual specs
//!   submitted on `POST /v1/jobs` and polled on `GET /v1/jobs/:id`.
//!
//! Every request records its latency and the report it got back; the
//! output check runs afterwards, outside the measured window.

use crate::gen::Input;
use crate::http::{Conn, Resp};
use crate::trace::Tracer;
use crate::util::now_s;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

/// One request as the client saw it.
pub struct Sample {
    /// Index into the workload's input list.
    pub idx: usize,
    /// Latency, ms.
    pub lat_ms: f64,
    /// The report text, kept for the output check.
    pub body: Option<String>,
    pub err: Option<String>,
    /// `annual_jobs`: the submit (ack) latency, ms.
    pub ack_ms: f64,
    /// `annual_jobs`: status polls until the report arrived.
    pub polls: usize,
}

impl Sample {
    fn new(idx: usize) -> Sample {
        Sample {
            idx,
            lat_ms: 0.0,
            body: None,
            err: None,
            ack_ms: 0.0,
            polls: 0,
        }
    }

    fn record(&mut self, r: std::io::Result<Resp>) {
        match r {
            Ok(r) => {
                if r.ok() {
                    self.body = Some(r.text().to_string());
                } else {
                    self.err = Some(format!("HTTP {}: {}", r.status, r.text().trim()));
                }
            }
            Err(e) => self.err = Some(format!("transport: {e}")),
        }
    }
}

/// What a workload run produced.
pub struct Run {
    pub samples: Vec<Sample>,
    /// Seconds from the first request to the last completion.
    pub elapsed_s: f64,
}

fn poisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Closed loop, `clients` clients: each unique spec once on
/// `POST /v1/experiments`, until `seconds` have passed.
pub fn sync_misses(
    router: &str,
    inputs: &[Input],
    seconds: f64,
    clients: usize,
    tracer: &Tracer,
) -> Run {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let t0 = now_s();
    thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut conn = None;
                while now_s() - t0 < seconds {
                    let idx = next.fetch_add(1, Ordering::SeqCst);
                    let Some(input) = inputs.get(idx) else { break };
                    let mut s = Sample::new(idx);
                    let span = tracer.begin("http.miss.routed", None, idx as u64);
                    let start = now_s();
                    let r = send(
                        &mut conn,
                        router,
                        "POST",
                        "/v1/experiments",
                        input.body.as_bytes(),
                    );
                    s.lat_ms = (now_s() - start) * 1e3;
                    tracer.end(span);
                    s.record(r);
                    poisoned(&out).push(s);
                }
            });
        }
    });
    let elapsed_s = now_s() - t0;
    let mut samples = out.into_inner().unwrap_or_else(|p| p.into_inner());
    samples.sort_by_key(|s| s.idx);
    Run { samples, elapsed_s }
}

/// Polling interval for job status, ms.
pub const POLL_MS: u64 = 5;

/// Closed loop, `clients` clients: submit a durable job, poll it to its
/// report, repeat with the next unique spec.
pub fn annual_jobs(
    router: &str,
    inputs: &[Input],
    seconds: f64,
    clients: usize,
    tracer: &Tracer,
) -> Run {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let t0 = now_s();
    thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut conn = None;
                while now_s() - t0 < seconds {
                    let idx = next.fetch_add(1, Ordering::SeqCst);
                    let Some(input) = inputs.get(idx) else { break };
                    let s = one_job(&mut conn, router, idx, input, tracer);
                    poisoned(&out).push(s);
                }
            });
        }
    });
    let elapsed_s = now_s() - t0;
    let mut samples = out.into_inner().unwrap_or_else(|p| p.into_inner());
    samples.sort_by_key(|s| s.idx);
    Run { samples, elapsed_s }
}

fn one_job(
    conn: &mut Option<Conn>,
    router: &str,
    idx: usize,
    input: &Input,
    tracer: &Tracer,
) -> Sample {
    let mut s = Sample::new(idx);
    let job_span = tracer.begin("http.job", None, idx as u64);
    let start = now_s();
    let ack_span = tracer.begin("http.job.ack", Some(job_span), idx as u64);
    let ack = send(conn, router, "POST", "/v1/jobs", input.body.as_bytes());
    s.ack_ms = (now_s() - start) * 1e3;
    tracer.end(ack_span);
    let id = match ack {
        Ok(r) if r.status == 202 || r.status == 200 => greencloud_api::json::Json::parse(r.text())
            .ok()
            .and_then(|j| j.get("job_id").and_then(|v| v.as_str()).map(String::from)),
        Ok(r) => {
            s.err = Some(format!("submit HTTP {}: {}", r.status, r.text().trim()));
            None
        }
        Err(e) => {
            s.err = Some(format!("submit transport: {e}"));
            None
        }
    };
    if id.is_none() && s.err.is_none() {
        s.err = Some("submit answered without a job id".into());
    }
    if let Some(id) = id {
        let path = format!("/v1/jobs/{id}");
        let deadline = start + 120.0;
        loop {
            thread::sleep(Duration::from_millis(POLL_MS));
            s.polls += 1;
            let poll_span = tracer.begin("http.job.poll", Some(job_span), idx as u64);
            let r = send(conn, router, "GET", &path, b"");
            tracer.end(poll_span);
            let done = match &r {
                Ok(r) => {
                    !r.ok() || !matches!(r.header("X-Job-Status"), Some("accepted" | "started"))
                }
                Err(_) => true,
            };
            if done || now_s() > deadline {
                s.lat_ms = (now_s() - start) * 1e3;
                let completed =
                    matches!(&r, Ok(r) if r.header("X-Job-Status") == Some("completed"));
                s.record(r);
                if !completed && s.err.is_none() {
                    s.err = Some(format!(
                        "job {id} ended {}",
                        s.body.take().unwrap_or_default().trim()
                    ));
                }
                break;
            }
        }
    }
    tracer.end(job_span);
    s
}

fn send(
    conn: &mut Option<Conn>,
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<Resp> {
    if conn.is_none() {
        *conn = Some(Conn::open(addr)?);
    }
    let r = conn.as_mut().map_or_else(
        || Err(std::io::Error::other("no connection")),
        |c| c.send(method, path, &[], body),
    );
    if r.is_err() {
        *conn = None;
    }
    r
}
