//! Integration tests for the `repro router` front-end: consistent-hash
//! sharding (cache-hit parity with a single backend), streaming relay,
//! edge validation, fleet stats aggregation, and graceful drain.

mod common;

use common::{annual_spec, http, start, start_router, Session};
use greencloud_api::json::Json;

/// A duplicate-spec burst through the router over three backends must
/// show the same cache hit rate as the identical burst against a single
/// backend: the ring sends every copy of a spec to the same backend, so
/// the fleet as a whole still misses each distinct spec exactly once.
/// This is the PR's acceptance criterion (parity within 5 points).
#[test]
fn duplicate_spec_burst_hit_rate_matches_single_backend() {
    let specs: Vec<Vec<u8>> = (0..3)
        .map(|i| annual_spec(48, 4, i * 24).to_json_string().into_bytes())
        .collect();
    let reps = 8usize;

    // Baseline: the burst against one standalone backend, sequentially
    // over a single keep-alive connection (no duplicate-miss races).
    let (baseline, baseline_addr) = start(|_| {});
    let mut session = Session::connect(baseline_addr);
    let mut baseline_hits = 0usize;
    for r in 0..reps {
        for spec in &specs {
            let resp = session.send("POST", "/v1/experiments", &[], Some(spec));
            assert_eq!(resp.status, 200, "baseline rep {r}: {}", resp.body);
            if resp.header("X-Cache") == Some("hit") {
                baseline_hits += 1;
            }
        }
    }
    drop(session);
    let total = reps * specs.len();
    let baseline_rate = baseline_hits as f64 / total as f64;
    baseline.trigger_shutdown();
    baseline.join();

    // The same burst through a router over three fresh backends.
    let fleet: Vec<_> = (0..3).map(|_| start(|_| {})).collect();
    let fleet_addrs: Vec<_> = fleet.iter().map(|(_, a)| *a).collect();
    let (router, router_addr) = start_router(&fleet_addrs, |_| {});
    let mut session = Session::connect(router_addr);
    let mut routed_hits = 0usize;
    for r in 0..reps {
        for spec in &specs {
            let resp = session.send("POST", "/v1/experiments", &[], Some(spec));
            assert_eq!(resp.status, 200, "routed rep {r}: {}", resp.body);
            if resp.header("X-Cache") == Some("hit") {
                routed_hits += 1;
            }
        }
    }
    drop(session);
    let routed_rate = routed_hits as f64 / total as f64;
    assert!(
        (routed_rate - baseline_rate).abs() <= 0.05,
        "hit-rate parity broken: single backend {baseline_rate:.3}, \
         through router {routed_rate:.3}"
    );

    // The fleet view agrees: summed backend cache_hits equal the hits the
    // clients saw, and every backend is present in the aggregation.
    let stats = http(router_addr, "GET", "/v1/stats", &[], None);
    assert_eq!(stats.status, 200);
    let doc = stats.json();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(greencloud_api::ROUTER_STATS_SCHEMA)
    );
    let backends = match doc.get("backends") {
        Some(Json::Array(items)) => items.clone(),
        other => panic!("backends is not an array: {other:?}"),
    };
    assert_eq!(backends.len(), 3);
    let fleet_hits = doc
        .get("fleet")
        .and_then(|f| f.get("cache_hits"))
        .and_then(Json::as_u64)
        .expect("fleet cache_hits");
    assert_eq!(fleet_hits as usize, routed_hits);
    let relayed = doc.get("relayed").and_then(Json::as_u64).expect("relayed");
    assert!(relayed >= total as u64, "relayed={relayed}");

    router.trigger_shutdown();
    router.join();
    for (server, _) in fleet {
        server.trigger_shutdown();
        server.join();
    }
}

/// `X-Progress: stream` through the router: the chunked response arrives
/// with at least one progress frame ahead of the final report line, and a
/// repeat of the same spec streams a `cached` frame with `X-Cache: hit`.
#[test]
fn streamed_solve_relays_progress_frames_before_body() {
    let (server, server_addr) = start(|_| {});
    let (router, router_addr) = start_router(&[server_addr], |_| {});
    let spec = annual_spec(48, 4, 7_000).to_json_string().into_bytes();

    let mut session = Session::connect(router_addr);
    let resp = session.send(
        "POST",
        "/v1/experiments",
        &[("X-Progress", "stream")],
        Some(&spec),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.chunked, "streamed response must be chunked");
    assert_eq!(resp.header("X-Cache"), Some("miss"));
    let frames = resp.progress_frames();
    assert!(
        !frames.is_empty(),
        "expected at least one progress frame before the body: {}",
        resp.body
    );
    let report = Json::parse(&resp.final_document()).expect("final document is JSON");
    let schema = report.get("schema").and_then(Json::as_str).unwrap_or("");
    assert!(
        schema.starts_with("greencloud-report/"),
        "final document is not a report: {schema:?}"
    );

    // Same spec again: a cache hit, still streamed for framing symmetry.
    let resp = session.send(
        "POST",
        "/v1/experiments",
        &[("X-Progress", "stream")],
        Some(&spec),
    );
    assert_eq!(resp.status, 200);
    assert!(resp.chunked);
    assert_eq!(resp.header("X-Cache"), Some("hit"));
    let frames = resp.progress_frames();
    assert_eq!(
        frames
            .first()
            .and_then(|f| f.get("kind"))
            .and_then(Json::as_str),
        Some("cached")
    );
    assert_eq!(resp.final_document(), report.render().trim_end());

    drop(session);
    router.trigger_shutdown();
    router.join();
    server.trigger_shutdown();
    server.join();
}

/// A spec the backends would reject is rejected at the router's edge with
/// the same typed error body — no backend sees the request.
#[test]
fn bad_spec_is_rejected_at_the_edge() {
    let (server, server_addr) = start(|_| {});
    let (router, router_addr) = start_router(&[server_addr], |_| {});

    let resp = http(
        router_addr,
        "POST",
        "/v1/experiments",
        &[],
        Some(b"{\"schema\": \"greencloud-spec/1\", "),
    );
    assert_eq!(resp.status, 400);
    assert_eq!(
        resp.json().get("schema").and_then(Json::as_str),
        Some("greencloud-error/1")
    );

    // The backend never received it.
    let stats = http(server_addr, "GET", "/v1/stats", &[], None);
    assert_eq!(stats.json().get("received").and_then(Json::as_u64), Some(0));

    // Unknown routes and wrong methods are answered locally too.
    let resp = http(router_addr, "GET", "/v1/nope", &[], None);
    assert_eq!(resp.status, 404);
    let resp = http(router_addr, "DELETE", "/v1/experiments", &[], None);
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("Allow"), Some("POST"));

    router.trigger_shutdown();
    router.join();
    server.trigger_shutdown();
    server.join();
}

/// The router parses every spec at its edge; a 20,000-deep nested body
/// must come back as a typed 400 (never reaching a backend) and leave the
/// router serving.
#[test]
fn deeply_nested_body_is_rejected_at_the_edge_and_the_router_survives() {
    let (server, server_addr) = start(|_| {});
    let (router, router_addr) = start_router(&[server_addr], |_| {});

    let body = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
    let resp = http(
        router_addr,
        "POST",
        "/v1/experiments",
        &[],
        Some(body.as_bytes()),
    );
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert_eq!(resp.code().as_deref(), Some("spec_invalid"));
    let stats = http(server_addr, "GET", "/v1/stats", &[], None);
    assert_eq!(stats.json().get("received").and_then(Json::as_u64), Some(0));

    let spec = annual_spec(24, 4, 0).to_json_string().into_bytes();
    let ok = http(router_addr, "POST", "/v1/experiments", &[], Some(&spec));
    assert_eq!(ok.status, 200, "{}", ok.body);

    router.trigger_shutdown();
    router.join();
    server.trigger_shutdown();
    server.join();
}

/// Jobs submitted through the router are pollable through the router:
/// the job id's hex prefix recovers the spec's ring key, so the GET lands
/// on the backend that owns the job.
#[test]
fn job_submitted_through_router_is_pollable_through_router() {
    let fleet: Vec<_> = (0..3).map(|_| start(|_| {})).collect();
    let fleet_addrs: Vec<_> = fleet.iter().map(|(_, a)| *a).collect();
    let (router, router_addr) = start_router(&fleet_addrs, |_| {});

    let spec = annual_spec(48, 4, 4_321).to_json_string().into_bytes();
    let ack = http(router_addr, "POST", "/v1/jobs", &[], Some(&spec));
    assert_eq!(ack.status, 202, "{}", ack.body);
    let id = ack
        .json()
        .get("job_id")
        .and_then(Json::as_str)
        .map(str::to_string)
        .expect("job_id in ack");

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let report = loop {
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} did not reach a terminal state"
        );
        let resp = http(router_addr, "GET", &format!("/v1/jobs/{id}"), &[], None);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = resp.json();
        if doc.get("schema").and_then(Json::as_str) != Some("greencloud-job/1") {
            break doc;
        }
        match doc.get("status").and_then(Json::as_str) {
            Some("failed") | Some("cancelled") => panic!("job {id} ended {:?}", resp.body),
            _ => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    };
    let schema = report.get("schema").and_then(Json::as_str).unwrap_or("");
    assert!(schema.starts_with("greencloud-report/"), "{schema:?}");

    router.trigger_shutdown();
    router.join();
    for (server, _) in fleet {
        server.trigger_shutdown();
        server.join();
    }
}

/// Local router endpoints: healthz names the role, readyz counts live
/// backends, and a drain stops the world with an accurate summary.
#[test]
fn local_endpoints_and_drain_summary() {
    let (server, server_addr) = start(|_| {});
    let (router, router_addr) = start_router(&[server_addr], |_| {});

    let health = http(router_addr, "GET", "/v1/healthz", &[], None);
    assert_eq!(health.status, 200);
    assert_eq!(
        health.json().get("role").and_then(Json::as_str),
        Some("router")
    );
    let ready = http(router_addr, "GET", "/v1/readyz", &[], None);
    assert_eq!(ready.status, 200);
    assert_eq!(
        ready.json().get("backends_up").and_then(Json::as_u64),
        Some(1)
    );

    let spec = annual_spec(48, 4, 8_400).to_json_string().into_bytes();
    let resp = http(router_addr, "POST", "/v1/experiments", &[], Some(&spec));
    assert_eq!(resp.status, 200);

    router.trigger_shutdown();
    let summary = router.join();
    assert_eq!(summary.relayed, 1);
    assert_eq!(summary.all_dark, 0);
    assert_eq!(summary.aborted_relays, 0);

    server.trigger_shutdown();
    server.join();
}

/// A fake backend that answers `/v1/readyz` with 200 and every other
/// request with a chunked head whose first chunk declares
/// `ffffffffffffffff` bytes. Returns its address; the accept thread runs
/// until the test process exits.
fn hostile_chunk_backend() -> std::net::SocketAddr {
    use std::io::{Read as _, Write as _};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().expect("fake backend addr");
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { continue };
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                loop {
                    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                        match conn.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                        continue;
                    };
                    let head = String::from_utf8_lossy(&buf[..end]).to_ascii_lowercase();
                    let len = head
                        .lines()
                        .find_map(|l| l.strip_prefix("content-length:"))
                        .and_then(|v| v.trim().parse::<usize>().ok())
                        .unwrap_or(0);
                    while buf.len() < end + 4 + len {
                        match conn.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                    }
                    buf.drain(..end + 4 + len);
                    let reply: &[u8] = if head.starts_with("get /v1/readyz") {
                        b"HTTP/1.1 200 OK\r\nContent-Length: 19\r\n\r\n{\"status\":\"ready\"}\n"
                    } else {
                        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n"
                    };
                    if conn.write_all(reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// A backend that declares a chunk of `u64::MAX` bytes must not take the
/// router down: the relay aborts with a typed error (counted in
/// `aborted_relays`), the router keeps serving, and the drain finishes
/// well inside `drain_ms` because no connection slot leaked.
#[test]
fn hostile_chunk_size_aborts_the_relay_and_the_router_survives() {
    use std::io::{Read as _, Write as _};
    let backend = hostile_chunk_backend();
    let (router, router_addr) = start_router(&[backend], |cfg| cfg.drain_ms = 3_000);

    let spec = annual_spec(24, 4, 0).to_json_string().into_bytes();
    let mut client = std::net::TcpStream::connect(router_addr).expect("connect");
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    let head = format!(
        "POST /v1/experiments HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        spec.len()
    );
    client.write_all(head.as_bytes()).expect("write head");
    client.write_all(&spec).expect("write body");
    let mut got = Vec::new();
    let _ = client.read_to_end(&mut got);
    let got = String::from_utf8_lossy(&got);
    assert!(
        got.starts_with("HTTP/1.1 200"),
        "the head was relayed before the body failed: {got:?}"
    );

    let health = http(router_addr, "GET", "/v1/healthz", &[], None);
    assert_eq!(health.status, 200, "router must survive a hostile backend");

    router.trigger_shutdown();
    let clock = std::time::Instant::now();
    let summary = router.join();
    let waited = clock.elapsed();
    assert!(
        waited < std::time::Duration::from_millis(1_500),
        "drain waited {waited:?}: a connection slot leaked"
    );
    assert_eq!(summary.aborted_relays, 1);
}
