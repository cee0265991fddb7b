//! HTTP contract tests for `repro serve`: routing, error codes, admission
//! control, deadlines, caching, and drain — all against a real listener.

mod common;

use common::{annual_spec, http, http_raw, siting_spec, start};
use greencloud_api::json::Json;
use std::thread;

#[test]
fn health_and_stats_endpoints_respond() {
    let (server, addr) = start(|_| {});

    let h = http(addr, "GET", "/v1/healthz", &[], None);
    assert_eq!(h.status, 200);
    assert_eq!(h.json().get("status").and_then(|j| j.as_str()), Some("ok"));

    let r = http(addr, "GET", "/v1/readyz", &[], None);
    assert_eq!(r.status, 200);
    assert_eq!(
        r.json().get("status").and_then(|j| j.as_str()),
        Some("ready")
    );

    let s = http(addr, "GET", "/v1/stats", &[], None);
    assert_eq!(s.status, 200);
    assert!(s.json().get("received").is_some(), "stats exposes counters");

    server.trigger_shutdown();
    server.join();
}

#[test]
fn unknown_routes_and_methods_are_typed() {
    let (server, addr) = start(|_| {});

    let nf = http(addr, "GET", "/nope", &[], None);
    assert_eq!(nf.status, 404);
    assert_eq!(nf.code().as_deref(), Some("not_found"));

    let mna = http(addr, "POST", "/v1/healthz", &[], Some(b"{}"));
    assert_eq!(mna.status, 405);
    assert_eq!(mna.code().as_deref(), Some("method_not_allowed"));
    assert!(mna.header("Allow").is_some(), "405 carries Allow header");

    let get_exp = http(addr, "GET", "/v1/experiments", &[], None);
    assert_eq!(get_exp.status, 405);

    server.trigger_shutdown();
    server.join();
}

#[test]
fn malformed_spec_is_a_schema_versioned_400() {
    let (server, addr) = start(|_| {});

    let resp = http(
        addr,
        "POST",
        "/v1/experiments",
        &[],
        Some(b"{\"this is\": not json"),
    );
    assert_eq!(resp.status, 400);
    let doc = resp.json();
    assert_eq!(
        doc.get("schema").and_then(|j| j.as_str()),
        Some("greencloud-error/1")
    );
    assert_eq!(resp.code().as_deref(), Some("spec_invalid"));

    server.trigger_shutdown();
    server.join();
}

/// A body nested far deeper than any spec (20,000 levels of `[`, 40 KB)
/// is a typed 400 rather than a stack overflow that takes the process
/// down: the same server then still answers a real solve.
#[test]
fn deeply_nested_body_is_a_400_and_the_server_survives() {
    let (server, addr) = start(|_| {});

    let body = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
    let resp = http(addr, "POST", "/v1/experiments", &[], Some(body.as_bytes()));
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert_eq!(resp.code().as_deref(), Some("spec_invalid"));

    let spec = annual_spec(24, 4, 0).to_json_string().into_bytes();
    let ok = http(addr, "POST", "/v1/experiments", &[], Some(&spec));
    assert_eq!(ok.status, 200, "{}", ok.body);

    server.trigger_shutdown();
    server.join();
}

#[test]
fn oversized_body_and_missing_length_are_rejected() {
    let (server, addr) = start(|cfg| cfg.max_body_bytes = 256);

    let big = vec![b'x'; 512];
    let too_big = http(addr, "POST", "/v1/experiments", &[], Some(&big));
    assert_eq!(too_big.status, 413);
    assert_eq!(too_big.code().as_deref(), Some("body_too_large"));

    let no_len = http_raw(
        addr,
        b"POST /v1/experiments HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(no_len.status, 411);
    assert_eq!(no_len.code().as_deref(), Some("length_required"));

    server.trigger_shutdown();
    server.join();
}

#[test]
fn overload_sheds_with_retry_after() {
    let (server, addr) = start(|cfg| {
        cfg.max_inflight = 1;
        cfg.queue_depth = 1;
        cfg.cache_capacity = 0;
    });

    // Six concurrent multi-hundred-ms solves against one worker and one
    // queue slot: at most two can be admitted at the moment of the burst,
    // so at least one of the six must come back 429 + Retry-After rather
    // than be queued unboundedly.
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let body = annual_spec(8760, 32, i * 100).to_json_string().into_bytes();
            thread::spawn(move || {
                let resp = http(
                    addr,
                    "POST",
                    "/v1/experiments",
                    &[("Cache-Control", "no-cache")],
                    Some(&body),
                );
                let retry = resp.header("Retry-After").map(str::to_string);
                (resp.status, resp.code(), retry)
            })
        })
        .collect();
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    for (status, _, _) in &outcomes {
        assert!(
            *status == 200 || *status == 429,
            "burst statuses must be 200 or 429, got {status}"
        );
    }
    assert!(
        outcomes.iter().any(|(s, _, _)| *s == 200),
        "admitted requests complete: {outcomes:?}"
    );
    let shed: Vec<_> = outcomes.iter().filter(|(s, _, _)| *s == 429).collect();
    assert!(
        !shed.is_empty(),
        "burst must overflow the queue: {outcomes:?}"
    );
    for (_, code, retry) in &shed {
        assert_eq!(code.as_deref(), Some("overloaded"));
        let secs: u64 = retry
            .as_deref()
            .expect("429 carries Retry-After")
            .parse()
            .expect("Retry-After is integral seconds");
        assert!((1..=60).contains(&secs));
    }

    server.trigger_shutdown();
    let summary = server.join();
    assert!(summary.shed >= 1, "summary counts the shed requests");
}

#[test]
fn per_request_deadline_yields_typed_408() {
    let (server, addr) = start(|cfg| cfg.cache_capacity = 0);

    let body = annual_spec(8760, 16, 0).to_json_string().into_bytes();
    let resp = http(
        addr,
        "POST",
        "/v1/experiments",
        &[("X-Deadline-Ms", "1")],
        Some(&body),
    );
    assert_eq!(resp.status, 408, "1ms deadline must expire: {}", resp.body);
    assert_eq!(resp.code().as_deref(), Some("deadline_exceeded"));
    assert_eq!(
        resp.json().get("limit_ms").and_then(|j| j.as_u64()),
        Some(1),
        "error body names the limit: {}",
        resp.body
    );

    server.trigger_shutdown();
    let summary = server.join();
    assert!(summary.deadline_expired >= 1);
}

#[test]
fn repeated_spec_hits_the_report_cache() {
    let (server, addr) = start(|_| {});

    let body = siting_spec().to_json_string().into_bytes();
    let first = http(addr, "POST", "/v1/experiments", &[], Some(&body));
    assert_eq!(first.status, 200);
    assert_eq!(first.header("X-Cache"), Some("miss"));

    let second = http(addr, "POST", "/v1/experiments", &[], Some(&body));
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Cache"), Some("hit"));
    assert_eq!(
        first.body, second.body,
        "cache returns byte-identical report"
    );

    // Whitespace-different but semantically identical spec still hits:
    // the key is the normalized spec, not the raw bytes.
    let spaced = {
        let mut s = String::from_utf8(body.clone()).expect("utf8");
        s.push_str("  \n");
        s.into_bytes()
    };
    let third = http(addr, "POST", "/v1/experiments", &[], Some(&spaced));
    assert_eq!(third.status, 200);
    assert_eq!(third.header("X-Cache"), Some("hit"));

    // no-cache bypasses the lookup.
    let fourth = http(
        addr,
        "POST",
        "/v1/experiments",
        &[("Cache-Control", "no-cache")],
        Some(&body),
    );
    assert_eq!(fourth.status, 200);
    assert_eq!(fourth.header("X-Cache"), Some("miss"));

    server.trigger_shutdown();
    let summary = server.join();
    assert!(summary.cache_hits >= 2);
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (server, addr) = start(|_| {});
    let mut session = common::Session::connect(addr);

    // Mixed traffic over a single TcpStream: health checks, a solve, a
    // cache hit, and a typed 404 — each response framed by Content-Length,
    // none closing the connection.
    let health = session.send("GET", "/v1/healthz", &[], None);
    assert_eq!(health.status, 200);
    assert_eq!(health.header("Connection"), Some("keep-alive"));

    let body = siting_spec().to_json_string().into_bytes();
    let first = session.send("POST", "/v1/experiments", &[], Some(&body));
    assert_eq!(first.status, 200);
    assert_eq!(first.header("X-Cache"), Some("miss"));
    let second = session.send("POST", "/v1/experiments", &[], Some(&body));
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Cache"), Some("hit"));
    assert_eq!(first.body, second.body);

    let missing = session.send("GET", "/v1/nope", &[], None);
    assert_eq!(missing.status, 404);
    let stats = session.send("GET", "/v1/stats", &[], None);
    assert_eq!(stats.status, 200);

    drop(session);
    server.trigger_shutdown();
    let summary = server.join();
    assert_eq!(summary.server_errors, 0);
}

#[test]
fn streamed_solve_sends_progress_frames_then_the_report() {
    let (server, addr) = start(|_| {});
    let mut session = common::Session::connect(addr);
    let body = annual_spec(48, 4, 6_000).to_json_string().into_bytes();

    let resp = session.send(
        "POST",
        "/v1/experiments",
        &[("X-Progress", "stream")],
        Some(&body),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.chunked, "streaming uses chunked transfer encoding");
    assert_eq!(resp.header("X-Cache"), Some("miss"));
    let frames = resp.progress_frames();
    assert!(
        !frames.is_empty(),
        "at least one progress frame precedes the body"
    );
    for frame in &frames {
        let done = frame.get("done").and_then(Json::as_u64).expect("done");
        let total = frame.get("total").and_then(Json::as_u64).expect("total");
        assert!(done <= total.max(1), "frame out of range: {done}/{total}");
    }
    let report = Json::parse(&resp.final_document()).expect("final document parses");
    assert!(report
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("")
        .starts_with("greencloud-report/"));

    // The identical spec over the same connection: a streamed cache hit —
    // one `cached` frame, then the byte-identical report.
    let resp = session.send(
        "POST",
        "/v1/experiments",
        &[("X-Progress", "stream")],
        Some(&body),
    );
    assert_eq!(resp.status, 200);
    assert!(resp.chunked);
    assert_eq!(resp.header("X-Cache"), Some("hit"));
    assert_eq!(
        resp.progress_frames()
            .first()
            .and_then(|f| f.get("kind").and_then(Json::as_str).map(str::to_string)),
        Some("cached".to_string())
    );
    assert_eq!(resp.final_document(), report.render().trim_end());

    drop(session);
    server.trigger_shutdown();
    server.join();
}

#[test]
fn drain_refuses_new_work_and_exits_cleanly() {
    let (server, addr) = start(|_| {});
    let handle = server.handle();

    let warm = http(addr, "GET", "/v1/healthz", &[], None);
    assert_eq!(warm.status, 200);

    handle.trigger_shutdown();
    let summary = server.join();
    assert_eq!(summary.server_errors, 0);
}

/// A body far over the cap is refused with `413` before it is read, and
/// the client still gets that answer while it is sending: the server
/// discards the rest of the body (a lingering close) instead of closing
/// on unread input, which would reset the connection and drop the `413`.
#[test]
fn oversized_body_gets_its_413_while_the_client_is_still_sending() {
    use std::io::{Read as _, Write as _};
    let (server, addr) = start(|cfg| cfg.max_body_bytes = 256);
    let body = vec![b' '; 4 << 20];
    for attempt in 0..3 {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let head = format!(
            "POST /v1/experiments HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(&body).expect("the server drains the body");
        let mut answer = Vec::new();
        stream.read_to_end(&mut answer).expect("read the answer");
        let answer = String::from_utf8_lossy(&answer);
        assert!(
            answer.starts_with("HTTP/1.1 413"),
            "attempt {attempt}: {answer:?}"
        );
    }
    server.trigger_shutdown();
    server.join();
}

/// HTTP/1.1 pipelining: requests sent back to back in one write are all
/// answered, in order, on the same connection.
#[test]
fn pipelined_requests_are_all_answered_in_order() {
    use std::io::Write as _;
    let (server, addr) = start(|_| {});
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    let mut conn = greencloud_api::http::Reader::new(stream);
    conn.get_mut()
        .write_all(
            b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              POST /v1/healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}\
              GET /v1/stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .expect("write pipelined requests");
    let statuses: Vec<u16> = (0..3)
        .map(|_| conn.read_response(10_000).expect("response").status)
        .collect();
    assert_eq!(statuses, [200, 405, 200]);
    server.trigger_shutdown();
    server.join();
}
