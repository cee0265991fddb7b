//! Shared helpers for the serve integration tests: a thin client over the
//! crate's own HTTP layer ([`greencloud_api::http`]) and spec fixtures.
//!
//! Each integration test binary compiles its own copy, so helpers used by
//! only one binary look dead in the others.
#![allow(dead_code)]

use greencloud_api::http::{write_request_head, Reader, Response};
use greencloud_api::json::Json;
use greencloud_api::spec::{AnnualSpec, ExperimentSpec, SearchSpec, SitingSpec};
use greencloud_api::{Engine, Router, RouterConfig, ServeConfig, Server};
use greencloud_climate::catalog::WorldCatalog;
use greencloud_climate::profiles::ProfileConfig;
use greencloud_core::framework::PlacementInput;
use greencloud_nebula::emulation::EmulationConfig;
use greencloud_nebula::scheduler::SchedulerConfig;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub const SEED: u64 = 20140701;

/// A fresh, collision-free path for a journal file under the system temp
/// dir. Unique per call (pid + counter) so parallel tests never share.
pub fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("gc-{tag}-{}-{n}.wal", std::process::id()))
}

/// Removes a journal and its snapshot sibling, ignoring absence.
pub fn remove_journal(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut snap = path.as_os_str().to_os_string();
    snap.push(".snap");
    let _ = std::fs::remove_file(std::path::PathBuf::from(snap));
}

/// Starts a server on a fresh port over the anchors world.
pub fn start(tweak: impl FnOnce(&mut ServeConfig)) -> (Server, SocketAddr) {
    let engine = Engine::new(WorldCatalog::anchors_only(SEED));
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    let server = Server::bind(engine, cfg).expect("bind");
    let addr = server.local_addr();
    (server, addr)
}

/// Starts a router on a fresh port over already-running backends. A fast
/// probe interval keeps failure-detection latency low in tests.
pub fn start_router(
    backends: &[SocketAddr],
    tweak: impl FnOnce(&mut RouterConfig),
) -> (Router, SocketAddr) {
    let mut cfg = RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: backends.iter().map(|a| a.to_string()).collect(),
        probe_interval_ms: 100,
        ..RouterConfig::default()
    };
    tweak(&mut cfg);
    let router = Router::bind(cfg).expect("router bind");
    let addr = router.local_addr();
    (router, addr)
}

/// A response read by the shared client ([`greencloud_api::http::Reader`]),
/// with the JSON helpers the tests use.
pub struct Resp {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    /// Decoded body: for chunked responses, the concatenated payloads.
    pub body: String,
    /// Per-chunk payloads. The streaming protocol writes one JSON document
    /// per chunk (progress frames, then the final report or error).
    pub chunks: Vec<String>,
    pub chunked: bool,
}

impl From<Response> for Resp {
    fn from(r: Response) -> Resp {
        Resp {
            status: r.status,
            headers: r.headers,
            body: r.body,
            chunks: r.chunks,
            chunked: r.chunked,
        }
    }
}

impl Resp {
    pub fn header(&self, name: &str) -> Option<&str> {
        greencloud_api::http::header(&self.headers, name)
    }

    pub fn json(&self) -> Json {
        Json::parse(&self.body).expect("response body parses as JSON")
    }

    pub fn code(&self) -> Option<String> {
        self.json()
            .get("code")
            .and_then(Json::as_str)
            .map(str::to_string)
    }

    /// The `greencloud-progress/1` frames, parsed — one per chunk.
    pub fn progress_frames(&self) -> Vec<Json> {
        self.chunks
            .iter()
            .filter_map(|c| Json::parse(c).ok())
            .filter(|d| {
                d.get("schema").and_then(Json::as_str) == Some(greencloud_api::PROGRESS_SCHEMA)
            })
            .collect()
    }

    /// The final streamed document (the report or error body), trailing
    /// whitespace trimmed.
    pub fn final_document(&self) -> String {
        self.chunks
            .last()
            .map(|c| c.trim_end().to_string())
            .unwrap_or_default()
    }
}

/// A persistent keep-alive HTTP/1.1 client: many requests over one
/// `TcpStream`, each response read by its declared framing.
pub struct Session {
    conn: Reader<TcpStream>,
}

impl Session {
    pub fn connect(addr: SocketAddr) -> Session {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(150)))
            .expect("read timeout");
        let _ = stream.set_nodelay(true);
        Session {
            conn: Reader::new(stream),
        }
    }

    /// Sends one request (keep-alive) and reads exactly one response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> Resp {
        self.write(method, path, headers, body);
        self.read()
    }

    fn write(&mut self, method: &str, path: &str, headers: &[(&str, &str)], body: Option<&[u8]>) {
        let len = body.map(|b| b.len().to_string());
        let all = std::iter::once(("Host", "test"))
            .chain(len.as_deref().map(|l| ("Content-Length", l)))
            .chain(headers.iter().copied());
        let stream = self.conn.get_mut();
        write_request_head(stream, method, path, all).expect("write head");
        stream
            .write_all(body.unwrap_or_default())
            .expect("write body");
        stream.flush().expect("flush");
    }

    fn read(&mut self) -> Resp {
        Resp::from(self.conn.read_response(150_000).expect("read response"))
    }
}

/// Sends one request on a fresh connection and reads the response.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&[u8]>,
) -> Resp {
    let close = [("Connection", "close")];
    let headers: Vec<_> = close.iter().chain(headers).copied().collect();
    Session::connect(addr).send(method, path, &headers, body)
}

/// Sends raw bytes and reads the response (for malformed HTTP).
pub fn http_raw(addr: SocketAddr, raw: &[u8]) -> Resp {
    let mut session = Session::connect(addr);
    session.conn.get_mut().write_all(raw).expect("write raw");
    session.read()
}

/// Connects, sends the full request, then hangs up without reading — the
/// server should detect the vanished client and cancel the solve.
pub fn post_and_vanish(addr: SocketAddr, body: &[u8]) {
    let headers = [("Cache-Control", "no-cache")];
    Session::connect(addr).write("POST", "/v1/experiments", &headers, Some(body));
}

/// A small, fast annual spec; `start_hour` makes specs distinct.
pub fn annual_spec(hours: usize, vm_count: u32, start_hour: usize) -> ExperimentSpec {
    ExperimentSpec::Annual(AnnualSpec {
        config: EmulationConfig {
            vm_count,
            hours,
            start_hour,
            scheduler: SchedulerConfig {
                window_hours: 6,
                ..SchedulerConfig::default()
            },
            ..EmulationConfig::default()
        },
        include_trace: false,
    })
}

/// A small deterministic siting spec (exercises the candidate cache).
pub fn siting_spec() -> ExperimentSpec {
    ExperimentSpec::Siting(SitingSpec {
        input: PlacementInput {
            total_capacity_mw: 20.0,
            ..PlacementInput::default()
        },
        search: SearchSpec {
            profile: ProfileConfig::coarse(),
            filter_keep: 4,
            iterations: 8,
            chains: 1,
            patience: 6,
            seed: SEED,
            ..SearchSpec::default()
        },
    })
}

/// The report with its clock fields zeroed (see
/// [`greencloud_api::normalize_report_json`]).
pub fn normalize_report_json(body: &str) -> String {
    greencloud_api::normalize_report_json(body).expect("report parses")
}
