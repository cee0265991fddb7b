//! `repro router` — a sharding, streaming front-end over N `repro serve`
//! backends.
//!
//! A reverse proxy on the workspace's one HTTP layer ([`crate::http`],
//! shared with [`crate::serve`]): a blocking acceptor, a thread per client
//! connection, and zero buffering of response bodies. One `repro serve`
//! process already degrades instead of dying; the router scales that
//! envelope past one process:
//!
//! * **Consistent-hash sharding.** Requests are placed on a ring of
//!   virtual nodes keyed by [`crate::store::ring_key`] — the first 64 bits
//!   of the SHA-256 over *normalized* spec bytes, exactly the prefix of
//!   the content-derived job ids from [`crate::store::job_id`]. Identical
//!   specs (however formatted) land on the same backend, so its report
//!   LRU stays hot, and `GET /v1/jobs/:id` recovers the same ring point
//!   from the id's hex prefix without reparsing anything. Adding a
//!   backend moves only ~1/N of the key space (see the ring tests).
//! * **Health and failover.** A prober hits every backend's `/v1/readyz`
//!   on an interval; relay failures mark a backend down passively. A
//!   request whose backend refuses connections or answers 5xx fails over
//!   to the next distinct ring node — safe because job submission is
//!   idempotent (content-derived ids) and experiment POSTs are pure
//!   computations. `429`/`Retry-After` pass through untouched: shedding
//!   is the *backend's* verdict and retrying elsewhere would defeat
//!   admission control. Only when every backend has failed does the
//!   router answer `503` itself.
//! * **Streaming relay.** Chunked responses (the `X-Progress: stream`
//!   progress frames of [`crate::serve`]) are relayed verbatim as they
//!   arrive, flushed after every chunk, with the framing parsed (through
//!   the checked [`crate::http::parse_chunk_size`]) only far enough to know
//!   where the response ends — the router never holds a full body in
//!   memory, and a hostile chunk size aborts the relay.
//! * **Fleet stats and drain.** `GET /v1/stats` fans out to every backend
//!   and returns a `greencloud-router-stats/1` document with per-backend
//!   snapshots plus a summed fleet view. SIGTERM (via
//!   [`RouterHandle::trigger_shutdown`]) stops the acceptor, lets
//!   in-flight relays flush within `drain_ms`, and [`Router::join`]
//!   returns the run's counters for a clean exit 0.

use crate::error::ApiError;
use crate::http::{
    error_body, spawn_acceptor, unrouted, write_request_head, write_response, write_response_head,
    Body, Framing, HttpError, Limits, Reader, Request, Response, ServerCore, Service,
    ShutdownHandle,
};
use crate::json::Json;
use crate::serve::lock_ok;
use crate::spec::ExperimentSpec;
use crate::store;
use crate::wallclock::Stopwatch;

use std::io::{BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Schema identifier of the `GET /v1/stats` aggregation document.
pub const ROUTER_STATS_SCHEMA: &str = "greencloud-router-stats/1";

/// Tuning knobs for [`Router::bind`]. `Default` fronts an empty backend
/// list (rejected by `bind`) — callers always set `backends`.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address, e.g. `127.0.0.1:7410` (`:0` picks a free port).
    pub addr: String,
    /// Backend `host:port` addresses of the `repro serve` fleet.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring. More nodes smooth the
    /// key distribution at the cost of a longer sorted-point array.
    pub virtual_nodes: usize,
    /// How often the health prober hits each backend's `/v1/readyz`.
    pub probe_interval_ms: u64,
    /// Budget for establishing one backend TCP connection.
    pub connect_timeout_ms: u64,
    /// Budget for reading a client request head or body (slow-loris
    /// guard, mirrors [`crate::serve::ServeConfig::read_timeout_ms`]).
    pub read_timeout_ms: u64,
    /// Budget for one backend read while relaying. Covers a full
    /// non-streamed solve, so it must exceed the fleet's deadline cap.
    pub relay_timeout_ms: u64,
    /// Socket write timeout toward clients and backends.
    pub write_timeout_ms: u64,
    /// Largest accepted client request body (413 beyond).
    pub max_body_bytes: usize,
    /// Simultaneous client connections; beyond this, refused with 503.
    pub max_connections: usize,
    /// How long [`Router::join`] lets in-flight relays flush.
    pub drain_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7410".to_string(),
            backends: Vec::new(),
            virtual_nodes: 64,
            probe_interval_ms: 500,
            connect_timeout_ms: 1_000,
            read_timeout_ms: 5_000,
            relay_timeout_ms: 150_000,
            write_timeout_ms: 5_000,
            max_body_bytes: 1024 * 1024,
            max_connections: 256,
            drain_ms: 10_000,
        }
    }
}

/// The consistent-hash ring: virtual-node points sorted by hash. A key
/// routes to the first point at or clockwise-after it; failover walks on
/// to the next *distinct* backend.
struct Ring {
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// `virtual_nodes` points per backend, hashed from `"{addr}#{v}"`
    /// with the same SHA-256 prefix the job ids use — deterministic
    /// across processes, so every router instance agrees on placement.
    fn build(backends: &[String], virtual_nodes: usize) -> Ring {
        let vnodes = virtual_nodes.max(1);
        let mut points = Vec::with_capacity(backends.len() * vnodes);
        for (i, name) in backends.iter().enumerate() {
            for v in 0..vnodes {
                points.push((store::ring_key(format!("{name}#{v}").as_bytes()), i));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// Every backend index in clockwise preference order for `key`: the
    /// owner first, then each failover target as the walk meets it.
    fn order(&self, key: u64, n_backends: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n_backends);
        if self.points.is_empty() {
            return out;
        }
        let mut seen = vec![false; n_backends];
        let start = self.points.partition_point(|&(h, _)| h < key);
        for k in 0..self.points.len() {
            let at = (start + k) % self.points.len();
            let Some(&(_, b)) = self.points.get(at) else {
                break;
            };
            if let Some(flag) = seen.get_mut(b) {
                if !*flag {
                    *flag = true;
                    out.push(b);
                }
            }
            if out.len() == n_backends {
                break;
            }
        }
        out
    }
}

/// One backend of the fleet: its address, health bit, a pool of idle
/// keep-alive connections, and a relay counter.
struct Backend {
    addr: String,
    /// Set by the prober and by relay successes; cleared by probe or
    /// relay failures. A down backend is deprioritized, not excluded —
    /// a stale mark must never make a reachable fleet look dark.
    up: AtomicBool,
    /// Idle keep-alive connections, reused LIFO so the warmest socket
    /// goes first.
    pool: Mutex<Vec<TcpStream>>,
    relayed: AtomicU64,
}

/// Monotonic router counters, snapshotted into [`RouterSummary`].
#[derive(Default)]
struct RouterStats {
    received: AtomicU64,
    relayed: AtomicU64,
    failovers: AtomicU64,
    streamed: AtomicU64,
    all_dark: AtomicU64,
    client_errors: AtomicU64,
    aborted_relays: AtomicU64,
}

/// What one router run did, returned by [`Router::join`] and rendered by
/// `repro router` on exit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterSummary {
    /// Requests that reached routing (including locally answered ones).
    pub received: u64,
    /// Responses relayed from a backend, whatever their status.
    pub relayed: u64,
    /// Backend attempts that failed (connect error, unreadable head,
    /// 5xx), marked the backend down, and moved on along the ring.
    pub failovers: u64,
    /// Relayed responses that used chunked (streamed) framing.
    pub streamed: u64,
    /// Requests answered 503 because every backend attempt failed.
    pub all_dark: u64,
    /// Locally answered 4xx responses (bad specs, bad HTTP).
    pub client_errors: u64,
    /// Relays abandoned mid-body (client or backend vanished after the
    /// head was already on the wire — too late to fail over).
    pub aborted_relays: u64,
}

impl RouterSummary {
    /// Multi-line human-readable rendering, one counter per line.
    pub fn render_text(&self) -> String {
        format!(
            "received        {}\nrelayed         {}\nfailovers       {}\nstreamed        {}\n\
             all-dark (503)  {}\nclient errors   {}\naborted relays  {}\n",
            self.received,
            self.relayed,
            self.failovers,
            self.streamed,
            self.all_dark,
            self.client_errors,
            self.aborted_relays,
        )
    }
}

impl RouterStats {
    fn snapshot(&self) -> RouterSummary {
        RouterSummary {
            received: self.received.load(Ordering::SeqCst),
            relayed: self.relayed.load(Ordering::SeqCst),
            failovers: self.failovers.load(Ordering::SeqCst),
            streamed: self.streamed.load(Ordering::SeqCst),
            all_dark: self.all_dark.load(Ordering::SeqCst),
            client_errors: self.client_errors.load(Ordering::SeqCst),
            aborted_relays: self.aborted_relays.load(Ordering::SeqCst),
        }
    }
}

/// State shared by the acceptor, connection threads, and prober.
struct RouterInner {
    cfg: RouterConfig,
    ring: Ring,
    backends: Vec<Backend>,
    /// The HTTP skeleton's state: drain flag and live connections.
    core: Arc<ServerCore>,
    /// Stops the prober at the end of the drain.
    stop: AtomicBool,
    stats: RouterStats,
}

/// A cloneable remote control for a running [`Router`].
pub type RouterHandle = ShutdownHandle;

/// A running router. Construct with [`Router::bind`], stop with
/// [`ShutdownHandle::trigger_shutdown`] + [`Router::join`].
pub struct Router {
    inner: Arc<RouterInner>,
    acceptor: Option<thread::JoinHandle<()>>,
    prober: Option<thread::JoinHandle<()>>,
}

impl Router {
    /// Binds `cfg.addr`, builds the ring, and spawns the acceptor and
    /// health prober. Fails on an empty backend list — a router with
    /// nothing behind it can only answer 503.
    pub fn bind(mut cfg: RouterConfig) -> Result<Router, ApiError> {
        if cfg.backends.is_empty() {
            return Err(ApiError::Engine("router needs at least one backend".into()));
        }
        cfg.virtual_nodes = cfg.virtual_nodes.max(1);
        cfg.max_connections = cfg.max_connections.max(1);
        cfg.probe_interval_ms = cfg.probe_interval_ms.max(50);
        let ring = Ring::build(&cfg.backends, cfg.virtual_nodes);
        let backends = cfg
            .backends
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                // Optimistic until the first probe: a cold fleet must not
                // shed its first requests.
                up: AtomicBool::new(true),
                pool: Mutex::new(Vec::new()),
                relayed: AtomicU64::new(0),
            })
            .collect();
        let limits = Limits {
            max_connections: cfg.max_connections,
            max_body_bytes: cfg.max_body_bytes,
            read_timeout_ms: cfg.read_timeout_ms,
            write_timeout_ms: cfg.write_timeout_ms,
        };
        let (core, listener) = ServerCore::bind(
            &cfg.addr,
            "router",
            "router connection limit reached",
            limits,
        )?;
        let inner = Arc::new(RouterInner {
            cfg,
            ring,
            backends,
            core,
            stop: AtomicBool::new(false),
            stats: RouterStats::default(),
        });
        let p = Arc::clone(&inner);
        let prober = thread::Builder::new()
            .name("gc-router-probe".to_string())
            .spawn(move || probe_loop(&p))?;
        let acceptor = spawn_acceptor(listener, Arc::clone(&inner))?;
        Ok(Router {
            inner,
            acceptor: Some(acceptor),
            prober: Some(prober),
        })
    }

    /// The bound address (useful with `:0` — the OS-picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.core.local_addr()
    }

    /// A cloneable shutdown control for this router.
    pub fn handle(&self) -> RouterHandle {
        self.inner.core.handle()
    }

    /// Convenience for [`ShutdownHandle::trigger_shutdown`].
    pub fn trigger_shutdown(&self) {
        self.inner.core.trigger_shutdown();
    }

    /// Blocks until shutdown is triggered, then drains: live client
    /// connections get `drain_ms` to flush their in-flight relays, the
    /// prober is stopped, and the run's counters come back.
    pub fn join(mut self) -> RouterSummary {
        if let Some(a) = self.acceptor.take() {
            self.inner.core.join_acceptor(a);
        }
        self.inner.core.wait_idle(self.inner.cfg.drain_ms, || true);
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
        self.inner.stats.snapshot()
    }
}

/// Resolves `addr` to its first socket address.
fn resolve(addr: &str) -> Option<SocketAddr> {
    addr.to_socket_addrs().ok()?.next()
}

/// Health prober: hits every backend's `/v1/readyz` each interval with
/// short budgets and flips the `up` bit on the verdict. A draining
/// backend answers 503, so it goes dark here and stops receiving new
/// work ahead of its exit.
fn probe_loop(inner: &RouterInner) {
    while !inner.stop.load(Ordering::SeqCst) {
        for b in &inner.backends {
            let budget = inner.cfg.connect_timeout_ms.max(250);
            let ok =
                get(&b.addr, "/v1/readyz", &inner.cfg, budget).is_some_and(|r| r.status == 200);
            b.up.store(ok, Ordering::SeqCst);
            if !ok {
                // Idle pooled connections to a dark backend are stale.
                lock_ok(&b.pool).clear();
            }
        }
        let nap = Stopwatch::start();
        while (nap.elapsed_ms() as u64) < inner.cfg.probe_interval_ms {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(Duration::from_millis(25));
        }
    }
}

/// One `GET path` on a fresh connection to `addr`, every read and write
/// bounded by `budget_ms`.
fn get(addr: &str, path: &str, cfg: &RouterConfig, budget_ms: u64) -> Option<Response> {
    let sa = resolve(addr)?;
    let mut conn =
        TcpStream::connect_timeout(&sa, Duration::from_millis(cfg.connect_timeout_ms)).ok()?;
    let _ = conn.set_read_timeout(Some(Duration::from_millis(budget_ms)));
    let _ = conn.set_write_timeout(Some(Duration::from_millis(budget_ms)));
    write_request_head(
        &mut conn,
        "GET",
        path,
        [("Host", addr), ("Connection", "close")],
    )
    .ok()?;
    Reader::new(conn).read_response(budget_ms).ok()
}

impl Service for RouterInner {
    fn core(&self) -> &ServerCore {
        &self.core
    }

    fn route(&self, stream: &mut TcpStream, req: &Request, close: bool) -> bool {
        route_request(stream, self, req, close)
    }

    fn count_rejected(&self) {
        self.stats.client_errors.fetch_add(1, Ordering::SeqCst);
    }
}

/// Dispatch: local endpoints (healthz/readyz/stats) are answered here;
/// everything keyed by a spec or job id is relayed along the ring.
fn route_request(stream: &mut TcpStream, inner: &RouterInner, req: &Request, close: bool) -> bool {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => {
            let body =
                Json::obj([("status", Json::from("ok")), ("role", Json::from("router"))]).render();
            write_response(stream, 200, &[], &body, close).is_ok()
        }
        ("GET", "/v1/readyz") => {
            let up = backends_up(inner);
            if inner.core.is_draining() {
                let body = error_body("draining", "router is draining", Vec::new());
                let _ = write_response(
                    stream,
                    503,
                    &[("Retry-After", "1".to_string())],
                    &body,
                    true,
                );
                false
            } else if up == 0 {
                let body = error_body("no_backends", "every backend is dark", Vec::new());
                let _ = write_response(
                    stream,
                    503,
                    &[("Retry-After", "1".to_string())],
                    &body,
                    true,
                );
                false
            } else {
                let body = Json::obj([
                    ("status", Json::from("ready")),
                    ("backends_up", Json::from(up as u64)),
                ])
                .render();
                write_response(stream, 200, &[], &body, close).is_ok()
            }
        }
        ("GET", "/v1/stats") => {
            let body = aggregate_stats(inner);
            write_response(stream, 200, &[], &body, close).is_ok()
        }
        ("POST", "/v1/experiments" | "/v1/jobs") => {
            inner.stats.received.fetch_add(1, Ordering::SeqCst);
            if inner.core.is_draining() {
                let body = error_body(
                    "draining",
                    "router is draining; not accepting work",
                    Vec::new(),
                );
                let _ = write_response(
                    stream,
                    503,
                    &[("Retry-After", "1".to_string())],
                    &body,
                    true,
                );
                return false;
            }
            let key = match spec_ring_key(&req.body) {
                Ok(k) => k,
                Err((status, body)) => {
                    // The router parses with the same crate the backends
                    // use, so a spec it rejects would be rejected there
                    // too — answer at the edge without burning a relay.
                    inner.stats.client_errors.fetch_add(1, Ordering::SeqCst);
                    return write_response(stream, status, &[], &body, close).is_ok();
                }
            };
            relay_keyed(stream, inner, req, close, key)
        }
        (_, p) if p.starts_with("/v1/jobs/") => {
            inner.stats.received.fetch_add(1, Ordering::SeqCst);
            let id = p.trim_start_matches("/v1/jobs/");
            // A content-derived id carries its ring key in its hex
            // prefix; anything else hashes as raw bytes so the (future)
            // 404 at least always comes from the same backend.
            let key =
                store::ring_key_of_job_id(id).unwrap_or_else(|| store::ring_key(id.as_bytes()));
            relay_keyed(stream, inner, req, close, key)
        }
        _ => {
            inner.stats.client_errors.fetch_add(1, Ordering::SeqCst);
            unrouted(stream, req, close)
        }
    }
}

fn backends_up(inner: &RouterInner) -> usize {
    inner
        .backends
        .iter()
        .filter(|b| b.up.load(Ordering::SeqCst))
        .count()
}

/// The ring key for a `POST` body: parse, normalize, hash — the same
/// normalization the backend's cache and job ids use, so formatting
/// differences cannot split a spec across backends.
fn spec_ring_key(body: &[u8]) -> Result<u64, (u16, String)> {
    let text = std::str::from_utf8(body).map_err(|_| {
        (
            400,
            error_body("bad_request", "body is not valid UTF-8", Vec::new()),
        )
    })?;
    let spec = ExperimentSpec::from_json_str(text).map_err(|e| {
        let err = ApiError::from(e);
        (err.http_status(), err.to_error_json())
    })?;
    Ok(store::ring_key(spec.to_json_string().as_bytes()))
}

/// How one relay attempt ended.
enum RelayErr {
    /// The backend never produced a usable response head (connect/write
    /// failure, unreadable head, or 5xx) — safe to try the next backend.
    Backend,
    /// The response head was already on the wire toward the client when
    /// the relay died — the connection is poisoned, hang up.
    Abort,
    /// A job lookup answered 404 (only raised under `retry_not_found`):
    /// a job accepted during a failover window lives on a non-owner
    /// backend, so the next ring node may hold it. The backend is
    /// healthy — nothing is marked down.
    NotFound,
}

/// Relays `req` to the backends in ring-preference order for `key`,
/// failing over on backend errors until one answers or all have failed.
/// Up backends are tried before down ones (a stale down-mark must not
/// black-hole a key), and every failure re-marks the backend down.
fn relay_keyed(
    stream: &mut TcpStream,
    inner: &RouterInner,
    req: &Request,
    close: bool,
    key: u64,
) -> bool {
    let order = inner.ring.order(key, inner.backends.len());
    let mut plan: Vec<usize> = Vec::with_capacity(order.len());
    for &b in &order {
        if inner
            .backends
            .get(b)
            .is_some_and(|be| be.up.load(Ordering::SeqCst))
        {
            plan.push(b);
        }
    }
    for &b in &order {
        if !plan.contains(&b) {
            plan.push(b);
        }
    }
    // Job lookups retry 404s across the ring: a job accepted while its
    // owner was dark lives on the failover target instead.
    let retry_not_found = req.path.starts_with("/v1/jobs/");
    let mut not_found = 0usize;
    let mut backend_failures = 0usize;
    for &b in &plan {
        let Some(backend) = inner.backends.get(b) else {
            continue;
        };
        match relay_once(stream, inner, req, close, backend, retry_not_found) {
            Ok(keep) => {
                backend.up.store(true, Ordering::SeqCst);
                backend.relayed.fetch_add(1, Ordering::SeqCst);
                inner.stats.relayed.fetch_add(1, Ordering::SeqCst);
                return keep;
            }
            Err(RelayErr::NotFound) => not_found += 1,
            Err(RelayErr::Backend) => {
                backend_failures += 1;
                inner.stats.failovers.fetch_add(1, Ordering::SeqCst);
                backend.up.store(false, Ordering::SeqCst);
                lock_ok(&backend.pool).clear();
            }
            Err(RelayErr::Abort) => {
                inner.stats.aborted_relays.fetch_add(1, Ordering::SeqCst);
                return false;
            }
        }
    }
    if not_found > 0 && backend_failures == 0 {
        // Every live backend answered definitively: the job truly does
        // not exist anywhere in the fleet.
        inner.stats.client_errors.fetch_add(1, Ordering::SeqCst);
        let body = error_body("job_not_found", "no backend holds this job", Vec::new());
        return write_response(stream, 404, &[], &body, close).is_ok() && !close;
    }
    inner.stats.all_dark.fetch_add(1, Ordering::SeqCst);
    let body = error_body(
        "no_backends",
        &format!("all {} backends failed for this request", plan.len()),
        Vec::new(),
    );
    let _ = write_response(
        stream,
        503,
        &[("Retry-After", "1".to_string())],
        &body,
        true,
    );
    false
}

/// One relay attempt against one backend: send the request (reusing a
/// pooled keep-alive connection when one exists, with a single fresh
/// retry if the pooled socket turns out stale), read the response head,
/// then stream the body through without buffering it.
fn relay_once(
    stream: &mut TcpStream,
    inner: &RouterInner,
    req: &Request,
    close: bool,
    backend: &Backend,
    retry_not_found: bool,
) -> Result<bool, RelayErr> {
    let pooled = lock_ok(&backend.pool).pop();
    let had_pooled = pooled.is_some();
    let conn = match pooled {
        Some(c) => c,
        None => fresh_conn(backend, &inner.cfg).ok_or(RelayErr::Backend)?,
    };
    match relay_on_conn(stream, inner, req, close, backend, conn, retry_not_found) {
        Ok(keep) => Ok(keep),
        // A stale pooled socket fails before any response bytes exist;
        // one fresh connection gets the verdict instead.
        Err(RelayErr::Backend) if had_pooled => {
            let conn = fresh_conn(backend, &inner.cfg).ok_or(RelayErr::Backend)?;
            relay_on_conn(stream, inner, req, close, backend, conn, retry_not_found)
        }
        Err(e) => Err(e),
    }
}

/// Connects to `backend` within the configured budgets.
fn fresh_conn(backend: &Backend, cfg: &RouterConfig) -> Option<TcpStream> {
    let sa = resolve(&backend.addr)?;
    let conn =
        TcpStream::connect_timeout(&sa, Duration::from_millis(cfg.connect_timeout_ms)).ok()?;
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(Duration::from_millis(cfg.relay_timeout_ms)));
    let _ = conn.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms)));
    Some(conn)
}

/// The relay proper, on an established backend connection.
fn relay_on_conn(
    stream: &mut TcpStream,
    inner: &RouterInner,
    req: &Request,
    close: bool,
    backend: &Backend,
    mut conn: TcpStream,
    retry_not_found: bool,
) -> Result<bool, RelayErr> {
    // Rebuild the request head: hop-by-hop headers are the router's
    // business (`connection`), `expect` must not trigger an interim 100
    // (the body is already fully read), and length framing is restated
    // from the bytes actually held.
    let len = (req.method == "POST" || req.method == "PUT" || !req.body.is_empty())
        .then(|| req.body.len().to_string());
    let headers = req
        .headers
        .iter()
        .filter(|(k, _)| {
            !matches!(
                k.as_str(),
                "connection" | "content-length" | "host" | "expect"
            )
        })
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain([("Host", backend.addr.as_str())])
        .chain(len.as_deref().map(|l| ("Content-Length", l)))
        .chain([("Connection", "keep-alive")]);
    let sent = write_request_head(&mut conn, &req.method, &req.path, headers)
        .and_then(|()| conn.write_all(&req.body))
        .and_then(|()| conn.flush());
    if sent.is_err() {
        return Err(RelayErr::Backend);
    }

    let mut backend_conn = Reader::new(conn);
    let head = backend_conn
        .read_head(inner.cfg.relay_timeout_ms)
        .map_err(|_| RelayErr::Backend)?;
    let framing = head.framing().map_err(|_| RelayErr::Backend)?;
    if head.status >= 500 {
        // The backend is misbehaving: drop the connection (no draining of
        // the body — it may be arbitrarily large) and let the next ring
        // node serve the request. 4xx including 429 passes through: that
        // verdict is about the *request*, not the backend.
        return Err(RelayErr::Backend);
    }
    if retry_not_found && head.status == 404 {
        // The job may live on the next ring node; consume the small error
        // body so the connection stays reusable, then move on.
        if matches!(framing, Framing::Length(n) if n <= 64 * 1024)
            && backend_conn.read_body(framing, |_| Ok(())).is_ok()
            && backend_conn.reusable(&head)
        {
            lock_ok(&backend.pool).push(backend_conn.into_inner());
        }
        return Err(RelayErr::NotFound);
    }

    // Forward the head, then the body verbatim — chunk framing included —
    // flushing after every chunk so progress frames reach the client as
    // they are produced. The write buffer joins a chunk's size line,
    // payload and CRLF into one send; it never holds more than 8 KiB. A
    // hostile chunk size or a vanished peer aborts.
    let forwarded = head
        .headers
        .iter()
        .filter(|(k, _)| k != "connection")
        .map(|(k, v)| (k.as_str(), v.as_str()));
    write_response_head(stream, head.status, forwarded, close).map_err(|_| RelayErr::Abort)?;
    if framing == Framing::Chunked {
        inner.stats.streamed.fetch_add(1, Ordering::SeqCst);
    }
    let mut client = BufWriter::new(stream);
    backend_conn
        .read_body(framing, |piece| match piece {
            Body::Framing(b) | Body::Data(b) => client.write_all(b).map_err(HttpError::from),
            Body::End => client.flush().map_err(HttpError::from),
        })
        .map_err(|_| RelayErr::Abort)?;
    if backend_conn.reusable(&head) {
        lock_ok(&backend.pool).push(backend_conn.into_inner());
    }
    Ok(!close)
}

/// `GET /v1/stats`: fetches every backend's stats document, sums the
/// numeric top-level fields into a fleet view, and wraps it all in a
/// `greencloud-router-stats/1` document with the router's own counters.
fn aggregate_stats(inner: &RouterInner) -> String {
    let mut fleet: Vec<(String, u64)> = Vec::new();
    let mut backend_docs = Vec::new();
    for b in &inner.backends {
        let budget = inner.cfg.connect_timeout_ms.max(1_000);
        let doc = get(&b.addr, "/v1/stats", &inner.cfg, budget)
            .filter(|r| r.status == 200)
            .and_then(|r| Json::parse(&r.body).ok());
        let mut fields = vec![
            ("addr".to_string(), Json::from(b.addr.as_str())),
            ("up".to_string(), Json::from(doc.is_some())),
            (
                "relayed".to_string(),
                Json::from(b.relayed.load(Ordering::SeqCst)),
            ),
        ];
        if let Some(doc) = doc {
            if let Json::Object(stat_fields) = &doc {
                for (k, v) in stat_fields {
                    if let Some(n) = v.as_u64() {
                        match fleet.iter_mut().find(|(fk, _)| fk == k) {
                            Some((_, sum)) => *sum = sum.saturating_add(n),
                            None => fleet.push((k.clone(), n)),
                        }
                    }
                }
            }
            fields.push(("stats".to_string(), doc));
        }
        backend_docs.push(Json::Object(fields));
    }
    let s = inner.stats.snapshot();
    Json::obj([
        ("schema", Json::from(ROUTER_STATS_SCHEMA)),
        ("received", Json::from(s.received)),
        ("relayed", Json::from(s.relayed)),
        ("failovers", Json::from(s.failovers)),
        ("streamed", Json::from(s.streamed)),
        ("all_dark", Json::from(s.all_dark)),
        ("client_errors", Json::from(s.client_errors)),
        ("aborted_relays", Json::from(s.aborted_relays)),
        ("backends_up", Json::from(backends_up(inner) as u64)),
        ("draining", Json::from(inner.core.is_draining())),
        ("backends", Json::Array(backend_docs)),
        (
            "fleet",
            Json::Object(fleet.into_iter().map(|(k, v)| (k, Json::from(v))).collect()),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn ring_key_matches_job_id_prefix() {
        for spec in [&b"{\"a\":1}"[..], b"hello", b"", b"another spec body"] {
            let id = store::job_id(spec);
            assert_eq!(
                store::ring_key_of_job_id(&id),
                Some(store::ring_key(spec)),
                "POSTs and GET /v1/jobs/:id must agree on the ring point"
            );
        }
        assert_eq!(store::ring_key_of_job_id("short"), None);
        assert_eq!(store::ring_key_of_job_id("zzzzzzzzzzzzzzzz"), None);
    }

    #[test]
    fn ring_order_starts_with_owner_and_covers_all_distinct_backends() {
        let backends = addrs(4);
        let ring = Ring::build(&backends, 64);
        for k in [0u64, 1, u64::MAX / 2, u64::MAX] {
            let order = ring.order(k, backends.len());
            assert_eq!(order.len(), 4, "every backend appears once");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "no duplicates in {order:?}");
        }
    }

    #[test]
    fn ring_routing_is_deterministic_across_builds() {
        let backends = addrs(5);
        let a = Ring::build(&backends, 32);
        let b = Ring::build(&backends, 32);
        for i in 0..512u64 {
            let key = store::ring_key(format!("spec-{i}").as_bytes());
            assert_eq!(a.order(key, 5), b.order(key, 5));
        }
    }

    #[test]
    fn adding_a_backend_moves_about_one_in_n_keys() {
        let old = addrs(4);
        let mut grown = old.clone();
        grown.push("127.0.0.1:9100".to_string());
        let before = Ring::build(&old, 64);
        let after = Ring::build(&grown, 64);
        let total = 4_000usize;
        let mut moved = 0usize;
        for i in 0..total {
            let key = store::ring_key(format!("spec-{i}").as_bytes());
            let was = before.order(key, old.len()).first().copied();
            let now = after.order(key, grown.len()).first().copied();
            // Keys that now land on the new backend moved by design;
            // anything else must stay put.
            if now == Some(4) {
                moved += 1;
            } else {
                assert_eq!(was, now, "key {i} moved between surviving backends");
            }
        }
        let frac = moved as f64 / total as f64;
        assert!(
            frac > 0.08 && frac < 0.40,
            "expected ~1/5 of keys to move, got {frac:.3}"
        );
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let backends = addrs(3);
        let ring = Ring::build(&backends, 64);
        let mut counts = [0usize; 3];
        let total = 3_000usize;
        for i in 0..total {
            let key = store::ring_key(format!("spec-{i}").as_bytes());
            if let Some(&owner) = ring.order(key, 3).first() {
                if let Some(c) = counts.get_mut(owner) {
                    *c += 1;
                }
            }
        }
        for (b, &c) in counts.iter().enumerate() {
            let share = c as f64 / total as f64;
            assert!(
                share > 0.15 && share < 0.55,
                "backend {b} owns {share:.3} of the key space"
            );
        }
    }

    #[test]
    fn bind_rejects_empty_backend_list() {
        let cfg = RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            ..RouterConfig::default()
        };
        assert!(Router::bind(cfg).is_err());
    }

    #[test]
    fn summary_renders_every_counter() {
        let text = RouterSummary {
            received: 1,
            relayed: 2,
            failovers: 3,
            streamed: 4,
            all_dark: 5,
            client_errors: 6,
            aborted_relays: 7,
        }
        .render_text();
        for label in [
            "received",
            "relayed",
            "failovers",
            "streamed",
            "all-dark",
            "client errors",
            "aborted relays",
        ] {
            assert!(text.contains(label), "missing {label} in {text}");
        }
    }
}
