//! # msc-serve — the compile-and-run service daemon
//!
//! Turns the [`msc_engine`] pipeline into a long-lived network service:
//! a dependency-free HTTP/1.1 daemon (std `TcpListener`, hand-rolled
//! parser with hard limits) exposing
//!
//! | endpoint         | semantics                                          |
//! |------------------|----------------------------------------------------|
//! | `POST /compile`  | compile one MIMDC source through the engine cache  |
//! | `POST /run`      | compile + execute on the SIMD simulator            |
//! | `POST /batch`    | compile a set of jobs as one engine batch          |
//! | `POST /match`    | regex over sharded input via the meta-automaton    |
//! | `GET /metrics`   | the aggregated [`msc_obs::Registry`] as JSON       |
//! | `GET /healthz`   | liveness + queue depth                             |
//!
//! The daemon is shaped for sustained load rather than peak benchmarks:
//!
//! - **Event-loop core.** On Linux the daemon runs an epoll readiness
//!   reactor: one thread multiplexes every socket, each
//!   connection an explicit [`conn::State`] machine, so an idle
//!   keep-alive peer costs a table entry instead of a blocked thread.
//!   Compute stays on the worker pool; decoded requests and finished
//!   responses cross over a queue plus a wakeup socketpair. Elsewhere
//!   (or under `MSC_SERVE_BLOCKING=1` /
//!   [`ServeOptions::force_blocking`]) the original blocking
//!   thread-per-connection pool serves instead — same endpoints, same
//!   limits, same tests.
//! - **Bounded admission.** At most `workers + queue_depth` connections
//!   are admitted (the blocking pool's "serving + queued" bound);
//!   beyond that the daemon answers `503` + `Retry-After` immediately
//!   (load shedding) instead of letting latency grow without bound.
//! - **Request coalescing.** Identical concurrent compiles collapse onto
//!   one in-flight compilation via the engine's singleflight layer; the
//!   response reports `"provenance": "coalesced"` and the
//!   `serve.coalesced` / `engine.coalesced` counters record it.
//! - **Hard input limits.** Request-line/header/body bounds and read
//!   deadlines (reactor timers on the event loop, socket timeouts on
//!   the blocking pool) turn hostile or broken clients into clean
//!   4xx/408 responses ([`http::Limits`]); a worker never panics on
//!   input, and a slow-loris peer never pins a worker thread.
//! - **Graceful drain.** [`ServerHandle::shutdown`] stops admitting,
//!   lets in-flight requests finish, then joins every thread.
//!   [`run_until_signal`] wires that to SIGINT/SIGTERM for the CLI.

pub mod api;
pub mod client;
pub mod conn;
pub mod http;
pub mod queue;
#[cfg(target_os = "linux")]
mod reactor;

use http::{HttpError, Limits, Request};
use msc_engine::{Engine, EngineOptions};
use msc_obs::json::Json;
use msc_obs::Registry;
use queue::BoundedQueue;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7643` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads serving connections (0 = available parallelism).
    pub workers: usize,
    /// Admission queue depth; beyond it connections are shed with 503.
    pub queue_depth: usize,
    /// On-disk compile cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Per-request compile deadline (the engine's cooperative timeout).
    pub job_timeout: Option<Duration>,
    /// HTTP input bounds.
    pub limits: Limits,
    /// Socket read timeout — also the slow-loris bound and the upper
    /// bound on how long shutdown waits for an idle keep-alive peer.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// `Retry-After` seconds hinted on shed requests.
    pub retry_after: u64,
    /// Ceiling on the per-job meta-state explosion guard: every job is
    /// clamped to it, whether or not the request supplies
    /// `max_meta_states`. Also caps `/match` pattern complexity (there
    /// the effective cap is the smaller of this and
    /// [`msc_regex::MAX_META_STATES`]).
    pub max_meta_states: usize,
    /// Run the blocking thread-per-connection core even where the epoll
    /// reactor is available (`mscc serve --blocking`). The
    /// `MSC_SERVE_BLOCKING` environment variable forces the same.
    pub force_blocking: bool,
    /// Sibling daemons (`host:port`) consulted on local cache misses
    /// before compiling (`mscc serve --peers`). Empty = single node.
    pub peers: Vec<String>,
    /// Deadlines, retry policy and circuit-breaker tuning for the peer
    /// tier.
    pub peer: msc_engine::PeerConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7643".to_string(),
            workers: 0,
            queue_depth: 64,
            cache_dir: None,
            job_timeout: Some(Duration::from_secs(30)),
            limits: Limits::default(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry_after: 1,
            max_meta_states: 1 << 20,
            force_blocking: false,
            peers: Vec::new(),
            peer: msc_engine::PeerConfig::default(),
        }
    }
}

/// True when this build and environment will use the epoll reactor for
/// new servers (Linux, and `MSC_SERVE_BLOCKING` unset). Benches use
/// this to size worker pools appropriately per mode.
pub fn reactor_available() -> bool {
    cfg!(target_os = "linux") && std::env::var_os("MSC_SERVE_BLOCKING").is_none()
}

/// The daemon factory. [`Server::start`] binds, spawns the acceptor and
/// worker pool, and returns the controlling [`ServerHandle`].
pub struct Server;

/// One unit of worker-pool work.
enum Task {
    /// Blocking mode: a whole admitted connection, served to completion.
    Connection(TcpStream),
    /// Reactor mode: one decoded request; the reactor keeps the socket.
    #[cfg(target_os = "linux")]
    Request {
        /// Connection identity (guards against fd reuse).
        conn_id: u64,
        /// The reactor-side socket the response belongs to.
        fd: i32,
        request: Request,
    },
}

struct Shared {
    engine: Engine,
    regex: msc_regex::RegexEngine,
    registry: Arc<Registry>,
    queue: BoundedQueue<Task>,
    stop: AtomicBool,
    /// Connections currently admitted (gauge on `/metrics`).
    open_conns: AtomicUsize,
    /// Admission bound: `workers + queue_depth` in both modes.
    admit_capacity: usize,
    #[cfg(target_os = "linux")]
    reactor: Option<reactor::ReactorShared>,
    opts: ServeOptions,
}

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves the threads running detached;
/// call `shutdown` for a graceful drain. The handle also owns the
/// process-global [`msc_obs`] subscriber installation, so it is
/// deliberately not `Send` — control the daemon from the thread that
/// started it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The acceptor thread (blocking mode) or the reactor thread.
    driver: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    blocking: bool,
    _obs: msc_obs::InstallGuard,
}

impl Server {
    /// Bind and start serving. Installs the daemon's [`Registry`] as the
    /// process-global [`msc_obs`] subscriber for the handle's lifetime
    /// (the install lock is exclusive: starting a second server in the
    /// same process blocks until the first shuts down).
    ///
    /// Picks the epoll reactor core where available (see
    /// [`reactor_available`]); otherwise — or when forced — the blocking
    /// thread-per-connection core.
    pub fn start(opts: ServeOptions) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new());
        let obs_guard = msc_obs::install(registry.clone());
        let blocking = opts.force_blocking || !reactor_available();
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            opts.workers
        };
        // Blocking mode queues whole connections behind the worker pool
        // (capacity = queue_depth, the historical bound); the reactor
        // queues at most one decoded request per admitted connection,
        // so its queue never rejects below the admission cap.
        let admit_capacity = workers + opts.queue_depth;
        let queue_capacity = if blocking {
            opts.queue_depth
        } else {
            admit_capacity
        };
        #[cfg(target_os = "linux")]
        let reactor_shared = if blocking {
            None
        } else {
            Some(reactor::ReactorShared::new()?)
        };
        let shared = Arc::new(Shared {
            engine: Engine::new(EngineOptions {
                threads: 1,
                cache_dir: opts.cache_dir.clone(),
                job_timeout: opts.job_timeout,
                peers: opts.peers.clone(),
                peer: opts.peer.clone(),
                ..EngineOptions::default()
            }),
            regex: msc_regex::RegexEngine::with_limits(
                msc_regex::engine::DEFAULT_PATTERN_CAPACITY,
                opts.max_meta_states.clamp(1, msc_regex::MAX_META_STATES),
            ),
            registry,
            queue: BoundedQueue::new(queue_capacity),
            stop: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            admit_capacity,
            #[cfg(target_os = "linux")]
            reactor: reactor_shared,
            opts,
        });

        let driver = if blocking {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("msc-serve-accept".to_string())
                .spawn(move || accept_loop(&shared, listener))?
        } else {
            spawn_reactor(&shared, listener)?
        };
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("msc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(ServerHandle {
            addr,
            shared,
            driver: Some(driver),
            workers: worker_handles,
            blocking,
            _obs: obs_guard,
        })
    }
}

#[cfg(target_os = "linux")]
fn spawn_reactor(
    shared: &Arc<Shared>,
    listener: TcpListener,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("msc-serve-reactor".to_string())
        .spawn(move || reactor::run(shared, listener))
}

#[cfg(not(target_os = "linux"))]
fn spawn_reactor(
    _shared: &Arc<Shared>,
    _listener: TcpListener,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    unreachable!("reactor_available() gates the reactor to Linux")
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's metrics registry (what `GET /metrics` renders).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The underlying engine (cache statistics, coalescing counters).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// The regex pattern cache behind `POST /match`.
    pub fn regex(&self) -> &msc_regex::RegexEngine {
        &self.shared.regex
    }

    /// Graceful drain: stop admitting, finish everything already
    /// admitted, join all threads. The reactor drops idle peers
    /// immediately; a peer mid-request is granted up to
    /// [`ServeOptions::read_timeout`] to finish sending, so shutdown is
    /// bounded by that (the blocking core has the same bound, via its
    /// socket timeout).
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if self.blocking {
            // Wake the acceptor out of accept() with a throwaway
            // connection.
            let _ = TcpStream::connect(self.addr);
        } else {
            #[cfg(target_os = "linux")]
            if let Some(r) = &self.shared.reactor {
                r.wake();
            }
        }
        if let Some(d) = self.driver.take() {
            let _ = d.join();
        }
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.opts.write_timeout));
        let _ = stream.set_nodelay(true);
        msc_obs::count("serve.accepted", 1);
        if let Err((task, _reason)) = shared.queue.try_push(Task::Connection(stream)) {
            // Shed: answer on the acceptor thread (cheap — one write)
            // so the queue and workers never see the connection. A
            // `Closed` refusal during shutdown sheds the same way.
            let Task::Connection(mut stream) = task else {
                continue;
            };
            msc_obs::count("serve.shed", 1);
            let err = HttpError::Overloaded {
                retry_after: shared.opts.retry_after,
            };
            let _ = write_error(&mut stream, &err, false);
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(task) = shared.queue.pop() {
        match task {
            Task::Connection(stream) => handle_connection(shared, stream),
            #[cfg(target_os = "linux")]
            Task::Request {
                conn_id,
                fd,
                request,
            } => reactor::execute(shared, conn_id, fd, request),
        }
    }
}

/// Render an error response to bytes (the reactor writes them as the
/// socket accepts; the blocking path writes them directly).
#[cfg(target_os = "linux")]
fn render_error(err: &HttpError, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::new();
    let _ = write_error(&mut out, err, keep_alive); // Vec writes are infallible
    out
}

/// Render a 200 response to bytes.
#[cfg(target_os = "linux")]
fn render_ok(body: &Json, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::new();
    let _ = write_ok(&mut out, body, keep_alive);
    out
}

fn write_error<W: Write>(stream: &mut W, err: &HttpError, keep_alive: bool) -> std::io::Result<()> {
    let (status, reason) = err.status();
    let body = Json::obj(vec![
        ("error", Json::from(reason)),
        ("detail", Json::from(err.detail().as_str())),
    ])
    .render();
    let retry: Vec<(&str, String)> = match err {
        HttpError::Overloaded { retry_after } => {
            vec![("Retry-After", retry_after.to_string())]
        }
        _ => Vec::new(),
    };
    http::write_response(
        stream,
        status,
        reason,
        keep_alive,
        &retry,
        "application/json",
        body.as_bytes(),
    )
}

fn write_ok<W: Write>(stream: &mut W, body: &Json, keep_alive: bool) -> std::io::Result<()> {
    http::write_response(
        stream,
        200,
        "OK",
        keep_alive,
        &[],
        "application/json",
        body.render().as_bytes(),
    )
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    shared.open_conns.fetch_add(1, Ordering::SeqCst);
    // Balance the gauge on every exit path.
    struct Gauge<'a>(&'a AtomicUsize);
    impl Drop for Gauge<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _gauge = Gauge(&shared.open_conns);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        match http::parse_request(&mut reader, &shared.opts.limits) {
            Ok(None) => break, // peer closed between requests
            Ok(Some(req)) => {
                let t0 = Instant::now();
                let outcome = route(shared, &req);
                msc_obs::value("serve.request_nanos", t0.elapsed().as_nanos() as u64);
                // Don't hold a drained daemon open on keep-alive.
                let keep_alive = !req.wants_close() && !shared.stop.load(Ordering::SeqCst);
                let io = match outcome {
                    Ok(body) => {
                        msc_obs::count("serve.requests", 1);
                        write_ok(&mut stream, &body, keep_alive)
                    }
                    Err(err) => {
                        msc_obs::count("serve.http_error", 1);
                        write_error(&mut stream, &err, keep_alive)
                    }
                };
                if io.is_err() || !keep_alive {
                    break;
                }
            }
            Err(err) => {
                // The byte stream is in an undefined state after a parse
                // error: answer and drop the connection.
                msc_obs::count("serve.http_error", 1);
                let _ = write_error(&mut stream, &err, false);
                break;
            }
        }
    }
}

fn json_body(req: &Request) -> Result<Json, HttpError> {
    match req.header("content-type") {
        Some(ct)
            if ct
                .split(';')
                .next()
                .is_some_and(|t| t.trim().eq_ignore_ascii_case("application/json")) => {}
        _ => return Err(HttpError::UnsupportedMediaType),
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| HttpError::BadRequest("body is not UTF-8".to_string()))?;
    msc_obs::json::parse(text)
        .map_err(|e| HttpError::BadRequest(format!("body is not valid JSON: {e}")))
}

fn count_coalesced(body: &Json) {
    let one = |v: &Json| {
        if v.get("provenance").and_then(Json::as_str) == Some("coalesced") {
            msc_obs::count("serve.coalesced", 1);
        }
    };
    match body.get("results").and_then(Json::as_arr) {
        Some(slots) => slots.iter().for_each(one),
        None => one(body),
    }
}

/// Point-in-time gauges describing the peer tier (if configured):
/// peer count plus per-breaker-state tallies. Flat counters so they sit
/// next to the serve gauges on `/metrics`.
fn peer_gauges(shared: &Shared) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    for tier in shared.engine.tier_status() {
        if let msc_engine::TierStatus::Peers { peers, .. } = tier {
            let mut closed = 0u64;
            let mut open = 0u64;
            let mut half_open = 0u64;
            for p in &peers {
                match p.breaker {
                    msc_engine::BreakerState::Closed => closed += 1,
                    msc_engine::BreakerState::Open => open += 1,
                    msc_engine::BreakerState::HalfOpen => half_open += 1,
                }
            }
            out.push(("cache.peers", peers.len() as u64));
            out.push(("cache.peer_breaker_closed", closed));
            out.push(("cache.peer_breaker_open", open));
            out.push(("cache.peer_breaker_half_open", half_open));
        }
    }
    out
}

fn route(shared: &Shared, req: &Request) -> Result<Json, HttpError> {
    let known_get =
        matches!(req.path.as_str(), "/healthz" | "/metrics") || req.path.starts_with("/artifact/");
    let known_post = matches!(req.path.as_str(), "/compile" | "/run" | "/batch" | "/match");
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(api::health_response(
            shared.queue.len(),
            shared.stop.load(Ordering::SeqCst),
            &shared.engine.tier_status(),
        )),
        ("GET", "/metrics") => {
            let mut gauges = vec![
                (
                    "serve.open_connections",
                    shared.open_conns.load(Ordering::SeqCst) as u64,
                ),
                ("serve.queued", shared.queue.len() as u64),
                ("serve.admit_capacity", shared.admit_capacity as u64),
            ];
            gauges.extend(peer_gauges(shared));
            Ok(api::metrics_response(&shared.registry.snapshot(), &gauges))
        }
        ("GET", p) if p.starts_with("/artifact/") => {
            api::artifact(&shared.engine, &p["/artifact/".len()..])
        }
        ("POST", "/compile") => {
            let body = json_body(req)?;
            let resp = api::compile(&shared.engine, &body, shared.opts.max_meta_states)?;
            count_coalesced(&resp);
            Ok(resp)
        }
        ("POST", "/run") => {
            let body = json_body(req)?;
            let resp = api::run(&shared.engine, &body, shared.opts.max_meta_states)?;
            count_coalesced(&resp);
            Ok(resp)
        }
        ("POST", "/batch") => {
            let body = json_body(req)?;
            let resp = api::batch(&shared.engine, &body, shared.opts.max_meta_states)?;
            count_coalesced(&resp);
            Ok(resp)
        }
        ("POST", "/match") => {
            let body = json_body(req)?;
            let resp = api::find_matches(&shared.regex, &body)?;
            count_coalesced(&resp);
            Ok(resp)
        }
        _ if known_get || known_post => Err(HttpError::MethodNotAllowed),
        _ => Err(HttpError::NotFound),
    }
}

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Route SIGINT and SIGTERM to the stop flag. `signal(2)` comes from
    /// libc, which std already links — no new dependency.
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }
}

/// Serve until SIGINT/SIGTERM, then drain and return. This is what
/// `mscc serve` runs.
#[cfg(unix)]
pub fn run_until_signal(handle: ServerHandle) {
    sig::install();
    while !sig::STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
}

/// Non-unix fallback: serve until the process is killed.
#[cfg(not(unix))]
pub fn run_until_signal(_handle: ServerHandle) {
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
