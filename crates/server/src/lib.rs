//! # mrpa-server — a concurrent multi-client MRPA-QL query server
//!
//! A small TCP server that speaks **newline-delimited JSON**: each request is
//! one JSON object on one line, each response is one JSON object on one line.
//! Readers run concurrently against O(1) copy-on-write
//! [`snapshot`](mrpa_engine::PropertyGraph::snapshot)s of a shared
//! [`PropertyGraph`] — a query never blocks a mutation and a mutation never
//! invalidates a running query — while mutations are serialised through a
//! single *claimed writer* session.
//!
//! ## Protocol
//!
//! Requests carry an `op` field; every response echoes the request's `id`
//! (if present) and carries `ok`, `elapsed_us`, per-session counters
//! (`session.queries` / `session.rows` / `session.errors`), and live store
//! counters (`store.generation` / `store.live_snapshots` /
//! `store.deep_clones` / `store.csr_builds` / `store.csr_bytes`).
//!
//! | `op`             | request fields                                               | response payload                         |
//! |------------------|--------------------------------------------------------------|------------------------------------------|
//! | `query`          | `query`, `timeout_ms?`, `strategy?` (`"parallel"` runs as `"materialized"`), `threads?` (accepted and ignored), `memory_budget?` | `rows`/`count`/`exists`/`row` + `stats`; `plan` for `EXPLAIN`; + `trace` for `PROFILE` |
//! | `ping`           | —                                                            | `pong: true`                             |
//! | `stats`          | —                                                            | `vertices`, `edges`, full `store` block  |
//! | `metrics`        | `format?` (`"json"` default, `"prometheus"`)                 | `metrics` array / `metrics_text`         |
//! | `slowlog`        | —                                                            | `slowlog` entries (newest first), `threshold_us`, `capacity` |
//! | `claim_writer`   | —                                                            | `writer: <session id>`                   |
//! | `release_writer` | —                                                            | `writer: null`                           |
//! | `add_vertex`     | `name`, `props?`                                             | `vertex: <name>` (writer-gated)          |
//! | `add_edge`       | `tail`, `label`, `head`, `props?`                            | `edge: [tail,label,head]` (writer-gated) |
//! | `close`          | —                                                            | `closing: true`, then disconnect         |
//!
//! Every terminal's `query` response carries a `stats` block with the run's
//! engine counters (`expansions`, `interned_nodes`). A `PROFILE` query
//! additionally returns `trace`: the optimized plan as a tree, each node
//! joining the planner's `estimated_rows` with measured actuals (rows
//! in/out, pulls, chunks, self/total wall time, expansions, arena appends).
//! The `metrics` op exposes the process-wide metrics registry; the `slowlog`
//! op reads the ring buffer of queries slower than
//! [`ServerConfig::slowlog_threshold`], each entry naming its top-3
//! costliest ops (measured, or ranked by the planner's estimates of the plan
//! that ran when the query was not profiled).
//!
//! Failures come back as `ok: false` with an `error` object whose `kind` is
//! `"parse"` (MRPA-QL syntax errors, with a byte `span` and a rendered caret
//! `diagnostic`), `"timeout"` (the deadline cancelled the traversal — the
//! store is *not* poisoned and the session keeps working), `"bound"` (a
//! walk count past `u64`), `"memory_budget"` (the per-query byte budget
//! tripped, with `limit_bytes` / `charged_bytes`), `"overloaded"` (bounded
//! admission shed the request, with a `retry_after_ms` hint), `"internal"`
//! (a handler panic converted to a typed error), `"engine"` (any other
//! traversal error), or `"protocol"` (malformed request, including one that
//! sends the removed `max_intermediate` row cap).
//!
//! A query's resources are bounded by its deadline (`timeout_ms`, else
//! [`ServerConfig::default_timeout`]) and its byte budget (`memory_budget`,
//! never looser than the server's per-worker share of
//! [`ServerConfig::memory_budget`]). `strategy` is `"materialized"` (the
//! default), `"streaming"` or `"parallel"`, an alias of materialized; a
//! query runs on its worker's thread alone, so `threads` changes nothing.
//!
//! ## Concurrency model
//!
//! One thread per connection reads requests, but **queries execute on a
//! bounded worker pool** behind a bounded admission queue (see
//! [`pool`] — the module doc describes the three shed paths).
//! Control-plane ops (`ping`, `stats`, `metrics`, `slowlog`, writer
//! claiming, mutations) bypass the queue and run inline on the connection
//! thread, so the server stays observable and drainable while saturated.
//! Query execution takes an O(1) snapshot and runs entirely against it, so
//! workers proceed in parallel; `store.live_snapshots` in responses reports
//! how many generations are pinned right now. Mutating ops require the
//! session to have claimed the single writer slot (`claim_writer`), which
//! is released explicitly or on disconnect — including panicking
//! disconnects. Deadlines ride the engine's cooperative cancellation: an
//! overrunning traversal fails with a `"timeout"` error at its next pull,
//! mid-frontier, without poisoning anything.
//!
//! ## Resource governance
//!
//! [`ServerConfig::memory_budget`] caps the bytes all in-flight queries may
//! hold in path arenas and row buffers, partitioned evenly across the
//! worker slots; a query that outgrows its share dies with a typed
//! `memory_budget` error, mid-frontier, without poisoning the store.
//! [`ServerConfig::max_connections`] bounds sockets the same way the queue
//! bounds work: over the cap, a connection gets one typed `overloaded` line
//! and is closed. [`RunningServer::shutdown`] drains gracefully (queued and
//! in-flight queries finish, new ones are refused); [`RunningServer::kill`]
//! aborts like a crash (in-flight traversals are cancelled, queued jobs are
//! discarded) — the pairing the chaos tests lean on.
//!
//! ```
//! use mrpa_engine::classic_social_graph;
//! use mrpa_server::{serve, Client, ServerConfig};
//!
//! let server = serve(classic_social_graph(), ServerConfig::default(), "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let reply = client
//!     .request(r#"{"op":"query","query":"FROM marko OUT knows LIMIT 2"}"#)
//!     .unwrap();
//! assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(true));
//! assert_eq!(reply.get("rows").and_then(|v| v.as_array()).unwrap().len(), 2);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod faults;
pub mod json;
pub mod pool;
pub mod retry;

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mrpa_engine::exec::{ExecStats, ExecutionStrategy};
use mrpa_engine::metrics::{registry, MetricSnapshot, MetricValue, BUCKET_BOUNDS_US};
use mrpa_engine::{
    CancelToken, EngineError, Execution, PropertyGraph, QueryTrace, ResultRow, TraceNode,
    Traversal, Value as GraphValue,
};
use mrpa_query::{LoweredQuery, QueryError, Terminal};

pub use faults::{SocketFailPlan, SocketFailPoint};
pub use retry::{RetryPolicy, RetryStats, RetryingClient};

use json::{object, Value};
use pool::AdmissionQueue;

/// How often blocked reads wake up to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Server-side execution limits applied to every request.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Deadline applied to queries that do not send their own `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Successful queries at least this slow get a slow-log entry; `None`
    /// disables the slow-query log entirely.
    pub slowlog_threshold: Option<Duration>,
    /// Ring-buffer size of the slow-query log: the newest entries win.
    pub slowlog_capacity: usize,
    /// Worker threads executing queries — the server's execution
    /// concurrency, regardless of how many clients are connected.
    pub worker_threads: usize,
    /// Bounded admission: queries waiting for a worker beyond this many are
    /// shed immediately with a typed `overloaded` error (newest first).
    pub queue_capacity: usize,
    /// A queued query that waits longer than this is shed *instead of
    /// executed* when a worker finally reaches it — by then the client has
    /// retried or given up, and running it would only deepen the overload.
    pub queue_deadline: Duration,
    /// Server-global memory budget in bytes, partitioned evenly across the
    /// worker slots: each in-flight query may charge at most
    /// `memory_budget / worker_threads` bytes of arena and row growth
    /// before dying with a typed `memory_budget` error. `None` disables
    /// accounting entirely (no per-charge cost).
    pub memory_budget: Option<u64>,
    /// Open-connection cap: an accept beyond this many live connections is
    /// answered with one typed `overloaded` line and closed.
    pub max_connections: usize,
    /// Deterministic socket fault injection (tests only); unarmed by
    /// default. See [`SocketFailPlan`].
    pub faults: SocketFailPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            default_timeout: None,
            slowlog_threshold: Some(Duration::from_millis(10)),
            slowlog_capacity: 128,
            worker_threads: 4,
            queue_capacity: 64,
            queue_deadline: Duration::from_millis(500),
            memory_budget: None,
            max_connections: 256,
            faults: SocketFailPlan::new(),
        }
    }
}

/// The `retry_after_ms` hint attached to `overloaded` refusals: how long the
/// queued work should take to clear — `depth` jobs at the running mean
/// service time, spread over the worker threads — clamped to at least
/// 10 ms and at most half the queue deadline, so a client re-arrives about
/// when a worker frees and never later than while its turn is still fresh.
pub(crate) fn retry_hint_ms(config: &ServerConfig, depth: usize, mean_service: Duration) -> u64 {
    let ceiling = (config.queue_deadline.as_millis() as u64 / 2).max(10);
    let workers = config.worker_threads.max(1) as u128;
    let clear_ms = mean_service.as_micros().saturating_mul(depth as u128) / workers / 1000;
    (clear_ms.min(u128::from(ceiling)) as u64).max(10)
}

/// Server-side metrics, registered in the process-wide
/// [`registry`](mrpa_engine::metrics::registry) on first use.
pub(crate) mod srv_metrics {
    use mrpa_engine::metrics::{registry, Counter, Gauge};
    use std::sync::OnceLock;

    macro_rules! cached {
        ($fn:ident, $ty:ident, $reg:ident, $name:literal, $help:literal) => {
            pub(crate) fn $fn() -> &'static $ty {
                static M: OnceLock<&'static $ty> = OnceLock::new();
                M.get_or_init(|| registry().$reg($name, $help))
            }
        };
    }

    cached!(
        queue_depth,
        Gauge,
        gauge,
        "mrpa_server_queue_depth",
        "Queries waiting in the admission queue"
    );
    cached!(
        queries_inflight,
        Gauge,
        gauge,
        "mrpa_server_queries_inflight",
        "Queries executing on worker threads right now"
    );
    cached!(
        bytes_inflight,
        Gauge,
        gauge,
        "mrpa_server_bytes_inflight",
        "Memory-budget bytes reserved by in-flight queries"
    );
    cached!(
        connections,
        Gauge,
        gauge,
        "mrpa_server_connections",
        "Open client connections"
    );
    cached!(
        shed_queue_full,
        Counter,
        counter,
        "mrpa_server_shed_queue_full_total",
        "Queries shed because the admission queue was full"
    );
    cached!(
        shed_deadline,
        Counter,
        counter,
        "mrpa_server_shed_deadline_total",
        "Queries shed because they overstayed the queue deadline"
    );
    cached!(
        budget_kills,
        Counter,
        counter,
        "mrpa_server_budget_kills_total",
        "Queries killed by the per-query memory budget"
    );
    cached!(
        handler_panics,
        Counter,
        counter,
        "mrpa_server_handler_panics_total",
        "Request-handler panics converted to typed internal errors"
    );
    cached!(
        connections_rejected,
        Counter,
        counter,
        "mrpa_server_connections_rejected_total",
        "Connections refused at the max_connections cap"
    );

    /// Touches every accessor so all governance series exist (at zero) from
    /// the moment the server starts, rather than appearing on first event.
    pub(crate) fn register_all() {
        queue_depth();
        queries_inflight();
        bytes_inflight();
        connections();
        shed_queue_full();
        shed_deadline();
        budget_kills();
        handler_panics();
        connections_rejected();
    }
}

/// One recorded slow query.
struct SlowEntry {
    query: String,
    duration_us: u64,
    strategy: &'static str,
    session: u64,
    /// How `top_ops` was ranked: `"self_time"` (profiled actuals) or
    /// `"estimated_rows"` (planner estimates, the unprofiled fallback).
    ranked_by: &'static str,
    top_ops: Vec<Value>,
}

pub(crate) struct Shared {
    pub(crate) graph: PropertyGraph,
    pub(crate) config: ServerConfig,
    shutdown: AtomicBool,
    /// The session currently holding the single writer slot.
    writer: Mutex<Option<u64>>,
    next_session: AtomicU64,
    /// Ring buffer of the slowest recent queries, newest at the back.
    slowlog: Mutex<VecDeque<SlowEntry>>,
    /// Bounded admission queue feeding the worker pool.
    pub(crate) queue: AdmissionQueue,
    /// Fires on [`RunningServer::kill`], aborting every in-flight traversal.
    cancel: CancelToken,
    /// Per-query share of [`ServerConfig::memory_budget`].
    pub(crate) query_share: Option<u64>,
    /// Live connection count, checked against `max_connections` on accept.
    conns: AtomicUsize,
    /// Running mean of per-job service time in µs (see
    /// [`Shared::record_service`]); 0 until the first job finishes.
    service_us: AtomicU64,
}

impl Shared {
    /// The `retry_after_ms` hint for a refusal issued now, from the queue's
    /// depth and the running mean service time ([`retry_hint_ms`]).
    pub(crate) fn retry_hint_ms(&self) -> u64 {
        let mean = Duration::from_micros(self.service_us.load(Ordering::Relaxed));
        retry_hint_ms(&self.config, self.queue.depth(), mean)
    }

    /// Folds one job's service time into the running mean, an exponential
    /// average that gives the newest job a weight of 1/8.
    pub(crate) fn record_service(&self, took: Duration) {
        let us = took.as_micros().min(u64::MAX as u128 / 8) as u64;
        let _ = self
            .service_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |mean| {
                Some(if mean == 0 { us } else { (mean * 7 + us) / 8 })
            });
    }
}

/// Releases everything a dying connection holds — the writer slot, the
/// connection count, the connections gauge — even when the handler thread
/// unwinds from a panic.
struct ConnGuard {
    shared: Arc<Shared>,
    session: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut writer = self.shared.writer.lock().unwrap_or_else(|e| e.into_inner());
        if *writer == Some(self.session) {
            *writer = None;
        }
        drop(writer);
        self.shared.conns.fetch_sub(1, Ordering::SeqCst);
        srv_metrics::connections().add(-1);
    }
}

/// A running server: the bound address plus the handles needed to stop it.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
    stopped: bool,
}

impl std::fmt::Debug for RunningServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl RunningServer {
    /// The address the server is listening on (useful with `127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served graph — the same shared store the connections see, so a
    /// test or bench can take snapshots / read [`mrpa_engine::StoreStats`]
    /// out-of-band.
    pub fn graph(&self) -> &PropertyGraph {
        &self.shared.graph
    }

    /// **Graceful drain**: new queries are refused with a typed
    /// `overloaded` error while every queued and in-flight query runs to
    /// completion (the control plane stays responsive throughout); then the
    /// workers, the accept loop, and every connection are joined.
    pub fn shutdown(mut self) {
        self.stop(true);
    }

    /// **Abrupt stop**, as close to a crash as a clean process allows:
    /// in-flight traversals are cancelled mid-frontier, queued queries are
    /// discarded (their clients see a dead connection or an `internal`
    /// error), and all threads are joined. The chaos tests pair this with
    /// reopening the durable store to assert the acknowledged-mutation
    /// prefix survived.
    pub fn kill(mut self) {
        self.stop(false);
    }

    fn stop(&mut self, graceful: bool) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        if graceful {
            // refuse new queries, let the workers drain the backlog
            self.shared.queue.close();
        } else {
            self.shared.cancel.cancel();
            self.shared.queue.discard();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // unblock the accept loop with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handlers =
            std::mem::take(&mut *self.handlers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop(false);
    }
}

/// Starts serving `graph` on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
/// port), one thread per connection. The graph handle is shared, not copied:
/// the caller may keep their own clone and mutate alongside the server.
pub fn serve(
    graph: PropertyGraph,
    config: ServerConfig,
    addr: impl ToSocketAddrs,
) -> io::Result<RunningServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    srv_metrics::register_all();
    let worker_threads = config.worker_threads.max(1);
    // the global budget is partitioned across worker slots — at most
    // `worker_threads` queries are ever in flight, so the shares sum to
    // (at most) the configured global cap
    let query_share = config
        .memory_budget
        .map(|bytes| (bytes / worker_threads as u64).max(1));
    let shared = Arc::new(Shared {
        graph,
        queue: AdmissionQueue::new(config.queue_capacity),
        config,
        shutdown: AtomicBool::new(false),
        writer: Mutex::new(None),
        next_session: AtomicU64::new(1),
        slowlog: Mutex::new(VecDeque::new()),
        cancel: CancelToken::new(),
        query_share,
        conns: AtomicUsize::new(0),
        service_us: AtomicU64::new(0),
    });
    let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let workers: Vec<JoinHandle<()>> = (0..worker_threads)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || pool::worker_loop(shared))
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept_handlers = Arc::clone(&handlers);
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            // finished connections leave the handler list as they go, so a
            // long-lived server does not accumulate dead join handles
            accept_handlers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .retain(|h| !h.is_finished());
            let max = accept_shared.config.max_connections;
            if accept_shared.conns.load(Ordering::SeqCst) >= max {
                srv_metrics::connections_rejected().inc();
                let line = rejection_line(max, accept_shared.retry_hint_ms());
                let _ = stream.write_all(line.as_bytes());
                continue; // dropping the stream closes the connection
            }
            // short read timeouts let connection threads poll the shutdown
            // flag instead of blocking forever on a silent client
            if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
                continue;
            }
            // request/response round trips should not wait out Nagle batching
            let _ = stream.set_nodelay(true);
            accept_shared.conns.fetch_add(1, Ordering::SeqCst);
            srv_metrics::connections().add(1);
            let shared = Arc::clone(&accept_shared);
            let handle = std::thread::spawn(move || {
                let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
                // the guard releases the writer slot and connection count
                // no matter how the session ends — EOF, IO error, or panic
                let _guard = ConnGuard {
                    shared: Arc::clone(&shared),
                    session,
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    Session::new(shared.as_ref(), session).run(stream)
                }));
                if outcome.is_err() {
                    srv_metrics::handler_panics().inc();
                }
            });
            accept_handlers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle);
        }
    });

    Ok(RunningServer {
        addr,
        shared,
        accept: Some(accept),
        handlers,
        workers,
        stopped: false,
    })
}

/// The single response line written to a connection rejected at the
/// `max_connections` cap.
fn rejection_line(max: usize, retry_after_ms: u64) -> String {
    let failure = Failure::overloaded(format!("connection limit ({max}) reached"), retry_after_ms);
    let mut line = object([
        ("id", Value::Null),
        ("ok", Value::Bool(false)),
        ("error", failure.render()),
    ])
    .render();
    line.push('\n');
    line
}

/// Reads newline-delimited frames off a stream whose read timeout doubles as
/// a shutdown-poll interval. Framing is done on raw bytes so a timeout in
/// the middle of a multi-byte character cannot corrupt the buffer.
struct LineReader<'a> {
    stream: TcpStream,
    shutdown: &'a AtomicBool,
    buf: Vec<u8>,
    used: usize,
}

impl<'a> LineReader<'a> {
    fn new(stream: TcpStream, shutdown: &'a AtomicBool) -> Self {
        LineReader {
            stream,
            shutdown,
            buf: Vec::new(),
            used: 0,
        }
    }

    /// The next full line, or `None` on EOF / shutdown.
    fn next_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf[self.used..].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..self.used + pos + 1).collect();
                self.used = 0;
                let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                return Ok(Some(text));
            }
            self.used = self.buf.len();
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(None);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Per-connection state: identity plus the running counters every response
/// reports back.
struct Session<'a> {
    shared: &'a Shared,
    id: u64,
    queries: u64,
    rows: u64,
    errors: u64,
}

/// The named fields of a successful response payload.
type Payload = Vec<(&'static str, Value)>;

/// A request failure, tagged with the protocol error kind.
struct Failure {
    kind: &'static str,
    message: String,
    extra: Vec<(&'static str, Value)>,
}

impl Failure {
    fn protocol(message: impl Into<String>) -> Self {
        Failure {
            kind: "protocol",
            message: message.into(),
            extra: Vec::new(),
        }
    }

    fn from_parse(err: &QueryError, source: &str) -> Self {
        Failure {
            kind: "parse",
            message: err.message.clone(),
            extra: vec![
                (
                    "span",
                    object([
                        ("start", Value::from(err.span.start)),
                        ("end", Value::from(err.span.end)),
                    ]),
                ),
                ("diagnostic", Value::from(err.render(source))),
            ],
        }
    }

    /// A typed overload refusal with the standard `retry_after_ms` hint.
    fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> Self {
        Failure {
            kind: "overloaded",
            message: message.into(),
            extra: vec![("retry_after_ms", Value::from(retry_after_ms))],
        }
    }

    /// A handler failure the server absorbed (e.g. a caught panic).
    fn internal(message: impl Into<String>) -> Self {
        Failure {
            kind: "internal",
            message: message.into(),
            extra: Vec::new(),
        }
    }

    fn from_engine(err: &EngineError) -> Self {
        if let EngineError::MemoryBudget { limit, charged } = err {
            return Failure {
                kind: "memory_budget",
                message: err.to_string(),
                extra: vec![
                    ("limit_bytes", Value::from(*limit)),
                    ("charged_bytes", Value::from(*charged)),
                ],
            };
        }
        let kind = match err {
            EngineError::Cancelled => "timeout",
            EngineError::BoundExceeded { .. } => "bound",
            _ => "engine",
        };
        Failure {
            kind,
            message: err.to_string(),
            extra: Vec::new(),
        }
    }

    fn render(self) -> Value {
        let mut fields = vec![
            ("kind", Value::from(self.kind)),
            ("message", Value::from(self.message)),
        ];
        fields.extend(self.extra);
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

impl<'a> Session<'a> {
    fn new(shared: &'a Shared, id: u64) -> Self {
        Session {
            shared,
            id,
            queries: 0,
            rows: 0,
            errors: 0,
        }
    }

    fn run(&mut self, stream: TcpStream) -> io::Result<()> {
        let mut out = stream.try_clone()?;
        let mut reader = LineReader::new(stream, &self.shared.shutdown);
        while let Some(line) = reader.next_line()? {
            if line.trim().is_empty() {
                continue;
            }
            let faults = self.shared.config.faults.clone();
            if faults.hit(SocketFailPoint::StalledRead) {
                std::thread::sleep(SocketFailPlan::STALL);
            }
            let started = Instant::now();
            let request = json::parse(&line).ok();
            let id = request
                .as_ref()
                .and_then(|r| r.get("id"))
                .cloned()
                .unwrap_or(Value::Null);
            let closing = matches!(
                request
                    .as_ref()
                    .and_then(|r| r.get("op"))
                    .and_then(Value::as_str),
                Some("close")
            );
            // a panicking op costs this request a typed `internal` error,
            // never the connection (and never a leaked writer slot)
            let outcome = match &request {
                None => Err(Failure::protocol("request is not valid JSON")),
                Some(req) => {
                    catch_unwind(AssertUnwindSafe(|| self.dispatch(req))).unwrap_or_else(|_| {
                        srv_metrics::handler_panics().inc();
                        Err(Failure::internal("request handler panicked"))
                    })
                }
            };
            if faults.hit(SocketFailPoint::Disconnect) {
                // drop the connection between request and response — the
                // client cannot know whether the op was applied
                return Ok(());
            }
            let response = self.envelope(id, outcome, started);
            let mut bytes = response.render().into_bytes();
            bytes.push(b'\n');
            if faults.hit(SocketFailPoint::TornWrite) {
                // flush half a frame, then die: the client sees a torn line
                out.write_all(&bytes[..bytes.len() / 2])?;
                out.flush()?;
                return Ok(());
            }
            out.write_all(&bytes)?;
            out.flush()?;
            if closing {
                break;
            }
        }
        Ok(())
    }

    /// Wraps an op's payload (or failure) in the common response envelope.
    fn envelope(
        &mut self,
        id: Value,
        outcome: Result<Vec<(&'static str, Value)>, Failure>,
        started: Instant,
    ) -> Value {
        let ok = outcome.is_ok();
        if !ok {
            self.errors += 1;
        }
        let mut fields = vec![("id", id), ("ok", Value::from(ok))];
        match outcome {
            Ok(payload) => fields.extend(payload),
            Err(failure) => fields.push(("error", failure.render())),
        }
        fields.push((
            "elapsed_us",
            Value::from(started.elapsed().as_micros() as f64),
        ));
        fields.push((
            "session",
            object([
                ("id", Value::from(self.id)),
                ("queries", Value::from(self.queries)),
                ("rows", Value::from(self.rows)),
                ("errors", Value::from(self.errors)),
            ]),
        ));
        let stats = self.shared.graph.stats();
        fields.push((
            "store",
            object([
                ("generation", Value::from(stats.generation)),
                ("live_snapshots", Value::from(stats.live_snapshots)),
                ("deep_clones", Value::from(stats.deep_clones)),
                ("csr_builds", Value::from(stats.csr_builds)),
                ("csr_bytes", Value::from(stats.csr_bytes)),
            ]),
        ));
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Routes one request. Only `query` goes through the bounded admission
    /// queue; every control-plane op (and the writer-gated mutations) runs
    /// inline on the connection thread, so `ping`/`stats`/`metrics` stay
    /// responsive — and shedding observable — while the pool is saturated.
    fn dispatch(&mut self, req: &Value) -> Result<Vec<(&'static str, Value)>, Failure> {
        let op = req
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| Failure::protocol("missing \"op\" field"))?;
        // the query path's panic hook lives in the worker (run_query), so
        // one arming deterministically picks its thread by its op
        if op != "query" && self.shared.config.faults.hit(SocketFailPoint::HandlerPanic) {
            panic!("injected: handler panic at op {op:?}");
        }
        match op {
            "ping" => Ok(vec![("pong", Value::Bool(true))]),
            "close" => Ok(vec![("closing", Value::Bool(true))]),
            "stats" => self.op_stats(),
            "metrics" => self.op_metrics(req),
            "slowlog" => self.op_slowlog(),
            "claim_writer" => self.op_claim_writer(),
            "release_writer" => self.op_release_writer(),
            "add_vertex" => self.op_add_vertex(req),
            "add_edge" => self.op_add_edge(req),
            "query" => self.op_query(req),
            other => Err(Failure::protocol(format!("unknown op {other:?}"))),
        }
    }

    fn op_stats(&self) -> Result<Vec<(&'static str, Value)>, Failure> {
        let s = self.shared.graph.stats();
        Ok(vec![
            ("vertices", Value::from(self.shared.graph.vertex_count())),
            ("edges", Value::from(self.shared.graph.edge_count())),
            (
                "store_full",
                object([
                    ("generation", Value::from(s.generation)),
                    ("deep_clones", Value::from(s.deep_clones)),
                    ("reversed_builds", Value::from(s.reversed_builds)),
                    ("csr_builds", Value::from(s.csr_builds)),
                    ("csr_bytes", Value::from(s.csr_bytes)),
                    ("wal_records", Value::from(s.wal_records)),
                    ("wal_fsyncs", Value::from(s.wal_fsyncs)),
                    ("checkpoints", Value::from(s.checkpoints)),
                    ("checkpoint_bytes", Value::from(s.checkpoint_bytes)),
                    ("replayed_records", Value::from(s.replayed_records)),
                    ("live_snapshots", Value::from(s.live_snapshots)),
                ]),
            ),
            (
                "governance",
                object([
                    ("queue_depth", Value::from(self.shared.queue.depth())),
                    (
                        "connections",
                        Value::from(self.shared.conns.load(Ordering::SeqCst)),
                    ),
                    (
                        "worker_threads",
                        Value::from(self.shared.config.worker_threads),
                    ),
                    (
                        "queue_capacity",
                        Value::from(self.shared.config.queue_capacity),
                    ),
                    (
                        "memory_budget",
                        self.shared
                            .config
                            .memory_budget
                            .map(Value::from)
                            .unwrap_or(Value::Null),
                    ),
                    (
                        "query_share",
                        self.shared
                            .query_share
                            .map(Value::from)
                            .unwrap_or(Value::Null),
                    ),
                ]),
            ),
        ])
    }

    fn op_claim_writer(&self) -> Result<Vec<(&'static str, Value)>, Failure> {
        let mut writer = self.shared.writer.lock().unwrap_or_else(|e| e.into_inner());
        match *writer {
            Some(holder) if holder != self.id => Err(Failure::protocol(format!(
                "writer already claimed by session {holder}"
            ))),
            _ => {
                *writer = Some(self.id);
                Ok(vec![("writer", Value::from(self.id))])
            }
        }
    }

    fn op_release_writer(&self) -> Result<Vec<(&'static str, Value)>, Failure> {
        let mut writer = self.shared.writer.lock().unwrap_or_else(|e| e.into_inner());
        if *writer == Some(self.id) {
            *writer = None;
            Ok(vec![("writer", Value::Null)])
        } else {
            Err(Failure::protocol("session does not hold the writer slot"))
        }
    }

    fn require_writer(&self) -> Result<(), Failure> {
        let writer = self.shared.writer.lock().unwrap_or_else(|e| e.into_inner());
        if *writer == Some(self.id) {
            Ok(())
        } else {
            Err(Failure::protocol(
                "mutation requires the writer slot (send claim_writer first)",
            ))
        }
    }

    fn op_add_vertex(&self, req: &Value) -> Result<Vec<(&'static str, Value)>, Failure> {
        self.require_writer()?;
        let name = req
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| Failure::protocol("add_vertex needs a string \"name\""))?;
        let v = self.shared.graph.add_vertex(name);
        for (key, value) in props_of(req)? {
            self.shared.graph.set_vertex_property(v, &key, value);
        }
        Ok(vec![("vertex", Value::from(name))])
    }

    fn op_add_edge(&self, req: &Value) -> Result<Vec<(&'static str, Value)>, Failure> {
        self.require_writer()?;
        let field = |k: &str| {
            req.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| Failure::protocol(format!("add_edge needs a string {k:?}")))
        };
        let (tail, label, head) = (field("tail")?, field("label")?, field("head")?);
        let e = self.shared.graph.add_edge(&tail, &label, &head);
        for (key, value) in props_of(req)? {
            self.shared.graph.set_edge_property(e, &key, value);
        }
        Ok(vec![(
            "edge",
            Value::Array(vec![tail.into(), label.into(), head.into()]),
        )])
    }

    /// The `query` op: bounded admission into the worker pool. The
    /// connection thread blocks on its private reply channel (the protocol
    /// is one response per request line either way); the worker slot count,
    /// not the connection count, bounds engine work.
    fn op_query(&mut self, req: &Value) -> Result<Vec<(&'static str, Value)>, Failure> {
        self.queries += 1;
        let (tx, rx) = mpsc::channel();
        let job = pool::Job {
            req: req.clone(),
            session: self.id,
            enqueued: Instant::now(),
            reply: tx,
        };
        match self.shared.queue.submit(job) {
            pool::Admission::Queued => match rx.recv() {
                Ok(reply) => {
                    self.rows += reply.rows;
                    reply.outcome
                }
                // the reply channel died: the server was killed mid-query
                Err(_) => Err(Failure::internal(
                    "server stopped before the query completed",
                )),
            },
            pool::Admission::QueueFull => {
                srv_metrics::shed_queue_full().inc();
                Err(Failure::overloaded(
                    format!(
                        "admission queue is full ({} queued)",
                        self.shared.config.queue_capacity
                    ),
                    self.shared.retry_hint_ms(),
                ))
            }
            pool::Admission::Draining => Err(Failure::overloaded(
                "server is draining; new queries are refused",
                self.shared.retry_hint_ms(),
            )),
        }
    }
}

/// Runs one query end-to-end on a worker thread. Typed-failure conversion
/// happens here; panic conversion happens in the caller
/// ([`pool::worker_loop`]'s `catch_unwind`).
pub(crate) fn run_query(
    shared: &Shared,
    session: u64,
    req: &Value,
) -> (Result<Payload, Failure>, u64) {
    if shared.config.faults.hit(SocketFailPoint::HandlerPanic) {
        panic!("injected: handler panic in query execution");
    }
    let mut runner = QueryRunner {
        shared,
        session,
        rows: 0,
    };
    let outcome = runner.run(req);
    (outcome, runner.rows)
}

/// Worker-side query execution state: the pipeline plus the row counter the
/// connection thread folds back into its session.
struct QueryRunner<'a> {
    shared: &'a Shared,
    session: u64,
    rows: u64,
}

impl<'a> QueryRunner<'a> {
    fn run(&mut self, req: &Value) -> Result<Vec<(&'static str, Value)>, Failure> {
        let text = req
            .get("query")
            .and_then(Value::as_str)
            .ok_or_else(|| Failure::protocol("query needs a string \"query\""))?;

        let lowered = mrpa_query::compile(text).map_err(|e| Failure::from_parse(&e, text))?;
        let mut traversal = lowered.traversal(&self.shared.graph);
        traversal = self.apply_limits(traversal, req)?;

        if lowered.explain {
            let report = traversal.explain().map_err(|e| Failure::from_engine(&e))?;
            let estimates: Vec<Value> = report
                .estimates()
                .iter()
                .map(|e| {
                    object([
                        ("op", Value::from(e.op.as_str())),
                        ("rows", Value::from(e.rows)),
                    ])
                })
                .collect();
            return Ok(vec![
                ("plan", Value::from(report.describe())),
                ("estimates", Value::Array(estimates)),
            ]);
        }

        // FIRST and EXISTS only ever need one row; the explicit limit(1)
        // mirrors what the engine's own terminals do internally and lets the
        // optimizer's early-exit rule fire under every strategy.
        if matches!(lowered.terminal, Terminal::First | Terminal::Exists) {
            traversal = traversal.limit(1);
        }

        let started = Instant::now();
        if lowered.profile {
            let (payload, top_ops) = self.run_profiled(&lowered, &traversal)?;
            self.record_slow(text, started.elapsed(), &traversal, || {
                ("self_time", top_ops)
            });
            Ok(payload)
        } else {
            let (payload, execution) = self.run_plain(&lowered, &traversal)?;
            self.record_slow(text, started.elapsed(), &traversal, || {
                ("estimated_rows", top_estimates(&execution))
            });
            Ok(payload)
        }
    }

    /// Executes a non-`PROFILE` query, attaching per-query [`ExecStats`] to
    /// every terminal's payload. Also returns the [`Execution`] — snapshot
    /// and optimized plan — that produced it, for the slow-query log.
    fn run_plain(
        &mut self,
        lowered: &LoweredQuery,
        traversal: &Traversal,
    ) -> Result<(Payload, Execution), Failure> {
        let (mut payload, execution) = match lowered.terminal {
            Terminal::Rows => {
                // execute() (rather than a raw cursor) so the terminal feeds
                // the process-wide metrics registry like every other arm
                let result = traversal.execute().map_err(|e| Failure::from_engine(&e))?;
                let rows: Vec<Value> = result
                    .rows()
                    .iter()
                    .map(|r| render_row(r, result.snapshot()))
                    .collect();
                self.rows += rows.len() as u64;
                (vec![("rows", Value::Array(rows))], result.into_execution())
            }
            Terminal::Count => {
                let (n, execution) = traversal
                    .count_with_stats()
                    .map_err(|e| Failure::from_engine(&e))?;
                (vec![("count", Value::from(n))], execution)
            }
            Terminal::Exists => {
                let (yes, execution) = traversal
                    .exists_with_stats()
                    .map_err(|e| Failure::from_engine(&e))?;
                (vec![("exists", Value::from(yes))], execution)
            }
            Terminal::First => {
                // the traversal is already limit(1)-ed by op_query, so
                // execute() pulls at most one row and records metrics
                let result = traversal.execute().map_err(|e| Failure::from_engine(&e))?;
                let row = result.rows().first();
                if row.is_some() {
                    self.rows += 1;
                }
                let rendered = row
                    .map(|r| render_row(r, result.snapshot()))
                    .unwrap_or(Value::Null);
                (vec![("row", rendered)], result.into_execution())
            }
        };
        payload.push(("stats", render_stats(execution.stats())));
        Ok((payload, execution))
    }

    /// Executes a `PROFILE` query: the terminal's usual payload plus the
    /// per-stage `trace` tree. Also returns the top-3 costliest ops (by
    /// measured self time) for the slow-query log.
    fn run_profiled(
        &mut self,
        lowered: &LoweredQuery,
        traversal: &Traversal,
    ) -> Result<(Payload, Vec<Value>), Failure> {
        let profiled = traversal.profile().map_err(|e| Failure::from_engine(&e))?;
        let rows = profiled.result.rows();
        let snapshot = profiled.result.snapshot();
        let mut payload = match lowered.terminal {
            Terminal::Rows => {
                let rendered: Vec<Value> = rows.iter().map(|r| render_row(r, snapshot)).collect();
                self.rows += rendered.len() as u64;
                vec![("rows", Value::Array(rendered))]
            }
            Terminal::Count => vec![("count", Value::from(rows.len()))],
            Terminal::Exists => vec![("exists", Value::from(!rows.is_empty()))],
            Terminal::First => {
                if !rows.is_empty() {
                    self.rows += 1;
                }
                vec![(
                    "row",
                    rows.first()
                        .map(|r| render_row(r, snapshot))
                        .unwrap_or(Value::Null),
                )]
            }
        };
        payload.push(("stats", render_stats(profiled.trace.stats)));
        payload.push(("trace", render_trace(&profiled.trace)));

        let mut nodes = profiled.trace.nodes_source_first();
        nodes.sort_by_key(|n| std::cmp::Reverse(n.self_time_ns));
        let top: Vec<Value> = nodes
            .iter()
            .take(3)
            .map(|n| {
                object([
                    ("op", Value::from(n.op.as_str())),
                    ("self_time_us", Value::from(n.self_time_ns / 1_000)),
                    ("rows_out", Value::from(n.rows_out)),
                ])
            })
            .collect();
        Ok((payload, top))
    }

    /// Records a slow-log entry if the query crossed the configured
    /// threshold. `top_ops` names how the entry's top-3 ops are ranked and
    /// lists them: measured self times when the query was profiled,
    /// otherwise the planner's estimates of the plan that ran, on the
    /// generation it ran against (see [`top_estimates`]). It is called only
    /// on the slow path, so a query under the threshold pays nothing for
    /// it, and a slow one pays no second planning pass.
    fn record_slow(
        &self,
        text: &str,
        elapsed: Duration,
        traversal: &Traversal,
        top_ops: impl FnOnce() -> (&'static str, Vec<Value>),
    ) {
        let config = &self.shared.config;
        let Some(threshold) = config.slowlog_threshold else {
            return;
        };
        if elapsed < threshold || config.slowlog_capacity == 0 {
            return;
        }
        let (ranked_by, top_ops) = top_ops();
        let entry = SlowEntry {
            query: text.to_owned(),
            duration_us: elapsed.as_micros() as u64,
            strategy: strategy_name(traversal.current_strategy()),
            session: self.session,
            ranked_by,
            top_ops,
        };
        let mut log = self
            .shared
            .slowlog
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while log.len() >= config.slowlog_capacity {
            log.pop_front();
        }
        log.push_back(entry);
    }
}

/// The top-3 ops of an execution by the planner's estimated row count:
/// [`Execution::estimates`] of the executed plan on the executed snapshot.
fn top_estimates(execution: &Execution) -> Vec<Value> {
    let mut ests = execution.estimates();
    ests.sort_by(|a, b| b.rows.total_cmp(&a.rows));
    ests.iter()
        .take(3)
        .map(|e| {
            object([
                ("op", Value::from(e.op.as_str())),
                ("estimated_rows", Value::from(e.rows)),
            ])
        })
        .collect()
}

impl<'a> Session<'a> {
    /// The `metrics` op: the process-wide registry as structured JSON, or —
    /// with `"format": "prometheus"` — as text exposition format.
    fn op_metrics(&self, req: &Value) -> Result<Vec<(&'static str, Value)>, Failure> {
        match req.get("format").and_then(Value::as_str) {
            Some("prometheus") => Ok(vec![(
                "metrics_text",
                Value::from(registry().render_prometheus()),
            )]),
            None | Some("json") => {
                let metrics: Vec<Value> = registry().snapshot().iter().map(render_metric).collect();
                Ok(vec![("metrics", Value::Array(metrics))])
            }
            Some(other) => Err(Failure::protocol(format!(
                "unknown metrics format {other:?} (expected json or prometheus)"
            ))),
        }
    }

    /// The `slowlog` op: recorded slow queries, newest first.
    fn op_slowlog(&self) -> Result<Vec<(&'static str, Value)>, Failure> {
        let config = &self.shared.config;
        let log = self
            .shared
            .slowlog
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let entries: Vec<Value> = log
            .iter()
            .rev()
            .map(|e| {
                object([
                    ("query", Value::from(e.query.as_str())),
                    ("duration_us", Value::from(e.duration_us)),
                    ("strategy", Value::from(e.strategy)),
                    ("session", Value::from(e.session)),
                    ("ranked_by", Value::from(e.ranked_by)),
                    ("top_ops", Value::Array(e.top_ops.clone())),
                ])
            })
            .collect();
        Ok(vec![
            ("slowlog", Value::Array(entries)),
            (
                "threshold_us",
                config
                    .slowlog_threshold
                    .map(|t| Value::from(t.as_micros() as u64))
                    .unwrap_or(Value::Null),
            ),
            ("capacity", Value::from(config.slowlog_capacity)),
        ])
    }
}

impl<'a> QueryRunner<'a> {
    /// Applies strategy, deadline and memory budget to a traversal.
    fn apply_limits(&self, mut t: Traversal, req: &Value) -> Result<Traversal, Failure> {
        // ignoring the removed row cap would run a query the client meant to
        // bound without that bound
        if req.get("max_intermediate").is_some() {
            return Err(Failure::protocol(
                "\"max_intermediate\" is no longer supported: bound the query with \"memory_budget\" or \"timeout_ms\"",
            ));
        }
        if let Some(name) = req.get("strategy").and_then(Value::as_str) {
            t = t.strategy(parse_strategy(name)?);
        }
        let timeout = req
            .get("timeout_ms")
            .and_then(Value::as_u64)
            .map(Duration::from_millis)
            .or(self.shared.config.default_timeout);
        if let Some(timeout) = timeout {
            t = t.timeout(timeout);
        }
        // resource governance: the query's share of the server-global
        // memory budget; a request may tighten but never loosen it
        let requested_budget = req.get("memory_budget").and_then(Value::as_u64);
        let budget = match (requested_budget, self.shared.query_share) {
            (Some(r), Some(s)) => Some(r.min(s)),
            (r, s) => r.or(s),
        };
        if let Some(bytes) = budget {
            t = t.memory_budget(bytes);
        }
        // a server kill() aborts every in-flight traversal through this
        t = t.cancel_token(&self.shared.cancel);
        Ok(t)
    }
}

/// Serialises run-wide [`ExecStats`] counters.
fn render_stats(stats: ExecStats) -> Value {
    object([
        ("expansions", Value::from(stats.expansions)),
        ("interned_nodes", Value::from(stats.interned_nodes)),
    ])
}

/// Serialises a [`QueryTrace`]: run totals plus the per-op tree.
fn render_trace(trace: &QueryTrace) -> Value {
    object([
        ("strategy", Value::from(strategy_name(trace.strategy))),
        ("total_time_ns", Value::from(trace.total_time_ns)),
        ("root", render_trace_node(&trace.root)),
    ])
}

/// Serialises one [`TraceNode`] with its upstream inputs as `children`.
fn render_trace_node(node: &TraceNode) -> Value {
    object([
        ("op", Value::from(node.op.as_str())),
        ("estimated_rows", Value::from(node.estimated_rows)),
        ("rows_in", Value::from(node.rows_in)),
        ("rows_out", Value::from(node.rows_out)),
        ("pulls", Value::from(node.pulls)),
        ("chunks", Value::from(node.chunks)),
        ("self_time_ns", Value::from(node.self_time_ns)),
        ("total_time_ns", Value::from(node.total_time_ns)),
        ("expansions", Value::from(node.expansions)),
        ("arena_appends", Value::from(node.arena_appends)),
        (
            "children",
            Value::Array(node.children.iter().map(render_trace_node).collect()),
        ),
    ])
}

/// Serialises one registry metric for the `metrics` op's JSON format.
fn render_metric(m: &MetricSnapshot) -> Value {
    let mut fields = vec![("name", Value::from(m.name)), ("help", Value::from(m.help))];
    match &m.value {
        MetricValue::Counter(v) => {
            fields.push(("type", Value::from("counter")));
            fields.push(("value", Value::from(*v)));
        }
        MetricValue::Gauge(v) => {
            fields.push(("type", Value::from("gauge")));
            fields.push(("value", Value::from(*v as f64)));
        }
        MetricValue::Histogram {
            buckets,
            sum_us,
            count,
        } => {
            fields.push(("type", Value::from("histogram")));
            let rendered: Vec<Value> = buckets
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let le = BUCKET_BOUNDS_US
                        .get(i)
                        .map(|b| b.to_string())
                        .unwrap_or_else(|| "+Inf".to_owned());
                    object([("le", Value::from(le)), ("count", Value::from(*c))])
                })
                .collect();
            fields.push(("buckets", Value::Array(rendered)));
            fields.push(("sum_us", Value::from(*sum_us)));
            fields.push(("count", Value::from(*count)));
        }
    }
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The wire name of an [`ExecutionStrategy`] — the same spelling the
/// `strategy` request field accepts.
fn strategy_name(strategy: ExecutionStrategy) -> &'static str {
    match strategy {
        ExecutionStrategy::Materialized => "materialized",
        ExecutionStrategy::Streaming => "streaming",
        ExecutionStrategy::Parallel => "parallel",
    }
}

fn parse_strategy(name: &str) -> Result<ExecutionStrategy, Failure> {
    match name {
        "materialized" => Ok(ExecutionStrategy::Materialized),
        "streaming" => Ok(ExecutionStrategy::Streaming),
        "parallel" => Ok(ExecutionStrategy::Parallel),
        other => Err(Failure::protocol(format!(
            "unknown strategy {other:?} (expected materialized, streaming, or parallel)"
        ))),
    }
}

/// Extracts an optional `props` object, converting JSON values to graph
/// values (integral numbers become `Int`, everything else `Float`).
fn props_of(req: &Value) -> Result<Vec<(String, GraphValue)>, Failure> {
    match req.get("props") {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Object(map)) => map
            .iter()
            .map(|(k, v)| {
                let value = match v {
                    Value::Bool(b) => GraphValue::Bool(*b),
                    Value::Number(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => {
                        GraphValue::Int(*x as i64)
                    }
                    Value::Number(x) => GraphValue::Float(*x),
                    Value::String(s) => GraphValue::Text(s.clone()),
                    other => {
                        return Err(Failure::protocol(format!(
                            "property {k:?} must be a scalar, got {}",
                            other.render()
                        )))
                    }
                };
                Ok((k.clone(), value))
            })
            .collect(),
        Some(other) => Err(Failure::protocol(format!(
            "\"props\" must be an object, got {}",
            other.render()
        ))),
    }
}

/// Serialises one result row: endpoint names, the weight (if the row came
/// out of a weighted search), and the full path as an interleaved
/// `[v0, label0, v1, label1, …]` name array.
fn render_row(row: &ResultRow, snapshot: &mrpa_engine::GraphSnapshot) -> Value {
    let mut path = Vec::with_capacity(2 * row.path.len() + 1);
    let vertices = row.path.vertex_sequence();
    if vertices.is_empty() {
        path.push(Value::from(snapshot.render_vertex(row.head)));
    } else {
        for (i, v) in vertices.iter().enumerate() {
            if i > 0 {
                let label = row.path.edges()[i - 1].label;
                path.push(Value::from(
                    snapshot
                        .interner()
                        .label_name(label)
                        .unwrap_or("?")
                        .to_owned(),
                ));
            }
            path.push(Value::from(snapshot.render_vertex(*v)));
        }
    }
    object([
        ("source", Value::from(snapshot.render_vertex(row.source))),
        ("head", Value::from(snapshot.render_vertex(row.head))),
        ("weight", row.weight.map(Value::from).unwrap_or(Value::Null)),
        ("len", Value::from(row.path.len())),
        ("path", Value::Array(path)),
    ])
}

/// A minimal blocking client for the newline-delimited JSON protocol —
/// enough for tests, benches, and quick shell experiments.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            pending: Vec::new(),
        })
    }

    /// Sends one request line and reads one response line.
    pub fn request(&mut self, line: &str) -> io::Result<Value> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        let text = self.read_line()?;
        json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Convenience: runs an MRPA-QL query with an optional per-request
    /// deadline and returns the decoded response.
    pub fn query(&mut self, text: &str, timeout_ms: Option<u64>) -> io::Result<Value> {
        let mut fields = vec![
            ("op".to_owned(), Value::from("query")),
            ("query".to_owned(), Value::from(text)),
        ];
        if let Some(ms) = timeout_ms {
            fields.push(("timeout_ms".to_owned(), Value::from(ms as f64)));
        }
        let request = Value::Object(fields.into_iter().collect());
        self.request(&request.render())
    }

    fn read_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=pos).collect();
                return Ok(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrpa_engine::classic_social_graph;

    fn start() -> (RunningServer, Client) {
        let server = serve(
            classic_social_graph(),
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let client = Client::connect(server.local_addr()).unwrap();
        (server, client)
    }

    #[test]
    fn the_retry_hint_is_the_queued_work_between_a_floor_and_half_the_deadline() {
        let config = ServerConfig {
            worker_threads: 2,
            queue_deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        };
        let hint = |depth, mean_ms| retry_hint_ms(&config, depth, Duration::from_millis(mean_ms));
        // an empty queue (or no job measured yet): the 10 ms floor
        assert_eq!(hint(0, 40), 10);
        assert_eq!(hint(6, 0), 10);
        // 6 queued jobs of 40 ms over 2 workers clear in 120 ms
        assert_eq!(hint(6, 40), 120);
        // a deep queue of slow jobs: the old ceiling, half the deadline
        assert_eq!(hint(64, 1_000), 250);
        assert_eq!(hint(usize::MAX, u64::MAX), 250);
    }

    #[test]
    fn ping_echoes_id_and_reports_store_state() {
        let (server, mut client) = start();
        let r = client.request(r#"{"id":41,"op":"ping"}"#).unwrap();
        assert_eq!(r.get("id").and_then(Value::as_u64), Some(41));
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(r.get("pong").and_then(Value::as_bool), Some(true));
        assert!(r.get("store").and_then(|s| s.get("generation")).is_some());
        // the CSR gauges ride every response envelope
        assert!(r.get("store").and_then(|s| s.get("csr_builds")).is_some());
        assert!(r.get("store").and_then(|s| s.get("csr_bytes")).is_some());
        server.shutdown();
    }

    #[test]
    fn the_headline_query_returns_rendered_rows() {
        let (server, mut client) = start();
        let r = client
            .query(
                r#"FROM person:marko MATCH -[knows+·created]-> WHERE dst.lang = "java" CHEAPEST BY weight TOP 3"#,
                None,
            )
            .unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
        let rows = r.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("head").and_then(Value::as_str), Some("lop"));
        assert_eq!(rows[0].get("weight").and_then(Value::as_f64), Some(1.4));
        assert_eq!(rows[1].get("head").and_then(Value::as_str), Some("ripple"));
        // interleaved path: marko -knows-> josh -created-> lop
        let path: Vec<&str> = rows[0]
            .get("path")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(path, ["marko", "knows", "josh", "created", "lop"]);
        server.shutdown();
    }

    #[test]
    fn parse_errors_carry_span_and_caret_diagnostic() {
        let (server, mut client) = start();
        let r = client.query("FROM marko MATCH -[knows+]-", None).unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
        let err = r.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Value::as_str), Some("parse"));
        let diagnostic = err.get("diagnostic").and_then(Value::as_str).unwrap();
        assert!(diagnostic.contains('^'), "no caret in: {diagnostic}");
        assert!(err.get("span").and_then(|s| s.get("start")).is_some());
        server.shutdown();
    }

    #[test]
    fn terminals_and_explain_round_trip() {
        let (server, mut client) = start();
        let r = client.query("FROM marko OUT knows COUNT", None).unwrap();
        assert_eq!(r.get("count").and_then(Value::as_u64), Some(2));
        let r = client.query("FROM vadas OUT created EXISTS", None).unwrap();
        assert_eq!(r.get("exists").and_then(Value::as_bool), Some(false));
        let r = client.query("FROM marko OUT created FIRST", None).unwrap();
        assert_eq!(
            r.get("row")
                .and_then(|row| row.get("head"))
                .and_then(Value::as_str),
            Some("lop")
        );
        let r = client
            .query("EXPLAIN FROM marko MATCH -[knows+]->", None)
            .unwrap();
        assert!(r.get("plan").and_then(Value::as_str).unwrap().len() > 10);
        assert!(!r
            .get("estimates")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
        server.shutdown();
    }

    #[test]
    fn every_terminal_carries_exec_stats() {
        let (server, mut client) = start();
        for q in [
            "FROM marko OUT knows",
            "FROM marko OUT knows COUNT",
            "FROM marko OUT knows EXISTS",
            "FROM marko OUT knows FIRST",
        ] {
            let r = client.query(q, None).unwrap();
            assert_eq!(
                r.get("ok").and_then(Value::as_bool),
                Some(true),
                "{q}: {r:?}"
            );
            let stats = r.get("stats").unwrap_or_else(|| panic!("{q}: no stats"));
            assert!(stats.get("expansions").and_then(Value::as_u64).is_some());
            assert!(stats
                .get("interned_nodes")
                .and_then(Value::as_u64)
                .is_some());
        }
        server.shutdown();
    }

    /// Walks a trace tree checking the chain invariant: every node's
    /// `rows_in` equals its (single) child's `rows_out`.
    fn check_trace_node(node: &Value) -> u64 {
        let children = node.get("children").and_then(Value::as_array).unwrap();
        assert!(children.len() <= 1, "plans are chains");
        if let Some(child) = children.first() {
            let child_out = check_trace_node(child);
            assert_eq!(
                node.get("rows_in").and_then(Value::as_u64),
                Some(child_out),
                "rows_in must equal the child's rows_out: {node:?}"
            );
        } else {
            assert_eq!(node.get("rows_in").and_then(Value::as_u64), Some(0));
        }
        node.get("rows_out").and_then(Value::as_u64).unwrap()
    }

    #[test]
    fn profile_returns_a_consistent_trace_tree() {
        let (server, mut client) = start();
        let r = client
            .query("PROFILE FROM marko MATCH -[knows+·created]->", None)
            .unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
        let rows = r.get("rows").and_then(Value::as_array).unwrap();
        let trace = r.get("trace").unwrap();
        assert!(trace.get("strategy").and_then(Value::as_str).is_some());
        assert!(trace.get("total_time_ns").and_then(Value::as_u64).is_some());
        let root = trace.get("root").unwrap();
        // the root op's output is exactly the rows the client received
        let root_out = check_trace_node(root);
        assert_eq!(root_out as usize, rows.len());
        // stats ride along with the trace
        assert!(r
            .get("stats")
            .and_then(|s| s.get("expansions"))
            .and_then(Value::as_u64)
            .is_some());
        // PROFILE works for the other terminals too
        let r = client
            .query("PROFILE FROM marko OUT knows COUNT", None)
            .unwrap();
        assert_eq!(r.get("count").and_then(Value::as_u64), Some(2));
        assert!(r.get("trace").is_some());
        server.shutdown();
    }

    #[test]
    fn metrics_op_serves_json_and_prometheus() {
        let (server, mut client) = start();
        // at least one query so the query counters are alive
        client.query("FROM marko OUT knows COUNT", None).unwrap();
        let r = client.request(r#"{"op":"metrics"}"#).unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
        let metrics = r.get("metrics").and_then(Value::as_array).unwrap();
        let queries = metrics
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("mrpa_queries_total"))
            .expect("mrpa_queries_total registered");
        assert_eq!(queries.get("type").and_then(Value::as_str), Some("counter"));
        assert!(queries.get("value").and_then(Value::as_u64).unwrap() >= 1);
        let latency = metrics
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("mrpa_query_latency_us"))
            .expect("latency histogram registered");
        assert_eq!(
            latency.get("type").and_then(Value::as_str),
            Some("histogram")
        );
        assert!(!latency
            .get("buckets")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());

        let r = client
            .request(r#"{"op":"metrics","format":"prometheus"}"#)
            .unwrap();
        let text = r.get("metrics_text").and_then(Value::as_str).unwrap();
        assert!(text.contains("# TYPE mrpa_queries_total counter"), "{text}");
        assert!(text.contains("mrpa_query_latency_us_bucket{le=\"+Inf\"}"));

        let r = client
            .request(r#"{"op":"metrics","format":"xml"}"#)
            .unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
        server.shutdown();
    }

    #[test]
    fn slowlog_records_threshold_crossers_with_top_ops() {
        let server = serve(
            classic_social_graph(),
            ServerConfig {
                slowlog_threshold: Some(Duration::ZERO),
                slowlog_capacity: 4,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.query("FROM marko OUT knows COUNT", None).unwrap();
        client
            .query("PROFILE FROM marko MATCH -[knows+]->", None)
            .unwrap();
        let r = client.request(r#"{"op":"slowlog"}"#).unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
        assert_eq!(r.get("threshold_us").and_then(Value::as_u64), Some(0));
        assert_eq!(r.get("capacity").and_then(Value::as_u64), Some(4));
        let entries = r.get("slowlog").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 2);
        // newest first: the profiled query ranks its ops by measured time
        let profiled = &entries[0];
        assert_eq!(
            profiled.get("query").and_then(Value::as_str),
            Some("PROFILE FROM marko MATCH -[knows+]->")
        );
        assert_eq!(
            profiled.get("ranked_by").and_then(Value::as_str),
            Some("self_time")
        );
        let plain = &entries[1];
        assert_eq!(
            plain.get("ranked_by").and_then(Value::as_str),
            Some("estimated_rows")
        );
        for entry in entries {
            assert!(entry.get("duration_us").and_then(Value::as_u64).is_some());
            assert!(entry.get("strategy").and_then(Value::as_str).is_some());
            let ops = entry.get("top_ops").and_then(Value::as_array).unwrap();
            assert!(!ops.is_empty() && ops.len() <= 3, "{ops:?}");
            for op in ops {
                assert!(op.get("op").and_then(Value::as_str).is_some());
            }
        }
        server.shutdown();
    }

    #[test]
    fn mutations_are_writer_gated_and_visible_to_queries() {
        let (server, mut writer) = start();
        let mut reader = Client::connect(server.local_addr()).unwrap();

        // unclaimed mutation is refused
        let r = writer
            .request(r#"{"op":"add_vertex","name":"nadia"}"#)
            .unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));

        assert_eq!(
            writer
                .request(r#"{"op":"claim_writer"}"#)
                .unwrap()
                .get("ok")
                .and_then(Value::as_bool),
            Some(true)
        );
        // a second claimant is refused while the slot is held
        let r = reader.request(r#"{"op":"claim_writer"}"#).unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));

        let r = writer
            .request(r#"{"op":"add_vertex","name":"nadia","props":{"kind":"person","age":33}}"#)
            .unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
        let r = writer
            .request(
                r#"{"op":"add_edge","tail":"marko","label":"knows","head":"nadia","props":{"weight":0.9}}"#,
            )
            .unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");

        // the other session sees the new edge immediately
        let r = reader.query("FROM marko OUT knows COUNT", None).unwrap();
        assert_eq!(r.get("count").and_then(Value::as_u64), Some(3));
        server.shutdown();
    }

    #[test]
    fn timeouts_cancel_cleanly_and_do_not_poison_the_session() {
        let (server, mut client) = start();
        let r = client
            .query("FROM * MATCH -[(knows|created)*]->", Some(0))
            .unwrap();
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            r.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("timeout")
        );
        // the same connection keeps working after a cancelled traversal
        let r = client.query("FROM marko OUT knows COUNT", None).unwrap();
        assert_eq!(r.get("count").and_then(Value::as_u64), Some(2));
        server.shutdown();
    }

    #[test]
    fn a_threads_field_is_accepted_and_ignored() {
        let (server, mut client) = start();
        let query = |client: &mut Client, extra: &str| {
            let line = format!(
                r#"{{"op":"query","query":"FROM * OUT knows, created","strategy":"parallel"{extra}}}"#
            );
            let r = client.request(&line).unwrap();
            assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
            r.get("rows").cloned().unwrap()
        };
        let plain = query(&mut client, "");
        assert_eq!(plain.as_array().map(|rows| rows.len()), Some(6));
        for threads in [1, 4, 1_000_000] {
            let with = query(&mut client, &format!(r#","threads":{threads}"#));
            assert_eq!(with, plain, "threads {threads}");
        }
        server.shutdown();
    }
}
