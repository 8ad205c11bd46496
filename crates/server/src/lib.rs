//! `fdb-server` — a concurrent TCP query-serving layer over the
//! factorised-database engine.
//!
//! The paper's premise is build-once-query-many: a factorised
//! representation is compiled once and then supports many cheap
//! aggregation and ordering passes. This crate turns that premise into
//! a service: one [`fdb::Db`] holds the registered inputs (immutable
//! `FRep` arenas and relations behind `Arc`), a small accept loop feeds
//! a fixed worker pool, and every worker answers queries from its own
//! [`fdb::Session`] snapshot — reads share the arenas, no locks are
//! held during execution, and results are byte-identical to the
//! single-threaded library run.
//!
//! Architecture:
//!
//! * **Accept loop** (one thread): non-blocking `accept` polled against
//!   the shutdown flag; accepted connections go into a `Mutex<VecDeque>`
//!   + `Condvar` queue.
//! * **Worker pool** (`workers` of them, default [`DEFAULT_WORKERS`]):
//!   each pops a connection and serves its requests to completion. A
//!   worker keeps one [`fdb::Session`] and re-snapshots when the
//!   database [epoch](fdb::Db::epoch) moves (after a `LOAD` or a write:
//!   `INSERT`/`DELETE` swap in a copy-on-write snapshot and bump the
//!   epoch, so readers never block on writers and cached responses from
//!   earlier epochs are never served again).
//! * **Plan cache** ([`cache::PlanCache`]): rendered responses keyed by
//!   normalised query text + epoch, bounded, FIFO-evicted.
//! * **Deadlines**: every request runs with
//!   [`RunOptions::deadline`](fdb::core::RunOptions), so a pathological
//!   enumeration returns `ERR deadline exceeded: …` instead of wedging
//!   its worker; reads poll a socket timeout so idle connections cannot
//!   block shutdown.
//!
//! The wire protocol is documented in [`proto`]; DESIGN.md §8 covers
//! the sharing discipline and cache/timeout semantics.

pub mod cache;
pub mod proto;

use cache::{CachedLines, PlanCache};
use fdb::core::RunOptions;
use fdb::Db;
use proto::{err_line, ok_header, Request};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default worker-pool size: the acceptance bar is 16 concurrent
/// connections, and a worker owns its connection until the client
/// quits, so the pool must not be smaller than the target concurrency.
pub const DEFAULT_WORKERS: usize = 16;

/// Default per-request run budget.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(10);

/// Default plan-cache capacity (entries).
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// How often blocked socket reads and idle workers re-check the
/// shutdown flag; bounds shutdown latency.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server configuration. `#[non_exhaustive]` + builders, like
/// [`RunOptions`]: future knobs must not be breaking changes.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServerOptions {
    /// Workers (connections served concurrently).
    pub workers: usize,
    /// Per-request run budget; `None` disables deadlines.
    pub deadline: Option<Duration>,
    /// Plan-cache capacity in entries; `0` disables the cache.
    pub cache_capacity: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: DEFAULT_WORKERS,
            deadline: Some(DEFAULT_DEADLINE),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }
}

impl ServerOptions {
    /// Alias for [`ServerOptions::default`], reads better in chains.
    pub fn new() -> Self {
        ServerOptions::default()
    }

    /// Sets the worker-pool size. `0` means auto ([`auto_workers`]):
    /// twice the machine's parallelism, capped at [`DEFAULT_WORKERS`] —
    /// workers mostly block on sockets, so modest oversubscription is
    /// the right trade, but the floor tracks the hardware instead of
    /// pinning 16 workers onto a 2-core runner.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets (or with `None` disables) the per-request deadline.
    pub fn deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the plan-cache capacity; `0` disables caching.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// The per-request run options: the server deadline.
    fn request_options(&self) -> RunOptions {
        RunOptions::new().deadline(self.deadline)
    }
}

/// Live server counters, surfaced by the `STATS` verb.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    queries: AtomicU64,
    errors: AtomicU64,
    /// Applied `INSERT`/`DELETE` statements (each bumps the epoch when
    /// rows actually changed).
    writes: AtomicU64,
    /// `ROW` point lookups (counted on top of the per-strategy counter
    /// of whatever physical strategy answered the seek).
    row_lookups: AtomicU64,
    /// Executed queries by physical ordering strategy (cache hits are
    /// not re-counted — the cached response never re-executes).
    strategy_unordered: AtomicU64,
    strategy_stream: AtomicU64,
    strategy_direct: AtomicU64,
    strategy_heap: AtomicU64,
    strategy_sort: AtomicU64,
}

impl Counters {
    fn count_strategy(&self, strategy: fdb::core::engine::OrderStrategy) {
        use fdb::core::engine::OrderStrategy;
        let counter = match strategy {
            OrderStrategy::Unordered => &self.strategy_unordered,
            OrderStrategy::StreamInTree => &self.strategy_stream,
            OrderStrategy::DirectAccess => &self.strategy_direct,
            OrderStrategy::HeapTopK => &self.strategy_heap,
            OrderStrategy::CollectSortCut => &self.strategy_sort,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// State shared by the accept loop and every worker.
#[derive(Debug)]
struct Shared {
    db: Db,
    opts: ServerOptions,
    cache: PlanCache,
    counters: Counters,
    /// Accepted connections awaiting a worker. Only pushes and pops run
    /// under the lock, so a poisoned queue is still consistent and is
    /// recovered rather than taking the accept loop and workers down.
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn new(db: Db, opts: ServerOptions) -> Shared {
        Shared {
            cache: PlanCache::new(opts.cache_capacity),
            db,
            opts,
            counters: Counters::default(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }
}

/// A running server: its bound address plus the thread handles needed
/// for a clean [`shutdown`](ServerHandle::shutdown).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of workers actually spawned (after `0` = auto
    /// resolution via [`auto_workers`]). Drops to 0 once
    /// [`shutdown`](ServerHandle::shutdown) has joined the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Signals shutdown and joins every thread. In-flight requests
    /// finish; idle connections are dropped within one poll interval
    /// (~100 ms). Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Resolved worker count for `workers == 0` (auto): twice the
/// machine's parallelism — workers mostly block on sockets, so modest
/// oversubscription keeps the cores busy — capped at
/// [`DEFAULT_WORKERS`] and never below the core count itself on bigger
/// machines.
pub fn auto_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    cores.max((2 * cores).min(DEFAULT_WORKERS))
}

/// Binds `addr` and spawns the accept loop plus the worker pool,
/// serving queries against `db`. Returns once listening; use
/// [`ServerHandle::addr`] to learn the bound port when `addr` ends in
/// `:0`.
pub fn spawn(
    db: Db,
    addr: impl ToSocketAddrs,
    opts: ServerOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let mut opts = opts;
    if opts.workers == 0 {
        opts.workers = auto_workers();
    }

    let shared = Arc::new(Shared::new(db, opts));

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("fdb-accept".into())
            .spawn(move || accept_loop(listener, &shared))?
    };

    let workers = (0..shared.opts.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("fdb-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
                queue.push_back(stream);
                drop(queue);
                shared.available.notify_one();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept error (e.g. aborted handshake);
                // keep serving unless shutting down.
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    // The worker's snapshot, cut lazily and refreshed on epoch change.
    let mut session: Option<fdb::Session> = None;
    loop {
        let stream = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (q, _) = shared
                    .available
                    .wait_timeout(queue, POLL_INTERVAL)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
            }
        };
        let Some(stream) = stream else { return };
        serve_connection(stream, shared, &mut session);
    }
}

/// Serves one connection until EOF, `QUIT`, an I/O error, or shutdown.
fn serve_connection(stream: TcpStream, shared: &Shared, session: &mut Option<fdb::Session>) {
    // A bounded read timeout keeps idle connections from pinning the
    // worker across shutdown.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let quit = matches!(proto::parse_request(&line), Ok(Request::Quit));
        let response = handle_line(&line, shared, session);
        if write_response(&mut writer, &response).is_err() {
            return;
        }
        if quit || shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

/// One response: the status line plus its payload lines — owned, or the
/// very lines the plan cache holds. A cached (or just-cached) result is
/// written to the socket from the shared allocation; no hit copies it.
#[derive(Debug)]
struct Response {
    status: String,
    payload: Payload,
}

#[derive(Debug)]
enum Payload {
    Owned(Vec<String>),
    Shared(CachedLines),
}

impl Response {
    fn ok(payload: Vec<String>) -> Response {
        Response {
            status: ok_header(payload.len()),
            payload: Payload::Owned(payload),
        }
    }

    fn ok_shared(lines: CachedLines) -> Response {
        Response {
            status: ok_header(lines.len()),
            payload: Payload::Shared(lines),
        }
    }

    fn err(msg: &str) -> Response {
        Response {
            status: err_line(msg),
            payload: Payload::Owned(Vec::new()),
        }
    }

    fn is_err(&self) -> bool {
        self.status.starts_with("ERR")
    }

    fn lines(&self) -> &[String] {
        match &self.payload {
            Payload::Owned(lines) => lines,
            Payload::Shared(lines) => lines,
        }
    }
}

fn write_response(w: &mut impl Write, response: &Response) -> std::io::Result<()> {
    for line in std::iter::once(&response.status).chain(response.lines()) {
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

fn handle_line(line: &str, shared: &Shared, session: &mut Option<fdb::Session>) -> Response {
    let request = match proto::parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return Response::err(&e);
        }
    };
    let response = handle_request(&request, shared, session);
    if response.is_err() {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    }
    response
}

/// Cuts or refreshes the worker's snapshot so it reflects the current
/// database epoch.
fn fresh_session<'a>(
    shared: &Shared,
    session: &'a mut Option<fdb::Session>,
) -> &'a mut fdb::Session {
    let current = shared.db.epoch();
    if session.as_ref().map(fdb::Session::epoch) != Some(current) {
        *session = Some(
            shared
                .db
                .session()
                .with_options(shared.opts.request_options()),
        );
    }
    session.as_mut().expect("session just cut")
}

/// The shared `QUERY`/`ROW` execution path: serve from the epoch-keyed
/// cache when possible, else run on a fresh snapshot and cache the
/// rendered response under the snapshot's epoch.
fn run_cached_query(key: String, shared: &Shared, session: &mut Option<fdb::Session>) -> Response {
    let epoch = shared.db.epoch();
    if let Some(lines) = shared.cache.get(epoch, &key) {
        return Response::ok_shared(lines);
    }
    let s = fresh_session(shared, session);
    match s.query(&key) {
        Ok(outcome) => {
            shared.counters.count_strategy(outcome.strategy);
            let lines = Arc::new(proto::render_outcome(&outcome));
            shared.cache.put(s.epoch(), key, Arc::clone(&lines));
            Response::ok_shared(lines)
        }
        Err(e) => Response::err(&e.to_string()),
    }
}

fn handle_request(
    request: &Request,
    shared: &Shared,
    session: &mut Option<fdb::Session>,
) -> Response {
    match request {
        Request::Ping | Request::Quit => Response::ok(Vec::new()),
        Request::Query(sql) => {
            shared.counters.queries.fetch_add(1, Ordering::Relaxed);
            run_cached_query(proto::normalise_sql(sql), shared, session)
        }
        Request::Row { index, sql } => {
            // The point lookup is QUERY with `LIMIT 1 OFFSET i` layered
            // on: the planner's direct-access costing then realises the
            // order and seeks straight to the row via the count
            // annotations — O(depth·log fanout), no prefix scan. The
            // target query must not carry LIMIT/OFFSET of its own (the
            // appended clause would clash and the parser rejects the
            // duplicate, so the restriction is enforced for free).
            shared.counters.queries.fetch_add(1, Ordering::Relaxed);
            shared.counters.row_lookups.fetch_add(1, Ordering::Relaxed);
            let key = format!("{} LIMIT 1 OFFSET {index}", proto::normalise_sql(sql));
            run_cached_query(key, shared, session)
        }
        Request::Insert(sql) | Request::Delete(sql) => {
            shared.counters.writes.fetch_add(1, Ordering::Relaxed);
            match shared.db.execute(sql) {
                Ok(report) => Response::ok(vec![
                    proto::join_fields(["inserted", report.inserted.to_string().as_str()]),
                    proto::join_fields(["deleted", report.deleted.to_string().as_str()]),
                ]),
                Err(e) => Response::err(&e.to_string()),
            }
        }
        Request::Explain(sql) => {
            let s = fresh_session(shared, session);
            match s.explain(&proto::normalise_sql(sql)) {
                Ok(text) => Response::ok(proto::render_text(&text)),
                Err(e) => Response::err(&e.to_string()),
            }
        }
        Request::Load { name, path } => {
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => return Response::err(&format!("cannot open `{path}`: {e}")),
            };
            match shared.db.load_view(name.clone(), BufReader::new(file)) {
                Ok(()) => Response::ok(Vec::new()),
                Err(e) => Response::err(&e.to_string()),
            }
        }
        Request::Stats => Response::ok(stats_payload(shared)),
    }
}

fn stats_payload(shared: &Shared) -> Vec<String> {
    let (hits, misses, entries) = shared.cache.stats();
    let (relations, views) = shared.db.input_names();
    let pairs: Vec<(&str, String)> = vec![
        ("epoch", shared.db.epoch().to_string()),
        ("workers", shared.opts.workers.to_string()),
        (
            "connections",
            shared
                .counters
                .connections
                .load(Ordering::Relaxed)
                .to_string(),
        ),
        (
            "queries",
            shared.counters.queries.load(Ordering::Relaxed).to_string(),
        ),
        (
            "errors",
            shared.counters.errors.load(Ordering::Relaxed).to_string(),
        ),
        (
            "writes",
            shared.counters.writes.load(Ordering::Relaxed).to_string(),
        ),
        (
            "row_lookups",
            shared
                .counters
                .row_lookups
                .load(Ordering::Relaxed)
                .to_string(),
        ),
        ("cache_hits", hits.to_string()),
        ("cache_misses", misses.to_string()),
        ("cache_entries", entries.to_string()),
        (
            "strategy_unordered",
            shared
                .counters
                .strategy_unordered
                .load(Ordering::Relaxed)
                .to_string(),
        ),
        (
            "strategy_stream",
            shared
                .counters
                .strategy_stream
                .load(Ordering::Relaxed)
                .to_string(),
        ),
        (
            "strategy_direct",
            shared
                .counters
                .strategy_direct
                .load(Ordering::Relaxed)
                .to_string(),
        ),
        (
            "strategy_heap",
            shared
                .counters
                .strategy_heap
                .load(Ordering::Relaxed)
                .to_string(),
        ),
        (
            "strategy_sort",
            shared
                .counters
                .strategy_sort
                .load(Ordering::Relaxed)
                .to_string(),
        ),
        ("relations", relations.join(",")),
        ("views", views.join(",")),
    ];
    pairs
        .into_iter()
        .map(|(k, v)| proto::join_fields([proto::escape_field(k), proto::escape_field(&v)]))
        .collect()
}

/// A minimal blocking client for tests and the load-driving bench:
/// one connection, lock-step request/response.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// Sends one request line and reads the full framed response.
    /// `Ok(payload)` for `OK <n>` responses, `Err(message)` for `ERR`;
    /// transport failures surface as `std::io::Error`.
    pub fn request(&mut self, line: &str) -> std::io::Result<Result<Vec<String>, String>> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut status = String::new();
        if self.reader.read_line(&mut status)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection before responding",
            ));
        }
        let status = status.trim_end();
        if let Some(msg) = status.strip_prefix("ERR ") {
            let msg = proto::unescape_field(msg).unwrap_or_else(|_| msg.to_string());
            return Ok(Err(msg));
        }
        let Some(n) = status
            .strip_prefix("OK ")
            .or(if status == "OK" { Some("0") } else { None })
            .and_then(|n| n.trim().parse::<usize>().ok())
        else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed status line `{status}`"),
            ));
        };
        let mut payload = Vec::with_capacity(n);
        for _ in 0..n {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed connection mid-payload",
                ));
            }
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            payload.push(line);
        }
        Ok(Ok(payload))
    }

    /// `QUERY <sql>`, returning the raw payload lines (header + rows).
    pub fn query(&mut self, sql: &str) -> std::io::Result<Result<Vec<String>, String>> {
        self.request(&format!("QUERY {sql}"))
    }

    /// `QUIT`, then drops the connection.
    pub fn quit(mut self) -> std::io::Result<()> {
        let _ = self.request("QUIT")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb::{Relation, Schema, Value};

    /// Collects what is written and, at every write, how many handles
    /// the payload being written has.
    struct Probe<'a> {
        bytes: Vec<u8>,
        lines: &'a CachedLines,
        fewest_handles: usize,
    }

    impl Write for Probe<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.fewest_handles = self.fewest_handles.min(Arc::strong_count(self.lines));
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn written(response: &Response) -> (Vec<u8>, usize) {
        let Payload::Shared(lines) = &response.payload else {
            panic!("a query response carries the cacheable payload: {response:?}");
        };
        let mut probe = Probe {
            bytes: Vec::new(),
            lines,
            fewest_handles: usize::MAX,
        };
        write_response(&mut probe, response).unwrap();
        (probe.bytes, probe.fewest_handles)
    }

    #[test]
    fn a_cache_hit_writes_from_the_shared_payload() {
        // Regression: every hit deep-copied the cached lines (and every
        // miss copied them once more on the way into the cache).
        let db = Db::open();
        let (a, b) = {
            let mut catalog = db.catalog();
            (catalog.intern("a"), catalog.intern("b"))
        };
        let rows = (0..5_000).map(|i| vec![Value::Int(i), Value::str(format!("row\t{i}"))]);
        db.register_relation("T", Relation::from_rows(Schema::new(vec![a, b]), rows));
        let shared = Shared::new(db, ServerOptions::new());
        let mut session = None;

        let miss = handle_line("QUERY SELECT a, b FROM T", &shared, &mut session);
        let hit = handle_line("QUERY  SELECT a, b  FROM T ;", &shared, &mut session);
        assert_eq!(shared.cache.stats(), (1, 1, 1), "one miss, then one hit");
        assert_eq!(hit.lines().len(), 5_001);

        // During the write the cache and the response hold the same
        // allocation: nothing was copied to produce the response.
        let (hit_bytes, handles) = written(&hit);
        assert!(handles > 1, "payload had {handles} handle(s) mid-write");
        let (miss_bytes, _) = written(&miss);
        assert_eq!(hit_bytes, miss_bytes);
        assert!(hit_bytes.starts_with(b"OK 5001\na\tb\n0\trow\\t0\n"));
        match (&miss.payload, &hit.payload) {
            (Payload::Shared(m), Payload::Shared(h)) => assert!(Arc::ptr_eq(m, h)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_responses_are_one_status_line() {
        let shared = Shared::new(Db::open(), ServerOptions::new());
        let response = handle_line("QUERY SELECT x FROM Nowhere", &shared, &mut None);
        assert!(response.is_err() && response.lines().is_empty());
        let mut bytes = Vec::new();
        write_response(&mut bytes, &response).unwrap();
        assert!(bytes.starts_with(b"ERR ") && bytes.ends_with(b"\n"));
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 1);
        assert_eq!(shared.counters.errors.load(Ordering::Relaxed), 1);
    }
}
