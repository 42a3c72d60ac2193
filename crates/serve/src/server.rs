//! A dependency-free TCP server over a [`StoreHandler`].
//!
//! Built on `std::net` only (no async runtime): an accept loop feeds a
//! fixed-size pool of worker threads over a channel; each worker shares
//! the handler (an `Arc` bump) and **multiplexes every connection handed
//! to it** with nonblocking reads, so a worker is never parked on one
//! idle client while others wait. Connections speak the line protocol of
//! [`crate::protocol`]: one request per line, one response line back.
//!
//! There is one way to serve: [`Server::bind`] takes a [`StoreHandler`]
//! over a live multi-tenant
//! [`ReleaseStore`](privpath_store::ReleaseStore) (query verbs with
//! namespace refs, plus the [admin verbs](crate::admin) unless the
//! handler is read-only) or over a frozen release set
//! ([`StoreHandler::frozen`], one read-only namespace).
//!
//! Three properties the serving story needs:
//!
//! * **Per-connection error isolation** — a malformed line gets an
//!   `error malformed ...` response and the connection keeps going; an
//!   I/O failure (or a line overflowing [`MAX_LINE_BYTES`]) kills only
//!   its own connection and is counted in
//!   [`ServerStats::connection_errors`].
//! * **No starvation** — because workers multiplex, the `shutdown`
//!   control line is serviced even when every worker already holds
//!   long-lived idle connections.
//! * **Graceful shutdown** — `shutdown` (a server command, not part of
//!   [`crate::QueryRequest`]) is acknowledged with `ok shutdown`, after
//!   which the server stops accepting, closes remaining connections,
//!   joins its workers, and returns its stats.

use crate::admin::ADMIN_VERBS;
use crate::live::{StoreHandler, QUERY_VERBS};
use crate::protocol::{ErrorCode, QueryResponse};
use privpath_obs::{Counter, MetricRegistry};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The acknowledgement line sent for the `shutdown` control command.
pub const SHUTDOWN_ACK: &str = "ok shutdown";

/// Longest accepted request line (newline included). A connection that
/// exceeds it gets an error response and is closed, so a newline-free
/// byte stream cannot grow a buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

const ACCEPT_POLL: Duration = Duration::from_millis(5);
// 1ms, not 5: a closed-loop client's next request lands one sleep after
// the previous answer, so the idle-pass sleep is a direct latency floor
// for request/response workloads (bench_load's p99 tracks it).
const WORKER_POLL: Duration = Duration::from_millis(1);
const WRITE_POLL: Duration = Duration::from_millis(1);

/// Totals observed over a server's lifetime, returned by
/// [`Server::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines answered (including error responses).
    pub requests: u64,
    /// Connections that died on an I/O error or an oversized line.
    pub connection_errors: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    connection_errors: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            connection_errors: self.connection_errors.load(Ordering::Relaxed),
        }
    }
}

/// Cached registry handles for the per-request hot path (one `OnceLock`
/// read per event instead of a registry lookup).
struct ServeMetrics {
    bytes_read: Counter,
    bytes_written: Counter,
    queue_wait: Arc<privpath_obs::Histogram>,
}

fn serve_metrics() -> &'static ServeMetrics {
    static CELL: OnceLock<ServeMetrics> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = MetricRegistry::global();
        ServeMetrics {
            bytes_read: reg.counter("serve_bytes_read_total"),
            bytes_written: reg.counter("serve_bytes_written_total"),
            queue_wait: reg.histogram("serve_queue_wait_seconds"),
        }
    })
}

/// Maps a raw request line onto a verb label from the *known* verb sets.
/// Raw client tokens never become label values — an unrecognized verb
/// (attacker-chosen bytes included) is labelled `"unknown"`, so the
/// label space stays bounded and public.
pub(crate) fn known_verb(line: &str) -> &'static str {
    let verb = line.split_whitespace().next().unwrap_or_default();
    QUERY_VERBS
        .iter()
        .chain(ADMIN_VERBS.iter())
        .find(|&&v| v == verb)
        .copied()
        .unwrap_or("unknown")
}

/// Records one answered request: per-verb count and latency, per-code
/// error count, and byte totals. The error code is re-validated through
/// [`ErrorCode::parse`] so only the fixed code vocabulary (plus
/// `"unknown"`) can appear as a label value.
fn record_request(verb: &'static str, request_bytes: usize, response: &str, seconds: f64) {
    if !privpath_obs::enabled() {
        return;
    }
    let reg = MetricRegistry::global();
    reg.counter_with("serve_requests_total", &[("verb", verb)])
        .inc();
    reg.histogram_with("serve_request_seconds", &[("verb", verb)])
        .observe(seconds);
    serve_metrics().bytes_read.inc_by(request_bytes as u64 + 1);
    serve_metrics()
        .bytes_written
        .inc_by(response.len() as u64 + 1);
    if let Some(rest) = response.strip_prefix("error ") {
        let tok = rest.split_whitespace().next().unwrap_or_default();
        let code = ErrorCode::parse(tok).map_or("unknown", |c| c.as_str());
        reg.counter_with("serve_errors_total", &[("code", code)])
            .inc();
    }
}

/// A bound-but-not-yet-running query server.
pub struct Server {
    listener: TcpListener,
    handler: Arc<StoreHandler>,
    threads: usize,
}

impl Server {
    /// Binds to `addr` (use port 0 for an OS-assigned ephemeral port)
    /// serving `handler`, with a default pool of 4 worker threads.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, handler: StoreHandler) -> io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            handler: Arc::new(handler),
            threads: 4,
        })
    }

    /// Sets the worker pool size (minimum 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The bound address (reports the real port after binding port 0).
    ///
    /// # Errors
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs until a client sends the `shutdown` control line, then
    /// closes remaining connections and returns the lifetime stats.
    ///
    /// # Errors
    /// Propagates accept-loop setup failures; per-connection errors are
    /// isolated and counted instead.
    pub fn run(self) -> io::Result<ServerStats> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        // Each accepted stream carries its accept timestamp so workers
        // can report time spent queued (`serve_queue_wait_seconds`).
        let (tx, rx) = mpsc::channel::<(TcpStream, Instant)>();
        let rx = Arc::new(Mutex::new(rx));

        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(self.threads);
        for _ in 0..self.threads {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&self.handler);
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            workers.push(std::thread::spawn(move || {
                worker_loop(&rx, handler.as_ref(), &shutdown, &counters)
            }));
        }

        // Nonblocking accept so the loop can observe the shutdown flag
        // without a poke connection.
        self.listener.set_nonblocking(true)?;
        while !shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Responses are one small line each; Nagle would
                    // stall request/response pipelines by ~40ms.
                    let _ = stream.set_nodelay(true);
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    if tx.send((stream, Instant::now())).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A failed accept poisons only that connection attempt.
                // Sleep so a persistent failure (e.g. fd exhaustion)
                // cannot hot-spin the accept loop.
                Err(_) => {
                    counters.connection_errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        Ok(counters.snapshot())
    }

    /// Moves the server onto a background thread, returning a handle
    /// that can shut it down and collect its stats. This is the
    /// in-process embedding used by tests and examples; the CLI calls
    /// [`run`](Self::run) directly.
    ///
    /// # Errors
    /// Propagates socket introspection failures.
    pub fn spawn(self) -> io::Result<RunningServer> {
        let addr = self.local_addr()?;
        let join = std::thread::spawn(move || self.run());
        Ok(RunningServer { addr, join })
    }
}

/// A server running on a background thread (see [`Server::spawn`]).
pub struct RunningServer {
    addr: SocketAddr,
    join: JoinHandle<io::Result<ServerStats>>,
}

impl RunningServer {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends the `shutdown` control line, waits for the server to wind
    /// down, and returns its lifetime stats.
    ///
    /// # Errors
    /// Propagates connection failures and a panicked server thread.
    pub fn shutdown(self) -> io::Result<ServerStats> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.write_all(b"shutdown\n")?;
        stream.flush()?;
        // Wait for the ack so the flag is guaranteed set before joining.
        let mut reader = BufReader::new(stream);
        let mut ack = String::new();
        let _ = reader.read_line(&mut ack);
        drop(reader);
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// One multiplexed connection: the stream plus bytes read so far that
/// do not yet end a line.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// What a service pass left a connection in.
enum ConnState {
    Open,
    Closed,
    Failed,
}

/// A worker: pulls newly accepted connections off the shared channel
/// and round-robins nonblocking reads over every connection it holds,
/// so one idle client never parks the thread.
fn worker_loop(
    rx: &Mutex<Receiver<(TcpStream, Instant)>>,
    handler: &StoreHandler,
    shutdown: &AtomicBool,
    counters: &Counters,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut channel_open = true;
    loop {
        if channel_open {
            // At most one new connection per pass, so a burst of accepts
            // spreads across the pool instead of piling onto whichever
            // worker reaches the channel first.
            // The mutex only serializes `try_recv` on a channel whose
            // state lives inside the channel itself, so a worker that
            // panicked mid-recv cannot corrupt it: recover and keep the
            // remaining workers accepting connections.
            let next = rx.lock().unwrap_or_else(PoisonError::into_inner).try_recv();
            match next {
                Ok((stream, accepted)) => {
                    if privpath_obs::enabled() {
                        serve_metrics()
                            .queue_wait
                            .observe(accepted.elapsed().as_secs_f64());
                    }
                    match stream.set_nonblocking(true) {
                        Ok(()) => conns.push(Conn {
                            stream,
                            buf: Vec::new(),
                        }),
                        Err(_) => {
                            connection_error("io");
                            counters.connection_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => channel_open = false,
            }
        }
        if shutdown.load(Ordering::Relaxed) {
            // Winding down: the ack was already written by whichever
            // worker handled the control line; close what we hold.
            return;
        }
        if !channel_open && conns.is_empty() {
            return;
        }

        let mut progressed = false;
        conns.retain_mut(|conn| {
            let (state, did_work) = service_conn(conn, handler, shutdown, counters);
            progressed |= did_work;
            match state {
                ConnState::Open => true,
                ConnState::Closed => false,
                ConnState::Failed => {
                    counters.connection_errors.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        });
        if !progressed {
            std::thread::sleep(WORKER_POLL);
        }
    }
}

/// Counts one dying connection in `serve_connection_errors_total{cause}`.
/// Called at the failure site itself, **before** the early return hands
/// the connection back to the worker, so the by-cause breakdown can
/// never drift from the aggregate [`ServerStats`] count.
fn connection_error(cause: &'static str) {
    if privpath_obs::enabled() {
        MetricRegistry::global()
            .counter_with("serve_connection_errors_total", &[("cause", cause)])
            .inc();
    }
}

/// How many request lines one connection may have answered in a single
/// worker pass before it must yield. Bounds the time any connection can
/// hold its worker, so a continuously-pipelining client cannot starve
/// the worker's other connections or delay shutdown observation.
const MAX_LINES_PER_PASS: usize = 64;

/// Answers buffered and newly readable lines on one connection without
/// blocking, up to [`MAX_LINES_PER_PASS`]. Returns the connection's
/// state and whether any work was done (so the worker only sleeps on a
/// fully idle pass).
fn service_conn(
    conn: &mut Conn,
    handler: &StoreHandler,
    shutdown: &AtomicBool,
    counters: &Counters,
) -> (ConnState, bool) {
    let mut chunk = [0u8; 4096];
    let mut answered = 0usize;
    loop {
        // Answer complete lines first — including lines left buffered by
        // a previous pass that hit the per-pass cap.
        while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = conn.buf.drain(..=pos).collect();
            match handle_line(&line, &conn.stream, handler, shutdown, counters) {
                Ok(true) => answered += 1,
                Ok(false) => return (ConnState::Closed, true),
                Err(_) => {
                    connection_error("io");
                    return (ConnState::Failed, true);
                }
            }
            if answered >= MAX_LINES_PER_PASS {
                return (ConnState::Open, true);
            }
        }
        // A newline-free stream must not grow the buffer without bound:
        // reject and drop the connection.
        if conn.buf.len() > MAX_LINE_BYTES {
            connection_error("oversized-line");
            let resp = QueryResponse::Error {
                code: ErrorCode::Malformed,
                message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            };
            let _ = write_line(&conn.stream, &resp.to_string());
            return (ConnState::Failed, true);
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return (ConnState::Closed, true), // EOF
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return (ConnState::Open, answered > 0)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                connection_error("io");
                return (ConnState::Failed, true);
            }
        }
    }
}

/// Answers one raw request line. Returns `Ok(false)` when the
/// connection should close (the `shutdown` control line).
fn handle_line(
    raw: &[u8],
    stream: &TcpStream,
    handler: &StoreHandler,
    shutdown: &AtomicBool,
    counters: &Counters,
) -> io::Result<bool> {
    let line = String::from_utf8_lossy(raw);
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(true);
    }
    if trimmed == "shutdown" {
        write_line(stream, SHUTDOWN_ACK)?;
        shutdown.store(true, Ordering::Relaxed);
        return Ok(false);
    }
    counters.requests.fetch_add(1, Ordering::Relaxed);
    let verb = known_verb(trimmed);
    let started = Instant::now();
    let response = handler.handle(trimmed);
    record_request(
        verb,
        trimmed.len(),
        &response,
        started.elapsed().as_secs_f64(),
    );
    write_line(stream, &response)?;
    Ok(true)
}

/// Writes one response line to a nonblocking stream, retrying short
/// writes (responses are small; a stalled peer only stalls its own
/// connection's worker pass briefly).
fn write_line(mut stream: &TcpStream, line: &str) -> io::Result<()> {
    let mut data = Vec::with_capacity(line.len() + 1);
    data.extend_from_slice(line.as_bytes());
    data.push(b'\n');
    let mut rest: &[u8] = &data;
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(WRITE_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}
