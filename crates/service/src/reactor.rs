//! The readiness-based transport: one epoll reactor thread multiplexing
//! every connection, a small worker pool executing the transport-free
//! request handler, and the admission-control policy deciding which work
//! gets queued at all.
//!
//! # Structure
//!
//! * The **reactor thread** owns the listener, all connection sockets
//!   (nonblocking), their read/write buffers, and a timer wheel. It never
//!   evaluates a request: parsed requests are pushed onto a bounded job
//!   queue and picked up by workers, so a slow query cannot stall accepts,
//!   reads, or timeouts.
//! * **Workers** run [`handle_request`](crate::server) under
//!   `catch_unwind`: a panicking handler closes only its own connection
//!   (without a reply — the client cannot tell a half-served request from
//!   a crash, so it gets told nothing), while the engine mutex poisoning
//!   keeps its degraded-writes semantics.
//! * **Admission control** is enforced at two points: accepts beyond
//!   `max_connections` are answered `ERR overloaded retry_ms=<hint>` and
//!   closed immediately, and requests arriving while the job queue holds
//!   `max_queue_depth` entries are shed with the same structured error —
//!   the connection survives, only the request is refused. `STATS`,
//!   `METRICS` and `SHUTDOWN` are exempt (an operator diagnosing an
//!   overload must not be shed by it).
//! * **Deadlines** (line completion, write progress) live
//!   in a hashed timer wheel with `poll_interval` granularity. Entries are
//!   validated when they fire — a stale entry for a connection that made
//!   progress is re-armed at its real deadline, not acted on.
//! * **Drain:** once shutdown is requested (by `SHUTDOWN` or
//!   programmatically) the listener closes, queued-but-undispatched
//!   requests answer `ERR shutting-down`, in-flight requests complete and
//!   their replies flush, then workers are joined and the WAL is closed
//!   cleanly. No self-connect wake is involved: the reactor sleeps in
//!   `epoll_wait` and an eventfd waker interrupts it.
//!
//! # Ordering
//!
//! Responses must leave a connection in request order even though parse
//! errors are known instantly and handler replies arrive asynchronously.
//! Every complete line therefore becomes a queue entry on its connection
//! ([`Work`]): requests and pre-rendered replies interleave in arrival
//! order, and the pump only advances the queue while no request from it is
//! in flight.

use crate::failpoints;
use crate::metrics::Verb;
use crate::protocol::{parse_request, Request, Response};
use crate::server::{handle_request, Shared};
use epoll::{Epoll, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Per-connection pipeline cap: while this many queue entries are pending,
/// the connection's read interest is disarmed — backpressure instead of
/// unbounded buffering for a client that floods requests without reading
/// answers.
const MAX_PIPELINED: usize = 64;

/// Transport-layer accounting, reported by `STATS`. At quiescence the
/// request counters balance: `requests_received` = `requests_served` +
/// `queries_shed` + `requests_failed`.
#[derive(Default)]
pub(crate) struct TransportCounters {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_rejected: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) requests_received: AtomicU64,
    pub(crate) requests_served: AtomicU64,
    pub(crate) requests_failed: AtomicU64,
    pub(crate) queries_shed: AtomicU64,
    pub(crate) queue_depth_max: AtomicU64,
}

/// One entry in a connection's in-order pipeline.
enum Work {
    /// A parsed request awaiting admission/dispatch.
    Request(Request),
    /// A reply already decided at parse/admission time (parse errors,
    /// oversized-line errors), held in the queue so it leaves the socket
    /// in request order.
    Reply { text: String, close_after: bool },
}

struct Job {
    conn: u64,
    request: Request,
}

enum Outcome {
    Reply(String),
    /// The handler panicked: close the connection without a reply (the
    /// request may have been half-applied; a made-up answer would lie).
    CloseSilently,
}

struct Completion {
    conn: u64,
    outcome: Outcome,
}

/// The bounded job queue between the reactor and the workers.
#[derive(Default)]
struct JobQueue {
    state: Mutex<JobQueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct JobQueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn depth(&self) -> usize {
        self.state.lock().map(|s| s.jobs.len()).unwrap_or(0)
    }

    fn push(&self, job: Job) -> usize {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.jobs.push_back(job);
        let depth = state.jobs.len();
        drop(state);
        self.ready.notify_one();
        depth
    }

    /// Blocks until a job is available or the queue is closed (`None`).
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// Completed jobs travelling back to the reactor; pushing wakes it.
struct Completions {
    done: Mutex<Vec<Completion>>,
    waker: Arc<Waker>,
}

impl Completions {
    fn push(&self, completion: Completion) {
        self.done
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(completion);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.done.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

fn worker_loop(shared: &Shared, queue: &JobQueue, completions: &Completions) {
    while let Some(Job { conn, request }) = queue.pop() {
        let verb = Verb::of(&request);
        let outcome = match failpoints::check("reactor.job") {
            Err(error) => Outcome::Reply(Response::Error(error.to_string()).render()),
            Ok(()) => {
                let started = Instant::now();
                match catch_unwind(AssertUnwindSafe(|| handle_request(shared, verb, request))) {
                    Ok(response) => {
                        // Every served request bills exactly one verb, so
                        // the per-verb counts sum to `requests_served` at
                        // quiescence (SHUTDOWN is billed inline by `pump`).
                        shared
                            .latency
                            .record(verb, started.elapsed().as_micros() as u64);
                        Outcome::Reply(response.render())
                    }
                    Err(_) => Outcome::CloseSilently,
                }
            }
        };
        completions.push(Completion { conn, outcome });
    }
}

/// A hashed timer wheel with `granularity` ticks. Entries are
/// `(connection token, intended deadline)`; the reactor validates each
/// fired entry against the connection's *current* deadline, so stale
/// entries are harmless.
struct TimerWheel {
    slots: Vec<Vec<(u64, Instant)>>,
    granularity: Duration,
    cursor: usize,
    last_tick: Instant,
}

impl TimerWheel {
    fn new(granularity: Duration, now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..256).map(|_| Vec::new()).collect(),
            granularity: granularity.max(Duration::from_millis(1)),
            cursor: 0,
            last_tick: now,
        }
    }

    fn insert(&mut self, now: Instant, token: u64, deadline: Instant) {
        let until = deadline.saturating_duration_since(now);
        let ticks = (until.as_nanos() / self.granularity.as_nanos().max(1)) as usize + 1;
        // Far-future deadlines park one lap ahead and re-insert on fire.
        let ticks = ticks.min(self.slots.len() - 1);
        let slot = (self.cursor + ticks) % self.slots.len();
        self.slots[slot].push((token, deadline));
    }

    /// Advances the wheel to `now`, returning entries whose intended
    /// deadline has passed; unexpired entries (a longer lap, or merely
    /// hashed coarsely) are re-inserted.
    fn expired(&mut self, now: Instant) -> Vec<u64> {
        let elapsed = now.saturating_duration_since(self.last_tick);
        let steps = (elapsed.as_nanos() / self.granularity.as_nanos().max(1)) as usize;
        let steps = steps.min(self.slots.len());
        let mut due = Vec::new();
        let mut reinsert = Vec::new();
        for _ in 0..steps {
            self.cursor = (self.cursor + 1) % self.slots.len();
            for (token, deadline) in std::mem::take(&mut self.slots[self.cursor]) {
                if deadline <= now {
                    due.push(token);
                } else {
                    reinsert.push((token, deadline));
                }
            }
        }
        if steps > 0 {
            self.last_tick += self.granularity * steps as u32;
        }
        for (token, deadline) in reinsert {
            self.insert(now, token, deadline);
        }
        due
    }
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    /// Bytes of `read_buf` already scanned for a newline.
    scanned: usize,
    write_buf: Vec<u8>,
    written: usize,
    pending: VecDeque<Work>,
    /// One request from this connection is in the job queue or a worker.
    busy: bool,
    /// When the current (incomplete) line's first byte arrived — the
    /// slow-loris deadline anchor.
    line_started: Option<Instant>,
    /// When the last write progress happened while data is still pending —
    /// the stalled-reader deadline anchor.
    write_since: Option<Instant>,
    /// The deadline last armed in the wheel, to avoid duplicate entries.
    armed: Option<Instant>,
    read_closed: bool,
    /// Close once the write buffer flushes (no further reads).
    closing: bool,
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            written: 0,
            pending: VecDeque::new(),
            busy: false,
            line_started: None,
            write_since: None,
            armed: None,
            read_closed: false,
            closing: false,
            interest: EPOLLIN | EPOLLRDHUP,
        }
    }

    fn write_pending(&self) -> bool {
        self.written < self.write_buf.len()
    }

    fn queue_reply(&mut self, text: &str) {
        self.write_buf.extend_from_slice(text.as_bytes());
    }

    /// The connection's earliest enforcement deadline right now: a started
    /// line must complete, and a pending write must make progress, within
    /// `line_timeout`.
    fn deadline(&self, config: &crate::server::ServerConfig) -> Option<Instant> {
        let anchor = self
            .line_started
            .into_iter()
            .chain(self.write_since)
            .min()?;
        Some(anchor + config.line_timeout)
    }
}

struct Reactor {
    shared: Arc<Shared>,
    epoll: Epoll,
    waker: Arc<Waker>,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    queue: Arc<JobQueue>,
    completions: Arc<Completions>,
    wheel: TimerWheel,
    draining: bool,
}

/// Runs the transport until shutdown completes: accepts, reads, dispatches,
/// flushes, enforces deadlines, drains, joins the workers, and closes the
/// WAL cleanly. Called on a dedicated thread by `LiveServer`.
pub(crate) fn run(shared: Arc<Shared>, listener: TcpListener, waker: Arc<Waker>) {
    let Ok(epoll) = Epoll::new() else {
        return;
    };
    if epoll
        .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        .is_err()
        || epoll.add(waker.fd(), EPOLLIN, TOKEN_WAKER).is_err()
    {
        return;
    }
    let queue = Arc::new(JobQueue::default());
    let completions = Arc::new(Completions {
        done: Mutex::new(Vec::new()),
        waker: Arc::clone(&waker),
    });
    let workers: Vec<_> = (0..worker_count(&shared.config))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            let completions = Arc::clone(&completions);
            std::thread::spawn(move || worker_loop(&shared, &queue, &completions))
        })
        .collect();
    let now = Instant::now();
    let mut reactor = Reactor {
        wheel: TimerWheel::new(shared.config.poll_interval, now),
        shared,
        epoll,
        waker,
        listener: Some(listener),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        queue: Arc::clone(&queue),
        completions,
        draining: false,
    };
    reactor.event_loop();
    // Every connection is gone; in-flight jobs (for connections that died
    // mid-request) still finish — `close` only stops the blocking pops.
    queue.close();
    for worker in workers {
        let _ = worker.join();
    }
    // Flush the WAL and mark the shutdown clean. A poisoned engine skips
    // the marker — its mid-ingest state must not be certified clean.
    if let Ok(mut engine) = reactor.shared.engine.lock() {
        let _ = engine.clean_shutdown();
    };
}

/// The structured refusal both shedding points (accept-time and
/// request-time) answer with.
fn overloaded(config: &crate::server::ServerConfig) -> String {
    Response::Error(format!("overloaded retry_ms={}", config.overload_retry_ms)).render()
}

fn worker_count(config: &crate::server::ServerConfig) -> usize {
    if config.worker_threads > 0 {
        return config.worker_threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

impl Reactor {
    fn event_loop(&mut self) {
        let mut events = Vec::new();
        loop {
            let _ = self
                .epoll
                .wait(Some(self.shared.config.poll_interval), &mut events);
            let mut accept_ready = false;
            let mut touched: Vec<u64> = Vec::new();
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => self.waker.drain(),
                    token => {
                        let readable =
                            event.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0;
                        let writable = event.events & EPOLLOUT != 0;
                        if readable {
                            self.handle_readable(token);
                        }
                        if writable {
                            self.flush(token);
                        }
                        touched.push(token);
                    }
                }
            }
            for completion in self.completions.drain() {
                self.apply_completion(completion, &mut touched);
            }
            if accept_ready && !self.draining {
                self.accept_ready();
            }
            if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.enter_drain();
                touched.extend(self.conns.keys().copied());
            }
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                self.maintain(token);
            }
            let now = Instant::now();
            for token in self.wheel.expired(now) {
                self.fire_deadline(token, now);
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
        }
    }

    /// Accepts until the listener would block. A fresh connection needs
    /// no upkeep until its first readiness event: it starts with read
    /// interest registered and no deadline.
    fn accept_ready(&mut self) {
        let config = self.shared.config.clone();
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    if let Some(bytes) = config.send_buffer_bytes {
                        let _ = epoll::set_send_buffer(stream.as_raw_fd(), bytes);
                    }
                    if self.conns.len() >= config.max_connections {
                        // Reject with the structured overload error; the
                        // write is best-effort (a fresh socket's send
                        // buffer is empty, so it practically always
                        // lands) and the socket closes either way.
                        self.shared
                            .transport
                            .connections_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        let _ = (&stream).write(overloaded(&config).as_bytes());
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll
                        .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                        .is_err()
                    {
                        continue;
                    }
                    self.shared
                        .transport
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(token, Conn::new(stream));
                }
                // Would block: done. Transient accept failures (aborted
                // handshakes, fd pressure): the level-triggered listener
                // registration retries on the next wait.
                Err(_) => return,
            }
        }
    }

    fn handle_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; 4096];
        loop {
            if conn.pending.len() >= MAX_PIPELINED || conn.read_closed || conn.closing {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    if conn.read_buf.is_empty() {
                        conn.line_started = Some(Instant::now());
                    }
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    extract_lines(conn, &self.shared);
                }
                Err(error)
                    if matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    break
                }
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    fn apply_completion(&mut self, completion: Completion, touched: &mut Vec<u64>) {
        let transport = &self.shared.transport;
        let Some(conn) = self.conns.get_mut(&completion.conn) else {
            // The connection died while its request was in flight; the
            // work still happened and must still balance the books.
            match completion.outcome {
                Outcome::Reply(_) => transport.requests_served.fetch_add(1, Ordering::Relaxed),
                Outcome::CloseSilently => transport.requests_failed.fetch_add(1, Ordering::Relaxed),
            };
            return;
        };
        conn.busy = false;
        match completion.outcome {
            Outcome::Reply(text) => {
                transport.requests_served.fetch_add(1, Ordering::Relaxed);
                conn.queue_reply(&text);
                touched.push(completion.conn);
            }
            Outcome::CloseSilently => {
                transport.requests_failed.fetch_add(1, Ordering::Relaxed);
                self.close_conn(completion.conn);
            }
        }
    }

    /// Advances a connection's pipeline while nothing from it is in
    /// flight: flushes queued replies, admits or sheds requests, and
    /// handles `SHUTDOWN` inline (so it cannot be starved by the very
    /// overload it is meant to end).
    fn pump(&mut self, token: u64) {
        let config = self.shared.config.clone();
        let transport = &self.shared.transport;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while !conn.busy && !conn.closing {
            let Some(work) = conn.pending.pop_front() else {
                break;
            };
            match work {
                Work::Reply { text, close_after } => {
                    conn.queue_reply(&text);
                    if close_after {
                        conn.closing = true;
                        drop_pending(conn, transport);
                    }
                }
                Work::Request(request) => {
                    if matches!(request, Request::Shutdown) {
                        // Inline: prompt even when every worker is busy,
                        // and exempt from shedding by design. Billed here
                        // because it never reaches a worker.
                        let started = Instant::now();
                        self.shared.shutdown.store(true, Ordering::SeqCst);
                        transport.requests_served.fetch_add(1, Ordering::Relaxed);
                        conn.queue_reply(&Response::Ok("bye".into()).render());
                        self.shared
                            .latency
                            .record(Verb::Shutdown, started.elapsed().as_micros() as u64);
                        conn.closing = true;
                        drop_pending(conn, transport);
                        break;
                    }
                    if self.draining {
                        transport.requests_failed.fetch_add(1, Ordering::Relaxed);
                        conn.queue_reply(&Response::Error("shutting-down".into()).render());
                        continue;
                    }
                    let exempt = matches!(request, Request::Stats { .. } | Request::Metrics);
                    if !exempt && self.queue.depth() >= config.max_queue_depth {
                        transport.queries_shed.fetch_add(1, Ordering::Relaxed);
                        conn.queue_reply(&overloaded(&config));
                        continue;
                    }
                    conn.busy = true;
                    let depth = self.queue.push(Job {
                        conn: token,
                        request,
                    });
                    transport
                        .queue_depth_max
                        .fetch_max(depth as u64, Ordering::Relaxed);
                    break;
                }
            }
        }
        if self.draining && !conn.busy && conn.pending.is_empty() {
            conn.closing = true;
        }
    }

    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.write_pending() {
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.written += n;
                    conn.write_since = Some(Instant::now());
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if !conn.write_pending() {
            conn.write_buf.clear();
            conn.written = 0;
            conn.write_since = None;
        } else if conn.write_since.is_none() {
            conn.write_since = Some(Instant::now());
        }
    }

    /// Post-activity upkeep for one connection: pump, flush, close if
    /// finished, refresh epoll interest, re-arm its deadline.
    fn maintain(&mut self, token: u64) {
        // Backpressure release: lines buffered while the pipeline was at
        // its cap extract now that the pump may have made room.
        if let Some(conn) = self.conns.get_mut(&token) {
            if !conn.read_closed
                && !conn.closing
                && conn.pending.len() < MAX_PIPELINED
                && !conn.read_buf.is_empty()
            {
                extract_lines(conn, &self.shared);
            }
        }
        self.pump(token);
        self.flush(token);
        let config = self.shared.config.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let finished = (conn.closing || conn.read_closed)
            && !conn.busy
            && conn.pending.is_empty()
            && !conn.write_pending();
        if finished {
            // Any unterminated partial line is discarded unanswered.
            self.close_conn(token);
            return;
        }
        let mut interest = 0;
        if !conn.read_closed && !conn.closing && conn.pending.len() < MAX_PIPELINED {
            interest |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.write_pending() {
            interest |= EPOLLOUT;
        }
        if interest != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), interest, token)
                .is_ok()
        {
            conn.interest = interest;
        }
        let deadline = conn.deadline(&config);
        if deadline != conn.armed {
            conn.armed = deadline;
            if let Some(deadline) = deadline {
                self.wheel.insert(Instant::now(), token, deadline);
            }
        }
    }

    /// A wheel entry fired: act only if the connection's *current*
    /// deadline really has passed; otherwise re-arm at the real one.
    fn fire_deadline(&mut self, token: u64, now: Instant) {
        let config = self.shared.config.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.deadline(&config) {
            Some(deadline) if deadline <= now => {
                // Slow loris or stalled reader: the connection is cut
                // without a reply.
                self.close_conn(token);
            }
            Some(deadline) => {
                conn.armed = Some(deadline);
                self.wheel.insert(now, token, deadline);
            }
            None => conn.armed = None,
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        let transport = &self.shared.transport;
        transport.connections_closed.fetch_add(1, Ordering::Relaxed);
        drop_pending(&mut conn, transport);
    }

    fn enter_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
    }
}

/// Turns buffered bytes into pipeline entries: complete lines parse into
/// requests (or instant error replies), the length cap turns the whole
/// connection into a single terminal error, partial lines stay buffered.
fn extract_lines(conn: &mut Conn, shared: &Shared) {
    let config = &shared.config;
    loop {
        if conn.pending.len() >= MAX_PIPELINED {
            return;
        }
        let Some(pos) = conn.read_buf[conn.scanned..]
            .iter()
            .position(|&b| b == b'\n')
        else {
            conn.scanned = conn.read_buf.len();
            if conn.read_buf.len() > config.max_line_bytes {
                oversized(conn);
            }
            return;
        };
        let pos = conn.scanned + pos;
        if pos > config.max_line_bytes {
            oversized(conn);
            return;
        }
        let line = String::from_utf8_lossy(&conn.read_buf[..pos]).into_owned();
        conn.read_buf.drain(..=pos);
        conn.scanned = 0;
        // The next line's completion deadline starts now (its first bytes
        // are already here) or at its first byte (reader sets it).
        conn.line_started = if conn.read_buf.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        if line.trim().is_empty() {
            continue;
        }
        shared
            .transport
            .requests_received
            .fetch_add(1, Ordering::Relaxed);
        match parse_request(&line) {
            Ok(request) => conn.pending.push_back(Work::Request(request)),
            Err(message) => {
                shared
                    .transport
                    .requests_failed
                    .fetch_add(1, Ordering::Relaxed);
                conn.pending.push_back(Work::Reply {
                    text: Response::Error(message).render(),
                    close_after: false,
                });
            }
        }
    }
}

/// An oversized line: tell the client why, then drop it — the framing is
/// unrecoverable past the cap. The error still queues behind any earlier
/// requests so it leaves in order.
fn oversized(conn: &mut Conn) {
    conn.pending.push_back(Work::Reply {
        text: Response::Error("line too long".into()).render(),
        close_after: true,
    });
    conn.read_closed = true;
    conn.read_buf.clear();
    conn.scanned = 0;
    conn.line_started = None;
}

/// Fails every still-queued request on a closing connection; queued
/// replies (parse errors and the like) were already accounted at parse
/// time.
fn drop_pending(conn: &mut Conn, transport: &TransportCounters) {
    let unanswered = conn
        .pending
        .iter()
        .filter(|work| matches!(work, Work::Request(_)))
        .count();
    transport
        .requests_failed
        .fetch_add(unanswered as u64, Ordering::Relaxed);
    conn.pending.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_wheel_fires_due_entries_and_reinserts_future_ones() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), start);
        wheel.insert(start, 1, start + Duration::from_millis(25));
        wheel.insert(start, 2, start + Duration::from_millis(900));

        // 30 ms later: entry 1 is due, entry 2 is not.
        let now = start + Duration::from_millis(30);
        let due = wheel.expired(now);
        assert_eq!(due, vec![1]);

        // Sweep a full second in coarse steps: entry 2 fires exactly once.
        let mut fired = Vec::new();
        for ms in (100..=1200).step_by(100) {
            fired.extend(wheel.expired(start + Duration::from_millis(ms)));
        }
        assert_eq!(fired, vec![2]);
    }

    #[test]
    fn timer_wheel_survives_laps_longer_than_one_rotation() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(1), start);
        // 256 slots × 1 ms = one rotation; this deadline is many laps out.
        wheel.insert(start, 9, start + Duration::from_millis(2000));
        let mut fired = Vec::new();
        for ms in (0..=2200).step_by(50) {
            fired.extend(wheel.expired(start + Duration::from_millis(ms)));
        }
        assert_eq!(fired, vec![9]);
    }

    #[test]
    fn job_queue_closes_cleanly() {
        let queue = Arc::new(JobQueue::default());
        let popper = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop().is_none())
        };
        queue.close();
        assert!(popper.join().unwrap(), "closed queue unblocks poppers");
    }
}
