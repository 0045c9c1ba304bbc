//! The non-blocking ingestion server: an event-driven readiness loop
//! on `std::net` feeding [`tpdf_service::TpdfService`] sessions from
//! TCP connections.
//!
//! # Design
//!
//! One server thread owns a non-blocking listener and every client
//! connection, and blocks in a single `poll(2)` over the listener,
//! each connection and one wake descriptor (a socket pair). A
//! connection waits for `POLLIN` unless its reads are paused or it is
//! closing, and for `POLLOUT` while it has bytes queued; one with
//! neither is left out of the set. The wake descriptor fires when the
//! service files a run result (the server registers as a
//! [`tpdf_service::ResultListener`]) and on shutdown. The poll timeout
//! is the earliest idle or write-stall eviction deadline, so an idle
//! server does not wake at all. After a hard `accept` failure
//! (descriptor exhaustion) the listener sits out of the set for a
//! short back-off, as the connection left in the backlog would keep
//! reporting it ready.
//!
//! Each return from `poll` is followed by one sweep that does only
//! what was signalled: accept when the listener is ready, read (one
//! bounded chunk, for fairness) when a connection is readable, collect
//! every result filed so far and retry parked barriers after a wake,
//! flush queued bytes, and retire dead connections — then straight
//! back to `poll`, which is level-triggered, so unread bytes report
//! again. There are no
//! external event libraries and no thread per connection: the pool
//! behind the service does the compute, the loop only moves bytes and
//! frames.
//!
//! # Backpressure, end to end
//!
//! Nothing is ever dropped and nothing buffers without bound:
//!
//! * a `Barrier` refused by the session's bounded ingress queue
//!   ([`tpdf_service::ServiceError::Backpressure`]) is **parked** and
//!   retried whenever a run completes; the client is told with a
//!   [`Frame::Backoff`]`(QueueFull)`;
//! * a session's token feed beyond its configured high-water mark
//!   pauses **socket reads** for that connection
//!   ([`Frame::Backoff`]`(FeedFull)`) — the client's writes then fill
//!   the TCP window and block, which is exactly the flow control TCP
//!   already implements. Frames already received keep decoding while
//!   paused (only the read is gated), and reads resume on their own
//!   when nothing in flight is left to drain the feed — otherwise a
//!   legal client whose next `Barrier` is still in the socket would
//!   wedge. A feed more than [`FEED_HARD_CAP_RUNS`] runs deep is a
//!   protocol error (a records flood that ignores `Backoff` cannot
//!   grow memory without bound);
//! * an admission refusal at `Hello` answers
//!   [`Frame::Backoff`]`(AdmissionRefused)` and keeps the connection,
//!   so the client can retry the handshake.
//!
//! A client that disconnects mid-run is cancelled through
//! [`tpdf_service::TpdfService::cancel`] — the engine halts the
//! in-flight run at its next scheduling point. Idle and
//! write-stalled connections are evicted on a timeout.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tpdf_core::graph::TpdfGraph;
use tpdf_runtime::cases::OutputCapture;
use tpdf_runtime::{KernelRegistry, RuntimeConfig, Token};
use tpdf_service::{ServiceError, SessionId, TpdfService};
use tpdf_trace::{EventKind, Tracer};

use crate::frame::{write_frame, BackoffReason, Frame, FrameReader};
use crate::metrics::NetMetrics;
use crate::poll::{self, PollFd, Waker, POLLERR, POLLHUP, POLLIN, POLLOUT};

/// Hard bound on buffered feed depth, in multiples of the configured
/// high-water mark: a connection whose unconsumed records exceed
/// `FEED_HARD_CAP_RUNS ×` [`NetConfig::feed_runs`] runs is closed
/// with a protocol error — it is flooding records while ignoring
/// `Backoff`, and nothing else bounds that memory.
pub const FEED_HARD_CAP_RUNS: u64 = 64;

/// How long the listener sits out of the poll set after a hard
/// `accept` failure (descriptor exhaustion): the connection it could
/// not take stays in the backlog and keeps the listener readable, so
/// waiting on it would spin the loop until a descriptor frees.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Tuning knobs of the ingestion loop.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Maximum concurrently served connections; further accepts are
    /// refused (counted in [`NetMetrics::conns_refused`]).
    pub max_conns: usize,
    /// Largest accepted frame body in bytes (a hostile length prefix
    /// beyond this is a protocol error, not an allocation).
    pub max_frame_bytes: usize,
    /// A connection with no read progress and no outstanding work for
    /// this long is evicted.
    pub idle_timeout: Duration,
    /// A connection whose outgoing buffer makes no progress for this
    /// long (a slow client not draining its results) is evicted.
    pub write_stall_timeout: Duration,
    /// Feed high-water mark, in runs: buffered input tokens beyond
    /// `feed_runs × tokens_per_run` pause reads from the connection.
    pub feed_runs: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: 64,
            max_frame_bytes: 16 << 20,
            idle_timeout: Duration::from_secs(30),
            write_stall_timeout: Duration::from_secs(10),
            feed_runs: 2,
        }
    }
}

/// A shared, popped-from-the-front token buffer: the bridge between
/// `Records` frames and a session's source kernel. The app's `build`
/// closure re-registers its source to pop from the feed instead of
/// replaying canned data.
#[derive(Debug, Clone, Default)]
pub struct NetFeed {
    tokens: Arc<Mutex<VecDeque<Token>>>,
}

impl NetFeed {
    /// Creates an empty feed.
    pub fn new() -> NetFeed {
        NetFeed::default()
    }

    /// Appends tokens in stream order.
    pub fn push(&self, tokens: impl IntoIterator<Item = Token>) {
        self.tokens.lock().expect("feed lock").extend(tokens);
    }

    /// Moves up to `n` tokens from the front onto the end of `out`. A
    /// source kernel calls this with its output rate and its output
    /// slab; the protocol guarantees the tokens are present (a
    /// `Barrier` is only submitted once a full run's records arrived).
    pub fn pop_into(&self, n: usize, out: &mut Vec<Token>) {
        let mut tokens = self.tokens.lock().expect("feed lock");
        let n = n.min(tokens.len());
        out.extend(tokens.drain(..n));
    }

    /// Buffered tokens.
    pub fn len(&self) -> usize {
        self.tokens.lock().expect("feed lock").len()
    }

    /// Whether the feed is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One servable application: the graph and config a `Hello` opens a
/// session with, and the wire contract of a run.
#[derive(Clone)]
pub struct NetApp {
    /// The dataflow graph each session of this app executes.
    pub graph: TpdfGraph,
    /// Per-session runtime configuration (iterations, threads,
    /// binding, selectors).
    pub config: RuntimeConfig,
    /// Input tokens one `Barrier` (one run) consumes — announced to
    /// the client in the `Hello` ack and enforced before submission.
    pub tokens_per_run: u64,
    /// Sink tokens one successful run produces, used to split the
    /// shared capture stream into per-run `Result` frames. 0 means
    /// "drain everything captured so far" — only correct when the
    /// client keeps at most one run in flight.
    pub tokens_out_per_run: u64,
    /// Builds the session's kernel registry around the connection's
    /// [`NetFeed`] (the source pops its samples from the feed) and
    /// returns the sink capture results are read from.
    #[allow(clippy::type_complexity)]
    pub build: Arc<dyn Fn(&NetFeed) -> (KernelRegistry, OutputCapture) + Send + Sync>,
}

/// The name → [`NetApp`] table a server serves.
#[derive(Clone, Default)]
pub struct NetApps {
    apps: BTreeMap<String, NetApp>,
}

impl NetApps {
    /// Creates an empty table.
    pub fn new() -> NetApps {
        NetApps::default()
    }

    /// Registers `app` under `name` (replacing any previous entry).
    pub fn register(&mut self, name: &str, app: NetApp) {
        self.apps.insert(name.to_string(), app);
    }

    fn get(&self, name: &str) -> Option<&NetApp> {
        self.apps.get(name)
    }
}

/// Why a connection ended — the `b` operand of `ConnClose` trace
/// events.
const CLOSE_CLEAN: u64 = 0;
const CLOSE_DISCONNECT: u64 = 1;
const CLOSE_EVICTED: u64 = 2;
const CLOSE_PROTOCOL: u64 = 3;

/// The ingestion server handle: owns the listener thread. Dropping it
/// (or calling [`NetServer::shutdown`]) stops the loop and joins.
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    metrics: Arc<NetMetrics>,
    handle: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the ingestion
    /// loop on its own thread, serving `apps` on top of `service`.
    ///
    /// The service should use [`tpdf_service::AdmissionPolicy::Reject`]
    /// (the default): refusals become `Backoff` frames. A `Block`
    /// policy would stall the single ingestion thread — and every
    /// other connection with it — whenever one client hits a bound.
    ///
    /// # Errors
    ///
    /// The bind error, when the address is unavailable.
    pub fn bind(
        addr: &str,
        service: Arc<TpdfService>,
        apps: NetApps,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Waker::new()?);
        // Weak: the service must not keep a dropped server's waker.
        let weak: Weak<Waker> = Arc::downgrade(&waker);
        service.add_result_listener(weak);
        let metrics = Arc::new(NetMetrics::new());
        let tracer = service.config().tracer.clone();
        let mut rt = Loop {
            listener,
            service,
            apps,
            config,
            stop: Arc::clone(&stop),
            waker: Arc::clone(&waker),
            pollfds: Vec::new(),
            accept_resumes: None,
            metrics: Arc::clone(&metrics),
            tracer,
            conns: Vec::new(),
            next_conn: 1,
        };
        let handle = std::thread::Builder::new()
            .name("tpdf-net".to_string())
            .spawn(move || rt.run())?;
        Ok(NetServer {
            local_addr,
            stop,
            waker,
            metrics,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the network ledger.
    pub fn metrics(&self) -> crate::metrics::NetMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live ledger itself (all-atomic counters) — what a
    /// continuous sampler attaches to so it can take its own periodic
    /// snapshots without going through the server handle.
    pub fn metrics_handle(&self) -> Arc<NetMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops the loop and joins the server thread. Open sessions of
    /// live connections are cancelled.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, SeqCst);
        self.waker.wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Per-connection state machine.
struct Conn {
    id: u64,
    stream: TcpStream,
    reader: FrameReader,
    /// Bytes queued towards the client, written as the socket drains.
    outbuf: Vec<u8>,
    session: Option<SessionId>,
    feed: NetFeed,
    capture: Option<OutputCapture>,
    tokens_per_run: u64,
    tokens_out_per_run: u64,
    /// Tokens received but not yet claimed by a `Barrier`.
    credited: u64,
    /// Barriers submitted and awaiting completion, in order.
    pending: VecDeque<(u64, tpdf_service::RequestId)>,
    /// Barriers refused by ingress backpressure, retried each sweep.
    parked: VecDeque<u64>,
    /// Socket reads paused (feed over high water); resumed when the
    /// feed drains and nothing is parked.
    paused: bool,
    /// `Bye` received: flush results, answer `Bye`, then close.
    closing: bool,
    bye_sent: bool,
    last_read: Instant,
    /// Last instant the outgoing buffer made progress (or became
    /// non-empty).
    last_write_progress: Instant,
    /// Set when the connection is finished; reaped at sweep end.
    dead: Option<u64>,
}

impl Conn {
    fn queue_frame(&mut self, frame: &Frame, metrics: &NetMetrics) {
        if self.outbuf.is_empty() {
            self.last_write_progress = Instant::now();
        }
        write_frame(&mut self.outbuf, frame);
        metrics.frames_out.fetch_add(1, Relaxed);
    }

    /// What the connection waits for in `poll`: reads unless paused or
    /// closing, writes while bytes are queued.
    fn interest(&self) -> i16 {
        let read = if self.paused || self.closing {
            0
        } else {
            POLLIN
        };
        let write = if self.outbuf.is_empty() { 0 } else { POLLOUT };
        read | write
    }

    /// When the connection is due for eviction, if ever: idle (no read
    /// progress and no outstanding work) or write-stalled (queued bytes
    /// making no progress).
    fn deadline(&self, config: &NetConfig) -> Option<Instant> {
        let idle = (self.pending.is_empty() && self.parked.is_empty() && !self.closing)
            .then(|| self.last_read + config.idle_timeout);
        let stalled = (!self.outbuf.is_empty())
            .then(|| self.last_write_progress + config.write_stall_timeout);
        idle.into_iter().chain(stalled).min()
    }
}

struct Loop {
    listener: TcpListener,
    service: Arc<TpdfService>,
    apps: NetApps,
    config: NetConfig,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    /// The poll set, reused across waits: the wake descriptor, the
    /// listener, then one entry per connection in `conns` order.
    pollfds: Vec<PollFd>,
    /// While set, the listener stays out of the poll set until then
    /// (see [`ACCEPT_BACKOFF`]).
    accept_resumes: Option<Instant>,
    metrics: Arc<NetMetrics>,
    tracer: Option<Arc<Tracer>>,
    conns: Vec<Conn>,
    next_conn: u64,
}

/// Poll-set slots before the first connection's.
const WAKE_SLOT: usize = 0;
const LISTENER_SLOT: usize = 1;
const FIRST_CONN_SLOT: usize = 2;

impl Loop {
    fn run(&mut self) {
        while !self.stop.load(SeqCst) {
            let timeout = self.fill_poll_set();
            // Only resource exhaustion fails `poll`; without it there
            // is no way to wait, so the server ends as on shutdown —
            // counted, so the ledger shows it stopped serving.
            if poll::wait(&mut self.pollfds, timeout).is_err() {
                self.metrics.poll_failures.fetch_add(1, Relaxed);
                break;
            }
            self.sweep();
        }
        // Shutdown: cancel what is still live so pool work stops.
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            if conn.dead.is_none() {
                conn.dead = Some(CLOSE_DISCONNECT);
            }
        }
        self.reap();
    }

    fn trace(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        if let Some(tracer) = &self.tracer {
            tracer.control_event(kind, 0, a, b, c);
        }
    }

    /// Rebuilds the poll set for the current connections and returns
    /// how long `poll` may block: until the earliest eviction deadline
    /// or accept back-off end, or indefinitely when there is none.
    fn fill_poll_set(&mut self) -> Option<Duration> {
        self.pollfds.clear();
        self.pollfds.push(PollFd::new(self.waker.fd(), POLLIN));
        let now = Instant::now();
        self.accept_resumes = self.accept_resumes.filter(|&at| at > now);
        let mut deadline = self.accept_resumes;
        self.pollfds.push(if deadline.is_some() {
            PollFd::ignored()
        } else {
            PollFd::new(self.listener.as_raw_fd(), POLLIN)
        });
        for i in 0..self.conns.len() {
            self.maybe_resume(i);
            let conn = &self.conns[i];
            let interest = conn.interest();
            // A hung-up descriptor reports `POLLHUP` whatever it asks
            // for: one with nothing to wait for must stay out, or it
            // would spin the loop.
            self.pollfds.push(if interest == 0 {
                PollFd::ignored()
            } else {
                PollFd::new(conn.stream.as_raw_fd(), interest)
            });
            if let Some(due) = conn.deadline(&self.config) {
                deadline = Some(deadline.map_or(due, |d| d.min(due)));
            }
        }
        deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Acts on what the last `poll` reported, connection by connection.
    fn sweep(&mut self) {
        let woken = self.pollfds[WAKE_SLOT].revents() != 0;
        if woken {
            // Before looking at results: see `Waker::reset`.
            self.waker.reset();
        }
        if self.pollfds[LISTENER_SLOT].revents() != 0 {
            self.accept();
        }
        let now = Instant::now();
        for i in 0..self.conns.len() {
            // Connections accepted just now have no slot yet.
            let revents = self
                .pollfds
                .get(FIRST_CONN_SLOT + i)
                .map_or(0, PollFd::revents);
            if woken {
                self.take_results(i);
                self.retry_parked(i);
            }
            if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                self.read_and_handle(i);
            }
            self.flush_writes(i);
            self.finish_closing(i);
            self.check_timeouts(i, now);
        }
        self.reap();
    }

    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.config.max_conns {
                        self.metrics.conns_refused.fetch_add(1, Relaxed);
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.metrics.conns_refused.fetch_add(1, Relaxed);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.metrics.conns_accepted.fetch_add(1, Relaxed);
                    self.trace(EventKind::ConnAccept, id, 0, 0);
                    let now = Instant::now();
                    self.conns.push(Conn {
                        id,
                        stream,
                        reader: FrameReader::new(self.config.max_frame_bytes),
                        outbuf: Vec::new(),
                        session: None,
                        feed: NetFeed::new(),
                        capture: None,
                        tokens_per_run: 0,
                        tokens_out_per_run: 0,
                        credited: 0,
                        pending: VecDeque::new(),
                        parked: VecDeque::new(),
                        paused: false,
                        closing: false,
                        bye_sent: false,
                        last_read: now,
                        last_write_progress: now,
                        dead: None,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.metrics.accept_errors.fetch_add(1, Relaxed);
                    self.accept_resumes = Some(Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
            }
        }
    }

    /// Streams completed runs back as `Result` frames, in order.
    fn take_results(&mut self, i: usize) {
        let Some(session) = self.conns[i].session else {
            return;
        };
        if self.conns[i].dead.is_some() {
            return;
        }
        while let Some(&(seq, request)) = self.conns[i].pending.front() {
            let outcome = match self.service.try_take(session, request) {
                Ok(None) => break,
                Ok(Some(Ok(_metrics))) => {
                    // Cut this run's tokens off the front of the
                    // capture; runs completed back to back leave theirs
                    // behind for the next `Result`.
                    let conn = &self.conns[i];
                    let take = match conn.tokens_out_per_run {
                        0 => usize::MAX,
                        n => n as usize,
                    };
                    Ok(conn
                        .capture
                        .as_ref()
                        .map(|capture| capture.take_first(take))
                        .unwrap_or_default())
                }
                Ok(Some(Err(e))) => Err(e.to_string()),
                // The session vanished (evicted/cancelled elsewhere):
                // surface it and close.
                Err(e) => Err(e.to_string()),
            };
            let failed = outcome.is_err();
            self.conns[i].pending.pop_front();
            let frame = Frame::Result { seq, outcome };
            let conn = &mut self.conns[i];
            conn.queue_frame(&frame, &self.metrics);
            self.metrics.results_out.fetch_add(1, Relaxed);
            if failed {
                // A failed run desynchronises the capture stream; end
                // the connection once the results are flushed. Keep
                // taking: results filed together (a cancel files every
                // queued one at once) share one wake, and any left
                // behind would never be woken for again.
                conn.closing = true;
            }
        }
    }

    /// Retries barriers parked on a full ingress queue (a queue slot
    /// frees when a run completes, which wakes the loop).
    fn retry_parked(&mut self, i: usize) {
        let Some(session) = self.conns[i].session else {
            return;
        };
        if self.conns[i].dead.is_some() {
            return;
        }
        while let Some(&seq) = self.conns[i].parked.front() {
            match self.service.submit(session) {
                Ok(request) => {
                    let conn = &mut self.conns[i];
                    conn.parked.pop_front();
                    conn.pending.push_back((seq, request));
                }
                Err(ServiceError::Backpressure { .. }) => break,
                Err(e) => {
                    self.protocol_error(i, &format!("parked barrier {seq}: {e}"));
                    break;
                }
            }
        }
    }

    /// Resumes reads once the backlog cleared — or once nothing in
    /// flight is left that could ever clear it: with no parked
    /// barriers and no pending runs the feed can only drain after
    /// *more frames are read* (the next `Barrier` is still in the
    /// socket), so staying paused would wedge a legal client that
    /// streamed records ahead of its barriers. Checked before every
    /// wait, so a pause never outlives the state that caused it.
    fn maybe_resume(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        if !conn.paused || conn.dead.is_some() {
            return;
        }
        if !conn.parked.is_empty() {
            return;
        }
        let feed_cap = self.config.feed_runs.max(1) * conn.tokens_per_run.max(1);
        if (conn.feed.len() as u64) <= feed_cap || conn.pending.is_empty() {
            conn.paused = false;
        }
    }

    fn read_and_handle(&mut self, i: usize) {
        if self.conns[i].closing || self.conns[i].dead.is_some() {
            return;
        }
        // A pause gates only the socket read — frames already received
        // keep decoding below, otherwise a `Barrier` sitting in the
        // reader behind the records that tripped the high-water mark
        // would never run and the feed would never drain.
        if !self.conns[i].paused {
            let mut buf = [0u8; 65536];
            loop {
                let conn = &mut self.conns[i];
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        self.disconnect(i);
                        return;
                    }
                    Ok(n) => {
                        conn.last_read = Instant::now();
                        conn.reader.extend(&buf[..n]);
                        self.metrics.bytes_in.fetch_add(n as u64, Relaxed);
                        // One chunk per sweep is enough: a firehose
                        // client must not starve its neighbours.
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.disconnect(i);
                        return;
                    }
                }
            }
        }
        // Decode every complete frame buffered so far.
        loop {
            if self.conns[i].dead.is_some() || self.conns[i].closing {
                break;
            }
            match self.conns[i].reader.next_frame_with_len() {
                Ok(Some((frame, len))) => {
                    self.metrics.frames_in.fetch_add(1, Relaxed);
                    self.trace(
                        EventKind::FrameRecv,
                        self.conns[i].id,
                        frame.type_byte() as u64,
                        len as u64,
                    );
                    self.handle_frame(i, frame);
                }
                Ok(None) => break,
                Err(e) => {
                    self.protocol_error(i, &e.to_string());
                    break;
                }
            }
        }
    }

    fn handle_frame(&mut self, i: usize, frame: Frame) {
        match frame {
            Frame::Hello { app, .. } => self.handle_hello(i, &app),
            Frame::Records { tokens } => self.handle_records(i, tokens),
            Frame::Barrier { seq } => self.handle_barrier(i, seq),
            Frame::Bye => {
                let Some(session) = self.conns[i].session else {
                    // A session-less Bye is a clean no-op close.
                    self.conns[i].closing = true;
                    return;
                };
                let _ = self.service.close(session);
                self.conns[i].closing = true;
            }
            // Result and Backoff are server-to-client only.
            Frame::Result { .. } | Frame::Backoff { .. } => {
                self.protocol_error(i, "client sent a server-only frame");
            }
        }
    }

    fn handle_hello(&mut self, i: usize, app_name: &str) {
        if self.conns[i].session.is_some() {
            self.protocol_error(i, "Hello on a connection with an open session");
            return;
        }
        let Some(app) = self.apps.get(app_name).cloned() else {
            self.protocol_error(i, &format!("unknown app {app_name:?}"));
            return;
        };
        let feed = self.conns[i].feed.clone();
        let (registry, capture) = (app.build)(&feed);
        match self
            .service
            .open_session(&app.graph, app.config.clone(), registry)
        {
            Ok(session) => {
                self.metrics.sessions_opened.fetch_add(1, Relaxed);
                let conn = &mut self.conns[i];
                conn.session = Some(session);
                conn.capture = Some(capture);
                conn.tokens_per_run = app.tokens_per_run;
                conn.tokens_out_per_run = app.tokens_out_per_run;
                let ack = Frame::Hello {
                    app: app_name.to_string(),
                    session: session.0,
                    tokens_per_run: app.tokens_per_run,
                };
                conn.queue_frame(&ack, &self.metrics);
            }
            Err(
                e @ (ServiceError::SessionLimit { .. }
                | ServiceError::Oversubscribed { .. }
                | ServiceError::Draining),
            ) => {
                // Admission said no: tell the client to back off and
                // keep the connection for a retry.
                let _ = e;
                self.metrics.admission_refusals.fetch_add(1, Relaxed);
                self.send_backoff(i, 0, BackoffReason::AdmissionRefused);
            }
            Err(e) => {
                self.protocol_error(i, &format!("open_session: {e}"));
            }
        }
    }

    fn handle_records(&mut self, i: usize, tokens: Vec<Token>) {
        let conn = &mut self.conns[i];
        if conn.session.is_none() {
            self.protocol_error(i, "Records before Hello");
            return;
        }
        self.metrics
            .records_in
            .fetch_add(tokens.len() as u64, Relaxed);
        conn.credited += tokens.len() as u64;
        conn.feed.push(tokens);
        let feed_cap = self.config.feed_runs.max(1) * conn.tokens_per_run.max(1);
        let buffered = conn.feed.len() as u64;
        if buffered > feed_cap.saturating_mul(FEED_HARD_CAP_RUNS) {
            self.protocol_error(
                i,
                &format!(
                    "records flood: {buffered} tokens buffered against a high-water mark of \
                     {feed_cap}"
                ),
            );
            return;
        }
        if buffered > feed_cap && !conn.paused {
            conn.paused = true;
            let session = conn.session.map_or(0, |s| s.0);
            self.send_backoff(i, session, BackoffReason::FeedFull);
        }
    }

    fn handle_barrier(&mut self, i: usize, seq: u64) {
        let Some(session) = self.conns[i].session else {
            self.protocol_error(i, "Barrier before Hello");
            return;
        };
        if self.conns[i].credited < self.conns[i].tokens_per_run {
            self.protocol_error(
                i,
                &format!(
                    "Barrier {seq} with {} of {} run tokens received",
                    self.conns[i].credited, self.conns[i].tokens_per_run
                ),
            );
            return;
        }
        self.conns[i].credited -= self.conns[i].tokens_per_run;
        // Order matters: behind a parked barrier everything parks.
        if !self.conns[i].parked.is_empty() {
            self.conns[i].parked.push_back(seq);
            return;
        }
        match self.service.submit(session) {
            Ok(request) => self.conns[i].pending.push_back((seq, request)),
            Err(ServiceError::Backpressure { .. }) => {
                self.conns[i].parked.push_back(seq);
                self.conns[i].paused = true;
                self.send_backoff(i, session.0, BackoffReason::QueueFull);
            }
            Err(e) => self.protocol_error(i, &format!("Barrier {seq}: {e}")),
        }
    }

    fn send_backoff(&mut self, i: usize, session: u64, reason: BackoffReason) {
        self.metrics.backoffs.fetch_add(1, Relaxed);
        self.trace(EventKind::Backoff, self.conns[i].id, session, 0);
        let frame = Frame::Backoff { session, reason };
        self.conns[i].queue_frame(&frame, &self.metrics);
    }

    fn flush_writes(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        if conn.dead.is_some() || conn.outbuf.is_empty() {
            return;
        }
        let mut written = 0;
        loop {
            match conn.stream.write(&conn.outbuf[written..]) {
                Ok(0) => break,
                Ok(n) => {
                    written += n;
                    if written == conn.outbuf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.disconnect(i);
                    return;
                }
            }
        }
        if written > 0 {
            let conn = &mut self.conns[i];
            conn.outbuf.drain(..written);
            conn.last_write_progress = Instant::now();
            self.metrics.bytes_out.fetch_add(written as u64, Relaxed);
        }
    }

    /// Completes a clean `Bye` close once every result is flushed.
    fn finish_closing(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        if !conn.closing || conn.dead.is_some() {
            return;
        }
        if !conn.bye_sent && conn.pending.is_empty() && conn.parked.is_empty() {
            conn.bye_sent = true;
            let frame = Frame::Bye;
            conn.queue_frame(&frame, &self.metrics);
        }
        if conn.bye_sent && conn.outbuf.is_empty() {
            conn.dead = Some(CLOSE_CLEAN);
        }
    }

    fn check_timeouts(&mut self, i: usize, now: Instant) {
        let conn = &self.conns[i];
        if conn.dead.is_some() {
            return;
        }
        if conn.deadline(&self.config).is_some_and(|due| now > due) {
            self.metrics.conns_evicted.fetch_add(1, Relaxed);
            self.conns[i].dead = Some(CLOSE_EVICTED);
        }
    }

    fn disconnect(&mut self, i: usize) {
        if self.conns[i].dead.is_none() {
            self.conns[i].dead = Some(CLOSE_DISCONNECT);
        }
    }

    fn protocol_error(&mut self, i: usize, detail: &str) {
        let _ = detail;
        self.metrics.protocol_errors.fetch_add(1, Relaxed);
        if self.conns[i].dead.is_none() {
            self.conns[i].dead = Some(CLOSE_PROTOCOL);
        }
    }

    /// Drops finished connections, cancelling sessions that did not
    /// end with a clean `Bye` (the PR 5 cancellation path: queued
    /// requests drop, the in-flight run halts at its next scheduling
    /// point).
    fn reap(&mut self) {
        let mut i = 0;
        while i < self.conns.len() {
            let Some(reason) = self.conns[i].dead else {
                i += 1;
                continue;
            };
            let conn = self.conns.swap_remove(i);
            if let Some(session) = conn.session {
                if reason == CLOSE_CLEAN {
                    // close() already ran at Bye; nothing to cancel.
                } else {
                    let _ = self.service.cancel(session);
                }
            }
            self.metrics.conns_closed.fetch_add(1, Relaxed);
            self.trace(EventKind::ConnClose, conn.id, reason, 0);
        }
    }
}
