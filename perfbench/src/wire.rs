//! The wire workloads: one generator thread drives non-blocking
//! loopback connections through the public frame codec, on an open-loop
//! schedule or a closed loop, and verifies every `Result` frame against
//! the reference demodulation of the block it sent.
//!
//! `NetClient` blocks on each reply, so it cannot hold an open-loop
//! schedule; the generator instead writes `Records` + `Barrier` frames
//! itself, reads replies through a `FrameReader`, and sleeps in
//! `ppoll(2)` until the next send is due or a reply is readable.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdf_suite::apps::ofdm::OfdmConfig;
use tpdf_suite::net::frame::write_frame;
use tpdf_suite::net::ofdm::{run_records, wire_fed_ofdm};
use tpdf_suite::net::{Frame, FrameReader, NetApps, NetConfig, NetMetricsSnapshot, NetServer};
use tpdf_suite::ops::{OpsConfig, OpsPlane};
use tpdf_suite::runtime::cases::OfdmRuntime;
use tpdf_suite::runtime::Token;
use tpdf_suite::service::{ServiceConfig, ServiceMetrics, TpdfService};
use tpdf_suite::trace::Tracer;

use crate::layers::{self, WireRecord};
use crate::procfs::{self, CpuSnapshot};
use crate::stats::{median, ratio, SplitMix};
use crate::{Slice, Window, GRACE, POOL_THREADS, SETUPS, SLICE, WARMUP};

/// How a stream offers its requests.
pub enum Load {
    /// Sends on a fixed schedule whatever the replies do.
    Open { rate_hz: f64 },
    /// Sends the next request when the previous result arrives.
    Closed,
}

/// One connection's traffic.
pub struct Stream {
    app: &'static str,
    config: OfdmConfig,
    load: Load,
    probe: bool,
}

const fn ofdm(symbol_len: usize, cyclic_prefix: usize, bits: usize, beta: usize) -> OfdmConfig {
    OfdmConfig {
        symbol_len,
        cyclic_prefix,
        bits_per_symbol: bits,
        vectorization: beta,
    }
}

/// The probe: small QPSK requests at a low fixed rate. Both wire
/// workloads carry the same probe, so its latency on `wire_bulk` against
/// `wire_small` is what the bulk neighbour costs it.
fn probe() -> Stream {
    Stream {
        app: "qpsk16",
        config: ofdm(16, 2, 2, 2),
        load: Load::Open { rate_hz: 200.0 },
        probe: true,
    }
}

/// `wire_small`: 16-QAM at 1800 req/s beside the QPSK probe at 200 req/s,
/// so both Transaction branches fire; 2000 req/s in all, well below
/// saturation on a 2-CPU host.
pub fn small() -> Vec<Stream> {
    vec![
        Stream {
            app: "qam16",
            config: ofdm(16, 1, 4, 2),
            load: Load::Open { rate_hz: 1800.0 },
            probe: false,
        },
        probe(),
    ]
}

/// `wire_bulk`: one closed-loop bulk request outstanding (2064 samples,
/// ≈35 KB) beside the QPSK probe.
pub fn bulk() -> Vec<Stream> {
    vec![
        Stream {
            app: "bulk256",
            config: ofdm(256, 2, 2, 8),
            load: Load::Closed,
            probe: false,
        },
        probe(),
    ]
}

/// The offered load, for the result's stamp.
pub fn describe(streams: &[Stream]) -> String {
    let parts: Vec<String> = streams
        .iter()
        .map(|s| match s.load {
            Load::Open { rate_hz } => format!("{} open {rate_hz} req/s", s.app),
            Load::Closed => format!("{} closed 1 outstanding", s.app),
        })
        .collect();
    parts.join("; ")
}

/// Distinct symbol blocks per stream; each request sends one, drawn by
/// the seed.
const POOL_BLOCKS: usize = 32;
/// Trace events per second the busiest lane records on these
/// workloads (≈30 k measured), with headroom: the flight recorder is
/// sized so a whole window fits and nothing is overwritten.
const TRACE_EVENTS_PER_S: u64 = 40_000;
/// Bound on any frame the generator accepts.
const MAX_FRAME: usize = 16 << 20;

struct Block {
    frame: Frame,
    records: Vec<u8>,
    expected: Vec<u8>,
    tokens: u64,
}

fn blocks(stream: &Stream, rng: &mut SplitMix) -> Vec<Block> {
    (0..POOL_BLOCKS)
        .map(|_| {
            let port = OfdmRuntime::new(stream.config, rng.next_u64());
            let samples = run_records(&port);
            let tokens = samples.len() as u64;
            let frame = Frame::Records { tokens: samples };
            let mut records = Vec::new();
            write_frame(&mut records, &frame);
            Block {
                frame,
                records,
                expected: port.reference_bits(),
                tokens,
            }
        })
        .collect()
}

fn output_matches(tokens: &[Token], expected: &[u8]) -> bool {
    tokens.len() == expected.len()
        && tokens
            .iter()
            .zip(expected)
            .all(|(t, &bit)| matches!(t, Token::Byte(b) if *b == bit))
}

struct Pending {
    seq: u64,
    block: usize,
    due_ns: u64,
    /// Stream offset at which the barrier's last byte is written.
    flush_at: u64,
    flushed_ns: u64,
    measured: bool,
}

struct Conn {
    stream: TcpStream,
    session: u64,
    reader: FrameReader,
    out: Vec<u8>,
    out_sent: usize,
    bytes_written: u64,
    pending: VecDeque<Pending>,
    next_seq: u64,
    next_due_ns: u64,
    rng: SplitMix,
    dead: bool,
}

impl Conn {
    /// Connects and opens a session: `Hello` out, `Hello` ack back.
    fn open(addr: SocketAddr, app: &str, rng: SplitMix) -> Result<Conn, String> {
        let io = |e: std::io::Error| format!("{app}: {e}");
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(io)?;
        let mut hello = Vec::new();
        write_frame(
            &mut hello,
            &Frame::Hello {
                app: app.to_string(),
                session: 0,
                tokens_per_run: 0,
            },
        );
        stream.write_all(&hello).map_err(io)?;
        let mut reader = FrameReader::new(MAX_FRAME);
        let mut buf = [0u8; 4096];
        let session = loop {
            match reader.next_frame().map_err(|e| format!("{app}: {e}"))? {
                Some(Frame::Hello { session, .. }) => break session,
                Some(other) => return Err(format!("{app}: Hello answered with {other:?}")),
                None => {
                    let n = stream.read(&mut buf).map_err(io)?;
                    if n == 0 {
                        return Err(format!("{app}: closed during Hello"));
                    }
                    reader.extend(&buf[..n]);
                }
            }
        };
        stream.set_nonblocking(true).map_err(io)?;
        Ok(Conn {
            stream,
            session,
            reader,
            out: Vec::new(),
            out_sent: 0,
            bytes_written: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            next_due_ns: 0,
            rng,
            dead: false,
        })
    }

    fn enqueue(&mut self, blocks: &[Block], due_ns: u64, measured: bool) {
        let block = self.rng.below(blocks.len());
        self.out.extend_from_slice(&blocks[block].records);
        write_frame(&mut self.out, &Frame::Barrier { seq: self.next_seq });
        let flush_at = self.bytes_written + (self.out.len() - self.out_sent) as u64;
        self.pending.push_back(Pending {
            seq: self.next_seq,
            block,
            due_ns,
            flush_at,
            flushed_ns: 0,
            measured,
        });
        self.next_seq += 1;
    }

    /// Writes what the socket takes; returns whether bytes moved.
    fn flush(&mut self) -> bool {
        let mut moved = false;
        while self.out_sent < self.out.len() {
            match self.stream.write(&self.out[self.out_sent..]) {
                Ok(n) => {
                    self.out_sent += n;
                    self.bytes_written += n as u64;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("session {}: write: {e}", self.session);
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_sent == self.out.len() {
            self.out.clear();
            self.out_sent = 0;
        }
        moved
    }

    /// Reads what the socket holds into the frame reader.
    fn fill(&mut self, buf: &mut [u8]) {
        loop {
            match self.stream.read(buf) {
                Ok(0) => {
                    eprintln!("session {}: server closed the connection", self.session);
                    self.dead = true;
                    return;
                }
                Ok(n) => self.reader.extend(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("session {}: read: {e}", self.session);
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// The stack under test plus the generator's connections.
struct Stack {
    service: Arc<TpdfService>,
    server: NetServer,
    ops: OpsPlane,
    conns: Vec<Conn>,
}

impl Stack {
    fn build(streams: &[Stream], tracer: Option<&Arc<Tracer>>, seed: u64) -> Result<Stack, String> {
        let mut apps = NetApps::new();
        for stream in streams {
            let (app, _port) = wire_fed_ofdm(stream.config, 0, POOL_THREADS);
            apps.register(stream.app, app);
        }
        let mut config = ServiceConfig::default().with_threads(POOL_THREADS);
        if let Some(tracer) = tracer {
            config = config.with_tracer(Arc::clone(tracer));
        }
        let service = Arc::new(TpdfService::new(config));
        let ops = OpsPlane::start(Arc::clone(&service), OpsConfig::default())
            .map_err(|e| format!("ops plane: {e}"))?;
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            apps,
            NetConfig::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        ops.attach_net(server.metrics_handle());
        // Connections open one after another, so the server numbers
        // them 1, 2, … in stream order (what trace attribution relies on).
        let conns = streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let rng = SplitMix::new(seed ^ (0x5eed_0000 + i as u64));
                Conn::open(server.local_addr(), s.app, rng)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Stack {
            service,
            server,
            ops,
            conns,
        })
    }

    fn close(self) {
        let mut bye = Vec::new();
        write_frame(&mut bye, &Frame::Bye);
        for mut conn in self.conns {
            let _ = conn.stream.write(&bye);
        }
        self.server.shutdown();
        self.ops.shutdown();
        drop(self.service);
    }

    fn snapshot(&self) -> (NetMetricsSnapshot, ServiceMetrics) {
        (self.server.metrics(), self.service.metrics())
    }
}

/// The timebase of every stamp: the tracer's own clock in traced
/// windows, so client stamps line up with the server's trace events.
struct Clock {
    epoch: Instant,
    tracer: Option<Arc<Tracer>>,
}

impl Clock {
    fn now_ns(&self) -> u64 {
        match &self.tracer {
            Some(tracer) => tracer.now_ns(),
            None => self.epoch.elapsed().as_nanos() as u64,
        }
    }
}

/// The generator's schedule and its bookkeeping of one window.
struct Generator {
    clock: Clock,
    warm_end: u64,
    win_end: u64,
    window: Window,
    records: Vec<WireRecord>,
}

impl Generator {
    /// The slice of the window holding instant `ts`, if any.
    fn slice_at(&mut self, ts: u64) -> Option<&mut Slice> {
        let k = ts.checked_sub(self.warm_end)? / SLICE.as_nanos() as u64;
        self.window.slices.get_mut(k as usize)
    }

    /// Queues every open-loop request due by `now` (and before the
    /// window closes), or the closed loop's next request once its
    /// previous one answered.
    fn issue(&mut self, conn: &mut Conn, stream: &Stream, pool: &[Block], now: u64) {
        match stream.load {
            Load::Open { rate_hz } => {
                let interval = (1e9 / rate_hz) as u64;
                while conn.next_due_ns <= now && conn.next_due_ns < self.win_end {
                    let due = conn.next_due_ns;
                    conn.enqueue(pool, due, due >= self.warm_end);
                    conn.next_due_ns += interval;
                    self.window.attempted += 1;
                }
            }
            Load::Closed => {
                if conn.pending.is_empty() && now < self.win_end {
                    conn.enqueue(pool, now, now >= self.warm_end);
                    self.window.attempted += 1;
                }
            }
        }
    }

    /// Writes what the socket takes and stamps the barriers that left.
    fn flush(&mut self, conn: &mut Conn, stream: &Stream) {
        if !conn.flush() {
            return;
        }
        let stamp = self.clock.now_ns();
        for p in conn.pending.iter_mut() {
            if p.flushed_ns == 0 && p.flush_at <= conn.bytes_written {
                p.flushed_ns = stamp;
                if p.measured && matches!(stream.load, Load::Open { .. }) {
                    self.window.gen_lag_ns.push(stamp.saturating_sub(p.due_ns));
                }
            }
        }
    }

    /// Decodes the replies buffered on stream `i`'s connection, checks
    /// each `Result` against its block's reference and books it.
    fn take_replies(&mut self, i: usize, conn: &mut Conn, stream: &Stream, pool: &[Block]) {
        while !conn.dead {
            let frame = match conn.reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(e) => {
                    eprintln!("{}: undecodable reply: {e}", stream.app);
                    conn.dead = true;
                    return;
                }
            };
            let (seq, outcome) = match frame {
                Frame::Result { seq, outcome } => (seq, outcome),
                Frame::Backoff { .. } => continue,
                other => {
                    eprintln!("{}: unexpected reply {other:?}", stream.app);
                    conn.dead = true;
                    return;
                }
            };
            let recv_ns = self.clock.now_ns();
            let Some(p) = conn.pending.pop_front().filter(|p| p.seq == seq) else {
                eprintln!("{}: result {seq} out of order", stream.app);
                conn.dead = true;
                return;
            };
            let block = &pool[p.block];
            match &outcome {
                Ok(tokens) if output_matches(tokens, &block.expected) => {}
                Ok(_) => {
                    eprintln!(
                        "{}: request {seq}: output differs from the reference",
                        stream.app
                    );
                    self.window.mismatched += 1;
                    self.window.failed += 1;
                    continue;
                }
                Err(e) => {
                    eprintln!("{}: request {seq} failed: {e}", stream.app);
                    self.window.failed += 1;
                    continue;
                }
            }
            if let Some(slice) = self.slice_at(recv_ns) {
                slice.completed += 1;
                slice.tokens += block.tokens;
                self.window.completed += 1;
            }
            if p.measured {
                let latency = recv_ns.saturating_sub(p.due_ns);
                let slice = self
                    .slice_at(p.due_ns)
                    .expect("measured requests are due in the window");
                if stream.probe {
                    slice.probe_ns.push(latency);
                    self.window.probe_ns.push(latency);
                } else {
                    slice.main_ns.push(latency);
                    self.window.main_ns.push(latency);
                }
                self.records.push(WireRecord {
                    stream: i,
                    seq,
                    flushed_ns: p.flushed_ns,
                    recv_ns,
                });
            }
        }
    }
}

pub fn run(
    streams: &[Stream],
    seed: u64,
    seconds: Duration,
    traced: bool,
) -> Result<Window, String> {
    let mut rng = SplitMix::new(seed);
    let pools: Vec<Vec<Block>> = streams.iter().map(|s| blocks(s, &mut rng)).collect();
    let tracer = traced.then(|| {
        let span = WARMUP + seconds + GRACE;
        let capacity = (span.as_secs() + 1) * TRACE_EVENTS_PER_S;
        let tracer = Tracer::flight_recorder(POOL_THREADS, capacity.next_power_of_two() as usize);
        tracer.set_enabled(false);
        tracer
    });
    let mut window = Window::default();
    let mut stack = None;
    for i in 0..SETUPS {
        let last = i + 1 == SETUPS;
        let start = Instant::now();
        let built = Stack::build(streams, tracer.as_ref().filter(|_| last), seed)?;
        window.setup_s.push(start.elapsed().as_secs_f64());
        if last {
            stack = Some(built);
        } else {
            built.close();
        }
    }
    let mut stack = stack.expect("SETUPS > 0");
    let clock = Clock {
        epoch: Instant::now(),
        tracer: tracer.clone(),
    };
    set_fine_timer_slack();

    let slices = (seconds.as_nanos() / SLICE.as_nanos()).max(1) as u64;
    window.slices = (0..slices).map(|_| Slice::default()).collect();
    let slice_ns = SLICE.as_nanos() as u64;
    let warm_end = clock.now_ns() + WARMUP.as_nanos() as u64;
    let mut gen = Generator {
        clock,
        warm_end,
        win_end: warm_end + slices * slice_ns,
        window,
        records: Vec::new(),
    };
    let grace_end = gen.win_end + GRACE.as_nanos() as u64;
    let start_ns = gen.clock.now_ns();
    for (conn, stream) in stack.conns.iter_mut().zip(streams) {
        if let Load::Open { rate_hz } = stream.load {
            conn.next_due_ns = start_ns + (conn.rng.unit() * 1e9 / rate_hz) as u64;
        }
    }

    // CPU snapshots at every slice edge, counters at the window's edges.
    let mut cuts: Vec<(u64, CpuSnapshot)> = Vec::new();
    let mut before = None;
    let mut after = None;
    let mut buf = vec![0u8; 1 << 16];
    let mut fds = Vec::new();
    loop {
        let now = gen.clock.now_ns();
        let next_cut = gen.warm_end + cuts.len() as u64 * slice_ns;
        if cuts.len() as u64 <= slices && now >= next_cut {
            if cuts.is_empty() {
                if let Some(tracer) = &tracer {
                    tracer.set_enabled(true);
                }
                before = Some(stack.snapshot());
            }
            cuts.push((now, procfs::cpu_snapshot()?));
            if cuts.len() as u64 > slices {
                after = Some(stack.snapshot());
            }
        }
        for (i, conn) in stack.conns.iter_mut().enumerate() {
            if conn.dead {
                continue;
            }
            let (stream, pool) = (&streams[i], &pools[i]);
            gen.issue(conn, stream, pool, now);
            gen.flush(conn, stream);
            conn.fill(&mut buf);
            gen.take_replies(i, conn, stream, pool);
        }
        let idle = stack.conns.iter().all(|c| c.dead || c.pending.is_empty());
        if now >= gen.win_end && (idle || now >= grace_end) {
            break;
        }
        // Sleep until a reply is readable, buffered bytes can be
        // written, or the next deadline (send, slice edge) comes up.
        let mut wake = if cuts.len() as u64 <= slices {
            gen.warm_end + cuts.len() as u64 * slice_ns
        } else {
            grace_end
        };
        fds.clear();
        for (conn, stream) in stack.conns.iter().zip(streams).filter(|(c, _)| !c.dead) {
            if now < gen.win_end {
                wake = wake.min(match stream.load {
                    Load::Open { .. } => conn.next_due_ns,
                    // A closed loop whose reply just arrived sends now.
                    Load::Closed if conn.pending.is_empty() => now,
                    Load::Closed => wake,
                });
            }
            let mut events = POLLIN;
            if conn.out_sent < conn.out.len() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        wait_ready(&mut fds, wake.saturating_sub(gen.clock.now_ns()));
    }
    let Generator {
        mut window,
        records,
        ..
    } = gen;
    if let Some(tracer) = &tracer {
        tracer.set_enabled(false);
    }
    for conn in &stack.conns {
        window.failed += conn.pending.len() as u64;
        window.dead_streams += u64::from(conn.dead);
    }
    if window.dead_streams > 0 {
        // Why the server dropped the connection: protocol error,
        // eviction or a failed run shows in its counters.
        eprintln!("server counters: {:?}", stack.server.metrics());
    }
    let (Some((net0, svc0)), Some((net1, svc1))) = (before, after) else {
        return Err("the window never closed".to_string());
    };
    for (slice, pair) in window.slices.iter_mut().zip(cuts.windows(2)) {
        slice.secs = (pair[1].0 - pair[0].0) as f64 / 1e9;
        slice.system_cpu_ns = procfs::layer_cpu(&pair[0].1, &pair[1].1).system_ns();
    }
    let (first, last) = (&cuts[0], &cuts[cuts.len() - 1]);
    window.window_s = (last.0 - first.0) as f64 / 1e9;
    window.cpu = procfs::layer_cpu(&first.1, &last.1);
    window.host_steal_pct = procfs::host_steal_pct(&first.1, &last.1);
    window.counts = counts(
        &stack,
        &pools[0],
        (&net0, &net1),
        (&svc0, &svc1),
        window.window_s,
    );
    if let Some(tracer) = &tracer {
        let sessions: Vec<u64> = stack.conns.iter().map(|c| c.session).collect();
        let spans = layers::wire(tracer, &records, &sessions, 0);
        window.spans = spans.metrics;
        window.attributed_us = spans.attributed_us;
        window.trace_dropped = spans.dropped;
    }
    stack.close();
    window.rss_kib = procfs::rss_peak_kib()?;
    Ok(window)
}

/// Per-layer metrics read from counters and timed calls.
fn counts(
    stack: &Stack,
    main_blocks: &[Block],
    (net0, net1): (&NetMetricsSnapshot, &NetMetricsSnapshot),
    (svc0, svc1): (&ServiceMetrics, &ServiceMetrics),
    window_s: f64,
) -> Vec<(&'static str, f64)> {
    let results = (net1.results_out - net0.results_out) as f64;
    let sum = |m: &ServiceMetrics, f: fn(&tpdf_suite::service::SessionMetrics) -> u64| -> f64 {
        m.per_session.iter().map(f).sum::<u64>() as f64
    };
    let hits = sum(svc1, |s| s.arena_hits) - sum(svc0, |s| s.arena_hits);
    let misses = sum(svc1, |s| s.arena_misses) - sum(svc0, |s| s.arena_misses);
    let firings = sum(svc1, |s| s.firings) - sum(svc0, |s| s.firings);
    let (encode, decode) = codec_mb_per_s(main_blocks);
    vec![
        ("net.frame.encode_mb_per_s", encode),
        ("net.frame.decode_mb_per_s", decode),
        (
            "net.frame.bytes_per_token",
            ratio(
                (net1.bytes_in - net0.bytes_in) as f64,
                (net1.records_in - net0.records_in) as f64,
            ),
        ),
        (
            "net.server.frames_in_per_request",
            ratio((net1.frames_in - net0.frames_in) as f64, results),
        ),
        (
            "net.server.frames_out_per_request",
            ratio((net1.frames_out - net0.frames_out) as f64, results),
        ),
        (
            "net.server.backoffs_per_kreq",
            1000.0 * ratio((net1.backoffs - net0.backoffs) as f64, results),
        ),
        (
            "service.requests_rejected",
            (svc1.requests_rejected - svc0.requests_rejected) as f64,
        ),
        ("runtime.executor.firings_per_s", ratio(firings, window_s)),
        (
            "runtime.executor.arena_hit_ratio",
            if hits + misses == 0.0 {
                1.0
            } else {
                hits / (hits + misses)
            },
        ),
        ("ops.scrape_us_p50", scrape_us(&stack.ops)),
    ]
}

/// Median time of one `/metrics` render, µs.
fn scrape_us(ops: &OpsPlane) -> f64 {
    let times: Vec<f64> = (0..20)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(ops.metrics_text());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Encode (`write_frame`) and decode (`FrameReader::next_frame`) rates
/// on the workload's own `Records` frames, MB/s: medians of 5 rounds of
/// at least 20 ms each.
fn codec_mb_per_s(blocks: &[Block]) -> (f64, f64) {
    let round = |step: &mut dyn FnMut(&Block) -> usize| -> f64 {
        let mut rates: Vec<f64> = Vec::new();
        for _ in 0..5 {
            let (start, mut bytes) = (Instant::now(), 0usize);
            while start.elapsed() < Duration::from_millis(20) {
                for block in blocks {
                    bytes += step(block);
                }
            }
            rates.push(bytes as f64 / start.elapsed().as_secs_f64() / 1e6);
        }
        median(&rates)
    };
    let mut out = Vec::new();
    let encode = round(&mut |block| {
        out.clear();
        write_frame(&mut out, std::hint::black_box(&block.frame));
        out.len()
    });
    let mut reader = FrameReader::new(MAX_FRAME);
    let decode = round(&mut |block| {
        reader.extend(&block.records);
        let frame = reader.next_frame().expect("own frame decodes");
        std::hint::black_box(frame);
        block.records.len()
    });
    (encode, decode)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct TimeSpec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const TimeSpec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Blocks until one of `fds` is ready or `timeout_ns` passes.
fn wait_ready(fds: &mut [PollFd], timeout_ns: u64) {
    let timeout = TimeSpec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `pollfd`
    // layouts (`#[repr(C)]`, fields as in <poll.h>) whose length is
    // passed as `nfds`; `timeout` outlives the call; a null sigmask
    // leaves the signal mask unchanged. Errors (EINTR) only end the wait
    // early, which the caller's loop tolerates.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        );
    }
}

/// Sets this thread's timer slack to 1 ns, so a `ppoll` timeout wakes
/// the generator when a send is due instead of up to 50 µs later.
fn set_fine_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches only the calling thread's scheduling attribute.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}
