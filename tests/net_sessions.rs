//! End-to-end suite for the `tpdf-net` ingestion layer: loopback
//! clients stream OFDM symbol runs into wire-fed service sessions and
//! every client's demodulated output must be **byte-identical to a
//! solo in-memory run** of the same graph; backpressure must be
//! observable (a pipelining client provably stalls on `Backoff`
//! instead of losing records); wire garbage must close the connection
//! with a counted protocol error, never a panic; a mid-run disconnect
//! must cancel the session; idle clients must be evicted; no wakeup
//! of the event-driven loop may be lost; and the server must not leak
//! OS threads.

mod common;

use common::{in_own_process, in_own_process_with_fd_limit, os_thread_count, serial};
use std::fs::File;
use std::io::{Read, Seek, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tpdf_suite::apps::ofdm::OfdmConfig;
use tpdf_suite::net::frame::write_frame;
use tpdf_suite::net::ofdm::{run_records, wire_fed_ofdm};
use tpdf_suite::net::{Frame, FrameReader, NetApps, NetClient, NetConfig, NetFeed, NetServer};
use tpdf_suite::runtime::{Executor, Token};
use tpdf_suite::service::{ServiceConfig, SessionId, TpdfService};

/// Runs each wire-fed client streams (and the solo reference executes).
const RUNS: u64 = 3;

fn ofdm_variants() -> Vec<(&'static str, OfdmConfig, u64)> {
    vec![
        (
            "ofdm_qpsk_a",
            OfdmConfig {
                symbol_len: 16,
                cyclic_prefix: 2,
                bits_per_symbol: 2,
                vectorization: 2,
            },
            31,
        ),
        (
            "ofdm_qam",
            OfdmConfig {
                symbol_len: 16,
                cyclic_prefix: 1,
                bits_per_symbol: 4,
                vectorization: 2,
            },
            5,
        ),
        (
            "ofdm_qpsk_b",
            OfdmConfig {
                symbol_len: 32,
                cyclic_prefix: 2,
                bits_per_symbol: 2,
                vectorization: 3,
            },
            77,
        ),
        (
            "ofdm_qam_b",
            OfdmConfig {
                symbol_len: 8,
                cyclic_prefix: 2,
                bits_per_symbol: 4,
                vectorization: 4,
            },
            13,
        ),
    ]
}

/// Byte-identity across N concurrent wire-fed clients, with an
/// observable backpressure leg and no thread leak.
#[test]
fn wire_fed_clients_match_solo_runs_with_observable_backpressure() {
    let _guard = serial();
    if !in_own_process("wire_fed_clients_match_solo_runs_with_observable_backpressure") {
        return;
    }
    let variants = ofdm_variants();
    assert!(variants.len() >= 4, "the issue demands N >= 4 clients");

    // Solo references first (scoped runs join their threads before the
    // leak check baselines).
    let mut apps = NetApps::new();
    let mut client_plans = Vec::new();
    for (name, config, seed) in &variants {
        let (app, port) = wire_fed_ofdm(*config, *seed, 2);
        let (solo_registry, solo_capture) = port.registry();
        let solo = Executor::new(&app.graph, app.config.clone()).expect("solo executor");
        for _ in 0..RUNS {
            solo.run(&solo_registry).expect("solo run");
        }
        let solo_tokens = solo_capture.take_tokens();
        assert!(!solo_tokens.is_empty(), "{name}: empty solo reference");
        client_plans.push((*name, run_records(&port), solo_tokens));
        apps.register(name, app);
    }

    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(4)
            .with_max_sessions(variants.len() + 1)
            .with_queue_capacity(2),
    ));
    let baseline = os_thread_count();
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig {
            feed_runs: 1,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // One thread per client; the LAST client pipelines every barrier
    // before reading a single result and streams records one run
    // ahead, so it must overrun the one-run feed high-water mark
    // (`Backoff(FeedFull)`) — the observable backpressure leg.
    let pipeline_runs = 6u64;
    let mut handles = Vec::new();
    for (idx, (name, records, solo_tokens)) in client_plans.into_iter().enumerate() {
        let pipelining = idx == variants.len() - 1;
        handles.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("connect");
            let ack = client.hello(name).expect("hello");
            assert_eq!(
                ack.tokens_per_run,
                records.len() as u64,
                "{name}: advertised run size disagrees with the stream"
            );
            let runs = if pipelining { pipeline_runs } else { RUNS };
            let mut received: Vec<Token> = Vec::new();
            if pipelining {
                // One run of records ahead of the barriers: the
                // second records frame overruns the one-run feed
                // high-water mark before any run exists to drain it,
                // so the Backoff below is deterministic.
                client.records(&records).expect("records");
                for seq in 0..runs {
                    if seq + 1 < runs {
                        client.records(&records).expect("records");
                    }
                    client.barrier(seq).expect("barrier");
                }
                for _ in 0..runs {
                    let (_seq, tokens) = client.result().expect("result");
                    received.extend(tokens);
                }
            } else {
                for seq in 0..runs {
                    client.records(&records).expect("records");
                    client.barrier(seq).expect("barrier");
                    let (got_seq, tokens) = client.result().expect("result");
                    assert_eq!(got_seq, seq, "{name}: results out of order");
                    received.extend(tokens);
                }
            }
            let backoffs = client.bye().expect("bye");
            // Byte identity: the wire-fed session's sink stream equals
            // the solo run's. Each run of this graph replays identical
            // input, so the pipelining client (more runs than the solo
            // reference executed) compares against the per-run slice
            // repeated.
            let mut reference = Vec::new();
            let per_run = solo_tokens.len() / RUNS as usize;
            for _ in 0..runs {
                reference.extend_from_slice(&solo_tokens[..per_run]);
            }
            assert_eq!(
                received, reference,
                "{name}: wire-fed output diverges from the solo run"
            );
            (name, backoffs, pipelining)
        }));
    }

    let mut backpressure_seen = false;
    for handle in handles {
        let (name, backoffs, pipelining) = handle.join().expect("client thread");
        if pipelining {
            assert!(
                backoffs > 0,
                "{name}: the pipelining client never saw a Backoff"
            );
            backpressure_seen = true;
        }
    }
    assert!(backpressure_seen);

    let metrics = server.metrics();
    assert_eq!(metrics.sessions_opened, variants.len() as u64);
    assert!(metrics.backoffs >= 1, "no Backoff frame was ever sent");
    assert_eq!(metrics.protocol_errors, 0);
    assert!(metrics.records_in > 0 && metrics.results_out > 0);

    server.shutdown();
    drop(service);
    // The server thread joined and the pool is shared — nothing net-
    // related may linger.
    if let (Some(before), Some(after)) = (baseline, os_thread_count()) {
        assert!(
            after <= before,
            "thread leak: {before} OS threads before the server, {after} after"
        );
    }
}

/// The event-driven loop sleeps in `poll` until a socket is ready or
/// the service files a result, so a single lost wakeup strands a
/// result. One client makes many short sequential round trips, each
/// under a 2 s read timeout, while a bystander keeps two runs in
/// flight so that run completions land while the loop is consuming
/// earlier wakes. Every round trip must complete and match the solo
/// run.
#[test]
fn sequential_round_trips_lose_no_wakeup() {
    let _guard = serial();
    const ROUND_TRIPS: u64 = 2000;
    let (name, config, seed) = ofdm_variants().swap_remove(0);
    let (app, port) = wire_fed_ofdm(config, seed, 1);
    let (solo_registry, solo_capture) = port.registry();
    let solo = Executor::new(&app.graph, app.config.clone()).expect("solo executor");
    solo.run(&solo_registry).expect("solo run");
    let reference = solo_capture.take_tokens();
    let records = run_records(&port);
    let mut apps = NetApps::new();
    apps.register(name, app);

    let service = Arc::new(TpdfService::new(ServiceConfig::default().with_threads(2)));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let connect = || {
        let mut client = NetClient::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        client.hello(name).expect("hello");
        client
    };

    let done = Arc::new(AtomicBool::new(false));
    let bystander = {
        let (done, records) = (Arc::clone(&done), records.clone());
        let mut client = connect();
        std::thread::spawn(move || {
            let mut seq = 0;
            while !done.load(SeqCst) {
                for _ in 0..2 {
                    client.records(&records).expect("bystander records");
                    client.barrier(seq).expect("bystander barrier");
                    seq += 1;
                }
                for _ in 0..2 {
                    client
                        .result()
                        .unwrap_or_else(|e| panic!("bystander run: {e}"));
                }
            }
            client.bye().expect("bystander bye");
            seq
        })
    };

    let mut client = connect();
    for seq in 0..ROUND_TRIPS {
        client.records(&records).expect("records");
        client.barrier(seq).expect("barrier");
        let (got_seq, tokens) = client
            .result()
            .unwrap_or_else(|e| panic!("round trip {seq}: {e}"));
        assert_eq!(got_seq, seq);
        assert_eq!(tokens, reference, "round trip {seq}: output diverges");
    }
    client.bye().expect("bye");
    done.store(true, SeqCst);
    let bystander_runs = bystander.join().expect("bystander thread");
    assert_eq!(
        server.metrics().results_out,
        ROUND_TRIPS + bystander_runs,
        "every submitted run was answered"
    );
    server.shutdown();
}

/// Holds the firings of a kernel while closed; records that one
/// reached it.
#[derive(Default)]
struct Gate {
    /// `(open, a firing reached the gate)`.
    state: Mutex<(bool, bool)>,
    cond: Condvar,
}

impl Gate {
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 = true;
        self.cond.notify_all();
        drop(self.cond.wait_while(state, |(open, _)| !*open).unwrap());
    }

    fn open(&self) {
        self.state.lock().unwrap().0 = true;
        self.cond.notify_all();
    }

    fn wait_arrival(&self) {
        let state = self.state.lock().unwrap();
        drop(
            self.cond
                .wait_while(state, |(_, arrived)| !*arrived)
                .unwrap(),
        );
    }
}

/// Reads the next frame from a raw client socket, `None` at EOF.
fn next_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Option<Frame> {
    loop {
        if let Some(frame) = reader.next_frame().expect("well-formed frame") {
            return Some(frame);
        }
        let mut buf = [0u8; 65536];
        match stream.read(&mut buf).expect("read within the timeout") {
            0 => return None,
            n => reader.extend(&buf[..n]),
        }
    }
}

/// After a failed result the server closes the connection, but only
/// once every result already filed has gone out. A service-side
/// `cancel` files the queued runs' `Err(Cancelled)` together, under
/// one wake, before the gated in-flight run fails with a wake of its
/// own: a result left behind at that point would never be woken for
/// again. The client must get all three `Result`s in order, then
/// `Bye` and EOF, each under a 2 s read timeout.
#[test]
fn cancelled_session_delivers_every_result_then_bye() {
    let _guard = serial();
    let (name, config, seed) = ofdm_variants().swap_remove(0);
    let (mut app, port) = wire_fed_ofdm(config, seed, 1);
    let records = run_records(&port);
    // `wire_fed_ofdm`'s feed-driven source, behind a gate.
    let gate = Arc::new(Gate::default());
    let (build_port, build_gate) = (port.clone(), Arc::clone(&gate));
    app.build = Arc::new(move |feed: &NetFeed| {
        let (mut registry, capture) = build_port.registry();
        let (feed, gate) = (feed.clone(), Arc::clone(&build_gate));
        let m = build_port.config().bits_per_symbol;
        registry.register_fn("SRC", move |ctx| {
            gate.pass();
            for out in &mut ctx.outputs {
                match out.port {
                    0 => feed.pop_into(out.rate as usize, &mut out.tokens),
                    _ => out.write_cycled(&[Token::Int(m as i64)]),
                }
            }
            Ok(())
        });
        (registry, capture)
    });
    let mut apps = NetApps::new();
    apps.register(name, app);
    let service = Arc::new(TpdfService::new(ServiceConfig::default().with_threads(1)));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig {
            // Room for all three runs' records: no `Backoff` in between.
            feed_runs: 3,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let mut reader = FrameReader::new(64 << 20);
    let mut out = Vec::new();
    write_frame(
        &mut out,
        &Frame::Hello {
            app: name.to_string(),
            session: 0,
            tokens_per_run: 0,
        },
    );
    stream.write_all(&out).expect("send hello");
    let session = match next_frame(&mut stream, &mut reader) {
        Some(Frame::Hello { session, .. }) => SessionId(session),
        other => panic!("expected the Hello ack, got {other:?}"),
    };
    out.clear();
    for seq in 0..3 {
        write_frame(
            &mut out,
            &Frame::Records {
                tokens: records.clone(),
            },
        );
        write_frame(&mut out, &Frame::Barrier { seq });
    }
    stream.write_all(&out).expect("send three runs");

    // Run 0 holds at the gate; runs 1 and 2 queue behind it.
    gate.wait_arrival();
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.metrics().requests_submitted < 3 {
        assert!(
            Instant::now() < deadline,
            "the barriers never reached the service"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    service.cancel(session).expect("cancel");
    gate.open();

    for want in 0..3 {
        match next_frame(&mut stream, &mut reader) {
            Some(Frame::Result { seq, outcome }) => {
                assert_eq!(seq, want, "results out of order");
                assert!(
                    outcome.is_err(),
                    "run {seq} of a cancelled session succeeded"
                );
            }
            other => panic!("expected Result {want}, got {other:?}"),
        }
    }
    assert!(matches!(
        next_frame(&mut stream, &mut reader),
        Some(Frame::Bye)
    ));
    assert!(
        next_frame(&mut stream, &mut reader).is_none(),
        "no EOF after Bye"
    );
    server.shutdown();
}

/// Descriptor exhaustion: a connection the listener cannot accept
/// stays in the backlog and keeps the listener readable. The loop must
/// back off instead of spinning on it, count the failures, and accept
/// the connection once descriptors free. Runs in a child process with
/// a small descriptor limit.
#[test]
fn accept_failures_back_off_instead_of_spinning() {
    let _guard = serial();
    if !in_own_process_with_fd_limit("accept_failures_back_off_instead_of_spinning", 64) {
        return;
    }
    let service = Arc::new(TpdfService::new(ServiceConfig::default().with_threads(1)));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetApps::new(),
        NetConfig::default(),
    )
    .expect("bind loopback");
    // The net thread's on-CPU time, opened while descriptors remain
    // (the thread names itself once it first runs).
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut schedstat = loop {
        let net_thread = std::fs::read_dir("/proc/self/task")
            .expect("task list")
            .map(|task| task.expect("task entry").path())
            .find(|task| {
                std::fs::read_to_string(task.join("comm"))
                    .is_ok_and(|comm| comm.trim() == "tpdf-net")
            });
        if let Some(task) = net_thread {
            break File::open(task.join("schedstat")).expect("schedstat");
        }
        assert!(Instant::now() < deadline, "no tpdf-net thread");
        std::thread::sleep(Duration::from_millis(1));
    };
    let mut on_cpu = || {
        let mut text = String::new();
        schedstat.rewind().expect("rewind");
        schedstat.read_to_string(&mut text).expect("read schedstat");
        let ns: u64 = text.split_whitespace().next().unwrap().parse().unwrap();
        Duration::from_nanos(ns)
    };

    // Take every descriptor but one; the client's socket gets that one
    // and the server's `accept` then has none.
    let mut hogs = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hogs.push(file);
    }
    hogs.pop();
    let client = TcpStream::connect(server.local_addr()).expect("connect on the last descriptor");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().accept_errors == 0 {
        assert!(Instant::now() < deadline, "accept never failed");
        std::thread::sleep(Duration::from_millis(1));
    }

    let (cpu_before, errors_before) = (on_cpu(), server.metrics().accept_errors);
    let window = Duration::from_millis(300);
    std::thread::sleep(window);
    let spent = on_cpu() - cpu_before;
    let retries = server.metrics().accept_errors - errors_before;
    assert!(
        spent < window / 4,
        "the net thread spent {spent:?} of a {window:?} wait on a listener it cannot serve"
    );
    assert!(
        retries >= 2,
        "accept retried only {retries} times while backing off"
    );
    assert_eq!(server.metrics().conns_accepted, 0);

    drop(hogs);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().conns_accepted == 0 {
        assert!(
            Instant::now() < deadline,
            "the backlogged connection was never accepted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(client);
    server.shutdown();
}

/// Wire garbage must produce a counted protocol error and a closed
/// connection — never a panic — and must not poison other clients.
#[test]
fn wire_garbage_is_a_structured_close_not_a_panic() {
    let _guard = serial();
    let (app, port) = wire_fed_ofdm(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        7,
        2,
    );
    let records = run_records(&port);
    let mut apps = NetApps::new();
    apps.register("ofdm", app);
    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_max_sessions(4),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // A hostile length prefix (4 GiB frame) and plain garbage bytes.
    for garbage in [vec![0xffu8; 64], {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"TPDN");
        bytes
    }] {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(&garbage).expect("write garbage");
        // The server must close on us (EOF), not hang or crash.
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    }

    // Poll until both protocol errors are counted.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().protocol_errors < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.metrics().protocol_errors >= 2);

    // A well-behaved client still gets served afterwards.
    let mut client = NetClient::connect(addr).expect("connect");
    client.hello("ofdm").expect("hello");
    client.records(&records).expect("records");
    client.barrier(0).expect("barrier");
    let (_seq, tokens) = client.result().expect("result");
    assert!(!tokens.is_empty());
    client.bye().expect("bye");
    server.shutdown();
}

/// A client that vanishes mid-run is cancelled through the service's
/// cancellation path; `drain` afterwards completes with no stranded
/// work.
#[test]
fn disconnect_mid_run_cancels_the_session() {
    let _guard = serial();
    let (app, port) = wire_fed_ofdm(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        11,
        2,
    );
    let records = run_records(&port);
    let mut apps = NetApps::new();
    apps.register("ofdm", app);
    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_max_sessions(2)
            .with_queue_capacity(4),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig::default(),
    )
    .expect("bind loopback");

    {
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.hello("ofdm").expect("hello");
        for seq in 0..3 {
            client.records(&records).expect("records");
            client.barrier(seq).expect("barrier");
        }
        // Drop without reading a single result: a mid-run disconnect.
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().conns_closed < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.metrics().conns_closed, 1);

    server.shutdown();
    // The real assertion is that drain() returns at all: cancellation
    // must have freed the pool of the disconnected session's work.
    let report = service.drain();
    assert!(
        report.requests_submitted >= 1,
        "the disconnected session's barriers never reached the service"
    );
}

/// An idle connection is evicted on the timeout; its next read sees
/// EOF.
#[test]
fn idle_connections_are_evicted() {
    let _guard = serial();
    let (app, _port) = wire_fed_ofdm(
        OfdmConfig {
            symbol_len: 16,
            cyclic_prefix: 2,
            bits_per_symbol: 2,
            vectorization: 2,
        },
        3,
        1,
    );
    let mut apps = NetApps::new();
    apps.register("ofdm", app);
    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(1)
            .with_max_sessions(2),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig {
            idle_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");

    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut sink = Vec::new();
    let start = Instant::now();
    let _ = stream.read_to_end(&mut sink); // blocks until the eviction EOF
    assert!(
        start.elapsed() >= Duration::from_millis(150),
        "evicted before the idle timeout"
    );
    assert!(server.metrics().conns_evicted >= 1);
    server.shutdown();
}
