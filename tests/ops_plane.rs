//! End-to-end exercises of the tpdf-ops operations plane: a healthy
//! high-load run files nothing (the watchdog's false-positive guard),
//! an injected stall files exactly one incident carrying the flight
//! recorder's tail, and the admin surface answers live while wire-fed
//! sessions stream — with a killed client flipping only its own
//! session's health.

mod common;

use common::serial;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdf_suite::apps::ofdm::OfdmConfig;
use tpdf_suite::core::examples::figure2_graph;
use tpdf_suite::net::ofdm::{run_records, wire_fed_ofdm};
use tpdf_suite::net::{NetApps, NetClient, NetConfig, NetFeed, NetServer};
use tpdf_suite::ops::{Health, IncidentCause, OpsConfig, OpsPlane};
use tpdf_suite::runtime::Token;
use tpdf_suite::runtime::{KernelRegistry, RuntimeConfig, Tracer};
use tpdf_suite::service::{ServiceConfig, SloSpec, TpdfService};
use tpdf_suite::symexpr::Binding;

fn binding(p: i64) -> Binding {
    Binding::from_pairs([("p", p)])
}

/// Polls `done` every few milliseconds (forcing a sampler tick first)
/// until it holds, panicking with `what` after 10 seconds.
fn sample_until(plane: &OpsPlane, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        plane.sample_now();
        if done() {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin surface");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Watchdog false-positive guard: four sessions under load, generous
/// SLOs — every bound evaluated, zero incidents, service healthy.
#[test]
fn healthy_high_load_files_no_incidents() {
    let _guard = serial();
    let tracer = Tracer::flight_recorder(2, 512);
    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_tracer(Arc::clone(&tracer)),
    ));
    let plane = OpsPlane::start(Arc::clone(&service), OpsConfig::default()).unwrap();
    let graph = figure2_graph();
    let slo = SloSpec::default()
        .with_stall_budget(Duration::from_secs(30))
        .with_max_deadline_miss_rate(1.0)
        .with_min_tokens_per_sec(1e-9)
        .with_max_queue_depth(64);
    let sessions: Vec<_> = (0..4)
        .map(|i| {
            service
                .open_session_with_slo(
                    &graph,
                    RuntimeConfig::new(binding(1 + i))
                        .with_threads(2)
                        .with_iterations(2),
                    KernelRegistry::new(),
                    Some(slo.clone()),
                )
                .expect("admit")
        })
        .collect();
    plane.sample_now();
    for wave in 0..3 {
        let requests: Vec<_> = sessions
            .iter()
            .map(|&s| (s, service.submit(s).expect("submit")))
            .collect();
        for (session, request) in requests {
            service.wait(session, request).expect("run succeeds");
        }
        plane.sample_now();
        let report = plane.health();
        assert_eq!(
            report.health,
            Health::Ok,
            "healthy load must stay healthy (wave {wave}): {report:?}"
        );
    }
    let report = plane.health();
    for s in &report.sessions {
        assert_eq!(s.health, Health::Ok, "session {} not ok: {s:?}", s.id);
        assert!(
            s.tokens_per_sec > 0.0,
            "windowed throughput must be visible: {s:?}"
        );
        assert!(
            s.verdicts.iter().filter(|v| v.ok).count() >= 3,
            "the generous SLO bounds must all evaluate and pass: {s:?}"
        );
    }
    assert_eq!(
        plane.incidents_total(),
        0,
        "watchdog false positive: {:?}",
        plane.incidents()
    );
    let metrics = plane.metrics_text();
    tpdf_suite::trace::lint_prometheus(&metrics).unwrap_or_else(|e| panic!("lint: {e}"));
    plane.shutdown();
}

/// A kernel sleeping past the session's stall budget trips the
/// watchdog exactly once per episode, and the incident carries the
/// flight recorder's tail at detection time.
#[test]
fn injected_stall_files_exactly_one_incident_with_recorder_tail() {
    let _guard = serial();
    let tracer = Tracer::flight_recorder(1, 512);
    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(1)
            .with_tracer(Arc::clone(&tracer)),
    ));
    let plane = OpsPlane::start(Arc::clone(&service), OpsConfig::default()).unwrap();
    let graph = figure2_graph();
    // "B" keeps the built-in forwarding semantics but naps far past
    // the 40ms stall budget on every firing.
    let mut registry = KernelRegistry::new();
    registry.register_fn("B", |ctx| {
        std::thread::sleep(Duration::from_millis(150));
        ctx.fill_outputs_from_inputs();
        Ok(())
    });
    let session = service
        .open_session_with_slo(
            &graph,
            RuntimeConfig::new(binding(2))
                .with_threads(1)
                .with_iterations(1),
            registry,
            Some(SloSpec::default().with_stall_budget(Duration::from_millis(40))),
        )
        .expect("admit");
    let request = service.submit(session).expect("submit");

    sample_until(&plane, "the stall incident", || {
        plane.incidents_total() >= 1
    });
    let mid_run = plane.health();
    assert_eq!(
        mid_run.session(session).expect("tracked").health,
        Health::Failing,
        "a stalled session is failing: {mid_run:?}"
    );

    // The run eventually completes; the episode stays a single
    // incident no matter how many ticks observed it.
    service
        .wait(session, request)
        .expect("the napping run still finishes");
    for _ in 0..5 {
        plane.sample_now();
    }
    assert_eq!(
        plane.incidents_total(),
        1,
        "one stall episode, one incident: {:?}",
        plane.incidents()
    );
    let incidents = plane.incidents();
    let incident = &incidents[0];
    assert_eq!(incident.cause, IncidentCause::Stall);
    assert_eq!(incident.session, session);
    assert!(
        !incident.events.is_empty(),
        "the incident must carry the recorder tail"
    );
    assert!(
        incident.window.since_progress.unwrap() > Duration::from_millis(40),
        "the window records how long the beacon was silent: {:?}",
        incident.window
    );
    assert!(incident.render().contains("stall"));

    // With the nap over and the run retired, the session recovers.
    plane.sample_now();
    assert_eq!(
        plane.health().session(session).expect("tracked").health,
        Health::Ok,
        "the stall flag must clear once progress resumes"
    );
    plane.shutdown();
}

/// The acceptance scenario: wire-fed sessions stream while the admin
/// surface answers live; killing one client flips only that session's
/// health and files one incident with a non-empty recorder tail.
#[test]
fn wire_fed_sessions_with_live_admin_and_client_kill() {
    let _guard = serial();
    const RUNS: u64 = 6;
    let variants = [
        ("ofdm/qpsk-16", 16, 2, 2, 2, 31u64),
        ("ofdm/qam-16", 16, 1, 4, 2, 5),
        ("ofdm/qpsk-32", 32, 2, 2, 3, 77),
    ];
    let mut apps = NetApps::new();
    let mut plans = Vec::new();
    for &(name, symbol_len, cyclic_prefix, bits_per_symbol, vectorization, seed) in &variants {
        let config = OfdmConfig {
            symbol_len,
            cyclic_prefix,
            bits_per_symbol,
            vectorization,
        };
        let (app, port) = wire_fed_ofdm(config, seed, 2);
        plans.push((name, run_records(&port)));
        apps.register(name, app);
    }
    let (mut victim_app, victim_port) = wire_fed_ofdm(
        OfdmConfig {
            symbol_len: 8,
            cyclic_prefix: 2,
            bits_per_symbol: 4,
            vectorization: 4,
        },
        13,
        2,
    );
    let victim_records = run_records(&victim_port);
    // The victim's source naps before popping the feed, so its run is
    // provably still in flight when the server reaps the dead
    // connection — the cancellation halts a live run whose result
    // nobody will ever read, which is what pins the session (and its
    // terminal health) in the table.
    let orig_build = Arc::clone(&victim_app.build);
    victim_app.build = Arc::new(move |feed: &NetFeed| {
        let (mut registry, capture) = orig_build(feed);
        let feed = feed.clone();
        registry.register_fn("SRC", move |ctx| {
            std::thread::sleep(Duration::from_millis(300));
            for out in &mut ctx.outputs {
                out.tokens = match out.port {
                    0 => feed.pop(out.rate as usize),
                    _ => vec![Token::Int(4); out.rate as usize],
                };
            }
            Ok(())
        });
        (registry, capture)
    });
    apps.register("ofdm/victim", victim_app);

    let tracer = Tracer::flight_recorder(4, 2048);
    let service = Arc::new(TpdfService::new(
        ServiceConfig::default()
            .with_threads(4)
            .with_max_sessions(8)
            .with_queue_capacity(2)
            .with_tracer(Arc::clone(&tracer)),
    ));
    let plane = OpsPlane::start(
        Arc::clone(&service),
        OpsConfig::default().with_http_addr("127.0.0.1:0"),
    )
    .unwrap();
    let admin = plane.http_addr().expect("admin surface bound");
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig::default(),
    )
    .expect("bind net server");
    plane.attach_net(server.metrics_handle());
    let addr = server.local_addr();

    // --- Streaming clients, paced so the sessions stay live while
    // the main thread polls the admin surface. ----------------------
    let mut handles = Vec::new();
    for (name, records) in plans {
        handles.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("connect");
            client.hello(name).expect("hello");
            for seq in 0..RUNS {
                client.records(&records).expect("records");
                client.barrier(seq).expect("barrier");
                client.result().expect("result");
                std::thread::sleep(Duration::from_millis(15));
            }
            client.bye().expect("bye");
        }));
    }

    // --- The admin surface answers live, with windowed rates. ------
    sample_until(&plane, "a live windowed rate", || {
        plane
            .health()
            .sessions
            .iter()
            .any(|s| s.tokens_per_sec > 0.0)
    });
    let (status, metrics) = http_get(admin, "/metrics");
    assert_eq!(status, 200);
    tpdf_suite::trace::lint_prometheus(&metrics).unwrap_or_else(|e| panic!("lint: {e}"));
    assert!(metrics.contains("tpdf_net_frames_in_total"));
    assert!(metrics.contains("tpdf_ops_session_tokens_per_sec"));
    assert!(metrics.contains("tpdf_trace_run_latency_ns_bucket"));
    let (status, healthz) = http_get(admin, "/healthz");
    assert_eq!(status, 200, "healthy service serves 200: {healthz}");
    let (status, sessions) = http_get(admin, "/sessions");
    assert_eq!(status, 200);
    tpdf_suite::trace::json::validate(&sessions).unwrap_or_else(|e| panic!("json: {e:?}"));
    let (status, trace) = http_get(admin, "/trace.json");
    assert_eq!(status, 200, "tracer installed, trace served");
    tpdf_suite::trace::json::validate(&trace).unwrap_or_else(|e| panic!("json: {e:?}"));

    // --- Kill one client mid-run. ----------------------------------
    let (tx, rx) = mpsc::channel();
    let victim_thread = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).expect("connect victim");
        let ack = client.hello("ofdm/victim").expect("hello victim");
        client.records(&victim_records).expect("records");
        client.barrier(0).expect("barrier");
        tx.send(ack.session).expect("report session id");
        // Dropped without reading the result: the server reaps the
        // dead connection and cancels the session.
    });
    let victim = rx.recv().expect("victim session id");
    victim_thread.join().expect("victim thread");

    sample_until(&plane, "the cancellation incident", || {
        plane.incidents_total() >= 1
    });
    let incidents = plane.incidents();
    assert_eq!(incidents.len(), 1, "exactly one incident: {incidents:?}");
    let incident = &incidents[0];
    assert_eq!(incident.cause, IncidentCause::SessionCancelled);
    assert_eq!(incident.session.0, victim);
    assert!(
        !incident.events.is_empty(),
        "the incident must carry a recorder tail"
    );

    // Only the victim flips: its terminal health is failing, every
    // other tracked session stays ok, and the service itself keeps
    // serving. The halted run needs a moment to unwind; once it does,
    // the victim is pinned retired and no longer gates /healthz.
    sample_until(&plane, "the victim to retire", || {
        plane
            .health()
            .session(tpdf_suite::service::SessionId(victim))
            .is_some_and(|s| s.retired)
    });
    let report = plane.health();
    for s in &report.sessions {
        if s.id.0 == victim {
            assert_eq!(s.health, Health::Failing, "victim must fail: {s:?}");
            assert!(s.retired, "cancelled session is pinned retired: {s:?}");
        } else {
            assert_eq!(s.health, Health::Ok, "bystander flipped: {s:?}");
        }
    }
    assert_eq!(
        report.health,
        Health::Ok,
        "service keeps serving: {report:?}"
    );
    let (status, healthz) = http_get(admin, "/healthz");
    assert_eq!(status, 200, "retired victim must not gate /healthz");
    assert!(
        healthz.contains("\"health\":\"failing\""),
        "victim visible: {healthz}"
    );
    let (status, incidents_doc) = http_get(admin, "/incidents");
    assert_eq!(status, 200);
    tpdf_suite::trace::json::validate(&incidents_doc).unwrap_or_else(|e| panic!("json: {e:?}"));
    assert!(incidents_doc.contains("\"cause\":\"session_cancelled\""));

    for handle in handles {
        handle.join().expect("client thread");
    }
    server.shutdown();
    plane.shutdown();
    service.drain();
}
