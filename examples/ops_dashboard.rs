//! The operations plane, end to end: mixed wire-fed OFDM sessions
//! stream over loopback TCP while the `tpdf-ops` sampler tracks their
//! health and the HTTP admin surface answers live.
//!
//! The example plays operator:
//!
//! * four OFDM variants stream several runs each through `tpdf-net`;
//! * the admin surface is curled mid-flight — `/healthz` (tri-state
//!   verdicts), `/sessions` (windowed rates), `/metrics` (Prometheus,
//!   lint-clean) and `/incidents`;
//! * one client is then killed mid-run: the server reaps the dead
//!   connection, the session is cancelled, and the watchdog files
//!   exactly one incident carrying the flight recorder's tail —
//!   printed like a pager notification, while `/healthz` keeps
//!   serving 200 because only the victim flipped.
//!
//! Run with: `cargo run --release --example ops_dashboard`

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdf_suite::apps::ofdm::OfdmConfig;
use tpdf_suite::net::ofdm::{run_records, wire_fed_ofdm};
use tpdf_suite::net::{NetApps, NetClient, NetConfig, NetFeed, NetServer};
use tpdf_suite::ops::{Health, OpsConfig, OpsPlane};
use tpdf_suite::runtime::{Token, Tracer};
use tpdf_suite::service::{ServiceConfig, TpdfService};

const RUNS: u64 = 4;

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin surface");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: ops\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The served apps: four OFDM variants. ----------------------
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
    // The fourth variant is the sacrificial one: its source naps per
    // firing so a run is reliably in flight when its client dies.
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
    let orig_build = Arc::clone(&victim_app.build);
    victim_app.build = Arc::new(move |feed: &NetFeed| {
        let (mut registry, capture) = orig_build(feed);
        let feed = feed.clone();
        registry.register_fn("SRC", move |ctx| {
            std::thread::sleep(Duration::from_millis(300));
            for out in &mut ctx.outputs {
                match out.port {
                    0 => feed.pop_into(out.rate as usize, &mut out.tokens),
                    _ => out.write_cycled(&[Token::Int(4)]),
                }
            }
            Ok(())
        });
        (registry, capture)
    });
    apps.register("ofdm/victim", victim_app);

    // --- Service + operations plane + net server. ------------------
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
        OpsConfig {
            period: Duration::from_millis(25),
            ..OpsConfig::default()
        }
        .with_http_addr("127.0.0.1:0"),
    )?;
    let admin = plane.http_addr().expect("admin surface bound");
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        apps,
        NetConfig::default(),
    )?;
    plane.attach_net(server.metrics_handle());
    let addr = server.local_addr();
    println!("serving 4 apps on {addr}, admin surface on http://{admin}");

    // --- Streaming clients, paced so the dashboard sees them live. --
    let mut handles = Vec::new();
    for (name, records) in plans {
        handles.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("connect");
            client.hello(name).expect("hello");
            for seq in 0..RUNS {
                client.records(&records).expect("records");
                client.barrier(seq).expect("barrier");
                client.result().expect("result");
                std::thread::sleep(Duration::from_millis(20));
            }
            client.bye().expect("bye");
        }));
    }

    // --- Curl the dashboard mid-flight. ----------------------------
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if plane
            .health()
            .sessions
            .iter()
            .any(|s| s.tokens_per_sec > 0.0)
        {
            break;
        }
        assert!(Instant::now() < deadline, "no live rate appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, healthz) = http_get(admin, "/healthz");
    assert_eq!(status, 200);
    println!("\nGET /healthz -> {status}\n{healthz}");
    let (status, sessions) = http_get(admin, "/sessions");
    assert_eq!(status, 200);
    println!("GET /sessions -> {status} ({} bytes)", sessions.len());
    let (status, metrics) = http_get(admin, "/metrics");
    assert_eq!(status, 200);
    tpdf_suite::trace::lint_prometheus(&metrics).unwrap_or_else(|e| panic!("exposition lint: {e}"));
    println!(
        "GET /metrics -> {status} ({} families, lint-clean)",
        metrics.lines().filter(|l| l.starts_with("# TYPE")).count()
    );

    // --- Kill one client mid-run. ----------------------------------
    {
        let mut victim = NetClient::connect(addr)?;
        let ack = victim.hello("ofdm/victim")?;
        victim.records(&victim_records)?;
        victim.barrier(0)?;
        println!("\nkilling the client of session {} mid-run...", ack.session);
        // Dropped here without reading the result.
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while plane.incidents_total() == 0 {
        assert!(Instant::now() < deadline, "no incident filed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let incidents = plane.incidents();
    println!("\n{}", incidents[0].render());
    // The halted run needs a moment to unwind; once the victim is
    // pinned retired it no longer gates service health.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !plane
        .health()
        .sessions
        .iter()
        .any(|s| s.id.0 == incidents[0].session.0 && s.retired)
    {
        assert!(Instant::now() < deadline, "victim never retired");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, _) = http_get(admin, "/healthz");
    assert_eq!(
        status, 200,
        "only the victim flips; the service keeps serving"
    );
    println!("GET /healthz -> {status} (victim retired, bystanders untouched)");

    for handle in handles {
        handle.join().expect("client thread");
    }
    let report = plane.health();
    let ok = report
        .sessions
        .iter()
        .filter(|s| s.health == Health::Ok)
        .count();
    println!(
        "final health: {} ({} ok session(s), {} incident(s) filed)",
        report.health.as_str(),
        ok,
        plane.incidents_total()
    );
    server.shutdown();
    plane.shutdown();
    service.drain();
    Ok(())
}
