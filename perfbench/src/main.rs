//! Wire-to-result benchmark of the TPDF serving stack.
//!
//! Runs one named workload against the real stack — `tpdf-net` frame
//! codec and poll-loop server, `tpdf-service`, the `tpdf-runtime`
//! pool and executor, with the `tpdf-ops` sampler attached — checks
//! every output against its reference, and prints every metric by name.
//! The last line of standard output is the result:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": F, "metrics": {"name": v, ...}}
//! ```
//!
//! With `--trace 0` it holds the end-to-end metrics of one untraced
//! window. With `--trace 1` the same window is run untraced and then
//! again with a flight recorder installed, and the result holds the
//! per-layer metrics (see `README.md` for which end-to-end metric each
//! one should move). Units live in `BENCHMARK.json`; `run.py` checks the
//! names against it and attaches them.
//!
//! `correct` is false, and the exit code non-zero, when any request
//! failed or mismatched, a connection died, or a metric had no samples.
//!
//! ```text
//! perfbench --workload wire_small --seed 1 --seconds 20 --trace 0
//! ```

mod layers;
mod procfs;
mod stats;
mod wire;

use std::process::ExitCode;
use std::time::Duration;

use procfs::LayerCpu;
use stats::{median, percentile, ratio, us};

/// Worker threads of the service's pool in every workload.
pub const POOL_THREADS: usize = 2;
/// Times the stack is built per run; `setup_s` is their median.
pub const SETUPS: usize = 21;
/// Traffic before the measured window, so lazy set-up, granularity
/// classification and slab arenas settle first.
pub const WARMUP: Duration = Duration::from_millis(1000);
/// The window is cut into slices of this length, and each end-to-end
/// figure is the median of its per-slice values: a burst confined to a
/// few slices (a stalled run, a host hiccup) moves it little. The
/// whole-window tails stay in the per-layer report.
pub const SLICE: Duration = Duration::from_secs(1);
/// How long requests issued inside the window may take to finish after
/// it closes; still unfinished then, they count as failed.
pub const GRACE: Duration = Duration::from_millis(500);

/// What one measured window of a workload produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Duration of each of the `SETUPS` stack constructions, seconds.
    pub setup_s: Vec<f64>,
    /// Length of the measured window, seconds.
    pub window_s: f64,
    /// Latencies of the main stream's requests, ns.
    pub main_ns: Vec<u64>,
    /// Latencies of the probe stream's requests, ns.
    pub probe_ns: Vec<u64>,
    /// Requests issued inside the window.
    pub attempted: u64,
    /// Of those: errors, output mismatches and requests unfinished
    /// after the grace period.
    pub failed: u64,
    /// Of those: results that differ from the reference.
    pub mismatched: u64,
    /// Connections that died (protocol or socket error, server close).
    pub dead_streams: u64,
    /// Requests whose verified result arrived inside the window.
    pub completed: u64,
    /// The window, slice by slice.
    pub slices: Vec<Slice>,
    /// CPU of each layer's threads over the window.
    pub cpu: LayerCpu,
    /// Share of the host's CPU time stolen by other guests over the
    /// window, percent: not the program's, printed so a slow run on a
    /// contended host can be told apart.
    pub host_steal_pct: f64,
    /// Peak resident memory of the process, KiB.
    pub rss_kib: u64,
    /// Open-loop send lateness (barrier flushed − due), ns.
    pub gen_lag_ns: Vec<u64>,
    /// Per-layer metrics from counters, `/proc` and timed calls.
    pub counts: Vec<(&'static str, f64)>,
    /// Per-layer metrics from the trace (traced windows only).
    pub spans: Vec<(&'static str, f64)>,
    /// Sum of the layer self-time medians of the main stream, µs.
    pub attributed_us: f64,
    /// Trace events overwritten or torn.
    pub trace_dropped: u64,
}

/// One `SLICE` of a window.
#[derive(Debug, Default)]
pub struct Slice {
    /// Measured length, seconds.
    pub secs: f64,
    /// Latencies of the main stream's requests due in the slice, ns.
    pub main_ns: Vec<u64>,
    /// Latencies of the probe's requests due in the slice, ns.
    pub probe_ns: Vec<u64>,
    /// Verified results that arrived in the slice.
    pub completed: u64,
    /// Tokens of those results.
    pub tokens: u64,
    /// CPU of the system's own threads in the slice, ns.
    pub system_cpu_ns: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn run_window(args: &Args, traced: bool) -> Result<Window, String> {
    let seconds = Duration::from_secs(args.seconds);
    match args.workload.as_str() {
        "wire_small" => wire::run(&wire::small(), args.seed, seconds, traced),
        "wire_bulk" => wire::run(&wire::bulk(), args.seed, seconds, traced),
        other => Err(format!(
            "unknown workload {other:?} (wire_small, wire_bulk)"
        )),
    }
}

fn p50_us(ns: &[u64]) -> f64 {
    us(percentile(ns, 0.50))
}

fn p99_us(ns: &[u64]) -> f64 {
    us(percentile(ns, 0.99))
}

/// Median over the window's slices of `f`; NaN when `f` is undefined
/// (NaN) in any slice, so a stream that went quiet fails the run.
fn slice_median(w: &Window, f: impl Fn(&Slice) -> f64) -> f64 {
    median(&w.slices.iter().map(f).collect::<Vec<_>>())
}

/// Median over the window's slices of the main stream's or the probe's
/// median latency, µs.
fn slice_p50_us(w: &Window, probe: bool) -> f64 {
    slice_median(w, |s| p50_us(if probe { &s.probe_ns } else { &s.main_ns }))
}

fn end_to_end(w: &Window) -> Vec<(&'static str, f64)> {
    vec![
        ("latency_p50_us", slice_p50_us(w, false)),
        ("probe_latency_p50_us", slice_p50_us(w, true)),
        (
            "throughput_tokens_per_s",
            slice_median(w, |s| ratio(s.tokens as f64, s.secs)),
        ),
        (
            "cpu_us_per_request",
            slice_median(w, |s| us(ratio(s.system_cpu_ns as f64, s.completed as f64))),
        ),
        ("rss_peak_mib", w.rss_kib as f64 / 1024.0),
        ("setup_s", median(&w.setup_s)),
    ]
}

fn per_layer(base: &Window, traced: &Window) -> Vec<(&'static str, f64)> {
    let per_request = |ns: u64| us(ratio(ns as f64, base.completed as f64));
    let traced_p50 = p50_us(&traced.main_ns);
    let mut measured: Vec<(&'static str, f64)> = base.counts.clone();
    measured.extend(traced.spans.iter().copied());
    measured.extend([
        (
            "net.server.cpu_us_per_request",
            per_request(base.cpu.net_ns),
        ),
        (
            "runtime.pool.cpu_us_per_request",
            per_request(base.cpu.pool_ns),
        ),
        ("ops.cpu_us_per_request", per_request(base.cpu.ops_ns)),
        ("bench.samples", base.main_ns.len() as f64),
        ("bench.latency_p90_us", us(percentile(&base.main_ns, 0.90))),
        ("bench.latency_p99_us", p99_us(&base.main_ns)),
        (
            "bench.probe_latency_p90_us",
            us(percentile(&base.probe_ns, 0.90)),
        ),
        ("bench.probe_latency_p99_us", p99_us(&base.probe_ns)),
        ("bench.gen_lag_p99_us", p99_us(&base.gen_lag_ns)),
        (
            "bench.unattributed_us_p50",
            traced_p50 - traced.attributed_us,
        ),
        (
            "bench.tracing_overhead_pct",
            (ratio(traced_p50, p50_us(&base.main_ns)) - 1.0) * 100.0,
        ),
        ("bench.trace_dropped", traced.trace_dropped as f64),
    ]);
    measured
}

/// Why the run is not correct; empty when it is.
fn problems(windows: &[Window], metrics: &[(&'static str, f64)]) -> Vec<String> {
    let mut found = Vec::new();
    for (i, w) in windows.iter().enumerate() {
        if w.attempted == 0 {
            found.push(format!("window {i}: no request attempted"));
        }
        if w.failed > 0 {
            found.push(format!(
                "window {i}: {} of {} requests failed ({} mismatched)",
                w.failed, w.attempted, w.mismatched
            ));
        }
        if w.dead_streams > 0 {
            found.push(format!("window {i}: {} connection(s) died", w.dead_streams));
        }
    }
    for (name, value) in metrics {
        if !value.is_finite() {
            found.push(format!("{name}: no samples to measure it from"));
        }
    }
    found
}

/// A finite number as JSON; anything else as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let offered = match args.workload.as_str() {
        "wire_bulk" => wire::describe(&wire::bulk()),
        _ => wire::describe(&wire::small()),
    };
    println!(
        "stamp: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"build_profile\": \"{}\", \"pool_threads\": {POOL_THREADS}, \
         \"offered\": \"{offered}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let mut windows = Vec::new();
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for &traced in modes {
        match run_window(&args, traced) {
            Ok(window) => windows.push(window),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        }
    }
    let metrics = match windows.as_slice() {
        [base] => end_to_end(base),
        [base, traced] => per_layer(base, traced),
        _ => unreachable!("one or two windows"),
    };
    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = windows.iter().map(|w| w.failed).sum();
    let problems = problems(&windows, &metrics);
    for problem in &problems {
        eprintln!("perfbench: {}: {problem}", args.workload);
    }
    let correct = problems.is_empty();
    for (i, w) in windows.iter().enumerate() {
        println!(
            "window {i}: traced={} attempted={} failed={} failed_ratio={:.6} mismatched={} \
             dead_streams={} completed={} window_s={:.3} main_samples={} probe_samples={} \
             host_steal_pct={:.1}",
            i == 1,
            w.attempted,
            w.failed,
            ratio(w.failed as f64, w.attempted as f64),
            w.mismatched,
            w.dead_streams,
            w.completed,
            w.window_s,
            w.main_ns.len(),
            w.probe_ns.len(),
            w.host_steal_pct
        );
    }
    for (name, value) in &metrics {
        println!("{name:<40} {value:>16.4}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {}", json_number(*value)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
