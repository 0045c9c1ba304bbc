//! Per-layer self-times from a traced window: the generator's own
//! stamps (taken on the tracer's clock) joined with the events the
//! program already records — `FrameRecv`, `RequestSubmit`,
//! `SessionDispatch`, `JobClaim`, `RunComplete`, the barrier pair and
//! the firing histogram.

use std::collections::{BTreeMap, HashMap};

use tpdf_suite::net::Frame;
use tpdf_suite::trace::{EventKind, TraceEvent, Tracer};

use crate::stats::{percentile, ratio, us};

/// One verified wire request of a traced window.
pub struct WireRecord {
    /// Index of the stream (connection) in the workload.
    pub stream: usize,
    /// Barrier sequence number; equals the service request id, since
    /// both count from 0 on a fresh session.
    pub seq: u64,
    /// When the barrier's last byte left the generator, tracer ns.
    pub flushed_ns: u64,
    /// When the generator decoded the `Result`, tracer ns.
    pub recv_ns: u64,
}

/// What a traced window adds to the per-layer report.
pub struct Spans {
    pub metrics: Vec<(&'static str, f64)>,
    /// Sum of the main stream's layer self-time medians, µs.
    pub attributed_us: f64,
    /// Events the recorder overwrote or caught torn.
    pub dropped: u64,
}

#[derive(Default, Clone, Copy)]
struct Run {
    submit: Option<u64>,
    dispatch: Option<(u64, u64)>,
    complete: Option<u64>,
}

/// The recorded events from the point where every lane's record is
/// complete: a lane whose ring wrapped keeps only its newest events, so
/// anything older than the youngest lane's first event is discarded.
struct Timeline {
    events: Vec<TraceEvent>,
    runs: HashMap<(u64, u64), Run>,
    tags: HashMap<u64, u32>,
    claims: HashMap<u32, Vec<u64>>,
    dropped: u64,
}

impl Timeline {
    fn collect(tracer: &Tracer) -> Timeline {
        let log = tracer.collect();
        let mut first: BTreeMap<u16, u64> = BTreeMap::new();
        for e in log.events() {
            let ts = first.entry(e.lane).or_insert(e.ts_ns);
            *ts = (*ts).min(e.ts_ns);
        }
        let horizon = first.values().copied().max().unwrap_or(0);
        let events: Vec<TraceEvent> = log
            .events()
            .iter()
            .filter(|e| e.ts_ns >= horizon)
            .copied()
            .collect();
        let mut runs: HashMap<(u64, u64), Run> = HashMap::new();
        let mut tags = HashMap::new();
        let mut claims: HashMap<u32, Vec<u64>> = HashMap::new();
        for e in &events {
            match e.kind {
                EventKind::RequestSubmit => {
                    runs.entry((e.a, e.b)).or_default().submit = Some(e.ts_ns);
                    tags.insert(e.a, e.job);
                }
                EventKind::SessionDispatch => {
                    runs.entry((e.a, e.b)).or_default().dispatch = Some((e.ts_ns, e.c));
                    tags.insert(e.a, e.job);
                }
                EventKind::RunComplete => {
                    runs.entry((e.a, e.b)).or_default().complete = Some(e.ts_ns);
                }
                EventKind::JobClaim => claims.entry(e.job).or_default().push(e.ts_ns),
                _ => {}
            }
        }
        for list in claims.values_mut() {
            list.sort_unstable();
        }
        Timeline {
            events,
            runs,
            tags,
            claims,
            dropped: log.dropped(),
        }
    }

    fn run(&self, session: u64, request: u64) -> Run {
        self.runs
            .get(&(session, request))
            .copied()
            .unwrap_or_default()
    }

    /// The first pool claim of `session`'s job at or after `from`.
    fn first_claim(&self, session: u64, from: u64) -> Option<u64> {
        let claims = self.claims.get(self.tags.get(&session)?)?;
        claims.get(claims.partition_point(|&ts| ts < from)).copied()
    }

    fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    fn per_run(&self, kind: EventKind) -> f64 {
        ratio(
            self.count(kind) as f64,
            self.count(EventKind::RunComplete) as f64,
        )
    }

    /// `BarrierEnter` → `BarrierExit` durations, paired per lane and job.
    fn barrier_ns(&self) -> Vec<u64> {
        let mut open: HashMap<(u16, u32), u64> = HashMap::new();
        let mut spans = Vec::new();
        for e in &self.events {
            match e.kind {
                EventKind::BarrierEnter => {
                    open.insert((e.lane, e.job), e.ts_ns);
                }
                EventKind::BarrierExit => {
                    if let Some(start) = open.remove(&(e.lane, e.job)) {
                        spans.push(e.ts_ns.saturating_sub(start));
                    }
                }
                _ => {}
            }
        }
        spans
    }
}

fn p50_us(ns: &[u64]) -> f64 {
    us(percentile(ns, 0.50))
}

fn p99_us(ns: &[u64]) -> f64 {
    us(percentile(ns, 0.99))
}

/// Attribution of the wire path, over the requests of stream `main`.
/// Stream `i` is server connection `i + 1` and service session
/// `sessions[i]`.
pub fn wire(tracer: &Tracer, records: &[WireRecord], sessions: &[u64], main: usize) -> Spans {
    let timeline = Timeline::collect(tracer);
    let conn = main as u64 + 1;
    let session = sessions[main];
    let barrier = Frame::Barrier { seq: 0 }.type_byte() as u64;
    // The k-th barrier received on the connection is the k-th request
    // submitted on its session (parked barriers keep their order); a
    // submit older than the first recorded barrier lost its partner when
    // recording started.
    let received: Vec<u64> = timeline
        .events
        .iter()
        .filter(|e| e.kind == EventKind::FrameRecv && e.a == conn && e.b == barrier)
        .map(|e| e.ts_ns)
        .collect();
    let mut submits: Vec<(u64, u64)> = timeline
        .runs
        .iter()
        .filter(|((s, _), _)| *s == session)
        .filter_map(|((_, r), run)| Some((*r, run.submit?)))
        .collect();
    submits.sort_unstable();
    let first = received.first().copied().unwrap_or(u64::MAX);
    let recv_of: HashMap<u64, u64> = submits
        .iter()
        .filter(|(_, ts)| *ts >= first)
        .zip(&received)
        .map(|((request, _), recv)| (*request, *recv))
        .collect();

    let (mut ingress, mut submit, mut queue, mut claim, mut run, mut egress) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for rec in records.iter().filter(|r| r.stream == main) {
        let r = timeline.run(session, rec.seq);
        let (Some(&recv), Some(sub), Some((dispatch, waited)), Some(done)) =
            (recv_of.get(&rec.seq), r.submit, r.dispatch, r.complete)
        else {
            continue;
        };
        let Some(claimed) = timeline
            .first_claim(session, dispatch)
            .filter(|&c| c <= done)
        else {
            continue;
        };
        ingress.push(recv.saturating_sub(rec.flushed_ns));
        submit.push(sub.saturating_sub(recv));
        queue.push(waited);
        claim.push(claimed - dispatch);
        run.push(done - claimed);
        egress.push(rec.recv_ns.saturating_sub(done));
    }
    let attributed_us = [&ingress, &submit, &queue, &claim, &run, &egress]
        .iter()
        .map(|ns| p50_us(ns))
        .sum();
    let firing = tracer.histograms().firing_ns.snapshot();
    let metrics = vec![
        ("net.server.ingress_us_p50", p50_us(&ingress)),
        ("net.server.ingress_us_p99", p99_us(&ingress)),
        ("net.server.submit_us_p50", p50_us(&submit)),
        ("net.server.egress_us_p50", p50_us(&egress)),
        ("net.server.egress_us_p99", p99_us(&egress)),
        ("service.queue_wait_us_p50", p50_us(&queue)),
        ("service.queue_wait_us_p99", p99_us(&queue)),
        ("runtime.pool.claim_us_p50", p50_us(&claim)),
        ("runtime.pool.claim_us_p99", p99_us(&claim)),
        (
            "runtime.pool.effective_workers",
            timeline.per_run(EventKind::JobClaim),
        ),
        (
            "runtime.pool.steals_per_run",
            timeline.per_run(EventKind::Steal),
        ),
        ("runtime.executor.run_us_p50", p50_us(&run)),
        ("runtime.executor.run_us_p99", p99_us(&run)),
        (
            "runtime.executor.firing_ns_p50",
            firing.percentile(0.50) as f64,
        ),
        (
            "runtime.executor.firing_ns_p99",
            firing.percentile(0.99) as f64,
        ),
        (
            "runtime.executor.barrier_us_p50",
            p50_us(&timeline.barrier_ns()),
        ),
    ];
    Spans {
        metrics,
        attributed_us,
        dropped: timeline.dropped,
    }
}
