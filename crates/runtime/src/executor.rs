//! The multi-threaded, token-level executor — sharded scheduler.
//!
//! ## Execution model
//!
//! The executor runs `iterations` complete graph iterations (repetition
//! counts come from `tpdf_core::consistency`), firing any node whose
//! *mode-selected* inputs are ready — the untimed `tpdf-sim` engine's
//! semantics, but on real worker threads moving real [`Token`] values.
//!
//! ## Sharded scheduling
//!
//! There is no global scheduler lock on the claim/complete path. The
//! state is sharded three ways:
//!
//! * **Per-channel lock-free SPSC rings.** Every channel (data *and*
//!   control) is a [`RingBuffer`] with atomic cursors. A TPDF channel
//!   has one producer node and one consumer node, and a node runs at
//!   most one firing at a time, so single-producer single-consumer is
//!   exactly the required discipline.
//! * **Per-node atomic claim state.** A worker acquires a node with one
//!   compare-and-swap on its `claimed` flag. While the claim is held
//!   the worker is the unique consumer of the node's input rings and
//!   the unique producer of its output rings, so availability and free
//!   space can be checked and committed without locks or rollback:
//!   input tokens only accumulate and output space only grows until
//!   the claim holder itself moves them.
//! * **Per-worker ready queues with stealing.** Completing a firing
//!   enqueues the affected neighbours (the node itself, the consumers
//!   of its outputs, the producers of its inputs) onto the worker's own
//!   queue; idle workers steal from the back of other queues and fall
//!   back to a full scan before parking.
//!
//! The only lock left is the park/teardown mutex, which is touched when
//! a worker runs out of work, when a real-time deadline decision is
//! recorded, and at the **iteration barrier**: when the last firing of
//! an iteration completes, the completing worker — alone, every firing
//! budget being exhausted — flushes the channels whose consuming
//! (controlled) port was rejected for the whole iteration (the paper's
//! "unused edges are removed"), advances the iteration and republishes
//! the per-node budgets. Control tokens therefore still switch modes at
//! exact iteration boundaries.
//!
//! ## Determinism
//!
//! Each node is sequential with itself (the claim flag), every channel
//! has a single producer and a single consumer, and a node's firing
//! ordinal determines which tokens it consumes and produces — a
//! Kahn-style determinacy argument, unchanged by work stealing: the
//! *schedule* varies with the thread count, the *token streams* do not
//! (for deterministic [`ControlPolicy`]s). Cross-validation against the
//! single-threaded engine stays exact.
//!
//! ## Clocks
//!
//! [`KernelKind::Clock`] watchdogs either fire as ordinary control
//! actors ([`ClockMode::Virtual`], used for cross-validation) or at
//! real wall-clock deadlines ([`ClockMode::RealTime`], in which a
//! clock-driven Transaction in [`Mode::HighestPriority`] takes the
//! best result available *now* — and fires empty, counting a deadline
//! miss, when nothing is ready).

use crate::arena::{ArenaStats, SlabArena};
use crate::checkpoint::{ChannelCheckpoint, ChannelContents, Checkpoint, CheckpointError};
use crate::kernel::{
    fire_default, fire_select_duplicate, fire_transaction, FiringContext, KernelRegistry,
    PortInput, PortOutput,
};
use crate::metrics::{DeadlineSelection, Metrics};
use crate::ring::RingBuffer;
use crate::token::Token;
use crate::RuntimeError;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tpdf_core::actors::KernelKind;
use tpdf_core::control::{ModeSelector, ValueTrace};
use tpdf_core::graph::{ChannelId, NodeId, TpdfGraph};
use tpdf_core::mode::Mode;
use tpdf_manycore::{map_graph, node_workloads, Mapping, MappingStrategy, Platform};
use tpdf_sim::engine::{ControlPolicy, SimulationConfig, Simulator};
use tpdf_symexpr::Binding;
use tpdf_trace::{EventKind, TraceEvent, Tracer};

use crate::metrics::RebindEvent;

/// How firings are placed onto worker threads.
///
/// Placement is a *performance* policy, never a semantic one: by the
/// Kahn-style determinacy argument (each node is sequential with
/// itself, each channel is SPSC, a firing's ordinal fixes its rates and
/// mode), token streams and mode sequences are identical under every
/// placement — which `tests/runtime_vs_sim_prop.rs` asserts rather
/// than assumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Any worker fires any ready node; completions enqueue hints onto
    /// the completing worker's queue and idle workers steal freely.
    #[default]
    WorkStealing,
    /// Drive the runtime from `tpdf-manycore`'s analysis-side mapping:
    /// each node is pinned to a *home worker* derived from
    /// [`tpdf_manycore::map_graph`] under the given strategy (one
    /// cluster per worker thread, workloads = repetition count ×
    /// execution time). Workers prefer their own ready queue and own
    /// nodes, and only cross the affinity boundary — stealing foreign
    /// hints or firing foreign nodes — after
    /// [`AFFINITY_STEAL_THRESHOLD`] consecutive empty hunts. Under a
    /// binding sequence each phase's [`Plan`] carries its own rebound
    /// mapping (repetition counts change with the binding, so the
    /// workloads and therefore the pinning do too), re-pinned at the
    /// iteration barrier along with the plan switch.
    Affinity(MappingStrategy),
}

impl PlacementPolicy {
    /// Whether this policy pins nodes to home workers.
    pub fn is_affinity(&self) -> bool {
        matches!(self, PlacementPolicy::Affinity(_))
    }
}

/// Consecutive empty work hunts after which an affinity-placed worker
/// is considered *starved* and allowed to cross the boundary: steal
/// hints from foreign queues and fire foreign-home nodes. Small on
/// purpose — affinity is a preference that must never cost liveness,
/// and a starved worker yields (not parks) below the threshold, so the
/// crossing decision is made within microseconds.
pub(crate) const AFFINITY_STEAL_THRESHOLD: u32 = 2;

/// How [`KernelKind::Clock`] watchdogs are driven.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClockMode {
    /// Clocks fire as ordinary control actors, as fast as the dataflow
    /// allows. This matches the untimed `tpdf-sim` engine and is the
    /// mode cross-validation uses.
    Virtual,
    /// Clocks fire at real wall-clock deadlines: tick `k` of a clock
    /// with period `P` fires at `start + k · P · time_unit`.
    RealTime {
        /// Wall-clock duration of one virtual time unit (graph
        /// execution times and clock periods are expressed in it).
        time_unit: Duration,
    },
}

/// Configuration of a runtime execution.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Concrete values of the graph's integer parameters (the base
    /// binding of every iteration).
    pub binding: Binding,
    /// Mode sequence applied by control actors when no
    /// [`RuntimeConfig::mode_selector`] is set (same semantics as the
    /// `tpdf-sim` engine).
    pub control_policy: ControlPolicy,
    /// Data-dependent control: when set, every control actor computes
    /// the [`Mode`] it emits by calling this selector with its firing
    /// ordinal and the scalar views of the tokens it actually consumed
    /// ([`crate::token::Token::as_scalar`]); the
    /// [`RuntimeConfig::control_policy`] is ignored. A registered
    /// behaviour can override the selector per firing through
    /// [`crate::kernel::FiringContext::set_mode`].
    pub mode_selector: Option<Arc<dyn ModeSelector>>,
    /// Scalar values for the *reference sizing simulation* (the
    /// count-level run that derives ring capacities): with a
    /// data-dependent selector, the sizing run needs the same values
    /// the runtime kernels will produce. Ignored during token-level
    /// execution, which reads the real tokens.
    pub value_trace: Option<Arc<dyn ValueTrace>>,
    /// Per-iteration parameter rebinding: iteration `k` runs under the
    /// base binding overlaid with element `min(k, len - 1)` (the last
    /// element persists). At each affected iteration barrier the
    /// executor re-derives repetition counts and rates and grows ring
    /// capacities in place. Empty means every iteration uses the base
    /// binding.
    pub binding_sequence: Vec<Binding>,
    /// How firings are placed onto workers (see [`PlacementPolicy`]).
    pub placement: PlacementPolicy,
    /// Number of worker threads.
    pub threads: usize,
    /// Complete graph iterations to execute.
    pub iterations: u64,
    /// Clock driving mode.
    pub clock_mode: ClockMode,
    /// Data-ring capacity = reference high-water × this slack factor
    /// (≥ 1). Slack 1 is the tightest sizing the reference execution
    /// proves deadlock-free; larger values give producers headroom to
    /// run ahead. Control rings are sized by their per-iteration
    /// production, which bounds their occupancy exactly.
    pub capacity_slack: u64,
    /// Safety net: a worker finding nothing to do wakes up after this
    /// long to re-check for stalls.
    pub stall_timeout: Duration,
    /// Structured tracing sink (see [`tpdf_trace::Tracer`]). `None`
    /// costs a pointer null-check per instrumentation site; an
    /// installed-but-disabled tracer costs one `Relaxed` load plus a
    /// branch. Installed tracers also enrich stall errors with the
    /// flight-recorder tail.
    pub tracer: Option<Arc<Tracer>>,
    /// Job tag stamped on every trace event this execution emits
    /// (Chrome export groups tags into processes). 0 means *untagged*:
    /// a pool assigns a fresh tag per job, a service assigns one per
    /// session.
    pub trace_tag: u32,
}

impl RuntimeConfig {
    /// Creates a configuration: 4 threads, 1 iteration, virtual clocks,
    /// capacity slack 2.
    pub fn new(binding: Binding) -> Self {
        RuntimeConfig {
            binding,
            control_policy: ControlPolicy::default(),
            mode_selector: None,
            value_trace: None,
            binding_sequence: Vec::new(),
            placement: PlacementPolicy::WorkStealing,
            threads: 4,
            iterations: 1,
            clock_mode: ClockMode::Virtual,
            capacity_slack: 2,
            stall_timeout: Duration::from_millis(100),
            tracer: None,
            trace_tag: 0,
        }
    }

    /// Sets the control policy.
    pub fn with_policy(mut self, policy: ControlPolicy) -> Self {
        self.control_policy = policy;
        self
    }

    /// Makes every control actor compute its emitted mode from the data
    /// it consumes through `selector` (see
    /// [`tpdf_core::control::ModeSelector`]).
    pub fn with_mode_selector(mut self, selector: Arc<dyn ModeSelector>) -> Self {
        self.mode_selector = Some(selector);
        self
    }

    /// Supplies the scalar values the reference sizing simulation feeds
    /// a data-dependent selector (see [`RuntimeConfig::value_trace`]).
    pub fn with_value_trace(mut self, trace: Arc<dyn ValueTrace>) -> Self {
        self.value_trace = Some(trace);
        self
    }

    /// Rebinds parameters at iteration boundaries: iteration `k` runs
    /// under the base binding overlaid with `sequence[min(k, len - 1)]`.
    /// Repetition counts, rates and ring capacities are re-derived at
    /// each affected iteration barrier (rings grow in place, they never
    /// shrink).
    pub fn with_binding_sequence(mut self, sequence: Vec<Binding>) -> Self {
        self.binding_sequence = sequence;
        self
    }

    /// The effective binding of iteration `k`.
    pub fn binding_for(&self, iteration: u64) -> Binding {
        if self.binding_sequence.is_empty() {
            return self.binding.clone();
        }
        let idx = (iteration as usize).min(self.binding_sequence.len() - 1);
        let mut binding = self.binding.clone();
        binding.merge(&self.binding_sequence[idx]);
        binding
    }

    /// The [`SimulationConfig`] mirroring this configuration — what the
    /// executor's reference sizing run (and any differential test) must
    /// hand the count-level engine so it follows the exact same modes
    /// and bindings as the runtime. The single place the two configs
    /// are kept in sync.
    pub fn reference_sim_config(&self) -> SimulationConfig {
        let mut sim = SimulationConfig::new(self.binding.clone())
            .with_policy(self.control_policy.clone())
            .with_binding_sequence(self.binding_sequence.clone());
        if let Some(selector) = &self.mode_selector {
            sim = sim.with_mode_selector(Arc::clone(selector));
        }
        if let Some(trace) = &self.value_trace {
            sim = sim.with_value_trace(Arc::clone(trace));
        }
        sim
    }

    /// Whether every control actor provably emits the same mode at
    /// every firing. Only then is one reference iteration enough for
    /// ring sizing: firing ordinals never reset across iterations, so
    /// an `Alternate` policy — or any custom selector, whose behaviour
    /// cannot be introspected — can select differently in later
    /// iterations and needs the whole run simulated.
    fn constant_mode_sequence(&self) -> bool {
        self.mode_selector.is_none() && !matches!(self.control_policy, ControlPolicy::Alternate(_))
    }

    /// Sets the placement policy (see [`PlacementPolicy`]).
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the worker thread count (at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the number of iterations.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Drives clocks from the wall clock, one virtual time unit lasting
    /// `time_unit`.
    pub fn with_real_time(mut self, time_unit: Duration) -> Self {
        self.clock_mode = ClockMode::RealTime { time_unit };
        self
    }

    /// Sets the ring-capacity slack factor (clamped to ≥ 1).
    pub fn with_capacity_slack(mut self, slack: u64) -> Self {
        self.capacity_slack = slack.max(1);
        self
    }

    /// Installs a structured tracing sink (see [`tpdf_trace::Tracer`]).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Tags every trace event of this execution with `tag` (Chrome
    /// export groups tags into processes; 0 = untagged).
    pub fn with_trace_tag(mut self, tag: u32) -> Self {
        self.trace_tag = tag;
        self
    }
}

/// Encodes a [`Mode`] into the 32-bit operand a
/// [`tpdf_trace::EventKind::ModeEmit`] event carries: `WaitAll` = 0,
/// `HighestPriority` = 1, `SelectOne(p)` = `0x100 | p`, and
/// `SelectMany(ps)` = `0x200 | ps.len()` (the port set itself stays in
/// the mode log).
pub fn mode_code(mode: &Mode) -> u32 {
    match mode {
        Mode::WaitAll => 0,
        Mode::HighestPriority => 1,
        Mode::SelectOne(port) => 0x100 | (*port as u32 & 0xFF),
        Mode::SelectMany(ports) => 0x200 | (ports.len() as u32 & 0xFF),
    }
}

/// One channel of a running graph: a data ring of tokens or a control
/// ring of modes. Both are lock-free SPSC rings.
#[derive(Debug)]
enum ChannelRing {
    Data(RingBuffer<Token>),
    Control(RingBuffer<Mode>),
}

/// Static, per-node facts precomputed at executor construction.
#[derive(Debug)]
struct NodeInfo {
    name: Arc<str>,
    /// Control actor in the paper's sense (includes Clock kernels).
    is_control_actor: bool,
    is_clock: bool,
    clock_period: u64,
    is_transaction: bool,
    votes_required: u32,
    is_select_duplicate: bool,
    control_port: Option<usize>,
    /// The control port is fed by a Clock (deadline semantics apply).
    control_from_clock: bool,
    /// Data input channels in port order.
    data_inputs: Vec<usize>,
    /// Data output channels in port order.
    data_outputs: Vec<usize>,
    /// Control output channels.
    control_outputs: Vec<usize>,
    /// Nodes whose readiness a firing of this node can change: itself,
    /// the consumers of its outputs, the producers of its inputs.
    neighbors: Vec<usize>,
}

/// Static, binding-independent per-channel facts.
#[derive(Debug)]
struct ChanInfo {
    label: Arc<str>,
    source: usize,
    target: usize,
    is_control: bool,
    initial_tokens: u64,
    priority: u32,
    /// The consuming node owns a control port (flush rule applies).
    target_controlled: bool,
}

/// Everything an iteration's binding determines, precomputed per
/// distinct phase of the binding sequence at construction: repetition
/// counts, concrete rates and ring capacities. Plans are immutable;
/// the barrier switches the active plan index, and the budget
/// republication (`Release` stores Acquire-paired at the claim gate)
/// is what publishes the switch to the workers.
#[derive(Debug)]
struct Plan {
    /// The effective binding of this phase.
    binding: Binding,
    /// Repetition counts (indexed by node).
    counts: Vec<u64>,
    /// Sum of `counts`: completions per iteration.
    total_per_iter: u64,
    /// Concrete cyclo-static production rates (indexed by channel).
    prod_rates: Vec<Vec<u64>>,
    /// Concrete cyclo-static consumption rates (indexed by channel).
    cons_rates: Vec<Vec<u64>>,
    /// Ring capacities this phase requires (indexed by channel).
    capacities: Vec<u64>,
    /// Under [`PlacementPolicy::Affinity`]: the `tpdf-manycore` mapping
    /// of this phase (workloads = this phase's repetition counts ×
    /// execution times, one cluster per configured worker). `None`
    /// under work stealing.
    mapping: Option<Mapping>,
    /// Node → home worker derived from `mapping` (empty under work
    /// stealing). Indexed by node; values are `< config.threads` and
    /// reduced mod the actual worker count at use sites, so a pooled
    /// run with fewer workers stays in bounds.
    home: Vec<usize>,
}

impl Plan {
    fn prod_rate(&self, chan: usize, ordinal: u64) -> u64 {
        let rates = &self.prod_rates[chan];
        rates[(ordinal as usize) % rates.len()]
    }

    fn cons_rate(&self, chan: usize, ordinal: u64) -> u64 {
        let rates = &self.cons_rates[chan];
        rates[(ordinal as usize) % rates.len()]
    }

    /// Tokens produced on `chan` during one complete iteration of this
    /// plan.
    fn production_per_iteration(&self, chan: usize, count: u64) -> u64 {
        (0..count).map(|k| self.prod_rate(chan, k)).sum()
    }
}

/// Per-node mutable scheduling state, all atomic.
#[derive(Debug, Default)]
struct NodeRunState {
    /// Exclusivity: set while a worker owns this node's next firing.
    claimed: AtomicBool,
    /// Set while a hint for this node sits in some ready queue.
    queued: AtomicBool,
    /// Firings *remaining* in the current iteration — the claim gate.
    /// Zero while the iteration barrier runs; the barrier's `Release`
    /// republication is what hands the barrier's ring flushes, ring
    /// growth and plan switch to the `Acquire`ing claimant (a claimant
    /// that reads a stale zero simply retires without touching any
    /// ring).
    budget: AtomicU64,
    /// Firings completed across the whole run.
    fired_total: AtomicU64,
    /// Firing ordinal the mode selector sees (one per control-actor
    /// firing, never reset).
    control_firings: AtomicU64,
}

/// Fields behind the park mutex: error/done teardown and the rare
/// deadline-decision log.
#[derive(Debug, Default)]
struct ParkInner {
    error: Option<RuntimeError>,
    done: bool,
    deadline_selections: Vec<DeadlineSelection>,
}

/// Below this measured per-firing cost, secondary workers back off and
/// leave the graph to one worker: the scheduling cost of distributing a
/// firing (claim CAS, queue traffic, a wake-up) exceeds what
/// parallelism can recover. Heavy kernels — real compute, simulated
/// execution times, I/O waits — stay far above it and parallelise
/// fully. The figure comes from the measured claim/complete overhead
/// (≈ 0.5–1 µs per firing).
const FINE_GRAIN_NS: u64 = 10_000;

/// Flight-recorder events a stall error dumps into its diagnostics —
/// enough to see the last few firings and the park/wake churn leading
/// into the stall, small enough to keep the error message bounded.
pub const STALL_DUMP_EVENTS: usize = 32;

/// Sampled firing-cost telemetry (1 in 8 firings is timed): an
/// exponentially weighted moving average (α = 1/8) in nanoseconds,
/// feeding the granularity heuristic. An EWMA — not a cumulative mean —
/// so a registry whose kernel weight changes between `run` calls
/// re-classifies within a few dozen samples instead of being anchored
/// by the whole history.
///
/// The telemetry is shared (`Arc`): it lives on the [`Executor`] so the
/// verdict learned in one run carries into the next, and a
/// [`crate::pool::ExecutorPool`] hands the *same* telemetry to every
/// executor it builds, so the classification survives across executors
/// too — a fine-grained graph learned in run 1 starts run 2 already
/// collapsed to the single-worker fast path, with no re-sampling from
/// scratch.
#[derive(Debug, Default)]
pub(crate) struct CostTelemetry {
    ewma_ns: AtomicU64,
    samples: AtomicU64,
}

impl CostTelemetry {
    /// Folds one firing-cost sample into the EWMA (α = 1/8; the first
    /// sample seeds the average). Samples race only against each other
    /// and the estimate is advisory, so `Relaxed` suffices — a lost
    /// update costs one sample's weight, not correctness.
    fn record(&self, sample_ns: u64) {
        if self.samples.fetch_add(1, Ordering::Relaxed) == 0 {
            self.ewma_ns.store(sample_ns, Ordering::Relaxed);
        } else {
            let old = self.ewma_ns.load(Ordering::Relaxed);
            self.ewma_ns
                .store(old - old / 8 + sample_ns / 8, Ordering::Relaxed);
        }
    }

    /// Whether the sampled firing cost says firings are too cheap to be
    /// worth distributing across workers.
    fn fine_grained(&self) -> bool {
        self.samples.load(Ordering::Relaxed) >= 8
            && self.ewma_ns.load(Ordering::Relaxed) < FINE_GRAIN_NS
    }

    /// The current estimate in nanoseconds, `None` before any sample.
    pub(crate) fn sampled_firing_cost_ns(&self) -> Option<u64> {
        (self.samples.load(Ordering::Relaxed) > 0).then(|| self.ewma_ns.load(Ordering::Relaxed))
    }
}

/// All mutable state of one `run`, shared across the worker pool.
pub(crate) struct RunState {
    rings: Vec<ChannelRing>,
    nodes: Vec<NodeRunState>,
    tokens_pushed: Vec<AtomicU64>,
    /// Data channels consumed at least once this iteration (flush rule).
    selected: Vec<AtomicBool>,
    /// Index of the active [`Plan`]. Written only by the iteration
    /// barrier, read by claim holders *after* their `Acquire` budget
    /// load — the barrier stores it before republishing budgets, so a
    /// nonzero budget implies a fresh plan index.
    plan: AtomicUsize,
    /// Completions remaining in the current iteration; the worker that
    /// decrements it to zero runs the iteration barrier.
    remaining_iter: AtomicU64,
    iteration: AtomicU64,
    /// Workers currently holding a claim or attempting one — part of
    /// the stall-detection protocol (see [`Executor::park`]).
    in_flight: AtomicUsize,
    halt: AtomicBool,
    /// Bumped after every completed firing; parkers use it to detect
    /// progress that raced with their failed scan.
    epoch: AtomicU64,
    parked: AtomicUsize,
    deadline_misses: AtomicU64,
    vote_failures: AtomicU64,
    /// Per-worker ready queues (hints, not obligations: a stale entry
    /// is simply dropped when its claim fails). Under affinity
    /// placement, completions route each hint to the *home worker's*
    /// queue instead of the completing worker's.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Firings completed per worker (indexed like `queues`).
    worker_firings: Vec<AtomicU64>,
    /// Firings a worker acquired across the placement boundary: hints
    /// popped from a foreign queue (work stealing) or foreign-home
    /// nodes fired while starved (affinity).
    worker_steals: Vec<AtomicU64>,
    /// Modes emitted per node, one entry per firing. Only the claim
    /// holder of a node appends (firings of one node are serialised),
    /// so the lock is uncontended; it exists to make the Vec shareable.
    mode_log: Vec<Mutex<Vec<Mode>>>,
    /// Parameter rebindings applied at iteration barriers.
    rebinds: Mutex<Vec<RebindEvent>>,
    /// Slab-arena traffic summed over the workers' private arenas, each
    /// flushed once when its worker leaves the loop (never per firing).
    arena_hits: AtomicU64,
    arena_misses: AtomicU64,
    arena_recycled: AtomicU64,
    arena_retired: AtomicU64,
    /// Job tag stamped on this run's trace events (see
    /// [`RuntimeConfig::trace_tag`]; a pool overwrites 0 with a fresh
    /// tag before starting workers).
    pub(crate) trace_job: u32,
    park: Mutex<ParkInner>,
    cond: Condvar,
}

impl RunState {
    fn data_ring(&self, chan: usize) -> &RingBuffer<Token> {
        match &self.rings[chan] {
            ChannelRing::Data(ring) => ring,
            ChannelRing::Control(_) => unreachable!("data port backed by control ring"),
        }
    }

    fn control_ring(&self, chan: usize) -> &RingBuffer<Mode> {
        match &self.rings[chan] {
            ChannelRing::Control(ring) => ring,
            ChannelRing::Data(_) => unreachable!("control port backed by data ring"),
        }
    }

    /// Adds one worker arena's lifetime counters into the run totals.
    fn flush_arena(&self, stats: ArenaStats) {
        self.arena_hits.fetch_add(stats.hits, Ordering::Relaxed);
        self.arena_misses.fetch_add(stats.misses, Ordering::Relaxed);
        self.arena_recycled
            .fetch_add(stats.recycled, Ordering::Relaxed);
        self.arena_retired
            .fetch_add(stats.retired, Ordering::Relaxed);
    }
}

/// A claimed firing: inputs consumed, ready to compute. Output space
/// was verified before the inputs were popped; the claim holder is the
/// sole producer of its output rings, so the space cannot disappear.
struct Claim {
    node: usize,
    /// Firing ordinal within the iteration (selects cyclo-static rates).
    ordinal_iter: u64,
    /// Firing ordinal across the run (exposed to behaviours).
    ordinal_total: u64,
    /// The plan this firing was claimed under (stable while the claim
    /// is held: a rebind requires this node's budget to reach zero
    /// first).
    plan: usize,
    mode: Mode,
    inputs: Vec<PortInput>,
    deadline_missed: bool,
    /// Record a [`DeadlineSelection`] for this firing.
    record_deadline: bool,
}

/// Outcome of one [`Engine::try_fire`] attempt.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Attempt {
    /// A firing was executed (successfully or not — errors halt the
    /// run through the park state).
    Fired,
    /// This worker examined the node under its claim and found it not
    /// claimable (or had no budget left).
    Idle,
    /// Another worker held the node's claim, so this worker never
    /// examined it. The holder's own verdict may predate a completion
    /// this worker already observed, so the hunt proves nothing about
    /// the node and must not back a stall verdict.
    Contended,
}

/// Per-worker scratch threaded through the firing path: the local
/// firing counter that drives the 1-in-8 sampling cadence, the cached
/// trace timestamp that unsampled firings stamp their events with —
/// tracing then costs one clock read per *sampled* firing instead of
/// per firing, which is what keeps the flight recorder within its
/// overhead budget on fine-grained graphs — and the worker's memory
/// recycling state: the slab arena its firing slabs cycle through,
/// the spare port-entry containers, and the scalar buffer the mode
/// selector reads from. Together these make a steady-state firing
/// allocation-free.
struct FireScratch {
    fired: u64,
    ts_ns: u64,
    /// Sampling cadence of the cost/trace timer as a power-of-two mask
    /// (`fired & mask == 1` samples). Workers use 1-in-8; the
    /// single-worker fast path stretches to 1-in-64 — it only runs
    /// *after* the fine-grained verdict converged, so it needs enough
    /// samples to notice a kernel growing coarse again, not to build
    /// the estimate from scratch, and on sub-microsecond firings the
    /// two clock reads per sample are themselves a measurable tax.
    sample_mask: u64,
    /// Recycled `Vec<Token>` firing slabs, bucketed by capacity class.
    arena: SlabArena<Token>,
    /// The previous firing's (drained) port containers, reused so the
    /// `Vec<PortInput>`/`Vec<PortOutput>` of a context cost nothing
    /// either.
    spare_inputs: Vec<PortInput>,
    spare_outputs: Vec<PortOutput>,
    /// Idle port entries parked per node, with their shared channel
    /// labels still attached: reusing an entry skips the two `Arc`
    /// refcount round-trips per port per firing that rebuilding one
    /// costs (lazily sized to the node count on first use).
    ports: Vec<NodePorts>,
    /// Reused scalar-view buffer for data-dependent mode selection.
    scalars: Vec<i64>,
    /// Arena counters already emitted as trace events (the
    /// `SlabRecycle`/`SlabMiss` pair rides the sampling cadence and
    /// reports deltas since the previous sampled firing).
    traced: ArenaStats,
}

/// One node's parked port entries (see [`FireScratch::ports`]).
#[derive(Default)]
struct NodePorts {
    inputs: Vec<PortInput>,
    outputs: Vec<PortOutput>,
    /// The node-name handle of the last [`FiringContext`] this worker
    /// built for the node, parked here when the context is dismantled
    /// so the next firing's context skips the clone/drop pair on the
    /// shared `Arc<str>`.
    name: Option<Arc<str>>,
}

impl Default for FireScratch {
    fn default() -> Self {
        FireScratch {
            fired: 0,
            ts_ns: 0,
            sample_mask: 7,
            arena: SlabArena::default(),
            spare_inputs: Vec::new(),
            spare_outputs: Vec::new(),
            ports: Vec::new(),
            scalars: Vec::new(),
            traced: ArenaStats::default(),
        }
    }
}

impl FireScratch {
    /// The parked entries of `node`, growing the table on first touch.
    fn node_ports(&mut self, node: usize) -> &mut NodePorts {
        if self.ports.len() <= node {
            self.ports.resize_with(node + 1, NodePorts::default);
        }
        &mut self.ports[node]
    }
}

/// The multi-threaded executor of one TPDF graph.
///
/// # Examples
///
/// ```
/// use tpdf_core::examples::figure2_graph;
/// use tpdf_runtime::executor::{Executor, RuntimeConfig};
/// use tpdf_runtime::kernel::KernelRegistry;
/// use tpdf_symexpr::Binding;
///
/// # fn main() -> Result<(), tpdf_runtime::RuntimeError> {
/// let graph = figure2_graph();
/// let config = RuntimeConfig::new(Binding::from_pairs([("p", 2)]))
///     .with_threads(4)
///     .with_iterations(3);
/// let metrics = Executor::new(&graph, config)?.run(&KernelRegistry::new())?;
/// // q = [2, 2p, p, p, 2p, 2p] with p = 2, three iterations.
/// assert_eq!(metrics.firings, vec![6, 12, 6, 6, 12, 12]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Executor<'g> {
    /// Kept for diagnostics and lifetime-tying to the analysed graph.
    graph: &'g TpdfGraph,
    /// Everything a run needs, owned — the same `Arc` a persistent
    /// [`crate::pool::ExecutorPool`] clones into its long-lived
    /// workers, which is why the engine borrows nothing.
    engine: Arc<Engine>,
}

/// The owned heart of an [`Executor`]: precomputed plans, per-node and
/// per-channel facts, and the worker-loop implementation. Split from
/// the graph-borrowing shell so a [`crate::pool::ExecutorPool`]'s
/// `'static` worker threads can share it through an `Arc`.
#[derive(Debug)]
pub(crate) struct Engine {
    config: RuntimeConfig,
    /// One precomputed execution plan per phase of the binding
    /// sequence; iteration `k` runs plan `min(k, plans.len() - 1)`.
    plans: Vec<Plan>,
    nodes: Vec<NodeInfo>,
    chans: Vec<ChanInfo>,
    /// The mode selector in effect (the control policy wrapped as one,
    /// unless a data-dependent selector is configured).
    selector: Arc<dyn ModeSelector>,
    /// Fallback scan order: control actors first (Section III-D
    /// priority rule), then kernels.
    scan_order: Vec<usize>,
    clock_nodes: Vec<usize>,
    /// Shared firing-cost telemetry (see [`CostTelemetry`]).
    telemetry: Arc<CostTelemetry>,
    /// Reference cost of one iteration in virtual work units: the
    /// maximum over the binding sequence's phases of Σ repetition
    /// count × execution time — what admission control compares
    /// against a deadline period.
    cost_units: u64,
    /// The shortest Clock period in the graph, if any — under
    /// [`ClockMode::RealTime`] one iteration must complete within it.
    min_clock_period: Option<u64>,
    /// Liveness counters for external watchdogs (see
    /// [`ProgressBeacon`]); shared by every run of this compilation
    /// through the engine `Arc`, so it survives checkpoint/migrate.
    beacon: ProgressBeacon,
}

impl<'g> Executor<'g> {
    /// Builds an executor: checks consistency, concretises rates and
    /// sizes every ring — data rings from a reference `tpdf-sim`
    /// execution, control rings from their per-iteration production.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Analysis`] when the graph is inconsistent
    /// or the binding incomplete, and propagates any error of the
    /// reference sizing run.
    pub fn new(graph: &'g TpdfGraph, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        Self::with_telemetry(graph, config, Arc::new(CostTelemetry::default()))
    }

    /// Builds an executor whose firing-cost telemetry is shared with
    /// the caller — how [`crate::pool::ExecutorPool::executor`] makes
    /// granularity classification survive across executors.
    pub(crate) fn with_telemetry(
        graph: &'g TpdfGraph,
        config: RuntimeConfig,
        telemetry: Arc<CostTelemetry>,
    ) -> Result<Self, RuntimeError> {
        Ok(Executor {
            graph,
            engine: Arc::new(Engine::new(graph, config, telemetry)?),
        })
    }

    /// The graph this executor runs.
    pub fn graph(&self) -> &'g TpdfGraph {
        self.graph
    }

    /// The owned engine, for the pool to clone into run jobs.
    pub(crate) fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The initial ring capacity of every channel. Data rings are
    /// sized from the reference high-water marks times the slack;
    /// control rings from their per-iteration production (an exact
    /// occupancy bound). Under a binding sequence this is the first
    /// iteration's sizing — see
    /// [`Executor::capacities_for_iteration`].
    pub fn capacities(&self) -> &[u64] {
        &self.engine.plans[0].capacities
    }

    /// The ring capacities iteration `k` requires (rings grow to the
    /// running maximum of these at the iteration barriers).
    pub fn capacities_for_iteration(&self, iteration: u64) -> &[u64] {
        &self.engine.plans[self.engine.phase_of(iteration)].capacities
    }

    /// The per-iteration repetition count of every node (first
    /// iteration's counts under a binding sequence).
    pub fn repetition_counts(&self) -> &[u64] {
        &self.engine.plans[0].counts
    }

    /// The repetition counts of iteration `k`.
    pub fn repetition_counts_for_iteration(&self, iteration: u64) -> &[u64] {
        &self.engine.plans[self.engine.phase_of(iteration)].counts
    }

    /// The node-to-cluster mapping iteration `k` runs under, when the
    /// placement policy is [`PlacementPolicy::Affinity`] (`None` under
    /// work stealing). Phases of a binding sequence are mapped
    /// independently — repetition counts change with the binding, so
    /// the workloads and the pinning do too.
    pub fn mapping_for_iteration(&self, iteration: u64) -> Option<&Mapping> {
        self.engine.plans[self.engine.phase_of(iteration)]
            .mapping
            .as_ref()
    }

    /// The current firing-cost estimate in nanoseconds: an EWMA
    /// (α = 1/8) over the sampled firings of every `run` on this
    /// executor, or `None` before the first sample. Feeds the
    /// granularity heuristic that decides whether a graph is worth
    /// distributing across workers.
    pub fn sampled_firing_cost_ns(&self) -> Option<u64> {
        self.engine.telemetry.sampled_firing_cost_ns()
    }

    /// Detaches this executor's owned engine as a [`CompiledExecutor`]:
    /// a `'static`, graph-independent handle that can outlive the
    /// borrowed graph and be submitted asynchronously to a
    /// [`crate::pool::ExecutorPool`] — the form a long-lived service
    /// session stores.
    pub fn compile(&self) -> CompiledExecutor {
        CompiledExecutor {
            engine: Arc::clone(&self.engine),
        }
    }

    /// Executes the configured number of iterations on a scoped worker
    /// pool (threads spawned per call — see
    /// [`crate::pool::ExecutorPool`] for the persistent alternative)
    /// and reports [`Metrics`].
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::Stalled`] when no node can make progress;
    /// * [`RuntimeError::RateMismatch`] when a behaviour produced the
    ///   wrong number of tokens;
    /// * any [`RuntimeError::KernelFailed`] raised by a behaviour.
    pub fn run(&self, registry: &KernelRegistry) -> Result<Metrics, RuntimeError> {
        self.engine.run_scoped(registry)
    }

    /// Like [`Executor::run`], additionally capturing a
    /// barrier-consistent [`Checkpoint`] of the run's final state (the
    /// quiescent cut its last iteration barrier left). Run a *k*-
    /// iteration executor, checkpoint, and hand the checkpoint to an
    /// *N*-iteration executor's [`Executor::run_restored`] to split one
    /// logical run across executors — or processes, through
    /// [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::run`].
    pub fn run_checkpointed(
        &self,
        registry: &KernelRegistry,
    ) -> Result<(Metrics, Checkpoint), RuntimeError> {
        self.engine.run_scoped_checkpointed(registry)
    }

    /// Resumes a checkpointed run mid-graph: rebuilds rings, budgets
    /// and metric prefixes from `checkpoint` and executes the remaining
    /// iterations. The resulting sink streams, mode sequences and
    /// firing counts are byte-identical to a run that never stopped —
    /// across thread counts and placement policies.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::Checkpoint`] when the checkpoint belongs to a
    ///   different graph, disagrees in shape, or leaves nothing to
    ///   resume;
    /// * otherwise the same conditions as [`Executor::run`].
    pub fn run_restored(
        &self,
        registry: &KernelRegistry,
        checkpoint: &Checkpoint,
    ) -> Result<Metrics, RuntimeError> {
        self.engine.run_scoped_restored(registry, checkpoint)
    }
}

/// Liveness counters an external watchdog can poll without touching
/// the hot path: runs started/finished and iteration barriers crossed,
/// plus a coarse "last progress" timestamp. Barriers are the natural
/// progress grain — every firing budget of an iteration was exhausted
/// to reach one — so "no barrier within a budget while a run is in
/// flight" is exactly the stall signal the PR 6 stall dump keys on,
/// made observable instead of fatal.
///
/// All stores are `Relaxed`: the beacon is advisory telemetry, ordered
/// only with itself, and adds one `Instant::now` per *iteration* (not
/// per firing) to the barrier.
#[derive(Debug)]
pub(crate) struct ProgressBeacon {
    /// Construction time; progress timestamps are nanoseconds since
    /// this epoch (0 = never), so one `AtomicU64` carries them.
    epoch: Instant,
    barriers: AtomicU64,
    runs_started: AtomicU64,
    runs_finished: AtomicU64,
    last_progress_ns: AtomicU64,
}

impl ProgressBeacon {
    fn new() -> Self {
        ProgressBeacon {
            epoch: Instant::now(),
            barriers: AtomicU64::new(0),
            runs_started: AtomicU64::new(0),
            runs_finished: AtomicU64::new(0),
            last_progress_ns: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        // `max(1)` keeps 0 reserved for "no progress ever".
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    fn touch(&self) {
        self.last_progress_ns
            .store(self.now_ns(), Ordering::Relaxed);
    }

    fn barrier(&self) {
        self.barriers.fetch_add(1, Ordering::Relaxed);
        self.touch();
    }

    fn run_started(&self) {
        self.runs_started.fetch_add(1, Ordering::Relaxed);
        self.touch();
    }

    fn run_finished(&self) {
        self.runs_finished.fetch_add(1, Ordering::Relaxed);
        self.touch();
    }

    fn snapshot(&self) -> ProgressSnapshot {
        let last = self.last_progress_ns.load(Ordering::Relaxed);
        ProgressSnapshot {
            barriers: self.barriers.load(Ordering::Relaxed),
            runs_started: self.runs_started.load(Ordering::Relaxed),
            runs_finished: self.runs_finished.load(Ordering::Relaxed),
            since_progress: if last == 0 {
                None
            } else {
                Some(Duration::from_nanos(self.now_ns().saturating_sub(last)))
            },
        }
    }
}

/// A point-in-time view of a [`CompiledExecutor`]'s progress beacon —
/// what `tpdf-ops`' stall watchdog polls. `since_progress` is `None`
/// until the executor has run at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgressSnapshot {
    /// Iteration barriers crossed over the executor's lifetime (all
    /// runs, all sessions sharing the compilation).
    pub barriers: u64,
    /// Runs entered (fresh or restored from a checkpoint).
    pub runs_started: u64,
    /// Runs whose metrics were collected (successful or failed).
    pub runs_finished: u64,
    /// Wall-clock time since the last progress signal (run start,
    /// barrier, or run finish); `None` before the first run.
    pub since_progress: Option<Duration>,
}

/// An owned, `'static` executable form of an [`Executor`]: the analysed
/// plans, per-node facts and shared telemetry behind one `Arc`, with no
/// borrow of the source graph. This is what a multi-session service
/// keeps per session — the graph can be dropped after compilation — and
/// what [`crate::pool::ExecutorPool::submit`] accepts for asynchronous
/// (caller-non-participating) execution.
///
/// Cloning is cheap (an `Arc` bump) and clones share telemetry.
#[derive(Debug, Clone)]
pub struct CompiledExecutor {
    engine: Arc<Engine>,
}

impl CompiledExecutor {
    /// The configuration the compiled runs execute under.
    pub fn config(&self) -> &RuntimeConfig {
        self.engine.config()
    }

    /// The per-iteration repetition count of every node (first phase's
    /// counts under a binding sequence).
    pub fn repetition_counts(&self) -> &[u64] {
        &self.engine.plans[0].counts
    }

    /// Reference cost of one iteration in virtual work units (Σ
    /// repetition count × node execution time, maximised over the
    /// phases of the binding sequence). Admission control divides this
    /// by [`CompiledExecutor::min_clock_period`] to estimate the
    /// processor share a deadline-driven session demands.
    pub fn estimated_cost_units(&self) -> u64 {
        self.engine.cost_units
    }

    /// The shortest Clock period in the graph (virtual time units), if
    /// the graph has any Clock watchdog. Under
    /// [`ClockMode::RealTime`] one iteration must complete within it.
    pub fn min_clock_period(&self) -> Option<u64> {
        self.engine.min_clock_period
    }

    /// A point-in-time view of the progress beacon: runs started and
    /// finished, iteration barriers crossed, and time since the last
    /// progress signal. Lock-free; safe to poll from a sampler thread
    /// while runs execute.
    pub fn progress(&self) -> ProgressSnapshot {
        self.engine.beacon.snapshot()
    }

    /// The engine, for the pool's submission path.
    pub(crate) fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }
}

impl Engine {
    fn new(
        graph: &TpdfGraph,
        config: RuntimeConfig,
        telemetry: Arc<CostTelemetry>,
    ) -> Result<Self, RuntimeError> {
        if config.iterations == 0 {
            return Err(RuntimeError::InvalidConfig(
                "at least one iteration must be requested".to_string(),
            ));
        }
        // `with_threads` clamps, but `threads` is a public field: a zero
        // slipping through would make `run` return an empty Ok no-op.
        if config.threads == 0 {
            return Err(RuntimeError::InvalidConfig(
                "at least one worker thread is required".to_string(),
            ));
        }
        let repetition = tpdf_core::consistency::symbolic_repetition_vector(graph)
            .map_err(|e| RuntimeError::Analysis(e.to_string()))?;

        // One execution plan per phase of the binding sequence.
        let phase_count = config.binding_sequence.len().max(1);
        let phase_bindings: Vec<Binding> = (0..phase_count as u64)
            .map(|k| config.binding_for(k))
            .collect();

        // Reference execution: per-channel high-water marks under the
        // same selector and bindings determine the data-ring
        // capacities. One iteration suffices only when the binding AND
        // every emitted mode are the same each iteration — firing
        // ordinals never reset, so an `Alternate` policy or a custom
        // selector can choose differently later and a ring sized from
        // iteration 0 could deadlock a rejected-then-full channel.
        // Otherwise the whole run is simulated, so every iteration's
        // occupancy is observed.
        let reference_iterations = if phase_count == 1 && config.constant_mode_sequence() {
            1
        } else {
            config.iterations
        };
        let reference = Simulator::new(graph, config.reference_sim_config())
            .map_err(|e| RuntimeError::Analysis(e.to_string()))?
            .run_iterations(reference_iterations)
            .map_err(|e| RuntimeError::Analysis(format!("reference sizing run failed: {e}")))?;

        let clock_sources: BTreeSet<NodeId> = graph
            .nodes()
            .filter(|(_, n)| matches!(n.kernel_kind(), Some(k) if k.is_clock()))
            .map(|(id, _)| id)
            .collect();
        let control_actor_ids: BTreeSet<NodeId> =
            graph.control_actors().map(|(id, _)| id).collect();

        let mut chans = Vec::with_capacity(graph.channel_count());
        for (id, chan) in graph.channels() {
            chans.push(ChanInfo {
                label: Arc::from(chan.label.as_str()),
                source: chan.source.0,
                target: chan.target.0,
                is_control: chan.is_control(),
                initial_tokens: chan.initial_tokens,
                priority: chan.priority,
                target_controlled: graph.control_port(chan.target).is_some(),
            });
            debug_assert_eq!(id.0, chans.len() - 1);
        }

        let mut nodes = Vec::with_capacity(graph.node_count());
        for (id, node) in graph.nodes() {
            let kind = node.kernel_kind();
            let control_port = graph.control_port(id).map(|c| c.0);
            let control_from_clock = graph
                .control_port(id)
                .map(|cp| clock_sources.contains(&graph.channel(cp).source))
                .unwrap_or(false);
            let data_inputs: Vec<usize> = graph.data_input_channels(id).map(|(c, _)| c.0).collect();
            let mut data_outputs = Vec::new();
            let mut control_outputs = Vec::new();
            for (c, chan) in graph.output_channels(id) {
                if chan.is_control() {
                    control_outputs.push(c.0);
                } else {
                    data_outputs.push(c.0);
                }
            }
            let mut neighbors = BTreeSet::new();
            neighbors.insert(id.0);
            for &c in data_outputs.iter().chain(&control_outputs) {
                neighbors.insert(chans[c].target);
            }
            for &c in &data_inputs {
                neighbors.insert(chans[c].source);
            }
            if let Some(cp) = control_port {
                neighbors.insert(chans[cp].source);
            }
            nodes.push(NodeInfo {
                name: Arc::from(node.name.as_str()),
                is_control_actor: control_actor_ids.contains(&id),
                is_clock: matches!(kind, Some(k) if k.is_clock()),
                clock_period: kind.and_then(|k| k.clock_period()).unwrap_or(0),
                is_transaction: matches!(kind, Some(k) if k.is_transaction()),
                votes_required: match kind {
                    Some(KernelKind::Transaction { votes_required }) => *votes_required,
                    _ => 0,
                },
                is_select_duplicate: matches!(kind, Some(k) if k.is_select_duplicate()),
                control_port,
                control_from_clock,
                data_inputs,
                data_outputs,
                control_outputs,
                neighbors: neighbors.into_iter().collect(),
            });
        }

        let mut plans = Vec::with_capacity(phase_count);
        for (phase, binding) in phase_bindings.iter().enumerate() {
            let counts = repetition
                .concrete(binding)
                .map_err(|e| RuntimeError::Analysis(e.to_string()))?;
            let mut prod_rates = Vec::with_capacity(chans.len());
            let mut cons_rates = Vec::with_capacity(chans.len());
            for (_, chan) in graph.channels() {
                let concretise =
                    |rates: &tpdf_core::rate::RateSeq| -> Result<Vec<u64>, RuntimeError> {
                        (0..rates.phases() as u64)
                            .map(|i| {
                                rates
                                    .concrete(i, binding)
                                    .map_err(|e| RuntimeError::Analysis(e.to_string()))
                            })
                            .collect()
                    };
                prod_rates.push(concretise(&chan.production)?);
                cons_rates.push(concretise(&chan.consumption)?);
            }
            // Affinity placement: map this phase's workload onto one
            // cluster per worker thread with `tpdf-manycore`'s mapper,
            // and pin every node to the worker of its cluster. Each
            // phase is mapped independently — a rebind changes the
            // repetition counts, hence the workloads, hence the homes.
            let (mapping, home) = match &config.placement {
                PlacementPolicy::WorkStealing => (None, Vec::new()),
                PlacementPolicy::Affinity(strategy) => {
                    let workloads = node_workloads(graph, &counts);
                    let platform = Platform::mppa_like(config.threads.max(1), 1, 0);
                    let mapping = map_graph(graph, &platform, *strategy, &workloads)
                        .map_err(|e| RuntimeError::Analysis(e.to_string()))?;
                    let home: Vec<usize> = mapping
                        .clusters()
                        .iter()
                        .map(|c| c.0 % config.threads.max(1))
                        .collect();
                    (Some(mapping), home)
                }
            };
            let mut plan = Plan {
                binding: binding.clone(),
                total_per_iter: counts.iter().sum(),
                counts,
                prod_rates,
                cons_rates,
                capacities: Vec::new(),
                mapping,
                home,
            };
            // The reference high-water of this phase: the whole-run
            // marks for the single-phase case, the maximum over the
            // phase's iterations otherwise (zero when the sequence
            // outlives the requested iterations — such a phase never
            // executes).
            let phase_high_water = |chan: usize| -> u64 {
                if phase_count == 1 {
                    return reference.channel_high_water[chan];
                }
                reference
                    .per_iteration
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (*i).min(phase_count - 1) == phase)
                    .map(|(_, record)| record.channel_high_water[chan])
                    .max()
                    .unwrap_or(0)
            };
            plan.capacities = chans
                .iter()
                .enumerate()
                .map(|(i, info)| {
                    if info.is_control {
                        // Control tokens are produced and fully consumed
                        // within each iteration (rate consistency), so
                        // the per-iteration production bounds the
                        // occupancy exactly — no reference needed, no
                        // slack either.
                        (plan.production_per_iteration(i, plan.counts[info.source])
                            + info.initial_tokens)
                            .max(1)
                    } else {
                        phase_high_water(i)
                            .max(info.initial_tokens)
                            .max(1)
                            .saturating_mul(config.capacity_slack)
                    }
                })
                .collect();
            plans.push(plan);
        }

        let mut scan_order: Vec<usize> = (0..graph.node_count())
            .filter(|&n| nodes[n].is_control_actor)
            .collect();
        scan_order.extend((0..graph.node_count()).filter(|&n| !nodes[n].is_control_actor));
        let clock_nodes: Vec<usize> = (0..graph.node_count())
            .filter(|&n| nodes[n].is_clock)
            .collect();

        let selector = match &config.mode_selector {
            Some(selector) => Arc::clone(selector),
            None => Arc::new(config.control_policy.clone()) as Arc<dyn ModeSelector>,
        };
        let cost_units = plans
            .iter()
            .map(|plan| node_workloads(graph, &plan.counts).iter().sum())
            .max()
            .unwrap_or(0);
        let min_clock_period = nodes
            .iter()
            .filter(|n| n.is_clock && n.clock_period > 0)
            .map(|n| n.clock_period)
            .min();
        Ok(Engine {
            config,
            plans,
            nodes,
            chans,
            selector,
            scan_order,
            clock_nodes,
            telemetry,
            cost_units,
            min_clock_period,
            beacon: ProgressBeacon::new(),
        })
    }

    /// The configuration this engine runs under.
    pub(crate) fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The plan index of iteration `k`.
    fn phase_of(&self, iteration: u64) -> usize {
        (iteration as usize).min(self.plans.len() - 1)
    }

    /// The worker count a run should use right now: collapsed to one
    /// when the telemetry says the graph is fine-grained (Virtual
    /// clocks only — real-time kernels block on wall-clock work
    /// regardless of what the cost samples say), the configured count
    /// otherwise.
    pub(crate) fn effective_workers(&self) -> usize {
        if matches!(self.config.clock_mode, ClockMode::Virtual) && self.fine_grained() {
            1
        } else {
            self.config.threads
        }
    }

    /// Executes the configured number of iterations on a *scoped*
    /// worker pool: threads are spawned for this run and joined before
    /// returning. The persistent-pool path
    /// ([`crate::pool::ExecutorPool::run`]) shares everything below
    /// `worker_loop` with this one.
    pub(crate) fn run_scoped(&self, registry: &KernelRegistry) -> Result<Metrics, RuntimeError> {
        // Once the persistent telemetry has established that this
        // graph's firings are too cheap to distribute, secondary
        // workers would back off the moment they start — so don't pay
        // their spawn cost at all.
        let workers = self.effective_workers();
        let state = self.initial_state(workers);
        let start = Instant::now();
        self.drive(&state, registry, workers, start);
        self.collect_metrics(&state, start.elapsed(), workers)
    }

    /// Like [`Engine::run_scoped`], additionally capturing a
    /// barrier-consistent [`Checkpoint`] of the finished run's state —
    /// the quiescent state left by the final iteration barrier, before
    /// any teardown.
    pub(crate) fn run_scoped_checkpointed(
        &self,
        registry: &KernelRegistry,
    ) -> Result<(Metrics, Checkpoint), RuntimeError> {
        let workers = self.effective_workers();
        let state = self.initial_state(workers);
        let start = Instant::now();
        self.drive(&state, registry, workers, start);
        let metrics = self.collect_metrics(&state, start.elapsed(), workers)?;
        let checkpoint = self.capture_checkpoint(&state, &metrics);
        Ok((metrics, checkpoint))
    }

    /// Like [`Engine::run_scoped`], but resuming from `checkpoint`
    /// instead of the initial state: rings, budgets, metrics prefixes
    /// and control ordinals are rebuilt, then the run continues from
    /// iteration `checkpoint.iteration` to the configured count.
    pub(crate) fn run_scoped_restored(
        &self,
        registry: &KernelRegistry,
        checkpoint: &Checkpoint,
    ) -> Result<Metrics, RuntimeError> {
        let workers = self.effective_workers();
        let state = self.restore_state(checkpoint, workers)?;
        let start = Instant::now();
        self.drive(&state, registry, workers, start);
        self.collect_metrics(&state, start.elapsed(), workers)
    }

    /// Runs the worker loops over `state` to completion on a scoped
    /// thread pool — the execution core shared by the plain,
    /// checkpointing and restoring entry points.
    fn drive(&self, state: &RunState, registry: &KernelRegistry, workers: usize, start: Instant) {
        if workers == 1 && matches!(self.config.clock_mode, ClockMode::Virtual) {
            // Single-worker runs skip the coordination layer entirely:
            // no claim CAS, no in-flight bracketing, no epoch/wake
            // traffic, no ready-queue locks — just claim, execute,
            // publish. This is the path fine-grained graphs collapse
            // to whatever the configured pool size.
            self.run_single(state, registry, start);
        } else {
            std::thread::scope(|scope| {
                // The calling thread is worker 0: a 1-thread run spawns
                // no OS thread at all, and an N-thread run only N - 1 —
                // thread creation is a measurable fraction of short
                // runs.
                for me in 1..workers {
                    // A scoped secondary that stands down from a
                    // transiently fine-grained phase naps and
                    // re-enters: it has no other job to serve (unlike
                    // a pool worker), and the estimate may recover in
                    // a later, heavier phase.
                    scope.spawn(move || {
                        while self.worker_loop(state, me, registry, start) {
                            self.standdown_nap(state);
                        }
                    });
                }
                let _ = self.worker_loop(state, 0, registry, start);
            });
        }
    }

    /// Assembles the [`Metrics`] of a finished run. Borrows the state
    /// (locks are cloned out, not consumed) so the persistent pool can
    /// collect from a job its workers still hold an `Arc` to.
    pub(crate) fn collect_metrics(
        &self,
        state: &RunState,
        elapsed: Duration,
        effective_workers: usize,
    ) -> Result<Metrics, RuntimeError> {
        // A failed run still *finished* for liveness purposes — the
        // watchdog distinguishes failure from stall by the error, not
        // by a hung counter.
        self.beacon.run_finished();
        let park = state.park.lock().expect("no worker may panic");
        if let Some(error) = &park.error {
            return Err(error.clone());
        }
        let deadline_selections = park.deadline_selections.clone();
        drop(park);
        let firings: Vec<u64> = state
            .nodes
            .iter()
            .map(|n| n.fired_total.load(Ordering::Relaxed))
            .collect();
        let tokens_pushed: Vec<u64> = state
            .tokens_pushed
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .collect();
        let channel_high_water: Vec<u64> = state
            .rings
            .iter()
            .map(|c| match c {
                ChannelRing::Data(ring) => ring.high_water() as u64,
                ChannelRing::Control(ring) => ring.high_water() as u64,
            })
            .collect();
        // Final capacities: rings may have grown at rebind barriers.
        let channel_capacity: Vec<u64> = state
            .rings
            .iter()
            .map(|c| match c {
                ChannelRing::Data(ring) => ring.capacity() as u64,
                ChannelRing::Control(ring) => ring.capacity() as u64,
            })
            .collect();
        let mode_sequences: Vec<Vec<Mode>> = state
            .mode_log
            .iter()
            .map(|log| log.lock().expect("no worker may panic").clone())
            .collect();
        let total_tokens: u64 = tokens_pushed.iter().sum();
        Ok(Metrics {
            iterations: state.iteration.load(Ordering::Relaxed),
            threads: self.config.threads,
            effective_workers,
            placement: self.config.placement,
            firings,
            tokens_pushed,
            channel_high_water,
            channel_capacity,
            total_tokens,
            elapsed,
            tokens_per_sec: if elapsed.is_zero() {
                0.0
            } else {
                total_tokens as f64 / elapsed.as_secs_f64()
            },
            deadline_misses: state.deadline_misses.load(Ordering::Relaxed),
            vote_failures: state.vote_failures.load(Ordering::Relaxed),
            deadline_selections,
            mode_sequences,
            worker_firings: state
                .worker_firings
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            worker_steals: state
                .worker_steals
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            rebinds: state.rebinds.lock().expect("no worker may panic").clone(),
            // Scoped runs have no persistent workers to pin; the pool
            // overwrites this with its own pinning record.
            pinned_cores: Vec::new(),
            arena_hits: state.arena_hits.load(Ordering::Relaxed),
            arena_misses: state.arena_misses.load(Ordering::Relaxed),
            arena_recycled: state.arena_recycled.load(Ordering::Relaxed),
            arena_retired: state.arena_retired.load(Ordering::Relaxed),
        })
    }

    pub(crate) fn initial_state(&self, workers: usize) -> RunState {
        self.beacon.run_started();
        let plan = &self.plans[0];
        let rings = self
            .chans
            .iter()
            .enumerate()
            .map(|(i, info)| {
                if info.is_control {
                    ChannelRing::Control(RingBuffer::new(
                        info.label.clone(),
                        plan.capacities[i] as usize,
                    ))
                } else {
                    let ring = RingBuffer::new(info.label.clone(), plan.capacities[i] as usize);
                    for _ in 0..info.initial_tokens {
                        ring.push(Token::Unit)
                            .expect("capacity covers initial tokens");
                    }
                    ChannelRing::Data(ring)
                }
            })
            .collect();
        let nodes: Vec<NodeRunState> = (0..self.nodes.len())
            .map(|n| {
                let ns = NodeRunState::default();
                ns.budget.store(plan.counts[n], Ordering::Relaxed);
                ns
            })
            .collect();
        RunState {
            rings,
            nodes,
            tokens_pushed: (0..self.chans.len()).map(|_| AtomicU64::new(0)).collect(),
            selected: (0..self.chans.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
            plan: AtomicUsize::new(0),
            remaining_iter: AtomicU64::new(plan.total_per_iter),
            iteration: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            halt: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            deadline_misses: AtomicU64::new(0),
            vote_failures: AtomicU64::new(0),
            // Hints are deduplicated by the per-node `queued` flag, so
            // all queues together never hold more than one entry per
            // node — reserving that bound up front keeps `VecDeque`
            // growth off the steady-state firing path.
            queues: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::with_capacity(self.nodes.len() + 1)))
                .collect(),
            worker_firings: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            worker_steals: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            // Mode logs grow by one entry per control-actor firing;
            // reserving the whole run's worth (bounded, for very long
            // runs) keeps their doubling reallocations out of the
            // steady state too.
            mode_log: (0..self.nodes.len())
                .map(|n| {
                    let per_iter = if self.nodes[n].control_outputs.is_empty() {
                        0
                    } else {
                        self.plans.iter().map(|p| p.counts[n]).max().unwrap_or(0)
                    };
                    let reserve = (per_iter * self.config.iterations).min(1 << 16) as usize;
                    Mutex::new(Vec::with_capacity(reserve))
                })
                .collect(),
            rebinds: Mutex::new(Vec::new()),
            arena_hits: AtomicU64::new(0),
            arena_misses: AtomicU64::new(0),
            arena_recycled: AtomicU64::new(0),
            arena_retired: AtomicU64::new(0),
            trace_job: self.config.trace_tag,
            park: Mutex::new(ParkInner::default()),
            cond: Condvar::new(),
        }
    }

    /// A structural fingerprint of the graph this engine executes: node
    /// names plus channel topology (label, endpoints, control flag,
    /// initial tokens), hashed with the checkpoint codec's FNV-1a.
    /// Deliberately *excludes* iteration count, thread count, placement
    /// and ring capacities — a checkpoint may be restored under any of
    /// those varying (Kahn determinacy keeps the streams identical);
    /// what it must never be restored into is a different graph.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        for node in &self.nodes {
            bytes.extend_from_slice(node.name.as_bytes());
            bytes.push(0xFF);
        }
        for chan in &self.chans {
            bytes.extend_from_slice(chan.label.as_bytes());
            bytes.push(0xFE);
            bytes.extend_from_slice(&(chan.source as u64).to_le_bytes());
            bytes.extend_from_slice(&(chan.target as u64).to_le_bytes());
            bytes.push(chan.is_control as u8);
            bytes.extend_from_slice(&chan.initial_tokens.to_le_bytes());
        }
        crate::checkpoint::checksum(&bytes)
    }

    /// Captures a barrier-consistent [`Checkpoint`] from a *finished*
    /// run's state: every worker has halted, so the rings are quiescent
    /// (the [`RingBuffer::snapshot_contents`] contract) and hold
    /// exactly the inter-iteration tokens the final barrier left.
    /// `metrics` is the run's collected [`Metrics`], embedded so a
    /// restore can rebuild the firing/token/mode/rebind prefixes.
    pub(crate) fn capture_checkpoint(&self, state: &RunState, metrics: &Metrics) -> Checkpoint {
        let iteration = state.iteration.load(Ordering::Relaxed);
        if let Some(t) = self.trace() {
            t.event(
                0,
                EventKind::CheckpointBegin,
                state.trace_job,
                0,
                0,
                iteration,
            );
        }
        let channels: Vec<ChannelCheckpoint> = state
            .rings
            .iter()
            .map(|ring| match ring {
                ChannelRing::Data(ring) => ChannelCheckpoint {
                    capacity: ring.capacity() as u64,
                    contents: ChannelContents::Data(ring.snapshot_contents()),
                },
                ChannelRing::Control(ring) => ChannelCheckpoint {
                    capacity: ring.capacity() as u64,
                    contents: ChannelContents::Control(ring.snapshot_contents()),
                },
            })
            .collect();
        let checkpoint = Checkpoint {
            iteration,
            fingerprint: self.fingerprint(),
            control_firings: state
                .nodes
                .iter()
                .map(|n| n.control_firings.load(Ordering::Relaxed))
                .collect(),
            channels,
            captured: Vec::new(),
            metrics: metrics.clone(),
        };
        if let Some(t) = self.trace() {
            t.event(
                0,
                EventKind::CheckpointEnd,
                state.trace_job,
                checkpoint.channels.len() as u64,
                0,
                iteration,
            );
        }
        checkpoint
    }

    /// Rebuilds a [`RunState`] from a checkpoint, resuming at iteration
    /// `checkpoint.iteration`. Replays the plan switch the
    /// checkpointing run's final barrier skipped (its done-check fires
    /// before the switch): the phase, ring growth, budgets and — when
    /// the phase changed — the [`RebindEvent`] all match what an
    /// uninterrupted run performs at that same barrier.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::GraphMismatch`] / `ShapeMismatch` when the
    /// checkpoint belongs to a different graph or compilation;
    /// [`CheckpointError::NothingToResume`] when the configured
    /// iteration count is not beyond the checkpoint.
    pub(crate) fn restore_state(
        &self,
        checkpoint: &Checkpoint,
        workers: usize,
    ) -> Result<RunState, CheckpointError> {
        let expected = self.fingerprint();
        if checkpoint.fingerprint != expected {
            return Err(CheckpointError::GraphMismatch {
                expected,
                found: checkpoint.fingerprint,
            });
        }
        if checkpoint.channels.len() != self.chans.len() {
            return Err(CheckpointError::ShapeMismatch {
                what: "channels",
                expected: self.chans.len() as u64,
                found: checkpoint.channels.len() as u64,
            });
        }
        if checkpoint.control_firings.len() != self.nodes.len() {
            return Err(CheckpointError::ShapeMismatch {
                what: "nodes",
                expected: self.nodes.len() as u64,
                found: checkpoint.control_firings.len() as u64,
            });
        }
        for (metric, len) in [
            ("metrics.firings", checkpoint.metrics.firings.len()),
            (
                "metrics.mode_sequences",
                checkpoint.metrics.mode_sequences.len(),
            ),
        ] {
            if len != self.nodes.len() {
                return Err(CheckpointError::Malformed {
                    field: "metrics",
                    detail: format!("{metric} has {len} entries for {} nodes", self.nodes.len()),
                });
            }
        }
        if checkpoint.metrics.tokens_pushed.len() != self.chans.len() {
            return Err(CheckpointError::Malformed {
                field: "metrics",
                detail: format!(
                    "metrics.tokens_pushed has {} entries for {} channels",
                    checkpoint.metrics.tokens_pushed.len(),
                    self.chans.len()
                ),
            });
        }
        if checkpoint.iteration >= self.config.iterations {
            return Err(CheckpointError::NothingToResume {
                iteration: checkpoint.iteration,
                configured: self.config.iterations,
            });
        }

        // The phase the *next* iteration runs under. The checkpointing
        // run never switched to it (its final barrier's done-check
        // pre-empts the switch), so the restore performs the switch:
        // rings are sized to at least this phase's plan.
        let phase = self.phase_of(checkpoint.iteration);
        let plan = &self.plans[phase];
        let mut rings = Vec::with_capacity(self.chans.len());
        for (i, info) in self.chans.iter().enumerate() {
            let snap = &checkpoint.channels[i];
            let capacity = (plan.capacities[i] as usize)
                .max(snap.capacity as usize)
                .max(snap.contents.len())
                .max(1);
            let ring = match (&snap.contents, info.is_control) {
                (ChannelContents::Data(tokens), false) => {
                    let ring = RingBuffer::new(info.label.clone(), capacity);
                    for token in tokens {
                        ring.push(token.clone())
                            .expect("capacity covers checkpointed contents");
                    }
                    ChannelRing::Data(ring)
                }
                (ChannelContents::Control(modes), true) => {
                    let ring = RingBuffer::new(info.label.clone(), capacity);
                    for mode in modes {
                        ring.push(mode.clone())
                            .expect("capacity covers checkpointed contents");
                    }
                    ChannelRing::Control(ring)
                }
                _ => {
                    return Err(CheckpointError::Malformed {
                        field: "channels",
                        detail: format!(
                            "channel {i} ({}) kind disagrees with the graph",
                            info.label
                        ),
                    })
                }
            };
            rings.push(ring);
        }

        let nodes: Vec<NodeRunState> = (0..self.nodes.len())
            .map(|n| {
                let ns = NodeRunState::default();
                ns.budget.store(plan.counts[n], Ordering::Relaxed);
                ns.fired_total
                    .store(checkpoint.metrics.firings[n], Ordering::Relaxed);
                ns.control_firings
                    .store(checkpoint.control_firings[n], Ordering::Relaxed);
                ns
            })
            .collect();

        // Replay the rebind event the skipped plan switch would have
        // recorded, so the restored run's rebind log is byte-identical
        // to an uninterrupted run's.
        let mut rebinds = checkpoint.metrics.rebinds.clone();
        if checkpoint.iteration > 0 && phase != self.phase_of(checkpoint.iteration - 1) {
            let capacities = rings
                .iter()
                .map(|c| match c {
                    ChannelRing::Data(ring) => ring.capacity() as u64,
                    ChannelRing::Control(ring) => ring.capacity() as u64,
                })
                .collect();
            rebinds.push(RebindEvent {
                iteration: checkpoint.iteration,
                binding: plan.binding.clone(),
                counts: plan.counts.clone(),
                capacities,
            });
        }

        let park = ParkInner {
            error: None,
            done: false,
            deadline_selections: checkpoint.metrics.deadline_selections.clone(),
        };
        self.beacon.run_started();
        Ok(RunState {
            rings,
            nodes,
            tokens_pushed: checkpoint
                .metrics
                .tokens_pushed
                .iter()
                .map(|&t| AtomicU64::new(t))
                .collect(),
            selected: (0..self.chans.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
            plan: AtomicUsize::new(phase),
            remaining_iter: AtomicU64::new(plan.total_per_iter),
            iteration: AtomicU64::new(checkpoint.iteration),
            in_flight: AtomicUsize::new(0),
            halt: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            deadline_misses: AtomicU64::new(checkpoint.metrics.deadline_misses),
            vote_failures: AtomicU64::new(checkpoint.metrics.vote_failures),
            queues: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::with_capacity(self.nodes.len() + 1)))
                .collect(),
            // Per-worker tallies restart at zero: the restoring pool
            // may have a different worker count, so the partial run's
            // per-worker split is not meaningful here (the per-node
            // `fired_total` carries the cross-restart truth).
            worker_firings: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            worker_steals: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            mode_log: checkpoint
                .metrics
                .mode_sequences
                .iter()
                .map(|modes| Mutex::new(modes.clone()))
                .collect(),
            rebinds: Mutex::new(rebinds),
            arena_hits: AtomicU64::new(checkpoint.metrics.arena_hits),
            arena_misses: AtomicU64::new(checkpoint.metrics.arena_misses),
            arena_recycled: AtomicU64::new(checkpoint.metrics.arena_recycled),
            arena_retired: AtomicU64::new(checkpoint.metrics.arena_retired),
            trace_job: self.config.trace_tag,
            park: Mutex::new(park),
            cond: Condvar::new(),
        })
    }

    /// The active tracer, or `None` when tracing costs nothing: the
    /// instrumentation sites branch on this, so with no tracer
    /// installed the cost is a pointer null-check, and with a disabled
    /// tracer one `Relaxed` load plus a branch.
    #[inline]
    pub(crate) fn trace(&self) -> Option<&Tracer> {
        match &self.config.tracer {
            Some(tracer) if tracer.is_enabled() => Some(tracer),
            _ => None,
        }
    }

    /// The shared worker loop. Returns `true` when the worker *stood
    /// down* from a granularity-collapsed run (rather than the run
    /// halting): the pool gives such a worker's participation slot
    /// back so it can serve other jobs — and be re-claimed if the cost
    /// estimate later recovers.
    pub(crate) fn worker_loop(
        &self,
        state: &RunState,
        me: usize,
        registry: &KernelRegistry,
        start: Instant,
    ) -> bool {
        let real_time = matches!(self.config.clock_mode, ClockMode::RealTime { .. });
        let affinity = self.config.placement.is_affinity();
        let mut scratch = FireScratch::default();
        // Consecutive empty hunts; under affinity placement, crossing
        // the boundary (foreign-queue steals, foreign-node scan fires)
        // requires `starved >= AFFINITY_STEAL_THRESHOLD`.
        let mut starved: u32 = 0;
        let stood_down = loop {
            if state.halt.load(Ordering::SeqCst) {
                break false;
            }
            // 1. Real-time clock ticks that are due fire immediately.
            if let ClockMode::RealTime { time_unit } = &self.config.clock_mode {
                if self.fire_due_clock(state, me, start, *time_unit, &mut scratch) {
                    continue;
                }
            }
            // 2. Granularity backoff: when firings are measured to be
            //    too cheap to distribute, secondary workers stand down
            //    and worker 0 runs the graph alone — on fine-grained
            //    graphs the claim path is cheaper than the coordination
            //    it would take to share it. Standing down means
            //    *returning*: on a multi-job pool the thread goes back
            //    to the hunt and serves other queued jobs instead of
            //    napping until this one ends (worker 0 alone finishes
            //    the run — any participant subset makes progress), and
            //    the freed slot can be re-claimed should the estimate
            //    recover. Never in real-time mode: there kernels can
            //    block on wall-clock work that cheap control firings
            //    would average into invisibility, and `run` promises
            //    real-time runs the full pool.
            if me != 0 && !real_time && self.fine_grained() {
                break true;
            }
            // The epoch is captured before looking for work so that a
            // completion racing with the hunt below is detectable when
            // parking.
            let epoch = state.epoch.load(Ordering::SeqCst);
            let steal_ok = !affinity || starved >= AFFINITY_STEAL_THRESHOLD;
            // 3. Ready-queue hint: own queue first; foreign queues only
            //    when stealing is allowed.
            if let Some((node, stolen)) = self.next_hint(state, me, steal_ok) {
                let attempt = self.try_fire(
                    state,
                    me,
                    node,
                    stolen,
                    registry,
                    start,
                    real_time,
                    &mut scratch,
                );
                if attempt == Attempt::Fired {
                    starved = 0;
                }
                continue;
            }
            // 4. Fallback scan: own (home) nodes always; every node
            //    once stealing is allowed.
            let workers = state.queues.len();
            let mut contended = false;
            let fired = self.scan_order.iter().any(|&node| {
                if !steal_ok && !self.is_home(state, node, me, workers) {
                    return false;
                }
                match self.try_fire(
                    state,
                    me,
                    node,
                    false,
                    registry,
                    start,
                    real_time,
                    &mut scratch,
                ) {
                    Attempt::Fired => true,
                    Attempt::Idle => false,
                    Attempt::Contended => {
                        contended = true;
                        false
                    }
                }
            });
            if fired {
                starved = 0;
                continue;
            }
            starved = starved.saturating_add(1);
            if !steal_ok {
                // Not yet starved enough to cross the affinity
                // boundary: yield and hunt again instead of parking —
                // the park path's stall verdict requires a full scan,
                // which this hunt deliberately was not.
                std::thread::yield_now();
                continue;
            }
            // 5. Nothing claimable anywhere: park (or report a stall,
            //    unless some node went unexamined).
            self.park(state, me, epoch, !contended, start);
        };
        state.flush_arena(scratch.arena.stats());
        stood_down
    }

    /// Whether `node`'s home worker is `me` under the active plan's
    /// affinity mapping (always true under work stealing, where every
    /// worker is at home everywhere).
    fn is_home(&self, state: &RunState, node: usize, me: usize, workers: usize) -> bool {
        let home = &self.plans[state.plan.load(Ordering::Relaxed)].home;
        if home.is_empty() {
            return true;
        }
        home[node] % workers.max(1) == me
    }

    /// Whether the sampled firing cost says this graph's firings are
    /// too cheap to be worth distributing across workers. The estimate
    /// is an EWMA, so a few dozen samples of a newly heavy (or newly
    /// cheap) registry flip the verdict even after a long history.
    /// `pub(crate)`: the pool's job hunt skips collapsed jobs that
    /// already have a participant.
    pub(crate) fn fine_grained(&self) -> bool {
        self.telemetry.fine_grained()
    }

    /// Records one firing-cost sample into the shared telemetry.
    fn record_cost_sample(&self, sample_ns: u64) {
        self.telemetry.record(sample_ns);
    }

    /// The de-synchronised single-worker loop (Virtual clocks only):
    /// the same claim → execute → publish pipeline as
    /// [`Executor::worker_loop`], with none of the cross-worker
    /// machinery — no claim CAS, no in-flight bracketing, no
    /// epoch/wake traffic, no ready queues. Token streams are
    /// identical by the determinacy argument; only the schedule
    /// differs.
    pub(crate) fn run_single(&self, state: &RunState, registry: &KernelRegistry, start: Instant) {
        let mut scratch = FireScratch {
            sample_mask: 63,
            ..FireScratch::default()
        };
        'run: loop {
            if state.halt.load(Ordering::Relaxed) {
                break 'run;
            }
            let mut progressed = false;
            for &node in &self.scan_order {
                // Keep firing the same node while it stays claimable:
                // its rings and rate tables are hot.
                while let Some(claim) = self.try_claim_node(state, node, false, &mut scratch) {
                    progressed = true;
                    if let Err(error) =
                        self.execute_timed(state, claim, registry, start, 0, &mut scratch)
                    {
                        self.fail(state, error);
                        break 'run;
                    }
                    // Plain load + store instead of `fetch_*`: this
                    // thread is the only writer of every one of these
                    // counters in the single-worker regime, and the
                    // metrics readers only look after the run joins.
                    // Dropping the four lock-prefixed RMWs saves a
                    // measurable slice of the per-firing overhead.
                    let ns = &state.nodes[node];
                    let budget = ns.budget.load(Ordering::Relaxed);
                    ns.budget.store(budget - 1, Ordering::Relaxed);
                    let fired = ns.fired_total.load(Ordering::Relaxed);
                    ns.fired_total.store(fired + 1, Ordering::Relaxed);
                    let mine = state.worker_firings[0].load(Ordering::Relaxed);
                    state.worker_firings[0].store(mine + 1, Ordering::Relaxed);
                    let left = state.remaining_iter.load(Ordering::Relaxed);
                    state.remaining_iter.store(left - 1, Ordering::Relaxed);
                    if left == 1 {
                        self.iteration_barrier(state, 0, &mut scratch.arena);
                        if state.halt.load(Ordering::Relaxed) {
                            break 'run;
                        }
                    }
                }
            }
            if !progressed {
                // A full scan fired nothing and nothing can be in
                // flight: the graph is stalled.
                let error = self.stall_error(state);
                self.fail(state, error);
                break 'run;
            }
        }
        state.flush_arena(scratch.arena.stats());
    }

    /// Parks a scoped secondary that stood down from a fine-grained
    /// run until the stall timeout (or a halt) — after which the
    /// caller re-enters [`Engine::worker_loop`], rejoining the run if
    /// the cost estimate recovered. Never reports a stall: the worker
    /// did not scan for work, so it has no evidence; worker 0 never
    /// stands down and remains the stall detector. (Stand-down is
    /// Virtual-clock-only, so no real-time tick can be pending.)
    fn standdown_nap(&self, state: &RunState) {
        state.parked.fetch_add(1, Ordering::SeqCst);
        let guard = state.park.lock().expect("park lock");
        if !state.halt.load(Ordering::SeqCst) {
            drop(
                state
                    .cond
                    .wait_timeout(guard, self.config.stall_timeout)
                    .expect("park lock")
                    .0,
            );
        }
        state.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Pops a ready hint: own queue front first, then — when `steal_ok`
    /// — steal from the other workers' queues. The second tuple field
    /// reports whether the hint was stolen.
    ///
    /// Steals take *half* the victim's queue, not one entry: per-hint
    /// ping-pong between two workers would serialise them on the queue
    /// locks, while batch stealing lets both drain local work and only
    /// meet again every ~k firings.
    fn next_hint(&self, state: &RunState, me: usize, steal_ok: bool) -> Option<(usize, bool)> {
        if let Some(node) = state.queues[me].lock().expect("queue lock").pop_front() {
            state.nodes[node].queued.store(false, Ordering::Release);
            return Some((node, false));
        }
        if !steal_ok {
            return None;
        }
        let workers = state.queues.len();
        for offset in 1..workers {
            let victim = (me + offset) % workers;
            let mut stolen = {
                let mut victim_queue = state.queues[victim].lock().expect("queue lock");
                let keep = victim_queue.len() / 2;
                victim_queue.split_off(keep)
            };
            if let Some(node) = stolen.pop_front() {
                state.nodes[node].queued.store(false, Ordering::Release);
                if !stolen.is_empty() {
                    // The rest stays marked `queued`: it moved into this
                    // worker's queue, it did not leave the queue system.
                    state.queues[me]
                        .lock()
                        .expect("queue lock")
                        .append(&mut stolen);
                }
                return Some((node, true));
            }
        }
        None
    }

    /// Attempts to claim and run one firing of `node`, reporting
    /// whether it fired, was examined and found idle, or was held by
    /// another worker. `stolen` marks a hint popped from a foreign
    /// queue, for the per-worker steal metric.
    #[allow(clippy::too_many_arguments)]
    fn try_fire(
        &self,
        state: &RunState,
        me: usize,
        node: usize,
        stolen: bool,
        registry: &KernelRegistry,
        start: Instant,
        real_time: bool,
        scratch: &mut FireScratch,
    ) -> Attempt {
        let info = &self.nodes[node];
        if real_time && info.is_clock {
            return Attempt::Idle;
        }
        let ns = &state.nodes[node];
        if ns.budget.load(Ordering::Acquire) == 0 {
            return Attempt::Idle;
        }
        // `in_flight` brackets the whole attempt (not just held claims)
        // so the stall detector in `park` cannot observe a moment where
        // a worker is about to fire yet nothing appears active.
        state.in_flight.fetch_add(1, Ordering::SeqCst);
        let attempt = if ns
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            Attempt::Contended
        } else {
            match self.try_claim_node(state, node, real_time, scratch) {
                None => {
                    ns.claimed.store(false, Ordering::Release);
                    Attempt::Idle
                }
                Some(claim) => {
                    // A boundary crossing: a hint stolen from a foreign
                    // queue, or (under affinity) a foreign-home node
                    // fired by a starved worker.
                    if stolen || !self.is_home(state, node, me, state.queues.len()) {
                        state.worker_steals[me].fetch_add(1, Ordering::Relaxed);
                        if let Some(tracer) = self.trace() {
                            tracer.event(me, EventKind::Steal, state.trace_job, node as u64, 0, 0);
                        }
                    }
                    match self.execute_timed(state, claim, registry, start, me, scratch) {
                        Ok(()) => self.finish_firing(state, me, node, scratch),
                        Err(error) => self.fail(state, error),
                    }
                    Attempt::Fired
                }
            }
        };
        state.in_flight.fetch_sub(1, Ordering::SeqCst);
        attempt
    }

    /// Executes a claimed firing and publishes its outputs. One in
    /// eight firings is timed to feed the granularity heuristic —
    /// timing every firing would itself be a measurable per-firing
    /// cost. Shared by the multi-worker and single-worker paths so the
    /// telemetry feeding [`Executor::fine_grained`] cannot diverge
    /// between them.
    ///
    /// Tracing rides the same cadence: sampled firings pay two clock
    /// reads (a fresh timestamp plus the duration) and feed the shared
    /// `firing_ns` histogram that every worker contends on; the seven
    /// firings in between still emit their event — the flight-recorder
    /// counts stay exact — but as a zero-width slice stamped with the
    /// worker's cached timestamp. The merged log is timestamp-sorted,
    /// so coarse stamps remain monotone per lane.
    fn execute_timed(
        &self,
        state: &RunState,
        claim: Claim,
        registry: &KernelRegistry,
        start: Instant,
        me: usize,
        scratch: &mut FireScratch,
    ) -> Result<(), RuntimeError> {
        scratch.fired += 1;
        let node = claim.node;
        let plan_idx = claim.plan;
        let sampled = scratch.fired & scratch.sample_mask == 1;
        let tracer = self.trace();
        if sampled {
            if let Some(tracer) = tracer {
                scratch.ts_ns = tracer.now_ns();
            }
        }
        let timer = (sampled && tracer.is_none()).then(Instant::now);
        let mut tokens: u64 = 0;
        let outcome = self
            .execute(claim, registry, scratch)
            .and_then(|(claim, mut ctx)| {
                if tracer.is_some() {
                    // Data tokens this firing is about to publish (the
                    // slabs are drained into the rings by the publish).
                    tokens = ctx.outputs.iter().map(|o| o.tokens.len() as u64).sum();
                }
                let published =
                    self.publish_outputs(state, &claim, &mut ctx, start, me, &mut scratch.scalars);
                if published.is_ok() {
                    // Return the firing's slabs (consumed input tokens
                    // are dropped here; output slabs were drained into
                    // the rings), park the port entries with their
                    // channel labels still attached, and keep the
                    // emptied containers — the next firing rebuilds
                    // the whole context without touching the allocator
                    // or an `Arc` refcount.
                    scratch.node_ports(node);
                    let FireScratch { arena, ports, .. } = &mut *scratch;
                    let parked = &mut ports[node];
                    for mut input in ctx.inputs.drain(..) {
                        arena.recycle(std::mem::take(&mut input.tokens));
                        parked.inputs.push(input);
                    }
                    for mut output in ctx.outputs.drain(..) {
                        arena.recycle(std::mem::take(&mut output.tokens));
                        parked.outputs.push(output);
                    }
                    parked.name = Some(ctx.node);
                    scratch.spare_inputs = ctx.inputs;
                    scratch.spare_outputs = ctx.outputs;
                }
                published
            });
        if let Some(tracer) = tracer {
            let (ts_ns, dur) = if sampled {
                let started = scratch.ts_ns;
                let ended = tracer.now_ns();
                let dur = ended.saturating_sub(started);
                self.record_cost_sample(dur);
                tracer.histograms().firing_ns.record(dur);
                // Later unsampled firings stamp "after this one".
                scratch.ts_ns = ended;
                (started, dur)
            } else {
                (scratch.ts_ns, 0)
            };
            tracer.event_at(
                ts_ns,
                me,
                EventKind::Firing,
                state.trace_job,
                node as u64,
                plan_idx as u64,
                TraceEvent::pack_firing(dur, tokens),
            );
            if sampled {
                // Arena traffic rides the same 1-in-8 cadence: one
                // event per counter that moved since the last sampled
                // firing, stamped with the cached timestamp.
                let stats = scratch.arena.stats();
                if stats.recycled > scratch.traced.recycled {
                    tracer.event_at(
                        scratch.ts_ns,
                        me,
                        EventKind::SlabRecycle,
                        state.trace_job,
                        node as u64,
                        0,
                        stats.recycled - scratch.traced.recycled,
                    );
                }
                if stats.misses > scratch.traced.misses {
                    tracer.event_at(
                        scratch.ts_ns,
                        me,
                        EventKind::SlabMiss,
                        state.trace_job,
                        node as u64,
                        0,
                        stats.misses - scratch.traced.misses,
                    );
                }
                scratch.traced = stats;
            }
        } else if let Some(timer) = timer {
            self.record_cost_sample(timer.elapsed().as_nanos() as u64);
        }
        outcome
    }

    /// Attempts to claim one firing of `node`, consuming its inputs.
    /// Requires the node's `claimed` flag to be held by the caller.
    ///
    /// No rollback is ever needed: while the claim is held this worker
    /// is the unique consumer of the input rings (tokens only
    /// accumulate) and the unique producer of the output rings (free
    /// space only grows), so the checks below cannot be invalidated
    /// between check and commit.
    fn try_claim_node(
        &self,
        state: &RunState,
        node: usize,
        real_time: bool,
        scratch: &mut FireScratch,
    ) -> Option<Claim> {
        let info = &self.nodes[node];
        let ns = &state.nodes[node];
        // The budget gate. Acquire pairs with the barrier's Release
        // republication: a nonzero budget proves the barrier's ring
        // flushes, ring growth and plan switch are visible (a stale
        // zero just retires the attempt). The claim we already hold
        // pairs with the previous holder's release, so the budget can
        // never be a stale value of an *earlier* iteration.
        let remaining = ns.budget.load(Ordering::Acquire);
        if remaining == 0 {
            return None;
        }
        let plan = &self.plans[state.plan.load(Ordering::Relaxed)];
        let ordinal_iter = plan.counts[node] - remaining;

        // 1. Resolve the mode of this firing from the control port.
        let control_need = info
            .control_port
            .map(|cp| plan.cons_rate(cp, ordinal_iter))
            .unwrap_or(0);
        let mode = if control_need > 0 {
            let ring = state.control_ring(info.control_port.expect("need implies port"));
            // All `control_need` tokens must be present (they are
            // popped below); the firing's mode comes from the first.
            if (ring.len() as u64) < control_need {
                return None;
            }
            ring.peek_clone().expect("length checked")
        } else {
            Mode::WaitAll
        };

        // 2. Check the availability of the mode-selected data inputs.
        let port_count = info.data_inputs.len();
        let mut deadline_missed = false;
        let mut hp_choice = None;
        match &mode {
            Mode::HighestPriority => {
                let mut best: Option<(u32, usize)> = None;
                for (port, &chan) in info.data_inputs.iter().enumerate() {
                    let rate = plan.cons_rate(chan, ordinal_iter);
                    if (state.data_ring(chan).len() as u64) < rate {
                        continue;
                    }
                    let priority = self.chans[chan].priority;
                    if best.is_none_or(|(b, _)| priority > b) {
                        best = Some((priority, port));
                    }
                }
                match best {
                    Some((_, port)) => hp_choice = Some(port),
                    None if port_count == 0 => {}
                    None if real_time && info.is_transaction && info.control_from_clock => {
                        // Deadline semantics: the clock token forces the
                        // firing even though no result is ready yet.
                        deadline_missed = true;
                    }
                    None => return None,
                }
            }
            m => {
                for (port, &chan) in info.data_inputs.iter().enumerate() {
                    if !m.selects(port, port_count) {
                        continue;
                    }
                    let rate = plan.cons_rate(chan, ordinal_iter);
                    if (state.data_ring(chan).len() as u64) < rate {
                        return None;
                    }
                }
            }
        }

        // 3. Output space must be free on every output ring.
        for &chan in &info.data_outputs {
            let rate = plan.prod_rate(chan, ordinal_iter);
            if (state.data_ring(chan).free() as u64) < rate {
                return None;
            }
        }
        for &chan in &info.control_outputs {
            let rate = plan.prod_rate(chan, ordinal_iter);
            if (state.control_ring(chan).free() as u64) < rate {
                return None;
            }
        }

        // 4. Commit: pop the control tokens and the selected inputs.
        if control_need > 0 {
            let ring = state.control_ring(info.control_port.expect("need implies port"));
            for _ in 0..control_need {
                ring.pop();
            }
        }
        let controlled = info.control_port.is_some();
        // The port-entry container, the entries themselves (with their
        // channel-label `Arc`s) and the token slabs all come out of the
        // worker's recycling state: nothing here touches the global
        // allocator — or an `Arc` refcount — once the caches are warm.
        let mut inputs = std::mem::take(&mut scratch.spare_inputs);
        debug_assert!(inputs.is_empty());
        scratch.node_ports(node);
        let FireScratch { arena, ports, .. } = scratch;
        let parked = &mut ports[node];
        let mut take = |port: usize, chan: usize| {
            let rate = plan.cons_rate(chan, ordinal_iter) as usize;
            if controlled {
                state.selected[chan].store(true, Ordering::Relaxed);
            }
            let mut slab = arena.take(rate);
            state.data_ring(chan).pop_into(rate, &mut slab);
            let entry = match parked.inputs.iter().position(|p| p.port == port) {
                Some(at) => {
                    let mut entry = parked.inputs.swap_remove(at);
                    entry.tokens = slab;
                    entry
                }
                None => PortInput {
                    port,
                    priority: self.chans[chan].priority,
                    channel: self.chans[chan].label.clone(),
                    tokens: slab,
                },
            };
            inputs.push(entry);
        };
        match &mode {
            Mode::HighestPriority => {
                if let Some(port) = hp_choice {
                    take(port, info.data_inputs[port]);
                }
            }
            m => {
                for (port, &chan) in info.data_inputs.iter().enumerate() {
                    if m.selects(port, port_count) {
                        take(port, chan);
                    }
                }
            }
        }

        Some(Claim {
            node,
            ordinal_iter,
            ordinal_total: ns.fired_total.load(Ordering::Relaxed),
            plan: state.plan.load(Ordering::Relaxed),
            mode,
            inputs,
            deadline_missed,
            record_deadline: info.is_transaction && info.control_from_clock && control_need > 0,
        })
    }

    /// Runs the kernel computation for a claim. Lock-free: only the
    /// claim holder touches the firing's data.
    fn execute(
        &self,
        mut claim: Claim,
        registry: &KernelRegistry,
        scratch: &mut FireScratch,
    ) -> Result<(Claim, FiringContext), RuntimeError> {
        let info = &self.nodes[claim.node];
        let plan = &self.plans[claim.plan];
        let mut outputs = std::mem::take(&mut scratch.spare_outputs);
        debug_assert!(outputs.is_empty());
        scratch.node_ports(claim.node);
        let FireScratch { arena, ports, .. } = scratch;
        let parked = &mut ports[claim.node];
        outputs.extend(info.data_outputs.iter().enumerate().map(|(port, &chan)| {
            let rate = plan.prod_rate(chan, claim.ordinal_iter);
            let tokens = arena.take(rate as usize);
            match parked.outputs.iter().position(|p| p.port == port) {
                Some(at) => {
                    let mut entry = parked.outputs.swap_remove(at);
                    entry.rate = rate;
                    entry.tokens = tokens;
                    entry
                }
                None => PortOutput {
                    port,
                    channel: self.chans[chan].label.clone(),
                    rate,
                    tokens,
                },
            }
        }));
        let mut ctx = FiringContext {
            node: parked.name.take().unwrap_or_else(|| info.name.clone()),
            ordinal: claim.ordinal_total,
            mode: claim.mode.clone(),
            inputs: std::mem::take(&mut claim.inputs),
            outputs,
            deadline_missed: claim.deadline_missed,
            vote_failed: false,
            emitted_mode: None,
            emits_control: !info.control_outputs.is_empty(),
        };
        match registry.get(&info.name) {
            Some(behavior) => behavior.fire(&mut ctx)?,
            None if info.is_select_duplicate => fire_select_duplicate(&mut ctx),
            None if info.is_transaction => fire_transaction(&mut ctx, info.votes_required),
            None => fire_default(&mut ctx),
        }
        Ok((claim, ctx))
    }

    /// Publishes the outputs of a finished firing onto its rings and
    /// records its metrics. Still requires the node claim.
    fn publish_outputs(
        &self,
        state: &RunState,
        claim: &Claim,
        ctx: &mut FiringContext,
        start: Instant,
        me: usize,
        scalars: &mut Vec<i64>,
    ) -> Result<(), RuntimeError> {
        let node = claim.node;
        let info = &self.nodes[node];
        let plan = &self.plans[claim.plan];
        let ns = &state.nodes[node];

        for (idx, &chan) in info.data_outputs.iter().enumerate() {
            let rate = plan.prod_rate(chan, claim.ordinal_iter);
            let produced = &mut ctx.outputs[idx].tokens;
            if produced.len() as u64 != rate {
                return Err(RuntimeError::RateMismatch {
                    node: info.name.to_string(),
                    channel: self.chans[chan].label.to_string(),
                    expected: rate,
                    got: produced.len() as u64,
                });
            }
            // The whole slab moves into the ring as one batch.
            state.data_ring(chan).push_from(produced)?;
            // Load + store, not `fetch_add`: a channel's counter is only
            // ever advanced by its unique producing node, and firings of
            // one node are serialised by the claim's release/acquire
            // chain, so the RMW's atomicity buys nothing here.
            let pushed = state.tokens_pushed[chan].load(Ordering::Relaxed);
            state.tokens_pushed[chan].store(pushed + rate, Ordering::Relaxed);
        }

        if !info.control_outputs.is_empty() {
            // Data-dependent control: the mode comes from the firing's
            // consumed values (through the selector), or from the
            // behaviour itself when it called `set_mode`.
            let mode = match ctx.emitted_mode.take() {
                Some(mode) => mode,
                None => {
                    scalars.clear();
                    ctx.input_scalars_into(scalars);
                    self.selector
                        .select(ns.control_firings.load(Ordering::Relaxed), scalars)
                }
            };
            for &chan in &info.control_outputs {
                let rate = plan.prod_rate(chan, claim.ordinal_iter);
                state.control_ring(chan).push_clones(&mode, rate as usize)?;
                let pushed = state.tokens_pushed[chan].load(Ordering::Relaxed);
                state.tokens_pushed[chan].store(pushed + rate, Ordering::Relaxed);
            }
            if let Some(tracer) = self.trace() {
                tracer.event(
                    me,
                    EventKind::ModeEmit,
                    state.trace_job,
                    node as u64,
                    mode_code(&mode) as u64,
                    ns.control_firings.load(Ordering::Relaxed),
                );
            }
            state.mode_log[node]
                .lock()
                .expect("mode log lock")
                .push(mode);
        }
        if info.is_control_actor {
            ns.control_firings.fetch_add(1, Ordering::Relaxed);
        }

        if claim.record_deadline {
            let selected = ctx.inputs.first();
            let selection = DeadlineSelection {
                transaction: NodeId(node),
                selected_channel: selected.map(|p| ChannelId(info.data_inputs[p.port])),
                selected_priority: selected.map(|p| p.priority),
                at: start.elapsed(),
            };
            state
                .park
                .lock()
                .expect("park lock")
                .deadline_selections
                .push(selection);
        }
        if ctx.deadline_missed {
            state.deadline_misses.fetch_add(1, Ordering::Relaxed);
            if let Some(tracer) = self.trace() {
                tracer.event(
                    me,
                    EventKind::DeadlineMiss,
                    state.trace_job,
                    node as u64,
                    0,
                    0,
                );
            }
        }
        if ctx.vote_failed {
            state.vote_failures.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Commits a published firing: advances the node's counters,
    /// releases the claim, enqueues the affected neighbours, handles
    /// the iteration barrier, and signals progress.
    fn finish_firing(&self, state: &RunState, me: usize, node: usize, scratch: &mut FireScratch) {
        let ns = &state.nodes[node];
        // The budget decrement precedes the claim release: the next
        // claimant's successful CAS pairs with the Release below, so it
        // observes this decrement (never a stale larger budget).
        ns.budget.fetch_sub(1, Ordering::Release);
        ns.fired_total.fetch_add(1, Ordering::Relaxed);
        state.worker_firings[me].fetch_add(1, Ordering::Relaxed);
        ns.claimed.store(false, Ordering::Release);
        let surplus = self.enqueue_candidates(state, me, node);
        if state.remaining_iter.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.iteration_barrier(state, me, &mut scratch.arena);
        }
        self.signal_progress(state, surplus);
    }

    /// Enqueues the nodes whose readiness may have changed
    /// (deduplicated through the per-node `queued` flag). Under work
    /// stealing every hint lands on this worker's own queue; under
    /// affinity placement each hint is routed to its *home worker's*
    /// queue, so placement follows the analysis-side mapping instead of
    /// whichever worker happened to complete the neighbour.
    ///
    /// Returns `true` when the hints exceed what this worker will
    /// immediately consume itself — more than one hint on its own
    /// queue, or any hint routed to a foreign home — the signal that
    /// waking a parked peer is worthwhile.
    fn enqueue_candidates(&self, state: &RunState, me: usize, node: usize) -> bool {
        let real_time = matches!(self.config.clock_mode, ClockMode::RealTime { .. });
        let workers = state.queues.len();
        let home = &self.plans[state.plan.load(Ordering::Relaxed)].home;
        let mut own_hints = 0usize;
        let mut foreign_hints = false;
        // The common case routes every hint to one queue; holding the
        // guard across the loop would serialise against that queue's
        // owner, so each push takes the lock for exactly one entry.
        for &cand in &self.nodes[node].neighbors {
            if real_time && self.nodes[cand].is_clock {
                continue;
            }
            if state.nodes[cand].budget.load(Ordering::Relaxed) == 0 {
                continue;
            }
            if state.nodes[cand]
                .queued
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let target = if home.is_empty() {
                me
            } else {
                home[cand] % workers.max(1)
            };
            let mut queue = state.queues[target].lock().expect("queue lock");
            queue.push_back(cand);
            if target == me {
                own_hints = queue.len();
            } else {
                foreign_hints = true;
            }
        }
        foreign_hints || own_hints > 1
    }

    /// When every node has completed its repetition count: flush
    /// rejected channels, apply a pending parameter rebinding, advance
    /// (or finish) the iteration. Runs on the worker that completed the
    /// iteration's last firing — every budget is exhausted (zero), so
    /// no claim can race with the flush, the plan switch or the ring
    /// growth; the `Release` budget republication is what publishes all
    /// of them to the next claimants.
    fn iteration_barrier(&self, state: &RunState, me: usize, arena: &mut SlabArena<Token>) {
        let tracer = self.trace();
        // The iteration index being finished (0-based), for the trace
        // events bracketing the barrier.
        let finishing = state.iteration.load(Ordering::Relaxed);
        if let Some(t) = tracer {
            t.event(
                me,
                EventKind::BarrierEnter,
                state.trace_job,
                0,
                0,
                finishing,
            );
        }
        // Flush data channels whose consuming (controlled) port was
        // rejected for the whole iteration back to their initial state.
        for (i, info) in self.chans.iter().enumerate() {
            if info.is_control {
                continue;
            }
            let consumed = state.selected[i].swap(false, Ordering::Relaxed);
            if !info.target_controlled || consumed {
                continue;
            }
            let ring = state.data_ring(i);
            ring.clear();
            for _ in 0..info.initial_tokens {
                ring.push(Token::Unit)
                    .expect("capacity covers initial tokens");
            }
        }
        self.beacon.barrier();
        let finished = state.iteration.fetch_add(1, Ordering::Relaxed) + 1;
        if finished >= self.config.iterations {
            state.park.lock().expect("park lock").done = true;
            state.halt.store(true, Ordering::SeqCst);
            state.cond.notify_all();
        } else {
            // Rebind: switch the plan and grow any ring the new phase
            // needs larger. Rate consistency returns every channel to
            // its initial occupancy at the boundary, so growth moves at
            // most `initial_tokens` live elements per ring.
            let next = self.phase_of(finished);
            if next != state.plan.load(Ordering::Relaxed) {
                let plan = &self.plans[next];
                for (i, &cap) in plan.capacities.iter().enumerate() {
                    let old = match &state.rings[i] {
                        // A grown data ring's retired slot array goes
                        // into this worker's arena as an ordinary slab
                        // instead of back to the allocator.
                        ChannelRing::Data(ring) => {
                            let (old, retired) = ring.grow_reclaim(cap as usize);
                            if let Some(storage) = retired {
                                arena.recycle(storage);
                            }
                            old
                        }
                        ChannelRing::Control(ring) => ring.grow(cap as usize),
                    };
                    if old < cap as usize {
                        if let Some(t) = tracer {
                            t.event(
                                me,
                                EventKind::RingGrow,
                                state.trace_job,
                                i as u64,
                                old as u64,
                                cap,
                            );
                        }
                    }
                }
                state.plan.store(next, Ordering::Relaxed);
                if let Some(t) = tracer {
                    t.event(
                        me,
                        EventKind::PlanSwitch,
                        state.trace_job,
                        next as u64,
                        0,
                        finished,
                    );
                }
                let capacities = state
                    .rings
                    .iter()
                    .map(|c| match c {
                        ChannelRing::Data(ring) => ring.capacity() as u64,
                        ChannelRing::Control(ring) => ring.capacity() as u64,
                    })
                    .collect();
                state
                    .rebinds
                    .lock()
                    .expect("rebind lock")
                    .push(RebindEvent {
                        iteration: finished,
                        binding: plan.binding.clone(),
                        counts: plan.counts.clone(),
                        capacities,
                    });
            }
            let plan = &self.plans[self.phase_of(finished)];
            state
                .remaining_iter
                .store(plan.total_per_iter, Ordering::Relaxed);
            for (n, ns) in state.nodes.iter().enumerate() {
                ns.budget.store(plan.counts[n], Ordering::Release);
            }
        }
        if let Some(t) = tracer {
            t.event(
                me,
                EventKind::BarrierExit,
                state.trace_job,
                0,
                (finished >= self.config.iterations) as u64,
                finishing,
            );
        }
    }

    /// Publishes progress: bumps the epoch unconditionally (the stall
    /// protocol depends on it) and wakes one parked worker when there
    /// is surplus work. Completion chains with no surplus continue on
    /// the completing worker alone — waking peers for work this worker
    /// is about to take itself only burns context switches (ruinous on
    /// few-core hosts); parked workers additionally rescan on their
    /// stall timeout, so a skipped wake-up can delay stealing but never
    /// block progress.
    fn signal_progress(&self, state: &RunState, surplus: bool) {
        state.epoch.fetch_add(1, Ordering::SeqCst);
        if surplus && !self.fine_grained() && state.parked.load(Ordering::SeqCst) > 0 {
            // Passing through the mutex pairs with a parker that checked
            // the epoch but has not yet blocked on the condvar.
            drop(state.park.lock().expect("park lock"));
            if self.config.placement.is_affinity() {
                // A hint may have been routed to a specific parked home
                // worker; notify_one could wake a different one, which
                // would yield through its starvation window before
                // crossing the boundary. Waking everyone lets the home
                // worker claim its hint immediately.
                state.cond.notify_all();
            } else {
                state.cond.notify_one();
            }
        }
    }

    /// Records a fatal error and halts the pool.
    pub(crate) fn fail(&self, state: &RunState, error: RuntimeError) {
        let mut park = state.park.lock().expect("park lock");
        if park.error.is_none() {
            park.error = Some(error);
        }
        state.halt.store(true, Ordering::SeqCst);
        drop(park);
        state.cond.notify_all();
    }

    /// Cancels the run: like [`Engine::fail`] with
    /// [`RuntimeError::Cancelled`], except that a run which already
    /// *completed* keeps its outcome — `done` is set (under the same
    /// park lock) by the final iteration barrier, so a cancellation
    /// racing normal completion can never turn a finished run's
    /// `Ok(Metrics)` into `Err(Cancelled)`, however late the metrics
    /// collection itself happens.
    pub(crate) fn cancel_run(&self, state: &RunState) {
        let mut park = state.park.lock().expect("park lock");
        if park.done {
            return;
        }
        if park.error.is_none() {
            park.error = Some(RuntimeError::Cancelled);
        }
        state.halt.store(true, Ordering::SeqCst);
        drop(park);
        state.cond.notify_all();
    }

    /// Parks an idle worker — or reports a stall.
    ///
    /// Stall soundness: `epoch` was captured before the failed hunt for
    /// work. If `in_flight == 0`, no worker is attempting or holding a
    /// claim (attempts bracket `in_flight`); if the epoch, read *after*
    /// that, is still unchanged, no firing has completed since the hunt
    /// began, so the hunt's "nothing claimable" verdict still describes
    /// the current state; and if no real-time clock tick is pending
    /// either, the graph can never make progress again. The order of
    /// the two reads matters: a completing worker bumps the epoch
    /// before it leaves `in_flight`, so reading the epoch first could
    /// see the value before the bump and `in_flight` after the leave,
    /// and miss that completion in both. The completion that runs an
    /// iteration barrier is the usual case: the hunt saw every budget
    /// at zero just before the barrier republished them.
    ///
    /// `examined_all` is false when the hunt lost a claim race: the
    /// holder may have judged that node before a completion this
    /// worker's hunt already observed (the epoch was captured after
    /// it), then released it unfired and left `in_flight` again. The
    /// node is then claimable yet no firing can be pending, so such a
    /// hunt only parks. The holder goes on hunting itself, so a real
    /// stall is still reported, by the holder or by this worker's next
    /// hunt after the stall timeout.
    fn park(&self, state: &RunState, me: usize, epoch: u64, examined_all: bool, start: Instant) {
        state.parked.fetch_add(1, Ordering::SeqCst);
        let guard = state.park.lock().expect("park lock");
        let idle = state.in_flight.load(Ordering::SeqCst) == 0;
        let stale = state.epoch.load(Ordering::SeqCst) != epoch;
        if !stale && !state.halt.load(Ordering::SeqCst) {
            let next_tick = match &self.config.clock_mode {
                ClockMode::RealTime { time_unit } => self.next_tick_in(state, start, *time_unit),
                ClockMode::Virtual => None,
            };
            if examined_all && idle && next_tick.is_none() {
                let mut guard = guard;
                if guard.error.is_none() {
                    guard.error = Some(self.stall_error(state));
                }
                state.halt.store(true, Ordering::SeqCst);
                drop(guard);
                state.cond.notify_all();
            } else {
                let timeout = next_tick.unwrap_or(self.config.stall_timeout);
                let tracer = self.trace();
                if let Some(t) = tracer {
                    t.event(me, EventKind::Park, state.trace_job, 0, 0, 0);
                }
                drop(
                    state
                        .cond
                        .wait_timeout(guard, timeout)
                        .expect("park lock")
                        .0,
                );
                if let Some(t) = tracer {
                    t.event(me, EventKind::Wake, state.trace_job, 0, 0, 0);
                }
            }
        }
        state.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Names of nodes with remaining firings, for stall diagnostics.
    fn blocked_names(&self, state: &RunState) -> Vec<String> {
        self.scan_order
            .iter()
            .filter(|&&n| state.nodes[n].budget.load(Ordering::Relaxed) > 0)
            .map(|&n| self.nodes[n].name.to_string())
            .collect()
    }

    /// Builds the [`RuntimeError::Stalled`] for a proven stall,
    /// recording a [`EventKind::Stall`] marker and attaching the
    /// per-node budget breakdown plus the flight-recorder tail.
    fn stall_error(&self, state: &RunState) -> RuntimeError {
        let iteration = state.iteration.load(Ordering::Relaxed);
        if let Some(tracer) = self.trace() {
            tracer.control_event(EventKind::Stall, state.trace_job, 0, 0, iteration);
        }
        RuntimeError::Stalled {
            blocked: self.blocked_names(state),
            iteration,
            diagnostics: self.stall_diagnostics(state),
        }
    }

    /// Renders the stall post-mortem: one line per node with firings
    /// remaining, then the last [`STALL_DUMP_EVENTS`] flight-recorder
    /// events. The tail is read from the tracer even when recording is
    /// currently disabled — its rings still hold the recent past.
    fn stall_diagnostics(&self, state: &RunState) -> String {
        use std::fmt::Write;
        let plan = &self.plans[state.plan.load(Ordering::Relaxed)];
        let mut out = String::new();
        for &n in &self.scan_order {
            let remaining = state.nodes[n].budget.load(Ordering::Relaxed);
            if remaining > 0 {
                let _ = writeln!(
                    out,
                    "  node {n} ({}): {remaining} of {} firings remaining",
                    self.nodes[n].name, plan.counts[n]
                );
            }
        }
        if let Some(tracer) = &self.config.tracer {
            let tail = tracer.recent(STALL_DUMP_EVENTS);
            if !tail.is_empty() {
                let _ = writeln!(out, "  flight recorder tail ({} events):", tail.len());
                for event in &tail {
                    let _ = writeln!(out, "    {}", event.summary());
                }
            }
        }
        out
    }

    /// The wall-clock instant of real-time clock tick `k` (0-based) of
    /// `node`. Computed in 128-bit nanoseconds: a `Duration * u32`
    /// shortcut would wrap after ~4 G virtual units (minutes to hours
    /// into a fine-grained streaming run).
    fn tick_instant(&self, start: Instant, node: usize, k: u64, unit: Duration) -> Instant {
        let ticks = (k + 1).saturating_mul(self.nodes[node].clock_period);
        let nanos = unit.as_nanos().saturating_mul(ticks as u128);
        let secs = (nanos / 1_000_000_000) as u64;
        let subsec = (nanos % 1_000_000_000) as u32;
        start + Duration::new(secs, subsec)
    }

    /// Time until the earliest pending clock tick, if any clock still
    /// has firings left this iteration.
    fn next_tick_in(&self, state: &RunState, start: Instant, unit: Duration) -> Option<Duration> {
        let now = Instant::now();
        self.clock_nodes
            .iter()
            .filter(|&&n| state.nodes[n].budget.load(Ordering::Relaxed) > 0)
            .map(|&n| {
                let tick = self.tick_instant(
                    start,
                    n,
                    state.nodes[n].fired_total.load(Ordering::Relaxed),
                    unit,
                );
                tick.saturating_duration_since(now)
            })
            .min()
    }

    /// Fires one due real-time clock, if any. Returns `true` when a
    /// clock fired (successfully or not).
    fn fire_due_clock(
        &self,
        state: &RunState,
        me: usize,
        start: Instant,
        unit: Duration,
        scratch: &mut FireScratch,
    ) -> bool {
        let now = Instant::now();
        for &node in &self.clock_nodes {
            let ns = &state.nodes[node];
            if ns.budget.load(Ordering::Acquire) == 0
                || now
                    < self.tick_instant(start, node, ns.fired_total.load(Ordering::Relaxed), unit)
            {
                continue;
            }
            state.in_flight.fetch_add(1, Ordering::SeqCst);
            if ns
                .claimed
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                state.in_flight.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            // Re-check under the claim: another worker may have fired
            // this very tick between the check above and the CAS.
            let remaining = ns.budget.load(Ordering::Acquire);
            let tick = self.tick_instant(start, node, ns.fired_total.load(Ordering::Relaxed), unit);
            let due = remaining > 0 && Instant::now() >= tick;
            let fired = if due {
                if let Some(tracer) = self.trace() {
                    // Tick lateness: how long past its wall-clock
                    // deadline this tick actually fired.
                    tracer
                        .histograms()
                        .deadline_slack_ns
                        .record(Instant::now().saturating_duration_since(tick).as_nanos() as u64);
                }
                let plan_idx = state.plan.load(Ordering::Relaxed);
                let ordinal = self.plans[plan_idx].counts[node] - remaining;
                match self.fire_clock_claimed(state, node, ordinal, plan_idx, me) {
                    Ok(()) => self.finish_firing(state, me, node, scratch),
                    Err(error) => self.fail(state, error),
                }
                true
            } else {
                ns.claimed.store(false, Ordering::Release);
                false
            };
            state.in_flight.fetch_sub(1, Ordering::SeqCst);
            if fired {
                return true;
            }
        }
        false
    }

    /// Emits a real-time clock tick: control tokens carrying the
    /// selector's mode (and unit markers on any data outputs),
    /// consuming nothing — exactly like the virtual-time engine's tick
    /// handling. Requires the node claim.
    fn fire_clock_claimed(
        &self,
        state: &RunState,
        node: usize,
        ordinal: u64,
        plan_idx: usize,
        me: usize,
    ) -> Result<(), RuntimeError> {
        let info = &self.nodes[node];
        let ns = &state.nodes[node];
        let plan = &self.plans[plan_idx];
        // A real-time tick consumes nothing, so a data-dependent
        // selector sees an empty input slice.
        let mode = self
            .selector
            .select(ns.control_firings.load(Ordering::Relaxed), &[]);
        for &chan in &info.control_outputs {
            let rate = plan.prod_rate(chan, ordinal);
            state.control_ring(chan).push_clones(&mode, rate as usize)?;
            state.tokens_pushed[chan].fetch_add(rate, Ordering::Relaxed);
        }
        for &chan in &info.data_outputs {
            let rate = plan.prod_rate(chan, ordinal);
            state
                .data_ring(chan)
                .push_clones(&Token::Unit, rate as usize)?;
            state.tokens_pushed[chan].fetch_add(rate, Ordering::Relaxed);
        }
        if !info.control_outputs.is_empty() {
            if let Some(tracer) = self.trace() {
                tracer.event(
                    me,
                    EventKind::ModeEmit,
                    state.trace_job,
                    node as u64,
                    mode_code(&mode) as u64,
                    ns.control_firings.load(Ordering::Relaxed),
                );
            }
            state.mode_log[node]
                .lock()
                .expect("mode log lock")
                .push(mode);
        }
        ns.control_firings.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;
    use tpdf_core::examples::{figure2_graph, figure4_deadlocked_graph, figure4a_graph};
    use tpdf_core::graph::TpdfGraph;
    use tpdf_core::rate::RateSeq;
    use tpdf_sim::engine::SimulationReport;

    fn binding(p: i64) -> Binding {
        Binding::from_pairs([("p", p)])
    }

    fn sim_reference(graph: &TpdfGraph, config: &RuntimeConfig) -> SimulationReport {
        Simulator::new(graph, config.reference_sim_config())
            .unwrap()
            .run_iterations(config.iterations)
            .unwrap()
    }

    #[test]
    fn figure2_matches_reference_across_thread_counts() {
        let g = figure2_graph();
        for threads in [1usize, 2, 4, 8] {
            let config = RuntimeConfig::new(binding(3))
                .with_threads(threads)
                .with_iterations(4);
            let reference = sim_reference(&g, &config);
            let metrics = Executor::new(&g, config)
                .unwrap()
                .run(&KernelRegistry::new())
                .unwrap();
            assert_eq!(metrics.firings, reference.firings, "threads = {threads}");
            assert_eq!(metrics.iterations, 4);
            assert_eq!(metrics.threads, threads);
            assert!(metrics.total_tokens > 0);
            assert!(metrics.tokens_per_sec > 0.0);
        }
    }

    #[test]
    fn progress_beacon_counts_runs_and_barriers() {
        let g = figure2_graph();
        let exec = Executor::new(&g, RuntimeConfig::new(binding(2)).with_iterations(3)).unwrap();
        let compiled = exec.compile();
        let before = compiled.progress();
        assert_eq!(before.runs_started, 0);
        assert_eq!(before.runs_finished, 0);
        assert_eq!(before.barriers, 0);
        assert_eq!(before.since_progress, None);
        exec.run(&KernelRegistry::new()).unwrap();
        exec.run(&KernelRegistry::new()).unwrap();
        let after = compiled.progress();
        assert_eq!(after.runs_started, 2);
        assert_eq!(after.runs_finished, 2);
        assert_eq!(after.barriers, 6, "3 iterations x 2 runs");
        assert!(after.since_progress.is_some());
    }

    #[test]
    fn alternate_policy_and_cycles_match_reference() {
        let g = figure2_graph();
        let config = RuntimeConfig::new(binding(2))
            .with_threads(4)
            .with_iterations(3)
            .with_policy(ControlPolicy::Alternate(vec![
                Mode::SelectOne(0),
                Mode::SelectOne(1),
            ]));
        let reference = sim_reference(&g, &config);
        let metrics = Executor::new(&g, config)
            .unwrap()
            .run(&KernelRegistry::new())
            .unwrap();
        assert_eq!(metrics.firings, reference.firings);

        let g = figure4a_graph();
        let config = RuntimeConfig::new(binding(3))
            .with_threads(4)
            .with_iterations(2);
        let reference = sim_reference(&g, &config);
        let metrics = Executor::new(&g, config)
            .unwrap()
            .run(&KernelRegistry::new())
            .unwrap();
        assert_eq!(metrics.firings, reference.firings);
    }

    #[test]
    fn binding_sequence_rebinds_at_iteration_barriers() {
        let g = figure2_graph();
        for threads in [1usize, 4] {
            let config = RuntimeConfig::new(binding(1))
                .with_threads(threads)
                .with_iterations(4)
                .with_binding_sequence(vec![binding(1), binding(3), binding(2)]);
            let reference = sim_reference(&g, &config);
            let exec = Executor::new(&g, config).unwrap();
            // q = [2, 2p, p, p, 2p, 2p] per phase; the last phase
            // persists once the sequence is exhausted.
            assert_eq!(exec.repetition_counts_for_iteration(0), &[2, 2, 1, 1, 2, 2]);
            assert_eq!(exec.repetition_counts_for_iteration(1), &[2, 6, 3, 3, 6, 6]);
            assert_eq!(exec.repetition_counts_for_iteration(3), &[2, 4, 2, 2, 4, 4]);
            let metrics = exec.run(&KernelRegistry::new()).unwrap();
            assert_eq!(metrics.firings, reference.firings, "threads = {threads}");
            assert_eq!(metrics.iterations, 4);
            // Two rebinds: into the p = 3 phase and into the p = 2 one.
            assert_eq!(metrics.rebinds.len(), 2);
            assert_eq!(metrics.rebinds[0].iteration, 1);
            assert_eq!(metrics.rebinds[0].binding.get("p"), Some(3));
            assert_eq!(metrics.rebinds[0].counts, vec![2, 6, 3, 3, 6, 6]);
            assert_eq!(metrics.rebinds[1].iteration, 2);
            assert_eq!(metrics.rebinds[1].binding.get("p"), Some(2));
            // The rings grew to cover the widest phase and never shrank.
            for (chan, cap) in metrics.channel_capacity.iter().enumerate() {
                for iteration in 0..4 {
                    assert!(
                        *cap >= exec.capacities_for_iteration(iteration)[chan],
                        "channel {chan} capacity {cap} below iteration {iteration} requirement"
                    );
                }
            }
            for (hw, cap) in metrics
                .channel_high_water
                .iter()
                .zip(&metrics.channel_capacity)
            {
                assert!(hw <= cap);
            }
        }
    }

    #[test]
    fn data_dependent_selector_matches_reference_modes() {
        use tpdf_core::control::{FnSelector, TableTrace};

        // B emits `ordinal % 3` on every output; C consumes pairs of
        // those values from e2 and selects F's data input from their
        // sum — a genuinely data-dependent control actor. The sim gets
        // the identical values through the trace.
        let g = figure2_graph();
        let mut registry = KernelRegistry::new();
        registry.register_fn("B", |ctx| {
            let v = (ctx.ordinal % 3) as i64;
            ctx.fill_outputs_cycling(&[Token::Int(v)]);
            Ok(())
        });
        let selector: Arc<dyn ModeSelector> =
            Arc::new(FnSelector::new("sum-parity", |_, inputs: &[i64]| {
                Mode::SelectOne((inputs.iter().sum::<i64>() % 2) as usize)
            }));
        let trace = TableTrace::new([("e2".to_string(), vec![0, 1, 2])]).shared();
        let config = RuntimeConfig::new(binding(2))
            .with_threads(4)
            .with_iterations(3)
            .with_mode_selector(selector)
            .with_value_trace(trace);
        let reference = sim_reference(&g, &config);
        let metrics = Executor::new(&g, config).unwrap().run(&registry).unwrap();
        assert_eq!(metrics.firings, reference.firings);
        assert_eq!(metrics.mode_sequences, reference.mode_sequences);
        // The emitted modes really vary with the data.
        let c = g.node_by_name("C").unwrap();
        let modes = &metrics.mode_sequences[c.0];
        assert!(modes.contains(&Mode::SelectOne(0)));
        assert!(modes.contains(&Mode::SelectOne(1)));
    }

    #[test]
    fn control_actor_with_data_outputs_keeps_its_inputs_for_the_mode() {
        use tpdf_core::control::{TableTrace, ValueMapSelector};

        // `ctl` forwards its consumed value to `log` under the built-in
        // forwarding (equal rates, so a regular kernel would hand the
        // slab over) and must still select `tran`'s input from it.
        let g = TpdfGraph::builder()
            .kernel("src")
            .control("ctl")
            .kernel("log")
            .kernel_with("tran", KernelKind::Transaction { votes_required: 0 }, 1)
            .kernel("snk")
            .channel("src", "ctl", RateSeq::constant(1), RateSeq::constant(1), 0)
            .channel("ctl", "log", RateSeq::constant(1), RateSeq::constant(1), 0)
            .control_channel("ctl", "tran", RateSeq::constant(1), RateSeq::constant(1))
            .channel_with_priority(
                "src",
                "tran",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
                1,
            )
            .channel_with_priority(
                "src",
                "tran",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
                2,
            )
            .channel("tran", "snk", RateSeq::constant(1), RateSeq::constant(1), 0)
            .build()
            .unwrap();
        let mut registry = KernelRegistry::new();
        registry.register_fn("src", |ctx| {
            ctx.fill_outputs_cycling(&[Token::Int((ctx.ordinal % 2) as i64)]);
            Ok(())
        });
        let log = crate::cases::OutputCapture::new();
        log.install(&mut registry, "log");
        let selector: Arc<dyn ModeSelector> = Arc::new(ValueMapSelector::new(
            [(0, Mode::SelectOne(0)), (1, Mode::SelectOne(1))],
            Mode::WaitAll,
        ));
        let label = g.channels().next().map(|(_, c)| c.label.clone()).unwrap();
        let config = RuntimeConfig::new(Binding::new())
            .with_threads(2)
            .with_iterations(4)
            .with_mode_selector(selector)
            .with_value_trace(TableTrace::new([(label, vec![0, 1])]).shared());
        let reference = sim_reference(&g, &config);
        let metrics = Executor::new(&g, config).unwrap().run(&registry).unwrap();
        let ctl = g.node_by_name("ctl").unwrap();
        let expected: Vec<Mode> = (0..4).map(|i| Mode::SelectOne(i % 2)).collect();
        assert_eq!(metrics.mode_sequences[ctl.0], expected);
        assert_eq!(metrics.mode_sequences, reference.mode_sequences);
        let values: Vec<Token> = (0..4).map(|i| Token::Int(i % 2)).collect();
        assert_eq!(log.take_tokens(), values);
    }

    #[test]
    fn varying_mode_selectors_size_rings_from_the_whole_run() {
        use tpdf_core::control::FnSelector;

        // A producer gated by a feedback loop, whose controlled
        // consumer selects its channel throughout iteration 0 but
        // rejects it throughout iteration 1: the ping-pong occupancy of
        // iteration 0 (2 tokens) is far below iteration 1's full
        // production (8 tokens piling up on the rejected channel).
        // Firing ordinals never reset, so a single reference iteration
        // would size the ring at 2 × slack and deadlock iteration 1 —
        // a varying selector must force whole-run sizing.
        let g = TpdfGraph::builder()
            .kernel("SRC")
            .control("CON")
            .kernel_with("TRAN", KernelKind::Transaction { votes_required: 0 }, 1)
            .kernel("SNK")
            .channel("SRC", "TRAN", RateSeq::constant(2), RateSeq::constant(2), 0)
            .channel("TRAN", "SRC", RateSeq::constant(1), RateSeq::constant(1), 1)
            .control_channel("CON", "TRAN", RateSeq::constant(1), RateSeq::constant(1))
            .channel("TRAN", "SNK", RateSeq::constant(1), RateSeq::constant(4), 0)
            .build()
            .unwrap();
        let selector: Arc<dyn ModeSelector> = Arc::new(FnSelector::new(
            "reject-every-other-iteration",
            |firing, _| {
                // 4 control firings per iteration: iteration 0 selects
                // the data input, iteration 1 rejects it outright.
                if (firing / 4) % 2 == 0 {
                    Mode::SelectOne(0)
                } else {
                    Mode::SelectMany(Vec::new())
                }
            },
        ));
        let config = RuntimeConfig::new(Binding::new())
            .with_threads(2)
            .with_iterations(2)
            .with_mode_selector(selector);
        let reference = sim_reference(&g, &config);
        let exec = Executor::new(&g, config).unwrap();
        let e1 = 0; // SRC → TRAN is the first declared channel
        assert!(
            exec.capacities()[e1] >= 8,
            "sizing must cover iteration 1's rejected-channel pile-up, got {}",
            exec.capacities()[e1]
        );
        let metrics = exec.run(&KernelRegistry::new()).unwrap();
        assert_eq!(metrics.firings, reference.firings);
        assert_eq!(metrics.mode_sequences, reference.mode_sequences);
    }

    #[test]
    fn kernel_set_mode_overrides_the_selector() {
        // C's registered behaviour returns the mode with its outputs;
        // the configured (default WaitAll) selector is never consulted.
        let g = figure2_graph();
        let mut registry = KernelRegistry::new();
        registry.register_fn("C", |ctx| {
            ctx.set_mode(Mode::SelectOne((ctx.ordinal % 2) as usize));
            ctx.fill_outputs_from_inputs();
            Ok(())
        });
        let config = RuntimeConfig::new(binding(1))
            .with_threads(2)
            .with_iterations(2);
        let metrics = Executor::new(&g, config).unwrap().run(&registry).unwrap();
        let c = g.node_by_name("C").unwrap();
        assert_eq!(
            metrics.mode_sequences[c.0],
            vec![Mode::SelectOne(0), Mode::SelectOne(1)]
        );
    }

    #[test]
    fn strict_capacities_still_complete() {
        // Slack 1 sizes every data ring at exactly the reference
        // high-water mark; the claim discipline must still find a
        // schedule.
        let g = figure2_graph();
        let config = RuntimeConfig::new(binding(4))
            .with_threads(4)
            .with_iterations(3)
            .with_capacity_slack(1);
        let reference = sim_reference(&g, &config);
        let metrics = Executor::new(&g, config)
            .unwrap()
            .run(&KernelRegistry::new())
            .unwrap();
        assert_eq!(metrics.firings, reference.firings);
        for (hw, cap) in metrics
            .channel_high_water
            .iter()
            .zip(&metrics.channel_capacity)
        {
            assert!(*cap > 0, "every channel is a bounded ring now");
            assert!(hw <= cap, "high water {hw} exceeds capacity {cap}");
        }
    }

    #[test]
    fn many_iterations_stress_the_barrier() {
        // The iteration barrier runs once per iteration; hammer it from
        // several threads to catch reset races.
        let g = figure2_graph();
        let config = RuntimeConfig::new(binding(2))
            .with_threads(8)
            .with_iterations(200);
        let reference = sim_reference(&g, &config);
        let metrics = Executor::new(&g, config)
            .unwrap()
            .run(&KernelRegistry::new())
            .unwrap();
        assert_eq!(metrics.firings, reference.firings);
        assert_eq!(metrics.iterations, 200);
    }

    #[test]
    fn firing_cost_ewma_reclassifies_between_runs() {
        // The telemetry is an EWMA, not a cumulative average: after a
        // compute-weighted run, a cheap registry on the SAME executor
        // must bring the estimate back down within its own samples. A
        // cumulative mean stays anchored at ~half the heavy cost and
        // would keep misclassifying the fine-grained workload.
        fn spin(duration: Duration) {
            let start = Instant::now();
            while start.elapsed() < duration {
                std::hint::spin_loop();
            }
        }
        let g = figure2_graph();
        let config = RuntimeConfig::new(binding(1))
            .with_threads(2)
            .with_iterations(100);
        let exec = Executor::new(&g, config).unwrap();

        let mut heavy = KernelRegistry::new();
        for node in ["A", "B", "C", "D", "E", "F"] {
            heavy.register_fn(node, |ctx| {
                spin(Duration::from_micros(100));
                ctx.fill_outputs_from_inputs();
                Ok(())
            });
        }
        exec.run(&heavy).unwrap();
        let after_heavy = exec.sampled_firing_cost_ns().expect("samples were taken");
        assert!(
            after_heavy > FINE_GRAIN_NS,
            "100µs kernels must classify as coarse-grained, got {after_heavy}ns"
        );

        exec.run(&KernelRegistry::new()).unwrap();
        let after_cheap = exec.sampled_firing_cost_ns().expect("samples were taken");
        // ~125 cheap samples decay the 100µs estimate by (7/8)^125; a
        // cumulative mean would still sit at ~after_heavy / 2. The 4×
        // bound keeps the assertion robust to scheduling noise while
        // cleanly separating the two behaviours.
        assert!(
            after_cheap < after_heavy / 4,
            "EWMA must track the cheap registry: {after_cheap}ns vs {after_heavy}ns before"
        );
    }

    #[test]
    fn invalid_configurations_rejected() {
        let g = figure2_graph();
        assert!(matches!(
            Executor::new(&g, RuntimeConfig::new(binding(1)).with_iterations(0)),
            Err(RuntimeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Executor::new(&g, RuntimeConfig::new(Binding::new())),
            Err(RuntimeError::Analysis(_))
        ));
        // The public `threads` field can bypass with_threads' clamp.
        let mut config = RuntimeConfig::new(binding(1));
        config.threads = 0;
        assert!(matches!(
            Executor::new(&g, config),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn control_port_waits_for_its_full_consumption_rate() {
        // K consumes two control tokens per firing; C produces one per
        // firing and fires twice per iteration. The runtime must wait
        // for both tokens (not fire on the first), and one K firing
        // consumes both.
        let g = TpdfGraph::builder()
            .kernel("A")
            .control("C")
            .kernel("K")
            .channel("A", "C", RateSeq::constant(1), RateSeq::constant(1), 0)
            .channel("A", "K", RateSeq::constant(1), RateSeq::constant(2), 0)
            .control_channel("C", "K", RateSeq::constant(1), RateSeq::constant(2))
            .build()
            .unwrap();
        let config = RuntimeConfig::new(Binding::new())
            .with_threads(2)
            .with_iterations(3)
            .with_policy(ControlPolicy::SelectInput(0));
        let metrics = Executor::new(&g, config)
            .unwrap()
            .run(&KernelRegistry::new())
            .unwrap();
        let k = g.node_by_name("K").unwrap();
        let c = g.node_by_name("C").unwrap();
        assert_eq!(metrics.firings[k.0], 3);
        assert_eq!(metrics.firings[c.0], 6);
    }

    #[test]
    fn deadlocked_graph_reports_error() {
        let g = figure4_deadlocked_graph();
        // The reference sizing run already detects the deadlock.
        let result = Executor::new(&g, RuntimeConfig::new(binding(2)));
        assert!(matches!(result, Err(RuntimeError::Analysis(_))));
    }

    /// The stall post-mortem (a defensive path — a well-formed graph's
    /// deadlocks are caught by analysis before the runtime ever sees
    /// them) must list per-node remaining budgets and attach the
    /// flight-recorder tail, bounded by [`STALL_DUMP_EVENTS`].
    #[test]
    fn stall_error_carries_budgets_and_bounded_recorder_tail() {
        let tracer = Tracer::flight_recorder(1, 256);
        // More history than the dump bound: the tail must be clipped.
        for i in 0..(2 * STALL_DUMP_EVENTS as u64) {
            tracer.event(0, EventKind::Steal, 0, i, 0, 0);
        }
        let g = figure2_graph();
        let executor = Executor::new(
            &g,
            RuntimeConfig::new(binding(2)).with_tracer(Arc::clone(&tracer)),
        )
        .unwrap();
        let engine = executor.engine();
        let state = engine.initial_state(1);
        let error = engine.stall_error(&state);
        let RuntimeError::Stalled {
            blocked,
            diagnostics,
            ..
        } = &error
        else {
            panic!("expected Stalled, got {error}");
        };
        assert!(!blocked.is_empty());
        assert!(
            diagnostics.contains("firings remaining"),
            "budgets must be listed:\n{diagnostics}"
        );
        assert!(
            diagnostics.contains("flight recorder tail"),
            "the recorder tail must be attached:\n{diagnostics}"
        );
        let tail_lines = diagnostics
            .lines()
            .filter(|line| line.starts_with("    "))
            .count();
        assert!(
            tail_lines > 0 && tail_lines <= STALL_DUMP_EVENTS,
            "tail must be non-empty and bounded by {STALL_DUMP_EVENTS}, got {tail_lines}"
        );
        // The stall itself is recorded as a control-lane event, and the
        // rendered error surfaces the diagnostics.
        assert_eq!(tracer.collect().count(EventKind::Stall), 1);
        assert!(error.to_string().contains("flight recorder tail"));
    }

    /// Without a tracer the stall error still explains itself through
    /// the per-node budgets, just without a recorder tail.
    #[test]
    fn stall_error_without_tracer_lists_budgets_only() {
        let g = figure2_graph();
        let executor = Executor::new(&g, RuntimeConfig::new(binding(2))).unwrap();
        let engine = executor.engine();
        let state = engine.initial_state(1);
        let error = engine.stall_error(&state);
        let RuntimeError::Stalled { diagnostics, .. } = &error else {
            panic!("expected Stalled, got {error}");
        };
        assert!(diagnostics.contains("firings remaining"));
        assert!(!diagnostics.contains("flight recorder tail"));
    }

    #[test]
    fn transaction_vote_selects_majority_value() {
        let g = fork_join_with_vote(3, 2);
        let mut registry = KernelRegistry::new();
        for (worker, value) in [("w0", 5i64), ("w1", 9), ("w2", 5)] {
            registry.register_fn(worker, move |ctx| {
                ctx.fill_outputs_cycling(&[Token::Int(value)]);
                Ok(())
            });
        }
        let capture = crate::cases::OutputCapture::new();
        capture.install(&mut registry, "snk");
        let config = RuntimeConfig::new(Binding::new()).with_threads(4);
        let metrics = Executor::new(&g, config).unwrap().run(&registry).unwrap();
        // w1 disagrees; the two agreeing workers (value 5) win the vote.
        assert_eq!(capture.take_tokens(), vec![Token::Int(5)]);
        assert_eq!(metrics.vote_failures, 0);
    }

    #[test]
    fn transaction_vote_failure_is_counted() {
        let g = fork_join_with_vote(3, 3);
        let mut registry = KernelRegistry::new();
        for (worker, value) in [("w0", 1i64), ("w1", 2), ("w2", 3)] {
            registry.register_fn(worker, move |ctx| {
                ctx.fill_outputs_cycling(&[Token::Int(value)]);
                Ok(())
            });
        }
        let config = RuntimeConfig::new(Binding::new()).with_threads(2);
        let metrics = Executor::new(&g, config).unwrap().run(&registry).unwrap();
        assert_eq!(metrics.vote_failures, 1);
    }

    /// `fork_join` with a voting Transaction: src → dup → w0..wn → tran.
    fn fork_join_with_vote(branches: usize, votes: u32) -> TpdfGraph {
        let mut b = TpdfGraph::builder()
            .kernel("src")
            .kernel_with("dup", KernelKind::SelectDuplicate, 1)
            .control("ctl")
            .kernel_with(
                "tran",
                KernelKind::Transaction {
                    votes_required: votes,
                },
                1,
            )
            .kernel("snk")
            .channel("src", "dup", RateSeq::constant(1), RateSeq::constant(1), 0)
            .channel("src", "ctl", RateSeq::constant(1), RateSeq::constant(1), 0)
            .control_channel("ctl", "tran", RateSeq::constant(1), RateSeq::constant(1))
            .channel("tran", "snk", RateSeq::constant(1), RateSeq::constant(1), 0);
        for i in 0..branches {
            let name = format!("w{i}");
            b = b
                .kernel(&name)
                .channel("dup", &name, RateSeq::constant(1), RateSeq::constant(1), 0)
                .channel_with_priority(
                    &name,
                    "tran",
                    RateSeq::constant(1),
                    RateSeq::constant(1),
                    0,
                    (i + 1) as u32,
                );
        }
        b.build().unwrap()
    }

    /// src fans out to a fast and a slow kernel; a clock-driven
    /// Transaction picks the best result available at the deadline.
    fn deadline_graph() -> TpdfGraph {
        TpdfGraph::builder()
            .kernel("src")
            .kernel("fast")
            .kernel("slow")
            .kernel_with("clock", KernelKind::Clock { period: 50 }, 0)
            .kernel_with("tran", KernelKind::Transaction { votes_required: 0 }, 1)
            .kernel("snk")
            .channel("src", "fast", RateSeq::constant(1), RateSeq::constant(1), 0)
            .channel("src", "slow", RateSeq::constant(1), RateSeq::constant(1), 0)
            .channel_with_priority(
                "fast",
                "tran",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
                1,
            )
            .channel_with_priority(
                "slow",
                "tran",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
                2,
            )
            .control_channel("clock", "tran", RateSeq::constant(1), RateSeq::constant(1))
            .channel("tran", "snk", RateSeq::constant(1), RateSeq::constant(1), 0)
            .build()
            .unwrap()
    }

    fn sleepy_registry(fast_ms: u64, slow_ms: u64) -> KernelRegistry {
        let mut registry = KernelRegistry::new();
        for (name, delay, value) in [("fast", fast_ms, 1i64), ("slow", slow_ms, 2)] {
            registry.register_fn(name, move |ctx| {
                std::thread::sleep(Duration::from_millis(delay));
                ctx.fill_outputs_cycling(&[Token::Int(value)]);
                Ok(())
            });
        }
        registry
    }

    #[test]
    fn real_deadline_takes_best_available_result() {
        // Clock period 50 units × 1 ms/unit = 50 ms deadline. The fast
        // kernel (10 ms) finishes before it, the slow one (250 ms) does
        // not: the Transaction must select the fast (lower-priority)
        // result at the deadline.
        let g = deadline_graph();
        let config = RuntimeConfig::new(Binding::new())
            .with_threads(4)
            .with_policy(ControlPolicy::HighestPriority)
            .with_real_time(Duration::from_millis(1));
        let metrics = Executor::new(&g, config)
            .unwrap()
            .run(&sleepy_registry(10, 250))
            .unwrap();
        assert_eq!(metrics.deadline_misses, 0);
        assert_eq!(metrics.deadline_selections.len(), 1);
        let selection = &metrics.deadline_selections[0];
        assert_eq!(selection.selected_priority, Some(1), "fast input wins");
        let fast = g.node_by_name("fast").unwrap();
        let chan = selection.selected_channel.unwrap();
        assert_eq!(g.channel(chan).source, fast);
        // The deadline fired at ≈ 50 ms, well before the slow kernel.
        assert!(
            selection.at >= Duration::from_millis(45),
            "{:?}",
            selection.at
        );
        assert!(
            selection.at < Duration::from_millis(240),
            "{:?}",
            selection.at
        );
    }

    #[test]
    fn real_deadline_miss_is_detected_and_survived() {
        // Both kernels are slower than the 50 ms deadline: the
        // Transaction fires empty at the deadline (a miss) and the sink
        // still receives a placeholder token.
        let g = deadline_graph();
        let config = RuntimeConfig::new(Binding::new())
            .with_threads(4)
            .with_policy(ControlPolicy::HighestPriority)
            .with_real_time(Duration::from_millis(1));
        let metrics = Executor::new(&g, config)
            .unwrap()
            .run(&sleepy_registry(150, 250))
            .unwrap();
        assert_eq!(metrics.deadline_misses, 1);
        assert_eq!(metrics.deadline_selections.len(), 1);
        assert_eq!(metrics.deadline_selections[0].selected_channel, None);
        let snk = g.node_by_name("snk").unwrap();
        assert_eq!(metrics.firings[snk.0], 1);
    }
}
