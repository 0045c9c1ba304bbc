//! A persistent worker pool servicing many concurrent runs.
//!
//! [`crate::executor::Executor::run`] spawns its secondary workers with
//! [`std::thread::scope`] and joins them before returning — correct,
//! but the spawn/join pair is paid on *every* run, and only one run can
//! use the threads at a time. An [`ExecutorPool`] spawns its workers
//! **once** and multiplexes them over a *slot table of active jobs*:
//!
//! * [`ExecutorPool::run`] — the classic blocking call: the caller is
//!   participant 0 (exactly as in the scoped path) and pool workers
//!   fill the remaining participation slots.
//! * [`ExecutorPool::submit`] — asynchronous: the job is queued and
//!   executed entirely by pool workers; the returned [`JobTicket`] is
//!   polled ([`JobTicket::try_take`]), awaited ([`JobTicket::wait`],
//!   which lends the waiting thread as a participant when a slot is
//!   free) or cancelled ([`JobTicket::cancel`]). This is the substrate
//!   of `tpdf-service`'s multi-session layer: many graph instances
//!   share one pool, each with its own isolated [`RunState`], metrics
//!   and panic containment.
//!
//! The pool also owns the firing-cost telemetry
//! ([`crate::executor::Executor::sampled_firing_cost_ns`]'s EWMA):
//! executors built through [`ExecutorPool::executor`] share it, so the
//! granularity classification learned in one run — "this graph is too
//! fine-grained to distribute" — survives into the next run *and* into
//! the next executor. (A multi-tenant service instead gives each
//! session its own telemetry via [`Executor::new`], so heterogeneous
//! graphs cannot pollute each other's estimates.)
//!
//! ## Job slot table
//!
//! One mutex-guarded queue holds every job still accepting
//! participants. A job asks for `workers` participants (its
//! [`RunState`] is sized accordingly); idle pool workers *hunt* the
//! queue in FIFO order and claim the next free participation index of
//! the first unfilled job. A job runs correctly with **any** non-empty
//! subset of its participants — readiness hunting, stealing and stall
//! detection are all worker-count-agnostic — so a job never waits for
//! its full complement; late workers simply join a run in progress,
//! and a busy pool degrades throughput, never liveness. The last
//! participant to leave a halted job finalises it: collects the
//! per-job [`Metrics`], publishes the result and fires the completion
//! callback ([`ExecutorPool::submit_with`]).
//!
//! Worker indices inside a job are *participation* indices (0 ..
//! `workers`), handed out in join order — decoupled from pool worker
//! ids, so `Metrics::worker_firings` / `worker_steals` are tallied per
//! job, never smeared across the concurrent jobs a pool worker serves
//! over its lifetime.
//!
//! ## Panic isolation
//!
//! A panicking kernel fails only its own job (the panic is converted
//! into [`RuntimeError::KernelFailed`] and the job halts); the worker
//! survives and returns to the hunt, and every other job's state is
//! untouched — which the service stress suite asserts across
//! concurrent sessions.
//!
//! ## Core pinning
//!
//! With the `core-pinning` feature on Linux, every spawned pool worker
//! pins itself to a CPU core — worker `n` takes the `n`-th core of the
//! thread's *allowed* set (wrapping), so cpuset/taskset restrictions
//! are honoured — before entering the hunt, making
//! `tpdf_manycore::Platform`'s one-PE-per-worker model physical. The
//! outcome is recorded per pool worker and attached to every pooled
//! run's [`Metrics::pinned_cores`].

use crate::checkpoint::Checkpoint;
use crate::executor::{ClockMode, CompiledExecutor, CostTelemetry, Engine, Executor, RunState};
use crate::kernel::KernelRegistry;
use crate::metrics::Metrics;
use crate::pinning::pin_to_nth_allowed_core;
use crate::RuntimeError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;
use tpdf_core::graph::TpdfGraph;
use tpdf_trace::EventKind;

/// One submitted run: everything a pool worker needs, owned, plus the
/// participation and completion accounting of the slot table.
struct PoolJob {
    engine: Arc<Engine>,
    /// Cloned from the caller's registry (cheap: behaviours are
    /// `Arc`-shared) so the `'static` workers borrow nothing.
    registry: KernelRegistry,
    state: RunState,
    /// Set by the first participant: a job queued behind a busy pool
    /// must not count its queue latency against real-time deadlines.
    start: OnceLock<Instant>,
    /// Participation slots (1 ..= pool size).
    workers: usize,
    /// Slots handed out so far. Only mutated under the slot lock.
    joined: AtomicUsize,
    /// Participants currently inside the worker loop. Only mutated
    /// under the slot lock.
    active: AtomicUsize,
    /// Exactly-once guard for finalisation. Set under the slot lock.
    finishing: AtomicBool,
    /// Set (after the result is stored) by the finaliser.
    finished: AtomicBool,
    result: Mutex<Option<Result<Metrics, RuntimeError>>>,
    /// Invoked once, after the result is published — the service
    /// layer's dispatch hook. Never called while a pool lock is held.
    on_complete: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl PoolJob {
    /// The job's start instant, initialised by the first participant.
    fn started(&self) -> Instant {
        *self.start.get_or_init(Instant::now)
    }
}

/// The finished state of a blocking pool run, handed back so a
/// checkpoint can be captured after the run quiesced: the single-worker
/// fast path keeps its state local, the slot-table path hands back the
/// finalised job (all participants have left — the finaliser is elected
/// only at `active == 0` — so reading the state races with nobody).
enum FinishedRun {
    Local(Box<RunState>),
    Pooled(Arc<PoolJob>),
}

impl FinishedRun {
    fn state(&self) -> &RunState {
        match self {
            FinishedRun::Local(state) => state,
            FinishedRun::Pooled(job) => &job.state,
        }
    }
}

/// The job slot table workers hunt over.
#[derive(Default)]
struct PoolSlot {
    /// Jobs still accepting participants, in submission order. A job
    /// leaves the queue when its last slot is claimed or when it is
    /// finalised, whichever comes first.
    queue: Vec<Arc<PoolJob>>,
    /// Spawned workers that completed their startup handshake.
    started: usize,
    shutdown: bool,
}

struct PoolShared {
    slot: Mutex<PoolSlot>,
    /// Workers wait here for new jobs (or shutdown).
    work: Condvar,
    /// Completion events: job finalised, worker started.
    done: Condvar,
    /// Core each spawned pool worker pinned itself to, indexed by pool
    /// worker id (`None` = unpinned; the calling thread of a
    /// non-detached pool is never pinned).
    pinned: Mutex<Vec<Option<usize>>>,
}

/// Claims the next participation slot of `job`, if one is free and the
/// job is not already finalising. The single source of the join-side
/// lock protocol: bump `joined`/`active` together and bar further joins
/// (queue removal) the moment the last slot is handed out. Must hold
/// the slot lock.
fn claim_participation(slot: &mut PoolSlot, job: &Arc<PoolJob>) -> Option<usize> {
    if job.finishing.load(Ordering::SeqCst) {
        return None;
    }
    let joined = job.joined.load(Ordering::SeqCst);
    if joined >= job.workers {
        return None;
    }
    job.joined.fetch_add(1, Ordering::SeqCst);
    job.active.fetch_add(1, Ordering::SeqCst);
    if joined + 1 == job.workers {
        slot.queue.retain(|j| !Arc::ptr_eq(j, job));
    }
    Some(joined)
}

/// Whether a hunting worker should pass over `job` for now: a
/// granularity-collapsed virtual-clock job that already has a
/// participant would make the joiner stand straight back down — leave
/// its re-queued slots alone until the cost estimate recovers (the
/// hunt re-evaluates on its bounded wait).
fn skip_collapsed(job: &PoolJob) -> bool {
    job.active.load(Ordering::SeqCst) > 0
        && matches!(job.engine.config().clock_mode, ClockMode::Virtual)
        && job.engine.fine_grained()
}

/// Claims the next free participation slot of the first joinable job.
/// The second field reports whether a collapsed job was *passed over*
/// — the signal that the hunt must re-poll on a timeout, since nothing
/// notifies when a cost estimate recovers. Must hold the slot lock.
fn claim_slot(slot: &mut PoolSlot) -> (Option<(Arc<PoolJob>, usize)>, bool) {
    let mut skipped = false;
    let job = slot.queue.iter().find(|j| {
        if j.joined.load(Ordering::SeqCst) >= j.workers {
            return false;
        }
        if skip_collapsed(j) {
            skipped = true;
            return false;
        }
        true
    });
    let Some(job) = job.cloned() else {
        return (None, skipped);
    };
    let claimed = claim_participation(slot, &job).map(|idx| (job, idx));
    (claimed, skipped)
}

/// Elects the caller as the job's finaliser if the job has no live
/// participant and nobody else won the election. The single source of
/// the finalisation-side lock protocol: the `finishing` swap happens
/// under the same lock as every join, and the queue removal bars late
/// joins. Returns whether the caller must run [`finalize_job`]. Must
/// hold the slot lock.
fn try_elect_finalizer(slot: &mut PoolSlot, job: &Arc<PoolJob>) -> bool {
    if job.active.load(Ordering::SeqCst) != 0 || job.finishing.swap(true, Ordering::SeqCst) {
        return false;
    }
    slot.queue.retain(|j| !Arc::ptr_eq(j, job));
    true
}

/// Runs one participation of `job` as participant `idx`. A panic is
/// contained: it fails this job (and only this job) and the calling
/// worker survives. Returns whether the worker *stood down* from a
/// granularity-collapsed run (the job keeps running on its remaining
/// participants; the caller must release the slot via [`stand_down`]
/// instead of [`leave`]).
fn participate(job: &Arc<PoolJob>, idx: usize) -> bool {
    let start = job.started();
    if let Some(tracer) = job.engine.trace() {
        tracer.event(
            idx,
            EventKind::JobClaim,
            job.state.trace_job,
            idx as u64,
            0,
            0,
        );
    }
    let single_virtual =
        job.workers == 1 && matches!(job.engine.config().clock_mode, ClockMode::Virtual);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if single_virtual {
            // The sole participant of a collapsed job takes the
            // de-synchronised fast loop, exactly as a 1-thread run.
            job.engine.run_single(&job.state, &job.registry, start);
            false
        } else {
            job.engine
                .worker_loop(&job.state, idx, &job.registry, start)
        }
    }));
    match outcome {
        Ok(stood_down) => stood_down,
        Err(_) => {
            job.engine.fail(
                &job.state,
                RuntimeError::KernelFailed {
                    node: format!("pool worker {idx}"),
                    message: "worker thread panicked".to_string(),
                },
            );
            false
        }
    }
}

/// Reports one participant done; the last one out of a halted job
/// finalises it.
fn leave(shared: &PoolShared, job: &Arc<PoolJob>) {
    let finalize = {
        let mut slot = shared.slot.lock().expect("pool lock");
        job.active.fetch_sub(1, Ordering::SeqCst);
        // A participant only returns once the job halted, so a drained
        // `active` means the run is over.
        try_elect_finalizer(&mut slot, job)
    };
    if finalize {
        finalize_job(shared, job);
    }
}

/// Releases a *stood-down* participation: the worker abandoned a
/// granularity-collapsed job that keeps running on its remaining
/// participants. The slot is handed back (`joined` decrements, unlike
/// [`leave`]) and the job re-queued, so the slot can be re-claimed if
/// the cost estimate later recovers — the hunt skips it while the
/// collapse holds ([`skip_collapsed`]).
fn stand_down(shared: &PoolShared, job: &Arc<PoolJob>) {
    let finalize = {
        let mut slot = shared.slot.lock().expect("pool lock");
        job.joined.fetch_sub(1, Ordering::SeqCst);
        job.active.fetch_sub(1, Ordering::SeqCst);
        if job.active.load(Ordering::SeqCst) == 0 {
            // The other participants raced out (the run halted just as
            // we stood down): fall back to the normal election.
            try_elect_finalizer(&mut slot, job)
        } else {
            if !job.finishing.load(Ordering::SeqCst)
                && !slot.queue.iter().any(|j| Arc::ptr_eq(j, job))
            {
                slot.queue.push(Arc::clone(job));
            }
            false
        }
    };
    if finalize {
        finalize_job(shared, job);
    }
}

/// Collects the job's metrics, publishes the result, wakes waiters and
/// fires the completion callback. Requires the `finishing` election.
fn finalize_job(shared: &PoolShared, job: &Arc<PoolJob>) {
    let elapsed = job.start.get().map(|s| s.elapsed()).unwrap_or_default();
    let mut result = job.engine.collect_metrics(&job.state, elapsed, job.workers);
    if let Ok(metrics) = &mut result {
        metrics.pinned_cores = shared.pinned.lock().expect("pinning lock").clone();
    }
    if let Some(tracer) = job.engine.trace() {
        tracer.control_event(
            EventKind::JobFinalize,
            job.state.trace_job,
            0,
            result.is_err() as u64,
            0,
        );
    }
    *job.result.lock().expect("result lock") = Some(result);
    job.finished.store(true, Ordering::Release);
    // Pass through the mutex so a waiter that checked `finished` but
    // has not yet blocked on the condvar is not lost.
    drop(shared.slot.lock().expect("pool lock"));
    shared.done.notify_all();
    let callback = job.on_complete.lock().expect("callback lock").take();
    if let Some(callback) = callback {
        callback();
    }
}

/// Blocks until the job is finalised and takes its result. The result
/// is delivered once: if it was already taken (an earlier
/// [`JobTicket::try_take`]), this reports an error rather than
/// panicking.
fn wait_finished(shared: &PoolShared, job: &Arc<PoolJob>) -> Result<Metrics, RuntimeError> {
    let mut slot = shared.slot.lock().expect("pool lock");
    while !job.finished.load(Ordering::Acquire) {
        slot = shared.done.wait(slot).expect("pool lock");
    }
    drop(slot);
    job.result
        .lock()
        .expect("result lock")
        .take()
        .unwrap_or(Err(RuntimeError::InvalidConfig(
            "the job's result was already taken".to_string(),
        )))
}

/// A persistent executor worker pool multiplexed over a slot table of
/// concurrently active jobs (see the module docs). Workers are spawned
/// at construction, parked between jobs, shut down on drop; repeated
/// runs pay **no spawn cost** and telemetry (EWMA firing costs,
/// granularity classification) carries across runs and across
/// executors built through [`ExecutorPool::executor`].
///
/// # Examples
///
/// ```
/// use tpdf_core::examples::figure2_graph;
/// use tpdf_runtime::{ExecutorPool, KernelRegistry, RuntimeConfig};
/// use tpdf_symexpr::Binding;
///
/// # fn main() -> Result<(), tpdf_runtime::RuntimeError> {
/// let graph = figure2_graph();
/// let pool = ExecutorPool::new(2);
/// let executor = pool.executor(
///     &graph,
///     RuntimeConfig::new(Binding::from_pairs([("p", 2)])).with_threads(2),
/// )?;
/// let registry = KernelRegistry::new();
/// for _ in 0..3 {
///     // No worker spawns after the first line of main.
///     let metrics = pool.run(&executor, &registry)?;
///     assert_eq!(metrics.iterations, 1);
/// }
/// // Asynchronous submission: the same pool, no caller participation.
/// let ticket = pool.submit(&executor.compile(), &registry);
/// let metrics = ticket.wait()?;
/// assert_eq!(metrics.iterations, 1);
/// # Ok(())
/// # }
/// ```
pub struct ExecutorPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    telemetry: Arc<CostTelemetry>,
    threads: usize,
    /// Monotone trace tags handed to jobs whose config left
    /// [`crate::executor::RuntimeConfig::trace_tag`] at 0 (see
    /// [`tag_job`](Self::tag_job)).
    job_tags: AtomicU32,
}

impl std::fmt::Debug for ExecutorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorPool")
            .field("threads", &self.threads)
            .field("spawned_workers", &self.handles.len())
            .finish()
    }
}

impl ExecutorPool {
    /// Spawns a pool of `threads` workers (clamped to ≥ 1) for
    /// *caller-participating* use: `threads - 1` OS threads are created
    /// here, and the thread calling [`ExecutorPool::run`] serves as the
    /// remaining worker. For a pool that executes
    /// [`ExecutorPool::submit`]ted jobs without any caller thread —
    /// what a service hosts — use [`ExecutorPool::detached`].
    pub fn new(threads: usize) -> Self {
        Self::build(threads, false)
    }

    /// Spawns a *detached* pool: all `threads` workers (clamped to ≥ 1)
    /// are OS threads owned by the pool, so [`ExecutorPool::submit`]ted
    /// jobs run to completion with no caller participation — the shape
    /// a multi-session service needs.
    pub fn detached(threads: usize) -> Self {
        Self::build(threads, true)
    }

    fn build(threads: usize, detached: bool) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(PoolSlot::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            pinned: Mutex::new(vec![None; threads]),
        });
        let first = if detached { 0 } else { 1 };
        let handles: Vec<JoinHandle<()>> = (first..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tpdf-pool-{me}"))
                    .spawn(move || pool_worker(shared, me))
                    .expect("spawn pool worker")
            })
            .collect();
        // Startup handshake: wait until every spawned worker recorded
        // its pinning outcome, so `pinned_cores` is deterministic from
        // the first run on.
        {
            let mut slot = shared.slot.lock().expect("pool lock");
            while slot.started < handles.len() {
                slot = shared.done.wait(slot).expect("pool lock");
            }
        }
        ExecutorPool {
            shared,
            handles,
            telemetry: Arc::new(CostTelemetry::default()),
            threads,
            job_tags: AtomicU32::new(0),
        }
    }

    /// Stamps an untagged job's run state with a fresh pool-assigned
    /// trace tag and records the submission. Pool-assigned tags live in
    /// the upper half of the tag space (`0x8000_0000 |`) so they never
    /// collide with the small tags a service assigns per session.
    fn tag_job(&self, engine: &Engine, state: &mut RunState, workers: usize) {
        if state.trace_job == 0 {
            state.trace_job = 0x8000_0000 | (self.job_tags.fetch_add(1, Ordering::Relaxed) + 1);
        }
        if let Some(tracer) = engine.trace() {
            tracer.control_event(EventKind::JobSubmit, state.trace_job, workers as u64, 0, 0);
        }
    }

    /// The pool's worker count (including, for a non-detached pool, the
    /// caller acting as a participant of [`ExecutorPool::run`]).
    /// Constant for the pool's lifetime — the reuse suite asserts no
    /// run grows it.
    pub fn worker_count(&self) -> usize {
        self.threads
    }

    /// OS threads this pool spawned: `worker_count() - 1` for a pool
    /// built with [`ExecutorPool::new`], `worker_count()` for a
    /// [`ExecutorPool::detached`] one.
    pub fn spawned_workers(&self) -> usize {
        self.handles.len()
    }

    /// Core-pinning outcome per pool worker (`Some(core)` where the
    /// `core-pinning` feature pinned the worker's OS thread). All
    /// `None` when the feature is off, on non-Linux hosts, or for the
    /// never-pinned caller slot of a non-detached pool.
    pub fn pinned_cores(&self) -> Vec<Option<usize>> {
        self.shared.pinned.lock().expect("pinning lock").clone()
    }

    /// The pool-wide firing-cost estimate in nanoseconds (an EWMA over
    /// the sampled firings of every run executed on this pool through
    /// executors built by [`ExecutorPool::executor`]), or `None` before
    /// the first sample.
    pub fn sampled_firing_cost_ns(&self) -> Option<u64> {
        self.telemetry.sampled_firing_cost_ns()
    }

    /// Builds an executor whose firing-cost telemetry is shared with
    /// this pool, so granularity classification survives across
    /// executors (e.g. across the phases of a reconfigured pipeline
    /// running the same graph). Heterogeneous tenants should build
    /// their executors with [`Executor::new`] instead — a shared
    /// estimate lets one tenant's cheap kernels collapse another's
    /// runs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::new`].
    pub fn executor<'g>(
        &self,
        graph: &'g TpdfGraph,
        config: crate::executor::RuntimeConfig,
    ) -> Result<Executor<'g>, RuntimeError> {
        Executor::with_telemetry(graph, config, Arc::clone(&self.telemetry))
    }

    /// Executes one run of `executor` on the pool and reports
    /// [`Metrics`], blocking until completion. Semantically identical
    /// to [`Executor::run`] — placement, determinism and clock handling
    /// are the same shared worker loop — but no thread is spawned: the
    /// caller is participant 0 and pool workers fill the remaining
    /// slots. The run engages up to `min(executor threads, pool size)`
    /// participants (the granularity heuristic may collapse that to 1),
    /// and runs concurrently with any other job active on the pool.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::run`].
    pub fn run(
        &self,
        executor: &Executor<'_>,
        registry: &KernelRegistry,
    ) -> Result<Metrics, RuntimeError> {
        let engine = Arc::clone(executor.engine());
        let workers = engine.effective_workers().min(self.threads);
        let state = engine.initial_state(workers);
        self.run_to_completion(engine, state, workers, registry).0
    }

    /// Like [`ExecutorPool::run`], additionally capturing a
    /// barrier-consistent [`Checkpoint`] of the run's final state —
    /// the pooled counterpart of [`Executor::run_checkpointed`], and
    /// what a service's `checkpoint_session` drains onto.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecutorPool::run`].
    pub fn run_checkpointed(
        &self,
        compiled: &CompiledExecutor,
        registry: &KernelRegistry,
    ) -> Result<(Metrics, Checkpoint), RuntimeError> {
        let engine = Arc::clone(compiled.engine());
        let workers = engine.effective_workers().min(self.threads);
        let state = engine.initial_state(workers);
        let (result, finished) =
            self.run_to_completion(Arc::clone(&engine), state, workers, registry);
        let metrics = result?;
        let checkpoint = engine.capture_checkpoint(finished.state(), &metrics);
        Ok((metrics, checkpoint))
    }

    /// Resumes a checkpointed run on this pool — possibly a different
    /// pool, with a different worker count and placement, than the one
    /// that checkpointed it. Sink streams, mode sequences and firing
    /// counts are byte-identical to a run that never stopped.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::Checkpoint`] when the checkpoint belongs to a
    ///   different graph or leaves nothing to resume;
    /// * otherwise the same conditions as [`ExecutorPool::run`].
    pub fn run_restored(
        &self,
        compiled: &CompiledExecutor,
        registry: &KernelRegistry,
        checkpoint: &Checkpoint,
    ) -> Result<Metrics, RuntimeError> {
        let engine = Arc::clone(compiled.engine());
        let workers = engine.effective_workers().min(self.threads);
        let state = engine.restore_state(checkpoint, workers)?;
        self.run_to_completion(engine, state, workers, registry).0
    }

    /// Resumes a checkpointed run and captures a fresh [`Checkpoint`]
    /// at its final barrier — the chaining primitive for *periodic*
    /// checkpointing: run to barrier 8, checkpoint, restore into a
    /// barrier-16 executor, checkpoint again, and so on. The
    /// `figure2_checkpoint` bench group guards the overhead of exactly
    /// that chain.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecutorPool::run_restored`].
    pub fn run_restored_checkpointed(
        &self,
        compiled: &CompiledExecutor,
        registry: &KernelRegistry,
        checkpoint: &Checkpoint,
    ) -> Result<(Metrics, Checkpoint), RuntimeError> {
        let engine = Arc::clone(compiled.engine());
        let workers = engine.effective_workers().min(self.threads);
        let state = engine.restore_state(checkpoint, workers)?;
        let (result, finished) =
            self.run_to_completion(Arc::clone(&engine), state, workers, registry);
        let metrics = result?;
        let next = engine.capture_checkpoint(finished.state(), &metrics);
        Ok((metrics, next))
    }

    /// Drives `state` to completion on the pool, the caller
    /// participating as worker 0 — the execution core shared by
    /// [`ExecutorPool::run`] and its checkpoint/restore variants. The
    /// finished state rides back alongside the result so a checkpoint
    /// can be captured from it after the run quiesces.
    fn run_to_completion(
        &self,
        engine: Arc<Engine>,
        mut state: RunState,
        workers: usize,
        registry: &KernelRegistry,
    ) -> (Result<Metrics, RuntimeError>, FinishedRun) {
        self.tag_job(&engine, &mut state, workers);
        let start = Instant::now();
        let virtual_clocks = matches!(engine.config().clock_mode, ClockMode::Virtual);
        if workers == 1 && virtual_clocks {
            // The collapsed single-worker fast path never touches the
            // slot table: the calling thread runs the de-synchronised
            // loop directly, exactly as the scoped path does.
            engine.run_single(&state, registry, start);
            let mut metrics = engine.collect_metrics(&state, start.elapsed(), 1);
            if let Ok(m) = &mut metrics {
                m.pinned_cores = self.pinned_cores();
            }
            return (metrics, FinishedRun::Local(Box::new(state)));
        }

        let job = Arc::new(PoolJob {
            engine,
            registry: registry.clone(),
            state,
            start: OnceLock::new(),
            workers,
            // The caller pre-claims participation slot 0 — same
            // division of labour as the scoped path, so a 1-worker
            // pooled run involves no other thread at all.
            joined: AtomicUsize::new(1),
            active: AtomicUsize::new(1),
            finishing: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            result: Mutex::new(None),
            on_complete: Mutex::new(None),
        });
        job.start.set(start).expect("fresh job");
        if workers > 1 {
            let mut slot = self.shared.slot.lock().expect("pool lock");
            slot.queue.push(Arc::clone(&job));
            drop(slot);
            self.shared.work.notify_all();
        }
        if let Some(tracer) = job.engine.trace() {
            tracer.event(0, EventKind::JobClaim, job.state.trace_job, 0, 0, 0);
        }
        // A caller-side panic is caught so the halt can be published
        // and the secondaries drained (otherwise they would hold their
        // participation forever), then re-raised to preserve the scoped
        // path's panic semantics.
        let caller = catch_unwind(AssertUnwindSafe(|| {
            job.engine.worker_loop(&job.state, 0, &job.registry, start)
        }));
        if caller.is_err() {
            job.engine.fail(
                &job.state,
                RuntimeError::KernelFailed {
                    node: "pool worker 0".to_string(),
                    message: "worker thread panicked".to_string(),
                },
            );
        }
        leave(&self.shared, &job);
        let result = wait_finished(&self.shared, &job);
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        (result, FinishedRun::Pooled(job))
    }

    /// Queues one run of `compiled` for asynchronous execution by the
    /// pool workers and returns immediately. The job runs concurrently
    /// with every other active job; the caller does not participate.
    ///
    /// On a pool with no spawned workers (`ExecutorPool::new(1)`) the
    /// job only progresses when some thread lends itself through
    /// [`JobTicket::wait`] — a service should host a
    /// [`ExecutorPool::detached`] pool.
    pub fn submit(&self, compiled: &CompiledExecutor, registry: &KernelRegistry) -> JobTicket {
        self.submit_job(compiled, registry, None)
    }

    /// Like [`ExecutorPool::submit`], additionally invoking
    /// `on_complete` exactly once after the job's result is published
    /// (from a pool worker thread, with no pool lock held) — the hook a
    /// service layer uses to dispatch a session's next queued request.
    pub fn submit_with(
        &self,
        compiled: &CompiledExecutor,
        registry: &KernelRegistry,
        on_complete: impl FnOnce() + Send + 'static,
    ) -> JobTicket {
        self.submit_job(compiled, registry, Some(Box::new(on_complete)))
    }

    fn submit_job(
        &self,
        compiled: &CompiledExecutor,
        registry: &KernelRegistry,
        on_complete: Option<Box<dyn FnOnce() + Send>>,
    ) -> JobTicket {
        let engine = Arc::clone(compiled.engine());
        let workers = engine.effective_workers().min(self.threads);
        let mut state = engine.initial_state(workers);
        self.tag_job(&engine, &mut state, workers);
        let job = Arc::new(PoolJob {
            engine,
            registry: registry.clone(),
            state,
            start: OnceLock::new(),
            workers,
            joined: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            finishing: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            result: Mutex::new(None),
            on_complete: Mutex::new(on_complete),
        });
        {
            let mut slot = self.shared.slot.lock().expect("pool lock");
            slot.queue.push(Arc::clone(&job));
        }
        self.shared.work.notify_all();
        JobTicket {
            shared: Arc::clone(&self.shared),
            job,
        }
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("pool lock");
            slot.shutdown = true;
        }
        self.shared.work.notify_all();
        // The pool can be dropped *from one of its own workers*: a
        // completion callback owns an `Arc` of the pool (that is how a
        // service dispatches follow-up work), and the worker dropping
        // the consumed callback may hold the last reference. That
        // worker cannot join itself — detach it instead; it exits on
        // its own the moment it observes the shutdown flag.
        let current = std::thread::current().id();
        for handle in self.handles.drain(..) {
            if handle.thread().id() == current {
                continue;
            }
            let _ = handle.join();
        }
        // Jobs still queued with no participant will never gain one
        // (the workers are gone): finalise them as cancelled so any
        // outstanding ticket resolves instead of hanging. Jobs with a
        // live participant (a `JobTicket::wait` helper on another
        // thread) are left to that helper's finalisation.
        let leftovers: Vec<Arc<PoolJob>> = {
            let mut slot = self.shared.slot.lock().expect("pool lock");
            slot.queue
                .clone()
                .into_iter()
                .filter(|job| try_elect_finalizer(&mut slot, job))
                .collect()
        };
        for job in leftovers {
            job.engine.cancel_run(&job.state);
            finalize_job(&self.shared, &job);
        }
    }
}

/// A handle on one [`ExecutorPool::submit`]ted job. Clones share the
/// job: the result is delivered once across all clones (first
/// [`JobTicket::try_take`] / [`JobTicket::wait`] wins).
#[derive(Clone)]
pub struct JobTicket {
    shared: Arc<PoolShared>,
    job: Arc<PoolJob>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("workers", &self.job.workers)
            .field("joined", &self.job.joined.load(Ordering::Relaxed))
            .field("finished", &self.job.finished.load(Ordering::Relaxed))
            .finish()
    }
}

impl JobTicket {
    /// Whether the job has been finalised (its result is available).
    pub fn is_finished(&self) -> bool {
        self.job.finished.load(Ordering::Acquire)
    }

    /// Takes the job's result if it is finished, `None` otherwise (or
    /// if the result was already taken).
    pub fn try_take(&self) -> Option<Result<Metrics, RuntimeError>> {
        if !self.is_finished() {
            return None;
        }
        self.job.result.lock().expect("result lock").take()
    }

    /// Blocks until the job completes and returns its [`Metrics`].
    ///
    /// If the job still has a free participation slot, the waiting
    /// thread lends itself as a participant first — so waiting makes
    /// progress even on a pool with no (or saturated) workers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::run`], plus
    /// [`RuntimeError::Cancelled`] when the job was cancelled, and
    /// [`RuntimeError::InvalidConfig`] when the result was already
    /// taken through [`JobTicket::try_take`].
    pub fn wait(self) -> Result<Metrics, RuntimeError> {
        let idx = {
            let mut slot = self.shared.slot.lock().expect("pool lock");
            claim_participation(&mut slot, &self.job)
        };
        if let Some(idx) = idx {
            if participate(&self.job, idx) {
                stand_down(&self.shared, &self.job);
            } else {
                leave(&self.shared, &self.job);
            }
        }
        wait_finished(&self.shared, &self.job)
    }

    /// Cancels the job: the run halts at the next scheduling point and
    /// finalises with [`RuntimeError::Cancelled`] (an error already
    /// recorded by the run itself takes precedence, and a run that
    /// already *completed* keeps its successful result). A job no
    /// worker has picked up yet is finalised immediately; a running
    /// job's participants observe the halt and drain. Idempotent.
    pub fn cancel(&self) {
        self.job.engine.cancel_run(&self.job.state);
        let finalize = {
            let mut slot = self.shared.slot.lock().expect("pool lock");
            try_elect_finalizer(&mut slot, &self.job)
        };
        if finalize {
            finalize_job(&self.shared, &self.job);
        }
    }
}

/// The persistent worker loop: pin (when enabled), handshake, then hunt
/// the job queue — claim a participation slot, run the shared engine
/// worker loop, report completion, repeat until shutdown.
fn pool_worker(shared: Arc<PoolShared>, me: usize) {
    // Worker `me` takes the `me`-th core of the thread's *allowed* set
    // (wrapping), so pinning survives cpuset/taskset restrictions.
    let pinned = pin_to_nth_allowed_core(me);
    {
        let mut record = shared.pinned.lock().expect("pinning lock");
        record[me] = pinned;
    }
    {
        let mut slot = shared.slot.lock().expect("pool lock");
        slot.started += 1;
    }
    shared.done.notify_all();
    loop {
        let (job, idx) = {
            let mut slot = shared.slot.lock().expect("pool lock");
            loop {
                if slot.shutdown {
                    return;
                }
                let (claimed, skipped_collapsed) = claim_slot(&mut slot);
                if let Some(claimed) = claimed {
                    break claimed;
                }
                // An empty queue blocks until notified; a queue holding
                // only passed-over collapsed jobs is re-polled on a
                // timeout, since nothing notifies when a cost estimate
                // recovers.
                slot = if skipped_collapsed {
                    shared
                        .work
                        .wait_timeout(slot, std::time::Duration::from_millis(100))
                        .expect("pool lock")
                        .0
                } else {
                    shared.work.wait(slot).expect("pool lock")
                };
            }
        };
        if participate(&job, idx) {
            stand_down(&shared, &job);
        } else {
            leave(&shared, &job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{PlacementPolicy, RuntimeConfig};
    use crate::token::Token;
    use tpdf_core::examples::figure2_graph;
    use tpdf_manycore::MappingStrategy;
    use tpdf_symexpr::Binding;

    fn binding(p: i64) -> Binding {
        Binding::from_pairs([("p", p)])
    }

    #[test]
    fn pooled_runs_match_scoped_runs() {
        let graph = figure2_graph();
        let registry = KernelRegistry::new();
        let pool = ExecutorPool::new(4);
        for placement in [
            PlacementPolicy::WorkStealing,
            PlacementPolicy::Affinity(MappingStrategy::RoundRobin),
        ] {
            let config = RuntimeConfig::new(binding(3))
                .with_threads(4)
                .with_iterations(3)
                .with_placement(placement);
            let scoped = Executor::new(&graph, config.clone())
                .unwrap()
                .run(&registry)
                .unwrap();
            let executor = pool.executor(&graph, config).unwrap();
            let pooled = pool.run(&executor, &registry).unwrap();
            assert_eq!(pooled.firings, scoped.firings, "{placement:?}");
            assert_eq!(pooled.tokens_pushed, scoped.tokens_pushed, "{placement:?}");
            assert_eq!(pooled.iterations, 3);
            assert_eq!(pooled.placement, placement);
            assert_eq!(
                pooled.worker_firings.iter().sum::<u64>(),
                pooled.firings.iter().sum::<u64>(),
                "per-worker firings must account for every firing"
            );
        }
    }

    #[test]
    fn pool_clamps_oversized_executor_thread_counts() {
        let graph = figure2_graph();
        let pool = ExecutorPool::new(2);
        let executor = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(8))
            .unwrap();
        let metrics = pool.run(&executor, &KernelRegistry::new()).unwrap();
        assert!(metrics.effective_workers <= 2);
        assert_eq!(metrics.worker_firings.len(), metrics.effective_workers);
    }

    /// Regression (from the single-slot pool): a pool wider than a
    /// run's worker count leaves idle workers racing the finaliser's
    /// queue cleanup — a worker waking late used to panic on the
    /// cleared job slot and poison the pool mutex. Real-time mode keeps
    /// the multi-worker publish path (no granularity collapse), and
    /// many tiny back-to-back runs make the window hit.
    #[test]
    fn sit_out_workers_survive_rapid_generations() {
        let graph = figure2_graph();
        let pool = ExecutorPool::new(8);
        let registry = KernelRegistry::new();
        let config = RuntimeConfig::new(binding(1))
            .with_threads(2)
            .with_real_time(std::time::Duration::from_micros(1));
        let executor = pool.executor(&graph, config).unwrap();
        for _ in 0..500 {
            let metrics = pool.run(&executor, &registry).unwrap();
            assert_eq!(metrics.iterations, 1);
        }
    }

    /// Regression: a hunt that lost a claim race used to back a stall
    /// verdict. The holder had judged the node idle just before the
    /// hunter's own completion made it ready, released it unfired, and
    /// the hunter then saw `in_flight == 0` and reported
    /// `Stalled { blocked: ["F"] }` while the node was claimable.
    /// Thousands of tiny real-time runs (no granularity collapse) at
    /// every worker count from 2 to 8 make the window hit.
    #[test]
    fn claim_races_never_report_a_spurious_stall() {
        let graph = figure2_graph();
        let pool = ExecutorPool::new(8);
        let registry = KernelRegistry::new();
        for threads in 2..=8 {
            let config = RuntimeConfig::new(binding(1))
                .with_threads(threads)
                .with_real_time(std::time::Duration::from_micros(1));
            let executor = pool.executor(&graph, config).unwrap();
            for run in 0..400 {
                let metrics = pool
                    .run(&executor, &registry)
                    .unwrap_or_else(|e| panic!("{threads} threads, run {run}: {e}"));
                assert_eq!(metrics.iterations, 1);
            }
        }
    }

    /// Regression: the stall check read the epoch before `in_flight`.
    /// A worker whose hunt saw every budget at zero just before an
    /// iteration barrier republished them could read the epoch before
    /// the barrier's bump and `in_flight` after the barrier worker
    /// left, and report a stall at the start of the next iteration.
    /// Multi-iteration real-time runs with a rebinding at every
    /// barrier, at every worker count from 2 to 8, make the window hit.
    #[test]
    fn barrier_completions_never_report_a_spurious_stall() {
        let graph = figure2_graph();
        let pool = ExecutorPool::new(8);
        let registry = KernelRegistry::new();
        for threads in 2..=8 {
            let config = RuntimeConfig::new(binding(1))
                .with_binding_sequence(vec![binding(1), binding(3), binding(2)])
                .with_iterations(6)
                .with_threads(threads)
                .with_real_time(std::time::Duration::from_micros(1));
            let executor = pool.executor(&graph, config).unwrap();
            for run in 0..600 {
                let metrics = pool
                    .run(&executor, &registry)
                    .unwrap_or_else(|e| panic!("{threads} threads, run {run}: {e}"));
                assert_eq!(metrics.iterations, 6);
            }
        }
    }

    #[test]
    fn pool_survives_a_panicking_kernel() {
        let graph = figure2_graph();
        let pool = ExecutorPool::new(2);
        let mut bad = KernelRegistry::new();
        bad.register_fn("B", |_| panic!("kernel bug"));
        // A panic on a secondary worker is converted into an error (a
        // panic on the caller propagates, which scoped runs do too).
        // Either way the pool must stay serviceable afterwards.
        let config = RuntimeConfig::new(binding(2)).with_threads(2);
        let executor = pool.executor(&graph, config).unwrap();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(&executor, &bad)));
        // `Err` means the caller-side worker hit the panic itself.
        if let Ok(result) = outcome {
            assert!(result.is_err(), "panicking kernel must fail the run");
        }
        let mut good = KernelRegistry::new();
        good.register_fn("B", |ctx| {
            ctx.fill_outputs_cycling(&[Token::Int(1)]);
            Ok(())
        });
        let metrics = pool.run(&executor, &good).unwrap();
        assert_eq!(metrics.iterations, 1);
    }

    #[test]
    fn submitted_jobs_run_without_caller_participation() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let registry = KernelRegistry::new();
        let config = RuntimeConfig::new(binding(3))
            .with_threads(2)
            .with_iterations(4);
        let reference = Executor::new(&graph, config.clone())
            .unwrap()
            .run(&registry)
            .unwrap();
        let compiled = pool.executor(&graph, config).unwrap().compile();
        let ticket = pool.submit(&compiled, &registry);
        let metrics = ticket.wait().unwrap();
        assert_eq!(metrics.firings, reference.firings);
        assert_eq!(metrics.iterations, 4);
    }

    #[test]
    fn many_concurrent_jobs_share_one_pool() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(4);
        let registry = KernelRegistry::new();
        let mut tickets = Vec::new();
        let mut references = Vec::new();
        for p in [1i64, 2, 3, 4, 2, 3] {
            let config = RuntimeConfig::new(binding(p))
                .with_threads(2)
                .with_iterations(3);
            references.push(
                Executor::new(&graph, config.clone())
                    .unwrap()
                    .run(&registry)
                    .unwrap(),
            );
            let compiled = pool.executor(&graph, config).unwrap().compile();
            tickets.push(pool.submit(&compiled, &registry));
        }
        for (ticket, reference) in tickets.into_iter().zip(&references) {
            let metrics = ticket.wait().unwrap();
            assert_eq!(metrics.firings, reference.firings);
            // Per-job tally: every firing of this job is accounted to
            // one of this job's participation slots.
            assert_eq!(
                metrics.worker_firings.iter().sum::<u64>(),
                metrics.firings.iter().sum::<u64>()
            );
        }
    }

    #[test]
    fn wait_drives_jobs_on_a_pool_with_no_spawned_workers() {
        let graph = figure2_graph();
        let pool = ExecutorPool::new(1);
        assert_eq!(pool.spawned_workers(), 0);
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(1))
            .unwrap()
            .compile();
        let ticket = pool.submit(&compiled, &registry);
        assert!(!ticket.is_finished());
        let metrics = ticket.wait().unwrap();
        assert_eq!(metrics.iterations, 1);
    }

    #[test]
    fn wait_after_try_take_reports_instead_of_panicking() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(1))
            .unwrap()
            .compile();
        let ticket = pool.submit(&compiled, &registry);
        // Spin until the workers finish the job, then drain the result.
        while !ticket.is_finished() {
            std::thread::yield_now();
        }
        assert!(matches!(ticket.try_take(), Some(Ok(_))));
        assert_eq!(ticket.try_take(), None, "the result is delivered once");
        assert!(matches!(ticket.wait(), Err(RuntimeError::InvalidConfig(_))));
    }

    #[test]
    fn cancelled_queued_job_resolves_immediately() {
        let graph = figure2_graph();
        // No spawned workers: the job can never start, so cancel must
        // finalise it right away.
        let pool = ExecutorPool::new(1);
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(1))
            .unwrap()
            .compile();
        let ticket = pool.submit(&compiled, &registry);
        ticket.cancel();
        assert!(ticket.is_finished());
        assert!(matches!(
            ticket.try_take(),
            Some(Err(RuntimeError::Cancelled))
        ));
    }

    #[test]
    fn cancel_after_completion_keeps_the_real_result() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(1))
            .unwrap()
            .compile();
        let ticket = pool.submit(&compiled, &registry);
        while !ticket.is_finished() {
            std::thread::yield_now();
        }
        // A completed run's outcome must survive a late cancellation.
        ticket.cancel();
        assert!(matches!(ticket.try_take(), Some(Ok(_))));
    }

    /// Regression: secondaries of a granularity-collapsed job must
    /// *return to the hunt* rather than nap until the job ends —
    /// otherwise one long fine-grained job hoards the whole pool and
    /// concurrently queued jobs starve.
    #[test]
    fn collapsed_job_secondaries_serve_other_queued_jobs() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let registry = KernelRegistry::new();
        // A long, cheap job asking for the whole pool: both workers
        // join while the telemetry is cold; within a few samples the
        // EWMA classifies figure2's rate-only kernels fine-grained and
        // the secondary stands down.
        let long = pool
            .executor(
                &graph,
                RuntimeConfig::new(binding(8))
                    .with_threads(2)
                    .with_iterations(20_000),
            )
            .unwrap()
            .compile();
        let long_ticket = pool.submit(&long, &registry);
        let short = pool
            .executor(&graph, RuntimeConfig::new(binding(1)).with_threads(1))
            .unwrap()
            .compile();
        let short_ticket = pool.submit(&short, &registry);
        // The freed secondary must pick the short job up and finish it
        // long before the 20k-iteration job ends (generous deadline —
        // the stand-down is bounded by the stall timeout).
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while !short_ticket.is_finished() {
            assert!(
                Instant::now() < deadline,
                "short job starved behind a collapsed long job"
            );
            std::thread::yield_now();
        }
        assert!(matches!(short_ticket.try_take(), Some(Ok(_))));
        long_ticket.wait().unwrap();
    }

    #[test]
    fn panicking_job_does_not_poison_concurrent_jobs() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let mut bad = KernelRegistry::new();
        bad.register_fn("B", |_| panic!("kernel bug"));
        let good_registry = KernelRegistry::new();
        let config = RuntimeConfig::new(binding(2))
            .with_threads(1)
            .with_iterations(50);
        let compiled = pool.executor(&graph, config).unwrap().compile();
        let bad_ticket = pool.submit(&compiled, &bad);
        let good_ticket = pool.submit(&compiled, &good_registry);
        assert!(bad_ticket.wait().is_err(), "panicking job must fail");
        let metrics = good_ticket.wait().unwrap();
        assert_eq!(metrics.iterations, 50, "neighbour job must be untouched");
    }

    #[test]
    fn completion_callback_fires_once_after_result() {
        let graph = figure2_graph();
        let pool = ExecutorPool::detached(2);
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(1))
            .unwrap()
            .compile();
        let fired = Arc::new(AtomicUsize::new(0));
        let observer = Arc::clone(&fired);
        let ticket = pool.submit_with(&compiled, &registry, move || {
            observer.fetch_add(1, Ordering::SeqCst);
        });
        let metrics = ticket.wait().unwrap();
        assert_eq!(metrics.iterations, 1);
        // The callback runs on the finalising worker *after* the result
        // is published — waiters are not ordered against it, so give
        // the worker a moment to get there.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while fired.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pinned_cores_report_matches_feature_state() {
        let pool = ExecutorPool::detached(2);
        let pinned = pool.pinned_cores();
        assert_eq!(pinned.len(), 2);
        if cfg!(all(
            feature = "core-pinning",
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            assert!(
                pinned.iter().all(|c| c.is_some()),
                "every detached worker must pin under the feature: {pinned:?}"
            );
        } else {
            assert!(pinned.iter().all(|c| c.is_none()));
        }
        // The outcome rides along on every pooled run's metrics.
        let graph = figure2_graph();
        let registry = KernelRegistry::new();
        let compiled = pool
            .executor(&graph, RuntimeConfig::new(binding(2)).with_threads(2))
            .unwrap()
            .compile();
        let metrics = pool.submit(&compiled, &registry).wait().unwrap();
        assert_eq!(metrics.pinned_cores, pinned);
    }
}
