//! The byte-moving runtime: worker threads execute exchange plans.
//!
//! # Execution model
//!
//! The canonical torus's `N` nodes are multiplexed onto `W` worker
//! threads in contiguous chunks (`W` = [`RuntimeConfig::workers`], else
//! `TORUS_THREADS`, else the machine's available parallelism, clamped to
//! `1..=N`). Each worker
//! *owns* its nodes' buffers outright — no locks on the hot path — and
//! every node has an unbounded lock-free channel as its inbox.
//!
//! This module holds the crate's only executor. It walks any schedule
//! laid out as phases of barrier-ordered steps, and is generic over what
//! a node holds between steps (the crate-private `Holdings` trait):
//! the all-to-all block buffer here, and the collective key store in
//! [`collective`](crate::collective). Each communication step executes
//! as:
//!
//! 1. **assemble** — for every owned node scheduled to send, select the
//!    step's blocks (the paper's per-phase selection rules, a repaired
//!    schedule's manifest, or a collective plan's key list) and frame
//!    them into one combined wire message (sequence-numbered and
//!    CRC32-protected). Fault-free, the frame is **scatter-gather**
//!    ([`WireFrame::Gathered`]): only the headers are written (into a
//!    pooled buffer — see [`FramePool`]), the payloads travel as shared
//!    [`Bytes`] handles, so combining never copies a payload byte;
//! 2. **transport** — push the message into the destination's inbox
//!    (never blocks: channels are unbounded), then receive exactly the
//!    messages the static schedule says each owned node is due (possibly
//!    empty ones — the paper's idle senders), splitting them zero-copy
//!    and returning the frame's buffers to the receiving worker's pool.
//!    The node then absorbs the blocks: the all-to-all buffer appends
//!    them, a collective store inserts them by key or, for reductions,
//!    folds them into the resident block (a **combining receive**);
//! 3. **synchronize** — a two-phase [`Barrier`] rendezvous with the main
//!    thread. The first crossing marks "all step traffic delivered" (the
//!    main thread timestamps the step and snapshots buffers for
//!    [`Observer`]s); the second releases everyone into the next step, so
//!    messages from step `s + 1` can never interleave with step `s`.
//!
//! After every all-to-all phase but the last, workers run the paper's
//! **data rearrangement** as a real memory pass: each node's blocks are
//! sorted into delivery order and their payloads compacted into one fresh
//! contiguous arena (the measured analogue of the `ρ`-term the cost model
//! charges per byte), again bracketed by the two-barrier rendezvous.
//! Collective plans have no rearrangement.
//!
//! # Fault tolerance
//!
//! When the configured [`FaultPlan`] is non-empty the runtime switches
//! the send path to the canonical contiguous encoding (injected
//! corruption and truncation need well-defined frame bytes to mutate,
//! and the retained resend copy must be immutable) and the receive path
//! from a blocking wait to a deadline + bounded-retry
//! loop: every sender retains its pristine frame for the step, a receiver
//! whose deadline expires (or whose frame fails the CRC/framing/sequence
//! checks) pulls the retained copy — a modeled NACK + retransmission —
//! with exponential backoff between attempts. Exhausting the retry
//! budget, losing a channel endpoint, or an injected worker kill flips a
//! shared abort flag; every worker then falls through its remaining
//! barriers doing no work, so an aborted run still joins cleanly, leaks
//! no threads, and yields a partial [`RuntimeReport`] inside
//! [`RuntimeError::Aborted`] naming the faulty node, phase, and step.
//!
//! Fault-free runs keep the original semantics: sends never block and
//! every receive is matched to a scheduled send, so the protocol is
//! deadlock-free by construction; determinism across worker counts
//! follows from the per-step barriers plus the fixed ownership partition.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use alltoall_core::block::Buffers;
use alltoall_core::steps::{PlannedStep, StepPlan};
use alltoall_core::{
    verify_delivery, verify_delivery_degraded, Block, NullObserver, Observer, PhaseKind,
    PreparedExchange, RepairedSchedule, RepairedStep,
};
use bytes::{Bytes, BytesMut};
use cost_model::{CommParams, CompletionTime};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use crossbeam::thread as cb_thread;
use torus_sim::{StepStat, Trace};
use torus_topology::{NodeId, TorusShape};

use crate::cancel::{CancelKind, CancelToken};
use crate::degrade::{DeadNode, DegradedReport, OnFailure};
use crate::fault::{FaultEvent, FaultEventKind, FaultKind, FaultPlan, WorkerFaultKind};
use crate::message::{
    decode_gathered, decode_message, encode_gathered, encode_message, WireError, WireFrame,
    BLOCK_HEADER_BYTES, MESSAGE_HEADER_BYTES,
};
use crate::payload::pattern_payload;
use crate::pool::{FramePool, PoolBank};
use crate::recovery::{merge_events, FailureReason, NodeFailure, RecoveryStats, RetryPolicy};
use crate::report::{PhaseReport, RuntimeReport};
use crate::workers::WorkerPool;
use crate::RuntimeError;

/// Configuration for a [`Runtime`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Payload bytes per block (the paper's `m`). Used for the default
    /// pattern payloads and the analytic prediction. Default: 64.
    pub block_bytes: usize,
    /// Worker threads to multiplex nodes onto. `None` (default) means the
    /// `TORUS_THREADS` environment variable if set, else the machine's
    /// available parallelism (see [`torus_sim::default_threads`]).
    /// Always clamped to `1..=N`.
    pub workers: Option<usize>,
    /// Machine parameters for the analytic [`CompletionTime`] that rides
    /// along in the report. Default: [`CommParams::cray_t3d_like`].
    pub params: CommParams,
    /// Fault schedule to inject. Default: empty (no faults, and the
    /// recovery bookkeeping is skipped entirely on the hot path).
    pub faults: FaultPlan,
    /// Receive deadline and retry budget used whenever `faults` is
    /// non-empty.
    pub retry: RetryPolicy,
    /// What to do when a node suffers an unrecoverable fault: abort the
    /// run (default), or quarantine the node and complete a repaired
    /// schedule for the survivors. See [`OnFailure`].
    pub on_failure: OnFailure,
    /// External cancellation trigger. When set, workers poll the token
    /// at every step boundary (and inside recovery waits and injected
    /// stalls) and abort the run cooperatively with a typed
    /// [`FailureReason::Cancelled`] / [`FailureReason::DeadlineExceeded`]
    /// when it fires. Default: none.
    pub cancel: Option<CancelToken>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            block_bytes: 64,
            workers: None,
            params: CommParams::cray_t3d_like(),
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            on_failure: OnFailure::default(),
            cancel: None,
        }
    }
}

impl RuntimeConfig {
    /// Sets the payload bytes per block.
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Caps the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the machine parameters for the analytic prediction.
    pub fn with_params(mut self, params: CommParams) -> Self {
        self.params = params;
        self
    }

    /// Installs a fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the receive deadline / retry budget.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the unrecoverable-failure policy.
    pub fn with_on_failure(mut self, on_failure: OnFailure) -> Self {
        self.on_failure = on_failure;
        self
    }

    /// Installs an external cancellation token; keep a clone and trigger
    /// it from any thread to stop the run between steps.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The worker count a run over `nodes` nodes uses on the spawn
    /// (non-pooled) path. Pooled runs additionally clamp to the pool's
    /// size.
    pub(crate) fn effective_workers(&self, nodes: usize) -> usize {
        self.workers
            .unwrap_or_else(torus_sim::default_threads)
            .clamp(1, nodes)
    }
}

/// Locks a mutex, tolerating poisoning: an aborting run must still be
/// able to collect partial state even if some worker panicked while
/// holding a lock.
pub(crate) fn lk<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One flipped byte at a deterministic offset — the payload of
/// [`FaultKind::CorruptByte`].
fn corrupt_frame(frame: &Bytes, offset: usize) -> Bytes {
    let mut v = frame.to_vec();
    if !v.is_empty() {
        let at = offset % v.len();
        v[at] ^= 0x01;
    }
    Bytes::from(v)
}

/// Keeps only the first half of the frame — [`FaultKind::Truncate`].
fn truncate_frame(frame: &Bytes) -> Bytes {
    frame.slice(..frame.len() / 2)
}

/// A reusable byte-moving executor for one torus shape.
///
/// Construction does all the schedule work once (canonicalization,
/// padding, shift vectors, step plan); every [`run`](Self::run) then
/// seeds real payloads, executes the plan over worker threads, and
/// verifies delivery bit-exactly.
pub struct Runtime {
    prepared: Arc<PreparedExchange>,
    plan: Arc<StepPlan>,
    config: RuntimeConfig,
}

/// What one node holds between steps, as the executor drives it.
///
/// The worker loop is generic over this trait and monomorphised, so the
/// per-block work of selection and absorption is statically dispatched.
/// It has exactly two implementations: the all-to-all block buffer
/// (`Vec<Block<Bytes>>`, below) and the collective key store
/// (`Vec<Option<Bytes>>`, in [`collective`](crate::collective)).
pub(crate) trait Holdings: Clone + Default + Send + 'static {
    /// The run's immutable schedule, shared by every worker task.
    type Plan: Send + Sync + 'static;

    /// Step entry for `node` at global step `g`: discards whatever the
    /// schedule drops from it, then moves (or copies) the blocks it sends
    /// into `out` and returns their destination — `None` if it idles.
    fn select(
        &mut self,
        plan: &Self::Plan,
        g: usize,
        node: NodeId,
        out: &mut Vec<Block<Bytes>>,
        checks: &mut ScheduleChecks,
    ) -> Option<NodeId>;

    /// Takes in (and drains) the blocks of one received frame.
    fn absorb(&mut self, plan: &Self::Plan, incoming: &mut Vec<Block<Bytes>>);

    /// The inter-phase rearrangement; returns `(bytes copied, blocks)`.
    /// Called only after phases whose [`PhaseLayout`] asks for it, which
    /// collective plans never do, so the default does nothing.
    fn rearrange(&mut self) -> (u64, u64) {
        (0, 0)
    }

    /// Payload bytes resident at this node.
    fn resident_bytes(&self) -> u64;
}

/// Schedule self-checks the workers count; only the repaired all-to-all
/// schedule ever moves them off zero.
#[derive(Clone, Copy, Default)]
pub(crate) struct ScheduleChecks {
    /// Blocks discarded executing the repaired schedule's drop lists.
    dropped_found: u64,
    /// Repaired sends whose drained block count did not match the
    /// manifest (a planner/executor divergence — any nonzero total fails
    /// verification after the join).
    manifest_mismatches: u64,
}

/// One phase of a schedule's step grid.
pub(crate) struct PhaseLayout {
    pub(crate) name: String,
    pub(crate) steps: usize,
    /// Whether the inter-phase rearrangement follows the phase.
    pub(crate) rearrange_after: bool,
}

/// A schedule's step grid as the executor walks it.
pub(crate) struct Layout {
    /// Phases in execution order.
    pub(crate) phases: Vec<PhaseLayout>,
    /// Nominal hop count of each global step (for the trace).
    pub(crate) hops: Vec<u32>,
    /// `expect_from[g][node]`: who `node` receives from in global step
    /// `g` (every schedule has at most one sender per destination per
    /// step).
    pub(crate) expect_from: Vec<Vec<Option<NodeId>>>,
}

impl Layout {
    fn total_steps(&self) -> usize {
        self.hops.len()
    }

    /// Failure context for global step `g`: (phase label, 1-based step).
    fn locate(&self, g: usize) -> (String, usize) {
        let mut first = 0;
        for ph in &self.phases {
            if g < first + ph.steps {
                return (ph.name.clone(), g - first + 1);
            }
            first += ph.steps;
        }
        (String::new(), 0)
    }
}

/// Per-worker, per-global-step measurement.
#[derive(Clone, Copy, Default)]
struct StepSide {
    messages: u64,
    blocks: u64,
    max_blocks: u64,
    retries: u64,
}

/// Per-worker, per-phase measurement.
#[derive(Clone, Copy, Default)]
struct PhaseSide {
    assembly: Duration,
    transport: Duration,
    rearrange: Duration,
    wire_bytes: u64,
    rearranged_bytes: u64,
    bytes_copied: u64,
    allocations: u64,
    messages: u64,
    rearr_blocks_max: u64,
}

/// Everything one worker measured, returned at join.
struct WorkerStats {
    phase: Vec<PhaseSide>,
    steps: Vec<StepSide>,
    peak_bytes: u64,
    faults: RecoveryStats,
    events: Vec<FaultEvent>,
    checks: ScheduleChecks,
}

/// How a run executes its worker tasks.
#[derive(Clone, Copy)]
pub(crate) enum ExecBackend<'p> {
    /// Spawn fresh scoped threads and join them at run end — the classic
    /// one-shot measurement path.
    Spawn,
    /// Reserve a gang of persistent threads from a [`WorkerPool`],
    /// optionally recycling warm [`FramePool`]s through a [`PoolBank`] —
    /// the service path, where threads park between jobs instead of
    /// being respawned.
    Pool(&'p WorkerPool, Option<&'p PoolBank>),
}

/// The driving thread's view of an observed run: called at every step
/// barrier with `(phase index, Some(1-based step))` and after every
/// rearrangement with `(phase index, None)`, plus the node snapshots.
pub(crate) type SyncHook<'a, S> = dyn FnMut(usize, Option<usize>, &[Mutex<S>]) + 'a;

/// One schedule, seeded and ready to execute.
pub(crate) struct Execution<S: Holdings> {
    pub(crate) plan: S::Plan,
    pub(crate) layout: Layout,
    /// Per-node holdings, indexed by canonical node id.
    pub(crate) stores: Vec<S>,
    /// Executing a repaired schedule: injected kills are absorbed (the
    /// node is already quarantined) instead of aborting the run.
    pub(crate) degrade_mode: bool,
}

/// What [`execute`] hands back to a front end.
pub(crate) struct Executed<S> {
    /// Every measured field filled in; the front end adds the shape
    /// (`dims`, `executed_dims`, `padded`, `nodes`), the analytic
    /// prediction, and the verification verdict.
    pub(crate) report: RuntimeReport,
    /// Final per-node holdings, indexed by canonical node id.
    pub(crate) finals: Vec<S>,
    pub(crate) checks: ScheduleChecks,
}

impl<S> Executed<S> {
    /// An unrecoverable failure aborts cleanly: typed error + the
    /// partial report measured up to the abort.
    pub(crate) fn check_failure(self) -> Result<Self, RuntimeError> {
        let Some(fi) = self.report.failure.clone() else {
            return Ok(self);
        };
        Err(match fi.reason {
            FailureReason::ChannelClosed => RuntimeError::ChannelClosed {
                node: fi.node,
                phase: fi.phase,
                step: fi.step,
            },
            _ => RuntimeError::Aborted {
                failure: fi,
                report: Box::new(self.report),
            },
        })
    }
}

/// The per-run state every worker task shares.
///
/// Owned or reference-counted (`'static`) rather than scope-borrowed, so
/// the same worker body runs both on freshly spawned scoped threads and
/// on a persistent [`WorkerPool`] whose tasks outlive any stack frame.
/// One `RunShared` exists per run: its abort flag, failure slot, retained
/// frames, and channels are born and die with the job, which is what
/// isolates one job's abort or quarantine from every other job sharing
/// the pool.
struct RunShared<S: Holdings> {
    plan: S::Plan,
    layout: Layout,
    faults: FaultPlan,
    retry: RetryPolicy,
    degrade_mode: bool,
    observe: bool,
    /// Per-node inbox senders (any worker may deliver to any node).
    senders: Vec<Sender<WireFrame>>,
    /// Per-destination retained resend frame for the current step.
    retained: Vec<Mutex<Option<Bytes>>>,
    abort: AtomicBool,
    /// External cancellation trigger, observed cooperatively by workers.
    cancel: Option<CancelToken>,
    failure_slot: Mutex<Option<NodeFailure>>,
    barrier: Barrier,
    snapshots: Vec<Mutex<S>>,
}

impl<S: Holdings> RunShared<S> {
    /// Records the first unrecoverable failure and raises the abort flag.
    fn fail(&self, node: NodeId, g: usize, reason: FailureReason) {
        let mut slot = lk(&self.failure_slot);
        if slot.is_none() {
            let (phase, step) = self.layout.locate(g);
            *slot = Some(NodeFailure {
                node,
                phase,
                step,
                global_step: g,
                reason,
            });
        }
        self.abort.store(true, Ordering::SeqCst);
    }

    /// Polls the external cancellation token (if any) and converts a
    /// trigger into the run's first-failure-wins abort, attributed to
    /// `node` at global step `g`. Returns `true` when the run is (now)
    /// aborting for any reason, so call sites can fold this into their
    /// existing skip checks.
    fn observe_cancel(&self, node: NodeId, g: usize) -> bool {
        if let Some(token) = &self.cancel {
            if let Some(kind) = token.kind() {
                let reason = match kind {
                    CancelKind::Cancelled => FailureReason::Cancelled,
                    CancelKind::DeadlineExceeded => FailureReason::DeadlineExceeded,
                };
                self.fail(node, g, reason);
                return true;
            }
        }
        self.abort.load(Ordering::Acquire)
    }

    /// Applies the message faults pinned to transmission `attempt` of
    /// `src -> dst` in step `g` to the frames about to be delivered
    /// (one, before any fault), counting and logging each injection.
    #[allow(clippy::too_many_arguments)]
    fn inject(
        &self,
        g: usize,
        src: NodeId,
        dst: NodeId,
        attempt: u32,
        frames: &mut Vec<Bytes>,
        counters: &mut RecoveryStats,
        events: &mut Vec<FaultEvent>,
    ) {
        for kind in self.faults.message_faults(g, src, dst, attempt) {
            events.push(FaultEvent {
                step: g,
                src,
                dst,
                attempt,
                kind: FaultEventKind::Message(kind),
            });
            match kind {
                FaultKind::Drop => {
                    counters.injected_drops += 1;
                    frames.clear();
                }
                FaultKind::DelayMicros(us) => {
                    counters.injected_delays += 1;
                    std::thread::sleep(Duration::from_micros(us));
                }
                FaultKind::Duplicate => {
                    counters.injected_duplicates += 1;
                    if let Some(f) = frames.first().cloned() {
                        frames.push(f);
                    }
                }
                FaultKind::CorruptByte => {
                    counters.injected_corruptions += 1;
                    let off = self.faults.corrupt_offset(
                        g,
                        src,
                        dst,
                        frames.first().map_or(0, Bytes::len),
                    );
                    for f in frames.iter_mut() {
                        *f = corrupt_frame(f, off);
                    }
                }
                FaultKind::Truncate => {
                    counters.injected_truncations += 1;
                    for f in frames.iter_mut() {
                        *f = truncate_frame(f);
                    }
                }
            }
        }
    }

    /// The fault-free receive of a scheduled frame. A scheduled frame is
    /// always sent, so a blocking receive cannot deadlock. With a cancel
    /// token installed a peer may observe the trigger at step entry and
    /// skip its sends, so the receive polls the abort state instead of
    /// blocking forever on a frame that will never come.
    fn recv_scheduled(&self, rx: &Receiver<WireFrame>, me: NodeId, g: usize) -> Option<WireFrame> {
        if self.cancel.is_none() {
            return match rx.recv() {
                Ok(frame) => Some(frame),
                Err(_) => {
                    self.fail(me, g, FailureReason::ChannelClosed);
                    None
                }
            };
        }
        loop {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(frame) => return Some(frame),
                Err(RecvTimeoutError::Timeout) => {
                    if self.observe_cancel(me, g) {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.fail(me, g, FailureReason::ChannelClosed);
                    return None;
                }
            }
        }
    }

    /// The deadline + bounded-retry receive loop (fault plans only).
    ///
    /// Waits on the inbox with a deadline; on timeout, CRC/framing
    /// failure, or a stale sequence from a resend, pulls the sender's
    /// retained pristine frame (a modeled NACK + retransmission) with
    /// exponential backoff. Returns the step's blocks, or `None` if the
    /// run aborted (this receive's own budget exhausting is one way that
    /// happens). Combining receives stay exactly-once under recovery:
    /// only the frame carrying step `g`'s sequence is returned.
    #[allow(clippy::too_many_arguments)]
    fn recover_recv(
        &self,
        rx: &Receiver<WireFrame>,
        retained: &Mutex<Option<Bytes>>,
        me: NodeId,
        src: NodeId,
        g: usize,
        counters: &mut RecoveryStats,
        events: &mut Vec<FaultEvent>,
        step_retries: &mut u64,
    ) -> Option<Vec<Block<Bytes>>> {
        let policy = self.retry;
        // `cycles` counts *failed* recovery cycles: it charges the retry
        // budget only when a recovery attempt itself came up empty or
        // invalid, so a single drop healed by the first resend costs
        // nothing. `fetches` numbers retained-buffer fetches 1-based —
        // the "attempt" coordinate resend faults are pinned to.
        let mut cycles = 0u32;
        let mut fetches = 0u32;
        let mut needed_recovery = false;
        let blocks = loop {
            if self.observe_cancel(me, g) {
                break None;
            }
            if cycles > policy.max_retries {
                self.fail(me, g, FailureReason::RetryExhausted { src });
                break None;
            }
            let wait = if cycles == 0 {
                policy.deadline
            } else {
                policy.backoff_for(cycles)
            };
            let mut via_resend = false;
            let raw = match self.recv_sliced(rx, wait) {
                // Under a fault plan senders always transmit contiguous
                // frames; normalize defensively so validation below
                // always sees canonical bytes.
                Ok(frame) => Some(frame.to_bytes()),
                Err(RecvTimeoutError::Disconnected) => {
                    self.fail(me, g, FailureReason::ChannelClosed);
                    break None;
                }
                Err(RecvTimeoutError::Timeout) => {
                    counters.timeouts += 1;
                    needed_recovery = true;
                    via_resend = true;
                    // The sender may not have retained this step's frame
                    // yet (stalled peer); then retry after backoff.
                    let frame = lk(retained).clone();
                    frame.and_then(|frame| {
                        fetches += 1;
                        counters.resends += 1;
                        // The retransmission itself can be faulted
                        // (explicitly pinned attempts >= 1 — how the
                        // tests provoke budget exhaustion).
                        let mut frames = vec![frame];
                        self.inject(g, src, me, fetches, &mut frames, counters, events);
                        frames.into_iter().next()
                    })
                }
            };
            let Some(raw) = raw else {
                cycles += 1;
                counters.retries += 1;
                *step_retries += 1;
                continue;
            };
            match decode_message(&raw) {
                Ok((seq, blocks)) if seq as usize == g => break Some(blocks),
                Ok(_) => {
                    // Wrong sequence number: a duplicate or over-deadline
                    // straggler from an earlier step (drain it free — the
                    // inbox backlog is finite), or a stale retained frame
                    // from a dead sender (charge the budget, or this
                    // could spin forever).
                    counters.stale_discarded += 1;
                    if via_resend {
                        cycles += 1;
                        counters.retries += 1;
                        *step_retries += 1;
                    }
                    continue;
                }
                Err(e) => {
                    match e {
                        WireError::Crc { .. } => counters.crc_failures += 1,
                        _ => counters.decode_failures += 1,
                    }
                    needed_recovery = true;
                    cycles += 1;
                    counters.retries += 1;
                    *step_retries += 1;
                    continue;
                }
            }
        };
        if blocks.is_some() && needed_recovery {
            counters.recovered += 1;
        }
        blocks
    }

    /// `recv_timeout(wait)`, but sliced into bounded chunks when a
    /// cancellation token is installed, so a worker parked on a long
    /// retry deadline still notices an external cancel within ~20 ms.
    /// An observed trigger surfaces as a timeout; the caller's loop head
    /// converts it into the typed abort.
    fn recv_sliced(
        &self,
        rx: &Receiver<WireFrame>,
        wait: Duration,
    ) -> Result<WireFrame, RecvTimeoutError> {
        let Some(token) = &self.cancel else {
            return rx.recv_timeout(wait);
        };
        let deadline = Instant::now() + wait;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            match rx.recv_timeout(left.min(Duration::from_millis(20))) {
                Err(RecvTimeoutError::Timeout) => {
                    if token.is_triggered() || self.abort.load(Ordering::Acquire) {
                        return Err(RecvTimeoutError::Timeout);
                    }
                }
                other => return other,
            }
        }
    }
}

/// One worker task: executes every step of the schedule for its
/// contiguous chunk of nodes (`base ..`), returning its measurements, its
/// frame pool (warm, for recycling through a [`PoolBank`]) and its nodes'
/// final holdings.
///
/// Runs identically on a scoped thread ([`ExecBackend::Spawn`]) or a
/// persistent pool thread ([`ExecBackend::Pool`]); everything it touches
/// lives in [`RunShared`] or is moved in.
fn worker_body<S: Holdings>(
    shared: &RunShared<S>,
    base: usize,
    mut bufs: Vec<S>,
    rxs: Vec<Receiver<WireFrame>>,
    mut pool: FramePool,
) -> (WorkerStats, FramePool, Vec<S>) {
    let plan = &shared.plan;
    let layout = &shared.layout;
    let faults = &shared.faults;
    let no_faults = faults.is_empty();
    let observe = shared.observe;
    let senders = &shared.senders[..];
    let retained = &shared.retained[..];
    let barrier = &shared.barrier;

    let mut stats = WorkerStats {
        phase: vec![PhaseSide::default(); layout.phases.len()],
        steps: vec![StepSide::default(); layout.total_steps()],
        peak_bytes: 0,
        faults: RecoveryStats::default(),
        events: Vec::new(),
        checks: ScheduleChecks::default(),
    };
    // Recycled scratch: the frame-buffer pool and the per-step outgoing
    // and incoming block vectors. They reach steady state after the first
    // step or two and stop allocating.
    let mut outgoing: Vec<Block<Bytes>> = Vec::new();
    let mut incoming: Vec<Block<Bytes>> = Vec::new();
    // A killed worker turns into a zombie: it does no work but keeps
    // crossing barriers so nothing deadlocks.
    let mut dead = false;
    let mut g = 0usize;
    for (pi, ph) in layout.phases.iter().enumerate() {
        for _ in 0..ph.steps {
            if !no_faults && !dead {
                for li in 0..bufs.len() {
                    let node = (base + li) as NodeId;
                    let Some(wf) = faults.worker_fault(g, node) else {
                        continue;
                    };
                    stats.events.push(FaultEvent {
                        step: g,
                        src: node,
                        dst: node,
                        attempt: 0,
                        kind: FaultEventKind::Worker(wf),
                    });
                    match wf {
                        WorkerFaultKind::Kill => {
                            stats.faults.injected_kills += 1;
                            if !shared.degrade_mode {
                                shared.fail(node, g, FailureReason::WorkerKilled { node });
                                dead = true;
                            }
                            // Degraded runs absorb the kill: the node is
                            // already quarantined in the repaired
                            // schedule (its sends and receives are
                            // gone), and its worker must stay alive to
                            // route salvaged survivor blocks out in
                            // fallback.
                        }
                        WorkerFaultKind::StallMicros(us) => {
                            stats.faults.injected_stalls += 1;
                            // Sleep in bounded slices, polling the abort
                            // flag and the cancellation token, so an
                            // externally stopped run is not pinned for
                            // the stall's full duration.
                            let stall_until = Instant::now() + Duration::from_micros(us);
                            while !shared.observe_cancel(node, g) {
                                let left = stall_until.saturating_duration_since(Instant::now());
                                if left.is_zero() {
                                    break;
                                }
                                std::thread::sleep(left.min(Duration::from_millis(1)));
                            }
                        }
                    }
                }
            }
            let skip = dead || shared.observe_cancel(base as NodeId, g);
            if !skip {
                let pstats = &mut stats.phase[pi];
                let sstats = &mut stats.steps[g];

                // Assemble and send for every owned scheduled sender.
                for (li, buf) in bufs.iter_mut().enumerate() {
                    let node = (base + li) as NodeId;
                    let t0 = Instant::now();
                    outgoing.clear();
                    let Some(dst) = buf.select(plan, g, node, &mut outgoing, &mut stats.checks)
                    else {
                        continue;
                    };
                    let msg = if no_faults {
                        // Zero-copy: headers into a pooled buffer,
                        // payloads shared by handle.
                        let framing_len =
                            MESSAGE_HEADER_BYTES + outgoing.len() * BLOCK_HEADER_BYTES;
                        let allocs = pool.allocations();
                        let frame = encode_gathered(
                            g as u32,
                            &outgoing,
                            pool.take_buf(framing_len),
                            pool.take_vec(),
                        );
                        pstats.allocations += pool.allocations() - allocs;
                        pstats.bytes_copied += framing_len as u64;
                        frame
                    } else {
                        // Fault plans need mutable frame bytes (and an
                        // immutable retained copy), so materialize the
                        // canonical layout.
                        let bytes = encode_message(g as u32, &outgoing);
                        pstats.allocations += 1;
                        pstats.bytes_copied += bytes.len() as u64;
                        WireFrame::Contiguous(bytes)
                    };
                    let assembled = Instant::now();
                    pstats.assembly += assembled - t0;
                    sstats.messages += 1;
                    sstats.blocks += outgoing.len() as u64;
                    sstats.max_blocks = sstats.max_blocks.max(outgoing.len() as u64);
                    // Wire accounting is for the pristine frame; injected
                    // mutations don't change the schedule's cost.
                    pstats.wire_bytes += msg.wire_len() as u64;
                    pstats.messages += 1;
                    if no_faults {
                        if senders[dst as usize].send(msg).is_err() {
                            shared.fail(node, g, FailureReason::ChannelClosed);
                        }
                    } else {
                        let msg = msg.to_bytes();
                        // Retain the pristine frame so the receiver can
                        // recover it; then mutate what actually goes on
                        // the wire.
                        *lk(&retained[dst as usize]) = Some(msg.clone());
                        let mut deliver = vec![msg];
                        shared.inject(
                            g,
                            node,
                            dst,
                            0,
                            &mut deliver,
                            &mut stats.faults,
                            &mut stats.events,
                        );
                        for f in deliver {
                            if senders[dst as usize]
                                .send(WireFrame::Contiguous(f))
                                .is_err()
                            {
                                shared.fail(node, g, FailureReason::ChannelClosed);
                                break;
                            }
                        }
                    }
                    pstats.transport += assembled.elapsed();
                }

                // Receive exactly the scheduled traffic, split it
                // zero-copy, absorb it, and track residency.
                for (li, buf) in bufs.iter_mut().enumerate() {
                    let me = (base + li) as NodeId;
                    if let Some(src) = layout.expect_from[g][base + li] {
                        let t0 = Instant::now();
                        incoming.clear();
                        let (got, received) = if no_faults {
                            let frame = shared.recv_scheduled(&rxs[li], me, g);
                            let received = Instant::now();
                            pstats.transport += received - t0;
                            // Self-produced frames never fail to decode;
                            // without a fault plan there is no retained
                            // copy to retry from, so a wire error here is
                            // unrecoverable and named exactly.
                            let decoded = frame.map(|frame| match frame {
                                WireFrame::Gathered {
                                    framing,
                                    mut payloads,
                                } => {
                                    let r = decode_gathered(&framing, &mut payloads, &mut incoming);
                                    if r.is_ok() {
                                        // Keep the pools warm: the
                                        // receiver recycles the sender's
                                        // buffers.
                                        pool.put_buf(framing);
                                        pool.put_vec(payloads);
                                    }
                                    r.map(|_| ())
                                }
                                WireFrame::Contiguous(raw) => decode_message(&raw)
                                    .map(|(_, mut blocks)| incoming.append(&mut blocks)),
                            });
                            let got = match decoded {
                                Some(Ok(())) => true,
                                Some(Err(e)) => {
                                    match e {
                                        WireError::Crc { .. } => stats.faults.crc_failures += 1,
                                        _ => stats.faults.decode_failures += 1,
                                    }
                                    shared.fail(me, g, FailureReason::Integrity { src, error: e });
                                    false
                                }
                                None => false,
                            };
                            (got, received)
                        } else {
                            let blocks = shared.recover_recv(
                                &rxs[li],
                                &retained[base + li],
                                me,
                                src,
                                g,
                                &mut stats.faults,
                                &mut stats.events,
                                &mut sstats.retries,
                            );
                            let received = Instant::now();
                            pstats.transport += received - t0;
                            let got = blocks.map(|mut b| incoming.append(&mut b)).is_some();
                            (got, received)
                        };
                        if got {
                            buf.absorb(plan, &mut incoming);
                            pstats.assembly += received.elapsed();
                        }
                    }
                    let mut resident = buf.resident_bytes();
                    if !no_faults {
                        // The frame retained for this node's recovery is
                        // resident memory too (the fault-free path
                        // retains nothing and stays lock-free).
                        resident += lk(&retained[base + li])
                            .as_ref()
                            .map_or(0, |f| f.len() as u64);
                    }
                    stats.peak_bytes = stats.peak_bytes.max(resident);
                }

                if observe {
                    for (li, buf) in bufs.iter().enumerate() {
                        *lk(&shared.snapshots[base + li]) = buf.clone();
                    }
                }
            }
            g += 1;
            barrier.wait(); // step traffic complete
            barrier.wait(); // released into the next step
        }

        if ph.rearrange_after {
            if !(dead || shared.abort.load(Ordering::Acquire)) {
                let pstats = &mut stats.phase[pi];
                for buf in bufs.iter_mut() {
                    let t0 = Instant::now();
                    let (bytes, blocks) = buf.rearrange();
                    pstats.rearrange += t0.elapsed();
                    // One fresh arena per node: it is frozen and retained
                    // by the blocks, so it can't be pooled.
                    pstats.allocations += 1;
                    pstats.rearranged_bytes += bytes;
                    pstats.rearr_blocks_max = pstats.rearr_blocks_max.max(blocks);
                }
                if observe {
                    for (li, buf) in bufs.iter().enumerate() {
                        *lk(&shared.snapshots[base + li]) = buf.clone();
                    }
                }
            }
            barrier.wait(); // rearrangement complete
            barrier.wait();
        }
    }
    (stats, pool, bufs)
}

/// The driving thread's half of the run: mirror every barrier the
/// workers cross, timestamping steps and phases and feeding the observer.
/// Crosses every barrier unconditionally, so it never hangs even when
/// workers are skipping an aborted run.
fn drive_barriers<S: Holdings>(
    shared: &RunShared<S>,
    mut hook: Option<&mut SyncHook<'_, S>>,
) -> (Vec<Duration>, Vec<Duration>, Duration) {
    let phases = &shared.layout.phases;
    let t_run = Instant::now();
    let mut phase_walls = Vec::with_capacity(phases.len());
    let mut step_walls = Vec::with_capacity(shared.layout.total_steps());
    for (pi, ph) in phases.iter().enumerate() {
        let t_phase = Instant::now();
        for si in 0..ph.steps {
            let t_step = Instant::now();
            shared.barrier.wait();
            step_walls.push(t_step.elapsed());
            if let Some(hook) = hook.as_deref_mut() {
                hook(pi, Some(si + 1), &shared.snapshots);
            }
            shared.barrier.wait();
        }
        if ph.rearrange_after {
            shared.barrier.wait();
            if let Some(hook) = hook.as_deref_mut() {
                hook(pi, None, &shared.snapshots);
            }
            shared.barrier.wait();
        }
        phase_walls.push(t_phase.elapsed());
    }
    (phase_walls, step_walls, t_run.elapsed())
}

/// Executes one schedule over worker threads — the crate's only
/// executor, shared by [`Runtime`] and
/// [`CollectiveRuntime`](crate::CollectiveRuntime).
///
/// Returns `Err` only for a worker panic; an injected or external abort
/// comes back as a report with `failure` set (see
/// [`Executed::check_failure`]). `hook`, when given, observes every
/// barrier with node snapshots.
pub(crate) fn execute<S: Holdings>(
    exec: Execution<S>,
    config: &RuntimeConfig,
    backend: ExecBackend<'_>,
    hook: Option<&mut SyncHook<'_, S>>,
) -> Result<Executed<S>, RuntimeError> {
    let Execution {
        plan,
        layout,
        stores,
        degrade_mode,
    } = exec;
    let nn = stores.len();
    // A pooled run can use at most the pool's threads: a gang larger
    // than the pool could never be scheduled.
    let workers = match backend {
        ExecBackend::Spawn => config.effective_workers(nn),
        ExecBackend::Pool(pool, _) => config.effective_workers(nn).min(pool.size()),
    };

    // Per-node inboxes. Senders are shared (any worker may deliver to
    // any node); each receiver is owned by the node's worker.
    let mut senders = Vec::with_capacity(nn);
    let mut receivers = Vec::with_capacity(nn);
    for _ in 0..nn {
        let (tx, rx) = unbounded::<WireFrame>();
        senders.push(tx);
        receivers.push(rx);
    }
    let chunk = nn.div_ceil(workers);
    let n_chunks = nn.div_ceil(chunk);
    let mut tasks: Vec<(usize, Vec<S>, Vec<Receiver<WireFrame>>)> = {
        let mut si = stores.into_iter();
        let mut ri = receivers.into_iter();
        (0..n_chunks)
            .map(|ci| {
                let take = chunk.min(nn - ci * chunk);
                (
                    ci * chunk,
                    si.by_ref().take(take).collect(),
                    ri.by_ref().take(take).collect(),
                )
            })
            .collect()
    };

    // The per-run shared context: owned/reference-counted so worker
    // tasks are `'static` and can execute on persistent pool threads as
    // well as scoped ones. Dropped at the end of the run, taking the
    // abort flag, retained frames, failure record, and channels with it
    // — one job's failure state cannot leak into the next job on a
    // shared pool.
    let shared = Arc::new(RunShared {
        plan,
        layout,
        faults: config.faults.clone(),
        retry: config.retry,
        degrade_mode,
        observe: hook.is_some(),
        senders,
        retained: (0..nn).map(|_| Mutex::new(None)).collect(),
        abort: AtomicBool::new(false),
        cancel: config.cancel.clone(),
        failure_slot: Mutex::new(None),
        barrier: Barrier::new(n_chunks + 1),
        snapshots: (0..nn).map(|_| Mutex::new(S::default())).collect(),
    });

    // Execute: workers run the schedule, the driving thread mirrors the
    // barrier sequence to measure walls and feed the observer.
    let mut stats: Vec<WorkerStats> = Vec::with_capacity(n_chunks);
    let mut finals: Vec<S> = Vec::with_capacity(nn);
    let mut panic_msg: Option<String> = None;
    let (phase_walls, step_walls, wall) = match backend {
        ExecBackend::Spawn => {
            let shared_ref = &shared;
            let joined = cb_thread::scope(|s| {
                let mut handles = Vec::with_capacity(n_chunks);
                for (base, bufs, rxs) in tasks.drain(..) {
                    let shared = Arc::clone(shared_ref);
                    handles.push(
                        s.spawn(move |_| worker_body(&shared, base, bufs, rxs, FramePool::new())),
                    );
                }
                let walls = drive_barriers(shared_ref, hook);
                let mut outs = Vec::with_capacity(handles.len());
                let mut panicked: Option<String> = None;
                for h in handles {
                    match h.join() {
                        Ok(out) => outs.push(out),
                        Err(p) => {
                            let msg = p
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_string())
                                .or_else(|| p.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "opaque panic payload".to_string());
                            panicked.get_or_insert(msg);
                        }
                    }
                }
                (outs, walls, panicked)
            });
            let (outs, walls, panicked) = match joined {
                Ok(v) => v,
                Err(_) => {
                    return Err(RuntimeError::WorkerPanicked(
                        "runtime scope panicked".to_string(),
                    ))
                }
            };
            for (ws, _pool, bufs) in outs {
                stats.push(ws);
                finals.extend(bufs);
            }
            panic_msg = panicked;
            walls
        }
        ExecBackend::Pool(pool, bank) => {
            // Atomically reserve all n_chunks threads (gang scheduling):
            // the run's tasks share a barrier, so a partial schedule
            // would deadlock.
            let mut gang = pool.gang(n_chunks);
            for (base, bufs, rxs) in tasks.drain(..) {
                let shared = Arc::clone(&shared);
                let fp = bank.map(PoolBank::take).unwrap_or_default();
                gang.spawn(move || worker_body(&shared, base, bufs, rxs, fp));
            }
            let walls = drive_barriers(&shared, hook);
            for result in gang.join() {
                match result {
                    Ok((ws, fp, bufs)) => {
                        // Check the warm frame pool back in for the next
                        // job on this bank.
                        if let Some(bank) = bank {
                            bank.put(fp);
                        }
                        stats.push(ws);
                        finals.extend(bufs);
                    }
                    Err(msg) => {
                        panic_msg.get_or_insert(msg);
                    }
                }
            }
            walls
        }
    };
    if let Some(msg) = panic_msg {
        return Err(RuntimeError::WorkerPanicked(msg));
    }

    // Aggregate worker measurements into the report and trace.
    let layout = &shared.layout;
    let mut trace = Trace::default();
    let mut phase_reports = Vec::with_capacity(layout.phases.len());
    let mut gbase = 0usize;
    for (pi, ph) in layout.phases.iter().enumerate() {
        trace.begin_phase(&ph.name);
        for si in 0..ph.steps {
            let g = gbase + si;
            let mut messages = 0u64;
            let mut blocks = 0u64;
            let mut max_blocks = 0u64;
            let mut retries = 0u64;
            for w in &stats {
                messages += w.steps[g].messages;
                blocks += w.steps[g].blocks;
                max_blocks = max_blocks.max(w.steps[g].max_blocks);
                retries += w.steps[g].retries;
            }
            trace.record_step(StepStat {
                messages: messages as u32,
                total_blocks: blocks,
                max_blocks,
                max_hops: layout.hops[g],
                retries,
                time_us: step_walls[g].as_secs_f64() * 1e6,
            });
        }
        gbase += ph.steps;

        let mut pr = PhaseReport {
            name: ph.name.clone(),
            steps: ph.steps,
            wall: phase_walls[pi],
            ..Default::default()
        };
        let mut rearr_max = 0u64;
        for w in &stats {
            let side = &w.phase[pi];
            pr.assembly += side.assembly;
            pr.transport += side.transport;
            pr.rearrange += side.rearrange;
            pr.wire_bytes += side.wire_bytes;
            pr.rearranged_bytes += side.rearranged_bytes;
            pr.bytes_copied += side.bytes_copied;
            pr.allocations += side.allocations;
            pr.messages += side.messages;
            rearr_max = rearr_max.max(side.rearr_blocks_max);
        }
        if ph.rearrange_after {
            trace.record_rearrangement(rearr_max);
        }
        phase_reports.push(pr);
    }

    let mut faults = RecoveryStats::default();
    let mut checks = ScheduleChecks::default();
    for w in &stats {
        faults.merge(&w.faults);
        checks.dropped_found += w.checks.dropped_found;
        checks.manifest_mismatches += w.checks.manifest_mismatches;
    }
    let report = RuntimeReport {
        dims: Vec::new(),
        executed_dims: Vec::new(),
        padded: false,
        nodes: 0,
        block_bytes: config.block_bytes,
        workers,
        wall,
        wire_bytes: phase_reports.iter().map(|p| p.wire_bytes).sum(),
        rearranged_bytes: phase_reports.iter().map(|p| p.rearranged_bytes).sum(),
        bytes_copied: phase_reports.iter().map(|p| p.bytes_copied).sum(),
        allocations: phase_reports.iter().map(|p| p.allocations).sum(),
        peak_node_bytes: stats.iter().map(|w| w.peak_bytes).max().unwrap_or(0),
        messages: phase_reports.iter().map(|p| p.messages).sum(),
        phases: phase_reports,
        verified: false,
        faults,
        fault_events: merge_events(stats.into_iter().map(|w| w.events).collect()),
        failure: lk(&shared.failure_slot).take(),
        degraded: None,
        analytic: CompletionTime::default(),
        trace,
    };
    Ok(Executed {
        report,
        finals,
        checks,
    })
}

/// A step as the all-to-all workers execute it: either a base-plan step
/// (block selection by the paper's per-phase rules) or a repaired step
/// (block selection by explicit per-node manifests).
#[derive(Clone, Copy)]
enum ExecStep<'a> {
    Base(&'a PlannedStep),
    Repaired(&'a RepairedStep),
}

impl ExecStep<'_> {
    fn hops(&self) -> u32 {
        match self {
            ExecStep::Base(st) => st.hops,
            ExecStep::Repaired(st) => st.hops,
        }
    }

    /// Where `node` sends this step, `None` if it idles.
    fn dst_of(&self, node: usize) -> Option<NodeId> {
        match self {
            ExecStep::Base(st) => st.sends[node].map(|s| s.dst),
            ExecStep::Repaired(st) => st.sends[node].as_ref().map(|s| s.dst),
        }
    }
}

/// A phase view unifying the base plan and a repaired schedule.
struct ExecPhase<'a> {
    name: &'a str,
    kind: PhaseKind,
    rearrange_after: bool,
    steps: Vec<ExecStep<'a>>,
}

/// The all-to-all schedule a run executes: the base plan, or a repaired
/// (degraded-mode) schedule over the same step grid plus drops,
/// manifests, and an optional trailing fallback phase.
pub(crate) struct AlltoallPlan {
    plan: Arc<StepPlan>,
    repaired: Option<Arc<RepairedSchedule>>,
    /// Global step -> (phase, step) index into whichever schedule runs.
    index: Vec<(usize, usize)>,
}

impl AlltoallPlan {
    fn new(plan: Arc<StepPlan>, repaired: Option<Arc<RepairedSchedule>>) -> Self {
        let mut this = Self {
            plan,
            repaired,
            index: Vec::new(),
        };
        this.index = this
            .phases()
            .iter()
            .enumerate()
            .flat_map(|(pi, ph)| (0..ph.steps.len()).map(move |si| (pi, si)))
            .collect();
        this
    }

    /// The unified phase view (vectors of references, cheap to build).
    fn phases(&self) -> Vec<ExecPhase<'_>> {
        match &self.repaired {
            None => self
                .plan
                .phases()
                .iter()
                .map(|ph| ExecPhase {
                    name: &ph.name,
                    kind: ph.kind,
                    rearrange_after: ph.rearrange_after,
                    steps: ph.steps.iter().map(ExecStep::Base).collect(),
                })
                .collect(),
            Some(rep) => rep
                .phases
                .iter()
                .map(|ph| ExecPhase {
                    name: &ph.name,
                    kind: ph.kind,
                    rearrange_after: ph.rearrange_after,
                    steps: ph.steps.iter().map(ExecStep::Repaired).collect(),
                })
                .collect(),
        }
    }

    fn step(&self, g: usize) -> ExecStep<'_> {
        let (pi, si) = self.index[g];
        match &self.repaired {
            None => ExecStep::Base(&self.plan.phases()[pi].steps[si]),
            Some(rep) => ExecStep::Repaired(&rep.phases[pi].steps[si]),
        }
    }

    /// The step grid for `nn` canonical nodes, plus each phase's kind
    /// (for the observer).
    fn layout(&self, nn: usize) -> (Layout, Vec<PhaseKind>) {
        let phases = self.phases();
        let steps = phases.iter().flat_map(|ph| &ph.steps);
        let layout = Layout {
            phases: phases
                .iter()
                .map(|ph| PhaseLayout {
                    name: ph.name.to_string(),
                    steps: ph.steps.len(),
                    rearrange_after: ph.rearrange_after,
                })
                .collect(),
            hops: steps.clone().map(ExecStep::hops).collect(),
            expect_from: steps
                .map(|st| {
                    let mut from = vec![None; nn];
                    for node in 0..nn {
                        if let Some(dst) = st.dst_of(node) {
                            from[dst as usize] = Some(node as NodeId);
                        }
                    }
                    from
                })
                .collect(),
        };
        (layout, phases.iter().map(|ph| ph.kind).collect())
    }
}

/// The all-to-all node buffer: blocks in arrival order, compacted into
/// delivery order by each inter-phase rearrangement.
impl Holdings for Vec<Block<Bytes>> {
    type Plan = AlltoallPlan;

    fn select(
        &mut self,
        plan: &AlltoallPlan,
        g: usize,
        node: NodeId,
        out: &mut Vec<Block<Bytes>>,
        checks: &mut ScheduleChecks,
    ) -> Option<NodeId> {
        match plan.step(g) {
            ExecStep::Base(st) => {
                let dst = st.sends[node as usize]?.dst;
                let decrement = StepPlan::shift_decrement(st);
                self.retain_mut(|b| {
                    if !plan.plan.selects(st, node, b) {
                        return true;
                    }
                    if let Some(p) = decrement {
                        b.shifts[p] -= 1;
                    }
                    out.push(std::mem::replace(
                        b,
                        Block::with_payload(0, 0, Bytes::new()),
                    ));
                    false
                });
                Some(dst)
            }
            ExecStep::Repaired(st) => {
                // Degraded mode: quarantine drops take effect at step
                // entry, before any send.
                if let Ok(i) = st.drops.binary_search_by_key(&node, |(holder, _)| *holder) {
                    let pairs = &st.drops[i].1;
                    let before = self.len();
                    self.retain(|b| pairs.binary_search(&(b.src, b.dst)).is_err());
                    checks.dropped_found += (before - self.len()) as u64;
                }
                // Manifest-driven: the repaired plan lists the exact
                // (src, dst) pairs to fold in. No shift bookkeeping —
                // repaired selection never reads it.
                let spec = st.sends[node as usize].as_ref()?;
                self.retain_mut(|b| {
                    if spec.pairs.binary_search(&(b.src, b.dst)).is_err() {
                        return true;
                    }
                    out.push(std::mem::replace(
                        b,
                        Block::with_payload(0, 0, Bytes::new()),
                    ));
                    false
                });
                if out.len() != spec.pairs.len() {
                    checks.manifest_mismatches += 1;
                }
                Some(spec.dst)
            }
        }
    }

    fn absorb(&mut self, _plan: &AlltoallPlan, incoming: &mut Vec<Block<Bytes>>) {
        self.append(incoming);
    }

    /// The paper's inter-phase rearrangement: compact the node's data
    /// array into delivery order with one contiguous copy pass. Its copy
    /// volume is `rearranged_bytes`, kept apart from the send path's
    /// `bytes_copied`.
    fn rearrange(&mut self) -> (u64, u64) {
        self.sort_by_key(|b| (b.dst, b.src));
        let total: usize = self.iter().map(|b| b.payload.len()).sum();
        let mut arena = BytesMut::with_capacity(total);
        for b in self.iter() {
            arena.extend_from_slice(&b.payload);
        }
        let arena = arena.freeze();
        let mut off = 0usize;
        for b in self.iter_mut() {
            let len = b.payload.len();
            b.payload = arena.slice(off..off + len);
            off += len;
        }
        (total as u64, self.len() as u64)
    }

    fn resident_bytes(&self) -> u64 {
        self.iter().map(|b| b.payload.len() as u64).sum()
    }
}

/// Everything a degraded-mode execution needs beyond the base plan.
struct DegradeCtx {
    repaired: Arc<RepairedSchedule>,
    dead_nodes: Vec<DeadNode>,
    restarts: u32,
}

fn snapshot_buffers(slots: &[Mutex<Vec<Block<Bytes>>>]) -> Buffers<Bytes> {
    Buffers::from_vecs(slots.iter().map(|m| lk(m).clone()).collect())
}

impl Runtime {
    /// Prepares a runtime for `shape` (any extents; padding applies).
    pub fn new(shape: &TorusShape, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        Ok(Self::from_prepared(PreparedExchange::new(shape)?, config))
    }

    /// Wraps an existing [`PreparedExchange`] (shares its cached seeding
    /// and verification tables).
    pub fn from_prepared(prepared: PreparedExchange, config: RuntimeConfig) -> Self {
        let prepared = Arc::new(prepared);
        let plan = prepared.step_plan_arc();
        Self {
            prepared,
            plan,
            config,
        }
    }

    /// Builds a runtime over *shared* schedule state: a plan-cache entry
    /// serving many concurrent jobs hands every job the same
    /// reference-counted [`PreparedExchange`] and [`StepPlan`], so
    /// steady-state job construction does no schedule work at all.
    pub fn from_shared(
        prepared: Arc<PreparedExchange>,
        plan: Arc<StepPlan>,
        config: RuntimeConfig,
    ) -> Self {
        Self {
            prepared,
            plan,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The step plan being executed.
    pub fn plan(&self) -> &StepPlan {
        &self.plan
    }

    /// The underlying prepared exchange.
    pub fn prepared(&self) -> &PreparedExchange {
        &self.prepared
    }

    /// The worker count a run will use on the spawn (non-pooled) path.
    /// Pooled runs additionally clamp to the pool's size.
    pub fn effective_workers(&self) -> usize {
        self.config
            .effective_workers(self.plan.shape().num_nodes() as usize)
    }

    /// Runs one exchange with deterministic per-pair pattern payloads of
    /// [`block_bytes`](RuntimeConfig::block_bytes) each, and verifies
    /// delivery bit-exactly. This is the standard measurement entry point.
    pub fn run(&self) -> Result<RuntimeReport, RuntimeError> {
        let m = self.config.block_bytes;
        self.run_policy(
            ExecBackend::Spawn,
            &mut NullObserver,
            |s, d| pattern_payload(s, d, m),
            false,
        )
        .map(|(report, _)| report)
    }

    /// The service entry point: executes on a persistent [`WorkerPool`]
    /// with caller-provided payloads, optionally recycling warm frame
    /// pools through `bank` so repeated jobs stay allocation-free.
    /// Returns the report plus per-node deliveries like
    /// [`run_with_payloads`](Self::run_with_payloads). The configured
    /// [`OnFailure`] policy applies per-run: an abort or quarantine is
    /// confined to this run's state and never poisons the pool.
    #[allow(clippy::type_complexity)]
    pub fn run_pooled<F>(
        &self,
        pool: &WorkerPool,
        bank: Option<&PoolBank>,
        payload: F,
    ) -> Result<(RuntimeReport, Vec<Vec<(NodeId, Bytes)>>), RuntimeError>
    where
        F: FnMut(NodeId, NodeId) -> Bytes,
    {
        self.run_policy(
            ExecBackend::Pool(pool, bank),
            &mut NullObserver,
            payload,
            false,
        )
    }

    /// Runs one exchange carrying caller-provided payloads:
    /// `payload(src, dst)` (original node ids) produces each block's
    /// bytes (lengths may vary per pair). Returns the report plus, for
    /// every original node, the delivered `(source, payload)` pairs
    /// sorted by source.
    #[allow(clippy::type_complexity)]
    pub fn run_with_payloads<F>(
        &self,
        payload: F,
    ) -> Result<(RuntimeReport, Vec<Vec<(NodeId, Bytes)>>), RuntimeError>
    where
        F: FnMut(NodeId, NodeId) -> Bytes,
    {
        self.run_policy(ExecBackend::Spawn, &mut NullObserver, payload, false)
    }

    /// Runs with pattern payloads and an [`Observer`] receiving per-step
    /// buffer snapshots (canonical node ids) — the same interface the
    /// analytic executor drives the figure harness with.
    pub fn run_observed<O: Observer<Bytes>>(
        &self,
        observer: &mut O,
    ) -> Result<RuntimeReport, RuntimeError> {
        let m = self.config.block_bytes;
        self.run_policy(
            ExecBackend::Spawn,
            observer,
            |s, d| pattern_payload(s, d, m),
            true,
        )
        .map(|(report, _)| report)
    }

    /// Routes a run through the configured [`OnFailure`] policy.
    #[allow(clippy::type_complexity)]
    fn run_policy<F, O>(
        &self,
        backend: ExecBackend<'_>,
        observer: &mut O,
        payload: F,
        observe: bool,
    ) -> Result<(RuntimeReport, Vec<Vec<(NodeId, Bytes)>>), RuntimeError>
    where
        F: FnMut(NodeId, NodeId) -> Bytes,
        O: Observer<Bytes>,
    {
        match self.config.on_failure {
            OnFailure::Abort => self.run_impl(backend, observer, payload, observe, None),
            OnFailure::Degrade => self.run_degrade(backend, observer, payload, observe),
        }
    }

    /// Degraded-mode driver: quarantine failed nodes and execute a
    /// repaired schedule that completes for the survivors.
    ///
    /// Pinned kills are known up front, so they seed the quarantine set
    /// directly and the first execution already runs repaired. Dynamic
    /// failures (an exhausted retry budget, an unrecoverable integrity
    /// error) surface as an aborted run naming the culprit node; the
    /// driver quarantines it from the step it failed at, replans, and
    /// restarts from freshly seeded buffers. Each restart permanently
    /// removes one node, and the restart budget bounds the loop.
    #[allow(clippy::type_complexity)]
    fn run_degrade<F, O>(
        &self,
        backend: ExecBackend<'_>,
        observer: &mut O,
        mut payload: F,
        observe: bool,
    ) -> Result<(RuntimeReport, Vec<Vec<(NodeId, Bytes)>>), RuntimeError>
    where
        F: FnMut(NodeId, NodeId) -> Bytes,
        O: Observer<Bytes>,
    {
        const MAX_RESTARTS: u32 = 8;
        let exchange = self.prepared.exchange();
        let base_total = self.plan.total_steps();
        let mut quarantine: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut reasons: BTreeMap<NodeId, FailureReason> = BTreeMap::new();
        // Kills pinned at or past the end of the base plan would never
        // fire in the base schedule; they are ignored rather than
        // quarantined.
        for (step, node) in self.config.faults.kills() {
            if step < base_total {
                quarantine.entry(node).or_insert(step);
                reasons
                    .entry(node)
                    .or_insert(FailureReason::WorkerKilled { node });
            }
        }
        let mut restarts = 0u32;
        loop {
            let result = if quarantine.is_empty() {
                // Nothing dead (yet): the base plan as-is.
                self.run_impl(backend, observer, &mut payload, observe, None)
            } else {
                let repaired = Arc::new(RepairedSchedule::plan(
                    &self.plan,
                    self.prepared.seeded_blocks(),
                    &quarantine,
                )?);
                let dead_nodes = repaired
                    .dead
                    .iter()
                    .map(|&(node, quarantine_step)| DeadNode {
                        node,
                        original: exchange.from_canonical(node),
                        quarantine_step,
                        reason: reasons
                            .get(&node)
                            .copied()
                            .unwrap_or(FailureReason::NodeDead { node }),
                    })
                    .collect();
                let ctx = DegradeCtx {
                    repaired,
                    dead_nodes,
                    restarts,
                };
                self.run_impl(backend, observer, &mut payload, observe, Some(&ctx))
            };
            let (failure, report) = match result {
                Err(RuntimeError::Aborted { failure, report }) => (failure, report),
                other => return other,
            };
            // Quarantine can only repair failures that name a culprit
            // node; anything else — and a repeat offender, which means
            // quarantining it did not help — aborts for real.
            let culprit = match failure.reason {
                FailureReason::RetryExhausted { src } => Some(src),
                FailureReason::Integrity { src, .. } => Some(src),
                FailureReason::WorkerKilled { node } => Some(node),
                // Cancellation and deadline expiry are verdicts on the
                // whole run, not on one node — no quarantine can help.
                FailureReason::NodeDead { .. }
                | FailureReason::ChannelClosed
                | FailureReason::Cancelled
                | FailureReason::DeadlineExceeded => None,
            };
            match culprit {
                Some(node) if restarts < MAX_RESTARTS && !quarantine.contains_key(&node) => {
                    quarantine.insert(node, failure.global_step.min(base_total));
                    reasons.insert(node, failure.reason);
                    restarts += 1;
                }
                _ => return Err(RuntimeError::Aborted { failure, report }),
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn run_impl<F, O>(
        &self,
        backend: ExecBackend<'_>,
        observer: &mut O,
        mut payload: F,
        observe: bool,
        degrade: Option<&DegradeCtx>,
    ) -> Result<(RuntimeReport, Vec<Vec<(NodeId, Bytes)>>), RuntimeError>
    where
        F: FnMut(NodeId, NodeId) -> Bytes,
        O: Observer<Bytes>,
    {
        let exchange = self.prepared.exchange();
        let canon = self.plan.shape();
        let nn = canon.num_nodes() as usize;

        // Seed data-carrying buffers from the cached counting state; keep
        // every pair's bytes for the post-run bit-exact comparison.
        let mut expected_payloads: HashMap<(NodeId, NodeId), Bytes> = HashMap::new();
        let mut node_bufs: Vec<Vec<Block<Bytes>>> = Vec::with_capacity(nn);
        for blocks in self.prepared.seeded_blocks() {
            let mut out = Vec::with_capacity(blocks.len());
            for b in blocks {
                let os = exchange
                    .from_canonical(b.src)
                    .ok_or(RuntimeError::UnmappedNode {
                        node: b.src,
                        phase: String::from("seeding"),
                        step: 0,
                    })?;
                let od = exchange
                    .from_canonical(b.dst)
                    .ok_or(RuntimeError::UnmappedNode {
                        node: b.dst,
                        phase: String::from("seeding"),
                        step: 0,
                    })?;
                let bytes = payload(os, od);
                expected_payloads.insert((b.src, b.dst), bytes.clone());
                let mut nb = Block::with_payload(b.src, b.dst, bytes);
                nb.shifts = b.shifts;
                out.push(nb);
            }
            node_bufs.push(out);
        }
        if observe {
            observer.on_start(&Buffers::from_vecs(node_bufs.clone()));
        }

        // The base-plan phases, or the repaired phases when running
        // degraded, laid out as the executor's step grid.
        let plan = AlltoallPlan::new(
            Arc::clone(&self.plan),
            degrade.map(|ctx| Arc::clone(&ctx.repaired)),
        );
        let (layout, kinds) = plan.layout(nn);
        let mut hook = |pi: usize, step: Option<usize>, snaps: &[Mutex<Vec<Block<Bytes>>>]| {
            let bufs = snapshot_buffers(snaps);
            match step {
                Some(si) => observer.on_step(kinds[pi], si, &bufs),
                None => observer.on_rearrange(kinds[pi], &bufs),
            }
        };
        let mut run = execute(
            Execution {
                plan,
                layout,
                stores: node_bufs,
                degrade_mode: degrade.is_some(),
            },
            &self.config,
            backend,
            observe.then_some(&mut hook as &mut SyncHook<'_, _>),
        )?;
        let params = self
            .config
            .params
            .with_block_bytes(self.config.block_bytes as u32);
        let real_n = exchange.shape_ref().num_nodes();
        run.report.dims = exchange.shape_ref().dims().to_vec();
        run.report.executed_dims = canon.dims().to_vec();
        run.report.padded = exchange.is_padded();
        run.report.nodes = real_n;
        run.report.analytic =
            CompletionTime::from_counts(&cost_model::proposed_nd(canon.dims()), &params);
        let Executed {
            mut report,
            finals,
            checks,
        } = run.check_failure()?;

        // Verify the final buffers: right delivery set, and every payload
        // bit-exactly as seeded. Degraded runs check the survivor
        // invariant instead (dead nodes empty, every survivor→survivor
        // block delivered) and cross-check the executed drops against the
        // repaired plan.
        let buffers = Buffers::from_vecs(finals);
        match degrade {
            None => verify_delivery(&buffers, self.prepared.expected_delivery())
                .map_err(|e| RuntimeError::Verification(e.to_string()))?,
            Some(ctx) => {
                let dead = ctx.repaired.dead_nodes();
                verify_delivery_degraded(&buffers, self.prepared.expected_delivery(), &dead)
                    .map_err(|e| RuntimeError::Verification(e.to_string()))?;
                let found = checks.dropped_found;
                if found != ctx.repaired.dropped.len() as u64 {
                    return Err(RuntimeError::Verification(format!(
                        "degraded run discarded {found} blocks but the repaired schedule \
                         planned {} drops",
                        ctx.repaired.dropped.len()
                    )));
                }
                let mismatches = checks.manifest_mismatches;
                if mismatches != 0 {
                    return Err(RuntimeError::Verification(format!(
                        "{mismatches} repaired sends drained a different block set than \
                         their manifests list"
                    )));
                }
            }
        }
        for node in 0..nn as NodeId {
            for b in buffers.node(node) {
                match expected_payloads.get(&(b.src, b.dst)) {
                    Some(expected) if *expected == b.payload => {}
                    Some(_) => {
                        return Err(RuntimeError::Verification(format!(
                            "payload corruption: block ({} -> {}) differs from seeded bytes",
                            b.src, b.dst
                        )))
                    }
                    None => {
                        return Err(RuntimeError::Verification(format!(
                            "unseeded block ({} -> {}) delivered",
                            b.src, b.dst
                        )))
                    }
                }
            }
        }
        // Full verification holds only for fault-free delivery; degraded
        // runs record the survivor verification in the degraded report.
        report.verified = degrade.is_none();
        if let Some(ctx) = degrade {
            // The fault-free baseline for the same payload set: one
            // message header per scheduled send, and each block's framing
            // + payload once per wire crossing the base plan gives it.
            let baseline: u64 = ctx.repaired.base_messages * MESSAGE_HEADER_BYTES as u64
                + ctx
                    .repaired
                    .base_tx
                    .iter()
                    .map(|&((s, d), n)| {
                        let len = expected_payloads.get(&(s, d)).map_or(0, Bytes::len) as u64;
                        n * (BLOCK_HEADER_BYTES as u64 + len)
                    })
                    .sum::<u64>();
            report.degraded = Some(DegradedReport {
                dead_nodes: ctx.dead_nodes.clone(),
                dropped_blocks: ctx.repaired.dropped.len() as u64,
                dropped: ctx.repaired.dropped.clone(),
                contracted_rings: ctx.repaired.contracted_rings,
                contracted_sends: ctx.repaired.contracted_sends,
                fallback_steps: ctx.repaired.fallback_steps,
                fallback_blocks: ctx.repaired.fallback_blocks,
                baseline_wire_bytes: baseline,
                extra_wire_bytes: report.wire_bytes as i64 - baseline as i64,
                restarts: ctx.restarts,
                verified_degraded: true,
            });
        }

        // Deliveries in original ids, sorted by source (same contract as
        // `Exchange::run_with_payloads`). Quarantined nodes end with
        // empty buffers, so their delivery lists are empty.
        let mut deliveries: Vec<Vec<(NodeId, Bytes)>> = vec![Vec::new(); real_n as usize];
        for d in 0..real_n {
            let cd = exchange.to_canonical(d);
            let mut got: Vec<(NodeId, Bytes)> = Vec::with_capacity(buffers.node(cd).len());
            for b in buffers.node(cd) {
                let os = exchange
                    .from_canonical(b.src)
                    .ok_or(RuntimeError::UnmappedNode {
                        node: b.src,
                        phase: String::from("delivery"),
                        step: 0,
                    })?;
                got.push((os, b.payload.clone()));
            }
            got.sort_by_key(|(s, _)| *s);
            deliveries[d as usize] = got;
        }
        Ok((report, deliveries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{BLOCK_HEADER_BYTES, MESSAGE_HEADER_BYTES};
    use alltoall_core::PhaseKind;

    fn runtime(dims: &[u32], config: RuntimeConfig) -> Runtime {
        Runtime::new(&TorusShape::new(dims).unwrap(), config).unwrap()
    }

    fn quick_retry() -> RetryPolicy {
        RetryPolicy::default()
            .with_deadline(Duration::from_millis(20))
            .with_backoff(Duration::from_micros(200))
    }

    #[test]
    fn run_4x4_verifies_bit_exact() {
        let r = runtime(&[4, 4], RuntimeConfig::default()).run().unwrap();
        assert!(r.verified);
        assert_eq!(r.phases.len(), 4);
        // a1 = 4: scatter phases are empty; submesh phases do 2 + 2 steps.
        assert_eq!(r.total_steps(), 4);
        assert!(r.messages > 0);
        assert!(r.wall > Duration::ZERO);
    }

    #[test]
    fn run_8x12_verifies_and_reports() {
        let r = runtime(&[8, 12], RuntimeConfig::default().with_workers(4))
            .run()
            .unwrap();
        assert!(r.verified);
        assert_eq!(r.executed_dims, vec![12, 8]); // canonicalized
        assert!(!r.padded);
        assert_eq!(r.total_steps(), 2 * (12 / 4 + 1));
        assert_eq!(r.trace.total_steps(), r.total_steps());
        assert_eq!(r.workers, 4);
        // Per-phase walls and bytes are populated.
        assert!(r.phases.iter().all(|p| p.wall > Duration::ZERO));
        assert!(r.phases.iter().take(3).all(|p| p.rearranged_bytes > 0));
        assert_eq!(r.phases.last().unwrap().rearranged_bytes, 0);
        assert!(r.wire_bytes > 0);
        assert!(r.peak_node_bytes > 0);
    }

    #[test]
    fn run_4x4x4_verifies() {
        let r = runtime(&[4, 4, 4], RuntimeConfig::default().with_workers(8))
            .run()
            .unwrap();
        assert!(r.verified);
        assert_eq!(r.phases.len(), 5);
        assert_eq!(r.total_steps(), 3 * (4 / 4 + 1));
    }

    #[test]
    fn padded_6x6_runs_real_pairs_only() {
        let r = runtime(&[6, 6], RuntimeConfig::default().with_workers(3))
            .run()
            .unwrap();
        assert!(r.verified);
        assert!(r.padded);
        assert_eq!(r.executed_dims, vec![8, 8]);
        assert_eq!(r.nodes, 36);
    }

    #[test]
    fn wire_volume_accounts_exactly() {
        // Every block is block_bytes long, so total wire bytes must equal
        // message framing + per-block framing + payloads.
        let r = runtime(&[8, 8], RuntimeConfig::default().with_block_bytes(32))
            .run()
            .unwrap();
        let total_blocks: u64 = r
            .trace
            .phases
            .iter()
            .flat_map(|p| p.steps.iter())
            .map(|s| s.total_blocks)
            .sum();
        let expected = r.messages * MESSAGE_HEADER_BYTES as u64
            + total_blocks * (BLOCK_HEADER_BYTES as u64 + 32);
        assert_eq!(r.wire_bytes, expected);
    }

    #[test]
    fn fault_free_copies_are_header_only() {
        // The zero-copy acceptance invariant: on the fault-free path the
        // send side copies framing only, never payload bytes.
        let r = runtime(&[8, 8], RuntimeConfig::default().with_block_bytes(32))
            .run()
            .unwrap();
        let total_blocks: u64 = r
            .trace
            .phases
            .iter()
            .flat_map(|p| p.steps.iter())
            .map(|s| s.total_blocks)
            .sum();
        assert_eq!(
            r.bytes_copied,
            r.messages * MESSAGE_HEADER_BYTES as u64 + total_blocks * BLOCK_HEADER_BYTES as u64
        );
        assert!(r.bytes_copied < r.wire_bytes);
    }

    #[test]
    fn cancel_token_aborts_stalled_run_with_partial_report() {
        // A pinned 5 s stall would hold the run hostage; an external
        // cancel must interrupt it mid-sleep and surface as a typed
        // Cancelled abort with the partial report.
        let token = CancelToken::new();
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::seeded(1).with_worker_fault(
                0,
                0,
                WorkerFaultKind::StallMicros(5_000_000),
            ))
            .with_retry(
                RetryPolicy::default()
                    .with_deadline(Duration::from_secs(30))
                    .with_max_retries(64),
            )
            .with_cancel_token(token.clone());
        let rt = runtime(&[4, 4], cfg);
        let t0 = Instant::now();
        let handle = std::thread::spawn(move || rt.run());
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
        let err = handle.join().unwrap().unwrap_err();
        match err {
            RuntimeError::Aborted { failure, report } => {
                assert_eq!(failure.reason, FailureReason::Cancelled);
                assert!(!report.verified);
            }
            other => panic!("expected Aborted, got {other}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "cancel must interrupt the stall, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn expired_token_reports_deadline_exceeded() {
        // Pre-expired token: the run aborts at the first step boundary.
        let token = CancelToken::new();
        token.expire();
        let cfg = RuntimeConfig::default()
            .with_workers(2)
            .with_cancel_token(token);
        let err = runtime(&[4, 4], cfg).run().unwrap_err();
        match err {
            RuntimeError::Aborted { failure, .. } => {
                assert_eq!(failure.reason, FailureReason::DeadlineExceeded);
            }
            other => panic!("expected Aborted, got {other}"),
        }
    }

    #[test]
    fn untriggered_token_changes_nothing() {
        let token = CancelToken::new();
        let cfg = RuntimeConfig::default()
            .with_workers(3)
            .with_cancel_token(token.clone());
        let r = runtime(&[4, 4], cfg).run().unwrap();
        assert!(r.verified);
        // Triggering after the run finished is a harmless no-op.
        assert!(token.cancel());
    }

    #[test]
    fn fault_plans_materialize_full_frames() {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::seeded(1).with_drop_rate(1.0))
            .with_retry(quick_retry());
        let r = runtime(&[4, 4], cfg).run().unwrap();
        // Contiguous encoding copies every frame byte exactly once.
        assert_eq!(r.bytes_copied, r.wire_bytes);
    }

    #[test]
    fn steady_state_allocations_are_payload_size_independent() {
        // Pool misses depend on frame counts and framing capacity, never
        // on payload bytes; a single worker makes the schedule (and so
        // the pool traffic) deterministic.
        let mk = |bytes| {
            runtime(
                &[4, 4],
                RuntimeConfig::default()
                    .with_workers(1)
                    .with_block_bytes(bytes),
            )
            .run()
            .unwrap()
        };
        let small = mk(16);
        let large = mk(1024);
        assert!(small.allocations > 0);
        assert_eq!(small.allocations, large.allocations);
        // Warm pools: far fewer allocator hits than one per message.
        assert!(small.allocations < 2 * small.messages);
    }

    #[test]
    fn retained_frames_count_toward_peak_residency() {
        let clean = runtime(&[4, 4], RuntimeConfig::default().with_workers(2))
            .run()
            .unwrap();
        let cfg = RuntimeConfig::default()
            .with_workers(2)
            .with_faults(FaultPlan::seeded(3).with_drop_rate(1.0))
            .with_retry(quick_retry());
        let faulty = runtime(&[4, 4], cfg).run().unwrap();
        // Same schedule, same buffers — but the faulty run also holds
        // every node's retained recovery frame in memory.
        assert!(
            faulty.peak_node_bytes > clean.peak_node_bytes,
            "retained frames must be counted: faulty {} vs clean {}",
            faulty.peak_node_bytes,
            clean.peak_node_bytes
        );
    }

    #[test]
    fn worker_counts_change_nothing_observable() {
        let mk = |workers| {
            let rt = runtime(&[8, 8], RuntimeConfig::default().with_workers(workers));
            let (r, deliveries) = rt
                .run_with_payloads(|s, d| pattern_payload(s, d, 48))
                .unwrap();
            (r, deliveries)
        };
        let (r1, d1) = mk(1);
        let (r5, d5) = mk(5);
        let (r64, d64) = mk(64);
        assert_eq!(d1, d5);
        assert_eq!(d1, d64);
        assert_eq!(r1.wire_bytes, r5.wire_bytes);
        assert_eq!(r1.wire_bytes, r64.wire_bytes);
        assert_eq!(r1.messages, r64.messages);
        assert_eq!(r1.workers, 1);
        assert_eq!(r64.workers, 64);
    }

    #[test]
    fn custom_payloads_deliver_sorted_by_source() {
        let rt = runtime(&[4, 8], RuntimeConfig::default());
        let (r, deliveries) = rt
            .run_with_payloads(|s, d| {
                // Variable lengths: pair-dependent.
                pattern_payload(s, d, ((s + 2 * d) % 7) as usize * 9)
            })
            .unwrap();
        assert!(r.verified);
        let n = 32u32;
        assert_eq!(deliveries.len(), n as usize);
        for (d, got) in deliveries.iter().enumerate() {
            let d = d as u32;
            assert_eq!(got.len(), n as usize - 1);
            let srcs: Vec<NodeId> = got.iter().map(|(s, _)| *s).collect();
            let expected_srcs: Vec<NodeId> = (0..n).filter(|&s| s != d).collect();
            assert_eq!(srcs, expected_srcs);
            for (s, p) in got {
                assert_eq!(*p, pattern_payload(*s, d, ((s + 2 * d) % 7) as usize * 9));
            }
        }
    }

    #[test]
    fn observer_sees_every_step_and_rearrangement() {
        struct Counting {
            starts: usize,
            steps: Vec<(PhaseKind, usize)>,
            rearranges: Vec<PhaseKind>,
            blocks_constant: bool,
            expect: u64,
        }
        impl Observer<Bytes> for Counting {
            fn on_start(&mut self, bufs: &Buffers<Bytes>) {
                self.starts += 1;
                self.expect = bufs.total_blocks();
            }
            fn on_step(&mut self, phase: PhaseKind, step: usize, bufs: &Buffers<Bytes>) {
                self.steps.push((phase, step));
                self.blocks_constant &= bufs.total_blocks() == self.expect;
            }
            fn on_rearrange(&mut self, phase: PhaseKind, bufs: &Buffers<Bytes>) {
                self.rearranges.push(phase);
                self.blocks_constant &= bufs.total_blocks() == self.expect;
            }
        }
        let mut obs = Counting {
            starts: 0,
            steps: Vec::new(),
            rearranges: Vec::new(),
            blocks_constant: true,
            expect: 0,
        };
        let rt = runtime(&[8, 8], RuntimeConfig::default().with_workers(4));
        let r = rt.run_observed(&mut obs).unwrap();
        assert!(r.verified);
        assert_eq!(obs.starts, 1);
        assert_eq!(obs.steps.len(), r.total_steps());
        // n + 1 rearrangements for n + 2 phases.
        assert_eq!(obs.rearranges.len(), 3);
        assert_eq!(
            obs.rearranges,
            vec![
                PhaseKind::Scatter { index: 0 },
                PhaseKind::Scatter { index: 1 },
                PhaseKind::Distance2,
            ]
        );
        assert!(
            obs.blocks_constant,
            "blocks must be conserved at every step"
        );
        // Step numbering matches the analytic executor: 1-based per phase.
        assert_eq!(obs.steps[0], (PhaseKind::Scatter { index: 0 }, 1));
    }

    #[test]
    fn matches_analytic_executor_delivery() {
        // Byte-moving runtime and counting executor agree block-for-block.
        let shape = TorusShape::new(&[8, 8]).unwrap();
        let rt = Runtime::new(&shape, RuntimeConfig::default().with_workers(4)).unwrap();
        let (_, rt_deliveries) = rt
            .run_with_payloads(|s, d| pattern_payload(s, d, 16))
            .unwrap();
        let (report, ex_deliveries) = alltoall_core::Exchange::new(&shape)
            .unwrap()
            .run_with_payloads(&CommParams::unit(), |s, d| pattern_payload(s, d, 16))
            .unwrap();
        assert!(report.verified);
        assert_eq!(rt_deliveries, ex_deliveries);
    }

    #[test]
    fn effective_workers_resolution() {
        let rt = runtime(&[4, 4], RuntimeConfig::default().with_workers(99));
        assert_eq!(rt.effective_workers(), 16); // clamped to node count
        let rt = runtime(&[4, 4], RuntimeConfig::default().with_workers(3));
        assert_eq!(rt.effective_workers(), 3);
    }

    #[test]
    fn analytic_prediction_uses_configured_block_size() {
        let small = runtime(&[8, 8], RuntimeConfig::default().with_block_bytes(16))
            .run()
            .unwrap();
        let large = runtime(&[8, 8], RuntimeConfig::default().with_block_bytes(256))
            .run()
            .unwrap();
        assert!(large.analytic.transmission > small.analytic.transmission);
        assert_eq!(small.analytic.startup, large.analytic.startup);
    }

    #[test]
    fn zero_fault_run_is_clean() {
        let r = runtime(&[4, 4], RuntimeConfig::default()).run().unwrap();
        assert!(r.faults.is_clean());
        assert!(r.fault_events.is_empty());
        assert!(r.failure.is_none());
    }

    #[test]
    fn every_transmission_dropped_still_delivers_bit_exact() {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::seeded(1).with_drop_rate(1.0))
            .with_retry(quick_retry());
        let r = runtime(&[4, 4], cfg).run().unwrap();
        assert!(r.verified);
        assert!(r.failure.is_none());
        // Every scheduled transmission was dropped, and every scheduled
        // receive was healed from the sender's retained frame.
        assert_eq!(r.faults.injected_drops, r.messages);
        assert_eq!(r.faults.recovered, r.messages);
        assert!(r.faults.timeouts >= r.messages);
        assert!(r.faults.resends >= r.messages);
        assert_eq!(r.fault_events.len() as u64, r.messages);
    }

    #[test]
    fn corrupted_frames_are_detected_and_recovered() {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::seeded(2).with_corrupt_rate(1.0))
            .with_retry(quick_retry());
        let r = runtime(&[4, 4], cfg).run().unwrap();
        assert!(r.verified);
        assert_eq!(r.faults.injected_corruptions, r.messages);
        // Every corruption tripped an integrity check, never delivery.
        assert!(r.faults.crc_failures + r.faults.decode_failures >= r.messages);
        assert_eq!(r.faults.recovered, r.messages);
    }

    #[test]
    fn seeded_fault_runs_reproduce_identical_counters_and_events() {
        let mk = || {
            let cfg = RuntimeConfig::default()
                .with_workers(4)
                .with_faults(
                    FaultPlan::seeded(42)
                        .with_drop_rate(0.2)
                        .with_corrupt_rate(0.1),
                )
                .with_retry(quick_retry());
            runtime(&[4, 8], cfg).run().unwrap()
        };
        let a = mk();
        let b = mk();
        assert!(a.faults.total_injected() > 0, "plan must actually fire");
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.fault_events, b.fault_events);
        assert!(a.verified && b.verified);
    }

    #[test]
    fn killed_worker_aborts_with_typed_error_and_partial_report() {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::default().with_worker_fault(1, 3, WorkerFaultKind::Kill))
            .with_retry(
                quick_retry()
                    .with_deadline(Duration::from_millis(10))
                    .with_max_retries(1),
            );
        let err = runtime(&[4, 4], cfg).run().unwrap_err();
        match err {
            RuntimeError::Aborted { failure, report } => {
                assert_eq!(failure.node, 3);
                assert_eq!(failure.reason, FailureReason::WorkerKilled { node: 3 });
                assert_eq!(failure.global_step, 1);
                assert!(!report.verified);
                assert_eq!(report.faults.injected_kills, 1);
                assert_eq!(report.failure.as_ref().unwrap().node, 3);
            }
            other => panic!("expected Aborted, got {other}"),
        }
    }

    #[test]
    fn degrade_policy_completes_after_pinned_kill() {
        let cfg = RuntimeConfig::default()
            .with_workers(4)
            .with_faults(FaultPlan::default().with_worker_fault(1, 3, WorkerFaultKind::Kill))
            .with_retry(quick_retry())
            .with_on_failure(OnFailure::Degrade);
        let r = runtime(&[4, 4], cfg).run().unwrap();
        // Full delivery can't verify (blocks were dropped); the survivor
        // invariant does.
        assert!(!r.verified);
        assert!(r.failure.is_none());
        assert_eq!(r.faults.injected_kills, 1);
        let d = r.degraded.expect("degraded report present");
        assert!(d.verified_degraded);
        assert_eq!(d.restarts, 0, "pinned kills are quarantined up front");
        assert_eq!(d.dead_nodes.len(), 1);
        assert_eq!(d.dead_nodes[0].node, 3);
        assert_eq!(d.dead_nodes[0].quarantine_step, 1);
        assert_eq!(
            d.dead_nodes[0].reason,
            FailureReason::WorkerKilled { node: 3 }
        );
        // Every block with a dead endpoint is dropped, nothing else.
        assert_eq!(d.dropped_blocks, 2 * 15);
        assert_eq!(d.dropped.len() as u64, d.dropped_blocks);
        assert!(d.dropped.iter().all(|b| (b.src == 3) ^ (b.dst == 3)));
    }

    #[test]
    fn degrade_policy_without_failures_is_a_plain_run() {
        let cfg = RuntimeConfig::default()
            .with_workers(2)
            .with_on_failure(OnFailure::Degrade);
        let r = runtime(&[4, 4], cfg).run().unwrap();
        assert!(r.verified);
        assert!(r.degraded.is_none());
    }

    #[test]
    fn degraded_deliveries_cover_survivors_only() {
        let cfg = RuntimeConfig::default()
            .with_workers(3)
            .with_faults(FaultPlan::default().with_worker_fault(2, 5, WorkerFaultKind::Kill))
            .with_retry(quick_retry())
            .with_on_failure(OnFailure::Degrade);
        let rt = runtime(&[4, 8], cfg);
        // The fault plan pins the kill on *canonical* node 5; deliveries
        // are indexed by original ids.
        let orig = rt.prepared().exchange().from_canonical(5).unwrap();
        let (r, deliveries) = rt
            .run_with_payloads(|s, d| pattern_payload(s, d, 48))
            .unwrap();
        let d = r.degraded.unwrap();
        assert!(d.verified_degraded);
        assert_eq!(d.dead_nodes[0].original, Some(orig));
        let n = 32u32;
        assert!(
            deliveries[orig as usize].is_empty(),
            "dead node receives nothing"
        );
        for (dv, got) in deliveries.iter().enumerate() {
            let dv = dv as u32;
            if dv == orig {
                continue;
            }
            let expected_srcs: Vec<NodeId> = (0..n).filter(|&s| s != dv && s != orig).collect();
            let srcs: Vec<NodeId> = got.iter().map(|(s, _)| *s).collect();
            assert_eq!(srcs, expected_srcs);
            for (s, p) in got {
                assert_eq!(
                    *p,
                    pattern_payload(*s, dv, 48),
                    "bit-exact survivor payloads"
                );
            }
        }
    }
}
