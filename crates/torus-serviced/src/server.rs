//! The daemon: a fixed pool of poll-reactor threads ([`crate::reactor`])
//! behind one listening socket. No async runtime — the concurrency
//! story is the same hand-rolled threads-and-locks the rest of the
//! workspace uses.
//!
//! ## Threading model
//!
//! * **A fixed pool of reactor threads** (`reactor_threads`, default
//!   4): each drives all reads, request handling, job-status streaming,
//!   and writes for its connections over non-blocking sockets and
//!   `poll(2)`, woken by the engine's event hook whenever a job starts
//!   or finishes. Reactor 0 also accepts, handing connections out
//!   round-robin. Connection count and in-flight job count add *no*
//!   threads — total daemon threads are O(reactor pool + engine
//!   drivers + worker pool), plus the journal's single flusher.
//! * **The [`Daemon::run`] thread** waits until a `drain` request or
//!   SIGTERM, then performs the drain and publishes its verdict, so no
//!   drain ever adds a thread.
//!
//! ## Durability
//!
//! With a journal configured, no client hears `accepted` before its
//! admission record is fsync'd. Admissions arriving close together
//! share one group-commit fsync (see [`crate::journal`] and the
//! batching notes in [`crate::reactor`]); if the journal cannot make an
//! admission durable the job is cancelled and the client receives a
//! typed `journal_unavailable` rejection instead of an acknowledgment
//! the daemon could not honor.
//!
//! ## Drain
//!
//! A `drain` request (or SIGTERM, via [`crate::signal`]) stops
//! admission and lets every admitted job finish: the engine's own
//! shutdown drains the queue, the reactors deliver each job's `done`,
//! the drain caller gets the final aggregate stats, and [`Daemon::run`]
//! returns them. New submissions during the drain are rejected with
//! reason `"draining"`. Concurrent drains are safe — the engine's
//! shutdown snapshot is taken exactly once.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use torus_service::{
    Engine, EngineConfig, JobEvent, JobHandle, JobResult, JobStatus, ServiceStats,
};

use crate::checksum;
use crate::journal::{Journal, JournalConfig};
use crate::json::Json;
use crate::proto;
use crate::reactor::{self, ReactorHandle};
use crate::signal;
use crate::spec::JobSpec;

/// Daemon sizing and behavior knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Daemon::local_addr`]). Default `127.0.0.1:0`.
    pub addr: String,
    /// The engine the daemon fronts.
    pub engine: EngineConfig,
    /// Reactor threads driving the connection plane. Default 4.
    pub reactor_threads: usize,
    /// Write-ahead admission journal. `Some` makes every admission
    /// durable (fsync'd before the client hears `accepted`) and lets
    /// [`Daemon::bind`] recover accepted-but-unfinished jobs from a
    /// previous process's journal directory. Default: none.
    pub journal: Option<JournalConfig>,
    /// Close connections with no live jobs, no pending replies, and no
    /// traffic for this long, so slow-loris clients cannot pin reactor
    /// slots forever. Default: none (connections idle indefinitely).
    pub idle_timeout: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
            reactor_threads: 4,
            journal: None,
            idle_timeout: None,
        }
    }
}

/// How many ways the job registry is sharded (by job id), so `status`
/// lookups, admissions, and driver-side finish transitions for
/// different jobs don't serialize on one mutex.
const REG_SHARDS: usize = 16;

/// Terminal entries kept per registry shard. A long-lived daemon under
/// millions of jobs holds at most `REG_SHARDS *
/// TERMINAL_CAP_PER_SHARD` terminal records; the oldest are evicted
/// (their `status` answers become `"unknown"`), bounding memory where
/// the registry previously grew forever.
const TERMINAL_CAP_PER_SHARD: usize = 4096;

/// A terminal job's recorded outcome — everything `status` needs
/// without keeping the full result (deliveries included) alive. Kept
/// compact (boxed strings, a borrowed label) because the registry holds
/// up to `REG_SHARDS * TERMINAL_CAP_PER_SHARD` of them.
pub(crate) struct Terminal {
    pub(crate) ok: bool,
    pub(crate) degraded: bool,
    pub(crate) checksum: Option<Box<str>>,
    pub(crate) error: Option<Box<str>>,
    /// Terminal state label: `"completed"`, `"failed"`, `"cancelled"`,
    /// or `"deadline_exceeded"`; owned only when replayed from the
    /// journal.
    pub(crate) state: Cow<'static, str>,
    /// Owning tenant; `None` when reconstructed from a journal replay
    /// (pre-crash `done` records do not carry the tenant).
    pub(crate) tenant: Option<Box<str>>,
    /// `true` when the outcome was reconstructed from the journal
    /// rather than executed by this process.
    pub(crate) recovered: bool,
}

/// A live registry entry: the engine handle plus the owning tenant, so
/// the `cancel` op can be scoped without a second lookup table.
struct LiveEntry {
    handle: JobHandle,
    tenant: Arc<str>,
}

struct RegShard {
    /// Jobs admitted or replayed by this process, not yet terminal.
    live: HashMap<u64, LiveEntry>,
    /// Terminal outcomes, bounded by [`TERMINAL_CAP_PER_SHARD`]. A
    /// B-tree grows one small node per few jobs; a hash map would double
    /// its table at fixed job counts, stepping the daemon's resident
    /// memory by megabytes across all shards at once.
    terminal: BTreeMap<u64, Terminal>,
    /// Insertion order of `terminal`, for eviction. Sized for the cap
    /// up front, so it never reallocates.
    order: VecDeque<u64>,
}

/// What a `status` lookup found, cloned out of the registry so no
/// shard lock is held while the caller inspects (or waits on) it.
enum Lookup {
    Unknown,
    Live(JobHandle),
    Terminal {
        ok: bool,
        degraded: bool,
        checksum: Option<Box<str>>,
        error: Option<Box<str>>,
        state: Cow<'static, str>,
        recovered: bool,
    },
}

/// What a tenant-scoped `cancel` lookup found.
pub(crate) enum CancelLookup {
    /// No job with this id (or its terminal record was evicted).
    Unknown,
    /// The job exists but belongs to a different tenant.
    Forbidden,
    /// The job is live (queued or running) and owned by the caller.
    Live,
    /// The job is already terminal; carries its state label. A replayed
    /// terminal with no recorded tenant is reported here rather than
    /// guessed at — cancelling a finished job is a no-op either way.
    Terminal(String),
}

/// The sharded job registry: every id the daemon can answer `status`
/// for. Live entries move to the bounded terminal index when the
/// engine's event hook reports them finished.
pub(crate) struct Registry {
    shards: Vec<Mutex<RegShard>>,
}

impl Registry {
    fn new() -> Self {
        Self {
            shards: (0..REG_SHARDS)
                .map(|_| {
                    Mutex::new(RegShard {
                        live: HashMap::new(),
                        terminal: BTreeMap::new(),
                        order: VecDeque::with_capacity(TERMINAL_CAP_PER_SHARD + 1),
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, job_id: u64) -> &Mutex<RegShard> {
        &self.shards[(job_id % REG_SHARDS as u64) as usize]
    }

    /// Registers a job the engine just admitted. A fast job can finish
    /// (and its hook fire) before this runs; the terminal entry then
    /// wins and the stale handle is not inserted.
    pub(crate) fn register_live(&self, handle: JobHandle, tenant: &str) {
        let mut shard = lk(self.shard(handle.id()));
        if shard.terminal.contains_key(&handle.id()) {
            return;
        }
        shard.live.insert(
            handle.id(),
            LiveEntry {
                handle,
                tenant: Arc::from(tenant),
            },
        );
    }

    /// Moves a job to the terminal index (evicting the oldest terminal
    /// entry past the per-shard cap) and drops its live handle.
    pub(crate) fn finish(&self, job_id: u64, term: Terminal) {
        let mut shard = lk(self.shard(job_id));
        shard.live.remove(&job_id);
        if shard.terminal.insert(job_id, term).is_none() {
            shard.order.push_back(job_id);
            if shard.order.len() > TERMINAL_CAP_PER_SHARD {
                if let Some(evicted) = shard.order.pop_front() {
                    shard.terminal.remove(&evicted);
                }
            }
        }
    }

    fn lookup(&self, job_id: u64) -> Lookup {
        let shard = lk(self.shard(job_id));
        if let Some(entry) = shard.live.get(&job_id) {
            return Lookup::Live(entry.handle.clone());
        }
        match shard.terminal.get(&job_id) {
            Some(t) => Lookup::Terminal {
                ok: t.ok,
                degraded: t.degraded,
                checksum: t.checksum.clone(),
                error: t.error.clone(),
                state: t.state.clone(),
                recovered: t.recovered,
            },
            None => Lookup::Unknown,
        }
    }

    /// Tenant-scoped lookup for the `cancel` op: only the owning tenant
    /// may cancel a live job. Terminal replays with no recorded tenant
    /// answer as terminal (the op is a no-op there regardless).
    pub(crate) fn cancel_lookup(&self, job_id: u64, tenant: &str) -> CancelLookup {
        let shard = lk(self.shard(job_id));
        if let Some(entry) = shard.live.get(&job_id) {
            return if entry.tenant.as_ref() == tenant {
                CancelLookup::Live
            } else {
                CancelLookup::Forbidden
            };
        }
        match shard.terminal.get(&job_id) {
            Some(t) => match &t.tenant {
                Some(owner) if &**owner != tenant => CancelLookup::Forbidden,
                _ => CancelLookup::Terminal(t.state.to_string()),
            },
            None => CancelLookup::Unknown,
        }
    }

    /// `(live, terminal)` entry counts across all shards, for `stats`.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let mut live = 0;
        let mut terminal = 0;
        for shard in &self.shards {
            let shard = lk(shard);
            live += shard.live.len();
            terminal += shard.terminal.len();
        }
        (live, terminal)
    }
}

pub(crate) struct DaemonShared {
    pub(crate) engine: Engine,
    /// Admission stopped (drain op or SIGTERM); [`Daemon::run`] waits on
    /// `drain_cv` for it to flip.
    pub(crate) draining: Mutex<bool>,
    drain_cv: Condvar,
    /// Reap connections idle (no live jobs, no buffered traffic) past
    /// this, when configured.
    pub(crate) idle_timeout: Option<Duration>,
    /// Connections the reactors closed for idling past `idle_timeout`.
    pub(crate) idle_reaped: AtomicU64,
    /// The write-ahead admission journal, when configured.
    pub(crate) journal: Option<Arc<Journal>>,
    /// Every job id this daemon can answer `status` for.
    pub(crate) registry: Arc<Registry>,
    /// The final `drained` event, published once by [`Daemon::run`]: it
    /// answers every drain caller and tells the reactors to close.
    pub(crate) drained_event: Mutex<Option<Json>>,
    /// Every reactor's handle, created by [`Daemon::bind`] so the event
    /// hook can wake the pool before any reactor thread exists.
    pub(crate) reactors: Vec<Arc<ReactorHandle>>,
}

impl DaemonShared {
    /// Stops admission and hands the drain to the [`Daemon::run`]
    /// thread. Idempotent.
    pub(crate) fn start_drain(&self) {
        *lk(&self.draining) = true;
        self.drain_cv.notify_all();
    }
}

fn lk<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bound, not-yet-running daemon.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<DaemonShared>,
}

impl Daemon {
    /// Binds the listener and starts the engine (drivers spawn now;
    /// they idle until jobs arrive).
    ///
    /// With a journal configured this also replays the journal
    /// directory: jobs `accepted` but never `done` by a previous
    /// process are re-enqueued under their original ids (exactly once —
    /// a recorded `done` suppresses the re-run), and terminal pre-crash
    /// ids become answerable via the `status` op. A recovered job that
    /// cannot be re-enqueued (unparseable spec, or the engine refuses
    /// the resubmission) is closed out with a `done{ok:false}` record
    /// rather than silently dropped, so it never vanishes without a
    /// terminal answer. A corrupt journal fails the bind with
    /// [`ErrorKind::InvalidData`] rather than silently dropping
    /// records.
    pub fn bind(config: DaemonConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let reactors = (0..config.reactor_threads.clamp(1, 64))
            .map(|_| ReactorHandle::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let registry = Arc::new(Registry::new());
        let mut engine_config = config.engine;
        let opened = match config.journal {
            Some(journal_config) => {
                let (journal, recovery) = Journal::open(journal_config)
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
                Some((Arc::new(journal), recovery))
            }
            None => None,
        };
        // The hook runs on driver threads at every job start/finish:
        // journal records first (when journaling), then the registry's
        // live→terminal transition, so `status` stops holding full job
        // results for the daemon's lifetime, then a wake for every
        // reactor (the engine updates a job's state before firing).
        let hook_journal = opened.as_ref().map(|(journal, _)| Arc::clone(journal));
        let hook_registry = Arc::clone(&registry);
        let hook_reactors = reactors.clone();
        engine_config = engine_config.with_event_hook(Arc::new(move |event| {
            if let Some(journal) = &hook_journal {
                journal_hook(journal, &event);
            }
            registry_hook(&hook_registry, &event);
            for reactor in &hook_reactors {
                reactor.waker.wake();
            }
        }));
        let engine = Engine::new(engine_config);
        let journal = opened.map(|(journal, recovery)| {
            engine.reserve_ids_through(recovery.max_job_id);
            for done in recovery.terminal {
                registry.finish(
                    done.job_id,
                    Terminal {
                        ok: done.ok,
                        degraded: done.degraded,
                        checksum: done.checksum.map(String::into_boxed_str),
                        error: done.error.map(String::into_boxed_str),
                        state: done.state.into(),
                        tenant: None,
                        recovered: true,
                    },
                );
            }
            for job in recovery.pending {
                let resubmitted = JobSpec::from_json(&job.spec)
                    .map_err(|e| format!("recovered spec invalid: {e}"))
                    .and_then(|spec| {
                        engine
                            .resubmit_op_as(
                                &job.tenant,
                                job.job_id,
                                spec.torus_shape(),
                                spec.op,
                                spec.payload,
                                spec.runtime_config(),
                                spec.deadline,
                            )
                            .map_err(|e| format!("recovery resubmit failed: {e}"))
                    });
                match resubmitted {
                    Ok(handle) => registry.register_live(handle, &job.tenant),
                    Err(error) => {
                        // A journaled-accepted job must never vanish:
                        // close it out with a terminal record (so it
                        // stops replaying forever) and answer `status`
                        // with the failure.
                        let _ = journal.record_done(job.job_id, false, false, None, Some(&error));
                        registry.finish(
                            job.job_id,
                            Terminal {
                                ok: false,
                                degraded: false,
                                checksum: None,
                                error: Some(error.into()),
                                state: "failed".into(),
                                tenant: Some(job.tenant.as_str().into()),
                                recovered: true,
                            },
                        );
                    }
                }
            }
            journal
        });
        Ok(Self {
            listener,
            shared: Arc::new(DaemonShared {
                engine,
                draining: Mutex::new(false),
                drain_cv: Condvar::new(),
                idle_timeout: config.idle_timeout,
                idle_reaped: AtomicU64::new(0),
                journal,
                registry,
                drained_event: Mutex::new(None),
                reactors,
            }),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until drained (by a `drain` request or SIGTERM), then
    /// returns the final aggregate stats. Installs the SIGTERM flag
    /// handler and spawns the reactor pool; reactor 0 owns the
    /// listener.
    pub fn run(self) -> ServiceStats {
        signal::install();
        let Daemon { listener, shared } = self;
        let mut listener = Some(listener);
        let reactor_threads: Vec<JoinHandle<()>> = (0..shared.reactors.len())
            .map(|i| {
                let shared = Arc::clone(&shared);
                let listener = listener.take();
                std::thread::Builder::new()
                    .name(format!("serviced-reactor-{i}"))
                    .spawn(move || reactor::reactor_loop(&shared, i, listener))
                    .expect("spawn reactor thread")
            })
            .collect();
        drop(shared.drain_cv.wait_while(lk(&shared.draining), |d| !*d));
        // Every job is terminal once shutdown returns, so the reactors'
        // final passes deliver all remaining `done` events.
        let stats = shared.engine.shutdown();
        *lk(&shared.drained_event) = Some(proto::drained(&stats));
        for reactor in &shared.reactors {
            reactor.waker.wake();
        }
        for thread in reactor_threads {
            let _ = thread.join();
        }
        stats
    }

    /// Convenience for tests and embedders: run on a background thread,
    /// returning the bound address and the join handle for the final
    /// stats.
    pub fn spawn(config: DaemonConfig) -> io::Result<(SocketAddr, JoinHandle<ServiceStats>)> {
        let daemon = Self::bind(config)?;
        let addr = daemon.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("serviced-daemon".to_string())
            .spawn(move || daemon.run())
            .expect("spawn daemon thread");
        Ok((addr, handle))
    }
}

/// Extracts a terminal result's `(ok, degraded, checksum, error)` the
/// way the wire protocol reports it: the FNV-1a delivery checksum only
/// for clean completions (degraded runs drop dead-node blocks, so their
/// digest intentionally stays absent rather than faking a match).
/// The wire label for a terminal [`JobStatus`].
pub(crate) fn status_label(status: JobStatus) -> &'static str {
    match status {
        JobStatus::Queued => "queued",
        JobStatus::Running => "running",
        JobStatus::Completed => "completed",
        JobStatus::Failed => "failed",
        JobStatus::Cancelled => "cancelled",
        JobStatus::DeadlineExceeded => "deadline_exceeded",
    }
}

fn terminal_fields(result: &JobResult) -> (bool, bool, Option<String>) {
    let report = result.report.as_ref();
    let degraded = report.is_some_and(|r| r.degraded.is_some());
    let checksum = match (&result.deliveries, degraded) {
        (Some(deliveries), false) => {
            Some(checksum::to_hex(checksum::delivery_checksum(deliveries)))
        }
        _ => None,
    };
    (result.error.is_none(), degraded, checksum)
}

/// The engine's event hook on a journaling daemon: every job start and
/// terminal outcome (with its FNV-1a delivery checksum) goes to disk,
/// from the driver thread that owns the transition.
fn journal_hook(journal: &Journal, event: &JobEvent<'_>) {
    match event {
        JobEvent::Started { job_id, .. } => {
            let _ = journal.record_started(*job_id);
        }
        JobEvent::Finished {
            job_id,
            status,
            result,
            ..
        } => {
            let (_, degraded, checksum) = terminal_fields(result);
            let _ = journal.record_done_state(
                *job_id,
                *status == JobStatus::Completed,
                degraded,
                checksum.as_deref(),
                result.error.as_deref(),
                status_label(*status),
            );
        }
    }
}

/// The registry half of the event hook: finished jobs move from the
/// live map to the bounded terminal index, dropping the handle (and the
/// full result it pins) so the registry's memory stays bounded.
fn registry_hook(registry: &Registry, event: &JobEvent<'_>) {
    if let JobEvent::Finished {
        job_id,
        tenant,
        status,
        result,
    } = event
    {
        let (ok, degraded, checksum) = terminal_fields(result);
        registry.finish(
            *job_id,
            Terminal {
                ok,
                degraded,
                checksum: checksum.map(String::into_boxed_str),
                error: result.error.as_deref().map(Box::from),
                state: status_label(*status).into(),
                tenant: Some(Box::from(&**tenant)),
                recovered: false,
            },
        );
    }
}

/// Answers a `status` lookup from the registry: live jobs through their
/// handle, terminal jobs (including pre-crash recoveries) from the
/// bounded terminal index. The handle is cloned out of the registry
/// before any blocking inspection, so a slow terminal transition never
/// stalls other connections' lookups.
pub(crate) fn status_reply(shared: &DaemonShared, job_id: u64) -> Json {
    match shared.registry.lookup(job_id) {
        Lookup::Unknown => proto::job_status(job_id, "unknown", None, None, None, None, false),
        Lookup::Terminal {
            ok,
            degraded,
            checksum,
            error,
            state,
            recovered,
        } => proto::job_status(
            job_id,
            &state,
            Some(ok),
            Some(degraded),
            checksum.as_deref(),
            error.as_deref(),
            recovered,
        ),
        Lookup::Live(handle) => match handle.try_status() {
            JobStatus::Queued => proto::job_status(job_id, "queued", None, None, None, None, false),
            JobStatus::Running => {
                proto::job_status(job_id, "running", None, None, None, None, false)
            }
            status => {
                // Terminal, so `wait` returns without blocking; no
                // registry lock is held here.
                let result = handle.wait();
                let (ok, degraded, checksum) = terminal_fields(&result);
                proto::job_status(
                    job_id,
                    status_label(status),
                    Some(ok),
                    Some(degraded),
                    checksum.as_deref(),
                    result.error.as_deref(),
                    false,
                )
            }
        },
    }
}

/// The `done` event: a compact job summary plus the delivery checksum
/// (clean completions only). `status` is the job's terminal status,
/// surfaced as the typed `state` field so clients can tell a cancel or
/// deadline reap apart from a genuine failure.
pub(crate) fn done_event(status: JobStatus, result: &JobResult) -> Json {
    let report = result.report.as_ref();
    let (ok, degraded, checksum) = terminal_fields(result);
    Json::obj([
        ("ev", Json::str("done")),
        ("job_id", Json::u64(result.job_id)),
        ("ok", Json::Bool(ok)),
        ("state", Json::str(status_label(status))),
        ("degraded", Json::Bool(degraded)),
        ("verified", Json::Bool(report.is_some_and(|r| r.verified))),
        ("cache_hit", Json::Bool(result.cache_hit)),
        ("wire_bytes", Json::u64(report.map_or(0, |r| r.wire_bytes))),
        ("checksum", checksum.map_or(Json::Null, Json::str)),
        (
            "error",
            match &result.error {
                Some(e) => Json::str(e.clone()),
                None => Json::Null,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(error: Option<&str>) -> Terminal {
        Terminal {
            ok: error.is_none(),
            degraded: false,
            checksum: None,
            error: error.map(Box::from),
            state: if error.is_none() {
                "completed".into()
            } else {
                "failed".into()
            },
            tenant: Some("acme".into()),
            recovered: false,
        }
    }

    /// The terminal index is bounded: past the per-shard cap the oldest
    /// outcome is evicted (its `status` becomes `"unknown"`), so a
    /// long-lived daemon's registry cannot grow without bound.
    #[test]
    fn terminal_index_evicts_oldest_past_the_per_shard_cap() {
        let registry = Registry::new();
        const OVERFLOW: usize = 8;
        // All in one shard: ids congruent mod REG_SHARDS.
        let ids: Vec<u64> = (0..(TERMINAL_CAP_PER_SHARD + OVERFLOW) as u64)
            .map(|i| 5 + i * REG_SHARDS as u64)
            .collect();
        let order_capacity = lk(&registry.shards[5]).order.capacity();
        for &id in &ids {
            registry.finish(id, term(None));
        }
        let (live, terminal) = registry.counts();
        assert_eq!(live, 0);
        assert_eq!(terminal, TERMINAL_CAP_PER_SHARD, "cap must hold");
        assert_eq!(
            lk(&registry.shards[5]).order.capacity(),
            order_capacity,
            "the eviction order is sized for the cap and never reallocates"
        );
        for &id in &ids[..OVERFLOW] {
            assert!(
                matches!(registry.lookup(id), Lookup::Unknown),
                "oldest entries must have been evicted"
            );
        }
        for &id in &ids[OVERFLOW..] {
            assert!(
                matches!(registry.lookup(id), Lookup::Terminal { .. }),
                "newest entries must survive"
            );
        }
    }

    /// `cancel` must be tenant-scoped: another tenant's terminal job
    /// answers `forbidden`, an evicted/unknown id answers `unknown`.
    #[test]
    fn cancel_lookup_is_tenant_scoped() {
        let registry = Registry::new();
        registry.finish(1, term(None)); // owned by "acme"
        assert!(matches!(
            registry.cancel_lookup(1, "acme"),
            CancelLookup::Terminal(state) if state == "completed"
        ));
        assert!(matches!(
            registry.cancel_lookup(1, "zeta"),
            CancelLookup::Forbidden
        ));
        assert!(matches!(
            registry.cancel_lookup(99, "acme"),
            CancelLookup::Unknown
        ));
    }

    /// The event hook wakes every reactor: a bound (not running)
    /// daemon's wake pipes turn readable when a job runs.
    #[test]
    fn event_hook_wakes_every_reactor() {
        use crate::reactor::tests::readable;

        let daemon = Daemon::bind(DaemonConfig::default()).unwrap();
        let shared = &daemon.shared;
        for reactor in &shared.reactors {
            assert!(!readable(&reactor.waker, 0), "no wake before any job");
        }
        let spec = JobSpec::default();
        let job = shared
            .engine
            .submit(spec.torus_shape(), spec.payload, spec.runtime_config());
        assert!(job.unwrap().wait().error.is_none());
        for (i, reactor) in shared.reactors.iter().enumerate() {
            assert!(
                readable(&reactor.waker, 5_000),
                "reactor {i} was not woken by the job's transitions"
            );
        }
        shared.engine.shutdown();
    }

    /// Re-finishing an id (journal replay rediscovering a done record)
    /// must not double-count it in the eviction order.
    #[test]
    fn refinishing_a_job_does_not_duplicate_eviction_order() {
        let registry = Registry::new();
        registry.finish(3, term(None));
        registry.finish(3, term(Some("second verdict")));
        let (_, terminal) = registry.counts();
        assert_eq!(terminal, 1);
        match registry.lookup(3) {
            Lookup::Terminal { ok, error, .. } => {
                assert!(!ok, "latest verdict wins");
                assert_eq!(error.as_deref(), Some("second verdict"));
            }
            _ => panic!("job 3 must be terminal"),
        }
    }
}
