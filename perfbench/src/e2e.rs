//! The untraced run: the daemon in-process, driven over loopback TCP by
//! closed-loop clients, every `done` checked against a checksum computed
//! before the timed window.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use torus_service::ServiceStats;
use torus_serviced::{checksum, Client, Daemon, DaemonConfig, JobSpec, JournalConfig};

use crate::stats;
use crate::workload::{Workload, WARMUP};

/// Cold set-ups measured per run; `setup_s` is their median.
const SETUP_TRIALS: usize = 5;

/// A workload's generated inputs: the spec pool and each spec's
/// expected delivery checksum.
pub struct Inputs {
    /// Job index `k` submits `specs[k % specs.len()]`.
    pub specs: Vec<JobSpec>,
    /// Hex FNV-1a digest a clean run of the matching spec must return.
    pub expected: Vec<String>,
}

impl Inputs {
    /// Generates the pool for `workload` under `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let specs: Vec<JobSpec> = (0..workload.pool_size() as u64)
            .map(|i| workload.spec(seed, i))
            .collect();
        let expected = specs
            .iter()
            .map(|s| checksum::to_hex(checksum::expected_checksum(s)))
            .collect();
        Self { specs, expected }
    }

    /// The spec and expected digest of job `k`.
    pub fn job(&self, k: u64) -> (&JobSpec, &str) {
        let i = (k % self.specs.len() as u64) as usize;
        (&self.specs[i], &self.expected[i])
    }
}

/// Outcome counts shared by every phase of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Jobs submitted (or attempted).
    pub attempted: u64,
    /// Rejections, failed or unverified `done`s, checksum mismatches,
    /// and socket errors.
    pub failed: u64,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Scratch directories under the working directory, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// `.bench_tmp/<pid>` under the current directory.
    pub fn new() -> std::io::Result<Self> {
        let root = Path::new(".bench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, not-yet-existing path for one journal.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{name}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Removes `.bench_tmp` only when no other run still uses it.
        let _ = self.root.parent().map(std::fs::remove_dir);
    }
}

/// A daemon as `torus-xchg serve` runs it: default configuration plus a
/// journal in a fresh directory.
pub struct RunningDaemon {
    /// Loopback address it listens on.
    pub addr: SocketAddr,
    handle: JoinHandle<ServiceStats>,
}

impl RunningDaemon {
    /// `Daemon::spawn` with a journal under `scratch`.
    pub fn spawn(scratch: &Scratch) -> std::io::Result<Self> {
        let (addr, handle) = Daemon::spawn(DaemonConfig {
            journal: Some(JournalConfig::new(scratch.fresh("journal"))),
            ..DaemonConfig::default()
        })?;
        Ok(Self { addr, handle })
    }

    /// Drains the daemon and joins its threads.
    pub fn stop(self) -> Result<(), String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        client.drain().map_err(|e| format!("drain: {e}"))?;
        drop(client);
        self.handle
            .join()
            .map(drop)
            .map_err(|_| "daemon thread panicked".to_string())
    }
}

/// A connected, authenticated client.
pub fn connect(addr: SocketAddr, tenant: &str) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.hello(tenant).map_err(|e| format!("hello: {e}"))?;
    Ok(client)
}

/// One verified job as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Submit → `accepted`.
    pub ack: Duration,
    /// `accepted` → `done`.
    pub done: Duration,
    /// When the `done` arrived.
    pub end: Instant,
}

impl Span {
    /// Submit → `done`, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.ack + self.done).as_secs_f64() * 1e3
    }
}

/// Submits one job and waits for its `done`. Returns its span, or why
/// the job does not count as verified.
pub fn run_job(client: &mut Client, spec: &JobSpec, expected: &str) -> Result<Span, String> {
    let t0 = Instant::now();
    let id = client.submit(spec).map_err(|e| format!("submit: {e}"))?;
    let t1 = Instant::now();
    let done = client.wait_done(id).map_err(|e| format!("wait: {e}"))?;
    let t2 = Instant::now();
    if !(done.ok && done.verified) {
        return Err(format!("job {id} not verified: {:?}", done.error));
    }
    if done.checksum.as_deref() != Some(expected) {
        return Err(format!(
            "job {id} checksum {:?} != expected {expected}",
            done.checksum
        ));
    }
    Ok(Span {
        ack: t1 - t0,
        done: t2 - t1,
        end: t2,
    })
}

/// Whether a `run_job` error left the connection unusable.
fn lost_socket(error: &str) -> bool {
    ["connection lost", "i/o error"]
        .iter()
        .any(|m| error.contains(m))
}

/// One closed-loop client's samples.
#[derive(Default)]
pub struct ClientLog {
    /// Every verified job.
    pub spans: Vec<Span>,
    /// Outcomes.
    pub tally: Tally,
}

/// Runs `clients` closed-loop clients against `addr`, each taking the
/// next job index from `next` until `stop` says so (checked before each
/// submit). A client that loses its socket stops early.
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    clients: usize,
    next: &AtomicU64,
    stop: &(dyn Fn(u64) -> bool + Sync),
) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut client = match connect(addr, &format!("bench-{c}")) {
                        Ok(client) => client,
                        Err(e) => {
                            eprintln!("perfbench: client {c}: {e}");
                            log.tally.attempted += 1;
                            log.tally.failed += 1;
                            return log;
                        }
                    };
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if stop(k) {
                            break;
                        }
                        let (spec, expected) = inputs.job(k);
                        log.tally.attempted += 1;
                        match run_job(&mut client, spec, expected) {
                            Ok(span) => log.spans.push(span),
                            Err(e) => {
                                eprintln!("perfbench: {e}");
                                log.tally.failed += 1;
                                if lost_socket(&e) {
                                    break;
                                }
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    })
}

/// Slices the timed window is cut into.
pub const SLICES: usize = 20;

/// Slices always kept: the least-stolen three fifths, so a noisy window
/// still keeps ≥100 samples on the slowest workload.
const MIN_KEPT: usize = 12;

/// Beyond `MIN_KEPT`, a slice is dropped when the hypervisor stole more
/// than this share of the machine's CPU time during it. A preempted
/// vCPU stalls the daemon's thread handoffs for milliseconds; that is
/// the host's cost, not the program's.
const STEAL_LIMIT: f64 = 0.02;

/// One slice of the timed window.
struct Slice {
    latencies_ms: Vec<f64>,
    cpu: Duration,
    steal_share: f64,
}

/// Measurements of the timed window, over its kept slices.
pub struct Window {
    /// Submit→`done` of the verified jobs that finished in kept slices, ms.
    pub latencies_ms: Vec<f64>,
    /// Total length of the kept slices, seconds.
    pub secs: f64,
    /// Process CPU time (user + system) spent during the kept slices.
    pub cpu: Duration,
    /// How many of the `SLICES` slices were kept.
    pub kept: usize,
    /// Share of this machine's CPU time the hypervisor stole during the
    /// whole window.
    pub steal_share: f64,
    /// Outcomes (warm-up included).
    pub tally: Tally,
    /// Mean journal group-commit batch at the end of the window.
    pub journal_batch_mean: f64,
}

/// Cold set-up, measured once: `Daemon::spawn` through the first
/// verified `done` of each distinct `(shape, op)` of the workload.
/// Trial `t` submits jobs `t·keys .. (t+1)·keys`, which cover every
/// distinct pair, so the trials' median does not hinge on one job.
fn setup_trial(
    workload: Workload,
    inputs: &Inputs,
    scratch: &Scratch,
    trial: u64,
) -> Result<Duration, String> {
    let keys = workload.distinct_keys() as u64;
    let t0 = Instant::now();
    let daemon = RunningDaemon::spawn(scratch).map_err(|e| format!("spawn: {e}"))?;
    let jobs = connect(daemon.addr, "setup").and_then(|mut client| {
        (trial * keys..(trial + 1) * keys).try_for_each(|k| {
            let (spec, expected) = inputs.job(k);
            run_job(&mut client, spec, expected).map(drop)
        })
    });
    let elapsed = t0.elapsed();
    daemon.stop()?;
    jobs.map(|()| elapsed)
}

/// Runs the closed loop for `WARMUP`, and at least through one job of
/// every distinct `(shape, op)`, so plan caches, frame pools and the
/// journal segment are warm before anything is timed.
pub fn warm_up(workload: Workload, inputs: &Inputs, addr: SocketAddr) -> Tally {
    let keys = workload.distinct_keys() as u64;
    let until = Instant::now() + WARMUP;
    let next = AtomicU64::new(0);
    let mut tally = Tally::default();
    for log in closed_loop(addr, inputs, workload.clients(), &next, &|k| {
        k >= keys && Instant::now() >= until
    }) {
        tally.add(log.tally);
    }
    tally
}

/// Warm-up plus the timed window of `seconds` against a fresh daemon.
pub fn timed_window(
    workload: Workload,
    inputs: &Inputs,
    scratch: &Scratch,
    seconds: u64,
) -> Result<Window, String> {
    let daemon = RunningDaemon::spawn(scratch).map_err(|e| format!("spawn: {e}"))?;
    let clients = workload.clients();
    let mut tally = warm_up(workload, inputs, daemon.addr);

    let next = AtomicU64::new(0);
    let slice = Duration::from_secs(seconds) / SLICES as u32;
    let t0 = Instant::now();
    let until = t0 + slice * SLICES as u32;
    let (logs, marks) = std::thread::scope(|s| {
        // Process CPU time and host steal at every slice boundary.
        let sampler = s.spawn(|| {
            (0..=SLICES as u32)
                .map(|i| {
                    std::thread::sleep((t0 + slice * i).saturating_duration_since(Instant::now()));
                    (process_cpu(), host_steal_ticks())
                })
                .collect::<Vec<_>>()
        });
        let logs = closed_loop(daemon.addr, inputs, clients, &next, &|_| {
            Instant::now() >= until
        });
        (logs, sampler.join().expect("slice sampler panicked"))
    });
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let stolen = |ticks: u64, secs: f64| ticks as f64 / clock_ticks_per_second() / (secs * cpus);
    let mut slices: Vec<Slice> = marks
        .windows(2)
        .map(|w| Slice {
            latencies_ms: Vec::new(),
            cpu: w[1].0.saturating_sub(w[0].0),
            steal_share: stolen(w[1].1.saturating_sub(w[0].1), slice.as_secs_f64()),
        })
        .collect();
    for log in &logs {
        tally.add(log.tally);
        for span in &log.spans {
            // Jobs still in flight when the window closed belong to no slice.
            let i = ((span.end - t0).as_secs_f64() / slice.as_secs_f64()) as usize;
            if let Some(s) = slices.get_mut(i) {
                s.latencies_ms.push(span.latency_ms());
            }
        }
    }
    let steal_share = stolen(
        marks[SLICES].1.saturating_sub(marks[0].1),
        (slice * SLICES as u32).as_secs_f64(),
    );
    slices.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    let kept: Vec<Slice> = slices
        .into_iter()
        .enumerate()
        .filter(|(rank, s)| *rank < MIN_KEPT || s.steal_share <= STEAL_LIMIT)
        .map(|(_, s)| s)
        .collect();
    let journal_batch_mean = connect(daemon.addr, "stats")
        .and_then(|mut c| c.stats().map_err(|e| format!("stats: {e}")))
        .map(|s| {
            s.get("journal")
                .and_then(|j| j.get("mean_batch_size"))
                .and_then(|m| m.as_f64())
                .unwrap_or(0.0)
        });
    daemon.stop()?;
    let journal_batch_mean = journal_batch_mean?;
    Ok(Window {
        secs: slice.as_secs_f64() * kept.len() as f64,
        cpu: kept.iter().map(|s| s.cpu).sum(),
        kept: kept.len(),
        latencies_ms: kept.into_iter().flat_map(|s| s.latencies_ms).collect(),
        steal_share,
        tally,
        journal_batch_mean,
    })
}

/// Median cold set-up over `SETUP_TRIALS` trials, in seconds.
pub fn setup_seconds(
    workload: Workload,
    inputs: &Inputs,
    scratch: &Scratch,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut trials = Vec::with_capacity(SETUP_TRIALS);
    for trial in 0..SETUP_TRIALS as u64 {
        tally.attempted += workload.distinct_keys() as u64;
        match setup_trial(workload, inputs, scratch, trial) {
            Ok(d) => trials.push(d.as_secs_f64()),
            Err(e) => {
                tally.failed += 1;
                return Err(e);
            }
        }
    }
    Ok(stats::median(&trials).expect("at least one trial"))
}

/// User + system CPU time of this process, from `/proc/self/stat`.
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 of this tail.
    let tail = stat.rsplit_once(')').map_or("", |(_, t)| t);
    let ticks: u64 = tail
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_secs_f64(ticks as f64 / clock_ticks_per_second())
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf only reads a configuration value; `_SC_CLK_TCK`
    // is 2 on Linux and takes no pointer arguments.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Clock ticks the hypervisor has stolen from this machine's CPUs
/// (the `steal` column of `/proc/stat`), 0 where not reported.
fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
