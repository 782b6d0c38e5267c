//! The traced run: the same job specs replayed through each layer's
//! public functions, with every span timed from this file. Nothing
//! inside the program is instrumented.
//!
//! Three replays, each over the workload's fixed job set
//! (`replay_jobs` jobs, same client count as the untraced run):
//!
//! * through the daemon, timing `Client::submit` and `Client::wait_done`;
//! * through an `Engine` driven directly, with an `EventHook` stamping
//!   `Started`/`Finished`, keeping each job's `RuntimeReport` and timing
//!   `delivery_checksum` over its deliveries;
//! * single-threaded calls into the spec parser, the journal, the
//!   payload generator, the wire codec and the plan builders.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alltoall_core::Block;
use bytes::{Bytes, BytesMut};
use torus_runtime::{
    crc32, decode_gathered, encode_gathered, encode_message, CollectiveRuntime, Runtime,
    RuntimeReport, WireFrame, BLOCK_HEADER_BYTES, MESSAGE_HEADER_BYTES,
};
use torus_service::{Engine, EngineConfig, JobEvent, JobOp, ServiceStats};
use torus_serviced::{checksum, JobSpec, Journal, JournalConfig};

use crate::e2e::{self, Inputs, Scratch, Tally};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::workload::Workload;

/// Repetitions of each cold plan build.
const BUILDS: usize = 5;

/// What one engine-replayed job left behind.
struct EngineJob {
    queue_wait_ms: f64,
    run_ms: f64,
    wake_ms: f64,
    checksum_ms: f64,
    report: RuntimeReport,
}

/// One verified engine job as its submitter saw it.
struct Submitted {
    id: u64,
    at: Instant,
    waited: Instant,
    checksum_ms: f64,
    report: RuntimeReport,
}

/// Per-job lifecycle stamps written by the engine's event hook.
type Stamps = Arc<Mutex<HashMap<u64, (Option<Instant>, Option<Instant>)>>>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Signed `b - a` in milliseconds.
fn gap_ms(a: Instant, b: Instant) -> f64 {
    if b >= a {
        ms(b - a)
    } else {
        -ms(a - b)
    }
}

/// Replays the job set through the daemon: per verified job, the
/// submit→ack and ack→`done` spans in milliseconds.
fn daemon_replay(
    workload: Workload,
    inputs: &Inputs,
    scratch: &Scratch,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let daemon = e2e::RunningDaemon::spawn(scratch).map_err(|e| format!("spawn: {e}"))?;
    tally.add(e2e::warm_up(workload, inputs, daemon.addr));
    let jobs = workload.replay_jobs() as u64;
    let next = AtomicU64::new(0);
    let logs = e2e::closed_loop(daemon.addr, inputs, workload.clients(), &next, &|k| {
        k >= jobs
    });
    daemon.stop()?;
    let (mut ack, mut done) = (Vec::new(), Vec::new());
    for log in logs {
        tally.add(log.tally);
        for span in log.spans {
            ack.push(ms(span.ack));
            done.push(ms(span.done));
        }
    }
    Ok((ack, done))
}

/// Replays jobs `0..jobs` through an `Engine` with a stamping hook.
fn engine_replay(
    workload: Workload,
    inputs: &Inputs,
    jobs: u64,
    tally: &mut Tally,
) -> Result<(Vec<EngineJob>, ServiceStats), String> {
    let stamps: Stamps = Arc::default();
    let hook_stamps = Arc::clone(&stamps);
    let engine = Engine::new(EngineConfig::default().with_event_hook(Arc::new(
        move |event: JobEvent<'_>| {
            let now = Instant::now();
            let mut stamps = hook_stamps.lock().expect("stamp lock poisoned");
            match event {
                JobEvent::Started { job_id, .. } => stamps.entry(job_id).or_default().0 = Some(now),
                JobEvent::Finished { job_id, .. } => {
                    stamps.entry(job_id).or_default().1 = Some(now)
                }
            }
        },
    )));
    let next = AtomicU64::new(0);
    let outcomes: Vec<Result<Submitted, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..workload.clients())
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= jobs {
                            break;
                        }
                        let (spec, expected) = inputs.job(k);
                        out.push(engine_job(&engine, spec, expected));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("engine client panicked"))
            .collect()
    });
    let stats = engine.shutdown();
    let stamps = stamps.lock().expect("stamp lock poisoned");
    let mut done = Vec::new();
    for outcome in outcomes {
        tally.attempted += 1;
        match outcome {
            Ok(job) => {
                let (Some(started), Some(finished)) =
                    stamps.get(&job.id).copied().unwrap_or_default()
                else {
                    return Err(format!("engine job {} missing lifecycle events", job.id));
                };
                done.push(EngineJob {
                    queue_wait_ms: gap_ms(job.at, started),
                    run_ms: gap_ms(started, finished),
                    wake_ms: gap_ms(finished, job.waited),
                    checksum_ms: job.checksum_ms,
                    report: job.report,
                });
            }
            Err(e) => {
                eprintln!("perfbench: engine replay: {e}");
                tally.failed += 1;
            }
        }
    }
    Ok((done, stats))
}

/// Submits one spec to the engine, waits, and checks the report and
/// the delivery checksum.
fn engine_job(engine: &Engine, spec: &JobSpec, expected: &str) -> Result<Submitted, String> {
    let at = Instant::now();
    let handle = engine
        .submit_op_with_deadline(
            "bench",
            spec.torus_shape(),
            spec.op,
            spec.payload,
            spec.runtime_config(),
            spec.deadline,
        )
        .map_err(|e| format!("submit: {e}"))?;
    let result = handle.wait();
    let waited = Instant::now();
    let report = match (&result.error, &result.report) {
        (None, Some(report)) if report.verified => report.clone(),
        _ => {
            return Err(format!(
                "job {} not verified: {:?}",
                handle.id(),
                result.error
            ))
        }
    };
    let deliveries = result
        .deliveries
        .as_ref()
        .ok_or_else(|| format!("job {} has no deliveries", handle.id()))?;
    let t = Instant::now();
    let digest = checksum::delivery_checksum(deliveries);
    let checksum_ms = ms(t.elapsed());
    if checksum::to_hex(digest) != expected {
        return Err(format!("job {} checksum mismatch", handle.id()));
    }
    Ok(Submitted {
        id: handle.id(),
        at,
        waited,
        checksum_ms,
        report,
    })
}

/// Median per-call time of `f` over `calls` calls, microseconds.
fn per_call_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    med(&samples)
}

/// `JobSpec::from_json` on the workload's spec JSON, µs per call.
fn spec_parse_us(inputs: &Inputs) -> Result<f64, String> {
    let docs: Vec<_> = inputs.specs.iter().take(64).map(JobSpec::to_json).collect();
    let mut bad = 0;
    let us = per_call_us(4000, |i| {
        bad += JobSpec::from_json(black_box(&docs[i % docs.len()])).is_err() as usize;
    });
    (bad == 0)
        .then_some(us)
        .ok_or_else(|| "spec parse rejected a workload spec".to_string())
}

/// `Journal::record_accepted` (append + fsync) in a fresh journal, µs.
fn journal_accept_us(inputs: &Inputs, scratch: &Scratch) -> Result<f64, String> {
    let (journal, _) = Journal::open(JournalConfig::new(scratch.fresh("journal-bench")))
        .map_err(|e| format!("journal open: {e}"))?;
    let docs: Vec<_> = inputs.specs.iter().take(64).map(JobSpec::to_json).collect();
    let mut failed = None;
    let us = per_call_us(200, |i| {
        if let Err(e) = journal.record_accepted(i as u64 + 1, "bench", docs[i % docs.len()].clone())
        {
            failed = Some(e.to_string());
        }
    });
    match failed {
        None => Ok(us),
        Some(e) => Err(format!("journal append: {e}")),
    }
}

/// Time to generate every seed payload of one job, ms (median over up
/// to 16 specs).
fn seed_ms(inputs: &Inputs) -> f64 {
    let samples: Vec<f64> = inputs
        .specs
        .iter()
        .take(16)
        .map(|spec| {
            let nn = spec.torus_shape().num_nodes();
            let m = spec.block_bytes;
            let payload = spec.payload;
            let t = Instant::now();
            match spec.op {
                JobOp::Alltoall => {
                    for src in 0..nn {
                        for dst in (0..nn).filter(|&d| d != src) {
                            black_box(payload.payload(src, dst, m));
                        }
                    }
                }
                JobOp::Collective(_) => {
                    for id in 0..nn {
                        black_box(payload.key_payload(id, m));
                    }
                }
            }
            ms(t.elapsed())
        })
        .collect();
    med(&samples)
}

/// Wire-codec timings at the workload's mean frame size:
/// `(crc32 GB/s, encode µs, decode µs)`.
fn codec(report: &RuntimeReport) -> (f64, f64, f64) {
    let m = report.block_bytes;
    let mean_frame = report.wire_bytes as f64 / report.messages.max(1) as f64;
    let per_frame =
        ((mean_frame - MESSAGE_HEADER_BYTES as f64) / (BLOCK_HEADER_BYTES + m) as f64).round();
    let count = (per_frame as usize).max(1);
    let blocks: Vec<Block<Bytes>> = (0..count as u32)
        .map(|i| Block::with_payload(i, i + 1, torus_runtime::seeded_payload(9, i, i + 1, m)))
        .collect();

    let frame = encode_message(1, &blocks);
    let batch = (4 << 20) / frame.len().max(1) + 1;
    let crc_samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(crc32(black_box(&frame)));
            }
            (batch * frame.len()) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();

    let mut framing = BytesMut::new();
    let mut payloads = Vec::new();
    let encode_us = per_call_us(2000, |i| {
        let frame = encode_gathered(
            i as u32,
            black_box(&blocks),
            std::mem::take(&mut framing),
            std::mem::take(&mut payloads),
        );
        if let WireFrame::Gathered {
            framing: f,
            payloads: p,
        } = frame
        {
            framing = f;
            payloads = p;
        }
    });

    let WireFrame::Gathered { framing, payloads } =
        encode_gathered(1, &blocks, BytesMut::new(), Vec::new())
    else {
        unreachable!("encode_gathered always returns a gathered frame");
    };
    let mut out = Vec::with_capacity(count);
    let mut segments = Vec::with_capacity(count);
    let decode_samples: Vec<f64> = (0..2000)
        .map(|_| {
            segments.clone_from(&payloads);
            out.clear();
            let t = Instant::now();
            let ok = decode_gathered(black_box(&framing), &mut segments, &mut out).is_ok();
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert!(ok, "a freshly encoded frame must decode");
            us
        })
        .collect();
    (med(&crc_samples), encode_us, med(&decode_samples))
}

/// Cold plan builds for the workload's distinct `(shape, op)` pairs:
/// `(Runtime::new ms, CollectiveRuntime::new ms)`, each the sum over
/// distinct pairs of the median of `BUILDS` builds (0 where the
/// workload has no such pair).
fn plan_builds(workload: Workload, inputs: &Inputs) -> Result<(f64, f64), String> {
    let (mut core, mut lower) = (0.0, 0.0);
    for k in 0..workload.distinct_keys() as u64 {
        let (spec, _) = inputs.job(k);
        let shape = spec.torus_shape();
        let mut samples = Vec::with_capacity(BUILDS);
        for _ in 0..BUILDS {
            let t = Instant::now();
            match spec.op {
                JobOp::Alltoall => {
                    black_box(
                        Runtime::new(&shape, spec.runtime_config()).map_err(|e| e.to_string())?,
                    );
                }
                JobOp::Collective(op) => {
                    black_box(
                        CollectiveRuntime::new(&shape, op, spec.runtime_config())
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
            samples.push(ms(t.elapsed()));
        }
        match spec.op {
            JobOp::Alltoall => core += med(&samples),
            JobOp::Collective(_) => lower += med(&samples),
        }
    }
    Ok((core, lower))
}

/// Per-job mean of an exact counter over the replay's job set.
fn mean_count(jobs: &[EngineJob], f: impl Fn(&RuntimeReport) -> u64) -> f64 {
    jobs.iter().map(|j| f(&j.report) as f64).sum::<f64>() / jobs.len().max(1) as f64
}

/// Records the count metrics: per-job means over the replayed job set,
/// plus the engine's plan-cache hit ratio.
fn record_counts(jobs: &[EngineJob], stats: &ServiceStats, metrics: &mut Metrics) {
    metrics.set(
        "service.cache_hit_ratio",
        stats.cache_hit_rate().unwrap_or(0.0),
    );
    metrics.set("runtime.wire_bytes", mean_count(jobs, |r| r.wire_bytes));
    metrics.set("runtime.messages", mean_count(jobs, |r| r.messages));
    metrics.set("runtime.bytes_copied", mean_count(jobs, |r| r.bytes_copied));
    metrics.set(
        "runtime.rearranged_bytes",
        mean_count(jobs, |r| r.rearranged_bytes),
    );
    metrics.set("runtime.allocations", mean_count(jobs, |r| r.allocations));
    metrics.set(
        "runtime.peak_node_bytes",
        mean_count(jobs, |r| r.peak_node_bytes),
    );
    metrics.set(
        "runtime.injected_drops",
        mean_count(jobs, |r| r.faults.injected_drops),
    );
    metrics.set("runtime.timeouts", mean_count(jobs, |r| r.faults.timeouts));
    metrics.set("runtime.resends", mean_count(jobs, |r| r.faults.resends));
    metrics.set(
        "runtime.resend_ratio",
        metrics.get("runtime.resends") / metrics.get("runtime.messages").max(1.0),
    );
}

/// Median over jobs of `f`.
fn med_of(jobs: &[EngineJob], f: impl Fn(&EngineJob) -> f64) -> f64 {
    med(&jobs.iter().map(f).collect::<Vec<_>>())
}

/// Runs the traced replay and records every per-layer metric into
/// `metrics`. `untraced_p50_ms` and `journal_batch_mean` come from the
/// untraced window of the same run.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    scratch: &Scratch,
    untraced_p50_ms: f64,
    journal_batch_mean: f64,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let (ack, done) = daemon_replay(workload, inputs, scratch, tally)?;
    let traced: Vec<f64> = ack.iter().zip(&done).map(|(a, d)| a + d).collect();
    let (jobs, stats) = engine_replay(workload, inputs, workload.replay_jobs() as u64, tally)?;
    if jobs.is_empty() {
        return Err("engine replay verified no job".into());
    }

    metrics.set("serviced.submit_ack_ms", med(&ack));
    metrics.set("serviced.accepted_to_done_ms", med(&done));
    metrics.set("serviced.spec_parse_us", spec_parse_us(inputs)?);
    metrics.set(
        "serviced.journal_accept_us",
        journal_accept_us(inputs, scratch)?,
    );
    metrics.set("serviced.journal_batch_mean", journal_batch_mean);
    metrics.set("serviced.checksum_ms", med_of(&jobs, |j| j.checksum_ms));

    metrics.set("service.queue_wait_ms", med_of(&jobs, |j| j.queue_wait_ms));
    metrics.set("service.run_ms", med_of(&jobs, |j| j.run_ms));
    metrics.set("service.wake_ms", med_of(&jobs, |j| j.wake_ms));

    metrics.set("runtime.exchange_ms", med_of(&jobs, |j| ms(j.report.wall)));
    metrics.set(
        "runtime.outside_exchange_ms",
        med_of(&jobs, |j| j.run_ms - ms(j.report.wall)),
    );
    metrics.set("runtime.seed_ms", seed_ms(inputs));
    metrics.set(
        "runtime.assembly_cpu_ms",
        med_of(&jobs, |j| ms(j.report.assembly())),
    );
    metrics.set(
        "runtime.transport_cpu_ms",
        med_of(&jobs, |j| ms(j.report.transport())),
    );
    metrics.set(
        "runtime.rearrange_cpu_ms",
        med_of(&jobs, |j| ms(j.report.rearrange())),
    );
    metrics.set(
        "runtime.rho_ns_per_byte",
        med_of(&jobs, |j| match j.report.rearranged_bytes {
            0 => 0.0,
            bytes => j.report.rearrange().as_secs_f64() * 1e9 / bytes as f64,
        }),
    );
    metrics.set(
        "runtime.model_us",
        med_of(&jobs, |j| j.report.analytic.total()),
    );
    record_counts(&jobs, &stats, metrics);

    let (crc_gb_s, encode_us, decode_us) = codec(&jobs[0].report);
    metrics.set("message.crc32_gb_s", crc_gb_s);
    metrics.set("message.encode_us", encode_us);
    metrics.set("message.decode_us", decode_us);

    let (core_ms, lower_ms) = plan_builds(workload, inputs)?;
    metrics.set("core.plan_build_ms", core_ms);
    metrics.set("collective_plan.lower_ms", lower_ms);

    let accounted_ms = metrics.get("serviced.spec_parse_us") / 1e3
        + metrics.get("serviced.journal_accept_us") / 1e3
        + metrics.get("service.queue_wait_ms")
        + metrics.get("service.run_ms")
        + metrics.get("service.wake_ms")
        + metrics.get("serviced.checksum_ms");
    metrics.set("serviced.unaccounted_ms", untraced_p50_ms - accounted_ms);
    metrics.set("trace.accounted_ratio", accounted_ms / untraced_p50_ms);
    metrics.set("trace.overhead_ratio", med(&traced) / untraced_p50_ms);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EXACT;

    /// The exact counters of `jobs` engine-replayed jobs.
    fn counts(workload: Workload, inputs: &Inputs, jobs: u64) -> Vec<(&'static str, f64)> {
        let mut tally = Tally::default();
        let (done, stats) = engine_replay(workload, inputs, jobs, &mut tally).unwrap();
        assert_eq!((tally.attempted, tally.failed), (jobs, 0));
        let mut metrics = Metrics::default();
        record_counts(&done, &stats, &mut metrics);
        EXACT.iter().map(|&n| (n, metrics.get(n))).collect()
    }

    #[test]
    fn exact_counters_repeat_for_a_seed() {
        for (workload, jobs) in [
            (Workload::SmallAlltoall, 16),
            (Workload::Collectives, 8),
            (Workload::LossyAlltoall, 6),
        ] {
            let inputs = Inputs::generate(workload, 2);
            let first = counts(workload, &inputs, jobs);
            assert_eq!(
                first,
                counts(workload, &inputs, jobs),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn lossy_replay_exercises_recovery() {
        let inputs = Inputs::generate(Workload::LossyAlltoall, 1);
        let counts = counts(Workload::LossyAlltoall, &inputs, 6);
        let get = |n: &str| counts.iter().find(|(k, _)| *k == n).unwrap().1;
        assert!(get("runtime.injected_drops") > 0.0);
        assert_eq!(get("runtime.resends"), get("runtime.injected_drops"));
    }
}
