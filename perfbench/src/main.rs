//! End-to-end and layer-by-layer benchmark of the torus exchange daemon.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the daemon in-process (`Daemon::spawn`, default configuration
//! plus a journal, as `torus-xchg serve` runs it), drives it over
//! loopback TCP with closed-loop clients, and checks every `done`
//! against a checksum computed from the seed before the timed window.
//! `--trace 1` then replays the same job specs layer by layer (see
//! `trace.rs`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; a human-readable
//! table goes to standard error. Exits non-zero if any job failed.
//! See `perfbench/README.md` for the workloads and the metric map.

mod e2e;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use e2e::{Inputs, Scratch, Tally};
use metrics::{Metrics, END_TO_END, EXACT, PER_LAYER};
use torus_serviced::json::{self, Json};
use workload::Workload;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload; records its metrics and returns its tally.
fn run_workload(
    workload: Workload,
    args: &Args,
    scratch: &Scratch,
    metrics: &mut Metrics,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let inputs = Inputs::generate(workload, args.seed);
    let setup_s = e2e::setup_seconds(workload, &inputs, scratch, &mut tally)?;
    let window = e2e::timed_window(workload, &inputs, scratch, args.seconds)?;
    tally.add(window.tally);
    let jobs = window.latencies_ms.len();
    if jobs == 0 {
        return Err("no job verified in the timed window".into());
    }
    let pct = |q| stats::percentile(&window.latencies_ms, q).expect("samples");
    let p50 = pct(0.5);
    metrics.set("jobs_per_s", jobs as f64 / window.secs);
    metrics.set("latency_p50_ms", p50);
    metrics.set("latency_p90_ms", pct(0.9));
    metrics.set(
        "cpu_ms_per_job",
        window.cpu.as_secs_f64() * 1e3 / jobs as f64,
    );
    metrics.set("setup_s", setup_s);
    if args.trace {
        trace::run(
            workload,
            &inputs,
            scratch,
            p50,
            window.journal_batch_mean,
            metrics,
            &mut tally,
        )?;
    }
    metrics.set("peak_rss_mib", e2e::peak_rss_mib());

    let beyond_p90 = jobs - (jobs as f64 * 0.9).ceil() as usize;
    let (q1, q3) = stats::quartiles(&window.latencies_ms).unwrap_or((p50, p50));
    eprintln!(
        "perfbench: {} seed {} — {jobs} verified jobs in the {}/{} least-stolen slices \
         ({beyond_p90} beyond p90), latency quartiles {q1:.3}/{q3:.3} ms, host steal {:.1}%, \
         failed_ratio {} ({}/{})",
        workload.name(),
        args.seed,
        window.kept,
        e2e::SLICES,
        window.steal_share * 100.0,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted,
    );
    print_table(metrics, END_TO_END);
    if args.trace {
        print_table(metrics, PER_LAYER);
        print_accounting(metrics);
        compare_counters(workload, args.seed, metrics);
    }
    Ok(tally)
}

fn print_table(metrics: &Metrics, list: &[(&str, &str)]) {
    for (name, unit) in list {
        eprintln!("  {name:<32} {:>14.4} {unit}", metrics.get(name));
    }
}

/// The layer split of the median job, against the untraced p50.
fn print_accounting(m: &Metrics) {
    let p50 = m.get("latency_p50_ms");
    let rows = [
        ("serviced.spec_parse", m.get("serviced.spec_parse_us") / 1e3),
        (
            "serviced.journal_accept",
            m.get("serviced.journal_accept_us") / 1e3,
        ),
        ("service.queue_wait", m.get("service.queue_wait_ms")),
        ("  runtime.exchange", m.get("runtime.exchange_ms")),
        (
            "  runtime.outside_exchange",
            m.get("runtime.outside_exchange_ms"),
        ),
        ("service.run (= the two above)", m.get("service.run_ms")),
        ("service.wake", m.get("service.wake_ms")),
        ("serviced.checksum", m.get("serviced.checksum_ms")),
        ("serviced.unaccounted", m.get("serviced.unaccounted_ms")),
    ];
    eprintln!("  accounting of latency_p50_ms = {p50:.3} ms:");
    for (name, v) in rows {
        eprintln!("    {name:<32} {v:>9.3} ms {:>6.1}%", 100.0 * v / p50);
    }
    let data_plane = m.get("runtime.exchange_ms")
        + m.get("runtime.outside_exchange_ms")
        + m.get("serviced.checksum_ms");
    eprintln!(
        "    exchange + outside_exchange + checksum = {:.1}% of p50",
        100.0 * data_plane / p50
    );
}

/// Compares the exact counters with the snapshot recorded for this
/// workload and seed in `counters.json`, if there is one. Drift is
/// reported, not failed: a change that moves a counter on purpose says
/// so, and the snapshot is re-recorded with the next benchmark change.
fn compare_counters(workload: Workload, seed: u64, metrics: &Metrics) {
    let measured: Vec<String> = EXACT
        .iter()
        .map(|n| format!("\"{n}\": {}", metrics::num(metrics.get(n))))
        .collect();
    eprintln!(
        "perfbench: exact counters {{\"seed\": {seed}, \"workload\": \"{}\", {}}}",
        workload.name(),
        measured.join(", ")
    );
    let text = include_str!("../counters.json");
    let Ok(doc) = json::parse(text) else {
        eprintln!("perfbench: counters.json does not parse");
        return;
    };
    let Some(snapshot) = doc
        .get(&format!("seed-{seed}"))
        .and_then(|s| s.get(workload.name()))
    else {
        eprintln!("perfbench: no counter snapshot for seed {seed}");
        return;
    };
    let drift: Vec<String> = EXACT
        .iter()
        .filter_map(|n| {
            let want = snapshot.get(n).and_then(Json::as_f64)?;
            let got = metrics.get(n);
            (got != want).then(|| format!("{n} {want} -> {got}"))
        })
        .collect();
    if drift.is_empty() {
        eprintln!("perfbench: exact counters match the seed-{seed} snapshot");
    } else {
        eprintln!("perfbench: COUNTER DRIFT vs snapshot: {}", drift.join("; "));
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
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut lines = Vec::new();
    let mut ok = true;
    for &workload in &args.workloads {
        let mut metrics = Metrics::default();
        match run_workload(workload, &args, &scratch, &mut metrics) {
            Ok(t) => {
                tally.add(t);
                let list = if args.trace { PER_LAYER } else { END_TO_END };
                lines.push((t, metrics.json(list)));
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                ok = false;
            }
        }
    }
    drop(scratch);
    eprintln!(
        "perfbench: finished in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    if !ok {
        return ExitCode::FAILURE;
    }
    let correct = tally.failed == 0;
    for (t, line) in lines {
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {line}}}",
            t.failed == 0,
            t.attempted,
            t.failed
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
