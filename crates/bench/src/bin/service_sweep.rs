//! Service sweep (experiment S1): the persistent multi-job engine under
//! increasing concurrency.
//!
//! One fixed batch of seeded jobs is pushed through a fresh
//! [`torus_service::Engine`] at each concurrency level (1, 2, 4, 8
//! drivers over one shared worker pool), so the table shows what job
//! overlap buys once the plan cache is warm: wall time per batch,
//! throughput, and the cache hit rate (first job per level misses, the
//! rest hit).
//!
//! Prints a table and exports every level's [`ServiceStats`] headline
//! (throughput, cache behavior, queue-wait and run-time percentiles) to
//! `results/service_sweep.json` and, as the committed perf-trajectory
//! snapshot, `BENCH_service_sweep.json` at the repo root.
//!
//! ```text
//! cargo run --release -p bench --bin service_sweep
//! TORUS_THREADS=16 cargo run --release -p bench --bin service_sweep
//! ```

use bench::{fnum, Table};
use torus_runtime::RuntimeConfig;
use torus_service::{Engine, EngineConfig, LatencyStats, PayloadSpec};
use torus_serviced::json::Json;
use torus_topology::TorusShape;

const JOBS: usize = 16;
const BLOCK_BYTES: usize = 64;

/// Latency percentiles in the JSON export.
fn latency_json(lat: &LatencyStats) -> Json {
    Json::obj([
        ("count", Json::u64(lat.count)),
        ("p50_us", Json::u64(lat.p50)),
        ("p95_us", Json::u64(lat.p95)),
        ("p99_us", Json::u64(lat.p99)),
        ("max_us", Json::u64(lat.max)),
    ])
}

fn main() {
    let pool = torus_sim::default_threads();
    let shape = TorusShape::new_2d(8, 8).unwrap();
    println!(
        "S1: persistent engine, {JOBS} seeded jobs per level on {shape}, m = {BLOCK_BYTES} B, \
         pool of {pool} workers (override with TORUS_THREADS)\n"
    );

    let mut t = Table::new(&[
        "concurrency",
        "workers/job",
        "wall (ms)",
        "jobs/s",
        "cache hit",
        "queue hwm",
        "wire (KiB)",
    ]);
    let mut levels_json: Vec<Json> = Vec::new();
    for concurrency in [1usize, 2, 4, 8] {
        // Split the shared pool across the overlapping jobs so every
        // level exercises the same total thread budget.
        let workers = (pool / concurrency).max(1);
        let engine = Engine::new(
            EngineConfig::default()
                .with_pool_size(pool)
                .with_drivers(concurrency)
                .with_queue_depth(JOBS),
        );
        let config = RuntimeConfig::default()
            .with_block_bytes(BLOCK_BYTES)
            .with_workers(workers);
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..JOBS as u64)
            .map(|seed| {
                engine
                    .submit(shape.clone(), PayloadSpec::Seeded { seed }, config.clone())
                    .expect("queue sized for the whole batch")
            })
            .collect();
        for handle in &handles {
            let result = handle.wait();
            let report = result.report.as_ref().expect("clean jobs complete");
            assert!(report.verified, "every job verifies bit-exactly");
        }
        let wall = start.elapsed();
        let stats = engine.shutdown();
        assert_eq!(stats.jobs_completed, JOBS as u64);
        let wall_ms = wall.as_secs_f64() * 1e3;
        let jobs_per_sec = JOBS as f64 / wall.as_secs_f64().max(f64::EPSILON);
        t.row(&[
            concurrency.to_string(),
            workers.to_string(),
            fnum(wall_ms),
            fnum(jobs_per_sec),
            match stats.cache_hit_rate() {
                Some(r) => format!("{:.0}%", r * 100.0),
                None => "-".into(),
            },
            stats.queue_high_water.to_string(),
            fnum(stats.wire_bytes as f64 / 1024.0),
        ]);
        levels_json.push(Json::obj([
            ("concurrency", Json::u64(concurrency as u64)),
            ("workers_per_job", Json::u64(workers as u64)),
            ("jobs", Json::u64(JOBS as u64)),
            ("wall_ms", Json::num(wall_ms)),
            ("jobs_per_sec", Json::num(jobs_per_sec)),
            ("jobs_completed", Json::u64(stats.jobs_completed)),
            ("cache_hits", Json::u64(stats.cache_hits)),
            ("cache_misses", Json::u64(stats.cache_misses)),
            ("queue_high_water", Json::u64(stats.queue_high_water as u64)),
            ("wire_bytes", Json::u64(stats.wire_bytes)),
            ("queue_wait", latency_json(&stats.queue_wait)),
            ("run_time", latency_json(&stats.run_time)),
        ]));
    }
    t.print();
    println!();

    let export = Json::obj([
        ("experiment", Json::str("service_sweep")),
        ("shape", Json::str(format!("{shape}"))),
        ("jobs_per_level", Json::u64(JOBS as u64)),
        ("block_bytes", Json::u64(BLOCK_BYTES as u64)),
        ("pool", Json::u64(pool as u64)),
        ("levels", Json::Arr(levels_json)),
    ]);
    for path in bench::export_json("service_sweep", &export) {
        println!("(wrote {})", path.display());
    }
    println!(
        "every job verified bit-exactly; one plan build per level, all later \
         jobs served from the cache."
    );
}
