//! Smoke tests for the persistent-pool execution path: `run_pooled`
//! (all-to-all and collective) must match the spawn path bit-for-bit and
//! leave the pool reusable afterwards.

use torus_runtime::{
    pattern_payload, CollectiveOp, CollectiveRuntime, PoolBank, Runtime, RuntimeConfig, WorkerPool,
};
use torus_topology::TorusShape;

#[test]
fn pooled_run_verifies_like_spawn() {
    let shape = TorusShape::new_2d(4, 4).unwrap();
    let cfg = RuntimeConfig::default()
        .with_workers(2)
        .with_block_bytes(64);
    let rt = Runtime::new(&shape, cfg).unwrap();
    let spawn = rt.run().unwrap();
    let pool = WorkerPool::new(2);
    let (pooled, _) = rt
        .run_pooled(&pool, None, |s, d| pattern_payload(s, d, 64))
        .unwrap();
    assert!(pooled.verified);
    assert_eq!(pooled.wire_bytes, spawn.wire_bytes);
    assert_eq!(pooled.messages, spawn.messages);
    assert_eq!(pooled.nodes, spawn.nodes);
    pool.shutdown();
}

#[test]
fn sequential_pooled_runs_reuse_threads_and_warm_pools() {
    let shape = TorusShape::new_2d(4, 4).unwrap();
    let cfg = RuntimeConfig::default()
        .with_workers(2)
        .with_block_bytes(64);
    let rt = Runtime::new(&shape, cfg).unwrap();
    let pool = WorkerPool::new(2);
    let bank = PoolBank::new();
    let (first, _) = rt
        .run_pooled(&pool, Some(&bank), |s, d| pattern_payload(s, d, 64))
        .unwrap();
    assert!(first.verified);
    assert_eq!(bank.len(), 2, "both workers banked their frame pools");
    let (second, _) = rt
        .run_pooled(&pool, Some(&bank), |s, d| pattern_payload(s, d, 64))
        .unwrap();
    assert!(second.verified);
    assert!(
        second.allocations < first.allocations,
        "warm pools must cut allocations ({} -> {})",
        first.allocations,
        second.allocations
    );
    pool.shutdown();
}

#[test]
fn collective_pooled_runs_match_spawn_and_warm_the_bank() {
    let shape = TorusShape::new_2d(4, 4).unwrap();
    let cfg = RuntimeConfig::default()
        .with_workers(2)
        .with_block_bytes(64);
    let rt = CollectiveRuntime::new(&shape, CollectiveOp::Allgather, cfg).unwrap();
    let payload = |id| pattern_payload(id, id, 64);
    let (spawn, spawn_deliveries) = rt.run_with_payloads(payload).unwrap();
    let pool = WorkerPool::new(2);
    let bank = PoolBank::new();
    let (first, first_deliveries) = rt.run_pooled(&pool, Some(&bank), payload).unwrap();
    assert_eq!(bank.len(), 2, "both workers banked their frame pools");
    let (second, second_deliveries) = rt.run_pooled(&pool, Some(&bank), payload).unwrap();
    for (run, deliveries) in [(&first, &first_deliveries), (&second, &second_deliveries)] {
        assert!(run.verified);
        assert_eq!(deliveries, &spawn_deliveries);
        assert_eq!(run.wire_bytes, spawn.wire_bytes);
        assert_eq!(run.messages, spawn.messages);
    }
    assert_eq!(bank.len(), 2);
    assert!(
        second.allocations < first.allocations,
        "warm pools must cut allocations ({} -> {})",
        first.allocations,
        second.allocations
    );
    pool.shutdown();
}
