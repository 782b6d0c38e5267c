//! The worker pool leaks no threads. Lives in its own test binary
//! because it counts every thread of the process via
//! `/proc/self/task`: a sibling test spawning threads in the same
//! process would skew the count.

#![cfg(target_os = "linux")]

use torus_runtime::WorkerPool;

#[test]
fn shutdown_returns_thread_count_to_baseline() {
    let count = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let before = count();
    let pool = WorkerPool::new(6);
    assert_eq!(count(), before + 6);
    pool.shutdown();
    assert_eq!(count(), before, "no leaked pool threads after shutdown");
}
