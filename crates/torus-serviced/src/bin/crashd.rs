//! A minimal journaling daemon runner for the crash-recovery harness.
//!
//! The integration tests (`tests/crash_recovery.rs`) spawn this binary
//! via `CARGO_BIN_EXE_crashd`, SIGKILL it mid-batch, and restart it on
//! the same `--journal-dir` to exercise replay. It is deliberately a
//! thin shell around [`Daemon`]: parse a few flags, write the bound
//! port atomically to `--port-file`, serve until drained, remove the
//! port file on the clean exit path (a SIGKILL leaves it behind — the
//! harness treats a stale file's port as possibly dead and retries).

use torus_service::EngineConfig;
use torus_serviced::{Daemon, DaemonConfig, JournalConfig};

fn usage() -> ! {
    eprintln!(
        "usage: crashd --journal-dir DIR [--port-file PATH] [--pool N] \
         [--drivers N] [--queue-depth N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut journal_dir: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut pool = 4usize;
    let mut drivers = 2usize;
    let mut queue_depth = 256usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |slot: &mut String| match args.next() {
            Some(v) => *slot = v,
            None => usage(),
        };
        let mut value = String::new();
        match arg.as_str() {
            "--journal-dir" => {
                take(&mut value);
                journal_dir = Some(value);
            }
            "--port-file" => {
                take(&mut value);
                port_file = Some(value);
            }
            "--pool" => {
                take(&mut value);
                pool = value.parse().unwrap_or_else(|_| usage());
            }
            "--drivers" => {
                take(&mut value);
                drivers = value.parse().unwrap_or_else(|_| usage());
            }
            "--queue-depth" => {
                take(&mut value);
                queue_depth = value.parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    let Some(journal_dir) = journal_dir else {
        usage();
    };

    let config = DaemonConfig {
        engine: EngineConfig::default()
            .with_pool_size(pool)
            .with_drivers(drivers)
            .with_queue_depth(queue_depth),
        journal: Some(JournalConfig::new(&journal_dir)),
        ..DaemonConfig::default()
    };
    let daemon = match Daemon::bind(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("crashd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = daemon.local_addr().expect("bound address");
    if let Some(path) = &port_file {
        // tmp + rename: a reader never sees a half-written port.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{}\n", addr.port())).expect("write port file");
        std::fs::rename(&tmp, path).expect("publish port file");
    }
    eprintln!("crashd: listening on {addr}");
    let stats = daemon.run();
    eprintln!(
        "crashd: drained with {} completed / {} failed",
        stats.jobs_completed, stats.jobs_failed
    );
    if let Some(path) = &port_file {
        let _ = std::fs::remove_file(path);
    }
}
