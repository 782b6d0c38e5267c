//! Protocol robustness: the daemon must survive malformed JSON,
//! schema-invalid specs, oversized lines, abrupt disconnects, and
//! arbitrary junk bytes — without panicking, leaking queue slots, or
//! wedging other connections.

use std::io::Write;
use std::net::TcpStream;

use proptest::prelude::*;
use torus_service::EngineConfig;
use torus_serviced::{proto, Client, Daemon, DaemonConfig, JobSpec};

fn quick_config() -> DaemonConfig {
    DaemonConfig {
        engine: EngineConfig::default().with_pool_size(4).with_drivers(2),
        ..DaemonConfig::default()
    }
}

fn small_spec() -> JobSpec {
    JobSpec {
        shape: vec![2, 2],
        block_bytes: 16,
        ..JobSpec::default()
    }
}

#[test]
fn malformed_lines_get_error_events_and_the_connection_survives() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();

    for junk in [
        "not json at all",
        "{",
        "[1,2,3]",
        r#"{"noop":1}"#,
        r#"{"op":"levitate"}"#,
        r#"{"op":"hello"}"#,
        r#"{"op":"hello","tenant":"bad tenant!"}"#,
        r#"{"op":"submit"}"#,
        "\"just a string\"",
        "null",
        r#"{"op":"status","job_id":01}"#,
        r#"{"op":"submit","spec":{"shape":[4,4],"seed":1.}}"#,
    ] {
        client.send_raw_bytes(junk.as_bytes()).unwrap();
        client.send_raw_bytes(b"\n").unwrap();
        let event = client.read_raw_event().unwrap();
        let ev = event.get("ev").unwrap().as_str().unwrap();
        assert_eq!(ev, "error", "junk {junk:?} must produce an error event");
    }

    // Same connection still does real work afterwards.
    client.hello("acme").unwrap();
    let job = client.submit(&small_spec()).unwrap();
    assert!(client.wait_done(job).unwrap().ok);

    client.drain().unwrap();
    daemon.join().unwrap();
}

#[test]
fn oversized_line_is_refused_and_only_that_connection_dies() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();

    let mut hog = Client::connect(addr).unwrap();
    // One giant "line" with no newline, larger than the cap.
    let blob = vec![b'x'; proto::MAX_LINE_BYTES + 4096];
    hog.send_raw_bytes(&blob).unwrap();
    // The daemon replies with an error event, then closes.
    let event = hog.read_raw_event().unwrap();
    assert_eq!(event.get("ev").unwrap().as_str(), Some("error"));
    assert!(
        event
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("exceeds"),
        "error should name the line cap"
    );
    assert!(
        hog.read_raw_event().is_err(),
        "connection must be closed after the oversized line"
    );

    // Other connections are untouched.
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();
    let job = client.submit(&small_spec()).unwrap();
    assert!(client.wait_done(job).unwrap().ok);

    client.drain().unwrap();
    daemon.join().unwrap();
}

#[test]
fn mid_job_disconnect_leaks_nothing_and_the_job_still_completes() {
    let config = DaemonConfig {
        engine: EngineConfig::default()
            .with_pool_size(4)
            .with_drivers(1)
            .with_queue_depth(4),
        ..DaemonConfig::default()
    };
    let (addr, daemon) = Daemon::spawn(config).unwrap();

    // Submit and slam the connection shut while the job is in flight.
    {
        let mut doomed = Client::connect(addr).unwrap();
        doomed.hello("ghost").unwrap();
        doomed.submit(&small_spec()).unwrap();
        // Drop without waiting: the pump's next write hits a dead pipe.
    }

    // The engine still runs the orphaned job; the queue slot frees up.
    // Fill the whole (depth 4) queue afterwards to prove nothing leaked.
    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();
    let jobs: Vec<u64> = (0..4)
        .map(|_| client.submit(&small_spec()).unwrap())
        .collect();
    for job in jobs {
        assert!(client.wait_done(job).unwrap().ok);
    }

    let service = client.drain().unwrap();
    assert_eq!(
        service.get("jobs_completed").unwrap().as_u64(),
        Some(5),
        "the orphaned job must have completed too"
    );
    daemon.join().unwrap();
}

#[test]
fn raw_tcp_disconnect_without_any_protocol_is_harmless() {
    let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();

    // Connect and vanish; connect, write half a line, vanish.
    drop(TcpStream::connect(addr).unwrap());
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"{\"op\":\"hel").unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    client.hello("acme").unwrap();
    let job = client.submit(&small_spec()).unwrap();
    assert!(client.wait_done(job).unwrap().ok);

    client.drain().unwrap();
    daemon.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary junk bytes (newlines included, so multiple garbage
    /// "requests" per case) never kill the daemon: after feeding them,
    /// a fresh connection still completes a clean job.
    #[test]
    fn random_junk_never_wedges_the_daemon(junk in prop::collection::vec(any::<u8>(), 1..512)) {
        let (addr, daemon) = Daemon::spawn(quick_config()).unwrap();
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&junk).unwrap();
            s.write_all(b"\n").unwrap();
            // Some junk draws error replies; we don't read them — the
            // connection just drops with responses still buffered.
        }
        let mut client = Client::connect(addr).unwrap();
        client.hello("prop").unwrap();
        let job = client.submit(&small_spec()).unwrap();
        prop_assert!(client.wait_done(job).unwrap().ok);
        client.drain().unwrap();
        daemon.join().unwrap();
    }
}
