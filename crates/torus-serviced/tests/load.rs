//! The headline load test: 1024 jobs from 16 concurrent tenants
//! through one daemon, every delivery bit-exact (checksum-verified),
//! per-tenant books balanced, and zero cross-tenant interference.

use torus_service::{EngineConfig, PayloadSpec};
use torus_serviced::{checksum, json::Json, Client, Daemon, DaemonConfig, JobSpec};

const TENANTS: usize = 16;
const JOBS_PER_TENANT: usize = 64;

/// Tenants cycle through distinct shapes so the plan cache sees reuse
/// within a tenant and variety across them; every job gets a unique
/// seed so checksums are job-specific.
fn spec_for(tenant: usize, job: usize) -> JobSpec {
    let shape = match tenant % 3 {
        0 => vec![2, 2],
        1 => vec![4, 2],
        _ => vec![2, 3],
    };
    JobSpec {
        shape,
        block_bytes: 16 + 8 * (tenant % 4),
        payload: PayloadSpec::Seeded {
            seed: (tenant as u64) << 32 | job as u64,
        },
        ..JobSpec::default()
    }
}

#[test]
fn thousand_jobs_sixteen_tenants_bit_exact() {
    let config = DaemonConfig {
        engine: EngineConfig::default()
            .with_pool_size(8)
            .with_drivers(4)
            .with_queue_depth(2 * TENANTS * JOBS_PER_TENANT),
        ..DaemonConfig::default()
    };
    let (addr, daemon) = Daemon::spawn(config).unwrap();

    let workers: Vec<_> = (0..TENANTS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.hello(&format!("tenant-{t:02}")).unwrap();
                // Submit everything up front, then collect: maximal
                // interleaving between tenants.
                let jobs: Vec<(u64, JobSpec)> = (0..JOBS_PER_TENANT)
                    .map(|j| {
                        let spec = spec_for(t, j);
                        (client.submit(&spec).unwrap(), spec)
                    })
                    .collect();
                let mut exact = 0usize;
                for (id, spec) in jobs {
                    let done = client.wait_done(id).unwrap();
                    assert!(done.ok, "tenant {t} job {id}: {:?}", done.error);
                    assert!(!done.degraded);
                    let want = checksum::to_hex(checksum::expected_checksum(&spec));
                    assert_eq!(
                        done.checksum.as_deref(),
                        Some(want.as_str()),
                        "tenant {t} job {id} not bit-exact"
                    );
                    exact += 1;
                }
                exact
            })
        })
        .collect();

    let exact: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(exact, TENANTS * JOBS_PER_TENANT);

    // The books must balance, per tenant and in aggregate.
    let mut admin = Client::connect(addr).unwrap();
    let stats = admin.stats().unwrap();
    let service = stats.get("service").unwrap();
    assert_eq!(
        service.get("jobs_completed").unwrap().as_u64(),
        Some((TENANTS * JOBS_PER_TENANT) as u64)
    );
    assert_eq!(service.get("jobs_failed").unwrap().as_u64(), Some(0));

    let tenants = stats.get("tenants").unwrap().as_arr().unwrap();
    assert_eq!(tenants.len(), TENANTS);
    for row in tenants {
        let name = row.get("tenant").unwrap().as_str().unwrap();
        assert_eq!(
            row.get("jobs_completed").unwrap().as_u64(),
            Some(JOBS_PER_TENANT as u64),
            "tenant {name} lost jobs"
        );
        assert_eq!(row.get("jobs_rejected").unwrap().as_u64(), Some(0));
        assert_percentiles_sane(row.get("run_time_us").unwrap(), JOBS_PER_TENANT as u64);
        assert_percentiles_sane(row.get("queue_wait_us").unwrap(), JOBS_PER_TENANT as u64);
    }
    assert_percentiles_sane(
        service.get("run_time_us").unwrap(),
        (TENANTS * JOBS_PER_TENANT) as u64,
    );

    let final_service = admin.drain().unwrap();
    assert_eq!(
        final_service.get("jobs_completed").unwrap().as_u64(),
        Some((TENANTS * JOBS_PER_TENANT) as u64)
    );
    daemon.join().unwrap();
}

fn assert_percentiles_sane(lat: &Json, expected_count: u64) {
    let get = |k: &str| lat.get(k).unwrap().as_u64().unwrap();
    assert_eq!(get("count"), expected_count);
    let (p50, p95, p99, max) = (get("p50"), get("p95"), get("p99"), get("max"));
    assert!(
        p50 <= p95 && p95 <= p99 && p99 <= max,
        "percentiles not monotone: p50={p50} p95={p95} p99={p99} max={max}"
    );
}
