//! The four workloads and the job specs they generate.
//!
//! Every input comes from the `--seed` argument and a job index: job
//! `k` of a run submits spec `k % pool_size`, whose payload seed (and,
//! on the lossy workload, fault seed) is a hash of `(seed, index)`. The
//! daemon and the engine only ever see the generated specs.

use std::time::Duration;

use torus_service::{CollectiveOp, Dtype, JobOp, PayloadSpec, ReduceOp};
use torus_serviced::{FaultSpec, JobSpec, RetrySpec};

/// One benchmark workload (see `perfbench/README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 4×4, 64 B blocks, all-to-all, 2 clients: front-door bound.
    SmallAlltoall,
    /// 8×8, 1 KiB blocks, all-to-all, 1 client: data-plane bound.
    BulkAlltoall,
    /// 8×8, 256 B blocks, four collectives round-robin, 1 client.
    Collectives,
    /// 8×8, 256 B blocks, all-to-all under 1% seeded frame drops, 1 client.
    LossyAlltoall,
}

/// The collectives workload's round-robin, by job index.
const COLLECTIVE_OPS: [CollectiveOp; 4] = [
    CollectiveOp::Allreduce {
        op: ReduceOp::Sum,
        dtype: Dtype::F32,
    },
    CollectiveOp::Allreduce {
        op: ReduceOp::Sum,
        dtype: Dtype::U64,
    },
    CollectiveOp::Broadcast { root: 0 },
    CollectiveOp::Allgather,
];

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SmallAlltoall,
        Workload::BulkAlltoall,
        Workload::Collectives,
        Workload::LossyAlltoall,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallAlltoall => "small-alltoall",
            Workload::BulkAlltoall => "bulk-alltoall",
            Workload::Collectives => "collectives",
            Workload::LossyAlltoall => "lossy-alltoall",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections (never more than the 2 cores the
    /// benchmark was sized on).
    pub fn clients(self) -> usize {
        match self {
            Workload::SmallAlltoall => 2,
            _ => 1,
        }
    }

    /// Distinct specs a run cycles through; all their checksums are
    /// computed before the timed window, so this bounds that work. A
    /// 20 s window submits a bulk-alltoall spec about four times and a
    /// lossy-alltoall spec (whose cost depends on its drops) at most
    /// once; small-alltoall and collectives, whose cost does not depend
    /// on the payload, cycle through theirs many times.
    pub fn pool_size(self) -> usize {
        match self {
            Workload::SmallAlltoall => 512,
            Workload::BulkAlltoall => 64,
            Workload::Collectives => 256,
            Workload::LossyAlltoall => 256,
        }
    }

    /// Jobs the traced replay runs through the daemon and through the
    /// engine (each). Fixed, so the replay's exact counters repeat.
    pub fn replay_jobs(self) -> usize {
        match self {
            Workload::SmallAlltoall => 400,
            Workload::BulkAlltoall => 24,
            Workload::Collectives => 64,
            Workload::LossyAlltoall => 24,
        }
    }

    /// Distinct `(shape, op)` pairs; job indices `0..distinct_keys()`
    /// cover every one of them.
    pub fn distinct_keys(self) -> usize {
        match self {
            Workload::Collectives => COLLECTIVE_OPS.len(),
            _ => 1,
        }
    }

    /// The spec of job `index` under `seed`.
    pub fn spec(self, seed: u64, index: u64) -> JobSpec {
        let payload = PayloadSpec::Seeded {
            seed: derive(seed, index, 0),
        };
        let alltoall = |shape: [u32; 2], block_bytes: usize| JobSpec {
            shape: shape.to_vec(),
            block_bytes,
            payload,
            ..JobSpec::default()
        };
        match self {
            Workload::SmallAlltoall => alltoall([4, 4], 64),
            Workload::BulkAlltoall => alltoall([8, 8], 1024),
            Workload::Collectives => JobSpec {
                op: JobOp::Collective(COLLECTIVE_OPS[index as usize % COLLECTIVE_OPS.len()]),
                ..alltoall([8, 8], 256)
            },
            Workload::LossyAlltoall => JobSpec {
                fault: Some(FaultSpec {
                    drop_rate: 0.01,
                    corrupt_rate: 0.0,
                    seed: derive(seed, index, 1),
                    worker_kill: None,
                    worker_stall: None,
                }),
                retry: Some(RetrySpec {
                    deadline_ms: 25,
                    max_retries: 4,
                    backoff_us: 1000,
                }),
                ..alltoall([8, 8], 256)
            },
        }
    }
}

/// How long the closed loop runs before anything is timed.
pub const WARMUP: Duration = Duration::from_millis(500);

/// splitmix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A per-job seed for stream `salt` (0 payload, 1 faults), kept to 53
/// bits because the wire spec carries seeds as JSON numbers.
fn derive(seed: u64, index: u64, salt: u64) -> u64 {
    mix(mix(seed ^ salt.rotate_left(32)) ^ index) >> 11
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn specs_depend_only_on_seed_and_index() {
        for w in Workload::ALL {
            assert_eq!(w.spec(7, 3), w.spec(7, 3));
            assert_ne!(w.spec(7, 3), w.spec(8, 3));
            assert_ne!(w.spec(7, 3), w.spec(7, 4));
            // Every spec passes the daemon's own validation.
            let spec = w.spec(1, 0);
            assert_eq!(JobSpec::from_json(&spec.to_json()), Ok(spec));
        }
    }

    #[test]
    fn first_indices_cover_every_collective() {
        let ops: Vec<JobOp> = (0..Workload::Collectives.distinct_keys() as u64)
            .map(|i| Workload::Collectives.spec(1, i).op)
            .collect();
        for op in COLLECTIVE_OPS {
            assert!(ops.contains(&JobOp::Collective(op)));
        }
    }
}
