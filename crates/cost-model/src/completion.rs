//! Completion time: combining cost counts with machine parameters.
//!
//! The paper (Section 2) decomposes the completion time of a collective
//! operation into startup time, message-transmission time, propagation
//! delay, and data-rearrangement time. [`CompletionTime`] keeps the four
//! components separate so evaluation output can show *why* one algorithm
//! wins (e.g. \[9\] wins startups, the proposed algorithm wins
//! rearrangement).

use crate::counts::CostCounts;
use crate::params::CommParams;

/// Completion time broken into the paper's four components (all µs).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CompletionTime {
    /// `startup_steps · t_s`
    pub startup: f64,
    /// `trans_blocks · m · t_c`
    pub transmission: f64,
    /// `rearr_blocks · m · ρ`
    pub rearrangement: f64,
    /// `prop_hops · t_l`
    pub propagation: f64,
}

impl CompletionTime {
    /// Evaluates counts under parameters.
    pub fn from_counts(counts: &CostCounts, params: &CommParams) -> Self {
        let m = params.block_size() as f64;
        Self {
            startup: counts.startup_steps as f64 * params.t_s,
            transmission: counts.trans_blocks as f64 * m * params.t_c,
            rearrangement: counts.rearr_blocks as f64 * m * params.rho,
            propagation: counts.prop_hops as f64 * params.t_l,
        }
    }

    /// Total completion time (µs).
    pub fn total(&self) -> f64 {
        self.startup + self.transmission + self.rearrangement + self.propagation
    }

    /// The dominant component's name, for report output.
    pub fn dominant(&self) -> &'static str {
        let parts = [
            (self.startup, "startup"),
            (self.transmission, "transmission"),
            (self.rearrangement, "rearrangement"),
            (self.propagation, "propagation"),
        ];
        parts
            .iter()
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("times are finite"))
            .expect("non-empty")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> CostCounts {
        CostCounts {
            startup_steps: 8,
            trans_blocks: 576,
            rearr_steps: 3,
            rearr_blocks: 432,
            prop_hops: 22,
        }
    }

    #[test]
    fn unit_params_reproduce_counts() {
        let t = CompletionTime::from_counts(&counts(), &CommParams::unit());
        assert_eq!(t.startup, 8.0);
        assert_eq!(t.transmission, 576.0);
        assert_eq!(t.rearrangement, 432.0);
        assert_eq!(t.propagation, 22.0);
        assert_eq!(t.total(), 8.0 + 576.0 + 432.0 + 22.0);
    }

    #[test]
    fn block_size_scales_transmission_and_rearrangement() {
        let p = CommParams::unit().with_block_bytes(64);
        let t = CompletionTime::from_counts(&counts(), &p);
        assert_eq!(t.transmission, 576.0 * 64.0);
        assert_eq!(t.rearrangement, 432.0 * 64.0);
        // startup and propagation unaffected by block size
        assert_eq!(t.startup, 8.0);
        assert_eq!(t.propagation, 22.0);
    }

    #[test]
    fn dominant_component() {
        let t = CompletionTime {
            startup: 1.0,
            transmission: 10.0,
            rearrangement: 3.0,
            propagation: 2.0,
        };
        assert_eq!(t.dominant(), "transmission");
        let t2 = CompletionTime {
            startup: 100.0,
            ..t
        };
        assert_eq!(t2.dominant(), "startup");
    }

    #[test]
    fn t3d_preset_startup_dominates_small_network() {
        // On a small torus with big t_s, startup must dominate — the
        // motivation for message combining.
        let c = crate::table1::proposed_2d(8, 8);
        let t = CompletionTime::from_counts(&c, &CommParams::cray_t3d_like());
        assert_eq!(t.dominant(), "startup");
    }
}
