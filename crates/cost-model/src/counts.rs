//! The four cost dimensions tracked by the paper's complexity analysis.
//!
//! All quantities are *critical-path, per-node* counts: every node acts in
//! lock step, so the completion time of a step is driven by the busiest
//! message of that step. Summed over all steps these counts multiply
//! directly with the [`CommParams`](crate::params::CommParams)
//! coefficients to give completion time (see
//! [`completion`](crate::completion)).

/// Aggregated cost counts of a complete-exchange run (or closed form).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CostCounts {
    /// Number of communication steps (each step charges one `t_s`).
    pub startup_steps: u64,
    /// Critical-path transmitted blocks: `Σ_steps max_node(blocks sent)`.
    pub trans_blocks: u64,
    /// Number of data-rearrangement steps performed between phases/steps.
    pub rearr_steps: u64,
    /// Critical-path rearranged blocks: `Σ_rearrangements max_node(blocks moved)`.
    pub rearr_blocks: u64,
    /// Critical-path propagation hops: `Σ_steps max_message(hops)`.
    pub prop_hops: u64,
}

impl CostCounts {
    /// Element-wise sum, for composing multi-stage algorithms.
    pub fn add(&self, other: &CostCounts) -> CostCounts {
        CostCounts {
            startup_steps: self.startup_steps + other.startup_steps,
            trans_blocks: self.trans_blocks + other.trans_blocks,
            rearr_steps: self.rearr_steps + other.rearr_steps,
            rearr_blocks: self.rearr_blocks + other.rearr_blocks,
            prop_hops: self.prop_hops + other.prop_hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_elementwise() {
        let a = CostCounts {
            startup_steps: 1,
            trans_blocks: 2,
            rearr_steps: 3,
            rearr_blocks: 4,
            prop_hops: 5,
        };
        let b = CostCounts {
            startup_steps: 10,
            trans_blocks: 20,
            rearr_steps: 30,
            rearr_blocks: 40,
            prop_hops: 50,
        };
        let c = a.add(&b);
        assert_eq!(
            c,
            CostCounts {
                startup_steps: 11,
                trans_blocks: 22,
                rearr_steps: 33,
                rearr_blocks: 44,
                prop_hops: 55,
            }
        );
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(CostCounts::default().startup_steps, 0);
        assert_eq!(
            CostCounts::default().add(&CostCounts::default()),
            CostCounts::default()
        );
    }
}
