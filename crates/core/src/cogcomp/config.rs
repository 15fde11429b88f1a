//! COGCOMP run configuration and the global phase schedule.
//!
//! All four phases run on a schedule every node can compute locally from
//! `(n, c, k)` and the chosen COGCAST constant: phase one takes `l =`
//! [`crate::bounds::cogcast_slots`] slots, phase two exactly `n`, phase
//! three exactly `l` (the rewind), and phase four runs in 3-slot steps
//! until the node terminates.

use crate::bounds;

/// Which phase a slot belongs to, with the offset inside the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseAt {
    /// Phase one (COGCAST tree building); offset is the phase-1 slot.
    One(u64),
    /// Phase two (cluster census); offset in `0..n`.
    Two(u64),
    /// Phase three (the rewind); offset in `0..l`.
    Three(u64),
    /// Phase four; `step` counts 3-slot steps, `sub` is the slot within
    /// the step (0 = announce, 1 = value, 2 = ack).
    Four {
        /// Step index, starting at 0.
        step: u64,
        /// Slot within the step: 0, 1 or 2.
        sub: u8,
    },
}

/// Whether phase four uses the paper's mediator coordination.
///
/// The paper introduces per-channel *mediators* precisely because
/// uncoordinated senders "might imagine being delayed by `Θ(n/c)`
/// time at each level of the distribution tree" (Section 5 overview).
/// [`Coordination::Uncoordinated`] is the ablation that removes the
/// announce gating so that penalty can be measured (experiment A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Coordination {
    /// The paper's protocol: mediators announce which cluster may send.
    #[default]
    Mediated,
    /// Ablation: every ready sender contends every step; receivers
    /// still ack only their current cluster.
    Uncoordinated,
}

/// Static parameters of a COGCOMP execution, shared by all nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CogCompConfig {
    /// Number of nodes.
    pub n: usize,
    /// Channels per node.
    pub c: usize,
    /// Pairwise overlap guarantee.
    pub k: usize,
    /// Length `l` of phase one in slots.
    pub phase1_slots: u64,
    /// Phase-four coordination mode (the paper's mediators by default).
    pub coordination: Coordination,
    /// Number of aggregation rounds sharing one distribution tree:
    /// phases one–three run once, then phase four repeats `rounds`
    /// times in fixed windows of [`CogCompConfig::round_steps`] steps
    /// with fresh per-round values (amortized repeated aggregation).
    pub rounds: u32,
}

impl CogCompConfig {
    /// Builds a configuration sizing phase one by Theorem 4 with the
    /// given constant `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `k == 0` or `k > c` (via
    /// [`bounds::cogcast_slots`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use crn_core::cogcomp::CogCompConfig;
    /// let cfg = CogCompConfig::new(64, 8, 2, 10.0);
    /// assert_eq!(cfg.phase2_start(), cfg.phase1_slots);
    /// assert_eq!(cfg.phase3_start(), cfg.phase1_slots + 64);
    /// assert_eq!(cfg.phase4_start(), 2 * cfg.phase1_slots + 64);
    /// ```
    pub fn new(n: usize, c: usize, k: usize, alpha: f64) -> Self {
        CogCompConfig {
            n,
            c,
            k,
            phase1_slots: bounds::cogcast_slots(n, c, k, alpha),
            coordination: Coordination::Mediated,
            rounds: 1,
        }
    }

    /// Returns the configuration with the given phase-four
    /// coordination mode (see [`Coordination`]).
    pub fn with_coordination(mut self, coordination: Coordination) -> Self {
        self.coordination = coordination;
        self
    }

    /// Returns the configuration running `rounds` phase-four rounds
    /// over the same tree (see [`CogCompConfig::rounds`]).
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        assert!(rounds >= 1, "need at least one round");
        self.rounds = rounds;
        self
    }

    /// Phase-four steps reserved per aggregation round: `2n + 32`
    /// (Theorem 10's `O(n)` with headroom). Every node derives round
    /// boundaries from this, so rounds stay globally synchronized.
    pub fn round_steps(&self) -> u64 {
        2 * self.n as u64 + 32
    }

    /// First slot of phase two.
    pub fn phase2_start(&self) -> u64 {
        self.phase1_slots
    }

    /// First slot of phase three.
    pub fn phase3_start(&self) -> u64 {
        self.phase1_slots + self.n as u64
    }

    /// First slot of phase four.
    pub fn phase4_start(&self) -> u64 {
        2 * self.phase1_slots + self.n as u64
    }

    /// Classifies an absolute slot into its phase and offset.
    ///
    /// # Examples
    ///
    /// ```
    /// use crn_core::cogcomp::{CogCompConfig, PhaseAt};
    /// let cfg = CogCompConfig { phase1_slots: 10, ..CogCompConfig::new(4, 2, 1, 1.0) };
    /// assert_eq!(cfg.phase_at(0), PhaseAt::One(0));
    /// assert_eq!(cfg.phase_at(10), PhaseAt::Two(0));
    /// assert_eq!(cfg.phase_at(14), PhaseAt::Three(0));
    /// assert_eq!(cfg.phase_at(24), PhaseAt::Four { step: 0, sub: 0 });
    /// assert_eq!(cfg.phase_at(28), PhaseAt::Four { step: 1, sub: 1 });
    /// ```
    pub fn phase_at(&self, slot: u64) -> PhaseAt {
        let l = self.phase1_slots;
        let n = self.n as u64;
        if slot < l {
            PhaseAt::One(slot)
        } else if slot < l + n {
            PhaseAt::Two(slot - l)
        } else if slot < 2 * l + n {
            PhaseAt::Three(slot - l - n)
        } else {
            let off = slot - (2 * l + n);
            PhaseAt::Four {
                step: off / 3,
                sub: (off % 3) as u8,
            }
        }
    }

    /// A generous overall slot budget: the fixed phases plus
    /// `3·(4n + 32)` phase-four slots per round. Theorem 10 bounds
    /// phase four by `O(n)` steps; the headroom keeps low-probability
    /// stragglers from timing out in experiments.
    ///
    /// # Panics
    ///
    /// Panics if the schedule overflows `u64` (an absurd phase-one
    /// length; the runners reject such a configuration first).
    pub fn recommended_budget(&self) -> u64 {
        self.checked_budget()
            .expect("COGCOMP slot schedule overflows u64")
    }

    /// [`CogCompConfig::recommended_budget`], or `None` when the slot
    /// schedule (phase one twice, then every phase-four window)
    /// overflows `u64`.
    pub(crate) fn checked_budget(&self) -> Option<u64> {
        let window = 3 * self.round_steps();
        self.phase1_slots
            .checked_mul(2)?
            .checked_add(self.n as u64)?
            .checked_add(window.checked_mul(u64::from(self.rounds.max(1)))?)?
            .checked_add(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_contiguous() {
        let cfg = CogCompConfig {
            phase1_slots: 7,
            ..CogCompConfig::new(5, 3, 1, 1.0)
        };
        assert_eq!(cfg.phase_at(6), PhaseAt::One(6));
        assert_eq!(cfg.phase_at(7), PhaseAt::Two(0));
        assert_eq!(cfg.phase_at(11), PhaseAt::Two(4));
        assert_eq!(cfg.phase_at(12), PhaseAt::Three(0));
        assert_eq!(cfg.phase_at(18), PhaseAt::Three(6));
        assert_eq!(cfg.phase_at(19), PhaseAt::Four { step: 0, sub: 0 });
        assert_eq!(cfg.phase_at(20), PhaseAt::Four { step: 0, sub: 1 });
        assert_eq!(cfg.phase_at(21), PhaseAt::Four { step: 0, sub: 2 });
        assert_eq!(cfg.phase_at(22), PhaseAt::Four { step: 1, sub: 0 });
    }

    #[test]
    fn new_uses_theorem4_budget() {
        let cfg = CogCompConfig::new(100, 10, 2, 3.0);
        assert_eq!(cfg.phase1_slots, bounds::cogcast_slots(100, 10, 2, 3.0));
    }

    #[test]
    fn budget_covers_all_phases() {
        let cfg = CogCompConfig::new(20, 4, 2, 5.0);
        assert!(cfg.recommended_budget() > cfg.phase4_start());
        assert!(cfg.recommended_budget() >= cfg.phase4_start() + 3 * 20);
    }
}
