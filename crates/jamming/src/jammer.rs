//! n-uniform jamming adversaries (Section 7, Theorem 18).
//!
//! An *n-uniform* jamming adversary may partition the `n` nodes into `n`
//! singleton groups and make a separate jamming decision for each node:
//! per slot, per node, she disables up to `k` of the `c` channels *for
//! that node*. A node whose chosen channel is jammed can neither deliver
//! nor receive on it that slot (it observes
//! [`crn_sim::Event::Jammed`]).
//!
//! Three concrete strategies cover the adversary space the experiments
//! sweep: oblivious-random, a rotating sweep, and a static targeted
//! jammer.

use crn_sim::rng::SimRng;
use crn_sim::{GlobalChannel, Interference, NodeId};

/// The jammer strategies swept by experiment F9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JammerStrategy {
    /// A fresh uniform `k`-subset per node per slot.
    Random,
    /// Node `u` in slot `t` has the contiguous block starting at
    /// `(t + u) mod c` jammed — deterministic, full coverage over time.
    Sweep,
    /// Channels `0..k` are jammed for every node in every slot (the
    /// strongest *static* jammer: it simply deletes `k` channels).
    Targeted,
}

impl JammerStrategy {
    /// All strategies, in sweep order.
    pub const ALL: [JammerStrategy; 3] = [
        JammerStrategy::Random,
        JammerStrategy::Sweep,
        JammerStrategy::Targeted,
    ];

    /// Human-readable name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            JammerStrategy::Random => "random",
            JammerStrategy::Sweep => "sweep",
            JammerStrategy::Targeted => "targeted",
        }
    }
}

/// An n-uniform jammer with budget `k` channels per node per slot.
#[derive(Debug, Clone)]
pub struct UniformJammer {
    n: usize,
    c: usize,
    k: usize,
    strategy: JammerStrategy,
    /// `jammed[node][channel]` for the current slot.
    jammed: Vec<Vec<bool>>,
    slot: u64,
}

impl UniformJammer {
    /// Creates a jammer for `n` nodes and `c` channels, jamming at most
    /// `k` channels per node per slot.
    ///
    /// # Panics
    ///
    /// Panics if `k > c`.
    pub fn new(n: usize, c: usize, k: usize, strategy: JammerStrategy) -> Self {
        assert!(
            k <= c,
            "jam budget k = {k} exceeds the channel count c = {c}"
        );
        UniformJammer {
            n,
            c,
            k,
            strategy,
            jammed: vec![vec![false; c]; n],
            slot: 0,
        }
    }

    /// The per-node jam budget.
    pub fn budget(&self) -> usize {
        self.k
    }

    /// Number of channels currently jammed for `node`.
    pub fn jammed_count(&self, node: usize) -> usize {
        self.jammed[node].iter().filter(|&&b| b).count()
    }
}

impl Interference for UniformJammer {
    fn advance(&mut self, slot: u64, rng: &mut SimRng) {
        self.slot = slot;
        for node in 0..self.n {
            let mask = &mut self.jammed[node];
            mask.iter_mut().for_each(|b| *b = false);
            if self.k == 0 {
                continue;
            }
            match self.strategy {
                JammerStrategy::Random => {
                    for i in rng.sample_indices(self.c, self.k) {
                        mask[i] = true;
                    }
                }
                JammerStrategy::Sweep => {
                    let start = ((slot + node as u64) % self.c as u64) as usize;
                    for off in 0..self.k {
                        mask[(start + off) % self.c] = true;
                    }
                }
                JammerStrategy::Targeted => {
                    for ch in mask.iter_mut().take(self.k) {
                        *ch = true;
                    }
                }
            }
        }
    }

    fn is_jammed(&self, node: NodeId, channel: GlobalChannel) -> bool {
        self.jammed
            .get(node.index())
            .and_then(|m| m.get(channel.index()))
            .copied()
            .unwrap_or(false)
    }

    fn jam_budget(&self) -> Option<usize> {
        Some(self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advanced(strategy: JammerStrategy, slot: u64) -> UniformJammer {
        let mut j = UniformJammer::new(4, 8, 3, strategy);
        let mut rng = SimRng::seed_from_u64(1);
        for s in 0..=slot {
            j.advance(s, &mut rng);
        }
        j
    }

    #[test]
    fn budget_respected_by_all_strategies() {
        for strategy in JammerStrategy::ALL {
            for slot in 0..20 {
                let j = advanced(strategy, slot);
                for node in 0..4 {
                    assert_eq!(
                        j.jammed_count(node),
                        3,
                        "{} at slot {slot}",
                        strategy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn targeted_jams_prefix() {
        let j = advanced(JammerStrategy::Targeted, 5);
        for node in 0..4u32 {
            for ch in 0..3u32 {
                assert!(j.is_jammed(NodeId(node), GlobalChannel(ch)));
            }
            for ch in 3..8u32 {
                assert!(!j.is_jammed(NodeId(node), GlobalChannel(ch)));
            }
        }
    }

    #[test]
    fn sweep_rotates_per_node_and_slot() {
        let j = advanced(JammerStrategy::Sweep, 0);
        // slot 0, node 0: block [0,3); node 1: [1,4).
        assert!(j.is_jammed(NodeId(0), GlobalChannel(0)));
        assert!(!j.is_jammed(NodeId(0), GlobalChannel(3)));
        assert!(j.is_jammed(NodeId(1), GlobalChannel(1)));
        assert!(!j.is_jammed(NodeId(1), GlobalChannel(0)));
    }

    #[test]
    fn random_changes_between_slots() {
        let mut j = UniformJammer::new(1, 32, 4, JammerStrategy::Random);
        let mut rng = SimRng::seed_from_u64(9);
        j.advance(0, &mut rng);
        let first: Vec<bool> = (0..32u32)
            .map(|ch| j.is_jammed(NodeId(0), GlobalChannel(ch)))
            .collect();
        j.advance(1, &mut rng);
        let second: Vec<bool> = (0..32u32)
            .map(|ch| j.is_jammed(NodeId(0), GlobalChannel(ch)))
            .collect();
        assert_ne!(first, second, "a 4-of-32 redraw virtually always differs");
    }

    #[test]
    fn zero_budget_never_jams() {
        let mut j = UniformJammer::new(2, 4, 0, JammerStrategy::Random);
        let mut rng = SimRng::seed_from_u64(0);
        j.advance(0, &mut rng);
        for ch in 0..4u32 {
            assert!(!j.is_jammed(NodeId(0), GlobalChannel(ch)));
        }
    }

    #[test]
    fn out_of_range_queries_are_unjammed() {
        let j = advanced(JammerStrategy::Targeted, 0);
        assert!(!j.is_jammed(NodeId(99), GlobalChannel(0)));
        assert!(!j.is_jammed(NodeId(0), GlobalChannel(99)));
    }

    #[test]
    #[should_panic(expected = "exceeds the channel count")]
    fn over_budget_rejected() {
        UniformJammer::new(2, 4, 5, JammerStrategy::Random);
    }
}
