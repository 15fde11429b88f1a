//! Deterministic (jump-stay flavoured) rendezvous.
//!
//! The rendezvous literature the paper builds on ([6, 11, 15] in its
//! bibliography) constructs deterministic channel-hopping sequences
//! with guaranteed meeting times polynomial in the channel count. The
//! paper's footnote 1 observes that plain *randomized* hopping already
//! achieves `O(c²/k)` — improving on determinism whenever `k` is
//! non-constant. Experiment T6 measures that claim with this module as
//! the deterministic side.
//!
//! The scheme here adapts the jump-stay idea to the synchronous,
//! simultaneous-start, global-label model. Plain symmetric sequences
//! deadlock under symmetry (two nodes can chase each other forever),
//! so roles are derived from node identifiers, as the deterministic
//! literature does:
//!
//! - time is split into *rounds* of `2P` slots, `P` = smallest prime
//!   ≥ `C`;
//! - in round `rd`, a node is a **jumper** if `(salt + rd)` is even
//!   and a **stayer** otherwise — any two nodes with salts of opposite
//!   parity hold opposite roles in *every* round;
//! - a jumper walks `x_t = (salt + t·r) mod P` with the step
//!   `r = (rd mod (P−1)) + 1`; since `P` is prime the walk visits
//!   every residue — in particular every channel in its own set —
//!   within the round;
//! - a stayer parks on its `⌊rd/2⌋ mod c`-th channel for the whole
//!   round, cycling through its channel set across rounds.
//!
//! **Guarantee:** within `2c` rounds the stayer has parked on one of
//! the ≥ `k` channels shared with its partner while holding the stayer
//! role, and in that round the jumper's walk tunes that exact global
//! channel — so any opposite-parity pair meets within `4cP =
//! O(c·C)` slots. (The bound is verified by an exhaustive test.)

use crn_sim::rng::SimRng;
use crn_sim::{
    Action, ChannelModel, Event, GlobalChannel, LocalChannel, Network, NodeCtx, OracleSingleHop,
    Protocol, SimError,
};

/// Returns the smallest prime `>= n` (and `>= 2`).
///
/// # Examples
///
/// ```
/// use crn_rendezvous::deterministic::smallest_prime_geq;
/// assert_eq!(smallest_prime_geq(0), 2);
/// assert_eq!(smallest_prime_geq(8), 11);
/// assert_eq!(smallest_prime_geq(11), 11);
/// ```
pub fn smallest_prime_geq(n: usize) -> usize {
    fn is_prime(x: usize) -> bool {
        if x < 2 {
            return false;
        }
        let mut d = 2;
        while d * d <= x {
            if x.is_multiple_of(d) {
                return false;
            }
            d += 1;
        }
        true
    }
    let mut p = n.max(2);
    while !is_prime(p) {
        p += 1;
    }
    p
}

/// The deterministic schedule for a channel universe of size
/// `total_channels` and a node distinguished by `salt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpStaySchedule {
    /// The prime the jump walk is built over.
    pub prime: usize,
    /// Distinguishes nodes; opposite parities guarantee rendezvous.
    pub salt: u32,
}

/// What the schedule prescribes for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPlan {
    /// Walk the jump sequence: tune the given raw residue (a global
    /// channel id when `< C`).
    Jump(usize),
    /// Park on the node's own channel with this index (mod `c`).
    Stay(usize),
}

impl JumpStaySchedule {
    /// Builds a schedule.
    pub fn new(total_channels: usize, salt: u32) -> Self {
        JumpStaySchedule {
            prime: smallest_prime_geq(total_channels),
            salt,
        }
    }

    /// Length of one round in slots (`2P`).
    pub fn round_len(&self) -> u64 {
        2 * self.prime as u64
    }

    /// The plan for `slot`.
    pub fn plan(&self, slot: u64) -> SlotPlan {
        let p = self.prime as u64;
        let rd = slot / self.round_len();
        let t = slot % self.round_len();
        let jumper = (self.salt as u64 + rd).is_multiple_of(2);
        if jumper {
            let r = (rd % (p - 1).max(1)) + 1;
            SlotPlan::Jump(((self.salt as u64 + t * r) % p) as usize)
        } else {
            SlotPlan::Stay((rd / 2) as usize)
        }
    }
}

/// A node running the deterministic scheme: node 0 beacons, others
/// listen. Requires the global-label model.
#[derive(Debug, Clone)]
pub struct JumpStay {
    schedule: JumpStaySchedule,
    total_channels: usize,
    beaconer: bool,
    met: bool,
}

impl JumpStay {
    /// The transmitting side (use an even `salt`).
    pub fn beaconer(total_channels: usize, salt: u32) -> Self {
        JumpStay {
            schedule: JumpStaySchedule::new(total_channels, salt),
            total_channels,
            beaconer: true,
            met: false,
        }
    }

    /// The listening side (use a `salt` of opposite parity to the
    /// beaconer's).
    pub fn listener(total_channels: usize, salt: u32) -> Self {
        JumpStay {
            schedule: JumpStaySchedule::new(total_channels, salt),
            total_channels,
            beaconer: false,
            met: false,
        }
    }

    /// True once this listener has heard the beacon.
    pub fn has_met(&self) -> bool {
        self.met
    }

    /// The guaranteed meeting horizon for an opposite-parity pair with
    /// `c` channels each: `2c` rounds of `2P` slots.
    pub fn horizon(&self, c: usize) -> u64 {
        2 * c as u64 * self.schedule.round_len()
    }
}

impl Protocol<u8> for JumpStay {
    fn decide(&mut self, ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u8> {
        let channels = ctx
            .channels
            .expect("deterministic rendezvous requires the global-label model");
        let local = match self.schedule.plan(ctx.slot) {
            SlotPlan::Jump(x) => {
                let target = GlobalChannel(x.min(self.total_channels.saturating_sub(1)) as u32);
                ctx.local_label_of(target)
                    // Residues outside the node's set are parked inside
                    // it; these slots are "wasted" but harmless.
                    .unwrap_or(LocalChannel((x % channels.len()) as u32))
            }
            SlotPlan::Stay(i) => LocalChannel((i % channels.len()) as u32),
        };
        if self.beaconer {
            Action::Broadcast(local, 1)
        } else {
            Action::Listen(local)
        }
    }

    fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u8>) {
        if matches!(event, Event::Received { .. }) {
            self.met = true;
        }
    }

    fn is_done(&self) -> bool {
        self.beaconer || self.met
    }
}

/// Runs deterministic rendezvous between the two nodes of a
/// **global-label** model (salts 0 and 1); returns the meeting slot or
/// `None` if the budget runs out.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] unless the model has exactly
/// two nodes and global labels.
///
/// # Examples
///
/// ```
/// use crn_rendezvous::deterministic::jump_stay_rendezvous_slots;
/// use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
///
/// let model = StaticChannels::global(shared_core(2, 4, 2)?);
/// let slots = jump_stay_rendezvous_slots(model, 0, 10_000)?;
/// assert!(slots.is_some());
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn jump_stay_rendezvous_slots<CM: ChannelModel>(
    model: CM,
    seed: u64,
    budget: u64,
) -> Result<Option<u64>, SimError> {
    if model.n() != 2 {
        return Err(SimError::InvalidParams {
            reason: format!(
                "pairwise rendezvous needs exactly 2 nodes, got {}",
                model.n()
            ),
        });
    }
    if !model.labels_are_global() {
        return Err(SimError::InvalidParams {
            reason: "deterministic rendezvous requires the global-label model".into(),
        });
    }
    let total = model.total_channels();
    let protos = vec![JumpStay::beaconer(total, 0), JumpStay::listener(total, 1)];
    let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new())?;
    Ok(net.run(budget, |n| n.all_done()).slots())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::assignment::{full_overlap, random_with_core, shared_core};
    use crn_sim::channel_model::StaticChannels;

    #[test]
    fn prime_helper_correct() {
        assert_eq!(smallest_prime_geq(1), 2);
        assert_eq!(smallest_prime_geq(4), 5);
        assert_eq!(smallest_prime_geq(13), 13);
        assert_eq!(smallest_prime_geq(14), 17);
        assert_eq!(smallest_prime_geq(90), 97);
    }

    #[test]
    fn opposite_salts_hold_opposite_roles() {
        let a = JumpStaySchedule::new(10, 0);
        let b = JumpStaySchedule::new(10, 1);
        for slot in (0..20 * a.round_len()).step_by(a.round_len() as usize) {
            let (pa, pb) = (a.plan(slot), b.plan(slot));
            assert!(
                matches!(pa, SlotPlan::Jump(_)) != matches!(pb, SlotPlan::Jump(_)),
                "slot {slot}: {pa:?} vs {pb:?}"
            );
        }
    }

    #[test]
    fn jump_round_covers_all_residues() {
        let s = JumpStaySchedule::new(7, 0);
        let p = s.prime;
        // salt 0 is the jumper in round 0.
        let seen: std::collections::HashSet<usize> = (0..s.round_len())
            .map(|t| match s.plan(t) {
                SlotPlan::Jump(x) => x,
                SlotPlan::Stay(_) => unreachable!("salt 0 jumps in round 0"),
            })
            .collect();
        assert_eq!(seen.len(), p, "a jump round visits every residue");
    }

    #[test]
    fn stayer_cycles_every_channel_index() {
        let s = JumpStaySchedule::new(7, 1);
        let mut parks = std::collections::HashSet::new();
        for rd in 0..12u64 {
            if let SlotPlan::Stay(i) = s.plan(rd * s.round_len()) {
                parks.insert(i % 6);
            }
        }
        assert_eq!(parks.len(), 6, "parked indices must cycle the whole set");
    }

    #[test]
    fn meets_on_identical_sets() {
        let model = StaticChannels::global(full_overlap(2, 6).unwrap());
        let slots = jump_stay_rendezvous_slots(model, 0, 10_000).unwrap();
        assert!(slots.is_some());
    }

    #[test]
    fn meets_within_guaranteed_horizon_shared_core() {
        // The adversarial pattern that deadlocked naive symmetric
        // sequences: overlap exactly k, disjoint private blocks.
        for c in [4usize, 8, 12] {
            for k in [1usize, 2, c] {
                let a = shared_core(2, c, k).unwrap();
                let total = a.total_channels();
                let p = smallest_prime_geq(total) as u64;
                let horizon = 2 * c as u64 * 2 * p;
                let model = StaticChannels::global(a);
                let slots = jump_stay_rendezvous_slots(model, 0, horizon).unwrap();
                assert!(slots.is_some(), "(c={c}, k={k}) missed horizon {horizon}");
            }
        }
    }

    #[test]
    fn meets_within_horizon_on_random_assignments() {
        for seed in 0..25 {
            let mut rng = SimRng::seed_from_u64(seed);
            let a = random_with_core(2, 6, 2, 20, &mut rng).unwrap();
            let total = a.total_channels();
            let p = smallest_prime_geq(total) as u64;
            let horizon = 2 * 6 * 2 * p;
            let model = StaticChannels::global(a);
            let slots = jump_stay_rendezvous_slots(model, seed, horizon).unwrap();
            assert!(
                slots.is_some(),
                "seed {seed} missed the {horizon}-slot horizon"
            );
        }
    }

    #[test]
    fn is_fully_deterministic() {
        let run = |seed: u64| {
            let model = StaticChannels::global(shared_core(2, 8, 2).unwrap());
            jump_stay_rendezvous_slots(model, seed, 100_000).unwrap()
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(2), run(99));
    }

    #[test]
    fn rejects_local_labels_and_wrong_n() {
        let model = StaticChannels::local(shared_core(2, 4, 2).unwrap(), 0);
        assert!(jump_stay_rendezvous_slots(model, 0, 10).is_err());
        let model = StaticChannels::global(shared_core(3, 4, 2).unwrap());
        assert!(jump_stay_rendezvous_slots(model, 0, 10).is_err());
    }
}
