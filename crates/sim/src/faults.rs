//! Fault injection: transient node outages.
//!
//! The paper argues COGCAST's uniform structure makes it robust to
//! "changes to the network conditions, temporary faults, and so on"
//! (Section 1). [`Flaky`] makes that claim testable: it wraps any
//! protocol and forces the node's radio off (a [`Action::Sleep`])
//! according to a [`FaultSchedule`], without the wrapped protocol
//! observing anything for the suppressed slot — exactly a node that
//! was powered down.

use crate::proto::{Action, Event, NodeCtx, Protocol};
use crate::rng::SimRng;

/// When a node is down.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSchedule {
    /// Never down.
    None,
    /// Down in each slot independently with this probability
    /// (crash-recover churn).
    Random {
        /// Per-slot outage probability in `[0, 1]`.
        p: f64,
    },
    /// Down during `[from, to)` (a single outage window).
    Window {
        /// First down slot.
        from: u64,
        /// First up slot after the outage.
        to: u64,
    },
    /// Down periodically: slots where `slot % period < down` are lost
    /// (duty-cycled radios).
    Periodic {
        /// Cycle length in slots.
        period: u64,
        /// Down slots at the start of each cycle.
        down: u64,
    },
}

impl FaultSchedule {
    /// Whether the node is down in `slot`.
    ///
    /// # Examples
    ///
    /// ```
    /// use crn_sim::faults::FaultSchedule;
    /// let mut rng = crn_sim::rng::SimRng::seed_from_u64(0);
    /// let w = FaultSchedule::Window { from: 5, to: 8 };
    /// assert!(!w.is_down(4, &mut rng));
    /// assert!(w.is_down(5, &mut rng));
    /// assert!(w.is_down(7, &mut rng));
    /// assert!(!w.is_down(8, &mut rng));
    /// ```
    pub fn is_down(&self, slot: u64, rng: &mut SimRng) -> bool {
        match *self {
            FaultSchedule::None => false,
            FaultSchedule::Random { p } => p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0)),
            FaultSchedule::Window { from, to } => (from..to).contains(&slot),
            FaultSchedule::Periodic { period, down } => {
                period > 0 && slot % period < down.min(period)
            }
        }
    }
}

/// Wraps a protocol with a [`FaultSchedule`]: in down slots the node
/// sleeps and the inner protocol is not consulted at all.
///
/// # Examples
///
/// ```
/// use crn_sim::faults::{FaultSchedule, Flaky};
/// let node = Flaky::new("any protocol", FaultSchedule::Random { p: 0.2 });
/// assert_eq!(*node.inner(), "any protocol");
/// assert_eq!(node.downtime(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Flaky<P> {
    inner: P,
    schedule: FaultSchedule,
    down_this_slot: bool,
    downtime: u64,
}

impl<P> Flaky<P> {
    /// Wraps `inner` with the given outage schedule.
    pub fn new(inner: P, schedule: FaultSchedule) -> Self {
        Flaky {
            inner,
            schedule,
            down_this_slot: false,
            downtime: 0,
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner protocol.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Total slots this node has been down so far.
    pub fn downtime(&self) -> u64 {
        self.downtime
    }
}

impl<M, P: Protocol<M>> Protocol<M> for Flaky<P> {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<M> {
        self.down_this_slot = self.schedule.is_down(ctx.slot, rng);
        if self.down_this_slot {
            self.downtime += 1;
            Action::Sleep
        } else {
            self.inner.decide(ctx, rng)
        }
    }

    fn observe(&mut self, ctx: &NodeCtx<'_>, event: Event<M>) {
        if !self.down_this_slot {
            self.inner.observe(ctx, event);
        }
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LocalChannel;

    /// Inner protocol that records how often it was consulted.
    #[derive(Debug, Default)]
    struct Probe {
        decides: u64,
        observes: u64,
    }

    impl Protocol<u8> for Probe {
        fn decide(&mut self, _ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u8> {
            self.decides += 1;
            Action::Listen(LocalChannel(0))
        }
        fn observe(&mut self, _ctx: &NodeCtx<'_>, _event: Event<u8>) {
            self.observes += 1;
        }
    }

    fn ctx(slot: u64) -> NodeCtx<'static> {
        NodeCtx {
            id: crate::NodeId(0),
            slot,
            n: 1,
            c: 1,
            k: 1,
            channels: None,
        }
    }

    #[test]
    fn window_schedule_boundaries() {
        let mut rng = SimRng::seed_from_u64(0);
        let s = FaultSchedule::Window { from: 2, to: 4 };
        let up: Vec<bool> = (0..6).map(|t| s.is_down(t, &mut rng)).collect();
        assert_eq!(up, vec![false, false, true, true, false, false]);
    }

    #[test]
    fn periodic_schedule_cycles() {
        let mut rng = SimRng::seed_from_u64(0);
        let s = FaultSchedule::Periodic { period: 4, down: 1 };
        let down: Vec<bool> = (0..8).map(|t| s.is_down(t, &mut rng)).collect();
        assert_eq!(
            down,
            vec![true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn periodic_down_capped_at_period() {
        let mut rng = SimRng::seed_from_u64(0);
        let s = FaultSchedule::Periodic { period: 3, down: 9 };
        assert!((0..9).all(|t| s.is_down(t, &mut rng)), "always down");
        let s0 = FaultSchedule::Periodic { period: 0, down: 1 };
        assert!(!(s0.is_down(5, &mut rng)), "period 0 never fires");
    }

    #[test]
    fn random_schedule_rate_is_plausible() {
        let mut rng = SimRng::seed_from_u64(1);
        let s = FaultSchedule::Random { p: 0.3 };
        let downs = (0..10_000).filter(|&t| s.is_down(t, &mut rng)).count();
        assert!((2500..3500).contains(&downs), "rate off: {downs}");
    }

    #[test]
    fn down_slots_bypass_inner_protocol() {
        let mut f = Flaky::new(Probe::default(), FaultSchedule::Window { from: 0, to: 3 });
        let mut rng = SimRng::seed_from_u64(0);
        for slot in 0..5u64 {
            let action = f.decide(&ctx(slot), &mut rng);
            if slot < 3 {
                assert_eq!(action, Action::Sleep);
            } else {
                assert_eq!(action, Action::Listen(LocalChannel(0)));
                f.observe(&ctx(slot), Event::Silence);
            }
        }
        assert_eq!(f.inner().decides, 2);
        assert_eq!(f.inner().observes, 2);
        assert_eq!(f.downtime(), 3);
        let probe = f.into_inner();
        assert_eq!(probe.decides, 2);
    }

    #[test]
    fn none_schedule_is_transparent() {
        let mut f = Flaky::new(Probe::default(), FaultSchedule::None);
        let mut rng = SimRng::seed_from_u64(0);
        for slot in 0..4u64 {
            f.decide(&ctx(slot), &mut rng);
            f.observe(&ctx(slot), Event::Silence);
        }
        assert_eq!(f.inner().decides, 4);
        assert_eq!(f.downtime(), 0);
    }
}
