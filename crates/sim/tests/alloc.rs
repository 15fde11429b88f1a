//! Proves the slot engine is allocation-free in steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up period long enough for every scratch buffer and recycled
//! [`ChannelActivity`] record to reach its high-water capacity, stepping
//! the network must perform zero heap allocations — with and without an
//! interference model installed, record-free
//! ([`Network::step_unrecorded`]) on a channel space far larger than
//! the network, on the decay-backoff medium ([`PhysicalDecay`]),
//! with and without records, under a churned channel model
//! ([`DynamicSharedCore`]) that redraws node sets every slot, and on
//! both single-hop media with every shape of shared channel in every
//! slot.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test can allocate while the counter is being read.
//!
//! The guarantee is scoped to the default build: the `validate` feature
//! deliberately trades allocation-freedom for per-slot conformance
//! checking, so this test is compiled out under it.
#![cfg(not(feature = "validate"))]

use crn_sim::assignment::{full_overlap, shared_core};
use crn_sim::channel_model::{DynamicSharedCore, StaticChannels};
use crn_sim::interference::Interference;
use crn_sim::rng::SimRng;
use crn_sim::{
    Action, Event, GlobalChannel, Jammed, LocalChannel, Network, NodeCtx, NodeId, OracleSingleHop,
    PhysicalDecay, Protocol,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A COGCAST-shaped workload: informed nodes broadcast on a uniformly
/// random local channel, uninformed nodes hop and listen, and listeners
/// that receive become informed — the same per-slot engine load as the
/// broadcast experiments, without depending on `crn-core`.
struct Hopper {
    informed: bool,
}

impl Protocol<u8> for Hopper {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<u8> {
        let ch = LocalChannel(rng.gen_range(0..ctx.c as u32));
        if self.informed {
            Action::Broadcast(ch, 0xAB)
        } else {
            Action::Listen(ch)
        }
    }

    fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u8>) {
        if matches!(event, Event::Received { .. }) {
            self.informed = true;
        }
    }
}

/// Jams one (node, channel) pair every other slot, so the interference
/// code path (intent staging + jam filtering) is exercised too.
struct AlternatingJammer {
    odd_slot: bool,
}

impl Interference for AlternatingJammer {
    fn advance(&mut self, slot: u64, _rng: &mut SimRng) {
        self.odd_slot = slot % 2 == 1;
    }

    fn is_jammed(&self, node: NodeId, channel: GlobalChannel) -> bool {
        self.odd_slot && node == NodeId(1) && channel == GlobalChannel(0)
    }
}

/// A fixed role on a channel that moves up by one every slot. The nine
/// [`mixed_protos`] put, in every slot, two listeners alone on one
/// channel, a lone broadcaster with two listeners on another, and
/// three broadcasters with a listener on a third.
struct Rotating {
    offset: u32,
    broadcast: bool,
}

impl Protocol<u8> for Rotating {
    fn decide(&mut self, ctx: &NodeCtx<'_>, _rng: &mut SimRng) -> Action<u8> {
        let ch = LocalChannel(((ctx.slot + u64::from(self.offset)) % ctx.c as u64) as u32);
        if self.broadcast {
            Action::Broadcast(ch, 0xCD)
        } else {
            Action::Listen(ch)
        }
    }

    fn observe(&mut self, _ctx: &NodeCtx<'_>, _event: Event<u8>) {}
}

fn mixed_protos() -> Vec<Rotating> {
    [
        (0, false),
        (0, false),
        (3, true),
        (3, false),
        (3, false),
        (5, true),
        (5, true),
        (5, true),
        (5, false),
    ]
    .map(|(offset, broadcast)| Rotating { offset, broadcast })
    .into()
}

fn hopper_protos(n: usize) -> Vec<Hopper> {
    let mut protos = vec![Hopper { informed: true }];
    protos.extend((1..n).map(|_| Hopper { informed: false }));
    protos
}

fn assert_steady_state_alloc_free(mut step: impl FnMut(), label: &str) {
    // Warm-up: let every scratch buffer, the channel-record pool, and
    // the per-record broadcaster/listener vectors hit their high-water
    // capacities.
    for _ in 0..4000 {
        step();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..2000 {
        step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "{label}: expected zero steady-state allocations over 2000 slots, got {}",
        after - before
    );
}

#[test]
fn step_is_allocation_free_in_steady_state() {
    let n = 64;
    let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), 11);
    let mut net =
        Network::with_medium(model, hopper_protos(n), 11, OracleSingleHop::new()).unwrap();
    assert_steady_state_alloc_free(
        || {
            net.step();
        },
        "no interference",
    );

    let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), 12);
    let mut jammed_net = Network::with_medium(
        model,
        hopper_protos(n),
        12,
        Jammed::new(
            OracleSingleHop::new(),
            Box::new(AlternatingJammer { odd_slot: false }),
        ),
    )
    .unwrap();
    assert_steady_state_alloc_free(
        || {
            jammed_net.step();
        },
        "with interference",
    );

    // Record-free stepping where C >> n: shared_core(1024, 8, 2) has
    // C = 6146 channels, so any per-slot cost or buffer proportional to
    // the channel space would show here.
    let n = 1024;
    let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), 14);
    let mut lean_net =
        Network::with_medium(model, hopper_protos(n), 14, OracleSingleHop::new()).unwrap();
    assert_steady_state_alloc_free(
        || {
            lean_net.step_unrecorded();
        },
        "record-free, n = 1024",
    );

    // The decay-backoff medium shares the oracle's skeleton, so it is
    // allocation-free on both paths too.
    let n = 64;
    let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), 15);
    let mut physical_net =
        Network::with_medium(model, hopper_protos(n), 15, PhysicalDecay::new()).unwrap();
    assert_steady_state_alloc_free(
        || {
            physical_net.step();
        },
        "physical, n = 64",
    );

    let n = 1024;
    let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), 16);
    let mut lean_physical_net =
        Network::with_medium(model, hopper_protos(n), 16, PhysicalDecay::new()).unwrap();
    assert_steady_state_alloc_free(
        || {
            lean_physical_net.step_unrecorded();
        },
        "physical record-free, n = 1024",
    );

    // A churned channel model redraws node sets every slot in place,
    // so set churn allocates nothing either.
    let n = 64;
    let model = DynamicSharedCore::new(n, 8, 2, 60, 0.5, 17).unwrap();
    let mut churned_net =
        Network::with_medium(model, hopper_protos(n), 17, OracleSingleHop::new()).unwrap();
    assert_steady_state_alloc_free(
        || {
            churned_net.step();
        },
        "churned, n = 64",
    );

    // Listener-only, lone-broadcaster and contended channels in every
    // slot, on both single-hop media, with and without records.
    let mixed_model = || StaticChannels::global(full_overlap(9, 8).unwrap());
    let mut mixed_oracle =
        Network::with_medium(mixed_model(), mixed_protos(), 18, OracleSingleHop::new()).unwrap();
    assert_steady_state_alloc_free(
        || {
            mixed_oracle.step();
        },
        "mixed channels, oracle",
    );
    assert_steady_state_alloc_free(
        || mixed_oracle.step_unrecorded(),
        "mixed channels, oracle record-free",
    );
    let mut mixed_physical =
        Network::with_medium(mixed_model(), mixed_protos(), 19, PhysicalDecay::new()).unwrap();
    assert_steady_state_alloc_free(
        || {
            mixed_physical.step();
        },
        "mixed channels, physical",
    );
    assert_steady_state_alloc_free(
        || mixed_physical.step_unrecorded(),
        "mixed channels, physical record-free",
    );
}
