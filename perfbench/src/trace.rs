//! Delegating wrappers that time the layers from outside, and the
//! in-memory span store they feed.
//!
//! [`TracedMedium`] wraps any [`Medium`] and [`TracedProto`] any
//! [`Protocol`]; both forward every call unchanged, so a network built
//! from them draws the same random numbers and produces the same
//! [`crn_sim::SlotActivity`] as the plain one (the transparency tests
//! pin this). Protocol calls are timed only on every
//! [`PROTO_SAMPLE_EVERY`]th slot, because a clock read costs about as
//! much as a COGCAST decision.

use crn_sim::rng::SimRng;
use crn_sim::{
    Action, Event, Medium, MediumProfile, NodeCtx, OracleSingleHop, PhysicalDecay, Protocol,
    SlotActivity, SlotInputs,
};
use std::io::Write as _;
use std::time::Instant;

/// Protocol spans are recorded on slots whose number is a multiple of
/// this.
pub const PROTO_SAMPLE_EVERY: u64 = 16;

/// Nanoseconds since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The median cost of one `Instant::now()` pair, subtracted from each
/// timed protocol call so the spans report the call, not the clock.
pub fn clock_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Physical-layer counters a medium accumulates over a run.
pub trait MediumCounters {
    /// `(physical_rounds, failed_episodes)` so far.
    fn counters(&self) -> (u64, u64);
}

impl MediumCounters for OracleSingleHop {
    fn counters(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl MediumCounters for PhysicalDecay {
    fn counters(&self) -> (u64, u64) {
        (self.physical_rounds(), self.failed_episodes())
    }
}

/// What one `resolve` call did, as seen from outside it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResolveSample {
    /// Start, in ns since the wrapper's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Nodes handed to the medium (`SlotInputs::tuned`).
    pub tuned: u64,
    /// Channels with at least one tuned node.
    pub active: u64,
    /// Channels with two or more broadcasters.
    pub contended: u64,
    /// Broadcasts attempted.
    pub transmissions: u64,
    /// Channels whose episode produced a winner.
    pub winners: u64,
    /// Channels with a winner and at least one listener.
    pub deliveries: u64,
    /// Physical rounds this slot consumed.
    pub rounds: u64,
    /// Episodes that ended without a lone transmission this slot.
    pub failed: u64,
}

/// A [`Medium`] that forwards to `inner` and records a
/// [`ResolveSample`] for the most recent slot.
#[derive(Debug)]
pub struct TracedMedium<Med> {
    /// The wrapped medium.
    pub inner: Med,
    epoch: Instant,
    /// The most recent slot's sample.
    pub last: ResolveSample,
}

impl<Med> TracedMedium<Med> {
    /// Wraps `inner`; sample start times count from `epoch`.
    pub fn new(inner: Med, epoch: Instant) -> Self {
        TracedMedium {
            inner,
            epoch,
            last: ResolveSample::default(),
        }
    }
}

impl<M: Clone, Med: Medium<M> + MediumCounters> Medium<M> for TracedMedium<Med> {
    fn reseed(&mut self, master: u64) {
        self.inner.reseed(master);
    }

    fn resolve(
        &mut self,
        inputs: &SlotInputs<'_, M>,
        events: &mut [Option<Event<M>>],
        activity: &mut SlotActivity,
    ) {
        let (rounds0, failed0) = self.inner.counters();
        let start_ns = ns_since(self.epoch);
        let t = Instant::now();
        self.inner.resolve(inputs, events, activity);
        let dur_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (rounds1, failed1) = self.inner.counters();
        let mut s = ResolveSample {
            start_ns,
            dur_ns,
            tuned: inputs.tuned.len() as u64,
            active: activity.channels.len() as u64,
            rounds: rounds1 - rounds0,
            failed: failed1 - failed0,
            ..ResolveSample::default()
        };
        for ch in &activity.channels {
            s.contended += u64::from(ch.had_collision());
            s.transmissions += ch.broadcasters.len() as u64;
            s.winners += u64::from(ch.winner.is_some());
            s.deliveries += u64::from(ch.winner.is_some() && !ch.listeners.is_empty());
        }
        self.last = s;
    }

    fn profile(&self) -> MediumProfile {
        self.inner.profile()
    }
}

/// A [`Protocol`] that forwards to `inner`, counts calls, and times
/// them on sampled slots.
#[derive(Debug, Clone)]
pub struct TracedProto<P> {
    /// The wrapped protocol.
    pub inner: P,
    clock_ns: u64,
    /// Nanoseconds spent in `decide` on sampled slots.
    pub decide_ns: u64,
    /// Nanoseconds spent in `observe` on sampled slots.
    pub observe_ns: u64,
    /// `decide` plus `observe` calls on every slot.
    pub calls: u64,
}

impl<P> TracedProto<P> {
    /// Wraps `inner`; `clock_ns` is subtracted from each timed call
    /// (see [`clock_overhead_ns`]).
    pub fn new(inner: P, clock_ns: u64) -> Self {
        TracedProto {
            inner,
            clock_ns,
            decide_ns: 0,
            observe_ns: 0,
            calls: 0,
        }
    }

    fn elapsed_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .saturating_sub(self.clock_ns)
    }
}

impl<M, P: Protocol<M>> Protocol<M> for TracedProto<P> {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<M> {
        self.calls += 1;
        if !ctx.slot.is_multiple_of(PROTO_SAMPLE_EVERY) {
            return self.inner.decide(ctx, rng);
        }
        let t = Instant::now();
        let action = self.inner.decide(ctx, rng);
        self.decide_ns += self.elapsed_ns(t);
        action
    }

    fn observe(&mut self, ctx: &NodeCtx<'_>, event: Event<M>) {
        self.calls += 1;
        if !ctx.slot.is_multiple_of(PROTO_SAMPLE_EVERY) {
            return self.inner.observe(ctx, event);
        }
        let t = Instant::now();
        self.inner.observe(ctx, event);
        self.observe_ns += self.elapsed_ns(t);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Position in [`Tracer::spans`] of the span that caused this one
    /// (`u32::MAX` for a root).
    pub parent: u32,
    /// Layer boundary, e.g. `engine.step`.
    pub name: &'static str,
    /// Trial (or suite pass) the span belongs to.
    pub trial: u32,
    /// Slot number, or the experiment's registry index for suite spans.
    pub slot: u64,
    /// Start in ns since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in ns. Protocol spans hold the summed time of every
    /// node's call, which is CPU time when the pool fans a phase out.
    pub dur_ns: u64,
}

/// Per-slot counts summed over every traced slot.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Slots stepped.
    pub slots: u64,
    /// Slots on which protocol calls were timed.
    pub sampled_slots: u64,
    /// `decide` plus `observe` calls.
    pub proto_calls: u64,
    /// Summed [`ResolveSample`] counts.
    pub tuned: u64,
    /// See [`ResolveSample::active`].
    pub active: u64,
    /// See [`ResolveSample::contended`].
    pub contended: u64,
    /// See [`ResolveSample::transmissions`].
    pub transmissions: u64,
    /// See [`ResolveSample::winners`].
    pub winners: u64,
    /// See [`ResolveSample::deliveries`].
    pub deliveries: u64,
    /// See [`ResolveSample::rounds`].
    pub rounds: u64,
    /// See [`ResolveSample::failed`].
    pub failed: u64,
    /// Sum of `max/mean` of the pool's last loads, one term per
    /// sample.
    pub imbalance_sum: f64,
    /// Number of load-imbalance samples.
    pub imbalance_samples: u64,
}

/// In-memory span and count store for one traced run; written out
/// once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    /// Time zero for every span.
    pub epoch: Instant,
    /// Clock-read cost handed to each [`TracedProto`].
    pub clock_ns: u64,
    /// Every recorded span, in recording order.
    pub spans: Vec<Span>,
    /// Layer counts.
    pub counts: Counts,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty store; calibrates the clock.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            clock_ns: clock_overhead_ns(),
            spans: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        ns_since(self.epoch)
    }

    /// Records a span and returns its index (the id children use as
    /// `parent`).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans per run")
    }

    /// Folds the pool's most recent per-worker loads into the
    /// load-imbalance average (`max / mean`; skipped when the last job
    /// ran inline).
    pub fn sample_pool(&mut self) {
        let loads = crn_sim::pool::global().last_loads();
        let total: usize = loads.iter().sum();
        if loads.len() > 1 && total > 0 {
            let max = *loads.iter().max().expect("non-empty") as f64;
            let mean = total as f64 / loads.len() as f64;
            self.counts.imbalance_sum += max / mean;
            self.counts.imbalance_samples += 1;
        }
    }

    /// Sum of the durations of spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Durations of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Writes every span as CSV (`id,parent,name,trial,slot,start_ns,dur_ns`)
    /// after `header` lines, each prefixed with `# `.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &std::path::Path, header: &[String]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in header {
            writeln!(out, "# {line}")?;
        }
        writeln!(out, "id,parent,name,trial,slot,start_ns,dur_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id},{parent},{},{},{},{},{}",
                s.name, s.trial, s.slot, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
