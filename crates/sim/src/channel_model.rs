//! Channel models: who can use which channels, per slot.
//!
//! The paper's base model fixes a static channel assignment, but the
//! Section 7 discussion points out that COGCAST needs only the *per-slot*
//! guarantee that each pair of nodes currently shares `k` channels. The
//! [`ChannelModel`] trait captures exactly that: a (possibly mutable)
//! mapping from `(node, slot)` to a channel set, advanced once per slot.

use crate::assignment::ChannelAssignment;
use crate::error::SimError;
use crate::ids::GlobalChannel;
use crate::rng::SimRng;
use crate::rng::{derive_rng, streams};

/// The per-slot channel availability model the engine runs against.
///
/// `channels(node)` returns the node's channels **in local-label order**:
/// index `l` of the slice is the global channel behind the node's local
/// label `l`. Dynamic models may change sets (and labels) between slots
/// inside [`ChannelModel::advance`].
pub trait ChannelModel {
    /// Number of nodes.
    fn n(&self) -> usize;
    /// Channels per node (constant across slots, per the model). For
    /// heterogeneous assignments (the generalized model of the
    /// rendezvous literature, where `c_u ≠ c_v`) this is the maximum;
    /// see [`ChannelModel::c_of`].
    fn c(&self) -> usize;
    /// Channels available to `node` specifically. Defaults to the
    /// uniform [`ChannelModel::c`]; heterogeneous models override it,
    /// and the engine hands each node its own count via
    /// [`crate::NodeCtx::c`].
    fn c_of(&self, node: usize) -> usize {
        let _ = node;
        self.c()
    }
    /// The pairwise-overlap guarantee `k`.
    fn k(&self) -> usize;
    /// Total number of global channels `C`.
    fn total_channels(&self) -> usize;
    /// Whether all nodes agree on channel labels (global-label model).
    /// When true the engine exposes the channel slice to protocols.
    fn labels_are_global(&self) -> bool;
    /// Advances the model to `slot`. Called once at the start of every
    /// slot, before any `channels` query for that slot.
    fn advance(&mut self, slot: u64);
    /// The channels of `node` for the current slot, in local-label order.
    fn channels(&self, node: usize) -> &[GlobalChannel];
}

/// A static assignment with either global (sorted, shared) or local
/// (per-node shuffled) channel labels.
///
/// Every node's channels live in one flat table, node after node, with
/// an offset per node (assignments may be ragged, so the stride is not
/// fixed). The table is built in one allocation, and a local-label
/// model shuffles each node's slice of it in place.
///
/// # Examples
///
/// ```
/// use crn_sim::assignment::shared_core;
/// use crn_sim::channel_model::{ChannelModel, StaticChannels};
///
/// let a = shared_core(4, 5, 2).unwrap();
/// let global = StaticChannels::global(a.clone());
/// assert!(global.labels_are_global());
///
/// let local = StaticChannels::local(a, 42);
/// assert!(!local.labels_are_global());
/// assert_eq!(local.c(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct StaticChannels {
    assignment: ChannelAssignment,
    /// Every node's channels in local-label order (each a permutation
    /// of the node's sorted set), concatenated in node order.
    table: Vec<GlobalChannel>,
    /// Node `i`'s channels are `table[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    global_labels: bool,
}

impl StaticChannels {
    /// Global-label model: every node's local order is the sorted global
    /// order, so label `l` means the same physical channel everywhere the
    /// channel is shared.
    pub fn global(assignment: ChannelAssignment) -> Self {
        Self::build(assignment, true, |_| {})
    }

    /// Local-label model: each node's labels are an arbitrary (seeded)
    /// permutation of its channel set, independent across nodes — the
    /// assumption under which the paper's upper bounds are proved.
    pub fn local(assignment: ChannelAssignment, seed: u64) -> Self {
        let mut rng = derive_rng(seed, streams::LABELS);
        Self::build(assignment, false, |slice| rng.shuffle(slice))
    }

    /// Copies every node's sorted set into one table, then hands each
    /// node's slice to `relabel` in node order.
    fn build(
        assignment: ChannelAssignment,
        global_labels: bool,
        mut relabel: impl FnMut(&mut [GlobalChannel]),
    ) -> Self {
        let n = assignment.n();
        let mut table = Vec::with_capacity((0..n).map(|i| assignment.c_of(i)).sum());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for i in 0..n {
            table.extend_from_slice(assignment.channels_of(i));
            relabel(&mut table[offsets[i]..]);
            offsets.push(table.len());
        }
        StaticChannels {
            assignment,
            table,
            offsets,
            global_labels,
        }
    }

    /// The underlying assignment.
    pub fn assignment(&self) -> &ChannelAssignment {
        &self.assignment
    }
}

impl ChannelModel for StaticChannels {
    fn n(&self) -> usize {
        self.assignment.n()
    }
    fn c(&self) -> usize {
        self.assignment.c()
    }
    #[inline]
    fn c_of(&self, node: usize) -> usize {
        self.offsets[node + 1] - self.offsets[node]
    }
    fn k(&self) -> usize {
        self.assignment.k()
    }
    fn total_channels(&self) -> usize {
        self.assignment.total_channels()
    }
    fn labels_are_global(&self) -> bool {
        self.global_labels
    }
    fn advance(&mut self, _slot: u64) {}
    #[inline]
    fn channels(&self, node: usize) -> &[GlobalChannel] {
        &self.table[self.offsets[node]..self.offsets[node + 1]]
    }
}

/// A dynamic channel model: a fixed core of `k` channels shared by all
/// nodes, plus `c - k` private channels per node that are re-drawn from a
/// shared pool with probability `churn` per node per slot.
///
/// Every slot, every pair of nodes still overlaps on at least the `k`
/// core channels, so the per-slot model guarantee holds despite the
/// churn; this is the setting of the Section 7 discussion (and of
/// experiment F8). Labels are local: each redraw also re-permutes the
/// node's label order, so a node's label `l` may denote different
/// physical channels in different slots.
///
/// # Examples
///
/// ```
/// use crn_sim::channel_model::{ChannelModel, DynamicSharedCore};
/// let mut m = DynamicSharedCore::new(4, 6, 2, 40, 0.5, 7).unwrap();
/// m.advance(0);
/// assert_eq!(m.channels(0).len(), 6);
/// assert!(!m.labels_are_global());
/// ```
#[derive(Debug)]
pub struct DynamicSharedCore {
    n: usize,
    c: usize,
    k: usize,
    pool: usize,
    churn: f64,
    rng: SimRng,
    /// Scratch for a redraw's pool pick: the non-core channel ids
    /// `k..k + pool`.
    pool_ids: Vec<u32>,
    /// Every node's channels for the current slot, in local-label
    /// order: node `i` owns `current[i * c..(i + 1) * c]`.
    current: Vec<GlobalChannel>,
}

impl DynamicSharedCore {
    /// Creates the model with `pool` non-core channels (`C = k + pool`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParams`] if `k > c`, `k == 0`,
    /// `pool < c - k`, or `churn` is not in `[0, 1]`.
    pub fn new(
        n: usize,
        c: usize,
        k: usize,
        pool: usize,
        churn: f64,
        seed: u64,
    ) -> Result<Self, SimError> {
        if n == 0 || c == 0 || k == 0 || k > c {
            return Err(SimError::InvalidParams {
                reason: format!("need n,c >= 1 and 1 <= k <= c (n={n}, c={c}, k={k})"),
            });
        }
        if pool < c - k {
            return Err(SimError::InvalidParams {
                reason: format!("pool ({pool}) must be at least c - k ({})", c - k),
            });
        }
        if !(0.0..=1.0).contains(&churn) {
            return Err(SimError::InvalidParams {
                reason: format!("churn ({churn}) must be in [0, 1]"),
            });
        }
        let mut model = DynamicSharedCore {
            n,
            c,
            k,
            pool,
            churn,
            rng: derive_rng(seed, streams::DYNAMIC),
            pool_ids: vec![0; pool],
            current: vec![GlobalChannel(0); n * c],
        };
        // Draw every node's set for slot 0.
        for i in 0..n {
            model.redraw(i);
        }
        Ok(model)
    }

    /// Redraws `node`'s set in place: the `k` core channels plus
    /// `c - k` distinct pool channels, then shuffles the labels.
    ///
    /// The pool pick is `choose_multiple`'s partial Fisher–Yates (one
    /// `gen_range(i..pool)` per pick, each pick swapped to the front of
    /// the ids in ascending order), run in the kept `pool_ids`, so it
    /// makes the same draws and picks as `choose_multiple` without its
    /// two allocations.
    fn redraw(&mut self, node: usize) {
        let (c, k) = (self.c, self.k);
        let slice = &mut self.current[node * c..(node + 1) * c];
        for (g, core) in slice[..k].iter_mut().zip(0u32..) {
            *g = GlobalChannel(core);
        }
        for (id, g) in self.pool_ids.iter_mut().zip(k as u32..) {
            *id = g;
        }
        for (i, g) in slice[k..].iter_mut().enumerate() {
            let j = self.rng.gen_range(i..self.pool);
            self.pool_ids.swap(i, j);
            *g = GlobalChannel(self.pool_ids[i]);
        }
        self.rng.shuffle(slice);
    }
}

impl ChannelModel for DynamicSharedCore {
    fn n(&self) -> usize {
        self.n
    }
    fn c(&self) -> usize {
        self.c
    }
    fn k(&self) -> usize {
        self.k
    }
    fn total_channels(&self) -> usize {
        self.k + self.pool
    }
    fn labels_are_global(&self) -> bool {
        false
    }
    fn advance(&mut self, _slot: u64) {
        for i in 0..self.n {
            if self.churn > 0.0 && self.rng.gen_bool(self.churn) {
                self.redraw(i);
            }
        }
    }
    #[inline]
    fn channels(&self, node: usize) -> &[GlobalChannel] {
        &self.current[node * self.c..(node + 1) * self.c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{full_overlap, shared_core};
    use std::collections::HashSet;

    /// Every node's channels, node after node.
    fn table(m: &impl ChannelModel) -> Vec<GlobalChannel> {
        (0..m.n()).flat_map(|i| m.channels(i).to_vec()).collect()
    }

    #[test]
    fn global_labels_preserve_sorted_order() {
        let a = shared_core(3, 4, 2).unwrap();
        let m = StaticChannels::global(a);
        for i in 0..3 {
            let ch = m.channels(i);
            for w in ch.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn local_labels_are_permutations() {
        let a = shared_core(6, 8, 3).unwrap();
        let m = StaticChannels::local(a.clone(), 99);
        for i in 0..6 {
            let mut got: Vec<_> = m.channels(i).to_vec();
            got.sort_unstable();
            assert_eq!(got.as_slice(), a.channels_of(i));
        }
    }

    #[test]
    fn local_labels_differ_between_nodes_with_same_set() {
        // With a shared set of 16 channels, 4 independent shuffles are
        // essentially never all identical.
        let a = full_overlap(4, 16).unwrap();
        let m = StaticChannels::local(a, 1);
        let orders: HashSet<Vec<GlobalChannel>> = (0..4).map(|i| m.channels(i).to_vec()).collect();
        assert!(orders.len() > 1);
    }

    #[test]
    fn static_model_is_stable_across_advance() {
        let a = shared_core(3, 4, 2).unwrap();
        let mut m = StaticChannels::local(a, 7);
        let before = table(&m);
        m.advance(0);
        m.advance(1);
        assert_eq!(before, table(&m));
    }

    #[test]
    fn dynamic_keeps_core_every_slot() {
        let mut m = DynamicSharedCore::new(5, 6, 3, 30, 1.0, 11).unwrap();
        for slot in 0..50 {
            m.advance(slot);
            for i in 0..5 {
                let set: HashSet<_> = m.channels(i).iter().copied().collect();
                assert_eq!(set.len(), 6, "distinct channels");
                for core in 0..3u32 {
                    assert!(set.contains(&GlobalChannel(core)), "core channel missing");
                }
            }
        }
    }

    #[test]
    fn dynamic_zero_churn_is_static() {
        let mut m = DynamicSharedCore::new(3, 5, 2, 20, 0.0, 1).unwrap();
        let before = table(&m);
        for slot in 0..10 {
            m.advance(slot);
        }
        assert_eq!(before, table(&m));
    }

    #[test]
    fn dynamic_full_churn_changes_sets() {
        let mut m = DynamicSharedCore::new(2, 8, 2, 200, 1.0, 3).unwrap();
        let before: Vec<GlobalChannel> = m.channels(0).to_vec();
        m.advance(0);
        let after: Vec<GlobalChannel> = m.channels(0).to_vec();
        // With 200 pool channels and 6 private picks, a redraw virtually
        // always changes the set (and the shuffle changes order anyway).
        assert_ne!(before, after);
    }

    #[test]
    fn dynamic_redraw_matches_choose_multiple_then_shuffle() {
        // The in-place redraw must make the draws of collecting a
        // fresh `choose_multiple` pick and shuffling it, node by node.
        let (n, c, k, pool, churn) = (6, 7, 2, 9, 0.6);
        for seed in 0..20 {
            let mut rng = derive_rng(seed, streams::DYNAMIC);
            let pool_ids: Vec<u32> = (k as u32..(k + pool) as u32).collect();
            let redraw = |rng: &mut SimRng| {
                let mut v: Vec<GlobalChannel> = (0..k as u32).map(GlobalChannel).collect();
                v.extend(
                    rng.choose_multiple(&pool_ids, c - k)
                        .map(|&g| GlobalChannel(g)),
                );
                rng.shuffle(&mut v);
                v
            };
            let mut expected: Vec<GlobalChannel> = (0..n).flat_map(|_| redraw(&mut rng)).collect();
            let mut m = DynamicSharedCore::new(n, c, k, pool, churn, seed).unwrap();
            for slot in 0..30 {
                assert_eq!(table(&m), expected, "seed {seed}, slot {slot}");
                m.advance(slot);
                for want in expected.chunks_mut(c) {
                    if rng.gen_bool(churn) {
                        want.copy_from_slice(&redraw(&mut rng));
                    }
                }
            }
        }
    }

    #[test]
    fn dynamic_rejects_bad_params() {
        assert!(DynamicSharedCore::new(0, 5, 2, 20, 0.1, 1).is_err());
        assert!(DynamicSharedCore::new(3, 5, 0, 20, 0.1, 1).is_err());
        assert!(DynamicSharedCore::new(3, 5, 6, 20, 0.1, 1).is_err());
        assert!(DynamicSharedCore::new(3, 5, 2, 2, 0.1, 1).is_err());
        assert!(DynamicSharedCore::new(3, 5, 2, 20, 1.5, 1).is_err());
    }

    #[test]
    fn dynamic_pairwise_overlap_at_least_k_every_slot() {
        let mut m = DynamicSharedCore::new(4, 6, 2, 12, 0.7, 5).unwrap();
        for slot in 0..30 {
            m.advance(slot);
            for a in 0..4 {
                for b in (a + 1)..4 {
                    let sa: HashSet<_> = m.channels(a).iter().collect();
                    let overlap = m.channels(b).iter().filter(|g| sa.contains(g)).count();
                    assert!(overlap >= 2, "slot {slot} pair ({a},{b}): {overlap}");
                }
            }
        }
    }
}
