//! Aggregation functions carried up the COGCOMP distribution tree.
//!
//! COGCOMP's message-size discussion (end of Section 5) observes that for
//! *associative* functions each node can fold its subtree locally and
//! forward only the folded result, keeping messages `O(polylog n)`. The
//! [`Aggregate`] trait captures exactly an associative, commutative merge;
//! [`Collect`] is the "send everything" fallback that exists mainly so
//! tests can verify that *every* node's contribution reaches the source
//! exactly once.

/// An associative, commutative aggregation value.
///
/// Implementations must satisfy, for all `a`, `b`, `c`:
/// - associativity: `merge(merge(a, b), c) == merge(a, merge(b, c))`
/// - commutativity: `merge(a, b) == merge(b, a)`
///
/// (Both are property-tested for the provided implementations.)
pub trait Aggregate: Clone + std::fmt::Debug + PartialEq {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// Sum of `u64` values (wrapping, so merges never panic).
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::{Aggregate, Sum};
/// let mut a = Sum(3);
/// a.merge(&Sum(4));
/// assert_eq!(a, Sum(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sum(pub u64);

impl Aggregate for Sum {
    fn merge(&mut self, other: &Self) {
        self.0 = self.0.wrapping_add(other.0);
    }
}

/// Minimum of `u64` values.
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::{Aggregate, Min};
/// let mut a = Min(9);
/// a.merge(&Min(2));
/// assert_eq!(a, Min(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Min(pub u64);

impl Aggregate for Min {
    fn merge(&mut self, other: &Self) {
        self.0 = self.0.min(other.0);
    }
}

/// Maximum of `u64` values.
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::{Aggregate, Max};
/// let mut a = Max(1);
/// a.merge(&Max(5));
/// assert_eq!(a, Max(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Max(pub u64);

impl Aggregate for Max {
    fn merge(&mut self, other: &Self) {
        self.0 = self.0.max(other.0);
    }
}

/// Counts contributions (each node starts with `Count(1)`).
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::{Aggregate, Count};
/// let mut a = Count(1);
/// a.merge(&Count(1));
/// assert_eq!(a, Count(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Count(pub u64);

impl Aggregate for Count {
    fn merge(&mut self, other: &Self) {
        self.0 = self.0.wrapping_add(other.0);
    }
}

/// Collects every contributed value into a sorted multiset.
///
/// Unlike the associative scalars this grows with the subtree, so it is
/// *not* what a deployment would ship — but it lets tests assert that
/// aggregation delivered each node's value exactly once.
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::{Aggregate, Collect};
/// let mut a = Collect::of(3);
/// a.merge(&Collect::of(1));
/// a.merge(&Collect::of(2));
/// assert_eq!(a.values(), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Collect(Vec<u64>);

impl Collect {
    /// A singleton collection.
    pub fn of(v: u64) -> Self {
        Collect(vec![v])
    }

    /// The collected values, sorted ascending.
    pub fn values(&self) -> &[u64] {
        &self.0
    }
}

impl Aggregate for Collect {
    fn merge(&mut self, other: &Self) {
        self.0.extend_from_slice(&other.0);
        self.0.sort_unstable();
    }
}

/// Mean accumulator: pairs a sum with a count so the source can report
/// an exact average — the "quality of service metric" use case from the
/// paper's introduction.
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::{Aggregate, MeanAcc};
/// let mut a = MeanAcc::of(10);
/// a.merge(&MeanAcc::of(20));
/// assert_eq!(a.mean(), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeanAcc {
    /// Sum of contributed values.
    pub sum: u64,
    /// Number of contributions.
    pub count: u64,
}

impl MeanAcc {
    /// A single observation.
    pub fn of(v: u64) -> Self {
        MeanAcc { sum: v, count: 1 }
    }

    /// The mean of all merged observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Aggregate for MeanAcc {
    fn merge(&mut self, other: &Self) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.count = self.count.wrapping_add(other.count);
    }
}

/// Logical conjunction: "do *all* nodes satisfy the predicate?"
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::{Aggregate, All};
/// let mut a = All(true);
/// a.merge(&All(false));
/// assert_eq!(a, All(false));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct All(pub bool);

impl Aggregate for All {
    fn merge(&mut self, other: &Self) {
        self.0 &= other.0;
    }
}

/// Logical disjunction: "does *any* node satisfy the predicate?"
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::{Aggregate, Any};
/// let mut a = Any(false);
/// a.merge(&Any(true));
/// assert_eq!(a, Any(true));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Any(pub bool);

impl Aggregate for Any {
    fn merge(&mut self, other: &Self) {
        self.0 |= other.0;
    }
}

/// A 128-element set union over small ids (bitmask semantics): e.g.
/// "which channels did anyone observe as busy?"
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::{Aggregate, BitSet};
/// let mut a = BitSet::of(3);
/// a.merge(&BitSet::of(10));
/// assert!(a.contains(3) && a.contains(10) && !a.contains(4));
/// assert_eq!(a.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BitSet(pub u128);

impl BitSet {
    /// A singleton set.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 128`.
    pub fn of(bit: u32) -> Self {
        assert!(bit < 128, "BitSet supports ids 0..128, got {bit}");
        BitSet(1u128 << bit)
    }

    /// Membership test (false for `bit >= 128`).
    pub fn contains(self, bit: u32) -> bool {
        bit < 128 && self.0 & (1u128 << bit) != 0
    }

    /// Number of elements.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True for the empty set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Aggregate for BitSet {
    fn merge(&mut self, other: &Self) {
        self.0 |= other.0;
    }
}

/// A fixed 16-bucket histogram, each bucket a saturating counter: the
/// distribution-shaped network snapshot from the paper's QoS use case.
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::{Aggregate, Histogram16};
/// let mut h = Histogram16::of(2);
/// h.merge(&Histogram16::of(2));
/// h.merge(&Histogram16::of(15));
/// assert_eq!(h.buckets()[2], 2);
/// assert_eq!(h.buckets()[15], 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Histogram16 {
    buckets: [u32; 16],
}

impl Histogram16 {
    /// A histogram holding one observation in `bucket`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= 16`.
    pub fn of(bucket: usize) -> Self {
        assert!(bucket < 16, "bucket {bucket} out of range");
        let mut buckets = [0u32; 16];
        buckets[bucket] = 1;
        Histogram16 { buckets }
    }

    /// The bucket counters.
    pub fn buckets(&self) -> &[u32; 16] {
        &self.buckets
    }

    /// Total observations (saturating).
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|&b| b as u64).sum()
    }
}

impl Aggregate for Histogram16 {
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn merged<A: Aggregate>(mut a: A, b: &A) -> A {
        a.merge(b);
        a
    }

    #[test]
    fn sum_min_max_count_basics() {
        assert_eq!(merged(Sum(1), &Sum(2)), Sum(3));
        assert_eq!(merged(Min(5), &Min(9)), Min(5));
        assert_eq!(merged(Max(5), &Max(9)), Max(9));
        assert_eq!(merged(Count(3), &Count(4)), Count(7));
    }

    #[test]
    fn sum_wraps_instead_of_panicking() {
        assert_eq!(merged(Sum(u64::MAX), &Sum(2)), Sum(1));
    }

    #[test]
    fn collect_orders_values() {
        let mut c = Collect::of(9);
        c.merge(&Collect::of(1));
        c.merge(&Collect::of(5));
        assert_eq!(c.values(), &[1, 5, 9]);
    }

    #[test]
    fn collect_keeps_duplicates() {
        let mut c = Collect::of(2);
        c.merge(&Collect::of(2));
        assert_eq!(c.values(), &[2, 2]);
    }

    #[test]
    fn mean_acc_exact() {
        let mut m = MeanAcc::of(1);
        for v in 2..=9 {
            m.merge(&MeanAcc::of(v));
        }
        assert_eq!(m.mean(), 5.0);
        assert_eq!(m.count, 9);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(MeanAcc::default().mean(), 0.0);
    }

    macro_rules! assoc_comm_props {
        ($name:ident, $ty:ty, $mk:expr) => {
            proptest! {
                #[test]
                fn $name(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
                    let (x, y, z): ($ty, $ty, $ty) = ($mk(a), $mk(b), $mk(c));
                    // commutativity
                    prop_assert_eq!(merged(x.clone(), &y), merged(y.clone(), &x));
                    // associativity
                    let left = merged(merged(x.clone(), &y), &z);
                    let right = merged(x.clone(), &merged(y.clone(), &z));
                    prop_assert_eq!(left, right);
                }
            }
        };
    }

    assoc_comm_props!(prop_sum_assoc_comm, Sum, Sum);
    assoc_comm_props!(prop_min_assoc_comm, Min, Min);
    assoc_comm_props!(prop_max_assoc_comm, Max, Max);
    assoc_comm_props!(prop_count_assoc_comm, Count, Count);
    assoc_comm_props!(prop_collect_assoc_comm, Collect, Collect::of);
    assoc_comm_props!(prop_mean_assoc_comm, MeanAcc, MeanAcc::of);
    assoc_comm_props!(prop_all_assoc_comm, All, |v: u64| All(v.is_multiple_of(2)));
    assoc_comm_props!(prop_any_assoc_comm, Any, |v: u64| Any(v.is_multiple_of(2)));
    assoc_comm_props!(prop_bitset_assoc_comm, BitSet, |v: u64| BitSet::of(
        (v % 128) as u32
    ));
    assoc_comm_props!(prop_hist_assoc_comm, Histogram16, |v: u64| Histogram16::of(
        (v % 16) as usize
    ));

    #[test]
    fn all_any_truth_tables() {
        assert_eq!(merged(All(true), &All(true)), All(true));
        assert_eq!(merged(All(true), &All(false)), All(false));
        assert_eq!(merged(Any(false), &Any(false)), Any(false));
        assert_eq!(merged(Any(false), &Any(true)), Any(true));
    }

    #[test]
    fn bitset_union_semantics() {
        let mut s = BitSet::default();
        assert!(s.is_empty());
        for bit in [0u32, 64, 127] {
            s.merge(&BitSet::of(bit));
        }
        assert_eq!(s.len(), 3);
        assert!(s.contains(127));
        assert!(!s.contains(1));
        assert!(!s.contains(200), "out-of-range ids are never members");
        // Idempotent: merging the same element changes nothing.
        let before = s;
        s.merge(&BitSet::of(64));
        assert_eq!(s, before);
    }

    #[test]
    #[should_panic(expected = "0..128")]
    fn bitset_rejects_large_ids() {
        BitSet::of(128);
    }

    #[test]
    fn histogram_counts_and_saturates() {
        let mut h = Histogram16::of(0);
        let full = Histogram16 {
            buckets: [u32::MAX; 16],
        };
        h.merge(&full);
        assert_eq!(h.buckets()[0], u32::MAX, "saturating, not wrapping");
        assert_eq!(h.buckets()[1], u32::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn histogram_rejects_large_buckets() {
        Histogram16::of(16);
    }
}
