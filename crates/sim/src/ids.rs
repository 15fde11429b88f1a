//! Strongly-typed identifiers used throughout the simulator.
//!
//! The paper's model distinguishes three "name spaces" that are easy to
//! confuse in an implementation: the *global* (oracle-view) channel space,
//! the per-node *local* channel labels, and node identities. Each gets a
//! newtype so the compiler keeps them apart.

use std::fmt;

/// A unique node identity.
///
/// The paper assumes each of the `n` nodes has a unique identity; COGCOMP's
/// mediator election picks the *smallest* identifier in a cluster, so
/// `NodeId` is ordered.
///
/// # Examples
///
/// ```
/// use crn_sim::NodeId;
/// let a = NodeId(3);
/// let b = NodeId(7);
/// assert!(a < b);
/// assert_eq!(a.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw index of this node.
    ///
    /// ```
    /// # use crn_sim::NodeId;
    /// assert_eq!(NodeId(5).index(), 5);
    /// ```
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A channel identifier in the *global* (oracle) channel space `0..C`.
///
/// Nodes in the local-label model never observe these directly; they are
/// used by the simulator to decide which transmissions physically collide,
/// and by global-label algorithms (which are a special case of the model).
///
/// # Examples
///
/// ```
/// use crn_sim::GlobalChannel;
/// let q = GlobalChannel(12);
/// assert_eq!(q.index(), 12);
/// assert_eq!(q.to_string(), "g12");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalChannel(pub u32);

impl GlobalChannel {
    /// Returns the raw index of this channel in the global space.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GlobalChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u32> for GlobalChannel {
    fn from(v: u32) -> Self {
        GlobalChannel(v)
    }
}

/// A channel label in a node's *local* label space `0..c`.
///
/// Each node assigns arbitrary labels to its `c` available channels; the
/// same physical channel may carry different local labels at different
/// nodes (Section 2 of the paper). Protocols select channels exclusively
/// through local labels; the engine translates them to [`GlobalChannel`]s.
///
/// # Examples
///
/// ```
/// use crn_sim::LocalChannel;
/// let l = LocalChannel(0);
/// assert_eq!(l.index(), 0);
/// assert_eq!(l.to_string(), "l0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LocalChannel(pub u32);

impl LocalChannel {
    /// Returns the raw index of this label in the node's local space.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LocalChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u32> for LocalChannel {
    fn from(v: u32) -> Self {
        LocalChannel(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_ordering_matches_raw() {
        assert!(NodeId(0) < NodeId(1));
        assert!(NodeId(10) > NodeId(9));
        assert_eq!(NodeId(4), NodeId(4));
    }

    #[test]
    fn display_forms_are_distinct() {
        assert_eq!(NodeId(1).to_string(), "n1");
        assert_eq!(GlobalChannel(1).to_string(), "g1");
        assert_eq!(LocalChannel(1).to_string(), "l1");
    }

    #[test]
    fn ids_are_hashable_and_distinct_types() {
        let mut set = HashSet::new();
        set.insert(NodeId(0));
        set.insert(NodeId(1));
        set.insert(NodeId(0));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn from_u32_round_trips() {
        assert_eq!(NodeId::from(9).index(), 9);
        assert_eq!(GlobalChannel::from(9).index(), 9);
        assert_eq!(LocalChannel::from(9).index(), 9);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId(0));
        assert_eq!(GlobalChannel::default(), GlobalChannel(0));
        assert_eq!(LocalChannel::default(), LocalChannel(0));
    }
}
