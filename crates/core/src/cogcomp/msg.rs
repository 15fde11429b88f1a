//! The COGCOMP wire messages.
//!
//! One message type covers all four phases; each phase only ever sends
//! (and expects) its own variants, and the tests assert that cross-phase
//! variants are ignored rather than misinterpreted.

use crn_sim::NodeId;

/// Messages exchanged by COGCOMP nodes.
///
/// `r` fields are *absolute phase-one slot indices* (0-based); together
/// with the physical channel they name an `(r, c)`-cluster (Definition 6
/// of the paper). The channel never appears in messages because a
/// message is only ever heard *on* its channel.
#[derive(Debug, Clone, PartialEq)]
pub enum CogCompMsg<V> {
    /// Phase 1: the source's initiation message, flooded by COGCAST.
    Init,
    /// Phase 2: a cluster-census beacon: "I am `id`, informed in slot
    /// `r` (on this channel)".
    Census {
        /// The beaconing node.
        id: NodeId,
        /// The slot it was first informed in.
        r: u64,
    },
    /// Phase 3 (the rewind): a cluster reports its size to its informer.
    ClusterSize {
        /// The cluster's informed slot (sanity echo of the rewind slot).
        r: u64,
        /// Number of nodes in the cluster.
        size: u32,
    },
    /// Phase 4 slot 1: the channel mediator schedules cluster `r` to
    /// send in the next slot.
    Announce {
        /// The cluster whose turn it is.
        r: u64,
    },
    /// Phase 4 slot 2: a sender passes its folded subtree value to its
    /// parent.
    Value {
        /// The sending node.
        id: NodeId,
        /// The sender's cluster slot (so the receiver can match it).
        r: u64,
        /// The sender's value merged with all of its descendants'.
        agg: V,
    },
    /// Phase 4 slot 3: the receiver confirms whose value it just took.
    Ack {
        /// The sender being acknowledged.
        id: NodeId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_compare_by_content() {
        let a: CogCompMsg<u32> = CogCompMsg::Census {
            id: NodeId(1),
            r: 5,
        };
        let b = CogCompMsg::Census {
            id: NodeId(1),
            r: 5,
        };
        assert_eq!(a, b);
        assert_ne!(
            a,
            CogCompMsg::Census {
                id: NodeId(2),
                r: 5
            }
        );
        assert_ne!(a, CogCompMsg::Init);
    }

    #[test]
    fn value_carries_aggregate() {
        let m = CogCompMsg::Value {
            id: NodeId(3),
            r: 9,
            agg: 41u32,
        };
        match m {
            CogCompMsg::Value { agg, .. } => assert_eq!(agg, 41),
            _ => unreachable!(),
        }
    }
}
