//! Wire messages for the baseline protocols.

use crn_sim::NodeId;

/// Messages of the rendezvous-aggregation baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineMsg<V> {
    /// A sender hands its value to the source.
    Value {
        /// The sending node.
        id: NodeId,
        /// Its value.
        v: V,
    },
    /// The source acknowledges the sender it just heard.
    Ack {
        /// The acknowledged sender.
        id: NodeId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_compare_by_content() {
        let a: BaselineMsg<u32> = BaselineMsg::Ack { id: NodeId(1) };
        assert_eq!(a, BaselineMsg::Ack { id: NodeId(1) });
        assert_ne!(a, BaselineMsg::Ack { id: NodeId(2) });
    }
}
