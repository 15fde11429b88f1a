//! The distribution tree implicitly built by COGCAST (Section 5,
//! Lemma 5).
//!
//! Each node designates as its parent the node whose transmission first
//! informed it; since an informed node never listens again, each node is
//! informed exactly once and the parent pointers form a tree rooted at
//! the source. COGCOMP aggregates along this tree; the tests here and in
//! the integration suite verify the tree's structural invariants.

use crate::cogcast::CogCast;
use crn_sim::NodeId;
use std::error::Error;
use std::fmt;

/// A validation failure while extracting a distribution tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A non-root node never learned the message, so it has no parent.
    Uninformed {
        /// The node that is missing from the tree.
        node: NodeId,
    },
    /// A parent pointer escapes the node range.
    BadParent {
        /// The node with the invalid pointer.
        node: NodeId,
        /// The out-of-range parent it named.
        parent: NodeId,
    },
    /// Following parent pointers from `node` never reaches the root
    /// (a cycle, which a correct COGCAST run can never produce).
    Unrooted {
        /// A node on the cycle.
        node: NodeId,
    },
    /// A node claims to have been informed no later than its parent.
    TimeInversion {
        /// The child whose informed-slot precedes its parent's.
        node: NodeId,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Uninformed { node } => write!(f, "node {node} was never informed"),
            TreeError::BadParent { node, parent } => {
                write!(f, "node {node} names out-of-range parent {parent}")
            }
            TreeError::Unrooted { node } => {
                write!(f, "node {node} does not reach the root (cycle)")
            }
            TreeError::TimeInversion { node } => {
                write!(f, "node {node} was informed before its parent")
            }
        }
    }
}

impl Error for TreeError {}

/// The distribution tree of one COGCAST execution.
///
/// # Examples
///
/// ```
/// use crn_core::tree::DistributionTree;
/// use crn_sim::NodeId;
/// // root 0; 1 and 2 informed by 0 in slots 3 and 5.
/// let t = DistributionTree::from_parents(
///     NodeId(0),
///     vec![None, Some((NodeId(0), 3)), Some((NodeId(0), 5))],
/// )?;
/// assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
/// assert_eq!(t.depth(NodeId(2)), 1);
/// # Ok::<(), crn_core::tree::TreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributionTree {
    root: NodeId,
    /// For each node: `(parent, informed_slot)`; `None` for the root.
    parents: Vec<Option<(NodeId, u64)>>,
    /// For each node: its children sorted by id.
    children: Vec<Vec<NodeId>>,
    /// For each node: hop distance from the root.
    depths: Vec<u32>,
}

impl DistributionTree {
    /// Builds and validates a tree from per-node `(parent, slot)` data.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] if a non-root node lacks a parent, a
    /// parent pointer is out of range, parent pointers contain a cycle,
    /// or a child's informed slot does not come strictly after its
    /// parent's.
    pub fn from_parents(
        root: NodeId,
        parents: Vec<Option<(NodeId, u64)>>,
    ) -> Result<Self, TreeError> {
        let n = parents.len();
        for (i, p) in parents.iter().enumerate() {
            let node = NodeId(i as u32);
            match p {
                None if node != root => return Err(TreeError::Uninformed { node }),
                Some((parent, _)) if parent.index() >= n => {
                    return Err(TreeError::BadParent {
                        node,
                        parent: *parent,
                    })
                }
                Some(_) if node == root => return Err(TreeError::BadParent { node, parent: root }),
                _ => {}
            }
        }

        // Depth computation by relaxation; a node left unset after n
        // rounds is on a cycle. O(n·height), and these trees are shallow.
        let mut depths = vec![u32::MAX; n];
        depths[root.index()] = 0;
        let mut changed = true;
        let mut rounds = 0;
        while changed {
            changed = false;
            rounds += 1;
            if rounds > n + 1 {
                // A cycle would loop forever; find a node still unset.
                let node = (0..n).find(|&i| depths[i] == u32::MAX).unwrap_or(0);
                return Err(TreeError::Unrooted {
                    node: NodeId(node as u32),
                });
            }
            for i in 0..n {
                if let Some((parent, _)) = parents[i] {
                    let pd = depths[parent.index()];
                    if pd != u32::MAX && depths[i] == u32::MAX {
                        depths[i] = pd + 1;
                        changed = true;
                    }
                }
            }
        }
        if let Some(node) = (0..n).find(|&i| depths[i] == u32::MAX) {
            return Err(TreeError::Unrooted {
                node: NodeId(node as u32),
            });
        }

        // Informed slots must strictly increase along tree edges
        // (a node can only inform others *after* the slot it was
        // informed in).
        for i in 0..n {
            if let Some((parent, slot)) = parents[i] {
                if let Some((_, pslot)) = parents[parent.index()] {
                    if pslot >= slot {
                        return Err(TreeError::TimeInversion {
                            node: NodeId(i as u32),
                        });
                    }
                }
            }
        }

        let mut children = vec![Vec::new(); n];
        for (i, p) in parents.iter().enumerate() {
            if let Some((parent, _)) = p {
                children[parent.index()].push(NodeId(i as u32));
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }

        Ok(DistributionTree {
            root,
            parents,
            children,
            depths,
        })
    }

    /// Extracts the tree from a completed COGCAST run.
    ///
    /// Node `i` of `protos` must be the protocol instance of `NodeId(i)`;
    /// the source (the unique instance with no `informed` record that
    /// reports `is_source`) becomes the root.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] if some node is still uninformed or the
    /// recorded parents do not form a valid tree.
    pub fn from_cogcast<M: Clone + std::fmt::Debug>(
        protos: &[CogCast<M>],
    ) -> Result<Self, TreeError> {
        let root = protos
            .iter()
            .position(|p| p.is_source())
            .map(|i| NodeId(i as u32))
            .unwrap_or(NodeId(0));
        let parents = protos
            .iter()
            .map(|p| p.informed().map(|i| (i.from, i.slot)))
            .collect();
        DistributionTree::from_parents(root, parents)
    }

    /// Extracts the tree from a completed COGCOMP run (the phase-one
    /// tree COGCOMP aggregates along).
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] if some node never heard `Init` or the
    /// parents do not form a valid tree.
    pub fn from_cogcomp<V: crate::aggregate::Aggregate>(
        protos: &[crate::cogcomp::CogComp<V>],
    ) -> Result<Self, TreeError> {
        let root = protos
            .iter()
            .position(|p| p.is_source())
            .map(|i| NodeId(i as u32))
            .unwrap_or(NodeId(0));
        let parents = protos
            .iter()
            .map(|p| p.informed().map(|i| (i.from, i.slot)))
            .collect();
        DistributionTree::from_parents(root, parents)
    }

    /// The root (source) node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True if the tree contains only the root.
    pub fn is_empty(&self) -> bool {
        self.parents.len() <= 1
    }

    /// The parent of `node`, or `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parents[node.index()].map(|(p, _)| p)
    }

    /// The slot in which `node` was informed, or `None` for the root.
    pub fn informed_slot(&self, node: NodeId) -> Option<u64> {
        self.parents[node.index()].map(|(_, s)| s)
    }

    /// The children of `node`, sorted by id.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Hop distance of `node` from the root.
    pub fn depth(&self, node: NodeId) -> u32 {
        self.depths[node.index()]
    }

    /// The maximum depth over all nodes.
    pub fn height(&self) -> u32 {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// Number of leaf nodes (nodes with no children; the root counts if
    /// alone).
    pub fn leaves(&self) -> usize {
        self.children.iter().filter(|c| c.is_empty()).count()
    }

    /// The size of the subtree rooted at `node` (including itself).
    pub fn subtree_size(&self, node: NodeId) -> usize {
        let mut size = 1;
        for &c in self.children(node) {
            size += self.subtree_size(c);
        }
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DistributionTree {
        // 0 <- 1 <- 2 <- ... informed at slots 1, 2, ...
        let parents = (0..n)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    Some((NodeId(i as u32 - 1), i as u64))
                }
            })
            .collect();
        DistributionTree::from_parents(NodeId(0), parents).unwrap()
    }

    #[test]
    fn chain_structure() {
        let t = chain(5);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.len(), 5);
        assert_eq!(t.height(), 4);
        assert_eq!(t.leaves(), 1);
        assert_eq!(t.depth(NodeId(3)), 3);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.subtree_size(NodeId(0)), 5);
        assert_eq!(t.subtree_size(NodeId(2)), 3);
        assert_eq!(t.informed_slot(NodeId(4)), Some(4));
        assert_eq!(t.informed_slot(NodeId(0)), None);
    }

    #[test]
    fn star_structure() {
        let parents = vec![
            None,
            Some((NodeId(0), 1)),
            Some((NodeId(0), 1)),
            Some((NodeId(0), 2)),
        ];
        let t = DistributionTree::from_parents(NodeId(0), parents).unwrap();
        assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.height(), 1);
        assert_eq!(t.leaves(), 3);
    }

    #[test]
    fn uninformed_node_rejected() {
        let parents = vec![None, None];
        assert_eq!(
            DistributionTree::from_parents(NodeId(0), parents).unwrap_err(),
            TreeError::Uninformed { node: NodeId(1) }
        );
    }

    #[test]
    fn cycle_rejected() {
        let parents = vec![None, Some((NodeId(2), 5)), Some((NodeId(1), 6))];
        let err = DistributionTree::from_parents(NodeId(0), parents).unwrap_err();
        assert!(matches!(err, TreeError::Unrooted { .. }), "{err:?}");
    }

    #[test]
    fn out_of_range_parent_rejected() {
        let parents = vec![None, Some((NodeId(9), 1))];
        assert!(matches!(
            DistributionTree::from_parents(NodeId(0), parents).unwrap_err(),
            TreeError::BadParent { .. }
        ));
    }

    #[test]
    fn root_with_parent_rejected() {
        let parents = vec![Some((NodeId(1), 1)), None];
        // NodeId(0) is the declared root but has a parent.
        assert!(matches!(
            DistributionTree::from_parents(NodeId(0), parents).unwrap_err(),
            TreeError::BadParent { .. }
        ));
    }

    #[test]
    fn time_inversion_rejected() {
        // Node 2 informed at slot 3 by node 1, which was informed at
        // slot 5: impossible.
        let parents = vec![None, Some((NodeId(0), 5)), Some((NodeId(1), 3))];
        assert_eq!(
            DistributionTree::from_parents(NodeId(0), parents).unwrap_err(),
            TreeError::TimeInversion { node: NodeId(2) }
        );
    }

    #[test]
    fn equal_slot_on_edge_rejected() {
        let parents = vec![None, Some((NodeId(0), 4)), Some((NodeId(1), 4))];
        assert!(matches!(
            DistributionTree::from_parents(NodeId(0), parents).unwrap_err(),
            TreeError::TimeInversion { .. }
        ));
    }

    #[test]
    fn singleton_tree() {
        let t = DistributionTree::from_parents(NodeId(0), vec![None]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.leaves(), 1);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn nonzero_root_supported() {
        let parents = vec![Some((NodeId(2), 1)), Some((NodeId(2), 2)), None];
        let t = DistributionTree::from_parents(NodeId(2), parents).unwrap();
        assert_eq!(t.root(), NodeId(2));
        assert_eq!(t.children(NodeId(2)), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn error_display_mentions_node() {
        let e = TreeError::Uninformed { node: NodeId(7) };
        assert!(e.to_string().contains("n7"));
    }

    #[test]
    fn from_cogcomp_extracts_the_phase_one_tree() {
        use crate::aggregate::Count;
        use crate::bounds;
        use crate::cogcomp::{CogComp, CogCompConfig};
        use crn_sim::assignment::shared_core;
        use crn_sim::channel_model::StaticChannels;
        use crn_sim::{Network, OracleSingleHop};

        let (n, c, k) = (18usize, 5usize, 2usize);
        let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA);
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), 6);
        let mut protos = vec![CogComp::source(cfg, Count(1))];
        protos.extend((1..n).map(|_| CogComp::node(cfg, Count(1))));
        let mut net = Network::with_medium(model, protos, 6, OracleSingleHop::new()).unwrap();
        assert!(net.run_to_completion(cfg.recommended_budget()).is_done());
        let protos = net.into_protocols();

        let tree = DistributionTree::from_cogcomp(&protos).unwrap();
        assert_eq!(tree.root(), NodeId(0));
        assert_eq!(tree.subtree_size(tree.root()), n);
        // Every node's informer-cluster count equals its child-cluster
        // structure: the sum of children counts across nodes is n - 1.
        let edges: usize = (0..n).map(|i| tree.children(NodeId(i as u32)).len()).sum();
        assert_eq!(edges, n - 1);
    }
}
