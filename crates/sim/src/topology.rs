//! Connectivity topologies for multi-hop media.
//!
//! The paper studies the single-hop case; the broadcast literature it
//! discusses (Kondareddy–Agrawal, Song–Xie) is multi-hop. A
//! [`Topology`] fixes which node pairs can hear each other; the
//! [`crate::medium::OracleMultihop`] medium delivers transmissions only
//! along its edges.

use crate::rng::SimRng;

/// An undirected connectivity graph on `n` nodes.
///
/// # Examples
///
/// ```
/// use crn_sim::Topology;
/// let t = Topology::line(4);
/// assert!(t.are_neighbors(0, 1));
/// assert!(!t.are_neighbors(0, 2));
/// assert_eq!(t.diameter(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    /// Adjacency lists, sorted.
    adj: Vec<Vec<usize>>,
}

impl Topology {
    /// Builds a topology from an edge list (self-loops and duplicates
    /// are ignored).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for n = {n}");
            if a != b && !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        Topology { n, adj }
    }

    /// The path `0 — 1 — … — n−1`.
    pub fn line(n: usize) -> Self {
        Topology::from_edges(n, &(1..n).map(|i| (i - 1, i)).collect::<Vec<_>>())
    }

    /// The cycle on `n` nodes (`n ≥ 3` for a proper ring; smaller
    /// values degrade to a line).
    pub fn ring(n: usize) -> Self {
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        if n >= 3 {
            edges.push((n - 1, 0));
        }
        Topology::from_edges(n, &edges)
    }

    /// The `w × h` grid with 4-neighborhoods; node `(x, y)` has index
    /// `y·w + x`.
    pub fn grid(w: usize, h: usize) -> Self {
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    edges.push((i, i + 1));
                }
                if y + 1 < h {
                    edges.push((i, i + w));
                }
            }
        }
        Topology::from_edges(w * h, &edges)
    }

    /// The complete graph (the paper's single-hop setting).
    pub fn complete(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        Topology::from_edges(n, &edges)
    }

    /// An Erdős–Rényi random graph: each pair is an edge independently
    /// with probability `p`.
    pub fn erdos_renyi(n: usize, p: f64, rng: &mut SimRng) -> Self {
        let p = p.clamp(0.0, 1.0);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if p > 0.0 && rng.gen_bool(p) {
                    edges.push((a, b));
                }
            }
        }
        Topology::from_edges(n, &edges)
    }

    /// A random unit-disk graph: `n` points uniform in the unit square,
    /// an edge whenever two points are within `radius`.
    pub fn unit_disk(n: usize, radius: f64, rng: &mut SimRng) -> Self {
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen_f64(), rng.gen_f64())).collect();
        let r2 = radius * radius;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let (dx, dy) = (pts[a].0 - pts[b].0, pts[a].1 - pts[b].1);
                if dx * dx + dy * dy <= r2 {
                    edges.push((a, b));
                }
            }
        }
        Topology::from_edges(n, &edges)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The sorted neighbor list of `node`.
    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.adj[node]
    }

    /// Whether `a` and `b` share an edge.
    pub fn are_neighbors(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&b).is_ok()
    }

    /// Total number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|l| l.len()).sum::<usize>() / 2
    }

    /// True when every pair of distinct nodes shares an edge — the
    /// paper's single-hop setting, where a multi-hop medium degenerates
    /// to the collision oracle.
    pub fn is_complete(&self) -> bool {
        self.adj.iter().all(|l| l.len() + 1 == self.n) || self.n <= 1
    }

    /// BFS distances from `from` (`usize::MAX` for unreachable nodes).
    pub fn distances_from(&self, from: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[from] = 0;
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// True if every node is reachable from node 0 (and `n > 0`).
    pub fn is_connected(&self) -> bool {
        self.n > 0 && self.distances_from(0).iter().all(|&d| d != usize::MAX)
    }

    /// The graph diameter, or `None` if disconnected.
    pub fn diameter(&self) -> Option<usize> {
        if self.n == 0 {
            return None;
        }
        let mut best = 0;
        for from in 0..self.n {
            let d = self.distances_from(from);
            let m = *d.iter().max().expect("n > 0");
            if m == usize::MAX {
                return None;
            }
            best = best.max(m);
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_ring_shapes() {
        let l = Topology::line(5);
        assert_eq!(l.edge_count(), 4);
        assert_eq!(l.diameter(), Some(4));
        let r = Topology::ring(5);
        assert_eq!(r.edge_count(), 5);
        assert_eq!(r.diameter(), Some(2));
        assert!(r.are_neighbors(4, 0));
    }

    #[test]
    fn grid_shape() {
        let g = Topology::grid(3, 3);
        assert_eq!(g.len(), 9);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.diameter(), Some(4));
        assert!(g.are_neighbors(0, 1));
        assert!(g.are_neighbors(0, 3));
        assert!(!g.are_neighbors(0, 4));
    }

    #[test]
    fn complete_is_diameter_one() {
        let c = Topology::complete(6);
        assert_eq!(c.diameter(), Some(1));
        assert_eq!(c.edge_count(), 15);
    }

    #[test]
    fn completeness_detection() {
        assert!(Topology::complete(6).is_complete());
        assert!(Topology::complete(1).is_complete());
        assert!(Topology::complete(0).is_complete());
        assert!(Topology::ring(3).is_complete(), "K3 is a ring");
        assert!(!Topology::ring(4).is_complete());
        assert!(!Topology::line(3).is_complete());
    }

    #[test]
    fn singleton_and_disconnected() {
        let s = Topology::complete(1);
        assert_eq!(s.diameter(), Some(0));
        assert!(s.is_connected());
        let d = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!d.is_connected());
        assert_eq!(d.diameter(), None);
    }

    #[test]
    fn self_loops_and_duplicates_ignored() {
        let t = Topology::from_edges(3, &[(0, 0), (0, 1), (1, 0), (0, 1)]);
        assert_eq!(t.edge_count(), 1);
        assert!(!t.are_neighbors(0, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Topology::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        let empty = Topology::erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.edge_count(), 0);
        let full = Topology::erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(full.edge_count(), 45);
    }

    #[test]
    fn erdos_renyi_density_tracks_p() {
        let mut rng = SimRng::seed_from_u64(9);
        let t = Topology::erdos_renyi(40, 0.25, &mut rng);
        let expected = (40 * 39 / 2) as f64 * 0.25;
        let got = t.edge_count() as f64;
        assert!(
            (got - expected).abs() < expected * 0.4,
            "edges {got} vs expected ~{expected}"
        );
    }

    #[test]
    fn unit_disk_large_radius_is_complete() {
        let mut rng = SimRng::seed_from_u64(1);
        let t = Topology::unit_disk(8, 2.0, &mut rng);
        assert_eq!(t.edge_count(), 28);
    }

    #[test]
    fn unit_disk_small_radius_is_sparse() {
        let mut rng = SimRng::seed_from_u64(2);
        let t = Topology::unit_disk(30, 0.05, &mut rng);
        assert!(t.edge_count() < 30, "edges: {}", t.edge_count());
    }

    #[test]
    fn distances_match_line() {
        let l = Topology::line(6);
        assert_eq!(l.distances_from(0), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(l.distances_from(3), vec![3, 2, 1, 0, 1, 2]);
    }
}
