//! Paths in the cluster graph.
//!
//! A *stable cluster* is a path in the cluster graph: a sequence of
//! per-interval clusters connected by affinity edges. The **length** of a
//! path is the temporal span it covers (the sum of its edge lengths, where an
//! edge between intervals `i < j` has length `j − i`, so a gap of `g`
//! intervals contributes `g + 1`). The **weight** is the sum of its edge
//! weights (affinities), and the **stability** of Problem 2 is
//! `weight / length`.

use crate::cluster_graph::ClusterNodeId;

/// A path through the cluster graph, in temporal order (earliest first).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPath {
    nodes: Vec<ClusterNodeId>,
    weight: f64,
}

impl ClusterPath {
    /// A path consisting of a single node (length 0, weight 0).
    pub fn singleton(node: ClusterNodeId) -> Self {
        ClusterPath {
            nodes: vec![node],
            weight: 0.0,
        }
    }

    /// Build a path from nodes and a total weight.
    ///
    /// # Panics
    /// Panics if `nodes` is empty or not in strictly increasing interval
    /// order.
    pub fn new(nodes: Vec<ClusterNodeId>, weight: f64) -> Self {
        assert!(!nodes.is_empty(), "a path needs at least one node");
        for pair in nodes.windows(2) {
            // bsc:allow(panic-in-lib) -- documented constructor contract (see # Panics above); windows(2) makes the indices in-bounds
            assert!(
                pair[0].interval < pair[1].interval,
                "path nodes must be in strictly increasing interval order"
            );
        }
        ClusterPath { nodes, weight }
    }

    /// The nodes of the path in temporal order.
    pub fn nodes(&self) -> &[ClusterNodeId] {
        &self.nodes
    }

    /// The first (earliest) node.
    pub fn first(&self) -> ClusterNodeId {
        self.nodes[0]
    }

    /// The last (latest) node.
    pub fn last(&self) -> ClusterNodeId {
        *self.nodes.last().expect("path is non-empty") // bsc:allow(panic-in-lib) -- ClusterPath::new rejects empty node lists
    }

    /// Number of nodes on the path.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges on the path.
    pub fn num_edges(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The temporal length of the path: `interval(last) − interval(first)`.
    pub fn length(&self) -> u32 {
        self.last().interval - self.first().interval
    }

    /// The aggregate weight (sum of edge affinities).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The stability of Problem 2: `weight / length` (0 for length-0 paths).
    pub fn stability(&self) -> f64 {
        let length = self.length();
        if length == 0 {
            0.0
        } else {
            self.weight / f64::from(length)
        }
    }

    /// Extend the path by one edge to `node` with the given edge weight,
    /// returning the new path.
    ///
    /// # Panics
    /// Panics if `node` is not strictly later than the current last node.
    pub fn extend(&self, node: ClusterNodeId, edge_weight: f64) -> ClusterPath {
        assert!(
            node.interval > self.last().interval,
            "extension must move forward in time"
        );
        let mut nodes = self.nodes.clone();
        nodes.push(node);
        ClusterPath {
            nodes,
            weight: self.weight + edge_weight,
        }
    }

    /// Prepend a node at the front (building paths backwards: DFS while it
    /// backtracks, the TA adaptation's suffix enumeration).
    ///
    /// # Panics
    /// Panics if `node` is not strictly earlier than the current first node.
    pub fn prepend(&self, node: ClusterNodeId, edge_weight: f64) -> ClusterPath {
        assert!(
            node.interval < self.first().interval,
            "prepended node must be earlier in time"
        );
        let mut nodes = Vec::with_capacity(self.nodes.len() + 1);
        nodes.push(node);
        nodes.extend_from_slice(&self.nodes);
        ClusterPath {
            nodes,
            weight: self.weight + edge_weight,
        }
    }

    /// The key of the deterministic content order that breaks score ties:
    /// comparing two paths' keys is comparing their [`ClusterPath::nodes`]
    /// (which the heaps do, in place); the exhaustive oracle sorts by it.
    pub fn tie_break_key(&self) -> Vec<(u32, u32)> {
        self.nodes.iter().map(|n| (n.interval, n.index)).collect()
    }
}

impl std::fmt::Display for ClusterPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.nodes.iter().map(|n| format!("{n}")).collect();
        write!(f, "{} (w={:.3})", parts.join(" -> "), self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(interval: u32, index: u32) -> ClusterNodeId {
        ClusterNodeId { interval, index }
    }

    #[test]
    fn singleton_has_zero_length_and_weight() {
        let p = ClusterPath::singleton(node(3, 1));
        assert_eq!(p.length(), 0);
        assert_eq!(p.weight(), 0.0);
        assert_eq!(p.stability(), 0.0);
        assert_eq!(p.num_nodes(), 1);
        assert_eq!(p.num_edges(), 0);
    }

    #[test]
    fn extend_accumulates_weight_and_length() {
        let p = ClusterPath::singleton(node(0, 0))
            .extend(node(1, 2), 0.5)
            .extend(node(3, 1), 0.7);
        assert_eq!(p.num_nodes(), 3);
        assert_eq!(p.length(), 3);
        assert!((p.weight() - 1.2).abs() < 1e-12);
        assert!((p.stability() - 0.4).abs() < 1e-12);
        assert_eq!(p.first(), node(0, 0));
        assert_eq!(p.last(), node(3, 1));
    }

    #[test]
    fn prepend_builds_backwards() {
        let p = ClusterPath::singleton(node(5, 0)).prepend(node(3, 2), 0.9);
        assert_eq!(p.nodes(), &[node(3, 2), node(5, 0)]);
        assert_eq!(p.length(), 2);
        assert!((p.weight() - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "forward in time")]
    fn extend_backwards_panics() {
        let _ = ClusterPath::singleton(node(2, 0)).extend(node(1, 0), 0.1);
    }

    #[test]
    #[should_panic(expected = "increasing interval order")]
    fn new_rejects_unordered_nodes() {
        let _ = ClusterPath::new(vec![node(2, 0), node(1, 0)], 1.0);
    }

    #[test]
    fn display_formats_nodes() {
        let p = ClusterPath::singleton(node(0, 1)).extend(node(1, 3), 0.25);
        let rendered = p.to_string();
        assert!(rendered.contains("c0,1"));
        assert!(rendered.contains("c1,3"));
        assert!(rendered.contains("0.250"));
    }
}
