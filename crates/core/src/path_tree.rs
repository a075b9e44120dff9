//! Zero-copy path sharing via immutable parent-pointer chains.
//!
//! The hot loops of every solver repeatedly *extend* a known-good path by one
//! edge and offer the result to a bounded heap. With [`ClusterPath`]'s
//! `Vec<ClusterNodeId>` representation each extension clones the whole node
//! vector, so processing one interval costs O(paths × length) allocations.
//! The types here replace that with a persistent (immutable, structurally
//! shared) singly-linked tree: extending a path allocates exactly one
//! [`Arc`] link whose parent pointer shares the entire prefix with every
//! sibling extension. Extension and cloning are O(1); a path is materialized
//! to a `Vec`-backed [`ClusterPath`] only when it leaves a solver inside a
//! `Solution`.
//!
//! Two growth directions cover the solvers that hold paths this way:
//!
//! * [`SharedPath`] grows **forward** (append a *later* node in O(1)) — the
//!   TA prefix enumeration and the normalized solver's candidates, which
//!   build paths from earliest to latest (the BFS sweep keeps the same
//!   shape in flat arrays instead, see [`crate::bfs`]);
//! * [`SharedTail`] grows **backward** (prepend an *earlier* node in O(1)) —
//!   the DFS `bestpaths` (paths *starting* at a node, discovered while
//!   backtracking) and the TA suffix enumeration.
//!
//! Aggregates that the hot loops need in O(1) — total weight, node count,
//! the first/last endpoint — are carried alongside the chain head, so a
//! "path" value is one `Arc` plus a few plain words and its `Clone` is a
//! reference-count bump.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::cluster_graph::ClusterNodeId;
use crate::path::ClusterPath;

/// One immutable link of a shared path chain.
#[derive(Debug)]
struct Link {
    id: ClusterNodeId,
    /// Weight of the edge joining this link's node to `prev`'s node
    /// (`0.0` for the chain root, which has no incoming edge).
    edge_weight: f64,
    prev: Option<Arc<Link>>,
}

fn chain_ids(mut link: &Arc<Link>, num_nodes: u32) -> Vec<ClusterNodeId> {
    let mut ids = Vec::with_capacity(num_nodes as usize);
    loop {
        ids.push(link.id);
        match &link.prev {
            Some(prev) => link = prev,
            None => return ids,
        }
    }
}

/// Lexicographic front-to-back comparison of two equal-length chains by
/// `(interval, index)`, without materializing either: the recursion puts the
/// *front* (deepest link) comparison first, exactly like comparing the
/// materialized key vectors, and short-circuits via `Arc::ptr_eq` when both
/// walks reach a shared prefix chain. Depth is bounded by the path length
/// (at most the interval count).
fn chain_cmp_eqlen(a: &Arc<Link>, b: &Arc<Link>, len: u32) -> Ordering {
    if Arc::ptr_eq(a, b) {
        return Ordering::Equal;
    }
    let here = (a.id.interval, a.id.index).cmp(&(b.id.interval, b.id.index));
    if len <= 1 {
        return here;
    }
    // bsc:allow(panic-in-lib) -- each link stores its depth; len > 1 proves a predecessor exists
    let a_prev = a.prev.as_ref().expect("length says a link precedes");
    // bsc:allow(panic-in-lib) -- each link stores its depth; len > 1 proves a predecessor exists
    let b_prev = b.prev.as_ref().expect("length says a link precedes");
    chain_cmp_eqlen(a_prev, b_prev, len - 1).then(here)
}

/// Lexicographic front-to-back comparison of two chains of possibly
/// different length: compare the first `min(la, lb)` nodes (the *deepest*
/// links — the longer chain's extra latest nodes are skipped first), then
/// let the shorter chain sort first, matching `Vec` ordering on the
/// materialized keys.
fn chain_cmp_forward(a: &Arc<Link>, la: u32, b: &Arc<Link>, lb: u32) -> Ordering {
    match la.cmp(&lb) {
        Ordering::Equal => chain_cmp_eqlen(a, b, la),
        Ordering::Greater => {
            let mut a = a;
            for _ in 0..(la - lb) {
                // bsc:allow(panic-in-lib) -- la > lb, so la - lb predecessors exist by the depth invariant
                a = a.prev.as_ref().expect("length says a link precedes");
            }
            chain_cmp_eqlen(a, b, lb).then(Ordering::Greater)
        }
        Ordering::Less => chain_cmp_forward(b, lb, a, la).reverse(),
    }
}

/// Lexicographic comparison of two chains walked head-first (used by
/// [`SharedTail`], whose head is already the *front* of the path): first
/// differing node decides; a chain that ends first sorts first; an
/// `Arc::ptr_eq` hit means the remainders are identical.
fn chain_cmp_headfirst(a: &Arc<Link>, b: &Arc<Link>) -> Ordering {
    let (mut a, mut b) = (a, b);
    loop {
        if Arc::ptr_eq(a, b) {
            return Ordering::Equal;
        }
        let here = (a.id.interval, a.id.index).cmp(&(b.id.interval, b.id.index));
        if here != Ordering::Equal {
            return here;
        }
        match (&a.prev, &b.prev) {
            (Some(x), Some(y)) => {
                a = x;
                b = y;
            }
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
        }
    }
}

/// Structural equality of two chains, with an `Arc::ptr_eq` shortcut: the
/// moment the walks reach a shared suffix the answer is known without
/// touching the remaining links.
fn chain_same(a: &Arc<Link>, b: &Arc<Link>) -> bool {
    let (mut a, mut b) = (a, b);
    loop {
        if Arc::ptr_eq(a, b) {
            return true;
        }
        if a.id != b.id {
            return false;
        }
        match (&a.prev, &b.prev) {
            (Some(x), Some(y)) => {
                a = x;
                b = y;
            }
            (None, None) => return true,
            _ => return false,
        }
    }
}

/// A forward-growing shared path: the chain head is the **latest** node and
/// parent pointers walk back to the earliest.
#[derive(Debug, Clone)]
pub struct SharedPath {
    head: Arc<Link>,
    first: ClusterNodeId,
    num_nodes: u32,
    weight: f64,
}

impl SharedPath {
    /// A path of a single node (length 0, weight 0).
    pub fn singleton(node: ClusterNodeId) -> Self {
        SharedPath {
            head: Arc::new(Link {
                id: node,
                edge_weight: 0.0,
                prev: None,
            }),
            first: node,
            num_nodes: 1,
            weight: 0.0,
        }
    }

    /// Extend by one edge to a strictly later `node` in O(1); the existing
    /// chain is shared, not copied. Moving backward in time is a debug
    /// assertion — this sits on every solver's hot path.
    pub fn extend(&self, node: ClusterNodeId, edge_weight: f64) -> SharedPath {
        debug_assert!(
            node.interval > self.head.id.interval,
            "extension must move forward in time"
        );
        SharedPath {
            head: Arc::new(Link {
                id: node,
                edge_weight,
                prev: Some(Arc::clone(&self.head)),
            }),
            first: self.first,
            num_nodes: self.num_nodes + 1,
            weight: self.weight + edge_weight,
        }
    }

    /// Rebuild a chain from nodes and the per-edge weights between them
    /// (`edge_weights.len() == nodes.len() - 1`).
    pub fn from_parts(nodes: &[ClusterNodeId], edge_weights: &[f64]) -> SharedPath {
        assert!(!nodes.is_empty(), "a path needs at least one node");
        assert_eq!(edge_weights.len(), nodes.len() - 1, "one weight per edge");
        let mut path = SharedPath::singleton(nodes[0]);
        for (&node, &w) in nodes[1..].iter().zip(edge_weights) {
            path = path.extend(node, w);
        }
        path
    }

    /// The earliest node.
    pub fn first(&self) -> ClusterNodeId {
        self.first
    }

    /// The latest node.
    pub fn last(&self) -> ClusterNodeId {
        self.head.id
    }

    /// Number of nodes on the path.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// The temporal length (interval span).
    pub fn length(&self) -> u32 {
        self.head.id.interval - self.first.interval
    }

    /// The aggregate weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The stability `weight / length` (0 for length-0 paths).
    pub fn stability(&self) -> f64 {
        let length = self.length();
        if length == 0 {
            0.0
        } else {
            self.weight / f64::from(length)
        }
    }

    /// Materialize the node sequence in temporal order.
    pub fn nodes(&self) -> Vec<ClusterNodeId> {
        let mut ids = chain_ids(&self.head, self.num_nodes);
        ids.reverse();
        ids
    }

    /// Materialize the per-edge weights in temporal order (empty for
    /// singletons).
    pub fn edge_weights(&self) -> Vec<f64> {
        let mut weights = Vec::with_capacity(self.num_nodes as usize - 1);
        let mut link = &self.head;
        while let Some(prev) = &link.prev {
            weights.push(link.edge_weight);
            link = prev;
        }
        weights.reverse();
        weights
    }

    /// Materialize into a `Vec`-backed [`ClusterPath`].
    pub fn to_cluster_path(&self) -> ClusterPath {
        ClusterPath::new(self.nodes(), self.weight)
    }

    /// Structural node-sequence equality, short-circuiting on shared links.
    pub fn same_nodes(&self, other: &SharedPath) -> bool {
        self.num_nodes == other.num_nodes && chain_same(&self.head, &other.head)
    }

    /// Deterministic total order on path content — identical to comparing
    /// the materialized [`ClusterPath::tie_break_key`] vectors, but
    /// allocation-free: score ties are broken inside heap sift operations,
    /// so this walks the chains directly (with a shared-prefix pointer
    /// shortcut) instead of building key vectors.
    pub fn tie_cmp(&self, other: &SharedPath) -> Ordering {
        chain_cmp_forward(&self.head, self.num_nodes, &other.head, other.num_nodes)
    }
}

/// A backward-growing shared path: the chain head is the **earliest** node
/// and the links walk forward to the latest, so *prepending* an earlier node
/// is O(1). Each link's `edge_weight` is the weight of the edge to the next
/// (later) node.
#[derive(Debug, Clone)]
pub struct SharedTail {
    head: Arc<Link>,
    last: ClusterNodeId,
    num_nodes: u32,
    weight: f64,
}

impl SharedTail {
    /// A path of a single node.
    pub fn singleton(node: ClusterNodeId) -> Self {
        SharedTail {
            head: Arc::new(Link {
                id: node,
                edge_weight: 0.0,
                prev: None,
            }),
            last: node,
            num_nodes: 1,
            weight: 0.0,
        }
    }

    /// Prepend a strictly earlier node in O(1); the existing chain is
    /// shared. Moving forward in time is a debug assertion — this sits on
    /// the DFS hot path.
    pub fn prepend(&self, node: ClusterNodeId, edge_weight: f64) -> SharedTail {
        debug_assert!(
            node.interval < self.head.id.interval,
            "prepended node must be earlier in time"
        );
        SharedTail {
            head: Arc::new(Link {
                id: node,
                edge_weight,
                prev: Some(Arc::clone(&self.head)),
            }),
            last: self.last,
            num_nodes: self.num_nodes + 1,
            weight: self.weight + edge_weight,
        }
    }

    /// Rebuild from materialized nodes (temporal order) and a total weight
    /// (used when loading DFS `bestpaths` back from disk). Per-edge weights
    /// are not recorded in the stored form and are set to zero; only the
    /// total matters to the consumers of reloaded paths.
    pub fn from_stored_nodes(nodes: &[ClusterNodeId], weight: f64) -> SharedTail {
        assert!(!nodes.is_empty(), "a path needs at least one node");
        let last = nodes[nodes.len() - 1];
        let mut tail = SharedTail::singleton(last);
        for &node in nodes[..nodes.len() - 1].iter().rev() {
            tail = tail.prepend(node, 0.0);
        }
        SharedTail { weight, ..tail }
    }

    /// The earliest node.
    pub fn first(&self) -> ClusterNodeId {
        self.head.id
    }

    /// The latest node.
    pub fn last(&self) -> ClusterNodeId {
        self.last
    }

    /// Number of nodes on the path.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// The temporal length (interval span).
    pub fn length(&self) -> u32 {
        self.last.interval - self.head.id.interval
    }

    /// The aggregate weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Materialize the node sequence in temporal order (a straight walk:
    /// the chain is already stored earliest-first).
    pub fn nodes(&self) -> Vec<ClusterNodeId> {
        chain_ids(&self.head, self.num_nodes)
    }

    /// Materialize into a `Vec`-backed [`ClusterPath`].
    pub fn to_cluster_path(&self) -> ClusterPath {
        ClusterPath::new(self.nodes(), self.weight)
    }

    /// Structural node-sequence equality, short-circuiting on shared links.
    pub fn same_nodes(&self, other: &SharedTail) -> bool {
        self.num_nodes == other.num_nodes && chain_same(&self.head, &other.head)
    }

    /// Deterministic total order on path content, identical to comparing
    /// materialized [`ClusterPath::tie_break_key`] vectors but
    /// allocation-free (the chain is already stored front-first).
    pub fn tie_cmp(&self, other: &SharedTail) -> Ordering {
        chain_cmp_headfirst(&self.head, &other.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(interval: u32, index: u32) -> ClusterNodeId {
        ClusterNodeId::new(interval, index)
    }

    #[test]
    fn extend_shares_the_prefix() {
        let base = SharedPath::singleton(node(0, 0)).extend(node(1, 1), 0.5);
        let a = base.extend(node(2, 0), 0.3);
        let b = base.extend(node(2, 1), 0.4);
        assert_eq!(a.nodes(), vec![node(0, 0), node(1, 1), node(2, 0)]);
        assert_eq!(b.nodes(), vec![node(0, 0), node(1, 1), node(2, 1)]);
        assert!((a.weight() - 0.8).abs() < 1e-12);
        assert!((b.weight() - 0.9).abs() < 1e-12);
        assert_eq!(a.length(), 2);
        assert_eq!(a.first(), node(0, 0));
        assert_eq!(a.last(), node(2, 0));
        assert_eq!(a.num_nodes(), 3);
        assert!(!a.same_nodes(&b));
        assert!(a.same_nodes(&a.clone()));
    }

    #[test]
    fn materialization_matches_cluster_path_semantics() {
        let shared = SharedPath::singleton(node(0, 0))
            .extend(node(1, 2), 0.5)
            .extend(node(3, 1), 0.7);
        let path = shared.to_cluster_path();
        assert_eq!(path.nodes(), &[node(0, 0), node(1, 2), node(3, 1)]);
        assert!((path.weight() - 1.2).abs() < 1e-12);
        assert!((shared.stability() - path.stability()).abs() < 1e-15);
        assert_eq!(shared.edge_weights(), vec![0.5, 0.7]);
    }

    #[test]
    fn tail_prepends_in_order() {
        let tail = SharedTail::singleton(node(3, 0))
            .prepend(node(2, 1), 0.9)
            .prepend(node(0, 0), 0.4);
        assert_eq!(tail.nodes(), vec![node(0, 0), node(2, 1), node(3, 0)]);
        assert!((tail.weight() - 1.3).abs() < 1e-12);
        assert_eq!(tail.first(), node(0, 0));
        assert_eq!(tail.last(), node(3, 0));
        assert_eq!(tail.length(), 3);
        let other = SharedTail::singleton(node(3, 0)).prepend(node(2, 1), 0.9);
        assert!(!tail.same_nodes(&other));
        assert!(tail.same_nodes(&SharedTail::from_stored_nodes(&tail.nodes(), tail.weight())));
    }

    #[test]
    fn stored_round_trips_preserve_nodes_and_weight() {
        let nodes = vec![node(0, 3), node(1, 1), node(2, 4)];
        let tail = SharedTail::from_stored_nodes(&nodes, 1.25);
        assert_eq!(tail.nodes(), nodes);
        assert!((tail.weight() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn from_parts_keeps_edge_weights() {
        let nodes = vec![node(0, 0), node(1, 0), node(3, 0)];
        let path = SharedPath::from_parts(&nodes, &[0.2, 0.7]);
        assert_eq!(path.edge_weights(), vec![0.2, 0.7]);
        assert!((path.weight() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn tie_cmp_orders_like_cluster_path_keys() {
        let a = SharedPath::singleton(node(0, 0)).extend(node(1, 0), 0.5);
        let b = SharedPath::singleton(node(0, 0)).extend(node(1, 1), 0.5);
        assert_eq!(a.tie_cmp(&b), Ordering::Less);
        assert_eq!(b.tie_cmp(&a), Ordering::Greater);
        assert_eq!(a.tie_cmp(&a.clone()), Ordering::Equal);
        assert_eq!(
            a.tie_cmp(&b),
            a.to_cluster_path()
                .tie_break_key()
                .cmp(&b.to_cluster_path().tie_break_key())
        );
    }

    #[test]
    fn tie_cmp_matches_materialized_keys_across_lengths_and_sharing() {
        let key = |p: &SharedPath| -> Vec<(u32, u32)> {
            p.nodes().iter().map(|n| (n.interval, n.index)).collect()
        };
        let base = SharedPath::singleton(node(0, 1)).extend(node(1, 2), 0.5);
        let paths = vec![
            SharedPath::singleton(node(0, 0)),
            SharedPath::singleton(node(0, 1)),
            base.clone(),                 // shared-prefix cases
            base.extend(node(2, 0), 0.1), // longer, shares base
            base.extend(node(2, 3), 0.1), // same length, shares base
            SharedPath::from_parts(&[node(0, 1), node(1, 2)], &[0.5]), // equal content, distinct chain
            SharedPath::from_parts(&[node(0, 1), node(1, 2), node(3, 0)], &[0.5, 0.2]),
        ];
        for a in &paths {
            for b in &paths {
                assert_eq!(
                    a.tie_cmp(b),
                    key(a).cmp(&key(b)),
                    "tie_cmp must equal materialized key order for {:?} vs {:?}",
                    a.nodes(),
                    b.nodes()
                );
            }
        }
    }

    #[test]
    fn tail_tie_cmp_matches_materialized_keys() {
        let key = |p: &SharedTail| -> Vec<(u32, u32)> {
            p.nodes().iter().map(|n| (n.interval, n.index)).collect()
        };
        let base = SharedTail::singleton(node(3, 0)).prepend(node(2, 1), 0.5);
        let tails = vec![
            SharedTail::singleton(node(2, 1)),
            SharedTail::singleton(node(3, 0)),
            base.clone(),
            base.prepend(node(0, 0), 0.2), // longer, shares base's suffix
            base.prepend(node(0, 2), 0.2),
            SharedTail::from_stored_nodes(&[node(2, 1), node(3, 0)], 0.5),
        ];
        for a in &tails {
            for b in &tails {
                assert_eq!(
                    a.tie_cmp(b),
                    key(a).cmp(&key(b)),
                    "tail tie_cmp must equal materialized key order for {:?} vs {:?}",
                    a.nodes(),
                    b.nodes()
                );
            }
        }
    }

    #[test]
    fn shared_suffix_equality_uses_pointer_shortcut() {
        let base = SharedPath::singleton(node(0, 0)).extend(node(1, 0), 0.5);
        let a = base.extend(node(2, 0), 0.1);
        let b = base.extend(node(2, 0), 0.9);
        // Different chains (different final link) but identical node
        // sequences; the shared prefix is detected by pointer equality.
        assert!(a.same_nodes(&b));
    }
}
