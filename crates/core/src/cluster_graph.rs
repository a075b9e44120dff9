//! The cluster graph `G` (Section 4.1).
//!
//! Nodes are the per-interval keyword clusters; an edge connects clusters of
//! intervals `i < j` with `j − i ≤ g + 1` (where `g` is the allowed gap)
//! whenever their affinity exceeds the threshold θ. Edge **weight** is the
//! affinity (normalized into `(0, 1]` when the affinity function is not
//! naturally bounded), edge **length** is the interval difference `j − i`, so
//! a single gap of length `g` contributes `g + 1` to a path's length.
//!
//! The graph is "very similar to an n-partite graph (except for the gaps)":
//! a node of interval `i` can only have parents in intervals
//! `[i − g − 1, i − 1]` and children in `[i + 1, i + g + 1]` — the property
//! all three stable-cluster algorithms exploit.
//!
//! It also makes a temporal window nothing more than an interval range over
//! the graph: a borrowed [`GraphView`], which is what every solver reads. A
//! windowed solve copies no edge, so a path inside a window weighs bit for
//! bit what it weighs in the graph.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bsc_graph::cluster::KeywordCluster;
use bsc_graph::csr::prefix_offsets;

use crate::affinity::Affinity;
use crate::lookahead::Memo;

/// Identifier of a cluster-graph node: the temporal interval and the cluster
/// index within that interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterNodeId {
    /// Temporal interval (0-based).
    pub interval: u32,
    /// Cluster index within the interval.
    pub index: u32,
}

impl ClusterNodeId {
    /// Construct a node id.
    pub fn new(interval: u32, index: u32) -> Self {
        ClusterNodeId { interval, index }
    }

    /// Pack into a `u64` key (used by disk-backed node stores).
    pub fn to_u64(self) -> u64 {
        (u64::from(self.interval) << 32) | u64::from(self.index)
    }

    /// Unpack from a `u64` key.
    pub fn from_u64(value: u64) -> Self {
        ClusterNodeId {
            interval: (value >> 32) as u32,
            index: value as u32,
        }
    }
}

impl std::fmt::Display for ClusterNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{},{}", self.interval, self.index)
    }
}

/// A directed edge of the cluster graph (from an earlier to a later
/// interval).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterEdge {
    /// The other endpoint.
    pub to: ClusterNodeId,
    /// Affinity weight in `(0, 1]` after normalization.
    pub weight: f64,
}

/// One in-edge of an interval [`ClusterGraph::append`] adds, as a
/// `push_interval` line lists it: `(parent, node index, weight)`.
pub type InEdge = (ClusterNodeId, u32, f64);

/// The per-node shape — `parent_edges[j]` lists node `j`'s `(earlier node,
/// weight)` pairs — as the flat list [`ClusterGraph::append`] takes, node by
/// node.
pub fn in_edges(parent_edges: &[Vec<(ClusterNodeId, f64)>]) -> Vec<InEdge> {
    (0..)
        .zip(parent_edges)
        .flat_map(|(node, parents)| parents.iter().map(move |&(parent, w)| (parent, node, w)))
        .collect()
}

/// The longest edge a gap of `g` admits: `g + 1` intervals, saturating — a
/// gap of `u32::MAX` admits every edge the interval numbering can express.
/// Everything that bounds an edge's span reads it here (through
/// [`ClusterGraph::max_edge_length`], [`GraphView::max_edge_length`] or
/// [`ClusterGraphBuilder::max_edge_length`]), never as `gap + 1`.
fn max_edge_length(gap: u32) -> u32 {
    gap.saturating_add(1)
}

/// One direction of one interval's adjacency in compressed sparse-row (CSR)
/// form: row `j` is the contiguous edge slice of the interval's `j`-th node.
///
/// Never mutated once it sits behind an `Arc`. Graphs of consecutive epochs
/// share these, so two graphs holding the *same* allocation hold equal
/// content — the fact [`ClusterGraph::shares_in_edges`] rests on.
#[derive(Debug)]
pub(crate) struct Adjacency {
    /// `offsets[j]..offsets[j + 1]` spans node `j`'s slice of `edges`: one
    /// entry per node plus one, so the interval's node count lives here.
    offsets: Vec<usize>,
    edges: Vec<ClusterEdge>,
}

impl Adjacency {
    /// `nodes` rows without a single edge.
    fn empty(nodes: usize) -> Adjacency {
        Adjacency {
            offsets: vec![0; nodes + 1],
            edges: Vec::new(),
        }
    }

    fn num_nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Node `index`'s edges.
    pub(crate) fn row(&self, index: u32) -> &[ClusterEdge] {
        let index = index as usize;
        &self.edges[self.offsets[index]..self.offsets[index + 1]]
    }
}

/// Counting-sort fill of one [`Adjacency`]: rows are sized up front from
/// per-node degrees, then every [`AdjacencyFill::push`] drops an edge into
/// its row's next free slot — each row keeps the order its edges arrived in.
struct AdjacencyFill {
    adjacency: Adjacency,
    /// Next free slot of each row.
    cursor: Vec<usize>,
}

impl AdjacencyFill {
    fn new(degrees: &[usize]) -> Self {
        let offsets = prefix_offsets(degrees);
        let placeholder = ClusterEdge {
            to: ClusterNodeId::new(0, 0),
            weight: 0.0,
        };
        AdjacencyFill {
            cursor: offsets.clone(),
            adjacency: Adjacency {
                edges: vec![placeholder; offsets.last().copied().unwrap_or(0)],
                offsets,
            },
        }
    }

    fn push(&mut self, row: u32, edge: ClusterEdge) {
        let slot = &mut self.cursor[row as usize];
        self.adjacency.edges[*slot] = edge;
        *slot += 1;
    }

    /// The table, each row in the order its edges arrived (both
    /// directions: whoever wants another order sorts what it reads).
    fn finish(self) -> Arc<Adjacency> {
        Arc::new(self.adjacency)
    }
}

/// An [`IntervalSegment`]'s `reach` from its in-edges counted by span,
/// `(span, in-edges spanning it)` by ascending span.
fn reach(counts: impl Iterator<Item = (u32, usize)>) -> Arc<[(u32, usize)]> {
    let mut total = 0;
    let spanned = |(span, count)| {
        total += count;
        (count > 0).then_some((span, total))
    };
    counts.filter_map(spanned).collect()
}

/// One interval of a [`ClusterGraph`]: its nodes' incoming and outgoing
/// edges, shareable separately — appending an interval gives up to `g + 1`
/// earlier intervals new children but never a new parent.
#[derive(Debug, Clone)]
struct IntervalSegment {
    /// Edges to earlier intervals, in edge insertion order.
    parents: Arc<Adjacency>,
    /// `(s, the in-edges spanning at most s intervals)` for every span `s`
    /// an in-edge has, by `s`: what [`GraphView::num_edges`] reads.
    reach: Arc<[(u32, usize)]>,
    /// Edges to later intervals, each node's slice in arrival order.
    children: Arc<Adjacency>,
}

/// The cluster graph over `m` temporal intervals, stored as one immutable
/// segment per interval: the interval's in-edges and its out-edges, each a
/// compressed sparse-row (CSR) table behind an `Arc`. Neighbour access is a
/// contiguous slice, one pointer hop past the interval — no per-node `Vec`s
/// on the solver hot paths. Cloning a graph copies `2m` pointers, and
/// [`ClusterGraph::append`] yields the next epoch's graph sharing every
/// segment the new interval does not touch.
///
/// A graph also keeps look-ahead tables its solves built, one per path
/// length of the whole graph and one of its last start window
/// (`GraphView::completions`): no method changes a graph, so one built for
/// it is never stale. A clone, an append and a fresh build start
/// with none, and each is a new graph value with an id of its own.
#[derive(Debug, Clone, Default)]
pub struct ClusterGraph {
    gap: u32,
    segments: Vec<IntervalSegment>,
    num_nodes: usize,
    num_edges: usize,
    /// The look-ahead tables solves of this graph built.
    pub(crate) memo: Memo,
    id: GraphId,
}

/// A graph value's process-unique name, which a fan-out's workers key the
/// graphs they were shipped by. A graph never changes once built, so one id
/// names one content; only an `Arc`-shared graph, or a shard thread's
/// [handle](ClusterGraph::handle) on one, is seen under one id twice.
#[derive(Debug)]
struct GraphId(u64);

impl Default for GraphId {
    /// A fresh id: every build, append and clone mints one.
    fn default() -> GraphId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        GraphId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for GraphId {
    /// A fresh id: a clone is a new graph, as its empty memo already says.
    fn clone(&self) -> GraphId {
        GraphId::default()
    }
}

impl ClusterGraph {
    /// The graph value's process-unique id (see [`GraphId`]).
    pub(crate) fn id(&self) -> u64 {
        self.id.0
    }

    /// A second handle on this graph value, which a shard thread owns while
    /// it solves windows of it: the same id and the same kept look-ahead
    /// tables, where a clone is a new graph with neither. Costs a clone's
    /// pointer copies.
    pub(crate) fn handle(&self) -> ClusterGraph {
        ClusterGraph {
            gap: self.gap,
            segments: self.segments.clone(),
            num_nodes: self.num_nodes,
            num_edges: self.num_edges,
            memo: self.memo.shared(),
            id: GraphId(self.id.0),
        }
    }

    /// Number of temporal intervals `m`.
    pub fn num_intervals(&self) -> usize {
        self.segments.len()
    }

    /// Maximum allowed gap `g`.
    pub fn gap(&self) -> u32 {
        self.gap
    }

    /// The longest admissible edge, `g + 1` intervals.
    pub fn max_edge_length(&self) -> u32 {
        max_edge_length(self.gap)
    }

    /// Number of nodes in interval `i`.
    pub fn nodes_in_interval(&self, interval: u32) -> u32 {
        self.segments
            .get(interval as usize)
            .map_or(0, |segment| segment.parents.num_nodes())
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The segment holding `node`.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    fn segment(&self, node: ClusterNodeId) -> &IntervalSegment {
        assert!(
            node.index < self.nodes_in_interval(node.interval),
            "node {node} out of range"
        );
        &self.segments[node.interval as usize]
    }

    /// Children (edges to later intervals) of `node`, in arrival order: a
    /// build's in `add_edge` order, a chain of appends' interval by
    /// interval, node by node, each node's parents as listed.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    pub fn children(&self, node: ClusterNodeId) -> &[ClusterEdge] {
        self.segment(node).children.row(node.index)
    }

    /// Parents (edges to earlier intervals) of `node`.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    pub fn parents(&self, node: ClusterNodeId) -> &[ClusterEdge] {
        self.segment(node).parents.row(node.index)
    }

    /// The length of the edge between two nodes: their interval difference.
    pub fn edge_length(from: ClusterNodeId, to: ClusterNodeId) -> u32 {
        to.interval.abs_diff(from.interval)
    }

    /// Iterate over every node id, interval by interval.
    pub fn node_ids(&self) -> impl Iterator<Item = ClusterNodeId> + '_ {
        (0..self.num_intervals() as u32).flat_map(|i| self.interval_node_ids(i))
    }

    /// Node ids of one interval.
    pub fn interval_node_ids(&self, interval: u32) -> impl Iterator<Item = ClusterNodeId> {
        let count = self.nodes_in_interval(interval);
        (0..count).map(move |j| ClusterNodeId::new(interval, j))
    }

    /// Iterate over every directed edge as `(from, to, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (ClusterNodeId, ClusterNodeId, f64)> + '_ {
        self.node_ids().flat_map(move |from| {
            self.children(from)
                .iter()
                .map(move |edge| (from, edge.to, edge.weight))
        })
    }

    /// The weight of the edge between two nodes, if it exists: the first to
    /// arrive of parallel edges.
    pub fn edge_weight(&self, from: ClusterNodeId, to: ClusterNodeId) -> Option<f64> {
        self.children(from)
            .iter()
            .find(|e| e.to == to)
            .map(|e| e.weight)
    }

    /// Number of child edges leaving each interval of `intervals` (element
    /// `i` counts the edges whose *from* node lies in interval
    /// `intervals.start + i`; intervals past the graph are not counted). The
    /// sharded solver weighs the windows it splits into ranges by these: the
    /// work of solving a temporal window is roughly proportional to the
    /// edges inside it.
    pub fn interval_out_edge_counts(&self, intervals: Range<u32>) -> Vec<u64> {
        let end = (intervals.end as usize).min(self.segments.len());
        let start = (intervals.start as usize).min(end);
        self.segments[start..end]
            .iter()
            .map(|segment| segment.children.edges.len() as u64)
            .collect()
    }

    /// The incoming edges of one interval's nodes, in the shape
    /// [`OnlineStableClusters::push_interval`] ingests: element `j` lists
    /// the `(earlier node, weight)` pairs of the interval's `j`-th node.
    /// This is the bridge from a batch graph to the streaming API — replay
    /// a graph by pushing `interval_parent_edges(t)` for `t = 0..m`.
    ///
    /// [`OnlineStableClusters::push_interval`]:
    ///     crate::streaming::OnlineStableClusters::push_interval
    pub fn interval_parent_edges(&self, interval: u32) -> Vec<Vec<(ClusterNodeId, f64)>> {
        self.interval_node_ids(interval)
            .map(|node| {
                self.parents(node)
                    .iter()
                    .map(|edge| (edge.to, edge.weight))
                    .collect()
            })
            .collect()
    }

    /// The graph with one more interval of `nodes` nodes, whose in-edges
    /// `edges` lists as `(earlier node, node index, weight)` in any order:
    /// the flat list a `push_interval` line carries ([`in_edges`] flattens
    /// the per-node shape [`ClusterGraph::interval_parent_edges`] returns).
    ///
    /// The result shares every segment of `self` the new interval leaves
    /// alone. Built fresh are only the new interval's in-edges and the
    /// out-edge tables of those of the `g + 1` preceding intervals that
    /// gained children: `O(m)` pointer copies plus the edges among the last
    /// `g + 2` intervals, whatever the length of the graph. `self` is not
    /// changed; whoever holds it keeps seeing its old out-edge lists.
    ///
    /// One pass checks and counts the list, a second sorts it by node into
    /// the in-edge rows (each node's parents in list order), and the new
    /// children are added from those rows node by node, behind the old
    /// ones: every row stays in arrival order, and nothing is sorted. So a
    /// chain of appends equals one [`ClusterGraphBuilder::build`] over the
    /// same edges in append order (interval by interval, node by node, each
    /// node's parents as listed) in every accessor, child order included.
    /// Weights are taken as they are and never renormalized: only `(0, 1]`
    /// is admitted.
    ///
    /// # Errors
    /// The first edge in list order that names a target past `nodes`, a
    /// parent outside the earlier intervals, one beyond the gap's `g + 1`
    /// preceding intervals, a parent that does not exist, or a weight
    /// outside `(0, 1]` — checked in that order — is answered in those
    /// words, and nothing is built. (This used to panic.)
    pub fn append(&self, nodes: u32, edges: &[InEdge]) -> Result<ClusterGraph, String> {
        let interval = self.num_intervals() as u32;
        // Only these earlier intervals can gain children.
        let first_parent = interval.saturating_sub(self.max_edge_length());
        let mut gained: Vec<Vec<usize>> = (first_parent..interval)
            .map(|p| vec![0; self.nodes_in_interval(p) as usize])
            .collect();
        let mut in_degrees = vec![0; nodes as usize];
        for &(parent, node, weight) in edges {
            // Read only once the parent is known to lie in `first_parent..interval`.
            let row = parent.interval.wrapping_sub(first_parent) as usize;
            let fault = if node >= nodes {
                format!("edge target {node} out of range (interval has {nodes} nodes)")
            } else if parent.interval >= interval {
                format!("parent {parent} must belong to an earlier interval")
            } else if parent.interval < first_parent {
                format!("edge from {parent} exceeds the gap {}", self.gap)
            } else if parent.index as usize >= gained[row].len() {
                format!("parent {parent} does not exist")
            } else if !(weight > 0.0 && weight <= 1.0) {
                "edge weights must lie in (0, 1]".to_string()
            } else {
                in_degrees[node as usize] += 1;
                gained[row][parent.index as usize] += 1;
                continue;
            };
            return Err(fault);
        }
        let mut incoming = AdjacencyFill::new(&in_degrees);
        for &(parent, node, weight) in edges {
            incoming.push(node, ClusterEdge { to: parent, weight });
        }
        let incoming = incoming.finish();

        // An earlier interval that gained children gets a new out-edge
        // table: its old rows first, the new interval's edges behind them,
        // node by node. Its gain is the new interval's in-edges of one span.
        let mut gains = Vec::with_capacity(gained.len());
        let mut regrown: Vec<Option<AdjacencyFill>> = gained
            .iter_mut()
            .zip(&self.segments[first_parent as usize..])
            .map(|(degrees, segment)| {
                gains.push(degrees.iter().sum());
                if gains.last() == Some(&0) {
                    return None;
                }
                let old = &segment.children;
                for (row, degree) in degrees.iter_mut().enumerate() {
                    *degree += old.row(row as u32).len();
                }
                let mut fill = AdjacencyFill::new(degrees);
                for row in 0..old.num_nodes() {
                    for &edge in old.row(row) {
                        fill.push(row, edge);
                    }
                }
                Some(fill)
            })
            .collect();
        for index in 0..nodes {
            let to = ClusterNodeId::new(interval, index);
            for &ClusterEdge { to: parent, weight } in incoming.row(index) {
                if let Some(fill) = &mut regrown[(parent.interval - first_parent) as usize] {
                    fill.push(parent.index, ClusterEdge { to, weight });
                }
            }
        }

        let mut segments = Vec::with_capacity(self.segments.len() + 1);
        segments.extend_from_slice(&self.segments);
        for (segment, fill) in segments[first_parent as usize..].iter_mut().zip(regrown) {
            if let Some(fill) = fill {
                segment.children = fill.finish();
            }
        }
        segments.push(IntervalSegment {
            parents: incoming,
            reach: reach((1..).zip(gains.into_iter().rev())),
            children: Arc::new(Adjacency::empty(nodes as usize)),
        });
        Ok(ClusterGraph {
            gap: self.gap,
            segments,
            num_nodes: self.num_nodes + nodes as usize,
            num_edges: self.num_edges + edges.len(),
            memo: self.memo.appended(),
            ..ClusterGraph::default()
        })
    }

    /// Whether `self` and `other` hold the *same* in-edge segment for
    /// `interval` — one allocation, not merely equal content. Segments are
    /// immutable, so `true` proves the interval's node count and in-edges
    /// are equal in both graphs; `false` says nothing either way (two
    /// separately built graphs share no segment however equal they are).
    /// [`ClusterGraph::append`] shares all but the new interval.
    pub fn shares_in_edges(&self, other: &ClusterGraph, interval: u32) -> bool {
        match (
            self.segments.get(interval as usize),
            other.segments.get(interval as usize),
        ) {
            (Some(mine), Some(theirs)) => Arc::ptr_eq(&mine.parents, &theirs.parents),
            _ => false,
        }
    }

    /// The whole graph as a [`GraphView`].
    pub fn view(&self) -> GraphView<'_> {
        GraphView {
            graph: self,
            first: 0,
            end: self.num_intervals() as u32,
        }
    }

    /// The temporal window `[start, end]` (inclusive) as a [`GraphView`]:
    /// nothing is copied, node ids stay those of this graph.
    ///
    /// # Panics
    /// Panics if `start > end` or `end` is outside the graph.
    pub fn window(&self, start: u32, end: u32) -> GraphView<'_> {
        assert!(start <= end, "window start {start} beyond end {end}");
        assert!(
            (end as usize) < self.num_intervals(),
            "window end {end} outside the graph ({} intervals)",
            self.num_intervals()
        );
        GraphView {
            graph: self,
            first: start,
            end: end + 1,
        }
    }
}

impl<'a> From<&'a ClusterGraph> for GraphView<'a> {
    fn from(graph: &'a ClusterGraph) -> Self {
        graph.view()
    }
}

/// A run of consecutive intervals of a [`ClusterGraph`], read in place: what
/// every solver takes for "the graph". Node ids are the graph's own and "the
/// first interval" is [`GraphView::first_interval`], not 0.
///
/// [`GraphView::parents`] and [`GraphView::children`] pass over the edges
/// whose other endpoint lies outside the view and keep the rest in the
/// graph's row order. (A window rebuilt as a graph of its own would list a
/// node's parents by source interval instead of as inserted; no `Solution`
/// can tell, the top-k under the strict `(score, content)` order being
/// independent of the order of offers.)
#[derive(Debug, Clone, Copy)]
pub struct GraphView<'a> {
    graph: &'a ClusterGraph,
    first: u32,
    /// One past the last interval.
    end: u32,
}

impl<'a> GraphView<'a> {
    /// The graph the view reads.
    pub fn graph(self) -> &'a ClusterGraph {
        self.graph
    }

    /// The view's first interval, in the graph's numbering.
    pub fn first_interval(self) -> u32 {
        self.first
    }

    /// The view's intervals, in the graph's numbering.
    pub fn intervals(self) -> Range<u32> {
        self.first..self.end
    }

    /// Number of temporal intervals `m` in the view.
    pub fn num_intervals(self) -> usize {
        self.intervals().len()
    }

    /// Maximum allowed gap `g`.
    pub fn gap(self) -> u32 {
        self.graph.gap
    }

    /// The longest admissible edge, `g + 1` intervals.
    pub fn max_edge_length(self) -> u32 {
        max_edge_length(self.graph.gap)
    }

    /// Number of nodes in interval `interval` (0 outside the view).
    pub fn nodes_in_interval(self, interval: u32) -> u32 {
        match self.intervals().contains(&interval) {
            true => self.graph.nodes_in_interval(interval),
            false => 0,
        }
    }

    /// Node ids of one interval (none outside the view).
    pub fn interval_node_ids(self, interval: u32) -> impl Iterator<Item = ClusterNodeId> {
        (0..self.nodes_in_interval(interval)).map(move |j| ClusterNodeId::new(interval, j))
    }

    /// Total number of nodes.
    pub fn num_nodes(self) -> usize {
        let nodes = |i| self.nodes_in_interval(i) as usize;
        self.intervals().map(nodes).sum()
    }

    /// Number of edges with both endpoints inside the view, read off each
    /// interval's in-edges counted by span: no edge is visited.
    pub fn num_edges(self) -> usize {
        let inside = |i: u32| {
            // An in-edge of the interval `depth` into the view starts inside
            // it if it spans at most `depth` intervals.
            let reach = &self.graph.segments[i as usize].reach;
            match reach.partition_point(|&(span, _)| span <= i - self.first) {
                0 => 0,
                kept => reach[kept - 1].1,
            }
        };
        self.intervals().map(inside).sum()
    }

    /// The edges of `row` whose other endpoint is inside the view.
    pub(crate) fn edges_within(
        self,
        row: &'a [ClusterEdge],
    ) -> impl Iterator<Item = &'a ClusterEdge> + Clone + 'a {
        let within = self.intervals();
        row.iter().filter(move |e| within.contains(&e.to.interval))
    }

    /// Children of `node` inside the view, in arrival order. Panics if the
    /// node is outside the graph.
    pub fn children(self, node: ClusterNodeId) -> impl Iterator<Item = &'a ClusterEdge> + Clone {
        self.edges_within(self.graph.children(node))
    }

    /// Parents of `node` inside the view, in insertion order. Panics if the
    /// node is outside the graph.
    pub fn parents(self, node: ClusterNodeId) -> impl Iterator<Item = &'a ClusterEdge> + Clone {
        self.edges_within(self.graph.parents(node))
    }

    /// Interval `interval`'s rows as stored, parents then children, for a
    /// pass over every node of it: unlike [`GraphView::parents`] and
    /// [`GraphView::children`] they check no node and keep the edges whose
    /// other end lies outside the view. Panics outside the graph.
    pub(crate) fn rows(self, interval: u32) -> (&'a Adjacency, &'a Adjacency) {
        let segment = &self.graph.segments[interval as usize];
        (&segment.parents, &segment.children)
    }
}

/// Builder for [`ClusterGraph`]: either assembled manually (synthetic
/// workloads) or derived from per-interval keyword clusters and an affinity
/// function.
#[derive(Debug, Clone)]
pub struct ClusterGraphBuilder {
    gap: u32,
    nodes_per_interval: Vec<u32>,
    edges: Vec<(ClusterNodeId, ClusterNodeId, f64)>,
}

impl ClusterGraphBuilder {
    /// Start a builder with the given maximum gap `g`.
    pub fn new(gap: u32) -> Self {
        ClusterGraphBuilder {
            gap,
            nodes_per_interval: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The longest admissible edge, `g + 1` intervals.
    pub fn max_edge_length(&self) -> u32 {
        max_edge_length(self.gap)
    }

    /// Append an interval with `num_nodes` cluster nodes; returns its index.
    pub fn add_interval(&mut self, num_nodes: u32) -> u32 {
        self.nodes_per_interval.push(num_nodes);
        (self.nodes_per_interval.len() - 1) as u32
    }

    /// Add an edge between two clusters of different intervals.
    ///
    /// # Panics
    /// Panics if the endpoints are out of range, not in increasing temporal
    /// order, further apart than `g + 1`, or if the weight is not positive.
    pub fn add_edge(&mut self, from: ClusterNodeId, to: ClusterNodeId, weight: f64) -> &mut Self {
        let (from, to) = if from.interval <= to.interval {
            (from, to)
        } else {
            (to, from)
        };
        assert!(
            from.interval < to.interval,
            "cluster-graph edges connect different intervals"
        );
        assert!(
            to.interval - from.interval <= self.max_edge_length(),
            "edge from {} to {} exceeds the maximum gap {}",
            from,
            to,
            self.gap
        );
        assert!(weight > 0.0, "edge weights must be positive");
        let check = |n: ClusterNodeId, counts: &[u32]| {
            // bsc:allow(panic-in-lib) -- documented add_edge contract: builder misuse panics; bound check short-circuits the index
            assert!(
                (n.interval as usize) < counts.len() && n.index < counts[n.interval as usize],
                "node {n} out of range"
            );
        };
        check(from, &self.nodes_per_interval);
        check(to, &self.nodes_per_interval);
        self.edges.push((from, to, weight));
        self
    }

    /// Finish building. Edge weights greater than one are normalized by the
    /// maximum weight so that all weights end up in `(0, 1]`, as the paper
    /// prescribes for unbounded affinity functions.
    ///
    /// Both adjacency directions (children *and* parents) of every
    /// interval's segment are filled in the same counting-sort pass over the
    /// edge list — no intermediate per-node `Vec`s and no cloning of one
    /// direction to seed the other.
    pub fn build(self) -> ClusterGraph {
        let max_weight = self.edges.iter().map(|&(_, _, w)| w).fold(0.0f64, f64::max);
        let scale = if max_weight > 1.0 { max_weight } else { 1.0 };

        // Degrees are counted over flat node indices (intervals laid out
        // consecutively), then cut into one table per interval.
        let interval_offsets = prefix_offsets(
            &self
                .nodes_per_interval
                .iter()
                .map(|&n| n as usize)
                .collect::<Vec<_>>(),
        );
        let num_nodes = interval_offsets.last().copied().unwrap_or(0);
        let flat = |n: ClusterNodeId| interval_offsets[n.interval as usize] + n.index as usize;
        let mut child_degree = vec![0usize; num_nodes];
        let mut parent_degree = vec![0usize; num_nodes];
        for &(from, to, _) in &self.edges {
            child_degree[flat(from)] += 1;
            parent_degree[flat(to)] += 1;
        }
        let fills = |degrees: &[usize]| -> Vec<AdjacencyFill> {
            interval_offsets
                .windows(2)
                .map(|interval| AdjacencyFill::new(&degrees[interval[0]..interval[1]]))
                .collect()
        };
        let mut children = fills(&child_degree);
        let mut parents = fills(&parent_degree);
        let num_edges = self.edges.len();
        for (from, to, weight) in self.edges {
            let weight = weight / scale;
            children[from.interval as usize].push(from.index, ClusterEdge { to, weight });
            parents[to.interval as usize].push(to.index, ClusterEdge { to: from, weight });
        }
        // `by_span[s - 1]`: the interval's in-edges spanning `s` intervals.
        let mut by_span = Vec::new();
        let segments = (0..)
            .zip(parents.into_iter().zip(children))
            .map(|(interval, (parents, children))| {
                let parents = parents.finish();
                by_span.clear();
                by_span.resize(interval.min(max_edge_length(self.gap)) as usize, 0);
                for edge in &parents.edges {
                    by_span[(interval - edge.to.interval - 1) as usize] += 1;
                }
                IntervalSegment {
                    reach: reach((1..).zip(by_span.iter().copied())),
                    parents,
                    children: children.finish(),
                }
            })
            .collect();
        ClusterGraph {
            gap: self.gap,
            num_nodes,
            num_edges,
            segments,
            ..ClusterGraph::default()
        }
    }

    /// Build the cluster graph from per-interval keyword clusters.
    ///
    /// For every pair of intervals `i < j ≤ i + g + 1` the affinity of every
    /// candidate cluster pair is evaluated and an edge added when it exceeds
    /// `theta`. Candidates are generated with an inverted index over
    /// keywords, the standard similarity-join technique the paper refers to —
    /// exact for every affinity function that is zero on disjoint keyword
    /// sets (all provided ones are).
    pub fn from_clusters(
        interval_clusters: &[Vec<KeywordCluster>],
        affinity: &dyn Affinity,
        gap: u32,
        theta: f64,
    ) -> ClusterGraph {
        let mut builder = ClusterGraphBuilder::new(gap);
        for clusters in interval_clusters {
            builder.add_interval(clusters.len() as u32);
        }
        let m = interval_clusters.len();
        for i in 0..m {
            let reach = (i + gap as usize + 2).min(m);
            for j in (i + 1)..reach {
                // Inverted index over the keywords of interval j's clusters,
                // as a sorted (keyword, cluster) postings slice: lookups are
                // binary-search ranges and iteration order is deterministic
                // by construction (no hash-map ordering involved).
                let mut postings: Vec<(u32, u32)> = interval_clusters[j]
                    .iter()
                    .enumerate()
                    .flat_map(|(cj, cluster)| {
                        cluster.keywords.iter().map(move |k| (k.0, cj as u32))
                    })
                    .collect();
                postings.sort_unstable();
                for (ci, cluster_i) in interval_clusters[i].iter().enumerate() {
                    let mut candidates: Vec<u32> = cluster_i
                        .keywords
                        .iter()
                        .flat_map(|k| {
                            let start = postings.partition_point(|&(kw, _)| kw < k.0);
                            postings[start..]
                                .iter()
                                .take_while(move |&&(kw, _)| kw == k.0)
                                .map(|&(_, cj)| cj)
                        })
                        .collect();
                    candidates.sort_unstable();
                    candidates.dedup();
                    for cj in candidates {
                        let cluster_j = &interval_clusters[j][cj as usize];
                        let value = affinity.affinity(cluster_i, cluster_j);
                        if value > theta {
                            builder.add_edge(
                                ClusterNodeId::new(i as u32, ci as u32),
                                ClusterNodeId::new(j as u32, cj),
                                value,
                            );
                        }
                    }
                }
            }
        }
        // `build` normalizes unbounded affinities into (0, 1] by the maximum
        // observed value (paper, footnote 1).
        builder.build()
    }
}

#[cfg(test)]
impl ClusterGraph {
    /// The lengths the graph keeps a look-ahead table for: the whole
    /// graph's in the order kept, then its last start window's.
    pub(crate) fn memoized(&self) -> Vec<u32> {
        self.memo.lengths()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::{IntersectionAffinity, JaccardAffinity};
    use crate::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
    use bsc_corpus::timeline::IntervalId;
    use bsc_corpus::vocabulary::KeywordId;

    fn node(interval: u32, index: u32) -> ClusterNodeId {
        ClusterNodeId::new(interval, index)
    }

    /// `graph.append` of an interval given node by node.
    fn append(graph: &ClusterGraph, parent_edges: &[Vec<(ClusterNodeId, f64)>]) -> ClusterGraph {
        let nodes = parent_edges.len() as u32;
        graph.append(nodes, &in_edges(parent_edges)).unwrap()
    }

    #[test]
    fn node_id_round_trips_through_u64() {
        let id = node(7, 123456);
        assert_eq!(ClusterNodeId::from_u64(id.to_u64()), id);
        assert_eq!(id.to_string(), "c7,123456");
    }

    #[test]
    fn builder_constructs_children_and_parents() {
        let mut builder = ClusterGraphBuilder::new(1);
        builder.add_interval(2);
        builder.add_interval(2);
        builder.add_interval(1);
        builder.add_edge(node(0, 0), node(1, 1), 0.5);
        builder.add_edge(node(0, 1), node(1, 0), 0.8);
        builder.add_edge(node(0, 0), node(2, 0), 0.3); // gap edge (length 2)
        builder.add_edge(node(1, 1), node(2, 0), 0.9);
        let graph = builder.build();
        assert_eq!(graph.num_intervals(), 3);
        assert_eq!(graph.num_nodes(), 5);
        assert_eq!(graph.num_edges(), 4);
        assert_eq!(graph.children(node(0, 0)).len(), 2);
        assert_eq!(graph.parents(node(2, 0)).len(), 2);
        assert_eq!(graph.edge_weight(node(0, 0), node(1, 1)), Some(0.5));
        assert_eq!(graph.edge_weight(node(0, 0), node(1, 0)), None);
        assert_eq!(ClusterGraph::edge_length(node(0, 0), node(2, 0)), 2);
    }

    #[test]
    fn children_keep_arrival_order() {
        let mut builder = ClusterGraphBuilder::new(0);
        builder.add_interval(1);
        builder.add_interval(3);
        builder.add_edge(node(0, 0), node(1, 0), 0.2);
        builder.add_edge(node(0, 0), node(1, 1), 0.9);
        builder.add_edge(node(0, 0), node(1, 2), 0.5);
        let weights = |graph: &ClusterGraph| -> Vec<f64> {
            let row = graph.children(node(0, 0));
            row.iter().map(|e| e.weight).collect()
        };
        assert_eq!(weights(&builder.build()), vec![0.2, 0.9, 0.5]);
        // The same edges as a chain of appends: one in-edge per new node.
        let one = append(&ClusterGraphBuilder::new(0).build(), &[vec![]]);
        let appended = append(
            &one,
            &[
                vec![(node(0, 0), 0.2)],
                vec![(node(0, 0), 0.9)],
                vec![(node(0, 0), 0.5)],
            ],
        );
        assert_eq!(weights(&appended), vec![0.2, 0.9, 0.5]);
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum gap")]
    fn edge_beyond_gap_rejected() {
        let mut builder = ClusterGraphBuilder::new(0);
        builder.add_interval(1);
        builder.add_interval(1);
        builder.add_interval(1);
        builder.add_edge(node(0, 0), node(2, 0), 0.5);
    }

    #[test]
    fn the_widest_gap_admits_every_span() {
        // `gap + 1` used to wrap to 0 here and reject every edge.
        let mut builder = ClusterGraphBuilder::new(u32::MAX);
        for _ in 0..3 {
            builder.add_interval(1);
        }
        assert_eq!(builder.max_edge_length(), u32::MAX);
        builder.add_edge(node(0, 0), node(2, 0), 0.5);
        let graph = append(&builder.build(), &[vec![(node(0, 0), 0.25)]]);
        assert_eq!(graph.max_edge_length(), u32::MAX);
        assert_eq!(graph.view().max_edge_length(), u32::MAX);
        assert_eq!(graph.children(node(0, 0)).len(), 2);
        assert_eq!(ClusterGraphBuilder::new(1).max_edge_length(), 2);
    }

    #[test]
    #[should_panic(expected = "different intervals")]
    fn intra_interval_edge_rejected() {
        let mut builder = ClusterGraphBuilder::new(0);
        builder.add_interval(2);
        builder.add_edge(node(0, 0), node(0, 1), 0.5);
    }

    #[test]
    fn weights_above_one_are_normalized() {
        let mut builder = ClusterGraphBuilder::new(0);
        builder.add_interval(1);
        builder.add_interval(1);
        builder.add_interval(1);
        builder.add_edge(node(0, 0), node(1, 0), 4.0);
        builder.add_edge(node(1, 0), node(2, 0), 2.0);
        let graph = builder.build();
        assert_eq!(graph.edge_weight(node(0, 0), node(1, 0)), Some(1.0));
        assert_eq!(graph.edge_weight(node(1, 0), node(2, 0)), Some(0.5));
    }

    fn keyword_cluster(interval: u32, id: u32, keywords: &[u32]) -> KeywordCluster {
        KeywordCluster::new(
            id,
            IntervalId(interval),
            keywords.iter().map(|&k| KeywordId(k)),
            vec![],
        )
    }

    #[test]
    fn from_clusters_builds_affinity_edges() {
        let intervals = vec![
            vec![
                keyword_cluster(0, 0, &[1, 2, 3]),
                keyword_cluster(0, 1, &[10, 11]),
            ],
            vec![
                keyword_cluster(1, 0, &[1, 2, 3, 4]), // strong overlap with (0,0)
                keyword_cluster(1, 1, &[20, 21]),     // no overlap
            ],
        ];
        let graph = ClusterGraphBuilder::from_clusters(&intervals, &JaccardAffinity, 0, 0.1);
        assert_eq!(graph.num_intervals(), 2);
        assert_eq!(graph.num_edges(), 1);
        let weight = graph
            .edge_weight(node(0, 0), node(1, 0))
            .expect("overlapping clusters connected");
        assert!((weight - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_clusters_respects_gap() {
        let intervals = vec![
            vec![keyword_cluster(0, 0, &[1, 2, 3])],
            vec![keyword_cluster(1, 0, &[50])],
            vec![keyword_cluster(2, 0, &[1, 2, 3])],
        ];
        let no_gap = ClusterGraphBuilder::from_clusters(&intervals, &JaccardAffinity, 0, 0.1);
        assert_eq!(no_gap.num_edges(), 0);
        let with_gap = ClusterGraphBuilder::from_clusters(&intervals, &JaccardAffinity, 1, 0.1);
        assert_eq!(with_gap.num_edges(), 1);
        assert!(with_gap.edge_weight(node(0, 0), node(2, 0)).is_some());
    }

    #[test]
    fn from_clusters_normalizes_intersection_affinity() {
        let intervals = vec![
            vec![
                keyword_cluster(0, 0, &[1, 2, 3, 4]),
                keyword_cluster(0, 1, &[1, 2]),
            ],
            vec![keyword_cluster(1, 0, &[1, 2, 3, 4])],
        ];
        let graph = ClusterGraphBuilder::from_clusters(&intervals, &IntersectionAffinity, 0, 0.5);
        // Raw affinities are 4 and 2; after normalization by the max they are
        // 1.0 and 0.5.
        assert_eq!(graph.edge_weight(node(0, 0), node(1, 0)), Some(1.0));
        assert_eq!(graph.edge_weight(node(0, 1), node(1, 0)), Some(0.5));
    }

    #[test]
    fn from_clusters_applies_theta() {
        let intervals = vec![
            vec![keyword_cluster(0, 0, &[1, 2, 3, 4, 5, 6, 7, 8, 9])],
            vec![keyword_cluster(
                1,
                0,
                &[9, 100, 101, 102, 103, 104, 105, 106, 107],
            )],
        ];
        // Jaccard = 1/17 ≈ 0.059 < 0.1 -> pruned.
        let graph = ClusterGraphBuilder::from_clusters(&intervals, &JaccardAffinity, 0, 0.1);
        assert_eq!(graph.num_edges(), 0);
    }

    #[test]
    fn a_window_view_keeps_inner_edges_in_place_and_passes_over_crossing_ones() {
        let mut builder = ClusterGraphBuilder::new(1);
        for n in [2, 2, 1, 2] {
            builder.add_interval(n);
        }
        builder.add_edge(node(0, 0), node(1, 1), 0.5);
        builder.add_edge(node(1, 0), node(2, 0), 0.25);
        builder.add_edge(node(1, 1), node(3, 0), 0.75); // leaves window [1, 2]
        builder.add_edge(node(2, 0), node(3, 1), 0.125);
        let graph = builder.build();

        let window = graph.window(1, 2);
        assert_eq!(window.first_interval(), 1);
        assert_eq!(window.intervals(), 1..3);
        assert_eq!(window.num_intervals(), 2);
        assert_eq!(window.nodes_in_interval(1), 2);
        assert_eq!(window.nodes_in_interval(2), 1);
        assert_eq!(window.nodes_in_interval(0), 0, "outside the view");
        assert_eq!(window.nodes_in_interval(3), 0, "outside the view");
        assert_eq!(window.num_nodes(), 3);
        assert_eq!(window.num_edges(), 1);
        assert_eq!(window.gap(), graph.gap());
        // The surviving edge keeps its node ids and is the graph's own edge.
        let inner: Vec<&ClusterEdge> = window.children(node(1, 0)).collect();
        assert_eq!(inner.len(), 1);
        assert!(std::ptr::eq(inner[0], &graph.children(node(1, 0))[0]));
        // Edges reaching outside the window are passed over, both ways.
        assert_eq!(window.children(node(1, 1)).count(), 0);
        assert_eq!(window.children(node(2, 0)).count(), 0);
        assert_eq!(window.parents(node(1, 1)).count(), 0);

        // The whole-graph view (and window) read as the graph does.
        for whole in [graph.view(), graph.window(0, 3), GraphView::from(&graph)] {
            assert_eq!(whole.num_nodes(), graph.num_nodes());
            assert_eq!(whole.num_edges(), graph.num_edges());
            assert_eq!(whole.intervals(), 0..4);
            for (from, to, w) in graph.edges() {
                assert!(whole.children(from).any(|e| e.to == to && e.weight == w));
                assert!(whole.parents(to).any(|e| e.to == from && e.weight == w));
            }
        }
    }

    #[test]
    fn a_view_counts_its_edges_without_reading_past_the_gap() {
        // gap 1: only the view's first two intervals can have parents
        // outside it; every count must still equal the brute-force one.
        let mut builder = ClusterGraphBuilder::new(1);
        for _ in 0..5 {
            builder.add_interval(2);
        }
        for i in 0..4 {
            builder.add_edge(node(i, 0), node(i + 1, 1), 0.5);
            builder.add_edge(node(i, 1), node(i + 1, 0), 0.25);
        }
        for i in 0..3 {
            builder.add_edge(node(i, 0), node(i + 2, 0), 0.75);
        }
        let graph = builder.build();
        for start in 0..5 {
            for end in start..5 {
                let inside = |&(from, to, _): &(ClusterNodeId, ClusterNodeId, f64)| {
                    from.interval >= start && to.interval <= end
                };
                assert_eq!(
                    graph.window(start, end).num_edges(),
                    graph.edges().filter(inside).count(),
                    "[{start}, {end}]"
                );
            }
        }
    }

    #[test]
    fn every_window_counts_its_edges_as_a_brute_force_count_does() {
        // Both places that count in-edges by span: a build, and appends of
        // flat lists in no particular order, with spans anywhere in the gap.
        let mut rng = bsc_util::DetRng::seed_from_u64(38);
        for gap in [0, 1, 2, 3, u32::MAX] {
            for seed in 0..3 {
                let built = ClusterGraphGenerator::new(SyntheticGraphParams {
                    num_intervals: 8,
                    nodes_per_interval: 4,
                    avg_out_degree: 2,
                    gap,
                    seed,
                })
                .generate();
                let mut appended = ClusterGraphBuilder::new(gap).build();
                for _ in 0..9 {
                    let interval = appended.num_intervals() as u32;
                    let nodes = rng.below(4) as u32;
                    let mut edges = Vec::new();
                    for parent in appended.node_ids() {
                        let span = interval - parent.interval;
                        if span <= appended.max_edge_length() && rng.chance(0.4) && nodes > 0 {
                            let node = rng.below(u64::from(nodes)) as u32;
                            edges.push((parent, node, 0.25 + rng.next_f64() / 2.0));
                        }
                    }
                    rng.shuffle(&mut edges);
                    appended = appended.append(nodes, &edges).unwrap();
                }
                for graph in [&built, &appended] {
                    let m = graph.num_intervals() as u32;
                    for start in 0..m {
                        for end in start..m {
                            let inside = graph
                                .edges()
                                .filter(|(from, to, _)| {
                                    from.interval >= start && to.interval <= end
                                })
                                .count();
                            let context = format!("gap={gap} seed={seed} [{start}, {end}]");
                            assert_eq!(graph.window(start, end).num_edges(), inside, "{context}");
                        }
                    }
                    assert!(graph.num_edges() > 0, "gap={gap} seed={seed}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the graph")]
    fn window_end_out_of_range_panics() {
        let mut builder = ClusterGraphBuilder::new(0);
        builder.add_interval(1);
        let graph = builder.build();
        let _ = graph.window(0, 1);
    }

    #[test]
    fn append_rejects_a_parent_in_the_appended_interval() {
        let graph = append(&ClusterGraphBuilder::new(0).build(), &[vec![]]);
        let edges = [(node(1, 0), 1, 0.5)];
        let rejected = graph.append(2, &edges).unwrap_err();
        assert_eq!(rejected, "parent c1,0 must belong to an earlier interval");
    }

    #[test]
    fn interval_out_edge_counts_follow_from_nodes() {
        let mut builder = ClusterGraphBuilder::new(1);
        for _ in 0..3 {
            builder.add_interval(2);
        }
        builder.add_edge(node(0, 0), node(1, 0), 0.5);
        builder.add_edge(node(0, 1), node(1, 1), 0.5);
        builder.add_edge(node(0, 0), node(2, 0), 0.5);
        builder.add_edge(node(1, 0), node(2, 1), 0.5);
        let graph = builder.build();
        assert_eq!(graph.interval_out_edge_counts(0..3), vec![3, 1, 0]);
        assert_eq!(graph.interval_out_edge_counts(1..9), vec![1, 0]);
    }

    #[test]
    fn node_iteration_orders_by_interval() {
        let mut builder = ClusterGraphBuilder::new(0);
        builder.add_interval(2);
        builder.add_interval(1);
        let graph = builder.build();
        let ids: Vec<ClusterNodeId> = graph.node_ids().collect();
        assert_eq!(ids, vec![node(0, 0), node(0, 1), node(1, 0)]);
        let interval1: Vec<ClusterNodeId> = graph.interval_node_ids(1).collect();
        assert_eq!(interval1, vec![node(1, 0)]);
    }

    #[test]
    fn a_clone_an_append_and_a_build_keep_no_look_ahead() {
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..5 {
            builder.add_interval(2);
        }
        for i in 1..5 {
            builder.add_edge(node(i - 1, 0), node(i, 0), 0.5);
            builder.add_edge(node(i - 1, 1), node(i, 1), 0.25);
        }
        let graph = builder.build();
        assert!(graph.memoized().is_empty());
        // A part of the graph builds a table of its own and keeps nothing.
        graph.window(1, 4).completions(2, None, &mut 0).unwrap();
        assert!(graph.memoized().is_empty());
        let kept = graph.view().completions(2, None, &mut 0).unwrap();
        graph.view().completions(3, None, &mut 0).unwrap();
        assert_eq!(graph.memoized(), [2, 3]);
        assert!(format!("{graph:?}").contains("memo: Memo(24 weights)"));
        // Once kept, the whole graph and every part of it read that table.
        for view in [graph.view(), graph.window(1, 4)] {
            let read = view.completions(2, None, &mut 0).unwrap();
            assert!(Arc::ptr_eq(&read, &kept));
        }
        assert!(graph.clone().memoized().is_empty());
        let next = append(&graph, &[vec![(node(4, 0), 0.5)]]);
        assert!(next.memoized().is_empty());
        assert_eq!(graph.memoized(), [2, 3]);
    }

    #[test]
    fn a_build_an_append_and_a_clone_are_each_a_graph_of_their_own() {
        let mut builder = ClusterGraphBuilder::new(0);
        builder.add_interval(1);
        builder.add_interval(1);
        builder.add_edge(node(0, 0), node(1, 0), 0.5);
        let built = builder.clone().build();
        let rebuilt = builder.build();
        let appended = append(&built, &[vec![(node(1, 0), 0.5)]]);
        let cloned = built.clone();
        let mut ids = vec![built.id(), rebuilt.id(), appended.id(), cloned.id()];
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "a build, a rebuild, an append and a clone");
        // A snapshot shares its graph: its clones name the same graph.
        let snapshot = crate::snapshot::GraphSnapshot::new(built);
        let pinned = snapshot.clone().with_epoch(7);
        assert_eq!(pinned.graph().id(), snapshot.graph().id());
        assert_ne!(
            snapshot.graph().as_ref().clone().id(),
            snapshot.graph().id()
        );
    }
}
