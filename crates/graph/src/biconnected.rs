//! Articulation points and biconnected components (Algorithm 1).
//!
//! The paper extracts keyword clusters as the biconnected components of the
//! pruned graph `G′`, found with the classic Hopcroft–Tarjan DFS: every node
//! gets a visitation number `un[u]` and a `low[u]` value (the smallest
//! visitation number reachable from the subtree of `u` through a back edge);
//! a non-root node `u` is an articulation point iff it has a child `w` with
//! `low[w] ≥ un[u]`, and the edges accumulated on a stack since `w` was
//! entered form one biconnected component.
//!
//! This implementation is **iterative** (the recursion of Algorithm 1 would
//! overflow the call stack on the multi-million-edge graphs of Table 1) and
//! keeps the edge stack in a [`bsc_storage::PagedStack`]. With
//! [`BiconnectedComponents::max_edges_in_memory`] set, the stack spills its
//! cold pages to a temporary log file (`StorageSpec::LogFile`) once it
//! outgrows that many entries — mirroring the paper's observation that the
//! in-memory state is "a stack with well defined access patterns" that "can
//! be efficiently paged to secondary storage".

use bsc_storage::paged_stack::PagedStack;
use bsc_storage::{Result as StorageResult, StorageSpec};

use crate::csr::{CsrGraph, EdgeIndex, NodeIndex};

/// Configuration of the biconnected-component computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct BiconnectedComponents {
    /// Maximum number of edge-stack entries kept in memory before spilling to
    /// disk. `None` keeps everything in memory.
    pub max_edges_in_memory: Option<usize>,
}

/// Result of the articulation-point / biconnected-component computation.
#[derive(Debug, Clone, Default)]
pub struct BiconnectedResult {
    /// Dense node indices that are articulation points.
    pub articulation_points: Vec<NodeIndex>,
    /// Each biconnected component as a list of edge ids.
    pub components: Vec<Vec<EdgeIndex>>,
}

impl BiconnectedResult {
    /// The vertex set of component `i` (sorted, deduplicated).
    pub fn component_vertices(&self, graph: &CsrGraph, i: usize) -> Vec<NodeIndex> {
        let mut v: Vec<NodeIndex> = self.components[i]
            .iter()
            .flat_map(|&e| {
                let (a, b, _) = graph.edge(e);
                [a, b]
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

struct Frame {
    node: NodeIndex,
    parent: NodeIndex,
    /// Edge id of the tree edge from `parent` to `node` (u32::MAX for roots).
    parent_edge: EdgeIndex,
    /// Cursor into the adjacency range of `node`.
    cursor: usize,
    /// End of the adjacency range of `node`.
    end: usize,
}

const NONE: u32 = u32::MAX;

impl BiconnectedComponents {
    /// Use at most `max_edges` in-memory edge-stack entries (the rest spills
    /// to disk).
    pub fn with_memory_limit(max_edges: usize) -> Self {
        BiconnectedComponents {
            max_edges_in_memory: Some(max_edges),
        }
    }

    /// Run the computation over a CSR graph.
    pub fn run(&self, graph: &CsrGraph) -> StorageResult<BiconnectedResult> {
        let n = graph.num_nodes();
        let mut disc = vec![0u32; n]; // 0 = unvisited; actual times start at 1
        let mut low = vec![0u32; n];
        let mut is_articulation = vec![false; n];
        let mut time = 0u32;
        let mut components: Vec<Vec<EdgeIndex>> = Vec::new();
        let mut edge_stack: PagedStack<EdgeIndex> = match self.max_edges_in_memory {
            Some(limit) => {
                PagedStack::new(limit, StorageSpec::LogFile.open_temp("bsc-pagedstack")?)
            }
            None => PagedStack::unbounded(),
        };

        // Adjacency ranges are recovered through the iterator API; we only
        // need a cursor per frame, so materialize each node's neighbour list
        // lazily into a shared scratch pad indexed by (cursor, end).
        let adjacency: Vec<(NodeIndex, EdgeIndex)> = graph
            .node_indices()
            .flat_map(|u| graph.neighbors(u).collect::<Vec<_>>())
            .collect();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for u in 0..n as NodeIndex {
            offsets.push(offsets[u as usize] + graph.degree(u));
        }

        for root in 0..n as NodeIndex {
            if disc[root as usize] != 0 {
                continue;
            }
            time += 1;
            disc[root as usize] = time;
            low[root as usize] = time;
            let mut root_children = 0usize;
            let mut stack: Vec<Frame> = vec![Frame {
                node: root,
                parent: NONE,
                parent_edge: NONE,
                cursor: offsets[root as usize],
                end: offsets[root as usize + 1],
            }];

            while let Some(frame) = stack.last_mut() {
                if frame.cursor < frame.end {
                    let (w, eid) = adjacency[frame.cursor];
                    frame.cursor += 1;
                    let u = frame.node;
                    if disc[w as usize] == 0 {
                        // Tree edge.
                        edge_stack.push(eid)?;
                        time += 1;
                        disc[w as usize] = time;
                        low[w as usize] = time;
                        if u == root {
                            root_children += 1;
                        }
                        stack.push(Frame {
                            node: w,
                            parent: u,
                            parent_edge: eid,
                            cursor: offsets[w as usize],
                            end: offsets[w as usize + 1],
                        });
                    } else if w != frame.parent && disc[w as usize] < disc[u as usize] {
                        // Back edge to an ancestor.
                        edge_stack.push(eid)?;
                        if disc[w as usize] < low[u as usize] {
                            low[u as usize] = disc[w as usize];
                        }
                    }
                } else {
                    // Node finished: propagate low to the parent and emit a
                    // component if the parent separates this subtree.
                    let Some(finished) = stack.pop() else { break };
                    if let Some(parent_frame) = stack.last_mut() {
                        let p = parent_frame.node;
                        let u = finished.node;
                        if low[u as usize] < low[p as usize] {
                            low[p as usize] = low[u as usize];
                        }
                        if low[u as usize] >= disc[p as usize] {
                            // p is an articulation point (for non-roots; the
                            // root is handled by the child count below), and
                            // the edges pushed since the tree edge (p, u) form
                            // one biconnected component.
                            if p != root {
                                is_articulation[p as usize] = true;
                            }
                            let mut component = Vec::new();
                            while let Some(edge) = edge_stack.pop()? {
                                component.push(edge);
                                if edge == finished.parent_edge {
                                    break;
                                }
                            }
                            if !component.is_empty() {
                                components.push(component);
                            }
                        }
                    }
                }
            }

            if root_children >= 2 {
                is_articulation[root as usize] = true;
            }
        }

        let articulation_points = (0..n as NodeIndex)
            .filter(|&u| is_articulation[u as usize])
            .collect();
        Ok(BiconnectedResult {
            articulation_points,
            components,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_corpus::vocabulary::KeywordId;
    use bsc_util::DetRng;
    use std::collections::HashSet;

    fn kw(id: u32) -> KeywordId {
        KeywordId(id)
    }

    fn graph_from(edges: &[(u32, u32)]) -> CsrGraph {
        CsrGraph::from_weighted_edges(edges.iter().map(|&(u, v)| (kw(u), kw(v), 1.0)))
    }

    fn keyword_sets(graph: &CsrGraph, result: &BiconnectedResult) -> Vec<Vec<u32>> {
        let mut sets: Vec<Vec<u32>> = result
            .components
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let mut v: Vec<u32> = result
                    .component_vertices(graph, i)
                    .into_iter()
                    .map(|n| graph.keyword(n).0)
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();
        sets.sort();
        sets
    }

    fn articulation_keywords(graph: &CsrGraph, result: &BiconnectedResult) -> Vec<u32> {
        let mut v: Vec<u32> = result
            .articulation_points
            .iter()
            .map(|&n| graph.keyword(n).0)
            .collect();
        v.sort_unstable();
        v
    }

    /// The paper's Figure 3 example: vertices a..g (1..7), with biconnected
    /// components {a,b,c}, {b,d}, {d,e,f}, {d,g} and articulation points b, d.
    /// Edges: a-b, b-c, c-a (triangle), b-d (bridge), d-e, e-f, f-d
    /// (triangle), d-g (bridge).
    fn figure3() -> CsrGraph {
        graph_from(&[
            (1, 2),
            (2, 3),
            (3, 1),
            (2, 4),
            (4, 5),
            (5, 6),
            (6, 4),
            (4, 7),
        ])
    }

    #[test]
    fn figure3_components_and_articulation_points() {
        let graph = figure3();
        let result = BiconnectedComponents::default().run(&graph).unwrap();
        let sets = keyword_sets(&graph, &result);
        assert_eq!(
            sets,
            vec![vec![1, 2, 3], vec![2, 4], vec![4, 5, 6], vec![4, 7]]
        );
        assert_eq!(articulation_keywords(&graph, &result), vec![2, 4]);
    }

    #[test]
    fn single_edge_is_one_component_no_articulation() {
        let graph = graph_from(&[(1, 2)]);
        let result = BiconnectedComponents::default().run(&graph).unwrap();
        assert_eq!(keyword_sets(&graph, &result), vec![vec![1, 2]]);
        assert!(result.articulation_points.is_empty());
    }

    #[test]
    fn cycle_is_a_single_component() {
        let graph = graph_from(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        let result = BiconnectedComponents::default().run(&graph).unwrap();
        assert_eq!(keyword_sets(&graph, &result), vec![vec![1, 2, 3, 4]]);
        assert!(result.articulation_points.is_empty());
    }

    #[test]
    fn path_produces_one_component_per_edge() {
        let graph = graph_from(&[(1, 2), (2, 3), (3, 4)]);
        let result = BiconnectedComponents::default().run(&graph).unwrap();
        assert_eq!(
            keyword_sets(&graph, &result),
            vec![vec![1, 2], vec![2, 3], vec![3, 4]]
        );
        assert_eq!(articulation_keywords(&graph, &result), vec![2, 3]);
    }

    #[test]
    fn star_center_is_articulation_point() {
        let graph = graph_from(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let result = BiconnectedComponents::default().run(&graph).unwrap();
        assert_eq!(result.components.len(), 4);
        assert_eq!(articulation_keywords(&graph, &result), vec![0]);
    }

    #[test]
    fn disconnected_graph_handled_per_component() {
        let graph = graph_from(&[(1, 2), (2, 3), (3, 1), (10, 11), (11, 12)]);
        let result = BiconnectedComponents::default().run(&graph).unwrap();
        let sets = keyword_sets(&graph, &result);
        assert_eq!(sets, vec![vec![1, 2, 3], vec![10, 11], vec![11, 12]]);
        assert_eq!(articulation_keywords(&graph, &result), vec![11]);
    }

    #[test]
    fn empty_graph() {
        let graph = graph_from(&[]);
        let result = BiconnectedComponents::default().run(&graph).unwrap();
        assert!(result.components.is_empty());
        assert!(result.articulation_points.is_empty());
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        let graph = graph_from(&[(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)]);
        let result = BiconnectedComponents::default().run(&graph).unwrap();
        assert_eq!(
            keyword_sets(&graph, &result),
            vec![vec![1, 2, 3], vec![3, 4, 5]]
        );
        assert_eq!(articulation_keywords(&graph, &result), vec![3]);
    }

    #[test]
    fn spilled_edge_stack_matches_in_memory() {
        let edges: Vec<(u32, u32)> = (0..200)
            .flat_map(|i| vec![(i, i + 1), (i, i + 2)])
            .collect();
        let graph = graph_from(&edges);
        let in_memory = BiconnectedComponents::default().run(&graph).unwrap();
        let spilled = BiconnectedComponents::with_memory_limit(8)
            .run(&graph)
            .unwrap();
        assert_eq!(
            keyword_sets(&graph, &in_memory),
            keyword_sets(&graph, &spilled)
        );
        assert_eq!(
            articulation_keywords(&graph, &in_memory),
            articulation_keywords(&graph, &spilled)
        );
    }

    #[test]
    fn every_edge_in_exactly_one_component() {
        let graph = figure3();
        let result = BiconnectedComponents::default().run(&graph).unwrap();
        let mut seen = HashSet::new();
        let mut total = 0usize;
        for component in &result.components {
            for &edge in component {
                assert!(seen.insert(edge), "edge {edge} appears twice");
                total += 1;
            }
        }
        assert_eq!(total, graph.num_edges());
    }

    /// Naive articulation-point oracle: a vertex is an articulation point iff
    /// removing it increases the number of connected components among the
    /// remaining vertices of its original component.
    fn naive_articulation_points(edges: &[(u32, u32)]) -> Vec<u32> {
        use std::collections::{HashMap, HashSet};
        let mut adj: HashMap<u32, HashSet<u32>> = HashMap::new();
        let mut vertices: HashSet<u32> = HashSet::new();
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            adj.entry(u).or_default().insert(v);
            adj.entry(v).or_default().insert(u);
            vertices.insert(u);
            vertices.insert(v);
        }
        let count_components = |skip: Option<u32>| -> usize {
            let mut visited: HashSet<u32> = HashSet::new();
            let mut components = 0;
            for &start in &vertices {
                if Some(start) == skip || visited.contains(&start) {
                    continue;
                }
                components += 1;
                let mut queue = vec![start];
                visited.insert(start);
                while let Some(u) = queue.pop() {
                    if let Some(neighbours) = adj.get(&u) {
                        for &w in neighbours {
                            if Some(w) == skip || visited.contains(&w) {
                                continue;
                            }
                            visited.insert(w);
                            queue.push(w);
                        }
                    }
                }
            }
            components
        };
        let base = count_components(None);
        let mut result: Vec<u32> = vertices
            .iter()
            .copied()
            .filter(|&v| count_components(Some(v)) > base)
            .collect();
        result.sort_unstable();
        result
    }

    /// Draw a random simple undirected graph as a deduplicated edge list
    /// over `universe` vertices.
    fn random_edges(rng: &mut DetRng, universe: u32, max_edges: usize) -> Vec<(u32, u32)> {
        let n = 1 + rng.index(max_edges);
        (0..n)
            .map(|_| {
                (
                    rng.below(universe as u64) as u32,
                    rng.below(universe as u64) as u32,
                )
            })
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect::<HashSet<_>>()
            .into_iter()
            .collect()
    }

    #[test]
    fn randomized_articulation_points_match_naive_oracle() {
        let mut rng = DetRng::seed_from_u64(600);
        for _ in 0..64 {
            let edges = random_edges(&mut rng, 12, 40);
            if edges.is_empty() {
                continue;
            }
            let graph = graph_from(&edges);
            let result = BiconnectedComponents::default().run(&graph).unwrap();
            assert_eq!(
                articulation_keywords(&graph, &result),
                naive_articulation_points(&edges)
            );
        }
    }

    #[test]
    fn randomized_components_partition_edges() {
        let mut rng = DetRng::seed_from_u64(601);
        for _ in 0..64 {
            let edges = random_edges(&mut rng, 15, 60);
            if edges.is_empty() {
                continue;
            }
            let graph = graph_from(&edges);
            let result = BiconnectedComponents::default().run(&graph).unwrap();
            let mut seen = HashSet::new();
            for component in &result.components {
                for &edge in component {
                    assert!(seen.insert(edge));
                }
            }
            assert_eq!(seen.len(), graph.num_edges());
        }
    }
}
