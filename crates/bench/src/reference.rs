//! Seed-faithful BFS kept as an **ablation baseline**.
//!
//! This is the pre-optimization hot loop of Algorithm 2 — `ClusterPath`
//! vectors cloned on every heap offer and a `HashMap` sliding window —
//! preserved verbatim so the `repro table3` ablation can measure what the
//! flat heap tables, the per-interval window and the worst-score fast path
//! buy on identical inputs. It is *not* part of the production API: use
//! [`bsc_core::bfs::BfsStableClusters`] for real work.

use std::collections::HashMap;

use bsc_core::cluster_graph::{ClusterGraph, ClusterNodeId};
use bsc_core::path::ClusterPath;
use bsc_core::problem::KlStableParams;
use bsc_core::topk::TopKPaths;

/// Run the seed-style clone-based BFS: top-k paths of length exactly
/// `params.l`, descending weight order. Matches the optimized solver's
/// output exactly (asserted by this crate's tests).
pub fn seed_style_bfs(params: KlStableParams, graph: &ClusterGraph) -> Vec<ClusterPath> {
    let k = params.k;
    let l = params.l;
    if k == 0 || l == 0 || graph.num_intervals() < 2 {
        return Vec::new();
    }
    let mut global = TopKPaths::new(k);
    let gap = graph.gap();
    let m = graph.num_intervals() as u32;
    let full_mode = l == m - 1;

    let mut window: HashMap<ClusterNodeId, Vec<TopKPaths>> = HashMap::new();
    for interval in 0..m {
        let mut interval_heaps: Vec<(ClusterNodeId, Vec<TopKPaths>)> = Vec::new();
        for node in graph.interval_node_ids(interval) {
            let max_len = l.min(interval) as usize;
            let mut heaps: Vec<TopKPaths> = (0..max_len).map(|_| TopKPaths::new(k)).collect();
            for parent_edge in graph.parents(node) {
                let parent = parent_edge.to;
                let weight = parent_edge.weight;
                let len = ClusterGraph::edge_length(parent, node);
                if len > l {
                    continue;
                }
                if !full_mode || len == interval {
                    let edge_path = ClusterPath::singleton(parent).extend(node, weight);
                    if len == l {
                        global.offer_by_weight(edge_path.clone());
                    }
                    heaps[len as usize - 1].offer_by_weight(edge_path);
                }
                let Some(parent_heaps) = window.get(&parent) else {
                    continue;
                };
                let mut extensions: Vec<(u32, ClusterPath)> = Vec::new();
                for (x_minus_1, heap) in parent_heaps.iter().enumerate() {
                    let total = x_minus_1 as u32 + 1 + len;
                    if total > l {
                        break;
                    }
                    if full_mode && total != interval {
                        continue;
                    }
                    for prefix in heap.iter() {
                        extensions.push((total, prefix.extend(node, weight)));
                    }
                }
                for (total, extended) in extensions {
                    if total == l {
                        global.offer_by_weight(extended.clone());
                    }
                    heaps[total as usize - 1].offer_by_weight(extended);
                }
            }
            interval_heaps.push((node, heaps));
        }
        for (node, heaps) in interval_heaps {
            window.insert(node, heaps);
        }
        if interval > gap {
            let evict_interval = interval - gap - 1;
            let to_evict: Vec<ClusterNodeId> = graph.interval_node_ids(evict_interval).collect();
            for node in to_evict {
                window.remove(&node);
            }
        }
    }
    global.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_core::bfs::BfsStableClusters;
    use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

    #[test]
    fn reference_matches_optimized_solver() {
        for seed in 0..3 {
            let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
                num_intervals: 6,
                nodes_per_interval: 15,
                avg_out_degree: 3,
                gap: 1,
                seed: 500 + seed,
            })
            .generate();
            for l in [2, 3, 5] {
                let params = KlStableParams::new(4, l);
                let reference = seed_style_bfs(params, &graph);
                let optimized = BfsStableClusters::new(params).run(&graph).unwrap();
                assert_eq!(reference, optimized, "seed={seed} l={l}");
            }
        }
    }
}
