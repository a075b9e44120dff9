//! Problem 2 bench (Figure 14): normalized stable clusters as the number of
//! intervals and the minimum length grow, plus the streaming (online)
//! ingestion path of Section 4.6.

use std::hint::black_box;

use bsc_bench::harness::Bench;
use bsc_bench::workloads::cluster_graph;
use bsc_core::normalized::NormalizedStableClusters;
use bsc_core::problem::{KlStableParams, NormalizedParams};
use bsc_core::streaming::OnlineStableClusters;

fn main() {
    let mut bench = Bench::new("fig14_normalized");
    for m in [4usize, 6, 8] {
        let graph = cluster_graph(m, 100, 3, 0, 7);
        for lmin in [2u32, 3] {
            bench.case(format!("m{m}_lmin{lmin}"), || {
                NormalizedStableClusters::new(NormalizedParams::new(5, lmin))
                    .run(black_box(&graph))
                    .unwrap()
            });
        }
    }

    let mut bench = Bench::new("streaming_online_ingest");
    let graph = cluster_graph(12, 200, 5, 1, 7);
    bench.case("replay_12_intervals", || {
        OnlineStableClusters::replay(KlStableParams::new(5, 3), black_box(&graph))
            .current_top_k()
            .unwrap()
    });
}
