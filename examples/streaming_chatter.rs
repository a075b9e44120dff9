//! Online (streaming) stable-cluster tracking — Section 4.6.
//!
//! Blog posts arrive day by day; instead of recomputing everything, the
//! online solver ingests the new day's clusters, computes affinity edges to
//! the recent days it still remembers, and updates the global top-k. This
//! example feeds the scripted week one day at a time and prints how the best
//! stable cluster evolves.
//!
//! ```text
//! cargo run --release --example streaming_chatter
//! ```

use blogstable::core::affinity::JaccardAffinity;
use blogstable::core::problem::KlStableParams;
use blogstable::core::streaming::OnlineClusterFeed;
use blogstable::corpus::pairs::PairCounter;
use blogstable::graph::cluster::ClusterExtractor;
use blogstable::graph::keyword_graph::KeywordGraphBuilder;
use blogstable::graph::prune::PruneConfig;
use blogstable::prelude::*;

fn main() {
    let corpus = SyntheticBlogosphere::new(SyntheticConfig::small()).generate();

    // Track the best paths of length 3 with gaps up to 2 days.
    let mut feed =
        OnlineClusterFeed::new(KlStableParams::new(5, 3), 2, Box::new(JaccardAffinity), 0.1);

    let counter = PairCounter::in_memory();
    let prune = PruneConfig::paper().with_min_pair_count(3);
    let extractor = ClusterExtractor::default();

    for (interval, documents) in corpus.timeline.iter() {
        // Per-day cluster generation (Section 3) ...
        let counts = counter.count(documents).expect("pair counting");
        let keyword_graph = KeywordGraphBuilder::from_pair_counts(&counts);
        let (pruned, _) = prune.prune(&keyword_graph);
        let clusters = extractor.extract(&pruned, interval).expect("extraction");
        println!(
            "{}: ingesting {} clusters",
            corpus.timeline.label(interval),
            clusters.len()
        );

        // ... streamed into the online stable-cluster tracker (Section 4.6).
        feed.push_clusters(clusters);

        let top = feed.current_top_k().expect("stream answer");
        match top.first() {
            Some(best) => {
                let first = best.first();
                let last = best.last();
                println!(
                    "    best stable cluster so far: weight {:.2}, t{} -> t{}",
                    best.weight(),
                    first.interval,
                    last.interval
                );
            }
            None => println!("    no stable cluster of length 3 yet"),
        }
    }

    println!(
        "\ningested {} intervals, {} affinity edges in total",
        feed.solver().num_intervals(),
        feed.solver().edges_ingested()
    );
}
