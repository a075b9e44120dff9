//! The long-lived query engine: one resident graph, many queries, epochs.
//!
//! ```text
//! cargo run --release --example query_service
//! ```
//!
//! Builds a synthetic "blogosphere week" once, installs its cluster graph
//! into a [`QueryEngine`], and serves a burst of mixed-algorithm queries
//! from the shared snapshot — then streams two more days in, publishing new
//! epochs while queries keep flowing. Every engine answer is checked
//! against the one-shot solve of the same request (the example exits
//! nonzero on any mismatch, so CI can run it as a smoke test). See
//! `docs/service.md` for the protocol the `bsc serve` binary wraps around
//! this engine.

use blogstable::core::problem::StableClusterSpec;
use blogstable::core::solver::AlgorithmKind;
use blogstable::prelude::*;

fn check(expected: &[ClusterPath], got: &[ClusterPath], context: &str) {
    let identical = expected.len() == got.len()
        && expected
            .iter()
            .zip(got.iter())
            .all(|(a, b)| a.nodes() == b.nodes() && a.weight().to_bits() == b.weight().to_bits());
    if !identical {
        eprintln!("MISMATCH: {context}: engine answer differs from the one-shot solve");
        std::process::exit(1);
    }
}

fn main() {
    // One pipeline run builds the graph; the snapshot is the sharing unit.
    let corpus = SyntheticBlogosphere::new(SyntheticConfig::small()).generate();
    let pipeline = Pipeline::new(PipelineParams::default().exact_length(2)).expect("valid params");
    let build = pipeline
        .build_snapshot(&corpus.timeline)
        .expect("graph construction");
    println!(
        "built the cluster graph once: {} nodes, {} edges over {} intervals",
        build.snapshot.num_nodes(),
        build.snapshot.num_edges(),
        build.snapshot.num_intervals(),
    );

    let engine = QueryEngine::new(EngineConfig::default().workers(2)).expect("engine starts");
    let installed = engine.install(build.snapshot.clone());
    println!("installed as epoch {}\n", installed.epoch());

    // A burst of mixed queries against the shared snapshot. The second BFS
    // query is identical to the first — watch the cache counters.
    let queries: Vec<(&str, QueryRequest)> = vec![
        (
            "top-5 BFS, length 2",
            QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 5),
        ),
        (
            "top-5 BFS, length 2 (repeat — cache hit)",
            QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 5),
        ),
        (
            "top-5 DFS, length 2, in-memory backend",
            QueryRequest::new(AlgorithmKind::Dfs, StableClusterSpec::ExactLength(2), 5)
                .options(SolverOptions::default().storage(StorageSpec::Memory)),
        ),
        (
            "top-3 TA, full week",
            QueryRequest::new(AlgorithmKind::Ta, StableClusterSpec::FullPaths, 3),
        ),
        (
            "top-5 sharded BFS (3 shards)",
            QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 5)
                .options(SolverOptions::default().shards(3)),
        ),
        (
            "top-4 auto-selected, length 3",
            QueryRequest::new(
                AlgorithmKind::Auto { budget_bytes: None },
                StableClusterSpec::ExactLength(3),
                4,
            ),
        ),
    ];
    for (label, request) in queries {
        let response = engine.query(request.clone()).expect("engine query");
        // The one-shot reference: build the same solver, solve directly.
        let mut reference = request
            .algorithm
            .build_with_options(
                request.spec,
                request.k,
                build.snapshot.num_intervals(),
                request.options,
            )
            .expect("reference solver");
        let expected = reference.solve(build.snapshot.graph()).expect("solve");
        check(&expected.paths, &response.solution.paths, label);
        println!(
            "{label}\n  -> {} paths, epoch {}, cached: {}, queue wait {} us, solve {} us",
            response.solution.paths.len(),
            response.epoch,
            response.cached,
            response.queue_wait_micros,
            response.solve_micros,
        );
        if let Some(best) = response.solution.paths.first() {
            let described: Vec<String> = best
                .nodes()
                .iter()
                .map(|n| {
                    let cluster = &build.interval_clusters[n.interval as usize][n.index as usize];
                    let rendered = cluster.render(&corpus.vocabulary);
                    let truncated: String = rendered.chars().take(48).collect();
                    let suffix = if rendered.chars().count() > 48 {
                        "…"
                    } else {
                        ""
                    };
                    format!("t{}: {truncated}{suffix}", n.interval)
                })
                .collect();
            println!("     best: {}", described.join(" => "));
        }
    }

    // Stream two more days in: each push publishes a new epoch; queries
    // after the swap see the grown graph, and the cache never leaks the old
    // epoch's answers.
    println!("\nstreaming two more days in...");
    let params = KlStableParams::new(5, 2);
    let mut online = OnlineStableClusters::new(params, build.snapshot.gap());
    for interval in 0..build.snapshot.num_intervals() as u32 {
        online.push_interval(build.snapshot.interval_parent_edges(interval));
    }
    // Two synthetic future days, wired to the last day's clusters.
    for day in 0..2 {
        let last = online.num_intervals() as u32 - 1;
        let nodes = 4u32;
        let parent_edges: Vec<Vec<(ClusterNodeId, f64)>> = (0..nodes)
            .map(|j| vec![(ClusterNodeId::new(last, j % 3), 0.6 + 0.1 * f64::from(j))])
            .collect();
        online.push_interval(parent_edges);
        let installed = engine.install(online.snapshot());
        let response = engine
            .query(QueryRequest::new(
                AlgorithmKind::Bfs,
                StableClusterSpec::ExactLength(2),
                5,
            ))
            .expect("post-swap query");
        let snapshot = engine.snapshot_cell().load();
        let mut reference = AlgorithmKind::Bfs
            .build(
                StableClusterSpec::ExactLength(2),
                5,
                snapshot.num_intervals(),
            )
            .expect("reference solver");
        let expected = reference.solve(snapshot.graph()).expect("solve");
        check(&expected.paths, &response.solution.paths, "post-swap query");
        println!(
            "  day +{}: epoch {} ({} intervals), fresh top path weight {:.3}",
            day + 1,
            installed.epoch(),
            snapshot.num_intervals(),
            response
                .solution
                .paths
                .first()
                .map(ClusterPath::weight)
                .unwrap_or(0.0),
        );
    }

    let stats = engine.stats();
    println!(
        "\nengine stats: {} queries ({} errors), cache {}/{} entries, {} hits / {} misses, \
         {} invalidated on swap",
        stats.queries,
        stats.errors,
        stats.cache.entries,
        stats.cache.capacity,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.invalidations,
    );
    println!("  queue wait: {}", stats.queue_wait.summary());
    println!("  solve:      {}", stats.solve.summary());
    println!("\nall engine answers byte-identical to the one-shot solves");
}
