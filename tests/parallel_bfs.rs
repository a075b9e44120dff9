//! Parallel BFS conformance: the scoped-thread interval sweep must produce
//! results identical to the sequential solver for every thread count, on
//! synthetic graphs of varying shape (m, n, d, g), and must be deterministic
//! across repeated runs.

use blogstable::core::bfs::{BfsConfig, BfsStableClusters};
use blogstable::core::pipeline::{Pipeline, PipelineParams};
use blogstable::core::problem::{KlStableParams, StableClusterSpec};
use blogstable::core::solver::{AlgorithmKind, SolverOptions};
use blogstable::core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
use blogstable::core::ClusterGraph;

fn generate(m: usize, n: u32, d: u32, g: u32, seed: u64) -> ClusterGraph {
    ClusterGraphGenerator::new(SyntheticGraphParams {
        num_intervals: m,
        nodes_per_interval: n,
        avg_out_degree: d,
        gap: g,
        seed,
    })
    .generate()
}

/// Graph shapes covering the paper's parameter axes: interval count m,
/// nodes per interval n, out-degree d and gap g.
fn shapes() -> Vec<(usize, u32, u32, u32)> {
    vec![
        (4, 10, 2, 0),
        (6, 25, 4, 1),
        (5, 40, 5, 2),
        (8, 15, 3, 1),
        (10, 8, 2, 0),
    ]
}

#[test]
fn parallel_equals_sequential_for_all_thread_counts() {
    for (shape_index, (m, n, d, g)) in shapes().into_iter().enumerate() {
        let graph = generate(m, n, d, g, 9_000 + shape_index as u64);
        let full_l = (m - 1) as u32;
        for l in [1, full_l / 2, full_l] {
            if l == 0 {
                continue;
            }
            let params = KlStableParams::new(5, l);
            let (seq_paths, seq_stats) = BfsStableClusters::new(params)
                .run_with_stats(&graph)
                .expect("sequential run");
            for threads in [1usize, 2, 8] {
                let (par_paths, par_stats) = BfsStableClusters::with_config(
                    params,
                    BfsConfig::default().with_threads(threads),
                )
                .run_with_stats(&graph)
                .expect("parallel run");
                // Identical paths: node sequences AND bit-identical weights
                // (ClusterPath's PartialEq compares both).
                assert_eq!(
                    seq_paths, par_paths,
                    "m={m} n={n} d={d} g={g} l={l} threads={threads}"
                );
                // Stats are counted before the admission fast path, so they
                // are thread-count independent too.
                assert_eq!(
                    seq_stats.paths_generated, par_stats.paths_generated,
                    "m={m} n={n} d={d} g={g} l={l} threads={threads}"
                );
                assert_eq!(seq_stats.nodes_processed, par_stats.nodes_processed);
                assert_eq!(par_stats.threads_used, threads);
            }
        }
    }
}

/// The env-pinned configuration: `BSC_THREADS` (and `BSC_SHARDS` for the
/// sharded sibling suite) are set by the CI matrix so determinism cannot
/// regress behind the single-thread default. Unset, the test pins 4 threads.
#[test]
fn env_pinned_thread_count_matches_sequential() {
    let threads: usize = match std::env::var("BSC_THREADS") {
        Ok(value) => value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable BSC_THREADS: {value:?}")),
        Err(_) => 4,
    };
    let graph = generate(6, 30, 4, 1, 321);
    let params = KlStableParams::new(5, 3);
    let (seq_paths, _) = BfsStableClusters::new(params)
        .run_with_stats(&graph)
        .expect("sequential run");
    let (par_paths, par_stats) =
        BfsStableClusters::with_config(params, BfsConfig::default().with_threads(threads))
            .run_with_stats(&graph)
            .expect("env-pinned run");
    assert_eq!(seq_paths, par_paths, "threads={threads}");
    assert_eq!(par_stats.threads_used, threads);
}

#[test]
fn parallel_runs_are_deterministic() {
    let graph = generate(7, 30, 4, 1, 123);
    let params = KlStableParams::new(6, 4);
    let config = BfsConfig::default().with_threads(8);
    let (first, first_stats) = BfsStableClusters::with_config(params, config)
        .run_with_stats(&graph)
        .expect("first run");
    let (second, second_stats) = BfsStableClusters::with_config(params, config)
        .run_with_stats(&graph)
        .expect("second run");
    assert_eq!(first, second, "two identical runs must agree byte-for-byte");
    assert_eq!(first_stats, second_stats);
}

#[test]
fn threads_flow_through_the_solver_trait_and_pipeline() {
    let graph = generate(5, 20, 3, 1, 77);
    let spec = StableClusterSpec::FullPaths;
    let mut seq = AlgorithmKind::Bfs
        .build(spec, 4, graph.num_intervals())
        .expect("sequential build");
    let mut par = AlgorithmKind::Bfs
        .build_with_options(
            spec,
            4,
            graph.num_intervals(),
            SolverOptions::default().threads(8),
        )
        .expect("parallel build");
    let seq_solution = seq.solve(&graph).expect("sequential solve");
    let par_solution = par.solve(&graph).expect("parallel solve");
    assert_eq!(seq_solution.paths, par_solution.paths);
    assert_eq!(seq_solution.stats.threads, 1);
    assert_eq!(par_solution.stats.threads, 8);

    // PipelineParams::threads is validated and produces identical output.
    assert!(Pipeline::new(PipelineParams::default().threads(0)).is_err());
    let one = Pipeline::new(PipelineParams::default().exact_length(2).threads(1))
        .expect("threads(1) is valid");
    let eight = Pipeline::new(PipelineParams::default().exact_length(2).threads(8))
        .expect("threads(8) is valid");
    let corpus = blogstable::corpus::synthetic::SyntheticBlogosphere::new(
        blogstable::corpus::synthetic::SyntheticConfig::small(),
    )
    .generate();
    let a = one.run(&corpus).expect("pipeline threads=1");
    let b = eight.run(&corpus).expect("pipeline threads=8");
    assert_eq!(a.stable_paths, b.stable_paths);
    assert_eq!(b.solver_stats.threads, 8);
}
