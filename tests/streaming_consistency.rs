//! Streaming/batch consistency: `OnlineStableClusters::replay` must report
//! the same top-k as the batch BFS solve over the same [`ClusterGraph`] —
//! node sequences and `f64` weight bits, not just approximate weights
//! (previously only a weight-tolerance check existed, inside the unit
//! suite). Also covers the replayed stream's `snapshot()`: solving the
//! materialized graph batch-style must reproduce the stream's own answer.

use blogstable::core::problem::StableClusterSpec;
use blogstable::core::solver::AlgorithmKind;
use blogstable::core::ClusterGraph;
use blogstable::prelude::*;

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

fn assert_identical(expected: &[ClusterPath], got: &[ClusterPath], context: &str) {
    assert_eq!(expected.len(), got.len(), "{context}: result counts differ");
    for (a, b) in expected.iter().zip(got.iter()) {
        assert_eq!(a.nodes(), b.nodes(), "{context}: node sequences differ");
        assert_eq!(
            a.weight().to_bits(),
            b.weight().to_bits(),
            "{context}: weights must be byte-identical"
        );
    }
}

#[test]
fn replay_top_k_equals_the_batch_bfs_solve() {
    for seed in 0..4u64 {
        for gap in [0u32, 1, 2] {
            let graph = generate(6, 12, 3, gap, 300 + seed);
            for l in [2u32, 3, 5] {
                let context = format!("seed={seed} gap={gap} l={l}");
                let params = KlStableParams::new(4, l);
                let mut batch = AlgorithmKind::Bfs
                    .build(
                        StableClusterSpec::ExactLength(l),
                        params.k,
                        graph.num_intervals(),
                    )
                    .expect("batch solver");
                let expected = batch.solve(&graph).expect("batch solve").paths;
                let online = OnlineStableClusters::replay(params, &graph)
                    .current_top_k()
                    .expect("stream answer");
                assert_identical(&expected, &online, &context);
            }
        }
    }
}

#[test]
fn replay_agrees_with_every_problem_one_solver() {
    // The online stream is interchangeable with the whole batch family,
    // not just BFS: DFS and the exhaustive oracle agree too.
    let graph = generate(5, 10, 3, 1, 77);
    let params = KlStableParams::new(5, 3);
    let online = OnlineStableClusters::replay(params, &graph)
        .current_top_k()
        .expect("stream answer");
    for kind in [AlgorithmKind::Bfs, AlgorithmKind::Dfs] {
        let mut solver = kind
            .build(StableClusterSpec::ExactLength(3), 5, graph.num_intervals())
            .expect("solver");
        let batch = solver.solve(&graph).expect("solve").paths;
        assert_identical(&batch, &online, kind.name());
    }
    let mut oracle = ExhaustiveSolver::new(StableClusterSpec::ExactLength(3), params.k);
    let expected = oracle.solve(&graph).expect("oracle").paths;
    assert_identical(&expected, &online, "exhaustive oracle");
}

#[test]
fn batch_solving_the_streams_snapshot_reproduces_the_streams_answer() {
    // Stream → snapshot() → batch BFS must close the loop: the graph the
    // stream materializes yields exactly the top-k the stream reported.
    for (m, n, d, g, seed) in [(6, 12, 3, 1, 11u64), (7, 8, 2, 0, 12), (5, 15, 4, 2, 13)] {
        let graph = generate(m, n, d, g, seed);
        let params = KlStableParams::new(4, 2);
        let mut online = OnlineStableClusters::replay(params, &graph);
        let streamed = online.current_top_k().expect("stream answer");
        let snapshot = online.snapshot();
        assert_eq!(snapshot.epoch(), m as u64);
        let mut batch = AlgorithmKind::Bfs
            .build(
                StableClusterSpec::ExactLength(2),
                4,
                snapshot.num_intervals(),
            )
            .expect("batch solver");
        let from_snapshot = batch
            .solve(snapshot.graph())
            .expect("solve over snapshot")
            .paths;
        assert_identical(&streamed, &from_snapshot, &format!("seed={seed}"));
    }
}
