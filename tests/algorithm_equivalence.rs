//! Solver-conformance suite: every [`AlgorithmKind`] must agree with the
//! exhaustive oracle on randomly generated cluster graphs, exercised through
//! `Box<dyn StableClusterSolver>` — the same dynamic dispatch the pipeline
//! uses — verifying Claims 1 and 2 of the paper for every algorithm behind
//! the unified trait.

use blogstable::baselines::exhaustive::ExhaustiveSolver;
use blogstable::core::path::ClusterPath;
use blogstable::core::problem::{KlStableParams, StableClusterSpec};
use blogstable::core::solver::{AlgorithmKind, SolverOptions, StableClusterSolver};
use blogstable::core::streaming::OnlineStableClusters;
use blogstable::core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
use blogstable::core::{
    ClusterGraph, ClusterGraphBuilder, ClusterNodeId, DfsConfig, DfsStableClusters,
};
use blogstable::storage::StorageSpec;

use bsc_util::DetRng;

fn generate(m: usize, n: u32, gap: u32, seed: u64) -> ClusterGraph {
    ClusterGraphGenerator::new(SyntheticGraphParams {
        num_intervals: m,
        nodes_per_interval: n,
        avg_out_degree: 2,
        gap,
        seed,
    })
    .generate()
}

/// Run one solver through the trait object, as the pipeline would.
fn solve(
    kind: AlgorithmKind,
    spec: StableClusterSpec,
    k: usize,
    graph: &ClusterGraph,
) -> Vec<ClusterPath> {
    let mut solver: Box<dyn StableClusterSolver> = kind
        .build(spec, k, graph.num_intervals())
        .expect("supported combination");
    solver.solve(graph).expect("solver run").paths
}

/// The ground truth for the same spec, also through the trait.
fn oracle(spec: StableClusterSpec, k: usize, graph: &ClusterGraph) -> Vec<ClusterPath> {
    let mut solver: Box<dyn StableClusterSolver> = Box::new(ExhaustiveSolver::new(spec, k));
    solver.solve(graph).expect("oracle run").paths
}

/// Score a path the way its spec orders results.
fn score(spec: StableClusterSpec, path: &ClusterPath) -> f64 {
    match spec {
        StableClusterSpec::Normalized { .. } => path.stability(),
        _ => path.weight(),
    }
}

/// Assert that `kind` and the oracle report identical top-k scores on
/// `graph`.
fn assert_matches_oracle(
    kind: AlgorithmKind,
    spec: StableClusterSpec,
    k: usize,
    graph: &ClusterGraph,
    context: &str,
) {
    let expected = oracle(spec, k, graph);
    let got = solve(kind, spec, k, graph);
    assert_eq!(
        expected.len(),
        got.len(),
        "{context} {kind} {spec:?}: result counts differ"
    );
    for (e, g) in expected.iter().zip(got.iter()) {
        let (e, g) = (score(spec, e), score(spec, g));
        assert!(
            (e - g).abs() < 1e-9,
            "{context} {kind} {spec:?}: {e} vs {g}"
        );
    }
}

/// Every algorithm that supports the spec, as trait objects would see them.
fn supporting(spec: StableClusterSpec, num_intervals: usize) -> Vec<AlgorithmKind> {
    AlgorithmKind::ALL
        .into_iter()
        .filter(|kind| kind.supports(spec, num_intervals))
        .collect()
}

#[test]
fn all_algorithms_match_oracle_on_full_paths() {
    for seed in 0..6 {
        for gap in [0, 1] {
            let graph = generate(4, 7, gap, 1000 + seed);
            let spec = StableClusterSpec::FullPaths;
            let kinds = supporting(spec, graph.num_intervals());
            assert_eq!(kinds.len(), 3, "BFS, DFS and TA all answer full paths");
            for kind in kinds {
                assert_matches_oracle(kind, spec, 4, &graph, &format!("seed={seed} gap={gap}"));
            }
        }
    }
}

#[test]
fn subpath_algorithms_match_oracle_on_exact_lengths() {
    for seed in 0..4 {
        let graph = generate(5, 6, 1, 2000 + seed);
        for l in [1, 2, 3, 4] {
            let spec = StableClusterSpec::ExactLength(l);
            let kinds = supporting(spec, graph.num_intervals());
            // TA joins in only when l covers the whole graph.
            assert_eq!(kinds.len(), if l == 4 { 3 } else { 2 });
            for kind in kinds {
                assert_matches_oracle(kind, spec, 3, &graph, &format!("seed={seed} l={l}"));
            }
        }
    }
}

#[test]
fn normalized_solver_matches_oracle() {
    for seed in 0..5 {
        let graph = generate(5, 5, 0, 4000 + seed);
        for l_min in [1, 2, 3] {
            let spec = StableClusterSpec::Normalized { l_min };
            let kinds = supporting(spec, graph.num_intervals());
            assert_eq!(kinds, vec![AlgorithmKind::Normalized]);
            for k in [1, 3] {
                assert_matches_oracle(
                    AlgorithmKind::Normalized,
                    spec,
                    k,
                    &graph,
                    &format!("seed={seed} l_min={l_min}"),
                );
            }
        }
    }
}

/// Every storage backend, and a block cache small enough to evict.
/// `BSC_STORAGE_BACKEND` (when set, as in the CI matrix) additionally pins
/// one backend so a per-backend regression fails the suite run dedicated to
/// that backend.
fn backends() -> Vec<StorageSpec> {
    let mut backends: Vec<StorageSpec> = StorageSpec::ALL.to_vec();
    backends.push(StorageSpec::BlockCache { budget_bytes: 2048 });
    if let Ok(name) = std::env::var("BSC_STORAGE_BACKEND") {
        let pinned = StorageSpec::parse(&name)
            .unwrap_or_else(|| panic!("unparseable BSC_STORAGE_BACKEND: {name:?}"));
        if !backends.contains(&pinned) {
            backends.push(pinned);
        }
    }
    backends
}

/// The disk-resident solver must match the oracle under every storage
/// backend, driven through the same `build_with_options` dispatch the
/// pipeline uses.
#[test]
fn disk_resident_solvers_match_oracle_under_every_backend() {
    let backends = backends();
    for seed in 0..3 {
        let graph = generate(5, 6, 1, 5000 + seed);
        for spec in [
            StableClusterSpec::FullPaths,
            StableClusterSpec::ExactLength(2),
        ] {
            let expected = oracle(spec, 4, &graph);
            for &backend in &backends {
                let mut solver = AlgorithmKind::Dfs
                    .build_with_options(
                        spec,
                        4,
                        graph.num_intervals(),
                        SolverOptions::default().storage(backend),
                    )
                    .expect("supported combination");
                let got = solver.solve(&graph).expect("solver run").paths;
                assert_eq!(
                    expected.len(),
                    got.len(),
                    "seed={seed} {spec:?} {backend}: result counts differ"
                );
                for (e, g) in expected.iter().zip(got.iter()) {
                    assert!(
                        (e.weight() - g.weight()).abs() < 1e-9,
                        "seed={seed} {spec:?} {backend}: {} vs {}",
                        e.weight(),
                        g.weight()
                    );
                }
            }
        }
    }
}

/// A graph keeps each row of children in the order its edges arrived, and
/// DFS orders what it reads itself (descending weight, ties in row order).
/// On distinct weights what DFS reads does not depend on arrival: one graph
/// built under several shuffles of its `add_edge` calls, the reversed one
/// among them, answers and counts the same on every backend.
#[test]
fn dfs_counters_do_not_depend_on_the_order_edges_arrive_in() {
    let graph = generate(6, 8, 1, 4242);
    let mut edges: Vec<(ClusterNodeId, ClusterNodeId, f64)> = graph.edges().collect();
    let mut distinct: Vec<u64> = edges.iter().map(|edge| edge.2.to_bits()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), edges.len(), "the weights are distinct");
    let mut arrivals = vec![edges.clone()];
    edges.reverse();
    arrivals.push(edges.clone());
    let mut rng = DetRng::seed_from_u64(41);
    for _ in 0..4 {
        rng.shuffle(&mut edges);
        arrivals.push(edges.clone());
    }
    let build = |edges: &[(ClusterNodeId, ClusterNodeId, f64)]| {
        let mut builder = ClusterGraphBuilder::new(graph.gap());
        for interval in 0..graph.num_intervals() as u32 {
            builder.add_interval(graph.nodes_in_interval(interval));
        }
        for &(from, to, weight) in edges {
            builder.add_edge(from, to, weight);
        }
        builder.build()
    };
    let graphs: Vec<ClusterGraph> = arrivals.iter().map(|edges| build(edges)).collect();
    let m = graph.num_intervals();
    for backend in backends() {
        for params in [KlStableParams::new(3, 2), KlStableParams::full_paths(3, m)] {
            let config = DfsConfig::default().with_storage(backend);
            let solve = |graph: &ClusterGraph| {
                let dfs = DfsStableClusters::with_config(params, config);
                let (paths, stats) = dfs.run_with_stats(graph).expect("dfs run");
                let key = |path: &ClusterPath| (path.nodes().to_vec(), path.weight().to_bits());
                (paths.iter().map(key).collect::<Vec<_>>(), stats)
            };
            let first = solve(&graphs[0]);
            assert!(first.1.prunes > 0, "{backend} {params:?}: {:?}", first.1);
            for (shuffle, graph) in graphs.iter().enumerate().skip(1) {
                let case = format!("{backend} {params:?} arrival order {shuffle}");
                assert_eq!(solve(graph), first, "{case}");
            }
        }
    }
}

#[test]
fn streaming_agrees_with_oracle() {
    for seed in 0..4 {
        let graph = generate(6, 8, 1, 3000 + seed);
        let params = KlStableParams::new(4, 3);
        let expected = oracle(StableClusterSpec::ExactLength(3), 4, &graph);
        let online = OnlineStableClusters::replay(params, &graph)
            .current_top_k()
            .expect("stream answer");
        assert_eq!(expected.len(), online.len(), "seed={seed} streaming");
        for (e, g) in expected.iter().zip(online.iter()) {
            assert!(
                (e.weight() - g.weight()).abs() < 1e-9,
                "seed={seed} streaming: {} vs {}",
                e.weight(),
                g.weight()
            );
        }
    }
}

/// A graph whose every weight is 0.25, 0.5 or 1.0: sums are exact, so
/// equal-weight paths abound and the top-k is decided by the content order.
fn tie_heavy(m: u32, n: u32, gap: u32, seed: u64) -> ClusterGraph {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut builder = ClusterGraphBuilder::new(gap);
    for _ in 0..m {
        builder.add_interval(n);
    }
    for interval in 1..m {
        for index in 0..n {
            // Distinct parents, up to three, each within the gap's reach.
            let mut parents: Vec<ClusterNodeId> = (0..3)
                .map(|_| {
                    let back = rng.range_inclusive(1, u64::from(interval.min(gap + 1))) as u32;
                    ClusterNodeId::new(interval - back, rng.index(n as usize) as u32)
                })
                .collect();
            parents.sort_by_key(|p| (p.interval, p.index));
            parents.dedup();
            for parent in parents {
                let weight = [0.25, 0.5, 1.0][rng.index(3)];
                builder.add_edge(parent, ClusterNodeId::new(interval, index), weight);
            }
        }
    }
    builder.build()
}

/// Two nodes per interval, every pair within reach joined, an edge over one
/// interval weighing 0.25 and over two 0.5: a path that hops and a path that
/// skips tie, so the order between a node and a skipped interval decides.
/// Odd intervals list their farthest parents first, so both arrive first
/// somewhere.
fn tie_ladder(m: u32, gap: u32) -> ClusterGraph {
    let mut builder = ClusterGraphBuilder::new(gap);
    for _ in 0..m {
        builder.add_interval(2);
    }
    for interval in 1..m {
        let mut backs: Vec<u32> = (1..=interval.min(gap + 1)).collect();
        if interval % 2 == 1 {
            backs.reverse();
        }
        for back in backs {
            for (from, to) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                builder.add_edge(
                    ClusterNodeId::new(interval - back, from),
                    ClusterNodeId::new(interval, to),
                    [0.25, 0.5, 1.0][back as usize - 1],
                );
            }
        }
    }
    builder.build()
}

/// Where weights tie, the heaps fall back on the content order for every
/// admission and every sift: in-memory BFS and the sharded solve must still
/// report the oracle's paths —
/// same nodes in the same order, same weight bits — for every length and a
/// `k` below, at and above the size of a tie group. DFS (whose `bestpaths`
/// buckets sort by the same order, over every backend) and TA (wherever it
/// answers: full length unsharded, every length in `l + 1`-interval
/// windows) take the same table.
#[test]
fn tie_heavy_graphs_match_the_oracle_node_for_node() {
    // Only DFS reads the storage backend; BFS and TA run once in memory.
    let every_kind = [AlgorithmKind::Bfs, AlgorithmKind::Dfs, AlgorithmKind::Ta];
    let mut configurations = vec![
        (
            "in memory".to_string(),
            SolverOptions::default(),
            &every_kind[..],
        ),
        (
            "sharded".to_string(),
            SolverOptions::default().shards(2),
            &every_kind[..],
        ),
    ];
    for backend in StorageSpec::ALL {
        let options = SolverOptions::default().storage(backend);
        configurations.push((format!("over {backend}"), options, &[AlgorithmKind::Dfs]));
    }
    let m = 6;
    for gap in [0, 1, 2] {
        let mut graphs = vec![("ladder".to_string(), tie_ladder(m, gap))];
        for seed in 0..4 {
            graphs.push((format!("seed={seed}"), tie_heavy(m, 8, gap, 15_000 + seed)));
        }
        for (graph_name, graph) in &graphs {
            for l in 1..m {
                let spec = StableClusterSpec::ExactLength(l);
                for k in [1, 2, 5, 10] {
                    let expected = oracle(spec, k, graph);
                    for (name, options, kinds) in &configurations {
                        for &kind in *kinds {
                            if options.shards == 1 && !kind.supports(spec, graph.num_intervals()) {
                                continue;
                            }
                            let got = kind
                                .build_with_options(spec, k, graph.num_intervals(), options.clone())
                                .expect("supported combination")
                                .solve(graph)
                                .expect("solver run")
                                .paths;
                            let context =
                                format!("gap={gap} {graph_name} l={l} k={k} {kind} {name}");
                            assert_eq!(expected.len(), got.len(), "{context}");
                            for (e, g) in expected.iter().zip(&got) {
                                assert_eq!(e.nodes(), g.nodes(), "{context}");
                                assert_eq!(e.weight().to_bits(), g.weight().to_bits(), "{context}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// TA weighs a path once it is complete, left to right over its edges, as
/// BFS does — not `prefix + edge + suffix`, whose last bit depended on which
/// of the path's edges was popped first. So wherever TA answers — every
/// length in `l + 1`-interval windows, the full length unsharded — its reply
/// is BFS's reply: same nodes, same weight bits, on weights that separate
/// paths and on weights that tie.
/// BFS visits only nodes a prefix of a near-answer can reach, and reads who
/// can start one off its completion table — which holds no weight for
/// `l = 1` or an `l` the graph cannot hold, and whose floor is −∞ for a `k`
/// beyond the number of starts. At each of those edges (and for full paths,
/// and on a graph of two intervals) the answer is the oracle's, node for
/// node and bit for bit, in memory and sharded.
#[test]
fn bfs_matches_the_oracle_where_its_table_says_nothing() {
    let configurations = [SolverOptions::default(), SolverOptions::default().shards(2)];
    for gap in [0, 1] {
        for (m, seed) in [(2, 31), (5, 32), (5, 33)] {
            let graph = generate(m, 6, gap, 9_000 + seed);
            let last = m as u32 - 1;
            for l in [1, 2, last, last + 1] {
                let spec = StableClusterSpec::ExactLength(l);
                for k in [1, 3, 1_000] {
                    let expected = oracle(spec, k, &graph);
                    assert_eq!(expected.is_empty(), l > last);
                    for options in &configurations {
                        let got = AlgorithmKind::Bfs
                            .build_with_options(spec, k, m, options.clone())
                            .expect("supported combination")
                            .solve(&graph)
                            .expect("solver run")
                            .paths;
                        let context = format!("gap={gap} m={m} seed={seed} l={l} k={k}");
                        assert_eq!(expected.len(), got.len(), "{context}");
                        for (e, g) in expected.iter().zip(&got) {
                            assert_eq!(e.nodes(), g.nodes(), "{context}");
                            assert_eq!(e.weight().to_bits(), g.weight().to_bits(), "{context}");
                        }
                    }
                }
            }
        }
    }
}

/// `graph` with every weight `w` replaced by `weight(w)`.
fn reweighted(graph: &ClusterGraph, weight: impl Fn(f64) -> f64) -> ClusterGraph {
    let mut builder = ClusterGraphBuilder::new(graph.gap());
    for interval in 0..graph.num_intervals() as u32 {
        builder.add_interval(graph.nodes_in_interval(interval));
    }
    for (from, to, w) in graph.edges() {
        builder.add_edge(from, to, weight(w));
    }
    builder.build()
}

/// TA and BFS agree node for node and bit for bit, full paths and every
/// sharded `exact:l`. On all-equal and two-valued weights the floor a TA
/// window seeds its arrivals by is tight: most starts reach it exactly, and
/// a start the lens rejected wrongly would lose a tied answer.
#[test]
fn ta_answers_are_bfs_answers_to_the_bit() {
    let benchmark_shaped = ClusterGraphGenerator::new(SyntheticGraphParams {
        num_intervals: 12,
        nodes_per_interval: 300,
        avg_out_degree: 5,
        gap: 1,
        seed: 7,
    })
    .generate();
    let small = generate(10, 12, 1, 15_200);
    let graphs = [
        ("12 x 300", benchmark_shaped),
        ("tie-heavy", tie_heavy(12, 40, 1, 15_100)),
        ("all-equal", reweighted(&small, |_| 1.0)),
        (
            "two-valued",
            reweighted(&small, |w| if w < 0.5 { 0.5 } else { 1.0 }),
        ),
    ];
    // Unsharded, TA answers full paths only; sharded, a full-path query is
    // one window, on one range.
    let mut queries: Vec<_> = [1, 2, 3, 8]
        .map(|shards| (StableClusterSpec::FullPaths, shards))
        .into();
    for l in [2, 3, 5, 8] {
        queries.extend([2, 3, 8].map(|shards| (StableClusterSpec::ExactLength(l), shards)));
    }
    for (name, graph) in &graphs {
        for &(spec, shards) in &queries {
            for k in [1, 5, 10, 50] {
                let options = SolverOptions::default().shards(shards);
                let paths = |kind: AlgorithmKind| {
                    kind.build_with_options(spec, k, graph.num_intervals(), options.clone())
                        .expect("supported combination")
                        .solve(graph)
                        .expect("solver run")
                        .paths
                };
                let (bfs, ta) = (paths(AlgorithmKind::Bfs), paths(AlgorithmKind::Ta));
                let context = format!("{name} {spec} shards={shards} k={k}");
                assert_eq!(bfs.len(), k, "{context}");
                assert_eq!(bfs.len(), ta.len(), "{context}");
                for (b, t) in bfs.iter().zip(&ta) {
                    assert_eq!(b.nodes(), t.nodes(), "{context}");
                    assert_eq!(b.weight().to_bits(), t.weight().to_bits(), "{context}");
                }
            }
        }
    }
}

/// Randomized conformance sweep over graph shapes and specs (the successor
/// of the old proptest block, Claims 1 and 2): draw a random shape, then run
/// *every* algorithm that supports the drawn spec against the oracle.
#[test]
fn randomized_conformance_over_random_shapes() {
    let mut rng = DetRng::seed_from_u64(20_070_923);
    let mut checked = 0u32;
    for _ in 0..24 {
        let m = rng.range_inclusive(3, 5) as usize;
        let n = rng.range_inclusive(3, 7) as u32;
        let gap = rng.range_inclusive(0, 1) as u32;
        let k = rng.range_inclusive(1, 4) as usize;
        let graph = generate(m, n, gap, rng.next_u64());
        let max_l = (m - 1) as u32;
        let spec = match rng.index(3) {
            0 => StableClusterSpec::FullPaths,
            1 => StableClusterSpec::ExactLength(rng.range_inclusive(1, max_l as u64) as u32),
            _ => StableClusterSpec::Normalized {
                l_min: rng.range_inclusive(1, max_l as u64) as u32,
            },
        };
        for kind in supporting(spec, graph.num_intervals()) {
            assert_matches_oracle(
                kind,
                spec,
                k,
                &graph,
                &format!("m={m} n={n} gap={gap} k={k}"),
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 24,
        "sweep must exercise every drawn spec: {checked}"
    );
}

#[test]
fn unsupported_combinations_are_rejected_not_wrong() {
    let graph = generate(4, 5, 0, 77);
    // TA cannot answer short subpaths; it must refuse rather than return
    // wrong results.
    let err = AlgorithmKind::Ta
        .build(StableClusterSpec::ExactLength(1), 3, graph.num_intervals())
        .expect_err("TA must reject subpath specs");
    assert!(matches!(
        err,
        blogstable::core::BscError::Unsupported {
            algorithm: "ta",
            ..
        }
    ));
    // The normalized solver only answers Problem 2 and vice versa.
    assert!(AlgorithmKind::Normalized
        .build(StableClusterSpec::FullPaths, 3, graph.num_intervals())
        .is_err());
    assert!(AlgorithmKind::Bfs
        .build(
            StableClusterSpec::Normalized { l_min: 2 },
            3,
            graph.num_intervals()
        )
        .is_err());
}
