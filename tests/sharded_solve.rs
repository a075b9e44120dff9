//! Windowed-solve conformance: partitioning the interval axis must never
//! change a single bit of the answer — whichever configuration of the one
//! windowed executor does the partitioning.
//!
//! The acceptance bar is byte-identical [`Solution`] paths (node sequences
//! *and* `f64` weight bits) for shards ∈ {1, 2, 3, 8, `BSC_SHARDS`} × every
//! storage backend × every inner algorithm that supports the query, compared
//! against the unsharded solve of the same algorithm, through all three
//! configurations: [`ShardedSolver`] on local threads, the same solver over
//! an in-process loopback transport, and [`solve_windows`] cold and warm — with
//! identical deterministic counters and one stats rule. The same holds when
//! the graph handed over is a proper sub-view of a larger one: the executor
//! decomposes the view, and equals the unsharded leaf on that view.
//!
//! Env pin, mirroring the `BSC_STORAGE_BACKEND` loop CI already runs:
//! `BSC_SHARDS` selects the configuration exercised by the env-pinned
//! tests, and CI runs this binary across shards ∈ {1, 2, 3, 8} so
//! determinism cannot regress behind the single-shard default. Shard ranges
//! are the only way one solve uses more than one core, so there is no
//! thread count to pin beside them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use blogstable::core::cluster_graph::GraphView;
use blogstable::core::delta::{solve_windows, GraphDelta};
use std::sync::Mutex;

use blogstable::core::distributed::{
    solve_window_locally, ShardTransport, WindowRequest, WindowResult,
};
use blogstable::prelude::*;

/// The shard count under test: `BSC_SHARDS` when set (CI runs the matrix),
/// 3 otherwise.
fn shards_from_env() -> usize {
    match std::env::var("BSC_SHARDS") {
        Ok(value) => value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable BSC_SHARDS: {value:?}")),
        Err(_) => 3,
    }
}

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

/// `graph` re-grown interval by interval through [`ClusterGraph::append`]:
/// the epoch before the last append, and the last epoch (equal to `graph`
/// in every accessor, sharing all but the appended segment with the former).
fn append_chain(graph: &ClusterGraph) -> (ClusterGraph, ClusterGraph) {
    let mut previous = ClusterGraphBuilder::new(graph.gap()).build();
    let mut last = previous.clone();
    for interval in 0..graph.num_intervals() as u32 {
        previous = last;
        last = previous.append(&graph.interval_parent_edges(interval));
    }
    (previous, last)
}

/// What a test transport does besides answering windows.
#[derive(Debug)]
enum Misbehaviour {
    None,
    /// Trip `token` while answering window number `on_call` (1-based).
    CancelDuring {
        on_call: usize,
        token: CancelToken,
    },
    /// Fail range 0's first window once a sibling's request is in flight;
    /// hold that sibling's window until the failure has tripped `token`,
    /// then answer it.
    FailRangeZero {
        token: CancelToken,
    },
}

/// An in-process [`ShardTransport`]: every window through
/// [`solve_window_locally`], exactly as a `bsc-cluster` worker answers it.
#[derive(Debug)]
struct Loopback {
    workers: usize,
    calls: AtomicUsize,
    /// The algorithm of every request, in arrival order.
    algorithms: Mutex<Vec<AlgorithmKind>>,
    misbehaviour: Misbehaviour,
}

impl Loopback {
    fn new(workers: usize, misbehaviour: Misbehaviour) -> Arc<Loopback> {
        Arc::new(Loopback {
            workers,
            calls: AtomicUsize::new(0),
            algorithms: Mutex::new(Vec::new()),
            misbehaviour,
        })
    }
}

impl ShardTransport for Loopback {
    fn worker_count(&self) -> usize {
        self.workers
    }

    fn solve_window(
        &self,
        graph: &ClusterGraph,
        request: &WindowRequest,
    ) -> BscResult<WindowResult> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        self.algorithms.lock().unwrap().push(request.algorithm);
        match &self.misbehaviour {
            Misbehaviour::None => {}
            Misbehaviour::CancelDuring { on_call, token } => {
                if call == *on_call {
                    token.cancel();
                }
            }
            Misbehaviour::FailRangeZero { token } => {
                if request.preferred == 0 {
                    while self.calls.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                    return Err(BscError::Cluster("worker 0 is down".to_string()));
                }
                while !token.is_cancelled() {
                    std::thread::yield_now();
                }
            }
        }
        solve_window_locally(
            graph,
            request.start,
            request.l,
            request.k,
            request.algorithm,
            &SolverOptions::default().storage(request.storage),
        )
    }
}

/// One row of the table: `(kind, spec, k)` over the last epoch of an append
/// chain, at one `(storage, shards)` cell, through all three configurations.
/// Paths must equal `expected`; the cold configurations must agree on the
/// deterministic counters and on the stats rule; every start window must be
/// accounted for exactly once.
fn assert_configurations_conform(
    (previous, graph): (&ClusterGraph, &ClusterGraph),
    (kind, spec, k): (AlgorithmKind, StableClusterSpec, usize),
    options: &SolverOptions,
    expected: &[ClusterPath],
    context: &str,
) {
    let m = graph.num_intervals() as u64;
    let starts = match spec {
        StableClusterSpec::ExactLength(l) => m.saturating_sub(u64::from(l)),
        _ => 1,
    };
    let shards = options.shards;

    let sharded = ShardedSolver::new(kind, spec, k, options.clone())
        .and_then(|mut solver| solver.solve(graph))
        .unwrap_or_else(|e| panic!("{context} sharded: {e}"));
    let transport = Loopback::new(shards, Misbehaviour::None);
    let distributed = ShardedSolver::with_transport(
        Arc::clone(&transport) as Arc<dyn ShardTransport>,
        kind,
        spec,
        k,
        options.clone(),
    )
    .and_then(|mut solver| solver.solve(graph))
    .unwrap_or_else(|e| panic!("{context} distributed: {e}"));
    let cold = solve_windows(graph, spec, k, kind, options, None)
        .unwrap_or_else(|e| panic!("{context} cold: {e}"));
    let prior = solve_windows(previous, spec, k, kind, options, None)
        .unwrap_or_else(|e| panic!("{context} prior epoch: {e}"))
        .windows;
    let delta = GraphDelta::between(previous, graph);
    let warm = solve_windows(graph, spec, k, kind, options, Some((&prior, &delta)))
        .unwrap_or_else(|e| panic!("{context} warm: {e}"));

    for (name, solution) in [
        ("sharded", &sharded),
        ("distributed", &distributed),
        ("cold", &cold.solution),
        ("warm", &warm.solution),
    ] {
        assert_identical(expected, &solution.paths, &format!("{context} {name}"));
        let stats = &solution.stats;
        assert_eq!(
            stats.windows_resolved + stats.windows_spliced,
            starts,
            "{context} {name}: every start window exactly once"
        );
        assert_eq!(
            stats.shards as u64,
            starts.min(shards as u64),
            "{context} {name}: shards = ranges formed"
        );
    }
    for (name, solution) in [("distributed", &distributed), ("cold", &cold.solution)] {
        let (a, b) = (&sharded.stats, &solution.stats);
        assert_eq!(a.paths_generated, b.paths_generated, "{context} {name}");
        assert_eq!(a.nodes_processed, b.nodes_processed, "{context} {name}");
        assert_eq!(b.windows_spliced, 0, "{context} {name}");
    }
    assert_eq!(
        transport.calls.load(Ordering::SeqCst) as u64,
        starts,
        "{context}: one dispatch per start"
    );
    // One stats rule: the two local configurations report the same worker
    // count; transport dispatchers run one per range.
    assert_eq!(
        sharded.stats.threads, cold.solution.stats.threads,
        "{context}"
    );
    assert_eq!(
        distributed.stats.threads, distributed.stats.shards,
        "{context}"
    );
    // An append dirties only the new interval, so with an exact length
    // every window but the last is spliced and its counters not re-counted.
    if let StableClusterSpec::ExactLength(_) = spec {
        assert_eq!(warm.solution.stats.windows_resolved, 1, "{context} warm");
        assert!(
            warm.solution.stats.paths_generated <= cold.solution.stats.paths_generated,
            "{context} warm re-counted spliced windows"
        );
    }
    assert_eq!(warm.windows.windows.len() as u64, starts, "{context} warm");
}

/// The sub-view rows of the table: the two configurations that take a view
/// (a delta solve is about whole epochs), handed `view`, against the
/// unsharded leaf on the same view — paths, and every start window of the
/// view exactly once, none from outside it.
fn assert_sub_view_conforms(
    view: GraphView<'_>,
    (kind, spec, k): (AlgorithmKind, StableClusterSpec, usize),
    options: &SolverOptions,
    context: &str,
) {
    let m = view.num_intervals();
    let expected = kind
        .build_with_options(spec, k, m, options.clone().shards(1))
        .and_then(|mut leaf| leaf.solve_view(view))
        .unwrap_or_else(|e| panic!("{context} leaf: {e}"));
    assert!(!expected.paths.is_empty(), "{context}: trivial sub-view");
    let starts = match spec {
        StableClusterSpec::ExactLength(l) => (m as u64).saturating_sub(u64::from(l)),
        _ => 1,
    };
    let sharded = ShardedSolver::new(kind, spec, k, options.clone())
        .and_then(|mut solver| solver.solve_view(view))
        .unwrap_or_else(|e| panic!("{context} sharded: {e}"));
    let transport = Loopback::new(options.shards, Misbehaviour::None);
    let distributed = ShardedSolver::with_transport(
        Arc::clone(&transport) as Arc<dyn ShardTransport>,
        kind,
        spec,
        k,
        options.clone(),
    )
    .and_then(|mut solver| solver.solve_view(view))
    .unwrap_or_else(|e| panic!("{context} distributed: {e}"));
    for (name, solution) in [("sharded", &sharded), ("distributed", &distributed)] {
        assert_identical(
            &expected.paths,
            &solution.paths,
            &format!("{context} {name}"),
        );
        assert_eq!(solution.stats.windows_resolved, starts, "{context} {name}");
        for path in &solution.paths {
            let inside = |n: &ClusterNodeId| view.intervals().contains(&n.interval);
            assert!(
                path.nodes().iter().all(inside),
                "{context} {name}: {path:?}"
            );
        }
    }
    assert_eq!(
        transport.calls.load(Ordering::SeqCst) as u64,
        starts,
        "{context}"
    );
}

/// The acceptance matrix: shards ∈ {1, 2, 3, 8, `BSC_SHARDS`} × all three
/// storage backends, BFS, DFS and unbudgeted Auto inner solvers, subpath and
/// full-path specs — all three configurations byte-identical to the
/// unsharded solve, with conforming counters.
#[test]
fn sharded_solutions_are_byte_identical_across_shards_and_backends() {
    let (previous, graph) = append_chain(&generate(9, 14, 3, 1, 4242));
    let m = graph.num_intervals();
    let mut shard_counts = vec![1usize, 2, 3, 8];
    if !shard_counts.contains(&shards_from_env()) {
        shard_counts.push(shards_from_env());
    }
    for (kind, spec) in [
        (AlgorithmKind::Bfs, StableClusterSpec::ExactLength(3)),
        (AlgorithmKind::Bfs, StableClusterSpec::FullPaths),
        (AlgorithmKind::Dfs, StableClusterSpec::ExactLength(4)),
        (
            AlgorithmKind::Auto { budget_bytes: None },
            StableClusterSpec::ExactLength(2),
        ),
    ] {
        let mut reference = kind.build(spec, 5, m).expect("unsharded build");
        let expected = reference.solve(&graph).expect("unsharded solve").paths;
        assert!(!expected.is_empty(), "{kind} {spec:?}: trivial workload");
        for storage in StorageSpec::ALL {
            for &shards in &shard_counts {
                let options = SolverOptions::default().storage(storage).shards(shards);
                if shards > 1 {
                    // The options seam wraps in the same ShardedSolver.
                    let solution = kind
                        .build_with_options(spec, 5, m, options.clone())
                        .and_then(|mut solver| solver.solve(&graph))
                        .expect("sharded build + solve");
                    assert_identical(&expected, &solution.paths, "build_with_options");
                }
                let context = format!("{kind} {spec:?} {storage} shards={shards}");
                assert_configurations_conform(
                    (&previous, &graph),
                    (kind, spec, 5),
                    &options,
                    &expected,
                    &context,
                );
                assert_sub_view_conforms(
                    graph.window(2, 7),
                    (kind, spec, 5),
                    &options,
                    &format!("{context} view [2, 7]"),
                );
            }
        }
    }
}

/// Unbudgeted `auto` is BFS for every Problem 1 query, and it is resolved
/// once, before the windows, whatever the shard count: a fanned-out query
/// with `shards = 3` sends only `bfs` windows and answers with the paths
/// and counters of `bfs`.
#[test]
fn unbudgeted_auto_sends_bfs_windows() {
    let graph = generate(9, 14, 3, 1, 4242);
    let spec = StableClusterSpec::ExactLength(2); // 7 start windows
    let options = SolverOptions::default().shards(3);
    let solve = |kind: AlgorithmKind| {
        let transport = Loopback::new(3, Misbehaviour::None);
        let solution = ShardedSolver::with_transport(
            Arc::clone(&transport) as Arc<dyn ShardTransport>,
            kind,
            spec,
            5,
            options.clone(),
        )
        .and_then(|mut solver| solver.solve(&graph))
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let sent = transport.algorithms.lock().unwrap().clone();
        (solution, sent)
    };
    let (bfs, _) = solve(AlgorithmKind::Bfs);
    let (auto, sent) = solve(AlgorithmKind::Auto { budget_bytes: None });
    assert_eq!(sent, vec![AlgorithmKind::Bfs; 7], "windows sent");
    assert_identical(&bfs.paths, &auto.paths, "auto over a transport");
    assert_eq!(auto.stats, bfs.stats, "auto over a transport");
}

/// Problem 2 does not decompose by start interval: one rejection, reported
/// under the name of whichever configuration was asked.
#[test]
fn every_configuration_rejects_the_normalized_spec() {
    let spec = StableClusterSpec::Normalized { l_min: 2 };
    let options = SolverOptions::default().shards(2);
    let rejected_as = |result: BscResult<()>| match result {
        Err(BscError::Unsupported { algorithm, .. }) => algorithm,
        other => panic!("expected Unsupported, got {other:?}"),
    };
    let sharded = ShardedSolver::new(AlgorithmKind::Bfs, spec, 5, options.clone()).map(|_| ());
    assert_eq!(rejected_as(sharded), "sharded");
    let transport = Loopback::new(2, Misbehaviour::None) as Arc<dyn ShardTransport>;
    let distributed = ShardedSolver::with_transport(
        transport,
        AlgorithmKind::Normalized,
        spec,
        5,
        options.clone(),
    )
    .map(|_| ());
    assert_eq!(rejected_as(distributed), "distributed");
    let graph = generate(5, 6, 3, 0, 4);
    let windows = solve_windows(&graph, spec, 5, AlgorithmKind::Bfs, &options, None).map(|_| ());
    assert_eq!(rejected_as(windows), "delta");
}

/// The failure paths of the one loop. The transport seam is the only place
/// a test can stand *between* two windows, so the exact claims — the window
/// after a cancellation is never requested, a tripped sibling stops at its
/// next window — are made there; the local configurations run the same
/// loop, and are checked for the same outcomes.
#[test]
fn cancellation_and_root_cause_errors_behave_the_same_in_every_configuration() {
    let graph = generate(9, 14, 3, 1, 4242);
    let spec = StableClusterSpec::ExactLength(2); // 7 start windows
    let deadline_exceeded = |result: BscResult<Solution>, context: &str| match result {
        Err(BscError::DeadlineExceeded { .. }) => {}
        other => panic!("{context}: expected DeadlineExceeded, got {other:?}"),
    };

    // A token cancelled while window 2 is being answered: window 3 is never
    // requested, and the solve reports DeadlineExceeded.
    let token = CancelToken::new();
    let transport = Loopback::new(
        1,
        Misbehaviour::CancelDuring {
            on_call: 2,
            token: token.clone(),
        },
    );
    let result = ShardedSolver::with_transport(
        Arc::clone(&transport) as Arc<dyn ShardTransport>,
        AlgorithmKind::Bfs,
        spec,
        5,
        SolverOptions::default().cancel_token(Some(token)),
    )
    .and_then(|mut solver| solver.solve(&graph));
    deadline_exceeded(result, "cancelled between windows");
    assert_eq!(transport.calls.load(Ordering::SeqCst), 2, "rest not solved");

    // A token already cancelled stops the local configurations the same way.
    for shards in [1, shards_from_env()] {
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let options = SolverOptions::default()
            .shards(shards)
            .cancel_token(Some(cancelled));
        let sharded = ShardedSolver::new(AlgorithmKind::Bfs, spec, 5, options.clone())
            .and_then(|mut solver| solver.solve(&graph));
        deadline_exceeded(sharded, "sharded");
        let windows = solve_windows(&graph, spec, 5, AlgorithmKind::Bfs, &options, None)
            .map(|outcome| outcome.solution);
        deadline_exceeded(windows, "solve_windows");
    }

    // Range 0 fails for a reason; range 1 is held until that failure has
    // tripped the shared token, answers the window it was on, and stops at
    // the next one with DeadlineExceeded. The reason wins.
    let token = CancelToken::new();
    let transport = Loopback::new(
        2,
        Misbehaviour::FailRangeZero {
            token: token.clone(),
        },
    );
    let error = ShardedSolver::with_transport(
        Arc::clone(&transport) as Arc<dyn ShardTransport>,
        AlgorithmKind::Bfs,
        spec,
        5,
        SolverOptions::default().cancel_token(Some(token)),
    )
    .and_then(|mut solver| solver.solve(&graph))
    .expect_err("range 0 failed");
    assert!(matches!(error, BscError::Cluster(_)), "root cause: {error}");
    assert_eq!(
        transport.calls.load(Ordering::SeqCst),
        2,
        "one failed window, one sibling window, nothing after the trip"
    );

    // Locally the root cause is an injected storage fault: every window's
    // backend replays the same schedule, so whichever range trips the token
    // first, no sibling's DeadlineExceeded may mask the fault.
    let faulty = SolverOptions::default()
        .shards(shards_from_env().max(2))
        .storage(StorageSpec::Fault {
            seed: 42,
            every: 3,
            inner: FaultInner::LogFile,
        });
    let sharded = ShardedSolver::new(AlgorithmKind::Dfs, spec, 5, faulty.clone())
        .and_then(|mut solver| solver.solve(&graph))
        .expect_err("every window faults");
    let windows = solve_windows(&graph, spec, 5, AlgorithmKind::Dfs, &faulty, None)
        .expect_err("every window faults");
    for error in [sharded, windows] {
        assert!(
            error.to_string().contains("injected storage fault"),
            "root cause masked: {error}"
        );
    }
}

/// A run of windows shares one look-ahead table, and that changes time
/// only: whatever the partition, the merged deterministic counters of BFS,
/// TA and unbudgeted Auto windows are the sum over the windows solved one by
/// one through [`solve_window_locally`] (each with a table of its own), and
/// the distributed configuration — one RPC, so one table, per window —
/// counts what the sharded one does. Peaks follow the stats rule: the
/// widest window's with one range, between it and the windows' sum with
/// more.
#[test]
fn counters_are_the_sum_of_the_windows_solved_alone_whatever_the_partition() {
    let graph = generate(12, 40, 3, 1, 2929);
    let m = graph.num_intervals() as u32;
    let mut shard_counts = vec![1usize, 2, 3, 8];
    if !shard_counts.contains(&shards_from_env()) {
        shard_counts.push(shards_from_env());
    }
    let counts = |stats: &SolverStats| {
        [
            stats.nodes_processed,
            stats.paths_generated,
            stats.prunes,
            stats.random_seeks,
            stats.edges_traversed,
            stats.windows_resolved,
        ]
    };
    for (kind, spec) in [
        (AlgorithmKind::Bfs, StableClusterSpec::ExactLength(3)),
        (AlgorithmKind::Bfs, StableClusterSpec::ExactLength(6)),
        (AlgorithmKind::Bfs, StableClusterSpec::FullPaths),
        (AlgorithmKind::Ta, StableClusterSpec::ExactLength(3)),
        (AlgorithmKind::Ta, StableClusterSpec::ExactLength(5)),
        (
            AlgorithmKind::Auto { budget_bytes: None },
            StableClusterSpec::ExactLength(2),
        ),
    ] {
        let l = match spec {
            StableClusterSpec::ExactLength(l) => l,
            _ => m - 1,
        };
        let alone: Vec<SolverStats> = (0..m - l)
            .map(|start| {
                let options = SolverOptions::default();
                solve_window_locally(&graph, start, l, 5, kind, &options)
                    .expect("window solve")
                    .stats
            })
            .collect();
        let expected = alone.iter().fold([0; 6], |mut sum, stats| {
            sum.iter_mut().zip(counts(stats)).for_each(|(s, c)| *s += c);
            sum
        });
        assert!(expected[1] > 0, "{kind} {spec:?}: nothing counted");
        let widest = alone.iter().map(|s| s.peak_resident_paths).max().unwrap();
        let summed: usize = alone.iter().map(|s| s.peak_resident_paths).sum();
        for &shards in &shard_counts {
            let context = format!("{kind} {spec:?} shards={shards}");
            let options = SolverOptions::default().shards(shards);
            let sharded = ShardedSolver::new(kind, spec, 5, options.clone())
                .and_then(|mut solver| solver.solve(&graph))
                .unwrap_or_else(|e| panic!("{context} sharded: {e}"))
                .stats;
            let transport = Loopback::new(shards, Misbehaviour::None);
            let distributed = ShardedSolver::with_transport(transport, kind, spec, 5, options)
                .and_then(|mut solver| solver.solve(&graph))
                .unwrap_or_else(|e| panic!("{context} distributed: {e}"))
                .stats;
            for (name, stats) in [("sharded", &sharded), ("distributed", &distributed)] {
                assert_eq!(counts(stats), expected, "{context} {name}");
                let peak = stats.peak_resident_paths;
                assert!(widest <= peak && peak <= summed, "{context} {name}");
                if shards == 1 {
                    assert_eq!(peak, widest, "{context} {name}");
                }
            }
        }
    }
}

/// TA only materializes full paths unsharded; per-start windows make every
/// exact-length query full-length, so sharded TA answers subpath queries —
/// and agrees with BFS on the result set.
#[test]
fn sharded_ta_serves_subpath_queries() {
    let graph = generate(8, 10, 3, 0, 77);
    let spec = StableClusterSpec::ExactLength(3);
    let mut bfs = AlgorithmKind::Bfs
        .build(spec, 4, graph.num_intervals())
        .expect("bfs build");
    let expected = bfs.solve(&graph).expect("bfs solve").paths;
    for shards in [1usize, 2, 8] {
        let mut ta = ShardedSolver::new(
            AlgorithmKind::Ta,
            spec,
            4,
            SolverOptions::default().shards(shards),
        )
        .expect("sharded TA");
        let solution = ta.solve(&graph).expect("sharded TA solve");
        assert_eq!(expected.len(), solution.paths.len(), "shards={shards}");
        for (a, b) in expected.iter().zip(solution.paths.iter()) {
            assert_eq!(a.nodes(), b.nodes(), "shards={shards}");
            assert!(
                (a.weight() - b.weight()).abs() < 1e-9,
                "shards={shards}: {} vs {}",
                a.weight(),
                b.weight()
            );
        }
    }
}

/// The env-pinned configuration (the shard count from the CI matrix, run on
/// that many shard threads) must reproduce the single-shard pipeline output
/// bit for bit.
#[test]
fn env_pinned_threads_and_shards_match_the_default_pipeline() {
    let shards = shards_from_env();
    let corpus = SyntheticBlogosphere::new(SyntheticConfig::small()).generate();
    let baseline = Pipeline::new(PipelineParams::default().exact_length(2))
        .expect("valid baseline params")
        .run(&corpus)
        .expect("baseline pipeline");
    let pinned = Pipeline::new(PipelineParams::default().exact_length(2).shards(shards))
        .unwrap_or_else(|e| panic!("shards={shards}: {e}"))
        .run(&corpus)
        .expect("pinned pipeline");
    assert_identical(
        &baseline.stable_paths,
        &pinned.stable_paths,
        &format!("pipeline shards={shards}"),
    );
    if shards > 1 {
        assert!(pinned.solver_stats.shards > 0, "sharded stats not reported");
    }
}

/// `AlgorithmKind::Auto` end to end: unlimited budget resolves to BFS-grade
/// answers, a sharded Auto resolves per window, and an unsatisfiable budget
/// surfaces as `BscError`, not a panic.
#[test]
fn auto_policy_flows_through_pipeline_and_sharding() {
    let corpus = SyntheticBlogosphere::new(SyntheticConfig::small()).generate();
    let baseline = Pipeline::new(PipelineParams::default().exact_length(2))
        .expect("valid params")
        .run(&corpus)
        .expect("baseline");
    let auto = Pipeline::new(
        PipelineParams::default()
            .exact_length(2)
            .algorithm(AlgorithmKind::Auto { budget_bytes: None }),
    )
    .expect("auto params validate")
    .run(&corpus)
    .expect("auto pipeline");
    assert_identical(&baseline.stable_paths, &auto.stable_paths, "auto unlimited");

    let sharded_auto = Pipeline::new(
        PipelineParams::default()
            .exact_length(2)
            .algorithm(AlgorithmKind::Auto { budget_bytes: None })
            .shards(shards_from_env()),
    )
    .expect("sharded auto params validate")
    .run(&corpus)
    .expect("sharded auto pipeline");
    assert_identical(
        &baseline.stable_paths,
        &sharded_auto.stable_paths,
        "auto sharded",
    );

    // One byte of budget cannot hold any solver: a clean error, no panic.
    let err = Pipeline::new(PipelineParams::default().exact_length(2).algorithm(
        AlgorithmKind::Auto {
            budget_bytes: Some(1),
        },
    ))
    .expect("validation cannot see the graph yet")
    .run(&corpus)
    .unwrap_err();
    assert!(matches!(err, BscError::InvalidConfig(_)), "{err}");
}

/// Pipeline validation of the sharding knob: zero shards and Problem 2 ×
/// sharding are rejected up front.
#[test]
fn pipeline_validates_the_shards_knob() {
    assert!(matches!(
        Pipeline::new(PipelineParams::default().shards(0)).unwrap_err(),
        BscError::InvalidConfig(_)
    ));
    assert!(matches!(
        Pipeline::new(PipelineParams::default().normalized(2).shards(2)).unwrap_err(),
        BscError::Unsupported {
            algorithm: "sharded",
            ..
        }
    ));
    // Problem 2 unsharded stays fine.
    assert!(Pipeline::new(PipelineParams::default().normalized(2).shards(1)).is_ok());
}
