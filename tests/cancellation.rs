//! Deadline and cancellation conformance across every query entry point.
//!
//! The contract under test: a query whose deadline has already expired
//! returns [`BscError::DeadlineExceeded`] from *every* surface — the
//! one-shot [`Pipeline`], the pooled [`QueryEngine`], the serve protocol
//! (engine and oracle sessions byte-identically) and the distributed
//! coordinator — without solving; a mid-solve cancellation terminates the
//! solver within one checkpoint interval (promptly, not at the end of the
//! solve); and a far-future deadline changes no byte of any answer.

use std::time::{Duration, Instant};

use blogstable::cluster::{WorkerConfig, WorkerHandle, WorkerServer};
use blogstable::core::distributed::FanoutSpec;
use blogstable::core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
use blogstable::core::ClusterGraph;
use blogstable::prelude::*;
use blogstable::service::{EngineConfig, Session};

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

fn is_deadline(err: &BscError) -> bool {
    matches!(err, BscError::DeadlineExceeded { .. })
}

/// Entry point 1: the one-shot pipeline. An expired deadline surfaces as
/// `DeadlineExceeded` before any solving; a generous one changes nothing.
#[test]
fn pipeline_honors_deadlines() {
    let corpus = SyntheticBlogosphere::new(SyntheticConfig::small()).generate();
    let err = Pipeline::new(
        PipelineParams::default()
            .exact_length(2)
            .deadline(Some(Duration::ZERO)),
    )
    .expect("valid params")
    .run(&corpus)
    .unwrap_err();
    assert!(is_deadline(&err), "expected DeadlineExceeded, got {err}");

    let baseline = Pipeline::new(PipelineParams::default().exact_length(2))
        .expect("valid params")
        .run(&corpus)
        .expect("baseline run");
    let with_deadline = Pipeline::new(
        PipelineParams::default()
            .exact_length(2)
            .deadline(Some(Duration::from_secs(3600))),
    )
    .expect("valid params")
    .run(&corpus)
    .expect("deadline run");
    assert_eq!(
        baseline.stable_paths.len(),
        with_deadline.stable_paths.len()
    );
    for (a, b) in baseline
        .stable_paths
        .iter()
        .zip(with_deadline.stable_paths.iter())
    {
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(
            a.weight().to_bits(),
            b.weight().to_bits(),
            "a far-future deadline must not change a byte of the answer"
        );
    }
}

/// Entry point 2: every algorithm behind the unified solver seam — and the
/// sharded wrapper — fails fast on an expired deadline.
#[test]
fn every_solver_fails_fast_on_an_expired_deadline() {
    let graph = generate(6, 12, 3, 1, 7);
    let m = graph.num_intervals();
    for kind in AlgorithmKind::ALL {
        let spec = match kind {
            AlgorithmKind::Ta => StableClusterSpec::FullPaths,
            AlgorithmKind::Normalized => StableClusterSpec::Normalized { l_min: 2 },
            _ => StableClusterSpec::ExactLength(3),
        };
        let begun = Instant::now();
        let err = kind
            .build_with_options(
                spec,
                4,
                m,
                SolverOptions::default().deadline(Some(Duration::ZERO)),
            )
            .expect("build")
            .solve(&graph)
            .unwrap_err();
        assert!(
            is_deadline(&err),
            "{kind}: expected DeadlineExceeded, got {err}"
        );
        assert!(
            begun.elapsed() < Duration::from_secs(1),
            "{kind}: fail-fast took {:?}",
            begun.elapsed()
        );
    }
    // Sharded: the expired token reaches every shard.
    let err = ShardedSolver::new(
        AlgorithmKind::Bfs,
        StableClusterSpec::ExactLength(3),
        4,
        SolverOptions::default()
            .shards(3)
            .deadline(Some(Duration::ZERO)),
    )
    .expect("sharded build")
    .solve(&graph)
    .unwrap_err();
    assert!(is_deadline(&err), "sharded: got {err}");
}

/// A sharded solve of a graph the benchmark's width and more: its windows
/// read the graph's kept look-ahead table and visit only what their live
/// starts reach, so its checkpoints count few nodes. An expired deadline
/// still stops it, BFS and TA alike, on a cold graph and on one that keeps
/// its table from an earlier solve.
#[test]
fn an_expired_deadline_stops_a_sharded_solve_of_a_wide_graph() {
    let graph = generate(12, 2_000, 5, 1, 7);
    for algorithm in [AlgorithmKind::Bfs, AlgorithmKind::Ta] {
        let spec = StableClusterSpec::ExactLength(3);
        let solver = |deadline| {
            let options = SolverOptions::default().shards(2).deadline(deadline);
            ShardedSolver::new(algorithm, spec, 5, options).expect("sharded build")
        };
        let cold = solver(Some(Duration::ZERO)).solve(&graph.clone());
        assert!(
            matches!(&cold, Err(err) if is_deadline(err)),
            "{algorithm} cold: {cold:?}"
        );
        let answered = solver(None).solve(&graph).expect("no deadline");
        assert_eq!(answered.paths.len(), 5, "{algorithm}");
        let warm = solver(Some(Duration::ZERO)).solve(&graph);
        assert!(
            matches!(&warm, Err(err) if is_deadline(err)),
            "{algorithm} warm: {warm:?}"
        );
    }
}

/// Mid-solve cancellation: cancel from another thread while the solver is
/// deep in its inner loops; it must return `DeadlineExceeded` within one
/// checkpoint interval — promptly, not after finishing the solve.
#[test]
fn mid_solve_cancellation_is_prompt() {
    // Big enough that a full solve takes meaningfully longer than the
    // cancellation latency we assert.
    let graph = generate(10, 60, 6, 1, 31);
    let token = CancelToken::new();
    let solver_token = token.clone();
    let handle = std::thread::spawn(move || {
        AlgorithmKind::Bfs
            .build_with_options(
                StableClusterSpec::FullPaths,
                32,
                10,
                SolverOptions::default().cancel_token(Some(solver_token)),
            )
            .expect("build")
            .solve(&graph)
    });
    std::thread::sleep(Duration::from_millis(20));
    let cancelled_at = Instant::now();
    token.cancel();
    let outcome = handle.join().expect("solver must not panic");
    let latency = cancelled_at.elapsed();
    match outcome {
        // The solve may legitimately have finished before the cancel.
        Ok(_) => {}
        Err(err) => {
            assert!(is_deadline(&err), "got {err}");
            assert!(
                latency < Duration::from_secs(2),
                "cancellation took {latency:?} — checkpoints are not firing"
            );
        }
    }
}

/// A TA expansion is a walk over paths, and with all weights equal its bound
/// cuts none of them: 30 · 8⁷ full paths tie here, each found once per edge.
/// The checkpoints inside the walks are what ends such a solve at its
/// deadline — the round loop alone would see the token only between edges.
#[test]
fn a_ta_expansion_honours_the_deadline() {
    let (m, n, d) = (8u32, 30u32, 8u32);
    let mut builder = ClusterGraphBuilder::new(0);
    for _ in 0..m {
        builder.add_interval(n);
    }
    for interval in 1..m {
        for from in 0..n {
            for step in 0..d {
                let to = ClusterNodeId::new(interval, (from + step) % n);
                builder.add_edge(ClusterNodeId::new(interval - 1, from), to, 0.5);
            }
        }
    }
    let graph = builder.build();
    let begun = Instant::now();
    let err = AlgorithmKind::Ta
        .build_with_options(
            StableClusterSpec::FullPaths,
            5,
            graph.num_intervals(),
            SolverOptions::default().deadline(Some(Duration::from_millis(50))),
        )
        .expect("build")
        .solve(&graph)
        .unwrap_err();
    assert!(is_deadline(&err), "expected DeadlineExceeded, got {err}");
    assert!(
        begun.elapsed() < Duration::from_secs(1),
        "a 50 ms deadline was noticed after {:?}",
        begun.elapsed()
    );
}

/// One TA request line used to pin a worker past its deadline: `ta` `full` on
/// the benchmark-sized graph enumerated for minutes with no checkpoint in its
/// expansions. It answers within its deadline now, and what it answers is
/// what BFS answers, weights to the bit.
#[test]
fn ta_full_on_the_benchmark_graph_answers_within_its_deadline() {
    let mut session = Session::engine(EngineConfig::default().workers(1)).unwrap();
    let mut drive = |line: &str| -> bsc_util::json::JsonValue {
        let (response, cont) = session.handle_line(line);
        assert!(cont, "session ended early on {line}");
        bsc_util::json::parse(&response.expect("response expected")).unwrap()
    };
    let loaded = drive(
        "{\"op\":\"load\",\"num_intervals\":12,\"nodes_per_interval\":300,\"avg_out_degree\":5,\"gap\":1,\"seed\":7}",
    );
    assert_eq!(loaded.get("nodes").unwrap().as_u64(), Some(3600));
    let begun = Instant::now();
    let ta = drive(
        "{\"op\":\"query\",\"algorithm\":\"ta\",\"spec\":\"full\",\"k\":5,\"deadline_ms\":5000}",
    );
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "{:?}",
        begun.elapsed()
    );
    let bfs = drive("{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"full\",\"k\":5}");
    assert_eq!(ta.get("ok").unwrap().as_bool(), Some(true), "{ta:?}");
    let paths = ta.get("paths").unwrap();
    assert_eq!(paths.as_array().map(|paths| paths.len()), Some(5));
    assert_eq!(Some(paths), bfs.get("paths"));
}

/// Entry point 3: the serve protocol. Engine and oracle sessions answer an
/// expired `deadline_ms` with byte-identical error responses, and answer a
/// far-future `deadline_ms` byte-identically to the no-deadline query.
#[test]
fn serve_sessions_answer_deadlines_byte_identically() {
    let mut engine = Session::engine(EngineConfig::default().workers(2)).unwrap();
    let mut oracle = Session::oracle();
    let load =
        "{\"op\":\"load\",\"num_intervals\":5,\"nodes_per_interval\":10,\"avg_out_degree\":3,\"gap\":1,\"seed\":42}";
    let expired =
        "{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"exact:2\",\"k\":4,\"deadline_ms\":0}";
    let generous =
        "{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"exact:2\",\"k\":4,\"deadline_ms\":3600000}";
    let plain = "{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"exact:2\",\"k\":4}";
    let drive = |session: &mut Session, line: &str| -> String {
        let (response, cont) = session.handle_line(line);
        assert!(cont, "session ended early on {line}");
        response.expect("response expected")
    };
    for line in [load, expired, generous, plain] {
        let from_engine = drive(&mut engine, line);
        let from_oracle = drive(&mut oracle, line);
        assert_eq!(from_engine, from_oracle, "diverged on {line}");
    }
    let expired_response = drive(&mut engine, expired);
    assert!(
        expired_response.contains("\"ok\":false") && expired_response.contains("deadline exceeded"),
        "expected a deadline error: {expired_response}"
    );
    let generous_response = drive(&mut engine, generous);
    let plain_response = drive(&mut engine, plain);
    assert_eq!(
        generous_response, plain_response,
        "a far-future deadline must not change a byte of the answer"
    );
    // The engine's stats count the deadline hits (the oracle has no
    // counters — its stats response only names its mode).
    let stats = drive(&mut engine, "{\"op\":\"stats\"}");
    let doc = bsc_util::json::parse(&stats).unwrap();
    assert!(doc.get("deadline_hits").unwrap().as_u64().unwrap() >= 2);
}

/// Entry point 4: the distributed coordinator. An expired deadline is
/// answered locally (no worker round-trip: zero solves on the fleet); a
/// generous one fans out and answers byte-identically to the local solve.
#[test]
fn coordinator_honors_deadlines() {
    blogstable::cluster::install_transport();
    let graph = generate(8, 12, 3, 1, 4242);
    let m = graph.num_intervals();
    let handles: Vec<WorkerHandle> = (0..2)
        .map(|_| {
            WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
                .expect("bind worker")
                .spawn()
        })
        .collect();
    let fanout = FanoutSpec::new(handles.iter().map(|h| h.addr().to_string()).collect())
        .expect("worker set");

    let err = AlgorithmKind::Bfs
        .build_with_options(
            StableClusterSpec::ExactLength(3),
            5,
            m,
            SolverOptions::default()
                .fanout(Some(fanout.clone()))
                .deadline(Some(Duration::ZERO)),
        )
        .expect("build")
        .solve(&graph)
        .unwrap_err();
    assert!(is_deadline(&err), "got {err}");
    let fleet_solves: u64 = handles.iter().map(|h| h.solves()).sum();
    assert_eq!(
        fleet_solves, 0,
        "an expired deadline must not reach the workers"
    );

    let expected = AlgorithmKind::Bfs
        .build(StableClusterSpec::ExactLength(3), 5, m)
        .expect("local build")
        .solve(&graph)
        .expect("local solve")
        .paths;
    let distributed = AlgorithmKind::Bfs
        .build_with_options(
            StableClusterSpec::ExactLength(3),
            5,
            m,
            SolverOptions::default()
                .fanout(Some(fanout))
                .deadline(Some(Duration::from_secs(3600))),
        )
        .expect("build")
        .solve(&graph)
        .expect("distributed solve under a generous deadline")
        .paths;
    assert_eq!(expected.len(), distributed.len());
    for (a, b) in expected.iter().zip(distributed.iter()) {
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.weight().to_bits(), b.weight().to_bits());
    }
    drop(handles);
}

/// The reference oracle solver honors cancellation too, so serve-vs-oracle
/// comparisons stay fair under deadlines.
#[test]
fn exhaustive_oracle_fails_fast_on_an_expired_deadline() {
    let graph = generate(5, 8, 2, 0, 3);
    let err = ExhaustiveSolver::new(StableClusterSpec::ExactLength(2), 3)
        .with_cancel(Some(CancelToken::after(Duration::ZERO)))
        .solve(&graph)
        .unwrap_err();
    assert!(is_deadline(&err), "got {err}");
}
