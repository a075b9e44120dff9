//! Distributed fan-out conformance: running the shard windows on worker
//! *processes* must never change a single bit of the answer.
//!
//! The acceptance bar mirrors `sharded_solve.rs`: byte-identical
//! [`Solution`] paths (node sequences *and* `f64` weight bits) for worker
//! counts ∈ {1, 2, 3, 8} × every storage backend, compared against the
//! in-process [`ShardedSolver`] — including while a worker is killed
//! mid-solve (the coordinator re-dispatches its windows), and a clean
//! [`BscError::Cluster`] (never a hang) when every worker is down.
//!
//! Workers here are in-process [`WorkerServer`]s on 127.0.0.1 ephemeral
//! ports: real TCP, real wire codecs, real failover — one process, so the
//! test stays hermetic. `crates/service/tests/distributed_serve.rs` runs
//! the same story across actual OS processes, and the CI `distributed` job
//! diffs coordinator transcripts against single-process output.

use blogstable::cluster::{WorkerConfig, WorkerHandle, WorkerServer};
use blogstable::core::distributed::FanoutSpec;
use blogstable::core::solver::AlgorithmKind;
use blogstable::core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
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

fn spawn_workers(count: usize, config: WorkerConfig) -> (Vec<WorkerHandle>, FanoutSpec) {
    let handles: Vec<WorkerHandle> = (0..count)
        .map(|_| {
            WorkerServer::bind("127.0.0.1:0", config.clone())
                .expect("bind worker")
                .spawn()
        })
        .collect();
    let spec = FanoutSpec::new(handles.iter().map(|h| h.addr().to_string()).collect())
        .expect("nonempty worker set");
    (handles, spec)
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

/// The acceptance matrix: worker counts {1, 2, 3, 8} × all three storage
/// backends × BFS/DFS × subpath and full-path specs, byte-identical to the
/// in-process sharded solve of the same query.
#[test]
fn distributed_solutions_are_byte_identical_across_workers_and_backends() {
    blogstable::cluster::install_transport();
    let graph = generate(9, 12, 3, 1, 4242);
    let m = graph.num_intervals();
    // One fleet of 8; prefixes of it give the smaller worker counts.
    let (handles, full_spec) = spawn_workers(8, WorkerConfig::default());
    for (kind, spec, l) in [
        (AlgorithmKind::Bfs, StableClusterSpec::ExactLength(3), 3),
        (
            AlgorithmKind::Bfs,
            StableClusterSpec::FullPaths,
            m as u32 - 1,
        ),
        (AlgorithmKind::Dfs, StableClusterSpec::ExactLength(4), 4),
    ] {
        let mut reference = ShardedSolver::new(kind, spec, 5, SolverOptions::default().shards(3))
            .expect("sharded reference");
        let expected = reference.solve(&graph).expect("sharded solve").paths;
        assert!(!expected.is_empty(), "{kind} {spec:?}: trivial workload");
        for storage in StorageSpec::ALL {
            for workers in [1usize, 2, 3, 8] {
                let fanout =
                    FanoutSpec::new(full_spec.workers[..workers].to_vec()).expect("prefix");
                let options = SolverOptions::default()
                    .storage(storage)
                    .fanout(Some(fanout));
                let mut solver = kind
                    .build_with_options(spec, 5, m, options)
                    .expect("distributed build");
                let solution = solver.solve(&graph).expect("distributed solve");
                assert_identical(
                    &expected,
                    &solution.paths,
                    &format!("{kind} {spec:?} {storage} workers={workers}"),
                );
                let starts = m - l as usize;
                assert_eq!(
                    solution.stats.shards,
                    workers.min(starts),
                    "stats must report the fan-out width"
                );
            }
        }
    }
    drop(handles);
}

/// The full corpus pipeline with a fan-out worker set produces the same
/// stable paths as the purely local pipeline.
#[test]
fn fanned_out_pipeline_matches_the_local_pipeline() {
    blogstable::cluster::install_transport();
    let (handles, fanout) = spawn_workers(3, WorkerConfig::default());
    let corpus = SyntheticBlogosphere::new(SyntheticConfig::small()).generate();
    let baseline = Pipeline::new(PipelineParams::default().exact_length(2))
        .expect("valid baseline params")
        .run(&corpus)
        .expect("baseline pipeline");
    let distributed = Pipeline::new(
        PipelineParams::default()
            .exact_length(2)
            .fanout(Some(fanout)),
    )
    .expect("valid distributed params")
    .run(&corpus)
    .expect("distributed pipeline");
    assert_identical(
        &baseline.stable_paths,
        &distributed.stable_paths,
        "pipeline fan-out",
    );
    drop(handles);
}

/// Fault injection: one worker drops its connection mid-solve (no response,
/// no shutdown handshake — indistinguishable from `kill -9`). The
/// coordinator must re-dispatch its windows and still produce the
/// byte-identical answer.
#[test]
fn worker_killed_mid_solve_is_redispatched_byte_identically() {
    blogstable::cluster::install_transport();
    let graph = generate(10, 12, 3, 1, 99);
    let spec = StableClusterSpec::ExactLength(3);
    let mut reference = ShardedSolver::new(
        AlgorithmKind::Bfs,
        spec,
        6,
        SolverOptions::default().shards(3),
    )
    .expect("sharded reference");
    let expected = reference.solve(&graph).expect("sharded solve").paths;

    // The dying worker answers two solves, then drops the connection with
    // no response and stops accepting — mid-fan-out, since every worker
    // gets more than two windows here.
    let dying = WorkerServer::bind(
        "127.0.0.1:0",
        WorkerConfig {
            die_after_solves: Some(2),
        },
    )
    .expect("bind dying worker")
    .spawn();
    let (healthy, _) = spawn_workers(2, WorkerConfig::default());
    let mut addrs = vec![dying.addr().to_string()];
    addrs.extend(healthy.iter().map(|h| h.addr().to_string()));
    let fanout = FanoutSpec::new(addrs).expect("worker set");

    let mut solver = AlgorithmKind::Bfs
        .build_with_options(
            spec,
            6,
            graph.num_intervals(),
            SolverOptions::default().fanout(Some(fanout)),
        )
        .expect("distributed build");
    let solution = solver.solve(&graph).expect("survives the worker death");
    assert_identical(&expected, &solution.paths, "fault-injected fan-out");
    drop(healthy);
    drop(dying);
}

/// Two engines in one process each publish a different graph as epoch 1 and
/// query it through the same worker set, so through one pooled client: each
/// is answered from its own graph. A fan-out names a graph by the graph
/// value; an epoch is unique only within one engine's snapshot cell.
#[test]
fn two_engines_at_one_epoch_are_each_answered_from_their_own_graph() {
    blogstable::cluster::install_transport();
    let (handles, fanout) = spawn_workers(2, WorkerConfig::default());
    let spec = StableClusterSpec::ExactLength(2);
    let graphs = [generate(6, 12, 3, 0, 11), generate(6, 12, 3, 0, 12)];
    let local: Vec<Vec<ClusterPath>> = graphs
        .iter()
        .map(|graph| {
            let mut bfs = AlgorithmKind::Bfs.build(spec, 4, 6).expect("bfs");
            bfs.solve(graph).expect("local solve").paths
        })
        .collect();
    assert_ne!(local[0], local[1], "the graphs must answer differently");
    let engines: Vec<QueryEngine> = graphs
        .iter()
        .map(|graph| {
            let engine = QueryEngine::new(EngineConfig::default()).expect("engine starts");
            assert_eq!(engine.install_graph(graph.clone()).epoch(), 1);
            engine
        })
        .collect();
    let query = QueryRequest::new(AlgorithmKind::Bfs, spec, 4)
        .options(SolverOptions::default().fanout(Some(fanout)));
    for (i, (engine, expected)) in engines.iter().zip(&local).enumerate() {
        let response = engine.query(query.clone()).expect("fanned-out query");
        assert_eq!(response.epoch, 1);
        assert_identical(expected, &response.solution.paths, &format!("engine {i}"));
    }
    drop(handles);
}

/// A worker connection is shipped a graph once however often the graph is
/// solved, and a clone of it — a new graph value — is shipped again.
#[test]
fn a_graph_is_shipped_once_per_connection_and_its_clone_again() {
    blogstable::cluster::install_transport();
    let (handles, fanout) = spawn_workers(2, WorkerConfig::default());
    let graph = generate(6, 12, 3, 0, 21);
    let mut solver = AlgorithmKind::Bfs
        .build_with_options(
            StableClusterSpec::ExactLength(2),
            4,
            graph.num_intervals(),
            SolverOptions::default().fanout(Some(fanout)),
        )
        .expect("distributed build");
    let mut installs = Vec::new();
    for graph in [&graph, &graph, &graph.clone()] {
        solver.solve(graph).expect("distributed solve");
        installs.push(handles.iter().map(WorkerHandle::installs).sum::<u64>());
    }
    assert_eq!(installs, [2, 2, 4], "summed installs after each solve");
}

/// Every worker down: a clean `BscError::Cluster` naming the exhaustion,
/// never a hang or a panic.
#[test]
fn all_workers_down_is_a_clean_error_not_a_hang() {
    blogstable::cluster::install_transport();
    let (mut handles, fanout) = spawn_workers(2, WorkerConfig::default());
    for handle in &mut handles {
        handle.kill();
    }
    let graph = generate(6, 8, 2, 0, 5);
    let started = std::time::Instant::now();
    let err = AlgorithmKind::Bfs
        .build_with_options(
            StableClusterSpec::ExactLength(2),
            3,
            graph.num_intervals(),
            SolverOptions::default().fanout(Some(fanout)),
        )
        .expect("build succeeds; failure surfaces at solve time")
        .solve(&graph)
        .unwrap_err();
    assert!(
        matches!(err, BscError::Cluster(_)),
        "expected a Cluster error, got {err}"
    );
    assert!(err.to_string().contains("workers exhausted"), "{err}");
    // "Fail, don't hang": bounded retry with backoff, well under a minute.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(60),
        "exhaustion took {:?}",
        started.elapsed()
    );
}

/// Problem 2 does not decompose across start intervals; a fan-out request
/// for it is rejected up front, at parameter validation.
#[test]
fn normalized_fanout_is_rejected_at_validation() {
    let (_handles, fanout) = spawn_workers(1, WorkerConfig::default());
    let err =
        Pipeline::new(PipelineParams::default().normalized(2).fanout(Some(fanout))).unwrap_err();
    assert!(
        matches!(
            err,
            BscError::Unsupported {
                algorithm: "distributed",
                ..
            }
        ),
        "{err}"
    );
}
