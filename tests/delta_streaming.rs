//! Incremental-solve conformance (ISSUE 10): an engine fed by incremental
//! snapshot installs must answer every query **byte-identically** to a
//! cold one-shot solve of the same materialized graph — the delta path
//! (solve the windows the appends added, merge them with the previous
//! epoch's answer) is an optimization, never a semantic.
//!
//! The matrix: randomized ingest schedules (4 `DetRng` seeds) × all five
//! algorithms × {memory, logfile, blockcache} backends × shard counts
//! {1, 3}, with checkpoints mid-ingest so later queries actually have a
//! prior epoch's answer to merge from. Also covered: queries whose
//! deadline expires mid-ingest (clean `DeadlineExceeded`, no poisoned
//! state), and fault-injected backends (byte-identical when the fault
//! schedule is dodged, the injected error otherwise).
//!
//! A resident answer carries the graph it was solved on, and whether a
//! later query may merge from it is proven from that graph and the queried
//! one, when it is used: the queried graph must extend it by appends only.
//! Three rows hold what follows from that: a fanned-out query merges on the
//! coordinator and dispatches only the windows the appends added; an answer
//! sleeps through any number of ingests and is still merged from; and a
//! graph installed incrementally that shares no segment with its
//! predecessor is compared by content — an equal prefix is merged from, a
//! changed interval solves cold.

use std::time::Duration;

use blogstable::cluster::{WorkerConfig, WorkerHandle, WorkerServer};
use blogstable::core::distributed::FanoutSpec;
use blogstable::core::problem::StableClusterSpec;
use blogstable::core::solver::AlgorithmKind;
use blogstable::prelude::*;
use bsc_util::DetRng;

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

/// Push one randomly shaped interval: 3–6 nodes, each wired to every
/// in-gap predecessor node with probability ½ and a weight in `(0, 1]`
/// (the ingest contract — weights outside it panic).
fn push_random_interval(
    online: &mut OnlineStableClusters,
    rng: &mut DetRng,
    gap: u32,
    nodes_per_interval: &mut Vec<u32>,
) {
    let interval = nodes_per_interval.len() as u32;
    let nodes = 3 + rng.below(4) as u32;
    let mut parent_edges: Vec<Vec<(ClusterNodeId, f64)>> = (0..nodes).map(|_| Vec::new()).collect();
    let reach = gap + 1;
    for (node, edges) in parent_edges.iter_mut().enumerate() {
        let _ = node;
        for parent_interval in interval.saturating_sub(reach)..interval {
            for parent in 0..nodes_per_interval[parent_interval as usize] {
                if rng.chance(0.5) {
                    let weight = (rng.below(1000) + 1) as f64 / 1000.0;
                    edges.push((ClusterNodeId::new(parent_interval, parent), weight));
                }
            }
        }
    }
    nodes_per_interval.push(nodes);
    online.push_interval(parent_edges);
}

/// Every (algorithm, spec, backend, shards) combination under test — the
/// same matrix as the query-service conformance suite: TA only
/// materializes full paths unsharded, and the normalized solver (Problem
/// 2) does not decompose across shards (or epochs — it always re-solves).
fn combos() -> Vec<(AlgorithmKind, StableClusterSpec, StorageSpec, usize)> {
    let kinds = [
        AlgorithmKind::Bfs,
        AlgorithmKind::Dfs,
        AlgorithmKind::Ta,
        AlgorithmKind::Normalized,
        AlgorithmKind::Auto { budget_bytes: None },
    ];
    let mut combos = Vec::new();
    for kind in kinds {
        for backend in [
            StorageSpec::Memory,
            StorageSpec::LogFile,
            StorageSpec::BlockCache { budget_bytes: 4096 },
        ] {
            for shards in [1usize, 3] {
                let spec = match kind {
                    AlgorithmKind::Normalized => {
                        if shards > 1 {
                            continue;
                        }
                        StableClusterSpec::Normalized { l_min: 2 }
                    }
                    AlgorithmKind::Ta if shards == 1 => StableClusterSpec::FullPaths,
                    _ => StableClusterSpec::ExactLength(2),
                };
                combos.push((kind, spec, backend, shards));
            }
        }
    }
    combos
}

fn request(
    kind: AlgorithmKind,
    spec: StableClusterSpec,
    backend: StorageSpec,
    shards: usize,
) -> QueryRequest {
    QueryRequest::new(kind, spec, 5)
        .options(SolverOptions::default().storage(backend).shards(shards))
}

/// The cold reference: a fresh one-shot solver over the same graph with
/// the same options — no cache, no deltas, no prior epoch.
fn cold_solve(
    graph: &ClusterGraph,
    kind: AlgorithmKind,
    spec: StableClusterSpec,
    backend: StorageSpec,
    shards: usize,
) -> Vec<ClusterPath> {
    kind.build_with_options(
        spec,
        5,
        graph.num_intervals(),
        SolverOptions::default().storage(backend).shards(shards),
    )
    .expect("build cold solver")
    .solve(graph)
    .expect("cold solve")
    .paths
}

#[test]
fn incremental_engine_matches_cold_solves_across_random_ingest() {
    for seed in [11u64, 12, 13, 14] {
        let mut rng = DetRng::seed_from_u64(seed);
        let gap = 1;
        let mut online = OnlineStableClusters::new(KlStableParams::new(5, 2), gap);
        let mut nodes_per_interval = Vec::new();
        let engine = QueryEngine::new(EngineConfig::default().workers(2)).expect("engine starts");
        let mut spliced_anywhere = false;
        for round in 0..9 {
            push_random_interval(&mut online, &mut rng, gap, &mut nodes_per_interval);
            let snapshot = engine.install_incremental(online.snapshot());
            // Query checkpoints: early (few windows), mid, and final — the
            // later ones have resident answers to merge from.
            if !matches!(round, 3 | 6 | 8) {
                continue;
            }
            let graph = snapshot.graph();
            for (kind, spec, backend, shards) in combos() {
                let context =
                    format!("seed={seed} round={round} {kind} {spec} {backend} shards={shards}");
                let expected = cold_solve(graph, kind, spec, backend, shards);
                let response = engine
                    .query(request(kind, spec, backend, shards))
                    .unwrap_or_else(|e| panic!("{context}: engine failed: {e}"));
                assert_eq!(response.epoch, snapshot.epoch(), "{context}");
                assert_identical(&expected, &response.solution.paths, &context);
                let stats = response.solution.stats;
                if stats.windows_spliced > 0 {
                    spliced_anywhere = true;
                    // A merged solve did strictly less than a full
                    // windowed re-solve.
                    let total = graph.num_intervals() as u64 - 2;
                    assert!(
                        stats.windows_resolved < total,
                        "{context}: spliced yet resolved all {total} windows"
                    );
                }
            }
        }
        assert!(
            spliced_anywhere,
            "seed={seed}: no query ever spliced — the delta path never engaged"
        );
    }
}

#[test]
fn a_fanned_out_query_splices_on_the_coordinator_and_dispatches_only_what_it_resolves() {
    blogstable::cluster::install_transport();
    let workers: Vec<WorkerHandle> = (0..2)
        .map(|_| {
            WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
                .expect("bind worker")
                .spawn()
        })
        .collect();
    let fanout = FanoutSpec::new(workers.iter().map(|w| w.addr().to_string()).collect());
    let options = SolverOptions::default().fanout(fanout);
    let window_rpcs = || workers.iter().map(WorkerHandle::solves).sum::<u64>();

    let mut rng = DetRng::seed_from_u64(23);
    let gap = 1;
    let mut online = OnlineStableClusters::new(KlStableParams::new(5, 2), gap);
    let mut nodes_per_interval = Vec::new();
    let engine = QueryEngine::new(EngineConfig::default().workers(2)).expect("engine starts");
    for round in 0..9 {
        push_random_interval(&mut online, &mut rng, gap, &mut nodes_per_interval);
        let snapshot = engine.install_incremental(online.snapshot());
        let expected = cold_solve(
            snapshot.graph(),
            AlgorithmKind::Bfs,
            StableClusterSpec::ExactLength(2),
            StorageSpec::LogFile,
            1,
        );
        let before = window_rpcs();
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 5);
        let response = engine
            .query(request.options(options.clone()))
            .expect("fanned-out query");
        assert_identical(
            &expected,
            &response.solution.paths,
            &format!("round {round}"),
        );
        let stats = response.solution.stats;
        // Every window the carried answer did not stand for went over the
        // wire, and no other did.
        assert_eq!(
            window_rpcs() - before,
            stats.windows_resolved,
            "round {round}"
        );
        let starts = (round as u64 + 1).saturating_sub(2);
        assert_eq!(
            stats.windows_resolved + stats.windows_spliced,
            starts,
            "round {round}"
        );
        // With l = 2 the pushed interval ends exactly one window; once an
        // earlier answer is resident, it stands for every other window.
        if round >= 3 {
            assert_eq!(stats.windows_resolved, 1, "round {round}");
        }
    }
}

#[test]
fn a_resident_window_result_still_splices_after_twenty_unqueried_ingests() {
    let mut rng = DetRng::seed_from_u64(29);
    let gap = 1;
    let mut online = OnlineStableClusters::new(KlStableParams::new(5, 2), gap);
    let mut nodes_per_interval = Vec::new();
    let engine = QueryEngine::new(EngineConfig::default().workers(1)).expect("engine starts");
    let query = || {
        engine
            .query(request(
                AlgorithmKind::Bfs,
                StableClusterSpec::ExactLength(2),
                StorageSpec::Memory,
                1,
            ))
            .expect("query")
    };
    for _ in 0..6 {
        push_random_interval(&mut online, &mut rng, gap, &mut nodes_per_interval);
        engine.install_incremental(online.snapshot());
    }
    let seeded = query().solution.stats;
    assert_eq!((seeded.windows_resolved, seeded.windows_spliced), (4, 0));
    let mut snapshot = None;
    for _ in 0..20 {
        push_random_interval(&mut online, &mut rng, gap, &mut nodes_per_interval);
        snapshot = Some(engine.install_incremental(online.snapshot()));
    }
    let snapshot = snapshot.expect("installed");
    let response = query();
    let expected = cold_solve(
        snapshot.graph(),
        AlgorithmKind::Bfs,
        StableClusterSpec::ExactLength(2),
        StorageSpec::Memory,
        1,
    );
    assert_identical(&expected, &response.solution.paths, "20 ingests later");
    // The answer solved 20 epochs ago still stands for its four windows:
    // what the entry was solved on is a prefix of what is queried, sharing
    // its segments however many installs lie between.
    let stats = response.solution.stats;
    assert_eq!((stats.windows_resolved, stats.windows_spliced), (20, 4));
}

#[test]
fn a_graph_that_shares_no_segment_is_compared_by_content() {
    let graph = |last_weight: f64, intervals: u32| {
        let mut builder = ClusterGraphBuilder::new(0);
        for _ in 0..intervals {
            builder.add_interval(2);
        }
        for t in 1..intervals {
            for (from, to, weight) in [(0, 0, 0.5), (1, 0, 0.25), (1, 1, 0.75)] {
                let weight = if t == 5 { last_weight } else { weight };
                builder.add_edge(
                    ClusterNodeId::new(t - 1, from),
                    ClusterNodeId::new(t, to),
                    weight,
                );
            }
        }
        builder.build()
    };
    let engine = QueryEngine::new(EngineConfig::default().workers(1)).expect("engine starts");
    let query = |installed: &ClusterGraph, context: &str| {
        let response = engine
            .query(request(
                AlgorithmKind::Bfs,
                StableClusterSpec::ExactLength(2),
                StorageSpec::Memory,
                1,
            ))
            .expect("query");
        let expected = cold_solve(
            installed,
            AlgorithmKind::Bfs,
            StableClusterSpec::ExactLength(2),
            StorageSpec::Memory,
            1,
        );
        assert_identical(&expected, &response.solution.paths, context);
        let stats = response.solution.stats;
        (stats.windows_resolved, stats.windows_spliced)
    };
    // Three builds of their own, one allocation never in two of them.
    let first = graph(0.5, 6);
    engine.install_incremental(GraphSnapshot::new(first.clone()));
    assert_eq!(query(&first, "first"), (4, 0));
    // Equal content, one interval more: only the window ending there runs.
    let longer = graph(0.5, 7);
    assert!((0..6).all(|i| !first.shares_in_edges(&longer, i)));
    engine.install_incremental(GraphSnapshot::new(longer.clone()));
    assert_eq!(query(&longer, "longer"), (1, 4));
    // Interval 5's weights changed: the resident graph is not a prefix of
    // this one, so nothing is carried and all five windows run.
    let changed = graph(0.625, 7);
    engine.install_incremental(GraphSnapshot::new(changed.clone()));
    assert_eq!(query(&changed, "changed"), (5, 0));
}

#[test]
fn mid_ingest_deadline_expiry_is_clean_and_state_survives() {
    let mut rng = DetRng::seed_from_u64(41);
    let gap = 1;
    let mut online = OnlineStableClusters::new(KlStableParams::new(5, 2), gap);
    let mut nodes_per_interval = Vec::new();
    let engine = QueryEngine::new(EngineConfig::default().workers(2)).expect("engine starts");
    for _ in 0..4 {
        push_random_interval(&mut online, &mut rng, gap, &mut nodes_per_interval);
        engine.install_incremental(online.snapshot());
    }
    // Warm the cached answer, then expire a query mid-ingest.
    let warm = request(
        AlgorithmKind::Bfs,
        StableClusterSpec::ExactLength(2),
        StorageSpec::Memory,
        1,
    );
    engine.query(warm).expect("warm query");
    push_random_interval(&mut online, &mut rng, gap, &mut nodes_per_interval);
    engine.install_incremental(online.snapshot());
    let expired = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 5)
        .options(SolverOptions::default().deadline(Some(Duration::ZERO)));
    let err = engine.query(expired).expect_err("expired deadline");
    assert!(
        matches!(err, BscError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err}"
    );
    // The failure poisoned nothing: further ingest and queries still
    // match cold solves byte-for-byte (and the delta path still engages).
    push_random_interval(&mut online, &mut rng, gap, &mut nodes_per_interval);
    let snapshot = engine.install_incremental(online.snapshot());
    let graph = snapshot.graph();
    let expected = cold_solve(
        graph,
        AlgorithmKind::Bfs,
        StableClusterSpec::ExactLength(2),
        StorageSpec::Memory,
        1,
    );
    let response = engine
        .query(request(
            AlgorithmKind::Bfs,
            StableClusterSpec::ExactLength(2),
            StorageSpec::Memory,
            1,
        ))
        .expect("query after expiry");
    assert_identical(&expected, &response.solution.paths, "after expiry");
    assert!(
        response.solution.stats.windows_spliced > 0,
        "the delta path should still engage after a failed query"
    );
}

#[test]
fn fault_injected_backends_answer_identically_or_fail_cleanly() {
    let mut rng = DetRng::seed_from_u64(97);
    let gap = 1;
    let mut online = OnlineStableClusters::new(KlStableParams::new(5, 2), gap);
    let mut nodes_per_interval = Vec::new();
    let engine = QueryEngine::new(EngineConfig::default().workers(2)).expect("engine starts");
    let mut snapshot = None;
    for _ in 0..6 {
        push_random_interval(&mut online, &mut rng, gap, &mut nodes_per_interval);
        snapshot = Some(engine.install_incremental(online.snapshot()));
    }
    let snapshot = snapshot.expect("installed");
    let graph = snapshot.graph();
    let expected = cold_solve(
        graph,
        AlgorithmKind::Dfs,
        StableClusterSpec::ExactLength(2),
        StorageSpec::Memory,
        1,
    );
    let mut injected = 0u64;
    let mut clean = 0u64;
    for round in 0..8u64 {
        // Alternate tight and loose schedules: a 1-in-3 fault rate is all
        // but certain to fire on a multi-operation solve, a 1-in-500 rate
        // all but certain to be dodged — so both halves of the check run.
        // Seeds are fixed, so the split is deterministic either way.
        let storage = StorageSpec::Fault {
            seed: 1000 + round,
            every: if round % 2 == 0 { 3 } else { 500 },
            inner: FaultInner::LogFile,
        };
        let outcome = engine.query(
            QueryRequest::new(AlgorithmKind::Dfs, StableClusterSpec::ExactLength(2), 5)
                .options(SolverOptions::default().storage(storage)),
        );
        match outcome {
            Ok(response) => {
                assert_identical(
                    &expected,
                    &response.solution.paths,
                    &format!("fault round {round}"),
                );
                clean += 1;
            }
            Err(error) => {
                assert!(
                    error.to_string().contains("injected storage fault"),
                    "round {round}: expected the injected fault, got: {error}"
                );
                injected += 1;
            }
        }
    }
    assert!(
        injected > 0,
        "the fault schedule never fired — the check is vacuous"
    );
    assert!(
        clean > 0,
        "every round faulted — the equivalence half never ran"
    );
}
