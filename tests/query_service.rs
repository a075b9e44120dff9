//! Query-service conformance: the long-lived engine must answer every query
//! **byte-identically** to the one-shot `Pipeline::run` on the same graph.
//!
//! The acceptance bar (ISSUE 5): for every algorithm × storage backend ×
//! shard count {1, 3}, the engine's paths equal the pipeline's paths in
//! node sequences *and* `f64` weight bits — including under ≥ 4 concurrent
//! mixed-algorithm queries sharing one snapshot, and across a mid-stream
//! epoch swap (queries admitted before the swap answer against their pinned
//! epoch; queries admitted after answer against the new one).

use blogstable::core::problem::StableClusterSpec;
use blogstable::core::solver::AlgorithmKind;
use blogstable::prelude::*;
use blogstable::service::engine::EngineConfig;

fn small_corpus(seed: u64) -> blogstable::corpus::synthetic::GeneratedCorpus {
    SyntheticBlogosphere::new(SyntheticConfig::small().with_seed(seed)).generate()
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

/// Every (algorithm, spec, backend, shards) combination under test. The
/// spec is chosen per algorithm: TA only materializes full paths unsharded
/// (inside per-start windows every exact-length query is full-length, so
/// sharded TA serves the subpath query); the normalized solver answers
/// Problem 2 and does not decompose across shards.
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
        for backend in StorageSpec::ALL {
            for shards in [1usize, 3] {
                let spec = match kind {
                    AlgorithmKind::Normalized => {
                        if shards > 1 {
                            continue; // Problem 2 does not decompose
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

fn pipeline_params(
    kind: AlgorithmKind,
    spec: StableClusterSpec,
    backend: StorageSpec,
    shards: usize,
) -> PipelineParams {
    let params = PipelineParams::default()
        .algorithm(kind)
        .storage(backend)
        .shards(shards);
    match spec {
        StableClusterSpec::FullPaths => params.full_paths(),
        StableClusterSpec::ExactLength(l) => params.exact_length(l),
        StableClusterSpec::Normalized { l_min } => params.normalized(l_min),
    }
}

fn request(
    kind: AlgorithmKind,
    spec: StableClusterSpec,
    backend: StorageSpec,
    shards: usize,
) -> QueryRequest {
    QueryRequest::new(kind, spec, 10)
        .options(SolverOptions::default().storage(backend).shards(shards))
}

#[test]
fn engine_matches_pipeline_for_every_algorithm_backend_and_shard_count() {
    let corpus = small_corpus(7);
    let engine = QueryEngine::new(EngineConfig::default().workers(2)).expect("engine starts");
    let mut installed_epoch = None;
    for (kind, spec, backend, shards) in combos() {
        let context = format!("{kind} {spec} {backend} shards={shards}");
        let outcome = Pipeline::new(pipeline_params(kind, spec, backend, shards))
            .expect("valid params")
            .run(&corpus)
            .unwrap_or_else(|e| panic!("{context}: pipeline failed: {e}"));
        // The graph construction half is identical for every combination
        // (solver-stage knobs never change the graph); install it once and
        // serve every query from that single resident snapshot.
        if installed_epoch.is_none() {
            let snapshot = engine.install(outcome.cluster_graph.clone());
            assert!(
                snapshot.vocabulary().is_some(),
                "run() attaches the vocabulary"
            );
            installed_epoch = Some(snapshot.epoch());
        }
        let response = engine
            .query(request(kind, spec, backend, shards))
            .unwrap_or_else(|e| panic!("{context}: engine failed: {e}"));
        assert_eq!(Some(response.epoch), installed_epoch, "{context}");
        assert_identical(&outcome.stable_paths, &response.solution.paths, &context);
    }
    let stats = engine.stats();
    assert_eq!(stats.queries, combos().len() as u64);
    assert_eq!(stats.errors, 0);
}

#[test]
fn concurrent_mixed_algorithm_storm_is_byte_identical() {
    let corpus = small_corpus(7);
    // More in-flight queries than workers, workers > 1: genuinely
    // concurrent mixed-algorithm execution against one shared snapshot.
    let engine = QueryEngine::new(
        EngineConfig::default()
            .workers(4)
            .queue_capacity(128)
            .cache_capacity(0), // force every query to actually solve
    )
    .expect("engine starts");

    let mut expectations = Vec::new();
    for (kind, spec, backend, shards) in combos() {
        let outcome = Pipeline::new(pipeline_params(kind, spec, backend, shards))
            .expect("valid params")
            .run(&corpus)
            .expect("pipeline run");
        if expectations.is_empty() {
            engine.install(outcome.cluster_graph.clone());
        }
        expectations.push(((kind, spec, backend, shards), outcome.stable_paths));
    }

    // Two interleaved rounds of everything, submitted up front so the queue
    // stays saturated with mixed algorithms while the pool drains it.
    let mut tickets = Vec::new();
    for round in 0..2 {
        for ((kind, spec, backend, shards), _) in &expectations {
            let ticket = engine
                .submit(request(*kind, *spec, *backend, *shards))
                .expect("admission");
            tickets.push((round, (*kind, *spec, *backend, *shards), ticket));
        }
    }
    assert!(
        tickets.len() >= 4,
        "storm must exceed the concurrency requirement"
    );
    for (round, combo, ticket) in tickets {
        let (kind, spec, backend, shards) = combo;
        let context = format!("round {round}: {kind} {spec} {backend} shards={shards}");
        let response = ticket.wait().unwrap_or_else(|e| panic!("{context}: {e}"));
        let expected = &expectations
            .iter()
            .find(|(c, _)| *c == combo)
            .expect("expectation recorded")
            .1;
        assert_identical(expected, &response.solution.paths, &context);
        // The cache is disabled, so every query — round 1 repeats round 0
        // exactly — runs its own solve.
        assert!(!response.cached, "{context}: the cache was disabled");
    }
    let stats = engine.stats();
    assert_eq!(stats.cache.hits, 0, "cache was disabled");
    assert_eq!(
        stats.queries,
        stats.cache.hits + stats.solve.count() + stats.errors,
        "every query is a cache hit, a solve or an error"
    );
}

#[test]
fn epoch_swap_mid_stream_pins_in_flight_queries_and_retargets_new_ones() {
    let corpus_a = small_corpus(7);
    let corpus_b = small_corpus(99);
    let engine = QueryEngine::new(
        EngineConfig::default()
            .workers(2)
            .queue_capacity(128)
            .cache_capacity(16),
    )
    .expect("engine starts");

    let combo_subset: Vec<(AlgorithmKind, StableClusterSpec, StorageSpec, usize)> = vec![
        (
            AlgorithmKind::Bfs,
            StableClusterSpec::ExactLength(2),
            StorageSpec::Memory,
            1,
        ),
        (
            AlgorithmKind::Dfs,
            StableClusterSpec::ExactLength(2),
            StorageSpec::Memory,
            1,
        ),
        (
            AlgorithmKind::Bfs,
            StableClusterSpec::ExactLength(2),
            StorageSpec::Memory,
            3,
        ),
        (
            AlgorithmKind::Auto { budget_bytes: None },
            StableClusterSpec::ExactLength(2),
            StorageSpec::Memory,
            1,
        ),
    ];
    let expect = |corpus: &blogstable::corpus::synthetic::GeneratedCorpus,
                  combo: &(AlgorithmKind, StableClusterSpec, StorageSpec, usize)| {
        let (kind, spec, backend, shards) = *combo;
        Pipeline::new(pipeline_params(kind, spec, backend, shards))
            .expect("valid params")
            .run(corpus)
            .expect("pipeline run")
    };

    let outcome_a = expect(&corpus_a, &combo_subset[0]);
    engine.install(outcome_a.cluster_graph.clone());

    // Admit a batch against epoch 1, swap to epoch 2 while they are (at
    // most partially) drained, then admit a second batch.
    let before: Vec<_> = combo_subset
        .iter()
        .map(|combo| {
            let (kind, spec, backend, shards) = *combo;
            (
                combo,
                engine.submit(request(kind, spec, backend, shards)).unwrap(),
            )
        })
        .collect();
    let outcome_b = expect(&corpus_b, &combo_subset[0]);
    engine.install(outcome_b.cluster_graph.clone());
    let after: Vec<_> = combo_subset
        .iter()
        .map(|combo| {
            let (kind, spec, backend, shards) = *combo;
            (
                combo,
                engine.submit(request(kind, spec, backend, shards)).unwrap(),
            )
        })
        .collect();

    for (combo, ticket) in before {
        let response = ticket.wait().expect("pre-swap query");
        assert_eq!(response.epoch, 1, "pinned at admission");
        let expected = expect(&corpus_a, combo);
        assert_identical(
            &expected.stable_paths,
            &response.solution.paths,
            &format!("pre-swap {combo:?}"),
        );
    }
    for (combo, ticket) in after {
        let response = ticket.wait().expect("post-swap query");
        assert_eq!(response.epoch, 2, "admitted after the swap");
        let expected = expect(&corpus_b, combo);
        assert_identical(
            &expected.stable_paths,
            &response.solution.paths,
            &format!("post-swap {combo:?}"),
        );
    }

    // The cache must never leak epoch-1 answers into epoch 2: a repeat of
    // the first combo is answered from the epoch-2 cache entry (or solved
    // fresh), never from epoch 1.
    let (kind, spec, backend, shards) = combo_subset[0];
    let repeat = engine.query(request(kind, spec, backend, shards)).unwrap();
    assert_eq!(repeat.epoch, 2);
    assert_identical(
        &expect(&corpus_b, &combo_subset[0]).stable_paths,
        &repeat.solution.paths,
        "post-swap repeat",
    );
}

#[test]
fn streamed_intervals_publish_epochs_queryable_through_the_engine() {
    // Online ingest → snapshot() → engine: after each published interval,
    // an engine query over the snapshot equals the batch solve over the
    // same graph-so-far, and the stream's own top-k agrees with the
    // engine's answer for the streamed length.
    let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
        num_intervals: 6,
        nodes_per_interval: 12,
        avg_out_degree: 3,
        gap: 1,
        seed: 2024,
    })
    .generate();
    let params = KlStableParams::new(5, 2);
    let engine = QueryEngine::new(EngineConfig::default().workers(2)).expect("engine starts");
    let mut online = OnlineStableClusters::new(params, graph.gap());
    for interval in 0..graph.num_intervals() as u32 {
        online.push_interval(graph.interval_parent_edges(interval));
        let installed = engine.install(online.snapshot());
        assert_eq!(installed.epoch(), u64::from(interval) + 1);

        if interval >= 2 {
            let response = engine
                .query(QueryRequest::new(
                    AlgorithmKind::Bfs,
                    StableClusterSpec::ExactLength(2),
                    5,
                ))
                .expect("engine query");
            let mut batch = AlgorithmKind::Bfs
                .build(StableClusterSpec::ExactLength(2), 5, interval as usize + 1)
                .unwrap();
            let snapshot = engine.snapshot_cell().load();
            let expected = batch.solve(&snapshot).unwrap();
            assert_identical(
                &expected.paths,
                &response.solution.paths,
                &format!("interval {interval}"),
            );
        }
    }
    assert_eq!(engine.epoch(), graph.num_intervals() as u64);
}
