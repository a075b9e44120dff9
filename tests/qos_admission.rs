//! Multi-tenant QoS conformance for the `QueryEngine` (ISSUE 9):
//!
//! * a tenant that exhausts its token-bucket quota is **shed** with
//!   [`BscError::Saturated`] — never deadlocked, never silently queued —
//!   and the decision replays exactly under the engine's virtual clock
//!   ([`QueryEngine::try_submit_at`]);
//! * the high-priority lane wins the queue without starving the normal
//!   lane (the `(w + 1) * (HIGH_LANE_BURST + 1)`-pop bound);
//! * **a queued repeat is a cache hit, byte-identical to serial**: copies
//!   of a query queued behind its first solve are answered by the solution
//!   cache (`cached: true`, the response's `solve_micros` 0) with the same node sequences
//!   and `f64` weight bits as an uncontended engine, for every algorithm ×
//!   backend × shard count, and the counters conserve;
//! * per-tenant counters surface in [`QueryEngine::stats`].

use blogstable::core::solver::QueryPriority;
use blogstable::prelude::*;
use blogstable::service::admission::{AdmissionQueue, HIGH_LANE_BURST};
use blogstable::service::engine::{EngineConfig, QueryTicket, TenantQuota};

fn graph() -> ClusterGraph {
    ClusterGraphGenerator::new(SyntheticGraphParams {
        num_intervals: 6,
        nodes_per_interval: 40,
        avg_out_degree: 4,
        gap: 1,
        seed: 11,
    })
    .generate()
}

fn request(kind: AlgorithmKind, spec: StableClusterSpec, k: usize) -> QueryRequest {
    QueryRequest::new(kind, spec, k)
}

fn tenant_request(tenant: &str) -> QueryRequest {
    request(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 5)
        .options(SolverOptions::default().tenant(Some(tenant.to_string())))
}

fn assert_identical(expected: &Solution, got: &Solution, context: &str) {
    assert_eq!(
        expected.paths.len(),
        got.paths.len(),
        "{context}: result counts differ"
    );
    for (a, b) in expected.paths.iter().zip(got.paths.iter()) {
        assert_eq!(a.nodes(), b.nodes(), "{context}: node sequences differ");
        assert_eq!(
            a.weight().to_bits(),
            b.weight().to_bits(),
            "{context}: weights must be byte-identical"
        );
    }
}

/// Quota exhaustion must shed with `Saturated`, not block, not deadlock —
/// and the bucket must refill on the virtual clock, deterministically.
#[test]
fn quota_exhaustion_returns_saturated_and_refills_on_the_virtual_clock() {
    let mut engine = QueryEngine::new(
        EngineConfig::default()
            .workers(2)
            .quota(Some(TenantQuota::new(1, 2))),
    )
    .expect("engine starts");
    engine.install_graph(graph());

    // Burst of 2 admits exactly 2 at t=0; the 3rd sheds immediately.
    let mut tickets = Vec::new();
    for i in 0..2 {
        tickets.push(
            engine
                .try_submit_at(tenant_request("acme"), 0)
                .unwrap_or_else(|e| panic!("burst admission {i} must succeed: {e}")),
        );
    }
    match engine.try_submit_at(tenant_request("acme"), 0) {
        Err(BscError::Saturated { .. }) => {}
        other => panic!("exhausted quota must shed with Saturated, got {other:?}"),
    }
    // An untenanted query is never quota-shed.
    tickets.push(
        engine
            .try_submit_at(
                request(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(3), 5),
                0,
            )
            .expect("untenanted queries bypass quotas"),
    );
    // Another tenant has its own (full) bucket.
    tickets.push(
        engine
            .try_submit_at(tenant_request("globex"), 0)
            .expect("a fresh tenant starts with a full bucket"),
    );
    // One virtual second later the 1 qps rate has refilled one token.
    tickets.push(
        engine
            .try_submit_at(tenant_request("acme"), 1_000_000)
            .expect("the bucket refills on the virtual clock"),
    );
    match engine.try_submit_at(tenant_request("acme"), 1_000_000) {
        Err(BscError::Saturated { .. }) => {}
        other => panic!("only one token refilled, got {other:?}"),
    }
    for ticket in tickets {
        ticket.wait().expect("admitted queries complete");
    }

    let stats = engine.stats();
    assert_eq!(stats.quota_shed, 2);
    let acme = stats
        .tenants
        .iter()
        .find(|t| t.tenant == "acme")
        .expect("acme appears in stats");
    assert_eq!(acme.submitted, 5);
    assert_eq!(acme.admitted, 3);
    assert_eq!(acme.quota_shed, 2);
    let globex = stats
        .tenants
        .iter()
        .find(|t| t.tenant == "globex")
        .expect("globex appears in stats");
    assert_eq!(
        (globex.submitted, globex.admitted, globex.quota_shed),
        (1, 1, 0)
    );
    // stats.tenants is sorted by name.
    assert!(stats.tenants.windows(2).all(|w| w[0].tenant < w[1].tenant));
    engine.shutdown();
}

/// The starvation bound, driven adversarially: a normal-lane item is
/// popped within `(w + 1) * (HIGH_LANE_BURST + 1)` pops even when a new
/// high-priority item arrives before every single pop.
#[test]
fn the_normal_lane_starvation_bound_holds_under_continuous_high_pressure() {
    let queue: AdmissionQueue<&'static str> = AdmissionQueue::new(1024);
    let waiting = 3usize; // w: normal items queued ahead of the probe
    for _ in 0..waiting {
        queue
            .try_push("ahead", QueryPriority::Normal)
            .expect("push");
    }
    queue
        .try_push("probe", QueryPriority::Normal)
        .expect("push");
    let bound = (waiting + 1) * (HIGH_LANE_BURST + 1);
    let mut pops = 0usize;
    loop {
        // The adversary: always at least one high-priority item ready.
        queue.try_push("storm", QueryPriority::High).expect("push");
        let item = queue.pop().expect("queue is non-empty");
        pops += 1;
        assert!(
            pops <= bound,
            "probe not served within the {bound}-pop bound"
        );
        if item == "probe" {
            break;
        }
    }
}

/// End to end through the engine: with one worker pinned by a slow solve,
/// a high-priority query submitted *after* several normal ones is popped
/// first (its queue wait is strictly the shortest).
#[test]
fn the_high_priority_lane_overtakes_queued_normal_queries() {
    let mut engine = QueryEngine::new(
        EngineConfig::default()
            .workers(1)
            .queue_capacity(64)
            .cache_capacity(0),
    )
    .expect("engine starts");
    engine.install_graph(graph());

    // Pin the single worker so everything below queues behind it.
    let blocker = engine
        .submit(request(
            AlgorithmKind::Dfs,
            StableClusterSpec::FullPaths,
            10,
        ))
        .expect("blocker admitted");
    let normals: Vec<QueryTicket> = (0..4)
        .map(|i| {
            engine
                .submit(request(
                    AlgorithmKind::Bfs,
                    StableClusterSpec::ExactLength(2 + i),
                    5,
                ))
                .expect("normal admitted")
        })
        .collect();
    let high = engine
        .submit(
            request(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 7)
                .options(SolverOptions::default().priority(QueryPriority::High)),
        )
        .expect("high admitted");

    blocker.wait().expect("blocker completes");
    let high_wait = high.wait().expect("high completes").queue_wait_micros;
    for (i, normal) in normals.into_iter().enumerate() {
        let wait = normal.wait().expect("normal completes").queue_wait_micros;
        assert!(
            high_wait < wait,
            "high-priority wait {high_wait}us must undercut normal #{i}'s {wait}us \
             (the high lane pops first)"
        );
    }
    engine.shutdown();
}

/// Every (algorithm, spec, backend, shards) combination whose cached
/// answers must match serial execution. Mirrors `tests/query_service.rs`.
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

/// Copies of a query queued behind its first solve are answered by the
/// solution cache, byte-identical to serial execution, for every algorithm
/// × backend × shard count. One worker pops the queue in order, so which
/// copy solves and which hit is deterministic: the first copy solves, the
/// rest are cache hits.
#[test]
fn queued_repeats_are_cache_hits_byte_identical_to_serial_for_every_combo() {
    let graph = graph();

    // The serial reference: an uncontended engine answering one query at a
    // time. (The engine itself is conformance-tested against the one-shot
    // pipeline in tests/query_service.rs; here the subject is the repeats.)
    let mut serial = QueryEngine::new(EngineConfig::default().workers(1)).expect("engine starts");
    serial.install_graph(graph.clone());
    let mut expected = Vec::new();
    for (kind, spec, backend, shards) in combos() {
        let response = serial
            .query(
                request(kind, spec, 10)
                    .options(SolverOptions::default().storage(backend).shards(shards)),
            )
            .unwrap_or_else(|e| panic!("serial {kind} {spec} {backend} {shards}: {e}"));
        expected.push(((kind, spec, backend, shards), response.solution));
    }
    serial.shutdown();

    // One worker, cache on: token-less copies of a query pile up behind a
    // slow blocker (a `k` of its own per combo, so no blocker is a hit).
    let copies = 3usize;
    let mut engine = QueryEngine::new(EngineConfig::default().workers(1).queue_capacity(256))
        .expect("engine starts");
    engine.install_graph(graph);
    for (i, ((kind, spec, backend, shards), serial_solution)) in expected.iter().enumerate() {
        let context = format!("{kind} {spec} {backend} shards={shards}");
        let blocker = engine
            .submit(request(
                AlgorithmKind::Dfs,
                StableClusterSpec::FullPaths,
                100 + i,
            ))
            .expect("blocker admitted");
        let tickets: Vec<QueryTicket> = (0..copies)
            .map(|_| {
                engine
                    .submit(
                        request(*kind, *spec, 10)
                            .options(SolverOptions::default().storage(*backend).shards(*shards)),
                    )
                    .expect("copy admitted")
            })
            .collect();
        blocker.wait().expect("blocker completes");
        for (copy, ticket) in tickets.into_iter().enumerate() {
            let context = format!("{context} copy {}", copy + 1);
            let response = ticket.wait().unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_identical(serial_solution, &response.solution, &context);
            assert_eq!(
                response.cached,
                copy > 0,
                "{context}: only the first copy solves"
            );
            if response.cached {
                assert_eq!(response.solve_micros, 0, "{context}");
            }
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.cache.hits, (expected.len() * (copies - 1)) as u64);
    assert_eq!(
        stats.queries,
        stats.cache.hits + stats.solve.count() + stats.errors,
        "every query is a cache hit, a solve or an error"
    );
    engine.shutdown();
}
