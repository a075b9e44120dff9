//! `bsc_service` probes: `parse_request`, `paths_to_json` + `ok_response`,
//! `Session::handle_line`, `QueryEngine::{query,install_incremental}`,
//! `SolutionCache::{get,put}`, `AdmissionQueue::{try_push,pop}`.

use bsc_core::cluster_graph::ClusterGraph;
use bsc_core::path::ClusterPath;
use bsc_core::problem::StableClusterSpec;
use bsc_core::solver::{AlgorithmKind, QueryPriority};
use bsc_service::admission::AdmissionQueue;
use bsc_service::cache::SolutionCache;
use bsc_service::engine::{EngineConfig, QueryEngine, QueryRequest};
use bsc_service::protocol::{ok_response, parse_request, paths_to_json};
use bsc_service::session::Session;
use bsc_util::json::JsonValue;

use super::core::StreamFixture;
use super::{median_batched_us, median_call_us, timed_us, Metric, HOT_LINE, PROBE_K, PROBE_SPEC};
use crate::workload;

/// An in-process session configured like the workloads' `bsc serve`.
pub fn session(cache: usize) -> Session {
    Session::engine(EngineConfig::default().workers(2).cache_capacity(cache))
        .expect("engine session")
}

/// Feed `line` and return the reply, which must be a success.
pub fn drive(session: &mut Session, line: &str) -> String {
    let reply = session.handle_line(line).0.unwrap_or_default();
    assert!(
        reply.contains("\"ok\":true"),
        "in-process session rejected {}: {reply}",
        &line[..line.len().min(120)]
    );
    reply
}

/// `paths_to_json` + `ok_response`: how `Session` renders a query reply.
pub fn render_reply(
    algorithm: AlgorithmKind,
    spec: StableClusterSpec,
    k: usize,
    paths: &[ClusterPath],
) -> String {
    ok_response(
        "query",
        vec![
            ("algorithm", JsonValue::from(algorithm.to_string())),
            ("spec", JsonValue::from(spec.to_string())),
            ("k", JsonValue::from(k)),
            ("epoch", JsonValue::from(1u64)),
            ("paths", paths_to_json(paths)),
        ],
    )
}

pub fn probes(
    big: &ClusterGraph,
    pushes: &[String],
    stream: &StreamFixture,
    bfs_solve_us: f64,
) -> Vec<Metric> {
    let push = pushes.last().expect("push lines");
    let request = QueryRequest::new(AlgorithmKind::Bfs, PROBE_SPEC, PROBE_K);
    let engine = QueryEngine::new(EngineConfig::default().workers(2)).expect("engine");
    engine.install_graph(big.clone());
    let solution = engine.query(request.clone()).expect("warm query").solution;
    let mut metrics = vec![
        timed_us("service.protocol.parse_query_us", || {
            parse_request(HOT_LINE)
        }),
        timed_us("service.protocol.parse_push_us", || parse_request(push)),
        timed_us("service.protocol.render_reply_us", || {
            render_reply(AlgorithmKind::Bfs, PROBE_SPEC, PROBE_K, &solution.paths)
        }),
        timed_us("service.engine.hit_us", || engine.query(request.clone())),
    ];

    let mut hot = session(128);
    drive(&mut hot, &workload::load_big(workload::DATA_SEED));
    drive(&mut hot, HOT_LINE);
    metrics.push(timed_us("service.session.hit_us", || {
        hot.handle_line(HOT_LINE)
    }));

    // What the session and engine add around a cold solve: handle_line at
    // --cache 0 minus the direct solver call for the same query.
    let mut cold = session(0);
    drive(&mut cold, &workload::load_big(workload::DATA_SEED));
    let (cold_us, calls) = median_call_us(|| cold.handle_line(HOT_LINE));
    metrics.push(Metric::new(
        "service.session.cold_overhead_us",
        cold_us - bfs_solve_us,
        "us",
        calls,
    ));

    // Installing stream-delta's last interval over the one before it.
    let ingest = QueryEngine::new(EngineConfig::default().workers(2)).expect("engine");
    let (install_us, calls) = {
        let mut samples = Vec::new();
        for _ in 0..20 {
            ingest.install_incremental(stream.prev.clone());
            let start = std::time::Instant::now();
            std::hint::black_box(ingest.install_incremental(stream.last.clone()));
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
        (crate::stats::median(&samples), samples.len())
    };
    metrics.push(Metric::new(
        "service.engine.install_incremental_ms",
        install_us / 1e3,
        "ms",
        calls,
    ));

    let mut cache = SolutionCache::new(128);
    let key = request.cache_key();
    let (put_us, puts) =
        median_batched_us(16, || cache.put(1, key.clone(), solution.clone(), None));
    let (get_us, gets) = median_batched_us(16, || cache.get(1, &key));
    metrics.push(Metric::new("service.cache.put_us", put_us, "us", puts));
    metrics.push(Metric::new("service.cache.get_us", get_us, "us", gets));

    let queue = AdmissionQueue::new(64);
    let (queue_us, ops) = median_batched_us(64, || {
        queue.try_push(7u64, QueryPriority::Normal).expect("push");
        queue.pop()
    });
    metrics.push(Metric::new(
        "service.admission.push_pop_us",
        queue_us,
        "us",
        ops,
    ));
    metrics
}
