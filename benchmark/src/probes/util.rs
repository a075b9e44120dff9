//! `bsc_util::json` probes: `json::parse`, `JsonValue::render`.

use bsc_core::cluster_graph::ClusterGraph;
use bsc_core::solver::{AlgorithmKind, SolverOptions};
use bsc_util::json::{self, JsonValue};

use super::{solve_direct, timed_us, Metric, HOT_LINE, PROBE_K, PROBE_SPEC};

/// The `k=5` reply document `Session` renders for [`HOT_LINE`].
pub fn hot_reply(big: &ClusterGraph) -> JsonValue {
    let paths = solve_direct(
        big,
        AlgorithmKind::Bfs,
        PROBE_SPEC,
        PROBE_K,
        SolverOptions::default(),
    );
    JsonValue::object([
        ("ok".to_string(), JsonValue::Bool(true)),
        ("op".to_string(), JsonValue::from("query")),
        ("algorithm".to_string(), JsonValue::from("bfs")),
        ("spec".to_string(), JsonValue::from(PROBE_SPEC.to_string())),
        ("k".to_string(), JsonValue::from(PROBE_K)),
        ("epoch".to_string(), JsonValue::from(1u64)),
        (
            "paths".to_string(),
            bsc_service::protocol::paths_to_json(&paths),
        ),
    ])
}

pub fn probes(big: &ClusterGraph, pushes: &[String]) -> Vec<Metric> {
    let reply = hot_reply(big);
    let push = pushes.last().expect("push lines");
    vec![
        timed_us("util.json.parse_query_us", || json::parse(HOT_LINE)),
        timed_us("util.json.render_reply_us", || reply.render()),
        timed_us("util.json.parse_push_us", || json::parse(push)),
    ]
}
