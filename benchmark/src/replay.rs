//! The in-process half of the traced run: a sample of the round's op list
//! replayed through an in-process `Session`, with spans around the calls
//! into each layer. Together with the process-level `request` spans of the
//! same request ids this attributes a request's wall time to layers
//! without adding a span, counter or flag to any crate.

use std::collections::HashMap;

use bsc_core::cluster_graph::ClusterGraph;
use bsc_core::distributed::FanoutSpec;
use bsc_core::path::ClusterPath;
use bsc_core::problem::StableClusterSpec;
use bsc_core::sharded::ShardedSolver;
use bsc_core::solver::StableClusterSolver;
use bsc_service::protocol::{parse_request, Request};
use bsc_service::session::Session;

use crate::probes::core::extract_all_windows;
use crate::probes::service::{drive, render_reply, session};
use crate::probes::{big_graph, small_graph};
use crate::round::{Fleet, Prepared, RoundResult};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{OpClass, Workload, CLUSTER_CYCLES};

/// Roughly how many ops of a round are replayed (1-in-N sampling).
const REPLAY_SAMPLE: usize = 120;

/// What the replay concluded.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Median over the replayed queries of the share of the process-level
    /// latency that neither the pipe round trip nor the in-process
    /// `Session::handle_line` of the same line accounts for.
    pub unattributed_share: f64,
    pub sampled: usize,
}

/// Replay `handle_line` (with its `parse_request` child) and return the
/// span id and duration of the `handle_line` span.
fn traced_line(
    session: &mut Session,
    tracer: &mut Tracer,
    root: u32,
    request: u32,
    line: &str,
) -> (u32, f64) {
    let (_, handle, micros) = tracer.time(root, request, "service.session.handle_line", || {
        session.handle_line(line)
    });
    let _ = tracer.time(handle, request, "service.protocol.parse_request", || {
        parse_request(line)
    });
    (handle, micros)
}

/// Replay the traced round's ops in-process. Must run while `fleet` is up:
/// the `cluster-fanout` replay is an in-process coordinator over the same
/// worker processes.
pub fn replay(
    prepared: &Prepared,
    fleet: &Fleet,
    round: &RoundResult,
    tracer: &mut Tracer,
) -> Replay {
    let plan = &prepared.plan;
    let workload = plan.workload;
    let mut session = session(workload.cache_capacity());
    if workload == Workload::ClusterFanout {
        bsc_cluster::install_transport();
        session = session.default_fanout(FanoutSpec::new(fleet.worker_addrs.clone()));
    }
    for line in &plan.setup {
        drive(&mut session, line);
    }
    for &template in &plan.warm {
        drive(&mut session, &plan.templates[template as usize]);
    }
    // The graph the static workloads query, for the direct solver calls.
    let graph: Option<ClusterGraph> = match workload {
        Workload::ServeCold | Workload::ServeSharded | Workload::ServeHot => Some(big_graph()),
        Workload::ServeDisk => Some(small_graph()),
        Workload::StreamDelta | Workload::ClusterFanout => None,
    };
    // Stateful sessions replay a prefix in order; stateless ones a sample.
    let chosen: Vec<usize> = match workload {
        Workload::StreamDelta => (0..plan.ops.len()).collect(),
        Workload::ClusterFanout => (0..plan.ops.len() / CLUSTER_CYCLES as usize).collect(),
        _ => (0..plan.ops.len())
            .step_by((plan.ops.len() / REPLAY_SAMPLE).max(1))
            .collect(),
    };
    let mut hot_paths: HashMap<u32, Vec<ClusterPath>> = HashMap::new();
    let mut shares = Vec::new();
    for &i in &chosen {
        let op = plan.ops[i];
        let line = &plan.templates[op.template as usize];
        let request = i as u32 + 1;
        let root = tracer.open(0, request, "replay");
        let (handle, handle_us) = traced_line(&mut session, tracer, root, request, line);
        if let (Some(graph), Ok(Request::Query(query))) = (&graph, parse_request(line)) {
            let solve = || {
                query
                    .algorithm
                    .build_with_options(
                        query.spec,
                        query.k,
                        graph.num_intervals(),
                        query.options.clone(),
                    )
                    .and_then(|mut solver| solver.solve(graph))
                    .map(|solution| solution.paths)
                    .unwrap_or_default()
            };
            // On a cache hit no solver runs: the paths only feed the render span.
            let paths = if workload == Workload::ServeHot {
                hot_paths.entry(op.template).or_insert_with(solve).clone()
            } else {
                tracer.time(handle, request, "core.solver.solve", solve).0
            };
            tracer.time(handle, request, "service.protocol.render_reply", || {
                render_reply(query.algorithm, query.spec, query.k, &paths)
            });
            if let (Workload::ServeSharded, StableClusterSpec::ExactLength(l)) =
                (workload, query.spec)
            {
                // The same query on one thread, with window extraction as
                // its child: explanatory spans under the root, outside
                // handle_line's arithmetic (two shard threads overlap).
                let (_, serial, _) =
                    tracer.time(root, request, "core.sharded.serial_solve", || {
                        ShardedSolver::new(
                            query.algorithm,
                            query.spec,
                            query.k,
                            query.options.clone().shards(1),
                        )
                        .and_then(|mut solver| solver.solve(graph))
                    });
                tracer.time(serial, request, "core.cluster_graph.window", || {
                    extract_all_windows(graph, l)
                });
            }
        }
        tracer.close(root);
        let latency_us = round.latency_ms[i] * 1e3;
        if matches!(op.class, OpClass::Query) && latency_us.is_finite() && latency_us > 0.0 {
            shares.push((latency_us - round.pipe_rtt_us - handle_us) / latency_us);
        }
    }
    Replay {
        unattributed_share: stats::median(&shares),
        sampled: chosen.len(),
    }
}
