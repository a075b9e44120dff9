//! `bsc_cluster` probes: the `wire::*` codecs in-process, and a real
//! `bsc serve --worker` process over a raw `TcpStream` speaking
//! `wire::*_request` + `read_frame`.

use std::io::{BufReader, Write};
use std::net::TcpStream;

use bsc_cluster::wire::{self, read_frame, Response};
use bsc_core::cluster_graph::ClusterGraph;
use bsc_core::distributed::WindowRequest;
use bsc_core::solver::AlgorithmKind;
use bsc_storage::backend::StorageSpec;
use bsc_util::json;

use super::core::{solve_all_windows, PROBE_L};
use super::{timed_ms, timed_us, Metric, PROBE_K};
use crate::round::{Env, Fleet};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::Workload;

fn window_request(epoch: u64, start: u32) -> WindowRequest {
    WindowRequest {
        epoch,
        start,
        l: PROBE_L,
        k: PROBE_K,
        algorithm: AlgorithmKind::Bfs,
        storage: StorageSpec::LogFile,
        preferred: 0,
        deadline_ms: None,
    }
}

/// Codec probes (-> `epoch_first_query_p50_ms` and `latency_p50_ms` at
/// `cluster-fanout`).
pub fn wire_probes(big: &ClusterGraph) -> Vec<Metric> {
    let install = wire::install_graph_request(1, big);
    let result = wire::window_result_response(&solve_all_windows(big, PROBE_L, PROBE_K)[0]);
    vec![
        timed_ms("cluster.wire.graph_encode_ms", || {
            wire::install_graph_request(1, big)
        }),
        timed_ms("cluster.wire.graph_decode_ms", || {
            let doc = json::parse(&install).expect("install frame");
            wire::graph_from_json(doc.get("graph").expect("graph field")).expect("graph")
        }),
        Metric::new("cluster.wire.graph_bytes", install.len() as f64, "count", 1),
        timed_us("cluster.wire.window_request_encode_us", || {
            wire::solve_window_request(&window_request(1, 0))
        }),
        timed_us("cluster.wire.window_result_decode_us", || {
            Response::parse(&result).and_then(|r| wire::window_result_from_response(&r))
        }),
    ]
}

/// A raw coordinator-side connection to one worker.
struct RawWorker {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawWorker {
    fn connect(addr: &str) -> Result<RawWorker, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut worker = RawWorker { stream, reader };
        worker.call(&wire::hello_request())?;
        Ok(worker)
    }

    fn call(&mut self, frame: &str) -> Result<Response, String> {
        writeln!(self.stream, "{frame}")
            .and_then(|()| self.stream.flush())
            .map_err(|e| e.to_string())?;
        match read_frame(&mut self.reader) {
            Ok(Some(line)) => Response::parse(&line),
            Ok(None) => Err("worker closed the connection".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// RPC probes against the worker process at `addr`. Each timed RPC is also
/// a span (request 0), so `trace-cluster-fanout.jsonl` shows the wire next
/// to the coordinator's requests. `window_solve_ms` is the in-process
/// `core.distributed.window_solve_ms` the overhead is taken against.
pub fn worker_probes(
    addr: &str,
    big: &ClusterGraph,
    window_solve_ms: f64,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let mut worker = RawWorker::connect(addr)?;
    let ping = wire::ping_request();
    let mut pings = Vec::with_capacity(200);
    for _ in 0..200 {
        let (reply, _, micros) =
            tracer.time(0, 0, "cluster.worker.ping_rtt", || worker.call(&ping));
        reply?;
        pings.push(micros);
    }
    // A fresh epoch per install, as the coordinator ships one per `load`.
    let mut installs = Vec::with_capacity(20);
    let mut epoch = 1000;
    for _ in 0..20 {
        epoch += 1;
        let (reply, _, micros) = tracer.time(0, 0, "cluster.worker.install_graph", || {
            worker.call(&wire::install_graph_request(epoch, big))
        });
        reply?;
        installs.push(micros);
    }
    // Every window of the graph per sample, as `core.distributed.window_solve_ms`
    // does in-process, so the two differ only by the process and the wire.
    let starts = big.num_intervals() as u32 - PROBE_L;
    let mut solves = Vec::with_capacity(23);
    for _ in 0..23 {
        let mut total = 0.0;
        for start in 0..starts {
            let frame = wire::solve_window_request(&window_request(epoch, start));
            let (reply, _, micros) = tracer.time(0, 0, "cluster.worker.solve_window_rtt", || {
                worker
                    .call(&frame)
                    .and_then(|r| wire::window_result_from_response(&r))
            });
            reply?;
            total += micros;
        }
        solves.push(total / f64::from(starts));
    }
    let rpcs = solves.len() * starts as usize;
    let solve_ms = stats::median(&solves) / 1e3;
    Ok(vec![
        Metric::new(
            "cluster.worker.ping_rtt_us",
            stats::median(&pings),
            "us",
            pings.len(),
        ),
        Metric::new(
            "cluster.worker.install_graph_ms",
            stats::median(&installs) / 1e3,
            "ms",
            installs.len(),
        ),
        Metric::new("cluster.worker.solve_window_rtt_ms", solve_ms, "ms", rpcs),
        // What the process and the wire add around the same window solves.
        Metric::new(
            "cluster.worker.wire_overhead_ms",
            solve_ms - window_solve_ms,
            "ms",
            rpcs,
        ),
    ])
}

/// [`worker_probes`] against a worker spawned just for them (used when the
/// traced workload has no cluster of its own).
pub fn worker_probes_standalone(
    env: &Env,
    big: &ClusterGraph,
    window_solve_ms: f64,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let fleet = Fleet::start(env, Workload::ClusterFanout)?;
    let metrics = worker_probes(&fleet.worker_addrs[0], big, window_solve_ms, tracer);
    fleet.stop();
    metrics
}
