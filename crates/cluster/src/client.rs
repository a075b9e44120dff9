//! The coordinator half of the fan-out: a pooled TCP [`ShardTransport`].
//!
//! One [`ClusterClient`] owns one long-lived connection slot per worker
//! address. A window solve goes to its *preferred* worker (the dispatch
//! affinity hint in [`WindowRequest`]) and fails over round-robin across
//! the remaining workers when that one is dead, slow, or answering
//! garbage — with a bounded number of passes and a deterministic linear
//! backoff between them, so a flapping cluster is retried briefly and a
//! dead one produces a clean [`BscError::Cluster`], never a hang (every
//! socket operation runs under a timeout).
//!
//! Graph distribution is lazy and keyed by the request's `epoch`, which the
//! windowed solver fills with its graph value's process-unique id: before
//! the first solve of a graph on a connection the client ships it with
//! `install_graph`, and every later window of the same graph value reuses
//! that copy, whichever engine or solver asked; a clone or an append has an
//! id of its own and is shipped afresh. When a worker answers `unknown
//! epoch` (fresh connection, restarted worker) the client re-installs and
//! retries once on the spot. Failed workers enter a cooldown so subsequent
//! windows don't pay the connect timeout again; a worker past its cooldown
//! is probed anew, which is how a restarted worker rejoins the fan-out.
//!
//! Every RPC's wall-clock is recorded in a per-worker
//! [`LatencyHistogram`], surfaced by [`ClusterClient::stats_json`] into the
//! `bsc serve` `stats` response.
//!
//! Deadlines ride along: a [`WindowRequest`] carrying `deadline_ms` caps
//! the solve's read timeout by the remaining budget (plus a small grace so
//! a worker tripping its *own* deadline can still answer), and once the
//! budget is gone the client stops failing over and returns
//! [`BscError::DeadlineExceeded`] — an exhausted deadline is a property of
//! the query, not of any worker, so retrying elsewhere cannot help. The
//! same holds for a request the worker's solver rejects (`invalid
//! configuration: …`, `unsupported request …`): the reply is returned at
//! once, with no fail-over, cooldown or failure count. See
//! `docs/robustness.md`.
//!
//! The client holds connections, cooldowns and histograms — no results. A
//! [`WindowResult`] belongs to the call that asked for it; whether a window
//! needs asking for at all is decided upstream, by the windowed executor's
//! memo seam (`bsc_core::delta`, fed from the engine's solution cache), so
//! a window that reaches [`ShardTransport::solve_window`] is always
//! dispatched.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bsc_core::cluster_graph::ClusterGraph;
use bsc_core::distributed::{FanoutSpec, ShardTransport, WindowRequest, WindowResult};
use bsc_core::error::{BscError, BscResult};
use bsc_core::solver::AlgorithmKind;
use bsc_util::histogram::LatencyHistogram;
use bsc_util::json::JsonValue;

use crate::wire::{self, read_frame, Response};

/// Client-side tunables. The defaults suit localhost fleets: short connect
/// timeout, generous solve timeout (a window solve is real work), two full
/// failover passes with a 50 ms linear backoff between them.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Read timeout for a `solve_window` response (covers the solve
    /// itself, so it is the slow-worker bound: a worker that exceeds it is
    /// treated as failed and the window is re-dispatched).
    pub solve_timeout: Duration,
    /// Read timeout for cheap RPCs (`hello`, `ping`, `install_graph` ack).
    pub control_timeout: Duration,
    /// Full passes over the worker set before a window solve gives up.
    pub max_passes: u32,
    /// Backoff between passes: `pass_index * backoff_step` (deterministic,
    /// no jitter — reproducibility beats thundering-herd theory at this
    /// scale).
    pub backoff_step: Duration,
    /// How long a failed worker sits out before it is probed again.
    pub cooldown: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            solve_timeout: Duration::from_secs(120),
            control_timeout: Duration::from_secs(10),
            max_passes: 3,
            backoff_step: Duration::from_millis(50),
            cooldown: Duration::from_millis(500),
        }
    }
}

/// A live connection to one worker, with the id of the graph its
/// per-connection graph cache holds.
#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    installed_epoch: Option<u64>,
}

impl Connection {
    fn open(addr: &str, config: &ClientConfig) -> Result<Connection, String> {
        let mut last = format!("no socket addresses resolved for '{addr}'");
        let resolved: Vec<std::net::SocketAddr> = std::net::ToSocketAddrs::to_socket_addrs(addr)
            .map_err(|e| format!("cannot resolve '{addr}': {e}"))?
            .collect();
        for candidate in resolved {
            match TcpStream::connect_timeout(&candidate, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).map_err(|e| e.to_string())?;
                    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                    let mut connection = Connection {
                        stream,
                        reader,
                        installed_epoch: None,
                    };
                    // Version handshake before anything else: mismatched
                    // builds must fail fast with a clear error, and the
                    // error must not be retried into oblivion.
                    connection.round_trip(&wire::hello_request(), config.control_timeout)?;
                    return Ok(connection);
                }
                Err(e) => last = format!("connect to {candidate}: {e}"),
            }
        }
        Err(last)
    }

    /// One request/response cycle under a read timeout.
    fn round_trip(&mut self, line: &str, timeout: Duration) -> Result<Response, String> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        wire::write_frame(&mut self.stream, line).map_err(|e| format!("write failed: {e}"))?;
        match read_frame(&mut self.reader) {
            Ok(Some(response)) => Response::parse(&response),
            Ok(None) => Err("worker closed the connection".to_string()),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }
}

/// Per-worker slot: address, pooled connection, cooldown and RPC metrics.
#[derive(Debug)]
struct WorkerSlot {
    addr: String,
    connection: Mutex<Option<Connection>>,
    cooldown_until: Mutex<Option<Instant>>,
    histogram: Mutex<LatencyHistogram>,
    rpcs: std::sync::atomic::AtomicU64,
    failures: std::sync::atomic::AtomicU64,
}

impl WorkerSlot {
    fn new(addr: String) -> WorkerSlot {
        WorkerSlot {
            addr,
            connection: Mutex::new(None),
            cooldown_until: Mutex::new(None),
            histogram: Mutex::new(LatencyHistogram::default()),
            rpcs: std::sync::atomic::AtomicU64::new(0),
            failures: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn in_cooldown(&self) -> bool {
        let until = *self
            .cooldown_until
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        matches!(until, Some(until) if Instant::now() < until)
    }

    fn start_cooldown(&self, period: Duration) {
        *self
            .cooldown_until
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = Some(Instant::now() + period);
    }

    fn clear_cooldown(&self) {
        *self
            .cooldown_until
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = None;
    }
}

/// One worker's health probe result.
#[derive(Debug, Clone)]
pub struct WorkerHealth {
    /// The worker's address.
    pub addr: String,
    /// Whether the worker answered a `ping` (with a matching protocol
    /// version) within the control timeout.
    pub healthy: bool,
    /// The failure, when unhealthy.
    pub error: Option<String>,
}

/// A pooled TCP transport over a fixed worker set — the concrete
/// [`ShardTransport`] behind [`SolverOptions::fanout`].
///
/// [`SolverOptions::fanout`]: bsc_core::solver::SolverOptions::fanout
#[derive(Debug)]
pub struct ClusterClient {
    spec: FanoutSpec,
    config: ClientConfig,
    workers: Vec<WorkerSlot>,
}

impl ClusterClient {
    /// Create a client over the worker set. Connections are opened lazily,
    /// so construction cannot fail or block.
    pub fn new(spec: FanoutSpec, config: ClientConfig) -> ClusterClient {
        let workers = spec.workers.iter().cloned().map(WorkerSlot::new).collect();
        ClusterClient {
            spec,
            config,
            workers,
        }
    }

    /// The worker set this client fans out over.
    pub fn spec(&self) -> &FanoutSpec {
        &self.spec
    }

    /// Probe every worker with a `ping`, bypassing cooldowns (a health
    /// check is exactly the probe that should revive a cooled-down
    /// worker).
    pub fn health(&self) -> Vec<WorkerHealth> {
        self.workers
            .iter()
            .map(|slot| {
                let outcome = self.with_connection(slot, |connection| {
                    connection
                        .round_trip(&wire::ping_request(), self.config.control_timeout)
                        .map(|_| ())
                });
                match outcome {
                    Ok(()) => {
                        slot.clear_cooldown();
                        WorkerHealth {
                            addr: slot.addr.clone(),
                            healthy: true,
                            error: None,
                        }
                    }
                    Err(e) => WorkerHealth {
                        addr: slot.addr.clone(),
                        healthy: false,
                        error: Some(e),
                    },
                }
            })
            .collect()
    }

    /// Per-worker RPC metrics for the `stats` response: address, RPC and
    /// failure counts, and the latency histogram summary.
    pub fn stats_json(&self) -> JsonValue {
        JsonValue::Array(
            self.workers
                .iter()
                .map(|slot| {
                    let histogram = slot.histogram.lock().unwrap_or_else(|p| p.into_inner());
                    JsonValue::object([
                        ("addr".to_string(), JsonValue::from(slot.addr.clone())),
                        (
                            "rpcs".to_string(),
                            JsonValue::from(slot.rpcs.load(std::sync::atomic::Ordering::Relaxed)),
                        ),
                        (
                            "failures".to_string(),
                            JsonValue::from(
                                slot.failures.load(std::sync::atomic::Ordering::Relaxed),
                            ),
                        ),
                        ("rpc_count".to_string(), JsonValue::from(histogram.count())),
                        (
                            "rpc_mean_micros".to_string(),
                            JsonValue::from(histogram.mean_micros()),
                        ),
                        (
                            "rpc_p50_micros".to_string(),
                            JsonValue::from(histogram.p50_micros()),
                        ),
                        (
                            "rpc_p99_micros".to_string(),
                            JsonValue::from(histogram.p99_micros()),
                        ),
                        (
                            "rpc_max_micros".to_string(),
                            JsonValue::from(histogram.max_micros()),
                        ),
                    ])
                })
                .collect(),
        )
    }

    /// Run `operation` on the slot's pooled connection, opening one (with
    /// the hello handshake) if needed. A failed operation drops the pooled
    /// connection so the next attempt reconnects from scratch.
    fn with_connection<T>(
        &self,
        slot: &WorkerSlot,
        operation: impl FnOnce(&mut Connection) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut guard = slot.connection.lock().unwrap_or_else(|p| p.into_inner());
        let connection = match guard.as_mut() {
            Some(connection) => connection,
            None => guard.insert(Connection::open(&slot.addr, &self.config)?),
        };
        let result = operation(connection);
        if result.is_err() {
            *guard = None;
        }
        result
    }

    /// Solve one window on one specific worker: ensure the request's graph
    /// is installed on the connection, send the solve, decode the result. An
    /// `unknown epoch` answer (restarted worker behind the same pooled
    /// slot) triggers one in-place install-and-retry.
    fn solve_on(
        &self,
        slot: &WorkerSlot,
        graph: &ClusterGraph,
        request: &WindowRequest,
        solve_timeout: Duration,
    ) -> Result<WindowResult, String> {
        self.with_connection(slot, |connection| {
            if connection.installed_epoch != Some(request.epoch) {
                connection
                    .round_trip(
                        &wire::install_graph_request(request.epoch, graph),
                        self.config.control_timeout,
                    )
                    .map_err(|e| format!("install_graph: {e}"))?;
                connection.installed_epoch = Some(request.epoch);
            }
            let line = wire::solve_window_request(request);
            let response = match connection.round_trip(&line, solve_timeout) {
                Ok(response) => response,
                Err(e) if e.contains("unknown epoch") => {
                    connection
                        .round_trip(
                            &wire::install_graph_request(request.epoch, graph),
                            self.config.control_timeout,
                        )
                        .map_err(|e| format!("install_graph: {e}"))?;
                    connection.installed_epoch = Some(request.epoch);
                    connection.round_trip(&line, solve_timeout)?
                }
                Err(e) => return Err(e),
            };
            wire::window_result_from_response(&response)
        })
    }
}

/// Extra read-timeout slack past the deadline, so a worker that trips its
/// own local deadline still gets to deliver the `DeadlineExceeded` answer
/// before the client abandons the socket.
const DEADLINE_GRACE: Duration = Duration::from_millis(100);

/// A worker reply that is a property of the query — the worker's solver
/// rejected the request as [`BscError::InvalidConfig`] or
/// [`BscError::Unsupported`] — rebuilt from its `Display` text so the
/// coordinator reports it byte-identically to a single-process solve.
fn query_rejection(reply: &str) -> Option<BscError> {
    if let Some(message) = reply.strip_prefix("invalid configuration: ") {
        return Some(BscError::InvalidConfig(message.to_string()));
    }
    let (algorithm, reason) = reply
        .strip_prefix("unsupported request for ")?
        .split_once(": ")?;
    Some(BscError::Unsupported {
        algorithm: AlgorithmKind::parse(algorithm)?.name(),
        reason: reason.to_string(),
    })
}

impl ShardTransport for ClusterClient {
    fn worker_count(&self) -> usize {
        self.workers.len()
    }

    fn solve_window(
        &self,
        graph: &ClusterGraph,
        request: &WindowRequest,
    ) -> BscResult<WindowResult> {
        let n = self.workers.len();
        let begun = Instant::now();
        let deadline = request
            .deadline_ms
            .map(|ms| begun + Duration::from_millis(ms));
        let deadline_exceeded = || BscError::DeadlineExceeded {
            elapsed_micros: begun.elapsed().as_micros() as u64,
        };
        let mut last_error = String::new();
        for pass in 0..self.config.max_passes {
            if pass > 0 {
                std::thread::sleep(self.config.backoff_step * pass);
            }
            // Preferred worker first, then round-robin over the rest. On
            // the first pass cooled-down workers are skipped (unless every
            // worker is cooling down); later passes probe everything.
            for offset in 0..n {
                // Abandon outright once the budget is gone: an exhausted
                // deadline is the query's property, not this worker's.
                let remaining = match deadline {
                    Some(d) => {
                        let left = d.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return Err(deadline_exceeded());
                        }
                        Some(left)
                    }
                    None => None,
                };
                let slot = &self.workers[(request.preferred + offset) % n];
                let last_resort = pass + 1 == self.config.max_passes && offset + 1 == n;
                if pass == 0 && slot.in_cooldown() && !last_resort {
                    continue;
                }
                let attempt = Instant::now();
                slot.rpcs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let timeout = match remaining {
                    Some(left) => self.config.solve_timeout.min(left + DEADLINE_GRACE),
                    None => self.config.solve_timeout,
                };
                match self.solve_on(slot, graph, request, timeout) {
                    Ok(result) => {
                        slot.histogram
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .record(attempt.elapsed());
                        slot.clear_cooldown();
                        return Ok(result);
                    }
                    // The worker's own token tripped: the deadline is just
                    // as exhausted on every other worker, so don't fail
                    // over (and don't punish the worker with a cooldown —
                    // it answered promptly and correctly).
                    Err(e) if e.contains("deadline exceeded") => {
                        return Err(deadline_exceeded());
                    }
                    Err(e) => {
                        // Likewise a request the worker's solver rejects:
                        // every worker runs the same deterministic check,
                        // so the reply is the query's answer.
                        if let Some(rejection) = query_rejection(&e) {
                            return Err(rejection);
                        }
                        slot.failures
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        slot.start_cooldown(self.config.cooldown);
                        last_error = format!("{}: {e}", slot.addr);
                    }
                }
            }
        }
        Err(BscError::Cluster(format!(
            "window start={} graph={}: all {n} workers exhausted after {} passes; last error: \
             {last_error}",
            request.start, request.epoch, self.config.max_passes
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{WorkerConfig, WorkerServer};
    use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
    use bsc_storage::backend::StorageSpec;

    fn graph() -> ClusterGraph {
        ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 7,
            nodes_per_interval: 10,
            avg_out_degree: 3,
            gap: 1,
            seed: 21,
        })
        .generate()
    }

    fn quick_config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            solve_timeout: Duration::from_secs(10),
            control_timeout: Duration::from_secs(5),
            backoff_step: Duration::from_millis(5),
            cooldown: Duration::from_millis(50),
            ..ClientConfig::default()
        }
    }

    fn request(epoch: u64, start: u32, preferred: usize) -> WindowRequest {
        WindowRequest {
            epoch,
            start,
            l: 2,
            k: 4,
            algorithm: AlgorithmKind::Bfs,
            storage: StorageSpec::Memory,
            preferred,
            deadline_ms: None,
        }
    }

    #[test]
    fn solves_install_lazily_and_reuse_the_epoch() {
        let mut worker = WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
            .unwrap()
            .spawn();
        let spec = FanoutSpec::parse(&worker.addr().to_string()).unwrap();
        let client = ClusterClient::new(spec, quick_config());
        let g = graph();
        let expected = bsc_core::distributed::solve_window_locally(
            &g,
            2,
            2,
            4,
            AlgorithmKind::Bfs,
            &Default::default(),
        )
        .unwrap();
        let first = client.solve_window(&g, &request(9, 2, 0)).unwrap();
        let second = client.solve_window(&g, &request(9, 3, 0)).unwrap();
        assert_eq!(first.paths.len(), expected.paths.len());
        for (a, b) in first.paths.iter().zip(expected.paths.iter()) {
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.weight().to_bits(), b.weight().to_bits());
        }
        assert!(!second.paths.is_empty());
        // One graph shipment serves both solves of the epoch.
        assert_eq!(worker.installs(), 1);
        assert_eq!(worker.solves(), 2);
        worker.kill();
    }

    #[test]
    fn failover_reroutes_to_the_healthy_worker() {
        let mut dead = WorkerServer::bind(
            "127.0.0.1:0",
            WorkerConfig {
                die_after_solves: Some(0),
            },
        )
        .unwrap()
        .spawn();
        let mut alive = WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
            .unwrap()
            .spawn();
        let spec =
            FanoutSpec::new(vec![dead.addr().to_string(), alive.addr().to_string()]).unwrap();
        let client = ClusterClient::new(spec, quick_config());
        let g = graph();
        // Preferred worker 0 dies mid-solve; the window lands on worker 1.
        let result = client.solve_window(&g, &request(4, 1, 0)).unwrap();
        assert!(!result.paths.is_empty());
        assert_eq!(alive.solves(), 1);
        let health = client.health();
        assert!(!health[0].healthy);
        assert!(health[1].healthy);
        // The failure is visible in the per-worker metrics.
        let stats = bsc_util::json::parse(&client.stats_json().render()).unwrap();
        let slots = stats.as_array().unwrap();
        assert_eq!(slots.len(), 2);
        assert!(slots[0].get("failures").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(slots[1].get("failures").unwrap().as_u64(), Some(0));
        assert!(slots[1].get("rpc_count").unwrap().as_u64().unwrap() >= 1);
        dead.kill();
        alive.kill();
    }

    #[test]
    fn a_rejected_query_is_answered_once_and_blames_no_worker() {
        let mut workers: Vec<_> = (0..3)
            .map(|_| {
                WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
                    .unwrap()
                    .spawn()
            })
            .collect();
        let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
        let client = ClusterClient::new(FanoutSpec::new(addrs).unwrap(), quick_config());
        let mut bad = request(2, 1, 1);
        bad.algorithm = AlgorithmKind::Auto {
            budget_bytes: Some(1),
        };
        let err = client.solve_window(&graph(), &bad).unwrap_err();
        // The worker's own words, as the single-process solve reports them.
        assert!(matches!(err, BscError::InvalidConfig(_)), "{err}");
        let local = bsc_core::distributed::solve_window_locally(
            &graph(),
            1,
            2,
            4,
            bad.algorithm,
            &Default::default(),
        )
        .unwrap_err();
        assert_eq!(err.to_string(), local.to_string());
        // One RPC, no fail-over; nobody cools down or is blamed.
        assert!(client.health().iter().all(|w| w.healthy));
        assert!(client.workers.iter().all(|slot| !slot.in_cooldown()));
        let relaxed = std::sync::atomic::Ordering::Relaxed;
        let rpcs: u64 = client.workers.iter().map(|s| s.rpcs.load(relaxed)).sum();
        let failures: u64 = client
            .workers
            .iter()
            .map(|s| s.failures.load(relaxed))
            .sum();
        assert_eq!((rpcs, failures), (1, 0));
        workers.iter_mut().for_each(|w| w.kill());
    }

    #[test]
    fn all_workers_down_is_a_clean_cluster_error() {
        // Bind-then-kill guarantees the ports are real but dead.
        let mut w1 = WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
            .unwrap()
            .spawn();
        let mut w2 = WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
            .unwrap()
            .spawn();
        let spec = FanoutSpec::new(vec![w1.addr().to_string(), w2.addr().to_string()]).unwrap();
        w1.kill();
        w2.kill();
        let client = ClusterClient::new(spec, quick_config());
        let g = graph();
        let err = client.solve_window(&g, &request(1, 0, 0)).unwrap_err();
        match err {
            BscError::Cluster(reason) => {
                assert!(reason.contains("all 2 workers exhausted"), "{reason}")
            }
            other => panic!("expected a Cluster error, got {other}"),
        }
    }

    #[test]
    fn version_mismatch_fails_fast_with_a_clear_error() {
        // A fake "worker" speaking a different protocol version.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            use std::io::{BufRead, BufReader, Write};
            for stream in listener.incoming().take(3) {
                let Ok(mut stream) = stream else { continue };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                if reader.read_line(&mut line).is_ok() {
                    let _ = writeln!(
                        stream,
                        "{{\"error\":\"protocol version mismatch: coordinator speaks v1, worker \
                         speaks v99\",\"ok\":false}}"
                    );
                }
            }
        });
        let spec = FanoutSpec::parse(&addr.to_string()).unwrap();
        let client = ClusterClient::new(spec, quick_config());
        let err = client
            .solve_window(&graph(), &request(1, 0, 0))
            .unwrap_err();
        assert!(err.to_string().contains("version mismatch"), "{err}");
        drop(client);
        let _ = server;
    }
}
