//! The worker half of the fan-out: a TCP server answering window solves.
//!
//! A [`WorkerServer`] accepts any number of coordinator connections; each
//! connection is served by its own thread and carries its own graph cache
//! (the last `install_graph`-shipped graph, keyed by epoch), so concurrent
//! coordinators — or concurrent dispatcher threads of one coordinator —
//! never share mutable state. A `solve_window` against an epoch the
//! connection has not seen is answered with an `unknown epoch` error; the
//! client reacts by installing the graph and retrying, which also covers
//! reconnect-after-restart transparently.
//!
//! The actual solve is [`bsc_core::distributed::solve_window_locally`] —
//! the identical code path a `ShardedSolver`'s local threads run, so a
//! worker's answer is byte-identical to the shard thread it replaces. The
//! window is a borrowed view of the installed epoch graph: nothing is
//! extracted or copied per request.
//!
//! Solves are *supervised*: each `solve_window` runs on a scoped thread
//! under a per-request [`CancelToken`] (seeded from the request's
//! `deadline_ms` remaining budget, when present) while the connection
//! thread keeps reading frames. A `cancel` op trips the token and is acked
//! immediately; the peer closing the connection mid-solve cancels too, so
//! an abandoned solve stops burning the worker within one checkpoint
//! interval instead of running to completion for nobody. See
//! `docs/robustness.md`.
//!
//! For fault-injection tests a [`WorkerConfig::die_after_solves`] budget
//! makes the server drop the connection *instead of answering* the fatal
//! solve and stop accepting — indistinguishable from a `kill -9` mid-solve
//! from the coordinator's point of view.

use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bsc_core::cluster_graph::ClusterGraph;
use bsc_core::distributed::solve_window_locally;
use bsc_core::solver::{AlgorithmKind, SolverOptions};
use bsc_storage::backend::StorageSpec;
use bsc_util::cancel::CancelToken;
use bsc_util::json::{self, JsonValue};

use crate::wire::{
    graph_from_json, parse_deadline_ms, parse_solve_fields, read_frame, window_result_response,
    PROTOCOL_VERSION,
};

/// Read-timeout (and thus supervision poll period) while a solve is in
/// flight, in milliseconds. Short enough that a fast solve's response is
/// not held hostage by a blocked `read_frame`, long enough that the
/// supervisor thread stays effectively idle.
const SUPERVISION_POLL_MS: u64 = 2;

/// Worker server configuration.
#[derive(Debug, Clone, Default)]
pub struct WorkerConfig {
    /// Fault injection: after answering this many `solve_window` requests,
    /// drop the connection mid-request (no response) and stop accepting —
    /// the worker "dies". `None` (the default) never dies.
    pub die_after_solves: Option<u64>,
}

#[derive(Debug, Default)]
struct WorkerShared {
    config: WorkerConfig,
    dead: AtomicBool,
    solves: AtomicU64,
    installs: AtomicU64,
    connections: AtomicU64,
    cancels: AtomicU64,
}

impl WorkerShared {
    /// True when the fault plan says the *next* solve must kill the worker.
    fn next_solve_is_fatal(&self) -> bool {
        match self.config.die_after_solves {
            Some(budget) => self.solves.load(Ordering::Relaxed) >= budget,
            None => false,
        }
    }
}

/// A bound-but-not-yet-serving worker server.
#[derive(Debug)]
pub struct WorkerServer {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<WorkerShared>,
}

/// Handle to a worker served on a background thread (tests and in-process
/// fleets). Dropping the handle does NOT stop the worker; call
/// [`WorkerHandle::kill`].
#[derive(Debug)]
pub struct WorkerHandle {
    addr: SocketAddr,
    shared: Arc<WorkerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl WorkerServer {
    /// Bind to `addr` (use port 0 for an OS-assigned port).
    pub fn bind(addr: &str, config: WorkerConfig) -> std::io::Result<WorkerServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(WorkerServer {
            listener,
            addr,
            shared: Arc::new(WorkerShared {
                config,
                ..WorkerShared::default()
            }),
        })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until killed (the blocking entry point behind
    /// `bsc serve --worker`). Accepts connections in a poll loop so an
    /// injected death (or [`WorkerHandle::kill`]) is observed promptly.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        while !self.shared.dead.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || serve_connection(stream, shared));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Serve on a background thread, returning a handle with the address.
    pub fn spawn(self) -> WorkerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || {
            let _ = self.run();
        });
        WorkerHandle {
            addr,
            shared,
            thread: Some(thread),
        }
    }
}

impl WorkerHandle {
    /// The worker's address, e.g. to build a
    /// [`FanoutSpec`](bsc_core::distributed::FanoutSpec).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of `solve_window` requests answered so far.
    pub fn solves(&self) -> u64 {
        self.shared.solves.load(Ordering::Relaxed)
    }

    /// Number of graphs installed so far.
    pub fn installs(&self) -> u64 {
        self.shared.installs.load(Ordering::Relaxed)
    }

    /// Number of in-flight solves cancelled so far — by a `cancel` op or by
    /// the peer abandoning the connection mid-solve.
    pub fn cancels(&self) -> u64 {
        self.shared.cancels.load(Ordering::Relaxed)
    }

    /// Kill the worker: stop accepting, drop live connections at the next
    /// request boundary, join the accept thread.
    pub fn kill(&mut self) {
        self.shared.dead.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Serve one coordinator connection until EOF, error, or injected death.
fn serve_connection(stream: TcpStream, shared: Arc<WorkerShared>) {
    // Short read timeout so the loop re-checks the death flag while idle.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // The per-connection graph cache: the last installed (epoch, graph).
    let mut graph: Option<(u64, ClusterGraph)> = None;
    loop {
        if shared.dead.load(Ordering::Relaxed) {
            return;
        }
        let line = match read_frame(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) => {
                // Oversized / truncated / non-UTF-8 frame: report once if
                // the socket still works, then drop the connection — the
                // framing is out of sync, recovery is a reconnect.
                let _ = writeln!(writer, "{}", wire_error(&format!("bad frame: {e}")));
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let doc = match json::parse(&line) {
            Ok(doc) => doc,
            Err(e) => {
                if writeln!(writer, "{}", wire_error(&e))
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    return;
                }
                continue;
            }
        };
        // Solves are supervised (scoped solver thread + frame polling), so
        // they are dispatched here where the reader and writer are in hand.
        if doc.get("op").and_then(JsonValue::as_str) == Some("solve_window") {
            if shared.next_solve_is_fatal() {
                // Injected death: no response, no further requests.
                shared.dead.store(true, Ordering::Relaxed);
                return;
            }
            match solve_supervised(&doc, &graph, &shared, &mut reader, &mut writer) {
                ConnectionFate::Continue => continue,
                ConnectionFate::Close => return,
            }
        }
        let response = handle_request(&doc, &mut graph, &shared);
        if writeln!(writer, "{response}")
            .and_then(|_| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Whether a connection keeps serving after a supervised solve.
enum ConnectionFate {
    Continue,
    Close,
}

fn wire_error(message: &str) -> String {
    JsonValue::object([
        ("ok".to_string(), JsonValue::Bool(false)),
        ("error".to_string(), JsonValue::from(message)),
    ])
    .render()
}

fn ok_fields(op: &str, fields: Vec<(&str, JsonValue)>) -> String {
    let mut pairs = vec![
        ("ok".to_string(), JsonValue::Bool(true)),
        ("op".to_string(), JsonValue::from(op)),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::object(pairs).render()
}

fn handle_request(
    doc: &JsonValue,
    graph: &mut Option<(u64, ClusterGraph)>,
    shared: &WorkerShared,
) -> String {
    let op = match doc.get("op").and_then(JsonValue::as_str) {
        Some(op) => op,
        None => return wire_error("request missing 'op'"),
    };
    match op {
        "hello" => {
            let version = doc.get("version").and_then(JsonValue::as_u64);
            match version {
                Some(v) if v == PROTOCOL_VERSION => ok_fields(
                    "hello",
                    vec![("version", JsonValue::from(PROTOCOL_VERSION))],
                ),
                Some(v) => wire_error(&format!(
                    "protocol version mismatch: coordinator speaks v{v}, worker speaks \
                     v{PROTOCOL_VERSION}; run matching builds"
                )),
                None => wire_error("hello missing 'version'"),
            }
        }
        "install_graph" => {
            let epoch = match doc.get("epoch").map(crate::wire::epoch_from_json) {
                Some(Ok(epoch)) => epoch,
                Some(Err(e)) => return wire_error(&e),
                None => return wire_error("install_graph missing 'epoch'"),
            };
            let parsed = doc
                .get("graph")
                .ok_or_else(|| "install_graph missing 'graph'".to_string())
                .and_then(graph_from_json);
            match parsed {
                Ok(g) => {
                    *graph = Some((epoch, g));
                    shared.installs.fetch_add(1, Ordering::Relaxed);
                    ok_fields(
                        "install_graph",
                        vec![("epoch", crate::wire::epoch_to_json(epoch))],
                    )
                }
                Err(e) => wire_error(&e),
            }
        }
        // A cancel with no solve in flight: nothing to trip, acked anyway
        // so the coordinator's abandon path is race-free.
        "cancel" => ok_fields("cancel", vec![("cancelled", JsonValue::Bool(false))]),
        "ping" => {
            let epoch = graph.as_ref().map(|(epoch, _)| *epoch);
            let mut fields = vec![("version", JsonValue::from(PROTOCOL_VERSION))];
            if let Some(epoch) = epoch {
                fields.push(("epoch", crate::wire::epoch_to_json(epoch)));
            }
            ok_fields("ping", fields)
        }
        "stats" => ok_fields(
            "stats",
            vec![
                (
                    "solves",
                    JsonValue::from(shared.solves.load(Ordering::Relaxed)),
                ),
                (
                    "installs",
                    JsonValue::from(shared.installs.load(Ordering::Relaxed)),
                ),
                (
                    "connections",
                    JsonValue::from(shared.connections.load(Ordering::Relaxed)),
                ),
                (
                    "cancels",
                    JsonValue::from(shared.cancels.load(Ordering::Relaxed)),
                ),
            ],
        ),
        other => wire_error(&format!("unknown op '{other}'")),
    }
}

/// A fully validated `solve_window` request, ready to run.
struct PreparedSolve<'g> {
    graph: &'g ClusterGraph,
    start: u32,
    l: u32,
    k: usize,
    algorithm: AlgorithmKind,
    storage: StorageSpec,
    deadline_ms: Option<u64>,
}

/// Validate a `solve_window` request against the connection's installed
/// graph. Every malformed field becomes an error response rendered on the
/// connection thread — nothing is spawned for a bad request.
fn prepare_solve<'g>(
    doc: &JsonValue,
    graph: &'g Option<(u64, ClusterGraph)>,
) -> Result<PreparedSolve<'g>, String> {
    let epoch = match doc.get("epoch").map(crate::wire::epoch_from_json) {
        Some(Ok(epoch)) => epoch,
        Some(Err(e)) => return Err(e),
        None => return Err("solve_window missing 'epoch'".to_string()),
    };
    let graph = match graph {
        Some((e, g)) if *e == epoch => g,
        Some((e, _)) => {
            return Err(format!(
                "unknown epoch {epoch}: this connection has epoch {e}; send install_graph"
            ))
        }
        None => {
            return Err(format!(
                "unknown epoch {epoch}: no graph installed on this connection; send install_graph"
            ))
        }
    };
    let field = |key: &str| doc.get(key).and_then(JsonValue::as_u64);
    let (Some(start), Some(l), Some(k)) = (field("start"), field("l"), field("k")) else {
        return Err("solve_window requires 'start', 'l' and 'k'".to_string());
    };
    let (Ok(start), Ok(l), Ok(k)) = (u32::try_from(start), u32::try_from(l), usize::try_from(k))
    else {
        return Err("solve_window field out of range".to_string());
    };
    if (start as usize) + (l as usize) >= graph.num_intervals() {
        return Err(format!(
            "window [{start}, {}] exceeds the graph's {} intervals",
            start as u64 + l as u64,
            graph.num_intervals()
        ));
    }
    let (algorithm, storage) = parse_solve_fields(doc)?;
    let deadline_ms = parse_deadline_ms(doc)?;
    Ok(PreparedSolve {
        graph,
        start,
        l,
        k,
        algorithm,
        storage,
        deadline_ms,
    })
}

/// Run one `solve_window` under supervision: the solve runs on a scoped
/// thread holding a per-request [`CancelToken`] while this thread keeps
/// polling the connection. A `cancel` frame trips the token (acked
/// immediately); peer EOF or a broken socket mid-solve trips it too, so an
/// abandoned solve stops within one checkpoint interval.
fn solve_supervised(
    doc: &JsonValue,
    graph: &Option<(u64, ClusterGraph)>,
    shared: &WorkerShared,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) -> ConnectionFate {
    let prepared = match prepare_solve(doc, graph) {
        Ok(prepared) => prepared,
        Err(message) => {
            return match writeln!(writer, "{}", wire_error(&message)).and_then(|_| writer.flush()) {
                Ok(()) => ConnectionFate::Continue,
                Err(_) => ConnectionFate::Close,
            };
        }
    };
    // The wire budget is "time remaining at dispatch", so the local
    // deadline starts counting now — no clock agreement with the
    // coordinator needed.
    let token = match prepared.deadline_ms {
        Some(ms) => CancelToken::after(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    // Tighten the read timeout for the duration of the solve: it doubles
    // as the supervision poll period, and at the idle-loop 100 ms every
    // fast solve would pay up to a full poll of latency before the
    // supervisor notices it finished.
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(SUPERVISION_POLL_MS)));
    let mut fate = ConnectionFate::Continue;
    let response = std::thread::scope(|scope| {
        let solve_token = token.clone();
        let solver = scope.spawn(move || {
            solve_window_locally(
                prepared.graph,
                prepared.start,
                prepared.l,
                prepared.k,
                prepared.algorithm,
                &SolverOptions::default()
                    .storage(prepared.storage)
                    .cancel_token(Some(solve_token)),
            )
        });
        while !solver.is_finished() {
            if shared.dead.load(Ordering::Relaxed) {
                token.cancel();
                fate = ConnectionFate::Close;
                break;
            }
            // The stream's shortened read timeout doubles as the poll
            // period.
            match read_frame(reader) {
                Ok(Some(line)) => {
                    let is_cancel = json::parse(&line)
                        .ok()
                        .and_then(|d| {
                            d.get("op")
                                .and_then(JsonValue::as_str)
                                .map(|op| op == "cancel")
                        })
                        .unwrap_or(false);
                    if is_cancel {
                        token.cancel();
                        shared.cancels.fetch_add(1, Ordering::Relaxed);
                        let ack = ok_fields("cancel", vec![("cancelled", JsonValue::Bool(true))]);
                        if writeln!(writer, "{ack}")
                            .and_then(|_| writer.flush())
                            .is_err()
                        {
                            fate = ConnectionFate::Close;
                            break;
                        }
                    } else {
                        // The protocol is strictly request/response: any
                        // other frame mid-solve means the peer lost track
                        // of the framing. Cancel and drop the connection.
                        token.cancel();
                        let _ = writeln!(
                            writer,
                            "{}",
                            wire_error(
                                "request while a solve is in flight; only 'cancel' is accepted"
                            )
                        );
                        fate = ConnectionFate::Close;
                        break;
                    }
                }
                // Peer gone mid-solve: stop burning CPU on an answer
                // nobody will read.
                Ok(None) => {
                    token.cancel();
                    shared.cancels.fetch_add(1, Ordering::Relaxed);
                    fate = ConnectionFate::Close;
                    break;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => {
                    token.cancel();
                    shared.cancels.fetch_add(1, Ordering::Relaxed);
                    fate = ConnectionFate::Close;
                    break;
                }
            }
        }
        // Always join: the token is tripped on every early exit, so the
        // solver unwinds within one checkpoint interval.
        match solver.join() {
            Ok(Ok(result)) => window_result_response(&result),
            Ok(Err(e)) => wire_error(&e.to_string()),
            Err(_) => wire_error("solver thread panicked"),
        }
    });
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(100)));
    if matches!(fate, ConnectionFate::Close) {
        return ConnectionFate::Close;
    }
    if response.starts_with("{\"ok\":true") {
        shared.solves.fetch_add(1, Ordering::Relaxed);
    }
    match writeln!(writer, "{response}").and_then(|_| writer.flush()) {
        Ok(()) => ConnectionFate::Continue,
        Err(_) => ConnectionFate::Close,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
    use std::net::TcpStream;

    fn graph() -> ClusterGraph {
        ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 6,
            nodes_per_interval: 8,
            avg_out_degree: 3,
            gap: 1,
            seed: 3,
        })
        .generate()
    }

    fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        loop {
            match read_frame(reader) {
                Ok(Some(line)) => return line,
                Ok(None) => panic!("worker closed the connection"),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    #[test]
    fn worker_answers_the_full_request_cycle() {
        let mut handle = WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
            .unwrap()
            .spawn();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        // Handshake.
        let hello = roundtrip(&mut stream, &mut reader, &wire::hello_request());
        assert!(hello.contains("\"ok\":true"), "{hello}");

        // Version mismatch fails fast.
        let bad = roundtrip(
            &mut stream,
            &mut reader,
            "{\"op\":\"hello\",\"version\":999}",
        );
        assert!(bad.contains("version mismatch"), "{bad}");

        // Solving before a graph is installed names the fix.
        let early = roundtrip(
            &mut stream,
            &mut reader,
            "{\"op\":\"solve_window\",\"epoch\":\"0000000000000001\",\"start\":0,\"l\":2,\"k\":3}",
        );
        assert!(early.contains("install_graph"), "{early}");

        // Install, then solve, and check against the local answer.
        let g = graph();
        let install = roundtrip(
            &mut stream,
            &mut reader,
            &wire::install_graph_request(1, &g),
        );
        assert!(install.contains("\"ok\":true"), "{install}");
        let solved = roundtrip(
            &mut stream,
            &mut reader,
            "{\"op\":\"solve_window\",\"epoch\":\"0000000000000001\",\"start\":1,\"l\":2,\"k\":3,\
             \"algorithm\":\"bfs\",\"storage\":\"memory\"}",
        );
        let response = wire::Response::parse(&solved).unwrap();
        let result = wire::window_result_from_response(&response).unwrap();
        let expected = solve_window_locally(
            &g,
            1,
            2,
            3,
            bsc_core::solver::AlgorithmKind::Bfs,
            &SolverOptions::default(),
        )
        .unwrap();
        assert_eq!(result.paths.len(), expected.paths.len());
        for (a, b) in result.paths.iter().zip(expected.paths.iter()) {
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.weight().to_bits(), b.weight().to_bits());
        }
        assert_eq!(handle.solves(), 1);
        assert_eq!(handle.installs(), 1);

        // Out-of-range window is an error, not a panic.
        let oob = roundtrip(
            &mut stream,
            &mut reader,
            "{\"op\":\"solve_window\",\"epoch\":\"0000000000000001\",\"start\":5,\"l\":3,\"k\":3}",
        );
        assert!(oob.contains("exceeds"), "{oob}");

        // Ping reports the installed epoch.
        let ping = roundtrip(&mut stream, &mut reader, &wire::ping_request());
        assert!(ping.contains("\"epoch\":\"0000000000000001\""), "{ping}");

        handle.kill();
    }

    #[test]
    fn expired_deadline_is_answered_without_solving() {
        let mut handle = WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
            .unwrap()
            .spawn();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let install = roundtrip(
            &mut stream,
            &mut reader,
            &wire::install_graph_request(1, &graph()),
        );
        assert!(install.contains("\"ok\":true"), "{install}");
        // deadline_ms:0 — the budget is gone before the solve starts: the
        // entry check answers with the static DeadlineExceeded text and no
        // solve is counted.
        let expired = roundtrip(
            &mut stream,
            &mut reader,
            "{\"op\":\"solve_window\",\"epoch\":\"0000000000000001\",\"start\":0,\"l\":2,\"k\":3,\
             \"algorithm\":\"bfs\",\"storage\":\"memory\",\"deadline_ms\":0}",
        );
        assert!(expired.contains("\"ok\":false"), "{expired}");
        assert!(expired.contains("deadline exceeded"), "{expired}");
        assert_eq!(handle.solves(), 0);
        // The connection survives and keeps answering.
        let solved = roundtrip(
            &mut stream,
            &mut reader,
            "{\"op\":\"solve_window\",\"epoch\":\"0000000000000001\",\"start\":0,\"l\":2,\"k\":3,\
             \"algorithm\":\"bfs\",\"storage\":\"memory\",\"deadline_ms\":60000}",
        );
        assert!(solved.contains("\"ok\":true"), "{solved}");
        assert_eq!(handle.solves(), 1);
        handle.kill();
    }

    #[test]
    fn idle_cancel_is_acked_as_a_noop() {
        let mut handle = WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
            .unwrap()
            .spawn();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let ack = roundtrip(&mut stream, &mut reader, &wire::cancel_request());
        assert!(ack.contains("\"cancelled\":false"), "{ack}");
        assert_eq!(handle.cancels(), 0);
        handle.kill();
    }

    #[test]
    fn injected_death_drops_the_connection_without_a_response() {
        let mut handle = WorkerServer::bind(
            "127.0.0.1:0",
            WorkerConfig {
                die_after_solves: Some(0),
            },
        )
        .unwrap()
        .spawn();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let install = roundtrip(
            &mut stream,
            &mut reader,
            &wire::install_graph_request(1, &graph()),
        );
        assert!(install.contains("\"ok\":true"));
        let solve =
            "{\"op\":\"solve_window\",\"epoch\":\"0000000000000001\",\"start\":0,\"l\":2,\"k\":3}";
        writeln!(stream, "{solve}").unwrap();
        stream.flush().unwrap();
        // The connection dies with no response: EOF (clean close) or a
        // reset, never a solve_window answer.
        loop {
            match read_frame(&mut reader) {
                Ok(Some(line)) => panic!("dead worker answered: {line}"),
                Ok(None) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue
                }
                Err(_) => break,
            }
        }
        handle.kill();
    }
}
