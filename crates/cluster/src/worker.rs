//! The worker half of the fan-out: a TCP server answering window solves.
//!
//! A [`WorkerServer`] accepts any number of coordinator connections; each
//! connection is served by its own thread and carries its own graph cache
//! (the last `install_graph`-shipped graph, keyed by the frame's `epoch`:
//! the coordinator's process-unique id of that graph value), so concurrent
//! coordinators — or concurrent dispatcher threads of one coordinator —
//! never share mutable state. A `solve_window` naming a graph the
//! connection has not been shipped is answered with an `unknown epoch`
//! error; the client reacts by installing the graph and retrying, which
//! also covers reconnect-after-restart transparently.
//!
//! The actual solve is [`bsc_core::distributed::solve_window_locally`] —
//! the identical code path a `ShardedSolver`'s local threads run, so a
//! worker's answer is byte-identical to the shard thread it replaces. The
//! window is a borrowed view of the installed graph: nothing is extracted
//! or copied per request.
//!
//! A connection is one event channel. A reader thread posts each frame it
//! reads, and EOF when the peer closes or its idle read timeout finds the
//! worker dead; each `solve_window` runs on a scoped thread under a
//! per-request [`CancelToken`] (seeded from the request's `deadline_ms`
//! remaining budget, when present) and posts its rendered reply to the same
//! channel. The connection thread blocks on the channel and answers each
//! event as it arrives: the reply the moment the solve ends, a `cancel` by
//! tripping the token and acking at once, and the peer closing mid-solve by
//! cancelling too, so an abandoned solve stops burning the worker within
//! one checkpoint interval instead of running to completion for nobody.
//! See `docs/robustness.md`.
//!
//! For fault-injection tests a [`WorkerConfig::die_after_solves`] budget
//! makes the server drop the connection *instead of answering* the fatal
//! solve and stop accepting — indistinguishable from a `kill -9` mid-solve
//! from the coordinator's point of view.

use std::io::{BufReader, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use bsc_core::cluster_graph::ClusterGraph;
use bsc_core::distributed::solve_window_locally;
use bsc_core::solver::{AlgorithmKind, SolverOptions};
use bsc_storage::backend::StorageSpec;
use bsc_util::cancel::CancelToken;
use bsc_util::json::{self, JsonValue};

use crate::wire::{
    error_response, graph_from_json, ok_response, parse_deadline_ms, parse_solve_fields,
    read_frame, window_result_response, write_frame, PROTOCOL_VERSION,
};

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

/// What a connection thread waits for, in arrival order: a frame its reader
/// read, the end of the connection, or the reply of the solve it runs.
enum Event {
    /// A frame, or why none can be read (a bad frame, a broken socket).
    Frame(std::io::Result<String>),
    /// The peer closed the connection, or the worker died.
    Eof,
    /// The rendered reply of the solve in flight.
    Solved(String),
}

/// Serve one coordinator connection until EOF, error, or injected death:
/// a reader thread posts the connection's frames to one channel, a solve
/// posts its reply to the same one, and this thread answers each event as
/// it arrives.
fn serve_connection(stream: TcpStream, shared: Arc<WorkerShared>) {
    let _ = stream.set_nodelay(true);
    let (events, inbox) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| read_frames(&stream, &events, &shared));
        serve_events(&stream, &events, &inbox, &shared);
        // Wakes the reader now, and the peer reads EOF now rather than at
        // its next timeout.
        let _ = stream.shutdown(Shutdown::Both);
    });
}

/// Post every frame of the connection until EOF, a read error or the
/// worker's death. The 100 ms read timeout only lets an idle reader notice
/// the last; nothing waits on it while a solve runs.
fn read_frames(stream: &TcpStream, events: &Sender<Event>, shared: &WorkerShared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    loop {
        let event = match read_frame(&mut reader) {
            Ok(Some(line)) => Event::Frame(Ok(line)),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if !shared.dead.load(Ordering::Relaxed) {
                    continue;
                }
                Event::Eof
            }
            Ok(None) => Event::Eof,
            Err(e) => Event::Frame(Err(e)),
        };
        let last = !matches!(event, Event::Frame(Ok(_)));
        if events.send(event).is_err() || last {
            return;
        }
    }
}

/// Answer the connection's events until it ends.
fn serve_events(
    writer: &TcpStream,
    events: &Sender<Event>,
    inbox: &Receiver<Event>,
    shared: &WorkerShared,
) {
    // The per-connection graph cache: the last installed (graph id, graph).
    let mut graph: Option<(u64, ClusterGraph)> = None;
    while let Ok(event) = inbox.recv() {
        let line = match event {
            Event::Frame(Ok(line)) if !shared.dead.load(Ordering::Relaxed) => line,
            Event::Frame(Err(e)) => {
                // Oversized / truncated / non-UTF-8 frame: report once if
                // the socket still works, then drop the connection — the
                // framing is out of sync, recovery is a reconnect.
                let bad = error_response(&format!("bad frame: {e}"));
                reply(writer, shared, &bad);
                return;
            }
            _ => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match json::parse(&line) {
            Err(e) => error_response(&e),
            Ok(doc) if doc.get("op").and_then(JsonValue::as_str) == Some("solve_window") => {
                if shared.next_solve_is_fatal() {
                    // Injected death: no response, no further requests.
                    shared.dead.store(true, Ordering::Relaxed);
                    return;
                }
                match prepare_solve(&doc, &graph)
                    .map(|prepared| solve_supervised(prepared, writer, events, inbox, shared))
                {
                    Ok(Some(response)) => response,
                    Ok(None) => return,
                    Err(message) => error_response(&message),
                }
            }
            Ok(doc) => handle_request(&doc, &mut graph, shared),
        };
        if !reply(writer, shared, &response) {
            return;
        }
    }
}

/// Write one frame, unless the worker is dead: a dead worker answers
/// nothing. False when the connection must close.
fn reply(mut writer: &TcpStream, shared: &WorkerShared, line: &str) -> bool {
    !shared.dead.load(Ordering::Relaxed) && write_frame(&mut writer, line).is_ok()
}

fn handle_request(
    doc: &JsonValue,
    graph: &mut Option<(u64, ClusterGraph)>,
    shared: &WorkerShared,
) -> String {
    let op = match doc.get("op").and_then(JsonValue::as_str) {
        Some(op) => op,
        None => return error_response("request missing 'op'"),
    };
    match op {
        "hello" => {
            let version = doc.get("version").and_then(JsonValue::as_u64);
            match version {
                Some(v) if v == PROTOCOL_VERSION => ok_response(
                    "hello",
                    vec![("version", JsonValue::from(PROTOCOL_VERSION))],
                ),
                Some(v) => error_response(&format!(
                    "protocol version mismatch: coordinator speaks v{v}, worker speaks \
                     v{PROTOCOL_VERSION}; run matching builds"
                )),
                None => error_response("hello missing 'version'"),
            }
        }
        "install_graph" => {
            let epoch = match doc.get("epoch").map(crate::wire::epoch_from_json) {
                Some(Ok(epoch)) => epoch,
                Some(Err(e)) => return error_response(&e),
                None => return error_response("install_graph missing 'epoch'"),
            };
            let parsed = doc
                .get("graph")
                .ok_or_else(|| "install_graph missing 'graph'".to_string())
                .and_then(graph_from_json);
            match parsed {
                Ok(g) => {
                    *graph = Some((epoch, g));
                    shared.installs.fetch_add(1, Ordering::Relaxed);
                    ok_response(
                        "install_graph",
                        vec![("epoch", crate::wire::epoch_to_json(epoch))],
                    )
                }
                Err(e) => error_response(&e),
            }
        }
        // A cancel with no solve in flight: nothing to trip, acked anyway
        // so the coordinator's abandon path is race-free.
        "cancel" => ok_response("cancel", vec![("cancelled", JsonValue::Bool(false))]),
        "ping" => {
            let epoch = graph.as_ref().map(|(epoch, _)| *epoch);
            let mut fields = vec![("version", JsonValue::from(PROTOCOL_VERSION))];
            if let Some(epoch) = epoch {
                fields.push(("epoch", crate::wire::epoch_to_json(epoch)));
            }
            ok_response("ping", fields)
        }
        "stats" => ok_response(
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
        other => error_response(&format!("unknown op '{other}'")),
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
/// thread holding a per-request [`CancelToken`] and posts its rendered reply
/// to the connection's channel, while this thread answers the frames that
/// arrive before it. A `cancel` frame trips the token (acked at once); peer
/// EOF or a broken socket mid-solve trips it too, so an abandoned solve
/// stops within one checkpoint interval. `None` when the connection must
/// close.
fn solve_supervised(
    prepared: PreparedSolve<'_>,
    writer: &TcpStream,
    events: &Sender<Event>,
    inbox: &Receiver<Event>,
    shared: &WorkerShared,
) -> Option<String> {
    // The wire budget is "time remaining at dispatch", so the local
    // deadline starts counting now — no clock agreement with the
    // coordinator needed.
    let token = match prepared.deadline_ms {
        Some(ms) => CancelToken::after(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    std::thread::scope(|scope| {
        let (solve_token, solved) = (token.clone(), events.clone());
        scope.spawn(move || {
            let options = SolverOptions::default()
                .storage(prepared.storage)
                .cancel_token(Some(solve_token));
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                solve_window_locally(
                    prepared.graph,
                    prepared.start,
                    prepared.l,
                    prepared.k,
                    prepared.algorithm,
                    &options,
                )
            }));
            let response = match outcome {
                Ok(Ok(result)) => window_result_response(&result),
                Ok(Err(e)) => error_response(&e.to_string()),
                Err(_) => error_response("solver thread panicked"),
            };
            let _ = solved.send(Event::Solved(response));
        });
        // Every early return trips the token first, so the scope's join
        // waits at most one checkpoint interval.
        loop {
            match inbox.recv() {
                Ok(Event::Solved(response)) => {
                    if response.starts_with("{\"ok\":true") {
                        shared.solves.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(response);
                }
                // A worker that died answers nothing and cancels nobody's
                // request.
                _ if shared.dead.load(Ordering::Relaxed) => {
                    token.cancel();
                    return None;
                }
                Ok(Event::Frame(Ok(line))) if is_cancel(&line) => {
                    token.cancel();
                    shared.cancels.fetch_add(1, Ordering::Relaxed);
                    let ack = ok_response("cancel", vec![("cancelled", JsonValue::Bool(true))]);
                    if !reply(writer, shared, &ack) {
                        return None;
                    }
                }
                Ok(Event::Frame(Ok(_))) => {
                    // The protocol is strictly request/response: any other
                    // frame mid-solve means the peer lost track of the
                    // framing. Cancel and drop the connection.
                    token.cancel();
                    let refused = "request while a solve is in flight; only 'cancel' is accepted";
                    reply(writer, shared, &error_response(refused));
                    return None;
                }
                // Peer gone or socket broken mid-solve: stop burning CPU on
                // an answer nobody will read.
                _ => {
                    token.cancel();
                    shared.cancels.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
    })
}

fn is_cancel(line: &str) -> bool {
    json::parse(line).is_ok_and(|doc| doc.get("op").and_then(JsonValue::as_str) == Some("cancel"))
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
        write_frame(stream, line).unwrap();
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

    /// A window request is answered when its solve ends: nothing waits
    /// between the solve and its reply, so each of 40 takes well under the
    /// 2 ms any poll period would add.
    #[test]
    fn sequential_window_solves_are_answered_as_their_solves_end() {
        let mut handle = WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
            .unwrap()
            .spawn();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let g = graph();
        let install = roundtrip(
            &mut stream,
            &mut reader,
            &wire::install_graph_request(1, &g),
        );
        assert!(install.contains("\"ok\":true"), "{install}");
        let starts = g.num_intervals() as u32 - 2;
        let expected: Vec<_> = (0..starts)
            .map(|start| {
                solve_window_locally(
                    &g,
                    start,
                    2,
                    3,
                    AlgorithmKind::Bfs,
                    &SolverOptions::default(),
                )
                .unwrap()
            })
            .collect();
        let begun = std::time::Instant::now();
        for i in 0..40 {
            let start = i % starts;
            let solved = roundtrip(
                &mut stream,
                &mut reader,
                &format!(
                    "{{\"op\":\"solve_window\",\"epoch\":\"0000000000000001\",\"start\":{start},\
                     \"l\":2,\"k\":3,\"algorithm\":\"bfs\",\"storage\":\"memory\"}}"
                ),
            );
            let response = wire::Response::parse(&solved).unwrap();
            let result = wire::window_result_from_response(&response).unwrap();
            let expected = &expected[start as usize];
            assert_eq!(result.paths.len(), expected.paths.len());
            for (a, b) in result.paths.iter().zip(expected.paths.iter()) {
                assert_eq!(a.nodes(), b.nodes());
                assert_eq!(a.weight().to_bits(), b.weight().to_bits());
            }
        }
        let elapsed = begun.elapsed();
        assert!(
            elapsed < Duration::from_millis(40 * 2),
            "40 window requests took {elapsed:?}"
        );
        assert_eq!(handle.solves(), 40);
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

    /// What happens to a solve in flight: a `cancel` is acked before the
    /// solve's reply, a peer that leaves cancels it, and any other frame is
    /// refused and closes the connection. The solve is DFS over a whole
    /// 12 × 300 graph, seconds of work, so each answer here comes from the
    /// tripped token, not from the solve ending.
    #[test]
    fn a_solve_in_flight_answers_a_cancel_a_departed_peer_and_a_stray_frame() {
        let mut handle = WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
            .unwrap()
            .spawn();
        let slow = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 12,
            nodes_per_interval: 300,
            avg_out_degree: 5,
            gap: 1,
            seed: 7,
        })
        .generate();
        let install = wire::install_graph_request(1, &slow);
        let solve = "{\"op\":\"solve_window\",\"epoch\":\"0000000000000001\",\"start\":0,\
                     \"l\":11,\"k\":5,\"algorithm\":\"dfs\",\"storage\":\"memory\"}";
        let connect = || {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            assert!(roundtrip(&mut stream, &mut reader, &install).contains("\"ok\":true"));
            write_frame(&mut stream, solve).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            (stream, reader)
        };
        let begun = std::time::Instant::now();

        let (mut stream, mut reader) = connect();
        let ack = roundtrip(&mut stream, &mut reader, &wire::cancel_request());
        assert!(ack.contains("\"cancelled\":true"), "{ack}");
        let cancelled = read_frame(&mut reader).unwrap().unwrap();
        assert!(cancelled.contains("deadline exceeded"), "{cancelled}");
        assert_eq!((handle.cancels(), handle.solves()), (1, 0));
        // The connection goes on serving.
        assert!(roundtrip(&mut stream, &mut reader, &wire::ping_request()).contains("\"ok\":true"));

        let (stream, _reader) = connect();
        stream.shutdown(std::net::Shutdown::Both).unwrap();
        while handle.cancels() < 2 {
            assert!(
                begun.elapsed() < Duration::from_secs(3),
                "the departed peer's solve ran on"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        let (mut stream, mut reader) = connect();
        let refused = roundtrip(&mut stream, &mut reader, &wire::ping_request());
        assert!(refused.contains("only 'cancel' is accepted"), "{refused}");
        assert!(read_frame(&mut reader).unwrap().is_none());
        assert!(
            begun.elapsed() < Duration::from_secs(3),
            "{:?}",
            begun.elapsed()
        );
        assert_eq!((handle.cancels(), handle.solves()), (2, 0));
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
        write_frame(&mut stream, solve).unwrap();
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
