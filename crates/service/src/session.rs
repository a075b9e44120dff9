//! The protocol session: graph state + an executor behind one line loop.
//!
//! A [`Session`] owns everything a `bsc serve` process holds between lines:
//! the snapshot cell, the optional online ingest stream and the executor
//! that answers queries. Two executors exist:
//!
//! * **engine** — the real thing: the fixed thread-pool [`QueryEngine`]
//!   with its bounded admission queue and epoch-tagged solution cache;
//! * **oracle** — a reference executor that answers every query with a
//!   direct one-shot `build_with_options(..).solve(..)` (the
//!   `Pipeline::run` code path), no pool, no queue, no cache — and on a
//!   clone of the graph, which keeps none of the look-ahead tables earlier
//!   solves built and is a graph value of its own, so every oracle solve is
//!   cold and a fan-out ships it afresh. It answers `stream_top_k` the same
//!   way, with a cold windowed solve of the stream's graph, where the engine
//!   merges the stream's last answer.
//!
//! A `load` and a `push_interval` publish the same way, through the
//! session's one `install`: into the engine, which works out from the two
//! graphs whether the new one appends to the one it replaces (a push does,
//! a `load` does not) and so whether its cached answers carry, or into the
//! oracle's cell. Neither op tells the engine which it is.
//!
//! Both executors maintain graph state identically (same generator seeds,
//! same epoch assignment through a [`SnapshotCell`]), and responses to
//! deterministic ops carry no timings — so `bsc serve < session` and
//! `bsc oracle < session` must produce **byte-identical transcripts**. CI
//! diffs exactly that, which makes the whole engine stack (admission,
//! pooling, caching, epoch pinning, merging) conformance-tested against the
//! one-shot solver from the outside.

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use bsc_core::delta::solve_windows;
use bsc_core::error::BscResult;
use bsc_core::problem::KlStableParams;
use bsc_core::snapshot::{GraphSnapshot, SnapshotCell};
use bsc_core::solver::{AlgorithmKind, SolverOptions};
use bsc_core::streaming::OnlineStableClusters;
use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
use bsc_util::json::JsonValue;
use bsc_util::LatencyHistogram;

use bsc_core::distributed::FanoutSpec;
use bsc_core::problem::StableClusterSpec;

use crate::engine::{EngineConfig, QueryEngine, QueryRequest};
use crate::protocol::{
    error_response, ok_response, parse_request, paths_to_json, Request, PROTOCOL_VERSION,
};

/// One protocol session. Feed it lines; it produces response lines.
pub struct Session {
    /// `Some` in engine mode, `None` in oracle mode.
    engine: Option<QueryEngine>,
    cell: Arc<SnapshotCell>,
    /// The online ingest stream, once `open_stream` started one. Its graph
    /// is what `push_interval` requests are validated against.
    stream: Option<OnlineStableClusters>,
    /// Coordinator mode: fan queries out to this worker set by default.
    /// Injected only into queries that decompose (not Problem 2), that the
    /// direct build accepts and that don't name their own `workers`;
    /// because distributed answers are byte-identical to local ones, the
    /// transcript is unchanged.
    default_fanout: Option<FanoutSpec>,
}

impl Session {
    /// An engine-backed session (the `bsc serve` executor).
    pub fn engine(config: EngineConfig) -> BscResult<Session> {
        let engine = QueryEngine::new(config)?;
        let cell = Arc::clone(engine.snapshot_cell());
        Ok(Session {
            engine: Some(engine),
            cell,
            stream: None,
            default_fanout: None,
        })
    }

    /// An oracle session (the `bsc oracle` reference executor).
    pub fn oracle() -> Session {
        Session {
            engine: None,
            cell: Arc::new(SnapshotCell::empty()),
            stream: None,
            default_fanout: None,
        }
    }

    /// Set the default fan-out worker set (coordinator mode). Requires a
    /// cluster transport to be installed (`bsc_cluster::install_transport`)
    /// before the first fanned-out query executes.
    pub fn default_fanout(mut self, fanout: Option<FanoutSpec>) -> Session {
        self.default_fanout = fanout;
        self
    }

    /// Answer `input` line by line on `output` until `shutdown` or the end
    /// of the input — the `bsc serve` / `bsc oracle` loop. Each line is read
    /// into one reused buffer; a line that is not UTF-8 is answered with an
    /// error line like any other bad request, and the session goes on. A
    /// read error is returned; a write error means the reader went away
    /// (e.g. `head`) and ends the session quietly.
    pub fn serve(&mut self, mut input: impl BufRead, mut output: impl Write) -> io::Result<()> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if input.read_until(b'\n', &mut buf)? == 0 {
                return Ok(());
            }
            // What `BufRead::lines` strips: the newline, and a carriage
            // return just before it.
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
            }
            let (response, keep_going) = match std::str::from_utf8(&buf) {
                Ok(line) => self.handle_line(line),
                Err(_) => (
                    Some(error_response("request line is not valid UTF-8")),
                    true,
                ),
            };
            if let Some(response) = response {
                if writeln!(output, "{response}")
                    .and_then(|()| output.flush())
                    .is_err()
                {
                    return Ok(());
                }
            }
            if !keep_going {
                return Ok(());
            }
        }
    }

    /// Handle one input line. Returns the response line and whether the
    /// session should continue (false after `shutdown`). Blank lines and
    /// `#` comments produce no response (`None`).
    pub fn handle_line(&mut self, line: &str) -> (Option<String>, bool) {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return (None, true);
        }
        match parse_request(trimmed) {
            Err(message) => (Some(error_response(&message)), true),
            Ok(Request::Shutdown) => (Some(ok_response("shutdown", vec![])), false),
            Ok(Request::Hello { version }) => {
                if version == PROTOCOL_VERSION {
                    let response = ok_response(
                        "hello",
                        vec![
                            ("version", JsonValue::from(PROTOCOL_VERSION)),
                            ("epoch", JsonValue::from(self.cell.epoch())),
                        ],
                    );
                    (Some(response), true)
                } else {
                    // Mismatched builds fail fast: answer with the error
                    // and end the session rather than miscommunicate.
                    let response = error_response(&format!(
                        "protocol version mismatch: client speaks v{version}, server speaks \
                         v{PROTOCOL_VERSION}; run matching builds"
                    ));
                    (Some(response), false)
                }
            }
            Ok(request) => (Some(self.handle_request(request)), true),
        }
    }

    fn handle_request(&mut self, request: Request) -> String {
        match request {
            Request::Shutdown | Request::Hello { .. } => {
                // handle_line intercepts these before dispatch; answer with
                // a protocol error rather than aborting the session thread.
                error_response("shutdown/hello are handled before dispatch")
            }
            Request::Stats => self.stats_response(),
            Request::Epoch => {
                ok_response("epoch", vec![("epoch", JsonValue::from(self.cell.epoch()))])
            }
            Request::Load {
                num_intervals,
                nodes_per_interval,
                avg_out_degree,
                gap,
                seed,
            } => {
                let graph = ClusterGraphGenerator::new(SyntheticGraphParams {
                    num_intervals,
                    nodes_per_interval,
                    avg_out_degree,
                    gap,
                    seed,
                })
                .generate();
                let (nodes, edges, intervals) =
                    (graph.num_nodes(), graph.num_edges(), graph.num_intervals());
                let installed = self.install(GraphSnapshot::new(graph));
                ok_response(
                    "load",
                    vec![
                        ("epoch", JsonValue::from(installed.epoch())),
                        ("intervals", JsonValue::from(intervals)),
                        ("nodes", JsonValue::from(nodes)),
                        ("edges", JsonValue::from(edges)),
                    ],
                )
            }
            Request::OpenStream { k, l, gap } => {
                if k == 0 || l == 0 {
                    return error_response("open_stream requires k >= 1 and l >= 1");
                }
                self.stream = Some(OnlineStableClusters::new(KlStableParams::new(k, l), gap));
                ok_response(
                    "open_stream",
                    vec![
                        ("k", JsonValue::from(k)),
                        ("l", JsonValue::from(u64::from(l))),
                        ("gap", JsonValue::from(u64::from(gap))),
                    ],
                )
            }
            Request::PushInterval { nodes, edges } => {
                let Some(stream) = &mut self.stream else {
                    return error_response("no open stream (send open_stream first)");
                };
                // The append checks every edge, once: a rejected push is an
                // error line and leaves the stream as it was.
                if let Err(rejected) = stream.push(nodes, &edges) {
                    return error_response(&rejected);
                }
                let snapshot = stream.snapshot();
                let intervals = stream.num_intervals();
                let edges_ingested = stream.edges_ingested();
                let installed = self.install(snapshot);
                ok_response(
                    "push_interval",
                    vec![
                        ("epoch", JsonValue::from(installed.epoch())),
                        ("intervals", JsonValue::from(intervals)),
                        ("edges_ingested", JsonValue::from(edges_ingested)),
                    ],
                )
            }
            Request::StreamTopK => {
                let Some(stream) = &mut self.stream else {
                    return error_response("no open stream (send open_stream first)");
                };
                let answer = match &self.engine {
                    Some(_) => stream.current_top_k(),
                    // The oracle solves the graph-so-far cold, windowed as
                    // the merge is, so the serve-vs-oracle diff checks the
                    // merge and never sees a table refused that it answers.
                    None => {
                        let KlStableParams { k, l } = stream.params();
                        solve_windows(
                            &stream.graph().clone(),
                            StableClusterSpec::ExactLength(l),
                            k,
                            AlgorithmKind::Bfs,
                            &SolverOptions::default(),
                            None,
                        )
                        .map(|outcome| outcome.windows.paths)
                    }
                };
                match answer {
                    Ok(paths) => {
                        ok_response("stream_top_k", vec![("paths", paths_to_json(&paths))])
                    }
                    Err(e) => error_response(&e.to_string()),
                }
            }
            Request::Query(mut query) => {
                // Coordinator default: fan out queries that decompose and
                // don't bring their own worker set. The default changes
                // where a query runs, never whether it is valid: a query the
                // direct build rejects stays local and is rejected there, in
                // the words `serve` and `oracle` use.
                if query.options.fanout.is_none()
                    && self.default_fanout.is_some()
                    && !matches!(query.spec, StableClusterSpec::Normalized { .. })
                    && query.passes_the_direct_build(self.cell.load().num_intervals())
                {
                    query.options = query.options.fanout(self.default_fanout.clone());
                }
                let rendered_query = vec![
                    ("algorithm", JsonValue::from(query.algorithm.to_string())),
                    ("spec", JsonValue::from(query.spec.to_string())),
                    ("k", JsonValue::from(query.k)),
                ];
                match self.execute(query) {
                    Err(e) => error_response(&e.to_string()),
                    Ok((paths, epoch)) => {
                        let mut fields = rendered_query;
                        fields.push(("epoch", JsonValue::from(epoch)));
                        fields.push(("paths", paths_to_json(&paths)));
                        ok_response("query", fields)
                    }
                }
            }
        }
    }

    /// Publish `snapshot`: through the engine, which carries its cached
    /// answers forward when the snapshot appends to the graph it replaces,
    /// or straight into the oracle's cell.
    fn install(&self, snapshot: GraphSnapshot) -> GraphSnapshot {
        match &self.engine {
            Some(engine) => engine.install(snapshot),
            None => self.cell.install(snapshot),
        }
    }

    /// Run one query through the session's executor. Engine mode goes
    /// through the pool (admission queue, cache, epoch pinning); oracle
    /// mode solves directly — same validation order, so error texts match.
    fn execute(&self, query: QueryRequest) -> BscResult<(Vec<bsc_core::path::ClusterPath>, u64)> {
        match &self.engine {
            Some(engine) => {
                let response = engine.query(query)?;
                Ok((response.solution.paths, response.epoch))
            }
            None => {
                query.validate()?;
                let snapshot = self.cell.load();
                let mut solver = query.algorithm.build_with_options(
                    query.spec,
                    query.k,
                    snapshot.num_intervals(),
                    query.options,
                )?;
                // A clone keeps no look-ahead table: every solve is cold.
                let solution = solver.solve(&snapshot.graph().as_ref().clone())?;
                Ok((solution.paths, snapshot.epoch()))
            }
        }
    }

    /// Render engine statistics (oracle sessions report their mode only —
    /// they have no pool, queue or cache to describe).
    pub fn stats_response(&self) -> String {
        match &self.engine {
            None => ok_response("stats", vec![("mode", JsonValue::from("oracle"))]),
            Some(engine) => {
                let stats = engine.stats();
                // Coordinator mode: per-worker RPC counters and latency
                // histograms from the pooled cluster client.
                let cluster = self
                    .default_fanout
                    .as_ref()
                    .map(|fanout| bsc_cluster::client_for(fanout).stats_json());
                let mut fields = vec![
                    ("mode", JsonValue::from("engine")),
                    ("epoch", JsonValue::from(stats.epoch)),
                    ("workers", JsonValue::from(stats.workers)),
                    ("queue_capacity", JsonValue::from(stats.queue_capacity)),
                    ("queries", JsonValue::from(stats.queries)),
                    ("errors", JsonValue::from(stats.errors)),
                    ("deadline_hits", JsonValue::from(stats.deadline_hits)),
                    ("queue_expired", JsonValue::from(stats.queue_expired)),
                    ("cancelled", JsonValue::from(stats.cancelled)),
                    ("quota_shed", JsonValue::from(stats.quota_shed)),
                    (
                        "tenants",
                        JsonValue::Array(
                            stats
                                .tenants
                                .iter()
                                .map(|t| {
                                    JsonValue::object([
                                        ("tenant".to_string(), JsonValue::from(t.tenant.as_str())),
                                        ("submitted".to_string(), JsonValue::from(t.submitted)),
                                        ("admitted".to_string(), JsonValue::from(t.admitted)),
                                        ("quota_shed".to_string(), JsonValue::from(t.quota_shed)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "cache",
                        JsonValue::object([
                            ("entries".to_string(), JsonValue::from(stats.cache.entries)),
                            (
                                "capacity".to_string(),
                                JsonValue::from(stats.cache.capacity),
                            ),
                            ("hits".to_string(), JsonValue::from(stats.cache.hits)),
                            ("misses".to_string(), JsonValue::from(stats.cache.misses)),
                            (
                                "evictions".to_string(),
                                JsonValue::from(stats.cache.evictions),
                            ),
                            (
                                "invalidations".to_string(),
                                JsonValue::from(stats.cache.invalidations),
                            ),
                            (
                                "carried_forward".to_string(),
                                JsonValue::from(stats.cache.carried_forward),
                            ),
                            (
                                "delta_dropped".to_string(),
                                JsonValue::from(stats.cache.delta_dropped),
                            ),
                        ]),
                    ),
                    ("queue_wait", histogram_to_json(&stats.queue_wait)),
                    ("solve", histogram_to_json(&stats.solve)),
                ];
                if let Some(cluster) = cluster {
                    fields.push(("cluster", cluster));
                }
                ok_response("stats", fields)
            }
        }
    }
}

fn histogram_to_json(histogram: &LatencyHistogram) -> JsonValue {
    JsonValue::object([
        ("count".to_string(), JsonValue::from(histogram.count())),
        (
            "mean_micros".to_string(),
            JsonValue::from(histogram.mean_micros()),
        ),
        (
            "p50_micros".to_string(),
            JsonValue::from(histogram.p50_micros()),
        ),
        (
            "p95_micros".to_string(),
            JsonValue::from(histogram.p95_micros()),
        ),
        (
            "p99_micros".to_string(),
            JsonValue::from(histogram.p99_micros()),
        ),
        (
            "p999_micros".to_string(),
            JsonValue::from(histogram.p999_micros()),
        ),
        (
            "max_micros".to_string(),
            JsonValue::from(histogram.max_micros()),
        ),
        ("summary".to_string(), JsonValue::from(histogram.summary())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(line: &str) -> bool {
        line.contains("\"ok\":true")
    }

    fn drive(session: &mut Session, line: &str) -> String {
        let (response, cont) = session.handle_line(line);
        assert!(cont, "session ended early on {line}");
        response.expect("response expected")
    }

    fn scripted_session() -> Vec<&'static str> {
        vec![
            "{\"op\":\"hello\",\"version\":1}",
            "{\"op\":\"load\",\"num_intervals\":5,\"nodes_per_interval\":10,\"avg_out_degree\":3,\"gap\":1,\"seed\":42}",
            "{\"op\":\"epoch\"}",
            "{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"exact:2\",\"k\":4}",
            "{\"op\":\"query\",\"algorithm\":\"dfs\",\"spec\":\"exact:2\",\"k\":4,\"storage\":\"memory\"}",
            "{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"exact:2\",\"k\":4,\"shards\":3}",
            "{\"op\":\"open_stream\",\"k\":3,\"l\":1,\"gap\":0}",
            "{\"op\":\"push_interval\",\"nodes\":2}",
            "{\"op\":\"push_interval\",\"nodes\":1,\"edges\":[[0,0,0,0.5],[0,1,0,0.25]]}",
            "{\"op\":\"stream_top_k\"}",
            "{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"exact:1\",\"k\":2}",
            // Tenant/priority are QoS-only fields: the answer (and so the
            // transcript) must not change when they are present.
            "{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"exact:1\",\"k\":2,\"tenant\":\"acme\",\"priority\":\"high\"}",
        ]
    }

    #[test]
    fn engine_and_oracle_transcripts_are_byte_identical() {
        let mut engine = Session::engine(EngineConfig::default().workers(2)).unwrap();
        let mut oracle = Session::oracle();
        for line in scripted_session() {
            let from_engine = drive(&mut engine, line);
            let from_oracle = drive(&mut oracle, line);
            assert_eq!(from_engine, from_oracle, "diverged on {line}");
            assert!(
                ok(&from_engine),
                "unexpected error on {line}: {from_engine}"
            );
        }
        // Shutdown ends both.
        let (response, cont) = engine.handle_line("{\"op\":\"shutdown\"}");
        assert!(!cont);
        assert!(ok(&response.unwrap()));
    }

    /// Every rejected push is answered with its exact error line, by both
    /// executors, and leaves the epoch and the stream's graph as they were.
    /// A line with several faults reports the first edge's, and an edge's
    /// faults are checked in a fixed order: target, earlier interval, gap,
    /// parent, weight.
    #[test]
    fn stream_errors_are_responses_not_panics() {
        let push = |nodes: u32, edges: &str| {
            format!("{{\"op\":\"push_interval\",\"nodes\":{nodes},\"edges\":{edges}}}")
        };
        let target = "edge target 5 out of range (interval has 1 nodes)";
        let later = "parent c2,0 must belong to an earlier interval";
        let gap = "edge from c0,0 exceeds the gap 0";
        let missing = "parent c1,9 does not exist";
        let weight = "edge weights must lie in (0, 1]";
        let rejected = [
            (push(1, "[[1,0,5,0.5]]"), target),
            (push(1, "[[2,0,0,0.5]]"), later),
            (
                push(1, "[[7,3,0,0.5]]"),
                "parent c7,3 must belong to an earlier interval",
            ),
            (push(1, "[[0,0,0,0.5]]"), gap),
            (push(1, "[[1,9,0,0.5]]"), missing),
            (push(1, "[[1,0,0,1.5]]"), weight),
            (push(1, "[[1,0,0,0]]"), weight),
            (push(1, "[[1,0,0,-0.25]]"), weight),
            // More nodes than the protocol admits: an error line, not a
            // 100 GB allocation.
            (
                "{\"op\":\"push_interval\",\"nodes\":1048577}".to_string(),
                "field 'nodes' exceeds the protocol maximum of 1048576 nodes per interval",
            ),
            // Edge 0's fault is the one reported, whichever comes first in
            // the check order.
            (push(1, "[[1,0,0,1.5],[0,0,0,0.5]]"), weight),
            (push(1, "[[0,0,0,0.5],[1,0,0,1.5]]"), gap),
            (push(1, "[[1,0,0,0.5],[1,9,5,0.5]]"), target),
            (push(1, "[[1,9,0,0.5],[2,0,0,0.5]]"), missing),
            // One edge, every fault: the check order decides.
            (push(1, "[[2,9,5,1.5]]"), target),
            (push(1, "[[2,0,0,1.5]]"), later),
            (push(1, "[[0,0,0,1.5]]"), gap),
            (push(1, "[[1,9,0,1.5]]"), missing),
        ];
        for mut session in [
            Session::engine(EngineConfig::default().workers(1)).unwrap(),
            Session::oracle(),
        ] {
            assert_eq!(
                drive(&mut session, &push(1, "[]")),
                error_response("no open stream (send open_stream first)")
            );
            drive(
                &mut session,
                "{\"op\":\"open_stream\",\"k\":2,\"l\":1,\"gap\":0}",
            );
            drive(&mut session, &push(2, "[]"));
            drive(&mut session, &push(1, "[[0,1,0,0.5]]"));
            let epoch = drive(&mut session, "{\"op\":\"epoch\"}");
            let graph: *const _ = session.stream.as_ref().unwrap().graph();
            for (line, text) in &rejected {
                assert_eq!(drive(&mut session, line), error_response(text), "{line}");
                assert_eq!(drive(&mut session, "{\"op\":\"epoch\"}"), epoch, "{line}");
                let stream = session.stream.as_ref().unwrap();
                assert!(std::ptr::eq(stream.graph(), graph), "{line}");
                assert_eq!(stream.num_intervals(), 2, "{line}");
                assert_eq!(stream.edges_ingested(), 1, "{line}");
            }
            // The stream is still usable after rejected pushes.
            assert!(ok(&drive(&mut session, &push(1, "[[1,0,0,0.5]]"))));
            assert_eq!(session.stream.as_ref().unwrap().num_intervals(), 3);
        }
    }

    #[test]
    fn the_widest_gap_loads_streams_and_answers_like_any_other() {
        let paths = |response: String| {
            assert!(ok(&response), "{response}");
            let at = response.find("\"paths\"").expect("a paths field");
            response[at..].to_string()
        };
        for mut session in [
            Session::engine(EngineConfig::default().workers(1)).unwrap(),
            Session::oracle(),
        ] {
            // `load` used to die in the graph builder's `gap + 1`.
            assert!(ok(&drive(
                &mut session,
                "{\"op\":\"load\",\"num_intervals\":4,\"nodes_per_interval\":3,\"avg_out_degree\":2,\"gap\":4294967295,\"seed\":5}",
            )));
            for line in [
                "{\"op\":\"open_stream\",\"k\":2,\"l\":2,\"gap\":4294967295}",
                "{\"op\":\"push_interval\",\"nodes\":2}",
                "{\"op\":\"push_interval\",\"nodes\":1,\"edges\":[[0,0,0,0.5]]}",
                // Spans two intervals: inside any gap >= 1.
                "{\"op\":\"push_interval\",\"nodes\":2,\"edges\":[[0,1,0,0.875],[1,0,0,0.25],[1,0,1,0.5]]}",
            ] {
                assert!(ok(&drive(&mut session, line)), "{line}");
            }
            // TA used to answer no path at all on such a stream.
            let query = |algorithm: &str| {
                format!(
                    "{{\"op\":\"query\",\"algorithm\":\"{algorithm}\",\"spec\":\"full\",\"k\":2}}"
                )
            };
            let bfs = paths(drive(&mut session, &query("bfs")));
            assert!(bfs.contains("[[0,1],[2,0]]"), "{bfs}");
            assert_eq!(bfs, paths(drive(&mut session, &query("ta"))));
            assert_eq!(bfs, paths(drive(&mut session, &query("dfs"))));
        }
    }

    /// What a line holds is the session's to answer, bytes included: a line
    /// that is not UTF-8 gets an error line and the session goes on (it used
    /// to end the process), and both executors answer the same bytes.
    #[test]
    fn the_line_loop_answers_every_line_whatever_its_bytes() {
        let input: &[u8] = b"\xff\n\
            {\"op\":\"epoch\"}\n\
            \r\n\
            \r\
            {\"op\":\"epoch\"}\r\n\
            {\"op\":\"epoch\"}\r{\"op\":\"epoch\"}\n\
            # \xfe\n\
            {\"op\":\"epoch\"}";
        let transcript = |mut session: Session| {
            let mut output = Vec::new();
            session.serve(input, &mut output).unwrap();
            String::from_utf8(output).unwrap()
        };
        let from_engine = transcript(Session::engine(EngineConfig::default().workers(1)).unwrap());
        assert_eq!(from_engine, transcript(Session::oracle()));
        let epoch = "{\"epoch\":0,\"ok\":true,\"op\":\"epoch\"}";
        let not_utf8 = error_response("request line is not valid UTF-8");
        let lines: Vec<&str> = from_engine.lines().collect();
        assert_eq!(lines.len(), 6, "{from_engine}");
        assert_eq!(lines[0], not_utf8);
        assert_eq!(lines[1], epoch);
        // The lone `\r` line is blank and a `\r` before a line's text is
        // trimmed, but a `\r` does not end a line: two documents around one
        // are one line with trailing characters.
        assert_eq!(lines[2], epoch);
        assert!(lines[3].contains("trailing characters"), "{}", lines[3]);
        // Even a comment must be UTF-8.
        assert_eq!(lines[4], not_utf8);
        // The last line needs no newline.
        assert_eq!(lines[5], epoch);

        // `shutdown` ends the loop: nothing after it is read.
        let mut output = Vec::new();
        Session::oracle()
            .serve(
                &b"{\"op\":\"shutdown\"}\n{\"op\":\"epoch\"}\n"[..],
                &mut output,
            )
            .unwrap();
        assert_eq!(output, b"{\"ok\":true,\"op\":\"shutdown\"}\n");
    }

    #[test]
    fn blank_lines_and_comments_are_skipped() {
        let mut session = Session::oracle();
        assert_eq!(session.handle_line(""), (None, true));
        assert_eq!(session.handle_line("  # comment"), (None, true));
    }

    #[test]
    fn engine_stats_render_as_json() {
        let mut session = Session::engine(EngineConfig::default().workers(1)).unwrap();
        drive(
            &mut session,
            "{\"op\":\"load\",\"num_intervals\":4,\"nodes_per_interval\":6,\"avg_out_degree\":2,\"gap\":0,\"seed\":1}",
        );
        drive(
            &mut session,
            "{\"op\":\"query\",\"spec\":\"exact:2\",\"k\":3}",
        );
        let stats = drive(&mut session, "{\"op\":\"stats\"}");
        let doc = bsc_util::json::parse(&stats).unwrap();
        assert_eq!(doc.get("mode").unwrap().as_str(), Some("engine"));
        assert_eq!(doc.get("queries").unwrap().as_u64(), Some(1));
        assert!(doc.get("queue_wait").unwrap().get("count").is_some());
        let oracle_stats = drive(&mut Session::oracle(), "{\"op\":\"stats\"}");
        assert!(oracle_stats.contains("\"mode\":\"oracle\""));
    }
}
