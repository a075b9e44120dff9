//! The coordinator ↔ worker wire protocol: framing and codecs.
//!
//! Same transport discipline as `bsc serve`'s stdin protocol — one JSON
//! object per `\n`-terminated line, rendered canonically (sorted keys) by
//! [`bsc_util::json`] — carried over a TCP connection. Six message kinds:
//!
//! | op | direction | fields | effect |
//! |----|-----------|--------|--------|
//! | `hello` | C → W | `version` | version handshake; mismatched builds fail fast |
//! | `install_graph` | C → W | `epoch`, `graph` | ship a graph; the worker caches it per connection under `epoch` |
//! | `solve_window` | C → W | `epoch`, `start`, `l`, `k`, `algorithm`, `storage`, `deadline_ms?` | solve one start-interval window of the graph installed under `epoch` |
//! | `cancel` | C → W | — | trip the cancel token of the solve in flight on this connection (no-op when idle) |
//! | `ping` | C → W | — | health check |
//! | `stats` | C → W | — | worker counters |
//!
//! `deadline_ms` is the budget *remaining at dispatch*: the worker rebuilds
//! a local deadline from it (`now + deadline_ms`), so worker and
//! coordinator deadlines expire in step without any clock agreement. See
//! `docs/robustness.md` for the full cancellation model.
//!
//! Responses mirror the stdin protocol: `{"ok":true,"op":…,…}` on success,
//! `{"ok":false,"error":…}` on failure. Edge and path weights cross the
//! wire as 16-hex-digit `f64::to_bits` strings, so a graph round-trips
//! **bit-exactly** — the foundation of the distributed-equals-sharded
//! byte-identity guarantee.
//!
//! Framing is defensive in both directions: [`read_frame`] rejects lines
//! longer than [`MAX_FRAME_BYTES`] as a protocol error (never unbounded
//! buffering, never a panic) and treats EOF mid-line as a truncated frame.
//! [`write_frame`] sends a frame as one buffer.

use std::io::{BufRead, ErrorKind, Write};

use bsc_core::cluster_graph::{ClusterGraph, ClusterGraphBuilder, ClusterNodeId};
use bsc_core::distributed::{WindowRequest, WindowResult};
use bsc_core::path::ClusterPath;
use bsc_core::solver::{AlgorithmKind, Counter, SolverStats};
use bsc_storage::backend::StorageSpec;
use bsc_util::json::{self, JsonValue};

/// Version of this wire protocol. Bumped on every incompatible change;
/// the `hello` handshake rejects any mismatch outright (no negotiation —
/// coordinator and workers are expected to run the same build).
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on one wire frame (line), large enough for a multi-million
/// edge graph install, small enough to stop a corrupt peer from ballooning
/// memory: 256 MiB.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Read one `\n`-terminated frame. Returns `Ok(None)` at a clean EOF
/// (connection closed between frames), an error for an oversized frame or
/// an EOF in the middle of one (truncated line — the peer died mid-write).
pub fn read_frame(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut buffer = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            // A read timeout in the middle of a frame means the peer is
            // slow, not gone: keep the partial buffer and wait for the
            // rest. Between frames (empty buffer) the timeout propagates so
            // pollers can run their idle checks.
            Err(e)
                if !buffer.is_empty()
                    && (e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut) =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return if buffer.is_empty() {
                Ok(None)
            } else {
                Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    format!(
                        "truncated frame: EOF after {} bytes with no newline",
                        buffer.len()
                    ),
                ))
            };
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buffer.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            if buffer.len() > MAX_FRAME_BYTES {
                return Err(oversized(buffer.len()));
            }
            let text = String::from_utf8(buffer).map_err(|e| {
                std::io::Error::new(ErrorKind::InvalidData, format!("frame is not UTF-8: {e}"))
            })?;
            return Ok(Some(text));
        }
        buffer.extend_from_slice(chunk);
        let consumed = chunk.len();
        reader.consume(consumed);
        if buffer.len() > MAX_FRAME_BYTES {
            return Err(oversized(buffer.len()));
        }
    }
}

/// Write `line` and its `\n` as one buffer, then flush: one frame costs
/// one `send`, not one for the line and one for its newline.
pub fn write_frame(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
}

fn oversized(len: usize) -> std::io::Error {
    std::io::Error::new(
        ErrorKind::InvalidData,
        format!("oversized frame: {len} bytes exceed the {MAX_FRAME_BYTES}-byte cap"),
    )
}

fn weight_bits(weight: f64) -> JsonValue {
    JsonValue::from(format!("{:016x}", weight.to_bits()))
}

fn parse_weight_bits(value: &JsonValue, what: &str) -> Result<f64, String> {
    let hex = value
        .as_str()
        .ok_or_else(|| format!("{what}: weight bits must be a hex string"))?;
    let bits =
        u64::from_str_radix(hex, 16).map_err(|_| format!("{what}: bad weight bits '{hex}'"))?;
    Ok(f64::from_bits(bits))
}

/// Serialize a cluster graph for `install_graph`:
/// `{"num_intervals":m,"gap":g,"nodes_per_interval":[…],
///   "edges":[[from_interval,from_index,to_interval,to_index,"<bits>"],…]}`.
pub fn graph_to_json(graph: &ClusterGraph) -> JsonValue {
    let nodes_per_interval = JsonValue::Array(
        (0..graph.num_intervals() as u32)
            .map(|i| JsonValue::from(u64::from(graph.nodes_in_interval(i))))
            .collect(),
    );
    let edges = JsonValue::Array(
        graph
            .edges()
            .map(|(from, to, weight)| {
                JsonValue::Array(vec![
                    JsonValue::from(u64::from(from.interval)),
                    JsonValue::from(u64::from(from.index)),
                    JsonValue::from(u64::from(to.interval)),
                    JsonValue::from(u64::from(to.index)),
                    weight_bits(weight),
                ])
            })
            .collect(),
    );
    JsonValue::object([
        (
            "num_intervals".to_string(),
            JsonValue::from(graph.num_intervals() as u64),
        ),
        ("gap".to_string(), JsonValue::from(u64::from(graph.gap()))),
        ("nodes_per_interval".to_string(), nodes_per_interval),
        ("edges".to_string(), edges),
    ])
}

/// Rebuild a cluster graph from its wire form. Every range/order/weight
/// rule the builder enforces by panicking is validated here first, so a
/// corrupt or malicious peer produces an `Err`, never a worker panic.
pub fn graph_from_json(doc: &JsonValue) -> Result<ClusterGraph, String> {
    let num_intervals = doc
        .get("num_intervals")
        .and_then(JsonValue::as_u64)
        .ok_or("graph: missing num_intervals")?;
    let gap = doc
        .get("gap")
        .and_then(JsonValue::as_u64)
        .and_then(|g| u32::try_from(g).ok())
        .ok_or("graph: missing gap")?;
    let counts = doc
        .get("nodes_per_interval")
        .and_then(JsonValue::as_array)
        .ok_or("graph: missing nodes_per_interval")?;
    if counts.len() as u64 != num_intervals {
        return Err(format!(
            "graph: nodes_per_interval has {} entries for {num_intervals} intervals",
            counts.len()
        ));
    }
    let mut builder = ClusterGraphBuilder::new(gap);
    let mut interval_nodes = Vec::with_capacity(counts.len());
    for (i, count) in counts.iter().enumerate() {
        let count = count
            .as_u64()
            .and_then(|c| u32::try_from(c).ok())
            .ok_or_else(|| format!("graph: bad node count for interval {i}"))?;
        interval_nodes.push(count);
        builder.add_interval(count);
    }
    let edges = doc
        .get("edges")
        .and_then(JsonValue::as_array)
        .ok_or("graph: missing edges")?;
    for (i, edge) in edges.iter().enumerate() {
        let parts = edge
            .as_array()
            .filter(|a| a.len() == 5)
            .ok_or_else(|| format!("graph: edge {i} must have 5 components"))?;
        let component = |j: usize, what: &str| {
            parts[j]
                .as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| format!("graph: edge {i}: bad {what}"))
        };
        let from = ClusterNodeId::new(component(0, "from interval")?, component(1, "from index")?);
        let to = ClusterNodeId::new(component(2, "to interval")?, component(3, "to index")?);
        let weight = parse_weight_bits(&parts[4], &format!("graph: edge {i}"))?;
        // Pre-validate what ClusterGraphBuilder::add_edge would panic on.
        let in_range = |n: ClusterNodeId| {
            (n.interval as usize) < interval_nodes.len()
                && n.index < interval_nodes[n.interval as usize]
        };
        if !in_range(from) || !in_range(to) {
            return Err(format!("graph: edge {i}: endpoint out of range"));
        }
        if from.interval >= to.interval || to.interval - from.interval > builder.max_edge_length() {
            return Err(format!("graph: edge {i}: bad temporal span"));
        }
        // NaN must fail too, so compare in the accepting direction.
        if weight <= 0.0 || weight.is_nan() {
            return Err(format!("graph: edge {i}: weight must be positive"));
        }
        // Every cluster graph holds its weights in (0, 1]: the builder
        // rescales by the largest, so a weight above 1 would silently
        // change every other (+inf turns them all into 0).
        if weight > 1.0 {
            return Err(format!("graph: edge {i}: weight must be at most 1"));
        }
        builder.add_edge(from, to, weight);
    }
    Ok(builder.build())
}

/// Serialize result paths: `[{"nodes":[[interval,index],…],"weight_bits":…}]`.
pub fn paths_to_json(paths: &[ClusterPath]) -> JsonValue {
    JsonValue::Array(
        paths
            .iter()
            .map(|path| {
                let nodes = JsonValue::Array(
                    path.nodes()
                        .iter()
                        .map(|n| {
                            JsonValue::Array(vec![
                                JsonValue::from(u64::from(n.interval)),
                                JsonValue::from(u64::from(n.index)),
                            ])
                        })
                        .collect(),
                );
                JsonValue::object([
                    ("nodes".to_string(), nodes),
                    ("weight_bits".to_string(), weight_bits(path.weight())),
                ])
            })
            .collect(),
    )
}

/// Parse result paths from their wire form.
pub fn paths_from_json(value: &JsonValue) -> Result<Vec<ClusterPath>, String> {
    let list = value.as_array().ok_or("paths must be an array")?;
    let mut paths = Vec::with_capacity(list.len());
    for (i, entry) in list.iter().enumerate() {
        let nodes = entry
            .get("nodes")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("path {i}: missing nodes"))?;
        let mut ids = Vec::with_capacity(nodes.len());
        for (j, node) in nodes.iter().enumerate() {
            let pair = node
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| format!("path {i}: node {j} must be [interval, index]"))?;
            let component = |v: &JsonValue| v.as_u64().and_then(|v| u32::try_from(v).ok());
            let interval =
                component(&pair[0]).ok_or_else(|| format!("path {i}: node {j}: bad interval"))?;
            let index =
                component(&pair[1]).ok_or_else(|| format!("path {i}: node {j}: bad index"))?;
            ids.push(ClusterNodeId::new(interval, index));
        }
        let weight = parse_weight_bits(
            entry.get("weight_bits").unwrap_or(&JsonValue::Null),
            &format!("path {i}"),
        )?;
        paths.push(ClusterPath::new(ids, weight));
    }
    Ok(paths)
}

/// Serialize the deterministic solver counters a window solve reports: the
/// fields [`SolverStats::carried`] lists, each under its declared key.
pub fn stats_to_json(stats: &SolverStats) -> JsonValue {
    JsonValue::object(stats.carried().map(|(key, counter)| {
        let value = match counter {
            Counter::Count(n) => JsonValue::from(n),
            Counter::Flag(flag) => JsonValue::Bool(flag),
        };
        (key.to_string(), value)
    }))
}

/// Parse solver counters from their wire form (absent fields default to 0).
pub fn stats_from_json(value: &JsonValue) -> Result<SolverStats, String> {
    SolverStats::from_carried(|key, zero| {
        let Some(v) = value.get(key) else {
            return Ok(zero);
        };
        let counter = match zero {
            Counter::Count(_) => v.as_u64().map(Counter::Count),
            Counter::Flag(_) => v.as_bool().map(Counter::Flag),
        };
        counter.ok_or_else(|| format!("stats: bad {key}"))
    })
}

/// Render an epoch for the wire: the coordinator's process-unique id of the
/// graph value ([`WindowRequest::epoch`]), not a snapshot epoch. Epochs are
/// 16-hex-digit strings, not JSON numbers: the JSON layer stores numbers as
/// `f64`, which cannot hold every `u64` exactly.
pub fn epoch_to_json(epoch: u64) -> JsonValue {
    JsonValue::from(format!("{epoch:016x}"))
}

/// Parse a wire epoch (16-hex-digit string).
pub fn epoch_from_json(value: &JsonValue) -> Result<u64, String> {
    let text = value
        .as_str()
        .ok_or_else(|| "epoch must be a 16-hex-digit string".to_string())?;
    u64::from_str_radix(text, 16).map_err(|_| format!("bad epoch '{text}'"))
}

/// Render the `hello` handshake request.
pub fn hello_request() -> String {
    JsonValue::object([
        ("op".to_string(), JsonValue::from("hello")),
        ("version".to_string(), JsonValue::from(PROTOCOL_VERSION)),
    ])
    .render()
}

/// Render an `install_graph` request.
pub fn install_graph_request(epoch: u64, graph: &ClusterGraph) -> String {
    JsonValue::object([
        ("op".to_string(), JsonValue::from("install_graph")),
        ("epoch".to_string(), epoch_to_json(epoch)),
        ("graph".to_string(), graph_to_json(graph)),
    ])
    .render()
}

/// Render a `solve_window` request. The optional `deadline_ms` field is
/// the remaining time budget at dispatch; it is omitted entirely when the
/// request carries no deadline, so pre-deadline transcripts are unchanged.
pub fn solve_window_request(request: &WindowRequest) -> String {
    let mut fields = vec![
        ("op".to_string(), JsonValue::from("solve_window")),
        ("epoch".to_string(), epoch_to_json(request.epoch)),
        (
            "start".to_string(),
            JsonValue::from(u64::from(request.start)),
        ),
        ("l".to_string(), JsonValue::from(u64::from(request.l))),
        ("k".to_string(), JsonValue::from(request.k as u64)),
        (
            "algorithm".to_string(),
            JsonValue::from(request.algorithm.to_string()),
        ),
        (
            "storage".to_string(),
            JsonValue::from(request.storage.to_string()),
        ),
    ];
    if let Some(ms) = request.deadline_ms {
        fields.push(("deadline_ms".to_string(), JsonValue::from(ms)));
    }
    JsonValue::object(fields).render()
}

/// Render a `cancel` request: trip the cancellation token of the solve
/// currently in flight on the connection. Answered immediately (without
/// waiting for the solve to unwind) with `{"cancelled":true|false}`.
pub fn cancel_request() -> String {
    JsonValue::object([("op".to_string(), JsonValue::from("cancel"))]).render()
}

/// Render a `ping` request.
pub fn ping_request() -> String {
    JsonValue::object([("op".to_string(), JsonValue::from("ping"))]).render()
}

/// Render a success response for `op` with extra fields — the envelope of
/// every reply on the wire and on `bsc serve`'s stdout.
pub fn ok_response(op: &str, fields: Vec<(&str, JsonValue)>) -> String {
    let mut pairs = vec![
        ("ok".to_string(), JsonValue::Bool(true)),
        ("op".to_string(), JsonValue::from(op)),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::object(pairs).render()
}

/// Render an error response.
pub fn error_response(message: &str) -> String {
    JsonValue::object([
        ("ok".to_string(), JsonValue::Bool(false)),
        ("error".to_string(), JsonValue::from(message)),
    ])
    .render()
}

/// A worker's response, parsed to the ok/error envelope.
#[derive(Debug)]
pub struct Response {
    /// The parsed response document.
    pub doc: JsonValue,
}

impl Response {
    /// Parse a response line and unwrap the envelope: a protocol-level
    /// failure (`ok:false`) becomes `Err` with the worker's message.
    pub fn parse(line: &str) -> Result<Response, String> {
        let doc = json::parse(line)?;
        match doc.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => Ok(Response { doc }),
            Some(false) => Err(doc
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unspecified worker error")
                .to_string()),
            None => Err("response missing 'ok' field".to_string()),
        }
    }
}

/// Decode a successful `solve_window` response into a [`WindowResult`].
pub fn window_result_from_response(response: &Response) -> Result<WindowResult, String> {
    let paths = paths_from_json(response.doc.get("paths").unwrap_or(&JsonValue::Null))?;
    let stats = stats_from_json(response.doc.get("stats").unwrap_or(&JsonValue::Null))?;
    Ok(WindowResult { paths, stats })
}

/// Encode a successful `solve_window` response.
pub fn window_result_response(result: &WindowResult) -> String {
    let paths = paths_to_json(&result.paths);
    let stats = stats_to_json(&result.stats);
    ok_response("solve_window", vec![("paths", paths), ("stats", stats)])
}

/// Parse an `AlgorithmKind` + `StorageSpec` pair off a solve request.
pub fn parse_solve_fields(doc: &JsonValue) -> Result<(AlgorithmKind, StorageSpec), String> {
    let algorithm_name = doc
        .get("algorithm")
        .and_then(JsonValue::as_str)
        .unwrap_or("bfs");
    let algorithm = AlgorithmKind::parse(algorithm_name)
        .ok_or_else(|| format!("unknown algorithm '{algorithm_name}'"))?;
    let storage_name = doc
        .get("storage")
        .and_then(JsonValue::as_str)
        .unwrap_or("logfile");
    let storage = StorageSpec::parse(storage_name)
        .ok_or_else(|| format!("unknown storage '{storage_name}'"))?;
    Ok((algorithm, storage))
}

/// Parse the optional `deadline_ms` remaining-budget field off a solve
/// request. Absent means no deadline; present-but-malformed is an error.
pub fn parse_deadline_ms(doc: &JsonValue) -> Result<Option<u64>, String> {
    match doc.get("deadline_ms") {
        None => Ok(None),
        Some(value) => value
            .as_u64()
            .map(Some)
            .ok_or_else(|| "bad deadline_ms: must be a non-negative integer".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
    use std::io::BufReader;

    fn graph() -> ClusterGraph {
        ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 5,
            nodes_per_interval: 8,
            avg_out_degree: 3,
            gap: 1,
            seed: 11,
        })
        .generate()
    }

    #[test]
    fn graphs_round_trip_bit_exactly() {
        // The widest gap too: `gap + 1` used to wrap to 0 and refuse every
        // edge of such a graph as a "bad temporal span".
        let mut widest = bsc_core::cluster_graph::ClusterGraphBuilder::new(u32::MAX);
        for _ in 0..3 {
            widest.add_interval(2);
        }
        widest.add_edge(ClusterNodeId::new(0, 1), ClusterNodeId::new(2, 0), 0.375);
        widest.add_edge(ClusterNodeId::new(1, 0), ClusterNodeId::new(2, 1), 0.5);
        for original in [graph(), widest.build()] {
            let rendered = graph_to_json(&original).render();
            let rebuilt = graph_from_json(&json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(original.num_intervals(), rebuilt.num_intervals());
            assert_eq!(original.gap(), rebuilt.gap());
            assert_eq!(original.num_nodes(), rebuilt.num_nodes());
            let a: Vec<_> = original.edges().collect();
            let b: Vec<_> = rebuilt.edges().collect();
            assert!(!a.is_empty());
            assert_eq!(a.len(), b.len());
            for ((f1, t1, w1), (f2, t2, w2)) in a.iter().zip(b.iter()) {
                assert_eq!(f1, f2);
                assert_eq!(t1, t2);
                assert_eq!(w1.to_bits(), w2.to_bits());
            }
        }
    }

    #[test]
    fn corrupt_graphs_error_instead_of_panicking() {
        let good = graph_to_json(&graph()).render();
        for (mutation, needle) in [
            ("{\"gap\":0}", "missing num_intervals"),
            ("{\"num_intervals\":2,\"gap\":0}", "nodes_per_interval"),
            (
                "{\"num_intervals\":2,\"gap\":0,\"nodes_per_interval\":[1,1],\
                 \"edges\":[[0,5,1,0,\"3fe0000000000000\"]]}",
                "out of range",
            ),
            (
                "{\"num_intervals\":2,\"gap\":0,\"nodes_per_interval\":[1,1],\
                 \"edges\":[[1,0,0,0,\"3fe0000000000000\"]]}",
                "temporal span",
            ),
            (
                "{\"num_intervals\":2,\"gap\":0,\"nodes_per_interval\":[1,1],\
                 \"edges\":[[0,0,1,0,\"8000000000000000\"]]}",
                "positive",
            ),
            (
                "{\"num_intervals\":2,\"gap\":0,\"nodes_per_interval\":[1,1],\
                 \"edges\":[[0,0,1,0,\"xyz\"]]}",
                "weight bits",
            ),
            (
                "{\"num_intervals\":2,\"gap\":0,\"nodes_per_interval\":[1,1],\
                 \"edges\":[[0,0,1,0,\"4000000000000000\"]]}",
                "at most 1",
            ),
            (
                "{\"num_intervals\":2,\"gap\":0,\"nodes_per_interval\":[1,1],\
                 \"edges\":[[0,0,1,0,\"7ff0000000000000\"]]}",
                "at most 1",
            ),
        ] {
            let err = graph_from_json(&json::parse(mutation).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{mutation}: {err}");
        }
        assert!(graph_from_json(&json::parse(&good).unwrap()).is_ok());
    }

    #[test]
    fn paths_and_stats_round_trip() {
        let paths = vec![
            ClusterPath::new(
                vec![ClusterNodeId::new(0, 1), ClusterNodeId::new(1, 3)],
                0.1 + 0.2,
            ),
            ClusterPath::new(
                vec![ClusterNodeId::new(2, 0), ClusterNodeId::new(3, 7)],
                1.0 / 3.0,
            ),
        ];
        // Every carried counter, each a distinct value off its default, so
        // a counter the codec forgets or swaps fails the whole-value check.
        let stats = SolverStats {
            paths_generated: 42,
            nodes_processed: 17,
            edges_traversed: 23,
            prunes: 5,
            node_reads: 31,
            node_writes: 29,
            random_seeks: 11,
            peak_resident_paths: 9,
            peak_stack_depth: 7,
            early_termination: true,
            windows_resolved: 3,
            windows_spliced: 2,
            ..SolverStats::default()
        };
        assert_eq!(stats.carried().count(), 12);
        let result = WindowResult {
            paths: paths.clone(),
            stats,
        };
        let line = window_result_response(&result);
        let response = Response::parse(&line).unwrap();
        let decoded = window_result_from_response(&response).unwrap();
        assert_eq!(decoded.paths.len(), 2);
        for (a, b) in paths.iter().zip(decoded.paths.iter()) {
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.weight().to_bits(), b.weight().to_bits());
        }
        assert_eq!(decoded.stats, stats);
    }

    #[test]
    fn response_envelope_separates_ok_from_error() {
        assert!(Response::parse("{\"ok\":true,\"op\":\"ping\"}").is_ok());
        let err = Response::parse("{\"error\":\"boom\",\"ok\":false}").unwrap_err();
        assert_eq!(err, "boom");
        assert!(Response::parse("{}").unwrap_err().contains("ok"));
        assert!(Response::parse("garbage").unwrap_err().contains("JSON"));
    }

    #[test]
    fn read_frame_handles_eof_truncation_and_multiple_lines() {
        let mut reader = BufReader::new("{\"a\":1}\n{\"b\":2}\n".as_bytes());
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), "{\"a\":1}");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), "{\"b\":2}");
        assert!(read_frame(&mut reader).unwrap().is_none());

        let mut truncated = BufReader::new("{\"a\":1".as_bytes());
        let err = read_frame(&mut truncated).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn solve_request_renders_and_parses() {
        let request = WindowRequest {
            epoch: 7,
            start: 3,
            l: 2,
            k: 5,
            algorithm: AlgorithmKind::Auto {
                budget_bytes: Some(4096),
            },
            storage: StorageSpec::BlockCache { budget_bytes: 8192 },
            preferred: 1,
            deadline_ms: None,
        };
        let line = solve_window_request(&request);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("op").unwrap().as_str(), Some("solve_window"));
        assert_eq!(doc.get("epoch").unwrap().as_str(), Some("0000000000000007"));
        let (algorithm, storage) = parse_solve_fields(&doc).unwrap();
        assert_eq!(algorithm, request.algorithm);
        assert_eq!(storage, request.storage);
        // No deadline → no field on the wire (pre-deadline transcripts are
        // byte-identical); a deadline → round-trips through the parser.
        assert!(!line.contains("deadline_ms"), "{line}");
        assert_eq!(parse_deadline_ms(&doc).unwrap(), None);
        let with_deadline = WindowRequest {
            deadline_ms: Some(1500),
            ..request
        };
        let line = solve_window_request(&with_deadline);
        let doc = json::parse(&line).unwrap();
        assert_eq!(parse_deadline_ms(&doc).unwrap(), Some(1500));
        assert!(parse_deadline_ms(&json::parse("{\"deadline_ms\":\"soon\"}").unwrap()).is_err());
    }
}
