//! The line-delimited JSON protocol of `bsc serve`.
//!
//! One request object per line on stdin, one response object per line on
//! stdout — the std-only transport that composes with anything (pipes,
//! socat, a container sidecar) without pulling in an HTTP stack. The JSON
//! implementation is the workspace-shared [`bsc_util::json`] (the same code
//! that writes and gates the bench baselines).
//!
//! Requests are discriminated by an `"op"` field:
//!
//! | op | fields | effect |
//! |----|--------|--------|
//! | `hello` | `version` | protocol handshake: echoes the server version and current epoch; a version mismatch fails fast (error response, session ends) |
//! | `query` | `algorithm`, `spec`, `k`, `storage`, `shards`, `workers`, `deadline_ms`, `tenant`, `priority` | solve against the current epoch |
//! | `load` | `num_intervals`, `nodes_per_interval`, `avg_out_degree`, `gap`, `seed` | install a synthetic graph as a new epoch |
//! | `open_stream` | `k`, `l`, `gap` | start online ingest |
//! | `push_interval` | `nodes`, `edges` | ingest one interval, publish a new epoch |
//! | `stream_top_k` | — | the online solver's current top-k |
//! | `epoch` | — | current epoch |
//! | `stats` | — | engine counters and latency histograms |
//! | `shutdown` | — | acknowledge and end the session |
//!
//! `algorithm`, `spec` and `storage` use the same textual forms as the CLI
//! (`AlgorithmKind::parse`, `StableClusterSpec::parse`,
//! `StorageSpec::parse`). Edges are `[parent_interval, parent_index,
//! node_index, weight]` quadruples; `nodes` is at most
//! [`MAX_INTERVAL_NODES`]. Responses to deterministic ops carry
//! result data only (no timings, no cache flags), so a transcript can be
//! diffed byte-for-byte against the `bsc oracle` reference executor —
//! timings live in the `stats` response. Path weights are reported both
//! human-readable (`weight`) and as big-endian hex bits (`weight_bits`), so
//! byte-identity survives the text round-trip.

use bsc_core::cluster_graph::{ClusterNodeId, InEdge};
use bsc_core::distributed::FanoutSpec;
use bsc_core::path::ClusterPath;
use bsc_core::problem::StableClusterSpec;
use bsc_core::solver::{AlgorithmKind, QueryPriority, SolverOptions};
use bsc_storage::backend::StorageSpec;
use bsc_util::json::{self, JsonValue};

/// Replies are rendered as the fan-out's wire renders them: one envelope.
pub use bsc_cluster::wire::{error_response, ok_response};

use crate::engine::QueryRequest;

/// The protocol version this build speaks — the same constant the
/// distributed fan-out wire protocol uses, so one number gates every
/// cross-process conversation in the system.
pub const PROTOCOL_VERSION: u64 = bsc_cluster::PROTOCOL_VERSION;

/// The most nodes one `push_interval` may declare (2^20 — three orders of
/// magnitude above the paper's largest interval). The count is a bare number
/// on the wire, not backed by that many bytes of input the way an edge list
/// is, so without a ceiling one short line could ask the server to allocate
/// per-node state for 2^32 − 1 nodes. Larger requests are answered with an
/// error line.
pub const MAX_INTERVAL_NODES: u32 = 1 << 20;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake: the client announces the protocol version it
    /// speaks; mismatched builds fail fast instead of miscommunicating.
    Hello {
        /// The client's protocol version.
        version: u64,
    },
    /// Solve one query against the current snapshot.
    Query(QueryRequest),
    /// Install a synthetic cluster graph (a new epoch).
    Load {
        /// Number of temporal intervals `m`.
        num_intervals: usize,
        /// Cluster nodes per interval `n`.
        nodes_per_interval: u32,
        /// Average out-degree `d`.
        avg_out_degree: u32,
        /// Maximum gap `g`.
        gap: u32,
        /// Generator seed.
        seed: u64,
    },
    /// Start online ingest with the given top-k parameters.
    OpenStream {
        /// Number of tracked top paths.
        k: usize,
        /// Tracked path length `l`.
        l: u32,
        /// Maximum gap `g`.
        gap: u32,
    },
    /// Ingest one interval into the open stream and publish a new epoch.
    PushInterval {
        /// Number of cluster nodes in the arriving interval.
        nodes: u32,
        /// Edges into the arriving interval, as
        /// `(parent, node_index, weight)`.
        edges: Vec<(ClusterNodeId, u32, f64)>,
    },
    /// The online solver's current top-k paths.
    StreamTopK,
    /// The current snapshot epoch.
    Epoch,
    /// Engine counters and latency histograms.
    Stats,
    /// End the session.
    Shutdown,
}

fn field_u64(obj: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(value) => value
            .as_u64()
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
    }
}

fn field_u32(obj: &JsonValue, key: &str, default: u32) -> Result<u32, String> {
    let value = field_u64(obj, key, u64::from(default))?;
    u32::try_from(value).map_err(|_| format!("field '{key}' exceeds the 32-bit range"))
}

fn field_usize(obj: &JsonValue, key: &str, default: usize) -> Result<usize, String> {
    let value = field_u64(obj, key, default as u64)?;
    usize::try_from(value).map_err(|_| format!("field '{key}' exceeds the platform's range"))
}

fn field_str<'a>(obj: &'a JsonValue, key: &str, default: &'a str) -> Result<&'a str, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(value) => value
            .as_str()
            .ok_or_else(|| format!("field '{key}' must be a string")),
    }
}

/// Parse one request line. Errors are human-readable strings the session
/// wraps into an error response.
///
/// The line is read once, through [`json::Reader`]: `edges` straight into
/// edge tuples, every other field into a map. A shape error in `edges` is held
/// until the whole line has been read and the op is known, so a syntax error
/// anywhere on the line is reported first, a later duplicate key still wins,
/// and an op other than `push_interval` ignores the field.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut reader = json::Reader::new(line);
    let mut fields = std::collections::BTreeMap::new();
    let mut edges = Ok(Vec::new());
    if reader.peek() == Some(b'{') {
        reader.object(|reader, key| {
            if key == "edges" {
                edges = read_edges(reader)?;
            } else {
                fields.insert(key, reader.value()?);
            }
            Ok(())
        })?;
    } else {
        // Not an object: no field can be read, so the `op` check below
        // answers for it once the syntax is known to be sound.
        reader.value()?;
    }
    reader.finish()?;
    request_from(JsonValue::Object(fields), edges)
}

/// Read the `edges` value. The outer `Err` is a syntax error; the inner one
/// is the first shape error in the order the quads are checked (not an
/// array; edge `i` not a 4-element array; its parent interval, parent index,
/// node index, weight).
fn read_edges(reader: &mut json::Reader) -> Result<Result<Vec<InEdge>, String>, String> {
    if reader.peek() != Some(b'[') {
        reader.value()?;
        return Ok(Err("field 'edges' must be an array".to_string()));
    }
    let (mut edges, mut shape) = (Vec::new(), None);
    reader.array(|reader| {
        // Until the first shape error every edge is kept: this is edge
        // `edges.len()`. `[u,u,u,n]` is one typed read, its indices read as
        // integers; any other element is read the general way and converted
        // by `edge_from`.
        let quad = match reader.edge() {
            Some(([interval, index, node], weight)) => {
                if shape.is_none() {
                    edges.push((ClusterNodeId::new(interval, index), node, weight));
                }
                return Ok(());
            }
            None => read_quad(reader)?,
        };
        if shape.is_none() {
            match edge_from(edges.len(), quad) {
                Ok(edge) => edges.push(edge),
                Err(error) => shape = Some(error),
            }
        }
        Ok(())
    })?;
    Ok(shape.map_or(Ok(edges), Err))
}

/// Read an element of `edges` that is not `[u,u,u,n]`: its four values
/// (`None` for one that is not a number) if it is a 4-element array.
#[cold]
fn read_quad(reader: &mut json::Reader) -> Result<Option<[Option<f64>; 4]>, String> {
    if reader.peek() != Some(b'[') {
        reader.value()?;
        return Ok(None);
    }
    let mut numbers = Vec::new();
    reader.array(|reader| reader.number().map(|number| numbers.push(number)))?;
    Ok(numbers.try_into().ok())
}

/// Convert edge `i`, a 4-element array whose numbers have been read (`None`
/// for an element that is not a number), or `None` for any other value.
/// Indices are range-checked: a silently truncated id would attach the edge
/// to the wrong node instead of failing.
#[inline]
fn edge_from(i: usize, quad: Option<[Option<f64>; 4]>) -> Result<InEdge, String> {
    let Some([interval, index, node, weight]) = quad else {
        return Err(format!(
            "edge {i} must be [parent_interval, parent_index, node_index, weight]"
        ));
    };
    let bad = |what| format!("edge {i}: bad {what}");
    let parent = ClusterNodeId::new(
        as_u32(interval).ok_or_else(|| bad("parent interval"))?,
        as_u32(index).ok_or_else(|| bad("parent index"))?,
    );
    let node = as_u32(node).ok_or_else(|| bad("node index"))?;
    Ok((parent, node, weight.ok_or_else(|| bad("weight"))?))
}

/// A number as a node or interval index: a whole number in `0..=u32::MAX`
/// (`-0` included), what `JsonValue::as_u64` and `u32::try_from` accept, in
/// one cast round trip (going through them parsed a push line 8–20 %
/// slower).
#[inline]
fn as_u32(n: Option<f64>) -> Option<u32> {
    n.filter(|&n| (0.0..=f64::from(u32::MAX)).contains(&n) && f64::from(n as u32) == n)
        .map(|n| n as u32)
}

/// Build the request from the line's fields and its `edges`, as read (or
/// as the first shape error found in them).
fn request_from(doc: JsonValue, edges: Result<Vec<InEdge>, String>) -> Result<Request, String> {
    let op = doc
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "request must be an object with a string 'op' field".to_string())?;
    match op {
        "hello" => {
            let version = doc
                .get("version")
                .ok_or_else(|| "hello requires a 'version' field".to_string())?
                .as_u64()
                .ok_or_else(|| "field 'version' must be a non-negative integer".to_string())?;
            Ok(Request::Hello { version })
        }
        "query" => {
            let algorithm_name = field_str(&doc, "algorithm", "bfs")?;
            let algorithm = AlgorithmKind::parse(algorithm_name)
                .ok_or_else(|| format!("unknown algorithm '{algorithm_name}'"))?;
            let spec_name = field_str(&doc, "spec", "full")?;
            let spec = StableClusterSpec::parse(spec_name)
                .ok_or_else(|| format!("unknown spec '{spec_name}'"))?;
            let storage_name = field_str(&doc, "storage", "logfile")?;
            let storage = StorageSpec::parse(storage_name)
                .ok_or_else(|| format!("unknown storage '{storage_name}'"))?;
            let fanout = match doc.get("workers") {
                None => None,
                Some(value) => {
                    let list = value
                        .as_str()
                        .ok_or_else(|| "field 'workers' must be a string".to_string())?;
                    Some(FanoutSpec::parse(list).ok_or_else(|| {
                        format!(
                            "field 'workers' must be a comma-separated address list, got '{list}'"
                        )
                    })?)
                }
            };
            // Optional total time budget for the query, in milliseconds.
            // `deadline_ms: 0` is a valid (already expired) budget — it
            // deterministically answers DeadlineExceeded, which the chaos
            // suite relies on.
            let deadline = doc
                .get("deadline_ms")
                .map(|value| {
                    value.as_u64().ok_or_else(|| {
                        "field 'deadline_ms' must be a non-negative integer".to_string()
                    })
                })
                .transpose()?
                .map(std::time::Duration::from_millis);
            // Multi-tenant QoS fields: who the query is billed to and
            // which admission lane it rides. Neither changes the answer,
            // so transcripts stay diffable against the oracle.
            let tenant = match doc.get("tenant") {
                None => None,
                Some(value) => Some(
                    value
                        .as_str()
                        .ok_or_else(|| "field 'tenant' must be a string".to_string())?
                        .to_string(),
                ),
            };
            let priority_name = field_str(&doc, "priority", "normal")?;
            let priority = QueryPriority::parse(priority_name)
                .ok_or_else(|| format!("unknown priority '{priority_name}' (high|normal)"))?;
            let options = SolverOptions::default()
                .storage(storage)
                .shards(field_usize(&doc, "shards", 1)?)
                .fanout(fanout)
                .deadline(deadline)
                .tenant(tenant)
                .priority(priority);
            Ok(Request::Query(
                QueryRequest::new(algorithm, spec, field_usize(&doc, "k", 10)?).options(options),
            ))
        }
        "load" => Ok(Request::Load {
            num_intervals: field_usize(&doc, "num_intervals", 6)?,
            nodes_per_interval: field_u32(&doc, "nodes_per_interval", 12)?,
            avg_out_degree: field_u32(&doc, "avg_out_degree", 3)?,
            gap: field_u32(&doc, "gap", 1)?,
            seed: field_u64(&doc, "seed", 7)?,
        }),
        "open_stream" => Ok(Request::OpenStream {
            k: field_usize(&doc, "k", 10)?,
            l: field_u32(&doc, "l", 3)?,
            gap: field_u32(&doc, "gap", 1)?,
        }),
        "push_interval" => {
            let nodes = field_u32(&doc, "nodes", 0)?;
            // Checked where the number enters, before anything is sized by
            // it: the append sizes a degree and an offset per declared node.
            if nodes > MAX_INTERVAL_NODES {
                return Err(format!(
                    "field 'nodes' exceeds the protocol maximum of {MAX_INTERVAL_NODES} nodes per \
                     interval"
                ));
            }
            Ok(Request::PushInterval {
                nodes,
                edges: edges?,
            })
        }
        "stream_top_k" => Ok(Request::StreamTopK),
        "epoch" => Ok(Request::Epoch),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// Render result paths: each as `{"nodes": [[interval, index], …],
/// "weight": <f64>, "weight_bits": "<16 hex digits>"}`. The hex bits make
/// byte-identity checkable across the text round-trip.
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
                    ("weight".to_string(), JsonValue::from(path.weight())),
                    (
                        "weight_bits".to_string(),
                        JsonValue::from(format!("{:016x}", path.weight().to_bits())),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_query_request() {
        let line = "{\"op\":\"query\",\"algorithm\":\"auto:4096\",\"spec\":\"exact:3\",\"k\":5,\
                    \"storage\":\"blockcache:8192\",\"shards\":3}";
        let request = parse_request(line).unwrap();
        // Unknown fields are ignored, so a client still sending a retired
        // field — the per-query `threads` knob, or the flag that once put
        // BFS's rows in storage — gets the same request.
        for retired in ["\"threads\":2,", "\"store_backed\":true,"] {
            let with_retired = line.replace("\"k\":5,", &format!("\"k\":5,{retired}"));
            assert_eq!(parse_request(&with_retired).unwrap(), request, "{retired}");
        }
        let Request::Query(query) = request else {
            panic!("expected a query");
        };
        assert_eq!(
            query.algorithm,
            AlgorithmKind::Auto {
                budget_bytes: Some(4096)
            }
        );
        assert_eq!(query.spec, StableClusterSpec::ExactLength(3));
        assert_eq!(query.k, 5);
        assert_eq!(
            query.options.storage,
            StorageSpec::BlockCache { budget_bytes: 8192 }
        );
        assert_eq!(query.options.shards, 3);
    }

    #[test]
    fn parses_hello_and_a_distributed_query() {
        assert_eq!(
            parse_request("{\"op\":\"hello\",\"version\":1}").unwrap(),
            Request::Hello { version: 1 }
        );
        assert!(parse_request("{\"op\":\"hello\"}")
            .unwrap_err()
            .contains("version"));
        let request = parse_request(
            "{\"op\":\"query\",\"spec\":\"exact:2\",\"workers\":\"127.0.0.1:4401, 127.0.0.1:4402\"}",
        )
        .unwrap();
        let Request::Query(query) = request else {
            panic!("expected a query");
        };
        let fanout = query.options.fanout.expect("fanout parsed");
        assert_eq!(fanout.workers, vec!["127.0.0.1:4401", "127.0.0.1:4402"]);
        assert!(parse_request("{\"op\":\"query\",\"workers\":\",\"}")
            .unwrap_err()
            .contains("workers"));
    }

    #[test]
    fn parses_a_query_deadline() {
        let request =
            parse_request("{\"op\":\"query\",\"spec\":\"exact:2\",\"deadline_ms\":250}").unwrap();
        let Request::Query(query) = request else {
            panic!("expected a query");
        };
        let token = query.options.cancel.expect("deadline installs a token");
        let remaining = token.remaining().expect("deadline token has a deadline");
        assert!(remaining <= std::time::Duration::from_millis(250));
        // deadline_ms:0 parses to an immediately expired token.
        let request = parse_request("{\"op\":\"query\",\"deadline_ms\":0}").unwrap();
        let Request::Query(query) = request else {
            panic!("expected a query");
        };
        assert!(query.options.cancel.expect("token").expired());
        assert!(parse_request("{\"op\":\"query\",\"deadline_ms\":\"soon\"}")
            .unwrap_err()
            .contains("deadline_ms"));
    }

    #[test]
    fn parses_tenant_and_priority() {
        let request = parse_request(
            "{\"op\":\"query\",\"spec\":\"exact:2\",\"tenant\":\"acme\",\"priority\":\"high\"}",
        )
        .unwrap();
        let Request::Query(query) = request else {
            panic!("expected a query");
        };
        assert_eq!(query.options.tenant.as_deref(), Some("acme"));
        assert_eq!(query.options.priority, QueryPriority::High);
        // Defaults: untracked tenant, normal lane.
        let request = parse_request("{\"op\":\"query\"}").unwrap();
        let Request::Query(query) = request else {
            panic!("expected a query");
        };
        assert_eq!(query.options.tenant, None);
        assert_eq!(query.options.priority, QueryPriority::Normal);
        // Unknown lanes are rejected, not silently mapped.
        assert!(parse_request("{\"op\":\"query\",\"priority\":\"urgent\"}")
            .unwrap_err()
            .contains("priority"));
        assert!(parse_request("{\"op\":\"query\",\"tenant\":7}")
            .unwrap_err()
            .contains("tenant"));
    }

    #[test]
    fn query_defaults_mirror_the_one_shot_defaults() {
        let request = parse_request("{\"op\":\"query\"}").unwrap();
        let Request::Query(query) = request else {
            panic!("expected a query");
        };
        assert_eq!(query.algorithm, AlgorithmKind::Bfs);
        assert_eq!(query.spec, StableClusterSpec::FullPaths);
        assert_eq!(query.k, 10);
        assert_eq!(query.options, SolverOptions::default());
    }

    #[test]
    fn parses_stream_ops() {
        assert_eq!(
            parse_request("{\"op\":\"open_stream\",\"k\":4,\"l\":2,\"gap\":0}").unwrap(),
            Request::OpenStream { k: 4, l: 2, gap: 0 }
        );
        let push = parse_request(
            "{\"op\":\"push_interval\",\"nodes\":2,\"edges\":[[0,1,0,0.5],[0,0,1,0.25]]}",
        )
        .unwrap();
        assert_eq!(
            push,
            Request::PushInterval {
                nodes: 2,
                edges: vec![
                    (ClusterNodeId::new(0, 1), 0, 0.5),
                    (ClusterNodeId::new(0, 0), 1, 0.25),
                ],
            }
        );
        assert_eq!(parse_request("{\"op\":\"epoch\"}").unwrap(), Request::Epoch);
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("not json", "JSON parse error"),
            ("{}", "op"),
            ("{\"op\":\"fly\"}", "unknown op"),
            ("{\"op\":\"query\",\"algorithm\":\"dijkstra\"}", "algorithm"),
            ("{\"op\":\"query\",\"spec\":\"shortest\"}", "spec"),
            ("{\"op\":\"query\",\"k\":-3}", "k"),
            ("{\"op\":\"push_interval\",\"edges\":[[1,2],[0]]}", "edge 0"),
            // 2^32 would silently truncate to interval 0 if not rejected.
            (
                "{\"op\":\"push_interval\",\"nodes\":1,\"edges\":[[4294967296,0,0,0.5]]}",
                "edge 0: bad parent interval",
            ),
            // One past the ceiling, and the value that used to reach a
            // 100 GB allocation.
            (
                "{\"op\":\"push_interval\",\"nodes\":1048577}",
                "protocol maximum",
            ),
            (
                "{\"op\":\"push_interval\",\"nodes\":4294967295}",
                "protocol maximum",
            ),
            (
                "{\"op\":\"load\",\"nodes_per_interval\":4294967296}",
                "32-bit range",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    /// The tree-based reading `parse_request` replaced: the whole line
    /// built as a [`JsonValue`], `edges` converted from it. The reference
    /// the reader is held to.
    fn tree_parse_request(line: &str) -> Result<Request, String> {
        let doc = json::parse(line)?;
        let edges = doc.get("edges").map_or(Ok(Vec::new()), tree_edges);
        request_from(doc, edges)
    }

    fn tree_edges(list: &JsonValue) -> Result<Vec<InEdge>, String> {
        let list = list
            .as_array()
            .ok_or_else(|| "field 'edges' must be an array".to_string())?;
        let mut edges = Vec::new();
        for (i, edge) in list.iter().enumerate() {
            let quad = edge.as_array().filter(|a| a.len() == 4).ok_or_else(|| {
                format!("edge {i} must be [parent_interval, parent_index, node_index, weight]")
            })?;
            let component = |j: usize, what: &str| {
                quad[j]
                    .as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| format!("edge {i}: bad {what}"))
            };
            let parent_interval = component(0, "parent interval")?;
            let parent_index = component(1, "parent index")?;
            let node_index = component(2, "node index")?;
            let weight = quad[3]
                .as_f64()
                .ok_or_else(|| format!("edge {i}: bad weight"))?;
            edges.push((
                ClusterNodeId::new(parent_interval, parent_index),
                node_index,
                weight,
            ));
        }
        Ok(edges)
    }

    /// `parse_request` answers what the tree-based reading answers: the
    /// same request, or the same error text.
    fn reads_like_the_tree(line: &str) -> bool {
        let read = parse_request(line);
        assert_eq!(read, tree_parse_request(line), "{line:?}");
        read.is_ok()
    }

    /// A push line into a 1 000-node interval, `edges` quads of
    /// `stream-delta`'s shape.
    fn push_line(edges: u32) -> String {
        let mut rng = bsc_util::DetRng::seed_from_u64(11);
        let quads: Vec<String> = (0..edges)
            .map(|e| {
                let weight = (1 + rng.below(9999)) as f64 / 10_000.0;
                let (interval, parent) = (rng.below(2), rng.below(1000));
                format!("[{interval},{parent},{},{weight}]", e * 1000 / edges)
            })
            .collect();
        format!(
            "{{\"op\":\"push_interval\",\"nodes\":1000,\"edges\":[{}]}}",
            quads.join(",")
        )
    }

    #[test]
    fn every_single_byte_mutation_reads_like_the_tree() {
        let lines = [
            "{\"op\":\"push_interval\",\"nodes\":2,\"edges\":[[0,1,0,0.5],[0,0,1,0.25]]}",
            "{\"edges\":[[1,2,0,1e-1],[0,0,2,1]],\"op\":\"push_interval\",\"nodes\":3}",
            "{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"exact:2\",\"k\":4,\"shards\":2}",
            "{\"op\":\"open_stream\",\"k\":3,\"l\":1,\"gap\":0,\"x\":[true,null]}",
        ];
        let bytes = b"{}[],:\"019-.eE+ \\tnux";
        let (mut cases, mut accepted) = (0usize, 0usize);
        for line in lines {
            let mut check = |mutated: String| {
                cases += 1;
                accepted += usize::from(reads_like_the_tree(&mutated));
            };
            check(line.to_string());
            for at in 0..line.len() {
                check(format!("{}{}", &line[..at], &line[at + 1..]));
                for &b in bytes {
                    let b = char::from(b);
                    check(format!("{}{b}{}", &line[..at], &line[at + 1..]));
                    check(format!("{}{b}{}", &line[..at], &line[at..]));
                }
                check(format!("{line}{}", char::from(bytes[at % bytes.len()])));
            }
        }
        assert!(cases >= 10_000, "{cases} cases");
        // Both sides of the comparison are exercised.
        assert!(
            accepted > cases / 20 && accepted < cases / 2,
            "{accepted} of {cases}"
        );
    }

    /// 200 edges (4 KB): every truncation is a parse of its prefix on both
    /// sides, so the cost is quadratic in the line — `stream-delta`'s
    /// 6 000-edge line would take minutes.
    #[test]
    fn every_truncation_of_a_push_line_reads_like_the_tree() {
        let line = push_line(200);
        assert!(reads_like_the_tree(&line));
        for cut in 0..line.len() {
            assert!(!reads_like_the_tree(&line[..cut]), "{cut}");
        }
    }

    /// Where a shape error in `edges` meets everything else on the line:
    /// duplicates, order, other ops, other errors, nesting, non-objects.
    #[test]
    fn edge_cases_read_like_the_tree() {
        let push =
            |edges: &str| format!("{{\"op\":\"push_interval\",\"nodes\":4,\"edges\":{edges}}}");
        let mut lines = vec![
            // Duplicate keys: the later one wins, whatever the first held.
            format!(
                "{},\"edges\":[[0,0,9]]}}",
                push("[[0,0,0,0.5]]").trim_end_matches('}')
            ),
            format!(
                "{},\"edges\":[[0,0,0,0.5]]}}",
                push("[[0,0,9]]").trim_end_matches('}')
            ),
            "{\"op\":\"query\",\"op\":\"push_interval\",\"nodes\":1,\"edges\":[[0,0,0,0.5]]}"
                .to_string(),
            "{\"op\":\"push_interval\",\"op\":\"query\",\"edges\":\"x\"}".to_string(),
            // `edges` before `op`; `edges` on ops that ignore it.
            "{\"edges\":[[0,0,0,0.5]],\"nodes\":1,\"op\":\"push_interval\"}".to_string(),
            "{\"edges\":[[0,0]],\"op\":\"push_interval\"}".to_string(),
            "{\"op\":\"query\",\"edges\":[[1,2],\"x\"]}".to_string(),
            "{\"op\":\"epoch\",\"edges\":7}".to_string(),
            "{\"edges\":{\"a\":[1]},\"op\":\"stats\"}".to_string(),
            // A shape error beside a syntax error, and beside a bad `nodes`.
            format!("{} x", push("[[1,2]]")),
            push("[[1,2]],").trim_end_matches('}').to_string(),
            "{\"op\":\"push_interval\",\"nodes\":4294967295,\"edges\":[[1]]}".to_string(),
            "{\"op\":\"push_interval\",\"nodes\":-1,\"edges\":[[1]]}".to_string(),
            // Not an object at the top.
            "[1,2]".to_string(),
            "\"op\"".to_string(),
            "7".to_string(),
            "null".to_string(),
            "[{\"op\":\"epoch\"}]".to_string(),
            " ".to_string(),
            "{\"op\":\"epoch\"} {".to_string(),
        ];
        for edges in [
            // Not an array, not a quad, the wrong length.
            "{}",
            "\"edges\"",
            "null",
            "[]",
            "[7]",
            "[[]]",
            "[[0,0,0]]",
            "[[0,0,0,0.5,1]]",
            "[[0,0,0,0.5],[0,0,0]]",
            "[[0,0,0,0.5],\"x\",[0,0,0]]",
            // Nested values inside a quad.
            "[[[0],0,0,0.5]]",
            "[[0,{\"i\":0},0,0.5]]",
            "[[0,0,0,[0.5]]]",
            "[[0,0,0,\"0.5\"]]",
            "[[true,null,false,0.5]]",
            // Indices: the 32-bit edge, fractions, exponents, signs.
            "[[4294967295,0,0,0.5]]",
            "[[4294967296,0,0,0.5]]",
            "[[0,4294967296,0,0.5]]",
            "[[0,0,4294967296,0.5]]",
            "[[1.0,1e0,10E-1,0.5]]",
            "[[1.5,0,0,0.5]]",
            "[[-0,0,0,0.5]]",
            "[[-1,0,0,0.5]]",
            "[[9007199254740993,0,0,0.5]]",
            // Weights in every form a number takes.
            "[[0,0,0,5e-1]]",
            "[[0,0,0,-0.0]]",
            "[[0,0,0,1e400]]",
            "[[0,0,0,0.30000000000000004]]",
            // The first shape error wins.
            "[[0,0,0,\"w\"],[\"i\",0,0,0.5]]",
            "[[0,0,\"n\",\"w\"]]",
        ] {
            lines.push(push(edges));
        }
        // The depth limit, inside a quad: the same error at the same byte.
        for depth in [124usize, 125, 126, 130, 200] {
            let nested = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
            lines.push(push(&format!("[[0,0,0,0.5],[0,{nested},0,0.5]]")));
        }
        for line in &lines {
            reads_like_the_tree(line);
        }
        assert!(parse_request(&lines[1]).is_ok());
        assert!(parse_request(&lines[0])
            .unwrap_err()
            .contains("edge 0 must be"));
        let depth_error = parse_request(lines.last().unwrap()).unwrap_err();
        assert!(depth_error.contains("nesting"), "{depth_error}");
    }

    /// A generated matrix of `edges` arrays: every pair of the elements
    /// below, in both orders, beside a well-formed quad, spaced and not, and
    /// under a duplicated `edges` key. The read takes `[u,u,u,n]` in one
    /// typed read and every other element the general way; each must answer
    /// what the tree answers.
    #[test]
    fn a_matrix_of_edge_lists_reads_like_the_tree() {
        let elements = [
            // Well-formed quads.
            "[0,1,2,0.5]",
            "[3,0,1,1]",
            "[4294967295,0,0,0.25]",
            // Whitespace inside a quad.
            "[ 0,1,2,0.5]",
            "[0 ,1,2,0.5]",
            "[0,\t1,2,0.5]",
            "[0,1,2,0.5 ]",
            "[\n0,1,2,0.5\r]",
            // Exponents and -0.
            "[1e0,2E1,0,5e-1]",
            "[0,0,1e+0,1E0]",
            "[-0,0,0,0.5]",
            "[0,-0.0,0,0.5]",
            "[0,0,0,-0]",
            "[0,0,1e400,0.5]",
            // 16 digits and more.
            "[1234567890123456,0,0,0.5]",
            "[0,0,0,0.12345678901234567]",
            "[0000000000000001,0,0,0.5]",
            "[4294967295.0000001,0,0,0.5]",
            "[0,0,0,12345678901234567890123]",
            // Indices the typed read takes as integers, and the ones it must
            // leave to the number routine: leading zeros, 2^32, ten 9s, and
            // eleven digits whose first ten are `u32::MAX`, in each position.
            "[007,0,0,0.5]",
            "[4294967296,0,0,0.5]",
            "[0,4294967296,0,0.5]",
            "[0,0,4294967296,0.5]",
            "[9999999999,0,0,0.5]",
            "[0,9999999999,0,0.5]",
            "[0,0,9999999999,0.5]",
            "[42949672950,0,0,0.5]",
            "[0,42949672950,0,0.5]",
            "[0,0,42949672950,0.5]",
            "[0,0,1.5,0.5]",
            "[0,0,0,1]",
            // Weights the line reads (`append` refuses the last three).
            "[0,0,0,0.5e0]",
            "[0,0,0,-0.5]",
            "[0,0,0,2]",
            "[0,0,0,0]",
            // Strings, null, nested arrays and objects.
            "[\"0\",0,0,0.5]",
            "[0,null,0,0.5]",
            "[0,0,[0],0.5]",
            "[0,0,0,{\"w\":1}]",
            "[true,0,0,0.5]",
            "\"edge\"",
            "null",
            "7",
            // Three and five elements, and none.
            "[0,0,0]",
            "[0,0,0,0.5,1]",
            "[]",
            // Numbers the reader rejects, and syntax errors.
            "[0,0,0,.5]",
            "[0,0,0,+1]",
            "[0,0,0,1.]",
            "[0,0,0,-]",
            "[0,0,0,0.5x]",
            "[0,0,0,0.5,]",
            "[0,0,0 0.5]",
        ];
        let push =
            |edges: &str| format!("{{\"op\":\"push_interval\",\"nodes\":4,\"edges\":{edges}}}");
        let (mut cases, mut accepted) = (0usize, 0usize);
        let mut check = |line: String| {
            cases += 1;
            accepted += usize::from(reads_like_the_tree(&line));
        };
        for a in elements {
            check(push(&format!("[{a}]")));
            for b in elements {
                check(push(&format!("[{a},{b}]")));
                check(push(&format!("[ {a} , [0,0,0,0.5] , {b} ]")));
                let line = push(&format!("[{a}]"));
                check(format!("{},\"edges\":[{b}]}}", line.trim_end_matches('}')));
            }
        }
        assert!(cases > 4_000, "{cases} cases");
        assert!(
            accepted > cases / 10 && accepted < cases / 2,
            "{accepted} of {cases}"
        );
    }

    #[test]
    fn responses_render_canonically() {
        let ok = ok_response("epoch", vec![("epoch", JsonValue::from(3u64))]);
        assert_eq!(ok, "{\"epoch\":3,\"ok\":true,\"op\":\"epoch\"}");
        let err = error_response("bad \"op\"");
        assert!(err.contains("\"ok\":false"));
        assert!(json::parse(&err).is_ok());
    }

    #[test]
    fn paths_round_trip_with_exact_bits() {
        let path = ClusterPath::new(
            vec![ClusterNodeId::new(0, 2), ClusterNodeId::new(2, 1)],
            0.1 + 0.2, // a value with an inexact decimal form
        );
        let rendered = paths_to_json(std::slice::from_ref(&path)).render();
        let parsed = json::parse(&rendered).unwrap();
        let entry = &parsed.as_array().unwrap()[0];
        let bits =
            u64::from_str_radix(entry.get("weight_bits").unwrap().as_str().unwrap(), 16).unwrap();
        assert_eq!(bits, path.weight().to_bits());
        assert_eq!(
            entry.get("weight").unwrap().as_f64().unwrap().to_bits(),
            path.weight().to_bits(),
            "shortest round-trip display must preserve the bits too"
        );
    }
}
