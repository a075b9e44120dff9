//! The six workloads: what each sends, in what order, and why.
//!
//! An op list is a fixed multiset of request lines in an order drawn from
//! `--seed`, so op counts, reply bytes, cache hit/miss sequences and every
//! program counter repeat exactly whatever the seed. Graph *contents* are
//! pinned to [`DATA_SEED`]: solve time moves by ±10 % between two random
//! graphs of one shape, and this benchmark compares commits, not graphs.

use bsc_util::rng::DetRng;

/// Seed of every generated graph and pushed interval (see the module docs).
pub const DATA_SEED: u64 = 7;

/// Per-template counts below are chosen so the p50 and p95 ranks fall
/// inside one template's samples: a median that sits between two latency
/// classes flips between them on noise alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    ServeCold,
    ServeSharded,
    ServeHot,
    ServeDisk,
    StreamDelta,
    ClusterFanout,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ServeCold,
        Workload::ServeSharded,
        Workload::ServeHot,
        Workload::ServeDisk,
        Workload::StreamDelta,
        Workload::ClusterFanout,
    ];

    /// The workloads `BENCHMARK.json` lists for the driver. Its time cap
    /// (4 + 22 x workloads runs inside 57 minutes, builds included) buys
    /// four workloads of 26 s or six of 15 s, and on a shared box run
    /// length is what steadies a figure. The two left to `run.sh` alone are
    /// the ones that run more processes and threads than the box has cores
    /// (`cluster-fanout`) or time the file system (`serve-disk`); their
    /// layers keep their `--trace 1` probes on every workload.
    pub const DRIVER: [Workload; 4] = [
        Workload::ServeCold,
        Workload::ServeSharded,
        Workload::ServeHot,
        Workload::StreamDelta,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve-cold",
            Workload::ServeSharded => "serve-sharded",
            Workload::ServeHot => "serve-hot",
            Workload::ServeDisk => "serve-disk",
            Workload::StreamDelta => "stream-delta",
            Workload::ClusterFanout => "cluster-fanout",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one-sentence reason the workload exists (mirrored in
    /// `BENCHMARK.json` and the README).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeCold => {
                "cache off, unsharded bfs/auto: core solvers do all the work; the control on which window, cache, wire and delta changes must not move"
            }
            Workload::ServeSharded => {
                "cache off, shards=2: every query is window extraction + per-window solve + merge; where zero-copy window views must show"
            }
            Workload::ServeHot => {
                "working set fits the cache (100% hits): json, protocol, session, engine and cache do everything; solver changes must not move it"
            }
            Workload::ServeDisk => {
                "dfs/ta/normalized and store-backed bfs over memory, logfile and two block-cache budgets: the only workload where storage backends do real work"
            }
            Workload::StreamDelta => {
                "70 pushed intervals with first-touch queries after each: ingest (parse, snapshot, delta, install) beside the splice-forward query path"
            }
            Workload::ClusterFanout => {
                "coordinator over two TCP workers, fresh graph per cycle, distinct queries: wire codec, lazy graph shipment and per-window RPCs"
            }
        }
    }

    /// Whether client and server share one core (see [`crate::child::OneCore`]):
    /// every workload whose requests are served by one thread at a time.
    /// `serve-sharded` solves on two shard threads and `cluster-fanout` on
    /// two worker processes; they keep every core.
    pub fn one_core(self) -> bool {
        !matches!(self, Workload::ServeSharded | Workload::ClusterFanout)
    }

    /// `--cache` of the serving process (0 disables the solution cache).
    pub fn cache_capacity(self) -> usize {
        match self {
            Workload::ServeHot | Workload::StreamDelta => 128,
            _ => 0,
        }
    }
}

/// Which latency series a timed op feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A query: `latency_*`.
    Query,
    /// The first query after a `load` (carries the lazy graph shipment):
    /// `epoch_first_query_p50_ms`, excluded from `latency_*`.
    FirstQuery,
    /// A `push_interval`: `ingest_*`.
    Push,
    /// A `load` inside the timed section (throughput only).
    Load,
}

/// One timed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into [`Plan::templates`].
    pub template: u32,
    pub class: OpClass,
    /// The graph generation the op runs against (cycle for
    /// `cluster-fanout`, push index for `stream-delta`, else 0): replies
    /// are verified per `(group, template)`.
    pub group: u32,
    /// Whether `bsc oracle` answers this op during set-up. Off only for
    /// most `stream-delta` queries, where a cold oracle solve of the grown
    /// graph costs 50x the measured op: there the oracle answers every push
    /// and, after every 10th push, one query.
    pub oracle: bool,
}

/// Everything one round sends.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    /// State-building lines sent during set-up (`load` / `open_stream`).
    pub setup: Vec<String>,
    /// Templates sent once during set-up: every template on `serve-hot` (to
    /// fill the cache), the cheapest few elsewhere, so that both engine
    /// workers have served a query — lazy set-up is over — before timing
    /// starts, and `setup_s` is mostly the server's work, not `fork`/`exec`.
    pub warm: Vec<u32>,
    pub templates: Vec<String>,
    pub ops: Vec<Op>,
}

fn query(algorithm: &str, spec: &str, k: usize, extra: &str) -> String {
    format!(
        "{{\"op\":\"query\",\"algorithm\":\"{algorithm}\",\"spec\":\"{spec}\",\"k\":{k}{extra}}}"
    )
}

fn load_line(intervals: usize, nodes: u32, degree: u32, seed: u64) -> String {
    format!(
        "{{\"op\":\"load\",\"num_intervals\":{intervals},\"nodes_per_interval\":{nodes},\
         \"avg_out_degree\":{degree},\"gap\":1,\"seed\":{seed}}}"
    )
}

/// The 12x300 graph of the `serve-*` and `cluster-fanout` workloads.
pub fn load_big(seed: u64) -> String {
    load_line(12, 300, 5, seed)
}

/// The 6x60 graph of `serve-disk`.
pub fn load_small() -> String {
    load_line(6, 60, 3, DATA_SEED)
}

const STREAM_PUSHES: u32 = 70;
const STREAM_NODES: u32 = 1000;
const STREAM_PARENTS: u32 = 6;
/// The first timed push: set-up sends the ones before it, and every timed
/// push is followed by the queries (windows of `l = 4` need 5 intervals).
const STREAM_QUERY_FROM: u32 = 4;
pub const CLUSTER_CYCLES: u32 = 2;

/// The `push_interval` lines of `stream-delta`: interval `t` has
/// [`STREAM_NODES`] nodes with [`STREAM_PARENTS`] parent edges each, 80 %
/// from `t-1` and 20 % from `t-2` (~110 KB a line).
pub fn push_lines() -> Vec<String> {
    let mut rng = DetRng::seed_from_u64(DATA_SEED);
    (0..STREAM_PUSHES)
        .map(|t| {
            let mut line =
                format!("{{\"op\":\"push_interval\",\"nodes\":{STREAM_NODES},\"edges\":[");
            if t > 0 {
                for node in 0..STREAM_NODES {
                    for e in 0..STREAM_PARENTS {
                        let parent_interval = if t >= 2 && rng.chance(0.2) {
                            t - 2
                        } else {
                            t - 1
                        };
                        let parent = rng.below(u64::from(STREAM_NODES));
                        let weight = (1 + rng.below(9999)) as f64 / 10_000.0;
                        if node > 0 || e > 0 {
                            line.push(',');
                        }
                        line.push_str(&format!("[{parent_interval},{parent},{node},{weight}]"));
                    }
                }
            }
            line.push_str("]}");
            line
        })
        .collect()
}

/// `total` ops over `weights.len()` ranks with Zipf(`s`) shares, as exact
/// counts (largest-remainder rounding) so a round's multiset never varies.
fn zipf_counts(ranks: usize, s: f64, total: usize) -> Vec<usize> {
    let raw: Vec<f64> = (0..ranks).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let norm: f64 = raw.iter().sum();
    let exact: Vec<f64> = raw.iter().map(|w| w / norm * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..ranks).collect();
    order.sort_by(|&a, &b| {
        (exact[b].fract())
            .total_cmp(&exact[a].fract())
            .then(a.cmp(&b))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(missing) {
        counts[i] += 1;
    }
    counts
}

impl Plan {
    /// Build the workload's round. A pure function of `(workload, seed)`:
    /// the seed only permutes request order.
    pub fn build(workload: Workload, seed: u64) -> Plan {
        // Decorrelate workloads that share a seed.
        let mut rng =
            DetRng::seed_from_u64(seed ^ (workload as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut plan = Plan {
            workload,
            setup: Vec::new(),
            warm: Vec::new(),
            templates: Vec::new(),
            ops: Vec::new(),
        };
        let static_op = |template: usize| Op {
            template: template as u32,
            class: OpClass::Query,
            group: 0,
            oracle: true,
        };
        match workload {
            Workload::ServeCold => {
                plan.setup.push(load_big(DATA_SEED));
                for algorithm in ["bfs", "auto"] {
                    for spec in [
                        "exact:2", "exact:3", "exact:4", "exact:5", "exact:6", "full",
                    ] {
                        for (k, count) in [(1, 1), (5, 2), (10, 2)] {
                            plan.templates.push(query(algorithm, spec, k, ""));
                            let t = plan.templates.len() - 1;
                            plan.ops.extend((0..count).map(|_| static_op(t)));
                            if k == 1 {
                                plan.warm.push(t as u32);
                            }
                        }
                    }
                }
                rng.shuffle(&mut plan.ops);
            }
            Workload::ServeSharded => {
                plan.setup.push(load_big(DATA_SEED));
                let specs = [
                    ("bfs", "exact:2"),
                    ("bfs", "exact:3"),
                    ("bfs", "exact:4"),
                    ("bfs", "exact:5"),
                    ("bfs", "exact:6"),
                    ("ta", "exact:2"),
                    ("ta", "exact:3"),
                ];
                for (algorithm, spec) in specs {
                    for k in [1, 5, 10] {
                        plan.templates
                            .push(query(algorithm, spec, k, ",\"shards\":2"));
                        let t = plan.templates.len() - 1;
                        plan.ops.extend((0..4).map(|_| static_op(t)));
                        if k == 1 {
                            plan.warm.push(t as u32);
                        }
                    }
                }
                rng.shuffle(&mut plan.ops);
            }
            Workload::ServeHot => {
                plan.setup.push(load_big(DATA_SEED));
                // Popularity rank order is fixed (k-major, so every reply
                // size is popular somewhere); only the draw order is seeded.
                for k in [5, 10, 3, 20, 2, 1] {
                    for spec in ["exact:3", "exact:2", "exact:4", "exact:5", "exact:6"] {
                        for algorithm in ["bfs", "auto"] {
                            plan.templates.push(query(algorithm, spec, k, ""));
                        }
                    }
                }
                plan.warm = (0..plan.templates.len() as u32).collect();
                for (t, count) in zipf_counts(plan.templates.len(), 1.1, 40_000)
                    .into_iter()
                    .enumerate()
                {
                    plan.ops.extend((0..count).map(|_| static_op(t)));
                }
                rng.shuffle(&mut plan.ops);
            }
            Workload::ServeDisk => {
                plan.setup.push(load_small());
                let storages = [
                    "memory",
                    "logfile",
                    "blockcache:16384",
                    "blockcache:1048576",
                ];
                for storage in storages {
                    for spec in ["exact:2", "exact:3", "full"] {
                        plan.templates.push(query(
                            "dfs",
                            spec,
                            5,
                            &format!(",\"storage\":\"{storage}\""),
                        ));
                    }
                    plan.templates.push(query(
                        "bfs",
                        "full",
                        5,
                        &format!(",\"storage\":\"{storage}\",\"store_backed\":true"),
                    ));
                    plan.warm.push(plan.templates.len() as u32 - 1);
                }
                plan.templates.push(query("ta", "full", 5, ""));
                plan.warm.push(plan.templates.len() as u32 - 1);
                plan.templates
                    .push(query("normalized", "normalized:2", 5, ""));
                plan.templates
                    .push(query("normalized", "normalized:3", 5, ""));
                for t in 0..plan.templates.len() {
                    plan.ops.extend((0..2).map(|_| static_op(t)));
                }
                rng.shuffle(&mut plan.ops);
            }
            Workload::StreamDelta => {
                plan.setup
                    .push("{\"op\":\"open_stream\",\"k\":5,\"l\":3,\"gap\":1}".to_string());
                let queries: Vec<u32> = [
                    ("exact:2", 5),
                    ("exact:3", 5),
                    ("exact:4", 5),
                    ("exact:3", 3),
                ]
                .into_iter()
                .map(|(spec, k)| {
                    plan.templates.push(query("bfs", spec, k, ""));
                    plan.templates.len() as u32 - 1
                })
                .collect();
                for (t, line) in push_lines().into_iter().enumerate() {
                    let t = t as u32;
                    if t < STREAM_QUERY_FROM {
                        // Set-up brings the stream to the first interval
                        // at which every query has a window to look at.
                        plan.setup.push(line);
                        continue;
                    }
                    plan.templates.push(line);
                    plan.ops.push(Op {
                        template: plan.templates.len() as u32 - 1,
                        class: OpClass::Push,
                        group: t,
                        oracle: true,
                    });
                    // No repeats within an epoch: cache hits belong to
                    // serve-hot, and a hit/splice mix would put the median
                    // on a class boundary.
                    let mut order = queries.clone();
                    rng.shuffle(&mut order);
                    // After every 10th push the oracle answers one of the
                    // four queries, rotating through them.
                    let checked = (t % 10 == 9).then(|| queries[(t / 10) as usize % queries.len()]);
                    plan.ops.extend(order.into_iter().map(|template| Op {
                        template,
                        class: OpClass::Query,
                        group: t,
                        oracle: checked == Some(template),
                    }));
                }
            }
            Workload::ClusterFanout => {
                // Distinct (algorithm, l, k) per query and a fresh graph per
                // cycle keep every window a real RPC: the coordinator's
                // window cache is always on and would answer repeats.
                plan.templates.push(query("bfs", "exact:3", 4, ""));
                let first = 0u32;
                // Set-up runs one cycle's head, so the coordinator's
                // connections to the workers (TCP connect + hello) exist
                // before the first timed op, as a session's would.
                plan.setup.push(load_big(DATA_SEED + 99));
                plan.setup.push(plan.templates[0].clone());
                let mut rest = Vec::new();
                for k in [5, 10] {
                    // TA only materializes full paths, which every window
                    // of a fan-out is; `shards` makes the same line valid for
                    // the (local) oracle, and the coordinator's fan-out
                    // takes precedence over it.
                    for (algorithm, spec, extra) in [
                        ("bfs", "exact:2", ""),
                        ("bfs", "exact:3", ""),
                        ("bfs", "exact:4", ""),
                        ("bfs", "exact:5", ""),
                        ("bfs", "exact:6", ""),
                        ("ta", "exact:2", ",\"shards\":2"),
                        ("ta", "exact:3", ",\"shards\":2"),
                    ] {
                        plan.templates.push(query(algorithm, spec, k, extra));
                        rest.push(plan.templates.len() as u32 - 1);
                    }
                }
                for cycle in 0..CLUSTER_CYCLES {
                    plan.templates
                        .push(load_big(DATA_SEED + 100 + u64::from(cycle)));
                    let op = |template, class| Op {
                        template,
                        class,
                        group: cycle,
                        oracle: true,
                    };
                    plan.ops
                        .push(op(plan.templates.len() as u32 - 1, OpClass::Load));
                    plan.ops.push(op(first, OpClass::FirstQuery));
                    let mut order = rest.clone();
                    rng.shuffle(&mut order);
                    plan.ops
                        .extend(order.into_iter().map(|t| op(t, OpClass::Query)));
                }
            }
        }
        plan
    }

    /// FNV-1a over the op list (template text, class, group, in order), as
    /// `LoadSchedule::fingerprint` does: two runs that print the same hash
    /// sent byte-identical traffic.
    pub fn schedule_hash(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        // Hash each template's text once, then the op sequence by index.
        for line in self.setup.iter().chain(&self.templates) {
            mix(line.as_bytes());
            mix(&[0xff]);
        }
        for op in &self.ops {
            mix(&op.template.to_le_bytes());
            mix(&[op.class as u8]);
            mix(&op.group.to_le_bytes());
        }
        format!("{hash:016x}")
    }

    /// How many timed ops use each template.
    #[cfg(test)]
    pub fn template_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.templates.len()];
        for op in &self.ops {
            counts[op.template as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_is_a_pure_function_of_the_seed_with_exact_counts() {
        for workload in Workload::ALL {
            let a = Plan::build(workload, 7);
            let b = Plan::build(workload, 7);
            let c = Plan::build(workload, 8);
            assert_eq!(a.ops, b.ops, "{}", workload.name());
            assert_eq!(a.schedule_hash(), b.schedule_hash());
            // Another seed reorders the same multiset of the same lines.
            assert_eq!(a.templates, c.templates);
            assert_eq!(a.template_counts(), c.template_counts());
            assert_ne!(a.ops, c.ops, "{}", workload.name());
            assert_ne!(a.schedule_hash(), c.schedule_hash());
        }
    }

    #[test]
    fn per_template_counts_are_the_documented_ones() {
        let cold = Plan::build(Workload::ServeCold, 7);
        assert_eq!(cold.ops.len(), 60);
        // k=1 x1, k=5 x2, k=10 x2 for each of 12 (algorithm, spec) pairs.
        assert_eq!(&cold.template_counts()[..3], &[1, 2, 2]);
        let sharded = Plan::build(Workload::ServeSharded, 7);
        assert!(sharded.template_counts().iter().all(|&c| c == 4));
        assert_eq!(sharded.ops.len(), 84);
        let hot = Plan::build(Workload::ServeHot, 7);
        assert_eq!(hot.templates.len(), 60);
        assert_eq!(hot.ops.len(), 40_000);
        let counts = hot.template_counts();
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "zipf counts descend by rank"
        );
        assert!(counts[59] > 0, "every warmed template is drawn");
        let disk = Plan::build(Workload::ServeDisk, 7);
        assert_eq!(disk.templates.len(), 19);
        assert!(disk.template_counts().iter().all(|&c| c == 2));
        let stream = Plan::build(Workload::StreamDelta, 7);
        let pushes = stream
            .ops
            .iter()
            .filter(|op| op.class == OpClass::Push)
            .count();
        let queries = stream
            .ops
            .iter()
            .filter(|op| op.class == OpClass::Query)
            .count();
        assert_eq!((pushes, queries), (66, 66 * 4));
        assert_eq!(stream.setup.len(), 1 + 4);
        assert_eq!(
            stream
                .ops
                .iter()
                .filter(|op| op.class == OpClass::Query && op.oracle)
                .count(),
            7
        );
        let cluster = Plan::build(Workload::ClusterFanout, 7);
        let of = |class| cluster.ops.iter().filter(|op| op.class == class).count();
        assert_eq!(
            (
                of(OpClass::Load),
                of(OpClass::FirstQuery),
                of(OpClass::Query)
            ),
            (2, 2, 2 * 14)
        );
    }

    #[test]
    fn zipf_counts_sum_exactly() {
        let counts = zipf_counts(60, 1.1, 80_000);
        assert_eq!(counts.iter().sum::<usize>(), 80_000);
    }

    #[test]
    fn push_lines_are_pinned_to_the_data_seed() {
        let lines = push_lines();
        assert_eq!(lines.len(), 70);
        assert_eq!(
            lines[0],
            "{\"op\":\"push_interval\",\"nodes\":1000,\"edges\":[]}"
        );
        assert!(lines[5].len() > 100_000);
        assert_eq!(lines, push_lines());
    }
}
