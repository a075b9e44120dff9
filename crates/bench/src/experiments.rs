//! One function per table / figure of the paper's evaluation section.
//!
//! Every experiment returns a [`Table`] whose rows mirror the series the
//! paper plots. Absolute times will differ from the 2007 Java/2 GHz testbed;
//! the *shapes* the paper argues for are what the tables reproduce:
//!
//! * cluster-generation time falls steeply as ρ grows (Figure 6);
//! * BFS ≪ DFS ≪ TA as m grows, TA exponential (Table 3);
//! * BFS grows with g, d, l and is linear in n and m (Figures 7–10);
//! * DFS is far more sensitive to g and d (Figures 11–13) but needs only a
//!   stack in memory;
//! * normalized stable clusters get more expensive with m and l_min
//!   (Figure 14);
//! * the articulation-point clustering is orders of magnitude faster than
//!   flow-based cut clustering (related-work comparison).

use std::hint::black_box;
use std::time::Duration;

use bsc_baselines::{
    cc_pivot, cut_clustering, kway_partition, CutClusteringParams, KwayParams, SignedGraph,
};
use bsc_cluster::{WorkerConfig, WorkerServer};
use bsc_core::bfs::BfsStableClusters;
use bsc_core::cluster_graph::{ClusterGraph, ClusterGraphBuilder, ClusterNodeId};
use bsc_core::delta::solve_windows;
use bsc_core::distributed::FanoutSpec;
use bsc_core::path::ClusterPath;
use bsc_core::pipeline::{Pipeline, PipelineParams, StableClusterSpec};
use bsc_core::problem::KlStableParams;
use bsc_core::sharded::ShardedSolver;
use bsc_core::solver::{AlgorithmKind, Solution, SolverOptions, StableClusterSolver};
use bsc_corpus::pairs::PairCounter;
use bsc_corpus::timeline::IntervalId;
use bsc_graph::cluster::ClusterExtractor;
use bsc_graph::csr::{prefix_offsets, CsrGraph};
use bsc_graph::keyword_graph::KeywordGraphBuilder;
use bsc_graph::prune::PruneConfig;
use bsc_storage::backend::StorageSpec;

use crate::report::{mib, seconds, Table};
use crate::workloads::{cluster_graph, scripted_week, single_day, timed};

/// How large the workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Reduced sizes: the full suite finishes in a few minutes.
    #[default]
    Quick,
    /// The paper's parameter ranges (where feasible on one machine).
    Paper,
}

impl Scale {
    fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

const SEED: u64 = 2007;

/// Build the solver for `kind`/`spec` through the unified trait, run it on
/// `graph` and report the wall-clock time. One dispatch point backs every
/// per-algorithm experiment below — the paper's comparisons are literally
/// "same graph, different `AlgorithmKind`". The solve reads a clone of
/// `graph`, which keeps none of the look-ahead tables earlier solves of
/// `graph` built: every cell times a cold solve, table included.
fn timed_solve(
    kind: AlgorithmKind,
    spec: StableClusterSpec,
    k: usize,
    graph: &ClusterGraph,
) -> (Solution, Duration) {
    let mut solver = kind
        .build(spec, k, graph.num_intervals())
        .expect("supported algorithm/spec combination");
    let cold = graph.clone();
    let (solution, duration) = timed(|| solver.solve(&cold).expect("solver run"));
    (solution, duration)
}

/// Table 1: sizes of the per-day keyword graphs (file size, #keywords,
/// #edges) for two synthetic "days".
pub fn table1(scale: Scale) -> Table {
    let posts = scale.pick(4_000, 40_000);
    let vocab = scale.pick(4_000, 20_000);
    let mut table = Table::new(
        "Table 1: keyword graph sizes per day (synthetic BlogScope substitute)",
        &["Date", "File Size", "# keywords", "# edges", "# posts"],
    );
    for (label, seed) in [("Jan 6", SEED), ("Jan 7", SEED + 1)] {
        let corpus = single_day(posts, vocab, seed);
        let counts = PairCounter::in_memory()
            .count(corpus.timeline.documents(IntervalId(0)))
            .expect("pair counting");
        table.push_row(vec![
            label.to_string(),
            mib(corpus.approx_text_bytes()),
            counts.num_keywords().to_string(),
            counts.num_pairs().to_string(),
            posts.to_string(),
        ]);
    }
    table.push_note("paper: 3027MB / 2.89M keywords / 138M edges per real day; shape (edges >> keywords >> days) preserved at reduced scale");
    table
}

/// Figure 6: running time of the full cluster-generation procedure (pair
/// counting, χ², ρ pruning, Art algorithm) as the ρ threshold increases.
pub fn fig6(scale: Scale) -> Table {
    let posts = scale.pick(4_000, 20_000);
    let vocab = scale.pick(4_000, 10_000);
    let corpus = single_day(posts, vocab, SEED);
    let docs = corpus.timeline.documents(IntervalId(0));
    let counts = PairCounter::in_memory().count(docs).expect("pair counting");
    let mut table = Table::new(
        "Figure 6: cluster generation time vs correlation threshold rho",
        &["rho", "time(s)", "surviving edges", "clusters"],
    );
    for rho in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6] {
        let ((clusters, surviving), duration) = timed(|| {
            let graph = KeywordGraphBuilder::from_pair_counts(&counts);
            let (pruned, stats) = PruneConfig::paper().with_rho(rho).prune(&graph);
            let clusters = ClusterExtractor::default()
                .extract(&pruned, IntervalId(0))
                .expect("extraction");
            (clusters.len(), stats.surviving_edges)
        });
        table.push_row(vec![
            format!("{rho:.1}"),
            seconds(duration),
            surviving.to_string(),
            clusters.to_string(),
        ]);
    }
    table.push_note("time decreases as rho increases because pruning removes edges before the Art algorithm runs");
    table
}

/// Table 3: BFS vs DFS vs TA for top-5 full paths as m grows
/// (n = 400, d = 5, g = 0 at paper scale).
pub fn table3(scale: Scale) -> Table {
    let n = scale.pick(150, 400);
    let ms: Vec<usize> = scale.pick(vec![3, 6, 9], vec![3, 6, 9, 12, 15]);
    // DFS charges 1.0 per interval to come and grows quadratically with m;
    // cap it. (TA reads its bounds off two look-ahead tables: no cap.)
    let max_m = |kind: AlgorithmKind| match kind {
        AlgorithmKind::Dfs => scale.pick(9, 12),
        _ => usize::MAX,
    };
    let k = 5;
    let kinds = [AlgorithmKind::Bfs, AlgorithmKind::Dfs, AlgorithmKind::Ta];
    let headers: Vec<String> = std::iter::once("m".to_string())
        .chain(
            kinds
                .iter()
                .map(|kind| format!("{}(s)", kind.name().to_uppercase())),
        )
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table 3: BFS vs DFS vs TA, top-5 full paths (n per interval, d=5, g=0)",
        &header_refs,
    );
    let mut counted = Vec::new();
    for &m in &ms {
        let graph = cluster_graph(m, n, 5, 0, SEED);
        let mut row = vec![m.to_string()];
        for kind in kinds {
            if m > max_m(kind) {
                row.push("> skipped".to_string());
                continue;
            }
            let (solution, t) = timed_solve(kind, StableClusterSpec::FullPaths, k, &graph);
            row.push(seconds(t));
            if kind == AlgorithmKind::Ta {
                let stats = solution.stats;
                counted.push(format!(
                    "m = {m}: {} of {} edges discarded on the bound, {} popped, {} rows read, \
                     {} full paths weighed",
                    stats.prunes,
                    graph.num_edges(),
                    stats.edges_traversed,
                    stats.random_seeks,
                    stats.paths_generated,
                ));
            }
        }
        table.push_row(row);
    }
    table.push_note(format!(
        "n = {n} nodes per interval; paper shape: BFS << DFS, and its TA explodes beyond small m \
         because it learns startwts / endwts by enumerating every prefix and suffix of a popped \
         edge. This TA reads them off two look-ahead tables (one pass each); its counters say \
         what is left to do — {}",
        counted.join("; ")
    ));
    table
}

/// One plain scatter-max pass over every edge of `graph` through the public
/// API, last interval first — `best[parent] = max(best[parent], w +
/// best[child])`, one weight per node: what reading each edge once costs
/// with no lengths to lay out, the yardstick `BFS/edge pass(x)` divides a
/// solve by.
fn edge_pass(graph: &ClusterGraph) -> f64 {
    let intervals = 0..graph.num_intervals() as u32;
    let nodes: Vec<usize> = intervals
        .clone()
        .map(|i| graph.nodes_in_interval(i) as usize)
        .collect();
    let first = prefix_offsets(&nodes);
    let slot = |node: ClusterNodeId| first[node.interval as usize] + node.index as usize;
    let mut best = vec![0.0f64; graph.num_nodes()];
    for child in intervals.rev().flat_map(|i| graph.interval_node_ids(i)) {
        let rest = best[slot(child)];
        for edge in graph.parents(child) {
            let through = &mut best[slot(edge.to)];
            *through = through.max(edge.weight + rest);
        }
    }
    best.into_iter().fold(0.0, f64::max)
}

/// Table 3 ablation: the BFS hot-path rework measured on the Table 3
/// workload shape at bench scale. Two implementations on identical graphs —
/// the seed-style clone-based BFS (`ClusterPath` vectors + `HashMap`
/// window) and the flat-table/CSR solver — verified to return
/// identical top-k paths before timing. `BFS/edge pass(x)` times the solve
/// against `edge_pass` over the same graph, back to back in the same run,
/// so machine speed cancels: a solve is mostly its look-ahead, one pass over
/// the edges that fills a table, and the column is what that pass and the
/// sweep after it cost in passes.
pub fn table3_ablation(scale: Scale) -> Table {
    let n = scale.pick(2_000, 4_000);
    let (m, d, g) = (12usize, 5u32, 1u32);
    let k = 5;
    let mut table = Table::new(
        "Table 3 ablation: seed-style BFS vs flat-table/CSR",
        &[
            "workload",
            "seed-BFS(s)",
            "BFS(s)",
            "speedup(flat-table)",
            "BFS/edge pass(x)",
        ],
    );
    let graph = cluster_graph(m, n, d, g, SEED);
    let specs: Vec<(String, u32)> = vec![
        (format!("full paths (l={})", m - 1), (m - 1) as u32),
        ("subpaths l=6".to_string(), 6),
    ];
    for (label, l) in specs {
        let params = KlStableParams::new(k, l);
        let (seed_paths, seed_time) = timed(|| crate::reference::seed_style_bfs(params, &graph));
        // On a clone each time: a cold solve, its look-ahead table built.
        let solve = || {
            let cold = graph.clone();
            timed(|| BfsStableClusters::new(params).run(&cold).expect("bfs"))
        };
        let (paths, time) = solve();
        assert_paths_equal(&seed_paths, &paths, "seed vs flat-table");
        // Five solve / pass pairs back to back; the median pair's ratio.
        let mut passes: Vec<f64> = (0..5)
            .map(|_| {
                let (_, solved) = solve();
                let (_, passed) = timed(|| black_box(edge_pass(black_box(&graph))));
                solved.as_secs_f64() / passed.as_secs_f64().max(1e-9)
            })
            .collect();
        passes.sort_by(f64::total_cmp);
        table.push_row(vec![
            label,
            seconds(seed_time),
            seconds(time),
            format!("{:.2}x", seed_time.as_secs_f64() / time.as_secs_f64()),
            format!("{:.2}x", passes[passes.len() / 2]),
        ]);
    }
    table.push_note(format!(
        "m = {m}, n = {n}, d = {d}, g = {g}, k = {k}; identical top-k verified across both"
    ));
    table.push_note(
        "speedup(flat-table) = clone-based seed (l heaps per node, every candidate kept) / flat heap tables + link arena holding only subpaths that can still become an answer; the subpath row read 9-10x while the tables kept l rows and no bound, 25x once they charged 1 per interval to come, and reads what it does since a batch sweep knows every completion in advance",
    );
    table.push_note(
        "BFS/edge pass(x) = a BFS solve / one plain scatter-max pass over the same graph's edges through the public ClusterGraph API, median of five back-to-back pairs: the look-ahead is one pass over the edges that fills a table of the lengths each node is asked for (one per node for full paths, up to l otherwise), the forward sweep then visits what a near-answer can reach; the column grows if either starts paying per-edge bookkeeping again",
    );
    table
}

/// Table 3 sharding ablation: the partition-then-merge sharded solver vs
/// the unsharded BFS on identical graphs and queries. The per-start window
/// decomposition re-scans edges once per window, so single-core wall clock
/// is expected to be *higher* than unsharded BFS — what the row demonstrates
/// is (a) byte-identical results (verified before timing), (b) shard workers
/// running concurrently when cores allow, and (c) the per-shard working set
/// shrinking with the shard count (the EMBANKS-style reason to shard at
/// all). `shards` comes from `repro --shards <n>` (default 3).
///
/// `sharded@1` is the decomposition alone — every window, one range, the
/// calling thread — and `sharded@1/BFS(x)` its cost relative to the BFS
/// solve timed in the same run: a ratio of two neighbouring measurements,
/// which is what lets `repro gate` hold it where absolute seconds flap.
/// Since every batch sweep knows how its subpaths can end (docs/performance.md,
/// "Completions known in advance") a window prunes from its first interval
/// like the whole graph does, and since it visits only the nodes a prefix of
/// a near-answer can reach ("Nodes nothing live reaches") that ratio reads
/// what is left. The backward pass is no longer paid once per window a node
/// appears in: every window reads the graph's completion table ("The graph
/// keeps its look-ahead"), built once before the windows — each solve here
/// reads a clone, so both sides build theirs — and what remains is the
/// windows' own sweeps, one per start, and the per-window set-up around them. The `visited(=)` columns are the nodes each side's
/// forward sweeps visited (`nodes_processed`), the `generated(=)` columns the
/// candidates considered at them (`paths_generated`), the `held(=)` columns
/// the subpaths held at the peak (`peak_resident_paths`; a handful, where
/// the optimistic bound held thousands): byte-exact, so a loosened bound, a
/// floor that stopped cutting or marks that stopped sparing trip the gate as
/// a count, whatever the runner's clock does.
pub fn table3_sharded(scale: Scale, shards: usize) -> Table {
    let n = scale.pick(800, 2_000);
    let (m, d, g, k) = (12usize, 5u32, 1u32, 5usize);
    let graph = cluster_graph(m, n, d, g, SEED);
    let mut table = Table::new(
        format!("Table 3 sharding: unsharded BFS vs ShardedSolver (shards={shards})"),
        &[
            "workload",
            "BFS(s)",
            "sharded@1(s)",
            "sharded@1/BFS(x)",
            &format!("sharded@{shards}(s)"),
            "ratio",
            "shard ranges",
            "BFS visited(=)",
            "windows visited(=)",
            "BFS generated(=)",
            "windows generated(=)",
            "BFS held(=)",
            "windows held(=)",
        ],
    );
    let ratio = |time: Duration, base: Duration| {
        format!("{:.2}x", time.as_secs_f64() / base.as_secs_f64().max(1e-9))
    };
    let mut counted = Vec::new();
    for l in [3u32, 6] {
        let spec = StableClusterSpec::ExactLength(l);
        let mut unsharded = AlgorithmKind::Bfs
            .build(spec, k, graph.num_intervals())
            .expect("bfs supports exact lengths");
        // Every solve reads a clone: cold, its look-ahead table built.
        let cold = graph.clone();
        let (base, base_time) = timed(|| unsharded.solve(&cold).expect("unsharded solve"));
        // Built directly: `build_with_options` only wraps for shards > 1.
        let sharded = |shards: usize| {
            let options = SolverOptions::default().shards(shards);
            let mut solver =
                ShardedSolver::new(AlgorithmKind::Bfs, spec, k, options).expect("sharded build");
            let cold = graph.clone();
            let (merged, time) = timed(|| solver.solve(&cold).expect("sharded solve"));
            assert_paths_identical(
                &base.paths,
                &merged.paths,
                &format!("shards={shards} l={l}"),
            );
            (merged, time)
        };
        let (serial, serial_time) = sharded(1);
        let (merged, sharded_time) = sharded(shards);
        // Untimed: the same windows each by its own floor, as a delta solve
        // runs them. The graph's floor only takes work away.
        let options = SolverOptions::default();
        let alone = solve_windows(&graph.clone(), spec, k, AlgorithmKind::Bfs, &options, None)
            .expect("windows solved alone")
            .solution
            .stats;
        let visited = (serial.stats.nodes_processed, alone.nodes_processed);
        let generated = (base.stats.paths_generated, serial.stats.paths_generated);
        assert!(
            visited.0 <= visited.1 && generated.1 <= alone.paths_generated,
            "l={l}: the windows by the graph's floor visited {} nodes and considered {} \
             candidates, solved alone {} and {}",
            visited.0,
            generated.1,
            visited.1,
            alone.paths_generated
        );
        table.push_row(vec![
            format!("subpaths l={l}"),
            seconds(base_time),
            seconds(serial_time),
            ratio(serial_time, base_time),
            seconds(sharded_time),
            ratio(sharded_time, base_time),
            merged.stats.shards.to_string(),
            base.stats.nodes_processed.to_string(),
            serial.stats.nodes_processed.to_string(),
            generated.0.to_string(),
            generated.1.to_string(),
            base.stats.peak_resident_paths.to_string(),
            serial.stats.peak_resident_paths.to_string(),
        ]);
        counted.push(format!(
            "l = {l}: the whole-graph sweep visited {} of {} nodes and considered {} candidates, its {} windows {} of {} and {} (solved alone, each by its own floor: {} and {})",
            base.stats.nodes_processed,
            graph.num_nodes(),
            generated.0,
            serial.stats.windows_resolved,
            serial.stats.nodes_processed,
            (u64::from(l) + 1) * serial.stats.windows_resolved * u64::from(n),
            generated.1,
            alone.nodes_processed,
            alone.paths_generated,
        ));
    }
    table.push_note(format!(
        "m = {m}, n = {n}, d = {d}, g = {g}, k = {k}; byte-identical top-k verified before timing"
    ));
    table.push_note(format!(
        "sharded@1/BFS(x) reads the backward pass paid per window: every batch sweep, whole graph or window, knows the best completion of each subpath and its k-th answer's floor before its first interval, visits only the nodes a prefix of a near-answer can reach (visited(=), generated(=): {}) and holds those prefixes (held(=), peak_resident_paths: the largest window's); every window prunes by the graph's floor, the k-th best start of the whole graph — sound for the merged top-k, which is all a sharded solve answers — and a window none of whose starts reaches it is never swept, so the windows visit no more than windows solved alone, each by its own lower floor, would (the counts in brackets); the windows read the graph's completion table, one pass over its edges built before them (each edge once, with the lengths of every window it lies in; both sides solve a clone and build theirs), where each of the l + 1 windows a node appears in used to build its own; what the ratio has left is the swept windows' own sweeps and the per-window set-up; sharding buys independent shards (own threads, own storage backends), not single-core speed",
        counted.join("; ")
    ));
    table
}

/// The distributed fan-out ablation: in-process sharded solving vs the same
/// windows fanned out to `workers` TCP cluster workers. The workers here are
/// in-process [`WorkerServer`] threads on 127.0.0.1 ephemeral ports — same
/// host, same cores — so the column measures the *wire overhead* of the
/// coordinator (framing, codecs, graph install, per-window RPCs), not a
/// multi-machine speedup: each row solves a clone of the graph, which the
/// workers have not been shipped. Byte-identical top-k is verified before any
/// timing is reported. `workers` comes from `repro --distributed <n>`
/// (default 2).
pub fn table3_distributed(scale: Scale, workers: usize) -> Table {
    let n = scale.pick(800, 2_000);
    let (m, d, g, k) = (12usize, 5u32, 1u32, 5usize);
    let graph = cluster_graph(m, n, d, g, SEED);
    bsc_cluster::install_transport();
    let fleet: Vec<_> = (0..workers)
        .map(|_| {
            WorkerServer::bind("127.0.0.1:0", WorkerConfig::default())
                .expect("bind bench worker")
                .spawn()
        })
        .collect();
    let fanout = FanoutSpec::new(fleet.iter().map(|h| h.addr().to_string()).collect())
        .expect("nonempty worker fleet");
    let mut table = Table::new(
        format!(
            "Table 3 distribution: ShardedSolver vs DistributedSolver (dist_workers={workers})"
        ),
        &[
            "workload",
            &format!("sharded@{workers}(s)"),
            &format!("distributed@{workers}(s)"),
            "wire overhead",
            "fan-out windows",
        ],
    );
    for l in [3u32, 6] {
        let spec = StableClusterSpec::ExactLength(l);
        let mut sharded = AlgorithmKind::Bfs
            .build_with_options(
                spec,
                k,
                graph.num_intervals(),
                SolverOptions::default().shards(workers),
            )
            .expect("sharded build");
        let (base, sharded_time) = timed(|| sharded.solve(&graph).expect("sharded solve"));
        let mut distributed = AlgorithmKind::Bfs
            .build_with_options(
                spec,
                k,
                graph.num_intervals(),
                SolverOptions::default().fanout(Some(fanout.clone())),
            )
            .expect("distributed build");
        // A clone is a graph value of its own, so every row ships it.
        let shipped = graph.clone();
        let (merged, dist_time) = timed(|| distributed.solve(&shipped).expect("distributed solve"));
        assert_paths_identical(
            &base.paths,
            &merged.paths,
            &format!("dist_workers={workers} l={l}"),
        );
        table.push_row(vec![
            format!("subpaths l={l}"),
            seconds(sharded_time),
            seconds(dist_time),
            format!(
                "{:.2}x",
                dist_time.as_secs_f64() / sharded_time.as_secs_f64().max(1e-9)
            ),
            merged.stats.shards.to_string(),
        ]);
    }
    table.push_note(format!(
        "m = {m}, n = {n}, d = {d}, g = {g}, k = {k}; byte-identical top-k verified before timing"
    ));
    table.push_note(
        "workers are in-process TCP servers on 127.0.0.1 ephemeral ports (same host, same \
         cores): the column isolates wire-protocol overhead, not multi-machine scaling",
    );
    table
}

/// Table 3 deadline ablation: the cost of cooperative cancellation on the
/// unchanged solve path. The identical BFS query runs with no deadline and
/// with a deadline 24 hours out — every checkpoint is paid, none ever
/// fires — so the overhead column isolates the amortized cancellation-poll
/// cost, which the checkpoint interval keeps under 2%. Byte-identical
/// top-k is verified on every round before timing; each cell is the
/// fastest of five interleaved rounds (min, not median — the poll cost is
/// a constant, noise is additive).
pub fn table3_deadline(scale: Scale) -> Table {
    let n = scale.pick(2_000, 4_000);
    let (m, d, g, k) = (12usize, 5u32, 1u32, 5usize);
    let graph = cluster_graph(m, n, d, g, SEED);
    let far_future = Some(Duration::from_secs(24 * 3600));
    let mut table = Table::new(
        "Table 3 deadline: BFS vs BFS under a far-future deadline (checkpoint overhead)",
        &["workload", "BFS(s)", "BFS+deadline(s)", "overhead"],
    );
    let workloads = [
        (
            format!("full paths (l={})", m - 1),
            StableClusterSpec::FullPaths,
        ),
        (
            "subpaths l=6".to_string(),
            StableClusterSpec::ExactLength(6),
        ),
    ];
    for (label, spec) in workloads {
        let solve = |options: SolverOptions| {
            let mut solver = AlgorithmKind::Bfs
                .build_with_options(spec, k, graph.num_intervals(), options)
                .expect("bfs build");
            let cold = graph.clone();
            timed(|| solver.solve(&cold).expect("bfs solve"))
        };
        let mut plain_best = Duration::MAX;
        let mut deadline_best = Duration::MAX;
        for _ in 0..5 {
            let (plain, plain_time) = solve(SolverOptions::default());
            let (deadlined, deadline_time) = solve(SolverOptions::default().deadline(far_future));
            assert_paths_identical(&plain.paths, &deadlined.paths, &label);
            plain_best = plain_best.min(plain_time);
            deadline_best = deadline_best.min(deadline_time);
        }
        table.push_row(vec![
            label,
            seconds(plain_best),
            seconds(deadline_best),
            format!(
                "{:.2}x",
                deadline_best.as_secs_f64() / plain_best.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    table.push_note(format!(
        "m = {m}, n = {n}, d = {d}, g = {g}, k = {k}; byte-identical top-k verified every round"
    ));
    table.push_note(
        "the deadline is 24 h out: every checkpoint is paid, none fires — the overhead column \
         is the amortized cancellation-poll cost on the unchanged solve path (<2% by design)",
    );
    table
}

fn assert_paths_equal(a: &[ClusterPath], b: &[ClusterPath], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: result counts differ");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.nodes(), y.nodes(), "{context}: node sequences differ");
        assert!(
            (x.weight() - y.weight()).abs() < 1e-12,
            "{context}: weights differ"
        );
    }
}

/// The strict variant: identical node sequences *and* bitwise-identical
/// weights. This is the storage acceptance criterion — swapping the backend
/// must not change a single bit of the answer.
fn assert_paths_identical(a: &[ClusterPath], b: &[ClusterPath], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: result counts differ");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.nodes(), y.nodes(), "{context}: node sequences differ");
        assert_eq!(
            x.weight().to_bits(),
            y.weight().to_bits(),
            "{context}: weights must be byte-identical"
        );
    }
}

/// Table 2-style I/O report: logical I/O of DFS, the disk-resident solver,
/// one row per storage backend, constructed through the unified
/// [`AlgorithmKind::build_with_options`] seam. The results are verified
/// byte-identical across backends before the table is emitted — the backend
/// choice only moves I/O around, it never changes the answer. BFS keeps no
/// per-node state in storage, so it has no row.
pub fn table2_io(scale: Scale, backends: &[StorageSpec]) -> Table {
    let m = scale.pick(6, 9);
    let n = scale.pick(60, 150);
    let (d, g, k) = (4u32, 1u32, 5usize);
    let graph = cluster_graph(m, n, d, g, SEED);
    let mut table = Table::new(
        "Table 2-style: solver I/O per storage backend",
        &[
            "algorithm",
            "backend",
            "reads",
            "writes",
            "seeks",
            "evictions",
            "MB",
            "time(s)",
            "paths",
        ],
    );
    let kind = AlgorithmKind::Dfs;
    let mut reference: Option<Vec<ClusterPath>> = None;
    for &spec in backends {
        let options = SolverOptions::default().storage(spec);
        let mut solver = kind
            .build_with_options(StableClusterSpec::FullPaths, k, m, options)
            .expect("supported combination");
        let (solution, duration) = timed(|| solver.solve(&graph).expect("solver run"));
        let io = solution.io;
        match &reference {
            None => reference = Some(solution.paths.clone()),
            Some(expected) => {
                assert_paths_identical(expected, &solution.paths, &format!("{kind}/{spec}"));
            }
        }
        table.push_row(vec![
            kind.name().to_string(),
            spec.to_string(),
            io.read_ops.to_string(),
            io.write_ops.to_string(),
            io.seek_ops.to_string(),
            io.evictions.to_string(),
            mib(io.total_bytes()),
            seconds(duration),
            solution.paths.len().to_string(),
        ]);
    }
    table.push_note(format!(
        "m = {m}, n = {n}, d = {d}, g = {g}, top-{k} full paths; identical results verified across backends"
    ));
    table.push_note(
        "BFS keeps no per-node state in storage: its rows are the prefixes of near-answers, held in memory, so it has no row here",
    );
    table.push_note(
        "memory does no real I/O; logfile pays one seek+read per get; blockcache trades budgeted cache bytes for fewer reads (evictions show the pressure)",
    );
    table
}

/// Figure 7: BFS, top-5 full paths, varying the gap g (n, d fixed).
pub fn fig7(scale: Scale) -> Table {
    let n = scale.pick(300, 1_000);
    let ms: Vec<usize> = scale.pick(vec![5, 10, 15], vec![5, 10, 15, 20, 25]);
    sweep_bfs_full(
        "Figure 7: BFS time vs m for gap g in {0,1,2}",
        &ms,
        n,
        5,
        &[0, 1, 2],
        |g| format!("g={g}"),
    )
}

/// Figure 8: BFS, top-5 full paths, varying the average out-degree d.
pub fn fig8(scale: Scale) -> Table {
    let n = scale.pick(300, 1_000);
    let ms: Vec<usize> = scale.pick(vec![5, 10, 15], vec![5, 10, 15, 20, 25]);
    let mut table = Table::new(
        "Figure 8: BFS time vs m for out-degree d in {3,5,7} (g=2)",
        &["m", "d=3", "d=5", "d=7"],
    );
    for &m in &ms {
        let mut row = vec![m.to_string()];
        for d in [3, 5, 7] {
            let graph = cluster_graph(m, n, d, 2, SEED);
            let (_, t) = timed_solve(AlgorithmKind::Bfs, StableClusterSpec::FullPaths, 5, &graph);
            row.push(seconds(t));
        }
        table.push_row(row);
    }
    table.push_note(format!(
        "n = {n}; time grows with d because the edge count grows"
    ));
    table
}

fn sweep_bfs_full(
    title: &str,
    ms: &[usize],
    n: u32,
    d: u32,
    gaps: &[u32],
    label: impl Fn(u32) -> String,
) -> Table {
    let headers: Vec<String> = std::iter::once("m".to_string())
        .chain(gaps.iter().map(|&g| label(g)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    for &m in ms {
        let mut row = vec![m.to_string()];
        for &g in gaps {
            let graph = cluster_graph(m, n, d, g, SEED);
            let (_, t) = timed_solve(AlgorithmKind::Bfs, StableClusterSpec::FullPaths, 5, &graph);
            row.push(seconds(t));
        }
        table.push_row(row);
    }
    table.push_note(format!("n = {n}, d = {d}, top-5 full paths"));
    table
}

/// Figure 9: BFS scalability in the number of nodes per interval.
pub fn fig9(scale: Scale) -> Table {
    let ns: Vec<u32> = scale.pick(
        vec![1_000, 2_000, 4_000],
        vec![2_000, 6_000, 10_000, 14_000],
    );
    let ms: Vec<usize> = scale.pick(vec![10, 20], vec![25, 50]);
    let mut table = Table::new(
        "Figure 9: BFS time vs nodes per interval (d=5, g=1, top-5 full paths)",
        &["n", &format!("m={}", ms[0]), &format!("m={}", ms[1])],
    );
    for &n in &ns {
        let mut row = vec![n.to_string()];
        for &m in &ms {
            let graph = cluster_graph(m, n, 5, 1, SEED);
            let (_, t) = timed_solve(AlgorithmKind::Bfs, StableClusterSpec::FullPaths, 5, &graph);
            row.push(seconds(t));
        }
        table.push_row(row);
    }
    table.push_note("running time is linear in n (paper: establishes scalability)");
    table
}

/// Figure 10: BFS seeking top-5 subpaths of length l over m = 15 intervals.
pub fn fig10(scale: Scale) -> Table {
    let ns: Vec<u32> = scale.pick(vec![200, 600, 1_000], vec![500, 1_000, 1_500, 2_000, 2_500]);
    let ls: Vec<u32> = scale.pick(vec![2, 4], vec![2, 4, 6]);
    let m = 15;
    let headers: Vec<String> = std::iter::once("n".to_string())
        .chain(ls.iter().map(|l| format!("l={l}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 10: BFS time vs n for subpath lengths l (m=15, d=5, g=2)",
        &header_refs,
    );
    for &n in &ns {
        let graph = cluster_graph(m, n, 5, 2, SEED);
        let mut row = vec![n.to_string()];
        for &l in &ls {
            let (_, t) = timed_solve(
                AlgorithmKind::Bfs,
                StableClusterSpec::ExactLength(l),
                5,
                &graph,
            );
            row.push(seconds(t));
        }
        table.push_row(row);
    }
    table.push_note("larger l means more per-node heaps, hence higher times; linear in n");
    table
}

/// Figure 11: DFS, top-5 full paths, for different m and n (g=1, d=5).
pub fn fig11(scale: Scale) -> Table {
    let ns: Vec<u32> = scale.pick(vec![100, 200], vec![200, 400]);
    let ms: Vec<usize> = scale.pick(vec![3, 5, 7], vec![3, 6, 9, 12]);
    let headers: Vec<String> = std::iter::once("m".to_string())
        .chain(ns.iter().map(|n| format!("n={n}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 11: DFS time vs m for different n (g=1, d=5, top-5 full paths)",
        &header_refs,
    );
    for &m in &ms {
        let mut row = vec![m.to_string()];
        for &n in &ns {
            let graph = cluster_graph(m, n, 5, 1, SEED);
            let (_, t) = timed_solve(AlgorithmKind::Dfs, StableClusterSpec::FullPaths, 5, &graph);
            row.push(seconds(t));
        }
        table.push_row(row);
    }
    table.push_note("per-node state on disk: DFS trades running time for a small memory footprint");
    table
}

/// Figure 12: DFS sensitivity to the average out-degree for g in {0,1,2}
/// (m=6, n fixed).
pub fn fig12(scale: Scale) -> Table {
    let n = scale.pick(150, 400);
    let ds: Vec<u32> = scale.pick(vec![2, 4, 6], vec![2, 4, 6, 8]);
    let m = 6;
    let mut table = Table::new(
        "Figure 12: DFS time vs out-degree d for gap g in {0,1,2} (m=6)",
        &["d", "g=0", "g=1", "g=2"],
    );
    for &d in &ds {
        let mut row = vec![d.to_string()];
        for g in [0, 1, 2] {
            let graph = cluster_graph(m, n, d, g, SEED);
            let (_, t) = timed_solve(AlgorithmKind::Dfs, StableClusterSpec::FullPaths, 5, &graph);
            row.push(seconds(t));
        }
        table.push_row(row);
    }
    table.push_note(format!(
        "n = {n}; DFS is more sensitive to g than BFS (compare Figure 7)"
    ));
    table
}

/// Figure 13: DFS seeking top-5 subpaths of length l (m=6, d=5, g=1).
pub fn fig13(scale: Scale) -> Table {
    let ns: Vec<u32> = scale.pick(vec![50, 100, 150], vec![100, 200, 300, 400]);
    let ls: Vec<u32> = scale.pick(vec![2, 3], vec![2, 3, 4]);
    let m = 6;
    let headers: Vec<String> = std::iter::once("n".to_string())
        .chain(ls.iter().map(|l| format!("l={l}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 13: DFS time vs n for subpath lengths l (m=6, d=5, g=1)",
        &header_refs,
    );
    for &n in &ns {
        let graph = cluster_graph(m, n, 5, 1, SEED);
        let mut row = vec![n.to_string()];
        for &l in &ls {
            let (_, t) = timed_solve(
                AlgorithmKind::Dfs,
                StableClusterSpec::ExactLength(l),
                5,
                &graph,
            );
            row.push(seconds(t));
        }
        table.push_row(row);
    }
    table.push_note("running times increase with l and n");
    table
}

/// Figure 14: BFS-framework normalized stable clusters vs m for different
/// l_min (n, d=3, g=0).
pub fn fig14(scale: Scale) -> Table {
    let n = scale.pick(150, 400);
    let ms: Vec<usize> = scale.pick(vec![4, 6, 8], vec![4, 6, 8, 10, 12]);
    let lmins: Vec<u32> = vec![2, 3];
    let headers: Vec<String> = std::iter::once("m".to_string())
        .chain(lmins.iter().map(|l| format!("lmin={l}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 14: normalized stable clusters time vs m for lmin (n, d=3, g=0)",
        &header_refs,
    );
    for &m in &ms {
        let graph = cluster_graph(m, n, 3, 0, SEED);
        let mut row = vec![m.to_string()];
        for &lmin in &lmins {
            let (_, t) = timed_solve(
                AlgorithmKind::Normalized,
                StableClusterSpec::Normalized { l_min: lmin },
                5,
                &graph,
            );
            row.push(seconds(t));
        }
        table.push_row(row);
    }
    table.push_note(format!(
        "n = {n}; paths of all lengths are maintained, so time grows with m and lmin"
    ));
    table
}

/// Qualitative experiment (Figures 1, 2, 4, 15, 16 and Section 5.3): run the
/// full pipeline over the scripted January-2007 week and report per-day
/// cluster counts, the number of full-week stable paths, and the scripted
/// events recovered.
pub fn quali(scale: Scale) -> Vec<Table> {
    let posts = scale.pick(600, 2_000);
    let corpus = scripted_week(posts, SEED);

    // Per-day clusters + full-week stable clusters (Jaccard, theta = 0.1).
    // At this reduced corpus scale a minimum co-occurrence count is added on
    // top of the paper's chi^2/rho thresholds: with only hundreds of posts
    // per day (instead of >200k) a chance double co-occurrence of two rare
    // words already passes rho > 0.2, which never happens at the paper's
    // scale. Requiring a handful of co-occurrences restores the same
    // behaviour (see EXPERIMENTS.md).
    let params = PipelineParams {
        gap: 2,
        k: 50,
        spec: StableClusterSpec::FullPaths,
        prune: PruneConfig::paper().with_min_pair_count(scale.pick(3, 4)),
        ..PipelineParams::default()
    };
    let outcome = Pipeline::new(params)
        .expect("valid pipeline parameters")
        .run(&corpus)
        .expect("pipeline");

    let mut summary = Table::new(
        "Section 5.3: per-day clusters and stable clusters over the scripted week",
        &["Day", "clusters", "largest cluster", "graph edges kept"],
    );
    for (i, clusters) in outcome.interval_clusters.iter().enumerate() {
        let largest = clusters.iter().map(|c| c.len()).max().unwrap_or(0);
        summary.push_row(vec![
            corpus.timeline.label(IntervalId(i as u32)).to_string(),
            clusters.len().to_string(),
            largest.to_string(),
            outcome.prune_stats[i].surviving_edges.to_string(),
        ]);
    }
    summary.push_note(format!(
        "full-week (length-6) stable paths found: {}",
        outcome.stable_paths.len()
    ));
    summary.push_note("paper: 1100-1500 clusters/day and 42 full-week paths on the real crawl");

    // Event recovery table (Figures 1, 2, 4, 15, 16).
    let mut events = Table::new(
        "Figures 1/2/4/15/16: scripted events recovered as clusters",
        &["Event", "Day", "cluster keywords (subset)"],
    );
    let probes: &[(&str, u32, &[&str])] = &[
        ("stem-cell (Fig 1)", 2, &["stem", "cell", "amniot"]),
        ("beckham-mls (Fig 2)", 6, &["beckham", "mls", "galaxi"]),
        ("fa-cup (Fig 4, day 1)", 0, &["liverpool", "arsenal"]),
        ("fa-cup (Fig 4, after gap)", 3, &["liverpool", "arsenal"]),
        ("iphone launch (Fig 15)", 3, &["iphon", "appl"]),
        (
            "iphone/cisco drift (Fig 15)",
            5,
            &["iphon", "cisco", "lawsuit"],
        ),
        ("somalia (Fig 16)", 0, &["somalia", "islamist"]),
        ("somalia (Fig 16)", 6, &["somalia", "islamist"]),
    ];
    for (name, day, keywords) in probes {
        let ids: Vec<_> = keywords
            .iter()
            .filter_map(|k| corpus.vocabulary.get(k))
            .collect();
        let found = outcome.interval_clusters[*day as usize]
            .iter()
            .find(|c| ids.iter().all(|id| c.contains(*id)));
        let rendered = match found {
            Some(cluster) => {
                let mut text = cluster.render(&corpus.vocabulary);
                if text.len() > 60 {
                    text.truncate(57);
                    text.push_str("...");
                }
                text
            }
            None => "NOT FOUND".to_string(),
        };
        events.push_row(vec![name.to_string(), format!("Jan {}", 6 + day), rendered]);
    }

    // Stable paths with gaps and topic drift.
    let mut stable = Table::new(
        "Stable clusters: gap (Fig 4), drift (Fig 15) and full-week (Fig 16) paths",
        &["Probe", "found", "detail"],
    );
    let gap_result = probe_stable_path(&corpus, &outcome, &["liverpool", "arsenal"], 2);
    stable.push_row(vec![
        "FA-cup path with gap (>= 2 days apart)".to_string(),
        gap_result.is_some().to_string(),
        gap_result.unwrap_or_default(),
    ]);
    let drift = probe_drift(&corpus, &outcome);
    stable.push_row(vec![
        "iPhone -> Cisco lawsuit drift".to_string(),
        drift.is_some().to_string(),
        drift.unwrap_or_default(),
    ]);
    let somalia = probe_stable_path(&corpus, &outcome, &["somalia"], 6);
    stable.push_row(vec![
        "Somalia full-week path (length 6)".to_string(),
        somalia.is_some().to_string(),
        somalia.unwrap_or_default(),
    ]);

    vec![summary, events, stable]
}

/// Find a stable path of at least `min_length` whose clusters all contain the
/// given keywords; returns a short description.
fn probe_stable_path(
    corpus: &bsc_corpus::synthetic::GeneratedCorpus,
    outcome: &bsc_core::pipeline::PipelineOutcome,
    keywords: &[&str],
    min_length: u32,
) -> Option<String> {
    let ids: Vec<_> = keywords
        .iter()
        .filter_map(|k| corpus.vocabulary.get(k))
        .collect();
    if ids.len() != keywords.len() {
        return None;
    }
    // Search all lengths, not only the configured spec, using the BFS solver
    // over the already-built cluster graph.
    for l in (min_length..=(outcome.cluster_graph.num_intervals() as u32 - 1)).rev() {
        let paths = BfsStableClusters::new(KlStableParams::new(200, l))
            .run(&outcome.cluster_graph)
            .ok()?;
        for path in paths {
            let all_match = path.nodes().iter().all(|node| {
                let cluster = outcome.cluster_at(*node);
                ids.iter().all(|id| cluster.contains(*id))
            });
            if all_match {
                let days: Vec<String> = path
                    .nodes()
                    .iter()
                    .map(|n| format!("Jan {}", 6 + n.interval))
                    .collect();
                return Some(format!(
                    "length {} across {}",
                    path.length(),
                    days.join(", ")
                ));
            }
        }
    }
    None
}

/// Look for the Figure 15 drift: a stable path whose early clusters contain
/// the launch keywords and whose late clusters contain the lawsuit keywords.
fn probe_drift(
    corpus: &bsc_corpus::synthetic::GeneratedCorpus,
    outcome: &bsc_core::pipeline::PipelineOutcome,
) -> Option<String> {
    let iphon = corpus.vocabulary.get("iphon")?;
    let macworld = corpus.vocabulary.get("macworld")?;
    let lawsuit = corpus.vocabulary.get("lawsuit")?;
    for l in (2..=(outcome.cluster_graph.num_intervals() as u32 - 1)).rev() {
        let paths = BfsStableClusters::new(KlStableParams::new(200, l))
            .run(&outcome.cluster_graph)
            .ok()?;
        for path in paths {
            let clusters: Vec<_> = path
                .nodes()
                .iter()
                .map(|n| outcome.cluster_at(*n))
                .collect();
            let all_iphone = clusters.iter().all(|c| c.contains(iphon));
            let starts_with_launch = clusters.first().is_some_and(|c| c.contains(macworld));
            let ends_with_lawsuit = clusters.last().is_some_and(|c| c.contains(lawsuit));
            if all_iphone && starts_with_launch && ends_with_lawsuit {
                return Some(format!(
                    "length {} path: launch keywords on Jan {}, lawsuit keywords by Jan {}",
                    path.length(),
                    6 + path.first().interval,
                    6 + path.last().interval
                ));
            }
        }
    }
    None
}

/// Related-work comparison: articulation-point clustering vs cut clustering,
/// CC-Pivot and k-way partitioning on one pruned keyword graph.
pub fn baselines(scale: Scale) -> Table {
    let posts = scale.pick(1_500, 6_000);
    let vocab = scale.pick(1_500, 5_000);
    let corpus = single_day(posts, vocab, SEED);
    let counts = PairCounter::in_memory()
        .count(corpus.timeline.documents(IntervalId(0)))
        .expect("pair counting");
    let graph = KeywordGraphBuilder::from_pair_counts(&counts);
    // Keep more edges than the default so the baselines have work to do.
    let (pruned, _) = PruneConfig::paper().with_rho(0.05).prune(&graph);
    let csr = CsrGraph::from_pruned(&pruned);

    let mut table = Table::new(
        "Related work: articulation-point clusters vs baseline graph clusterings",
        &["algorithm", "time(s)", "clusters", "notes"],
    );
    let (clusters, t) = timed(|| {
        ClusterExtractor::default()
            .extract(&pruned, IntervalId(0))
            .expect("extract")
    });
    table.push_row(vec![
        "biconnected components (paper)".into(),
        seconds(t),
        clusters.len().to_string(),
        "linear-time DFS".into(),
    ]);
    let (cc, t) = timed(|| cc_pivot(&SignedGraph::from_pruned(&pruned), SEED));
    table.push_row(vec![
        "correlation clustering (CC-Pivot)".into(),
        seconds(t),
        cc.len().to_string(),
        "3-approx, needs binary labels".into(),
    ]);
    let (parts, t) = timed(|| kway_partition(&csr, KwayParams::default()));
    table.push_row(vec![
        "k-way partitioning (recursive bisection)".into(),
        seconds(t),
        parts.len().to_string(),
        "k fixed in advance, balanced parts".into(),
    ]);
    let (cut, t) = timed(|| cut_clustering(&csr, CutClusteringParams::default()));
    table.push_row(vec![
        "cut clustering (Flake et al.)".into(),
        seconds(t),
        cut.len().to_string(),
        "one max-flow per cluster seed".into(),
    ]);
    table.push_note(format!(
        "pruned keyword graph: {} vertices, {} edges",
        csr.num_nodes(),
        csr.num_edges()
    ));
    table.push_note("paper: the flow-based method needed six hours on a few thousand edges; expect it to be orders of magnitude slower than the biconnected-component heuristic");
    table
}

/// Streaming ablation (Section 4.6): batch BFS recomputation from scratch at
/// every new interval vs the online solver, both answering after every
/// interval. The online side solves only the start window an arrival added
/// and merges it with its last answer (`streaming.rs` module docs); its
/// `windows_resolved(=)` / `windows_spliced(=)` cells count, over the whole
/// stream, the windows solved and the older starts the last answer stood
/// for.
pub fn streaming_ablation(scale: Scale) -> Table {
    use bsc_core::streaming::OnlineStableClusters;
    let n = scale.pick(200, 1_000);
    let m = scale.pick(12, 25);
    let graph = cluster_graph(m, n, 5, 1, SEED);
    let params = KlStableParams::new(5, 3);

    let mut table = Table::new(
        "Section 4.6: streaming (online) vs batch recomputation per arriving interval",
        &[
            "strategy",
            "total time(s)",
            "result paths",
            "windows_resolved(=)",
            "windows_spliced(=)",
        ],
    );

    // Batch: rebuild the prefix graph and re-run BFS after every interval.
    let (batch_paths, batch_time) = timed(|| {
        let mut last = Vec::new();
        for upto in 2..=m {
            let mut builder = ClusterGraphBuilder::new(graph.gap());
            for interval in 0..upto {
                builder.add_interval(graph.nodes_in_interval(interval as u32));
            }
            for (from, to, w) in graph.edges() {
                if (to.interval as usize) < upto {
                    builder.add_edge(from, to, w);
                }
            }
            let prefix = builder.build();
            last = BfsStableClusters::new(params).run(&prefix).unwrap();
        }
        last
    });
    table.push_row(vec![
        "batch re-run per interval".into(),
        seconds(batch_time),
        batch_paths.len().to_string(),
        "-".into(),
        "-".into(),
    ]);

    // Online: one push and one answer per interval, with the per-interval
    // latency distribution recorded in the shared fixed-bucket histogram
    // (the same helper the query engine's stats endpoint reports from).
    let mut ingest = bsc_util::LatencyHistogram::new();
    let ((online_paths, online_stats), online_time) = timed(|| {
        let mut online = OnlineStableClusters::new(params, graph.gap());
        let mut answer = Vec::new();
        for interval in 0..graph.num_intervals() as u32 {
            let parent_edges = graph.interval_parent_edges(interval);
            let (_, push_time) = timed(|| {
                online.push_interval(parent_edges);
                answer = online.current_top_k().expect("stream answer");
            });
            ingest.record(push_time);
        }
        (answer, online.stats())
    });
    assert_eq!(
        online_paths, batch_paths,
        "the stream's answer diverged from batch BFS"
    );
    table.push_row(vec![
        "online incremental".into(),
        seconds(online_time),
        online_paths.len().to_string(),
        online_stats.windows_resolved.to_string(),
        online_stats.windows_spliced.to_string(),
    ]);
    table.push_note(format!("m = {m}, n = {n}, d = 5, g = 1, k = 5, l = 3; identical results, incremental avoids re-processing old intervals"));
    table.push_note(format!(
        "both sides answer after every interval: the batch side re-reads its whole prefix graph, the online side solves the one start window an arrival adds and merges it with its last answer, which stands for every older one ({} solved, {} carried over the {m} intervals); batch / online = {:.1}x here, more the longer the stream",
        online_stats.windows_resolved,
        online_stats.windows_spliced,
        batch_time.as_secs_f64() / online_time.as_secs_f64().max(1e-9),
    ));
    table.push_note(format!(
        "online per-interval push + answer latency: {}",
        ingest.summary()
    ));
    table
}

/// Stable digest of a top-k result: FNV-1a over node ids and weight bits.
/// Solutions are byte-identical across machines (the workspace determinism
/// invariant), so this renders as a `(=)` gate cell — any digest drift
/// means the solver changed its answer, not its speed.
fn paths_digest(paths: &[ClusterPath]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |hash: &mut u64, value: u64| {
        for byte in value.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for path in paths {
        for node in path.nodes() {
            mix(&mut hash, u64::from(node.interval));
            mix(&mut hash, u64::from(node.index));
        }
        mix(&mut hash, path.weight().to_bits());
    }
    format!("{hash:016x}")
}

/// The median of the `PUBLISH_BAND` samples ending at `end`.
fn band_median(samples: impl Iterator<Item = u64>, end: usize) -> u64 {
    let mut band: Vec<u64> = samples
        .skip(end - PUBLISH_BAND)
        .take(PUBLISH_BAND)
        .collect();
    band.sort_unstable();
    band[band.len() / 2]
}

/// How many intervals `streaming_publish` streams.
const PUBLISH_STREAM_INTERVALS: usize = 1_000;
/// How many pushes ending at a stream length its cells take the median of.
const PUBLISH_BAND: usize = 10;

/// What publishing one streamed interval costs, and whether that depends
/// on how long the stream already is (ISSUE 12). One stream of
/// `PUBLISH_STREAM_INTERVALS` intervals goes through the three steps a
/// `push_interval` request pays — `OnlineStableClusters::push_interval`,
/// `snapshot`, `SnapshotCell::install` — and every step of every
/// push is timed. Two tables: the quantiles of the whole publish over all
/// pushes (one sample per interval — enough of them that p50, p95 and p99
/// are different samples, each with ten beyond it), and the median step
/// costs of the `PUBLISH_BAND` pushes ending at a short and at the full
/// stream length. `shared_intervals(=)` counts the intervals whose in-edge
/// segment the published graph shares with the epoch it displaced: all but
/// the pushed one, or the publish was not O(delta). A third table,
/// `streaming_push_and_query`, streams the same graph into an engine.
fn streaming_publish(scale: Scale) -> Vec<Table> {
    use bsc_core::snapshot::SnapshotCell;
    use bsc_core::streaming::OnlineStableClusters;
    let n = scale.pick(200, 1_000);
    let short_m = scale.pick(12, 25);
    let graph = cluster_graph(PUBLISH_STREAM_INTERVALS, n, 5, 1, SEED);
    let mut online = OnlineStableClusters::new(KlStableParams::new(5, 3), graph.gap());
    let cell = SnapshotCell::empty();

    // Per push: [push, snapshot, install, all three] in microseconds.
    let mut steps: Vec<[u64; 4]> = Vec::with_capacity(PUBLISH_STREAM_INTERVALS);
    let mut shared: Vec<usize> = Vec::with_capacity(PUBLISH_STREAM_INTERVALS);
    for interval in 0..PUBLISH_STREAM_INTERVALS as u32 {
        let parent_edges = graph.interval_parent_edges(interval);
        let displaced = cell.load();
        let (_, push) = timed(|| online.push_interval(parent_edges));
        let (snapshot, snap) = timed(|| online.snapshot());
        let (installed, install) = timed(|| cell.install(snapshot));
        steps
            .push([push, snap, install, push + snap + install].map(|step| step.as_micros() as u64));
        shared.push(
            (0..=interval)
                .filter(|&i| installed.shares_in_edges(&displaced, i))
                .count(),
        );
    }
    let shape = format!("n = {n}, d = 5, g = 1, k = 5, l = 3");

    // Nearest-rank quantiles over the exact samples: the fixed-bucket
    // histogram reports a bucket bound, which a flat cost puts all three
    // quantiles on.
    let mut publish: Vec<u64> = steps.iter().map(|step| step[3]).collect();
    publish.sort_unstable();
    let quantile = |q: f64| publish[((q * publish.len() as f64).ceil() as usize).max(1) - 1];
    let mut latency = Table::new(
        "Streaming ingest latency per interval",
        &["quantile", "latency(us)"],
    );
    for (name, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        latency.push_row(vec![name.into(), quantile(q).to_string()]);
    }
    latency.push_note(format!(
        "push_interval + snapshot + install, one sample per interval of a \
         {PUBLISH_STREAM_INTERVALS}-interval stream ({shape}); nearest-rank quantiles, \
         {} samples beyond p99",
        publish.len() - (0.99 * publish.len() as f64).ceil() as usize
    ));

    let step_median = |end: usize, step: usize| band_median(steps.iter().map(|s| s[step]), end);
    let mut cost = Table::new(
        "Publish cost vs stream length",
        &[
            "stream length",
            "shared_intervals(=)",
            "push_interval(us)",
            "snapshot(us)",
            "install(us)",
            "publish(us)",
        ],
    );
    for m in [short_m, PUBLISH_STREAM_INTERVALS] {
        let mut row = vec![format!("{m} intervals"), shared[m - 1].to_string()];
        row.extend((0..4).map(|step| step_median(m, step).to_string()));
        cost.push_row(row);
    }
    cost.push_note(format!(
        "{shape}; each (us) cell is the median of the {PUBLISH_BAND} pushes ending at that \
         stream length; publish at {PUBLISH_STREAM_INTERVALS} intervals costs {:.2}x publish at \
         {short_m} — the appended graph shares every older interval with the epoch it displaces \
         (shared_intervals = m - 1), so snapshot and install do not grow with the stream",
        step_median(PUBLISH_STREAM_INTERVALS, 3) as f64 / step_median(short_m, 3).max(1) as f64
    ));
    let query = streaming_push_and_query(&graph, short_m, &shape);
    vec![latency, cost, query]
}

/// What a fed engine pays per streamed interval, and whether that depends on
/// how long the stream already is: one push (append, snapshot,
/// `install`) and the first-touch `bfs exact:3 k=5` query after
/// it, which merges the last epoch's cached answer with the one start window
/// the push added. `graph`'s intervals are streamed into one
/// engine `STREAMS` times over; the `(us)` cells are the median over the
/// streams of the `PUBLISH_BAND` pushes ending at `short_m` and at
/// `PUBLISH_STREAM_INTERVALS` intervals, the `(x)` cell the median over the
/// streams of the ratio of the two (so a machine that drifts over the run
/// moves both sides of each), and the `(=)` cells the query's counters at
/// that length: one window solved, every older start carried.
fn streaming_push_and_query(graph: &ClusterGraph, short_m: usize, shape: &str) -> Table {
    use bsc_core::streaming::OnlineStableClusters;
    use bsc_service::engine::{EngineConfig, QueryEngine, QueryRequest};
    const STREAMS: usize = 7;
    let params = KlStableParams::new(5, 3);
    let spec = StableClusterSpec::ExactLength(params.l);
    let request = QueryRequest::new(AlgorithmKind::Bfs, spec, params.k);
    let engine = QueryEngine::new(EngineConfig::default().workers(1)).expect("engine starts");
    let lengths = [short_m, PUBLISH_STREAM_INTERVALS];
    let mut samples = [Vec::new(), Vec::new()];
    let mut counted = [(0, 0); 2];
    let mut ratios = Vec::with_capacity(STREAMS);
    for _ in 0..STREAMS {
        let mut online = OnlineStableClusters::new(params, graph.gap());
        let mut micros = Vec::with_capacity(PUBLISH_STREAM_INTERVALS);
        for interval in 0..PUBLISH_STREAM_INTERVALS as u32 {
            let parent_edges = graph.interval_parent_edges(interval);
            let (response, took) = timed(|| {
                online.push_interval(parent_edges);
                engine.install(online.snapshot());
                engine.query(request.clone()).expect("fed query")
            });
            micros.push(took.as_micros() as u64);
            let stats = response.solution.stats;
            if let Some(side) = lengths.iter().position(|&m| m == interval as usize + 1) {
                counted[side] = (stats.windows_resolved, stats.windows_spliced);
            }
        }
        let [short, long] = lengths.map(|m| band_median(micros.iter().copied(), m));
        ratios.push(long as f64 / short.max(1) as f64);
        for (side, &m) in lengths.iter().enumerate() {
            samples[side].extend_from_slice(&micros[m - PUBLISH_BAND..m]);
        }
    }
    let medians = samples.map(|mut side| {
        side.sort_unstable();
        side[side.len() / 2]
    });
    ratios.sort_unstable_by(f64::total_cmp);
    let mut table = Table::new(
        "Push + query cost vs stream length",
        &[
            "stream length",
            "windows_resolved(=)",
            "windows_spliced(=)",
            "push + query(us)",
            "vs short stream(x)",
        ],
    );
    for side in 0..2 {
        table.push_row(vec![
            format!("{} intervals", lengths[side]),
            counted[side].0.to_string(),
            counted[side].1.to_string(),
            medians[side].to_string(),
            format!("{:.2}x", [1.0, ratios[STREAMS / 2]][side]),
        ]);
    }
    table.push_note(format!(
        "{shape}; one push (append + snapshot + install) and the bfs exact:{} \
         query after it, timed together; each (us) cell is the median of the {PUBLISH_BAND} \
         pushes ending at that stream length over {STREAMS} streams, the (x) cell the median \
         of the {STREAMS} streams' ratios. The query merges the \
         cached answer of the last epoch with the one window the push added, so neither step \
         grows with the stream",
        params.l
    ));
    table
}

/// Incremental epoch-delta ablation (ISSUE 10), after the publish-cost
/// tables of `streaming_publish`: a head-to-head of a cold windowed
/// re-solve against the delta solve that solves only the window the newest
/// interval adds and merges it with the prior epoch's answer
/// (`bsc_core::delta`). Self-verifying: the merged solution must be
/// byte-identical to the cold one before any timing is reported. The `(us)`
/// cells are latency-SLO gated, the `(=)` cells are the determinism
/// tripwire (windows resolved/spliced and the result digest are pure
/// functions of the scale).
pub fn streaming_delta(scale: Scale) -> Vec<Table> {
    use bsc_core::delta::GraphDelta;
    use bsc_core::streaming::OnlineStableClusters;
    let n = scale.pick(200, 1_000);
    let m = scale.pick(12, 25);
    // The stream ingests m intervals, then one more arrives.
    let graph = cluster_graph(m + 1, n, 5, 1, SEED);
    let params = KlStableParams::new(5, 3);
    let spec = StableClusterSpec::ExactLength(params.l);
    let options = SolverOptions::default();

    let mut online = OnlineStableClusters::new(params, graph.gap());
    for interval in 0..m as u32 {
        online.push_interval(graph.interval_parent_edges(interval));
    }
    let prior_snapshot = online.snapshot();
    let prior = solve_windows(
        prior_snapshot.graph(),
        spec,
        params.k,
        AlgorithmKind::Bfs,
        &options,
        None,
    )
    .expect("prior windowed solve");

    online.push_interval(graph.interval_parent_edges(m as u32));
    let new_snapshot = online.snapshot();
    let delta = GraphDelta::between(prior_snapshot.graph(), new_snapshot.graph());

    // On a clone, so the merge below finds no table kept for the new graph
    // and solves its window with a table of its own, as a stream's answer
    // does.
    let unkept = new_snapshot.graph().as_ref().clone();
    let (cold, cold_time) = timed(|| {
        solve_windows(&unkept, spec, params.k, AlgorithmKind::Bfs, &options, None)
            .expect("cold windowed solve")
    });
    let (merged, delta_time) = timed(|| {
        solve_windows(
            new_snapshot.graph(),
            spec,
            params.k,
            AlgorithmKind::Bfs,
            &options,
            Some((&prior.windows, &delta)),
        )
        .expect("delta solve")
    });
    assert_eq!(
        cold.windows.paths.len(),
        merged.windows.paths.len(),
        "delta solve diverged from the cold re-solve"
    );
    for (a, b) in cold.windows.paths.iter().zip(merged.windows.paths.iter()) {
        assert_eq!(a.nodes(), b.nodes(), "delta solve diverged from cold");
        assert_eq!(
            a.weight().to_bits(),
            b.weight().to_bits(),
            "delta solve diverged from cold"
        );
    }
    assert!(
        merged.solution.stats.windows_resolved < cold.solution.stats.windows_resolved,
        "the delta solve re-solved every window — the merge never engaged"
    );

    let mut table = Table::new(
        "Incremental delta solve vs cold windowed re-solve (1 new interval)",
        &[
            "strategy",
            "solve(us)",
            "windows_resolved(=)",
            "windows_spliced(=)",
            "result_digest(=)",
        ],
    );
    table.push_row(vec![
        "cold windowed re-solve".into(),
        cold_time.as_micros().to_string(),
        cold.solution.stats.windows_resolved.to_string(),
        cold.solution.stats.windows_spliced.to_string(),
        paths_digest(&cold.windows.paths),
    ]);
    table.push_row(vec![
        "merge from the last answer".into(),
        delta_time.as_micros().to_string(),
        merged.solution.stats.windows_resolved.to_string(),
        merged.solution.stats.windows_spliced.to_string(),
        paths_digest(&merged.windows.paths),
    ]);
    table.push_note(format!(
        "one appended interval adds {} of {} start windows; the last answer stands for \
         the rest, byte-identically (verified before timing)",
        merged.solution.stats.windows_resolved,
        merged.solution.stats.windows_resolved + merged.solution.stats.windows_spliced,
    ));
    let mut tables = streaming_publish(scale);
    tables.push(table);
    tables
}

/// All experiments in paper order.
pub fn all(scale: Scale) -> Vec<Table> {
    all_with_backends(scale, &StorageSpec::ALL, 3, 2)
}

/// All experiments, with the storage-backend comparison restricted to
/// `backends` (the repro binary's `--backend` flag), the sharding ablation
/// run at `shards` shards (`--shards`), and the distributed fan-out ablation
/// at `dist_workers` cluster workers (`--distributed`).
pub fn all_with_backends(
    scale: Scale,
    backends: &[StorageSpec],
    shards: usize,
    dist_workers: usize,
) -> Vec<Table> {
    let mut tables = vec![
        table1(scale),
        table2_io(scale, backends),
        fig6(scale),
        table3(scale),
        table3_ablation(scale),
        table3_sharded(scale, shards),
        table3_distributed(scale, dist_workers),
        table3_deadline(scale),
        fig7(scale),
        fig8(scale),
        fig9(scale),
        fig10(scale),
        fig11(scale),
        fig12(scale),
        fig13(scale),
        fig14(scale),
    ];
    tables.extend(quali(scale));
    tables.push(baselines(scale));
    tables.push(streaming_ablation(scale));
    tables.extend(streaming_delta(scale));
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny-scale smoke versions of each experiment, exercised by the unit
    /// test suite; the full Quick scale is exercised by the repro binary.
    #[test]
    fn table1_reports_two_days() {
        let table = table1(Scale::Quick);
        assert_eq!(table.num_rows(), 2);
    }

    #[test]
    fn fig6_time_decreases_with_rho() {
        let table = fig6(Scale::Quick);
        assert_eq!(table.num_rows(), 6);
        let first_edges: usize = table.cell(0, "surviving edges").unwrap().parse().unwrap();
        let last_edges: usize = table.cell(5, "surviving edges").unwrap().parse().unwrap();
        assert!(first_edges >= last_edges);
    }

    #[test]
    fn table2_io_covers_every_backend() {
        let table = table2_io(Scale::Quick, &StorageSpec::ALL);
        assert_eq!(table.num_rows(), StorageSpec::ALL.len());
        assert_eq!(table.cell(0, "backend"), Some("memory"));
        assert_eq!(table.cell(2, "backend"), Some("blockcache:262144"));
        // The log file pays one seek + read per node get. (No upper bound
        // asserted for the memory row: the I/O scope is process-wide and
        // other tests run concurrently in this binary.)
        let logfile_reads: u64 = table.cell(1, "reads").unwrap().parse().unwrap();
        assert!(logfile_reads > 0, "logfile gets must be counted");
    }

    #[test]
    fn table3_has_all_algorithms() {
        let table = table3(Scale::Quick);
        assert!(table.num_rows() >= 3);
        assert!(table.cell(0, "BFS(s)").is_some());
        assert!(table.cell(0, "DFS(s)").is_some());
        assert!(table.cell(0, "TA(s)").is_some());
    }

    #[test]
    fn table3_sharded_verifies_and_reports_both_workloads() {
        // The experiment itself asserts byte-identical results before
        // emitting any timing, so reaching the assertions below means the
        // sharded merge matched the unsharded solve.
        let table = table3_sharded(Scale::Quick, 2);
        assert_eq!(table.num_rows(), 2);
        assert!(table.cell(0, "sharded@2(s)").is_some());
        assert!(table.cell(0, "sharded@1(s)").is_some());
        assert!(table.cell(0, "sharded@1/BFS(x)").unwrap().ends_with('x'));
        assert_eq!(table.cell(0, "shard ranges"), Some("2"));
        // Exact cells (the experiment asserts itself that the windows visit
        // and consider no more than windows solved alone): every window
        // prunes by the graph's floor, and only the whole-graph sweep
        // considers a bare edge at every node it visits.
        let count = |column| table.cell(0, column).and_then(|c| c.parse::<u64>().ok());
        assert!(count("windows generated(=)") < count("BFS generated(=)"));
        // Both pass over most of the 12 x 800 nodes (a node lies in up to
        // l + 1 = 4 windows).
        assert!(count("BFS visited(=)") < Some(12 * 800 / 5));
        assert!(count("windows visited(=)") < Some(4 * 12 * 800 / 5));
    }

    #[test]
    fn table3_distributed_verifies_and_reports_both_workloads() {
        // As with the sharding table, the experiment asserts byte-identical
        // results (here across real TCP workers) before emitting timings.
        let table = table3_distributed(Scale::Quick, 2);
        assert_eq!(table.num_rows(), 2);
        assert!(table.title.contains("(dist_workers=2)"));
        assert!(table.cell(0, "distributed@2(s)").is_some());
        assert_eq!(table.cell(0, "fan-out windows"), Some("2"));
    }

    #[test]
    fn streaming_ablation_matches_result_counts() {
        let table = streaming_ablation(Scale::Quick);
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.cell(0, "result paths"), table.cell(1, "result paths"));
    }
}
