//! The interval-segmented `ClusterGraph` (ISSUE 12): a graph grown by
//! `ClusterGraph::append` must be indistinguishable from one
//! `ClusterGraphBuilder::build` made from the same edges — through every
//! accessor and all five solvers — while sharing its older segments with
//! the epochs before it. A `window()` of either is a borrowed `GraphView`,
//! and must read, and solve, exactly as the window rebuilt as a graph of
//! its own would (ISSUE 16). Sharing has to be *sound*: a delta
//! proven by segment identity equals the delta computed from content, a
//! snapshot pinned before an append never sees the append, and a plain
//! `load` in the middle of a stream leaves serve and oracle in step.

use blogstable::core::cluster_graph::{in_edges, ClusterEdge, GraphView};
use blogstable::core::delta::GraphDelta;
use blogstable::core::problem::StableClusterSpec;
use blogstable::core::solver::AlgorithmKind;
use blogstable::prelude::*;
use blogstable::service::Session;
use bsc_util::DetRng;

type ParentEdges = Vec<Vec<(ClusterNodeId, f64)>>;

/// One randomly shaped interval to append to `graph`: 0–5 nodes (empty
/// intervals included), one time in five no edges at all, otherwise each
/// in-gap predecessor wired with probability ½ and a weight drawn from
/// four values — so equal-weight ties, whose order DFS depends on, are
/// the rule rather than the exception.
fn random_interval(graph: &ClusterGraph, rng: &mut DetRng) -> ParentEdges {
    let interval = graph.num_intervals() as u32;
    let nodes = rng.below(6) as usize;
    let mut parent_edges: ParentEdges = vec![Vec::new(); nodes];
    if rng.chance(0.2) {
        return parent_edges;
    }
    for edges in &mut parent_edges {
        for parent_interval in interval.saturating_sub(graph.gap() + 1)..interval {
            for parent in 0..graph.nodes_in_interval(parent_interval) {
                if rng.chance(0.5) {
                    let weight = (rng.below(4) + 1) as f64 / 4.0;
                    edges.push((ClusterNodeId::new(parent_interval, parent), weight));
                }
            }
        }
    }
    parent_edges
}

/// `graph` with one more interval, given node by node.
fn append(graph: &ClusterGraph, interval: &[Vec<(ClusterNodeId, f64)>]) -> ClusterGraph {
    let nodes = interval.len() as u32;
    graph
        .append(nodes, &in_edges(interval))
        .expect("an admissible interval")
}

fn empty_graph(gap: u32) -> ClusterGraph {
    ClusterGraphBuilder::new(gap).build()
}

/// The same graph from one `build()` over its edge list in append order
/// (interval by interval, node by node, parents as listed): shares no
/// segment with `graph`.
fn rebuilt(graph: &ClusterGraph) -> ClusterGraph {
    let mut builder = ClusterGraphBuilder::new(graph.gap());
    for interval in 0..graph.num_intervals() as u32 {
        builder.add_interval(graph.nodes_in_interval(interval));
    }
    for node in graph.node_ids() {
        for edge in graph.parents(node) {
            builder.add_edge(edge.to, node, edge.weight);
        }
    }
    builder.build()
}

/// Equality through every accessor, order and weight bits included.
fn assert_same_graph(a: &ClusterGraph, b: &ClusterGraph, context: &str) {
    let bits = |edges: &[ClusterEdge]| -> Vec<(ClusterNodeId, u64)> {
        edges.iter().map(|e| (e.to, e.weight.to_bits())).collect()
    };
    assert_eq!(a.num_intervals(), b.num_intervals(), "{context}");
    assert_eq!(a.gap(), b.gap(), "{context}");
    assert_eq!(a.num_nodes(), b.num_nodes(), "{context}");
    assert_eq!(a.num_edges(), b.num_edges(), "{context}");
    assert_eq!(
        a.interval_out_edge_counts(),
        b.interval_out_edge_counts(),
        "{context}"
    );
    assert_eq!(
        a.node_ids().collect::<Vec<_>>(),
        b.node_ids().collect::<Vec<_>>(),
        "{context}"
    );
    for interval in 0..a.num_intervals() as u32 + 1 {
        assert_eq!(
            a.nodes_in_interval(interval),
            b.nodes_in_interval(interval),
            "{context}"
        );
        assert_eq!(
            a.interval_node_ids(interval).collect::<Vec<_>>(),
            b.interval_node_ids(interval).collect::<Vec<_>>(),
            "{context}"
        );
    }
    for interval in 0..a.num_intervals() as u32 {
        let flatten = |graph: &ClusterGraph| -> Vec<Vec<(ClusterNodeId, u64)>> {
            graph
                .interval_parent_edges(interval)
                .into_iter()
                .map(|edges| edges.into_iter().map(|(n, w)| (n, w.to_bits())).collect())
                .collect()
        };
        assert_eq!(flatten(a), flatten(b), "{context} interval {interval}");
    }
    for node in a.node_ids() {
        assert_eq!(
            bits(a.children(node)),
            bits(b.children(node)),
            "{context}: children of {node}"
        );
        assert_eq!(
            bits(a.parents(node)),
            bits(b.parents(node)),
            "{context}: parents of {node}"
        );
        for edge in a.children(node) {
            assert_eq!(
                a.edge_weight(node, edge.to).map(f64::to_bits),
                b.edge_weight(node, edge.to).map(f64::to_bits),
                "{context}"
            );
        }
    }
    let edge_bits = |graph: &ClusterGraph| -> Vec<(ClusterNodeId, ClusterNodeId, u64)> {
        graph.edges().map(|(f, t, w)| (f, t, w.to_bits())).collect()
    };
    assert_eq!(edge_bits(a), edge_bits(b), "{context}");
}

fn assert_identical(expected: &[ClusterPath], got: &[ClusterPath], context: &str) {
    assert_eq!(expected.len(), got.len(), "{context}: result counts differ");
    for (a, b) in expected.iter().zip(got.iter()) {
        assert_eq!(a.nodes(), b.nodes(), "{context}: node sequences differ");
        assert_eq!(
            a.weight().to_bits(),
            b.weight().to_bits(),
            "{context}: weights must be byte-identical"
        );
    }
}

fn solve(graph: &ClusterGraph, kind: AlgorithmKind, spec: StableClusterSpec) -> Vec<ClusterPath> {
    kind.build_with_options(spec, 4, graph.num_intervals(), SolverOptions::default())
        .expect("build solver")
        .solve(graph)
        .expect("solve")
        .paths
}

/// All five solvers, each with a spec it serves.
const SOLVERS: [(AlgorithmKind, StableClusterSpec); 5] = [
    (AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2)),
    (AlgorithmKind::Dfs, StableClusterSpec::ExactLength(2)),
    (AlgorithmKind::Ta, StableClusterSpec::FullPaths),
    (
        AlgorithmKind::Normalized,
        StableClusterSpec::Normalized { l_min: 2 },
    ),
    (
        AlgorithmKind::Auto { budget_bytes: None },
        StableClusterSpec::ExactLength(3),
    ),
];

#[test]
fn a_chain_of_appends_equals_one_build_over_the_same_edges() {
    for gap in 0..=2u32 {
        for seed in [1u64, 2, 3] {
            let mut rng = DetRng::seed_from_u64(seed * 100 + u64::from(gap));
            let mut epochs = vec![empty_graph(gap)];
            // The online solver answers by splicing the start windows of its
            // last answer, so it must agree with batch BFS after *every*
            // push — short paths, and an `l` no epoch here is long enough
            // for.
            let mut streams: Vec<(KlStableParams, OnlineStableClusters)> = [1, 2, 3, 12]
                .map(|l| KlStableParams::new(4, l))
                .map(|params| (params, OnlineStableClusters::new(params, gap)))
                .into();
            for step in 0..9 {
                let context = format!("gap={gap} seed={seed} step={step}");
                let last = epochs.last().expect("an epoch");
                let interval = random_interval(last, &mut rng);
                let next = append(last, &interval);
                assert_same_graph(&next, &rebuilt(&next), &context);
                epochs.push(next);
                for (params, stream) in &mut streams {
                    stream.push_interval(interval.clone());
                    let batch = BfsStableClusters::new(*params)
                        .run(stream.graph())
                        .expect("batch bfs");
                    let context = format!("{context} online l={}", params.l);
                    let online = stream.current_top_k().expect("stream answer");
                    assert_identical(&batch, &online, &context);
                }
            }
            // Appending never touched an epoch it started from.
            for (epoch, graph) in epochs.iter().enumerate() {
                assert_eq!(graph.num_intervals(), epoch);
                assert_same_graph(graph, &rebuilt(graph), &format!("gap={gap} epoch={epoch}"));
            }
            let appended = epochs.last().expect("an epoch");
            let built = rebuilt(appended);
            for (kind, spec) in SOLVERS {
                assert_identical(
                    &solve(&built, kind, spec),
                    &solve(appended, kind, spec),
                    &format!("gap={gap} seed={seed} {kind} {spec}"),
                );
            }
        }
    }
}

/// A chain of flat appends, each of a `push_interval` line read by the
/// protocol, equals one build over the same edges in append order
/// (interval by interval, node by node, each node's parents in line order)
/// in every accessor. The lines list their edges in shuffled order, not
/// grouped by node, and their weights take two values: a parent's tied
/// children must sit in node order, the order the build adds them in, not
/// in line order.
#[test]
fn flat_appends_of_shuffled_push_lines_with_tied_weights_equal_one_build() {
    use blogstable::service::protocol::{parse_request, Request};
    for gap in 0..=2u32 {
        let mut rng = DetRng::seed_from_u64(3800 + u64::from(gap));
        let mut graph = empty_graph(gap);
        let mut builder = ClusterGraphBuilder::new(gap);
        let mut ties = 0;
        for step in 0..10 {
            let context = format!("gap={gap} step={step}");
            let interval = graph.num_intervals() as u32;
            let nodes = 1 + rng.below(5) as u32;
            let mut quads = Vec::new();
            for node in 0..nodes {
                let first = interval.saturating_sub(gap + 1);
                for parent in (first..interval).flat_map(|p| graph.interval_node_ids(p)) {
                    if rng.chance(0.6) {
                        let weight = [0.5, 0.25][rng.index(2)];
                        let (p, i) = (parent.interval, parent.index);
                        quads.push(format!("[{p},{i},{node},{weight}]"));
                    }
                }
            }
            rng.shuffle(&mut quads);
            let line = format!(
                "{{\"op\":\"push_interval\",\"nodes\":{nodes},\"edges\":[{}]}}",
                quads.join(",")
            );
            let Ok(Request::PushInterval { nodes, edges }) = parse_request(&line) else {
                panic!("{context}: {line} is not a push");
            };
            graph = graph.append(nodes, &edges).expect("an admissible interval");
            builder.add_interval(nodes);
            for node in 0..nodes {
                for &(parent, _, weight) in edges.iter().filter(|edge| edge.1 == node) {
                    builder.add_edge(parent, ClusterNodeId::new(interval, node), weight);
                }
            }
            let built = builder.clone().build();
            assert_same_graph(&graph, &built, &context);
            for start in 0..=interval {
                for end in start..=interval {
                    let (a, b) = (graph.window(start, end), built.window(start, end));
                    assert_eq!(a.num_edges(), b.num_edges(), "{context} [{start}, {end}]");
                }
            }
            for node in graph.node_ids() {
                let weights: Vec<f64> = graph.children(node).iter().map(|e| e.weight).collect();
                ties += weights.windows(2).filter(|w| w[0] == w[1]).count();
            }
        }
        assert!(ties > 20, "gap={gap}: {ties} tied neighbours");
    }
}

/// What `ClusterGraph::window` did before it returned a view, kept as the
/// oracle views are held to: the window `[start, end]` as a graph of its
/// own, interval `t` standing for interval `start + t`, every inner edge
/// re-inserted through the builder.
fn rebuilt_window(graph: &ClusterGraph, start: u32, end: u32) -> ClusterGraph {
    let mut builder = ClusterGraphBuilder::new(graph.gap());
    for interval in start..=end {
        builder.add_interval(graph.nodes_in_interval(interval));
    }
    for interval in start..=end {
        for from in graph.interval_node_ids(interval) {
            for edge in graph.children(from).iter().filter(|e| e.to.interval <= end) {
                builder.add_edge(
                    ClusterNodeId::new(from.interval - start, from.index),
                    ClusterNodeId::new(edge.to.interval - start, edge.to.index),
                    edge.weight,
                );
            }
        }
    }
    builder.build()
}

/// A view's accessors against the rebuilt window: counts, child rows order
/// included, parent rows as multisets (a view keeps the graph's insertion
/// order, a rebuild lists parents by source interval).
fn assert_view_reads_as(view: GraphView<'_>, oracle: &ClusterGraph, context: &str) {
    let start = view.first_interval();
    let shifted = |edges: &mut dyn Iterator<Item = &ClusterEdge>, by: u32| {
        edges
            .map(|e| (e.to.interval - by, e.to.index, e.weight.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(view.num_intervals(), oracle.num_intervals(), "{context}");
    assert_eq!(view.gap(), oracle.gap(), "{context}");
    assert_eq!(view.num_nodes(), oracle.num_nodes(), "{context}");
    assert_eq!(view.num_edges(), oracle.num_edges(), "{context}");
    for interval in view.intervals() {
        assert_eq!(
            view.nodes_in_interval(interval),
            oracle.nodes_in_interval(interval - start),
            "{context}"
        );
        for node in view.interval_node_ids(interval) {
            let local = ClusterNodeId::new(interval - start, node.index);
            assert_eq!(
                shifted(&mut view.children(node), start),
                shifted(&mut oracle.children(local).iter(), 0),
                "{context}: children of {node}"
            );
            let mut parents = shifted(&mut view.parents(node), start);
            let mut expected = shifted(&mut oracle.parents(local).iter(), 0);
            parents.sort_unstable();
            expected.sort_unstable();
            assert_eq!(parents, expected, "{context}: parents of {node}");
        }
    }
    // Outside the view there is nothing, whatever the graph holds there.
    assert_eq!(
        view.nodes_in_interval(start.wrapping_sub(1)),
        0,
        "{context}"
    );
    assert_eq!(view.nodes_in_interval(view.intervals().end), 0, "{context}");
}

/// `SOLVERS`, each once per way it can be told to keep its state: DFS over
/// every backend, the rest as they are.
fn solver_configurations() -> Vec<(AlgorithmKind, StableClusterSpec, SolverOptions)> {
    let mut configurations = Vec::new();
    for (kind, spec) in SOLVERS {
        configurations.push((kind, spec, SolverOptions::default()));
        if kind == AlgorithmKind::Dfs {
            for storage in StorageSpec::ALL {
                configurations.push((kind, spec, SolverOptions::default().storage(storage)));
            }
        }
    }
    configurations
}

/// Every deterministic counter of a solve (the two wall-clock fields are
/// the only ones left out).
fn counters(stats: &SolverStats) -> SolverStats {
    SolverStats {
        queue_wait_micros: 0,
        solve_micros: 0,
        ..*stats
    }
}

#[test]
fn a_window_view_reads_and_solves_as_the_rebuilt_window() {
    for gap in 0..=2u32 {
        let mut rng = DetRng::seed_from_u64(1600 + u64::from(gap));
        let mut appended = empty_graph(gap);
        for _ in 0..8 {
            appended = append(&appended, &random_interval(&appended, &mut rng));
        }
        let built = rebuilt(&appended);
        let m = appended.num_intervals() as u32;
        for (name, graph) in [("appended", &appended), ("built", &built)] {
            for start in 0..m {
                for end in start..m {
                    let context = format!("gap={gap} {name} window [{start}, {end}]");
                    let view = graph.window(start, end);
                    let oracle = rebuilt_window(graph, start, end);
                    assert_view_reads_as(view, &oracle, &context);
                    for (kind, spec, options) in solver_configurations() {
                        let context = format!("{context} {kind} {spec} {options:?}");
                        let build = || {
                            kind.build_with_options(spec, 4, view.num_intervals(), options.clone())
                                .expect("build solver")
                        };
                        let expected = build().solve(&oracle).expect("solve the rebuild");
                        let got = build().solve_view(view).expect("solve the view");
                        let shifted_back: Vec<ClusterPath> = expected
                            .paths
                            .iter()
                            .map(|path| {
                                let nodes = path.nodes().iter();
                                let nodes =
                                    nodes.map(|n| ClusterNodeId::new(n.interval + start, n.index));
                                ClusterPath::new(nodes.collect(), path.weight())
                            })
                            .collect();
                        assert_identical(&shifted_back, &got.paths, &context);
                        assert_eq!(counters(&expected.stats), counters(&got.stats), "{context}");
                    }
                }
            }
            // The whole-graph view is the graph.
            assert_view_reads_as(graph.view(), graph, &format!("gap={gap} {name} view()"));
        }
    }
}

#[test]
fn a_delta_proven_by_identity_equals_the_delta_computed_from_content() {
    for seed in [21u64, 22, 23] {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut epochs = vec![empty_graph(1)];
        for _ in 0..8 {
            let last = epochs.last().expect("an epoch");
            let next = append(last, &random_interval(last, &mut rng));
            epochs.push(next);
        }
        for from in 0..epochs.len() {
            for to in from..epochs.len() {
                let (old, new) = (&epochs[from], &epochs[to]);
                // The chain really shares: every interval of the older
                // epoch is the newer epoch's own segment.
                for interval in 0..from as u32 {
                    assert!(new.shares_in_edges(old, interval), "{from}->{to}");
                    assert!(!new.shares_in_edges(&rebuilt(old), interval));
                }
                let shared = GraphDelta::between(old, new);
                assert_eq!(shared, GraphDelta::between(old, &rebuilt(new)));
                assert_eq!(shared, GraphDelta::between(&rebuilt(old), new));
                assert!(shared.only_appends(), "{from}->{to}");
                let added = shared.new_intervals() - shared.old_intervals();
                assert_eq!(added as usize, to - from, "{from}->{to}");
                // Backwards, the older epoch lacks the newer one's intervals.
                let back = GraphDelta::between(new, &rebuilt(old));
                assert_eq!(back.only_appends(), from == to, "{to}->{from}");
            }
        }
    }
}

#[test]
fn same_shape_graphs_with_different_weight_bits_are_still_dirty() {
    let node = ClusterNodeId::new;
    let prefix = append(&empty_graph(0), &[vec![], vec![]]);
    let prefix = append(
        &prefix,
        &[vec![(node(0, 0), 0.5)], vec![(node(0, 1), 0.25)]],
    );
    let tail: ParentEdges = vec![vec![(node(2, 0), 0.75)]];
    let half = 0.5f64;
    let next_up = f64::from_bits(half.to_bits() + 1);
    let a = append(&prefix, &[vec![(node(1, 0), half), (node(1, 1), 0.5)]]);
    let a = append(&a, &tail);
    let b = append(&prefix, &[vec![(node(1, 0), next_up), (node(1, 1), 0.5)]]);
    let b = append(&b, &tail);
    let c = append(&prefix, &[vec![(node(1, 0), half), (node(1, 1), 0.5)]]);
    let c = append(&c, &tail);
    // Intervals 0 and 1 are one segment in all three graphs; in `b`
    // interval 2 differs from `a`'s in the last bit of one weight; `c`
    // appended intervals 2 and 3 from `a`'s input — separate segments,
    // equal content.
    assert!(a.shares_in_edges(&b, 0) && a.shares_in_edges(&b, 1));
    assert!(!a.shares_in_edges(&b, 2) && !a.shares_in_edges(&b, 3));
    assert!(!a.shares_in_edges(&c, 2) && !a.shares_in_edges(&c, 3));
    let delta = GraphDelta::between(&a, &b);
    assert!(!delta.only_appends());
    assert_eq!(delta, GraphDelta::between(&rebuilt(&a), &rebuilt(&b)));
    assert!(GraphDelta::between(&a, &c).only_appends());
    // Up to the interval before the changed one, `b` extends `a`.
    assert!(GraphDelta::between(&prefix, &b).only_appends());
}

#[test]
fn a_snapshot_pinned_before_an_append_never_sees_it() {
    let mut rng = DetRng::seed_from_u64(77);
    let mut online = OnlineStableClusters::new(KlStableParams::new(4, 2), 1);
    let engine = QueryEngine::new(EngineConfig::default().workers(1)).expect("engine starts");
    let push = |online: &mut OnlineStableClusters, rng: &mut DetRng| {
        let edges = random_interval(online.graph(), rng);
        online.push_interval(edges);
    };
    for _ in 0..5 {
        push(&mut online, &mut rng);
        engine.install(online.snapshot());
    }
    let pinned = engine.snapshot_cell().load();
    let before = rebuilt(&pinned);
    let request = || QueryRequest::new(AlgorithmKind::Dfs, StableClusterSpec::ExactLength(2), 4);
    let expected = solve(
        &before,
        AlgorithmKind::Dfs,
        StableClusterSpec::ExactLength(2),
    );
    // Admission pins the epoch; the three pushes land while the query is
    // queued or solving.
    let in_flight = engine.submit(request()).expect("admitted");
    for _ in 0..3 {
        push(&mut online, &mut rng);
        // `install` under its older name, which still compiles.
        engine.install_incremental(online.snapshot());
    }
    let response = in_flight.wait().expect("in-flight query");
    assert_eq!(response.epoch, pinned.epoch());
    assert_identical(&expected, &response.solution.paths, "in-flight query");

    // The pinned graph still ends where it ended: with gap 1 its last two
    // intervals gained children in the newer epochs, not here.
    assert_eq!(engine.snapshot_cell().load().num_intervals(), 8);
    assert_same_graph(&pinned, &before, "pinned epoch");
    for (_, to, _) in pinned.edges() {
        assert!((to.interval as usize) < pinned.num_intervals());
    }
    assert!(engine
        .snapshot_cell()
        .load()
        .edges()
        .any(|(from, to, _)| from.interval <= 4 && to.interval >= 5));
    // And it is not a copy: the newest epoch holds the very same segments.
    for interval in 0..5 {
        assert!(engine
            .snapshot_cell()
            .load()
            .shares_in_edges(&pinned, interval));
    }
}

#[test]
fn a_plain_load_mid_stream_leaves_nothing_to_splice_and_replies_still_match_the_oracle() {
    let query = "{\"op\":\"query\",\"algorithm\":\"bfs\",\"spec\":\"exact:2\",\"k\":4}";
    let lines = [
        "{\"op\":\"open_stream\",\"k\":4,\"l\":2,\"gap\":1}",
        "{\"op\":\"push_interval\",\"nodes\":3}",
        "{\"op\":\"push_interval\",\"nodes\":2,\"edges\":[[0,0,0,0.8],[0,1,0,0.5],[0,2,1,0.9]]}",
        "{\"op\":\"push_interval\",\"nodes\":2,\"edges\":[[1,0,0,0.7],[1,1,1,0.6],[0,0,1,0.3]]}",
        query,
        "{\"op\":\"push_interval\",\"nodes\":2,\"edges\":[[2,0,0,0.4],[2,1,1,0.6]]}",
        query,
        // A different graph altogether takes the cell over …
        "{\"op\":\"load\",\"num_intervals\":5,\"nodes_per_interval\":4,\"avg_out_degree\":2,\"gap\":1,\"seed\":3}",
        query,
        // … and the stream, which knows nothing of it, publishes over it.
        "{\"op\":\"push_interval\",\"nodes\":1,\"edges\":[[3,0,0,0.95],[2,1,0,0.2]]}",
        query,
        "{\"op\":\"push_interval\",\"nodes\":2,\"edges\":[[4,0,0,0.5],[4,0,1,0.5]]}",
        query,
        "{\"op\":\"stream_top_k\"}",
    ];
    let mut engine = Session::engine(EngineConfig::default().workers(2)).expect("engine session");
    let mut oracle = Session::oracle();
    for line in lines {
        let (from_engine, _) = engine.handle_line(line);
        let (from_oracle, _) = oracle.handle_line(line);
        assert_eq!(from_engine, from_oracle, "diverged on {line}");
        assert!(
            from_engine.expect("a reply").contains("\"ok\":true"),
            "{line}"
        );
    }
}
