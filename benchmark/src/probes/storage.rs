//! `bsc_storage::backend` probes: `StorageSpec::open_temp`,
//! `StorageBackend::{put,get}`, and the I/O a DFS solve does through them.

use bsc_core::cluster_graph::ClusterGraph;
use bsc_core::problem::StableClusterSpec;
use bsc_core::solver::{AlgorithmKind, SolverOptions};
use bsc_storage::backend::StorageSpec;

use super::{median_batched_us, Metric, PROBE_K};

/// The block-cache budget below `serve-disk`'s working set.
pub const SMALL_BUDGET: StorageSpec = StorageSpec::BlockCache {
    budget_bytes: 16_384,
};

fn put_get(spec: StorageSpec, put: &'static str, get: &'static str) -> [Metric; 2] {
    let mut backend = spec.open_temp("bsc-benchmark").expect("open backend");
    let value = [0x5au8; 64];
    let keys: Vec<[u8; 8]> = (0..512u64).map(u64::to_be_bytes).collect();
    let mut next = 0usize;
    let (put_us, puts) = median_batched_us(16, || {
        next = (next + 1) % keys.len();
        backend.put(&keys[next], &value).expect("put")
    });
    // Every key is resident before reads are timed.
    for key in &keys {
        backend.put(key, &value).expect("put");
    }
    let (get_us, gets) = median_batched_us(16, || {
        // A stride coprime to the key count defeats read-ahead luck.
        next = (next + 211) % keys.len();
        backend.get(&keys[next]).expect("get")
    });
    [
        Metric::new(put, put_us, "us", puts),
        Metric::new(get, get_us, "us", gets),
    ]
}

pub fn probes(small: &ClusterGraph) -> Vec<Metric> {
    let mut metrics = Vec::new();
    metrics.extend(put_get(
        StorageSpec::Memory,
        "storage.memory.put_us",
        "storage.memory.get_us",
    ));
    metrics.extend(put_get(
        StorageSpec::LogFile,
        "storage.logfile.put_us",
        "storage.logfile.get_us",
    ));
    metrics.extend(put_get(
        SMALL_BUDGET,
        "storage.blockcache.put_us",
        "storage.blockcache.get_us",
    ));
    // `Solution::io` of the exact:2 DFS serve-disk runs: counts repeat exactly.
    let dfs_io = |storage: StorageSpec| {
        AlgorithmKind::Dfs
            .build_with_options(
                StableClusterSpec::ExactLength(2),
                PROBE_K,
                small.num_intervals(),
                SolverOptions::default().storage(storage),
            )
            .and_then(|mut solver| solver.solve(small))
            .expect("dfs solve")
            .io
    };
    let logfile = dfs_io(StorageSpec::LogFile);
    metrics.push(Metric::new(
        "storage.logfile.dfs_reads",
        logfile.read_ops as f64,
        "count",
        1,
    ));
    metrics.push(Metric::new(
        "storage.logfile.dfs_bytes_read",
        logfile.bytes_read as f64,
        "count",
        1,
    ));
    let evictions = dfs_io(SMALL_BUDGET).evictions;
    assert!(
        evictions > 0,
        "the 16 KiB block cache must be below serve-disk's working set"
    );
    metrics.push(Metric::new(
        "storage.blockcache.evictions",
        evictions as f64,
        "count",
        1,
    ));
    metrics
}
