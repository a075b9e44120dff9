//! Seeded fault-injection conformance: every algorithm, run over every
//! storage backend wrapped in the deterministic
//! [`FaultInjectingBackend`], must surface injected I/O errors as clean
//! [`BscError`]s — never a panic, never a silently wrong top-k. Runs that
//! dodge the fault schedule entirely must return the byte-identical
//! fault-free answer.
//!
//! The fault schedule is a pure function of the seed, so CI pins
//! `BSC_FAULT_SEED` and any failure reproduces locally with the same
//! value. The companion sweep truncates a log file at every byte of its
//! tail and proves [`LogFileBackend::open`] recovers a consistent prefix
//! every time.

use std::panic::{catch_unwind, AssertUnwindSafe};

use blogstable::core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};
use blogstable::core::ClusterGraph;
use blogstable::prelude::*;
use blogstable::storage::external_sort::{ExternalSorter, SortConfig};
use blogstable::storage::temp::TempDir;
use blogstable::storage::{LogFileBackend, PagedStack, Result as StorageResult};

/// Base seed of the deterministic fault schedules: `BSC_FAULT_SEED` when
/// set (CI pins it; reuse the value to reproduce a CI failure), 42
/// otherwise.
fn fault_seed() -> u64 {
    match std::env::var("BSC_FAULT_SEED") {
        Ok(seed) => seed
            .parse()
            .unwrap_or_else(|_| panic!("unparseable BSC_FAULT_SEED: {seed:?}")),
        Err(_) => 42,
    }
}

fn graph() -> ClusterGraph {
    ClusterGraphGenerator::new(SyntheticGraphParams {
        num_intervals: 6,
        nodes_per_interval: 14,
        avg_out_degree: 3,
        gap: 1,
        seed: 4242,
    })
    .generate()
}

/// The compatible (spec, k) for each algorithm: TA answers full paths
/// only, the normalized solver answers Problem 2 only.
fn spec_for(kind: AlgorithmKind, m: usize) -> StableClusterSpec {
    match kind {
        AlgorithmKind::Ta => StableClusterSpec::FullPaths,
        AlgorithmKind::Normalized => StableClusterSpec::Normalized { l_min: 2 },
        _ => {
            let _ = m;
            StableClusterSpec::ExactLength(3)
        }
    }
}

/// The matrix: every algorithm × every inner backend × several seeds, each
/// solve running against storage that fails roughly one operation in
/// three. Every outcome must be either the byte-identical fault-free
/// answer or a clean error that names the injected fault. BFS keeps nothing
/// in storage, so it must answer every round; the schedule must actually
/// fire for DFS, or the sweep proves nothing.
#[test]
fn every_algorithm_survives_injected_storage_faults() {
    let graph = graph();
    let m = graph.num_intervals();
    let base = fault_seed();
    let inners = [
        FaultInner::Memory,
        FaultInner::LogFile,
        FaultInner::BlockCache { budget_bytes: 4096 },
    ];
    let mut dfs_injected_errors = 0u64;
    for kind in AlgorithmKind::ALL {
        let spec = spec_for(kind, m);
        // The fault-free reference answer for this algorithm.
        let expected = kind
            .build_with_options(spec, 5, m, SolverOptions::default())
            .expect("build reference")
            .solve(&graph)
            .expect("fault-free solve")
            .paths;
        for inner in inners {
            for round in 0..4u64 {
                let storage = StorageSpec::Fault {
                    seed: base.wrapping_add(round),
                    every: 3,
                    inner,
                };
                let options = SolverOptions::default().storage(storage);
                let context = format!("{kind} {storage}");
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    kind.build_with_options(spec, 5, m, options)?.solve(&graph)
                }))
                .unwrap_or_else(|_| panic!("{context}: solver panicked under injected faults"));
                match outcome {
                    Ok(solution) => {
                        // Dodged the schedule: the answer must be the
                        // byte-identical fault-free one.
                        assert_eq!(expected.len(), solution.paths.len(), "{context}");
                        for (a, b) in expected.iter().zip(solution.paths.iter()) {
                            assert_eq!(a.nodes(), b.nodes(), "{context}");
                            assert_eq!(a.weight().to_bits(), b.weight().to_bits(), "{context}");
                        }
                    }
                    Err(error) => {
                        // BFS keeps nothing in storage: no schedule reaches it.
                        assert_ne!(kind, AlgorithmKind::Bfs, "{context}: {error}");
                        let rendered = error.to_string();
                        assert!(
                            rendered.contains("injected storage fault"),
                            "{context}: expected the injected fault, got: {rendered}"
                        );
                        if kind == AlgorithmKind::Dfs {
                            dfs_injected_errors += 1;
                        }
                    }
                }
            }
        }
    }
    // DFS touches storage on every solve; at one fault per ~3 operations
    // the schedule cannot miss it every time.
    assert!(
        dfs_injected_errors > 0,
        "the fault schedule never fired — the matrix is vacuous"
    );
}

/// A sharded solve under injected faults: the failing shard's error must
/// surface cleanly through the shard merge (and cancel its siblings), not
/// panic or produce a partial top-k presented as complete.
#[test]
fn sharded_solves_surface_injected_faults_cleanly() {
    let graph = graph();
    let m = graph.num_intervals();
    let base = fault_seed();
    let mut saw_error = false;
    for round in 0..6u64 {
        let storage = StorageSpec::Fault {
            seed: base.wrapping_add(round),
            every: 3,
            inner: FaultInner::LogFile,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            AlgorithmKind::Dfs
                .build_with_options(
                    StableClusterSpec::ExactLength(3),
                    5,
                    m,
                    SolverOptions::default().storage(storage).shards(3),
                )?
                .solve(&graph)
        }))
        .expect("sharded solve panicked under injected faults");
        if let Err(error) = outcome {
            assert!(
                error.to_string().contains("injected storage fault"),
                "unexpected error: {error}"
            );
            saw_error = true;
        }
    }
    assert!(saw_error, "no shard ever tripped the fault schedule");
}

/// The two spills under injected faults: the pair sort's runs and the
/// biconnected edge stack's pages reach storage through the same backend
/// seam as DFS, so the same fault schedules reach them. Every run over
/// every inner backend either returns the fault-free answer or fails with
/// the injected fault — never a panic, never a wrong order.
#[test]
fn spills_survive_injected_storage_faults() {
    let base = fault_seed();
    let inners = [
        FaultInner::Memory,
        FaultInner::LogFile,
        FaultInner::BlockCache { budget_bytes: 4096 },
    ];
    let values: Vec<u32> = (0..600u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 1_000)
        .collect();
    // 600 records at 64 per buffer spill 10 runs: an intermediate merge
    // pass runs at fan-in 4.
    let sort = |backend: Box<dyn StorageBackend>| -> StorageResult<Vec<u32>> {
        let config = SortConfig {
            max_records_in_memory: 64,
            merge_fan_in: 4,
        };
        let mut sorter = ExternalSorter::new(config, backend);
        for value in &values {
            sorter.push(*value)?;
        }
        sorter.finish()?.collect()
    };
    // Two pushes per pop, then drain: pages spill and come back all along.
    let stack = |backend: Box<dyn StorageBackend>| -> StorageResult<Vec<u32>> {
        let mut stack = PagedStack::new(4, backend);
        let mut popped = Vec::new();
        for (i, value) in values.iter().enumerate() {
            stack.push(*value)?;
            if i % 3 == 2 {
                popped.extend(stack.pop()?);
            }
        }
        while let Some(value) = stack.pop()? {
            popped.push(value);
        }
        Ok(popped)
    };
    type Spill<'a> = &'a dyn Fn(Box<dyn StorageBackend>) -> StorageResult<Vec<u32>>;
    let spills: [(&str, Spill); 2] = [("sort", &sort), ("stack", &stack)];
    let mut injected_errors = 0u64;
    for (what, spill) in spills {
        let expected = spill(StorageSpec::Memory.open_temp("spill-ref").unwrap()).unwrap();
        for inner in inners {
            for round in 0..4u64 {
                let storage = StorageSpec::Fault {
                    seed: base.wrapping_add(round),
                    every: 3,
                    inner,
                };
                let context = format!("{what} {storage}");
                let backend = storage.open_temp("fault-spill").unwrap();
                let outcome = catch_unwind(AssertUnwindSafe(|| spill(backend)))
                    .unwrap_or_else(|_| panic!("{context}: spill panicked under injected faults"));
                match outcome {
                    Ok(output) => assert_eq!(output, expected, "{context}"),
                    Err(error) => {
                        let rendered = error.to_string();
                        assert!(
                            rendered.contains("injected storage fault"),
                            "{context}: expected the injected fault, got: {rendered}"
                        );
                        injected_errors += 1;
                    }
                }
            }
        }
    }
    assert!(
        injected_errors > 0,
        "the fault schedule never fired — the spill matrix is vacuous"
    );
}

/// Crash-recovery sweep: truncate a log file at *every* byte position in
/// its tail region and reopen. Every cut must recover: the reopened store
/// answers cleanly, and every surviving key maps to exactly the value
/// last put under it (a consistent prefix of the log, never garbage).
#[test]
fn log_reopen_recovers_a_consistent_prefix_at_every_truncation_point() {
    let dir = TempDir::new("fault-reopen").unwrap();
    let full = dir.file("full.log");
    let mut backend = LogFileBackend::create(&full).unwrap();
    for i in 0..24u32 {
        let key = i.to_le_bytes();
        backend
            .put(&key, &vec![i as u8; 1 + (i as usize % 17)])
            .unwrap();
    }
    // A few overwrites and deletes so recovery sees stale versions and
    // tombstones, not just fresh puts.
    for i in (0..24u32).step_by(5) {
        backend.put(&i.to_le_bytes(), &[0xAB; 9]).unwrap();
    }
    backend.delete(&3u32.to_le_bytes()).unwrap();
    drop(backend);

    let bytes = std::fs::read(&full).unwrap();
    let total = bytes.len() as u64;
    // Sweep the whole tail region (last ~200 bytes) byte by byte, plus a
    // few deep cuts.
    let mut cuts: Vec<u64> = (total.saturating_sub(200)..total).collect();
    cuts.extend([1, 2, total / 4, total / 2]);
    for cut in cuts {
        let path = dir.file("cut.log");
        std::fs::write(&path, &bytes[..cut as usize]).unwrap();
        let mut reopened = LogFileBackend::open(&path)
            .unwrap_or_else(|e| panic!("cut at {cut}/{total} bytes failed to recover: {e}"));
        for key in reopened.keys() {
            let value = reopened
                .get(&key)
                .unwrap_or_else(|e| panic!("cut at {cut}: get failed: {e}"))
                .unwrap_or_else(|| panic!("cut at {cut}: key vanished between keys() and get()"));
            let i = u32::from_le_bytes(key[..4].try_into().unwrap());
            let expected_latest = if i % 5 == 0 {
                vec![0xAB; 9]
            } else {
                vec![i as u8; 1 + (i as usize % 17)]
            };
            let expected_first = vec![i as u8; 1 + (i as usize % 17)];
            assert!(
                value == expected_latest || value == expected_first,
                "cut at {cut}: key {i} recovered garbage ({} bytes)",
                value.len()
            );
        }
        // The recovered store stays usable: appends after recovery work.
        reopened.put(b"post-recovery", b"ok").unwrap();
        assert_eq!(
            reopened.get(b"post-recovery").unwrap().as_deref(),
            Some(&b"ok"[..])
        );
    }
}

/// The same recovery semantics hold when reached through the spec layer —
/// a `fault:`-wrapped logfile reopened via `open_at` (injection disabled,
/// `every = 0`) sees exactly the recovered contents.
#[test]
fn spec_level_reopen_goes_through_recovery_too() {
    let dir = TempDir::new("fault-spec-reopen").unwrap();
    let path = dir.file("store.log");
    {
        let mut backend = StorageSpec::LogFile.create_at(&path).unwrap();
        backend.put(b"alpha", b"1").unwrap();
        backend.put(b"beta", b"2").unwrap();
    }
    // Torn tail: chop the last 3 bytes off beta's frame.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let spec = StorageSpec::Fault {
        seed: fault_seed(),
        every: 0,
        inner: FaultInner::LogFile,
    };
    let mut reopened = spec.open_at(&path).unwrap();
    assert_eq!(reopened.get(b"alpha").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(reopened.get(b"beta").unwrap(), None);
}
