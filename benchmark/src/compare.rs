//! `run.sh compare <a.json> <b.json>`: apply the end-to-end bounds to two
//! result files and check the determinism tripwires.

use bsc_util::json::{self, JsonValue};

use crate::bench::{Better, E2eDef, E2E};
use crate::stats;

/// One (metric, workload) cell of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub value: f64,
    /// Per-round values; their min–max is the run's spread.
    pub rounds: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread of either side is wider than the bound and the runs
    /// overlap: the data cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn range(rounds: &[f64], value: f64) -> (f64, f64) {
    rounds
        .iter()
        .fold((value, value), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Relative amount by which `b` is worse than `a` (negative = better).
pub fn worsening(def: &E2eDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judge `b` (the change) against `a` (the baseline) under `def.bound`.
pub fn classify(def: &E2eDef, a: &Cell, b: &Cell) -> Verdict {
    let wide = stats::spread(&a.rounds) > def.bound || stats::spread(&b.rounds) > def.bound;
    let (a_lo, a_hi) = range(&a.rounds, a.value);
    let (b_lo, b_hi) = range(&b.rounds, b.value);
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if wide && overlap {
        Verdict::Unresolved
    } else if worsening(def, a.value, b.value) > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn cell(metric: &JsonValue) -> Option<Cell> {
    Some(Cell {
        value: metric.get("value")?.as_f64()?,
        rounds: metric
            .get("rounds")
            .and_then(JsonValue::as_array)
            .map(|values| values.iter().filter_map(JsonValue::as_f64).collect())
            .unwrap_or_default(),
    })
}

/// Compare two result documents; returns the printed report and whether
/// the comparison passed (no `regressed` cell, no failed op, no tripwire).
pub fn compare(a: &JsonValue, b: &JsonValue) -> (String, bool) {
    let mut report = String::new();
    let mut passed = true;
    let workloads = |doc: &JsonValue| {
        doc.get("workloads")
            .and_then(JsonValue::as_object)
            .cloned()
            .unwrap_or_default()
    };
    let (wa, wb) = (workloads(a), workloads(b));
    let same_seed = a.get("seed") == b.get("seed");
    for (name, run_a) in &wa {
        let Some(run_b) = wb.get(name) else {
            report.push_str(&format!("{name}: missing from the second file\n"));
            passed = false;
            continue;
        };
        for def in &E2E {
            let cells = run_a
                .get("end_to_end")
                .and_then(|m| m.get(def.name))
                .and_then(cell)
                .zip(
                    run_b
                        .get("end_to_end")
                        .and_then(|m| m.get(def.name))
                        .and_then(cell),
                );
            let Some((ca, cb)) = cells else { continue };
            let verdict = classify(def, &ca, &cb);
            passed &= verdict != Verdict::Regressed;
            report.push_str(&format!(
                "{:<11} {name:<15} {:<26} {:>12.4} -> {:>12.4} {:<4} {:+6.1}% (bound {:.0}%)\n",
                verdict.name(),
                def.name,
                ca.value,
                cb.value,
                def.unit,
                worsening(def, ca.value, cb.value) * 100.0,
                def.bound * 100.0
            ));
        }
        for (side, run) in [("first", run_a), ("second", run_b)] {
            let failed = run.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
            if failed > 0 {
                report.push_str(&format!(
                    "regressed   {name:<15} failed_share: {failed} failed ops in the {side} file\n"
                ));
                passed = false;
            }
        }
        // Tripwires only bind two runs of one seed: the op order (and so
        // the hash) is the one thing the seed changes.
        if same_seed {
            let mut tripwires = vec![(
                "schedule_hash".to_string(),
                run_a.get("schedule_hash"),
                run_b.get("schedule_hash"),
            )];
            let exact = |run: &JsonValue| {
                run.get("exact")
                    .and_then(JsonValue::as_object)
                    .cloned()
                    .unwrap_or_default()
            };
            let (ea, eb) = (exact(run_a), exact(run_b));
            for (key, value) in &ea {
                tripwires.push((key.clone(), Some(value), eb.get(key)));
            }
            for (key, va, vb) in tripwires {
                if va != vb {
                    report.push_str(&format!("tripwire    {name:<15} {key}: {va:?} != {vb:?}\n"));
                    passed = false;
                }
            }
        }
    }
    (report, passed)
}

/// Load and compare two result files.
pub fn compare_files(a: &str, b: &str) -> Result<(String, bool), String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok(compare(&load(a)?, &load(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency() -> &'static E2eDef {
        E2E.iter().find(|d| d.name == "latency_p50_ms").unwrap()
    }

    fn throughput() -> &'static E2eDef {
        E2E.iter().find(|d| d.name == "throughput_qps").unwrap()
    }

    fn cell(value: f64, rounds: &[f64]) -> Cell {
        Cell {
            value,
            rounds: rounds.to_vec(),
        }
    }

    #[test]
    fn a_2x_slowdown_regresses_and_an_identical_pair_is_ok() {
        let base = cell(10.0, &[9.9, 10.0, 10.1]);
        let slow = cell(20.0, &[19.8, 20.0, 20.2]);
        assert_eq!(classify(latency(), &base, &slow), Verdict::Regressed);
        assert_eq!(classify(latency(), &base, &base.clone()), Verdict::Ok);
        // Getting faster is never a regression.
        assert_eq!(classify(latency(), &slow, &base), Verdict::Ok);
        // Higher-is-better metrics regress downwards.
        let fast = cell(100.0, &[99.0, 101.0]);
        let halved = cell(50.0, &[49.0, 51.0]);
        assert_eq!(classify(throughput(), &fast, &halved), Verdict::Regressed);
        assert_eq!(classify(throughput(), &halved, &fast), Verdict::Ok);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let noisy_a = cell(10.0, &[8.0, 10.0, 12.0]);
        let noisy_b = cell(11.5, &[9.0, 11.5, 13.0]);
        assert_eq!(classify(latency(), &noisy_a, &noisy_b), Verdict::Unresolved);
        // Wide but disjoint: every run of b is worse than every run of a.
        let worse = cell(30.0, &[25.0, 30.0, 35.0]);
        assert_eq!(classify(latency(), &noisy_a, &worse), Verdict::Regressed);
    }

    #[test]
    fn compare_flags_tripwires_and_failures() {
        let doc = |hash: &str, failed: u64, p50: f64| {
            json::parse(&format!(
                "{{\"seed\":7,\"workloads\":{{\"serve-cold\":{{\"schedule_hash\":\"{hash}\",\"failed\":{failed},\
                 \"exact\":{{\"reply_bytes\":100}},\
                 \"end_to_end\":{{\"latency_p50_ms\":{{\"value\":{p50},\"rounds\":[{p50},{p50}]}}}}}}}}}}"
            ))
            .unwrap()
        };
        assert!(compare(&doc("aa", 0, 10.0), &doc("aa", 0, 10.0)).1);
        assert!(
            !compare(&doc("aa", 0, 10.0), &doc("bb", 0, 10.0)).1,
            "hash tripwire"
        );
        assert!(
            !compare(&doc("aa", 0, 10.0), &doc("aa", 3, 10.0)).1,
            "failed ops"
        );
        let (report, passed) = compare(&doc("aa", 0, 10.0), &doc("aa", 0, 20.0));
        assert!(!passed && report.contains("regressed"), "{report}");
    }
}
