//! The CI bench-regression gate.
//!
//! `BENCH_table3.json` records the measured performance trajectory of the
//! Table 3 workloads; nothing used to stop a PR from silently regressing
//! it. The gate closes that hole: `repro gate` re-runs the `table3`
//! experiments several times, takes the **per-cell median** (so one noisy
//! run cannot fail the job), and compares every wall-clock cell against the
//! checked-in baseline. A cell regresses when it is both *relatively* slower
//! than the tolerance (default +25%) and *absolutely* slower than a small
//! floor (default 50 ms — sub-floor cells measure timer noise, not work).
//!
//! Which columns are compared — and how — is encoded in their header
//! suffix, so one gate serves both the bench-regression job and the
//! latency-SLO load job (`repro load --gate`, see [`crate::load`]):
//!
//! * `(s)` — wall-clock seconds, the original bench-gate semantics above;
//! * `(us)` — latency-SLO microseconds (load-run quantiles): fails when
//!   `fresh > baseline * (1 + slo_tolerance) + slo_floor_micros` — a wide
//!   relative band plus an absolute floor, because tail quantiles on CI
//!   runners are noisy in a way medians are not;
//! * `(%)` — rates in percentage points: fails when fresh exceeds the
//!   baseline by more than `percent_slack` points (drops are
//!   improvements, not regressions);
//! * `(=)` — byte-exact cells (offered counts, quota sheds, schedule
//!   hashes): *any* difference fails. This is the determinism tripwire —
//!   a load run that stops replaying its seed shows up here first;
//! * `(x)` — a ratio of two timings taken in the same run (`"1.08x"`):
//!   fails when `fresh > baseline * (1 + tolerance)`. Machine speed
//!   cancels out of such a cell, so it needs no absolute floor and holds
//!   on a runner where the `(s)` cells around it flap.
//!
//! Everything else (non-numeric cells like `"> skipped"`, other derived
//! speedup ratios, plain columns) is ignored. A baseline table, row, or gated
//! column that disappeared from the fresh run also fails the gate — a
//! deleted benchmark must be removed from the baseline explicitly, never
//! silently.
//!
//! The comparison logic is pure (tables in, report out) so the 2x-slowdown
//! self-test below runs without timing anything.

use crate::report::Table;

/// Gate thresholds.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Maximum tolerated relative slowdown: `0.25` fails cells more than
    /// 25% over baseline.
    pub tolerance: f64,
    /// Absolute floor in seconds: cells whose slowdown is below this are
    /// never regressions, whatever the ratio (guards 1 ms cells).
    pub min_slowdown_seconds: f64,
    /// Ceiling for cells whose *baseline* is zero ("below timer
    /// resolution"): the relative tolerance is meaningless against a zero
    /// baseline, so those cells only fail when the fresh median exceeds
    /// this absolute value.
    pub zero_baseline_ceiling_seconds: f64,
    /// Relative tolerance for `(us)` latency-SLO columns: `1.0` allows a
    /// fresh quantile up to 2x the baseline (tail quantiles are noisy on
    /// shared CI runners; the wide band still catches order-of-magnitude
    /// regressions).
    pub slo_tolerance: f64,
    /// Absolute floor added on top of the `(us)` relative band, in
    /// microseconds: a 50 µs quantile may always grow to
    /// `50 * (1 + slo_tolerance) + slo_floor_micros` before failing.
    pub slo_floor_micros: f64,
    /// Absolute slack for `(%)` columns, in percentage points.
    pub percent_slack: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            tolerance: 0.25,
            min_slowdown_seconds: 0.05,
            zero_baseline_ceiling_seconds: 0.5,
            slo_tolerance: 1.0,
            slo_floor_micros: 20_000.0,
            percent_slack: 5.0,
        }
    }
}

/// One regressed wall-clock cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Title of the table the cell belongs to.
    pub table: String,
    /// The row key (first cell of the row).
    pub row: String,
    /// The column header.
    pub column: String,
    /// Baseline seconds.
    pub baseline_seconds: f64,
    /// Fresh (median) seconds.
    pub fresh_seconds: f64,
}

impl Regression {
    /// `fresh / baseline`.
    pub fn ratio(&self) -> f64 {
        self.fresh_seconds / self.baseline_seconds
    }
}

/// One failed `(us)`, `(%)` or `(=)` cell, carried as the raw cell texts
/// (exact cells need not be numeric — schedule hashes are hex strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatedCell {
    /// Title of the table the cell belongs to.
    pub table: String,
    /// The row key (first cell of the row).
    pub row: String,
    /// The column header.
    pub column: String,
    /// Baseline cell text.
    pub baseline: String,
    /// Fresh cell text.
    pub fresh: String,
}

/// The outcome of a gate comparison.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Cells slower than the thresholds allow.
    pub regressions: Vec<Regression>,
    /// `(us)` and `(%)` cells beyond their SLO band.
    pub slo_violations: Vec<GatedCell>,
    /// `(=)` cells that differ at all — determinism failures.
    pub exact_mismatches: Vec<GatedCell>,
    /// Baseline tables or rows the fresh run no longer produces.
    pub missing: Vec<String>,
    /// Gated cells compared (all column kinds).
    pub compared_cells: usize,
    /// Gated-column cells skipped because one side is non-numeric (e.g.
    /// `"> skipped"`). Ungated columns are not counted either way.
    pub skipped_cells: usize,
}

impl GateReport {
    /// Did the fresh run pass the gate?
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
            && self.slo_violations.is_empty()
            && self.exact_mismatches.is_empty()
            && self.missing.is_empty()
    }

    /// A human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench gate: {} gated cell(s) compared, {} skipped\n",
            self.compared_cells, self.skipped_cells
        ));
        for missing in &self.missing {
            out.push_str(&format!("  MISSING  {missing}\n"));
        }
        for r in &self.regressions {
            let ratio = if r.baseline_seconds > 0.0 {
                format!("{:.2}x", r.ratio())
            } else {
                "zero baseline".to_string()
            };
            out.push_str(&format!(
                "  SLOWER   {} / {} / {}: {:.3}s -> {:.3}s ({ratio})\n",
                r.table, r.row, r.column, r.baseline_seconds, r.fresh_seconds,
            ));
        }
        for v in &self.slo_violations {
            out.push_str(&format!(
                "  OVER-SLO {} / {} / {}: {} -> {}\n",
                v.table, v.row, v.column, v.baseline, v.fresh,
            ));
        }
        for v in &self.exact_mismatches {
            out.push_str(&format!(
                "  DIFFERS  {} / {} / {}: {:?} -> {:?} (must be byte-identical)\n",
                v.table, v.row, v.column, v.baseline, v.fresh,
            ));
        }
        if self.passed() {
            out.push_str("  PASS: no regression beyond the thresholds\n");
        } else {
            out.push_str("  FAIL\n");
        }
        out
    }
}

/// How a column's cells are compared, keyed by its header suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColumnKind {
    /// `(s)` — wall-clock seconds, relative tolerance + absolute floor.
    Seconds,
    /// `(us)` — latency-SLO microseconds.
    Micros,
    /// `(%)` — percentage points, absolute slack, regressions only.
    Percent,
    /// `(=)` — byte-exact.
    Exact,
    /// `(x)` — in-run ratio, relative tolerance only.
    Ratio,
    /// Anything else: not compared.
    Ignored,
}

fn column_kind(header: &str) -> ColumnKind {
    // `(us)` must be checked before `(s)` would ever match it — it does
    // not (the literal suffix differs), but keep the specific cases first
    // anyway so a future suffix cannot shadow another.
    if header.ends_with("(us)") {
        ColumnKind::Micros
    } else if header.ends_with("(s)") {
        ColumnKind::Seconds
    } else if header.ends_with("(%)") {
        ColumnKind::Percent
    } else if header.ends_with("(=)") {
        ColumnKind::Exact
    } else if header.ends_with("(x)") {
        ColumnKind::Ratio
    } else {
        ColumnKind::Ignored
    }
}

/// Is this a wall-clock column the gate should compare?
fn is_time_column(header: &str) -> bool {
    column_kind(header) == ColumnKind::Seconds
}

/// Compare a fresh run against the baseline.
pub fn compare(baseline: &[Table], fresh: &[Table], config: GateConfig) -> GateReport {
    let mut report = GateReport::default();
    for base_table in baseline {
        let Some(fresh_table) = fresh.iter().find(|t| t.title == base_table.title) else {
            report.missing.push(format!("table {:?}", base_table.title));
            continue;
        };
        // A baseline gated column the fresh run no longer has is as loud a
        // failure as a missing row: a renamed header must not silently
        // disable comparison for its whole column.
        for header in &base_table.headers {
            if column_kind(header) != ColumnKind::Ignored
                && !fresh_table.headers.iter().any(|h| h == header)
            {
                report
                    .missing
                    .push(format!("column {header:?} of table {:?}", base_table.title));
            }
        }
        for base_row in &base_table.rows {
            let Some(row_key) = base_row.first() else {
                continue;
            };
            let Some(fresh_row) = fresh_table.rows.iter().find(|r| r.first() == Some(row_key))
            else {
                report
                    .missing
                    .push(format!("row {row_key:?} of table {:?}", base_table.title));
                continue;
            };
            for (column_index, header) in base_table.headers.iter().enumerate() {
                let kind = column_kind(header);
                if kind == ColumnKind::Ignored {
                    continue;
                }
                let Some(fresh_index) = fresh_table.headers.iter().position(|h| h == header) else {
                    // Reported once per table above.
                    continue;
                };
                let Some((base_cell, fresh_cell)) =
                    base_row.get(column_index).zip(fresh_row.get(fresh_index))
                else {
                    report.skipped_cells += 1;
                    continue;
                };
                if kind == ColumnKind::Exact {
                    report.compared_cells += 1;
                    if base_cell != fresh_cell {
                        report.exact_mismatches.push(GatedCell {
                            table: base_table.title.clone(),
                            row: row_key.clone(),
                            column: header.clone(),
                            baseline: base_cell.clone(),
                            fresh: fresh_cell.clone(),
                        });
                    }
                    continue;
                }
                let number = |cell: &String| {
                    let text = cell.trim();
                    let text = match kind {
                        ColumnKind::Ratio => text.strip_suffix('x')?,
                        _ => text,
                    };
                    text.parse::<f64>().ok()
                };
                let parsed = number(base_cell).zip(number(fresh_cell));
                let Some((baseline_value, fresh_value)) = parsed else {
                    report.skipped_cells += 1;
                    continue;
                };
                report.compared_cells += 1;
                match kind {
                    ColumnKind::Seconds => {
                        // A zero baseline means "below the timer's
                        // resolution" — the relative tolerance is
                        // meaningless there (any positive value exceeds
                        // 0 × 1.25), so such cells only regress past a
                        // much larger absolute ceiling.
                        let regressed = if baseline_value <= 0.0 {
                            fresh_value > config.zero_baseline_ceiling_seconds
                        } else {
                            let over_ratio =
                                fresh_value > baseline_value * (1.0 + config.tolerance);
                            let over_floor =
                                fresh_value - baseline_value > config.min_slowdown_seconds;
                            over_ratio && over_floor
                        };
                        if regressed {
                            report.regressions.push(Regression {
                                table: base_table.title.clone(),
                                row: row_key.clone(),
                                column: header.clone(),
                                baseline_seconds: baseline_value,
                                fresh_seconds: fresh_value,
                            });
                        }
                    }
                    ColumnKind::Micros | ColumnKind::Percent | ColumnKind::Ratio => {
                        let ceiling = match kind {
                            // One formula covers zero baselines too: the
                            // absolute floor alone bounds them.
                            ColumnKind::Micros => {
                                baseline_value * (1.0 + config.slo_tolerance)
                                    + config.slo_floor_micros
                            }
                            ColumnKind::Ratio => baseline_value * (1.0 + config.tolerance),
                            _ => baseline_value + config.percent_slack,
                        };
                        if fresh_value > ceiling {
                            report.slo_violations.push(GatedCell {
                                table: base_table.title.clone(),
                                row: row_key.clone(),
                                column: header.clone(),
                                baseline: base_cell.clone(),
                                fresh: fresh_cell.clone(),
                            });
                        }
                    }
                    ColumnKind::Exact | ColumnKind::Ignored => unreachable!("handled above"),
                }
            }
        }
    }
    report
}

/// Reduce several runs of the same experiment set to one table set of
/// per-cell medians. Wall-clock `(s)` cells are medianed directly; derived
/// ratio cells (`"2.08x"`) are medianed over each run's *own consistent*
/// ratio, so the emitted document never mixes one run's ratio with another
/// run's times. Cells that are numeric in no or only some runs (e.g.
/// `"> skipped"`) stay as the first run produced them. Runs are matched
/// positionally — they come from the same binary executing the same targets
/// back to back.
pub fn median_tables(runs: &[Vec<Table>]) -> Vec<Table> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    let mut out = first.clone();
    for (table_index, table) in out.iter_mut().enumerate() {
        for (row_index, row) in table.rows.iter_mut().enumerate() {
            for (cell_index, cell) in row.iter_mut().enumerate() {
                let is_ratio_cell = cell.ends_with('x') && !cell.is_empty();
                match table.headers.get(cell_index) {
                    Some(h) if is_time_column(h) => {}
                    Some(_) if is_ratio_cell => {}
                    _ => continue,
                }
                let parse = |text: &str| {
                    let text = text.trim();
                    text.strip_suffix('x').unwrap_or(text).parse::<f64>().ok()
                };
                let mut values: Vec<f64> = runs
                    .iter()
                    .filter_map(|run| {
                        parse(run.get(table_index)?.rows.get(row_index)?.get(cell_index)?)
                    })
                    .collect();
                if values.len() != runs.len() {
                    continue;
                }
                values.sort_by(f64::total_cmp);
                let median = values[values.len() / 2];
                *cell = if is_ratio_cell {
                    format!("{median:.2}x")
                } else {
                    format!("{median:.3}")
                };
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(title: &str, rows: &[(&str, &str)]) -> Table {
        let mut t = Table::new(title, &["m", "BFS(s)", "speedup"]);
        for (key, time) in rows {
            t.push_row(vec![key.to_string(), time.to_string(), "2.00x".to_string()]);
        }
        t
    }

    #[test]
    fn identical_runs_pass() {
        let baseline = vec![table("T", &[("3", "0.100"), ("6", "0.500")])];
        let report = compare(&baseline, &baseline, GateConfig::default());
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.compared_cells, 2);
        // The speedup column is not a wall-clock column and is not counted
        // either way.
        assert_eq!(report.skipped_cells, 0);
    }

    /// The acceptance self-test: a synthetic 2x slowdown must fail the gate.
    #[test]
    fn synthetic_2x_slowdown_fails() {
        let baseline = vec![table("T", &[("3", "0.100"), ("6", "0.500")])];
        let fresh = vec![table("T", &[("3", "0.200"), ("6", "1.000")])];
        let report = compare(&baseline, &fresh, GateConfig::default());
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 2);
        assert!((report.regressions[0].ratio() - 2.0).abs() < 1e-9);
        assert!(report.render().contains("SLOWER"));
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn speedups_and_small_absolute_noise_are_tolerated() {
        let baseline = vec![table("T", &[("fast", "0.010"), ("slow", "1.000")])];
        // 3x on a 10 ms cell (under the 50 ms floor), −50% on the slow cell.
        let fresh = vec![table("T", &[("fast", "0.030"), ("slow", "0.500")])];
        let report = compare(&baseline, &fresh, GateConfig::default());
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn just_over_and_just_under_the_tolerance() {
        let baseline = vec![table("T", &[("a", "1.000")])];
        let under = vec![table("T", &[("a", "1.240")])];
        assert!(compare(&baseline, &under, GateConfig::default()).passed());
        let over = vec![table("T", &[("a", "1.260")])];
        assert!(!compare(&baseline, &over, GateConfig::default()).passed());
    }

    #[test]
    fn non_numeric_cells_are_skipped_not_failed() {
        let baseline = vec![table("T", &[("9", "> skipped")])];
        let fresh = vec![table("T", &[("9", "123.0")])];
        let report = compare(&baseline, &fresh, GateConfig::default());
        assert!(report.passed());
        assert_eq!(report.skipped_cells, 1);
        assert_eq!(report.compared_cells, 0);
    }

    #[test]
    fn renamed_time_column_fails_instead_of_silently_skipping() {
        let baseline = vec![table("T", &[("3", "0.100")])];
        let mut renamed = Table::new("T", &["m", "BFS wall(s)", "speedup"]);
        renamed.push_row(vec!["3".into(), "9.999".into(), "2.00x".into()]);
        let report = compare(&baseline, &[renamed], GateConfig::default());
        assert!(!report.passed());
        assert_eq!(report.missing.len(), 1, "{:?}", report.missing);
        assert!(report.missing[0].contains("column"), "{:?}", report.missing);
        assert_eq!(report.compared_cells, 0);
    }

    #[test]
    fn zero_baselines_use_the_absolute_ceiling_not_the_ratio() {
        let baseline = vec![table("T", &[("3", "0.000")])];
        // 51 ms of noise against a zero baseline: tolerated.
        let noisy = vec![table("T", &[("3", "0.051")])];
        let report = compare(&baseline, &noisy, GateConfig::default());
        assert!(report.passed(), "{}", report.render());
        // A genuine blowup past the ceiling still fails, and renders
        // without a divide-by-zero ratio.
        let blowup = vec![table("T", &[("3", "0.900")])];
        let report = compare(&baseline, &blowup, GateConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("zero baseline"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn missing_tables_and_rows_fail_loudly() {
        let baseline = vec![
            table("kept", &[("3", "0.100"), ("6", "0.200")]),
            table("dropped", &[("3", "0.100")]),
        ];
        let fresh = vec![table("kept", &[("3", "0.100")])];
        let report = compare(&baseline, &fresh, GateConfig::default());
        assert!(!report.passed());
        assert_eq!(report.missing.len(), 2, "{:?}", report.missing);
        assert!(report.render().contains("MISSING"));
    }

    fn load_table(hash: &str, p99: &str, rate: &str) -> Table {
        let mut t = Table::new("L", &["run", "schedule_hash(=)", "p99(us)", "shed_rate(%)"]);
        t.push_row(vec!["totals".into(), hash.into(), p99.into(), rate.into()]);
        t
    }

    #[test]
    fn slo_columns_allow_wide_noise_but_catch_blowups() {
        let baseline = vec![load_table("abc", "1000", "40.00")];
        // 2x the baseline plus the 20 ms floor is still within the band.
        let noisy = vec![load_table("abc", "21900", "40.00")];
        let report = compare(&baseline, &noisy, GateConfig::default());
        assert!(report.passed(), "{}", report.render());
        // Past the band: an SLO violation, not a (s)-style regression.
        let blown = vec![load_table("abc", "22100", "40.00")];
        let report = compare(&baseline, &blown, GateConfig::default());
        assert!(!report.passed());
        assert_eq!(report.slo_violations.len(), 1);
        assert!(report.regressions.is_empty());
        assert!(report.render().contains("OVER-SLO"));
    }

    #[test]
    fn exact_columns_fail_on_any_difference() {
        let baseline = vec![load_table("abc", "1000", "40.00")];
        let report = compare(
            &baseline,
            &[load_table("abd", "1000", "40.00")],
            GateConfig::default(),
        );
        assert!(!report.passed());
        assert_eq!(report.exact_mismatches.len(), 1);
        assert_eq!(report.exact_mismatches[0].column, "schedule_hash(=)");
        assert!(report.render().contains("DIFFERS"));
    }

    #[test]
    fn percent_columns_have_absolute_slack_and_ignore_improvements() {
        let baseline = vec![load_table("abc", "1000", "40.00")];
        // +4.9 points and a large drop both pass; +5.1 points fails.
        for rate in ["44.90", "10.00"] {
            let report = compare(
                &baseline,
                &[load_table("abc", "1000", rate)],
                GateConfig::default(),
            );
            assert!(report.passed(), "rate {rate}: {}", report.render());
        }
        let report = compare(
            &baseline,
            &[load_table("abc", "1000", "45.10")],
            GateConfig::default(),
        );
        assert!(!report.passed());
        assert_eq!(report.slo_violations.len(), 1);
    }

    #[test]
    fn ratio_columns_hold_the_relative_tolerance_with_no_floor() {
        let ratios = |cell: &str| {
            let mut t = Table::new("S", &["workload", "BFS(s)", "sharded@1/BFS(x)", "ratio"]);
            t.push_row(vec![
                "l=3".into(),
                "0.010".into(),
                cell.into(),
                "9.99x".into(),
            ]);
            vec![t]
        };
        // 25% over 1.08 is 1.35: at it and under pass, over fails — on a
        // 10 ms cell no `(s)` floor would ever let fail. The plain `ratio`
        // column stays ungated.
        for fresh in ["0.90x", "1.08x", "1.35x"] {
            let report = compare(&ratios("1.08x"), &ratios(fresh), GateConfig::default());
            assert!(report.passed(), "{fresh}: {}", report.render());
            assert_eq!(report.compared_cells, 2);
        }
        let report = compare(&ratios("1.08x"), &ratios("1.52x"), GateConfig::default());
        assert_eq!(report.slo_violations.len(), 1, "{}", report.render());
        assert_eq!(report.slo_violations[0].column, "sharded@1/BFS(x)");
        // A cell that is not a ratio is skipped, not misread as one.
        let report = compare(&ratios("1.08x"), &ratios("1.08"), GateConfig::default());
        assert!(report.passed() && report.skipped_cells == 1);
    }

    #[test]
    fn a_renamed_exact_column_is_missing_not_ignored() {
        let baseline = vec![load_table("abc", "1000", "40.00")];
        let mut renamed = Table::new("L", &["run", "hash(=)", "p99(us)", "shed_rate(%)"]);
        renamed.push_row(vec![
            "totals".into(),
            "abc".into(),
            "1000".into(),
            "40.00".into(),
        ]);
        let report = compare(&baseline, &[renamed], GateConfig::default());
        assert!(!report.passed());
        assert!(
            report.missing[0].contains("schedule_hash(=)"),
            "{:?}",
            report.missing
        );
    }

    #[test]
    fn median_absorbs_one_noisy_run() {
        let runs = vec![
            vec![table("T", &[("3", "0.100")])],
            vec![table("T", &[("3", "9.000")])], // the noisy outlier
            vec![table("T", &[("3", "0.110")])],
        ];
        let median = median_tables(&runs);
        assert_eq!(median[0].cell(0, "BFS(s)"), Some("0.110"));
        // Derived ratio columns are medianed over per-run ratios too, so
        // the document never pairs run 1's ratio with run 3's times.
        assert_eq!(median[0].cell(0, "speedup"), Some("2.00x"));

        let baseline = vec![table("T", &[("3", "0.100")])];
        assert!(compare(&baseline, &median, GateConfig::default()).passed());
    }

    #[test]
    fn median_of_ratio_cells_is_taken_per_run() {
        let mut runs = Vec::new();
        for ratio in ["2.50x", "1.90x", "2.10x"] {
            let mut t = Table::new("T", &["m", "BFS(s)", "speedup"]);
            t.push_row(vec!["3".into(), "0.100".into(), ratio.into()]);
            runs.push(vec![t]);
        }
        let median = median_tables(&runs);
        assert_eq!(median[0].cell(0, "speedup"), Some("2.10x"));
    }

    #[test]
    fn median_keeps_non_numeric_cells_from_the_first_run() {
        let mut skipped = table("T", &[("9", "> skipped")]);
        skipped.push_note("note");
        let runs = vec![vec![skipped.clone()], vec![skipped.clone()], vec![skipped]];
        let median = median_tables(&runs);
        assert_eq!(median[0].cell(0, "BFS(s)"), Some("> skipped"));
        assert!(median_tables(&[]).is_empty());
    }
}
