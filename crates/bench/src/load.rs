//! Deterministic open-loop load generation against the
//! [`QueryEngine`].
//!
//! The paper's service workload is sustained, skewed traffic from many
//! tenants — not the one-shot solves the rest of this crate measures. This
//! module drives that shape reproducibly:
//!
//! * The **schedule** — arrival times, query templates, tenant and
//!   priority of every offered query — is a pure function of the seed:
//!   exponential inter-arrivals and Zipf-distributed template picks
//!   ([`bsc_corpus::synthetic::ZipfSampler`]) both draw from one
//!   [`DetRng`]. [`LoadSchedule::fingerprint`] hashes the whole schedule
//!   (FNV-1a) so a run can *prove* it replayed the same offered load.
//! * **Open-loop** means arrivals do not wait for completions: the
//!   dispatcher submits each query at its scheduled time via
//!   [`try_submit_at`](bsc_service::engine::QueryEngine::try_submit_at)
//!   whether or not the engine has caught up, which is what makes queue
//!   waits and shedding visible at all (a closed loop self-throttles).
//! * Quota decisions are replayed against the **schedule clock**, not the
//!   wall clock: `try_submit_at` refills tenant token buckets from the
//!   scheduled arrival time, so the set of quota-shed queries is identical
//!   on every run of the same seed — CI gates on it byte-exactly.
//!   Queue-full sheds still depend on real worker speed; they are reported
//!   separately and gated only with slack.
//!
//! The report comes out as [`Table`]s whose column suffixes tell the gate
//! how to compare them: `(us)` latency-SLO columns, `(%)` rate columns
//! with absolute slack, `(=)` byte-exact columns (see [`crate::gate`]).

use std::time::{Duration, Instant};

use bsc_core::error::BscError;
use bsc_core::problem::StableClusterSpec;
use bsc_core::solver::{AlgorithmKind, QueryPriority, SolverOptions};
use bsc_corpus::synthetic::ZipfSampler;
use bsc_service::engine::{EngineConfig, QueryEngine, QueryRequest, QueryTicket, TenantQuota};
use bsc_util::rng::DetRng;

use crate::report::Table;
use crate::workloads;

/// Configuration of one load run. Every knob participates in the schedule
/// fingerprint, so two runs compare only when their configs match.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Mean offered arrival rate, queries per second.
    pub qps: u64,
    /// Length of the arrival schedule in milliseconds.
    pub duration_millis: u64,
    /// Number of distinct tenants (`t0`, `t1`, ...).
    pub tenants: usize,
    /// RNG seed for the schedule.
    pub seed: u64,
    /// Probability that an offered query rides the high-priority lane.
    pub high_priority_share: f64,
    /// Zipf exponent for template selection (higher = more skew, more
    /// repeats for the solution cache to answer).
    pub zipf_exponent: f64,
    /// Engine worker threads.
    pub workers: usize,
    /// Engine admission-queue capacity.
    pub queue_capacity: usize,
    /// Engine solution-cache capacity (0 disables).
    pub cache_capacity: usize,
    /// Per-tenant token-bucket quota; `None` disables quota shedding.
    pub quota: Option<TenantQuota>,
    /// Synthetic graph shape: `(intervals, nodes_per_interval, out_degree,
    /// gap, seed)` as taken by [`workloads::cluster_graph`].
    pub graph: (usize, u32, u32, u32, u64),
}

impl Default for LoadConfig {
    fn default() -> Self {
        // Sized for CI: ~2 s wall clock, quota sheds dominate (each of the
        // 4 tenants is offered ~50 qps against a 30 qps / burst-10 quota),
        // solves are sub-millisecond so the latency columns measure the
        // service machinery rather than solver work.
        LoadConfig {
            qps: 200,
            duration_millis: 2_000,
            tenants: 4,
            seed: 7,
            high_priority_share: 0.2,
            zipf_exponent: 1.1,
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 32,
            quota: Some(TenantQuota::new(30, 10)),
            graph: (5, 16, 3, 1, 42),
        }
    }
}

impl LoadConfig {
    /// Set the offered rate (queries per second).
    pub fn qps(mut self, qps: u64) -> Self {
        self.qps = qps;
        self
    }

    /// Set the schedule length in milliseconds.
    pub fn duration_millis(mut self, millis: u64) -> Self {
        self.duration_millis = millis;
        self
    }

    /// Set the tenant count.
    pub fn tenants(mut self, tenants: usize) -> Self {
        self.tenants = tenants;
        self
    }

    /// Set the schedule seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the per-tenant quota (`None` disables quota shedding).
    pub fn quota(mut self, quota: Option<TenantQuota>) -> Self {
        self.quota = quota;
        self
    }
}

/// One scheduled arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Scheduled offset from the start of the run, in microseconds.
    pub at_micros: u64,
    /// Index into the template pool.
    pub template: usize,
    /// Tenant index (`t<index>`).
    pub tenant: usize,
    /// Admission lane.
    pub priority: QueryPriority,
}

/// The fully materialised, seed-deterministic schedule of one run.
#[derive(Debug, Clone)]
pub struct LoadSchedule {
    /// Arrivals in non-decreasing `at_micros` order.
    pub arrivals: Vec<Arrival>,
    /// The query templates arrivals index into.
    pub templates: Vec<(AlgorithmKind, StableClusterSpec, usize)>,
}

/// The template pool: a skew-friendly mix of algorithms and specs. Kept
/// deliberately small so Zipf skew produces repeats (the solution cache's
/// hits) while still exercising BFS, DFS, TA, normalized and the auto
/// policy.
fn template_pool() -> Vec<(AlgorithmKind, StableClusterSpec, usize)> {
    vec![
        (AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 5),
        (AlgorithmKind::Bfs, StableClusterSpec::ExactLength(3), 5),
        (AlgorithmKind::Dfs, StableClusterSpec::ExactLength(2), 5),
        (AlgorithmKind::Bfs, StableClusterSpec::FullPaths, 3),
        (AlgorithmKind::Ta, StableClusterSpec::FullPaths, 3),
        (
            AlgorithmKind::Normalized,
            StableClusterSpec::Normalized { l_min: 2 },
            5,
        ),
        (
            AlgorithmKind::Auto { budget_bytes: None },
            StableClusterSpec::ExactLength(4),
            5,
        ),
        (AlgorithmKind::Bfs, StableClusterSpec::ExactLength(5), 2),
    ]
}

impl LoadSchedule {
    /// Build the schedule for `config`: a pure function of the config (the
    /// engine never feeds back into it — that is what keeps runs
    /// reproducible).
    pub fn build(config: &LoadConfig) -> LoadSchedule {
        let templates = template_pool();
        let zipf = ZipfSampler::new(templates.len(), config.zipf_exponent);
        let mut rng = DetRng::seed_from_u64(config.seed);
        let horizon_micros = config.duration_millis * 1_000;
        let mean_gap_micros = 1_000_000.0 / config.qps.max(1) as f64;
        let mut arrivals = Vec::new();
        let mut clock = 0.0f64;
        loop {
            // Exponential inter-arrival: -ln(1-u) * mean. `next_f64` is in
            // [0,1), so 1-u is in (0,1] and the log is finite.
            clock += -(1.0 - rng.next_f64()).ln() * mean_gap_micros;
            let at_micros = clock as u64;
            if at_micros >= horizon_micros {
                break;
            }
            arrivals.push(Arrival {
                at_micros,
                template: zipf.sample(&mut rng),
                tenant: rng.index(config.tenants.max(1)),
                priority: if rng.chance(config.high_priority_share) {
                    QueryPriority::High
                } else {
                    QueryPriority::Normal
                },
            });
        }
        LoadSchedule {
            arrivals,
            templates,
        }
    }

    /// FNV-1a hash over every arrival and the config knobs that shape the
    /// offered load, rendered as 16 hex digits. Two runs with the same
    /// fingerprint offered byte-identical traffic.
    pub fn fingerprint(&self, config: &LoadConfig) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(config.qps);
        mix(config.duration_millis);
        mix(config.tenants as u64);
        mix(config.seed);
        mix(config.high_priority_share.to_bits());
        mix(config.zipf_exponent.to_bits());
        match config.quota {
            None => mix(0),
            Some(quota) => {
                mix(1);
                mix(quota.rate_per_sec);
                mix(quota.burst);
            }
        }
        for arrival in &self.arrivals {
            mix(arrival.at_micros);
            mix(arrival.template as u64);
            mix(arrival.tenant as u64);
            mix(match arrival.priority {
                QueryPriority::High => 1,
                QueryPriority::Normal => 0,
            });
        }
        format!("{hash:016x}")
    }

    /// Materialise one arrival as an engine request.
    fn request(&self, arrival: &Arrival) -> QueryRequest {
        let (algorithm, spec, k) = self.templates[arrival.template];
        QueryRequest::new(algorithm, spec, k).options(
            SolverOptions::default()
                .tenant(Some(format!("t{}", arrival.tenant)))
                .priority(arrival.priority),
        )
    }
}

/// Aggregated outcome of one load run.
#[derive(Debug)]
pub struct LoadReport {
    /// The config the run used.
    pub config: LoadConfig,
    /// Schedule fingerprint (see [`LoadSchedule::fingerprint`]).
    pub schedule_hash: String,
    /// Queries the schedule offered.
    pub offered: u64,
    /// Queries admitted into the engine.
    pub admitted: u64,
    /// Queries shed by tenant quotas (seed-deterministic).
    pub quota_shed: u64,
    /// Queries shed because the admission queue was full (load-dependent).
    pub queue_shed: u64,
    /// Admitted queries that completed with an error.
    pub errors: u64,
    /// Engine-side statistics snapshot taken after every ticket settled.
    pub stats: bsc_service::engine::EngineStats,
}

impl LoadReport {
    /// `sheds / offered` as a percentage (all shed causes).
    pub fn shed_rate_percent(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.quota_shed + self.queue_shed) as f64 * 100.0 / self.offered as f64
    }

    /// Render the run as gate-comparable [`Table`]s (see the module docs
    /// for the column-suffix conventions).
    pub fn tables(&self) -> Vec<Table> {
        let mut quantiles = Table::new(
            "Load: latency quantiles",
            &[
                "metric", "n", "p50(us)", "p95(us)", "p99(us)", "p999(us)", "max(us)",
            ],
        );
        for (name, histogram) in [
            ("queue_wait", &self.stats.queue_wait),
            ("solve", &self.stats.solve),
        ] {
            quantiles.push_row(vec![
                name.to_string(),
                histogram.count().to_string(),
                histogram.p50_micros().to_string(),
                histogram.p95_micros().to_string(),
                histogram.p99_micros().to_string(),
                histogram.p999_micros().to_string(),
                histogram.max_micros().to_string(),
            ]);
        }
        quantiles.push_note(format!(
            "open-loop: qps={} duration={}ms tenants={} seed={}",
            self.config.qps, self.config.duration_millis, self.config.tenants, self.config.seed
        ));

        let mut admission = Table::new(
            "Load: admission",
            &[
                "run",
                "offered(=)",
                "quota_shed(=)",
                "schedule_hash(=)",
                "admitted",
                "queue_shed",
                "shed_rate(%)",
                "errors",
            ],
        );
        admission.push_row(vec![
            "totals".to_string(),
            self.offered.to_string(),
            self.quota_shed.to_string(),
            self.schedule_hash.clone(),
            self.admitted.to_string(),
            self.queue_shed.to_string(),
            format!("{:.2}", self.shed_rate_percent()),
            self.errors.to_string(),
        ]);
        admission.push_note(
            "(=) columns are seed-deterministic and gated byte-exactly; \
             queue_shed depends on real worker speed",
        );

        let mut tenants = Table::new(
            "Load: tenants",
            &["tenant", "submitted(=)", "quota_shed(=)", "admitted"],
        );
        for tenant in &self.stats.tenants {
            tenants.push_row(vec![
                tenant.tenant.clone(),
                tenant.submitted.to_string(),
                tenant.quota_shed.to_string(),
                tenant.admitted.to_string(),
            ]);
        }
        vec![quantiles, admission, tenants]
    }
}

/// Run the load harness: build the schedule, drive it open-loop against a
/// fresh engine, wait for every admitted query to settle, and aggregate.
pub fn run(config: LoadConfig) -> Result<LoadReport, String> {
    let schedule = LoadSchedule::build(&config);
    let schedule_hash = schedule.fingerprint(&config);
    let (m, n, d, g, graph_seed) = config.graph;

    let engine_config = EngineConfig::default()
        .workers(config.workers)
        .queue_capacity(config.queue_capacity)
        .cache_capacity(config.cache_capacity)
        .quota(config.quota);
    let mut engine =
        QueryEngine::new(engine_config).map_err(|e| format!("cannot start engine: {e}"))?;
    engine.install_graph(workloads::cluster_graph(m, n, d, g, graph_seed));

    let mut tickets: Vec<QueryTicket> = Vec::with_capacity(schedule.arrivals.len());
    let mut quota_shed = 0u64;
    let mut queue_shed = 0u64;
    let mut seen_quota_shed = 0u64;
    let start = Instant::now();
    for arrival in &schedule.arrivals {
        // Open-loop pacing: sleep to the scheduled offset, never earlier
        // because of engine behaviour. If the dispatcher itself falls
        // behind (it only builds a request and pushes), it submits late in
        // wall time but the *quota* still sees the scheduled instant.
        let scheduled = Duration::from_micros(arrival.at_micros);
        let elapsed = start.elapsed();
        if scheduled > elapsed {
            std::thread::sleep(scheduled - elapsed);
        }
        match engine.try_submit_at(schedule.request(arrival), arrival.at_micros) {
            Ok(ticket) => tickets.push(ticket),
            Err(BscError::Saturated { .. }) => {
                // Saturated covers both shed causes; the engine's
                // quota_shed counter tells them apart. This dispatcher is
                // the engine's only client, so the counter moves exactly
                // when one of *its* submissions was quota-shed — checked
                // only on the (rare) shed path to keep pacing clean.
                let now = engine.stats().quota_shed;
                if now > seen_quota_shed {
                    seen_quota_shed = now;
                    quota_shed += 1;
                } else {
                    queue_shed += 1;
                }
            }
            Err(e) => return Err(format!("submit failed: {e}")),
        }
    }

    let offered = schedule.arrivals.len() as u64;
    let admitted = tickets.len() as u64;
    let mut errors = 0u64;
    for ticket in tickets {
        if ticket.wait().is_err() {
            errors += 1;
        }
    }
    let stats = engine.stats();
    engine.shutdown();
    Ok(LoadReport {
        config,
        schedule_hash,
        offered,
        admitted,
        quota_shed,
        queue_shed,
        errors,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_deterministic_per_seed() {
        let config = LoadConfig::default().qps(500).duration_millis(200);
        let a = LoadSchedule::build(&config);
        let b = LoadSchedule::build(&config);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.fingerprint(&config), b.fingerprint(&config));
        assert!(!a.arrivals.is_empty());

        let other = LoadSchedule::build(&config.clone().seed(8));
        assert_ne!(
            a.fingerprint(&config),
            other.fingerprint(&config.clone().seed(8))
        );
    }

    #[test]
    fn the_fingerprint_covers_the_config_not_just_the_arrivals() {
        let config = LoadConfig::default().qps(500).duration_millis(200);
        let schedule = LoadSchedule::build(&config);
        let requotaed = config.clone().quota(Some(TenantQuota::new(1, 1)));
        // Same arrivals, different quota: the offered load differs in
        // effect, so the fingerprint must differ.
        assert_ne!(
            schedule.fingerprint(&config),
            schedule.fingerprint(&requotaed)
        );
    }

    #[test]
    fn arrivals_are_ordered_and_bounded() {
        let config = LoadConfig::default().qps(1_000).duration_millis(100);
        let schedule = LoadSchedule::build(&config);
        let horizon = config.duration_millis * 1_000;
        let mut last = 0;
        for arrival in &schedule.arrivals {
            assert!(arrival.at_micros >= last);
            assert!(arrival.at_micros < horizon);
            assert!(arrival.tenant < config.tenants);
            assert!(arrival.template < schedule.templates.len());
            last = arrival.at_micros;
        }
    }

    /// The acceptance property: same seed, same schedule hash, same quota
    /// sheds — end to end through a real engine, twice.
    #[test]
    fn quota_sheds_replay_exactly() {
        let config = LoadConfig::default()
            .qps(400)
            .duration_millis(250)
            .quota(Some(TenantQuota::new(20, 5)));
        let first = run(config.clone()).expect("first run");
        let second = run(config).expect("second run");
        assert_eq!(first.schedule_hash, second.schedule_hash);
        assert_eq!(first.offered, second.offered);
        assert_eq!(first.quota_shed, second.quota_shed);
        assert!(first.quota_shed > 0, "workload must actually shed");
        assert_eq!(first.errors, 0);
        assert_eq!(second.errors, 0);
        // Per-tenant submitted/quota_shed are part of the replay too.
        let per_tenant = |report: &LoadReport| {
            report
                .stats
                .tenants
                .iter()
                .map(|t| (t.tenant.clone(), t.submitted, t.quota_shed))
                .collect::<Vec<_>>()
        };
        assert_eq!(per_tenant(&first), per_tenant(&second));
    }

    #[test]
    fn the_report_renders_gate_comparable_tables() {
        let report = run(LoadConfig::default().qps(300).duration_millis(150)).expect("run");
        let tables = report.tables();
        assert_eq!(tables.len(), 3);
        assert!(tables[0].headers.iter().any(|h| h == "p999(us)"));
        assert_eq!(
            tables[1].cell(0, "schedule_hash(=)"),
            Some(report.schedule_hash.as_str())
        );
        assert_eq!(tables[2].num_rows(), report.config.tenants);
    }
}
