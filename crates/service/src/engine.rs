//! The fixed thread-pool query executor.
//!
//! [`QueryEngine`] is the long-lived heart of `bsc serve`: it owns the
//! current [`GraphSnapshot`] (behind a [`SnapshotCell`]), a fixed pool of
//! worker threads, a bounded two-lane admission queue
//! ([`crate::admission::AdmissionQueue`]) and an epoch-tagged LRU cache of
//! solutions. Queries pin the snapshot current at **admission**, so a
//! snapshot swap mid-stream never blocks, retargets or corrupts an
//! in-flight query — it only means later queries see the newer epoch.
//!
//! Multi-tenant QoS is layered on the same admission seam:
//!
//! * [`SolverOptions::tenant`] attributes each query to a tenant; the engine
//!   keeps per-tenant submitted/admitted/shed counters
//!   ([`EngineStats::tenants`]) and, when [`EngineConfig::quota`] is set,
//!   charges a token-bucket per tenant — exhausted tenants are shed with
//!   [`BscError::Saturated`] *before* they can crowd the queue.
//! * [`SolverOptions::priority`] picks the admission lane; the high lane is
//!   served first subject to the starvation bound documented in
//!   [`crate::admission`]. On a full queue [`QueryEngine::submit`] waits on
//!   the queue's condvar for a slot, until the request's own deadline;
//!   [`QueryEngine::try_submit`] sheds at once.
//!
//! A query is a pure function of `(epoch, query)`, so the solution cache is
//! the one memo for repeats: a worker that reaches a repeat after its first
//! solve was cached — queued behind it or asked later, with or without a
//! cancel token — answers it from the cache (`cached: true`, `solve_micros`
//! 0). With the cache disabled every query solves.
//!
//! The cache is also what a query on a grown graph merges from, and nobody
//! has to say when that may happen: the graphs prove it. Every exact-length
//! answer is cached beside the snapshot it was solved on.
//! [`QueryEngine::install`] keeps those entries when the new graph extends
//! the one it replaces by appends only (a push on a stream) and drops every
//! entry otherwise (a `load`). A later miss on the same key compares the
//! entry's graph with the one it pinned: if the pinned graph extends it by
//! appends only, the query solves — or, on a coordinator, dispatches — only
//! the windows the appends added, each pruned by the cached k-th weight,
//! and merges them with the cached paths ([`bsc_core::delta`]). Every other
//! query builds its solver and solves directly. That comparison, in
//! `execute`, is the only place a merge is decided; `docs/streaming.md` has
//! the rule and the byte-identity argument.
//!
//! Either way execution goes through the same object-safe
//! [`StableClusterSolver`](bsc_core::solver::StableClusterSolver) seam as
//! everything else: any [`AlgorithmKind`] (including `Auto` resolution and
//! sharded solving via [`SolverOptions::shards`]) with per-query
//! [`SolverOptions`]. The determinism invariant therefore carries over — an
//! engine answer is byte-identical to `Pipeline::run` on the same graph —
//! which `tests/query_service.rs` asserts for every algorithm × storage
//! backend × shard count, under concurrent mixed-algorithm storms and
//! across epoch swaps.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bsc_core::cluster_graph::ClusterGraph;
use bsc_core::delta::{solve_windows, Answer, GraphDelta};
use bsc_core::error::{BscError, BscResult};
use bsc_core::problem::StableClusterSpec;
use bsc_core::snapshot::{GraphSnapshot, SnapshotCell};
use bsc_core::solver::{deadline_error, AlgorithmKind, Solution, SolverOptions};
use bsc_util::cancel::CancelToken;
use bsc_util::LatencyHistogram;

use crate::admission::{AdmissionQueue, PushError};
use crate::cache::{CacheStats, SolutionCache};

/// A per-tenant token-bucket admission quota: sustained `rate_per_sec`
/// queries per second with bursts of up to `burst` queries. Integer fields
/// only — the bucket's internal arithmetic runs in micro-tokens (1 query =
/// 1 000 000 micro-tokens, refilled at `rate_per_sec` micro-tokens per
/// microsecond), so accounting is exact and the config stays `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantQuota {
    /// Sustained admissions per second per tenant. Must be ≥ 1.
    pub rate_per_sec: u64,
    /// Bucket capacity: how many queries a tenant can burst above the
    /// sustained rate. Must be ≥ 1.
    pub burst: u64,
}

impl TenantQuota {
    /// A quota of `rate_per_sec` sustained admissions with `burst` headroom.
    pub fn new(rate_per_sec: u64, burst: u64) -> TenantQuota {
        TenantQuota {
            rate_per_sec,
            burst,
        }
    }
}

/// Sizing knobs for a [`QueryEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads in the fixed pool. Must be ≥ 1. See
    /// `docs/service.md` for sizing guidance (workers × per-query shards
    /// should not exceed the machine's cores).
    pub workers: usize,
    /// Capacity of the bounded two-lane admission queue (shared across both
    /// priority lanes). A full queue makes [`QueryEngine::submit`] wait
    /// (until the request's deadline) and rejects
    /// [`QueryEngine::try_submit`] with [`BscError::Saturated`].
    /// Must be ≥ 1.
    pub queue_capacity: usize,
    /// Capacity of the epoch-tagged LRU solution cache (0 disables it).
    pub cache_capacity: usize,
    /// Per-tenant token-bucket quota. `None` (the default) admits every
    /// tenant without metering; `Some` sheds a tenant's above-quota traffic
    /// with [`BscError::Saturated`] at submission, before it occupies a
    /// queue slot. Queries with no [`SolverOptions::tenant`] are never
    /// metered.
    pub quota: Option<TenantQuota>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 64,
            cache_capacity: 128,
            quota: None,
        }
    }
}

impl EngineConfig {
    /// Set the worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the admission-queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the solution-cache capacity.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Set (or clear) the per-tenant admission quota.
    pub fn quota(mut self, quota: Option<TenantQuota>) -> Self {
        self.quota = quota;
        self
    }

    fn validate(&self) -> BscResult<()> {
        if self.workers == 0 {
            return Err(BscError::InvalidConfig(
                "engine workers must be >= 1".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(BscError::InvalidConfig(
                "engine queue capacity must be >= 1".into(),
            ));
        }
        if let Some(quota) = self.quota {
            if quota.rate_per_sec == 0 || quota.burst == 0 {
                return Err(BscError::InvalidConfig(
                    "tenant quota rate and burst must be >= 1".into(),
                ));
            }
        }
        Ok(())
    }
}

/// One query: the problem (spec, `k`), the algorithm that answers it and
/// the deployment-level [`SolverOptions`] — exactly the parameters of
/// [`AlgorithmKind::build_with_options`], so anything the one-shot path can
/// solve, the engine can serve.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Which algorithm answers the query (including `Auto` and, through
    /// [`SolverOptions::shards`], sharded solving).
    pub algorithm: AlgorithmKind,
    /// Which problem to solve.
    pub spec: StableClusterSpec,
    /// Number of result paths.
    pub k: usize,
    /// Per-query deployment options (storage backend, shards, fan-out).
    pub options: SolverOptions,
}

impl QueryRequest {
    /// A request with default options.
    pub fn new(algorithm: AlgorithmKind, spec: StableClusterSpec, k: usize) -> Self {
        QueryRequest {
            algorithm,
            spec,
            k,
            options: SolverOptions::default(),
        }
    }

    /// Replace the options.
    pub fn options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// The canonical cache key: every parameter that can change the answer
    /// (or its cost profile), rendered through the same stable textual
    /// forms the CLI and protocol use.
    pub fn cache_key(&self) -> String {
        // `cancel`, `tenant` and `priority` are deliberately excluded: a
        // deadline changes whether the answer arrives, a tenant changes who
        // is billed and a priority changes how long the query waits — never
        // what the answer is — so such queries share cache entries.
        let SolverOptions {
            storage,
            shards,
            fanout,
            cancel: _,
            tenant: _,
            priority: _,
        } = &self.options;
        let fanout = fanout
            .as_ref()
            .map_or_else(|| "none".to_string(), |f| f.to_string());
        format!(
            "alg={}|spec={}|k={}|storage={storage}|shards={shards}|fanout={fanout}",
            self.algorithm, self.spec, self.k
        )
    }

    pub(crate) fn validate(&self) -> BscResult<()> {
        if self.k == 0 {
            return Err(BscError::InvalidConfig(
                "k must be positive: a top-0 query returns nothing".into(),
            ));
        }
        if self.options.shards == 0 {
            return Err(BscError::InvalidConfig(
                "shards must be >= 1 (1 = unsharded)".into(),
            ));
        }
        self.algorithm.check_spec(self.spec)
    }

    /// Whether building this query's solver the direct way succeeds on a
    /// graph of `num_intervals` intervals: sharded, every window is
    /// full-length for its inner algorithm; unsharded, the algorithm must
    /// support the spec as asked (TA's full-paths-only rule). Moving a
    /// query's windows elsewhere — the delta path, a coordinator's default
    /// fan-out — is only allowed when this holds, so the direct build stays
    /// the one author of "unsupported request" errors.
    pub(crate) fn passes_the_direct_build(&self, num_intervals: usize) -> bool {
        self.options.shards > 1 || self.algorithm.supports(self.spec, num_intervals)
    }
}

/// A finished query: the [`Solution`] plus where and how it was computed.
///
/// `solution.stats.queue_wait_micros` carries the admission-queue wait and
/// `solution.stats.solve_micros` the solve wall-clock (0 for cache hits —
/// nothing was solved).
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The solver output; `paths` are byte-identical to the one-shot solve
    /// of the same request against the same graph.
    pub solution: Solution,
    /// Epoch of the snapshot the query was answered against (pinned at
    /// admission).
    pub epoch: u64,
    /// Whether the answer came from the solution cache.
    pub cached: bool,
}

/// Handle to a submitted query; redeem it with [`QueryTicket::wait`].
#[derive(Debug)]
pub struct QueryTicket {
    receiver: mpsc::Receiver<BscResult<QueryResponse>>,
}

impl QueryTicket {
    /// Block until the query finishes.
    pub fn wait(self) -> BscResult<QueryResponse> {
        self.receiver.recv().unwrap_or(Err(BscError::Shutdown))
    }
}

struct Job {
    request: QueryRequest,
    snapshot: GraphSnapshot,
    /// The request's cache key, computed once at admission and read by the
    /// worker's cache lookup and put.
    key: String,
    enqueued: Instant,
    reply: mpsc::Sender<BscResult<QueryResponse>>,
}

/// One tenant's admission counters, as reported by [`EngineStats::tenants`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant name ([`SolverOptions::tenant`]).
    pub tenant: String,
    /// Queries this tenant submitted (admitted or not).
    pub submitted: u64,
    /// Queries that made it into the admission queue.
    pub admitted: u64,
    /// Queries shed by the tenant's token-bucket quota (a subset of
    /// `submitted - admitted`; the rest of the gap is queue-full shedding
    /// and admission deadline hits).
    pub quota_shed: u64,
}

/// Mutable per-tenant bookkeeping: counters plus the token bucket.
struct TenantState {
    submitted: u64,
    admitted: u64,
    quota_shed: u64,
    /// Remaining budget in micro-tokens (1 admission = 1 000 000).
    tokens_micro: u64,
    /// Engine-relative timestamp (µs) of the last refill.
    last_micros: u64,
}

/// Aggregate engine counters and latency distributions, as returned by
/// [`QueryEngine::stats`].
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Current snapshot epoch.
    pub epoch: u64,
    /// Queries answered: every one is a cache hit, a solve or an error, so
    /// `queries == cache.hits + solve.count() + errors`.
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Cache counters.
    pub cache: CacheStats,
    /// Queries that ended in [`BscError::DeadlineExceeded`] — at admission,
    /// in the queue, or mid-solve. A subset of `errors`.
    pub deadline_hits: u64,
    /// Queries whose budget was already gone when a worker dequeued them:
    /// failed fast without solving. A subset of `deadline_hits`.
    pub queue_expired: u64,
    /// In-flight queries cancelled by [`QueryEngine::shutdown`].
    pub cancelled: u64,
    /// Queries shed by a tenant token-bucket quota (summed over tenants).
    /// A subset of neither `queries` nor `errors` — shed queries never
    /// reach a worker.
    pub quota_shed: u64,
    /// Per-tenant admission counters, sorted by tenant name. Tenants
    /// appear here whenever their queries carry
    /// [`SolverOptions::tenant`], with or without a configured quota.
    pub tenants: Vec<TenantStats>,
    /// Distribution of admission-queue waits.
    pub queue_wait: LatencyHistogram,
    /// Distribution of solve times (cache hits excluded — only actual
    /// window scans).
    pub solve: LatencyHistogram,
}

#[derive(Default)]
struct Metrics {
    queries: u64,
    errors: u64,
    deadline_hits: u64,
    queue_expired: u64,
    cancelled: u64,
    quota_shed: u64,
    queue_wait: LatencyHistogram,
    solve: LatencyHistogram,
}

struct Shared {
    /// Also the lock [`QueryEngine::install`] swaps a snapshot in under.
    cache: Mutex<SolutionCache>,
    metrics: Mutex<Metrics>,
    /// Per-tenant counters and token buckets, keyed by tenant name.
    tenants: Mutex<HashMap<String, TenantState>>,
    /// Queries admitted but not yet answered (gauge).
    in_flight: AtomicU64,
    /// Cancel tokens of the queries being solved *right now*, so shutdown
    /// can trip every one of them. Tokens register on solve start and
    /// deregister (by identity) when the solve settles.
    solving: Mutex<Vec<CancelToken>>,
    /// Set by shutdown: workers fail queued-but-unstarted jobs fast with
    /// [`BscError::Shutdown`] instead of solving into the void.
    shutting_down: AtomicBool,
}

/// The long-lived query executor. See the module docs.
pub struct QueryEngine {
    cell: Arc<SnapshotCell>,
    shared: Arc<Shared>,
    queue: Arc<AdmissionQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
    config: EngineConfig,
    /// The engine's time origin: tenant token buckets are refilled against
    /// microseconds elapsed since this instant, so a harness driving
    /// [`QueryEngine::try_submit_at`] with its own schedule gets the exact
    /// same quota decisions on every run.
    origin: Instant,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("config", &self.config)
            .field("epoch", &self.cell.epoch())
            .field("shut_down", &self.queue.is_closed())
            .finish()
    }
}

impl QueryEngine {
    /// Start an engine over an empty epoch-0 graph.
    pub fn new(config: EngineConfig) -> BscResult<QueryEngine> {
        config.validate()?;
        let queue = Arc::new(AdmissionQueue::new(config.queue_capacity));
        let shared = Arc::new(Shared {
            cache: Mutex::new(SolutionCache::new(config.cache_capacity)),
            metrics: Mutex::new(Metrics::default()),
            tenants: Mutex::new(HashMap::new()),
            in_flight: AtomicU64::new(0),
            solving: Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bsc-query-{i}"))
                    .spawn(move || worker_loop(&queue, &shared))
                    .expect("spawn query worker") // bsc:allow(panic-in-lib) -- engine construction, before any query is accepted; no caller can proceed without workers
            })
            .collect();
        Ok(QueryEngine {
            cell: Arc::new(SnapshotCell::empty()),
            shared,
            queue,
            workers,
            config,
            origin: Instant::now(),
        })
    }

    /// The engine's sizing configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The cell queries pin their snapshot from. Publish through
    /// [`QueryEngine::install`], which also advances the solution cache.
    pub fn snapshot_cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }

    /// The current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Install a new snapshot: swap it into the cell (assigning the next
    /// epoch) and advance the solution cache. If the new graph extends the
    /// one it replaces by appends only (`GraphDelta::between`: `O(m)`
    /// pointer tests on a stream; after a `load`, content up to the first
    /// interval that differs), the entries that hold a snapshot are carried
    /// forward as answers to merge from; otherwise every entry is dropped.
    /// The swap and the advance happen under the cache lock, so no answer
    /// is cached between them. In-flight queries keep the snapshot they
    /// pinned at admission. Returns the installed snapshot.
    pub fn install(&self, snapshot: GraphSnapshot) -> GraphSnapshot {
        let mut cache = self.shared.cache.lock().unwrap_or_else(|p| p.into_inner());
        let replaced = self.cell.load();
        let installed = self.cell.install(snapshot);
        cache.advance_epoch(installed.epoch(), || {
            GraphDelta::between(&replaced, &installed).only_appends()
        });
        installed
    }

    /// Convenience wrapper over [`QueryEngine::install`] for a bare graph.
    pub fn install_graph(&self, graph: ClusterGraph) -> GraphSnapshot {
        self.install(GraphSnapshot::new(graph))
    }

    /// The same as [`QueryEngine::install`], which finds out for itself
    /// whether a snapshot appends; kept so that existing callers compile.
    pub fn install_incremental(&self, snapshot: GraphSnapshot) -> GraphSnapshot {
        self.install(snapshot)
    }

    /// Admit a query, waiting while the bounded queue is full: until the
    /// request's own deadline ([`CancelToken::deadline`]) when its token has
    /// one, so the same budget covers queueing and solving, and as long as
    /// it takes otherwise. The snapshot is pinned now, not when a worker
    /// picks the job up.
    ///
    /// The wait sleeps on the queue's condvar and ends when a worker frees a
    /// slot. A request still outside the queue at its deadline counts as a
    /// deadline hit that expired in the queue and is reported as
    /// [`BscError::DeadlineExceeded`]. A request *without* a deadline may
    /// wait indefinitely if every worker is stuck on a long solve — in a
    /// server loop that wedges the connection handler, so latency-sensitive
    /// callers give their queries a deadline or use
    /// [`QueryEngine::try_submit`] (fail fast with [`BscError::Saturated`]).
    /// A tenant over its quota is shed with [`BscError::Saturated`]
    /// immediately — quota exhaustion never waits.
    pub fn submit(&self, request: QueryRequest) -> BscResult<QueryTicket> {
        self.charge_quota(&request, self.now_micros())?;
        self.enqueue(request, true)
    }

    /// Admit a query without blocking: a full queue — or an exhausted
    /// tenant quota — is reported as [`BscError::Saturated`]
    /// (back-pressure to shed load instead of buffering unboundedly).
    pub fn try_submit(&self, request: QueryRequest) -> BscResult<QueryTicket> {
        self.try_submit_at(request, self.now_micros())
    }

    /// [`QueryEngine::try_submit`] against an explicit engine-relative
    /// clock reading (microseconds since engine start). Token buckets
    /// refill from `now_micros`, so a caller replaying a fixed arrival
    /// schedule — the `bsc_bench::load` harness — gets identical
    /// quota-shed decisions on every run, independent of wall-clock
    /// jitter. Readings that go backwards are treated as "no time passed"
    /// (no refill, no regression of the bucket clock).
    pub fn try_submit_at(&self, request: QueryRequest, now_micros: u64) -> BscResult<QueryTicket> {
        self.charge_quota(&request, now_micros)?;
        self.enqueue(request, false)
    }

    /// Validate and pin `request`, then push it: waiting for a slot until
    /// the request's deadline when `wait`, else not at all.
    fn enqueue(&self, request: QueryRequest, wait: bool) -> BscResult<QueryTicket> {
        let (job, ticket) = self.admit(request)?;
        let options = &job.request.options;
        let (priority, tenant) = (options.priority, options.tenant.clone());
        let deadline = match wait {
            true => options.cancel.as_ref().and_then(CancelToken::deadline),
            false => Some(Instant::now()),
        };
        // Count the job before it becomes visible to workers — a worker
        // could otherwise dequeue, solve and decrement first, wrapping the
        // gauge below zero.
        self.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        let error = match self.queue.push_until(job, priority, deadline) {
            Ok(()) => {
                self.record_admitted(tenant.as_deref());
                return Ok(ticket);
            }
            Err(PushError::Closed(_)) => BscError::Shutdown,
            // A wait ends full only at the request's deadline.
            Err(PushError::Full(job)) => match job.request.options.cancel.filter(|_| wait) {
                Some(token) => {
                    let mut metrics = self
                        .shared
                        .metrics
                        .lock()
                        .unwrap_or_else(|p| p.into_inner());
                    metrics.deadline_hits += 1;
                    metrics.queue_expired += 1;
                    deadline_error(&token)
                }
                None => BscError::Saturated {
                    capacity: self.config.queue_capacity,
                },
            },
        };
        self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        Err(error)
    }

    /// Submit and wait — the blocking convenience path.
    pub fn query(&self, request: QueryRequest) -> BscResult<QueryResponse> {
        self.submit(request)?.wait()
    }

    /// Aggregate counters and latency distributions since start.
    pub fn stats(&self) -> EngineStats {
        let cache = self
            .shared
            .cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .stats();
        let mut tenants: Vec<TenantStats> = self
            .shared
            .tenants
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(tenant, state)| TenantStats {
                tenant: tenant.clone(),
                submitted: state.submitted,
                admitted: state.admitted,
                quota_shed: state.quota_shed,
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let metrics = self
            .shared
            .metrics
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        EngineStats {
            workers: self.config.workers,
            queue_capacity: self.config.queue_capacity,
            epoch: self.cell.epoch(),
            queries: metrics.queries,
            errors: metrics.errors,
            cache,
            deadline_hits: metrics.deadline_hits,
            queue_expired: metrics.queue_expired,
            cancelled: metrics.cancelled,
            quota_shed: metrics.quota_shed,
            tenants,
            queue_wait: metrics.queue_wait.clone(),
            solve: metrics.solve.clone(),
        }
    }

    /// Queries admitted but not yet answered.
    pub fn in_flight(&self) -> u64 {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Stop accepting queries and join the workers — promptly. In-flight
    /// solves have their cancel tokens tripped (they unwind within one
    /// checkpoint interval and their tickets read
    /// [`BscError::DeadlineExceeded`]); queued-but-unstarted jobs are
    /// failed fast with [`BscError::Shutdown`] instead of being solved
    /// into the void. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        // Workers drain what is queued (failing it fast via the flag
        // below), then read `None` from the closed queue and exit.
        self.shared.shutting_down.store(true, Ordering::Relaxed);
        self.queue.close();
        {
            let solving = self
                .shared
                .solving
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            let mut metrics = self
                .shared
                .metrics
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            for token in solving.iter() {
                if !token.is_cancelled() {
                    token.cancel();
                    metrics.cancelled += 1;
                }
            }
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn admit(&self, request: QueryRequest) -> BscResult<(Job, QueryTicket)> {
        request.validate()?;
        let (reply, receiver) = mpsc::channel();
        let key = request.cache_key();
        let job = Job {
            request,
            snapshot: self.cell.load(),
            key,
            enqueued: Instant::now(),
            reply,
        };
        Ok((job, QueryTicket { receiver }))
    }

    /// Microseconds since the engine's time origin — the clock
    /// [`QueryEngine::try_submit`] feeds the token buckets.
    fn now_micros(&self) -> u64 {
        duration_micros(self.origin.elapsed())
    }

    /// Account a submission against the request's tenant (counters always,
    /// the token bucket when a quota is configured). An exhausted bucket
    /// sheds the query with [`BscError::Saturated`] before it can occupy a
    /// queue slot. Tokens charged for a query that is later refused by a
    /// full queue are **not** refunded — the decision stream stays a pure
    /// function of the arrival schedule, which is what makes the load
    /// harness reproducible.
    fn charge_quota(&self, request: &QueryRequest, now_micros: u64) -> BscResult<()> {
        let Some(tenant) = request.options.tenant.as_deref() else {
            return Ok(());
        };
        let quota = self.config.quota;
        let mut tenants = self
            .shared
            .tenants
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let state = tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                submitted: 0,
                admitted: 0,
                quota_shed: 0,
                // A new tenant starts with a full bucket — the burst is
                // headroom, not something to be earned first.
                tokens_micro: quota.map_or(0, |q| q.burst.saturating_mul(MICRO_TOKENS_PER_QUERY)),
                last_micros: now_micros,
            });
        state.submitted += 1;
        let Some(quota) = quota else {
            return Ok(());
        };
        if now_micros > state.last_micros {
            let delta = now_micros - state.last_micros;
            let refill = delta.saturating_mul(quota.rate_per_sec);
            let capacity = quota.burst.saturating_mul(MICRO_TOKENS_PER_QUERY);
            state.tokens_micro = state.tokens_micro.saturating_add(refill).min(capacity);
            state.last_micros = now_micros;
        }
        if state.tokens_micro < MICRO_TOKENS_PER_QUERY {
            state.quota_shed += 1;
            drop(tenants);
            self.shared
                .metrics
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .quota_shed += 1;
            return Err(BscError::Saturated {
                capacity: self.config.queue_capacity,
            });
        }
        state.tokens_micro -= MICRO_TOKENS_PER_QUERY;
        Ok(())
    }

    /// Bump the tenant's admitted counter after a successful queue push.
    fn record_admitted(&self, tenant: Option<&str>) {
        let Some(tenant) = tenant else { return };
        if let Some(state) = self
            .shared
            .tenants
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get_mut(tenant)
        {
            state.admitted += 1;
        }
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn duration_micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Token-bucket resolution: one admission costs this many micro-tokens, and
/// a bucket refills `rate_per_sec` micro-tokens per elapsed microsecond —
/// exact integer accounting with no floating point in the admission path.
const MICRO_TOKENS_PER_QUERY: u64 = 1_000_000;

fn worker_loop(queue: &AdmissionQueue<Job>, shared: &Shared) {
    while let Some(job) = queue.pop() {
        process_job(job, shared);
    }
}

/// Settle one dequeued job end to end: fail fast if its budget died in the
/// queue or the engine is shutting down, otherwise execute it; record
/// metrics; reply.
fn process_job(mut job: Job, shared: &Shared) {
    let queue_wait = job.enqueued.elapsed();
    // Queued-but-expired queries fail fast: the budget is gone, so
    // solving would only delay the error (and every query behind it).
    let expired_in_queue = job
        .request
        .options
        .cancel
        .as_ref()
        .filter(|token| token.expired())
        .map(deadline_error);
    let was_expired_in_queue = expired_in_queue.is_some();
    let result = if let Some(error) = expired_in_queue {
        Err(error)
    } else if shared.shutting_down.load(Ordering::Relaxed) {
        Err(BscError::Shutdown)
    } else {
        execute(&mut job, queue_wait, shared)
    };
    {
        let mut metrics = shared.metrics.lock().unwrap_or_else(|p| p.into_inner());
        metrics.queries += 1;
        metrics.queue_wait.record(queue_wait);
        match &result {
            Ok(response) if !response.cached => {
                metrics
                    .solve
                    .record_micros(response.solution.stats.solve_micros);
            }
            Ok(_) => {}
            Err(e) => {
                metrics.errors += 1;
                if matches!(e, BscError::DeadlineExceeded { .. }) {
                    metrics.deadline_hits += 1;
                    if was_expired_in_queue {
                        metrics.queue_expired += 1;
                    }
                }
            }
        }
    }
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    // A dropped ticket just means nobody is waiting for the answer.
    let _ = job.reply.send(result);
}

/// The path length of a query whose answer a later epoch may merge from:
/// exact-length queries the direct build accepts. The merge places its
/// windows as the direct build's `ShardedSolver` would (shard threads or
/// dispatchers), and a query the direct build rejects (TA's
/// full-paths-only rule) never reaches it, so the direct build stays the
/// one author of that error.
fn mergeable_length(request: &QueryRequest, num_intervals: usize) -> Option<u32> {
    match request.spec {
        StableClusterSpec::ExactLength(l) if request.passes_the_direct_build(num_intervals) => {
            Some(l)
        }
        _ => None,
    }
}

fn execute(job: &mut Job, queue_wait: Duration, shared: &Shared) -> BscResult<QueryResponse> {
    let epoch = job.snapshot.epoch();
    let (length, carried) = {
        let mut cache = shared.cache.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(mut solution) = cache.get(epoch, &job.key) {
            solution.stats.queue_wait_micros = duration_micros(queue_wait);
            solution.stats.solve_micros = 0;
            return Ok(QueryResponse {
                solution,
                epoch,
                cached: true,
            });
        }
        let length = mergeable_length(&job.request, job.snapshot.num_intervals());
        let k = job.request.k;
        let carried = length.and_then(|l| {
            let (solved_on, paths) = cache.carried(&job.key)?;
            Some((solved_on, Answer { l, k, paths }))
        });
        (length, carried)
    };
    // Whether the cached answer may be merged from is derived here, from the
    // two graphs actually involved: the one it was solved on and the one
    // this query pinned.
    let carried = carried.and_then(|(solved_on, answer)| {
        let delta = GraphDelta::between(&solved_on, &job.snapshot);
        delta.only_appends().then_some((answer, delta))
    });
    // Every solve runs under a cancel token — installing one on demand is
    // what lets shutdown reach queries submitted without a deadline. The
    // token is registered for the duration of the solve and deregistered
    // by identity on the way out.
    let token = job
        .request
        .options
        .cancel
        .get_or_insert_with(CancelToken::new)
        .clone();
    shared
        .solving
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(token.clone());
    let request = &job.request;
    let start = Instant::now();
    let result = match &carried {
        Some((answer, delta)) => solve_windows(
            job.snapshot.graph(),
            request.spec,
            request.k,
            request.algorithm,
            &request.options,
            Some((answer, delta)),
        )
        .map(|outcome| outcome.into_solution()),
        None => {
            let m = job.snapshot.num_intervals();
            request
                .algorithm
                .build_with_options(request.spec, request.k, m, request.options.clone())
                .and_then(|mut solver| solver.solve(job.snapshot.graph()))
        }
    };
    let solve_micros = duration_micros(start.elapsed());
    shared
        .solving
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .retain(|t| t != &token);
    let mut solution = result?;
    solution.stats.solve_micros = solve_micros;
    // Cache the canonical form (no queue wait — that belongs to one query,
    // not to the answer), with the snapshot it was solved on when a later
    // epoch may merge from it.
    shared.cache.lock().unwrap_or_else(|p| p.into_inner()).put(
        epoch,
        job.key.clone(),
        solution.clone(),
        length.map(|_| job.snapshot.clone()),
    );
    solution.stats.queue_wait_micros = duration_micros(queue_wait);
    Ok(QueryResponse {
        solution,
        epoch,
        cached: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_core::synthetic::{ClusterGraphGenerator, SyntheticGraphParams};

    fn graph(seed: u64) -> ClusterGraph {
        ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 5,
            nodes_per_interval: 10,
            avg_out_degree: 3,
            gap: 1,
            seed,
        })
        .generate()
    }

    fn engine() -> QueryEngine {
        QueryEngine::new(EngineConfig::default().workers(2).cache_capacity(8)).unwrap()
    }

    #[test]
    fn answers_match_the_direct_solve() {
        let engine = engine();
        engine.install_graph(graph(7));
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4);
        let response = engine.query(request).unwrap();
        assert_eq!(response.epoch, 1);
        assert!(!response.cached);
        assert!(response.solution.stats.solve_micros > 0);

        let mut direct = AlgorithmKind::Bfs
            .build(StableClusterSpec::ExactLength(2), 4, 5)
            .unwrap();
        let expected = direct.solve(&graph(7)).unwrap();
        assert_eq!(expected.paths.len(), response.solution.paths.len());
        for (a, b) in expected.paths.iter().zip(response.solution.paths.iter()) {
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.weight().to_bits(), b.weight().to_bits());
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache_until_the_epoch_swaps() {
        let engine = engine();
        engine.install_graph(graph(7));
        // A repeat is a cache hit whether or not it carries a cancel token:
        // the token is no part of the cache key.
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4);
        let with_token = request
            .clone()
            .options(SolverOptions::default().cancel_token(Some(CancelToken::new())));
        let first = engine.query(request.clone()).unwrap();
        assert!(!first.cached);
        for repeat in [request.clone(), with_token] {
            let repeat = engine.query(repeat).unwrap();
            assert!(repeat.cached);
            assert_eq!(repeat.solution.stats.solve_micros, 0);
            assert_eq!(first.solution.paths, repeat.solution.paths);
        }
        // Swap the graph: the cache must not serve the old answer.
        engine.install_graph(graph(8));
        let third = engine.query(request).unwrap();
        assert!(!third.cached);
        assert_eq!(third.epoch, 2);
        let stats = engine.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.cache.hits, 2);
        assert!(stats.cache.invalidations >= 1);
    }

    #[test]
    fn invalid_requests_are_rejected_at_admission() {
        let engine = engine();
        engine.install_graph(graph(7));
        let bad_k = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 0);
        assert!(matches!(
            engine.query(bad_k).unwrap_err(),
            BscError::InvalidConfig(_)
        ));
        let mismatch = QueryRequest::new(
            AlgorithmKind::Normalized,
            StableClusterSpec::ExactLength(2),
            3,
        );
        assert!(matches!(
            engine.query(mismatch).unwrap_err(),
            BscError::Unsupported { .. }
        ));
        // Graph-dependent failures surface through the ticket, not a panic.
        let ta_subpath = QueryRequest::new(AlgorithmKind::Ta, StableClusterSpec::ExactLength(1), 3);
        assert!(matches!(
            engine.query(ta_subpath).unwrap_err(),
            BscError::Unsupported {
                algorithm: "ta",
                ..
            }
        ));
        // Errors are counted but do not kill workers.
        assert_eq!(engine.stats().errors, 1);
        let ok = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 3);
        assert!(engine.query(ok).is_ok());
    }

    #[test]
    fn try_submit_sheds_load_when_the_queue_is_full() {
        // One worker, one queue slot: fill the pipeline with slow-ish
        // queries, then observe Saturated on the overflow.
        let engine = QueryEngine::new(
            EngineConfig::default()
                .workers(1)
                .queue_capacity(1)
                .cache_capacity(0),
        )
        .unwrap();
        engine.install_graph(graph(3));
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4);
        let mut tickets = Vec::new();
        let mut saturated = false;
        for _ in 0..50 {
            match engine.try_submit(request.clone()) {
                Ok(ticket) => tickets.push(ticket),
                Err(BscError::Saturated { capacity }) => {
                    assert_eq!(capacity, 1);
                    saturated = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(saturated, "queue never filled");
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
    }

    #[test]
    fn an_expired_deadline_fails_fast_without_solving() {
        let engine = engine();
        engine.install_graph(graph(7));
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4)
            .options(SolverOptions::default().deadline(Some(Duration::ZERO)));
        assert!(matches!(
            engine.query(request).unwrap_err(),
            BscError::DeadlineExceeded { .. }
        ));
        let stats = engine.stats();
        assert_eq!(stats.deadline_hits, 1);
        assert_eq!(stats.queue_expired, 1);
        // The query died in the queue: the solver never ran.
        assert_eq!(stats.solve.count(), 0);
        // A live deadline still solves normally.
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4)
            .options(SolverOptions::default().deadline(Some(Duration::from_secs(60))));
        assert!(engine.query(request).is_ok());
    }

    #[test]
    fn a_deadline_bounds_the_admission_wait() {
        // One worker, one queue slot: saturate the pipeline, then ask for
        // admission under a small budget and observe the bounded failure.
        let engine = QueryEngine::new(
            EngineConfig::default()
                .workers(1)
                .queue_capacity(1)
                .cache_capacity(0),
        )
        .unwrap();
        engine.install_graph(graph(3));
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4);
        let mut tickets = Vec::new();
        loop {
            match engine.try_submit(request.clone()) {
                Ok(ticket) => tickets.push(ticket),
                Err(BscError::Saturated { .. }) => break,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let begun = Instant::now();
        let budget = SolverOptions::default().deadline(Some(Duration::from_millis(20)));
        let outcome = engine.submit(request.clone().options(budget));
        // Either a slot freed inside the budget (ticket) or the wait was
        // bounded and reported as a deadline hit — never an unbounded block.
        match outcome {
            Ok(ticket) => drop(ticket),
            Err(BscError::DeadlineExceeded { .. }) => {
                assert!(begun.elapsed() >= Duration::from_millis(20));
                assert!(engine.stats().queue_expired >= 1);
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
        assert!(
            begun.elapsed() < Duration::from_secs(5),
            "wait was unbounded"
        );
        for ticket in tickets {
            let _ = ticket.wait();
        }
    }

    #[test]
    fn shutdown_cancels_in_flight_queries_promptly() {
        let mut engine = QueryEngine::new(
            EngineConfig::default()
                .workers(1)
                .queue_capacity(8)
                .cache_capacity(0),
        )
        .unwrap();
        engine.install_graph(graph(11));
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4);
        let mut tickets = Vec::new();
        for _ in 0..6 {
            tickets.push(engine.try_submit(request.clone()).unwrap());
        }
        let begun = Instant::now();
        engine.shutdown();
        // Shutdown joins the workers; cooperative cancellation must make
        // that prompt even with a full queue behind the in-flight solve.
        assert!(begun.elapsed() < Duration::from_secs(10));
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) => {}
                Err(BscError::DeadlineExceeded { .. }) | Err(BscError::Shutdown) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn a_query_pinned_before_later_installs_splices_against_its_own_graph() {
        use bsc_core::problem::KlStableParams;
        use bsc_core::streaming::OnlineStableClusters;
        let source = graph(5);
        let m = source.num_intervals() as u32;
        let engine = engine();
        let mut online = OnlineStableClusters::new(KlStableParams::new(4, 2), source.gap());
        let mut push = |upto: u32| {
            for t in online.num_intervals() as u32..upto {
                online.push_interval(source.interval_parent_edges(t));
                engine.install(online.snapshot());
            }
        };
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4);
        // A resident entry solved on intervals 0..=2; the query pins one
        // interval more; the rest of the stream lands before it runs.
        push(3);
        engine.query(request.clone()).unwrap();
        push(4);
        let pinned = engine.snapshot_cell().load();
        push(m);
        assert_eq!(engine.epoch(), u64::from(m));
        let (reply, receiver) = mpsc::channel();
        engine.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        process_job(
            Job {
                key: request.cache_key(),
                request: request.clone(),
                snapshot: pinned.clone(),
                enqueued: Instant::now(),
                reply,
            },
            &engine.shared,
        );
        let response = receiver.recv().unwrap().unwrap();
        assert_eq!(response.epoch, pinned.epoch());
        // Window [0, 2] came from the entry, [1, 3] was solved: the proof
        // ran against the four intervals pinned, not the five resident.
        let stats = response.solution.stats;
        assert_eq!((stats.windows_resolved, stats.windows_spliced), (1, 1));
        let mut direct = AlgorithmKind::Bfs
            .build(StableClusterSpec::ExactLength(2), 4, 4)
            .unwrap();
        let expected = direct.solve(&pinned).unwrap();
        assert_eq!(expected.paths, response.solution.paths);
        // The late answer does not displace what the cache holds for newer
        // epochs, and the newest epoch still merges from the old entry.
        let newest = engine.query(request).unwrap().solution.stats;
        assert_eq!((newest.windows_resolved, newest.windows_spliced), (2, 1));
    }

    #[test]
    fn a_resident_answer_from_a_later_epoch_is_not_merged_from() {
        // The entry was solved on all five intervals; the query pinned four.
        // The graph it pinned is no extension of the entry's, so it solves
        // direct: no window decided, none carried, the direct answer.
        use bsc_core::problem::KlStableParams;
        use bsc_core::streaming::OnlineStableClusters;
        let source = graph(5);
        let engine = engine();
        let mut online = OnlineStableClusters::new(KlStableParams::new(4, 2), source.gap());
        let mut pinned = None;
        for t in 0..source.num_intervals() as u32 {
            online.push_interval(source.interval_parent_edges(t));
            let installed = engine.install(online.snapshot());
            pinned = pinned.or((t == 3).then_some(installed));
        }
        let pinned = pinned.unwrap();
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4);
        let newest = engine.query(request.clone()).unwrap().solution.stats;
        assert_eq!((newest.windows_resolved, newest.windows_spliced), (0, 0));
        let (reply, receiver) = mpsc::channel();
        engine.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        process_job(
            Job {
                key: request.cache_key(),
                request: request.clone(),
                snapshot: pinned.clone(),
                enqueued: Instant::now(),
                reply,
            },
            &engine.shared,
        );
        let response = receiver.recv().unwrap().unwrap();
        assert_eq!(response.epoch, pinned.epoch());
        let stats = response.solution.stats;
        assert_eq!((stats.windows_resolved, stats.windows_spliced), (0, 0));
        let mut direct = AlgorithmKind::Bfs
            .build(StableClusterSpec::ExactLength(2), 4, 4)
            .unwrap();
        assert_eq!(
            direct.solve(&pinned).unwrap().paths,
            response.solution.paths
        );
    }

    #[test]
    fn every_fed_answer_counts_each_start_once_and_its_entry_holds_k_paths() {
        // The counter law: on every windowed answer `windows_resolved +
        // windows_spliced` is the graph's number of starts — the windows
        // decided now, and the older starts the carried answer stands for.
        // After a push that is one window decided and every other start
        // carried. What the cache keeps for the next epoch is the answer's
        // k paths at most, not a result per start.
        use bsc_core::problem::KlStableParams;
        use bsc_core::streaming::OnlineStableClusters;
        let source = ClusterGraphGenerator::new(SyntheticGraphParams {
            num_intervals: 14,
            nodes_per_interval: 10,
            avg_out_degree: 3,
            gap: 1,
            seed: 14,
        })
        .generate();
        let engine = engine();
        let mut online = OnlineStableClusters::new(KlStableParams::new(4, 2), source.gap());
        let requests = [(2, 4, 1), (3, 3, 2), (1, 50, 1)].map(|(l, k, shards)| {
            let spec = StableClusterSpec::ExactLength(l);
            let options = SolverOptions::default().shards(shards);
            (
                l,
                QueryRequest::new(AlgorithmKind::Bfs, spec, k).options(options),
            )
        });
        for t in 0..source.num_intervals() as u32 {
            online.push_interval(source.interval_parent_edges(t));
            let snapshot = engine.install(online.snapshot());
            for (l, request) in &requests {
                let case = format!("interval {t} exact:{l} k={}", request.k);
                let response = engine.query(request.clone()).unwrap();
                let stats = response.solution.stats;
                let starts = u64::from((t + 1).saturating_sub(*l));
                assert_eq!(
                    stats.windows_resolved + stats.windows_spliced,
                    starts,
                    "{case}"
                );
                assert_eq!(stats.windows_resolved, u64::from(starts > 0), "{case}");
                let m = t as usize + 1;
                let direct = request.algorithm.build(request.spec, request.k, m);
                let expected = direct.unwrap().solve(&snapshot).unwrap().paths;
                assert_eq!(response.solution.paths, expected, "{case}");
                let mut cache = engine.shared.cache.lock().unwrap();
                let (_, kept) = cache.carried(&request.cache_key()).unwrap();
                assert!(kept.len() <= request.k, "{case}");
                assert_eq!(kept, expected, "{case}");
            }
        }
    }

    #[test]
    fn a_push_carries_the_cache_and_a_load_drops_it() {
        use bsc_core::problem::KlStableParams;
        use bsc_core::streaming::OnlineStableClusters;
        let source = graph(5);
        let engine = engine();
        let mut online = OnlineStableClusters::new(KlStableParams::new(4, 2), source.gap());
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4);
        let full = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::FullPaths, 4);
        let windows = |request: &QueryRequest| {
            let stats = engine.query(request.clone()).unwrap().solution.stats;
            (stats.windows_resolved, stats.windows_spliced)
        };
        for t in 0..3 {
            online.push_interval(source.interval_parent_edges(t));
            engine.install(online.snapshot());
        }
        assert_eq!(windows(&request), (0, 0));
        windows(&full);
        // A push appends: the exact-length entry carries, the full-paths
        // one (no snapshot) is dropped, and the next query merges.
        online.push_interval(source.interval_parent_edges(3));
        engine.install(online.snapshot());
        let pushed = engine.stats().cache;
        assert_eq!((pushed.carried_forward, pushed.delta_dropped), (1, 1));
        assert_eq!(pushed.invalidations, 1);
        assert_eq!(windows(&request), (1, 1));
        windows(&full);
        // A load of an unrelated graph drops both entries, and the next
        // query solves direct.
        engine.install_graph(graph(8));
        let loaded = engine.stats().cache;
        assert_eq!((loaded.carried_forward, loaded.delta_dropped), (1, 1));
        assert_eq!(loaded.invalidations, 3);
        assert_eq!(loaded.entries, 0);
        assert_eq!(windows(&request), (0, 0));
        // The stream's next graph appends to its own last one, not to the
        // loaded graph it replaces: nothing carries.
        online.push_interval(source.interval_parent_edges(4));
        engine.install(online.snapshot());
        let resumed = engine.stats().cache;
        assert_eq!((resumed.carried_forward, resumed.delta_dropped), (1, 1));
        assert_eq!((resumed.invalidations, resumed.entries), (4, 0));
        assert_eq!(windows(&request), (0, 0));
    }

    #[test]
    fn shutdown_rejects_new_queries_and_joins_workers() {
        let mut engine = engine();
        engine.install_graph(graph(7));
        let request = QueryRequest::new(AlgorithmKind::Bfs, StableClusterSpec::ExactLength(2), 4);
        assert!(engine.query(request.clone()).is_ok());
        engine.shutdown();
        assert!(matches!(
            engine.query(request).unwrap_err(),
            BscError::Shutdown
        ));
        engine.shutdown(); // idempotent
    }
}
