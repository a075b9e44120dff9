//! One round of one workload against freshly spawned `bsc` processes:
//! set-up, the timed closed loop, reply verification, server counters.
//!
//! Closed loop, one client, one connection: a `bsc serve` session answers
//! one line at a time, so a single caller waiting for each reply *is* the
//! deployment shape, and the loop's rate is the session's highest
//! sustainable one.

use std::path::PathBuf;
use std::time::Instant;

use bsc_util::json::{self, JsonValue};

use crate::child::Proc;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Op, OpClass, Plan, Workload};

/// Where the binaries and scratch space live.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `bsc` binary under test.
    pub bsc: PathBuf,
    /// Output directory (`benchmark/out`).
    pub out: PathBuf,
}

impl Env {
    /// Scratch directory handed to children as `TMPDIR`, so log-file
    /// backends never write outside the checkout.
    pub fn tmp(&self) -> PathBuf {
        self.out.join("tmp")
    }
}

/// The server side of a workload: the process the client talks to plus,
/// for `cluster-fanout`, its two TCP workers.
pub struct Fleet {
    pub front: Proc,
    pub workers: Vec<Proc>,
    pub worker_addrs: Vec<String>,
}

impl Fleet {
    pub fn start(env: &Env, workload: Workload) -> Result<Fleet, String> {
        let tmp = env.tmp();
        let spawn = |args: &[&str]| {
            Proc::spawn(&env.bsc, args, &tmp)
                .map_err(|e| format!("cannot spawn {}: {e}", env.bsc.display()))
        };
        let cache = workload.cache_capacity().to_string();
        if workload != Workload::ClusterFanout {
            let front = spawn(&["serve", "--workers", "2", "--cache", &cache])?;
            return Ok(Fleet {
                front,
                workers: Vec::new(),
                worker_addrs: Vec::new(),
            });
        }
        let mut workers = Vec::new();
        let mut worker_addrs = Vec::new();
        for _ in 0..2 {
            let mut worker = spawn(&["serve", "--worker", "127.0.0.1:0"])?;
            // The worker announces its bound address as its first line.
            let mut announce = String::new();
            worker
                .receive(&mut announce)
                .map_err(|e| format!("worker announce: {e}"))?;
            let addr = json::parse(&announce)
                .ok()
                .and_then(|doc| {
                    doc.get("addr")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                })
                .ok_or_else(|| format!("bad worker announce: {announce}"))?;
            workers.push(worker);
            worker_addrs.push(addr);
        }
        let front = spawn(&[
            "serve",
            "--coordinator",
            "--workers",
            &worker_addrs.join(","),
            "--cache",
            &cache,
        ])?;
        Ok(Fleet {
            front,
            workers,
            worker_addrs,
        })
    }

    /// Sum of the processes' peak resident sets, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::iter::once(&self.front)
            .chain(&self.workers)
            .filter_map(Proc::peak_rss_mb)
            .sum()
    }

    pub fn stop(self) {
        self.front.stop(true);
        for worker in self.workers {
            worker.stop(false);
        }
    }
}

/// A plan plus the oracle's answers, ready to run any number of rounds.
pub struct Prepared {
    pub plan: Plan,
    /// Oracle replies to the set-up lines, in order.
    pub setup_expected: Vec<String>,
    /// Oracle replies, indexed by [`Prepared::op_expect`] / `warm_expect`.
    pub expected: Vec<String>,
    /// Per timed op: index into `expected`, or `u32::MAX` when the oracle
    /// did not answer it (see [`Op::oracle`]).
    pub op_expect: Vec<u32>,
    /// Per warm-up template: index into `expected`.
    pub warm_expect: Vec<u32>,
    /// Seconds the oracle pass took (reported, never part of `setup_s`).
    pub oracle_s: f64,
}

const UNVERIFIED: u32 = u32::MAX;

impl Prepared {
    /// Pipe the workload's distinct request lines through `bsc oracle`:
    /// every timed reply must later be byte-identical to the oracle's reply
    /// for the same line and graph generation. Replies to one line within a
    /// generation are thereby also identical to each other (the only ops
    /// the oracle skips occur once per generation).
    pub fn new(env: &Env, plan: Plan) -> Result<Prepared, String> {
        let begun = Instant::now();
        let mut oracle = Proc::spawn(&env.bsc, &["oracle"], &env.tmp())
            .map_err(|e| format!("cannot spawn oracle: {e}"))?;
        let mut reply = String::new();
        let mut ask = |line: &str| -> Result<String, String> {
            oracle
                .round_trip(line, &mut reply)
                .map_err(|e| format!("oracle: {e}"))?;
            if !reply.contains("\"ok\":true") {
                return Err(format!(
                    "oracle rejected {}: {reply}",
                    &line[..line.len().min(120)]
                ));
            }
            Ok(reply.clone())
        };
        let setup_expected = plan
            .setup
            .iter()
            .map(|line| ask(line))
            .collect::<Result<Vec<_>, _>>()?;
        let mut expected = Vec::new();
        let mut index = std::collections::HashMap::new();
        let mut lookup = |group: u32, template: u32| -> Result<u32, String> {
            if let Some(&slot) = index.get(&(group, template)) {
                return Ok(slot);
            }
            expected.push(ask(&plan.templates[template as usize])?);
            index.insert((group, template), expected.len() as u32 - 1);
            Ok(expected.len() as u32 - 1)
        };
        let warm_expect = plan
            .warm
            .iter()
            .map(|&t| lookup(0, t))
            .collect::<Result<Vec<_>, _>>()?;
        let op_expect = plan
            .ops
            .iter()
            .map(|op| {
                if op.oracle {
                    lookup(op.group, op.template)
                } else {
                    Ok(UNVERIFIED)
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        oracle.stop(true);
        Ok(Prepared {
            plan,
            setup_expected,
            expected,
            op_expect,
            warm_expect,
            oracle_s: begun.elapsed().as_secs_f64(),
        })
    }

    fn reply_is_correct(&self, op_index: usize, reply: &str) -> bool {
        match self.op_expect[op_index] {
            UNVERIFIED => {
                reply.starts_with('{') && reply.ends_with('}') && reply.contains("\"ok\":true")
            }
            slot => reply == self.expected[slot as usize],
        }
    }
}

/// Counters read from the front process's `stats` op after the timed
/// section (cache counters as deltas over it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerCounters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub carried_forward: u64,
    pub queue_wait_mean_us: f64,
    pub queries: u64,
    /// Coordinator only: window RPCs sent, their mean latency, and
    /// dispatches answered by the coordinator's window cache.
    pub rpcs: u64,
    pub rpc_mean_us: f64,
    pub window_cache_hits: u64,
}

impl ServerCounters {
    fn parse(stats_line: &str) -> Option<ServerCounters> {
        let doc = json::parse(stats_line).ok()?;
        let u = |value: Option<&JsonValue>| value.and_then(JsonValue::as_u64).unwrap_or(0);
        let cache = doc.get("cache")?;
        let mut counters = ServerCounters {
            cache_hits: u(cache.get("hits")),
            cache_misses: u(cache.get("misses")),
            carried_forward: u(cache.get("carried_forward")),
            queue_wait_mean_us: u(doc.get("queue_wait")?.get("mean_micros")) as f64,
            queries: u(doc.get("queries")),
            ..ServerCounters::default()
        };
        if let Some(workers) = doc.get("cluster").and_then(JsonValue::as_array) {
            let mut micros = 0.0;
            let mut count = 0u64;
            for worker in workers {
                counters.rpcs += u(worker.get("rpcs"));
                count += u(worker.get("rpc_count"));
                micros += (u(worker.get("rpc_mean_micros")) * u(worker.get("rpc_count"))) as f64;
            }
            counters.rpc_mean_us = if count == 0 {
                0.0
            } else {
                micros / count as f64
            };
        }
        counters.window_cache_hits = u(doc.get("cluster_windows").and_then(|w| w.get("hits")));
        Some(counters)
    }

    /// Hits over lookups in the timed section (0 when nothing was looked up).
    pub fn hit_ratio(&self) -> f64 {
        match self.cache_hits + self.cache_misses {
            0 => 0.0,
            lookups => self.cache_hits as f64 / lookups as f64,
        }
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct RoundResult {
    /// Spawn children + set-up lines + warm-up, until the first timed op
    /// can be sent.
    pub setup_s: f64,
    /// The steps `setup_s` is the sum of (see [`set_up`]).
    pub setup_steps: Vec<f64>,
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// Per-op latency in ms (request line written → reply line read), in
    /// op order; `f64::NAN` for an op that got no reply.
    pub latency_ms: Vec<f64>,
    /// Per-op cycle in ms, in op order: from this op's request to the next
    /// op's (to the end of the timed section for the last), so the cycles
    /// add up to `wall_s` and carry the client's own work between ops.
    pub cycle_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub reply_bytes: u64,
    pub rss_peak_mb: f64,
    pub counters: ServerCounters,
    /// Median `{"op":"epoch"}` round trip, traced rounds only.
    pub pipe_rtt_us: f64,
    /// First failures, for the report.
    pub errors: Vec<String>,
}

impl RoundResult {
    /// Latencies (ms) of the ops of `class`, in op order: aligned between
    /// the rounds of a run, `NaN` where an op got no reply.
    pub fn class_latencies(&self, ops: &[Op], class: OpClass) -> Vec<f64> {
        ops.iter()
            .zip(&self.latency_ms)
            .filter(|(op, _)| op.class == class)
            .map(|(_, ms)| *ms)
            .collect()
    }

    pub fn correct(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Set a fleet up for `prepared`'s workload. Returns the fleet, the seconds
/// each step took — spawning the fleet, then every set-up and warm-up line —
/// and the cache counters at the start of the timed section. The steps add
/// up to the set-up time; every set-up of a run has the same steps.
fn set_up(env: &Env, prepared: &Prepared) -> Result<(Fleet, Vec<f64>, ServerCounters), String> {
    let plan = &prepared.plan;
    let mut steps = Vec::with_capacity(1 + plan.setup.len() + plan.warm.len());
    let mut begun = Instant::now();
    let mut step_done = |steps: &mut Vec<f64>| {
        let now = Instant::now();
        steps.push(now.duration_since(begun).as_secs_f64());
        begun = now;
    };
    let mut fleet = Fleet::start(env, plan.workload)?;
    step_done(&mut steps);
    let mut reply = String::new();
    for (line, expected) in plan.setup.iter().zip(&prepared.setup_expected) {
        fleet
            .front
            .round_trip(line, &mut reply)
            .map_err(|e| format!("set-up: {e}"))?;
        if &reply != expected {
            return Err(format!("set-up reply differs from the oracle's: {reply}"));
        }
        step_done(&mut steps);
    }
    for (&template, &slot) in plan.warm.iter().zip(&prepared.warm_expect) {
        let line = &plan.templates[template as usize];
        fleet
            .front
            .round_trip(line, &mut reply)
            .map_err(|e| format!("warm-up: {e}"))?;
        if reply != prepared.expected[slot as usize] {
            return Err(format!(
                "warm-up reply differs from the oracle's for {line}"
            ));
        }
        step_done(&mut steps);
    }
    fleet
        .front
        .round_trip("{\"op\":\"stats\"}", &mut reply)
        .map_err(|e| format!("stats: {e}"))?;
    let before = ServerCounters::parse(&reply).ok_or("unparsable stats reply")?;
    Ok((fleet, steps, before))
}

/// Spawn, set up and stop a fleet without running the timed section: an
/// extra `setup_s` sample, as its steps.
pub fn set_up_only(env: &Env, prepared: &Prepared) -> Result<Vec<f64>, String> {
    let (fleet, steps, _) = set_up(env, prepared)?;
    fleet.stop();
    Ok(steps)
}

/// Run one round. With a tracer, every request records a root span (request
/// id = `request_base` + op index + 1) with `harness.write` /
/// `harness.wait_reply` children, and `after` runs while the fleet is still
/// up (the in-process replay needs the cluster workers).
pub fn run_round(
    env: &Env,
    prepared: &Prepared,
    mut tracer: Option<&mut Tracer>,
    request_base: u32,
    after: impl FnOnce(&Fleet, &RoundResult, &mut Tracer),
) -> Result<RoundResult, String> {
    let plan = &prepared.plan;
    let (mut fleet, setup_steps, before) = set_up(env, prepared)?;
    let mut result = RoundResult {
        setup_s: setup_steps.iter().sum(),
        setup_steps,
        latency_ms: Vec::with_capacity(plan.ops.len()),
        cycle_ms: Vec::with_capacity(plan.ops.len()),
        ..RoundResult::default()
    };
    let mut reply = String::new();
    let begun = Instant::now();
    for (i, op) in plan.ops.iter().enumerate() {
        let line = &plan.templates[op.template as usize];
        result.attempted += 1;
        let (t0, start) = (tracer.as_ref().map(|t| t.now_us()), Instant::now());
        result
            .cycle_ms
            .push(start.duration_since(begun).as_secs_f64() * 1e3);
        let sent = fleet.front.send(line);
        let t1 = tracer.as_ref().map(|t| t.now_us());
        let outcome = sent.and_then(|()| fleet.front.receive(&mut reply));
        let elapsed = start.elapsed();
        if let (Some(tracer), Some(t0), Some(t1)) = (tracer.as_deref_mut(), t0, t1) {
            let t2 = tracer.now_us();
            let request = request_base + i as u32 + 1;
            let root = tracer.record(0, request, "request", t0, t2);
            tracer.record(root, request, "harness.write", t0, t1);
            tracer.record(root, request, "harness.wait_reply", t1, t2);
        }
        match outcome {
            Ok(()) => {
                result.latency_ms.push(elapsed.as_secs_f64() * 1e3);
                result.reply_bytes += reply.len() as u64 + 1;
                if !prepared.reply_is_correct(i, &reply) {
                    result.failed += 1;
                    if result.errors.len() < 3 {
                        let shown = &reply[..reply.len().min(160)];
                        result.errors.push(format!(
                            "op {i} ({}): wrong reply {shown}",
                            &line[..line.len().min(80)]
                        ));
                    }
                }
            }
            Err(e) => {
                // Error reply, short read or the 30 s watchdog: a failed op.
                result.latency_ms.push(f64::NAN);
                result.failed += 1;
                if result.errors.len() < 3 {
                    result.errors.push(format!("op {i}: {e}"));
                }
            }
        }
    }
    result.wall_s = begun.elapsed().as_secs_f64();
    // Start offsets -> cycles.
    let starts = std::mem::take(&mut result.cycle_ms);
    let ends = starts.iter().skip(1).copied().chain([result.wall_s * 1e3]);
    result.cycle_ms = starts.iter().zip(ends).map(|(s, e)| e - s).collect();
    if let Some(tracer) = tracer.as_deref_mut() {
        let mut rtts = Vec::with_capacity(200);
        for _ in 0..200 {
            let start = tracer.now_us();
            if fleet
                .front
                .round_trip("{\"op\":\"epoch\"}", &mut reply)
                .is_ok()
            {
                let end = tracer.now_us();
                tracer.record(0, 0, "harness.pipe_rtt", start, end);
                rtts.push(end - start);
            }
        }
        result.pipe_rtt_us = stats::median(&rtts);
    }
    match fleet.front.round_trip("{\"op\":\"stats\"}", &mut reply) {
        Ok(()) => {
            let mut counters = ServerCounters::parse(&reply).ok_or("unparsable stats reply")?;
            counters.cache_hits -= before.cache_hits;
            counters.cache_misses -= before.cache_misses;
            result.counters = counters;
        }
        // A dead server already failed its ops above; keep the round.
        Err(e) => result.errors.push(format!("stats: {e}")),
    }
    result.rss_peak_mb = fleet.peak_rss_mb();
    if let Some(tracer) = tracer {
        after(&fleet, &result, tracer);
    }
    fleet.stop();
    Ok(result)
}
