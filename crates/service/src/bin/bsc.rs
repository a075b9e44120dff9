//! `bsc` — the stable-cluster service binary.
//!
//! ```text
//! bsc serve  [--workers <n>] [--queue <n>] [--cache <n>]
//!            [--quota-rate <n> --quota-burst <n>]
//! bsc serve  --worker <addr>
//! bsc serve  --coordinator --workers <addr,...> [--queue <n>] [--cache <n>]
//! bsc oracle
//! ```
//!
//! `bsc serve` runs the long-lived query engine behind the line-delimited
//! JSON protocol (see `docs/service.md`): one request object per stdin
//! line, one response object per stdout line, until `{"op":"shutdown"}` or
//! EOF. `--workers` sizes the fixed thread pool (default: the machine's
//! parallelism), `--queue` the bounded FIFO admission queue (default 64),
//! `--cache` the epoch-tagged solution cache (default 128, 0 disables).
//! `--quota-rate`/`--quota-burst` (both required together, both >= 1)
//! enable the per-tenant token-bucket quota: each tenant named in query
//! requests may sustain `rate` queries per second with bursts up to
//! `burst`; exceeding it sheds with `saturated` (see `docs/load.md`).
//!
//! `bsc serve --worker <addr>` turns the process into a **cluster worker**:
//! it binds a TCP listener on `<addr>` (port 0 picks a free port),
//! announces the bound address on stdout as one JSON line, and then
//! answers `solve_window` requests from a coordinator until killed. See
//! `docs/distributed.md`.
//!
//! `bsc serve --coordinator --workers <addr,...>` runs the same stdin
//! session as plain `serve`, but fans decomposable queries out to the
//! listed cluster workers (health-checked at startup; per-worker RPC
//! latency appears in the `stats` response). Because distributed answers
//! are byte-identical to local ones, the transcript is unchanged — CI
//! diffs it against single-process output.
//!
//! `bsc oracle` answers the same protocol with direct one-shot solves — no
//! pool, no queue, no cache. Deterministic responses of the two modes are
//! byte-identical, which CI asserts by diffing the transcripts of a
//! scripted session.

#![forbid(unsafe_code)]

use std::io::Write;

use bsc_core::distributed::FanoutSpec;
use bsc_service::engine::{EngineConfig, TenantQuota};
use bsc_service::session::Session;

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: bsc serve [--workers <n>] [--queue <n>] [--cache <n>]\n\
         \x20                [--quota-rate <n> --quota-burst <n>]\n\
         \x20      bsc serve --worker <addr>\n\
         \x20      bsc serve --coordinator --workers <addr,...> [--queue <n>] [--cache <n>]\n\
         \x20      bsc oracle"
    );
    std::process::exit(2);
}

fn flag_value<'a>(iter: &mut impl Iterator<Item = &'a String>, flag: &str) -> usize {
    match iter.next().map(|v| v.parse::<usize>()) {
        Some(Ok(n)) => n,
        _ => usage_error(&format!("{flag} requires a non-negative integer")),
    }
}

/// `bsc serve --worker <addr>`: run a cluster worker in the foreground.
fn run_worker(addr: &str) -> ! {
    let server = match bsc_cluster::WorkerServer::bind(addr, bsc_cluster::WorkerConfig::default()) {
        Ok(server) => server,
        Err(e) => usage_error(&format!("cannot bind worker on '{addr}': {e}")),
    };
    // Announce the bound address (port 0 resolves here) so scripts can
    // learn where to point the coordinator.
    println!(
        "{{\"addr\":\"{}\",\"ok\":true,\"op\":\"worker\",\"version\":{}}}",
        server.local_addr(),
        bsc_cluster::PROTOCOL_VERSION
    );
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Health-check the fan-out set, logging per worker; exit if none answer.
fn check_workers(fanout: &FanoutSpec) {
    let client = bsc_cluster::client_for(fanout);
    let health = client.health();
    for worker in &health {
        match &worker.error {
            None => eprintln!("worker {}: healthy", worker.addr),
            Some(e) => eprintln!("worker {}: UNHEALTHY ({e})", worker.addr),
        }
    }
    if health.iter().all(|w| !w.healthy) {
        eprintln!("no reachable workers in '{fanout}'");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut session = match args.first().map(String::as_str) {
        Some("oracle") => {
            if args.len() > 1 {
                usage_error("oracle takes no flags");
            }
            Session::oracle()
        }
        Some("serve") => {
            let rest = &args[1..];
            if rest.iter().any(|a| a == "--worker") {
                match rest {
                    [flag, addr] if flag == "--worker" => run_worker(addr),
                    _ => usage_error("--worker takes exactly one <addr> and no other flags"),
                }
            }
            let coordinator = rest.iter().any(|a| a == "--coordinator");
            let mut config = EngineConfig::default();
            let mut fanout: Option<FanoutSpec> = None;
            let mut quota_rate: Option<u64> = None;
            let mut quota_burst: Option<u64> = None;
            let mut iter = rest.iter();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--coordinator" => {}
                    // In coordinator mode `--workers` names the cluster
                    // worker addresses; otherwise it sizes the thread pool.
                    "--workers" if coordinator => match iter.next() {
                        Some(list) => match FanoutSpec::parse(list) {
                            Some(spec) => fanout = Some(spec),
                            None => usage_error(&format!(
                                "--workers requires a comma-separated address list, got '{list}'"
                            )),
                        },
                        None => usage_error("--workers requires an address list"),
                    },
                    "--workers" => match flag_value(&mut iter, "--workers") {
                        0 => usage_error("--workers must be >= 1"),
                        n => config = config.workers(n),
                    },
                    "--queue" => match flag_value(&mut iter, "--queue") {
                        0 => usage_error("--queue must be >= 1"),
                        n => config = config.queue_capacity(n),
                    },
                    "--cache" => config = config.cache_capacity(flag_value(&mut iter, "--cache")),
                    "--quota-rate" => match flag_value(&mut iter, "--quota-rate") {
                        0 => usage_error("--quota-rate must be >= 1"),
                        n => quota_rate = Some(n as u64),
                    },
                    "--quota-burst" => match flag_value(&mut iter, "--quota-burst") {
                        0 => usage_error("--quota-burst must be >= 1"),
                        n => quota_burst = Some(n as u64),
                    },
                    other => usage_error(&format!("unknown flag '{other}'")),
                }
            }
            match (quota_rate, quota_burst) {
                (Some(rate), Some(burst)) => {
                    config = config.quota(Some(TenantQuota::new(rate, burst)));
                }
                (None, None) => {}
                _ => usage_error("--quota-rate and --quota-burst must be given together"),
            }
            if coordinator {
                let Some(fanout) = fanout else {
                    usage_error("--coordinator requires --workers <addr,...>");
                };
                bsc_cluster::install_transport();
                check_workers(&fanout);
                match Session::engine(config) {
                    Ok(session) => session.default_fanout(Some(fanout)),
                    Err(e) => usage_error(&format!("cannot start engine: {e}")),
                }
            } else {
                match Session::engine(config) {
                    Ok(session) => session,
                    Err(e) => usage_error(&format!("cannot start engine: {e}")),
                }
            }
        }
        _ => usage_error("expected a subcommand: serve or oracle"),
    };

    if let Err(e) = session.serve(std::io::stdin().lock(), std::io::stdout().lock()) {
        eprintln!("stdin read failed: {e}");
        std::process::exit(1);
    }
}
