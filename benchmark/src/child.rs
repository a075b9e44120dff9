//! Child `bsc` processes: spawn, line round trips, peak RSS, shutdown.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A child that stays silent this long after a request is killed; the op
/// (and every later op of the round) counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// While it lives, the harness's main thread — and so every child spawned
/// from it — may run on one CPU only.
///
/// A serial session never has two runnable threads: the client waits for
/// the server's reader, which waits for an engine worker. Left to the
/// scheduler those three land on one core or are spread over two, and a
/// wake-up across cores finds the other vCPU halted: on the 2-vCPU box this
/// was sized on a cache hit then costs 110 us instead of 18 us, for tens of
/// minutes at a time, whatever the commit. On one core every hand-over is a
/// context switch and the figure is the program's. Workloads whose requests
/// fan out to parallel threads or processes keep every core.
///
/// Done through `taskset` (util-linux), the package having no `libc`; where
/// that is missing the workload runs unconfined and says so.
pub struct OneCore {
    /// The CPU list to go back to.
    restore: Option<String>,
}

impl OneCore {
    pub fn enter() -> OneCore {
        // `Cpus_allowed_list` of the main thread, e.g. `0-1` or `2,5`.
        let allowed = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                let line = status
                    .lines()
                    .find(|l| l.starts_with("Cpus_allowed_list:"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            });
        let first = allowed.as_deref().and_then(|list| {
            let digits = list.split(|c: char| !c.is_ascii_digit()).next()?;
            (!digits.is_empty()).then(|| digits.to_string())
        });
        let restore = match (allowed, first) {
            (Some(allowed), Some(first)) if set_affinity(&first) => Some(allowed),
            _ => {
                eprintln!("taskset unavailable: client and server are not confined to one core");
                None
            }
        };
        OneCore { restore }
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        if let Some(allowed) = self.restore.take() {
            set_affinity(&allowed);
        }
    }
}

/// `taskset -cp <cpus> <own pid>`: the main thread's affinity (its thread id
/// is the process id), inherited by the children it spawns from then on.
fn set_affinity(cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-cp", cpus, &std::process::id().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// State shared with the watchdog thread.
struct Watched {
    child: Mutex<Child>,
    /// Milliseconds since `origin` at which the outstanding request was
    /// sent; 0 when none is outstanding.
    waiting_since: AtomicU64,
    done: AtomicBool,
    origin: Instant,
}

/// One `bsc` child process behind its stdin/stdout pipes.
pub struct Proc {
    watched: Arc<Watched>,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    watchdog: Option<JoinHandle<()>>,
    pid: u32,
}

impl Proc {
    /// Spawn `bsc <args>` with scratch files confined to `tmpdir`.
    pub fn spawn(bsc: &Path, args: &[&str], tmpdir: &Path) -> std::io::Result<Proc> {
        let mut child = Command::new(bsc)
            .args(args)
            .env("TMPDIR", tmpdir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let pid = child.id();
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let (Some(stdin), Some(stdout)) = (stdin, stdout) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other("child pipes missing"));
        };
        let watched = Arc::new(Watched {
            child: Mutex::new(child),
            waiting_since: AtomicU64::new(0),
            done: AtomicBool::new(false),
            origin: Instant::now(),
        });
        let watchdog = {
            let watched = Arc::clone(&watched);
            std::thread::spawn(move || {
                while !watched.done.load(Ordering::SeqCst) {
                    std::thread::park_timeout(Duration::from_millis(250));
                    let since = watched.waiting_since.load(Ordering::SeqCst);
                    let now = watched.origin.elapsed().as_millis() as u64;
                    if since != 0 && now.saturating_sub(since) > REPLY_TIMEOUT.as_millis() as u64 {
                        // The blocked read sees EOF and reports a short read.
                        let _ = watched.child.lock().expect("watchdog lock").kill();
                        return;
                    }
                }
            })
        };
        Ok(Proc {
            watched,
            stdin: Some(stdin),
            stdout,
            watchdog: Some(watchdog),
            pid,
        })
    }

    /// Write one request line (and flush the pipe).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| std::io::Error::other("stdin closed"))?;
        let now = (self.watched.origin.elapsed().as_millis() as u64).max(1);
        self.watched.waiting_since.store(now, Ordering::SeqCst);
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    /// Read one reply line into `reply` (newline stripped). EOF — the child
    /// died or the watchdog killed it — is an error.
    pub fn receive(&mut self, reply: &mut String) -> std::io::Result<()> {
        reply.clear();
        let read = self.stdout.read_line(reply);
        self.watched.waiting_since.store(0, Ordering::SeqCst);
        if read? == 0 || !reply.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "short read from child",
            ));
        }
        reply.pop();
        Ok(())
    }

    /// One request/reply cycle.
    pub fn round_trip(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        self.send(line)?;
        self.receive(reply)
    }

    /// Peak resident set (`VmHWM`) of the child in MB, from `/proc`.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid)).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Stop the child and wait until it has ended: politely (`shutdown` op,
    /// then EOF on stdin) when `polite`, otherwise — and after a grace
    /// period in any case — by kill. Cluster workers only understand kill.
    pub fn stop(mut self, polite: bool) {
        self.halt(polite);
    }

    fn halt(&mut self, polite: bool) {
        let Some(watchdog) = self.watchdog.take() else {
            return; // already stopped
        };
        if polite {
            let _ = self.send("{\"op\":\"shutdown\"}");
        }
        self.stdin = None;
        self.watched.done.store(true, Ordering::SeqCst);
        watchdog.thread().unpark();
        let _ = watchdog.join();
        let mut child = self.watched.child.lock().expect("child lock");
        let deadline = Instant::now() + Duration::from_secs(2);
        while polite && Instant::now() < deadline {
            if matches!(child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.halt(false);
    }
}
