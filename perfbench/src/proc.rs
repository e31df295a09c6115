//! Child processes of the program under test: wall time and peak resident
//! memory of one-shot runs, and a daemon handle that is always reaped.

use std::io::{self, BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Outcome of a one-shot child run.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Spawn to exit.
    pub wall: Duration,
    /// Exited normally with code 0.
    pub success: bool,
    /// Peak resident set of the child, kilobytes, as last sampled.
    pub maxrss_kb: u64,
}

/// How often a running child's `VmHWM` is sampled.
const RSS_POLL: Duration = Duration::from_millis(10);

/// Spawns `cmd` (stdout discarded) and waits for it, sampling the child's
/// `VmHWM` meanwhile. (`ru_maxrss` from `wait4` would not do: a child
/// spawned with `vfork` inherits the parent's peak.)
pub fn run_measured(cmd: &mut Command) -> io::Result<Exit> {
    let start = Instant::now();
    let mut child = cmd.stdout(Stdio::null()).spawn()?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (status, wall, maxrss_kb) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = vm_hwm_kb(Some(pid)).map_or(peak, |kb| kb.max(peak));
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let status = child.wait();
        let wall = start.elapsed();
        done.store(true, Ordering::Relaxed);
        (status, wall, poller.join().unwrap_or(0))
    });
    Ok(Exit {
        wall,
        success: status?.success(),
        maxrss_kb,
    })
}

/// Peak resident set (`VmHWM`) of a live process, kilobytes; `pid = None`
/// reads the calling process.
pub fn vm_hwm_kb(pid: Option<u32>) -> Option<u64> {
    status_kb(pid, "VmHWM:")
}

/// A kilobyte field of `/proc/<pid>/status`.
fn status_kb(pid: Option<u32>, field: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Cumulative CPU time of the whole machine from `/proc/stat`, in clock
/// ticks: `(stolen, total)`. Stolen time is time the hypervisor ran
/// something else while this machine's CPUs had work.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// A running `bootes serve` daemon. Dropping it kills and reaps the process
/// if [`Daemon::stop`] did not already.
pub struct Daemon {
    child: Option<Child>,
    _stdout: BufReader<ChildStdout>,
    /// The address printed on the daemon's readiness line.
    pub addr: String,
    /// Spawn until the readiness line was read.
    pub ready_after: Duration,
}

impl Daemon {
    /// Spawns `cmd` and blocks until it prints `bootes-serve listening on
    /// <addr>`.
    pub fn spawn(cmd: &mut Command) -> io::Result<Daemon> {
        let start = Instant::now();
        let mut child = cmd.stdout(Stdio::piped()).spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("daemon stdout not captured"));
        };
        let mut daemon = Daemon {
            child: Some(child),
            _stdout: BufReader::new(stdout),
            addr: String::new(),
            ready_after: Duration::ZERO,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if daemon._stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("daemon exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("bootes-serve listening on ") {
                daemon.addr = addr.to_string();
                daemon.ready_after = start.elapsed();
                return Ok(daemon);
            }
        }
    }

    /// Process id, while the daemon runs.
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Waits up to `grace` for the daemon to exit (after a `shutdown`
    /// request), then kills it. Returns whether it exited on its own with
    /// code 0.
    pub fn stop(&mut self, grace: Duration) -> bool {
        let Some(mut child) = self.child.take() else {
            return false;
        };
        let deadline = Instant::now() + grace;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
