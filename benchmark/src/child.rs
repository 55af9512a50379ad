//! The system under test: a child `ausdb serve` process.
//!
//! The harness only ever talks to it over loopback TCP, and ends it with
//! `kill -9` so that what is on disk afterwards is what a crash leaves.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Every child that has been started and not yet reaped, so that the
/// watchdog can end them if a run hangs ([`kill_all`]).
static LIVE: Mutex<Vec<Arc<Mutex<Child>>>> = Mutex::new(Vec::new());

fn reap(child: &Mutex<Child>) {
    let mut child = child.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = child.kill();
    let _ = child.wait();
}

/// Kills and reaps every live child.
pub fn kill_all() {
    for child in LIVE.lock().unwrap_or_else(PoisonError::into_inner).drain(..) {
        reap(&child);
    }
}

/// Per-subscriber queue capacity the server is started with. The CLI
/// default of 256 would drop every 257-line event of a 256-key relation.
const QUEUE_CAP: &str = "100000";

/// Where one run keeps the server's files, inside the checkout.
pub struct Dirs {
    /// The run's scratch directory; removed when the run ends.
    pub root: PathBuf,
}

impl Dirs {
    /// Creates `benchmark/out/run-<pid>/` under the current directory.
    pub fn create() -> io::Result<Self> {
        let root = out_dir().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `benchmark/out`, relative to the checkout root the harness runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

/// A running `ausdb serve`.
pub struct Server {
    child: Arc<Mutex<Child>>,
    pid: u32,
    /// Held so the server's stdout never turns into a broken pipe.
    _stdout: BufReader<ChildStdout>,
    /// `127.0.0.1:<port>` scraped from the `listening on` line.
    pub addr: String,
    /// Time from `spawn` to the `listening on` line.
    pub spawn_to_listening: Duration,
}

impl Server {
    /// Starts `ausdb serve --addr 127.0.0.1:0 --window 60 --shards 1
    /// --queue-cap 100000 --snapshot-path … [--wal-dir …]` and waits for
    /// its `listening on` line. `AUSDB_*` variables of the caller are
    /// removed so the server runs with production defaults.
    pub fn spawn(bin: &Path, dirs: &Dirs, wal: bool) -> io::Result<Self> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--window", "60", "--shards", "1"])
            .args(["--queue-cap", QUEUE_CAP])
            .arg("--snapshot-path")
            .arg(dirs.root.join("state.snap"));
        if wal {
            cmd.arg("--wal-dir").arg(dirs.root.join("wal"));
        }
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("AUSDB_") {
                cmd.env_remove(name);
            }
        }
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dirs.root.join("server.err"))?;
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(stderr);
        let start = Instant::now();
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                let err = std::fs::read_to_string(dirs.root.join("server.err")).unwrap_or_default();
                return Err(io::Error::other(format!("server exited before listening: {err}")));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let spawn_to_listening = start.elapsed();
                let pid = child.id();
                let child = Arc::new(Mutex::new(child));
                LIVE.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&child));
                return Ok(Self {
                    child,
                    pid,
                    _stdout: stdout,
                    addr: addr.to_string(),
                    spawn_to_listening,
                });
            }
        }
    }

    /// Peak resident set of the server so far, in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// `kill -9`, then waits until the process has ended.
    pub fn kill9(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        reap(&self.child);
        LIVE.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|live| !Arc::ptr_eq(live, &self.child));
    }
}
