//! Driving a real `locapd` process: spawn it, open and ping the
//! benchmark's connections, read its counters, CPU time and peak RSS,
//! shut it down and wait for it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;

/// Longest a client waits for one response before counting a timeout:
/// over 20× the slowest request of any workload.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, fixed at
/// 100 per second for user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// One newline-delimited JSON connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    pub line: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader, line: Vec::with_capacity(4096) })
    }

    /// Sends one frame and reads one response line into `self.line`.
    pub fn call(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frame)?;
        self.line.clear();
        let n = self.reader.read_until(b'\n', &mut self.line)?;
        if n == 0 || self.line.last() != Some(&b'\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(())
    }

    /// Sends an `op` frame and returns the parsed response.
    pub fn op(&mut self, op: &str) -> Result<Json, String> {
        self.call(format!("{{\"op\":\"{op}\",\"id\":\"{op}\"}}\n").as_bytes())
            .map_err(|e| format!("{op}: {e}"))?;
        let text = std::str::from_utf8(&self.line).map_err(|e| format!("{op}: {e}"))?;
        let doc = Json::parse(text.trim_end()).map_err(|e| format!("{op}: {e}"))?;
        if doc.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("{op} refused: {}", text.trim_end()));
        }
        Ok(doc)
    }

    /// The daemon's registry at full resolution (the `stats` op).
    pub fn stats(&mut self) -> Result<TelemetryState, String> {
        let doc = self.op("stats")?;
        let registry =
            doc.get("result").and_then(|r| r.get("registry")).ok_or("stats: no registry")?;
        TelemetryState::from_json(registry)
    }
}

/// A running `locapd`: killed and waited for on drop if still running.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub spawned: Instant,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `locapd` with default flags plus `--addr 127.0.0.1:0` and,
    /// when given, `--store-dir`, and waits for its listening line.
    pub fn spawn(locapd: &Path, store: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(locapd);
        cmd.args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = store {
            cmd.arg("--store-dir").arg(dir);
        }
        // the daemon reads these at start; a benchmark run must not trace
        for var in ["OBS_TRACE", "OBS_TRACE_CAP", "OBS_JSON"] {
            cmd.env_remove(var);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::piped());
        let spawned = Instant::now();
        let mut child =
            cmd.spawn().map_err(|e| format!("cannot start {}: {e}", locapd.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("no stderr pipe")?);
        let mut daemon =
            Daemon { child: Some(child), addr: ([127, 0, 0, 1], 0).into(), spawned, stderr: None };
        let mut line = String::new();
        loop {
            line.clear();
            if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("locapd exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("locapd listening on ") {
                daemon.addr = addr.parse().map_err(|e| format!("bad address {addr:?}: {e}"))?;
                break;
            }
        }
        // keep draining stderr so the daemon never blocks on a full pipe
        daemon.stderr = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                eprint!("locapd: {sink}");
                sink.clear();
            }
        }));
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Opens `count` connections, then has each answer a `ping`; returns
    /// them with the time from spawn until the last ping was answered.
    pub fn connect(&self, count: usize) -> Result<(Vec<Conn>, Duration), String> {
        let mut conns = (0..count)
            .map(|_| Conn::open(self.addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        for c in &mut conns {
            c.op("ping")?;
        }
        Ok((conns, self.spawned.elapsed()))
    }

    /// User+system CPU of the whole process, exited threads included.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| e.to_string())?;
        // fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line
        let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("bad /proc stat")?;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let tick =
            |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or("bad /proc stat field");
        Ok((tick(11)? + tick(12)?) / TICKS_PER_SECOND)
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| e.to_string())?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM")?;
        Ok(kb / 1024.0)
    }

    /// Asks for shutdown over `conn` and waits for the process to end.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let acked = conn.op("shutdown");
        drop(conn);
        self.reap(acked.is_err());
        acked.map(|_| ())
    }

    fn reap(&mut self, kill: bool) {
        if let Some(mut child) = self.child.take() {
            if kill {
                child.kill().ok();
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if matches!(child.try_wait(), Ok(None)) {
                child.kill().ok();
            }
            child.wait().ok();
        }
        if let Some(h) = self.stderr.take() {
            h.join().ok();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap(true);
    }
}

/// Counter increments between two `stats` snapshots.
pub fn counter_delta(before: &TelemetryState, after: &TelemetryState) -> BTreeMap<String, u64> {
    after
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), v.saturating_sub(before.counters.get(k).copied().unwrap_or(0))))
        .filter(|(_, v)| *v > 0)
        .collect()
}

/// `(count, sum_ns)` increments of every latency histogram whose name
/// matches `pred`.
pub fn latency_delta(
    before: &TelemetryState,
    after: &TelemetryState,
    pred: impl Fn(&str) -> bool,
) -> (u64, u64) {
    after.latencies.iter().filter(|(k, _)| pred(k)).fold((0, 0), |(c, s), (k, h)| {
        let base = before.latencies.get(k);
        (c + h.count - base.map_or(0, |b| b.count), s + h.sum - base.map_or(0, |b| b.sum))
    })
}

/// A fresh, empty directory under `root` (any leftover is removed first).
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}
