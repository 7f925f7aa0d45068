//! Small shared pieces: sample statistics, the operation ledger behind
//! `attempted`/`failed`, child processes with their peak memory, CPU
//! placement, and a one-shot HTTP GET.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The current value of a counter in the global metrics registry.
pub fn counter(name: &str) -> u64 {
    caliper_data::metrics::global().counter(name).get()
}

/// Median of a sample; `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// Nearest-rank percentile of a sample, the percentile given in tenths
/// of a percent (`950` is p95).
pub fn percentile(samples: &[f64], permille: usize) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(s.len(), permille).clamp(1, s.len()) - 1]
}

fn nearest_rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000)
}

/// The tail percentile reported for `n` samples, in tenths of a
/// percent: the highest of p99.9/p99/p95/p90/p75 that leaves at least
/// ten samples beyond it, else the median.
pub fn tail_permille(n: usize) -> usize {
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&p| n - nearest_rank(n, p) >= 10)
        .unwrap_or(500)
}

/// A latency sample summarised as median and tail.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    /// The tail percentile, e.g. `p95`.
    pub tail_name: &'static str,
    pub n: usize,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        let tail = tail_permille(samples.len());
        Latency {
            p50: percentile(samples, 500),
            tail: percentile(samples, tail),
            tail_name: match tail {
                999 => "p99.9",
                990 => "p99",
                950 => "p95",
                900 => "p90",
                750 => "p75",
                _ => "p50",
            },
            n: samples.len(),
        }
    }
}

/// Every operation the benchmark attempts and whether it failed:
/// process runs, acks, HTTP replies and output checks.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Record one operation; a failure keeps its description.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Record an equality check between a reference output and another.
    pub fn same(&mut self, what: &str, reference: &[u8], other: &[u8]) -> bool {
        self.op(reference == other, || {
            format!(
                "check failed: {what} ({} vs {} bytes)",
                reference.len(),
                other.len()
            )
        })
    }

    /// Fold another ledger in.
    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// What a finished child process left behind.
pub struct Finished {
    pub ok: bool,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    pub wall_s: f64,
    /// Peak resident set size of the child, in MiB.
    pub peak_rss_mb: f64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

/// `cpu_set_t`: a bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Default)]
struct CpuSet([u64; 16]);

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet::default();
    // SAFETY: `set` is a valid, exclusively borrowed `cpu_set_t` of the
    // size passed.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if r != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| (set.0[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Bind thread `tid` (0: the calling thread) to `cpu`. Only calls
/// sched_setaffinity(2), so it is safe between fork and exec.
pub fn pin(tid: i32, cpu: usize) -> std::io::Result<()> {
    let mut set = CpuSet::default();
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid `cpu_set_t` of the size passed.
    let r = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) };
    if r == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Where the served closed loops run when there are two CPUs or more:
/// `(client, server)`, the first and the last allowed CPU. The kernel
/// may not balance load between CPUs (a cpuset with
/// `sched_load_balance` 0 leaves every thread on the CPU it was born
/// on), so without this the daemon and its clients share one CPU in
/// some runs and not in others.
pub fn served_cpus() -> Option<(usize, usize)> {
    let cpus = allowed_cpus();
    match (cpus.first(), cpus.last()) {
        (Some(&client), Some(&server)) if client != server => Some((client, server)),
        _ => None,
    }
}

/// Reap `child`, blocking or (with `block` false) returning `None` while
/// it still runs: whether it exited 0, and its peak RSS in MiB. Once
/// this returns `Some`, the pid is free and must not be signalled.
pub fn reap(child: &Child, block: bool) -> std::io::Result<Option<(bool, f64)>> {
    const WNOHANG: i32 = 1;
    let pid = i32::try_from(child.id()).expect("pid fits in i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child; `status` and `usage`
        // are valid, exclusively borrowed out-parameters of the sizes
        // wait4(2) writes on 64-bit Linux.
        let r = unsafe {
            wait4(
                pid,
                &mut status,
                if block { 0 } else { WNOHANG },
                &mut usage,
            )
        };
        if r == 0 {
            return Ok(None);
        }
        if r == pid {
            // WIFEXITED && WEXITSTATUS == 0
            let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
            return Ok(Some((ok, usage.maxrss as f64 / 1024.0)));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Peak resident set size of this process, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, exclusively borrowed out-parameter of
    // the size getrusage(2) writes on 64-bit Linux.
    let r = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if r == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Run a program to completion, capturing its output, wall time and
/// peak memory; `ok` means exit status 0. The program is started by a
/// fresh `calibench --measure-child` (see [`measure_child`]): a child
/// spawned straight from this process starts as a view of this
/// process's memory and inherits its high-water mark.
pub fn run(program: &Path, args: &[String], scratch: &Path) -> std::io::Result<Finished> {
    run_spread(program, args, scratch, 0)
}

/// [`run`], binding the first `workers` threads the program starts
/// besides its main thread to the allowed CPUs in turn (see
/// [`spread_workers`]).
pub fn run_spread(
    program: &Path,
    args: &[String],
    scratch: &Path,
    workers: usize,
) -> std::io::Result<Finished> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let report = scratch.join(format!(
        "child-{}.report",
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let mut child = Command::new(std::env::current_exe()?)
        .arg("--measure-child")
        .arg(&report)
        .arg(workers.to_string())
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut out = child.stdout.take().expect("piped stdout");
    let mut err = child.stderr.take().expect("piped stderr");
    let err_reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = err.read_to_end(&mut buf);
        buf
    });
    let mut stdout = Vec::new();
    out.read_to_end(&mut stdout)?;
    let stderr = err_reader.join().expect("stderr reader thread");
    let (ok, _) = reap(&child, true)?.expect("a blocking reap returns the status");
    let text = std::fs::read_to_string(&report)?;
    std::fs::remove_file(&report)?;
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    let (Some(Ok(wall_s)), Some(Ok(peak_rss_mb))) = (fields.next(), fields.next()) else {
        return Err(std::io::Error::other(format!(
            "malformed child report: {text:?}"
        )));
    };
    Ok(Finished {
        ok,
        stdout,
        stderr,
        wall_s,
        peak_rss_mb,
    })
}

/// The `--measure-child REPORT WORKERS PROGRAM ARGS...` mode: run
/// PROGRAM on this process's standard streams, spreading its first
/// WORKERS threads over the CPUs, write its wall time (s) and peak RSS
/// (MiB) to REPORT, and exit 0 exactly when PROGRAM did.
pub fn measure_child(args: &[String]) -> std::io::Result<bool> {
    let [report, workers, program, rest @ ..] = args else {
        return Err(std::io::Error::other(
            "usage: --measure-child REPORT WORKERS PROGRAM ARGS...",
        ));
    };
    let workers = workers
        .parse::<usize>()
        .map_err(|_| std::io::Error::other("WORKERS takes a whole number"))?;
    let t0 = Instant::now();
    let child = Command::new(program).args(rest).spawn()?;
    let (ok, peak) = match spread_workers(&child, workers)? {
        Some(done) => done,
        None => reap(&child, true)?.expect("a blocking reap returns the status"),
    };
    std::fs::write(report, format!("{} {peak}\n", t0.elapsed().as_secs_f64()))?;
    Ok(ok)
}

/// Bind the first `workers` threads `child` starts besides its main
/// thread to the allowed CPUs in turn, watching `/proc` until all have
/// appeared. Where the kernel does not balance load between CPUs, the
/// threads of a process otherwise all stay on the CPU it started on in
/// some runs and spread in others, which halves or doubles a two-thread
/// wall time from run to run. Returns the child's status if it exits
/// first.
fn spread_workers(child: &Child, workers: usize) -> std::io::Result<Option<(bool, f64)>> {
    let cpus = allowed_cpus();
    if workers == 0 || cpus.len() < 2 {
        return Ok(None);
    }
    let pid = child.id();
    let tasks = format!("/proc/{pid}/task");
    let mut bound = BTreeSet::new();
    while bound.len() < workers {
        if let Some(done) = reap(child, false)? {
            return Ok(Some(done));
        }
        for entry in std::fs::read_dir(&tasks)?.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|t| t.parse::<i32>().ok())
            else {
                continue;
            };
            if tid as u32 != pid && bound.len() < workers && bound.insert(tid) {
                // A thread that has already exited cannot be bound.
                let _ = pin(tid, cpus[(bound.len() - 1) % cpus.len()]);
            }
        }
        std::thread::sleep(Duration::from_micros(250));
    }
    Ok(None)
}

/// One `GET` over a fresh connection; returns `(status, body)`.
pub fn http_get(
    addr: SocketAddr,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut conn = TcpStream::connect_timeout(&addr, timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    conn.set_nodelay(true)?;
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    http_reply(conn)
}

/// One `POST` with an empty body; returns `(status, body)`.
pub fn http_post(
    addr: SocketAddr,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut conn = TcpStream::connect_timeout(&addr, timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.write_all(
        format!("POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n").as_bytes(),
    )?;
    http_reply(conn)
}

fn http_reply(mut conn: TcpStream) -> std::io::Result<(u16, Vec<u8>)> {
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP reply");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

/// Percent-encode a query-string value.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// splitmix64: derives the per-input seeds from the command-line seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_permille(10_000), 999);
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(999), 950);
        assert_eq!(tail_permille(200), 950);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(40), 750);
        assert_eq!(tail_permille(12), 500);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 950), 95.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn ledger_counts_failures() {
        let mut l = Ledger::default();
        assert!(l.same("x", b"abc", b"abc"));
        assert!(!l.same("y", b"abc", b"abd"));
        assert_eq!((l.attempted, l.failed), (2, 1));
    }
}
