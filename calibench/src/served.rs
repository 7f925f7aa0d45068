//! `served-mixed`: a `cali-served` daemon under two closed loops — one
//! ingest client sending 256-record batches through the shipped
//! `IngestClient` and waiting for each ack, and one query client
//! sending back-to-back `GET /query` rollups.

use std::io::BufReader;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use caliper_format::{CaliReader, Dataset};
use caliper_query::{parse_query, run_query, AggregationSpec};
use caliper_served::{IngestClient, Reply, ServedConfig, StreamState};

use crate::inputs::Batch;
use crate::trace::Tracer;
use crate::util::{
    http_get, http_post, median, percent_encode, pin, reap, served_cpus, Latency, Ledger,
};
use crate::{Ctx, Load, Metrics};

/// The resident scheme, as daemon flags and as the equivalent query.
pub const AGGREGATE: &str = "count,sum(sum#time.duration)";
pub const GROUP_BY: &str = "kernel,mpi.function";
const RESIDENT: &str = "AGGREGATE count, sum(sum#time.duration) GROUP BY kernel, mpi.function";
/// The query loop's rollup by kernel over the warm rows.
const ROLLUP: &str =
    "AGGREGATE sum(count), sum(sum#sum#time.duration) GROUP BY kernel ORDER BY kernel FORMAT csv";
/// The final check: the warm rows themselves, in a fixed order.
const WARM_ROWS: &str = "SELECT kernel, mpi.function, count, sum#sum#time.duration \
     ORDER BY kernel, mpi.function FORMAT csv";
const OFFLINE: &str = "SELECT kernel, mpi.function, count, sum#sum#time.duration \
     AGGREGATE count, sum(sum#time.duration) GROUP BY kernel, mpi.function \
     ORDER BY kernel, mpi.function FORMAT csv";
const STREAM: &str = "bench";
const TIMEOUT: Duration = Duration::from_secs(10);

/// A running daemon; dropping it kills and reaps it if it still runs.
pub struct Daemon {
    child: Child,
    reaped: bool,
    pub ingest: SocketAddr,
    pub http: SocketAddr,
    pub data_dir: PathBuf,
}

impl Daemon {
    /// Spawn `cali-served` on `data_dir` (fsync off, the default) and
    /// wait until `/readyz` answers 200.
    pub fn start(ctx: &Ctx, data_dir: &Path) -> std::io::Result<Daemon> {
        std::fs::create_dir_all(data_dir)?;
        let ports = data_dir.with_extension("ports");
        let _ = std::fs::remove_file(&ports);
        let log = std::fs::File::create(data_dir.with_extension("log"))?;
        let mut cmd = Command::new(ctx.bin("cali-served"));
        cmd.args(["--data-dir", &data_dir.display().to_string()])
            .args(["--ports-file", &ports.display().to_string()])
            .args(["--aggregate", AGGREGATE, "--group-by", GROUP_BY])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        if let Some((_, server)) = served_cpus() {
            // SAFETY: `pin` only makes the sched_setaffinity(2) system
            // call, which is async-signal-safe.
            unsafe {
                cmd.pre_exec(move || pin(0, server));
            }
        }
        let child = cmd.spawn()?;
        let mut daemon = Daemon {
            child,
            reaped: false,
            ingest: ([127, 0, 0, 1], 0).into(),
            http: ([127, 0, 0, 1], 0).into(),
            data_dir: data_dir.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&ports) {
                let port = |key: &str| {
                    text.lines()
                        .find_map(|l| l.strip_prefix(key))
                        .and_then(|p| p.trim().parse::<u16>().ok())
                };
                if let (Some(i), Some(h)) = (port("ingest="), port("http=")) {
                    daemon.ingest.set_port(i);
                    daemon.http.set_port(h);
                    if matches!(http_get(daemon.http, "/readyz", TIMEOUT), Ok((200, _))) {
                        return Ok(daemon);
                    }
                }
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other("cali-served did not become ready"));
            }
            if reap(&daemon.child, false)?.is_some() {
                daemon.reaped = true;
                return Err(std::io::Error::other("cali-served exited during start-up"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Graceful drain via `POST /shutdown`: whether the daemon exited 0,
    /// and its peak RSS in MiB.
    pub fn shutdown(mut self) -> (bool, f64) {
        let asked = matches!(http_post(self.http, "/shutdown", TIMEOUT), Ok((200, _)));
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match reap(&self.child, false) {
                Ok(Some((ok, peak))) => {
                    self.reaped = true;
                    return (asked && ok, peak);
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        (false, f64::NAN)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = reap(&self.child, true);
        }
    }
}

/// The ingest side of the closed loops: one connection for the whole
/// run, cycling through the batches.
pub struct Ingest {
    client: IngestClient,
    next: usize,
    /// Indices of the acknowledged batches, in send order.
    sent: Vec<usize>,
}

impl Ingest {
    pub fn connect(daemon: &Daemon) -> std::io::Result<Ingest> {
        let mut client = IngestClient::connect(daemon.ingest, TIMEOUT)?;
        match client.hello(STREAM)? {
            Reply::Ok(_) => Ok(Ingest {
                client,
                next: 0,
                sent: Vec::new(),
            }),
            other => Err(std::io::Error::other(format!("HELLO refused: {other:?}"))),
        }
    }
}

/// What one burst of the closed loops saw.
#[derive(Default)]
struct Burst {
    acks_ms: Vec<f64>,
    queries_ms: Vec<f64>,
    acked_records: u64,
    elapsed_s: f64,
}

/// Run the ingest and the query closed loops together for `length`
/// (at least one ack), each on its own thread, both on a CPU other than
/// the daemon's.
fn closed_loops(
    daemon: &Daemon,
    ingest: &mut Ingest,
    batches: &[Batch],
    length: Duration,
    led: &mut Ledger,
) -> Burst {
    let stop = AtomicBool::new(false);
    let rollup = format!("/query?q={}", percent_encode(ROLLUP));
    let start = Instant::now();
    let client = || {
        if let Some((client, _)) = served_cpus() {
            let _ = pin(0, client);
        }
    };
    let (ingest_side, query_side) = std::thread::scope(|s| {
        let query = s.spawn(|| {
            client();
            let mut local = Ledger::default();
            let mut lat = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let t0 = Instant::now();
                let reply = http_get(daemon.http, &rollup, TIMEOUT);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let ok = matches!(reply, Ok((200, ref body)) if !body.is_empty());
                if local.op(ok, || format!("query: not 200: {:?}", reply.map(|r| r.0))) {
                    lat.push(ms);
                }
            }
            (local, lat)
        });
        let ingest = s.spawn(|| {
            client();
            let mut local = Ledger::default();
            let (mut acks, mut records) = (Vec::new(), 0u64);
            while acks.is_empty() || start.elapsed() < length {
                let idx = ingest.next % batches.len();
                ingest.next += 1;
                let t0 = Instant::now();
                let reply = ingest.client.send_batch(&batches[idx].payload);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let ok = matches!(reply, Ok(Reply::Ok(_)));
                if local.op(ok, || format!("ingest: batch {idx} not acked: {reply:?}")) {
                    acks.push(ms);
                    ingest.sent.push(idx);
                    records += batches[idx].records;
                } else if reply.is_err() {
                    break;
                }
            }
            stop.store(true, Ordering::SeqCst);
            (local, acks, records)
        });
        (
            ingest.join().expect("ingest thread"),
            query.join().expect("query thread"),
        )
    });
    let (ingest_led, acks_ms, acked_records) = ingest_side;
    let (query_led, queries_ms) = query_side;
    led.absorb(ingest_led);
    led.absorb(query_led);
    Burst {
        acks_ms,
        queries_ms,
        acked_records,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// The warm rows as the daemon serves them.
fn warm_rows(daemon: &Daemon) -> Option<Vec<u8>> {
    match http_get(
        daemon.http,
        &format!("/query?q={}", percent_encode(WARM_ROWS)),
        TIMEOUT,
    ) {
        Ok((200, body)) => Some(body),
        _ => None,
    }
}

/// The same rows computed offline: `run_query` of the resident scheme
/// over every acknowledged batch, in send order.
fn offline_rows(batches: &[Batch], sent: &[usize]) -> Vec<u8> {
    let mut reader = CaliReader::into_dataset(Dataset::new());
    for &i in sent {
        reader
            .read_stream(BufReader::new(&batches[i].payload[..]))
            .expect("generated batches decode");
    }
    let ds = reader.finish();
    run_query(&ds, OFFLINE)
        .expect("offline query")
        .render()
        .into_bytes()
}

/// The untraced load: bursts of the two closed loops on the daemon
/// started during set-up, over one ingest connection.
pub struct ServedLoad<'a> {
    daemon: Daemon,
    ingest: Option<Ingest>,
    batches: &'a [Batch],
    total: Burst,
}

/// Length of one burst of the closed loops.
const BURST: Duration = Duration::from_millis(500);

impl<'a> ServedLoad<'a> {
    pub fn new(daemon: Daemon, batches: &'a [Batch], led: &mut Ledger) -> ServedLoad<'a> {
        let ingest = Ingest::connect(&daemon);
        led.op(ingest.is_ok(), || {
            format!("ingest connection refused: {:?}", ingest.as_ref().err())
        });
        ServedLoad {
            daemon,
            ingest: ingest.ok(),
            batches,
            total: Burst::default(),
        }
    }
}

impl Load for ServedLoad<'_> {
    fn step(&mut self, _ctx: &Ctx, led: &mut Ledger) {
        let Some(ingest) = self.ingest.as_mut() else {
            return;
        };
        let burst = closed_loops(&self.daemon, ingest, self.batches, BURST, led);
        self.total.acks_ms.extend(burst.acks_ms);
        self.total.queries_ms.extend(burst.queries_ms);
        self.total.acked_records += burst.acked_records;
        self.total.elapsed_s += burst.elapsed_s;
    }

    fn ready(&self) -> bool {
        self.ingest.is_none() || !self.total.acks_ms.is_empty()
    }

    fn finish(self: Box<Self>, ctx: &Ctx, m: &mut Metrics, led: &mut Ledger) -> f64 {
        let ServedLoad {
            daemon,
            ingest,
            batches,
            total,
        } = *self;
        if let Some(mut ingest) = ingest {
            let _ = ingest.client.quit();
            match warm_rows(&daemon) {
                Some(served) => {
                    let offline = ctx.maybe_corrupt(offline_rows(batches, &ingest.sent));
                    led.same("served /query equals offline run_query", &offline, &served);
                }
                None => {
                    led.op(false, || "final /query failed".to_string());
                }
            }
        }
        let (drained, peak) = daemon.shutdown();
        led.op(drained, || "cali-served did not drain cleanly".to_string());
        let acks = Latency::of(&total.acks_ms);
        let queries = Latency::of(&total.queries_ms);
        m.set("ingest_rec_s", total.acked_records as f64 / total.elapsed_s);
        m.note(
            "ingest_rec_s",
            format!(
                "{} batches acked in {:.2} s of closed loops, fsync off",
                acks.n, total.elapsed_s
            ),
        );
        m.set("ingest_ack_p50_ms", acks.p50);
        m.note("ingest_ack_p50_ms", format!("n={}", acks.n));
        m.set("ingest_ack_tail_ms", acks.tail);
        m.note(
            "ingest_ack_tail_ms",
            format!("{} of n={}", acks.tail_name, acks.n),
        );
        m.set("query_p50_ms", queries.p50);
        m.note("query_p50_ms", format!("n={}", queries.n));
        m.set("query_tail_ms", queries.tail);
        m.note(
            "query_tail_ms",
            format!("{} of n={}", queries.tail_name, queries.n),
        );
        peak
    }
}

fn stat(stats: &str, name: &str) -> f64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix('=')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// What the traced composition measured.
pub struct Composition {
    pings_ms: Vec<f64>,
    healthz_ms: Vec<f64>,
    inproc_records: u64,
    journal_bytes: u64,
    stats: String,
    replay_s: f64,
}

/// The traced composition against a live daemon: the PING and
/// `/healthz` floors, a short closed loop, the in-process batch path
/// (`CaliReader::read_stream`, then `StreamState::process_batch`) on the
/// same batches, `/stats`, and a graceful restart on the same data dir
/// whose answer must equal the answer before it. Returns the restarted
/// daemon.
pub fn compose(
    ctx: &Ctx,
    daemon: Daemon,
    batches: &[Batch],
    length: Duration,
    t: &Tracer,
    led: &mut Ledger,
) -> (Option<Daemon>, Composition) {
    let (mut pings_ms, mut healthz_ms) = (Vec::new(), Vec::new());
    let client = t.span("served.connect", || {
        IngestClient::connect(daemon.ingest, TIMEOUT).and_then(|mut c| c.hello("ping").map(|_| c))
    });
    if let Ok(mut c) = client {
        for _ in 0..20 {
            let t0 = Instant::now();
            let ok = matches!(t.span("served.ping", || c.ping()), Ok(Reply::Ok(_)));
            if led.op(ok, || "PING not acked".to_string()) {
                pings_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        t.span("served.quit", || c.quit()).ok();
    } else {
        led.op(false, || "ping connection refused".to_string());
    }
    for _ in 0..20 {
        let t0 = Instant::now();
        let ok = matches!(
            t.span("served.healthz", || http_get(
                daemon.http,
                "/healthz",
                TIMEOUT
            )),
            Ok((200, _))
        );
        if led.op(ok, || "/healthz not 200".to_string()) {
            healthz_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    // The query thread cannot record into this tracer; the whole loop
    // is one served-layer span.
    match t.span("served.connect", || Ingest::connect(&daemon)) {
        Ok(mut ingest) => {
            t.span("served.closed_loop", || {
                closed_loops(&daemon, &mut ingest, batches, length, led)
            });
            t.span("served.quit", || ingest.client.quit()).ok();
        }
        Err(e) => {
            led.op(false, || format!("ingest connection refused: {e}"));
        }
    }

    let scratch = ctx.work.join("served-inproc");
    let _ = std::fs::remove_dir_all(&scratch);
    let cfg = ServedConfig {
        data_dir: scratch.clone(),
        aggregate_ops: AGGREGATE.to_string(),
        aggregate_key: GROUP_BY.to_string(),
        ..ServedConfig::default()
    };
    let spec = AggregationSpec::from_query(&parse_query(RESIDENT).expect("resident scheme parses"));
    for b in batches {
        let ds = t.span("format.decode", || {
            let mut reader = CaliReader::new();
            reader
                .read_stream(BufReader::new(&b.payload[..]))
                .map(|_| reader.finish())
        });
        led.op(ds.is_ok(), || "batch does not decode".to_string());
        t.span("format.drop", || drop(ds));
    }
    let state = t.span("served.open", || StreamState::open(STREAM, &cfg, &spec));
    if let Ok(mut state) = state {
        for b in batches {
            let ok = t
                .span("served.process_batch", || state.process_batch(&b.payload))
                .is_ok();
            led.op(ok, || "in-process batch rejected".to_string());
        }
        t.span("served.finalize", || state.finalize()).ok();
        t.span("served.drop", || drop(state));
    } else {
        led.op(false, || "scratch stream did not open".to_string());
    }
    let journal = caliper_served::state::journal_path(&scratch, STREAM);
    let journal_bytes = std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0);

    let stats = match t.span("served.stats", || http_get(daemon.http, "/stats", TIMEOUT)) {
        Ok((200, body)) => String::from_utf8_lossy(&body).into_owned(),
        _ => {
            led.op(false, || "/stats not 200".to_string());
            String::new()
        }
    };
    let before = t.span("served.query", || warm_rows(&daemon));
    let data_dir = daemon.data_dir.clone();
    let (drained, _) = t.span("served.shutdown", || daemon.shutdown());
    led.op(drained, || "drain before restart failed".to_string());
    let t0 = Instant::now();
    let restarted = t
        .span("served.replay", || Daemon::start(ctx, &data_dir))
        .ok();
    let replay_s = t0.elapsed().as_secs_f64();
    let after = restarted
        .as_ref()
        .and_then(|d| t.span("served.query", || warm_rows(d)));
    match (before, after) {
        (Some(before), Some(after)) => {
            led.same(
                "served answer byte-equal across restart",
                &ctx.maybe_corrupt(before),
                &after,
            );
        }
        _ => {
            led.op(false, || "served answer missing around restart".to_string());
        }
    }
    (
        restarted,
        Composition {
            pings_ms,
            healthz_ms,
            inproc_records: batches.iter().map(|b| b.records).sum(),
            journal_bytes,
            stats,
            replay_s,
        },
    )
}

pub fn layer_metrics(t: &Tracer, root: usize, c: &Composition, m: &mut Metrics) {
    let s = t.summarize(root);
    let records = c.inproc_records.max(1) as f64;
    m.set("served.ping_p50_ms", median(&c.pings_ms));
    m.set("served.healthz_p50_ms", median(&c.healthz_ms));
    m.set(
        "served.process_batch_ns_per_rec",
        s.total_ns("served.process_batch") / records,
    );
    m.set(
        "served.decode_ns_per_rec",
        s.total_ns("format.decode") / records,
    );
    m.set(
        "served.journal_bytes_per_rec",
        c.journal_bytes as f64 / records,
    );
    m.set(
        "served.busy_replies",
        stat(&c.stats, "served.ingest.rejected"),
    );
    m.set(
        "served.ingest.failed",
        stat(&c.stats, "served.ingest.failed"),
    );
    m.set(
        "served.query.deadline_exceeded",
        stat(&c.stats, "served.query.deadline_exceeded"),
    );
    m.set("served.replay_s", c.replay_s);
}
