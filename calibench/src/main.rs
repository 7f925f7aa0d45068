//! calibench — the end-to-end and per-layer benchmark of caliper-rs.
//!
//! ```text
//! calibench --bin-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//!           [--paradis-seed N] [--cleverleaf-seed N] [--cut-seed N]
//!           [--size full|tiny] [--work-dir DIR] [--corrupt-reference]
//! ```
//!
//! Each run generates its inputs from the seeds, sets up (five times,
//! reporting the median), then measures every front door: the
//! workload's own two at full size for most of the run, the other two
//! at a small probe size. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the traced compositions and prints the per-layer
//! metrics. The last stdout line is one JSON object.

mod inputs;
mod mpi;
mod online;
mod scan;
mod served;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::{Batch, Corpus};
use trace::Tracer;
use util::{median, mix, Ledger};

/// End-to-end metrics: (name, unit, better).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("scan_text_rec_s", "rec/s", "higher"),
    ("scan_v1_rec_s", "rec/s", "higher"),
    ("scan_v2_rec_s", "rec/s", "higher"),
    ("scan_parallel_rec_s", "rec/s", "higher"),
    ("scan_pushdown_rec_s", "rec/s", "higher"),
    ("online_agg_snap_s", "snap/s", "higher"),
    ("online_trace_snap_s", "snap/s", "higher"),
    ("ingest_rec_s", "rec/s", "higher"),
    ("ingest_ack_p50_ms", "ms", "lower"),
    ("ingest_ack_tail_ms", "ms", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_tail_ms", "ms", "lower"),
    ("mpi_query_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics of the traced run: (name, unit, better).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("cli.schema_ms", "ms", "lower"),
    ("format.decode_ns_per_rec.text", "ns/rec", "lower"),
    ("format.decode_ns_per_rec.v1", "ns/rec", "lower"),
    ("format.decode_ns_per_rec.v2", "ns/rec", "lower"),
    ("format.bytes_per_rec.text", "B/rec", "lower"),
    ("format.bytes_per_rec.v1", "B/rec", "lower"),
    ("format.bytes_per_rec.v2", "B/rec", "lower"),
    ("format.pushdown.decode_ns_per_rec", "ns/rec", "lower"),
    ("format.pushdown.blocks_skipped_ratio", "ratio", "higher"),
    ("format.pushdown.blocks_total", "count", "lower"),
    ("query.parse_us", "us", "lower"),
    ("query.aggregate_ns_per_rec", "ns/rec", "lower"),
    ("query.merge_us", "us", "lower"),
    ("query.finish_us", "us", "lower"),
    ("format.render_us", "us", "lower"),
    ("query.parallel.worker_busy_ratio", "ratio", "higher"),
    ("query.parallel.merge_ms", "ms", "lower"),
    ("runtime.annotate_ns_per_op", "ns/op", "lower"),
    ("runtime.snapshot_ns.trace", "ns/snap", "lower"),
    ("runtime.snapshot_ns.a", "ns/snap", "lower"),
    ("runtime.snapshot_ns.b", "ns/snap", "lower"),
    ("runtime.snapshot_ns.c", "ns/snap", "lower"),
    ("runtime.flush_ms.trace", "ms", "lower"),
    ("runtime.flush_ms.c", "ms", "lower"),
    ("runtime.outputs.trace", "count", "lower"),
    ("runtime.outputs.a", "count", "lower"),
    ("runtime.outputs.b", "count", "lower"),
    ("runtime.outputs.c", "count", "lower"),
    ("served.ping_p50_ms", "ms", "lower"),
    ("served.healthz_p50_ms", "ms", "lower"),
    ("served.process_batch_ns_per_rec", "ns/rec", "lower"),
    ("served.decode_ns_per_rec", "ns/rec", "lower"),
    ("served.journal_bytes_per_rec", "B/rec", "lower"),
    ("served.busy_replies", "count", "lower"),
    ("served.ingest.failed", "count", "lower"),
    ("served.query.deadline_exceeded", "count", "lower"),
    ("served.replay_s", "s", "lower"),
    ("mpisim.sched_events", "count", "lower"),
    ("mpisim.ns_per_event", "ns/event", "lower"),
    ("mpisim.max_queue_depth", "count", "lower"),
    ("mpisim.scale_exponent", "exponent", "lower"),
    ("query.local_ms", "ms", "lower"),
    ("offline-scan.coverage", "ratio", "higher"),
    ("offline-scan.trace_overhead", "ratio", "lower"),
    ("online-annotate.coverage", "ratio", "higher"),
    ("online-annotate.trace_overhead", "ratio", "lower"),
    ("served-mixed.coverage", "ratio", "higher"),
    ("served-mixed.trace_overhead", "ratio", "lower"),
    ("mpi-reduce.coverage", "ratio", "higher"),
    ("mpi-reduce.trace_overhead", "ratio", "lower"),
];

/// The four front doors under load, each named after what it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Scan,
    Online,
    Served,
    Mpi,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Scan => "offline-scan",
            Stage::Online => "online-annotate",
            Stage::Served => "served-mixed",
            Stage::Mpi => "mpi-reduce",
        }
    }
}

/// The two workloads. Each runs two front doors at full size: the
/// offline ones, which read the ParaDiS corpus from files, or the
/// on-line ones, which take data as the application makes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Offline,
    Online,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Offline, Workload::Online];

    fn name(self) -> &'static str {
        match self {
            Workload::Offline => "offline-scan-reduce",
            Workload::Online => "online-annotate-serve",
        }
    }

    /// Whether this workload runs `stage` at full size.
    fn is_full(self, stage: Stage) -> bool {
        matches!(
            (self, stage),
            (Workload::Offline, Stage::Scan | Stage::Mpi)
                | (Workload::Online, Stage::Online | Stage::Served)
        )
    }
}

/// Input sizes of one run: the workload's own stages at full size, the
/// others at probe size.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// ParaDiS ranks × iterations of the full corpus (scan or mpi focus).
    full_corpus: Option<(usize, usize)>,
    probe_corpus: (usize, usize),
    online: (usize, usize),
    served: (usize, usize),
    mpi_ranks: usize,
    /// Ranks of the traced run's synthetic reduction (and half of it,
    /// for the scale exponent).
    reduce_ranks: usize,
    /// Closed-loop length of the served traced composition.
    served_trace_loop: Duration,
}

fn sizes(focus: Workload, tiny: bool) -> Sizes {
    let full = |stage: Stage| focus.is_full(stage) && !tiny;
    Sizes {
        full_corpus: (full(Stage::Scan) || full(Stage::Mpi)).then_some((16, 50)),
        probe_corpus: if tiny { (2, 2) } else { (8, 25) },
        online: if full(Stage::Online) {
            (1, 20)
        } else if tiny {
            (1, 2)
        } else {
            (1, 4)
        },
        served: if full(Stage::Served) {
            (64, 25)
        } else if tiny {
            (2, 2)
        } else {
            (8, 10)
        },
        mpi_ranks: if full(Stage::Mpi) {
            16_384
        } else if tiny {
            64
        } else {
            4_096
        },
        reduce_ranks: if full(Stage::Mpi) {
            32_768
        } else if tiny {
            64
        } else {
            4_096
        },
        served_trace_loop: Duration::from_millis(if full(Stage::Served) { 2_000 } else { 300 }),
    }
}

/// Seeds of the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub paradis: u64,
    pub cleverleaf: u64,
    pub cut: u64,
}

impl Seeds {
    /// The iteration the selective query picks.
    pub fn iteration(&self, iterations: usize) -> i64 {
        (mix(self.paradis, 4) % iterations.max(1) as u64) as i64
    }
}

/// What every stage needs from the run.
pub struct Ctx {
    pub bin_dir: PathBuf,
    pub work: PathBuf,
    pub seeds: Seeds,
    /// Flip one byte of each reference output (self-test of the checks).
    pub corrupt: bool,
}

impl Ctx {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    pub fn maybe_corrupt(&self, mut reference: Vec<u8>) -> Vec<u8> {
        if self.corrupt {
            if let Some(b) = reference.first_mut() {
                *b ^= 0x01;
            }
        }
        reference
    }
}

/// Metric values and notes by name; units come from [`END_TO_END`]
/// and [`PER_LAYER`].
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, name: &str, note: String) {
        self.notes.insert(name.to_string(), note);
    }
}

struct Args {
    bin_dir: PathBuf,
    work_dir: PathBuf,
    focus: Workload,
    seed: u64,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut corrupt = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument '{arg}'"));
        };
        if name == "corrupt-reference" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let num = |name: &str| -> Result<Option<u64>, String> {
        flags
            .get(name)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{name} takes a whole number"))
            })
            .transpose()
    };
    let workload = flags.get("workload").ok_or("--workload is required")?;
    let focus = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let seed = num("seed")?.ok_or("--seed is required")?;
    let seconds = flags
        .get("seconds")
        .ok_or("--seconds is required")?
        .parse::<f64>()
        .map_err(|_| "--seconds takes a number")?;
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let tiny = match flags.get("size").map(String::as_str) {
        None | Some("full") => false,
        Some("tiny") => true,
        Some(other) => return Err(format!("--size takes full or tiny, not '{other}'")),
    };
    let bin_dir = flags.get("bin-dir").ok_or("--bin-dir is required")?.into();
    Ok(Args {
        bin_dir,
        work_dir: flags
            .get("work-dir")
            .map_or(".bench_work".into(), PathBuf::from),
        focus,
        seed,
        seeds: Seeds {
            paradis: num("paradis-seed")?.unwrap_or(mix(seed, 1)),
            cleverleaf: num("cleverleaf-seed")?.unwrap_or(mix(seed, 2)),
            cut: num("cut-seed")?.unwrap_or(mix(seed, 3)),
        },
        seconds,
        trace,
        tiny,
        corrupt,
    })
}

/// The generated inputs.
struct Inputs {
    full: Option<Corpus>,
    probe: Corpus,
    batches: Vec<Batch>,
}

impl Inputs {
    /// The corpus `stage` reads: the full one for the workload's own
    /// stages, the probe one otherwise.
    fn corpus(&self, stage: Stage, focus: Workload) -> &Corpus {
        match &self.full {
            Some(full) if focus.is_full(stage) => full,
            _ => &self.probe,
        }
    }
}

/// Generate and pack the corpora, cut the ingest batches, and start the
/// daemon (spawn to `/readyz`).
fn setup(
    ctx: &Ctx,
    sz: &Sizes,
    dir: &Path,
    led: &mut Ledger,
) -> std::io::Result<(Inputs, served::Daemon)> {
    let full = match sz.full_corpus {
        Some(size) => Some(inputs::make_corpus(ctx, &dir.join("full"), size, led)?),
        None => None,
    };
    let probe = inputs::make_corpus(ctx, &dir.join("probe"), sz.probe_corpus, led)?;
    let (ranks, iters) = sz.served;
    let batches = inputs::cut_batches(ranks, iters, ctx.seeds.paradis, ctx.seeds.cut, 256);
    let daemon = served::Daemon::start(ctx, &dir.join("served"))?;
    Ok((
        Inputs {
            full,
            probe,
            batches,
        },
        daemon,
    ))
}

const SETUP_REPEATS: usize = 5;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--measure-child") {
        return match util::measure_child(&argv[2..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("calibench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("calibench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("calibench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> std::io::Result<ExitCode> {
    for name in ["cali-query", "cali-pack", "cali-served", "mpi-caliquery"] {
        if !args.bin_dir.join(name).is_file() {
            return Err(std::io::Error::other(format!(
                "{name} not found in {}",
                args.bin_dir.display()
            )));
        }
    }
    let workload = args.focus.name();
    let work = args
        .work_dir
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work)?;
    let ctx = Ctx {
        bin_dir: args.bin_dir.clone(),
        work: work.clone(),
        seeds: args.seeds,
        corrupt: args.corrupt,
    };
    let sz = sizes(args.focus, args.tiny);
    let mut led = Ledger::default();
    let mut m = Metrics::default();
    eprintln!(
        "calibench: workload {workload}, seed {} (paradis {:#x}, cleverleaf {:#x}, cut {:#x}), {} s, trace {}",
        args.seed, args.seeds.paradis, args.seeds.cleverleaf, args.seeds.cut, args.seconds, args.trace as u8
    );

    // Set up several times; keep the last, report the median.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut made: Option<(Inputs, served::Daemon)> = None;
    for k in 0..repeats {
        if let Some((_, daemon)) = made.take() {
            led.op(daemon.shutdown().0, || {
                "set-up daemon did not drain".to_string()
            });
            let _ = std::fs::remove_dir_all(work.join(format!("setup-{}", k - 1)));
        }
        let dir = work.join(format!("setup-{k}"));
        let t0 = Instant::now();
        made = Some(setup(&ctx, &sz, &dir, &mut led)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (inputs, daemon) = made.expect("at least one set-up");
    m.set("setup_s", median(&setup_s));
    m.note(
        "setup_s",
        format!("median of {repeats} set-ups: corpus generation, packing, daemon spawn to /readyz"),
    );

    if args.trace {
        traced(&ctx, args, &sz, &inputs, daemon, &mut m, &mut led)?;
    } else {
        untraced(&ctx, args, &sz, &inputs, daemon, &mut m, &mut led);
    }
    let _ = std::fs::remove_dir_all(&work);
    report(args, &m, &led)
}

/// One front door under load, advanced a unit of work at a time so the
/// four loads can be interleaved over the whole run.
pub trait Load {
    /// Run one unit of work.
    fn step(&mut self, ctx: &Ctx, led: &mut Ledger);
    /// True once the load has the samples its checks need.
    fn ready(&self) -> bool;
    /// Set the load's metrics and run its output checks; returns the
    /// peak RSS (MiB) of the process that did the work.
    fn finish(self: Box<Self>, ctx: &Ctx, m: &mut Metrics, led: &mut Ledger) -> f64;
}

/// Share of `--seconds` the workload's own two front doors split; the
/// other two split the rest.
const FOCUS_SHARE: f64 = 0.7;

/// The untraced run. The loads take turns, each next turn going to the
/// load furthest behind its share of the time, so every metric samples
/// the whole run rather than one stretch of it.
fn untraced(
    ctx: &Ctx,
    args: &Args,
    sz: &Sizes,
    inputs: &Inputs,
    daemon: served::Daemon,
    m: &mut Metrics,
    led: &mut Ledger,
) {
    let focus = args.focus;
    let (ranks, steps) = sz.online;
    let mut loads: Vec<(Stage, Box<dyn Load + '_>)> = vec![
        (
            Stage::Scan,
            Box::new(scan::ScanLoad::new(ctx, inputs.corpus(Stage::Scan, focus))),
        ),
        (
            Stage::Online,
            Box::new(online::OnlineLoad::new(online::app(
                ranks,
                steps,
                ctx.seeds.cleverleaf,
            ))),
        ),
        (
            Stage::Served,
            Box::new(served::ServedLoad::new(daemon, &inputs.batches, led)),
        ),
        (
            Stage::Mpi,
            Box::new(mpi::MpiLoad::new(
                ctx,
                inputs.corpus(Stage::Mpi, focus),
                sz.mpi_ranks,
                led,
            )),
        ),
    ];
    let share = |stage: Stage| {
        if focus.is_full(stage) {
            FOCUS_SHARE / 2.0
        } else {
            (1.0 - FOCUS_SHARE) / 2.0
        }
    };
    let mut used = [0.0f64; 4];
    let budget = args.seconds;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < budget || loads.iter().any(|(_, l)| !l.ready()) {
        let i = (0..loads.len())
            .min_by(|&a, &b| {
                (used[a] / share(loads[a].0)).total_cmp(&(used[b] / share(loads[b].0)))
            })
            .expect("four loads");
        let t0 = Instant::now();
        loads[i].1.step(ctx, led);
        // At least 1 ms a turn, so a load whose steps fail at once
        // cannot take every turn.
        used[i] += t0.elapsed().as_secs_f64().max(0.001);
    }
    eprintln!(
        "calibench: measured {:.2} s (scan {:.2} s, online {:.2} s, served {:.2} s, mpi {:.2} s)",
        start.elapsed().as_secs_f64(),
        used[0],
        used[1],
        used[2],
        used[3]
    );
    let mut peak = 0.0f64;
    for (stage, load) in loads {
        let p = load.finish(ctx, m, led);
        if focus.is_full(stage) {
            peak = peak.max(p);
        }
    }
    let whose = match focus {
        Workload::Offline => "the largest cali-query or mpi-caliquery",
        Workload::Online => {
            "the cali-served daemon or the benchmark process, which runs the annotation"
        }
    };
    m.set("peak_rss_mb", peak);
    m.note("peak_rss_mb", format!("larger VmHWM of {whose}"));
}

/// Record a stage's coverage (layer self time over the traced wall)
/// and tracing overhead (traced wall over untraced wall).
fn coverage(
    t: &Tracer,
    root: usize,
    untraced_s: f64,
    stage: Stage,
    m: &mut Metrics,
    led: &mut Ledger,
) {
    let s = t.summarize(root);
    let w = stage.name();
    m.set(&format!("{w}.coverage"), s.coverage);
    m.set(&format!("{w}.trace_overhead"), s.wall_s / untraced_s);
    m.note(
        &format!("{w}.coverage"),
        format!("traced wall {:.3} s", s.wall_s),
    );
    m.note(
        &format!("{w}.trace_overhead"),
        format!("untraced wall {untraced_s:.3} s"),
    );
    led.op((s.coverage - 1.0).abs() <= 0.1, || {
        format!(
            "{w}: layer coverage {:.3} is not within 10% of 1",
            s.coverage
        )
    });
}

/// Run `f` once with a disabled tracer to warm up, time it once more
/// disabled, then run it under the root span `bench.<workload>`; returns
/// the traced result, the root span and the untraced seconds.
fn untraced_then_traced<R>(
    t: &Tracer,
    stage: Stage,
    mut f: impl FnMut(&Tracer) -> R,
) -> (R, usize, f64) {
    let off = Tracer::new(false, 0);
    drop(f(&off));
    let t0 = Instant::now();
    drop(f(&off));
    let untraced_s = t0.elapsed().as_secs_f64();
    let name = format!("bench.{}", stage.name());
    let out = t.span(&name, || f(t));
    (out, t.last(&name).expect("root span recorded"), untraced_s)
}

/// The traced run: each stage's composition untraced (for the
/// overhead) and traced under a root span; the workload's own stages at
/// full size, the others at probe size.
fn traced(
    ctx: &Ctx,
    args: &Args,
    sz: &Sizes,
    inputs: &Inputs,
    daemon: served::Daemon,
    m: &mut Metrics,
    led: &mut Ledger,
) -> std::io::Result<()> {
    let focus = args.focus;
    let t = Tracer::new(true, args.seed);

    let corpus = inputs.corpus(Stage::Scan, focus);
    let (comp, root, untraced_s) =
        untraced_then_traced(&t, Stage::Scan, |t| scan::compose(ctx, corpus, t));
    scan::layer_metrics(ctx, corpus, &t, &comp, m, led);
    coverage(&t, root, untraced_s, Stage::Scan, m, led);

    let (ranks, steps) = sz.online;
    let app = online::app(ranks, steps, ctx.seeds.cleverleaf);
    let (counts, root, untraced_s) =
        untraced_then_traced(&t, Stage::Online, |t| online::compose(&app, t));
    online::layer_metrics(&app, &t, &counts, m, led);
    coverage(&t, root, untraced_s, Stage::Online, m, led);

    // The served composition ends with a restart, so each pass hands its
    // restarted daemon to the next.
    let mut daemon = Some(daemon);
    let (comp, root, untraced_s) = untraced_then_traced(&t, Stage::Served, |t| {
        let d = daemon.take().expect("daemon from the previous pass");
        let (restarted, comp) =
            served::compose(ctx, d, &inputs.batches, sz.served_trace_loop, t, led);
        daemon = restarted;
        comp
    });
    served::layer_metrics(&t, root, &comp, m);
    coverage(&t, root, untraced_s, Stage::Served, m, led);
    match daemon {
        Some(d) => led.op(d.shutdown().0, || {
            "restarted daemon did not drain".to_string()
        }),
        None => led.op(false, || "daemon did not restart".to_string()),
    };

    let corpus = inputs.corpus(Stage::Mpi, focus);
    let (comp, root, untraced_s) = untraced_then_traced(&t, Stage::Mpi, |t| {
        mpi::compose(corpus, sz.mpi_ranks, sz.reduce_ranks, t)
    });
    mpi::layer_metrics(&t, root, sz.reduce_ranks, &comp, m, led);
    coverage(&t, root, untraced_s, Stage::Mpi, m, led);

    let spans = ctx
        .work
        .with_file_name(format!("spans-{}.jsonl", focus.name()));
    t.write_jsonl(&spans)?;
    eprintln!("calibench: spans written to {}", spans.display());
    Ok(())
}

/// Print every metric as a line with its unit and direction, then the
/// JSON result as the last line.
fn report(args: &Args, m: &Metrics, led: &Ledger) -> std::io::Result<ExitCode> {
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    let error_ratio = led.failed as f64 / led.attempted.max(1) as f64;
    for failure in &led.failures {
        eprintln!("calibench: {failure}");
    }
    let mut json = Vec::new();
    for (name, unit, better) in spec {
        let Some(value) = m.values.get(*name) else {
            return Err(std::io::Error::other(format!(
                "metric {name} was not measured"
            )));
        };
        if !value.is_finite() {
            return Err(std::io::Error::other(format!(
                "metric {name} is not finite: {value}"
            )));
        }
        let note = m
            .notes
            .get(*name)
            .map_or(String::new(), |n| format!("  ({n})"));
        println!("{name:<40} {value:>16.4} {unit:<8} {better} is better{note}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{:<40} {error_ratio:>16.4} {:<8} lower is better  ({} failed of {} attempted)",
        "error_ratio", "ratio", led.failed, led.attempted
    );
    let correct = led.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        led.attempted,
        led.failed,
        json.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
