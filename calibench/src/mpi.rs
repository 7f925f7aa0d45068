//! `mpi-reduce`: `mpi-caliquery` on the event engine at thousands of
//! simulated ranks over the CALB v2 corpus, files assigned round-robin.

use std::path::PathBuf;
use std::sync::Arc;

use caliper_query::{parse_query, Pipeline};
use miniapps::paradis::EVALUATION_QUERY;
use mpisim::{EventEngine, FaultPlan, ReduceTask, ResilienceOptions, SchedStats, Topology};

use crate::inputs::{Corpus, Encoding};
use crate::trace::Tracer;
use crate::util::{median, run, Ledger};
use crate::{Ctx, Load, Metrics};

fn mpi_args(ranks: usize, files: &[PathBuf]) -> Vec<String> {
    let ranks = ranks.to_string();
    let mut args: Vec<String> = [
        "--engine",
        "event",
        "--ranks",
        &ranks,
        "--workers",
        "2",
        "-q",
        EVALUATION_QUERY,
    ]
    .map(String::from)
    .to_vec();
    args.extend(files.iter().map(|f| f.display().to_string()));
    args
}

/// The untraced load: each step is one `mpi-caliquery` run, whose
/// answer must equal `cali-query`'s on the same files.
pub struct MpiLoad<'a> {
    files: &'a [PathBuf],
    ranks: usize,
    reference: Option<Vec<u8>>,
    walls: Vec<f64>,
    peak: f64,
}

impl<'a> MpiLoad<'a> {
    pub fn new(ctx: &Ctx, corpus: &'a Corpus, ranks: usize, led: &mut Ledger) -> MpiLoad<'a> {
        let files = corpus.files(Encoding::V2);
        let args = crate::scan::query_args(EVALUATION_QUERY, 1, files);
        let reference = match run(&ctx.bin("cali-query"), &args, &ctx.work) {
            Ok(done) if done.ok => Some(ctx.maybe_corrupt(done.stdout)),
            _ => None,
        };
        led.op(reference.is_some(), || {
            "cali-query reference failed".to_string()
        });
        MpiLoad {
            files,
            ranks,
            reference,
            walls: Vec::new(),
            peak: 0.0,
        }
    }
}

impl Load for MpiLoad<'_> {
    fn step(&mut self, ctx: &Ctx, led: &mut Ledger) {
        let done = match run(
            &ctx.bin("mpi-caliquery"),
            &mpi_args(self.ranks, self.files),
            &ctx.work,
        ) {
            Ok(done) => done,
            Err(e) => {
                led.op(false, || format!("cannot run mpi-caliquery: {e}"));
                return;
            }
        };
        if !led.op(done.ok, || {
            format!(
                "mpi-caliquery failed: {}",
                String::from_utf8_lossy(&done.stderr)
            )
        }) {
            return;
        }
        self.walls.push(done.wall_s);
        self.peak = self.peak.max(done.peak_rss_mb);
        if let Some(reference) = &self.reference {
            led.same("mpi-caliquery equals cali-query", reference, &done.stdout);
        }
    }

    fn ready(&self) -> bool {
        !self.walls.is_empty()
    }

    fn finish(self: Box<Self>, _ctx: &Ctx, m: &mut Metrics, _led: &mut Ledger) -> f64 {
        m.set("mpi_query_s", median(&self.walls));
        m.note(
            "mpi_query_s",
            format!(
                "median of {} runs, {} ranks, {} files",
                self.walls.len(),
                self.ranks,
                self.files.len()
            ),
        );
        self.peak
    }
}

/// One synthetic reduction (payload = rank, merge = sum) over `ranks`
/// ranks on a two-worker event engine: the scheduler with no file work.
fn reduce(ranks: usize) -> (u64, SchedStats) {
    let opts = ResilienceOptions::default();
    let make = move |rank: usize, size: usize| {
        ReduceTask::new(
            rank,
            size,
            Topology::Flat,
            move || rank as u64,
            |a, b| a + b,
            opts,
        )
    };
    let (mut outputs, stats) =
        EventEngine::with_workers(2).run_tasks_with_stats(ranks, FaultPlan::default(), make);
    let sum = outputs[0].take().flatten().map_or(0, |(sum, _)| sum);
    (sum, stats)
}

pub struct Composition {
    stats: SchedStats,
    sum: u64,
}

/// The traced composition: the local phase (each of `ranks` ranks reads
/// and aggregates its round-robin files), then the synthetic reduction
/// at `reduce_ranks` and at half that, for the scale exponent.
pub fn compose(corpus: &Corpus, ranks: usize, reduce_ranks: usize, t: &Tracer) -> Composition {
    let files = corpus.files(Encoding::V2);
    let spec = parse_query(EVALUATION_QUERY).expect("evaluation query parses");
    t.span("query.local", || {
        for rank in 0..ranks.min(files.len()) {
            let mine: Vec<&PathBuf> = files.iter().skip(rank).step_by(ranks).collect();
            let ds = t
                .span("format.decode", || cali_cli::read_files(&mine))
                .expect("generated inputs decode");
            let part = t.span("query.aggregate", || {
                let mut p = Pipeline::new(spec.clone(), Arc::clone(&ds.store));
                p.process_dataset(&ds);
                p
            });
            t.span("format.drop", || drop((ds, part)));
        }
    });
    let (sum, stats) = t.span("mpisim.reduce", || reduce(reduce_ranks));
    t.span("mpisim.reduce_half", || reduce(reduce_ranks / 2));
    Composition { stats, sum }
}

pub fn layer_metrics(
    t: &Tracer,
    root: usize,
    ranks: usize,
    c: &Composition,
    m: &mut Metrics,
    led: &mut Ledger,
) {
    let expected = (ranks as u64) * (ranks as u64 - 1) / 2;
    led.op(c.sum == expected, || {
        format!("reduction sum {} != {expected}", c.sum)
    });
    let s = t.summarize(root);
    let full = s.total_ns("mpisim.reduce");
    let half = s.total_ns("mpisim.reduce_half");
    m.set("mpisim.sched_events", c.stats.events as f64);
    m.set("mpisim.ns_per_event", full / c.stats.events.max(1) as f64);
    m.set("mpisim.max_queue_depth", c.stats.max_queue_depth as f64);
    m.set("mpisim.scale_exponent", (full / half).log2());
    m.set("query.local_ms", s.total_ns("query.local") / 1e6);
}
