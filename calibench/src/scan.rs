//! `offline-scan`: `cali-query` over the ParaDiS corpus in text, CALB v1
//! and CALB v2, serial and with two threads, plus one selective query
//! whose WHERE clause lets the v2 reader skip blocks.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use caliper_format::{read_path_reported_filtered, ReadPolicy};
use caliper_query::{
    analyze, build_pushdown, parallel_query_files, parse_query_spanned, ParallelOptions, Pipeline,
};
use miniapps::paradis::EVALUATION_QUERY;

use crate::inputs::{Corpus, Encoding};
use crate::trace::Tracer;
use crate::util::{counter, median, run, run_spread, Ledger};
use crate::{Ctx, Load, Metrics};

/// The selective query: one iteration, so v2 zone maps prune blocks.
pub fn selective_query(iteration: i64) -> String {
    format!(
        "AGGREGATE count, sum(sum#time.duration) WHERE iteration = {iteration} \
         GROUP BY kernel, mpi.function"
    )
}

/// `cali-query` arguments: default flags plus the query and threads.
pub fn query_args(query: &str, threads: usize, files: &[PathBuf]) -> Vec<String> {
    let mut args = vec![
        "-q".to_string(),
        query.to_string(),
        "--threads".to_string(),
        threads.to_string(),
    ];
    args.extend(files.iter().map(|f| f.display().to_string()));
    args
}

/// The five `cali-query` invocations, by metric name.
fn plan(selective: &str) -> Vec<(&'static str, String, usize, Encoding)> {
    vec![
        (
            "scan_text_rec_s",
            EVALUATION_QUERY.to_string(),
            1,
            Encoding::Text,
        ),
        (
            "scan_v1_rec_s",
            EVALUATION_QUERY.to_string(),
            1,
            Encoding::V1,
        ),
        (
            "scan_v2_rec_s",
            EVALUATION_QUERY.to_string(),
            1,
            Encoding::V2,
        ),
        (
            "scan_parallel_rec_s",
            EVALUATION_QUERY.to_string(),
            2,
            Encoding::Text,
        ),
        (
            "scan_pushdown_rec_s",
            selective.to_string(),
            1,
            Encoding::V2,
        ),
    ]
}

/// The untraced load: each step runs the next of the five invocations.
pub struct ScanLoad<'a> {
    corpus: &'a Corpus,
    selective: String,
    plan: Vec<(&'static str, String, usize, Encoding)>,
    walls: Vec<Vec<f64>>,
    outputs: Vec<Option<Vec<u8>>>,
    next: usize,
    peak: f64,
}

impl<'a> ScanLoad<'a> {
    pub fn new(ctx: &Ctx, corpus: &'a Corpus) -> ScanLoad<'a> {
        let selective = selective_query(ctx.seeds.iteration(corpus.iterations));
        let plan = plan(&selective);
        ScanLoad {
            corpus,
            selective,
            walls: vec![Vec::new(); plan.len()],
            outputs: vec![None; plan.len()],
            plan,
            next: 0,
            peak: 0.0,
        }
    }
}

impl Load for ScanLoad<'_> {
    fn step(&mut self, ctx: &Ctx, led: &mut Ledger) {
        let i = self.next % self.plan.len();
        self.next += 1;
        let (name, query, threads, enc) = &self.plan[i];
        let done = match run_spread(
            &ctx.bin("cali-query"),
            &query_args(query, *threads, self.corpus.files(*enc)),
            &ctx.work,
            if *threads > 1 { *threads } else { 0 },
        ) {
            Ok(done) => done,
            Err(e) => {
                led.op(false, || format!("{name}: cannot run cali-query: {e}"));
                return;
            }
        };
        if !led.op(done.ok, || {
            format!(
                "{name}: cali-query failed: {}",
                String::from_utf8_lossy(&done.stderr)
            )
        }) {
            return;
        }
        self.walls[i].push(done.wall_s);
        self.peak = self.peak.max(done.peak_rss_mb);
        match &self.outputs[i] {
            Some(first) => {
                led.same(&format!("{name}: output repeats"), first, &done.stdout);
            }
            None => self.outputs[i] = Some(done.stdout),
        }
    }

    fn ready(&self) -> bool {
        self.next >= self.plan.len()
    }

    /// Output checks: every evaluation-query run renders the same bytes
    /// as the in-process serial composition; the pushdown answer equals
    /// the same query decoded without pushdown.
    fn finish(self: Box<Self>, ctx: &Ctx, m: &mut Metrics, led: &mut Ledger) -> f64 {
        let records = self.corpus.records as f64;
        for ((name, ..), walls) in self.plan.iter().zip(&self.walls) {
            m.set(name, records / median(walls));
            m.note(
                name,
                format!("median of {} runs over {records} records", walls.len()),
            );
        }
        let off = Tracer::new(false, 0);
        let reference = serial_query(
            &off,
            EVALUATION_QUERY,
            self.corpus.files(Encoding::Text),
            true,
        );
        let reference = ctx.maybe_corrupt(reference.rendered.into_bytes());
        for ((name, ..), out) in self.plan.iter().zip(&self.outputs).take(4) {
            if let Some(out) = out {
                led.same(
                    &format!("{name}: output equals the serial composition"),
                    &reference,
                    out,
                );
            }
        }
        let unpushed = serial_query(
            &off,
            &self.selective,
            self.corpus.files(Encoding::V2),
            false,
        );
        if let Some(out) = &self.outputs[4] {
            led.same(
                "scan_pushdown_rec_s: pushdown equals no pushdown",
                unpushed.rendered.as_bytes(),
                out,
            );
        }
        self.peak
    }
}

/// What one serial composition produced.
pub struct SerialRun {
    pub rendered: String,
    /// CALB v2 blocks met, skipped or decoded (from the read reports).
    pub blocks: u64,
}

/// `cali-query --threads 1` composed from its layers' public calls, each
/// in a span: schema pre-pass, parse and sema, pushdown, per-file
/// decode / aggregate / merge, finish and render.
pub fn serial_query(t: &Tracer, query: &str, paths: &[PathBuf], pushdown: bool) -> SerialRun {
    let (spec, spans) = t
        .span("query.parse", || parse_query_spanned(query))
        .expect("benchmark queries parse");
    let schema = t.span("cli.schema", || cali_cli::infer_schema(paths)).ok();
    t.span("query.sema", || {
        analyze(&spec, Some(&spans), schema.as_ref())
    });
    let pd = t.span("query.pushdown", || build_pushdown(&spec, schema.as_ref()));
    let pd = (pushdown && !pd.is_empty()).then_some(pd);
    let mut acc: Option<Pipeline> = None;
    let mut blocks = 0;
    for path in paths {
        let (ds, report) = t
            .span("format.decode", || {
                read_path_reported_filtered(path, ReadPolicy::Strict, pd.as_ref())
            })
            .expect("generated inputs decode");
        blocks += report.blocks;
        let part = t.span("query.aggregate", || {
            let mut p = Pipeline::new(spec.clone(), Arc::clone(&ds.store));
            p.process_dataset(&ds);
            p
        });
        match &mut acc {
            Some(root) => t.span("query.merge", || root.merge(part)),
            None => acc = Some(part),
        }
        t.span("format.drop", || drop(ds));
    }
    let acc = acc.expect("at least one input file");
    let result = t.span("query.finish", || acc.finish());
    let rendered = t.span("format.render", || result.render());
    SerialRun { rendered, blocks }
}

/// What the traced composition produced, for checks and metrics. Byte
/// and block counts are deltas of the global `format.reader.*` metrics.
pub struct Composition {
    rendered: Vec<String>,
    bytes: Vec<u64>,
    pushed: SerialRun,
    blocks_skipped: u64,
    parallel: String,
    timings: caliper_query::ShardTimings,
    par_wall: f64,
}

/// The traced composition: the serial query over each encoding, the
/// selective query with pushdown, and the two-thread parallel query.
pub fn compose(ctx: &Ctx, corpus: &Corpus, t: &Tracer) -> Composition {
    let selective = selective_query(ctx.seeds.iteration(corpus.iterations));
    let (mut rendered, mut bytes) = (Vec::new(), Vec::new());
    for enc in Encoding::ALL {
        let bytes0 = counter("format.reader.bytes");
        rendered.push(t.span(&format!("scan.{}", enc.name()), || {
            serial_query(t, EVALUATION_QUERY, corpus.files(enc), true).rendered
        }));
        bytes.push(counter("format.reader.bytes") - bytes0);
    }
    let skipped0 = counter("format.reader.blocks_skipped");
    let pushed = t.span("scan.pushdown", || {
        serial_query(t, &selective, corpus.files(Encoding::V2), true)
    });
    let blocks_skipped = counter("format.reader.blocks_skipped") - skipped0;
    let (parallel, timings, par_wall) = t.span("scan.parallel", || {
        let t0 = Instant::now();
        let (result, timings) = t
            .span("query.parallel", || {
                parallel_query_files(
                    EVALUATION_QUERY,
                    corpus.files(Encoding::Text),
                    &ParallelOptions::with_threads(2),
                )
            })
            .expect("parallel query over generated inputs");
        let wall = t0.elapsed().as_secs_f64();
        (t.span("format.render", || result.render()), timings, wall)
    });
    Composition {
        rendered,
        bytes,
        pushed,
        blocks_skipped,
        parallel,
        timings,
        par_wall,
    }
}

/// Per-layer metrics and output checks of a traced composition.
pub fn layer_metrics(
    ctx: &Ctx,
    corpus: &Corpus,
    t: &Tracer,
    c: &Composition,
    m: &mut Metrics,
    led: &mut Ledger,
) {
    let records = corpus.records as f64;
    let reference = ctx.maybe_corrupt(c.rendered[0].clone().into_bytes());
    for (enc, out) in Encoding::ALL.iter().zip(&c.rendered) {
        led.same(
            &format!("traced {} composition equals text", enc.name()),
            &reference,
            out.as_bytes(),
        );
    }
    led.same(
        "traced parallel equals serial",
        &reference,
        c.parallel.as_bytes(),
    );
    let selective = selective_query(ctx.seeds.iteration(corpus.iterations));
    let unpushed = serial_query(
        &Tracer::new(false, 0),
        &selective,
        corpus.files(Encoding::V2),
        false,
    );
    led.same(
        "traced pushdown equals no pushdown",
        unpushed.rendered.as_bytes(),
        c.pushed.rendered.as_bytes(),
    );
    match cali_query_output(ctx, corpus) {
        Some(cq) => led.same(
            "cali-query equals traced serial composition",
            &reference,
            &cq,
        ),
        None => led.op(false, || "cali-query failed on the text corpus".to_string()),
    };

    for (enc, bytes) in Encoding::ALL.into_iter().zip(&c.bytes) {
        let Some(root) = t.last(&format!("scan.{}", enc.name())) else {
            continue;
        };
        let s = t.summarize(root);
        let e = enc.name();
        m.set(
            &format!("format.decode_ns_per_rec.{e}"),
            s.total_ns("format.decode") / records,
        );
        m.set(
            &format!("format.bytes_per_rec.{e}"),
            *bytes as f64 / records,
        );
        if enc == Encoding::Text {
            m.set("cli.schema_ms", s.total_ns("cli.schema") / 1e6);
            m.set("query.parse_us", s.total_ns("query.parse") / 1e3);
            m.set(
                "query.aggregate_ns_per_rec",
                s.total_ns("query.aggregate") / records,
            );
            m.set("query.merge_us", s.total_ns("query.merge") / 1e3);
            m.set("query.finish_us", s.total_ns("query.finish") / 1e3);
            m.set("format.render_us", s.total_ns("format.render") / 1e3);
        }
    }
    if let Some(root) = t.last("scan.pushdown") {
        let s = t.summarize(root);
        m.set(
            "format.pushdown.decode_ns_per_rec",
            s.total_ns("format.decode") / records,
        );
    }
    m.set(
        "format.pushdown.blocks_skipped_ratio",
        c.blocks_skipped as f64 / c.pushed.blocks.max(1) as f64,
    );
    m.set("format.pushdown.blocks_total", c.pushed.blocks as f64);
    let busy: f64 = c
        .timings
        .workers
        .iter()
        .map(|w| w.read_s + w.process_s)
        .sum();
    m.set(
        "query.parallel.worker_busy_ratio",
        busy / (2.0 * c.par_wall),
    );
    m.set("query.parallel.merge_ms", c.timings.merge_s * 1e3);
}

/// The `cali-query --threads 1` answer over text, for the check against
/// the traced composition.
fn cali_query_output(ctx: &Ctx, corpus: &Corpus) -> Option<Vec<u8>> {
    let done = run(
        &ctx.bin("cali-query"),
        &query_args(EVALUATION_QUERY, 1, &corpus.text),
        &ctx.work,
    )
    .ok()?;
    done.ok.then_some(done.stdout)
}
