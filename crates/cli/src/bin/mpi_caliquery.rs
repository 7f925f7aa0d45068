//! `mpi-caliquery` — scalable cross-process aggregation (paper §IV-C).
//!
//! Distributes the input files over N simulated MPI query processes,
//! aggregates locally on each, reduces the partial results up a
//! binomial tree to rank 0, and prints the result plus the timing
//! breakdown that Figure 4 of the paper reports.
//!
//! ```text
//! mpi-caliquery --np N [-q QUERY] [--timings] INPUT.cali...
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use cali_cli::{parallel_query_on, parallel_query_on_traced, parse_args, timings_report};
use caliper_query::QueryResult;
use mpisim::{
    EventEngine, Executor, FaultPlan, ReduceCoverage, ResilienceOptions, ThreadEngine, Topology,
};

const USAGE: &str = "usage: mpi-caliquery --np N [-q QUERY] [--timings] INPUT.cali...

Runs an aggregation query across many Caliper data files in parallel
(N simulated MPI processes; files are distributed round-robin).

Options:
  --np, --ranks N     number of query processes (default: number of inputs)
  -q, --query QUERY   the aggregation scheme (must aggregate)
                      default: \"AGGREGATE sum(sum#time.duration),
                      sum(aggregate.count) GROUP BY kernel\"
  --timings           print the per-phase timing breakdown to stderr:
                      max local read+process time over ranks, summed
                      tree-reduction merge time, and root finish time
                      (plus the scheduler's counters on --engine event)
  --engine NAME       execution engine: 'threads' (one OS thread per
                      rank; the default) or 'event' (deterministic
                      virtual-clock scheduler — use for rank counts in
                      the thousands)
  --nodes N           two-level reduction topology: ranks are grouped
                      into N nodes, each node pre-reduces locally, then
                      node leaders reduce across nodes (default: flat
                      binomial tree over all ranks)
  --workers N         event engine only: worker threads stepping ready
                      ranks (default 1; results are identical for any
                      value)
  --faults SPEC       chaos testing: script simulated rank faults with
                      the shared fault grammar, e.g.
                      \"mpi.kill=at(2,0);mpi.delay=at(1,0,20)\" kills
                      rank 2 at its first comm op and stalls rank 1 by
                      20 ms; the reduction routes around dead ranks and
                      reports which ranks' data the result covers (also
                      read from CALI_FAULTS)
  --analyze           record the happens-before communication trace and
                      run the race/deadlock analysis on it after the
                      query; the certificate is printed to stderr and
                      analysis errors fail the run (see cali-race for
                      the standalone analyzer)
  --trace FILE        dump the happens-before trace as .cali records to
                      FILE (aggregatable with cali-query)
  -h, --help          show this help

Exit codes: 0 success, 1 error, 2 success but the result is partial
(injected faults lost some ranks' contributions).
";

/// One parallel query run as the command line describes it.
struct Job<'a> {
    query: &'a str,
    topology: Topology,
    per_rank: Vec<Vec<PathBuf>>,
    plan: FaultPlan,
    timings: bool,
    analyze: bool,
    trace_path: Option<&'a str>,
}

/// Run `job` on `engine`: traced when `--analyze` or `--trace` asks for
/// the happens-before trace, plain otherwise.
fn run_on<E: Executor>(engine: &E, job: Job) -> ExitCode {
    let opts = ResilienceOptions::default();
    let sched = engine.name() == "event";
    if !job.analyze && job.trace_path.is_none() {
        let run = parallel_query_on(engine, job.topology, job.query, job.per_rank, job.plan, opts);
        return finish_run(run, job.timings, sched);
    }
    let traced = match parallel_query_on_traced(
        engine,
        job.topology,
        job.query,
        job.per_rank,
        job.plan,
        opts,
    ) {
        Ok(traced) => traced,
        Err(e) => {
            eprintln!("mpi-caliquery: {e}");
            return ExitCode::FAILURE;
        }
    };
    traced.trace.record_metrics();
    if let Some(path) = job.trace_path {
        let written = std::fs::File::create(path)
            .and_then(|file| traced.trace.write_cali(std::io::BufWriter::new(file)));
        if let Err(e) = written {
            eprintln!("mpi-caliquery: --trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "mpi-caliquery: wrote {} trace events ({} ranks) to {path}",
            traced.trace.len(),
            traced.trace.size()
        );
    }
    // Analysis errors (message races, deadlock cycles) fail the run
    // even when the query itself produced a result.
    let mut analysis_errors = false;
    if job.analyze {
        let analysis = mpisim::analyze(&traced.trace);
        eprint!("{}", analysis.render());
        analysis_errors = analysis.exit_code(false) == 2;
    }
    let code = finish_run(traced.outcome, job.timings, sched);
    if analysis_errors {
        eprintln!("mpi-caliquery: --analyze found communication errors");
        return ExitCode::FAILURE;
    }
    code
}

/// Print the result, the `--timings` breakdown (with the event
/// scheduler's counters when `sched`), and the coverage report.
fn finish_run(
    run: Result<(QueryResult, ReduceCoverage), cali_cli::ParallelError>,
    timings: bool,
    sched: bool,
) -> ExitCode {
    let (result, coverage) = match run {
        Ok(done) => done,
        Err(e) => {
            eprintln!("mpi-caliquery: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", result.render());
    if timings {
        eprint!("{}", timings_report());
        if sched {
            let m = caliper_data::metrics::global();
            eprintln!(
                "# sched events:          {}",
                m.counter_volatile("mpisim.sched.events").get()
            );
            eprintln!(
                "# sched virtual time:    {} ns",
                m.gauge_volatile("mpisim.sched.virtual_time_ns").get()
            );
            eprintln!(
                "# sched max queue depth: {}",
                m.gauge_volatile("mpisim.sched.max_queue_depth").get()
            );
        }
    }
    if coverage.is_complete() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "mpi-caliquery: partial result: {} of {} ranks; covers ranks {:?}; lost ranks {:?}",
        coverage.included.len(),
        coverage.included.len() + coverage.lost.len(),
        coverage.included,
        coverage.lost
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args = match parse_args(
        std::env::args().skip(1),
        &["q", "query", "np", "ranks", "faults", "engine", "nodes", "workers", "trace"],
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mpi-caliquery: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.has(&["h", "help"]) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.positional.is_empty() {
        eprintln!("mpi-caliquery: no input files\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let np: usize = match args.get(&["np", "ranks"]) {
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("mpi-caliquery: invalid --np '{v}'");
                return ExitCode::FAILURE;
            }
        },
        None => args.positional.len(),
    };
    let query = args
        .get(&["q", "query"])
        .unwrap_or("AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel");

    // Scripted rank faults: an explicit --faults spec wins, otherwise
    // lift any mpi.* schedule from the process-wide CALI_FAULTS
    // registry (which also arms the I/O failpoints on the read paths).
    let plan = match args.get(&["faults"]) {
        Some(spec) => match FaultPlan::from_spec(spec) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("mpi-caliquery: --faults: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => FaultPlan::from_global(),
    };

    // Reduction topology: flat binomial tree unless --nodes asks for
    // the two-level (intra-node, then cross-node) scheme.
    let topology = match args.get(&["nodes"]) {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Topology::two_level_for(np, n),
            _ => {
                eprintln!("mpi-caliquery: invalid --nodes '{v}'");
                return ExitCode::FAILURE;
            }
        },
        None => Topology::Flat,
    };
    let workers: usize = match args.get(&["workers"]) {
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("mpi-caliquery: invalid --workers '{v}'");
                return ExitCode::FAILURE;
            }
        },
        None => 1,
    };

    // Round-robin file distribution, one subset per query process.
    let mut per_rank: Vec<Vec<PathBuf>> = vec![Vec::new(); np];
    for (i, path) in args.positional.iter().enumerate() {
        per_rank[i % np].push(PathBuf::from(path));
    }

    let job = Job {
        query,
        topology,
        per_rank,
        plan,
        timings: args.has(&["timings"]),
        analyze: args.has(&["analyze"]),
        trace_path: args.get(&["trace"]),
    };
    match args.get(&["engine"]).unwrap_or("threads") {
        "event" => run_on(&EventEngine::with_workers(workers), job),
        "threads" => run_on(&ThreadEngine, job),
        other => {
            eprintln!("mpi-caliquery: unknown --engine '{other}' (use 'event' or 'threads')");
            ExitCode::FAILURE
        }
    }
}
