//! Figure 4: scalability of cross-process aggregation in the MPI-based
//! query application — total runtime (including I/O), reading and
//! processing process-local input, and tree-based cross-process
//! reduction, in a weak-scaling mode (one ParaDiS input file per query
//! process).
//!
//! The paper runs 1…4096 MPI processes on a cluster. On a laptop all
//! "ranks" share a few cores, so threaded wall-clock cannot show weak
//! scaling; instead this harness measures the *critical path* on an
//! uncontended core (see DESIGN.md §3):
//!
//! * local time  = time to read + aggregate one input file (constant
//!   per process under weak scaling, by construction);
//! * reduction   = sum over tree levels of the maximum merge time on
//!   that level (the binomial tree executed sequentially, each merge
//!   timed individually);
//! * total       = local max + reduction + root finish.
//!
//! The threaded `mpi-caliquery` engine is also run at each point to
//! verify that the parallel result equals the sequential one.
//!
//! With `--kill RANK`, the run finishes with a failure-injection
//! check: the same parallel query executed under a [`FaultPlan`] that
//! kills the given (non-root) rank at its first communication op. The
//! resilient tree reduction routes around the dead subtree; the harness
//! reports the reduction coverage (which ranks' contributions made it)
//! and verifies the merged result equals a serial aggregation over
//! exactly the surviving ranks' files.
//!
//! # Synthetic scale mode (`--ranks N`)
//!
//! With `--ranks N` the harness instead runs one fault-tolerant tree
//! reduction over N *simulated* ranks with synthetic per-rank payloads
//! (no input files — at 16 384 ranks, file I/O would dwarf the thing
//! being measured). The default `--engine event` is the deterministic
//! virtual-clock scheduler of `mpisim::sched`: everything written to
//! stdout — the merged value, the coverage, the event count, the
//! virtual-clock makespan — is byte-identical across runs and across
//! `--workers` values, which is exactly what `scripts/check.sh` pins.
//! Wall-clock time (machine-dependent) goes to stderr.
//!
//! Usage: `fig4 [--quick] [--max-np N] [--kill RANK]`
//!        `fig4 --ranks N [--engine event|threads] [--nodes N]
//!              [--workers W] [--kills K] [--kill-seed S]`

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cali_cli::{parallel_query_on, read_files};
use caliper_query::{parse_query, run_query, Pipeline};
use miniapps::paradis::{self, ParaDisParams, EVALUATION_QUERY};
use mpisim::{
    EventEngine, Executor, FaultPlan, ReduceCoverage, ReduceTask, ResilienceOptions, ThreadEngine,
    Topology,
};

/// Run the fault-injected cross-process reduction at `np` ranks, report
/// coverage, and check the survivors-only equality.
fn failure_injection_check(paths: &[PathBuf], np: usize, victim: usize) {
    assert!(
        victim > 0 && victim < np,
        "--kill takes a non-root rank below np (got {victim}, np {np})"
    );
    eprintln!();
    eprintln!("# failure injection: killing rank {victim} at its first comm op, np = {np}");
    let per_rank: Vec<Vec<PathBuf>> = paths[..np].iter().map(|p| vec![p.clone()]).collect();
    let (result, coverage) = parallel_query_on(
        &ThreadEngine,
        Topology::Flat,
        EVALUATION_QUERY,
        per_rank,
        FaultPlan::new().kill(victim, 0),
        ResilienceOptions::default(),
    )
    .expect("resilient parallel query");
    eprintln!(
        "# reduction coverage: {}/{} ranks included; lost subtree: {:?}",
        coverage.included.len(),
        np,
        coverage.lost
    );
    let survivor_paths: Vec<PathBuf> =
        coverage.included.iter().map(|&r| paths[r].clone()).collect();
    let ds = read_files(&survivor_paths).expect("read survivor files");
    let serial = run_query(&ds, EVALUATION_QUERY).expect("serial reference query");
    assert_eq!(
        serial.to_table().render(),
        result.to_table().render(),
        "resilient result must equal a serial aggregation over the surviving ranks"
    );
    eprintln!(
        "# resilient result matches the serial aggregation over survivors ({} output records)",
        result.records.len()
    );
}

/// Numeric flag value, e.g. `flag(&args, "--ranks")`.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Render coverage deterministically: counts plus the full lost set
/// (compact enough even when a kill strands a large subtree).
fn coverage_line(c: &ReduceCoverage) -> String {
    let lost: Vec<String> = c.lost.iter().map(|r| r.to_string()).collect();
    format!(
        "included,{},lost,{},lost_ranks,[{}]",
        c.included.len(),
        c.lost.len(),
        lost.join(" ")
    )
}

/// The synthetic scale mode: one resilient tree reduction over `ranks`
/// simulated ranks, payload = rank index, merge = sum. Deterministic
/// results to stdout, wall-clock to stderr.
fn synthetic_scale_run(args: &[String], ranks: usize) {
    let engine_name = args
        .iter()
        .position(|a| a == "--engine")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("event");
    let nodes: usize = flag(args, "--nodes").unwrap_or(1);
    let workers: usize = flag(args, "--workers").unwrap_or(1);
    let kills: usize = flag(args, "--kills").unwrap_or(0);
    let seed: u64 = flag(args, "--kill-seed").unwrap_or(0x5EED);
    let topology = if nodes > 1 {
        Topology::two_level_for(ranks, nodes)
    } else {
        Topology::Flat
    };
    let plan = FaultPlan::seeded_kills(seed, kills, ranks);
    let opts = ResilienceOptions::default();
    let make = move |rank: usize, size: usize| {
        ReduceTask::new(rank, size, topology, move || rank as u64, |a, b| a + b, opts)
    };

    eprintln!(
        "# synthetic scale run: {ranks} ranks, engine {engine_name}, {nodes} node(s), \
         {workers} worker(s), {kills} seeded kill(s) (seed {seed:#x})"
    );
    let t = Instant::now();
    let (root, stats) = match engine_name {
        "event" => {
            let engine = EventEngine::with_workers(workers);
            let (mut outputs, stats) = engine.run_tasks_with_stats(ranks, plan, make);
            (outputs[0].take(), Some(stats))
        }
        "threads" => {
            assert!(
                ranks <= 512,
                "--engine threads spawns one OS thread per rank; use --engine event past 512"
            );
            let mut outputs = ThreadEngine.run_tasks(ranks, plan, make);
            (outputs[0].take(), None)
        }
        other => panic!("unknown --engine '{other}' (use 'event' or 'threads')"),
    };
    let wall = t.elapsed().as_secs_f64();

    let (sum, coverage) = root
        .expect("rank 0 is never a seeded victim")
        .expect("rank 0 is the reduction root");
    println!("engine,{engine_name},ranks,{ranks},nodes,{nodes},kills,{kills}");
    println!("sum,{sum}");
    println!("{}", coverage_line(&coverage));
    if let Some(stats) = stats {
        println!(
            "sched_events,{},virtual_time_ns,{}",
            stats.events, stats.virtual_time_ns
        );
    }
    eprintln!("# wall: {wall:.3} s");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(ranks) = flag::<usize>(&args, "--ranks") {
        synthetic_scale_run(&args, ranks);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let max_np: usize = args
        .iter()
        .position(|a| a == "--max-np")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 16 } else { 256 });
    let kill: Option<usize> = args
        .iter()
        .position(|a| a == "--kill")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

    let dir = std::env::temp_dir().join(format!("caliper-fig4-{}", std::process::id()));
    let params = ParaDisParams::default();
    eprintln!("# Figure 4 reproduction: generating {max_np} ParaDiS input files under {dir:?}");
    let paths = paradis::write_files(&params, max_np, &dir).expect("write input files");
    eprintln!(
        "# each file: {} snapshot records (paper: 2174)",
        paradis::generate_rank(&params, 0).len()
    );
    let spec = parse_query(EVALUATION_QUERY).expect("query parses");

    println!("np,total_s,local_max_s,reduction_s,levels,output_records,threaded_wall_s");
    let mut np = 1;
    while np <= max_np {
        // --- local phase, per rank, uncontended ---
        let mut locals = Vec::with_capacity(np);
        let mut pipelines: Vec<Option<Pipeline>> = Vec::with_capacity(np);
        for path in &paths[..np] {
            let t = Instant::now();
            let ds = read_files(std::slice::from_ref(path)).expect("read input");
            let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&ds.store));
            pipeline.process_dataset(&ds);
            locals.push(t.elapsed().as_secs_f64());
            pipelines.push(Some(pipeline));
        }
        let local_max = locals.iter().copied().fold(0.0f64, f64::max);

        // --- binomial-tree reduction, executed sequentially, each
        //     merge timed; per-level critical path = max merge time ---
        let mut level_max = Vec::new();
        let mut step = 1usize;
        while step < np {
            let mut worst = 0.0f64;
            let mut i = 0;
            while i + step < np {
                let incoming = pipelines[i + step].take().expect("pipeline present");
                let mine = pipelines[i].as_mut().expect("receiver present");
                let t = Instant::now();
                mine.merge(incoming);
                worst = worst.max(t.elapsed().as_secs_f64());
                i += 2 * step;
            }
            level_max.push(worst);
            step *= 2;
        }
        // Fold from +0.0: an empty f64 `sum()` is -0.0 (np = 1).
        let reduction = level_max.iter().fold(0.0, |acc, t| acc + t);

        let t = Instant::now();
        let result = pipelines[0].take().expect("root pipeline").finish();
        let finish = t.elapsed().as_secs_f64();
        let total = local_max + reduction + finish;

        // --- cross-check with the threaded parallel engine ---
        let per_rank: Vec<Vec<PathBuf>> = paths[..np].iter().map(|p| vec![p.clone()]).collect();
        let t = Instant::now();
        let (threaded, coverage) = parallel_query_on(
            &ThreadEngine,
            Topology::Flat,
            EVALUATION_QUERY,
            per_rank,
            FaultPlan::new(),
            ResilienceOptions::default(),
        )
        .expect("parallel query");
        let threaded_wall = t.elapsed().as_secs_f64();
        assert!(coverage.is_complete(), "fault-free run lost ranks at np={np}");
        assert_eq!(
            result.to_table().render(),
            threaded.to_table().render(),
            "threaded and sequential reductions must agree at np={np}"
        );

        println!(
            "{np},{total:.6},{local_max:.6},{reduction:.6},{},{},{threaded_wall:.6}",
            level_max.len(),
            result.records.len()
        );
        eprintln!(
            "# np {np:>5}: total {total:.4} s = local {local_max:.4} + reduction {reduction:.5} ({} levels) + finish {finish:.5}; {} output records (paper: 85)",
            level_max.len(),
            result.records.len()
        );
        np *= 2;
    }

    if let Some(victim) = kill {
        failure_injection_check(&paths, max_np, victim);
    }

    std::fs::remove_dir_all(&dir).ok();
    eprintln!();
    eprintln!("# Expected shape (paper §V-C): local input time roughly constant");
    eprintln!("# (weak scaling), reduction time growing logarithmically with np,");
    eprintln!("# total dominated by local processing + I/O.");
}
