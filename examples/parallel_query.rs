//! Scalable cross-process aggregation (§IV-C / §V-C), driven through
//! the library API: generate a distributed ParaDiS-style dataset (one
//! `.cali` file per MPI process), run the evaluation query with the
//! parallel query engine (one thread per simulated process), and print
//! the result with the per-phase timing breakdown Figure 4 plots — then
//! drill down interactively with `requery`.
//!
//! Run with: `cargo run --release --example parallel_query [-- --ranks N]`

use std::path::PathBuf;

use cali_cli::{parallel_query_on, timings_report};
use caliper_repro::apps::paradis::{self, ParaDisParams, EVALUATION_QUERY};
use caliper_repro::mpi::{FaultPlan, ResilienceOptions, ThreadEngine, Topology};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ranks: usize = args
        .iter()
        .position(|a| a == "--ranks")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);

    // One profile file per (simulated) application process.
    let dir = std::env::temp_dir().join(format!("caliper-example-{}", std::process::id()));
    eprintln!("generating {ranks} per-process ParaDiS profiles under {dir:?} ...");
    let params = ParaDisParams::default();
    let paths = paradis::write_files(&params, ranks, &dir).expect("write profiles");
    eprintln!(
        "each file carries {} pre-aggregated snapshot records\n",
        paradis::generate_rank(&params, 0).len()
    );

    // The paper's evaluation query: total CPU time over computational
    // kernels and MPI functions, across all ranks.
    let per_rank: Vec<Vec<PathBuf>> = paths.iter().map(|p| vec![p.clone()]).collect();
    let (result, coverage) = parallel_query_on(
        &ThreadEngine,
        Topology::Flat,
        EVALUATION_QUERY,
        per_rank,
        FaultPlan::new(),
        ResilienceOptions::default(),
    )
    .expect("parallel query");
    assert!(coverage.is_complete());

    println!("== {} output records (paper: 85); top 10 by total time ==\n", result.records.len());
    let top = result
        .requery(
            "AGGREGATE sum(sum#sum#time.duration) AS total_us, sum(sum#aggregate.count) AS visits \
             GROUP BY region ORDER BY total_us desc",
        )
        .expect("requery");
    for line in top.render().lines().take(11) {
        println!("{line}");
    }

    println!("\n== timing breakdown (Figure 4's three curves), {ranks} ranks ==\n");
    print!("{}", timings_report());

    std::fs::remove_dir_all(&dir).ok();
}
