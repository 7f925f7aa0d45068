//! Cross-process aggregation integration tests: runtime → `.cali`
//! files → serial and parallel off-line aggregation (§IV-C, §V-C).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cali_cli::{parallel_query_on, read_files, ParallelError};
use caliper_repro::mpi::{
    EventEngine, Executor, FaultPlan, ReduceCoverage, ReduceTask, ResilienceOptions, ThreadEngine,
    Topology,
};
use caliper_repro::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "caliper-it-{name}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the CleverLeaf proxy and write one .cali file per rank.
fn write_rank_files(dir: &std::path::Path, ranks: usize) -> Vec<PathBuf> {
    let app = CleverLeaf::new(CleverLeafParams {
        timesteps: 8,
        ranks,
        ..CleverLeafParams::case_study()
    });
    let config = Config::event_aggregate(
        "kernel,mpi.function,mpi.rank,iteration#mainloop",
        "count,sum(time.duration)",
    );
    let datasets = app.run_all(&config);
    datasets
        .iter()
        .enumerate()
        .map(|(rank, ds)| {
            let path = dir.join(format!("rank-{rank:03}.cali"));
            cali::write_file(ds, &path).unwrap();
            path
        })
        .collect()
}

#[test]
fn file_roundtrip_preserves_query_results() {
    let dir = temp_dir("roundtrip");
    let app = CleverLeaf::new(CleverLeafParams {
        timesteps: 5,
        ranks: 2,
        ..CleverLeafParams::case_study()
    });
    let config = Config::event_aggregate("kernel", "count,sum(time.duration)");
    let datasets = app.run_all(&config);

    let query = "AGGREGATE sum(sum#time.duration) WHERE kernel GROUP BY kernel";
    let direct = run_query(&datasets[0], query).unwrap();

    let path = dir.join("rank0.cali");
    cali::write_file(&datasets[0], &path).unwrap();
    let reloaded = cali::read_file(&path).unwrap();
    let roundtripped = run_query(&reloaded, query).unwrap();

    assert_eq!(
        direct.to_table().render(),
        roundtripped.to_table().render()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `query` on one of the two mpisim engines.
fn query_on(
    event: bool,
    topology: Topology,
    query: &str,
    per_rank: Vec<Vec<PathBuf>>,
    plan: FaultPlan,
    opts: ResilienceOptions,
) -> Result<(QueryResult, ReduceCoverage), ParallelError> {
    if event {
        let engine = EventEngine::with_workers(2);
        parallel_query_on(&engine, topology, query, per_rank, plan, opts)
    } else {
        parallel_query_on(&ThreadEngine, topology, query, per_rank, plan, opts)
    }
}

#[test]
fn parallel_query_equals_serial_query() {
    // The answer must not depend on how it was computed: every engine,
    // topology and rank count renders byte-identically to the serial
    // query over the same files.
    let dir = temp_dir("parallel");
    let paths = write_rank_files(&dir, 7);

    let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) \
                 WHERE kernel GROUP BY kernel";

    let merged = read_files(&paths).unwrap();
    let serial = run_query(&merged, query).unwrap().to_table().render();

    for event in [false, true] {
        for topology in [Topology::Flat, Topology::TwoLevel { ranks_per_node: 3 }] {
            for np in [1, 2, 3, 7] {
                let mut per_rank: Vec<Vec<PathBuf>> = vec![Vec::new(); np];
                for (i, p) in paths.iter().enumerate() {
                    per_rank[i % np].push(p.clone());
                }
                let plan = FaultPlan::new();
                let opts = ResilienceOptions::default();
                let (parallel, coverage) =
                    query_on(event, topology, query, per_rank, plan, opts).unwrap();
                let case = format!("event {event}, {topology:?}, np {np}");
                assert_eq!(serial, parallel.to_table().render(), "{case}");
                assert_eq!(coverage.included.len(), np, "{case}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_rank_result_equals_serial_query_over_survivors() {
    let dir = temp_dir("killed");
    let paths = write_rank_files(&dir, 7);
    let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) \
                 WHERE kernel GROUP BY kernel";
    let opts = ResilienceOptions {
        timeout: Duration::from_millis(100),
        retries: 1,
        backoff: Duration::from_millis(50),
    };
    for event in [false, true] {
        let per_rank: Vec<Vec<PathBuf>> = paths.iter().map(|p| vec![p.clone()]).collect();
        // Rank 2 dies at its first op (the receive from rank 3), so
        // the {2, 3} subtree is lost.
        let plan = FaultPlan::new().kill(2, 0);
        let (partial, coverage) =
            query_on(event, Topology::Flat, query, per_rank, plan, opts).unwrap();
        assert_eq!(coverage.lost, vec![2, 3], "event {event}");
        let survivors: Vec<PathBuf> = coverage.included.iter().map(|&r| paths[r].clone()).collect();
        let serial = run_query(&read_files(&survivors).unwrap(), query).unwrap();
        assert_eq!(
            serial.to_table().render(),
            partial.to_table().render(),
            "event {event}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_rank_data_survives_cross_process_merge() {
    let dir = temp_dir("per-rank");
    let ranks = 4;
    let paths = write_rank_files(&dir, ranks);
    let merged = read_files(&paths).unwrap();

    // Every rank's data must be present and distinguishable by mpi.rank.
    // WHERE mpi.rank: the very first event snapshot of each process
    // fires before mpi.rank is placed on the blackboard and forms a
    // separate no-rank entry (as the paper's §III-B table shows for
    // partially-set keys); exclude it here.
    let result = run_query(
        &merged,
        "AGGREGATE sum(aggregate.count) WHERE mpi.rank GROUP BY mpi.rank ORDER BY mpi.rank",
    )
    .unwrap();
    assert_eq!(result.records.len(), ranks);
    let rank_attr = result.store.find("mpi.rank").unwrap();
    let ranks_seen: Vec<i64> = result
        .records
        .iter()
        .filter_map(|r| r.get(rank_attr.id())?.to_i64())
        .collect();
    assert_eq!(ranks_seen, vec![0, 1, 2, 3]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_stage_aggregation_matches_single_stage() {
    // On-line per-rank aggregation + off-line cross-rank summation must
    // equal off-line aggregation over the full per-rank traces.
    let params = CleverLeafParams {
        timesteps: 4,
        ranks: 3,
        ..CleverLeafParams::case_study()
    };
    let app = CleverLeaf::new(params);

    // Path 1: online aggregation, then offline sum.
    let online = app.run_all(&Config::event_aggregate("kernel", "sum(time.duration)"));
    let mut merged_online = Dataset::new();
    for ds in &online {
        let bytes = cali::to_bytes(ds);
        let mut r = caliper_repro::format::CaliReader::into_dataset(merged_online);
        r.read_stream(std::io::BufReader::new(&bytes[..])).unwrap();
        merged_online = r.finish();
    }
    let a = run_query(
        &merged_online,
        "AGGREGATE sum(sum#time.duration) AS t WHERE kernel GROUP BY kernel ORDER BY kernel",
    )
    .unwrap();

    // Path 2: full traces, aggregated offline in one step.
    let traces = app.run_all(&Config::event_trace());
    let mut merged_traces = Dataset::new();
    for ds in &traces {
        let bytes = cali::to_bytes(ds);
        let mut r = caliper_repro::format::CaliReader::into_dataset(merged_traces);
        r.read_stream(std::io::BufReader::new(&bytes[..])).unwrap();
        merged_traces = r.finish();
    }
    let b = run_query(
        &merged_traces,
        "AGGREGATE sum(time.duration) AS t WHERE kernel GROUP BY kernel ORDER BY kernel",
    )
    .unwrap();

    assert_eq!(a.to_table().render(), b.to_table().render());
}

#[test]
fn tree_reduction_inside_mpisim_matches_pipeline_merge() {
    // Drive the reduction through the mpisim substrate directly.
    let params = ParaDisParams {
        iterations: 3,
        ..Default::default()
    };
    let datasets: Vec<Dataset> = (0..6)
        .map(|r| caliper_repro::apps::paradis::generate_rank(&params, r))
        .collect();
    let query = "AGGREGATE sum(sum#time.duration) GROUP BY kernel";
    let spec = parse_query(query).unwrap();

    // Reference: sequential merge.
    let mut reference: Option<Pipeline> = None;
    for ds in &datasets {
        let mut p = Pipeline::new(spec.clone(), Arc::clone(&ds.store));
        p.process_dataset(ds);
        match &mut reference {
            Some(root) => root.merge(p),
            None => reference = Some(p),
        }
    }
    let reference = reference.unwrap().finish().to_table().render();

    // mpisim: one rank per dataset, the tree reduction over pipelines.
    let datasets = Arc::new(datasets);
    let spec = Arc::new(spec);
    let results = ThreadEngine.run_tasks(6, FaultPlan::new(), move |rank, size| {
        let datasets = Arc::clone(&datasets);
        let spec = Arc::clone(&spec);
        let local = move || {
            let ds = &datasets[rank];
            let mut p = Pipeline::new((*spec).clone(), Arc::clone(&ds.store));
            p.process_dataset(ds);
            p
        };
        let merge = |mut a: Pipeline, b| {
            a.merge(b);
            a
        };
        ReduceTask::new(rank, size, Topology::Flat, local, merge, ResilienceOptions::default())
    });
    let (root, coverage) = results
        .into_iter()
        .next()
        .flatten()
        .flatten()
        .expect("root result");
    assert!(coverage.is_complete());
    let from_tree = root.finish().to_table().render();

    assert_eq!(reference, from_tree);
}

/// Write `files` ParaDiS rank files (2 iterations each) into `dir`.
fn write_paradis_files(dir: &std::path::Path, files: usize) -> Vec<PathBuf> {
    let params = ParaDisParams {
        iterations: 2,
        ..Default::default()
    };
    caliper_repro::apps::paradis::write_files(&params, files, dir).unwrap()
}

#[test]
fn thousands_of_mostly_empty_ranks_match_serial_query_on_any_worker_count() {
    // 16 files over 4096 ranks, round-robin: ranks 16.. hold nothing.
    let dir = temp_dir("event-4096");
    let paths = write_paradis_files(&dir, 16);
    let query = caliper_repro::apps::paradis::EVALUATION_QUERY;
    let serial = run_query(&read_files(&paths).unwrap(), query)
        .unwrap()
        .render();

    let ranks = 4096;
    let mut per_rank: Vec<Vec<PathBuf>> = vec![Vec::new(); ranks];
    for (i, p) in paths.iter().enumerate() {
        per_rank[i % ranks].push(p.clone());
    }
    for workers in [1, 2, 3] {
        let (result, coverage) = parallel_query_on(
            &EventEngine::with_workers(workers),
            Topology::Flat,
            query,
            per_rank.clone(),
            FaultPlan::new(),
            ResilienceOptions::default(),
        )
        .unwrap();
        assert!(coverage.is_complete(), "workers {workers}");
        assert_eq!(result.render(), serial, "workers {workers}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_root_and_empty_ranks_equal_serial_query() {
    // Rank 0 and most other ranks hold no files: the empty ranks must
    // be merge identities, and the root's (empty) input store must still
    // type the key columns as a serial query would.
    let dir = temp_dir("empty-root");
    let paths = write_paradis_files(&dir, 3);
    let ranks = 32;
    let mut per_rank: Vec<Vec<PathBuf>> = vec![Vec::new(); ranks];
    per_rank[5].push(paths[0].clone());
    per_rank[17].push(paths[1].clone());
    per_rank[17].push(paths[2].clone());
    for query in [
        caliper_repro::apps::paradis::EVALUATION_QUERY,
        "AGGREGATE count, sum(aggregate.count) GROUP BY mpi.rank, kernel ORDER BY mpi.rank, kernel",
    ] {
        let serial = run_query(&read_files(&paths).unwrap(), query)
            .unwrap()
            .render();
        for event in [false, true] {
            let (result, coverage) = query_on(
                event,
                Topology::Flat,
                query,
                per_rank.clone(),
                FaultPlan::new(),
                ResilienceOptions::default(),
            )
            .unwrap();
            assert_eq!(coverage.included, (0..ranks).collect::<Vec<_>>());
            assert_eq!(result.render(), serial, "event {event}, {query}");
        }
        // A world without any files still has a root pipeline to finish.
        let nothing: &[PathBuf] = &[];
        let empty = run_query(&read_files(nothing).unwrap(), query)
            .unwrap()
            .render();
        for event in [false, true] {
            let (result, _) = query_on(
                event,
                Topology::Flat,
                query,
                vec![Vec::new(); 8],
                FaultPlan::new(),
                ResilienceOptions::default(),
            )
            .unwrap();
            assert_eq!(result.render(), empty, "event {event}, no files, {query}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_kill_coverage_partitions_the_world_at_16k_ranks() {
    let size = 16_384;
    let outputs = EventEngine::with_workers(2).run_tasks(
        size,
        FaultPlan::seeded_kills(7, 40, size),
        |rank, size| {
            ReduceTask::new(
                rank,
                size,
                Topology::Flat,
                move || rank as u64,
                |a: u64, b: u64| a + b,
                ResilienceOptions::default(),
            )
        },
    );
    let (sum, coverage) = outputs[0].clone().flatten().expect("root result");
    let ReduceCoverage { included, lost } = &coverage;
    assert!(included.windows(2).all(|w| w[0] < w[1]), "included sorted");
    assert!(lost.windows(2).all(|w| w[0] < w[1]), "lost sorted");
    assert!(!lost.is_empty(), "40 kills must lose some ranks");
    let mut all: Vec<usize> = included.iter().chain(lost).copied().collect();
    all.sort_unstable();
    assert_eq!(all, (0..size).collect::<Vec<_>>(), "disjoint and covering");
    assert_eq!(sum, included.iter().map(|&r| r as u64).sum::<u64>());
}
