//! The parallel cross-process query engine (§IV-C).
//!
//! "In the MPI version, each process is assigned a subset of the data
//! files, and first applies the query on its assigned dataset. Then, we
//! organize the processes in a tree based on their rank, and perform a
//! logarithmic reduction: 'leaf' processes send the local aggregation
//! results to their parent, where the partial results are aggregated
//! again."
//!
//! Every run is one [`ReduceTask`] per rank on an [`Executor`]: the
//! thread engine or the event engine, flat or two-level, with or
//! without scripted faults — a fault-free run is the same reduction
//! under an empty [`FaultPlan`].
//!
//! The engine records the phase costs Figure 4 plots as volatile
//! entries of the process-wide metrics registry (rendered by
//! [`timings_report`]): the maximum local read+process time over ranks,
//! the summed merge time, and the root's finish time.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use caliper_data::metrics;
use caliper_query::{parse_query, ParseError, Pipeline, QueryResult};
use mpisim::{
    Executor, FaultPlan, HbTrace, ReduceCoverage, ReduceTask, ResilienceOptions, SchedError,
    Topology,
};

use crate::read_files;

/// Registry name of the maximum local read+process time over ranks.
const LOCAL_MAX_NS: &str = "cli.mpi_query.local_max_ns";
/// Registry name of the summed pipeline merge time.
const MERGE: &str = "cli.mpi_query.merge";
/// Registry name of the root's finish time.
const FINISH: &str = "cli.mpi_query.finish";

/// Errors from the parallel query engine.
#[derive(Debug)]
pub enum ParallelError {
    /// Query text failed to parse.
    Parse(ParseError),
    /// The query has no aggregation — partial results of a pass-through
    /// query cannot be merged across processes.
    NotAnAggregation,
    /// A rank failed to read its input files.
    Io(String),
    /// The scheduler detected that the run can never finish — a
    /// virtual deadlock, with the blocked ranks and wait cycles named.
    Deadlock(SchedError),
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::Parse(e) => write!(f, "query parse error: {e}"),
            ParallelError::NotAnAggregation => {
                f.write_str("parallel queries must aggregate (use AGGREGATE and/or GROUP BY)")
            }
            ParallelError::Io(m) => write!(f, "input error: {m}"),
            ParallelError::Deadlock(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParallelError {}

/// Run `query` over `files_per_rank.len()` simulated query processes on
/// `engine`; rank `i` reads and aggregates `files_per_rank[i]`, then the
/// partial results reduce up the `topology`'s tree to rank 0 under
/// `plan`. Returns the result and the coverage report: which ranks'
/// data it holds.
///
/// Each rank's local phase runs in its task's start step, so on the
/// event engine the worker pool parallelizes the file reads, and on the
/// thread engine no receive deadline starts before every local phase
/// is done. Dead ranks are routed around; the result then equals a
/// serial aggregation over exactly `coverage.included`'s files
/// (pipeline merge is associative, and the tree merges survivors in
/// rank order). A rank whose input fails to read poisons its partial
/// result; the error surfaces at the root as [`ParallelError::Io`]
/// rather than silently shrinking coverage.
pub fn parallel_query_on<E: Executor>(
    engine: &E,
    topology: Topology,
    query: &str,
    files_per_rank: Vec<Vec<PathBuf>>,
    plan: FaultPlan,
    opts: ResilienceOptions,
) -> Result<(QueryResult, ReduceCoverage), ParallelError> {
    let (spec, size, files) = prepare_query(query, files_per_rank)?;
    let outputs = engine
        .try_run_tasks(size, plan, query_task_factory(spec, files, topology, opts))
        .map_err(ParallelError::Deadlock)?;
    finish_query_outputs(outputs)
}

/// The outcome of a traced engine-generic query run (see
/// [`parallel_query_on_traced`]): the query outcome — which may itself
/// be a [`ParallelError::Deadlock`] — and the recorded happens-before
/// trace, present either way so the analyzer can explain failures.
#[derive(Debug)]
pub struct TracedQueryRun {
    /// The query result and coverage report, or what went wrong.
    pub outcome: Result<(QueryResult, ReduceCoverage), ParallelError>,
    /// The communication trace of the run.
    pub trace: HbTrace,
}

/// Like [`parallel_query_on`], but with the engine's happens-before
/// trace hook armed: returns the recorded [`HbTrace`] alongside the
/// query outcome, for `mpi-caliquery --analyze` / `--trace` and
/// `cali-race`. The outer `Err` covers pre-run failures only (parse
/// errors, non-aggregations); once the world runs, failures land in
/// [`TracedQueryRun::outcome`] with the trace preserved.
pub fn parallel_query_on_traced<E: Executor>(
    engine: &E,
    topology: Topology,
    query: &str,
    files_per_rank: Vec<Vec<PathBuf>>,
    plan: FaultPlan,
    opts: ResilienceOptions,
) -> Result<TracedQueryRun, ParallelError> {
    let (spec, size, files) = prepare_query(query, files_per_rank)?;
    let run = engine.run_tasks_traced(size, plan, query_task_factory(spec, files, topology, opts));
    let outcome = match run.outputs {
        Ok(outputs) => finish_query_outputs(outputs),
        Err(e) => Err(ParallelError::Deadlock(e)),
    };
    Ok(TracedQueryRun {
        outcome,
        trace: run.trace,
    })
}

/// The per-phase timing breakdown of the parallel query runs in this
/// process, one `# `-prefixed line per phase, read from the metrics
/// registry entries the query tasks record.
pub fn timings_report() -> String {
    let m = metrics::global();
    let secs = |ns: u64| ns as f64 / 1e9;
    format!(
        "# local read+process (max over ranks): {:.6} s\n\
         # tree reduction (summed merges):      {:.6} s\n\
         # root finish:                         {:.6} s\n",
        secs(m.gauge_volatile(LOCAL_MAX_NS).get()),
        secs(m.timer(MERGE).total_ns()),
        secs(m.timer(FINISH).total_ns()),
    )
}

/// Per-rank local aggregation state: the pipeline, or the read error
/// that poisoned it.
type RankPipeline = Result<Pipeline, String>;

/// A validated query run setup: the parsed spec, the world size, and
/// the shared per-rank file assignment.
type PreparedQuery = (Arc<caliper_query::QuerySpec>, usize, Arc<Vec<Vec<PathBuf>>>);

/// Parse + validate the query and fix the world size.
fn prepare_query(
    query: &str,
    files_per_rank: Vec<Vec<PathBuf>>,
) -> Result<PreparedQuery, ParallelError> {
    let spec = parse_query(query).map_err(ParallelError::Parse)?;
    if !spec.is_aggregation() {
        return Err(ParallelError::NotAnAggregation);
    }
    let size = files_per_rank.len().max(1);
    Ok((Arc::new(spec), size, Arc::new(files_per_rank)))
}

/// The boxed closure forms of the query reduction, so the task type is
/// nameable from both the plain and the traced entry points.
type MergeFn = Box<dyn FnMut(RankPipeline, RankPipeline) -> RankPipeline + Send>;
type InitFn = Box<dyn FnOnce() -> RankPipeline + Send>;
type QueryTask = ReduceTask<RankPipeline, MergeFn, InitFn>;

/// The shared task factory of the query paths: each rank lazily reads +
/// aggregates its files, then reduces up the tree. The timing handles
/// are resolved here, once per run, and shared by every rank's task.
fn query_task_factory(
    spec: Arc<caliper_query::QuerySpec>,
    files: Arc<Vec<Vec<PathBuf>>>,
    topology: Topology,
    opts: ResilienceOptions,
) -> impl Fn(usize, usize) -> QueryTask + Send + Sync + 'static {
    let m = metrics::global();
    let local_max = m.gauge_volatile(LOCAL_MAX_NS);
    let merge_time = m.timer(MERGE);
    move |rank, size| {
        let spec = Arc::clone(&spec);
        let files = Arc::clone(&files);
        let local_max = local_max.clone();
        let init: InitFn = Box::new(move || -> RankPipeline {
            let start = Instant::now();
            let ds = read_files(&files[rank]).map_err(|e| e.to_string())?;
            let mut pipeline = Pipeline::new((*spec).clone(), Arc::clone(&ds.store));
            pipeline.process_dataset(&ds);
            local_max.set_max(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            Ok(pipeline)
        });
        let merge_time = merge_time.clone();
        let merge: MergeFn = Box::new(move |a: RankPipeline, b| match (a, b) {
            (Ok(mut acc), Ok(incoming)) => {
                let _timed = merge_time.start();
                acc.merge(incoming);
                Ok(acc)
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        });
        ReduceTask::new(rank, size, topology, init, merge, opts)
    }
}

/// Extract rank 0's merged pipeline + coverage from the task outputs.
fn finish_query_outputs(
    mut outputs: Vec<Option<Option<(RankPipeline, ReduceCoverage)>>>,
) -> Result<(QueryResult, ReduceCoverage), ParallelError> {
    let root = outputs
        .first_mut()
        .and_then(Option::take)
        .ok_or_else(|| ParallelError::Io("rank 0 was killed by the fault plan".to_string()))?;
    let (pipeline, coverage) = root.expect("rank 0 is the reduction root");
    let pipeline = pipeline.map_err(ParallelError::Io)?;
    let _timed = metrics::global().timer(FINISH).start();
    Ok((pipeline.finish(), coverage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_query::run_query;
    use miniapps::paradis::{self, ParaDisParams};
    use mpisim::{EventEngine, ThreadEngine};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("caliquery-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A fault-free flat run on the thread engine.
    fn query_on_threads(
        query: &str,
        per_rank: Vec<Vec<PathBuf>>,
    ) -> Result<(QueryResult, ReduceCoverage), ParallelError> {
        parallel_query_on(
            &ThreadEngine,
            Topology::Flat,
            query,
            per_rank,
            FaultPlan::new(),
            ResilienceOptions::default(),
        )
    }

    #[test]
    fn parallel_matches_serial() {
        let dir = temp_dir("match");
        let params = ParaDisParams {
            iterations: 3,
            ..Default::default()
        };
        let paths = paradis::write_files(&params, 8, &dir).unwrap();

        let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel";

        // Serial: read everything into one dataset.
        let ds = read_files(&paths).unwrap();
        let serial = run_query(&ds, query).unwrap();

        // Parallel: one file per rank.
        let per_rank: Vec<Vec<PathBuf>> = paths.iter().map(|p| vec![p.clone()]).collect();
        let merges_before = metrics::global().timer(MERGE).calls();
        let (parallel, coverage) = query_on_threads(query, per_rank).unwrap();

        assert_eq!(serial.to_table().render(), parallel.to_table().render());
        assert_eq!(coverage.included, (0..8).collect::<Vec<_>>());
        // 8 ranks, 7 merges — other tests may add more concurrently.
        assert!(metrics::global().timer(MERGE).calls() >= merges_before + 7);
        assert!(timings_report().contains("# tree reduction"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uneven_file_distribution() {
        let dir = temp_dir("uneven");
        let params = ParaDisParams {
            iterations: 2,
            ..Default::default()
        };
        let paths = paradis::write_files(&params, 5, &dir).unwrap();
        // 3 ranks, round-robin distribution: [0,3], [1,4], [2]
        let mut per_rank: Vec<Vec<PathBuf>> = vec![Vec::new(); 3];
        for (i, p) in paths.iter().enumerate() {
            per_rank[i % 3].push(p.clone());
        }
        let query = "AGGREGATE sum(aggregate.count) GROUP BY mpi.rank";
        let (result, _) = query_on_threads(query, per_rank).unwrap();
        // One output record per input rank.
        assert_eq!(result.records.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resilient_query_covers_exactly_the_surviving_ranks() {
        let dir = temp_dir("resilient");
        let params = ParaDisParams {
            iterations: 2,
            ..Default::default()
        };
        let paths = paradis::write_files(&params, 4, &dir).unwrap();
        let per_rank: Vec<Vec<PathBuf>> = paths.iter().map(|p| vec![p.clone()]).collect();
        let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel";

        // Kill rank 2 at its first comm op (receiving rank 3's partial):
        // the {2, 3} subtree is lost, ranks 0 and 1 survive.
        let opts = ResilienceOptions {
            timeout: std::time::Duration::from_millis(150),
            retries: 1,
            backoff: std::time::Duration::from_millis(50),
        };
        let (result, coverage) = parallel_query_on(
            &ThreadEngine,
            Topology::Flat,
            query,
            per_rank.clone(),
            FaultPlan::new().kill(2, 0),
            opts,
        )
        .unwrap();
        assert_eq!(coverage.lost, vec![2, 3]);
        assert_eq!(coverage.included, vec![0, 1]);

        // The merged result equals a serial aggregation over exactly
        // the surviving ranks' files.
        let survivor_paths: Vec<PathBuf> =
            coverage.included.iter().map(|&r| paths[r].clone()).collect();
        let ds = read_files(&survivor_paths).unwrap();
        let serial = run_query(&ds, query).unwrap();
        assert_eq!(serial.to_table().render(), result.to_table().render());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_generic_query_agrees_across_engines_and_topologies() {
        let dir = temp_dir("engines");
        let params = ParaDisParams {
            iterations: 2,
            ..Default::default()
        };
        let paths = paradis::write_files(&params, 8, &dir).unwrap();
        let per_rank: Vec<Vec<PathBuf>> = paths.iter().map(|p| vec![p.clone()]).collect();
        let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel";

        let expect = run_query(&read_files(&paths).unwrap(), query)
            .unwrap()
            .to_table()
            .render();

        let opts = ResilienceOptions::default();
        for topology in [Topology::Flat, Topology::TwoLevel { ranks_per_node: 3 }] {
            let (result, coverage) = parallel_query_on(
                &EventEngine::new(),
                topology,
                query,
                per_rank.clone(),
                FaultPlan::new(),
                opts,
            )
            .unwrap();
            assert!(coverage.is_complete(), "{topology:?}");
            assert_eq!(result.to_table().render(), expect, "{topology:?}");
        }

        let (result, coverage) = query_on_threads(query, per_rank).unwrap();
        assert!(coverage.is_complete());
        assert_eq!(result.to_table().render(), expect);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_generic_query_reports_read_failures() {
        let err = parallel_query_on(
            &EventEngine::new(),
            Topology::Flat,
            "AGGREGATE count GROUP BY x",
            vec![vec![PathBuf::from("/nonexistent/file.cali")], vec![]],
            FaultPlan::new(),
            ResilienceOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ParallelError::Io(_)));
    }

    #[test]
    fn passthrough_queries_are_rejected() {
        let err = query_on_threads("SELECT *", vec![vec![]]).unwrap_err();
        assert!(matches!(err, ParallelError::NotAnAggregation));
    }

    #[test]
    fn missing_files_are_reported() {
        let err = query_on_threads(
            "AGGREGATE count GROUP BY x",
            vec![vec![PathBuf::from("/nonexistent/file.cali")]],
        )
        .unwrap_err();
        assert!(matches!(err, ParallelError::Io(_)));
    }
}
