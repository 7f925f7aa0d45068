//! Determinism of the event engine at scale, pinned against golden
//! values: a 4096-rank resilient reduction under a seeded kill plan
//! must produce byte-identical output run-to-run and across worker-pool
//! sizes, with the exact same virtual-clock event count — a scheduler
//! change that reorders anything observable fails loudly here.

use std::time::{Duration, Instant};

use mpisim::{
    EventEngine, FaultPlan, ReduceTask, ResilienceOptions, SchedStats, Topology,
};

const RANKS: usize = 4096;
const KILL_SEED: u64 = 42;
const KILLS: usize = 7;

/// Golden values for (RANKS, KILL_SEED, KILLS) with default options and
/// the default 1 µs latency. If a deliberate scheduler change shifts
/// them, re-pin from `fig4 --ranks 4096 --kills 7 --kill-seed 42`.
const GOLDEN_SUM: u64 = 8_355_832;
const GOLDEN_INCLUDED: usize = 4_080;
const GOLDEN_EVENTS: u64 = 12_281;
const GOLDEN_VIRTUAL_NS: u64 = 8_400_009_000;
/// Of the 7 scheduled kills, only 3 land — the rest name an op index
/// their victim never reaches — and those 3 subtrees cover 16 ranks.
const GOLDEN_RANKS_LOST: u64 = 3;

fn scaled_run(workers: usize) -> (String, SchedStats) {
    let engine = EventEngine::with_workers(workers);
    let plan = FaultPlan::seeded_kills(KILL_SEED, KILLS, RANKS);
    let opts = ResilienceOptions::default();
    let (outs, stats) = engine.run_tasks_with_stats(RANKS, plan, move |rank, size| {
        ReduceTask::new(
            rank,
            size,
            Topology::Flat,
            move || rank as u64,
            |a, b| a + b,
            opts,
        )
    });
    (format!("{outs:?}"), stats)
}

#[test]
fn golden_4096_rank_run_is_pinned() {
    let (rendered, stats) = scaled_run(1);
    assert_eq!(stats.events, GOLDEN_EVENTS);
    assert_eq!(stats.virtual_time_ns, GOLDEN_VIRTUAL_NS);
    assert_eq!(stats.ranks_lost, GOLDEN_RANKS_LOST);
    assert!(rendered.contains(&GOLDEN_SUM.to_string()), "golden sum in output");

    let plan = FaultPlan::seeded_kills(KILL_SEED, KILLS, RANKS);
    let opts = ResilienceOptions::default();
    let (mut outs, _) = EventEngine::new().run_tasks_with_stats(RANKS, plan, move |rank, size| {
        ReduceTask::new(
            rank,
            size,
            Topology::Flat,
            move || rank as u64,
            |a, b| a + b,
            opts,
        )
    });
    let (sum, coverage) = outs[0].take().expect("root survives").expect("root output");
    assert_eq!(sum, GOLDEN_SUM);
    assert_eq!(coverage.included.len(), GOLDEN_INCLUDED);
    assert_eq!(coverage.lost.len(), RANKS - GOLDEN_INCLUDED);
}

#[test]
fn repeated_runs_are_byte_identical() {
    let (a, stats_a) = scaled_run(1);
    let (b, stats_b) = scaled_run(1);
    assert_eq!(a, b, "same seed, same bytes");
    assert_eq!(stats_a, stats_b, "same seed, same virtual-clock accounting");
}

#[test]
fn worker_pool_size_is_invisible_at_scale() {
    let (base, base_stats) = scaled_run(1);
    for workers in [2, 4] {
        let (out, stats) = scaled_run(workers);
        assert_eq!(out, base, "workers {workers}");
        assert_eq!(stats, base_stats, "workers {workers}");
    }
}

/// The `recv_timeout` busy-wait regression: a parent whose child is
/// delayed for 30 *virtual* seconds — past the first receive timeout,
/// so retry timers actually fire — must complete with full coverage in
/// wall-clock milliseconds. Under the event engine, timeouts are queued
/// events; nothing spins or sleeps.
#[test]
fn delayed_parent_scenario_completes_without_wall_clock_spin() {
    let wall = Instant::now();
    let opts = ResilienceOptions {
        timeout: Duration::from_secs(20),
        retries: 2,
        backoff: Duration::from_secs(5),
    };
    let plan = FaultPlan::new().delay(1, 0, Duration::from_secs(30));
    let (mut outs, stats) = EventEngine::new().run_tasks_with_stats(2, plan, move |rank, size| {
        ReduceTask::new(
            rank,
            size,
            Topology::Flat,
            move || rank as u64,
            |a, b| a + b,
            opts,
        )
    });
    let (sum, coverage) = outs[0].take().expect("root survives").expect("root output");
    assert_eq!(sum, 1);
    assert!(coverage.is_complete(), "straggler arrives during a retry");
    assert!(stats.timeouts >= 1, "the first 20 s timer must actually fire");
    assert!(stats.virtual_time_ns >= 30_000_000_000);
    assert!(
        wall.elapsed() < Duration::from_secs(5),
        "30 virtual seconds must cost no wall-clock spin (took {:?})",
        wall.elapsed()
    );
}
