//! The world launcher: runs N ranks as OS threads.
//!
//! This is the original execution model, kept as the reference engine:
//! every rank is an OS thread, receives block on channels, and timeouts
//! cost real wall-clock time. [`ThreadEngine`] exposes it behind the
//! [`Executor`] trait so the same [`RankTask`] state machines run here
//! and on the virtual-clock [`EventEngine`](crate::sched::EventEngine).

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, Once};

use crossbeam::channel::unbounded;

use crate::comm::{Comm, CommError, Packet, Tag};
use crate::fault::{FaultPlan, RankKilled};
use crate::task::{Action, Executor, Payload, RankTask, TaskCtx, Wake};
use crate::trace::{SharedTrace, TraceKind, TracedRun};

/// Run `body` on `size` simulated ranks, each on its own thread, and
/// collect the per-rank return values in rank order.
///
/// Panics in any rank propagate (the world aborts with that panic), so
/// test assertions inside ranks behave as expected.
pub fn run<R, F>(size: usize, body: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Comm) -> R + Send + Sync + 'static,
{
    launch(size, None, None, body)
        .into_iter()
        .enumerate()
        .map(|(rank, r)| match r {
            Ok(r) => r,
            Err(e) => resume_rank_panic(rank, e),
        })
        .collect()
}

/// Run `body` on `size` simulated ranks under a scripted [`FaultPlan`].
///
/// Ranks the plan kills unwind at their scripted communication op and
/// contribute `None`; every surviving rank's return value comes back as
/// `Some(..)`, in rank order. A rank that panics for any *other* reason
/// still propagates — fault injection must not swallow genuine bugs in
/// rank code (including test assertions).
///
/// ```
/// use mpisim::{run_with_faults, FaultPlan};
///
/// let out = run_with_faults(3, FaultPlan::new().kill(1, 0), |mut comm| {
///     if comm.rank() == 1 {
///         // First comm op: scripted death, never returns.
///         let _ = comm.send(0, 0, ());
///     }
///     comm.rank()
/// });
/// assert_eq!(out, vec![Some(0), None, Some(2)]);
/// ```
pub fn run_with_faults<R, F>(size: usize, plan: FaultPlan, body: F) -> Vec<Option<R>>
where
    R: Send + 'static,
    F: Fn(Comm) -> R + Send + Sync + 'static,
{
    run_with_faults_inner(size, plan, None, body)
}

/// [`run_with_faults`] with an optional armed trace collector.
fn run_with_faults_inner<R, F>(
    size: usize,
    plan: FaultPlan,
    trace: Option<Arc<SharedTrace>>,
    body: F,
) -> Vec<Option<R>>
where
    R: Send + 'static,
    F: Fn(Comm) -> R + Send + Sync + 'static,
{
    if plan.has_kills() {
        silence_injected_kill_panics();
    }
    let faults = if plan.is_empty() {
        None
    } else {
        Some(Arc::new(plan))
    };
    launch(size, faults, trace, body)
        .into_iter()
        .enumerate()
        .map(|(rank, r)| match r {
            Ok(r) => Some(r),
            Err(e) if e.is::<RankKilled>() => {
                caliper_data::metrics::global()
                    .counter_volatile("mpisim.ranks_lost")
                    .inc();
                None
            }
            Err(e) => resume_rank_panic(rank, e),
        })
        .collect()
}

/// Spawns the rank threads and joins them, returning each rank's
/// outcome: its return value, or the panic payload it unwound with.
fn launch<R, F>(
    size: usize,
    faults: Option<Arc<FaultPlan>>,
    trace: Option<Arc<SharedTrace>>,
    body: F,
) -> Vec<Result<R, Box<dyn std::any::Any + Send>>>
where
    R: Send + 'static,
    F: Fn(Comm) -> R + Send + Sync + 'static,
{
    assert!(size > 0, "world size must be positive");
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = unbounded::<Packet>();
        senders.push(tx);
        receivers.push(rx);
    }
    let inboxes = Arc::new(senders);
    let body = Arc::new(body);

    let mut handles = Vec::with_capacity(size);
    for (rank, inbox) in receivers.into_iter().enumerate() {
        let inboxes = Arc::clone(&inboxes);
        let body = Arc::clone(&body);
        let faults = faults.clone();
        let trace = trace.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .spawn(move || {
                    let mut comm = Comm::new(rank, size, inboxes, inbox, faults);
                    if let Some(t) = &trace {
                        comm.set_trace(Arc::clone(t));
                        t.record(rank, TraceKind::Start);
                    }
                    // Catch the unwind here so the Comm (and with it the
                    // rank's inbox receiver) is dropped the moment the
                    // rank dies — that drop is what lets survivors see
                    // sends to this rank fail.
                    let out = std::panic::catch_unwind(AssertUnwindSafe(|| body(comm)));
                    if let (Some(t), Ok(_)) = (&trace, &out) {
                        t.record(rank, TraceKind::Done);
                    }
                    out
                })
                .expect("spawn rank thread"),
        );
    }
    handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|e| Err(e)))
        .collect()
}

/// The thread engine's start gate: counts the ranks still in their
/// start step (a task's local phase — for a query, reading and
/// aggregating its files). No rank posts a receive, and so no receive
/// deadline starts, until the count reaches zero. On the event engine
/// the start step costs zero virtual time; the gate gives the thread
/// engine the same contract, so a slow local phase on one rank is never
/// mistaken for a dead partner by another.
struct StartGate {
    starting: Mutex<usize>,
    open: Condvar,
}

impl StartGate {
    fn new(size: usize) -> StartGate {
        StartGate {
            starting: Mutex::new(size),
            open: Condvar::new(),
        }
    }

    fn wait_open(&self) {
        let mut starting = self.starting.lock().unwrap_or_else(|e| e.into_inner());
        while *starting > 0 {
            starting = self.open.wait(starting).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One rank's pass through the [`StartGate`]. Dropping it counts the
/// rank out of its start step — also when the rank is killed or panics
/// inside it, so a dead rank can never hold the gate shut.
struct Started<'a>(&'a StartGate);

impl Drop for Started<'_> {
    fn drop(&mut self) {
        let mut starting = self.0.starting.lock().unwrap_or_else(|e| e.into_inner());
        *starting -= 1;
        if *starting == 0 {
            self.0.open.notify_all();
        }
    }
}

/// Builds this rank's task with `make` and drives it to completion
/// against a blocking [`Comm`]. Every [`Action::Recv`] becomes one
/// (bounded or unbounded) blocking receive and counts one
/// communication op, every [`TaskCtx::send`] one send op, so
/// [`FaultPlan`] schedules mean the same thing here as on the event
/// engine.
fn drive_task<T, F>(comm: &mut Comm, make: &F, gate: &StartGate) -> T::Out
where
    T: RankTask,
    F: Fn(usize, usize) -> T,
{
    let (mut task, mut action) = {
        let _started = Started(gate);
        let mut task = make(comm.rank(), comm.size());
        let action = task.step(&mut CommTaskCtx { comm }, Wake::Start);
        (task, action)
    };
    gate.wait_open();
    loop {
        match action {
            Action::Done => return task.into_output(),
            Action::Recv { src, tag, timeout } => {
                let wake = match comm.recv_msg(src, tag, timeout) {
                    Ok(msg) => Wake::Message(msg),
                    Err(e) if e.is_timeout() => Wake::Timeout,
                    // The inbox cannot disconnect while this rank lives
                    // (it holds every sender, its own included); a
                    // shutdown race is indistinguishable from silence.
                    Err(_) => Wake::Timeout,
                };
                action = task.step(&mut CommTaskCtx { comm }, wake);
            }
        }
    }
}

struct CommTaskCtx<'a> {
    comm: &'a mut Comm,
}

impl TaskCtx for CommTaskCtx<'_> {
    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn size(&self) -> usize {
        self.comm.size()
    }

    fn send(&mut self, dest: usize, tag: Tag, payload: Payload) -> Result<(), CommError> {
        self.comm.send_payload(dest, tag, payload)
    }
}

/// The thread-per-rank engine behind the [`Executor`] trait: one OS
/// thread per rank, blocking receives, wall-clock timeouts. Accurate to
/// real concurrency (including races) but capped at a few hundred
/// ranks; use [`EventEngine`](crate::sched::EventEngine) beyond that.
///
/// Every rank runs its start step before any rank posts a receive, so
/// wall-clock receive deadlines start only once all local phases are
/// done — however long one rank's takes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadEngine;

impl Executor for ThreadEngine {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn run_tasks<T, F>(&self, size: usize, plan: FaultPlan, make: F) -> Vec<Option<T::Out>>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static,
    {
        let gate = Arc::new(StartGate::new(size));
        run_with_faults(size, plan, move |mut comm| drive_task(&mut comm, &make, &gate))
    }

    fn run_tasks_traced<T, F>(&self, size: usize, plan: FaultPlan, make: F) -> TracedRun<T::Out>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static,
    {
        let shared = Arc::new(SharedTrace::new(size));
        let gate = Arc::new(StartGate::new(size));
        let outputs = run_with_faults_inner(size, plan, Some(Arc::clone(&shared)), move |mut comm| {
            drive_task(&mut comm, &make, &gate)
        });
        let trace = Arc::try_unwrap(shared)
            .expect("all rank threads joined, no collector clones remain")
            .into_trace();
        TracedRun {
            outputs: Ok(outputs),
            stats: None,
            trace,
        }
    }
}

fn resume_rank_panic(rank: usize, e: Box<dyn std::any::Any + Send>) -> ! {
    std::panic::resume_unwind(Box::new(format!(
        "rank {rank} panicked: {:?}",
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
    )))
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" stderr message for [`RankKilled`] unwinds — those
/// are scripted, expected deaths, not noise-worthy failures. All other
/// panics go to the previously installed hook untouched.
pub(crate) fn silence_injected_kill_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<RankKilled>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Current value of a named counter in the process-global registry.
    fn global_counter(name: &str) -> u64 {
        caliper_data::metrics::global()
            .snapshot()
            .into_iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap_or(0)
    }

    #[test]
    fn faults_and_messages_feed_the_metrics_registry() {
        // Other tests in this process also send messages and kill
        // ranks, so assert on deltas, not absolute values.
        let msgs_before = global_counter("mpisim.comm.messages");
        let lost_before = global_counter("mpisim.ranks_lost");
        let out = run_with_faults(3, FaultPlan::new().kill(2, 0), |mut comm| {
            match comm.rank() {
                0 => {
                    let v: u64 = comm.recv(1, 0).unwrap();
                    v
                }
                1 => {
                    comm.send(0, 0, 17u64).unwrap();
                    0
                }
                _ => {
                    let _ = comm.send(0, 0, 0u64); // scripted death here
                    0
                }
            }
        });
        assert_eq!(out, vec![Some(17), Some(0), None]);
        assert!(global_counter("mpisim.comm.messages") > msgs_before);
        assert!(global_counter("mpisim.ranks_lost") > lost_before);
    }

    #[test]
    fn ranks_see_their_ids() {
        let ids = run(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn ring_pass() {
        let sums = run(4, |mut comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 0, comm.rank() as u64).unwrap();
            let from_prev: u64 = comm.recv(prev, 0).unwrap();
            from_prev + comm.rank() as u64
        });
        assert_eq!(sums, vec![3, 1, 3, 5]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run(2, |mut comm| {
            if comm.rank() == 0 {
                // Send tag 1 first, then tag 0.
                comm.send(1, 1, "second".to_string()).unwrap();
                comm.send(1, 0, "first".to_string()).unwrap();
                Vec::new()
            } else {
                // Receive in the opposite order.
                let a: String = comm.recv(0, 0).unwrap();
                let b: String = comm.recv(0, 1).unwrap();
                vec![a, b]
            }
        });
        assert_eq!(results[1], vec!["first", "second"]);
    }

    #[test]
    fn recv_any_matches_any_source() {
        let totals = run(4, |mut comm| {
            if comm.rank() == 0 {
                let mut total = 0u64;
                for _ in 1..comm.size() {
                    let (_, v): (usize, u64) = comm.recv_any(7).unwrap();
                    total += v;
                }
                total
            } else {
                comm.send(0, 7, comm.rank() as u64).unwrap();
                0
            }
        });
        assert_eq!(totals[0], 6);
    }

    #[test]
    fn single_rank_world() {
        let out = run(1, |comm| comm.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn recv_timeout_bounds_the_wait() {
        let out = run(2, |mut comm| {
            if comm.rank() == 0 {
                // Rank 1 never sends: the wait must end in a timeout.
                let err = comm
                    .recv_timeout::<u64>(1, 9, Duration::from_millis(40))
                    .unwrap_err();
                assert!(err.is_timeout(), "{err}");
                true
            } else {
                true
            }
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn killed_rank_maps_to_none_and_faults_dont_leak() {
        let out = run_with_faults(3, FaultPlan::new().kill(2, 0), |mut comm| {
            match comm.rank() {
                0 => {
                    let v: u64 = comm.recv(1, 0).unwrap();
                    v
                }
                1 => {
                    comm.send(0, 0, 41u64).unwrap();
                    1
                }
                _ => {
                    // First op is the scripted death.
                    let _ = comm.send(0, 0, 99u64);
                    unreachable!("rank 2 is killed at op 0")
                }
            }
        });
        assert_eq!(out, vec![Some(41), Some(1), None]);
    }

    #[test]
    fn delays_make_stragglers_not_corpses() {
        let t0 = std::time::Instant::now();
        let out = run_with_faults(
            2,
            FaultPlan::new().delay(1, 0, Duration::from_millis(50)),
            |mut comm| {
                if comm.rank() == 0 {
                    comm.recv::<u64>(1, 0).unwrap()
                } else {
                    comm.send(0, 0, 7u64).unwrap();
                    7
                }
            },
        );
        assert_eq!(out, vec![Some(7), Some(7)]);
        assert!(t0.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn sends_to_a_dead_rank_eventually_disconnect() {
        let out = run_with_faults(2, FaultPlan::new().kill(1, 0), |mut comm| {
            if comm.rank() == 0 {
                // Rank 1 dies on its first op; once its inbox is gone our
                // sends fail. Retry until the death becomes observable.
                loop {
                    if comm.send(1, 0, 1u64).is_err() {
                        return true;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                let _ = comm.recv::<u64>(0, 0);
                unreachable!("rank 1 is killed at op 0")
            }
        });
        assert_eq!(out, vec![Some(true), None]);
    }
}
