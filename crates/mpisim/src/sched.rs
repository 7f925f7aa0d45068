//! The event-driven world: a deterministic virtual-clock scheduler.
//!
//! Where the thread engine gives every rank an OS thread and pays wall
//! clock for every timeout, the [`EventEngine`] runs all ranks inside
//! one event loop on a **virtual clock**:
//!
//! * virtual time is a `u64` nanosecond counter that only ever jumps to
//!   the timestamp of the next scheduled event — nothing sleeps;
//! * a send is stamped at the sender's local virtual time and delivered
//!   `latency` later as a queued event;
//! * a bounded receive registers a **timer event** at its virtual
//!   deadline — timeouts are first-class events, so a reduction that
//!   waits out seconds of (virtual) timeout budget for dead partners
//!   completes in microseconds of wall-clock time, with zero spinning;
//! * scripted [`FaultPlan`] delays advance the rank's local clock
//!   instead of sleeping, and kills drop the rank's task at exactly the
//!   scripted communication op.
//!
//! # Determinism
//!
//! Events are ordered by virtual time, then by scheduling order, which
//! is deterministic: a batch's effects are scheduled in rank-ascending
//! order. All events sharing the minimal timestamp form a
//! **batch**: their tasks are stepped — possibly in parallel on a
//! bounded worker pool — against an immutable snapshot of the batch
//! start state, and their effects (sends, timers, deaths) are applied
//! in rank order afterwards. Worker-pool size therefore cannot change
//! any outcome: runs are byte-identical for 1, 2, or N workers, and the
//! event count and final virtual time are identical too (pinned by the
//! determinism tests).
//!
//! # Virtual deadlock
//!
//! If the event queue drains while live tasks still wait without a
//! timeout, no message can ever arrive: the scheduler reports a
//! structured [`SchedError::Deadlock`] naming the blocked ranks and any
//! wait cycles among them (via
//! [`EventEngine::try_run_tasks_with_stats`]; the panicking
//! [`run_tasks`](Executor::run_tasks) entry point panics with the
//! error's message) — the event-loop analogue of the thread engine's
//! watchdog-guarded deadlock tests.
//!
//! # Tracing
//!
//! [`EventEngine::run_tasks_traced`] records a structured
//! happens-before trace ([`HbTrace`]) of the run for the offline
//! analyzer in [`crate::hb`]. The hook is a per-batch boolean: when
//! tracing is off (every other entry point), the only cost is testing
//! that flag, and the recorded trace — timestamps included, since the
//! clock is virtual — is byte-identical for any worker-pool size.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

use crate::comm::{CommError, Tag};
use crate::fault::{FaultPlan, RankKilled};
use crate::task::{Action, Executor, Msg, Payload, RankTask, TaskCtx, Wake};
use crate::trace::{HbTrace, TraceEvent, TraceKind, TracedRun};

/// Virtual time, in nanoseconds since the start of the run.
pub type SimTime = u64;

/// Tuning knobs for the [`EventEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Worker threads stepping ready tasks within one batch. `0` and
    /// `1` both mean the single-threaded core. A batch's ranks are
    /// dealt to the workers' lanes strided in rank order — the `g`-th
    /// distinct rank of the batch goes to lane `g % workers` — so a run
    /// of expensive low ranks (the file-reading ranks of a round-robin
    /// assignment) is shared evenly; the calling thread steps lane 0
    /// itself. Pool size never changes results — only wall-clock time.
    pub workers: usize,
    /// Virtual delivery latency per message, in nanoseconds (≥ 1 so a
    /// message can never arrive in the batch that sent it).
    pub latency_ns: u64,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            workers: 1,
            latency_ns: 1_000,
        }
    }
}

/// What one event-engine run did, in virtual-clock terms. Everything
/// here is deterministic for a fixed (size, plan, tasks, latency)
/// tuple, independent of the worker-pool size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events processed (messages delivered, timers fired, rank
    /// starts), including stale timers skipped after their receive was
    /// satisfied.
    pub events: u64,
    /// Virtual timestamp of the last *acted-upon* event — the virtual
    /// makespan of the run (stale timers do not extend it).
    pub virtual_time_ns: SimTime,
    /// High-water mark of the event queue.
    pub max_queue_depth: usize,
    /// Messages sent (and accepted for delivery).
    pub messages: u64,
    /// Messages dropped because the destination died before delivery.
    pub dropped: u64,
    /// Timer events that woke a task with [`Wake::Timeout`].
    pub timeouts: u64,
    /// Timer events skipped because their receive had been satisfied.
    pub stale_timers: u64,
    /// Ranks killed by the fault plan.
    pub ranks_lost: u64,
}

/// Outputs plus scheduler statistics of a fallible engine run.
pub type SchedOutcome<Out> = Result<(Vec<Option<Out>>, SchedStats), SchedError>;

/// Everything `run_core` produces: the run outcome, the scheduler
/// statistics, and the (possibly empty) happens-before trace.
type CoreRun<Out> = (Result<Vec<Option<Out>>, SchedError>, SchedStats, HbTrace);

/// A structured scheduler failure — the event engine's replacement for
/// the former bare "virtual deadlock" panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The event queue drained while live ranks still waited on messages
    /// that can never arrive.
    Deadlock {
        /// Wait cycles among the blocked ranks, each listed in wait
        /// order and rotated to start at its smallest member (a rank in
        /// a cycle waits on the next; the last waits on the first).
        /// Empty when every blocked rank waits on something outside any
        /// cycle — a dead, finished, or wildcard peer.
        cycles: Vec<Vec<usize>>,
        /// Every blocked rank, ascending.
        blocked: Vec<usize>,
        /// Virtual time at which the queue drained.
        at_ns: SimTime,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Deadlock {
                cycles,
                blocked,
                at_ns,
            } => {
                write!(
                    f,
                    "virtual deadlock: ranks {blocked:?} wait on messages that can never \
                     arrive (no events left at virtual time {at_ns} ns)"
                )?;
                for cycle in cycles {
                    let chain: Vec<String> = cycle
                        .iter()
                        .chain(cycle.first())
                        .map(|r| r.to_string())
                        .collect();
                    write!(f, "; wait cycle: {}", chain.join(" -> "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// The event-driven executor. See the module docs for semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventEngine {
    /// Scheduler configuration.
    pub config: SchedConfig,
}

impl EventEngine {
    /// Engine with the default configuration (single-threaded core,
    /// 1 µs message latency).
    pub fn new() -> EventEngine {
        EventEngine::default()
    }

    /// Engine with a bounded worker pool of `workers` threads.
    pub fn with_workers(workers: usize) -> EventEngine {
        EventEngine {
            config: SchedConfig {
                workers,
                ..SchedConfig::default()
            },
        }
    }
}

/// A scheduled event; its virtual time is the key of its queue bucket.
enum EvKind {
    /// Initial wake of `rank` at time 0.
    Start { rank: usize },
    /// Deliver a message to `dest`.
    Deliver { dest: usize, msg: Msg },
    /// A receive deadline for `rank`; stale if `gen` no longer matches.
    Timer { rank: usize, gen: u64 },
}

impl EvKind {
    fn rank(&self) -> usize {
        match *self {
            EvKind::Start { rank } | EvKind::Timer { rank, .. } => rank,
            EvKind::Deliver { dest, .. } => dest,
        }
    }
}

/// An active bounded or unbounded receive.
struct Wait {
    src: Option<usize>,
    tag: Tag,
}

impl Wait {
    fn matches(&self, msg: &Msg) -> bool {
        msg.tag == self.tag && self.src.map(|s| s == msg.src).unwrap_or(true)
    }
}

/// Where a rank's task stands.
enum Slot<T: RankTask> {
    /// Running: blocked on a wait, or about to be stepped.
    Live(T),
    /// Finished, with its output.
    Done(T::Out),
    /// Killed by the fault plan.
    Dead,
}

/// Everything the scheduler tracks per rank.
struct RankState<T: RankTask> {
    slot: Slot<T>,
    /// Delivered but unmatched messages, in delivery order.
    buffer: Vec<Msg>,
    wait: Option<Wait>,
    /// Bumped on every new registered wait; timers carry the
    /// generation they were armed for, so satisfied waits make their
    /// timers stale instead of firing.
    wait_gen: u64,
    /// The rank's local virtual clock: max of the global clock and any
    /// scripted delays it has served. Sends and deadlines are stamped
    /// with this, so a delayed rank's messages arrive late — exactly
    /// like a straggler thread, minus the wall-clock sleep.
    local_now: SimTime,
    /// Communication ops issued — the [`FaultPlan`] time axis.
    ops: u64,
}

impl<T: RankTask> RankState<T> {
    fn new(task: T) -> RankState<T> {
        RankState {
            slot: Slot::Live(task),
            buffer: Vec::new(),
            wait: None,
            wait_gen: 0,
            local_now: 0,
            ops: 0,
        }
    }

    fn is_live(&self) -> bool {
        matches!(self.slot, Slot::Live(_))
    }

    /// The fault plan killed the rank: drop its task and its inbox.
    fn kill(&mut self, effects: &mut Effects) {
        self.slot = Slot::Dead;
        self.wait = None;
        self.buffer.clear();
        effects.died = true;
        effects.rec(self.local_now, TraceKind::Killed);
    }
}

/// An outgoing message buffered during a step, stamped with the
/// sender's local virtual time.
struct OutMsg {
    at: SimTime,
    dest: usize,
    src: usize,
    tag: Tag,
    payload: Payload,
}

/// Deterministically ordered side effects of stepping one lane's ranks,
/// rank after rank: each rank's sends, timers and trace events follow
/// the previous rank's in the shared buffers, and a [`Stepped`] record
/// says how many of each a rank produced — so stepping a rank allocates
/// nothing of its own.
#[derive(Default)]
struct Effects {
    sends: Vec<OutMsg>,
    /// `(deadline, generation)` timers to arm.
    timers: Vec<(SimTime, u64)>,
    /// Lane tallies folded into [`SchedStats`] at apply time.
    dropped: u64,
    timeouts: u64,
    stale_timers: u64,
    /// Whether the rank being stepped died.
    died: bool,
    /// Happens-before events recorded during the steps, appended to the
    /// ranks' trace lanes at apply time. Only populated when `tracing`.
    trace: Vec<TraceEvent>,
    /// The trace hook: when false (the default), recording is a single
    /// branch per call site and nothing allocates.
    tracing: bool,
}

impl Effects {
    fn armed(tracing: bool) -> Effects {
        Effects {
            tracing,
            ..Effects::default()
        }
    }

    /// Record `kind` at virtual time `at` — a no-op unless tracing.
    fn rec(&mut self, at: SimTime, kind: TraceKind) {
        if self.tracing {
            self.trace.push(TraceEvent { kind, at_ns: at });
        }
    }
}

/// One stepped rank's share of its lane's [`Effects`].
struct Stepped {
    rank: usize,
    sends: usize,
    timers: usize,
    trace: usize,
    died: bool,
}

/// The [`TaskCtx`] a task sees while stepped by the event engine.
struct EventCtx<'a> {
    rank: usize,
    size: usize,
    ops: &'a mut u64,
    local_now: &'a mut SimTime,
    plan: &'a FaultPlan,
    /// Liveness snapshot at batch start: sends observe it, so results
    /// are independent of intra-batch stepping order.
    alive: &'a [bool],
    effects: &'a mut Effects,
}

impl TaskCtx for EventCtx<'_> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dest: usize, tag: Tag, payload: Payload) -> Result<(), CommError> {
        assert!(dest < self.size, "send to rank {dest} out of range");
        let op = *self.ops;
        *self.ops += 1;
        if let Some(d) = self.plan.delay_at(self.rank, op) {
            *self.local_now += d.as_nanos() as SimTime;
        }
        if self.plan.kill_at(self.rank, op) {
            std::panic::panic_any(RankKilled);
        }
        let ok = self.alive[dest];
        self.effects
            .rec(*self.local_now, TraceKind::Send { dest, tag, ok });
        if !ok {
            return Err(CommError::disconnected(format!("send to rank {dest}")));
        }
        self.effects.sends.push(OutMsg {
            at: *self.local_now,
            dest,
            src: self.rank,
            tag,
            payload,
        });
        Ok(())
    }
}

/// What every step of one batch shares.
#[derive(Clone, Copy)]
struct BatchEnv<'a> {
    /// The batch's virtual timestamp.
    now: SimTime,
    size: usize,
    plan: &'a FaultPlan,
    /// Liveness at batch start: sends observe it, so results are
    /// independent of intra-batch stepping order.
    alive: &'a [bool],
    tracing: bool,
}

/// Steps `state`'s task until it blocks (registering a wait and
/// possibly a timer in `effects`), finishes, or dies.
fn feed<T: RankTask>(
    state: &mut RankState<T>,
    mut wake: Wake,
    env: BatchEnv<'_>,
    effects: &mut Effects,
    rank: usize,
) {
    let plan = env.plan;
    loop {
        let RankState {
            slot,
            ops,
            local_now,
            ..
        } = &mut *state;
        let Slot::Live(task) = slot else { return };
        let mut ctx = EventCtx {
            rank,
            size: env.size,
            ops,
            local_now,
            plan,
            alive: env.alive,
            effects,
        };
        let action = match std::panic::catch_unwind(AssertUnwindSafe(|| task.step(&mut ctx, wake)))
        {
            Ok(action) => action,
            Err(payload) if payload.is::<RankKilled>() => {
                state.kill(effects);
                return;
            }
            // A genuine bug in task code: propagate, as the thread
            // engine does — fault injection must not swallow it.
            Err(payload) => std::panic::resume_unwind(payload),
        };
        match action {
            Action::Done => {
                let Slot::Live(task) = std::mem::replace(&mut state.slot, Slot::Dead) else {
                    unreachable!("a stepped task is live");
                };
                state.slot = Slot::Done(task.into_output());
                effects.rec(state.local_now, TraceKind::Done);
                return;
            }
            Action::Recv { src, tag, timeout } => {
                // The receive is a communication op: the fault point
                // fires before any matching, like `Comm::recv*`.
                let op = state.ops;
                state.ops += 1;
                if let Some(d) = plan.delay_at(rank, op) {
                    state.local_now += d.as_nanos() as SimTime;
                }
                if plan.kill_at(rank, op) {
                    state.kill(effects);
                    return;
                }
                let wait = Wait { src, tag };
                if let Some(i) = state.buffer.iter().position(|m| wait.matches(m)) {
                    let msg = state.buffer.remove(i);
                    effects.rec(
                        state.local_now,
                        TraceKind::Match {
                            src: msg.src,
                            tag: msg.tag,
                            wildcard: wait.src.is_none(),
                        },
                    );
                    wake = Wake::Message(msg);
                    continue;
                }
                state.wait_gen += 1;
                if let Some(t) = timeout {
                    let deadline = state
                        .local_now
                        .saturating_add(t.as_nanos().min(u128::from(u64::MAX)) as SimTime);
                    effects.timers.push((deadline, state.wait_gen));
                }
                effects.rec(
                    state.local_now,
                    TraceKind::WaitPost {
                        src: wait.src,
                        tag,
                        timeout_ns: timeout
                            .map(|t| t.as_nanos().min(u128::from(u64::MAX)) as u64),
                    },
                );
                state.wait = Some(wait);
                return;
            }
        }
    }
}

/// Routes one popped event into the rank's state, stepping the task as
/// far as it will go. The rank's local clock first catches up to the
/// event's timestamp, so sends it performs are stamped no earlier than
/// the wake that caused them and timer deadlines are always in the
/// future — which also makes the final virtual time a true makespan
/// (one latency per tree level, plus any timeout budgets waited out).
fn process_event<T: RankTask>(
    state: &mut RankState<T>,
    kind: EvKind,
    env: BatchEnv<'_>,
    effects: &mut Effects,
) {
    state.local_now = state.local_now.max(env.now);
    let rank = kind.rank();
    match kind {
        EvKind::Start { .. } => {
            effects.rec(state.local_now, TraceKind::Start);
            feed(state, Wake::Start, env, effects, rank)
        }
        EvKind::Deliver { msg, .. } => {
            if !state.is_live() {
                // The thread-engine analogue: a send that raced the
                // destination's death succeeded, and the message is
                // simply lost.
                effects.dropped += 1;
                return;
            }
            match &state.wait {
                Some(w) if w.matches(&msg) => {
                    let wildcard = w.src.is_none();
                    state.wait = None;
                    effects.rec(
                        state.local_now,
                        TraceKind::Match {
                            src: msg.src,
                            tag: msg.tag,
                            wildcard,
                        },
                    );
                    feed(state, Wake::Message(msg), env, effects, rank);
                }
                _ => state.buffer.push(msg),
            }
        }
        EvKind::Timer { gen, .. } => {
            if state.is_live() && state.wait.is_some() && gen == state.wait_gen {
                let w = state.wait.take().expect("checked above");
                effects.timeouts += 1;
                effects.rec(
                    state.local_now,
                    TraceKind::Timeout {
                        src: w.src,
                        tag: w.tag,
                    },
                );
                feed(state, Wake::Timeout, env, effects, rank);
            } else {
                effects.stale_timers += 1;
            }
        }
    }
}

/// One worker's share of a batch: the ranks it steps, ascending, each
/// with its state borrowed in place, and their events back to back in
/// the same order (each rank's run in scheduling order).
struct Lane<'s, T: RankTask> {
    ranks: Vec<(usize, &'s mut RankState<T>)>,
    events: Vec<EvKind>,
}

impl<T: RankTask> Lane<'_, T> {
    /// Step every rank of the lane, in the lane's rank order.
    fn step(self, env: BatchEnv<'_>) -> LaneOut {
        let mut effects = Effects::armed(env.tracing);
        let mut events = self.events.into_iter().peekable();
        let stepped: Vec<Stepped> = self
            .ranks
            .into_iter()
            .map(|(rank, state)| {
                let before = (
                    effects.sends.len(),
                    effects.timers.len(),
                    effects.trace.len(),
                );
                effects.died = false;
                while let Some(kind) = events.next_if(|k| k.rank() == rank) {
                    process_event(state, kind, env, &mut effects);
                }
                Stepped {
                    rank,
                    sends: effects.sends.len() - before.0,
                    timers: effects.timers.len() - before.1,
                    trace: effects.trace.len() - before.2,
                    died: effects.died,
                }
            })
            .collect();
        LaneOut {
            stepped: stepped.into_iter(),
            sends: effects.sends.into_iter(),
            timers: effects.timers.into_iter(),
            trace: effects.trace.into_iter(),
            dropped: effects.dropped,
            timeouts: effects.timeouts,
            stale_timers: effects.stale_timers,
        }
    }
}

/// A stepped lane's effects, drained rank by rank when they are applied.
struct LaneOut {
    stepped: std::vec::IntoIter<Stepped>,
    sends: std::vec::IntoIter<OutMsg>,
    timers: std::vec::IntoIter<(SimTime, u64)>,
    trace: std::vec::IntoIter<TraceEvent>,
    dropped: u64,
    timeouts: u64,
    stale_timers: u64,
}

/// Deal a batch, sorted by rank, onto `workers` lanes: the `g`-th
/// distinct rank goes to lane `g % workers`, so ranks with expensive
/// steps — the low ranks that hold files, under round-robin file
/// assignment — spread evenly over the lanes. Returns the lanes and
/// the number of distinct ranks.
fn deal<'s, T: RankTask>(
    batch: impl Iterator<Item = EvKind>,
    states: &'s mut [RankState<T>],
    workers: usize,
) -> (Vec<Lane<'s, T>>, usize) {
    let mut lanes: Vec<Lane<'s, T>> = (0..workers)
        .map(|_| Lane {
            ranks: Vec::new(),
            events: Vec::new(),
        })
        .collect();
    // States of ranks above the last dealt one, starting at rank `base`.
    let mut rest = states;
    let mut base = 0;
    let mut last = None;
    let mut groups = 0;
    for kind in batch {
        let rank = kind.rank();
        if last != Some(rank) {
            // Ranks arrive ascending: split the rank's state off the
            // front of the not-yet-borrowed tail.
            let (state, tail) = std::mem::take(&mut rest)[rank - base..]
                .split_first_mut()
                .expect("event for a rank inside the world");
            rest = tail;
            base = rank + 1;
            lanes[groups % workers].ranks.push((rank, state));
            groups += 1;
            last = Some(rank);
        }
        lanes[(groups - 1) % workers].events.push(kind);
    }
    lanes.truncate(groups.min(workers));
    (lanes, groups)
}

impl EventEngine {
    /// Like [`Executor::run_tasks`], but also returns the run's
    /// [`SchedStats`]. Panics with the [`SchedError`] message on a
    /// virtual deadlock; use
    /// [`try_run_tasks_with_stats`](EventEngine::try_run_tasks_with_stats)
    /// for the structured error.
    pub fn run_tasks_with_stats<T, F>(
        &self,
        size: usize,
        plan: FaultPlan,
        make: F,
    ) -> (Vec<Option<T::Out>>, SchedStats)
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T,
    {
        match self.try_run_tasks_with_stats(size, plan, make) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`run_tasks_with_stats`](EventEngine::run_tasks_with_stats),
    /// but a virtual deadlock is a structured [`SchedError::Deadlock`]
    /// naming the blocked ranks and their wait cycles, instead of a
    /// panic.
    pub fn try_run_tasks_with_stats<T, F>(
        &self,
        size: usize,
        plan: FaultPlan,
        make: F,
    ) -> SchedOutcome<T::Out>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T,
    {
        let (outputs, stats, _) = self.run_core(size, plan, make, false);
        outputs.map(|outs| (outs, stats))
    }

    /// Run with the happens-before trace hook armed. The trace (and
    /// everything else) is byte-identical across worker-pool sizes, and
    /// is returned even when the run deadlocks — so the analyzer can
    /// name the wait cycle.
    pub fn run_tasks_traced<T, F>(&self, size: usize, plan: FaultPlan, make: F) -> TracedRun<T::Out>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T,
    {
        let (outputs, stats, trace) = self.run_core(size, plan, make, true);
        TracedRun {
            outputs,
            stats: Some(stats),
            trace,
        }
    }

    fn run_core<T, F>(&self, size: usize, plan: FaultPlan, make: F, tracing: bool) -> CoreRun<T::Out>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T,
    {
        assert!(size > 0, "world size must be positive");
        crate::world::silence_injected_kill_panics();
        let latency = self.config.latency_ns.max(1);
        let workers = self.config.workers.max(1);
        let mut stats = SchedStats::default();
        let mut trace = if tracing {
            HbTrace::new(size)
        } else {
            HbTrace::default()
        };

        let mut states: Vec<RankState<T>> =
            (0..size).map(|rank| RankState::new(make(rank, size))).collect();
        // Liveness as of the current batch's start; deaths are folded in
        // when effects are applied.
        let mut alive = vec![true; size];
        // Pending events, bucketed by virtual time; each bucket holds
        // its events in scheduling order. Popping the earliest bucket
        // yields a whole batch at once.
        let mut queue: BTreeMap<SimTime, Vec<EvKind>> = BTreeMap::new();
        queue.insert(0, (0..size).map(|rank| EvKind::Start { rank }).collect());
        let mut queued = size;
        stats.max_queue_depth = queued;

        let metrics = caliper_data::metrics::global();
        let phase_timers = [
            metrics.timer("mpisim.sched.collect"),
            metrics.timer("mpisim.sched.step"),
            metrics.timer("mpisim.sched.apply"),
        ];
        while let Some((now, mut batch)) = queue.pop_first() {
            let started = Instant::now();
            // --- the batch: every event at the minimal time ---
            queued -= batch.len();
            let batch_len = batch.len() as u64;
            stats.events += batch_len;

            // --- group per rank: a stable sort keeps each rank's events
            // in scheduling order ---
            batch.sort_by_key(EvKind::rank);
            let (lanes, groups) = deal(batch.into_iter(), &mut states, workers);
            let collected = Instant::now();

            // --- step the batch's ranks in place against the liveness
            // snapshot, one lane per worker ---
            let env = BatchEnv {
                now,
                size,
                plan: &plan,
                alive: &alive,
                tracing,
            };
            let mut stepped: Vec<LaneOut> = if lanes.len() <= 1 {
                lanes.into_iter().map(|lane| lane.step(env)).collect()
            } else {
                std::thread::scope(|scope| {
                    let mut lanes = lanes.into_iter();
                    let first = lanes.next().expect("at least two lanes");
                    let handles: Vec<_> = lanes
                        .map(|lane| scope.spawn(move || lane.step(env)))
                        .collect();
                    let mut out = vec![first.step(env)];
                    for handle in handles {
                        match handle.join() {
                            Ok(lane) => out.push(lane),
                            Err(e) => std::panic::resume_unwind(e),
                        }
                    }
                    out
                })
            };
            let step_done = Instant::now();

            // --- apply effects in rank order: deterministic scheduling
            // order. The g-th rank of the batch was dealt to lane
            // g % lanes. ---
            let mut stale_in_batch = 0u64;
            for lane in &stepped {
                stale_in_batch += lane.stale_timers;
                stats.dropped += lane.dropped;
                stats.timeouts += lane.timeouts;
            }
            stats.stale_timers += stale_in_batch;
            let lane_count = stepped.len();
            for g in 0..groups {
                let lane = &mut stepped[g % lane_count];
                let Stepped {
                    rank,
                    sends,
                    timers,
                    trace: traced,
                    died,
                } = lane.stepped.next().expect("one record per dealt rank");
                if died {
                    stats.ranks_lost += 1;
                    alive[rank] = false;
                }
                if tracing {
                    trace.events[rank].extend(lane.trace.by_ref().take(traced));
                }
                for out in lane.sends.by_ref().take(sends) {
                    stats.messages += 1;
                    queued += 1;
                    queue
                        .entry(out.at + latency)
                        .or_default()
                        .push(EvKind::Deliver {
                            dest: out.dest,
                            msg: Msg {
                                src: out.src,
                                tag: out.tag,
                                payload: out.payload,
                            },
                        });
                }
                for (deadline, gen) in lane.timers.by_ref().take(timers) {
                    queued += 1;
                    queue
                        .entry(deadline)
                        .or_default()
                        .push(EvKind::Timer { rank, gen });
                }
            }
            // Stale timers fire after their receive was satisfied;
            // a batch of nothing else must not stretch the makespan.
            if stale_in_batch < batch_len {
                stats.virtual_time_ns = stats.virtual_time_ns.max(now);
            }
            stats.max_queue_depth = stats.max_queue_depth.max(queued);
            let marks = [started, collected, step_done, Instant::now()];
            for (timer, phase) in phase_timers.iter().zip(marks.windows(2)) {
                timer.add_ns((phase[1] - phase[0]).as_nanos().min(u128::from(u64::MAX)) as u64);
            }
        }

        // --- queue drained: every live task must have finished ---
        let blocked_waits: Vec<(usize, Option<usize>, Tag)> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_live())
            .map(|(r, s)| match &s.wait {
                Some(w) => (r, w.src, w.tag),
                None => (r, None, 0),
            })
            .collect();
        let outcome = if blocked_waits.is_empty() {
            Ok(states
                .into_iter()
                .map(|s| match s.slot {
                    Slot::Done(out) => Some(out),
                    Slot::Live(_) | Slot::Dead => None,
                })
                .collect())
        } else {
            Err(SchedError::Deadlock {
                cycles: crate::hb::find_wait_cycles(&blocked_waits).cycles,
                blocked: blocked_waits.iter().map(|&(r, _, _)| r).collect(),
                at_ns: stats.virtual_time_ns,
            })
        };

        metrics.counter_volatile("mpisim.sched.events").add(stats.events);
        metrics
            .gauge_volatile("mpisim.sched.virtual_time_ns")
            .set(stats.virtual_time_ns);
        metrics
            .gauge_volatile("mpisim.sched.max_queue_depth")
            .set_max(stats.max_queue_depth as u64);
        metrics
            .counter_volatile("mpisim.comm.messages")
            .add(stats.messages);
        metrics
            .counter_volatile("mpisim.comm.timeouts")
            .add(stats.timeouts);
        metrics
            .counter_volatile("mpisim.ranks_lost")
            .add(stats.ranks_lost);

        (outcome, stats, trace)
    }
}

impl Executor for EventEngine {
    fn name(&self) -> &'static str {
        "event"
    }

    fn run_tasks<T, F>(&self, size: usize, plan: FaultPlan, make: F) -> Vec<Option<T::Out>>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static,
    {
        self.run_tasks_with_stats(size, plan, make).0
    }

    fn try_run_tasks<T, F>(
        &self,
        size: usize,
        plan: FaultPlan,
        make: F,
    ) -> Result<Vec<Option<T::Out>>, SchedError>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static,
    {
        self.try_run_tasks_with_stats(size, plan, make)
            .map(|(outs, _)| outs)
    }

    fn run_tasks_traced<T, F>(&self, size: usize, plan: FaultPlan, make: F) -> TracedRun<T::Out>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static,
    {
        EventEngine::run_tasks_traced(self, size, plan, make)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ReduceTask, ResilienceOptions, Topology};
    use std::time::Duration;

    type SumOutputs = Vec<Option<Option<(u64, crate::ReduceCoverage)>>>;

    fn sum_reduce(
        engine: &EventEngine,
        size: usize,
        plan: FaultPlan,
        topology: Topology,
        opts: ResilienceOptions,
    ) -> (SumOutputs, SchedStats) {
        engine.run_tasks_with_stats(size, plan, move |rank, size| {
            ReduceTask::new(
                rank,
                size,
                topology,
                move || rank as u64,
                |a: u64, b: u64| a + b,
                opts,
            )
        })
    }

    #[test]
    fn clean_reduction_sums_every_rank() {
        for size in [1usize, 2, 3, 5, 8, 13, 64, 100] {
            let (outs, stats) = sum_reduce(
                &EventEngine::new(),
                size,
                FaultPlan::new(),
                Topology::Flat,
                ResilienceOptions::default(),
            );
            let (total, coverage) = outs[0].as_ref().unwrap().as_ref().unwrap().clone();
            assert_eq!(total, (0..size as u64).sum::<u64>(), "size {size}");
            assert!(coverage.is_complete());
            assert!(outs[1..].iter().all(|o| o.as_ref().unwrap().is_none()));
            assert_eq!(stats.messages, size as u64 - 1);
            assert_eq!(stats.ranks_lost, 0);
        }
    }

    #[test]
    fn killed_subtree_is_charged_exactly() {
        // Rank 4 of 8 dies before doing anything: its subtree {4..8}
        // never reaches the root.
        let (outs, stats) = sum_reduce(
            &EventEngine::new(),
            8,
            FaultPlan::new().kill(4, 0),
            Topology::Flat,
            ResilienceOptions::default(),
        );
        let (total, coverage) = outs[0].as_ref().unwrap().as_ref().unwrap().clone();
        assert_eq!(coverage.included, vec![0, 1, 2, 3]);
        assert_eq!(coverage.lost, vec![4, 5, 6, 7]);
        assert_eq!(total, 6, "sum of the surviving ranks 0..4");
        assert!(outs[4].is_none(), "killed rank yields None");
        assert_eq!(stats.ranks_lost, 1);
        assert!(stats.timeouts > 0, "the root must wait out virtual timeouts");
    }

    #[test]
    fn virtual_delays_cost_no_wall_clock() {
        // A 90-second (virtual) straggler: the run must still finish
        // promptly in wall-clock terms and with full coverage.
        let wall = std::time::Instant::now();
        let opts = ResilienceOptions {
            timeout: Duration::from_secs(300),
            retries: 1,
            backoff: Duration::from_secs(10),
        };
        let (outs, stats) = sum_reduce(
            &EventEngine::new(),
            2,
            FaultPlan::new().delay(1, 0, Duration::from_secs(90)),
            Topology::Flat,
            opts,
        );
        let (total, coverage) = outs[0].as_ref().unwrap().as_ref().unwrap().clone();
        assert_eq!(total, 1);
        assert!(coverage.is_complete());
        assert!(stats.virtual_time_ns >= 90_000_000_000);
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "virtual waits must not spin wall-clock time"
        );
    }

    #[test]
    fn two_level_topology_reduces_everything() {
        for (size, nodes) in [(8, 2), (13, 4), (64, 8), (100, 7)] {
            let topo = Topology::two_level_for(size, nodes);
            let (outs, _) = sum_reduce(
                &EventEngine::new(),
                size,
                FaultPlan::new(),
                topo,
                ResilienceOptions::default(),
            );
            let (total, coverage) = outs[0].as_ref().unwrap().as_ref().unwrap().clone();
            assert_eq!(total, (0..size as u64).sum::<u64>(), "size {size}");
            assert!(coverage.is_complete(), "size {size} nodes {nodes}");
        }
    }

    #[test]
    fn worker_pool_size_changes_nothing() {
        let run = |workers: usize| {
            let (outs, stats) = sum_reduce(
                &EventEngine::with_workers(workers),
                64,
                FaultPlan::new().kill(9, 1).delay(3, 0, Duration::from_millis(2)),
                Topology::TwoLevel { ranks_per_node: 8 },
                ResilienceOptions::default(),
            );
            (format!("{outs:?}"), stats)
        };
        let (base_out, base_stats) = run(1);
        for workers in [2, 4] {
            let (out, stats) = run(workers);
            assert_eq!(out, base_out, "workers {workers}");
            assert_eq!(stats, base_stats, "workers {workers}");
        }
    }

    #[test]
    fn unbounded_wait_with_no_sender_is_a_structured_deadlock() {
        struct WaitForever;
        impl RankTask for WaitForever {
            type Out = ();
            fn step(&mut self, _ctx: &mut dyn TaskCtx, _wake: Wake) -> Action {
                Action::Recv {
                    src: None,
                    tag: 7,
                    timeout: None,
                }
            }
            fn into_output(self) {}
        }
        let err = EventEngine::new()
            .try_run_tasks_with_stats(1, FaultPlan::new(), |_, _| WaitForever)
            .unwrap_err();
        let SchedError::Deadlock {
            cycles, blocked, ..
        } = &err;
        assert_eq!(blocked, &vec![0]);
        assert!(cycles.is_empty(), "a wildcard wait is not a cycle");
        let msg = err.to_string();
        assert!(msg.contains("virtual deadlock"), "{msg}");
        assert!(msg.contains("[0]"), "{msg}");
    }

    #[test]
    fn mutual_waits_name_the_exact_cycle() {
        /// Waits forever on a specific peer; never sends.
        struct WaitOn(usize);
        impl RankTask for WaitOn {
            type Out = ();
            fn step(&mut self, _ctx: &mut dyn TaskCtx, _wake: Wake) -> Action {
                Action::Recv {
                    src: Some(self.0),
                    tag: 1,
                    timeout: None,
                }
            }
            fn into_output(self) {}
        }
        // A 3-cycle: 0 waits on 1 waits on 2 waits on 0.
        let err = EventEngine::new()
            .try_run_tasks_with_stats(3, FaultPlan::new(), |rank, size| WaitOn((rank + 1) % size))
            .unwrap_err();
        let SchedError::Deadlock {
            cycles, blocked, ..
        } = &err;
        assert_eq!(blocked, &vec![0, 1, 2]);
        assert_eq!(cycles, &vec![vec![0, 1, 2]]);
        assert!(
            err.to_string().contains("wait cycle: 0 -> 1 -> 2 -> 0"),
            "{err}"
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_is_worker_invariant() {
        let plan = || {
            FaultPlan::new()
                .kill(9, 1)
                .delay(3, 0, Duration::from_millis(2))
        };
        let run = |workers: usize| {
            let engine = EventEngine::with_workers(workers);
            engine.run_tasks_traced(64, plan(), move |rank, size| {
                ReduceTask::new(
                    rank,
                    size,
                    Topology::TwoLevel { ranks_per_node: 8 },
                    move || rank as u64,
                    |a: u64, b: u64| a + b,
                    ResilienceOptions::default(),
                )
            })
        };
        let base = run(1);
        let (outs, stats) = sum_reduce(
            &EventEngine::new(),
            64,
            plan(),
            Topology::TwoLevel { ranks_per_node: 8 },
            ResilienceOptions::default(),
        );
        // Tracing must not perturb the run itself.
        assert_eq!(
            format!("{:?}", base.outputs.as_ref().unwrap()),
            format!("{outs:?}")
        );
        assert_eq!(base.stats, Some(stats));
        assert!(!base.trace.is_empty());
        for workers in [2, 4] {
            let other = run(workers);
            assert_eq!(base.trace, other.trace, "workers {workers}");
        }
    }
}
