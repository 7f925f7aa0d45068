//! # mpisim — a simulated MPI substrate
//!
//! The paper evaluates cross-process aggregation with an MPI-based
//! parallel query application on LLNL's Quartz cluster. This crate is
//! the laptop-scale substitute (see DESIGN.md §3), with two execution
//! engines behind the [`Executor`] trait:
//!
//! * the **thread engine** ([`ThreadEngine`], and the [`run`] /
//!   [`run_with_faults`] closures API): ranks are OS threads, links are
//!   crossbeam channels, timeouts cost wall-clock time. Faithful, but
//!   capped at a few hundred ranks.
//! * the **event engine** ([`EventEngine`]): ranks are resumable state
//!   machines ([`RankTask`]) advanced by a deterministic virtual-clock
//!   event loop (see DESIGN.md §12), so timeouts and scripted delays
//!   cost zero wall-clock time and 16 000-rank reductions finish in
//!   seconds.
//!
//! The paper's §IV-C binomial-tree reduction exists exactly once, as
//! the [`ReduceTask`] state machine both engines drive. It is
//! fault-tolerant by construction: a [`FaultPlan`] scripts rank deaths
//! and delays deterministically (by communication-op index), the
//! reduction routes around dead subtrees, and the root reports exactly
//! which ranks' contributions the result covers ([`ReduceCoverage`]).
//! A fault-free reduction is the same task under an empty plan.
//!
//! ```
//! use mpisim::{Executor, FaultPlan, ReduceTask, ResilienceOptions, ThreadEngine, Topology};
//!
//! let outputs = ThreadEngine.run_tasks(8, FaultPlan::new(), |rank, size| {
//!     let local = move || (rank + 1) as u64;
//!     ReduceTask::new(rank, size, Topology::Flat, local, |a, b| a + b, ResilienceOptions::default())
//! });
//! // Only the root holds the total; every rank survived, so it covers all 8.
//! let (total, coverage) = outputs[0].clone().flatten().unwrap();
//! assert_eq!(total, 36);
//! assert!(coverage.is_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod fault;
pub mod hb;
pub mod sched;
pub mod task;
pub mod trace;
pub mod world;

pub use comm::{Comm, CommError, Tag};
pub use fault::FaultPlan;
pub use hb::{analyze, Analysis, Diagnostic, Severity as HbSeverity, VClock};
pub use sched::{EventEngine, SchedConfig, SchedError, SchedStats};
pub use task::{
    Action, Executor, Msg, Payload, RankTask, ReduceCoverage, ReduceTask, ResilienceOptions,
    TaskCtx, Topology, Wake,
};
pub use trace::{HbTrace, TraceEvent, TraceKind, TracedRun};
pub use world::{run, run_with_faults, ThreadEngine};
