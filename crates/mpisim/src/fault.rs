//! Deterministic fault injection for the simulated world.
//!
//! A [`FaultPlan`] describes, ahead of a run, which ranks misbehave and
//! when. "When" is measured in **communication operations**: every
//! `send`/`recv`/`recv_any` (and their timeout variants) a rank issues
//! counts as one step, starting from 0. Pinning faults to the op counter
//! rather than wall-clock time makes failure tests reproducible: killing
//! rank 2 at op 1 kills it *after* it received its child's contribution
//! and *before* it forwarded the merged value, every single run.
//!
//! Faults are injected *at* the fault point, before the operation takes
//! effect:
//!
//! * a **kill** unwinds the rank's thread (its inbox is dropped, so
//!   later sends to it fail with
//!   [`CommError::Disconnected`](crate::CommError::Disconnected) and
//!   pending receives from it time out);
//! * a **delay** sleeps the rank before the operation proceeds,
//!   modelling a straggler rather than a crash.
//!
//! Plans are executed by [`crate::world::run_with_faults`]; the plain
//! [`crate::world::run`] never injects anything.
//!
//! Plans share the workspace fault-spec grammar (`caliper-faults`):
//! [`FaultPlan::from_spec`] lifts `mpi.kill=at(rank,op)` and
//! `mpi.delay=at(rank,op,ms)` rules from a spec string, and
//! [`FaultPlan::from_global`] from the process-wide `CALI_FAULTS`
//! registry, so one `CALI_FAULTS` setting can script I/O faults and
//! simulated rank deaths together.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use caliper_faults::{sites, FaultAction, FaultRule, SpecError};

/// Scripted faults for one simulated world run.
///
/// Build with the fluent constructors and hand to
/// [`run_with_faults`](crate::world::run_with_faults):
///
/// ```
/// use std::time::Duration;
/// use mpisim::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .kill(3, 0)                                  // rank 3 dies at its first comm op
///     .delay(1, 0, Duration::from_millis(20));     // rank 1 stalls before its first op
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Kill points, keyed `(rank, op)`: every communication op looks
    /// itself up here, so membership must not scan the plan.
    kills: BTreeSet<(usize, u64)>,
    /// Total scripted delay per `(rank, op)` point.
    delays: BTreeMap<(usize, u64), Duration>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Build a plan from a `caliper-faults` spec string, lifting the
    /// `at(...)` schedules armed on the [`sites::MPI_KILL`] and
    /// [`sites::MPI_DELAY`] sites:
    ///
    /// ```
    /// use mpisim::FaultPlan;
    ///
    /// let plan = FaultPlan::from_spec("mpi.kill=at(2,0);mpi.delay=at(1,0,20)").unwrap();
    /// assert!(plan.has_kills());
    /// ```
    ///
    /// Rules on other sites are ignored here (they arm I/O failpoints
    /// elsewhere in the workspace). A kill rule's optional third
    /// argument is ignored; a delay rule without one delays by 0 ms.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, SpecError> {
        let set = caliper_faults::FaultSet::parse(spec)?;
        Ok(FaultPlan::from_rules(set.rules()))
    }

    /// Build a plan from the process-global `CALI_FAULTS` registry.
    /// Empty when no spec is installed or it schedules no MPI faults.
    pub fn from_global() -> FaultPlan {
        match caliper_faults::global() {
            Some(set) => FaultPlan::from_rules(set.rules()),
            None => FaultPlan::new(),
        }
    }

    fn from_rules(rules: &[FaultRule]) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for rule in rules {
            let FaultAction::At { rank, op, delay_ms } = rule.action else {
                continue;
            };
            match rule.site.as_str() {
                sites::MPI_KILL => plan = plan.kill(rank, op),
                sites::MPI_DELAY => {
                    plan = plan.delay(rank, op, Duration::from_millis(delay_ms.unwrap_or(0)));
                }
                _ => {}
            }
        }
        plan
    }

    /// Kill `rank` when it reaches communication operation `at_op`
    /// (0-based). The rank's thread unwinds at that point; its return
    /// value in the run's output is `None`.
    pub fn kill(mut self, rank: usize, at_op: u64) -> FaultPlan {
        self.kills.insert((rank, at_op));
        self
    }

    /// Delay `rank` by `by` immediately before its communication
    /// operation `at_op` (0-based). The rank survives; it is merely a
    /// straggler.
    pub fn delay(mut self, rank: usize, at_op: u64, by: Duration) -> FaultPlan {
        *self.delays.entry((rank, at_op)).or_default() += by;
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.delays.is_empty()
    }

    /// True if the plan kills any rank anywhere.
    pub fn has_kills(&self) -> bool {
        !self.kills.is_empty()
    }

    /// A reproducible plan of `kills` distinct victims for a world of
    /// `size` ranks, derived from `seed` with a splitmix64 stream.
    /// Victims are drawn from `1..size` (never the root, whose death
    /// would make a root-reduction vacuous) and each dies within its
    /// first three communication ops. Same `(seed, kills, size)` →
    /// same plan, on every platform — the seed the scaled determinism
    /// smokes and the fig4 `--kill-seed` flag build on.
    pub fn seeded_kills(seed: u64, kills: usize, size: usize) -> FaultPlan {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut plan = FaultPlan::new();
        if size < 2 {
            return plan;
        }
        let mut state = seed;
        // Victims in draw order (their kill ops are drawn in that order
        // afterwards); the set only answers membership.
        let mut victims = Vec::new();
        let mut drawn = BTreeSet::new();
        // Bounded draw loop: at most size-1 distinct victims exist.
        while victims.len() < kills.min(size - 1) {
            let rank = 1 + (splitmix64(&mut state) % (size as u64 - 1)) as usize;
            if drawn.insert(rank) {
                victims.push(rank);
            }
        }
        for rank in victims {
            let op = splitmix64(&mut state) % 3;
            plan = plan.kill(rank, op);
        }
        plan
    }

    pub(crate) fn kill_at(&self, rank: usize, op: u64) -> bool {
        self.kills.contains(&(rank, op))
    }

    pub(crate) fn delay_at(&self, rank: usize, op: u64) -> Option<Duration> {
        self.delays.get(&(rank, op)).copied()
    }
}

/// Panic payload used to unwind a rank scheduled for death. The world
/// launcher downcasts for it to tell an injected kill (expected, maps to
/// `None`) from a genuine bug in rank code (propagated).
pub(crate) struct RankKilled;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_spec_lifts_mpi_sites() {
        let plan =
            FaultPlan::from_spec("mpi.kill=at(2,0);mpi.delay=at(1,3,40);io.read=fail(1)").unwrap();
        assert!(plan.has_kills());
        assert!(plan.kill_at(2, 0));
        assert!(!plan.kill_at(1, 3));
        assert_eq!(plan.delay_at(1, 3), Some(Duration::from_millis(40)));
        assert_eq!(plan.delay_at(2, 0), None);
    }

    #[test]
    fn from_spec_ignores_non_mpi_rules() {
        let plan = FaultPlan::from_spec("io.read=err(0.5);v2.block=corrupt(bitflip)").unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn from_spec_rejects_bad_grammar() {
        assert!(FaultPlan::from_spec("mpi.kill=at(x,0)").is_err());
    }

    #[test]
    fn seeded_kills_is_reproducible_and_spares_the_root() {
        let a = FaultPlan::seeded_kills(7, 5, 1024);
        let b = FaultPlan::seeded_kills(7, 5, 1024);
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.kills.len(), 5);
        assert!(a.kills.iter().all(|&(r, op)| (1..1024).contains(&r) && op < 3));
        let mut victims: Vec<usize> = a.kills.iter().map(|&(r, _)| r).collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 5, "victims are distinct");
        let c = FaultPlan::seeded_kills(8, 5, 1024);
        assert_ne!(a.kills, c.kills, "different seed, different plan");
    }

    #[test]
    fn seeded_kills_caps_at_world_size() {
        let plan = FaultPlan::seeded_kills(1, 100, 4);
        assert_eq!(plan.kills.len(), 3, "at most size-1 victims");
        assert!(FaultPlan::seeded_kills(1, 3, 1).is_empty());
    }
}
