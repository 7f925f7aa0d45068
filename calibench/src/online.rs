//! `online-annotate`: the CleverLeaf proxy in event mode on the virtual
//! clock under the baseline, trace and aggregation-scheme A/B/C
//! configurations — the runtime snapshot path plus on-line aggregation.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use caliper_bench::schemes;
use caliper_format::Dataset;
use caliper_runtime::{Caliper, Clock, Config};
use miniapps::{CleverLeaf, CleverLeafParams, WorkMode};

use crate::trace::Tracer;
use crate::util::{median, own_peak_rss_mb, Ledger};
use crate::{Ctx, Load, Metrics};

/// The five configurations, by short name.
pub fn configs() -> Vec<(&'static str, Config)> {
    vec![
        ("baseline", Config::baseline()),
        ("trace", Config::event_trace()),
        ("a", Config::event_aggregate(schemes::A, schemes::OPS)),
        ("b", Config::event_aggregate(schemes::B, schemes::OPS)),
        ("c", Config::event_aggregate(schemes::C, schemes::OPS)),
    ]
}

pub fn app(ranks: usize, timesteps: usize, seed: u64) -> CleverLeaf {
    CleverLeaf::new(CleverLeafParams {
        ranks,
        timesteps,
        seed,
        ..CleverLeafParams::default()
    })
}

/// A digest of a configuration's outputs (record counts and the
/// serialized aggregates; traces contribute their record counts).
fn digest(name: &str, outputs: &[Dataset]) -> u64 {
    let mut h = DefaultHasher::new();
    for ds in outputs {
        ds.records.len().hash(&mut h);
        if name != "trace" {
            caliper_format::cali::to_bytes(ds).hash(&mut h);
        }
    }
    h.finish()
}

/// Sum of the `aggregate.count` column over aggregate outputs.
fn count_sum(outputs: &[Dataset]) -> u64 {
    outputs
        .iter()
        .map(|ds| {
            let Some(count) = ds.store.find("aggregate.count") else {
                return 0;
            };
            ds.flat_records()
                .filter_map(|r| r.get(count.id()).and_then(|v| v.to_f64()))
                .sum::<f64>() as u64
        })
        .sum()
}

/// The untraced load: each step is one `CleverLeaf::run_all` under the
/// next of the trace and scheme A/B/C configurations (the baseline
/// feeds only the traced run). Each configuration's outputs must
/// repeat exactly, and each scheme's counts must sum to the snapshot
/// count — the trace's record count, one record per snapshot.
pub struct OnlineLoad {
    app: CleverLeaf,
    configs: Vec<(&'static str, Config)>,
    walls: Vec<Vec<f64>>,
    digests: Vec<Option<u64>>,
    snapshots: Option<u64>,
    next: usize,
}

impl OnlineLoad {
    pub fn new(app: CleverLeaf) -> OnlineLoad {
        let configs: Vec<_> = configs().into_iter().skip(1).collect();
        OnlineLoad {
            app,
            walls: vec![Vec::new(); configs.len()],
            digests: vec![None; configs.len()],
            configs,
            snapshots: None,
            next: 0,
        }
    }
}

impl Load for OnlineLoad {
    fn step(&mut self, _ctx: &Ctx, led: &mut Ledger) {
        let i = self.next % self.configs.len();
        self.next += 1;
        let (name, config) = &self.configs[i];
        let t0 = Instant::now();
        let outputs = self.app.run_all(config);
        self.walls[i].push(t0.elapsed().as_secs_f64());
        if *name == "trace" {
            self.snapshots = Some(outputs.iter().map(|ds| ds.records.len() as u64).sum());
        } else if let Some(snapshots) = self.snapshots {
            let sum = count_sum(&outputs);
            led.op(sum == snapshots, || {
                format!("scheme {name}: counts sum to {sum}, not {snapshots}")
            });
        }
        let d = digest(name, &outputs);
        match self.digests[i] {
            Some(first) => {
                led.op(first == d, || {
                    format!("{name}: outputs differ between runs")
                });
            }
            None => self.digests[i] = Some(d),
        }
    }

    /// Two runs of each configuration, so determinism is checked.
    fn ready(&self) -> bool {
        self.next >= 2 * self.configs.len()
    }

    fn finish(self: Box<Self>, _ctx: &Ctx, m: &mut Metrics, _led: &mut Ledger) -> f64 {
        let snaps = self.snapshots.unwrap_or(0) as f64;
        let runs = self.walls.iter().map(Vec::len).min().unwrap_or(0);
        let med: Vec<f64> = self.walls.iter().map(|w| median(w)).collect();
        m.set("online_trace_snap_s", snaps / med[0]);
        m.set(
            "online_agg_snap_s",
            3.0 * snaps / (med[1] + med[2] + med[3]),
        );
        for name in ["online_trace_snap_s", "online_agg_snap_s"] {
            m.note(
                name,
                format!("medians of {runs}+ runs per config, {snaps} snapshots each"),
            );
        }
        own_peak_rss_mb()
    }
}

/// What the composition counted per configuration.
pub struct Counts {
    snapshots: u64,
    outputs: u64,
}

/// The traced composition: per configuration and rank, runtime set-up,
/// `CleverLeaf::run_rank` and `Caliper::take_dataset`, each in a span.
pub fn compose(app: &CleverLeaf, t: &Tracer) -> Vec<Counts> {
    configs()
        .iter()
        .map(|(name, config)| {
            let mut counts = Counts {
                snapshots: 0,
                outputs: 0,
            };
            t.span(&format!("online.{name}"), || {
                for rank in 0..app.params.ranks {
                    let caliper = t.span("runtime.init", || {
                        Caliper::with_clock(config.clone(), Clock::virtual_clock())
                    });
                    t.span("runtime.run_rank", || {
                        app.run_rank(rank, &caliper, WorkMode::Virtual)
                    });
                    let ds = t.span("runtime.flush", || caliper.take_dataset());
                    counts.snapshots += caliper.total_snapshots();
                    counts.outputs += ds.records.len() as u64;
                    t.span("runtime.drop", || drop((ds, caliper)));
                }
            });
            counts
        })
        .collect()
}

/// Blackboard updates of one baseline pass, counted by the runtime's
/// own registry (`metrics.enable`) in a separate, untimed pass.
fn blackboard_ops(app: &CleverLeaf) -> u64 {
    (0..app.params.ranks)
        .map(|rank| {
            let config = Config::baseline().set("metrics.enable", "true");
            let caliper = Caliper::with_clock(config, Clock::virtual_clock());
            app.run_rank(rank, &caliper, WorkMode::Virtual);
            caliper
                .default_channel()
                .metrics()
                .map_or(0, |m| m.counter("runtime.blackboard.ops").get())
        })
        .sum()
}

pub fn layer_metrics(
    app: &CleverLeaf,
    t: &Tracer,
    counts: &[Counts],
    m: &mut Metrics,
    led: &mut Ledger,
) {
    let wall = |name: &str| {
        t.last(&format!("online.{name}"))
            .map_or(f64::NAN, |i| t.secs(i))
    };
    let flush = |name: &str| {
        t.last(&format!("online.{name}"))
            .map_or(f64::NAN, |i| t.summarize(i).total_ns("runtime.flush") / 1e6)
    };
    let base = wall("baseline");
    let ops = blackboard_ops(app);
    m.set("runtime.annotate_ns_per_op", base * 1e9 / ops.max(1) as f64);
    m.note(
        "runtime.annotate_ns_per_op",
        format!("{ops} blackboard ops"),
    );
    let trace_snaps = counts[1].snapshots;
    led.op(counts[1].outputs == trace_snaps, || {
        format!(
            "trace: {} records for {trace_snaps} snapshots",
            counts[1].outputs
        )
    });
    for (c, (name, _)) in counts.iter().zip(configs()).skip(1) {
        led.op(c.snapshots == trace_snaps, || {
            format!(
                "{name}: {} snapshots, trace took {trace_snaps}",
                c.snapshots
            )
        });
        m.set(
            &format!("runtime.snapshot_ns.{name}"),
            (wall(name) - base) * 1e9 / c.snapshots.max(1) as f64,
        );
        m.set(&format!("runtime.outputs.{name}"), c.outputs as f64);
    }
    m.set("runtime.flush_ms.trace", flush("trace"));
    m.set("runtime.flush_ms.c", flush("c"));
}
