//! Tiny-size smoke runs of both workloads: every metric is printed
//! with a unit, the JSON result carries exactly the metrics that
//! `BENCHMARK.json` declares, and a flipped reference byte fails a check.
//!
//! Needs the caliper-rs binaries next to the benchmark binary, or in
//! `CALIBENCH_BIN_DIR`; `bash calibench/run.sh --selftest` sets that up.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["offline-scan-reduce", "online-annotate-serve"];

/// The end-to-end metrics the benchmark prints, by name.
const END_TO_END: &[&str] = &[
    "scan_text_rec_s",
    "scan_v1_rec_s",
    "scan_v2_rec_s",
    "scan_parallel_rec_s",
    "scan_pushdown_rec_s",
    "online_agg_snap_s",
    "online_trace_snap_s",
    "ingest_rec_s",
    "ingest_ack_p50_ms",
    "ingest_ack_tail_ms",
    "query_p50_ms",
    "query_tail_ms",
    "mpi_query_s",
    "setup_s",
    "peak_rss_mb",
    "error_ratio",
];

/// Per-layer metrics of the traced run, by name.
const PER_LAYER: &[&str] = &[
    "cli.schema_ms",
    "format.decode_ns_per_rec.text",
    "format.decode_ns_per_rec.v1",
    "format.decode_ns_per_rec.v2",
    "format.bytes_per_rec.text",
    "format.bytes_per_rec.v1",
    "format.bytes_per_rec.v2",
    "format.pushdown.decode_ns_per_rec",
    "format.pushdown.blocks_skipped_ratio",
    "query.parse_us",
    "query.aggregate_ns_per_rec",
    "query.merge_us",
    "query.finish_us",
    "format.render_us",
    "query.parallel.worker_busy_ratio",
    "query.parallel.merge_ms",
    "runtime.annotate_ns_per_op",
    "runtime.snapshot_ns.trace",
    "runtime.snapshot_ns.a",
    "runtime.snapshot_ns.b",
    "runtime.snapshot_ns.c",
    "runtime.flush_ms.trace",
    "runtime.flush_ms.c",
    "runtime.outputs.trace",
    "runtime.outputs.a",
    "runtime.outputs.b",
    "runtime.outputs.c",
    "served.ping_p50_ms",
    "served.healthz_p50_ms",
    "served.process_batch_ns_per_rec",
    "served.decode_ns_per_rec",
    "served.journal_bytes_per_rec",
    "served.busy_replies",
    "served.ingest.failed",
    "served.query.deadline_exceeded",
    "served.replay_s",
    "mpisim.sched_events",
    "mpisim.ns_per_event",
    "mpisim.max_queue_depth",
    "mpisim.scale_exponent",
    "query.local_ms",
    "offline-scan.coverage",
    "offline-scan.trace_overhead",
    "online-annotate.coverage",
    "online-annotate.trace_overhead",
    "served-mixed.coverage",
    "served-mixed.trace_overhead",
    "mpi-reduce.coverage",
    "mpi-reduce.trace_overhead",
];

fn bin_dir() -> PathBuf {
    std::env::var_os("CALIBENCH_BIN_DIR").map_or_else(
        || {
            PathBuf::from(env!("CARGO_BIN_EXE_calibench"))
                .parent()
                .expect("binary directory")
                .to_path_buf()
        },
        PathBuf::from,
    )
}

struct Outcome {
    code: Option<i32>,
    stdout: String,
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_calibench"))
        .args(["--bin-dir", &bin_dir().display().to_string()])
        .args(["--work-dir", env!("CARGO_TARGET_TMPDIR")])
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--size",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("calibench runs");
    Outcome {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 output"),
    }
}

/// The metric names listed under `section` in BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Names of the metrics in the JSON result line.
fn json_metrics(stdout: &str) -> Vec<String> {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": "),
        "last line is the result: {last}"
    );
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("\": {\"value\": ")
        .filter_map(|s| s.rsplit('"').next())
        .filter(|s| !s.is_empty() && !s.starts_with(' ') && !s.contains('}'))
        .map(str::to_string)
        .collect()
}

fn check_run(workload: &str, trace: bool) {
    let out = run(workload, trace, &[]);
    assert_eq!(
        out.code,
        Some(0),
        "{workload} trace={trace}:\n{}",
        out.stdout
    );
    assert!(out
        .stdout
        .lines()
        .last()
        .unwrap()
        .contains("\"correct\": true"));
    let names = if trace { PER_LAYER } else { END_TO_END };
    for name in names {
        let line = out
            .stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("{workload}: {name} not printed:\n{}", out.stdout));
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert!(
            fields.len() >= 4,
            "{name}: value, unit and direction: {line}"
        );
        fields[1]
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{name}: numeric value: {line}"));
        assert!(
            !fields[2].is_empty() && fields[2].parse::<f64>().is_err(),
            "{name}: unit: {line}"
        );
        assert!(
            matches!(fields[3], "lower" | "higher"),
            "{name}: direction: {line}"
        );
    }
    let mut got = json_metrics(&out.stdout);
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    got.sort();
    want.sort();
    assert_eq!(got, want, "{workload}: JSON metrics match BENCHMARK.json");
}

#[test]
fn every_workload_prints_every_metric_with_a_unit() {
    for workload in WORKLOADS {
        check_run(workload, false);
    }
}

#[test]
fn every_traced_workload_prints_every_layer_metric() {
    for workload in WORKLOADS {
        check_run(workload, true);
    }
}

#[test]
fn flipping_one_reference_byte_fails_a_check() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run(workload, trace, &["--corrupt-reference"]);
            assert_eq!(
                out.code,
                Some(1),
                "{workload} trace={trace}:\n{}",
                out.stdout
            );
            let last = out.stdout.lines().last().expect("a result line");
            assert!(last.contains("\"correct\": false"), "{last}");
            assert!(!last.contains("\"failed\": 0,"), "{last}");
        }
    }
}

#[test]
fn bad_arguments_print_no_result() {
    let out = run("no-such-workload", false, &[]);
    assert_ne!(out.code, Some(0));
    assert!(out.stdout.is_empty());
}
