//! End-to-end and per-layer benchmark of the collector stack.
//!
//! ```text
//! perfbench --workload <kind_sweep|window_trace> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs it for the given
//! seconds, checks every output, and prints a parameter line and then
//! one JSON result line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from spans around each call into the program)
//! with `--trace 1`. Exits non-zero when any check failed. See
//! `README.md` beside this crate for the workloads and metrics.

mod check;
mod drive;
mod kind_sweep;
mod mem;
mod report;
mod stats;
mod trace;
mod window_trace;

use std::process::ExitCode;

use drive::Ctx;
use ldp_workloads::PipelineStats;
use report::{json_string, Report, Unit};
use stats::{median, quantile, tail_percentile};
use trace::Tracer;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <kind_sweep|window_trace> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// A workload's entry point: runs it and records into the report.
type Workload = fn(&Ctx, &mut Report);

const WORKLOADS: [(&str, Workload); 2] = [
    ("kind_sweep", kind_sweep::run),
    ("window_trace", window_trace::run),
];

/// Every workload reports each of these with `--trace 0`.
const END_TO_END: [(&str, Unit); 8] = [
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("query_ms", "ms"),
    ("close_p50_ms", "ms"),
    ("close_p90_ms", "ms"),
    ("bytes_per_report", "bytes"),
    ("state_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// The layers, named after the crate's modules, plus the benchmark's
/// own harness time.
const LAYERS: [&str; 7] = [
    "bench", "client", "pipeline", "service", "snapshot", "decode", "window",
];

/// Per-layer metrics with `--trace 1`; those of a layer a workload does
/// not exercise (see [`idle_metrics`]) read 0.
const PER_LAYER: [(&str, Unit); 32] = [
    ("client.frame_ns", "ns"),
    ("pipeline.split_ns", "ns"),
    ("pipeline.submit_wait_ms", "ms"),
    ("pipeline.busy_frac", "ratio"),
    ("pipeline.worker_ns", "ns"),
    ("pipeline.queue_hwm", "count"),
    ("pipeline.batches", "count"),
    ("pipeline.frames_per_s_1w", "1/s"),
    ("pipeline.spawn_us", "us"),
    ("pipeline.finish_ms", "ms"),
    ("pipeline.merge_ms", "ms"),
    ("window.absorb_us", "us"),
    ("window.query_us", "us"),
    ("window.decayed_ms", "ms"),
    ("window.charge_ns", "ns"),
    ("window.checkpoint_ms", "ms"),
    ("window.restore_ms", "ms"),
    ("window.checkpoint_bytes", "bytes"),
    ("window.retired_subtract", "count"),
    ("window.retired_rebuild", "count"),
    ("window.late_dropped", "count"),
    ("window.throttled", "count"),
    ("bench.self_ms", "ms"),
    ("client.self_ms", "ms"),
    ("pipeline.self_ms", "ms"),
    ("service.self_ms", "ms"),
    ("snapshot.self_ms", "ms"),
    ("decode.self_ms", "ms"),
    ("window.self_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("error_frac", "ratio"),
];

/// Per-kind metrics of `kind_sweep`, suffixed `.<kind name>` for every
/// kind the registry builds.
const PER_KIND: [(&str, Unit); 7] = [
    ("client.frame_ns", "ns"),
    ("service.ingest_ns", "ns"),
    ("snapshot.checkpoint_us", "us"),
    ("snapshot.rollup_ms", "ms"),
    ("decode.estimate_ms", "ms"),
    ("decode.point_us", "us"),
    ("snapshot.state_bytes", "bytes"),
];

fn end_to_end_catalog() -> Vec<(String, Unit)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

fn per_kind_catalog() -> Vec<(String, Unit)> {
    let mut out = Vec::new();
    for k in kind_sweep::kinds().into_iter().flatten() {
        for (name, unit) in PER_KIND {
            out.push((format!("{name}.{}", k.kind.name()), unit));
        }
    }
    out
}

fn per_layer_catalog() -> Vec<(String, Unit)> {
    let mut out: Vec<(String, Unit)> = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(per_kind_catalog());
    out
}

/// The per-layer metrics of layers `workload` does not exercise. They
/// print as 0; any other metric a run leaves unrecorded is a failure.
fn idle_metrics(workload: &str) -> Vec<String> {
    match workload {
        // No pipeline and no window; their self times are still measured
        // (as 0).
        "kind_sweep" => PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| {
                (n.starts_with("pipeline.") || n.starts_with("window.")) && !n.ends_with(".self_ms")
            })
            .map(String::from)
            .collect(),
        // One mechanism, so no per-kind pass.
        "window_trace" => per_kind_catalog().into_iter().map(|(n, _)| n).collect(),
        _ => Vec::new(),
    }
}

/// `close_p50_ms` and `close_p90_ms` over per-unit close times, with the
/// sample count and the highest percentile it supports (at least ten
/// samples beyond it).
fn close_metrics(rep: &mut Report, close_ms: &[f64]) {
    rep.metric("close_p50_ms", quantile(close_ms, 0.5), "ms");
    rep.metric("close_p90_ms", quantile(close_ms, 0.9), "ms");
    rep.param("close_samples", close_ms.len());
    let tail = tail_percentile(close_ms.len(), &[50.0, 90.0, 99.0, 99.9], 10);
    rep.param(
        "close_tail_pct",
        tail.map_or("null".to_string(), |p| p.to_string()),
    );
}

/// Pipeline-layer metrics over traced rounds, each given as its stats
/// and its first-submit-to-finish time.
fn pipeline_metrics(rep: &mut Report, tr: &Tracer, rounds: &[(&PipelineStats, u64)]) {
    let frames = rounds.iter().map(|(s, _)| s.total_frames()).sum::<usize>() as f64;
    let busy = |s: &PipelineStats| s.workers.iter().map(|w| w.busy_nanos).sum::<u64>() as f64;
    let per_round = |f: &dyn Fn(&PipelineStats, u64) -> f64| {
        median(&rounds.iter().map(|(s, ns)| f(s, *ns)).collect::<Vec<_>>())
    };
    let dur = |name: &str| median(&tr.durations_ns(name));
    let total = |name: &str| tr.total_ns(name) as f64;
    rep.metric(
        "client.frame_ns",
        total("client.frames_for_shard") / frames,
        "ns",
    );
    rep.metric(
        "pipeline.split_ns",
        total("pipeline.split_frames") / frames,
        "ns",
    );
    rep.metric(
        "pipeline.submit_wait_ms",
        total("pipeline.submit") / 1e6 / rounds.len() as f64,
        "ms",
    );
    rep.metric(
        "pipeline.busy_frac",
        per_round(&|s, ns| busy(s) / (ns as f64 * s.workers.len() as f64)),
        "ratio",
    );
    let busy_total: f64 = rounds.iter().map(|(s, _)| busy(s)).sum();
    rep.metric("pipeline.worker_ns", busy_total / frames, "ns");
    rep.metric(
        "pipeline.queue_hwm",
        per_round(&|s, _| s.queue_hwm() as f64),
        "count",
    );
    rep.metric(
        "pipeline.batches",
        per_round(&|s, _| s.workers.iter().map(|w| w.batches).sum::<usize>() as f64),
        "count",
    );
    rep.metric("pipeline.spawn_us", dur("pipeline.new") / 1e3, "us");
    rep.metric("pipeline.finish_ms", dur("pipeline.finish") / 1e6, "ms");
    rep.metric(
        "pipeline.merge_ms",
        per_round(&|s, _| s.merge_nanos as f64 / 1e6),
        "ms",
    );
}

/// Self time per layer (per traced unit), coverage, and the tracing
/// overhead (traced over untraced wall time); writes the spans out.
fn trace_metrics(rep: &mut Report, ctx: &Ctx, tr: &Tracer, units: usize, overhead: f64) {
    let spans = tr.spans();
    let own = trace::self_ns_by_layer(spans);
    for layer in LAYERS {
        let ns = own.get(layer).copied().unwrap_or(0) as f64;
        rep.metric(format!("{layer}.self_ms"), ns / 1e6 / units as f64, "ms");
    }
    let roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let wall = trace::covered_ns(&roots, 0, u64::MAX);
    rep.metric("trace.coverage", trace::coverage(spans, wall), "ratio");
    rep.metric("trace.overhead", overhead, "ratio");
    rep.param("traced_units", units);
    rep.param("spans", spans.len());

    let dir = std::path::Path::new(
        &std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "perfbench".into()),
    )
    .join("out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            trace::write_spans(spans, &mut w)?;
            std::io::Write::flush(&mut w)
        });
    if rep.ok("write spans", written).is_some() {
        rep.param("spans_file", json_string(&path.display().to_string()));
    }
}

fn parse_args(args: &[String]) -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 55.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, seed, seconds, traced))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args(&args).and_then(|(w, seed, seconds, trace)| {
        let (name, run) = WORKLOADS
            .iter()
            .find(|(n, _)| *n == w)
            .ok_or_else(|| format!("unknown workload {w}"))?;
        Ok((*name, *run, seed, seconds, trace))
    });
    let (workload, run, seed, seconds, trace) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        host_cores,
    };
    let mut rep = Report::default();
    rep.param("workload", json_string(workload));
    rep.param("seed", seed);
    rep.param("seconds", seconds);
    rep.param("trace", u8::from(trace));
    rep.param("host_cores", host_cores);
    run(&ctx, &mut rep);
    let catalog = if trace {
        rep.metric("error_frac", rep.error_frac(), "ratio");
        per_layer_catalog()
    } else {
        end_to_end_catalog()
    };
    let idle = if rep.failed() > 0 {
        // After a failure the metrics are incomplete; print them as 0.
        catalog.iter().map(|(n, _)| n.clone()).collect()
    } else if trace {
        idle_metrics(workload)
    } else {
        Vec::new()
    };
    if rep.print(&catalog, &idle) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogs() {
        let json = include_str!("../../BENCHMARK.json");
        let mut expected: Vec<String> = WORKLOADS
            .iter()
            .map(|(n, _)| format!(r#""name": "{n}""#))
            .collect();
        for (name, unit) in end_to_end_catalog().into_iter().chain(per_layer_catalog()) {
            expected.push(format!(r#""name": "{name}", "unit": "{unit}""#));
        }
        for e in &expected {
            assert!(json.contains(e.as_str()), "BENCHMARK.json lacks {e}");
        }
        assert_eq!(json.matches(r#""name": "#).count(), expected.len());
    }

    /// Each workload leaves idle only metrics of the catalog, and no
    /// per-layer metric is idle on every workload.
    #[test]
    fn every_per_layer_metric_is_measured_somewhere() {
        let catalog = per_layer_catalog();
        let idle: Vec<Vec<String>> = WORKLOADS.iter().map(|(w, _)| idle_metrics(w)).collect();
        for names in &idle {
            assert!(names.iter().all(|n| catalog.iter().any(|(c, _)| c == n)));
        }
        for (name, _) in &catalog {
            assert!(idle.iter().any(|names| !names.contains(name)), "{name}");
        }
    }

    #[test]
    fn sweep_runs_every_buildable_kind_and_skips_raw_hashing() {
        let kinds = kind_sweep::kinds();
        assert_eq!(kinds.len(), ldp_core::protocol::MechanismKind::ALL.len());
        let skipped: Vec<&str> = kinds
            .iter()
            .filter_map(|k| k.as_ref().err().map(|(kind, _)| kind.name()))
            .collect();
        assert_eq!(skipped, ["BLH", "OLH"]);
        assert!(per_layer_catalog().len() <= 128);
    }

    #[test]
    fn parses_flags() {
        let args: Vec<String> = ["--workload", "kind_sweep", "--seed", "7", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_args(&args).unwrap(),
            ("kind_sweep".to_string(), 7, 55.0, true)
        );
        let bad: Vec<String> = ["--trace", "2"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&bad).is_err());
        let bad: Vec<String> = ["--seconds", "-1"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&bad).is_err());
    }
}
