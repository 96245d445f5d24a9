//! `ldp-sim` — a command-line simulator for the workspace's frequency
//! oracles.
//!
//! ```text
//! Usage: ldp-sim [--mechanism grr|sue|oue|she|the|blh|olh|hr|ss]
//!                [--eps <f64>] [--domain <u64>] [--users <usize>]
//!                [--zipf <f64>] [--seed <u64>] [--top <usize>]
//!                [--scenario oracle|pipeline|windows|plan] [--workers <usize>]
//!                [--shards <usize>] [--queue-depth <usize>]
//!                [--policy block|drop]
//! ```
//!
//! Simulates a population, runs the chosen mechanism end to end, and
//! prints estimated-vs-true counts with error diagnostics — the fastest
//! way to get a feel for the accuracy/ε/domain trade-offs the tutorial
//! teaches. Defaults: OLH, ε=1, d=64, 50k users, Zipf 1.1.
//!
//! `--scenario pipeline` instead streams the population as serialized
//! wire frames through the concurrent collector pipeline (OLH-C over
//! the byte path): fused client-side frame writing, bounded-queue
//! ingest workers, and a shard-order merge, with per-worker
//! throughput/queue statistics. Defaults to 10M frames (`--users`
//! scales it down for CI smoke runs).
//!
//! `--scenario plan` sweeps the cost-based mechanism planner over a
//! grid of `(d, n, ε, memory budget)` cells: each cell is planned, the
//! top pick and the runner-up both execute end to end through the wire
//! path (client frames → collector service → estimates), and the
//! measured-error ranking is checked against the planner's predicted
//! ranking. `--users` sets reports per cell (default 30k).
//!
//! `--scenario windows` replays a bursty three-day synthetic trace
//! (hourly event-time buckets, evening peaks, overnight lulls, stale
//! stragglers) through the collector pipeline into a sliding
//! [`WindowRing`] with a 24-hour horizon: each hour's delta is absorbed
//! into its window and the running total, expired windows retire by
//! exact subtraction, per-device ε spend is metered by a rolling
//! [`LongitudinalAccountant`], and the whole ring checkpoint/restores
//! at the end. The run fails if the accountant throttled nobody, or if
//! a recount of each device's admitted buckets finds more than the cap
//! in any 24-hour span. `--users` sets total trace frames (default
//! 500k).

use ldp::core::fo::{
    collect_counts, BinaryLocalHashing, DirectEncoding, FrequencyOracle, HadamardResponse,
    OptimizedLocalHashing, OptimizedUnaryEncoding, SubsetSelection, SummationHistogramEncoding,
    SymmetricUnaryEncoding, ThresholdHistogramEncoding,
};
use ldp::core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp::core::Epsilon;
use ldp::workloads::gen::{exact_counts, ZipfGenerator};
use ldp::workloads::metrics;
use ldp::workloads::pipeline::{
    stream_population, BackpressurePolicy, CollectorPipeline, PipelineConfig,
};
use ldp::workloads::service::{CollectorService, WireClient};
use ldp::workloads::window::{LongitudinalAccountant, WindowConfig, WindowRing};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug)]
struct Args {
    mechanism: String,
    eps: f64,
    domain: u64,
    // None = scenario default (50k oracle / 10M pipeline).
    users: Option<usize>,
    zipf: f64,
    seed: u64,
    top: usize,
    scenario: String,
    workers: usize,
    shards: usize,
    queue_depth: usize,
    policy: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mechanism: "olh".into(),
        eps: 1.0,
        domain: 64,
        users: None,
        zipf: 1.1,
        seed: 42,
        top: 10,
        scenario: "oracle".into(),
        workers: 4,
        shards: 1024,
        queue_depth: 64,
        policy: "block".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        if key == "--help" || key == "-h" {
            return Err("help".into());
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?;
        match key {
            "--mechanism" => args.mechanism = value.to_lowercase(),
            "--eps" => args.eps = value.parse().map_err(|e| format!("--eps: {e}"))?,
            "--domain" => args.domain = value.parse().map_err(|e| format!("--domain: {e}"))?,
            "--users" => args.users = Some(value.parse().map_err(|e| format!("--users: {e}"))?),
            "--zipf" => args.zipf = value.parse().map_err(|e| format!("--zipf: {e}"))?,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--top" => args.top = value.parse().map_err(|e| format!("--top: {e}"))?,
            "--scenario" => args.scenario = value.to_lowercase(),
            "--workers" => args.workers = value.parse().map_err(|e| format!("--workers: {e}"))?,
            "--shards" => args.shards = value.parse().map_err(|e| format!("--shards: {e}"))?,
            "--queue-depth" => {
                args.queue_depth = value.parse().map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--policy" => args.policy = value.to_lowercase(),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn run<O: FrequencyOracle>(oracle: O, args: &Args) {
    let users = args.users.unwrap_or(50_000);
    let zipf = ZipfGenerator::new(args.domain, args.zipf).expect("valid zipf");
    let mut rng = StdRng::seed_from_u64(args.seed);
    let values = zipf.sample_n(users, &mut rng);
    let truth = exact_counts(&values, args.domain);
    let start = std::time::Instant::now();
    let est = collect_counts(&oracle, &values, &mut rng);
    let elapsed = start.elapsed();

    println!(
        "{} | ε={} | d={} | n={} | Zipf({}) | report = {} bits | {:?}",
        oracle.name(),
        args.eps,
        args.domain,
        users,
        args.zipf,
        oracle.report_bits(),
        elapsed
    );
    let sd = oracle.noise_floor_variance(users).sqrt();
    println!("analytic noise sd ≈ {sd:.1} counts\n");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "item", "true", "estimate", "err/sd"
    );
    for i in 0..args.top.min(args.domain as usize) {
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>8.2}",
            i,
            truth[i],
            est[i],
            (est[i] - truth[i]) / sd
        );
    }
    println!(
        "\nMSE {:.0} | MAE {:.1} | max err {:.1} | top-{} F1 {:.2}",
        metrics::mse(&est, &truth),
        metrics::mae(&est, &truth),
        metrics::max_error(&est, &truth),
        args.top,
        metrics::top_k_metrics(&est, &truth, args.top).f1,
    );
}

/// The `--scenario pipeline` path: stream a synthetic population as
/// serialized OLH-C wire frames through the concurrent collector
/// pipeline, then print per-worker throughput, queue pressure, merge
/// cost, and estimate accuracy.
fn run_pipeline(args: &Args) -> Result<(), String> {
    let frames = args.users.unwrap_or(10_000_000);
    let policy = match args.policy.as_str() {
        "block" => BackpressurePolicy::Block,
        "drop" => BackpressurePolicy::DropNewest,
        other => return Err(format!("unknown policy '{other}' (block|drop)")),
    };
    let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(args.domain)
        .epsilon(args.eps)
        .cohorts(64)
        .build()
        .map_err(|e| format!("descriptor: {e}"))?;
    let client = WireClient::from_descriptor(&desc).map_err(|e| format!("client: {e}"))?;
    let shards = args.shards.min(frames.max(1));
    let pipeline = CollectorPipeline::new(
        &desc,
        PipelineConfig {
            shards,
            workers: args.workers,
            queue_depth: args.queue_depth,
            policy,
        },
    )
    .map_err(|e| format!("pipeline: {e}"))?;
    let workers = pipeline.workers();

    let zipf = ZipfGenerator::new(args.domain, args.zipf).map_err(|e| format!("zipf: {e}"))?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let values = zipf.sample_n(frames, &mut rng);
    let truth = exact_counts(&values, args.domain);

    let start = std::time::Instant::now();
    let accepted = stream_population(&client, &pipeline, &values, args.seed, 4)
        .map_err(|e| format!("stream: {e}"))?;
    let (service, stats) = pipeline.finish().map_err(|e| format!("finish: {e}"))?;
    let elapsed = start.elapsed();

    println!(
        "pipeline | OLH-C | ε={} | d={} | frames={} | shards={} | workers={} | \
         queue={} | policy={}",
        args.eps, args.domain, frames, shards, workers, args.queue_depth, args.policy
    );
    println!(
        "wall {:?} | {:.0} frames/s end-to-end | merge {:.2} ms | accepted {accepted}",
        elapsed,
        accepted as f64 / elapsed.as_secs_f64(),
        stats.merge_nanos as f64 / 1e6,
    );
    for (i, w) in stats.workers.iter().enumerate() {
        println!(
            "  worker {i}: {} frames in {} batches | busy {:.1} ms | \
             {:.0} frames/s | queue hwm {} | dropped {}",
            w.frames,
            w.batches,
            w.busy_nanos as f64 / 1e6,
            w.frames_per_sec(),
            w.queue_hwm,
            w.dropped_batches,
        );
    }
    println!(
        "ingested {} frames | queue hwm {} | dropped batches {}",
        stats.total_frames(),
        stats.queue_hwm(),
        stats.dropped_batches(),
    );

    let est = service.estimates();
    println!(
        "MSE {:.0} | MAE {:.1} | max err {:.1} | top-{} F1 {:.2}",
        metrics::mse(&est, &truth),
        metrics::mae(&est, &truth),
        metrics::max_error(&est, &truth),
        args.top,
        metrics::top_k_metrics(&est, &truth, args.top).f1,
    );
    Ok(())
}

/// Executes one planned descriptor end to end through the wire path and
/// returns the measured MSE over the **tail half** of the domain (items
/// at or below the median true count). The planner ranks on noise-floor
/// σ² — the variance of a *rare* item's estimate — so the measured
/// yardstick is the same quantity, not the head items whose error is
/// dominated by frequency-dependent terms every floor formula ignores.
fn execute_plan_arm(
    plan: &ldp::planner::Plan,
    values: &[u64],
    truth: &[f64],
    seed: u64,
    trials: u64,
) -> Result<f64, String> {
    let client =
        WireClient::from_descriptor(&plan.descriptor).map_err(|e| format!("client: {e}"))?;
    let mut sorted: Vec<f64> = truth.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];

    let mut mse_sum = 0.0f64;
    for t in 0..trials.max(1) {
        let mut service = CollectorService::from_descriptor(&plan.descriptor)
            .map_err(|e| format!("service: {e}"))?;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t.wrapping_mul(0x9e37_79b9)));
        let mut wire = Vec::new();
        for &v in values {
            client
                .randomize_item(v, &mut rng, &mut wire)
                .map_err(|e| format!("frame: {e}"))?;
        }
        service
            .ingest_concat(&wire)
            .map_err(|e| format!("ingest: {e}"))?;
        let est = service.estimates();

        let (mut sse, mut count) = (0.0f64, 0usize);
        for (e, t) in est.iter().zip(truth) {
            if *t <= median {
                sse += (e - t) * (e - t);
                count += 1;
            }
        }
        mse_sum += sse / count.max(1) as f64;
    }
    Ok(mse_sum / trials.max(1) as f64)
}

/// The `--scenario plan` path: sweep the planner over a
/// `(d, n, ε, memory budget)` grid, execute each cell's top pick and
/// runner-up over the byte path, and score predicted-vs-measured error
/// ranking agreement.
fn run_plan(args: &Args) -> Result<(), String> {
    use ldp::planner::{workspace_planner, WorkloadSpec};

    let n = args.users.unwrap_or(30_000);
    let planner = workspace_planner();
    let domains = [64u64, 256, 1024];
    let epsilons = [0.5f64, 1.0, 2.0];
    // Budget profiles exercise different planner regimes: unconstrained
    // accuracy chasing, a memory wall that forces sketches/cohorts at
    // large d, and a wire cap that forces compact report formats.
    let profiles: [(&str, Option<u64>, Option<u64>); 3] = [
        ("roomy", Some(1024 * 1024), None),
        ("tight-mem", Some(4 * 1024), None),
        ("tight-wire", Some(1024 * 1024), Some(8)),
    ];

    println!(
        "plan | grid: d×ε×budget = {}×{}×{} cells | n={n} per cell | Zipf({})",
        domains.len(),
        epsilons.len(),
        profiles.len(),
        args.zipf,
    );
    println!(
        "{:>5} {:>5} {:>10} | {:>9} {:>12} {:>12} | {:>9} {:>12} {:>12} | agree",
        "d", "ε", "budget", "top", "pred σ²", "meas MSE", "next", "pred σ²", "meas MSE"
    );

    let mut cells = 0usize;
    let mut agreements = 0usize;
    let mut plan_nanos = 0u128;
    let mut grid = Vec::new();
    for &d in &domains {
        for &eps in &epsilons {
            for &profile in &profiles {
                grid.push((d, eps, profile));
            }
        }
    }
    for (ci, &(d, eps, (label, mem, wire_cap))) in grid.iter().enumerate() {
        let mut spec = WorkloadSpec::new(d, n as u64, eps);
        if let Some(m) = mem {
            spec = spec.with_memory_budget(m);
        }
        if let Some(w) = wire_cap {
            spec = spec.with_report_budget(w);
        }
        let started = std::time::Instant::now();
        let plans = planner.plan(&spec).map_err(|e| format!("plan: {e}"))?;
        plan_nanos += started.elapsed().as_nanos();
        if plans.len() < 2 {
            return Err(format!("cell d={d} ε={eps} {label}: fewer than 2 plans"));
        }
        for p in &plans {
            if mem.is_some_and(|m| p.cost.memory_bytes > m)
                || wire_cap.is_some_and(|w| p.cost.bytes_per_report > w)
            {
                return Err(format!(
                    "cell d={d} ε={eps} {label}: {} blew a budget",
                    p.kind().name()
                ));
            }
        }
        // Runner-up: the first plan meaningfully separated in predicted
        // σ² (rank 2 when the whole field is tied) — ranking two
        // near-identical predictions is a coin flip by construction.
        let top = &plans[0];
        let next = plans[1..]
            .iter()
            .find(|p| p.cost.variance >= 1.1 * top.cost.variance)
            .unwrap_or(&plans[1]);

        let zipf = ZipfGenerator::new(d, args.zipf).map_err(|e| format!("zipf: {e}"))?;
        let mut rng = StdRng::seed_from_u64(args.seed ^ ci as u64);
        let values = zipf.sample_n(n, &mut rng);
        let truth = exact_counts(&values, d);
        // A few repetitions per arm average away single-draw luck so the
        // comparison reflects the mechanisms, not one RNG stream.
        let trials = 3;
        let mse_top = execute_plan_arm(
            top,
            &values,
            &truth,
            args.seed.wrapping_add(ci as u64),
            trials,
        )?;
        let mse_next = execute_plan_arm(
            next,
            &values,
            &truth,
            args.seed.wrapping_add(1000 + ci as u64),
            trials,
        )?;

        // The planner predicted top ≤ next in σ²; the measured errors
        // agree when the executed MSEs rank the same way.
        let agree = mse_top <= mse_next;
        cells += 1;
        agreements += usize::from(agree);
        println!(
            "{:>5} {:>5} {:>10} | {:>9} {:>12.1} {:>12.1} | {:>9} {:>12.1} {:>12.1} | {}",
            d,
            eps,
            label,
            top.kind().name(),
            top.cost.variance,
            mse_top,
            next.kind().name(),
            next.cost.variance,
            mse_next,
            if agree { "yes" } else { "NO" },
        );
    }
    let fraction = agreements as f64 / cells as f64;
    println!(
        "\nranking agreement {agreements}/{cells} ({:.0}%) | mean plan time {:.1} µs",
        fraction * 100.0,
        plan_nanos as f64 / cells as f64 / 1e3,
    );
    // Near-ties can flip under sampling noise; total disagreement means
    // the cost book is wrong.
    if fraction < 0.5 {
        return Err(format!(
            "measured rankings disagree with predictions in {}/{cells} cells",
            cells - agreements
        ));
    }
    Ok(())
}

/// The `--scenario windows` path: a bursty multi-day trace through the
/// collector pipeline into a 24-hour sliding window ring, with rolling
/// per-device longitudinal accounting and a final checkpoint/restore.
fn run_windows(args: &Args) -> Result<(), String> {
    const DAYS: usize = 3;
    const HOURS: usize = DAYS * 24;
    const WINDOW_LEN: u64 = 3600;
    const HORIZON: usize = 24;
    /// Windows' worth of ε a device may spend inside one horizon.
    const CAP_WINDOWS: usize = 8;

    let total_frames = args.users.unwrap_or(500_000);
    // Diurnal burst profile: overnight lull, daytime baseline, a 4×
    // evening peak — the "popular items over the last 24 hours" shape.
    let hour_weight = |hour_of_day: usize| -> f64 {
        match hour_of_day {
            0..=5 => 0.3,
            18..=21 => 4.0,
            _ => 1.0,
        }
    };
    let weight_sum: f64 = (0..HOURS).map(|h| hour_weight(h % 24)).sum();

    let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(args.domain)
        .epsilon(args.eps)
        .cohorts(64)
        .build()
        .map_err(|e| format!("descriptor: {e}"))?;
    let client = WireClient::from_descriptor(&desc).map_err(|e| format!("client: {e}"))?;
    let mut ring = WindowRing::new(
        &desc,
        WindowConfig::new(WINDOW_LEN, HORIZON).with_decay(0.9),
    )
    .map_err(|e| format!("ring: {e}"))?;

    // Rolling per-device ledger: each contributed window costs the
    // report ε and a device may spend at most 8 windows' worth inside
    // any 24-hour horizon. The pool is sized so devices want slightly
    // more than that — the accountant must throttle the tail of each
    // day once budgets run dry.
    let per_window = Epsilon::new(args.eps).map_err(|e| format!("eps: {e}"))?;
    let allowance =
        Epsilon::new(args.eps * CAP_WINDOWS as f64).map_err(|e| format!("allowance: {e}"))?;
    let mut accountant = LongitudinalAccountant::new(allowance, per_window, HORIZON)
        .map_err(|e| format!("accountant: {e}"))?;
    let device_pool = (total_frames / 27).max(32);
    // Independent recount of the accountant's decisions: each device's
    // admitted buckets, in order, checked against the cap at the end.
    let mut admitted: Vec<Vec<u64>> = vec![Vec::new(); device_pool];

    let zipf = ZipfGenerator::new(args.domain, args.zipf).map_err(|e| format!("zipf: {e}"))?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    // Exact counts per hour; only the last HORIZON hours stay queued, so
    // the fold at the end is ground truth for the sliding window.
    let mut hour_truth: std::collections::VecDeque<Vec<f64>> = std::collections::VecDeque::new();
    let mut throttled = 0usize;
    let mut next_device = 0usize;

    println!(
        "windows | OLH-C | ε={} | d={} | {DAYS} days × hourly buckets | horizon {HORIZON} h | \
         ~{total_frames} frames | {device_pool} devices | per-device cap {CAP_WINDOWS}ε/{HORIZON}h",
        args.eps, args.domain
    );
    let start = std::time::Instant::now();
    for hour in 0..HOURS {
        let t = hour as u64 * WINDOW_LEN + WINDOW_LEN / 2;
        let bucket = t / WINDOW_LEN;
        let target = (total_frames as f64 * hour_weight(hour % 24) / weight_sum).round() as usize;

        // Devices volunteer round-robin; the accountant throttles any
        // whose rolling-horizon budget is spent.
        let mut values = Vec::with_capacity(target);
        for _ in 0..target {
            let device = next_device as u64;
            next_device = (next_device + 1) % device_pool;
            if accountant.try_charge(device, bucket).is_ok() {
                values.push(zipf.sample(&mut rng));
                let buckets = &mut admitted[device as usize];
                if buckets.last() != Some(&bucket) {
                    buckets.push(bucket);
                }
            } else {
                throttled += 1;
            }
        }
        hour_truth.push_back(exact_counts(&values, args.domain));
        if hour_truth.len() > HORIZON {
            hour_truth.pop_front();
        }

        if values.is_empty() {
            // Budgets ran dry this hour: the watermark still advances.
            ring.advance_to(t).map_err(|e| format!("advance: {e}"))?;
        } else {
            // One pipeline round per collection hour, absorbed as a delta.
            let shards = args.shards.min(values.len()).max(1);
            let pipeline = CollectorPipeline::new(
                &desc,
                PipelineConfig {
                    shards,
                    workers: args.workers,
                    queue_depth: args.queue_depth,
                    policy: BackpressurePolicy::Block,
                },
            )
            .map_err(|e| format!("pipeline: {e}"))?;
            stream_population(&client, &pipeline, &values, args.seed ^ hour as u64, 4)
                .map_err(|e| format!("stream: {e}"))?;
            let (delta, _) = pipeline.finish().map_err(|e| format!("finish: {e}"))?;
            ring.absorb(t, delta).map_err(|e| format!("absorb: {e}"))?;
        }

        // A stale straggler from >24 h ago arrives once a day and must
        // drop against the watermark, not poison an expired window.
        if hour % 24 == 23 && hour >= 24 {
            let mut frame = Vec::new();
            client
                .randomize_item(0, &mut rng, &mut frame)
                .map_err(|e| format!("frame: {e}"))?;
            let late = (bucket - HORIZON as u64) * WINDOW_LEN;
            if ring
                .ingest(late, &frame)
                .map_err(|e| format!("late: {e}"))?
            {
                return Err("stale frame was accepted past the watermark".into());
            }
        }
        if hour % 24 == 23 {
            let s = ring.stats();
            println!(
                "  day {} done: {} live windows | {} frames in ring | \
                 retired {} by subtract, {} rebuilt | {} late dropped | {throttled} throttled",
                hour / 24 + 1,
                ring.live_windows(),
                ring.reports(),
                s.retired_subtract,
                s.retired_rebuild,
                s.late_dropped,
            );
        }
    }
    let elapsed = start.elapsed();

    // The accountant must have throttled (the pool is sized to want more
    // than the cap), and no device may hold more than the cap's worth of
    // admitted buckets in any HORIZON-bucket span.
    if throttled == 0 {
        return Err("the accountant throttled no device".into());
    }
    for (device, buckets) in admitted.iter().enumerate() {
        for (i, &first) in buckets.iter().enumerate() {
            let in_span = buckets[i..]
                .iter()
                .take_while(|&&b| b < first + HORIZON as u64)
                .count();
            if in_span > CAP_WINDOWS {
                return Err(format!(
                    "device {device} was admitted {in_span} buckets in the {HORIZON} from bucket {first}"
                ));
            }
        }
    }
    println!(
        "recount: {throttled} charges throttled | no device admitted more than \
         {CAP_WINDOWS} of any {HORIZON} consecutive buckets"
    );

    let truth = hour_truth
        .iter()
        .fold(vec![0.0f64; args.domain as usize], |mut acc, h| {
            for (a, v) in acc.iter_mut().zip(h) {
                *a += v;
            }
            acc
        });
    let est = ring.estimates();
    let decayed = ring
        .decayed_estimates()
        .map_err(|e| format!("decay: {e}"))?;
    let mut order: Vec<usize> = (0..est.len()).collect();
    order.sort_by(|&a, &b| est[b].total_cmp(&est[a]));
    println!(
        "trace done in {:?} | sliding total covers {} frames over {} windows",
        elapsed,
        ring.reports(),
        ring.live_windows(),
    );
    println!(
        "last-24h MSE {:.0} | MAE {:.1} | top-{} F1 {:.2} | decayed favors recent: \
         item {} at {:.0} (flat {:.0})",
        metrics::mse(&est, &truth),
        metrics::mae(&est, &truth),
        args.top,
        metrics::top_k_metrics(&est, &truth, args.top).f1,
        order[0],
        decayed[order[0]],
        est[order[0]],
    );

    // Durability: the whole ring round-trips through one BLOB.
    let blob = ring.checkpoint();
    let revived = WindowRing::from_checkpoint(&blob).map_err(|e| format!("restore: {e}"))?;
    if revived.checkpoint() != blob {
        return Err("ring checkpoint did not round-trip bit-exactly".into());
    }
    println!(
        "checkpoint {} KiB round-trips bit-exactly | ring stats: {:?}",
        blob.len() / 1024,
        ring.stats(),
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: ldp-sim [--mechanism grr|sue|oue|she|the|blh|olh|hr|ss] \
                 [--eps F] [--domain D] [--users N] [--zipf S] [--seed K] [--top T] \
                 [--scenario oracle|pipeline|windows|plan] [--workers W] [--shards S] \
                 [--queue-depth Q] [--policy block|drop]"
            );
            std::process::exit(if msg == "help" { 0 } else { 2 });
        }
    };
    if args.scenario == "pipeline" {
        if let Err(msg) = run_pipeline(&args) {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
        return;
    }
    if args.scenario == "windows" {
        if let Err(msg) = run_windows(&args) {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
        return;
    }
    if args.scenario == "plan" {
        if let Err(msg) = run_plan(&args) {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
        return;
    }
    if args.scenario != "oracle" {
        eprintln!("error: unknown scenario '{}'", args.scenario);
        std::process::exit(2);
    }
    let eps = match Epsilon::new(args.eps) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match args.mechanism.as_str() {
        "grr" => run(
            DirectEncoding::new(args.domain, eps).expect("domain >= 2"),
            &args,
        ),
        "sue" => run(
            SymmetricUnaryEncoding::new(args.domain, eps).expect("domain >= 2"),
            &args,
        ),
        "oue" => run(
            OptimizedUnaryEncoding::new(args.domain, eps).expect("domain >= 2"),
            &args,
        ),
        "she" => run(
            SummationHistogramEncoding::new(args.domain, eps).expect("domain >= 2"),
            &args,
        ),
        "the" => run(
            ThresholdHistogramEncoding::new(args.domain, eps).expect("domain >= 2"),
            &args,
        ),
        "blh" => run(BinaryLocalHashing::new(args.domain, eps), &args),
        "olh" => run(OptimizedLocalHashing::new(args.domain, eps), &args),
        "hr" => run(HadamardResponse::new(args.domain, eps), &args),
        "ss" => run(SubsetSelection::new(args.domain, eps), &args),
        other => {
            eprintln!("error: unknown mechanism '{other}'");
            std::process::exit(2);
        }
    }
}
