//! `window_trace`: a week of hourly OLH-C collection rounds with a
//! diurnal load, metered per device by a longitudinal accountant and
//! absorbed into a 24-hour sliding window that answers a query every
//! hour.
//!
//! The traffic is that of `ldp-sim --scenario windows`, run for seven
//! days instead of three at the same hourly volumes.

use std::time::Instant;

use ldp_core::cost::QueryShape;
use ldp_core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp_core::{Epsilon, LdpError};
use ldp_workloads::parallel::shard_seed;
use ldp_workloads::service::{CollectorService, WireClient};
use ldp_workloads::window::{LongitudinalAccountant, WindowConfig, WindowRing};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check;
use crate::drive::{self, ns_since, Ctx};
use crate::mem::HEAP;
use crate::report::Report;
use crate::stats::{best_of, mean, median};
use crate::trace::Tracer;

const DOMAIN: u64 = 4096;
const COHORTS: u32 = 64;
const EPSILON: f64 = 1.0;
const WINDOW_LEN: u64 = 3600;
const WINDOWS: usize = 24;
const DECAY: f64 = 0.9;
const HOURS: usize = 7 * 24;
/// Event time starts a day in, so a day-old straggler in the first day
/// still has a non-negative timestamp.
const EPOCH_HOUR: u64 = 24;
/// `ldp-sim --scenario windows` spreads this many reports over
/// [`SIM_DAYS`] days by [`hour_weight`]; the trace keeps its hourly
/// volumes.
const SIM_FRAMES: usize = 500_000;
const SIM_DAYS: usize = 3;
/// The simulator's device pool: devices volunteer round-robin, each
/// about nine times a day, one more than [`ALLOWANCE`] lets through, so
/// the accountant throttles the tail of each day.
const DEVICES: usize = SIM_FRAMES / 27;
/// Each device may spend this much ε in any 24 windows, at ε per window.
const ALLOWANCE: f64 = 8.0;
const SHARDS: usize = 16;
const QUEUE_DEPTH: usize = 64;
const BATCHES_PER_SHARD: usize = 4;
const TOP_K: u64 = 32;
/// Set-ups per trace, for a median.
const SETUP_REPS: usize = 25;
/// Single-worker rounds in the traced run, for a median.
const SINGLE_WORKER_REPS: usize = 9;

fn descriptor() -> ProtocolDescriptor {
    ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(DOMAIN)
        .epsilon(EPSILON)
        .cohorts(COHORTS)
        .build()
        .expect("valid OLH-C descriptor")
}

/// The simulator's diurnal profile: an overnight lull, a daytime
/// baseline and a 4× evening peak.
fn hour_weight(hour_of_day: usize) -> f64 {
    match hour_of_day {
        0..=5 => 0.3,
        18..=21 => 4.0,
        _ => 1.0,
    }
}

/// Reports volunteered in hour `h`, as the simulator schedules them.
fn hour_target(h: usize) -> usize {
    let weight_sum: f64 = (0..SIM_DAYS * 24).map(|h| hour_weight(h % 24)).sum();
    (SIM_FRAMES as f64 * hour_weight(h % 24) / weight_sum).round() as usize
}

fn timestamp(bucket: u64) -> u64 {
    bucket * WINDOW_LEN + WINDOW_LEN / 2
}

/// The trace's inputs, generated from the seed before timing.
struct Inputs {
    desc: ProtocolDescriptor,
    /// Each device's private item, Zipf over the domain.
    device_items: Vec<u64>,
    /// Devices volunteering in each hour, in order; a device may come
    /// twice in a peak hour.
    schedule: Vec<Vec<u32>>,
    /// Randomization seed base; hour `h` uses `shard_seed(seed, h)`.
    seed: u64,
}

impl Inputs {
    fn new(ctx: &Ctx) -> Self {
        let mut round_robin = (0..DEVICES as u32).cycle();
        let schedule = (0..HOURS)
            .map(|h| round_robin.by_ref().take(hour_target(h)).collect())
            .collect();
        Self {
            desc: descriptor(),
            device_items: drive::zipf_items(DOMAIN, DEVICES, ctx.derive(0)),
            schedule,
            seed: ctx.derive(2),
        }
    }

    fn hour_seed(&self, h: usize) -> u64 {
        shard_seed(self.seed, h)
    }
}

/// What one trace produced.
struct TraceOut {
    setup_ns: Vec<f64>,
    wall_ns: u64,
    /// Wall time of each hour, then of the closing checkpoint round trip.
    step_ns: Vec<f64>,
    accepted: Vec<usize>,
    throttled: u64,
    close_ms: Vec<f64>,
    query_ms: Vec<f64>,
    /// Per hour: pipeline stats and first-submit-to-finish time.
    rounds: Vec<(ldp_workloads::PipelineStats, u64)>,
    late: Vec<bool>,
    ring: WindowRing,
    checkpoint: Vec<u8>,
    restored: Vec<u8>,
    /// Peak heap growth over the trace, checks excluded.
    growth: usize,
}

fn trace(tr: &mut Tracer, inputs: &Inputs, workers: usize) -> ldp_core::Result<TraceOut> {
    let desc = &inputs.desc;
    let config = WindowConfig::new(WINDOW_LEN, WINDOWS).with_decay(DECAY);
    let mut setup_ns = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Only one ring is alive at a time, so the heap peak holds only
        // the one the trace uses.
        drop(built.take());
        let t = Instant::now();
        let client = WireClient::from_descriptor(desc)?;
        let ring = WindowRing::new(desc, config)?;
        let acct =
            LongitudinalAccountant::new(Epsilon::new(ALLOWANCE)?, Epsilon::new(EPSILON)?, WINDOWS)?;
        setup_ns.push(ns_since(t) as f64);
        built = Some((client, ring, acct));
    }
    let (client, mut ring, mut acct) = built.expect("SETUP_REPS >= 1");

    let top: Vec<u64> = (0..TOP_K).collect();
    let pipeline = drive::pipeline_config(SHARDS, workers, QUEUE_DEPTH);
    let mut values = Vec::new();
    let mut out_accepted = Vec::with_capacity(HOURS);
    let mut throttled = 0;
    let mut close_ms = Vec::with_capacity(HOURS);
    let mut query_ms = Vec::with_capacity(HOURS);
    let mut rounds = Vec::with_capacity(HOURS);
    let mut late = Vec::new();
    let mut straggler = Vec::new();
    let mut step_ns = Vec::with_capacity(HOURS + 1);
    let mut rng = StdRng::seed_from_u64(inputs.seed);
    let start = Instant::now();
    for h in 0..HOURS {
        let step = Instant::now();
        tr.enter("bench.hour");
        let bucket = EPOCH_HOUR + h as u64;
        values.clear();
        tr.enter("window.try_charge");
        for &device in &inputs.schedule[h] {
            match acct.try_charge(u64::from(device), bucket) {
                Ok(()) => values.push(inputs.device_items[device as usize]),
                Err(LdpError::BudgetExhausted { .. }) => throttled += 1,
                Err(e) => {
                    tr.exit();
                    tr.exit();
                    return Err(e);
                }
            }
        }
        tr.exit();
        let round = drive::pipeline_round(
            tr,
            &client,
            desc,
            pipeline,
            &values,
            inputs.hour_seed(h),
            BATCHES_PER_SHARD,
        );
        let round = match round {
            Ok(r) => r,
            Err(e) => {
                tr.exit();
                return Err(e);
            }
        };
        let hour = (|| {
            let absorbed = tr.call("window.absorb", || {
                ring.absorb(timestamp(bucket), round.service)
            })?;
            let t = Instant::now();
            let points = tr.call("window.estimate_items", || ring.estimate_items(&top))?;
            let decayed = tr.call("window.decayed_estimates", || ring.decayed_estimates())?;
            // Query and close times count once the ring is full: through
            // the first day it holds fewer windows, so the decayed query
            // is cheaper and not comparable.
            if h >= WINDOWS {
                query_ms.push(ns_since(t) as f64 / 1e6);
                close_ms.push(ns_since(round.last_submit) as f64 / 1e6);
            }
            std::hint::black_box((points, decayed));
            if !absorbed {
                return Err(LdpError::Malformed(format!("hour {h} absorbed as late")));
            }
            if h % 24 == 23 {
                // A report stamped a day back: older than every live window.
                straggler.clear();
                let item = inputs.device_items[h % DEVICES];
                client.randomize_item(item, &mut rng, &mut straggler)?;
                let folded = tr.call("window.ingest", || {
                    ring.ingest(timestamp(bucket - WINDOWS as u64), &straggler)
                })?;
                late.push(!folded);
            }
            Ok(())
        })();
        tr.exit();
        hour?;
        out_accepted.push(values.len());
        rounds.push((round.stats, round.stream_ns));
        step_ns.push(ns_since(step) as f64);
    }
    let step = Instant::now();
    tr.enter("bench.close");
    let checkpoint = tr.call("window.checkpoint", || ring.checkpoint());
    let restored = tr.call("window.from_checkpoint", || {
        WindowRing::from_checkpoint(&checkpoint)
    });
    tr.exit();
    let restored = restored?;
    step_ns.push(ns_since(step) as f64);
    let wall_ns = ns_since(start);
    Ok(TraceOut {
        setup_ns,
        wall_ns,
        step_ns,
        accepted: out_accepted,
        throttled,
        close_ms,
        query_ms,
        rounds,
        late,
        restored: restored.checkpoint(),
        ring,
        checkpoint,
        growth: 0,
    })
}

/// Checks one trace. The first is compared with an independent
/// reference: the accountant replayed over the schedule, and the live
/// day's frames ingested by one service, which the ring's running total
/// must equal byte for byte. Later traces must reproduce the first's
/// checkpoint. Returns the reference's wire bytes per report.
fn check_trace(
    rep: &mut Report,
    inputs: &Inputs,
    out: &TraceOut,
    first: Option<&[u8]>,
) -> Option<f64> {
    let stats = out.ring.stats();
    rep.check(
        "every straggler dropped as late",
        out.late.iter().all(|&l| l),
    );
    rep.check(
        "late_dropped counts the stragglers",
        stats.late_dropped == out.late.len() as u64,
    );
    rep.check("no window retired by rebuild", stats.retired_rebuild == 0);
    rep.check(
        "every expired window retired by subtraction",
        stats.retired_subtract == (HOURS - WINDOWS) as u64,
    );
    rep.check(
        "ring checkpoint round-trips bit-exactly",
        out.restored == out.checkpoint,
    );
    for ((stats, _), &n) in out.rounds.iter().zip(&out.accepted) {
        rep.check("every accepted report folded", stats.total_frames() == n);
        rep.count(
            "pipeline batches",
            stats.workers.iter().map(|w| w.batches as u64).sum(),
            stats.dropped_batches() as u64,
        );
    }
    if let Some(first) = first {
        rep.check("trace repeats the first", out.checkpoint == first);
        return None;
    }

    let replay = (|| {
        let desc = &inputs.desc;
        let client = WireClient::from_descriptor(desc)?;
        let mut acct =
            LongitudinalAccountant::new(Epsilon::new(ALLOWANCE)?, Epsilon::new(EPSILON)?, WINDOWS)?;
        let mut live = CollectorService::from_descriptor(desc)?;
        let mut live_values = Vec::new();
        let mut bytes = 0;
        let mut same_accepted = true;
        for h in 0..HOURS {
            let bucket = EPOCH_HOUR + h as u64;
            let values: Vec<u64> = inputs.schedule[h]
                .iter()
                .filter(|&&d| acct.try_charge(u64::from(d), bucket).is_ok())
                .map(|&d| inputs.device_items[d as usize])
                .collect();
            same_accepted &= values.len() == out.accepted[h];
            if h >= HOURS - WINDOWS {
                for buf in client.frames_sharded(&values, inputs.hour_seed(h), SHARDS)? {
                    bytes += buf.len();
                    live.ingest_concat(&buf)?;
                }
                live_values.extend(values);
            }
        }
        Ok::<_, LdpError>((live, live_values, bytes, same_accepted))
    })();
    let (live, live_values, bytes, same_accepted) = rep.ok("replay", replay)?;
    rep.check("timed run admitted what the replay admits", same_accepted);
    rep.check(
        "window total equals the live day ingested afresh",
        out.ring.total().checkpoint() == live.checkpoint(),
    );
    let top: Vec<u64> = (0..TOP_K).collect();
    let accuracy = check::predicted_variance(&inputs.desc, live.reports(), QueryShape::FullDomain)
        .and_then(|var| {
            let est = out.ring.estimate_items(&top).map_err(|e| e.to_string())?;
            check::within_bound(&est, &check::true_counts(&live_values, &top), var)
        });
    rep.ok("top-k estimates within the variance bound", accuracy);
    Some(bytes as f64 / live_values.len().max(1) as f64)
}

/// The single-threaded baseline: the busiest hour's reports through
/// one pipeline round with one worker, in reports per second (median of
/// [`SINGLE_WORKER_REPS`] rounds).
fn single_worker(rep: &mut Report, inputs: &Inputs) -> Option<f64> {
    let peak = (0..HOURS).max_by_key(|&h| inputs.schedule[h].len())?;
    let values: Vec<u64> = inputs.schedule[peak]
        .iter()
        .map(|&d| inputs.device_items[d as usize])
        .collect();
    let client = rep.ok("WireClient", WireClient::from_descriptor(&inputs.desc))?;
    let mut fps = Vec::with_capacity(SINGLE_WORKER_REPS);
    for _ in 0..SINGLE_WORKER_REPS {
        let round = drive::pipeline_round(
            &mut Tracer::new(false),
            &client,
            &inputs.desc,
            drive::pipeline_config(SHARDS, 1, QUEUE_DEPTH),
            &values,
            inputs.hour_seed(peak),
            BATCHES_PER_SHARD,
        );
        let round = rep.ok("single-worker round", round)?;
        rep.check(
            "single-worker round folds every report",
            round.stats.total_frames() == values.len(),
        );
        fps.push(values.len() as f64 * 1e9 / round.stream_ns as f64);
    }
    Some(median(&fps))
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let workers = ctx.host_cores;
    for (k, v) in [
        ("mechanism", "\"OLH-C\"".to_string()),
        ("domain", DOMAIN.to_string()),
        ("cohorts", COHORTS.to_string()),
        ("epsilon", EPSILON.to_string()),
        ("zipf_s", drive::ZIPF_S.to_string()),
        ("hours", HOURS.to_string()),
        ("window_len_s", WINDOW_LEN.to_string()),
        ("windows", WINDOWS.to_string()),
        ("decay", DECAY.to_string()),
        ("devices", DEVICES.to_string()),
        ("device_order", "\"round robin\"".to_string()),
        (
            "reports_per_hour",
            format!("{:?}", (0..24).map(hour_target).collect::<Vec<_>>()),
        ),
        ("allowance_eps_per_day", ALLOWANCE.to_string()),
        ("shards", SHARDS.to_string()),
        ("workers", workers.to_string()),
        ("queue_depth", QUEUE_DEPTH.to_string()),
        ("batches_per_shard", BATCHES_PER_SHARD.to_string()),
        ("top_k", TOP_K.to_string()),
        ("load", "\"closed loop, one producer thread\"".to_string()),
    ] {
        rep.param(k, v);
    }
    let inputs = Inputs::new(ctx);

    let mut plain: Vec<TraceOut> = Vec::new();
    let mut traced: Vec<TraceOut> = Vec::new();
    let mut first: Option<Vec<u8>> = None;
    let mut wire_bytes_per_report = 0.0;
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut one = |tr: &mut Tracer, rep: &mut Report, first: &mut Option<Vec<u8>>| {
        let phase = HEAP.start_phase();
        let out = trace(tr, &inputs, workers);
        let growth = HEAP.growth_bytes(phase);
        let out = TraceOut {
            growth,
            ..rep.ok("trace", out)?
        };
        if let Some(b) = check_trace(rep, &inputs, &out, first.as_deref()) {
            wire_bytes_per_report = b;
        }
        first.get_or_insert_with(|| out.checkpoint.clone());
        Some(out)
    };
    let traces = drive::run_for(ctx.seconds, 1, |_| {
        let Some(out) = one(&mut off, rep, &mut first) else {
            return false;
        };
        plain.push(out);
        if !ctx.trace {
            return true;
        }
        let Some(out) = one(&mut tr, rep, &mut first) else {
            return false;
        };
        traced.push(out);
        true
    });
    rep.param("traces", traces);

    if rep.failed() > 0 {
        return;
    }
    if !ctx.trace {
        // Every trace replays the same hours, so each figure is the best
        // the run's traces reached (see `README.md`).
        let setup = plain.iter().map(|o| median(&o.setup_ns));
        rep.metric("setup_s", setup.fold(f64::INFINITY, f64::min) / 1e9, "s");
        let per_trace = |f: fn(&TraceOut) -> &Vec<f64>| -> Vec<Vec<f64>> {
            plain.iter().map(|o| f(o).clone()).collect()
        };
        let frames = plain[0].accepted.iter().sum::<usize>() as f64;
        let trace_ns: f64 = best_of(&per_trace(|o| &o.step_ns)).iter().sum();
        rep.metric("frames_per_s", frames * 1e9 / trace_ns, "1/s");
        rep.metric(
            "query_ms",
            mean(&best_of(&per_trace(|o| &o.query_ms))),
            "ms",
        );
        crate::close_metrics(rep, &best_of(&per_trace(|o| &o.close_ms)));
        rep.metric("bytes_per_report", wire_bytes_per_report, "bytes");
        rep.metric("state_bytes", plain[0].checkpoint.len() as f64, "bytes");
        let growth = plain.iter().map(|o| o.growth).max().unwrap_or(0);
        rep.metric("peak_rss_mb", growth as f64 / 1e6, "MB");
        return;
    }

    let rounds: Vec<_> = traced
        .iter()
        .flat_map(|o| o.rounds.iter().map(|(s, ns)| (s, *ns)))
        .collect();
    crate::pipeline_metrics(rep, &tr, &rounds);
    if let Some(fps) = single_worker(rep, &inputs) {
        rep.metric("pipeline.frames_per_s_1w", fps, "1/s");
    }
    let dur = |name: &str| median(&tr.durations_ns(name));
    rep.metric("window.absorb_us", dur("window.absorb") / 1e3, "us");
    rep.metric("window.query_us", dur("window.estimate_items") / 1e3, "us");
    rep.metric(
        "window.decayed_ms",
        dur("window.decayed_estimates") / 1e6,
        "ms",
    );
    let charges: usize = inputs.schedule.iter().map(Vec::len).sum::<usize>() * traced.len();
    rep.metric(
        "window.charge_ns",
        tr.total_ns("window.try_charge") as f64 / charges as f64,
        "ns",
    );
    rep.metric("window.checkpoint_ms", dur("window.checkpoint") / 1e6, "ms");
    rep.metric(
        "window.restore_ms",
        dur("window.from_checkpoint") / 1e6,
        "ms",
    );
    let shown = &traced[0];
    let stats = shown.ring.stats();
    rep.metric(
        "window.checkpoint_bytes",
        shown.checkpoint.len() as f64,
        "bytes",
    );
    rep.metric(
        "window.retired_subtract",
        stats.retired_subtract as f64,
        "count",
    );
    rep.metric(
        "window.retired_rebuild",
        stats.retired_rebuild as f64,
        "count",
    );
    rep.metric("window.late_dropped", stats.late_dropped as f64, "count");
    rep.metric("window.throttled", shown.throttled as f64, "count");
    let overhead: Vec<f64> = traced
        .iter()
        .zip(&plain)
        .map(|(t, p)| t.wall_ns as f64 / p.wall_ns as f64)
        .collect();
    crate::trace_metrics(rep, ctx, &tr, traced.len(), median(&overhead));
}
