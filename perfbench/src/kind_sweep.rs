//! `kind_sweep`: every mechanism kind the workspace registry builds, at
//! the same domain, ε and report count, through client framing,
//! per-shard ingest, checkpoint, merge-tree rollup and decode — on the
//! benchmark thread, with no pipeline.

use std::time::Instant;

use ldp_core::cost::{QueryShape, WorkloadSpec};
use ldp_core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp_workloads::parallel::shard_seed;
use ldp_workloads::service::{
    workspace_cost_book, workspace_registry, CollectorService, MergeTree, WireClient,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check;
use crate::drive::{self, ns_since, Ctx};
use crate::mem::HEAP;
use crate::report::Report;
use crate::stats::{best_of, median};
use crate::trace::Tracer;

const DOMAIN: u64 = 1024;
const EPSILON: f64 = 1.0;
/// Reports per kind: 512 per shard.
const REPORTS: usize = 8192;
const SHARDS: usize = 16;
const FAN_IN: usize = 4;
/// Upper bound of 1BitMean's real inputs.
const MAX_VALUE: f64 = 1.0;
const MIN_SWEEPS: usize = 3;

/// Kinds whose merge sums `f64`s, so only the same fold order
/// reproduces their state bit for bit.
const FLOAT_STATE: [MechanismKind; 2] = [
    MechanismKind::SummationHistogram,
    MechanismKind::MicrosoftOneBitMean,
];

/// A kind as the sweep runs it.
pub struct Swept {
    pub kind: MechanismKind,
    desc: ProtocolDescriptor,
    shape: QueryShape,
}

impl Swept {
    fn takes_reals(&self) -> bool {
        matches!(self.shape, QueryShape::Mean { .. })
    }
}

/// Every kind in `MechanismKind::ALL`, with knobs tuned by its own cost
/// model for this sweep's domain, ε and report count (the frequency
/// shape first, then the mean shape). A kind without a model or refused
/// by it gets the plain descriptor. Whatever the registry then refuses
/// comes back as `Err((kind, reason))`: skipped, not silently dropped.
pub fn kinds() -> Vec<Result<Swept, (MechanismKind, String)>> {
    let book = workspace_cost_book();
    let registry = workspace_registry();
    let full = WorkloadSpec::new(DOMAIN, REPORTS as u64, EPSILON);
    let mean = full.clone().with_query_shape(QueryShape::Mean {
        max_value: MAX_VALUE,
    });
    MechanismKind::ALL
        .iter()
        .map(|&kind| {
            let tuned = book.get(kind).and_then(|model| {
                [&full, &mean].into_iter().find_map(|spec| {
                    model
                        .tune(spec)
                        .ok()
                        .flatten()
                        .map(|d| (d, spec.query_shape))
                })
            });
            let (desc, shape) = match tuned {
                Some(t) => t,
                None => ProtocolDescriptor::builder(kind)
                    .domain_size(DOMAIN)
                    .epsilon(EPSILON)
                    .build()
                    .map(|d| (d, QueryShape::FullDomain))
                    .map_err(|e| (kind, e.to_string()))?,
            };
            registry.build(&desc).map_err(|e| (kind, e.to_string()))?;
            Ok(Swept { kind, desc, shape })
        })
        .collect()
}

/// The sweep's inputs, generated from the seed before timing.
struct Inputs {
    items: Vec<u64>,
    reals: Vec<f64>,
    queried: Vec<u64>,
    seed: u64,
}

/// One kind's pass through every layer, with its clock readings.
struct KindPass {
    setup_ns: u64,
    collect_ns: u64,
    query_ns: u64,
    /// Wire bytes of each shard.
    frames: Vec<Vec<u8>>,
    root: CollectorService,
    points: Vec<f64>,
}

/// Frames real inputs shard by shard, each shard with its own RNG
/// stream (there is no sharded helper for reals).
fn frame_reals(client: &WireClient, reals: &[f64], seed: u64) -> ldp_core::Result<Vec<Vec<u8>>> {
    drive::shard_bounds(reals.len(), SHARDS)
        .into_iter()
        .enumerate()
        .map(|(shard, (lo, hi))| {
            let mut rng = StdRng::seed_from_u64(shard_seed(seed, shard));
            let mut buf = Vec::new();
            for &x in &reals[lo..hi] {
                client.randomize_real(x, &mut rng, &mut buf)?;
            }
            Ok(buf)
        })
        .collect()
}

fn pass(tr: &mut Tracer, k: &Swept, inputs: &Inputs) -> ldp_core::Result<KindPass> {
    let t = Instant::now();
    let client = WireClient::from_descriptor(&k.desc)?;
    let mut services = (0..SHARDS)
        .map(|_| CollectorService::from_descriptor(&k.desc))
        .collect::<ldp_core::Result<Vec<_>>>()?;
    let tree = MergeTree::new(FAN_IN)?;
    let setup_ns = ns_since(t);

    let t = Instant::now();
    let frames = if k.takes_reals() {
        tr.call("client.randomize_real", || {
            frame_reals(&client, &inputs.reals, inputs.seed)
        })?
    } else {
        tr.call("client.frames_sharded", || {
            client.frames_sharded(&inputs.items, inputs.seed, SHARDS)
        })?
    };
    for (svc, buf) in services.iter_mut().zip(&frames) {
        tr.call("service.ingest_concat", || svc.ingest_concat(buf))?;
    }
    let collect_ns = ns_since(t);

    let t = Instant::now();
    let checkpoints: Vec<Vec<u8>> = services
        .iter()
        .map(|svc| tr.call("snapshot.checkpoint", || svc.checkpoint()))
        .collect();
    let root = tr.call("snapshot.merge_to_root", || {
        tree.merge_to_root(&checkpoints)
    })?;
    let estimates = tr.call("decode.estimates", || root.estimates());
    let queried: &[u64] = if k.takes_reals() {
        &[]
    } else {
        &inputs.queried
    };
    let points = tr.call("decode.estimate_items", || root.estimate_items(queried))?;
    let query_ns = ns_since(t);
    std::hint::black_box(estimates);
    Ok(KindPass {
        setup_ns,
        collect_ns,
        query_ns,
        frames,
        root,
        points,
    })
}

/// Each shard's frames ingested by a service of its own.
fn shard_services(k: &Swept, frames: &[Vec<u8>]) -> ldp_core::Result<Vec<CollectorService>> {
    frames
        .iter()
        .map(|buf| {
            let mut svc = CollectorService::from_descriptor(&k.desc)?;
            svc.ingest_concat(buf)?;
            Ok(svc)
        })
        .collect()
}

/// The state the rollup must reproduce byte for byte: for integer-counter
/// kinds one service that ingested every shard in order; for float kinds
/// the per-shard services left-folded group by group, as the merge tree
/// groups them, since a float sum in any other order may differ in its
/// last bits.
fn reference(k: &Swept, frames: &[Vec<u8>]) -> ldp_core::Result<CollectorService> {
    if !FLOAT_STATE.contains(&k.kind) {
        let mut svc = CollectorService::from_descriptor(&k.desc)?;
        for buf in frames {
            svc.ingest_concat(buf)?;
        }
        return Ok(svc);
    }
    let mut level = shard_services(k, frames)?;
    while level.len() > 1 {
        let mut next = Vec::new();
        let mut it = level.into_iter().peekable();
        while it.peek().is_some() {
            let mut acc = it.next().expect("peeked");
            for other in it.by_ref().take(FAN_IN - 1) {
                acc.merge(other)?;
            }
            next.push(acc);
        }
        level = next;
    }
    Ok(level.pop().expect("at least one shard"))
}

/// For float kinds: the rollup's estimates agree, up to float rounding,
/// with those of the per-shard services merged left to right in shard
/// order, a fold that does not follow the tree's grouping.
fn left_fold_agrees(k: &Swept, p: &KindPass) -> Result<(), String> {
    let mut services = shard_services(k, &p.frames).map_err(|e| e.to_string())?;
    let mut acc = services.remove(0);
    for svc in services {
        acc.merge(svc).map_err(|e| e.to_string())?;
    }
    let (fold, root) = (acc.estimates(), p.root.estimates());
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    if fold.len() == root.len() && fold.iter().zip(&root).all(|(&a, &b)| close(a, b)) {
        Ok(())
    } else {
        Err("rollup estimates differ from the left fold's".to_string())
    }
}

/// Accuracy gate of one kind's first pass.
fn accuracy(k: &Swept, p: &KindPass, inputs: &Inputs) -> Result<(), String> {
    let var = check::predicted_variance(&k.desc, REPORTS, k.shape)?;
    if k.takes_reals() {
        let truth = inputs.reals.iter().sum::<f64>() / inputs.reals.len() as f64;
        return check::within_bound(&p.root.estimates(), &[truth], var);
    }
    let truth = check::true_counts(&inputs.items, &inputs.queried);
    check::within_bound(&p.root.estimates(), &truth, var)?;
    check::within_bound(&p.points, &truth, var)
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let mut swept = Vec::new();
    let mut skipped = Vec::new();
    for k in kinds() {
        match k {
            Ok(k) => swept.push(k),
            Err((kind, why)) => skipped.push(format!(
                "{}: {}",
                crate::report::json_string(kind.name()),
                crate::report::json_string(&why)
            )),
        }
    }
    let names: Vec<String> = swept
        .iter()
        .map(|k| crate::report::json_string(k.kind.name()))
        .collect();
    rep.param("kinds", format!("[{}]", names.join(", ")));
    rep.param("skipped", format!("{{{}}}", skipped.join(", ")));
    for (key, v) in [
        ("domain", DOMAIN.to_string()),
        ("epsilon", EPSILON.to_string()),
        ("zipf_s", drive::ZIPF_S.to_string()),
        ("reports_per_kind", REPORTS.to_string()),
        ("shards", SHARDS.to_string()),
        ("fan_in", FAN_IN.to_string()),
        ("point_items", DOMAIN.to_string()),
        ("real_inputs", format!("\"uniform on [0, {MAX_VALUE})\"")),
        ("load", "\"closed loop, benchmark thread only\"".to_string()),
    ] {
        rep.param(key, v);
    }

    let mut rng = StdRng::seed_from_u64(ctx.derive(1));
    let inputs = Inputs {
        items: drive::zipf_items(DOMAIN, REPORTS, ctx.derive(0)),
        reals: (0..REPORTS).map(|_| rng.gen::<f64>() * MAX_VALUE).collect(),
        queried: (0..DOMAIN).collect(),
        seed: ctx.derive(2),
    };

    // The first sweep's rollups are checked against the references and
    // every later sweep's against the first: inputs and seeds repeat,
    // so the states must too.
    let mut first: Vec<Vec<u8>> = Vec::new();
    let mut wire_bytes = 0usize;
    let mut plain: Vec<Vec<(u64, u64, u64)>> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_kind: Vec<Vec<[f64; 6]>> = vec![Vec::new(); swept.len()];
    let mut growth = 0usize;
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut sweep = |tr: &mut Tracer, rep: &mut Report, first: &mut Vec<Vec<u8>>| {
        let mut times = Vec::with_capacity(swept.len());
        for (i, k) in swept.iter().enumerate() {
            let mark = tr.spans().len();
            let phase = HEAP.start_phase();
            tr.enter("bench.kind");
            let p = pass(tr, k, &inputs);
            tr.exit();
            growth = growth.max(HEAP.growth_bytes(phase));
            let p = rep.ok(k.kind.name(), p)?;
            let ck = p.root.checkpoint();
            if first.len() == i {
                wire_bytes += p.frames.iter().map(Vec::len).sum::<usize>();
                let same = reference(k, &p.frames).map(|r| r.checkpoint() == ck);
                if let Some(same) = rep.ok("reference", same) {
                    rep.check(
                        &format!("{} rollup equals its reference", k.kind.name()),
                        same,
                    );
                }
                if FLOAT_STATE.contains(&k.kind) {
                    rep.ok(
                        &format!("{} left fold", k.kind.name()),
                        left_fold_agrees(k, &p),
                    );
                }
                rep.ok(
                    &format!("{} accuracy", k.kind.name()),
                    accuracy(k, &p, &inputs),
                );
                first.push(ck);
            } else {
                rep.check(&format!("{} rollup repeats", k.kind.name()), first[i] == ck);
            }
            if tr.enabled() {
                let spans = &tr.spans()[mark..];
                let total = |name: &str| {
                    spans
                        .iter()
                        .filter(|s| s.name == name)
                        .map(|s| (s.end_ns - s.start_ns) as f64)
                        .sum::<f64>()
                };
                let frame_ns = total("client.frames_sharded") + total("client.randomize_real");
                per_kind[i].push([
                    frame_ns / REPORTS as f64,
                    total("service.ingest_concat") / REPORTS as f64,
                    total("snapshot.checkpoint") / SHARDS as f64 / 1e3,
                    total("snapshot.merge_to_root") / 1e6,
                    total("decode.estimates") / 1e6,
                    total("decode.estimate_items") / 1e3,
                ]);
            }
            times.push((p.setup_ns, p.collect_ns, p.query_ns));
        }
        Some(times)
    };

    let sweeps = drive::run_for(ctx.seconds, MIN_SWEEPS, |_| {
        let Some(times) = sweep(&mut off, rep, &mut first) else {
            return false;
        };
        let wall: u64 = times.iter().map(|t| t.1 + t.2).sum();
        plain.push(times);
        if !ctx.trace {
            return true;
        }
        let Some(times) = sweep(&mut tr, rep, &mut first) else {
            return false;
        };
        traced_walls.push(times.iter().map(|t| t.1 + t.2).sum::<u64>() as f64 / wall as f64);
        true
    });
    rep.param("sweeps", sweeps);

    if rep.failed() > 0 {
        return;
    }
    let reports = (REPORTS * swept.len()) as f64;
    if !ctx.trace {
        // Every sweep repeats the same kinds on the same inputs, so each
        // kind's time is the best the run's sweeps reached (see
        // `README.md`).
        let best = |f: fn(&(u64, u64, u64)) -> u64| -> Vec<f64> {
            let sweeps: Vec<Vec<f64>> = plain
                .iter()
                .map(|ts| ts.iter().map(|t| f(t) as f64).collect())
                .collect();
            best_of(&sweeps)
        };
        rep.metric("setup_s", best(|t| t.0).iter().sum::<f64>() / 1e9, "s");
        let collect_ns: f64 = best(|t| t.1).iter().sum();
        rep.metric("frames_per_s", reports * 1e9 / collect_ns, "1/s");
        let close: Vec<f64> = best(|t| t.2).iter().map(|ns| ns / 1e6).collect();
        rep.metric("query_ms", close.iter().sum::<f64>(), "ms");
        crate::close_metrics(rep, &close);
        rep.metric("bytes_per_report", wire_bytes as f64 / reports, "bytes");
        let state: usize = first.iter().map(Vec::len).sum();
        rep.metric("state_bytes", state as f64, "bytes");
        rep.metric("peak_rss_mb", growth as f64 / 1e6, "MB");
        return;
    }

    for ((k, samples), ck) in swept.iter().zip(&per_kind).zip(&first) {
        let name = k.kind.name();
        let col = |j: usize| median(&samples.iter().map(|s| s[j]).collect::<Vec<_>>());
        rep.metric(format!("client.frame_ns.{name}"), col(0), "ns");
        rep.metric(format!("service.ingest_ns.{name}"), col(1), "ns");
        rep.metric(format!("snapshot.checkpoint_us.{name}"), col(2), "us");
        rep.metric(format!("snapshot.rollup_ms.{name}"), col(3), "ms");
        rep.metric(format!("decode.estimate_ms.{name}"), col(4), "ms");
        rep.metric(format!("decode.point_us.{name}"), col(5), "us");
        rep.metric(
            format!("snapshot.state_bytes.{name}"),
            ck.len() as f64,
            "bytes",
        );
    }
    let client_ns = tr.total_ns("client.frames_sharded") + tr.total_ns("client.randomize_real");
    rep.metric(
        "client.frame_ns",
        client_ns as f64 / (reports * traced_walls.len() as f64),
        "ns",
    );
    crate::trace_metrics(rep, ctx, &tr, traced_walls.len(), median(&traced_walls));
}
