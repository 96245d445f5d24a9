//! Pieces the workloads share: the run context, the timed loop, input
//! generation and one collector-pipeline round.

use std::time::{Duration, Instant};

use ldp_core::protocol::ProtocolDescriptor;
use ldp_core::LdpError;
use ldp_workloads::gen::ZipfGenerator;
use ldp_workloads::parallel::shard_seed;
use ldp_workloads::pipeline::{
    split_frames, stream_population, BackpressurePolicy, CollectorPipeline, PipelineConfig,
    PipelineStats,
};
use ldp_workloads::service::{CollectorService, WireClient};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// Zipf skew of every item population.
pub const ZIPF_S: f64 = 1.1;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Cores available to this process; every pipeline runs this many
    /// workers.
    pub host_cores: usize,
}

impl Ctx {
    /// An independent seed for one use of the workload seed.
    pub fn derive(&self, purpose: usize) -> u64 {
        shard_seed(self.seed, purpose)
    }
}

/// Calls `unit` until `seconds` have passed and at least `min_units`
/// ran, or until it returns `false` (a failed unit ends the run).
/// Returns how many units ran.
pub fn run_for(seconds: f64, min_units: usize, mut unit: impl FnMut(usize) -> bool) -> usize {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    let mut n = 0;
    while n < min_units || Instant::now() < deadline {
        let ok = unit(n);
        n += 1;
        if !ok {
            break;
        }
    }
    n
}

/// `n` Zipf(1.1) items over `[0, d)`, item 0 the most frequent.
pub fn zipf_items(d: u64, n: usize, seed: u64) -> Vec<u64> {
    ZipfGenerator::new(d, ZIPF_S)
        .expect("valid Zipf parameters")
        .sample_n(n, &mut StdRng::seed_from_u64(seed))
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A lossless pipeline of `shards` shards and `workers` workers.
pub fn pipeline_config(shards: usize, workers: usize, queue_depth: usize) -> PipelineConfig {
    PipelineConfig {
        shards,
        workers,
        queue_depth,
        policy: BackpressurePolicy::Block,
    }
}

/// One pipeline round and its clock readings.
pub struct Round {
    pub service: CollectorService,
    pub stats: PipelineStats,
    /// First submit until `finish` returned.
    pub stream_ns: u64,
    /// Returned by `finish`; close times run from the last submit.
    pub last_submit: Instant,
}

/// Spawns a pipeline for `desc`, streams `values` through it with
/// randomization seed `seed`, and finishes it.
///
/// Untraced, the stream is one `stream_population` call. Traced, the
/// same public steps are driven here — `frames_for_shard`, then
/// `split_frames`, then `submit` per batch — so each layer gets its own
/// span; the aggregate is the same either way.
pub fn pipeline_round(
    tr: &mut Tracer,
    client: &WireClient,
    desc: &ProtocolDescriptor,
    config: PipelineConfig,
    values: &[u64],
    seed: u64,
    batches_per_shard: usize,
) -> Result<Round, LdpError> {
    let pipeline = tr.call("pipeline.new", || CollectorPipeline::new(desc, config))?;
    let start = Instant::now();
    // Batches a submit refuses show as dropped in the stats.
    let streamed = if tr.enabled() {
        stream_steps(tr, client, &pipeline, values, seed, batches_per_shard)
    } else {
        stream_population(client, &pipeline, values, seed, batches_per_shard).map(drop)
    };
    let last_submit = Instant::now();
    // Finish even after a failed submit, so the workers are joined.
    let finished = tr.call("pipeline.finish", || pipeline.finish());
    let stream_ns = ns_since(start);
    streamed?;
    let (service, stats) = finished?;
    Ok(Round {
        service,
        stats,
        stream_ns,
        last_submit,
    })
}

/// `stream_population`'s steps, one span per call.
fn stream_steps(
    tr: &mut Tracer,
    client: &WireClient,
    pipeline: &CollectorPipeline,
    values: &[u64],
    seed: u64,
    batches_per_shard: usize,
) -> Result<(), LdpError> {
    let mut buf = Vec::new();
    for (shard, (lo, hi)) in shard_bounds(values.len(), pipeline.shards())
        .into_iter()
        .enumerate()
    {
        buf.clear();
        tr.call("client.frames_for_shard", || {
            client.frames_for_shard(&values[lo..hi], seed, shard, &mut buf)
        })?;
        let batches = tr.call("pipeline.split_frames", || {
            split_frames(&buf, batches_per_shard)
        })?;
        for batch in batches {
            tr.call("pipeline.submit", || pipeline.submit(shard, batch))?;
        }
    }
    Ok(())
}

/// The library's shard plan (contiguous, equal up to the last shard),
/// which `stream_population` uses and does not export. A mismatch would
/// change the aggregate, which the workloads' byte-identity checks
/// catch.
pub fn shard_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.min(len.max(1));
    let chunk = len.div_ceil(shards);
    (0..shards)
        .map(|i| ((i * chunk).min(len), ((i + 1) * chunk).min(len)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_covers_input_in_order() {
        assert_eq!(shard_bounds(10, 4), vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(shard_bounds(2, 4), vec![(0, 1), (1, 2)]);
        assert_eq!(shard_bounds(0, 4), vec![(0, 0)]);
    }

    #[test]
    fn run_for_honours_minimum_and_failure() {
        assert_eq!(run_for(0.0, 3, |_| true), 3);
        assert_eq!(run_for(10.0, 3, |i| i < 1), 2);
    }
}
