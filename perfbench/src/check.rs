//! Accuracy gate: estimate error against the bound the mechanism's own
//! variance formula gives.

use ldp_core::cost::{QueryShape, WorkloadSpec};
use ldp_core::protocol::ProtocolDescriptor;
use ldp_workloads::service::workspace_cost_book;

/// No estimate may sit further than this many predicted standard
/// deviations from the truth. With ~10³ estimates per check and ~10³
/// checks over a hundred runs, a Gaussian error passes them all with
/// probability 1 − 10⁻⁵; a biased or broken decoder does not.
pub const MAX_Z: f64 = 7.0;

/// The root-mean-square standardized error of many estimates may not
/// exceed this: a variance several times the predicted one fails it even
/// when no single estimate is far out. Few estimates get the looser
/// `MAX_Z / √m`, which a Gaussian error exceeds with probability below
/// 10⁻⁵ (for one estimate it is the `MAX_Z` bound itself).
pub const MAX_RMS_Z: f64 = 2.0;

/// Predicted variance of one estimate from `reports` reports, from the
/// kind's cost model (the σ² of a rare item's count for frequency
/// queries, of the mean for [`QueryShape::Mean`]).
pub fn predicted_variance(
    desc: &ProtocolDescriptor,
    reports: usize,
    shape: QueryShape,
) -> Result<f64, String> {
    let book = workspace_cost_book();
    let model = book
        .get(desc.kind())
        .ok_or_else(|| format!("no cost model for {}", desc.kind().name()))?;
    let spec = WorkloadSpec::new(desc.domain_size().max(2), reports as u64, desc.epsilon())
        .with_query_shape(shape);
    let cost = model.cost(desc, &spec).map_err(|e| e.to_string())?;
    Ok(cost.variance)
}

/// Checks `estimates` against `truth` under the predicted `variance`:
/// every standardized error within [`MAX_Z`] and their RMS within
/// [`MAX_RMS_Z`] (looser for few estimates).
pub fn within_bound(estimates: &[f64], truth: &[f64], variance: f64) -> Result<(), String> {
    if estimates.len() != truth.len() || estimates.is_empty() {
        return Err(format!(
            "{} estimates for {} true values",
            estimates.len(),
            truth.len()
        ));
    }
    if !(variance.is_finite() && variance > 0.0) {
        return Err(format!("predicted variance {variance} is unusable"));
    }
    let sd = variance.sqrt();
    let z: Vec<f64> = estimates
        .iter()
        .zip(truth)
        .map(|(e, t)| (e - t) / sd)
        .collect();
    let max = z.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let rms = (z.iter().map(|x| x * x).sum::<f64>() / z.len() as f64).sqrt();
    let rms_limit = MAX_RMS_Z.max(MAX_Z / (z.len() as f64).sqrt());
    if max.is_finite() && max <= MAX_Z && rms <= rms_limit {
        Ok(())
    } else {
        Err(format!("max |z| {max:.2}, rms z {rms:.2}"))
    }
}

/// Exact counts of `values` over `items`.
pub fn true_counts(values: &[u64], items: &[u64]) -> Vec<f64> {
    let d = items.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut counts = vec![0u64; d];
    for &v in values {
        if let Some(c) = counts.get_mut(v as usize) {
            *c += 1;
        }
    }
    items.iter().map(|&i| counts[i as usize] as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_accepts_noise_and_rejects_bias() {
        let truth = vec![100.0; 4];
        assert!(within_bound(&[110.0, 90.0, 105.0, 95.0], &truth, 100.0).is_ok());
        // One estimate 8σ out.
        assert!(within_bound(&[180.0, 100.0, 100.0, 100.0], &truth, 100.0).is_err());
        // 32 estimates all 3σ out: no single outlier, but RMS 3.
        let many: Vec<f64> = (0..32).map(|i| [130.0, 70.0][i % 2]).collect();
        assert!(within_bound(&many, &[100.0; 32], 100.0).is_err());
        assert!(within_bound(&[1.0], &truth, 100.0).is_err());
        // A single estimate 3σ out is ordinary noise.
        assert!(within_bound(&[130.0], &[100.0], 100.0).is_ok());
        assert!(within_bound(&truth, &truth, 0.0).is_err());
    }

    #[test]
    fn counts_selected_items() {
        assert_eq!(true_counts(&[0, 2, 2, 5], &[2, 0, 1]), vec![2.0, 1.0, 0.0]);
    }
}
