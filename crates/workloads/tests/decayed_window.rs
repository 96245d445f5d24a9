//! The decayed window query against a by-hand reference, for every kind
//! the workspace registry builds: `WindowRing::decayed_estimates` must
//! equal `Σ_w λ^age(w) · estimate(window_w)` over the live windows —
//! bit for bit where each window is decoded, within float reassociation
//! where OLH-C decodes one weighted count matrix — and for OLH-C at
//! `λ = 1` it must equal the running total's estimate bit for bit.

use ldp_core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp_workloads::window::{WindowConfig, WindowRing};
use ldp_workloads::{CollectorService, WireClient};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WINDOWS: usize = 24;
const WINDOW_LEN: u64 = 10;
/// More buckets of traffic than live windows, so retirement has run.
const BUCKETS: u64 = 31;
const DOMAIN: u64 = 32;

/// Every kind of `MechanismKind::ALL` with all the knobs any kind
/// needs; the kinds the registry refuses come back separately.
fn registry_kinds() -> (Vec<ProtocolDescriptor>, Vec<MechanismKind>) {
    let mut built = Vec::new();
    let mut refused = Vec::new();
    for kind in MechanismKind::ALL {
        let desc = ProtocolDescriptor::builder(kind)
            .domain_size(DOMAIN)
            .epsilon(1.0)
            .cohorts(8)
            .sketch(4, 16)
            .bits_per_device(4)
            .build()
            .unwrap();
        match CollectorService::from_descriptor(&desc) {
            Ok(_) => built.push(desc),
            Err(_) => refused.push(kind),
        }
    }
    (built, refused)
}

/// A ring fed `BUCKETS` windows of skewed traffic: window `b` carries
/// `20 + b` reports centred on an item that drifts with `b`.
fn fed_ring(desc: &ProtocolDescriptor, lambda: f64) -> WindowRing {
    let client = WireClient::from_descriptor(desc).unwrap();
    let mut ring = WindowRing::new(
        desc,
        WindowConfig::new(WINDOW_LEN, WINDOWS).with_decay(lambda),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let mut stream = Vec::new();
    for b in 0..BUCKETS {
        stream.clear();
        for u in 0..20 + b {
            if desc.kind() == MechanismKind::MicrosoftOneBitMean {
                let x = ((b * 7 + u) % 10) as f64 / 10.0;
                client.randomize_real(x, &mut rng, &mut stream).unwrap();
            } else {
                let v = (b + u % 3) % DOMAIN;
                client.randomize_item(v, &mut rng, &mut stream).unwrap();
            }
        }
        ring.ingest_concat(b * WINDOW_LEN, &stream).unwrap();
    }
    assert_eq!(ring.live_windows(), WINDOWS);
    ring
}

/// `Σ_w λ^age(w) · estimate(window_w)` in window order, scaling the
/// oldest window's estimate first, plus the weighted report mass.
fn reference(ring: &WindowRing, lambda: f64) -> (Vec<f64>, f64) {
    let newest = ring.newest_bucket().unwrap();
    let mut acc: Option<Vec<f64>> = None;
    let mut mass = 0.0;
    for (bucket, window) in ring.windows() {
        let weight = lambda.powi((newest - bucket) as i32);
        mass += weight * window.reports() as f64;
        let est = window.estimates();
        match acc.as_mut() {
            None => acc = Some(est.iter().map(|e| e * weight).collect()),
            Some(a) => {
                for (x, e) in a.iter_mut().zip(&est) {
                    *x += weight * e;
                }
            }
        }
    }
    (acc.unwrap(), mass)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn decayed_estimates_match_the_per_window_sum_for_every_kind() {
    let lambda = 0.9;
    let (kinds, refused) = registry_kinds();
    assert_eq!(
        refused,
        [
            MechanismKind::BinaryLocalHashing,
            MechanismKind::OptimizedLocalHashing
        ],
        "only the raw local-hashing kinds are refused"
    );
    for desc in &kinds {
        let name = desc.kind().name();
        let ring = fed_ring(desc, lambda);
        let decayed = ring.decayed_estimates().unwrap();
        let (want, mass) = reference(&ring, lambda);
        assert_eq!(decayed.len(), want.len(), "{name}");
        if desc.kind() == MechanismKind::CohortLocalHashing {
            let tol = 1e-9 * mass.max(1.0);
            for (i, (got, want)) in decayed.iter().zip(&want).enumerate() {
                assert!(
                    (got - want).abs() <= tol,
                    "{name} item {i}: {got} vs {want} (tolerance {tol})"
                );
            }
        } else {
            assert_eq!(bits(&decayed), bits(&want), "{name}");
        }
    }
}

#[test]
fn undecayed_olhc_query_is_the_running_total_bit_for_bit() {
    let (kinds, _) = registry_kinds();
    let desc = kinds
        .iter()
        .find(|d| d.kind() == MechanismKind::CohortLocalHashing)
        .unwrap();
    let ring = fed_ring(desc, 1.0);
    assert_eq!(
        bits(&ring.decayed_estimates().unwrap()),
        bits(&ring.estimates())
    );
}
