//! Differential test of [`LongitudinalAccountant`] against a reference
//! model: the float-budget accountant it replaced, one `PrivacyBudget`
//! and one sorted `VecDeque` of charged buckets per device in a
//! `BTreeMap`. Both are driven with the same generated charge sequences
//! (steady advances, jumps past the horizon, stale buckets, repeats,
//! out-of-order in-horizon buckets) and must agree on every outcome, on
//! every device's spend, and on the device roster.

use std::collections::{BTreeMap, VecDeque};

use ldp_core::{Epsilon, LdpError, PrivacyBudget, Result};
use ldp_workloads::window::LongitudinalAccountant;
use proptest::prelude::*;

const HORIZONS: [usize; 8] = [1, 2, 3, 24, 63, 64, 65, 130];
const PER_WINDOW: [f64; 5] = [0.1, 0.25, 0.4, 0.5, 1.0];
/// Allowances as multiples of the per-window charge: exact multiples,
/// fractions in between, and caps above every horizon.
const ALLOWANCE_MULT: [f64; 8] = [1.0, 1.5, 2.0, 2.5, 3.0, 8.0, 40.0, 200.0];
const DEVICES: u64 = 5;

/// The accountant as it was before the bitset ledger, kept verbatim as
/// the reference semantics.
struct ReferenceAccountant {
    per_window: Epsilon,
    horizon: u64,
    allowance: Epsilon,
    devices: BTreeMap<u64, DeviceLedger>,
}

struct DeviceLedger {
    budget: PrivacyBudget,
    /// Buckets this device has been charged for, oldest first.
    charged: VecDeque<u64>,
}

impl ReferenceAccountant {
    fn new(allowance: Epsilon, per_window: Epsilon, horizon: usize) -> Self {
        Self {
            per_window,
            horizon: horizon as u64,
            allowance,
            devices: BTreeMap::new(),
        }
    }

    fn try_charge(&mut self, device: u64, bucket: u64) -> Result<()> {
        if !self.devices.contains_key(&device) {
            let mut budget = PrivacyBudget::new(self.allowance);
            budget.draw(self.per_window.value())?;
            self.devices.insert(
                device,
                DeviceLedger {
                    budget,
                    charged: VecDeque::from([bucket]),
                },
            );
            return Ok(());
        }
        let ledger = self.devices.get_mut(&device).expect("device has a ledger");
        if ledger.charged.contains(&bucket) {
            return Ok(());
        }
        let newest = ledger.charged.back().map_or(bucket, |&b| b.max(bucket));
        let oldest_in_horizon = newest.saturating_sub(self.horizon - 1);
        while matches!(ledger.charged.front(), Some(&b) if b < oldest_in_horizon) {
            ledger.charged.pop_front();
            ledger
                .budget
                .release(self.per_window.value())
                .expect("released charge was drawn");
        }
        if bucket < oldest_in_horizon {
            return Ok(());
        }
        ledger.budget.draw(self.per_window.value())?;
        let pos = ledger.charged.partition_point(|&b| b < bucket);
        ledger.charged.insert(pos, bucket);
        Ok(())
    }

    fn spent(&self, device: u64) -> f64 {
        self.devices.get(&device).map_or(0.0, |l| l.budget.spent())
    }

    fn devices(&self) -> usize {
        self.devices.len()
    }
}

/// Turns raw draws into `(device, bucket)` charges around a moving
/// event-time cursor that starts at bucket 0 (so saturating horizon
/// arithmetic near zero is exercised too).
fn charges(ops: &[u64], horizon: u64) -> Vec<(u64, u64)> {
    let mut now = 0u64;
    let mut last = vec![0u64; DEVICES as usize];
    let mut out = Vec::with_capacity(ops.len());
    for &raw in ops {
        let device = raw % DEVICES;
        let value = raw >> 16;
        let bucket = match (raw >> 8) % 8 {
            // Steady traffic: the cursor creeps forward.
            0..=3 => {
                now += value % 3;
                now
            }
            // A quiet gap, up to three horizons long.
            4 => {
                now += value % (3 * horizon + 1);
                now
            }
            // A straggler: in horizon or older than all of it.
            5 => now.saturating_sub(value % (2 * horizon + 2)),
            // A repeat of this device's last charged bucket.
            6 => last[device as usize],
            // Out of order around the cursor.
            _ => (now + value % (horizon + 1)).saturating_sub(horizon / 2),
        };
        last[device as usize] = bucket;
        out.push((device, bucket));
    }
    out
}

fn agree(horizon: usize, per_window: f64, mult: f64, ops: &[u64]) {
    let per_window = Epsilon::new(per_window).unwrap();
    let allowance = Epsilon::new(per_window.value() * mult).unwrap();
    let mut fast = LongitudinalAccountant::new(allowance, per_window, horizon).unwrap();
    let mut reference = ReferenceAccountant::new(allowance, per_window, horizon);
    for (step, (device, bucket)) in charges(ops, horizon as u64).into_iter().enumerate() {
        let at = format!("h={horizon} ε={per_window} allowance={allowance} step {step}: charge({device}, {bucket})");
        match (
            fast.try_charge(device, bucket),
            reference.try_charge(device, bucket),
        ) {
            (Ok(()), Ok(())) => {}
            (
                Err(LdpError::BudgetExhausted {
                    requested,
                    remaining,
                }),
                Err(LdpError::BudgetExhausted {
                    requested: ref_requested,
                    remaining: ref_remaining,
                }),
            ) => {
                assert_eq!(requested, ref_requested, "{at}");
                assert!((remaining - ref_remaining).abs() < 1e-9, "{at}");
            }
            (got, want) => panic!("{at}: got {got:?}, reference {want:?}"),
        }
        for d in 0..DEVICES {
            let (got, want) = (fast.spent(d), reference.spent(d));
            assert!(
                (got - want).abs() < 1e-9,
                "{at}: spent({d}) {got} vs {want}"
            );
        }
        assert_eq!(fast.devices(), reference.devices(), "{at}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bitset_accountant_matches_the_float_budget_reference(
        mult_idx in 0usize..ALLOWANCE_MULT.len(),
        ops in proptest::collection::vec(any::<u64>(), 1..300),
    ) {
        for horizon in HORIZONS {
            for per_window in PER_WINDOW {
                agree(horizon, per_window, ALLOWANCE_MULT[mult_idx], &ops);
            }
        }
    }
}

/// Every allowance multiple on one long steady trace per device, so
/// each cap is reached, throttles, and recovers as charges scroll out.
#[test]
fn steady_traffic_throttles_identically_at_every_allowance() {
    let ops: Vec<u64> = (0..2_000u64)
        .map(|i| (i % DEVICES) | (i % 3) << 16)
        .collect();
    for mult in ALLOWANCE_MULT {
        for horizon in HORIZONS {
            for per_window in PER_WINDOW {
                agree(horizon, per_window, mult, &ops);
            }
        }
    }
}
