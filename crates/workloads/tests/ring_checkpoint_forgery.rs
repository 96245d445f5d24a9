//! Forged window-ring checkpoints must come back as a ring or a typed
//! error: no count read from the BLOB may size an allocation on its own.

use ldp_core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp_core::snapshot::{state_tag, SNAPSHOT_VERSION};
use ldp_core::wire::{put_uvarint, WireReader};
use ldp_core::LdpError;
use ldp_workloads::window::{WindowConfig, WindowRing};
use ldp_workloads::WireClient;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn olhc() -> ProtocolDescriptor {
    ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(16)
        .epsilon(2.0)
        .cohorts(8)
        .build()
        .unwrap()
}

/// A real checkpoint of a 4-window ring with two live windows.
fn real_checkpoint() -> Vec<u8> {
    let desc = olhc();
    let client = WireClient::from_descriptor(&desc).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 4)).unwrap();
    for t in [0u64, 10] {
        let mut frame = Vec::new();
        client.randomize_item(3, &mut rng, &mut frame).unwrap();
        ring.ingest(t, &frame).unwrap();
    }
    ring.checkpoint()
}

/// Splits a ring BLOB into its payload.
fn payload(blob: &[u8]) -> Vec<u8> {
    let mut r = WireReader::new(blob);
    assert_eq!(r.u8().unwrap(), SNAPSHOT_VERSION);
    assert_eq!(r.u8().unwrap(), state_tag::WINDOW_RING);
    let len = r.uvarint().unwrap() as usize;
    r.bytes(len).unwrap().to_vec()
}

/// Re-frames a payload as a ring BLOB.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = vec![SNAPSHOT_VERSION, state_tag::WINDOW_RING];
    put_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Replaces the one-byte uvarint at `at` with `value`'s encoding.
fn patch_uvarint(payload: &[u8], at: usize, value: u64) -> Vec<u8> {
    assert!(payload[at] < 0x80, "field is a one-byte varint");
    let mut out = payload[..at].to_vec();
    put_uvarint(&mut out, value);
    out.extend_from_slice(&payload[at + 1..]);
    out
}

/// Payload layout: window_len (8), windows (uvarint), decay flag (1),
/// five stats (40), live-window count (uvarint).
const WINDOWS_AT: usize = 8;
const LIVE_COUNT_AT: usize = 8 + 1 + 1 + 40;

#[test]
fn forged_horizon_restores_or_errors_without_aborting() {
    let blob = real_checkpoint();
    let payload = payload(&blob);
    assert_eq!(payload[WINDOWS_AT], 4);
    assert_eq!(payload[LIVE_COUNT_AT], 2);

    // A horizon of 2^40 windows used to reserve 2^40 deque slots.
    let forged = frame(&patch_uvarint(&payload, WINDOWS_AT, 1 << 40));
    match WindowRing::from_checkpoint(&forged) {
        Ok(ring) => {
            assert_eq!(ring.config().windows, 1 << 40);
            assert_eq!(ring.live_windows(), 2);
            assert_eq!(ring.checkpoint(), forged);
        }
        Err(e) => assert!(
            matches!(e, LdpError::Malformed(_) | LdpError::InvalidParameter(_)),
            "{e:?}"
        ),
    }
}

#[test]
fn forged_live_count_is_a_typed_error() {
    let payload = payload(&real_checkpoint());
    // Live-window counts past what the payload holds, up to a forged
    // horizon of the same size (the count may not exceed the horizon).
    for live in [3u64, 1 << 20, 1 << 40] {
        let forged = patch_uvarint(&payload, LIVE_COUNT_AT, live);
        let forged = frame(&patch_uvarint(&forged, WINDOWS_AT, 1 << 40));
        assert!(WindowRing::from_checkpoint(&forged).is_err(), "live={live}");
    }
}

#[test]
fn ring_with_the_largest_horizon_builds_and_ingests() {
    let desc = olhc();
    let client = WireClient::from_descriptor(&desc).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let mut ring = WindowRing::new(&desc, WindowConfig::new(10, usize::MAX)).unwrap();
    let mut frame = Vec::new();
    client.randomize_item(1, &mut rng, &mut frame).unwrap();
    assert!(ring.ingest(5, &frame).unwrap());
    assert!(ring.ingest(25, &frame).unwrap());
    assert_eq!(ring.live_windows(), 3);
    assert_eq!(ring.reports(), 2);
}
