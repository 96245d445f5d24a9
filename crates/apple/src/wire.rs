//! Wire codecs and registry factories for the Apple mechanisms.
//!
//! * [`CmsReport`] travels as `uvarint row | uvarint m | packed sign
//!   bits` (bit set ⇔ `+1`), so an `m = 1024` report costs ~131 bytes
//!   instead of the kilobyte its in-memory `Vec<i8>` occupies.
//! * [`HcmsReport`] travels as `uvarint row | uvarint coeff | sign
//!   byte` — the three numbers the white paper's single-bit protocol
//!   actually transmits.
//!
//! [`register_mechanisms`] plugs [`CmsOracle`] and [`HcmsOracle`]
//! factories into a [`Registry`], making both buildable from a
//! [`ProtocolDescriptor`](ldp_core::protocol::ProtocolDescriptor)
//! (`sketch(k, m)` + `hash_seed` + `domain_size` + `epsilon`).

use crate::cms::{CmsOracle, CmsReport};
use crate::hcms::{HcmsOracle, HcmsReport};
use ldp_core::protocol::{MechanismKind, Registry};
use ldp_core::wire::{
    get_packed_bits, get_sign, packed_bit, put_packed_bits, put_sign, put_uvarint, tag,
    OracleMechanism, WireReader, WireReport,
};
use ldp_core::{LdpError, Result};

impl WireReport for CmsReport {
    const TAG: u8 = tag::APPLE_CMS;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.row as u64);
        put_uvarint(out, self.bits.len() as u64);
        put_packed_bits(out, self.bits.iter().map(|&b| b > 0));
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        let row = r.uvarint()?;
        let row = u32::try_from(row)
            .map_err(|_| LdpError::Malformed(format!("CMS row {row} overflows u32")))?;
        let m = r.uvarint()?;
        let m = usize::try_from(m)
            .map_err(|_| LdpError::Malformed(format!("CMS width {m} overflows usize")))?;
        let bytes = get_packed_bits(r, m)?;
        let bits = (0..m)
            .map(|i| if packed_bit(bytes, i) { 1 } else { -1 })
            .collect();
        Ok(Self { row, bits })
    }
}

impl WireReport for HcmsReport {
    const TAG: u8 = tag::APPLE_HCMS;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.row as u64);
        put_uvarint(out, self.coeff as u64);
        put_sign(out, self.sign);
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        let row = r.uvarint()?;
        let row = u32::try_from(row)
            .map_err(|_| LdpError::Malformed(format!("HCMS row {row} overflows u32")))?;
        let coeff = r.uvarint()?;
        let coeff = u32::try_from(coeff)
            .map_err(|_| LdpError::Malformed(format!("HCMS coeff {coeff} overflows u32")))?;
        Ok(Self {
            row,
            coeff,
            sign: get_sign(r)?,
        })
    }
}

/// Registers the Apple mechanism factories
/// ([`MechanismKind::AppleCms`], [`MechanismKind::AppleHcms`]) into
/// `registry`. Both map the descriptor as: `sketch(k, m)` → sketch
/// shape, `hash_seed` → the deterministic hash-family seed clients and
/// server share, `domain_size` → the enumerable query domain.
pub fn register_mechanisms(registry: &mut Registry) {
    registry.register(MechanismKind::AppleCms, |d| {
        Ok(OracleMechanism(CmsOracle::new(
            d.sketch_rows() as usize,
            d.sketch_width() as usize,
            d.epsilon_checked(),
            d.hash_seed(),
            d.domain_size(),
        )))
    });
    registry.register(MechanismKind::AppleHcms, |d| {
        Ok(OracleMechanism(HcmsOracle::new(
            d.sketch_rows() as usize,
            d.sketch_width() as usize,
            d.epsilon_checked(),
            d.hash_seed(),
            d.domain_size(),
        )))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::wire::{decode_report, encode_report_vec};

    #[test]
    fn cms_report_round_trips() {
        let report = CmsReport {
            row: 3,
            bits: (0..37).map(|i| if i % 5 == 0 { 1 } else { -1 }).collect(),
        };
        let frame = encode_report_vec(&report);
        let back: CmsReport = decode_report(&frame).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn hcms_report_round_trips() {
        for sign in [-1i8, 1] {
            let report = HcmsReport {
                row: 7,
                coeff: 1023,
                sign,
            };
            let back: HcmsReport = decode_report(&encode_report_vec(&report)).unwrap();
            assert_eq!(back, report);
        }
    }
}
