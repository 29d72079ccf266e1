//! The `Lat_com` communication model (§III-E), its fabrics, and NoP
//! congestion (δ).
//!
//! [`McmConfig::transfer_with_delta`] prices every transfer in one
//! `match`: same chiplet, same package, or off-chip, under the package's
//! fabric. The default fabric is the electrical one of Table II. An
//! attached [`InterconnectSpec`] adds a priced inter-MCM tier
//! ([`McmConfig::inter_mcm_transfer`]) that fleet dispatch charges stream
//! migrations through:
//!
//! * [`InterconnectSpec::nop`] leaves on-package and off-chip pricing
//!   untouched and prices a package-to-package transfer as two DRAM-class
//!   SerDes crossings (write out of one package, read into the other).
//! * [`InterconnectSpec::wireless`] is a what-if fabric from the wireless
//!   multi-chip interconnect literature (Irabor et al., Musavi et al.): a
//!   single-hop shared medium with flat latency (no per-hop charge, no
//!   routing) and less bandwidth than wired NoP. It prices on-package
//!   transfers and the walk to the DRAM port too, so schedules shift.
//!
//! Without a spec (the default everywhere) the inter-MCM tier is free and,
//! because fingerprints fold the spec in only when present, schedule-cache
//! fingerprints are unchanged.

use crate::config::{McmConfig, OffchipConfig};
use crate::topology::ChipletId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A data location: on a chiplet or in off-chip DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Loc {
    /// On-package, in the L2 of the given chiplet.
    Chiplet(ChipletId),
    /// In off-chip DRAM (reached through the nearest side interface).
    Offchip,
}

/// Latency and energy of one data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CommCost {
    /// Transfer latency in seconds.
    pub time_s: f64,
    /// Transfer energy in joules.
    pub energy_j: f64,
}

impl CommCost {
    /// The zero-cost transfer (same-chiplet case of `Lat_com`).
    pub const ZERO: CommCost = CommCost {
        time_s: 0.0,
        energy_j: 0.0,
    };
}

/// Bandwidth / latency / energy of one point-to-point fabric link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricParams {
    /// Link bandwidth in bytes/s.
    pub bw_bytes_per_s: f64,
    /// Flat per-transfer latency in seconds (setup + flight, no per-hop
    /// term — fabrics with hop structure fold it in themselves).
    pub latency_s: f64,
    /// Transfer energy in pJ/byte.
    pub energy_pj_per_byte: f64,
}

impl FabricParams {
    /// Transfer cost of `bytes` over this link.
    pub fn transfer(&self, bytes: u64) -> CommCost {
        let b = bytes as f64;
        CommCost {
            time_s: b / self.bw_bytes_per_s + self.latency_s,
            energy_j: b * self.energy_pj_per_byte * 1e-12,
        }
    }
}

/// Which fabric family prices the package's links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FabricKind {
    /// Electrical: Table II NoP/DRAM on-package, SerDes between packages.
    Nop,
    /// Wireless single-hop shared medium (Irabor et al. what-if).
    Wireless,
}

/// An inter-MCM interconnect attached to an [`McmConfig`].
///
/// Absent (the default), the package keeps the electrical tiers and a
/// zero-cost inter-MCM tier. Present, `kind` selects the fabric family
/// and `params` prices the inter-MCM link; [`FabricKind::Wireless`]
/// additionally swaps the *on-package* NoP pricing for the wireless
/// medium, so schedules themselves shift — a deliberate what-if.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Fabric family.
    pub kind: FabricKind,
    /// Inter-MCM link parameters (and, for wireless, the on-package
    /// medium too).
    pub params: FabricParams,
}

impl InterconnectSpec {
    /// The electrical inter-MCM fabric: a package-to-package transfer
    /// crosses two DRAM-class SerDes interfaces (write out, read in), so
    /// bandwidth matches Table II's off-chip 64 GB/s while latency and
    /// energy double.
    pub fn nop() -> Self {
        let off = OffchipConfig::default();
        Self {
            kind: FabricKind::Nop,
            params: FabricParams {
                bw_bytes_per_s: off.bw_bytes_per_s,
                latency_s: 2.0 * off.latency_s,
                energy_pj_per_byte: 2.0 * off.energy_pj_per_byte,
            },
        }
    }

    /// The wireless what-if fabric, parameterized from the wireless
    /// multi-chip interconnect literature: a 160 Gb/s shared medium with a
    /// flat 10 ns flight latency (single hop, no routing) at 1 pJ/bit —
    /// less bandwidth than wired NoP, but distance-flat and identical
    /// on-package and between packages.
    pub fn wireless() -> Self {
        Self {
            kind: FabricKind::Wireless,
            params: FabricParams {
                bw_bytes_per_s: 20e9,
                latency_s: 10e-9,
                energy_pj_per_byte: 1.0 * 8.0,
            },
        }
    }

    /// Short label for reports and artifacts (`"nop"` / `"wireless"`).
    pub fn label(&self) -> &'static str {
        match self.kind {
            FabricKind::Nop => "nop",
            FabricKind::Wireless => "wireless",
        }
    }

    /// Parses a fabric spec as used by `SCAR_FABRIC` /
    /// `SCAR_REPLAY_FABRIC`: `"none"` → `None`, `"nop"` / `"wireless"` →
    /// the corresponding default parameterization.
    ///
    /// # Errors
    ///
    /// Returns the offending spec string when it names no known fabric.
    pub fn parse(spec: &str) -> Result<Option<Self>, String> {
        match spec {
            "none" => Ok(None),
            "nop" => Ok(Some(Self::nop())),
            "wireless" => Ok(Some(Self::wireless())),
            other => Err(format!(
                "unknown fabric {other:?} (expected none|nop|wireless)"
            )),
        }
    }
}

impl McmConfig {
    /// Communication cost of moving `bytes` from `src` to `dst`, following
    /// §III-E's `Lat_com`:
    ///
    /// * same chiplet → 0;
    /// * same package → `bytes/BW_nop + n_hops·Lat_hop + δ`;
    /// * off-chip → `bytes/BW_mem + n_hops·Lat_hop + Lat_mem + δ`
    ///   (`n_hops` to the nearest side interface).
    ///
    /// Under a wireless [`InterconnectSpec`] one flat wireless hop replaces
    /// the NoP walk in both priced cases; the DRAM port stays wired.
    ///
    /// `delta_s` is the NoP-conflict term δ, computed by [`LinkLoads`]
    /// from the full set of concurrent flows (pass `0.0` for an
    /// uncontended estimate).
    pub fn transfer_with_delta(&self, src: Loc, dst: Loc, bytes: u64, delta_s: f64) -> CommCost {
        let b = bytes as f64;
        let (nop, off) = (&self.nop, &self.offchip);
        let wireless = self
            .interconnect()
            .filter(|s| s.kind == FabricKind::Wireless)
            .map(|s| s.params);
        match (src, dst, wireless) {
            (Loc::Chiplet(a), Loc::Chiplet(c), _) if a == c => CommCost::ZERO,
            // data already resident off-chip: nothing moves
            (Loc::Offchip, Loc::Offchip, _) => CommCost::ZERO,
            (Loc::Chiplet(a), Loc::Chiplet(c), None) => {
                let hops = self.topology().hops(a, c) as f64;
                CommCost {
                    time_s: b / nop.bw_bytes_per_s + hops * nop.hop_latency_s + delta_s,
                    energy_j: b * hops * nop.energy_pj_per_byte_hop * 1e-12,
                }
            }
            (Loc::Chiplet(a), Loc::Offchip, None) | (Loc::Offchip, Loc::Chiplet(a), None) => {
                let hops = self.nearest_interface(a).1 as f64;
                CommCost {
                    time_s: b / off.bw_bytes_per_s
                        + hops * nop.hop_latency_s
                        + off.latency_s
                        + delta_s,
                    energy_j: b
                        * (off.energy_pj_per_byte + hops * nop.energy_pj_per_byte_hop)
                        * 1e-12,
                }
            }
            // a single-hop broadcast medium: hop count is irrelevant
            (Loc::Chiplet(_), Loc::Chiplet(_), Some(link)) => CommCost {
                time_s: b / link.bw_bytes_per_s + link.latency_s + delta_s,
                energy_j: b * link.energy_pj_per_byte * 1e-12,
            },
            // the wireless hop replaces the NoP walk to the interface;
            // the DRAM port itself stays wired
            (_, _, Some(link)) => CommCost {
                time_s: b / off.bw_bytes_per_s + link.latency_s + off.latency_s + delta_s,
                energy_j: b * (off.energy_pj_per_byte + link.energy_pj_per_byte) * 1e-12,
            },
        }
    }

    /// [`McmConfig::transfer_with_delta`] with δ = 0.
    pub fn transfer(&self, src: Loc, dst: Loc, bytes: u64) -> CommCost {
        self.transfer_with_delta(src, dst, bytes, 0.0)
    }

    /// Cost of pulling `bytes` into this package from a peer MCM over the
    /// attached [`InterconnectSpec`]'s link. Zero when no fabric is
    /// attached.
    pub fn inter_mcm_transfer(&self, bytes: u64) -> CommCost {
        self.interconnect()
            .map_or(CommCost::ZERO, |s| s.params.transfer(bytes))
    }
}

/// Link-level NoP traffic accounting for the δ congestion term.
///
/// The scheduler registers every flow of a time window, then asks for each
/// flow's δ: the serialization delay induced by *other* traffic crossing
/// the flow's busiest shared link (plus DRAM-port sharing for off-chip
/// flows). This is a store-and-forward queuing approximation — coarse, but
/// it penalizes schedules that funnel concurrent models through the same
/// interposer links, which is the behaviour the paper's δ exists to model.
#[derive(Debug, Clone)]
pub struct LinkLoads<'a> {
    mcm: &'a McmConfig,
    link_bytes: HashMap<(ChipletId, ChipletId), f64>,
    dram_bytes: f64,
}

impl<'a> LinkLoads<'a> {
    /// Creates an empty traffic ledger for `mcm`.
    pub fn new(mcm: &'a McmConfig) -> Self {
        Self {
            mcm,
            link_bytes: HashMap::new(),
            dram_bytes: 0.0,
        }
    }

    fn route_of(&self, src: Loc, dst: Loc) -> Vec<(ChipletId, ChipletId)> {
        let topo = self.mcm.topology();
        match (src, dst) {
            (Loc::Chiplet(a), Loc::Chiplet(b)) => topo.route_links(a, b),
            (Loc::Chiplet(a), Loc::Offchip) => {
                let (itf, _) = self.mcm.nearest_interface(a);
                topo.route_links(a, itf)
            }
            (Loc::Offchip, Loc::Chiplet(a)) => {
                let (itf, _) = self.mcm.nearest_interface(a);
                topo.route_links(itf, a)
            }
            (Loc::Offchip, Loc::Offchip) => Vec::new(),
        }
    }

    /// Registers a flow of `bytes` from `src` to `dst`.
    pub fn record(&mut self, src: Loc, dst: Loc, bytes: u64) {
        for link in self.route_of(src, dst) {
            *self.link_bytes.entry(link).or_insert(0.0) += bytes as f64;
        }
        if matches!(src, Loc::Offchip) || matches!(dst, Loc::Offchip) {
            self.dram_bytes += bytes as f64;
        }
    }

    /// The δ term for a flow: waiting time behind other traffic on the
    /// flow's busiest link, plus its share of DRAM-port queuing when the
    /// flow touches off-chip memory.
    pub fn delta_for(&self, src: Loc, dst: Loc, bytes: u64) -> f64 {
        let b = bytes as f64;
        let busiest = self
            .route_of(src, dst)
            .iter()
            .map(|l| self.link_bytes.get(l).copied().unwrap_or(0.0))
            .fold(0.0_f64, f64::max);
        let mut delta = (busiest - b).max(0.0) / self.mcm.nop.bw_bytes_per_s;
        if matches!(src, Loc::Offchip) || matches!(dst, Loc::Offchip) {
            delta += (self.dram_bytes - b).max(0.0) / self.mcm.offchip.bw_bytes_per_s;
        }
        delta
    }

    /// Total bytes recorded against off-chip DRAM.
    pub fn dram_bytes(&self) -> f64 {
        self.dram_bytes
    }

    /// Bytes crossing the busiest single NoP link.
    pub fn max_link_bytes(&self) -> f64 {
        self.link_bytes.values().fold(0.0_f64, |a, &b| a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{het_sides_3x3, Profile};

    fn mcm() -> McmConfig {
        het_sides_3x3(Profile::Datacenter)
    }

    #[test]
    fn same_chiplet_is_free() {
        let m = mcm();
        assert_eq!(
            m.transfer(Loc::Chiplet(4), Loc::Chiplet(4), 1 << 20),
            CommCost::ZERO
        );
        assert_eq!(
            m.transfer(Loc::Offchip, Loc::Offchip, 1 << 20),
            CommCost::ZERO
        );
    }

    #[test]
    fn nop_latency_matches_formula() {
        let m = mcm();
        let bytes = 1_000_000u64;
        let c = m.transfer(Loc::Chiplet(0), Loc::Chiplet(8), bytes);
        let expect = bytes as f64 / 100e9 + 4.0 * 35e-9;
        assert!((c.time_s - expect).abs() < 1e-12);
        let e_expect = bytes as f64 * 4.0 * 16.32e-12;
        assert!((c.energy_j - e_expect).abs() < 1e-15);
    }

    #[test]
    fn offchip_includes_dram_latency() {
        let m = mcm();
        let bytes = 64_000u64;
        // chiplet 4 (center) is 1 hop from a side interface
        let c = m.transfer(Loc::Offchip, Loc::Chiplet(4), bytes);
        let expect = bytes as f64 / 64e9 + 1.0 * 35e-9 + 200e-9;
        assert!(
            (c.time_s - expect).abs() < 1e-12,
            "{} vs {expect}",
            c.time_s
        );
    }

    #[test]
    fn offchip_energy_dominates_nop_energy() {
        let m = mcm();
        let b = 1 << 20;
        let on = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), b);
        let off = m.transfer(Loc::Chiplet(0), Loc::Offchip, b);
        assert!(off.energy_j > on.energy_j * 5.0);
    }

    #[test]
    fn more_hops_cost_more() {
        let m = mcm();
        let b = 1 << 16;
        let near = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), b);
        let far = m.transfer(Loc::Chiplet(0), Loc::Chiplet(8), b);
        assert!(far.time_s > near.time_s);
        assert!(far.energy_j > near.energy_j);
    }

    #[test]
    fn delta_grows_with_contention() {
        let m = mcm();
        let mut loads = LinkLoads::new(&m);
        let b = 10_000_000u64;
        loads.record(Loc::Chiplet(0), Loc::Chiplet(2), b);
        let before = loads.delta_for(Loc::Chiplet(0), Loc::Chiplet(2), b);
        assert_eq!(before, 0.0); // alone on its route
                                 // a second flow sharing link (1,2)
        loads.record(Loc::Chiplet(1), Loc::Chiplet(2), b);
        let after = loads.delta_for(Loc::Chiplet(0), Loc::Chiplet(2), b);
        assert!(after > 0.0);
    }

    #[test]
    fn dram_port_is_shared() {
        let m = mcm();
        let mut loads = LinkLoads::new(&m);
        let b = 50_000_000u64;
        loads.record(Loc::Offchip, Loc::Chiplet(0), b);
        loads.record(Loc::Offchip, Loc::Chiplet(8), b);
        // disjoint NoP routes, but both queue at DRAM
        let d = loads.delta_for(Loc::Offchip, Loc::Chiplet(0), b);
        assert!((d - b as f64 / 64e9).abs() < 1e-9, "{d}");
        assert_eq!(loads.dram_bytes(), 2.0 * b as f64);
    }

    #[test]
    fn wireless_is_hop_flat() {
        let m = mcm().with_interconnect(Some(InterconnectSpec::wireless()));
        let b = 1 << 20;
        let near = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), b);
        let far = m.transfer(Loc::Chiplet(0), Loc::Chiplet(8), b);
        assert_eq!(near, far, "wireless charges no per-hop term");
        // and the inter-MCM tier prices exactly like one on-package hop
        assert!((m.inter_mcm_transfer(b).time_s - near.time_s).abs() < 1e-15);
    }

    #[test]
    fn nop_inter_mcm_is_two_serdes_crossings() {
        let m = mcm().with_interconnect(Some(InterconnectSpec::nop()));
        let c = m.inter_mcm_transfer(64_000);
        assert!((c.time_s - (64_000.0 / 64e9 + 400e-9)).abs() < 1e-12);
        assert!((c.energy_j - 64_000.0 * 236.8e-12).abs() < 1e-15);
    }

    #[test]
    fn spec_parses_and_labels() {
        assert_eq!(InterconnectSpec::parse("none").unwrap(), None);
        let nop = InterconnectSpec::parse("nop").unwrap().unwrap();
        assert_eq!(nop, InterconnectSpec::nop());
        assert_eq!(nop.label(), "nop");
        let w = InterconnectSpec::parse("wireless").unwrap().unwrap();
        assert_eq!(w.label(), "wireless");
        assert!(InterconnectSpec::parse("optical").is_err());
        assert!(InterconnectSpec::parse("").is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        for spec in [InterconnectSpec::nop(), InterconnectSpec::wireless()] {
            let json = serde::write_compact(&spec.to_value());
            let v = serde::parse_value(&json).unwrap();
            let back = InterconnectSpec::from_value(&v).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn transfer_scales_linearly_in_bytes() {
        let m = mcm();
        let small = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), 1000);
        let large = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), 100_000);
        assert!(large.energy_j > small.energy_j * 90.0);
    }
}
