//! Elaboration: configured fabric → flat `pmorph-sim` netlist.
//!
//! Net inventory:
//!
//! * one net per **boundary lane** — vertical boundaries `(x, y, lane)` for
//!   `x ∈ 0..=W` sit between block columns `x−1` and `x`; horizontal
//!   boundaries for `y ∈ 0..=H` likewise. Perimeter boundaries are the
//!   fabric's primary I/O;
//! * two **lfb** nets per block;
//! * one shared logic-1 net (the `InputSource::One` tie).
//!
//! Component inventory per block, *only for configured resources* (the
//! paper's area story — unused components are simply not instantiated):
//!
//! * a NAND gate per live product term (or a constant driver for killed
//!   terms that still have an active output driver),
//! * an inverter / buffer / pass-buffer per enabled output driver.
//!
//! Lanes driven by two blocks resolve through the kernel's wired logic —
//! [`Elaborated::multiply_driven_lanes`] reports them so mapping tools can
//! flag contention.

use crate::array::Fabric;
use crate::config::{Edge, InputSource, OutMode, OutputDest, LANES};
use crate::delay::FabricTiming;
use pmorph_device::CellMode;
use pmorph_sim::{Component, Logic, NetId, Netlist};

/// The result of elaborating a [`Fabric`].
#[derive(Clone, Debug)]
pub struct Elaborated {
    /// The generated netlist (finalized).
    pub netlist: Netlist,
    width: usize,
    height: usize,
    /// `vbound[(x * height + y) * LANES + lane]`, x ∈ 0..=W.
    vbound: Vec<NetId>,
    /// `hbound[(y * width + x) * LANES + lane]`... indexed y ∈ 0..=H.
    hbound: Vec<NetId>,
    /// `lfb[(y * width + x) * 2 + k]`.
    lfb: Vec<NetId>,
    /// Shared constant-one net.
    pub one: NetId,
}

impl Elaborated {
    /// Net of a vertical boundary lane: `x ∈ 0..=W` (0 = west perimeter),
    /// `y ∈ 0..H`.
    pub fn vlane(&self, x: usize, y: usize, lane: usize) -> NetId {
        assert!(x <= self.width && y < self.height && lane < LANES);
        self.vbound[(x * self.height + y) * LANES + lane]
    }

    /// Net of a horizontal boundary lane: `y ∈ 0..=H` (0 = north
    /// perimeter), `x ∈ 0..W`.
    pub fn hlane(&self, x: usize, y: usize, lane: usize) -> NetId {
        assert!(y <= self.height && x < self.width && lane < LANES);
        self.hbound[(y * self.width + x) * LANES + lane]
    }

    /// Net on a given edge of block `(x, y)`.
    pub fn edge_lane(&self, x: usize, y: usize, edge: Edge, lane: usize) -> NetId {
        match edge {
            Edge::West => self.vlane(x, y, lane),
            Edge::East => self.vlane(x + 1, y, lane),
            Edge::North => self.hlane(x, y, lane),
            Edge::South => self.hlane(x, y + 1, lane),
        }
    }

    /// A block's local feedback net.
    pub fn lfb(&self, x: usize, y: usize, k: usize) -> NetId {
        assert!(x < self.width && y < self.height && k < 2);
        self.lfb[(y * self.width + x) * 2 + k]
    }

    /// Insert a buffered connection `from → to` after elaboration.
    ///
    /// Stands in for a return-path of feed-through blocks when a macro's
    /// feedback loop would otherwise need a long routed detour (e.g. the
    /// accumulator's register→adder rails). The pure-fabric equivalent is
    /// demonstrated by `pmorph-synth`'s routed-ring tests; this shortcut
    /// keeps large datapath experiments compact. The delay models the
    /// return path (`delay_ps` ≈ blocks × hop delay). The netlist is
    /// already finalized, so adding the buffer appends its fan-out and
    /// driver entries in place: no rebuild per stitch.
    pub fn stitch(&mut self, from: NetId, to: NetId, delay_ps: u64) {
        if from == to {
            return; // already the same boundary: direct abutment
        }
        self.netlist.add_comp(Component::Buf { input: from, output: to }, delay_ps.max(1));
    }

    /// Boundary lanes with more than one driver (potential contention).
    pub fn multiply_driven_lanes(&self) -> Vec<NetId> {
        self.vbound
            .iter()
            .chain(self.hbound.iter())
            .copied()
            .filter(|n| self.netlist.nets[n.0 as usize].drivers.len() > 1)
            .collect()
    }
}

/// Elaborate a fabric with the given timing parameters.
pub fn elaborate(fabric: &Fabric, timing: &FabricTiming) -> Elaborated {
    let (w, h) = (fabric.width(), fabric.height());
    let mut nl = Netlist::new();

    let mut vbound = Vec::with_capacity((w + 1) * h * LANES);
    for x in 0..=w {
        for y in 0..h {
            for lane in 0..LANES {
                vbound.push(nl.add_net(format!("vb_x{x}_y{y}_l{lane}")));
            }
        }
    }
    let mut hbound = Vec::with_capacity(w * (h + 1) * LANES);
    for y in 0..=h {
        for x in 0..w {
            for lane in 0..LANES {
                hbound.push(nl.add_net(format!("hb_x{x}_y{y}_l{lane}")));
            }
        }
    }
    let mut lfb = Vec::with_capacity(w * h * 2);
    for y in 0..h {
        for x in 0..w {
            for k in 0..2 {
                lfb.push(nl.add_net(format!("lfb_x{x}_y{y}_{k}")));
            }
        }
    }
    let one = nl.add_net("const_one");
    nl.add_comp(Component::Const { value: Logic::L1, output: one }, 1);

    let mut elab = Elaborated { netlist: nl, width: w, height: h, vbound, hbound, lfb, one };

    for y in 0..h {
        for x in 0..w {
            let cfg = fabric.block(x, y);
            // Resolve input column nets.
            let col_net: Vec<NetId> = (0..LANES)
                .map(|c| match cfg.inputs[c] {
                    InputSource::EdgeLane => elab.edge_lane(x, y, cfg.input_edge, c),
                    InputSource::Lfb0 => elab.lfb(x, y, 0),
                    InputSource::Lfb1 => elab.lfb(x, y, 1),
                    InputSource::One => elab.one,
                })
                .collect();

            for t in 0..LANES {
                if cfg.drivers[t] == OutMode::Off {
                    continue; // nothing downstream: don't instantiate
                }
                let term_net = elab.netlist.add_net(format!("term_x{x}_y{y}_{t}"));
                let killed = cfg.crosspoints[t].contains(&CellMode::StuckOff);
                if killed {
                    elab.netlist
                        .add_comp(Component::Const { value: Logic::L1, output: term_net }, 1);
                } else {
                    let inputs: Vec<NetId> = (0..LANES)
                        .filter(|c| cfg.crosspoints[t][*c] == CellMode::Active)
                        .map(|c| col_net[c])
                        .collect();
                    elab.netlist
                        .add_comp(Component::Nand { inputs, output: term_net }, timing.nand_ps);
                }
                let dest = match cfg.dests[t] {
                    OutputDest::EdgeLane => elab.edge_lane(x, y, cfg.output_edge, t),
                    OutputDest::AltEdgeLane => elab.edge_lane(x, y, cfg.alt_edge, t),
                    OutputDest::Lfb0 => elab.lfb(x, y, 0),
                    OutputDest::Lfb1 => elab.lfb(x, y, 1),
                };
                match cfg.drivers[t] {
                    OutMode::Off => unreachable!(),
                    OutMode::Inv => {
                        elab.netlist.add_comp(
                            Component::Inv { input: term_net, output: dest },
                            timing.driver_ps,
                        );
                    }
                    OutMode::Buf => {
                        elab.netlist.add_comp(
                            Component::Buf { input: term_net, output: dest },
                            timing.driver_ps,
                        );
                    }
                    OutMode::Pass => {
                        elab.netlist.add_comp(
                            Component::Buf { input: term_net, output: dest },
                            timing.pass_ps,
                        );
                    }
                }
            }
        }
    }
    elab.netlist.finalize();
    elab
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BlockConfig;
    use pmorph_sim::Simulator;

    fn timing() -> FabricTiming {
        FabricTiming::default()
    }

    #[test]
    fn single_block_nand_matches_block_eval() {
        let mut f = Fabric::new(1, 1);
        let b = f.block_mut(0, 0);
        b.set_term(0, &[0, 1, 2]);
        b.drivers[0] = OutMode::Buf;
        let elab = elaborate(&f, &timing());
        for bits in 0..8u8 {
            let mut sim = Simulator::new(&elab.netlist);
            for c in 0..3 {
                sim.drive(elab.vlane(0, 0, c), Logic::from_bool(bits >> c & 1 == 1));
            }
            sim.settle(100_000).unwrap();
            let want = Logic::from_bool(bits & 0b111 != 0b111);
            assert_eq!(sim.value(elab.vlane(1, 0, 0)), want, "bits={bits:03b}");
        }
    }

    #[test]
    fn dormant_blocks_produce_no_components() {
        let f = Fabric::new(4, 4);
        let elab = elaborate(&f, &timing());
        // Only the constant-one driver exists.
        assert_eq!(elab.netlist.comp_count(), 1);
    }

    #[test]
    fn feedthrough_chain_accumulates_delay() {
        // Three W→E blocks, lane 2 buffered straight through.
        let mut f = Fabric::new(3, 1);
        for x in 0..3 {
            let b = f.block_mut(x, 0);
            b.set_term(2, &[2]);
            b.drivers[2] = OutMode::Inv; // NAND+Inv = net buffer per block
        }
        let elab = elaborate(&f, &timing());
        let t = timing();
        let mut sim = Simulator::new(&elab.netlist);
        let input = elab.vlane(0, 0, 2);
        let output = elab.vlane(3, 0, 2);
        sim.drive(input, Logic::L0);
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(output), Logic::L0);
        sim.watch(output);
        let t0 = sim.time();
        sim.drive(input, Logic::L1);
        sim.settle(1_000_000).unwrap();
        let tr = sim.trace(output);
        let expect = 3 * (t.nand_ps + t.driver_ps);
        assert_eq!(tr.last().unwrap(), &(t0 + expect, Logic::L1));
    }

    #[test]
    fn corner_turn_west_to_south() {
        let mut f = Fabric::new(1, 1);
        let b = f.block_mut(0, 0);
        b.input_edge = Edge::West;
        b.output_edge = Edge::South;
        b.set_term(4, &[4]);
        b.drivers[4] = OutMode::Inv;
        let elab = elaborate(&f, &timing());
        let mut sim = Simulator::new(&elab.netlist);
        sim.drive(elab.vlane(0, 0, 4), Logic::L1);
        sim.settle(100_000).unwrap();
        assert_eq!(
            sim.value(elab.hlane(0, 1, 4)),
            Logic::L1,
            "inverted twice? no: NAND(1)=0, Inv→1"
        );
    }

    #[test]
    fn lfb_sr_latch_holds_state_in_time_domain() {
        // Cross-coupled NAND pair on the lfb lines (see block.rs test), with
        // buffered copies pushed out east on lanes 0 and 1.
        let mut f = Fabric::new(1, 1);
        let b = f.block_mut(0, 0);
        b.inputs[2] = InputSource::Lfb1;
        b.inputs[3] = InputSource::Lfb0;
        b.set_term(0, &[0, 2]);
        b.drivers[0] = OutMode::Buf;
        b.dests[0] = OutputDest::Lfb0;
        b.set_term(1, &[1, 3]);
        b.drivers[1] = OutMode::Buf;
        b.dests[1] = OutputDest::Lfb1;
        // observers
        b.inputs[4] = InputSource::Lfb0;
        b.set_term(2, &[4]);
        b.drivers[2] = OutMode::Inv; // east lane2 = lfb0
        let elab = elaborate(&f, &timing());
        let mut sim = Simulator::new(&elab.netlist);
        let s = elab.vlane(0, 0, 0);
        let r = elab.vlane(0, 0, 1);
        let q = elab.vlane(1, 0, 2);
        // set (S̄=0), then release to hold
        sim.drive(s, Logic::L0);
        sim.drive(r, Logic::L1);
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(q), Logic::L1, "set");
        sim.drive(s, Logic::L1);
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(q), Logic::L1, "hold after set");
        sim.drive(r, Logic::L0);
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(q), Logic::L0, "reset");
        sim.drive(r, Logic::L1);
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(q), Logic::L0, "hold after reset");
    }

    #[test]
    fn multiply_driven_lane_detected() {
        let mut f = Fabric::new(2, 1);
        // Both blocks drive the boundary between them, head-on.
        {
            let b = f.block_mut(0, 0); // flows W→E: drives vlane(1,0,·)
            b.set_term(0, &[0]);
            b.drivers[0] = OutMode::Buf;
        }
        {
            let b = f.block_mut(1, 0);
            b.input_edge = Edge::East;
            b.output_edge = Edge::West; // drives vlane(1,0,·) too
            b.set_term(0, &[0]);
            b.drivers[0] = OutMode::Buf;
        }
        let elab = elaborate(&f, &timing());
        assert_eq!(elab.multiply_driven_lanes().len(), 1);
    }

    #[test]
    fn stitch_onto_a_driven_lane_is_reported() {
        // Block (0,0) drives vlane(1,0,0); a stitch buffer then drives the
        // same lane from the fabric's west perimeter.
        let mut f = Fabric::new(1, 1);
        let b = f.block_mut(0, 0);
        b.set_term(0, &[0]);
        b.drivers[0] = OutMode::Buf;
        let mut elab = elaborate(&f, &timing());
        let lane = elab.vlane(1, 0, 0);
        assert!(elab.multiply_driven_lanes().is_empty());
        elab.stitch(elab.vlane(0, 0, 1), lane, 10);
        assert_eq!(elab.multiply_driven_lanes(), vec![lane]);
        // The in-place tables equal a full rebuild.
        let mut rebuilt = elab.netlist.clone();
        rebuilt.finalize();
        for (got, want) in elab.netlist.nets.iter().zip(&rebuilt.nets) {
            assert_eq!((&got.fanout, &got.drivers), (&want.fanout, &want.drivers));
        }
    }

    #[test]
    fn input_source_one_ties_high() {
        let mut f = Fabric::new(1, 1);
        let b = f.block_mut(0, 0);
        b.inputs[0] = InputSource::One;
        b.set_term(0, &[0]);
        b.drivers[0] = OutMode::Buf; // NAND(1) = 0
        let elab = elaborate(&f, &timing());
        let mut sim = Simulator::new(&elab.netlist);
        sim.settle(100_000).unwrap();
        assert_eq!(sim.value(elab.vlane(1, 0, 0)), Logic::L0);
    }

    #[test]
    fn default_block_is_default_config() {
        assert_eq!(Fabric::new(1, 1).block(0, 0), &BlockConfig::default());
    }
}
