//! Sequential tiles: transparent latch and edge-triggered flip-flop
//! (paper Fig. 9), built from cross-coupled NAND product lines closed
//! through a block's local-feedback (`lfb`) lines.
//!
//! The flip-flop follows the paper's recipe — "standard asynchronous state
//! machine techniques" — as a NAND master–slave with hazard-free gating:
//!
//! ```text
//! master (transparent CLK=0):  g1m=(d·c̄·r̄)'  g2m=(d̄·c̄)'
//!                              y1=(g1m·ȳ1)'   ȳ1=(g2m·y1·r̄)'
//! slave  (transparent CLK=1):  g1s=(y1·c·r̄)'  g2s=(ȳ1·c)'
//!                              q=(g1s·q̄)'     q̄=(g2s·q·r̄)'
//! ```
//!
//! `r̄ = 0` forces every gating output high and both `ȳ1`/`q̄` high, which
//! drives `y1 = q = 0`: a true asynchronous clear. Our conservative
//! mapping spends five blocks per flip-flop (polarity, master gating,
//! master latch, slave gating, slave latch); the paper's hand layout
//! shares rails to reach two cells — the architectural point (state from
//! pure NAND + local feedback) is identical.

use crate::tile::{ft, ft_inv, MapError, PortLoc};
use pmorph_core::{BlockConfig, Edge, Fabric, InputSource, OutMode, OutputDest};

/// Ports of a D latch tile (3 blocks, W→E).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatchPorts {
    /// Data input.
    pub d: PortLoc,
    /// Enable (transparent high).
    pub en: PortLoc,
    /// Latched output.
    pub q: PortLoc,
    /// Complement output.
    pub qn: PortLoc,
    /// Occupied blocks.
    pub footprint: Vec<(usize, usize)>,
}

/// Build a transparent-high D latch at `(x, y)`: 3 blocks.
///
/// West lanes of block `x`: `0 = D`, `1 = EN`.
/// East lanes of block `x+2`: `2 = Q`, `3 = Q̄`.
pub fn d_latch(fabric: &mut Fabric, x: usize, y: usize) -> Result<LatchPorts, MapError> {
    if x + 2 >= fabric.width() || y >= fabric.height() {
        return Err(MapError::OutOfRoom);
    }
    // Block A: g1 = (d·en)', d̄, en feed-through.
    {
        let b = fabric.block_mut(x, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        b.set_term(0, &[0, 1]);
        b.drivers[0] = OutMode::Buf; // lane0 = g1
        ft_inv(b, 1, 0); // lane1 = d̄
        ft(b, 2, 1); // lane2 = en
    }
    // Block B: pass g1, compute g2 = (d̄·en)'.
    {
        let b = fabric.block_mut(x + 1, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        ft(b, 0, 0); // lane0 = g1
        b.set_term(1, &[1, 2]);
        b.drivers[1] = OutMode::Buf; // lane1 = g2
    }
    // Block C: cross-coupled pair on lfb + buffered outputs.
    {
        let b = fabric.block_mut(x + 2, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        b.inputs[2] = InputSource::Lfb0; // q
        b.inputs[3] = InputSource::Lfb1; // q̄
        b.set_term(0, &[0, 3]); // q = (g1·q̄)'
        b.drivers[0] = OutMode::Buf;
        b.dests[0] = OutputDest::Lfb0;
        b.set_term(1, &[1, 2]); // q̄ = (g2·q)'
        b.drivers[1] = OutMode::Buf;
        b.dests[1] = OutputDest::Lfb1;
        ft(b, 2, 2); // lane2 = q
        ft(b, 3, 3); // lane3 = q̄
    }
    Ok(LatchPorts {
        d: PortLoc::new(x, y, Edge::West, 0),
        en: PortLoc::new(x, y, Edge::West, 1),
        q: PortLoc::new(x + 2, y, Edge::East, 2),
        qn: PortLoc::new(x + 2, y, Edge::East, 3),
        footprint: (0..3).map(|i| (x + i, y)).collect(),
    })
}

/// Ports of the edge-triggered D flip-flop tile (5 blocks, W→E).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DffPorts {
    /// Data input.
    pub d: PortLoc,
    /// Clock (rising-edge triggered).
    pub clk: PortLoc,
    /// Asynchronous clear, active low.
    pub reset_n: PortLoc,
    /// Output.
    pub q: PortLoc,
    /// Complement output.
    pub qn: PortLoc,
    /// Occupied blocks.
    pub footprint: Vec<(usize, usize)>,
}

/// Build a rising-edge D flip-flop with asynchronous active-low clear at
/// `(x, y)`: 5 blocks flowing W→E.
///
/// West lanes of block `x`: `0 = D`, `1 = CLK`, `2 = R̄`.
/// East lanes of block `x+4`: `2 = Q`, `3 = Q̄`.
pub fn dff(fabric: &mut Fabric, x: usize, y: usize) -> Result<DffPorts, MapError> {
    if x + 4 >= fabric.width() || y >= fabric.height() {
        return Err(MapError::OutOfRoom);
    }
    // A: polarity rails. east: 0=d̄ 1=d 2=c̄ 3=c 4=r̄
    {
        let b = fabric.block_mut(x, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        ft_inv(b, 0, 0);
        ft(b, 1, 0);
        ft_inv(b, 2, 1);
        ft(b, 3, 1);
        ft(b, 4, 2);
    }
    // B: master gating. east: 0=g1m 1=g2m 3=c 4=r̄
    {
        let b = fabric.block_mut(x + 1, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        b.set_term(0, &[1, 2, 4]); // g1m = (d·c̄·r̄)'
        b.drivers[0] = OutMode::Buf;
        b.set_term(1, &[0, 2]); // g2m = (d̄·c̄)'
        b.drivers[1] = OutMode::Buf;
        ft(b, 3, 3); // c
        ft(b, 4, 4); // r̄
    }
    // C: master latch. east: 2=y1 3=ȳ1 4=c 5=r̄
    {
        let b = fabric.block_mut(x + 2, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        b.inputs[2] = InputSource::Lfb0; // y1
        b.inputs[5] = InputSource::Lfb1; // ȳ1
        b.set_term(0, &[0, 5]); // y1 = (g1m·ȳ1)'
        b.drivers[0] = OutMode::Buf;
        b.dests[0] = OutputDest::Lfb0;
        b.set_term(1, &[1, 2, 4]); // ȳ1 = (g2m·y1·r̄)'  [r̄ from west lane 4]
        b.drivers[1] = OutMode::Buf;
        b.dests[1] = OutputDest::Lfb1;
        ft(b, 2, 2); // y1 out
        ft(b, 3, 5); // ȳ1 out
        ft(b, 4, 3); // c out
        ft(b, 5, 4); // r̄ out
    }
    // D: slave gating. east: 0=g1s 1=g2s 5=r̄
    {
        let b = fabric.block_mut(x + 3, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        b.set_term(0, &[2, 4, 5]); // g1s = (y1·c·r̄)'
        b.drivers[0] = OutMode::Buf;
        b.set_term(1, &[3, 4]); // g2s = (ȳ1·c)'
        b.drivers[1] = OutMode::Buf;
        ft(b, 5, 5); // r̄
    }
    // E: slave latch. east: 2=Q 3=Q̄
    {
        let b = fabric.block_mut(x + 4, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        b.inputs[2] = InputSource::Lfb0; // q
        b.inputs[3] = InputSource::Lfb1; // q̄
        b.set_term(0, &[0, 3]); // q = (g1s·q̄)'
        b.drivers[0] = OutMode::Buf;
        b.dests[0] = OutputDest::Lfb0;
        b.set_term(1, &[1, 2, 5]); // q̄ = (g2s·q·r̄)'
        b.drivers[1] = OutMode::Buf;
        b.dests[1] = OutputDest::Lfb1;
        ft(b, 2, 2); // Q
        ft(b, 3, 3); // Q̄
    }
    Ok(DffPorts {
        d: PortLoc::new(x, y, Edge::West, 0),
        clk: PortLoc::new(x, y, Edge::West, 1),
        reset_n: PortLoc::new(x, y, Edge::West, 2),
        q: PortLoc::new(x + 4, y, Edge::East, 2),
        qn: PortLoc::new(x + 4, y, Edge::East, 3),
        footprint: (0..5).map(|i| (x + i, y)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_core::{elaborate::elaborate, FabricTiming};
    use pmorph_sim::{Logic, Simulator};

    const SETTLE: u64 = 1_000_000;

    #[test]
    fn latch_transparent_then_holds() {
        let mut fabric = Fabric::new(3, 1);
        let p = d_latch(&mut fabric, 0, 0).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(&elab.netlist);
        let (d, en, q, qn) = (p.d.net(&elab), p.en.net(&elab), p.q.net(&elab), p.qn.net(&elab));
        sim.drive(en, Logic::L1);
        sim.drive(d, Logic::L1);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L1, "transparent: q follows d");
        assert_eq!(sim.value(qn), Logic::L0);
        sim.drive(d, Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L0, "still transparent");
        sim.drive(en, Logic::L0);
        sim.settle(SETTLE).unwrap();
        sim.drive(d, Logic::L1);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L0, "opaque: d ignored");
        assert_eq!(sim.value(qn), Logic::L1);
    }

    fn fresh_dff() -> (pmorph_core::Elaborated, DffPorts) {
        let mut fabric = Fabric::new(5, 1);
        let p = dff(&mut fabric, 0, 0).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        (elab, p)
    }

    #[test]
    fn dff_reset_clears() {
        let (elab, p) = fresh_dff();
        let mut sim = Simulator::new(&elab.netlist);
        sim.drive(p.d.net(&elab), Logic::L1);
        sim.drive(p.clk.net(&elab), Logic::L0);
        sim.drive(p.reset_n.net(&elab), Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(p.q.net(&elab)), Logic::L0, "cleared");
        assert_eq!(sim.value(p.qn.net(&elab)), Logic::L1);
    }

    #[test]
    fn dff_captures_on_rising_edge_only() {
        let (elab, p) = fresh_dff();
        let mut sim = Simulator::new(&elab.netlist);
        let (d, c, r, q) = (p.d.net(&elab), p.clk.net(&elab), p.reset_n.net(&elab), p.q.net(&elab));
        // initialise via reset
        sim.drive(d, Logic::L0);
        sim.drive(c, Logic::L0);
        sim.drive(r, Logic::L0);
        sim.settle(SETTLE).unwrap();
        sim.drive(r, Logic::L1);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L0);
        // raise D with clock low: no change
        sim.drive(d, Logic::L1);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L0, "clock low: hold");
        // rising edge captures 1
        sim.drive(c, Logic::L1);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L1, "captured on rising edge");
        // change D while clock high: no change (edge, not level)
        sim.drive(d, Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L1, "clock high: slave holds new d out");
        // falling edge: master re-opens, q unchanged
        sim.drive(c, Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L1, "falling edge: hold");
        // second rising edge captures 0
        sim.drive(c, Logic::L1);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L0, "second edge captures 0");
    }

    #[test]
    fn dff_shifts_through_many_cycles() {
        let (elab, p) = fresh_dff();
        let mut sim = Simulator::new(&elab.netlist);
        let (d, c, r, q) = (p.d.net(&elab), p.clk.net(&elab), p.reset_n.net(&elab), p.q.net(&elab));
        sim.drive(r, Logic::L0);
        sim.drive(c, Logic::L0);
        sim.drive(d, Logic::L0);
        sim.settle(SETTLE).unwrap();
        sim.drive(r, Logic::L1);
        sim.settle(SETTLE).unwrap();
        let pattern = [true, true, false, true, false, false, true, false];
        for &bit in &pattern {
            sim.drive(d, Logic::from_bool(bit));
            sim.settle(SETTLE).unwrap();
            sim.drive(c, Logic::L1);
            sim.settle(SETTLE).unwrap();
            assert_eq!(sim.value(q), Logic::from_bool(bit), "captured {bit}");
            sim.drive(c, Logic::L0);
            sim.settle(SETTLE).unwrap();
            assert_eq!(sim.value(q), Logic::from_bool(bit), "held {bit}");
        }
    }

    #[test]
    fn dff_reset_mid_flight() {
        let (elab, p) = fresh_dff();
        let mut sim = Simulator::new(&elab.netlist);
        let (d, c, r, q) = (p.d.net(&elab), p.clk.net(&elab), p.reset_n.net(&elab), p.q.net(&elab));
        sim.drive(r, Logic::L0);
        sim.drive(c, Logic::L0);
        sim.drive(d, Logic::L1);
        sim.settle(SETTLE).unwrap();
        sim.drive(r, Logic::L1);
        sim.settle(SETTLE).unwrap();
        sim.drive(c, Logic::L1);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L1);
        // async clear with clock high
        sim.drive(r, Logic::L0);
        sim.settle(SETTLE).unwrap();
        assert_eq!(sim.value(q), Logic::L0, "async clear overrides");
    }
}
