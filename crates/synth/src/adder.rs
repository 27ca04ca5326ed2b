//! The Fig. 10 datapath: ripple-carry adder and accumulator.
//!
//! > "The sharing of terms between the sum and carry allows a full adder
//! > to be implemented in just five terms and if the two horizontal
//! > connections between adjacent cells are used to transfer the ripple
//! > carry between bits of the adder, each bit will fit within one 6-NAND
//! > cell pair."
//!
//! Bit `i` is a vertical cell pair flowing N→S. The **product block**
//! computes exactly five terms:
//!
//! ```text
//! t0=(a·b)'  t1=(a·c)'  t2=(b·c)'  t3=(ā·b̄·c̄)'=a+b+c  t4=(a·b·c)'
//! ```
//!
//! The **combine block** exploits De Morgan sharing: `c̄out = t0·t1·t2`, so
//!
//! ```text
//! s    = (a+b+c)·c̄out + a·b·c = ((t3·t0·t1·t2)' · t4)'   (via lfb)
//! cout = (t0·t1·t2)'
//! ```
//!
//! Carries ripple on lanes 4/5 of the inter-pair boundaries (both
//! polarities, since the next product block needs `c` and `c̄`); sums tap
//! out on the pair's **alternate (east) edge** — the Fig. 7 drivers
//! terminate each NAND line, so a line may exit on either free side.
//!
//! Operand rails `a ā b b̄` are driven onto the free lanes 0–3 of each
//! inter-pair boundary. Physically these are the array's RAM-style
//! bit-line taps (the paper notes the configuration plane doubles as a
//! RAM port); in a larger system they would come from neighbouring
//! register columns exactly as the accumulator below wires them.

use crate::tile::{MapError, PortLoc};
use pmorph_core::{BlockConfig, Edge, Fabric, InputSource, OutMode, OutputDest};

/// Ports of an n-bit ripple-carry adder tile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdderPorts {
    /// Bit count.
    pub n: usize,
    /// Per bit: `(a, ā)` rail ports.
    pub a: Vec<(PortLoc, PortLoc)>,
    /// Per bit: `(b, b̄)` rail ports.
    pub b: Vec<(PortLoc, PortLoc)>,
    /// `(cin, c̄in)` of bit 0.
    pub cin: (PortLoc, PortLoc),
    /// Per-bit sum taps (east side).
    pub sum: Vec<PortLoc>,
    /// `(cout, c̄out)` of the last bit (south side).
    pub cout: (PortLoc, PortLoc),
    /// Occupied blocks.
    pub footprint: Vec<(usize, usize)>,
}

/// Lane assignments on the inter-pair boundaries.
pub const LANE_A: usize = 0;
/// `ā` rail lane.
pub const LANE_AN: usize = 1;
/// `b` rail lane.
pub const LANE_B: usize = 2;
/// `b̄` rail lane.
pub const LANE_BN: usize = 3;
/// Ripple-carry lane.
pub const LANE_C: usize = 4;
/// Complemented ripple-carry lane.
pub const LANE_CN: usize = 5;

/// Build an `n`-bit ripple-carry adder in column `x`, rows `y..y+2n`,
/// flowing north→south. Each bit is one cell pair: 5 product terms + 4
/// combine terms, the paper's budget.
pub fn ripple_adder(
    fabric: &mut Fabric,
    x: usize,
    y: usize,
    n: usize,
) -> Result<AdderPorts, MapError> {
    assert!(n >= 1);
    if x + 1 >= fabric.width() || y + 2 * n > fabric.height() {
        return Err(MapError::OutOfRoom);
    }
    let mut ports = AdderPorts {
        n,
        a: Vec::new(),
        b: Vec::new(),
        cin: (PortLoc::new(x, y, Edge::North, LANE_C), PortLoc::new(x, y, Edge::North, LANE_CN)),
        sum: Vec::new(),
        cout: (
            PortLoc::new(x, y + 2 * n - 1, Edge::South, LANE_C),
            PortLoc::new(x, y + 2 * n - 1, Edge::South, LANE_CN),
        ),
        footprint: Vec::new(),
    };
    for i in 0..n {
        let py = y + 2 * i; // product block row
        let cy = py + 1; // combine block row
        ports.a.push((
            PortLoc::new(x, py, Edge::North, LANE_A),
            PortLoc::new(x, py, Edge::North, LANE_AN),
        ));
        ports.b.push((
            PortLoc::new(x, py, Edge::North, LANE_B),
            PortLoc::new(x, py, Edge::North, LANE_BN),
        ));
        ports.sum.push(PortLoc::new(x, cy, Edge::East, 0));
        ports.footprint.push((x, py));
        ports.footprint.push((x, cy));

        // Product block: the five shared terms.
        {
            let b = fabric.block_mut(x, py);
            *b = BlockConfig::flowing(Edge::North, Edge::South);
            b.set_term(0, &[LANE_A, LANE_B]); // (a·b)'
            b.set_term(1, &[LANE_A, LANE_C]); // (a·c)'
            b.set_term(2, &[LANE_B, LANE_C]); // (b·c)'
            b.set_term(3, &[LANE_AN, LANE_BN, LANE_CN]); // a+b+c
            b.set_term(4, &[LANE_A, LANE_B, LANE_C]); // (a·b·c)'
            for t in 0..5 {
                b.drivers[t] = OutMode::Buf;
            }
        }
        // Combine block.
        {
            let b = fabric.block_mut(x, cy);
            *b = BlockConfig::flowing(Edge::North, Edge::South);
            b.alt_edge = Edge::East;
            b.inputs[5] = InputSource::Lfb0; // P1' = ((a+b+c)·c̄out)'
                                             // t0: sum = (P1'·(abc)')' → east lane 0
            b.set_term(0, &[4, 5]);
            b.drivers[0] = OutMode::Buf;
            b.dests[0] = OutputDest::AltEdgeLane;
            // t1: P1' = (t3·t0·t1·t2)' → lfb0
            b.set_term(1, &[0, 1, 2, 3]);
            b.drivers[1] = OutMode::Buf;
            b.dests[1] = OutputDest::Lfb0;
            // t4: cout = (t0·t1·t2)' → south lane 4
            b.set_term(4, &[0, 1, 2]);
            b.drivers[4] = OutMode::Buf;
            // t5: c̄out → south lane 5
            b.set_term(5, &[0, 1, 2]);
            b.drivers[5] = OutMode::Inv;
        }
    }
    Ok(ports)
}

/// Number of *product terms* each full-adder bit consumes in its product
/// block — the paper's headline "just five terms".
pub const TERMS_PER_BIT: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_core::{elaborate::elaborate, Elaborated, FabricTiming};
    use pmorph_sim::{logic, Logic, Simulator};

    fn build(n: usize) -> (Elaborated, AdderPorts) {
        let mut fabric = Fabric::new(2, 2 * n);
        let ports = ripple_adder(&mut fabric, 0, 0, n).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        (elab, ports)
    }

    fn drive_operands(
        sim: &mut Simulator,
        elab: &Elaborated,
        ports: &AdderPorts,
        a: u64,
        b: u64,
        cin: bool,
    ) {
        for i in 0..ports.n {
            let av = a >> i & 1 == 1;
            let bv = b >> i & 1 == 1;
            sim.drive(ports.a[i].0.net(elab), Logic::from_bool(av));
            sim.drive(ports.a[i].1.net(elab), Logic::from_bool(!av));
            sim.drive(ports.b[i].0.net(elab), Logic::from_bool(bv));
            sim.drive(ports.b[i].1.net(elab), Logic::from_bool(!bv));
        }
        sim.drive(ports.cin.0.net(elab), Logic::from_bool(cin));
        sim.drive(ports.cin.1.net(elab), Logic::from_bool(!cin));
    }

    fn read_result(sim: &Simulator, elab: &Elaborated, ports: &AdderPorts) -> Option<u64> {
        let mut bits: Vec<Logic> = ports.sum.iter().map(|p| sim.value(p.net(elab))).collect();
        bits.push(sim.value(ports.cout.0.net(elab)));
        logic::to_u64(&bits)
    }

    #[test]
    fn one_bit_full_adder_exhaustive() {
        let (elab, ports) = build(1);
        for a in 0..2u64 {
            for b in 0..2u64 {
                for cin in [false, true] {
                    let mut sim = Simulator::new(&elab.netlist);
                    drive_operands(&mut sim, &elab, &ports, a, b, cin);
                    sim.settle(1_000_000).unwrap();
                    let want = a + b + cin as u64;
                    assert_eq!(
                        read_result(&sim, &elab, &ports),
                        Some(want),
                        "a={a} b={b} cin={cin}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_bit_adder_exhaustive() {
        let (elab, ports) = build(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                let mut sim = Simulator::new(&elab.netlist);
                drive_operands(&mut sim, &elab, &ports, a, b, false);
                sim.settle(2_000_000).unwrap();
                assert_eq!(read_result(&sim, &elab, &ports), Some(a + b), "{a}+{b}");
            }
        }
    }

    #[test]
    fn sixteen_bit_adder_random_vectors() {
        use pmorph_util::rng::Rng;
        use pmorph_util::rng::StdRng;
        let (elab, ports) = build(16);
        let mut rng = StdRng::seed_from_u64(0xADDE);
        for _ in 0..40 {
            let a = rng.random::<u64>() & 0xFFFF;
            let b = rng.random::<u64>() & 0xFFFF;
            let cin = rng.random::<bool>();
            let mut sim = Simulator::new(&elab.netlist);
            drive_operands(&mut sim, &elab, &ports, a, b, cin);
            sim.settle(10_000_000).unwrap();
            assert_eq!(read_result(&sim, &elab, &ports), Some(a + b + cin as u64), "{a}+{b}+{cin}");
        }
    }

    #[test]
    fn ripple_delay_grows_linearly() {
        // Worst-case carry propagation: a = all ones, b = 0, toggle cin.
        let measure = |n: usize| -> u64 {
            let (elab, ports) = build(n);
            let mut sim = Simulator::new(&elab.netlist);
            drive_operands(&mut sim, &elab, &ports, (1 << n) - 1, 0, false);
            sim.settle(10_000_000).unwrap();
            let t0 = sim.time();
            sim.drive(ports.cin.0.net(&elab), Logic::L1);
            sim.drive(ports.cin.1.net(&elab), Logic::L0);
            sim.settle(10_000_000).unwrap();
            let cout = sim.value(ports.cout.0.net(&elab));
            assert_eq!(cout, Logic::L1, "carry must ripple out");
            sim.time() - t0
        };
        let d4 = measure(4);
        let d8 = measure(8);
        let d16 = measure(16);
        assert!(d8 > d4 && d16 > d8, "monotone: {d4} {d8} {d16}");
        let per_bit_4_8 = (d8 - d4) / 4;
        let per_bit_8_16 = (d16 - d8) / 8;
        assert_eq!(per_bit_4_8, per_bit_8_16, "linear ripple: {d4} {d8} {d16}");
    }

    #[test]
    fn five_terms_per_bit_budget() {
        // Count the live product terms in a product block.
        let mut fabric = Fabric::new(2, 2);
        ripple_adder(&mut fabric, 0, 0, 1).unwrap();
        let live = (0..6)
            .filter(|t| fabric.block(0, 0).crosspoints[*t].contains(&pmorph_core::CellMode::Active))
            .count();
        assert_eq!(live, TERMS_PER_BIT, "the paper's five-term claim");
    }

    #[test]
    fn too_small_fabric_rejected() {
        let mut fabric = Fabric::new(1, 4);
        assert_eq!(ripple_adder(&mut fabric, 0, 0, 4), Err(MapError::OutOfRoom));
    }
}
