//! Bit-serial arithmetic (paper §4/§5 future-work hypothesis).
//!
//! > "…alternative techniques such as bit-serial arithmetic and
//! > asynchronous logic design may offer equivalent or better performance
//! > at these dimensions."
//!
//! A bit-serial adder is one full-adder cell pair plus a carry flip-flop:
//! operands stream LSB-first, one bit per clock. Against an n-bit parallel
//! ripple adder it trades n× the cycles for 1/n the area — and when wire
//! delay dominates (small, local cells vs a long ripple chain) the cycle
//! time stays constant while the parallel adder's settle time grows with
//! n. The study bench (E17) sweeps this trade-off.

use crate::adder::{ripple_adder, AdderPorts};
use crate::seq::{dff, DffPorts};
use crate::tile::MapError;
use pmorph_core::{elaborate::elaborate, Elaborated, Fabric, FabricTiming};
use pmorph_sim::{Logic, NetId, Simulator};

/// A built bit-serial adder.
pub struct BitSerialAdder {
    /// The configured fabric (1 adder bit + 1 carry register).
    pub fabric: Fabric,
    adder: AdderPorts,
    carry_ff: DffPorts,
}

/// Runtime handle.
pub struct BitSerialSim {
    sim: Simulator,
    a: (NetId, NetId),
    b: (NetId, NetId),
    clk: NetId,
    reset_n: NetId,
    sum: NetId,
}

impl BitSerialAdder {
    /// Build the serial adder: one adder pair at `(0, 0..1)`, carry DFF at
    /// `(1..6, 0)` (row 0, clear of the sum tap on row 1), with carry-out
    /// stitched into the carry register and the registered carry stitched
    /// back to the pair's carry-in rails.
    pub fn build() -> Result<Self, MapError> {
        let mut fabric = Fabric::new(6, 2);
        let adder = ripple_adder(&mut fabric, 0, 0, 1)?;
        let carry_ff = dff(&mut fabric, 1, 0)?;
        Ok(BitSerialAdder { fabric, adder, carry_ff })
    }

    /// Blocks occupied — the serial adder's area story.
    pub fn footprint_blocks(&self) -> usize {
        self.adder.footprint.len() + self.carry_ff.footprint.len()
    }

    /// Elaborate into a runnable simulator.
    pub fn elaborate(&self, timing: &FabricTiming) -> BitSerialSim {
        let mut elab: Elaborated = elaborate(&self.fabric, timing);
        let hop = timing.block_hop_ps();
        // cout → carry register D; registered Q → cin rails.
        elab.stitch(self.adder.cout.0.net(&elab), self.carry_ff.d.net(&elab), hop);
        elab.stitch(self.carry_ff.q.net(&elab), self.adder.cin.0.net(&elab), hop * 2);
        elab.stitch(self.carry_ff.qn.net(&elab), self.adder.cin.1.net(&elab), hop * 2);
        let sim = Simulator::new(&elab.netlist);
        BitSerialSim {
            sim,
            a: (self.adder.a[0].0.net(&elab), self.adder.a[0].1.net(&elab)),
            b: (self.adder.b[0].0.net(&elab), self.adder.b[0].1.net(&elab)),
            clk: self.carry_ff.clk.net(&elab),
            reset_n: self.carry_ff.reset_n.net(&elab),
            sum: self.adder.sum[0].net(&elab),
        }
    }
}

impl BitSerialSim {
    const SETTLE: u64 = 10_000_000;

    fn drive_pair(&mut self, rails: (NetId, NetId), v: bool) {
        self.sim.drive(rails.0, Logic::from_bool(v));
        self.sim.drive(rails.1, Logic::from_bool(!v));
    }

    /// Serially add two `n_bits` operands (LSB first); returns the full
    /// `n_bits + 1` result.
    pub fn add(&mut self, a: u64, b: u64, n_bits: usize) -> Option<u64> {
        // Clear the carry register.
        self.sim.drive(self.clk, Logic::L0);
        self.sim.drive(self.reset_n, Logic::L0);
        self.drive_pair(self.a, false);
        self.drive_pair(self.b, false);
        self.sim.settle(Self::SETTLE).ok()?;
        self.sim.drive(self.reset_n, Logic::L1);
        self.sim.settle(Self::SETTLE).ok()?;

        let mut result = 0u64;
        for i in 0..n_bits {
            self.drive_pair(self.a, a >> i & 1 == 1);
            self.drive_pair(self.b, b >> i & 1 == 1);
            self.sim.settle(Self::SETTLE).ok()?;
            result |= (self.sim.value(self.sum).to_bool()? as u64) << i;
            // Clock the carry into the register for the next bit.
            self.sim.drive(self.clk, Logic::L1);
            self.sim.settle(Self::SETTLE).ok()?;
            self.sim.drive(self.clk, Logic::L0);
            self.sim.settle(Self::SETTLE).ok()?;
        }
        // Final carry: with zero operands the sum output now equals the
        // registered carry.
        self.drive_pair(self.a, false);
        self.drive_pair(self.b, false);
        self.sim.settle(Self::SETTLE).ok()?;
        result |= (self.sim.value(self.sum).to_bool()? as u64) << n_bits;
        Some(result)
    }
}

/// Analytic comparison for the E17 study: `(serial_blocks,
/// parallel_blocks, serial_time_ps, parallel_time_ps)` for an `n`-bit add.
pub fn serial_vs_parallel(n: usize, timing: &FabricTiming) -> (usize, usize, u64, u64) {
    let serial_blocks = 2 + 5; // adder pair + carry DFF
    let parallel_blocks = 2 * n;
    // Serial cycle: sum settle (2 hops) + register capture (≈5 hops).
    let cycle = timing.block_hop_ps() * 7;
    let serial_time = cycle * n as u64;
    // Parallel: carry ripples through n combine blocks.
    let parallel_time = timing.block_hop_ps() * (n as u64 + 1);
    (serial_blocks, parallel_blocks, serial_time, parallel_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_add_exhaustive_3bit() {
        let builder = BitSerialAdder::build().unwrap();
        let mut sim = builder.elaborate(&FabricTiming::default());
        for a in 0..8u64 {
            for b in 0..8u64 {
                assert_eq!(sim.add(a, b, 3), Some(a + b), "{a}+{b}");
            }
        }
    }

    #[test]
    fn serial_add_wide_random() {
        use pmorph_util::rng::Rng;
        use pmorph_util::rng::StdRng;
        let builder = BitSerialAdder::build().unwrap();
        let mut sim = builder.elaborate(&FabricTiming::default());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let a = rng.random::<u64>() & 0xFFF;
            let b = rng.random::<u64>() & 0xFFF;
            assert_eq!(sim.add(a, b, 12), Some(a + b), "{a}+{b}");
        }
    }

    #[test]
    fn area_time_tradeoff_shape() {
        let t = FabricTiming::default();
        let (sb, pb, st, pt) = serial_vs_parallel(32, &t);
        assert!(sb < pb, "serial is smaller: {sb} vs {pb}");
        assert!(st > pt, "serial is slower at n=32: {st} vs {pt}");
        // Area×time products converge within an order of magnitude.
        let serial_at = sb as u64 * st;
        let parallel_at = pb as u64 * pt;
        let ratio = serial_at as f64 / parallel_at as f64;
        assert!(ratio < 10.0 && ratio > 0.1, "AT ratio {ratio}");
    }
}
