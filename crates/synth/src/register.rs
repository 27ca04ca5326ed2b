//! Multi-bit registers: shift registers and registered pipelines composed
//! from the flip-flop tile plus routed stage-to-stage connections — the
//! "logic cells as interconnect" glue in a bigger structure.

use crate::route::Router;
use crate::seq::{dff, DffPorts};
use crate::tile::{MapError, PortLoc};
use pmorph_core::Fabric;

/// Ports of an n-stage shift register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShiftRegisterPorts {
    /// Serial data input (stage 0's D).
    pub din: PortLoc,
    /// Per-stage clock ports (drive together).
    pub clk: Vec<PortLoc>,
    /// Per-stage active-low clear ports (drive together).
    pub reset_n: Vec<PortLoc>,
    /// Per-stage outputs.
    pub q: Vec<PortLoc>,
    /// All per-stage flip-flop port blocks.
    pub stages: Vec<DffPorts>,
    /// Occupied blocks (tiles + routing).
    pub footprint: Vec<(usize, usize)>,
}

/// Build an `n`-stage shift register in one row starting at `(x, y)`:
/// each stage is a 5-block DFF tile followed by one feed-through block
/// that shuffles the stage's Q (east lane 2) onto the next stage's D
/// (west lane 0). Total width: `6n − 1` blocks.
pub fn shift_register(
    fabric: &mut Fabric,
    x: usize,
    y: usize,
    n: usize,
) -> Result<ShiftRegisterPorts, MapError> {
    assert!(n >= 1);
    if x + 6 * n - 1 > fabric.width() || y >= fabric.height() {
        return Err(MapError::OutOfRoom);
    }
    let mut router = Router::new();
    let mut stages = Vec::with_capacity(n);
    let mut footprint = Vec::new();
    for i in 0..n {
        let fx = x + 6 * i;
        let ports = dff(fabric, fx, y)?;
        router.occupy_all(&ports.footprint);
        footprint.extend_from_slice(&ports.footprint);
        if i > 0 {
            // previous Q (east lane2 of the previous tile) → this D
            // (west lane0): one shuffling feed-through block between them.
            let prev: &DffPorts = &stages[i - 1];
            let blocks = router.route_mapped(
                fabric,
                prev.q,
                PortLoc { lane: 0, ..ports.d },
                &[(prev.q.lane, 0)],
            )?;
            footprint.extend_from_slice(&blocks);
        }
        stages.push(ports);
    }
    Ok(ShiftRegisterPorts {
        din: stages[0].d,
        clk: stages.iter().map(|s| s.clk).collect(),
        reset_n: stages.iter().map(|s| s.reset_n).collect(),
        q: stages.iter().map(|s| s.q).collect(),
        stages,
        footprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_core::{elaborate::elaborate, FabricTiming};
    use pmorph_sim::{Logic, Simulator};

    const SETTLE: u64 = 20_000_000;

    struct Harness {
        sim: Simulator,
        din: pmorph_sim::NetId,
        clk: Vec<pmorph_sim::NetId>,
        rst: Vec<pmorph_sim::NetId>,
        q: Vec<pmorph_sim::NetId>,
    }

    fn build(n: usize) -> Harness {
        let mut fabric = Fabric::new(6 * n, 1);
        let p = shift_register(&mut fabric, 0, 0, n).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut h = Harness {
            din: p.din.net(&elab),
            clk: p.clk.iter().map(|c| c.net(&elab)).collect(),
            rst: p.reset_n.iter().map(|r| r.net(&elab)).collect(),
            q: p.q.iter().map(|q| q.net(&elab)).collect(),
            sim: Simulator::new(&elab.netlist),
        };
        // reset all stages
        h.sim.drive(h.din, Logic::L0);
        for i in 0..n {
            h.sim.drive(h.clk[i], Logic::L0);
            h.sim.drive(h.rst[i], Logic::L0);
        }
        h.sim.settle(SETTLE).unwrap();
        for i in 0..n {
            h.sim.drive(h.rst[i], Logic::L1);
        }
        h.sim.settle(SETTLE).unwrap();
        h
    }

    impl Harness {
        fn tick(&mut self, bit: bool) {
            self.sim.drive(self.din, Logic::from_bool(bit));
            self.sim.settle(SETTLE).unwrap();
            for &c in &self.clk {
                self.sim.drive(c, Logic::L1);
            }
            self.sim.settle(SETTLE).unwrap();
            for &c in &self.clk {
                self.sim.drive(c, Logic::L0);
            }
            self.sim.settle(SETTLE).unwrap();
        }

        fn state(&self) -> Vec<Option<bool>> {
            self.q.iter().map(|&q| self.sim.value(q).to_bool()).collect()
        }
    }

    #[test]
    fn four_stage_shift_pattern() {
        let mut h = build(4);
        assert_eq!(h.state(), vec![Some(false); 4], "cleared");
        let pattern = [true, false, true, true];
        for &b in &pattern {
            h.tick(b);
        }
        // after 4 ticks, stage i holds pattern[3 - i] (newest at stage 0)
        let want: Vec<Option<bool>> = (0..4).map(|i| Some(pattern[3 - i])).collect();
        assert_eq!(h.state(), want);
        // shift two zeros through: stages now hold (newest first)
        // [0, 0, pattern[3], pattern[2]] = [0, 0, 1, 1]
        h.tick(false);
        h.tick(false);
        assert_eq!(h.state(), vec![Some(false), Some(false), Some(true), Some(true)]);
    }

    #[test]
    fn single_stage_is_a_dff() {
        let mut h = build(1);
        h.tick(true);
        assert_eq!(h.state(), vec![Some(true)]);
        h.tick(false);
        assert_eq!(h.state(), vec![Some(false)]);
    }

    #[test]
    fn long_register_conserves_stream() {
        use pmorph_util::rng::Rng;
        use pmorph_util::rng::StdRng;
        let n = 6;
        let mut h = build(n);
        let mut rng = StdRng::seed_from_u64(0x5417);
        let stream: Vec<bool> = (0..12).map(|_| rng.random()).collect();
        let mut outputs = Vec::new();
        for &b in &stream {
            outputs.push(h.state()[n - 1]);
            h.tick(b);
        }
        // the register delays the stream by n ticks
        for (i, &b) in stream.iter().enumerate().take(stream.len() - n) {
            assert_eq!(outputs[i + n], Some(b), "bit {i} delayed by {n}");
        }
    }

    #[test]
    fn too_small_fabric_rejected() {
        let mut fabric = Fabric::new(4, 1);
        assert!(matches!(shift_register(&mut fabric, 0, 0, 1), Err(MapError::OutOfRoom)));
    }
}
