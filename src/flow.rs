//! The automatic cross-backend flow: any combinational gate netlist →
//! K-LUT network (via the FPGA technology mapper) → polymorphic-fabric
//! tiles, placed and connected without hand layout.
//!
//! This closes the loop the paper leaves implicit: the *same* circuit
//! drives both the conventional-FPGA backend (`pmorph-fpga`) and the
//! fabric backend, so every comparison (area, configuration bits, delay)
//! is between two executable implementations of one design.
//!
//! Each mapped LUT becomes:
//!
//! * a 3-block `lut3` tile when it has ≤ 3 inputs,
//! * a Shannon pair of `lut3` tiles plus a mux tile when it has 4.
//!
//! Net connections between tiles use [`pmorph_core::Elaborated::stitch`]
//! (see DESIGN.md §5 on joins); primary inputs are driven at every
//! consuming tile's boundary taps.

use pmorph_core::elaborate::elaborate;
use pmorph_core::{Elaborated, Fabric, FabricTiming};
use pmorph_fpga::MappedDesign;
use pmorph_sim::{Logic, NetId};
use pmorph_synth::tile::{MapError, PortLoc};
use pmorph_synth::{lut3, TruthTable};
use std::collections::HashMap;

/// A LUT network mapped onto the fabric.
pub struct FabricDesign {
    /// The configured fabric.
    pub fabric: Fabric,
    /// Original-netlist net → fabric output port of the tile computing it.
    pub outputs: HashMap<u32, PortLoc>,
    /// Original primary-input net → every fabric port it must drive.
    pub input_taps: HashMap<u32, Vec<PortLoc>>,
    /// Pending tile-to-tile connections, applied at elaboration.
    pub stitches: Vec<(PortLoc, PortLoc)>,
    /// Fabric blocks spent (tiles only; stitches stand in for routing).
    pub blocks_used: usize,
}

/// Map a (combinational) K≤4-LUT design onto a fresh fabric.
pub fn map_design_to_fabric(design: &MappedDesign) -> Result<FabricDesign, MapError> {
    // Row budget: ≤3-input LUT = 1 row; 4-input = 3 rows (two cofactor
    // tiles + mux).
    let rows: usize = design.luts.iter().map(|l| if l.inputs.len() <= 3 { 1 } else { 3 }).sum();
    let mut fabric = Fabric::new(4, rows.max(1));
    let mut next_row = 0usize;
    let mut out = FabricDesign {
        fabric: Fabric::new(1, 1), // replaced below
        outputs: HashMap::new(),
        input_taps: HashMap::new(),
        stitches: Vec::new(),
        blocks_used: 0,
    };

    // Tile placement. `pending` records (tile input port, source net) so
    // sources mapped later still connect.
    let mut pending: Vec<(PortLoc, NetId)> = Vec::new();
    for lut in &design.luts {
        let k = lut.inputs.len();
        assert!(k <= 4, "tech map was run with K ≤ 4");
        // degenerate 0-input LUTs keep the historical 1-var padded shape
        let tt = if k == 0 {
            TruthTable::from_fn(1, |m| m == 0 && lut.truth.get(0))
        } else {
            TruthTable::from_mask(lut.truth.clone())
        };
        let output_port =
            if k <= 3 {
                let ports = lut3(&mut fabric, 0, next_row, &tt)?;
                next_row += 1;
                out.blocks_used += ports.footprint.len();
                for (i, p) in ports.inputs.iter().enumerate() {
                    pending.push((*p, lut.inputs[i]));
                }
                ports.output
            } else {
                // Shannon on the highest input: two 3-input cofactor tiles
                // plus a mux tile (s̄·f0 + s·f1).
                let f0 = tt.cofactor(3, false);
                let f1 = tt.cofactor(3, true);
                let p0 = lut3(&mut fabric, 0, next_row, &f0)?;
                let p1 = lut3(&mut fabric, 0, next_row + 1, &f1)?;
                let mux_tt = TruthTable::from_fn(3, |m| {
                    if m >> 2 & 1 == 1 {
                        m >> 1 & 1 == 1
                    } else {
                        m & 1 == 1
                    }
                });
                let pm = lut3(&mut fabric, 0, next_row + 2, &mux_tt)?;
                next_row += 3;
                out.blocks_used += p0.footprint.len() + p1.footprint.len() + pm.footprint.len();
                for (i, (a, b)) in p0.inputs.iter().zip(p1.inputs.iter()).enumerate() {
                    pending.push((*a, lut.inputs[i]));
                    pending.push((*b, lut.inputs[i]));
                }
                out.stitches.push((p0.output, pm.inputs[0]));
                out.stitches.push((p1.output, pm.inputs[1]));
                pending.push((pm.inputs[2], lut.inputs[3]));
                pm.output
            };
        out.outputs.insert(lut.output.0, output_port);
    }
    // Resolve pending connections: internal nets become stitches, primary
    // inputs become taps.
    for (port, src) in pending {
        if let Some(&producer) = out.outputs.get(&src.0) {
            out.stitches.push((producer, port));
        } else {
            out.input_taps.entry(src.0).or_default().push(port);
        }
    }
    out.fabric = fabric;
    Ok(out)
}

impl FabricDesign {
    /// Elaborate and apply the stitches.
    pub fn elaborate(&self, timing: &FabricTiming) -> Elaborated {
        let mut elab = elaborate(&self.fabric, timing);
        let hop = timing.block_hop_ps();
        for (from, to) in &self.stitches {
            let f = from.net(&elab);
            let t = to.net(&elab);
            elab.stitch(f, t, hop);
        }
        elab
    }

    /// Evaluate one input assignment (original-netlist input net → value),
    /// returning the value of an original output net.
    pub fn eval(
        &self,
        elab: &Elaborated,
        assignment: &HashMap<u32, bool>,
        output: NetId,
    ) -> Option<bool> {
        let mut sim = pmorph_sim::Simulator::new(&elab.netlist);
        for (net, ports) in &self.input_taps {
            let v = *assignment.get(net)?;
            for p in ports {
                sim.drive(p.net(elab), Logic::from_bool(v));
            }
        }
        sim.settle(20_000_000).ok()?;
        let port = self.outputs.get(&output.0)?;
        sim.value(port.net(elab)).to_bool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_fpga::{circuits, tech_map, verify_mapping};
    use pmorph_util::rng::Rng;
    use pmorph_util::rng::StdRng;

    /// The cross-backend oracle: tech-map a gate netlist, auto-map the LUT
    /// network onto the fabric, and compare both backends against the
    /// original event-driven netlist on random vectors.
    fn check_circuit(c: &circuits::Circuit, vectors: usize, seed: u64) {
        let design = tech_map(&c.netlist, &c.outputs, 4).expect("fpga maps");
        assert!(verify_mapping(&c.netlist, &design, seed, 8), "fpga backend sane");
        let fd = map_design_to_fabric(&design).expect("fabric maps");
        let elab = fd.elaborate(&FabricTiming::default());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..vectors {
            let assignment: HashMap<u32, bool> =
                design.inputs.iter().map(|n| (n.0, rng.random())).collect();
            // reference: simulate the original gate netlist
            let mut sim = pmorph_sim::Simulator::new(&c.netlist);
            for (net, v) in &assignment {
                sim.drive(NetId(*net), Logic::from_bool(*v));
            }
            sim.settle(5_000_000).unwrap();
            for &o in &c.outputs {
                let want = sim.value(o).to_bool();
                let got = fd.eval(&elab, &assignment, o);
                assert_eq!(got, want, "{} output {o:?}", c.name);
            }
        }
    }

    #[test]
    fn parity_tree_cross_backend() {
        check_circuit(&circuits::parity_tree(8), 12, 0xF1);
    }

    #[test]
    fn ripple_adder_gates_cross_backend() {
        check_circuit(&circuits::ripple_adder_gates(3), 12, 0xF2);
    }

    #[test]
    fn four_input_luts_shannon_split() {
        // parity_tree(16) maps with genuine 4-input LUTs, exercising the
        // Shannon path.
        let c = circuits::parity_tree(16);
        let design = tech_map(&c.netlist, &c.outputs, 4).unwrap();
        assert!(design.luts.iter().any(|l| l.inputs.len() == 4), "want at least one 4-LUT");
        check_circuit(&c, 8, 0xF3);
    }

    #[test]
    fn block_accounting_reported() {
        let c = circuits::parity_tree(8);
        let design = tech_map(&c.netlist, &c.outputs, 4).unwrap();
        let fd = map_design_to_fabric(&design).unwrap();
        assert!(fd.blocks_used >= 3 * design.luts.len().min(fd.blocks_used));
        assert!(!fd.input_taps.is_empty());
    }
}
