//! Technology mapping: gate netlists → K-input LUTs + flip-flops.
//!
//! A greedy cone-growing mapper (FlowMap's little sibling): each mapped
//! net gets a cut of ≤ K leaves grown backwards from its driving gate; the
//! LUT truth table is extracted by exhaustive evaluation of the covered
//! cone. Flip-flops map to CLB registers and pack with the LUT feeding
//! them when possible. The output feeds the placement/routing model and
//! the §2.2 utilisation study (how much of each CLB a real mapping leaves
//! idle).

use pmorph_sim::table::WideMask;
use pmorph_sim::{Component, Logic, NetId, Netlist};
use std::collections::HashMap;

/// A mapped K-LUT.
#[derive(Clone, Debug, PartialEq)]
pub struct Lut {
    /// Leaf nets (≤ K), LSB-first in the truth table.
    pub inputs: Vec<NetId>,
    /// Net this LUT drives.
    pub output: NetId,
    /// Truth table over the inputs. Multi-word: a cut wider than 6 leaves
    /// (a single gate can have more inputs than K) no longer overflows
    /// the old `1 << m` single-u64 extraction.
    pub truth: WideMask,
}

/// A mapped flip-flop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MappedFf {
    /// Data net.
    pub d: NetId,
    /// Output net.
    pub q: NetId,
}

/// Complete mapping result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MappedDesign {
    /// LUTs, in reverse-topological discovery order.
    pub luts: Vec<Lut>,
    /// Flip-flops.
    pub ffs: Vec<MappedFf>,
    /// Primary inputs encountered.
    pub inputs: Vec<NetId>,
    /// Requested outputs.
    pub outputs: Vec<NetId>,
}

/// CLB packing statistics for the utilisation study.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackStats {
    /// CLBs instantiated.
    pub clbs: usize,
    /// CLBs using only their LUT (FF idle).
    pub lut_only: usize,
    /// CLBs using only their FF (LUT idle).
    pub ff_only: usize,
    /// CLBs using both.
    pub both: usize,
}

impl PackStats {
    /// Fraction of instantiated CLB component slots (LUT + FF + carry)
    /// left unused — the §2.2 "all logic components must exist, and thus
    /// occupy space, whether they are used … or not".
    pub fn wasted_fraction(&self) -> f64 {
        if self.clbs == 0 {
            return 0.0;
        }
        // three major components per CLB: LUT, FF, carry logic (never
        // used by our circuits, as for most non-arithmetic mappings)
        let total = 3 * self.clbs;
        let used = self.both * 2 + self.lut_only + self.ff_only;
        1.0 - used as f64 / total as f64
    }
}

/// Mapping errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FpgaMapError {
    /// Component kind outside the mappable subset.
    Unsupported(&'static str),
    /// Combinational loop reached the mapper.
    CombinationalLoop(NetId),
}

impl std::fmt::Display for FpgaMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FpgaMapError::Unsupported(k) => write!(f, "unsupported component: {k}"),
            FpgaMapError::CombinationalLoop(n) => write!(f, "combinational loop at net {n:?}"),
        }
    }
}

impl std::error::Error for FpgaMapError {}

struct Mapper<'a> {
    netlist: &'a Netlist,
    k: usize,
    /// driving gate of each net (combinational only)
    driver: HashMap<NetId, usize>,
    /// FF q → d
    ff_of: HashMap<NetId, NetId>,
    mapped: HashMap<NetId, ()>,
    design: MappedDesign,
    visiting: Vec<bool>,
}

impl<'a> Mapper<'a> {
    fn gate_inputs(&self, comp: usize) -> Vec<NetId> {
        self.netlist.comps[comp].inputs().collect()
    }

    fn eval_gate(&self, comp: usize, values: &HashMap<NetId, bool>) -> bool {
        let read = |n: NetId| Logic::from_bool(values[&n]);
        // clone the component for stateless evaluation (combinational only)
        let mut c = self.netlist.comps[comp].clone();
        c.evaluate(read)[0].1.to_bool().expect("combinational gate")
    }

    /// Evaluate the cone rooted at `net` with the cut leaves bound.
    fn eval_cone(&self, net: NetId, leaves: &HashMap<NetId, bool>) -> bool {
        if let Some(v) = leaves.get(&net) {
            return *v;
        }
        let comp = self.driver[&net];
        let mut values = leaves.clone();
        // recursive evaluation with memo into `values`
        fn rec(m: &Mapper, net: NetId, values: &mut HashMap<NetId, bool>) -> bool {
            if let Some(v) = values.get(&net) {
                return *v;
            }
            let comp = m.driver[&net];
            for i in m.gate_inputs(comp) {
                rec(m, i, values);
            }
            let v = m.eval_gate(comp, values);
            values.insert(net, v);
            v
        }
        for i in self.gate_inputs(comp) {
            rec(self, i, &mut values);
        }
        self.eval_gate(comp, &values)
    }

    /// Grow a cut of ≤ k leaves for `net`.
    fn grow_cut(&self, net: NetId) -> Vec<NetId> {
        let mut cut: Vec<NetId> = self.gate_inputs(self.driver[&net]);
        cut.sort_unstable();
        cut.dedup();
        loop {
            let mut best: Option<(usize, Vec<NetId>)> = None;
            for (i, leaf) in cut.iter().enumerate() {
                let Some(&g) = self.driver.get(leaf) else { continue };
                let mut candidate = cut.clone();
                candidate.remove(i);
                candidate.extend(self.gate_inputs(g));
                candidate.sort_unstable();
                candidate.dedup();
                if candidate.len() <= self.k {
                    match &best {
                        Some((_, b)) if b.len() <= candidate.len() => {}
                        _ => best = Some((i, candidate)),
                    }
                }
            }
            match best {
                Some((_, c)) => cut = c,
                None => break,
            }
        }
        cut
    }

    fn map_net(&mut self, net: NetId) -> Result<(), FpgaMapError> {
        if self.mapped.contains_key(&net) {
            return Ok(());
        }
        if self.visiting[net.0 as usize] {
            return Err(FpgaMapError::CombinationalLoop(net));
        }
        if let Some(&d) = self.ff_of.get(&net) {
            self.mapped.insert(net, ());
            self.design.ffs.push(MappedFf { d, q: net });
            return self.map_net(d);
        }
        if !self.driver.contains_key(&net) {
            // primary input
            self.mapped.insert(net, ());
            if !self.design.inputs.contains(&net) {
                self.design.inputs.push(net);
            }
            return Ok(());
        }
        self.visiting[net.0 as usize] = true;
        let cut = self.grow_cut(net);
        // extract truth table — a gate with more inputs than K leaves the
        // cut wider than K, so the table is multi-word, not a bare u64
        // (the old `truth |= 1 << m` panicked in debug at 7 leaves and
        // silently wrapped in release)
        assert!(
            cut.len() <= WideMask::MAX_VARS,
            "cut of {} leaves exceeds the {}-variable table ceiling",
            cut.len(),
            WideMask::MAX_VARS
        );
        let mut truth = WideMask::zero(cut.len());
        for m in 0..(1u64 << cut.len()) {
            let leaves: HashMap<NetId, bool> =
                cut.iter().enumerate().map(|(i, &n)| (n, m >> i & 1 == 1)).collect();
            if self.eval_cone(net, &leaves) {
                truth.set(m, true);
            }
        }
        self.design.luts.push(Lut { inputs: cut.clone(), output: net, truth });
        self.mapped.insert(net, ());
        for leaf in cut {
            self.map_net(leaf)?;
        }
        self.visiting[net.0 as usize] = false;
        Ok(())
    }
}

/// Map the combinational/FF subset of a netlist into K-LUTs, starting
/// from the given output nets.
pub fn tech_map(
    netlist: &Netlist,
    outputs: &[NetId],
    k: usize,
) -> Result<MappedDesign, FpgaMapError> {
    assert!((2..=6).contains(&k));
    let mut driver = HashMap::new();
    let mut ff_of = HashMap::new();
    for (i, comp) in netlist.comps.iter().enumerate() {
        match comp {
            Component::Nand { output, .. }
            | Component::Nor { output, .. }
            | Component::And { output, .. }
            | Component::Or { output, .. }
            | Component::Xor { output, .. }
            | Component::Inv { output, .. }
            | Component::Buf { output, .. } => {
                driver.insert(*output, i);
            }
            Component::Dff { d, q, .. } => {
                ff_of.insert(*q, *d);
            }
            Component::Const { .. } | Component::Clock { .. } | Component::Stimulus { .. } => {}
            _ => return Err(FpgaMapError::Unsupported("analogue/async component")),
        }
    }
    let mut m = Mapper {
        netlist,
        k,
        driver,
        ff_of,
        mapped: HashMap::new(),
        design: MappedDesign { outputs: outputs.to_vec(), ..MappedDesign::default() },
        visiting: vec![false; netlist.net_count()],
    };
    for &o in outputs {
        m.map_net(o)?;
    }
    Ok(m.design)
}

/// Pack a mapped design into CLBs (one LUT + one FF each): an FF shares a
/// CLB with the LUT driving its D input when one exists.
pub fn pack(design: &MappedDesign) -> PackStats {
    let lut_outputs: std::collections::HashSet<NetId> =
        design.luts.iter().map(|l| l.output).collect();
    let mut paired_luts: std::collections::HashSet<NetId> = Default::default();
    let mut stats = PackStats::default();
    for ff in &design.ffs {
        if lut_outputs.contains(&ff.d) && !paired_luts.contains(&ff.d) {
            paired_luts.insert(ff.d);
            stats.both += 1;
        } else {
            stats.ff_only += 1;
        }
    }
    stats.lut_only = design.luts.len() - paired_luts.len();
    stats.clbs = stats.both + stats.ff_only + stats.lut_only;
    stats
}

/// Verify a mapped design against the original netlist on `vectors`
/// random input assignments (combinational designs only).
pub fn verify_mapping(netlist: &Netlist, design: &MappedDesign, seed: u64, vectors: usize) -> bool {
    use pmorph_util::rng::Rng;
    use pmorph_util::rng::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let lut_by_out: HashMap<NetId, &Lut> = design.luts.iter().map(|l| (l.output, l)).collect();

    for _ in 0..vectors {
        let assignment: HashMap<NetId, bool> =
            design.inputs.iter().map(|&n| (n, rng.random())).collect();
        // reference: event-driven simulation
        let mut sim = pmorph_sim::Simulator::new(netlist);
        for (&n, &v) in &assignment {
            sim.drive(n, Logic::from_bool(v));
        }
        if sim.settle(1_000_000).is_err() {
            return false;
        }
        // mapped: evaluate LUT network recursively
        fn eval(
            net: NetId,
            luts: &HashMap<NetId, &Lut>,
            assignment: &HashMap<NetId, bool>,
            memo: &mut HashMap<NetId, bool>,
        ) -> bool {
            if let Some(&v) = assignment.get(&net) {
                return v;
            }
            if let Some(&v) = memo.get(&net) {
                return v;
            }
            let lut = luts[&net];
            let mut idx = 0u64;
            for (i, &inp) in lut.inputs.iter().enumerate() {
                if eval(inp, luts, assignment, memo) {
                    idx |= 1 << i;
                }
            }
            let v = lut.truth.get(idx);
            memo.insert(net, v);
            v
        }
        let mut memo = HashMap::new();
        for &o in &design.outputs {
            let want = sim.value(o).to_bool();
            let got = eval(o, &lut_by_out, &assignment, &mut memo);
            if want != Some(got) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_sim::NetlistBuilder;

    /// 4-NAND XOR: should collapse into a single 4-LUT (2 inputs).
    fn xor_netlist() -> (Netlist, NetId) {
        let mut b = NetlistBuilder::new();
        let x = b.net("x");
        let y = b.net("y");
        let t = b.nand(&[x, y]);
        let u = b.nand(&[x, t]);
        let v = b.nand(&[y, t]);
        let z = b.nand(&[u, v]);
        (b.build(), z)
    }

    #[test]
    fn xor_collapses_to_one_lut() {
        let (nl, z) = xor_netlist();
        let d = tech_map(&nl, &[z], 4).unwrap();
        assert_eq!(d.luts.len(), 1, "4 NANDs in one 4-LUT");
        assert_eq!(d.luts[0].inputs.len(), 2);
        assert!(verify_mapping(&nl, &d, 1, 16));
    }

    #[test]
    fn wide_and_tree_needs_multiple_luts() {
        let mut b = NetlistBuilder::new();
        let ins: Vec<NetId> = (0..9).map(|i| b.net(format!("i{i}"))).collect();
        // balanced AND tree of 2-input ANDs
        let mut level = ins.clone();
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(b.and(&[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        let out = level[0];
        let nl = b.build();
        let d = tech_map(&nl, &[out], 4).unwrap();
        // 9 inputs / 4-LUT: at least 3 LUTs (ceil(8/3))
        assert!(d.luts.len() >= 3, "got {}", d.luts.len());
        assert!(verify_mapping(&nl, &d, 2, 40));
    }

    #[test]
    fn ff_maps_and_packs_with_driver_lut() {
        let mut b = NetlistBuilder::new();
        let x = b.net("x");
        let y = b.net("y");
        let clk = b.net("clk");
        let g = b.and(&[x, y]);
        let q = b.net("q");
        b.dff(g, clk, None, q);
        let nl = b.build();
        let d = tech_map(&nl, &[q], 4).unwrap();
        assert_eq!(d.ffs.len(), 1);
        assert_eq!(d.luts.len(), 1);
        let stats = pack(&d);
        assert_eq!(stats.both, 1, "FF packs with its LUT");
        assert_eq!(stats.clbs, 1);
    }

    #[test]
    fn utilization_waste_measured() {
        // pure combinational: FF slots all idle
        let (nl, z) = xor_netlist();
        let d = tech_map(&nl, &[z], 4).unwrap();
        let stats = pack(&d);
        assert!(stats.wasted_fraction() > 0.5, "{}", stats.wasted_fraction());
    }

    #[test]
    fn six_input_gate_fills_exactly_one_word() {
        // 6 leaves = the full-u64 boundary: the lane mask must be MAX,
        // not the old (1 << 64) - 1 overflow.
        let mut b = NetlistBuilder::new();
        let ins: Vec<NetId> = (0..6).map(|i| b.net(format!("i{i}"))).collect();
        let z = b.and(&ins);
        let nl = b.build();
        let d = tech_map(&nl, &[z], 6).unwrap();
        assert_eq!(d.luts.len(), 1);
        let t = &d.luts[0].truth;
        assert_eq!(t.vars(), 6);
        assert_eq!(t.words().len(), 1);
        assert_eq!(t.count_ones(), 1, "AND: one minterm");
        assert!(t.get(63));
        assert!(verify_mapping(&nl, &d, 7, 32));
    }

    #[test]
    fn seven_input_gate_cut_spans_two_words() {
        // A single gate wider than K: the cut cannot shrink below 7
        // leaves, so extraction must produce a two-word table. The old
        // u64 path panicked in debug (`1 << m` at m ≥ 64) here.
        let mut b = NetlistBuilder::new();
        let ins: Vec<NetId> = (0..7).map(|i| b.net(format!("i{i}"))).collect();
        let z = b.nand(&ins);
        let nl = b.build();
        let d = tech_map(&nl, &[z], 6).unwrap();
        assert_eq!(d.luts.len(), 1);
        let t = &d.luts[0].truth;
        assert_eq!(t.vars(), 7);
        assert_eq!(t.words().len(), 2);
        assert_eq!(t.count_ones(), 127, "NAND: all but the last minterm");
        assert!(!t.get(127) && t.get(126));
        assert!(verify_mapping(&nl, &d, 9, 64));
    }

    #[test]
    fn random_nand_networks_map_correctly() {
        use pmorph_util::rng::Rng;
        use pmorph_util::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(33);
        for trial in 0..10 {
            let mut b = NetlistBuilder::new();
            let mut nets: Vec<NetId> = (0..5).map(|i| b.net(format!("i{i}"))).collect();
            for _ in 0..12 {
                let a = nets[rng.random_range(0..nets.len())];
                let c = nets[rng.random_range(0..nets.len())];
                nets.push(b.nand(&[a, c]));
            }
            let out = *nets.last().unwrap();
            let nl = b.build();
            let d = tech_map(&nl, &[out], 4).unwrap();
            assert!(verify_mapping(&nl, &d, trial, 32), "trial {trial}");
        }
    }
}
