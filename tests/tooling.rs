//! Tooling integration: VCD export, ASCII layout rendering, trace
//! measurement and static timing — the debugging/analysis surface a
//! downstream user of the library actually touches.

use polymorphic_hw::fabric::render;
use polymorphic_hw::pmorph_core::elaborate::elaborate;
use polymorphic_hw::prelude::*;
use polymorphic_hw::sim::{measure, timing, vcd};

#[test]
fn vcd_of_a_running_accumulator_is_well_formed() {
    let acc = Accumulator::build(2).unwrap();
    let mut sim = acc.elaborate(&FabricTiming::default());
    for &q in &sim.q.clone() {
        sim.sim.watch(q);
    }
    sim.reset();
    sim.step(1);
    sim.step(2);
    let nets = sim.q.clone();
    let doc = vcd::dump_vcd(&sim.sim, &sim.netlist, &nets, "accumulator");
    assert!(doc.contains("$timescale 1ps $end"));
    assert!(doc.contains("$enddefinitions $end"));
    // at least one timestamped change per register
    assert!(doc.matches('#').count() >= 2, "{doc}");
    for code in ["$var wire 1 ! ", "$var wire 1 \" "] {
        assert!(doc.contains(code), "two vars declared: {doc}");
    }
}

#[test]
fn render_shows_the_fig9_tile_structure() {
    let mut fabric = Fabric::new(10, 1);
    let tt = TruthTable::from_fn(3, |m| m != 0);
    let lut = lut3(&mut fabric, 0, 0, &tt).unwrap();
    let ff = dff(&mut fabric, 4, 0).unwrap();
    let mut router = Router::new();
    router.occupy_all(&lut.footprint);
    router.occupy_all(&ff.footprint);
    router.route(&mut fabric, lut.output, PortLoc { lane: 0, ..ff.d }, &[0]).unwrap();
    let summary = render::render_summary(&fabric);
    // 9 configured blocks flowing east + 1 dormant
    assert_eq!(summary.matches('→').count(), 9, "{summary}");
    assert!(summary.contains("···"), "one dormant block remains: {summary}");
    let detail = render::render_block(&fabric, 1, 0);
    assert!(detail.contains("buf") || detail.contains("inv"), "{detail}");
    assert!(detail.chars().filter(|&c| c == 'A').count() >= 3, "{detail}");
}

#[test]
fn measure_extracts_fabric_ring_oscillator_period() {
    // In-fabric gated ring (as in the router test), measured with the
    // trace utilities instead of hand-rolled loops.
    let mut fabric = Fabric::new(3, 2);
    {
        let b = fabric.block_mut(1, 0);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        b.set_term(0, &[0, 1]);
        b.drivers[0] = OutMode::Buf;
    }
    let mut router = Router::new();
    router.occupy(1, 0);
    let src = PortLoc::new(1, 0, Edge::East, 0);
    let dst = PortLoc::new(1, 0, Edge::West, 0);
    router.route_mapped(&mut fabric, src, dst, &[(0, 0)]).unwrap();
    let t = FabricTiming::default();
    let elab = elaborate(&fabric, &t);
    let mut sim = Simulator::new(&elab.netlist);
    let en = PortLoc::new(1, 0, Edge::West, 1).net(&elab);
    sim.drive(en, Logic::L0);
    sim.settle(1_000_000).unwrap();
    let probe = src.net(&elab);
    sim.watch(probe);
    sim.drive(en, Logic::L1);
    sim.run_until(50_000, 50_000_000).unwrap();
    let period = measure::steady_period(sim.trace(probe), 4).expect("oscillates");
    // loop = 1 NAND block + 5 routing blocks; every hop is NAND+driver.
    let expect = 2 * t.block_hop_ps() * 6;
    assert_eq!(period, expect, "ring period from first principles");
    let duty = measure::duty_cycle(sim.trace(probe)).unwrap();
    assert!((duty - 0.5).abs() < 0.1, "symmetric ring: duty {duty}");
}

#[test]
fn sta_on_the_lut_tile_matches_structure() {
    let mut fabric = Fabric::new(4, 1);
    lut3(&mut fabric, 0, 0, &TruthTable::parity(3)).unwrap();
    let t = FabricTiming::default();
    let elab = elaborate(&fabric, &t);
    let (report, loops) = timing::analyze(&elab.netlist);
    assert!(!loops);
    // polarity + products + sum = 3 block hops
    assert_eq!(report.critical_ps, 3 * t.block_hop_ps());
    assert!(report.critical_path.len() >= 4);
}
