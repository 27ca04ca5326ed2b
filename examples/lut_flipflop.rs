//! Paper Fig. 9: a 3-LUT computing `x + y + z` feeding an edge-triggered
//! D flip-flop with asynchronous clear — the canonical FPGA functional
//! pathway, rebuilt from nothing but polymorphic NAND blocks.
//!
//! ```sh
//! cargo run --example lut_flipflop
//! ```

use polymorphic_hw::prelude::*;

fn main() {
    // LUT tile (3 blocks) and DFF tile (5 blocks) side by side; the LUT
    // output is routed to the flip-flop's D input by a feed-through block
    // configured as interconnect — "the same components … used
    // interchangeably for logic and interconnection".
    let mut fabric = Fabric::new(10, 2);
    let tt = TruthTable::from_fn(3, |m| m != 0); // x + y + z
    let lut = lut3(&mut fabric, 0, 0, &tt).expect("lut fits");
    let ff = dff(&mut fabric, 4, 0).expect("dff fits");

    // LUT output (east of block 2) already abuts the DFF's input boundary
    // (west of block 4)? No — one column apart; bridge it with the router.
    let mut router = Router::new();
    router.occupy_all(&lut.footprint);
    router.occupy_all(&ff.footprint);
    let hop = router
        .route(&mut fabric, lut.output, PortLoc { lane: 0, ..ff.d }, &[0])
        .expect("one feed-through block");
    println!("router used {} interconnect block(s): {:?}", hop.len(), hop);
    println!(
        "total: {} active cells across {} used blocks",
        fabric.active_cells(),
        fabric.used_blocks()
    );

    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut sim = Simulator::new(&elab.netlist);
    let x = lut.inputs[0].net(&elab);
    let y = lut.inputs[1].net(&elab);
    let z = lut.inputs[2].net(&elab);
    let clk = ff.clk.net(&elab);
    let rst = ff.reset_n.net(&elab);
    let q = ff.q.net(&elab);

    let settle = |sim: &mut Simulator| sim.settle(5_000_000).expect("settles");

    // reset
    for (n, v) in
        [(x, Logic::L0), (y, Logic::L0), (z, Logic::L0), (clk, Logic::L0), (rst, Logic::L0)]
    {
        sim.drive(n, v);
    }
    settle(&mut sim);
    sim.drive(rst, Logic::L1);
    settle(&mut sim);
    println!("\nafter reset: Q = {}", sim.value(q));

    println!("\n x y z | LUT | Q after clock edge");
    for m in [0b001u64, 0b000, 0b110, 0b000, 0b111] {
        sim.drive(x, Logic::from_bool(m & 1 == 1));
        sim.drive(y, Logic::from_bool(m >> 1 & 1 == 1));
        sim.drive(z, Logic::from_bool(m >> 2 & 1 == 1));
        settle(&mut sim);
        let lut_val = sim.value(lut.output.net(&elab));
        sim.drive(clk, Logic::L1);
        settle(&mut sim);
        sim.drive(clk, Logic::L0);
        settle(&mut sim);
        println!(" {} {} {} |  {}  | {}", m & 1, m >> 1 & 1, m >> 2 & 1, lut_val, sim.value(q));
        assert_eq!(sim.value(q), Logic::from_bool(m != 0), "Q captured the LUT value");
    }

    // asynchronous clear mid-flight
    sim.drive(rst, Logic::L0);
    settle(&mut sim);
    println!("\nasync clear: Q = {}", sim.value(q));
    assert_eq!(sim.value(q), Logic::L0);
}
