//! Quickstart: configure a polymorphic block by hand, simulate it, and
//! round-trip its 128-bit configuration image.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use polymorphic_hw::prelude::*;

fn main() {
    // 1. A 2×1 fabric. Block (0,0) computes two product terms over its
    //    west-edge inputs; block (1,0) NANDs them into a sum-of-products.
    let mut fabric = Fabric::new(2, 1);
    {
        let b = fabric.block_mut(0, 0);
        b.set_term(0, &[0, 1]); // (i0·i1)'
        b.drivers[0] = OutMode::Buf;
        b.set_term(1, &[2, 3]); // (i2·i3)'
        b.drivers[1] = OutMode::Buf;
    }
    {
        let b = fabric.block_mut(1, 0);
        b.set_term(0, &[0, 1]); // NAND of the two NANDs = OR of products
        b.drivers[0] = OutMode::Buf;
    }
    println!(
        "fabric: {}x{} blocks, {} config bits total",
        fabric.width(),
        fabric.height(),
        fabric.config_bits()
    );
    println!(
        "active leaf cells: {} (unused cells are simply not instantiated)",
        fabric.active_cells()
    );

    // 2. Elaborate to a gate-level netlist and run it.
    let elab = elaborate(&fabric, &FabricTiming::default());
    println!(
        "elaborated: {} nets, {} components",
        elab.netlist.net_count(),
        elab.netlist.comp_count()
    );

    println!("\n f = i0·i1 + i2·i3");
    println!(" i0 i1 i2 i3 | f");
    for m in 0..16u64 {
        let mut sim = Simulator::new(&elab.netlist);
        for i in 0..4 {
            sim.drive(elab.vlane(0, 0, i), Logic::from_bool(m >> i & 1 == 1));
        }
        sim.settle(100_000).expect("combinational logic settles");
        let f = sim.value(elab.vlane(2, 0, 0));
        let bit = |i: u64| m >> i & 1;
        println!("  {}  {}  {}  {} | {}", bit(0), bit(1), bit(2), bit(3), f);
    }

    // 3. The whole configuration is a bitstream (128 bits per block).
    let bits = fabric.to_bitstream();
    println!("\nbitstream: {} bytes ({} per block + 12 header)", bits.len(), 16);
    let restored = Fabric::from_bitstream(&bits).expect("round trip");
    assert_eq!(restored, fabric);
    println!("bitstream round-trip OK");
}
