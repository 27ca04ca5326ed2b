//! Paper Fig. 10: the ripple-carry datapath — five product terms per full
//! adder, one bit per 6-NAND cell pair, carry rippling on the abutted
//! inter-cell lanes — plus the registered accumulator built on top of it.
//!
//! ```sh
//! cargo run --example adder_datapath
//! ```

use polymorphic_hw::pmorph_core::elaborate::elaborate;
use polymorphic_hw::prelude::*;

fn main() {
    // ------------------------------------------------------ 8-bit adder
    let n = 8;
    let mut fabric = Fabric::new(2, 2 * n);
    let adder = ripple_adder(&mut fabric, 0, 0, n).expect("fits");
    println!(
        "{n}-bit ripple adder: {} blocks ({} per bit), {} active cells",
        adder.footprint.len(),
        adder.footprint.len() / n,
        fabric.active_cells()
    );

    let elab = elaborate(&fabric, &FabricTiming::default());
    let drive = |sim: &mut Simulator, a: u64, b: u64| {
        for i in 0..n {
            let av = a >> i & 1 == 1;
            let bv = b >> i & 1 == 1;
            sim.drive(adder.a[i].0.net(&elab), Logic::from_bool(av));
            sim.drive(adder.a[i].1.net(&elab), Logic::from_bool(!av));
            sim.drive(adder.b[i].0.net(&elab), Logic::from_bool(bv));
            sim.drive(adder.b[i].1.net(&elab), Logic::from_bool(!bv));
        }
        sim.drive(adder.cin.0.net(&elab), Logic::L0);
        sim.drive(adder.cin.1.net(&elab), Logic::L1);
    };

    println!("\n   a +   b = fabric (ripple delay)");
    for (a, b) in [(17u64, 5u64), (100, 155), (255, 1), (170, 85)] {
        let mut sim = Simulator::new(&elab.netlist);
        drive(&mut sim, a, b);
        sim.settle(10_000_000).expect("settles");
        let mut bits: Vec<Logic> = adder.sum.iter().map(|p| sim.value(p.net(&elab))).collect();
        bits.push(sim.value(adder.cout.0.net(&elab)));
        let result = polymorphic_hw::sim::logic::to_u64(&bits).expect("definite");
        println!(" {a:3} + {b:3} = {result:3}   (settled at t={} ps)", sim.time());
        assert_eq!(result, a + b);
    }

    // ------------------------------------------------- 8-bit accumulator
    println!("\naccumulator (adder + DFF register + feedback):");
    let acc = Accumulator::build(8).expect("builds");
    println!("  {} fabric blocks ({} adder + {} register)", acc.footprint_blocks(), 2 * 8, 5 * 8);
    let mut sim = acc.elaborate(&FabricTiming::default());
    sim.reset();
    let mut expected = 0u64;
    print!("  acc: 0");
    for add in [10, 20, 30, 55, 77, 200] {
        expected = (expected + add) & 0xFF;
        let got = sim.step(add).expect("definite");
        print!(" -> {got}");
        assert_eq!(got, expected);
    }
    println!("   (mod 256)");
    println!("\nall datapath checks passed");
}
