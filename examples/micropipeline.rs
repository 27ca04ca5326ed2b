//! Paper Figs. 11 & 12: Sutherland micropipeline with event-controlled
//! storage, plus the fabric-mapped C-element and ECSE.
//!
//! ```sh
//! cargo run --example micropipeline
//! ```

use polymorphic_hw::asynchronous::micropipeline;
use polymorphic_hw::pmorph_core::elaborate::elaborate;
use polymorphic_hw::prelude::*;

fn main() {
    // --------------------------------------------- behavioural pipeline
    println!("4-stage, 8-bit two-phase micropipeline (Fig. 11):");
    let mut h = PipelineHarness::new(4, 8, 20);
    let words = [0xDEu64, 0xAD, 0xBE, 0xEF, 0x42];
    let mut got = Vec::new();
    let mut iter = words.iter();
    let mut pending = iter.next();
    while got.len() < words.len() {
        if let Some(&w) = pending {
            if h.can_send() {
                println!("  send  0x{w:02X}");
                h.send(w);
                pending = iter.next();
            }
        }
        if let Some(w) = h.recv() {
            println!("  recv  0x{w:02X}");
            got.push(w);
        }
    }
    assert_eq!(got, words);

    // ------------------------------------------------ cycle-time series
    println!("\nself-timed ring cycle time vs matched delay:");
    for d in [10u64, 20, 40, 80] {
        let cycle = micropipeline::measure_cycle_time(4, d, 5, 5).expect("runs");
        println!("  stage delay {d:3} ps  ->  cycle {cycle} ps");
    }

    // -------------------------------------- fabric-mapped C-element
    println!("\nfabric-mapped Muller C-element (3 NAND blocks):");
    let mut fabric = Fabric::new(3, 1);
    let cp = c_element(&mut fabric, 0, 0).expect("fits");
    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut sim = Simulator::new(&elab.netlist);
    let (a, b, c) = (cp.a.net(&elab), cp.b.net(&elab), cp.c.net(&elab));
    sim.drive(a, Logic::L0);
    sim.drive(b, Logic::L0);
    sim.settle(1_000_000).unwrap();
    for (va, vb) in [(1, 0), (1, 1), (0, 1), (0, 0)] {
        sim.drive(a, Logic::from_bool(va == 1));
        sim.drive(b, Logic::from_bool(vb == 1));
        sim.settle(1_000_000).unwrap();
        println!("  a={va} b={vb}  ->  c={}", sim.value(c));
    }

    // ------------------------------------------- fabric-mapped ECSE
    println!("\nfabric-mapped event-controlled storage element (Fig. 12, 6 blocks):");
    let mut fabric = Fabric::new(6, 1);
    let e = ecse(&mut fabric, 0, 0).expect("fits");
    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut sim = Simulator::new(&elab.netlist);
    let (din, r, ak, z) = (e.din.net(&elab), e.req.net(&elab), e.ack.net(&elab), e.z.net(&elab));
    for (n, v) in [(din, Logic::L0), (r, Logic::L0), (ak, Logic::L0)] {
        sim.drive(n, v);
    }
    sim.settle(2_000_000).unwrap();
    sim.drive(din, Logic::L1);
    sim.settle(2_000_000).unwrap();
    println!("  R==A, din=1        ->  Z={} (transparent)", sim.value(z));
    sim.drive(r, Logic::L1);
    sim.settle(2_000_000).unwrap();
    sim.drive(din, Logic::L0);
    sim.settle(2_000_000).unwrap();
    println!("  R event, din drops ->  Z={} (token held)", sim.value(z));
    sim.drive(ak, Logic::L1);
    sim.settle(2_000_000).unwrap();
    println!("  A event            ->  Z={} (released, follows din)", sim.value(z));
}
