//! Datapath integration: wide adders, the accumulator, bit-serial vs
//! parallel equivalence, and ripple-delay measurement — Fig. 10 end to end.

use pmorph_util::rng::Rng;
use pmorph_util::rng::StdRng;
use polymorphic_hw::pmorph_core::elaborate::elaborate;
use polymorphic_hw::pmorph_core::Elaborated;
use polymorphic_hw::prelude::*;
use polymorphic_hw::synth::AdderPorts;

fn build_adder(n: usize) -> (Elaborated, AdderPorts) {
    let mut fabric = Fabric::new(2, 2 * n);
    let ports = ripple_adder(&mut fabric, 0, 0, n).unwrap();
    let elab = elaborate(&fabric, &FabricTiming::default());
    (elab, ports)
}

fn run_add(elab: &Elaborated, ports: &AdderPorts, a: u64, b: u64, cin: bool) -> u64 {
    let mut sim = Simulator::new(&elab.netlist);
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
    sim.settle(50_000_000).expect("settles");
    let mut bits: Vec<Logic> = ports.sum.iter().map(|p| sim.value(p.net(elab))).collect();
    bits.push(sim.value(ports.cout.0.net(elab)));
    polymorphic_hw::sim::logic::to_u64(&bits).expect("definite result")
}

#[test]
fn twelve_bit_adder_random_vectors() {
    let (elab, ports) = build_adder(12);
    let mut rng = StdRng::seed_from_u64(2024);
    for _ in 0..30 {
        let a = rng.random::<u64>() & 0xFFF;
        let b = rng.random::<u64>() & 0xFFF;
        let cin = rng.random::<bool>();
        assert_eq!(run_add(&elab, &ports, a, b, cin), a + b + cin as u64, "{a}+{b}+{cin}");
    }
}

#[test]
fn adder_edge_cases() {
    let (elab, ports) = build_adder(8);
    for (a, b, cin) in [
        (0u64, 0u64, false),
        (0xFF, 0xFF, true),
        (0xFF, 0, false),
        (0, 0xFF, true),
        (0x80, 0x80, false),
        (0x55, 0xAA, true),
    ] {
        assert_eq!(run_add(&elab, &ports, a, b, cin), a + b + cin as u64);
    }
}

#[test]
fn serial_adder_matches_parallel_adder() {
    let (elab, ports) = build_adder(6);
    let builder = BitSerialAdder::build().unwrap();
    let mut serial = builder.elaborate(&FabricTiming::default());
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..8 {
        let a = rng.random::<u64>() & 0x3F;
        let b = rng.random::<u64>() & 0x3F;
        let par = run_add(&elab, &ports, a, b, false);
        let ser = serial.add(a, b, 6).expect("serial definite");
        assert_eq!(par, ser, "{a}+{b}");
    }
}

#[test]
fn accumulator_long_sequence() {
    let acc = Accumulator::build(6).unwrap();
    let mut sim = acc.elaborate(&FabricTiming::default());
    sim.reset();
    let mut rng = StdRng::seed_from_u64(55);
    let mut model = 0u64;
    for step in 0..20 {
        let add = rng.random::<u64>() & 0x3F;
        model = (model + add) & 0x3F;
        assert_eq!(sim.step(add), Some(model), "step {step}: +{add}");
    }
}

#[test]
fn worst_case_ripple_delay_is_linear_in_width() {
    let measure = |n: usize| -> u64 {
        let (elab, ports) = build_adder(n);
        let mut sim = Simulator::new(&elab.netlist);
        // a = all ones, b = 0; cin toggle propagates through every bit
        for i in 0..n {
            sim.drive(ports.a[i].0.net(&elab), Logic::L1);
            sim.drive(ports.a[i].1.net(&elab), Logic::L0);
            sim.drive(ports.b[i].0.net(&elab), Logic::L0);
            sim.drive(ports.b[i].1.net(&elab), Logic::L1);
        }
        sim.drive(ports.cin.0.net(&elab), Logic::L0);
        sim.drive(ports.cin.1.net(&elab), Logic::L1);
        sim.settle(50_000_000).unwrap();
        let t0 = sim.time();
        sim.drive(ports.cin.0.net(&elab), Logic::L1);
        sim.drive(ports.cin.1.net(&elab), Logic::L0);
        sim.settle(50_000_000).unwrap();
        sim.time() - t0
    };
    let d2 = measure(2);
    let d6 = measure(6);
    let d10 = measure(10);
    let slope_a = (d6 - d2) / 4;
    let slope_b = (d10 - d6) / 4;
    assert_eq!(slope_a, slope_b, "linear ripple: {d2} {d6} {d10}");
    assert!(slope_a > 0);
}
