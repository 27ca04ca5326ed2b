//! Asynchronous-system integration: stress-tested FIFOs, fabric C-element
//! networks, GALS transfers at randomized clock ratios, and protocol
//! audits with the handshake checkers.

use pmorph_util::rng::Rng;
use pmorph_util::rng::StdRng;
use polymorphic_hw::asynchronous::{
    check_two_phase, handshake, micropipeline, GalsSystem, PipelineHarness,
};
use polymorphic_hw::pmorph_core::elaborate::elaborate;
use polymorphic_hw::prelude::*;

#[test]
fn fifo_random_interleaving_stress() {
    let mut rng = StdRng::seed_from_u64(0xF1F0);
    for trial in 0..3 {
        let stages = 2 + trial;
        let mut h = PipelineHarness::new(stages, 8, 15);
        let words: Vec<u64> = (0..25).map(|_| rng.random::<u64>() & 0xFF).collect();
        let mut sent = 0usize;
        let mut got = Vec::new();
        let mut stall = 0;
        while got.len() < words.len() {
            assert!(stall < 1000, "deadlock at {got:?}");
            let coin: bool = rng.random();
            let mut progressed = false;
            if coin && sent < words.len() && h.can_send() {
                h.send(words[sent]);
                sent += 1;
                progressed = true;
            } else if let Some(w) = h.recv() {
                got.push(w);
                progressed = true;
            }
            if progressed {
                stall = 0;
            } else {
                stall += 1;
            }
        }
        assert_eq!(got, words, "stages={stages}");
    }
}

#[test]
fn fifo_handshake_protocol_is_clean() {
    // Watch the producer-side handshake during a run and audit it.
    let pipe = micropipeline::build(3, 4, 15, 5);
    let mut sim = Simulator::new(&pipe.netlist);
    sim.watch(pipe.req_in);
    sim.watch(pipe.ack_out);
    sim.drive(pipe.req_in, Logic::L0);
    sim.drive(pipe.ack_in, Logic::L0);
    for &d in &pipe.data_in {
        sim.drive(d, Logic::L0);
    }
    sim.settle(1_000_000).unwrap();
    let mut req = false;
    let mut ack = false;
    for _ in 0..6 {
        req = !req;
        sim.drive(pipe.req_in, Logic::from_bool(req));
        sim.settle(1_000_000).unwrap();
        // eager consumer
        ack = !ack;
        sim.drive(pipe.ack_in, Logic::from_bool(ack));
        sim.settle(1_000_000).unwrap();
    }
    let tokens =
        check_two_phase(sim.trace(pipe.req_in), sim.trace(pipe.ack_out)).expect("protocol clean");
    assert_eq!(tokens, 6);
}

#[test]
fn four_phase_pipeline_deep_run() {
    let (near, far) = handshake::run_four_phase(5, 8).expect("clean");
    assert_eq!((near, far), (8, 8));
}

#[test]
fn fabric_c_element_tree_synchronizes_three_requests() {
    // A 2-level C-element tree: done = C(C(a, b), c) — the classic join
    // of three handshakes, entirely on fabric blocks.
    use polymorphic_hw::asynchronous::c_element;
    let mut fabric = Fabric::new(8, 2);
    let top = c_element(&mut fabric, 0, 0).unwrap();
    let bottom = c_element(&mut fabric, 0, 1).unwrap();
    // route top.c (east of (2,0) lane2) into bottom input... instead build
    // second-level explicitly: level2 takes top.c and external c.
    let lvl2 = c_element(&mut fabric, 4, 0).unwrap();
    let mut router = Router::new();
    router.occupy_all(&top.footprint);
    router.occupy_all(&bottom.footprint);
    router.occupy_all(&lvl2.footprint);
    // top.c sits on lane 2 of its boundary; lvl2's `a` input reads lane 0
    // — the feed-through block shuffles lanes on the way.
    router
        .route_mapped(&mut fabric, top.c, PortLoc { lane: 0, ..lvl2.a }, &[(top.c.lane, 0)])
        .expect("routes");
    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut sim = Simulator::new(&elab.netlist);
    let a = top.a.net(&elab);
    let b = top.b.net(&elab);
    let c = PortLoc { lane: 1, ..lvl2.b }.net(&elab);
    let done = lvl2.c.net(&elab);
    for n in [a, b, c] {
        sim.drive(n, Logic::L0);
    }
    sim.settle(5_000_000).unwrap();
    assert_eq!(sim.value(done), Logic::L0);
    // raise in arbitrary order; done only after all three
    sim.drive(b, Logic::L1);
    sim.settle(5_000_000).unwrap();
    assert_eq!(sim.value(done), Logic::L0);
    sim.drive(c, Logic::L1);
    sim.settle(5_000_000).unwrap();
    assert_eq!(sim.value(done), Logic::L0, "c alone at level 2 must wait");
    sim.drive(a, Logic::L1);
    sim.settle(5_000_000).unwrap();
    assert_eq!(sim.value(done), Logic::L1, "all three arrived");
    // and it latches until all three withdraw
    sim.drive(a, Logic::L0);
    sim.settle(5_000_000).unwrap();
    assert_eq!(sim.value(done), Logic::L1);
    sim.drive(b, Logic::L0);
    sim.drive(c, Logic::L0);
    sim.settle(5_000_000).unwrap();
    assert_eq!(sim.value(done), Logic::L0);
    let _ = bottom;
}

#[test]
fn gals_transfer_randomized_clock_ratios() {
    let mut rng = StdRng::seed_from_u64(0x6A15);
    for _ in 0..3 {
        let ta = rng.random_range(300u64..2500);
        let tb = rng.random_range(300u64..2500);
        let words: Vec<u64> = (0..6).map(|_| rng.random::<u64>() & 0xFF).collect();
        let mut g = GalsSystem::new(3, 8, ta, tb);
        assert_eq!(g.transfer(&words), words, "Ta={ta} Tb={tb}");
    }
}
