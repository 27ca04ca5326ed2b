//! The §4.1 flagship, end to end on real blocks: a two-stage Sutherland
//! micropipeline *control spine* where both C-elements are fabric tiles,
//! the stage-to-stage request is routed by abutment, and the
//! acknowledge feedback travels a routed return path around the array —
//! with its inversion performed by one of the feed-through blocks
//! (a cell being logic and interconnect at once, the paper's title claim).
//!
//! Control structure (2-phase):
//!
//! ```text
//! c1 = C(req,  ¬c2)      c2 = C(c1, ¬ack)
//! ```

use polymorphic_hw::asynchronous::{c_element_resettable, check_two_phase};
use polymorphic_hw::pmorph_core::elaborate::elaborate;
use polymorphic_hw::prelude::*;

struct FabricPipeline {
    sim: Simulator,
    req: pmorph_sim::NetId,
    ackn_tap: pmorph_sim::NetId,
    reset1: pmorph_sim::NetId,
    reset2: pmorph_sim::NetId,
    c1: pmorph_sim::NetId,
    c2: pmorph_sim::NetId,
}

use polymorphic_hw::pmorph_sim;

const SETTLE: u64 = 20_000_000;

fn build() -> FabricPipeline {
    let mut fabric = Fabric::new(10, 2);
    let mut router = Router::new();
    // Stage C-elements (resettable: the feedback ring cannot reach the
    // both-low reset condition from a cold, unknown start).
    let c1t = c_element_resettable(&mut fabric, 1, 0).unwrap();
    let c2t = c_element_resettable(&mut fabric, 5, 0).unwrap();
    router.occupy_all(&c1t.footprint);
    router.occupy_all(&c2t.footprint);
    // Forward request: c1 output (lane 2) → c2's `a` input (lane 0).
    router
        .route_mapped(&mut fabric, c1t.c, PortLoc { lane: 0, ..c2t.a }, &[(c1t.c.lane, 0)])
        .unwrap();
    // Acknowledge feedback: c2 output (lane 2) routed around the array to
    // c1's `b` input (lane 1).
    let chain = router
        .route_mapped(&mut fabric, c2t.c, PortLoc { lane: 1, ..c1t.b }, &[(c2t.c.lane, 1)])
        .unwrap();
    assert!(chain.len() >= 5, "feedback must go the long way round: {chain:?}");
    // Invert inside the return path: the first chain block's feed-through
    // is NAND+Inv (identity); demoting its driver to Buf leaves a bare
    // NAND — an inverter. One block, logic and wire simultaneously.
    {
        let (bx, by) = chain[0];
        let blk = fabric.block_mut(bx, by);
        assert_eq!(blk.drivers[1], OutMode::Inv, "feed-through shape");
        blk.drivers[1] = OutMode::Buf;
    }
    let elab = elaborate(&fabric, &FabricTiming::default());
    let sim = Simulator::new(&elab.netlist);
    FabricPipeline {
        req: c1t.a.net(&elab),
        // ¬ack tap rides the free lane 1 of c2's input boundary
        ackn_tap: PortLoc { lane: 1, ..c2t.b }.net(&elab),
        reset1: c1t.reset_n.net(&elab),
        reset2: c2t.reset_n.net(&elab),
        c1: c1t.c.net(&elab),
        c2: c2t.c.net(&elab),
        sim,
    }
}

impl FabricPipeline {
    /// Power-on reset: assert both elements' r̄, then release and arm.
    fn reset(&mut self) {
        self.sim.drive(self.req, Logic::L0);
        self.sim.drive(self.ackn_tap, Logic::L0);
        self.sim.drive(self.reset1, Logic::L0);
        self.sim.drive(self.reset2, Logic::L0);
        self.sim.settle(SETTLE).expect("reset settles");
        assert_eq!(self.sim.value(self.c1), Logic::L0);
        assert_eq!(self.sim.value(self.c2), Logic::L0);
        self.sim.drive(self.reset1, Logic::L1);
        self.sim.drive(self.reset2, Logic::L1);
        // arm: sink ready (ack low → ¬ack high)
        self.sim.drive(self.ackn_tap, Logic::L1);
        self.sim.settle(SETTLE).expect("arm settles");
    }
}

#[test]
fn two_stage_fabric_control_passes_tokens() {
    let mut p = build();
    p.reset();
    p.sim.watch(p.req);
    p.sim.watch(p.c1);
    p.sim.watch(p.c2);

    let mut req_phase = false;
    let mut ack_phase = false;
    for token in 0..4 {
        // producer launches a token (2-phase: toggle req)
        req_phase = !req_phase;
        p.sim.drive(p.req, Logic::from_bool(req_phase));
        p.sim.settle(SETTLE).unwrap();
        assert_eq!(
            p.sim.value(p.c1),
            Logic::from_bool(req_phase),
            "token {token}: stage 1 accepts"
        );
        assert_eq!(
            p.sim.value(p.c2),
            Logic::from_bool(req_phase),
            "token {token}: stage 2 accepts (sink ready)"
        );
        // consumer acknowledges: toggle ack → toggle the ¬ack tap
        ack_phase = !ack_phase;
        p.sim.drive(p.ackn_tap, Logic::from_bool(!ack_phase));
        p.sim.settle(SETTLE).unwrap();
    }
    // the producer-side handshake (req vs c1-as-ack) is protocol-clean
    let tokens = check_two_phase(p.sim.trace(p.req), p.sim.trace(p.c1))
        .expect("clean 2-phase handshake on fabric");
    assert_eq!(tokens, 4);
}

#[test]
fn stalled_sink_applies_backpressure() {
    let mut p = build();
    p.reset();
    // Token 1 flows through to stage 2 (sink never acknowledges).
    p.sim.drive(p.req, Logic::L1);
    p.sim.settle(SETTLE).unwrap();
    assert_eq!(p.sim.value(p.c1), Logic::L1);
    assert_eq!(p.sim.value(p.c2), Logic::L1);
    // Token 2: stage 1 accepts (its ¬c2 input is 0, matching the falling
    // request), but stage 2 is full and holds.
    p.sim.drive(p.req, Logic::L0);
    p.sim.settle(SETTLE).unwrap();
    assert_eq!(p.sim.value(p.c1), Logic::L0, "stage 1 takes token 2");
    assert_eq!(p.sim.value(p.c2), Logic::L1, "stage 2 still holds token 1");
    // Token 3: now the spine is full — stage 1 must refuse.
    p.sim.drive(p.req, Logic::L1);
    p.sim.settle(SETTLE).unwrap();
    assert_eq!(p.sim.value(p.c1), Logic::L0, "backpressure: two tokens in flight");
    // Sink finally acknowledges token 1 (ack=1 → ¬ack=0): stage 2 drains,
    // stage 1 immediately accepts the pending third request.
    p.sim.drive(p.ackn_tap, Logic::L0);
    p.sim.settle(SETTLE).unwrap();
    assert_eq!(p.sim.value(p.c2), Logic::L0, "stage 2 advances to token 2");
    assert_eq!(p.sim.value(p.c1), Logic::L1, "stage 1 accepts token 3");
}
