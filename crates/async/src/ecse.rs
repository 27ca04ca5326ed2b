//! Event-controlled storage element on the fabric (paper Fig. 12).
//!
//! Sutherland's ECSE is a latch steered by transition signals: it is
//! transparent when the `Req` and `Ack` events have evened out
//! (`R == A`), and holds while a token is outstanding (`R != A`). As an
//! asynchronous state machine this is a transparent latch with an XNOR
//! enable — exactly the "small asynchronous state machine … directly
//! supported by the array organization" the paper maps in Fig. 12.
//!
//! Layout: three blocks compute `en = R ⊙ A` and forward `DIN`, then the
//! standard [`pmorph_synth::d_latch`] tile holds `Z`. Six blocks total.

use pmorph_core::{BlockConfig, Edge, Fabric, OutMode};
use pmorph_synth::seq::d_latch;
use pmorph_synth::tile::{ft, ft_inv, MapError, PortLoc};

/// Ports of the fabric ECSE (6 blocks, W→E).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcsePorts {
    /// Data input.
    pub din: PortLoc,
    /// Request event (transition-encoded).
    pub req: PortLoc,
    /// Acknowledge event (transition-encoded).
    pub ack: PortLoc,
    /// Stored output `Z`.
    pub z: PortLoc,
    /// Complement output.
    pub zn: PortLoc,
    /// Occupied blocks.
    pub footprint: Vec<(usize, usize)>,
}

/// Map an event-controlled storage element at `(x, y)`: 6 blocks W→E.
///
/// West lanes of block `x`: `0 = R`, `1 = A`, `2 = DIN`.
pub fn ecse(fabric: &mut Fabric, x: usize, y: usize) -> Result<EcsePorts, MapError> {
    if x + 5 >= fabric.width() || y >= fabric.height() {
        return Err(MapError::OutOfRoom);
    }
    // Block 1: (R·A)' plus complement rails plus DIN forward.
    {
        let b = fabric.block_mut(x, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        b.set_term(0, &[0, 1]);
        b.drivers[0] = OutMode::Buf; // lane0 = (R·A)'
        ft_inv(b, 1, 0); // lane1 = R̄
        ft_inv(b, 2, 1); // lane2 = Ā
        ft(b, 3, 2); // lane3 = DIN
    }
    // Block 2: forward (R·A)', compute (R̄·Ā)', forward DIN.
    {
        let b = fabric.block_mut(x + 1, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        ft(b, 0, 0); // lane0 = (R·A)'
        b.set_term(1, &[1, 2]);
        b.drivers[1] = OutMode::Buf; // lane1 = (R̄·Ā)'
        ft(b, 3, 3); // lane3 = DIN
    }
    // Block 3: en = ((R·A)'·(R̄·Ā)')' = R⊙A on lane1, DIN on lane0 —
    // exactly the d/en lane order the latch tile expects.
    {
        let b = fabric.block_mut(x + 2, y);
        *b = BlockConfig::flowing(Edge::West, Edge::East);
        ft(b, 0, 3); // lane0 = DIN (the latch's D)
        b.set_term(1, &[0, 1]);
        b.drivers[1] = OutMode::Buf; // lane1 = EN = XNOR(R, A)
    }
    let latch = d_latch(fabric, x + 3, y)?;
    Ok(EcsePorts {
        din: PortLoc::new(x, y, Edge::West, 2),
        req: PortLoc::new(x, y, Edge::West, 0),
        ack: PortLoc::new(x, y, Edge::West, 1),
        z: latch.q,
        zn: latch.qn,
        footprint: (0..6).map(|i| (x + i, y)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_core::{elaborate::elaborate, FabricTiming};
    use pmorph_sim::{Logic, Simulator};

    const SETTLE: u64 = 2_000_000;

    struct Harness {
        sim: Simulator,
        din: pmorph_sim::NetId,
        req: pmorph_sim::NetId,
        ack: pmorph_sim::NetId,
        z: pmorph_sim::NetId,
    }

    fn build() -> Harness {
        let mut fabric = Fabric::new(6, 1);
        let p = ecse(&mut fabric, 0, 0).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let sim = Simulator::new(&elab.netlist);
        let h = Harness {
            din: p.din.net(&elab),
            req: p.req.net(&elab),
            ack: p.ack.net(&elab),
            z: p.z.net(&elab),
            sim,
        };
        let mut h = h;
        h.sim.drive(h.req, Logic::L0);
        h.sim.drive(h.ack, Logic::L0);
        h.sim.drive(h.din, Logic::L0);
        h.sim.settle(SETTLE).unwrap();
        h
    }

    #[test]
    fn transparent_when_events_even() {
        let mut h = build();
        // R == A == 0: transparent.
        h.sim.drive(h.din, Logic::L1);
        h.sim.settle(SETTLE).unwrap();
        assert_eq!(h.sim.value(h.z), Logic::L1, "follows din");
        h.sim.drive(h.din, Logic::L0);
        h.sim.settle(SETTLE).unwrap();
        assert_eq!(h.sim.value(h.z), Logic::L0);
    }

    #[test]
    fn capture_on_request_release_on_ack() {
        let mut h = build();
        h.sim.drive(h.din, Logic::L1);
        h.sim.settle(SETTLE).unwrap();
        // Request event: R toggles 0→1 → capture.
        h.sim.drive(h.req, Logic::L1);
        h.sim.settle(SETTLE).unwrap();
        // Input changes must now be ignored.
        h.sim.drive(h.din, Logic::L0);
        h.sim.settle(SETTLE).unwrap();
        assert_eq!(h.sim.value(h.z), Logic::L1, "holds captured token");
        // Ack event: A toggles 0→1 → events even → transparent again.
        h.sim.drive(h.ack, Logic::L1);
        h.sim.settle(SETTLE).unwrap();
        assert_eq!(h.sim.value(h.z), Logic::L0, "transparent: follows new din");
    }

    #[test]
    fn second_event_pair_works_on_opposite_phase() {
        // Transition signalling: the 1→0 edges are events too.
        let mut h = build();
        h.sim.drive(h.req, Logic::L1);
        h.sim.drive(h.ack, Logic::L1);
        h.sim.drive(h.din, Logic::L1);
        h.sim.settle(SETTLE).unwrap();
        assert_eq!(h.sim.value(h.z), Logic::L1, "R==A==1: transparent");
        // R: 1→0 — capture on the falling event.
        h.sim.drive(h.req, Logic::L0);
        h.sim.settle(SETTLE).unwrap();
        h.sim.drive(h.din, Logic::L0);
        h.sim.settle(SETTLE).unwrap();
        assert_eq!(h.sim.value(h.z), Logic::L1, "captured on falling event");
        h.sim.drive(h.ack, Logic::L0);
        h.sim.settle(SETTLE).unwrap();
        assert_eq!(h.sim.value(h.z), Logic::L0, "released on falling ack");
    }
}
