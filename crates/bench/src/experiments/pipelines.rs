//! E9–E10: the asynchronous figures (Figs. 11–12).

use super::Experiment;
use pmorph_async::{measure_cycle_time, PipelineHarness};
use pmorph_core::elaborate::elaborate;
use pmorph_core::{Fabric, FabricTiming};
use pmorph_sim::{Logic, Simulator};

/// E9 / Fig. 11: micropipeline — FIFO correctness, cycle time vs matched
/// delay, and depth-independence of throughput.
pub fn fig11_micropipeline() -> Experiment {
    let mut rows = Vec::new();
    let mut pass = true;
    // FIFO ordering
    let mut h = PipelineHarness::new(4, 8, 20);
    let words: Vec<u64> = (0..10).map(|i| (i * 37) & 0xFF).collect();
    let mut got = Vec::new();
    let mut iter = words.iter().copied();
    let mut pending = iter.next();
    let mut spins = 0;
    while got.len() < words.len() && spins < 10_000 {
        spins += 1;
        if let Some(w) = pending {
            if h.can_send() {
                h.send(w);
                pending = iter.next();
            }
        }
        if let Some(w) = h.recv() {
            got.push(w);
        }
    }
    let ordered = got == words;
    pass &= ordered;
    rows.push(format!("4-stage FIFO: 10 tokens in order = {ordered}"));
    // cycle time vs matched delay
    rows.push("cycle time vs per-stage matched delay:".into());
    let mut last = 0;
    let mut monotone = true;
    for d in [10u64, 20, 40, 80] {
        let c = measure_cycle_time(4, d, 5, 5).expect("runs");
        monotone &= c > last;
        last = c;
        rows.push(format!("  delay {d:>3} ps -> cycle {c} ps"));
    }
    pass &= monotone;
    // throughput independent of depth
    let c2 = measure_cycle_time(2, 20, 5, 5).unwrap();
    let c8 = measure_cycle_time(8, 20, 5, 5).unwrap();
    let depth_free = (c8 as f64 / c2 as f64) < 2.0;
    pass &= depth_free;
    rows.push(format!(
        "cycle time depth 2 vs 8: {c2} vs {c8} ps (throughput set per-stage: {depth_free})"
    ));
    Experiment {
        id: "E9/Fig11",
        title: "Sutherland micropipeline",
        paper: "C-element spine with matched delays forms an elastic FIFO; throughput is per-stage",
        rows,
        pass,
    }
}

/// E10 / Fig. 12: event-controlled storage element on fabric blocks.
pub fn fig12_ecse() -> Experiment {
    let mut rows = Vec::new();
    let mut pass = true;
    let mut fabric = Fabric::new(6, 1);
    let p = pmorph_async::ecse(&mut fabric, 0, 0).unwrap();
    rows.push(format!(
        "mapped on {} blocks ({} active leaf cells)",
        p.footprint.len(),
        fabric.active_cells()
    ));
    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut sim = Simulator::new(&elab.netlist);
    let (din, r, a, z) = (p.din.net(&elab), p.req.net(&elab), p.ack.net(&elab), p.z.net(&elab));
    for (n, v) in [(din, Logic::L0), (r, Logic::L0), (a, Logic::L0)] {
        sim.drive(n, v);
    }
    sim.settle(5_000_000).unwrap();
    let step = |sim: &mut Simulator,
                n,
                v,
                expect_z: Logic,
                what: &str,
                pass: &mut bool,
                rows: &mut Vec<String>| {
        sim.drive(n, v);
        sim.settle(5_000_000).unwrap();
        let got = sim.value(z);
        *pass &= got == expect_z;
        rows.push(format!("  {what}: Z={got} (expect {expect_z})"));
    };
    step(&mut sim, din, Logic::L1, Logic::L1, "transparent, din=1", &mut pass, &mut rows);
    step(&mut sim, r, Logic::L1, Logic::L1, "R event (capture)", &mut pass, &mut rows);
    step(&mut sim, din, Logic::L0, Logic::L1, "din drops while holding", &mut pass, &mut rows);
    step(&mut sim, a, Logic::L1, Logic::L0, "A event (release)", &mut pass, &mut rows);
    step(&mut sim, r, Logic::L0, Logic::L0, "R falling event (capture 0)", &mut pass, &mut rows);
    step(&mut sim, din, Logic::L1, Logic::L0, "din rises while holding", &mut pass, &mut rows);
    step(&mut sim, a, Logic::L0, Logic::L1, "A falling event (release)", &mut pass, &mut rows);
    Experiment {
        id: "E10/Fig12",
        title: "event-controlled storage element on the fabric",
        paper: "the ECSE async state machine maps directly onto reconfigurable NAND blocks",
        rows,
        pass,
    }
}
