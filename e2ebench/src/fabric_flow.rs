//! `fabric_flow`: the netlist → LUT → fabric → simulate pipeline of
//! `polymorphic_hw::flow`, one design per operation.
//!
//! Each pass takes every design of a fixed set through `tech_map` →
//! `map_design_to_fabric` → `FabricDesign::elaborate` →
//! `FabricDesign::eval` on input vectors drawn from the run's seed, and
//! checks every output against the event-driven `Simulator` run on the
//! original gate netlist. The set is the ripple adder, two parity trees
//! and [`RANDOM_DESIGNS`] `random_combinational` netlists from a fixed
//! seed: their sizes vary widely, so drawing them from the run's seed
//! would make one seed's pass cost up to a fifth more than another's.
//! A pass spreads the designs over [`THREADS`] threads. Set-up is
//! generating the designs and vectors plus one warm-up pass.

use crate::report::Outcome;
use crate::spans::{Recorder, Trace};
use crate::{Ctx, Pass};
use pmorph_core::FabricTiming;
use pmorph_fpga::{circuits, tech_map, verify_mapping};
use pmorph_sim::{Logic, NetId, Netlist, Simulator};
use pmorph_util::prop::Gen;
use pmorph_util::rng::{mix_seed, Rng, StdRng};
use polymorphic_hw::flow::map_design_to_fabric;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Random combinational netlists per design set.
const RANDOM_DESIGNS: usize = 40;
/// Seed of the random netlists (the run's seed draws the vectors).
const DESIGN_SET_SEED: u64 = 0x05EE_DF10;
/// Input vectors checked per design.
const VECTORS: usize = 12;
/// Threads a pass spreads the designs over, one per core of the 2-vCPU
/// host the benchmark was sized on. On that shared host a one-thread
/// pass swung up to a third between runs while the two-thread serve and
/// repro workloads held within a tenth.
const THREADS: usize = 2;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 15;
/// Untimed passes after set-up (about two seconds).
const WARM_UP_PASSES: usize = 24;

struct Design {
    name: String,
    netlist: Netlist,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    vectors: Vec<HashMap<u32, bool>>,
}

fn designs(seed: u64) -> Vec<Design> {
    let mut set: Vec<(String, Netlist, Vec<NetId>)> = Vec::new();
    for c in [circuits::ripple_adder_gates(3), circuits::parity_tree(8), circuits::parity_tree(16)]
    {
        set.push((c.name.to_string(), c.netlist, c.outputs));
    }
    let mut g = Gen { rng: StdRng::seed_from_u64(DESIGN_SET_SEED), case: 0, seed: DESIGN_SET_SEED };
    while set.len() < 3 + RANDOM_DESIGNS {
        let (netlist, inputs, outputs) = pmorph_sim::testgen::random_combinational(&mut g, 8);
        // Outputs must be gate-driven and distinct: a primary input
        // wired straight to an output has no LUT, so there is nothing
        // for the flow to map.
        let mut outs: Vec<NetId> = outputs.into_iter().filter(|o| !inputs.contains(o)).collect();
        outs.sort_by_key(|n| n.0);
        outs.dedup();
        if inputs.len() >= 2 && !outs.is_empty() {
            set.push((format!("random{}", set.len() - 3), netlist, outs));
        }
    }
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 8));
    set.into_iter()
        .map(|(name, netlist, outputs)| {
            // the mapper's input list is the vector domain
            let inputs = tech_map(&netlist, &outputs, 4).expect("design maps").inputs;
            let vectors = (0..VECTORS)
                .map(|_| inputs.iter().map(|n| (n.0, rng.random())).collect())
                .collect();
            Design { name, netlist, inputs, outputs, vectors }
        })
        .collect()
}

/// Gate-level reference values of `outputs` under one vector.
fn reference(d: &Design, v: &HashMap<u32, bool>) -> Vec<Option<bool>> {
    let mut sim = Simulator::new(d.netlist.clone());
    for (net, val) in v {
        sim.drive(NetId(*net), Logic::from_bool(*val));
    }
    sim.settle(5_000_000).expect("combinational netlist settles");
    d.outputs.iter().map(|&o| sim.value(o).to_bool()).collect()
}

/// One design through the whole flow; returns the output mismatches.
fn flow(d: &Design, rec: &mut Recorder, id: u64, traced: bool) -> usize {
    let mut stage = |name: &str, f: &mut dyn FnMut()| {
        if traced {
            rec.span(name, id, &mut *f);
        } else {
            f();
        }
    };
    let mut mapped = None;
    stage("fpga.tech_map", &mut || {
        mapped = Some(tech_map(&d.netlist, &d.outputs, 4).expect("maps"))
    });
    let mapped = mapped.expect("set above");
    let mut fd = None;
    stage("flow.map_fabric", &mut || {
        fd = Some(map_design_to_fabric(&mapped).expect("fabric maps"))
    });
    let fd = fd.expect("set above");
    let mut elab = None;
    stage("core.elaborate", &mut || elab = Some(fd.elaborate(&FabricTiming::default())));
    let elab = elab.expect("set above");
    let mut mismatches = 0;
    for v in &d.vectors {
        let mut want = Vec::new();
        stage("sim.event.reference", &mut || want = reference(d, v));
        let mut got = Vec::new();
        stage("flow.eval", &mut || {
            got = d.outputs.iter().map(|&o| fd.eval(&elab, v, o)).collect();
        });
        mismatches += got.iter().zip(&want).filter(|(g, w)| g != w).count();
    }
    mismatches
}

/// One design's outcome in a pass: its index, latency in ms and output
/// mismatches.
type Done = (usize, f64, usize);

/// One pass over `set`, its designs pulled by [`THREADS`] threads. Returns
/// the wall time, each design's outcome and, when traced, each thread's
/// spans.
fn pass(ctx: &Ctx, set: &[Design], i: u64, traced: bool) -> (f64, Vec<Done>, Vec<Recorder>) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_thread: Vec<(Vec<Done>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let next = &next;
                s.spawn(move || {
                    let mut rec = Recorder::new(ctx.origin, 1 + t as u32);
                    let pass_span = traced.then(|| rec.open("fabric.pass", i, t0));
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(d) = set.get(k) else { break };
                        let s = Instant::now();
                        let design_span = traced.then(|| rec.open(&d.name, k as u64, s));
                        let bad = flow(d, &mut rec, k as u64, traced);
                        if let Some(span) = design_span {
                            rec.close(span, Instant::now());
                        }
                        done.push((k, s.elapsed().as_secs_f64() * 1e3, bad));
                    }
                    if let Some(span) = pass_span {
                        rec.close(span, Instant::now());
                    }
                    (done, rec)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("flow thread")).collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let (done, recs): (Vec<Vec<Done>>, Vec<Recorder>) = per_thread.into_iter().unzip();
    (secs, done.into_iter().flatten().collect(), recs)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut set = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        set = designs(ctx.seed);
        let (_, done, _) = pass(ctx, &set, 0, false);
        setups.push(t0.elapsed().as_secs_f64());
        let warm: usize = done.iter().map(|d| d.2).sum();
        out.gate(warm == 0, || format!("{warm} output mismatches in the warm-up pass"));
    }
    for d in &set {
        let mapped = tech_map(&d.netlist, &d.outputs, 4).expect("maps");
        out.gate(mapped.inputs == d.inputs, || format!("{}: mapper inputs moved", d.name));
        out.gate(verify_mapping(&d.netlist, &mapped, ctx.seed, 16), || {
            format!("{}: verify_mapping failed", d.name)
        });
    }

    let mut trace = Trace::default();
    let mut traced_passes = 0usize;
    let (passes, rss_mb) = crate::run_passes(ctx, WARM_UP_PASSES, |i, traced| {
        let (secs, done, recs) = pass(ctx, &set, i, traced);
        let mut latencies = Vec::with_capacity(done.len());
        for (k, ms, bad) in done {
            latencies.push(ms);
            out.attempted += 1;
            if bad > 0 {
                out.failed += 1;
                out.gate(false, || {
                    format!("{}: {bad} outputs differ from the gate netlist", set[k].name)
                });
            }
        }
        if traced {
            recs.into_iter().for_each(|r| trace.absorb(r));
            traced_passes += 1;
        }
        Pass { secs, traced, warm_up: false, latencies_ms: latencies }
    });
    crate::summarize(ctx, &passes, &setups, rss_mb, &mut out);

    if ctx.traced {
        let st = trace.self_ns();
        let per_pass =
            |name: &str| st.get(name).map_or(0.0, |&ns| ns as f64 / 1e6) / traced_passes as f64;
        for (metric, span) in [
            ("fpga.tech_map_ms", "fpga.tech_map"),
            ("flow.map_fabric_ms", "flow.map_fabric"),
            ("core.elaborate_ms", "core.elaborate"),
            ("flow.eval_ms", "flow.eval"),
            ("sim.event.reference_ms", "sim.event.reference"),
        ] {
            out.set(metric, per_pass(span));
        }
        let mut rec = Recorder::new(ctx.origin, 0);
        let (_, counts) = crate::count_counters(|| {
            set.iter().enumerate().map(|(k, d)| flow(d, &mut rec, k as u64, false)).sum::<usize>()
        });
        crate::set_counts(&mut out, &counts, set.len());
        let vectors: usize = set.iter().map(|d| d.vectors.len()).sum();
        for (name, delta) in &counts {
            if *name == "sim.events" || *name == "sim.evals" {
                out.set(&format!("{name}_per_vector"), *delta as f64 / vectors as f64);
            }
        }
        let path = ctx.trace_path();
        if let Err(e) =
            trace.write_chrome(&path, &[(1, "flow 0"), (2, "flow 1")], &ctx.trace_meta())
        {
            eprintln!("e2ebench: could not write {}: {e}", path.display());
        }
    }
    out
}
