//! Seed discipline, end to end: every stochastic path in the workspace —
//! Monte-Carlo variation (worker-pool parallel), defect-map sampling and
//! fault sweeps, and random-vector simulation — must be bit-identical when
//! re-run with the same seed, and must actually vary when the seed
//! changes. Comparisons are on `f64::to_bits` / bitstream bytes, not
//! approximate equality: "deterministic" here means reproducible to the
//! last bit, at any worker count.

use pmorph_util::rng::{mix_seed, Rng, StdRng};
use polymorphic_hw::device::variation::{run_study, VariationModel};
use polymorphic_hw::pmorph_core::elaborate::elaborate;
use polymorphic_hw::prelude::*;

/// Run the (parallel) variation Monte-Carlo and capture every result field
/// as raw bits.
fn variation_bits(seed: u64) -> Vec<u64> {
    let s = run_study(VariationModel::doped_bulk(), 200, seed, 0.42, 0.58);
    vec![s.samples as u64, s.mean_vth.to_bits(), s.sigma_vth.to_bits(), s.failure_rate.to_bits()]
}

#[test]
fn variation_mc_same_seed_is_bit_identical() {
    assert_eq!(variation_bits(99), variation_bits(99));
}

#[test]
fn variation_mc_different_seeds_differ() {
    assert_ne!(variation_bits(99), variation_bits(100));
}

/// A defect-injection sweep over several rates and trials, applied to a
/// fully-used fabric; the observable is the faulty fabric's bitstream.
fn fault_sweep_bitstreams(seed: u64) -> Vec<Vec<u8>> {
    let mut used = Fabric::new(4, 4);
    for y in 0..4 {
        for x in 0..4 {
            let b = used.block_mut(x, y);
            for t in 0..LANES {
                b.set_term(t, &[t]);
                b.drivers[t] = OutMode::Buf;
            }
        }
    }
    let mut out = Vec::new();
    for (r, rate) in [0.002f64, 0.01, 0.05].into_iter().enumerate() {
        for trial in 0..8u64 {
            let map = DefectMap::sample(4, 4, rate, mix_seed(seed, r as u64 * 100 + trial));
            out.push(map.apply(&used).to_bitstream());
        }
    }
    out
}

#[test]
fn fault_sweep_same_seed_is_bit_identical() {
    assert_eq!(fault_sweep_bitstreams(7), fault_sweep_bitstreams(7));
}

#[test]
fn fault_sweep_different_seeds_differ() {
    assert_ne!(fault_sweep_bitstreams(7), fault_sweep_bitstreams(8));
}

/// End-to-end random-vector simulation: map a 3-LUT, elaborate it, and
/// drive seeded random vectors; the observable is the full stimulus +
/// response trace.
fn sim_trace(seed: u64) -> Vec<(u64, Logic)> {
    let tt = TruthTable::parity(3);
    let mut fabric = Fabric::new(4, 1);
    let ports = lut3(&mut fabric, 0, 0, &tt).unwrap();
    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Vec::new();
    for _ in 0..16 {
        let m = rng.random_range(0u64..8);
        let mut sim = Simulator::new(&elab.netlist);
        for (v, p) in ports.inputs.iter().enumerate() {
            sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
        }
        sim.settle(1_000_000).unwrap();
        trace.push((m, sim.value(ports.output.net(&elab))));
    }
    trace
}

#[test]
fn end_to_end_sim_same_seed_is_bit_identical() {
    assert_eq!(sim_trace(0xBEC0), sim_trace(0xBEC0));
}

#[test]
fn end_to_end_sim_different_seeds_differ() {
    // Different seeds draw different vector sequences (and the response
    // follows the stimulus, so the traces cannot coincide).
    let a = sim_trace(0xBEC0);
    let b = sim_trace(0xBEC1);
    assert_ne!(
        a.iter().map(|t| t.0).collect::<Vec<_>>(),
        b.iter().map(|t| t.0).collect::<Vec<_>>()
    );
}

/// `mix_seed` streams are decorrelated: the per-sample seeds a parallel
/// Monte-Carlo derives from adjacent stream indices must not collide.
#[test]
fn mix_seed_streams_are_distinct() {
    let mut seen = std::collections::HashSet::new();
    for parent in [0u64, 1, 99, u64::MAX] {
        for stream in 0..64u64 {
            assert!(seen.insert(mix_seed(parent, stream)), "collision at ({parent}, {stream})");
        }
    }
}
