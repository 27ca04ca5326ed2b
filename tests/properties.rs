//! Property-based tests on the workspace's core invariants, running on
//! the in-repo harness (`pmorph_util::prop`): fixed seeds, fixed case
//! counts, and a failing-seed report on any counterexample. Case `i` of a
//! property always draws from the same stream, so failures reproduce
//! exactly on every machine — paste the reported seed into
//! `prop::replay` to debug one case in isolation.

use pmorph_util::prop::{self, Gen};
use pmorph_util::{prop_assert, prop_assert_eq};
use polymorphic_hw::pmorph_core::elaborate::elaborate;
use polymorphic_hw::prelude::*;
use polymorphic_hw::synth::qm;

/// Quine–McCluskey covers are exactly equivalent to their input.
#[test]
fn qm_minimization_is_equivalent() {
    prop::check("qm_minimization_is_equivalent", 64, |g| {
        let bits = g.u64();
        let n = g.in_range(1usize..=4);
        let tt = TruthTable::from_bits(n, bits);
        let sop = minimize(&tt);
        prop_assert_eq!(sop.truth(n), tt);
        Ok(())
    });
}

/// Prime implicants never cover a zero of the function.
#[test]
fn primes_are_implicants() {
    prop::check("primes_are_implicants", 64, |g| {
        let bits = g.u64();
        let n = g.in_range(1usize..=4);
        let tt = TruthTable::from_bits(n, bits);
        for p in qm::prime_implicants(&tt) {
            for m in 0..(1u64 << n) {
                if p.covers(m) {
                    prop_assert!(tt.eval(m), "prime covers a zero at minterm {m}");
                }
            }
        }
        Ok(())
    });
}

/// Shannon cofactors recombine to the original function.
#[test]
fn shannon_recombination() {
    prop::check("shannon_recombination", 64, |g| {
        let bits = g.u64();
        let v = g.in_range(0usize..3);
        let tt = TruthTable::from_bits(3, bits);
        let f0 = tt.cofactor(v, false);
        let f1 = tt.cofactor(v, true);
        for m in 0..8u64 {
            let low = m & ((1 << v) - 1);
            let high = (m >> (v + 1)) << v;
            let sub = low | high;
            let want = if m >> v & 1 == 1 { f1.eval(sub) } else { f0.eval(sub) };
            prop_assert_eq!(tt.eval(m), want);
        }
        Ok(())
    });
}

/// Logic resolution forms a commutative, associative join with Z as
/// identity (the algebra tri-state lanes rely on).
#[test]
fn resolution_lattice() {
    prop::check("resolution_lattice", 64, |g| {
        let a = Logic::ALL[g.in_range(0usize..4)];
        let b = Logic::ALL[g.in_range(0usize..4)];
        let c = Logic::ALL[g.in_range(0usize..4)];
        prop_assert_eq!(a.resolve(b), b.resolve(a));
        prop_assert_eq!(a.resolve(b).resolve(c), a.resolve(b.resolve(c)));
        prop_assert_eq!(a.resolve(Logic::Z), a);
        prop_assert_eq!(a.resolve(a), a);
        Ok(())
    });
}

/// Generate an arbitrary (loop-free) block configuration — the same
/// distribution the proptest strategy used.
fn arb_block_config(g: &mut Gen) -> BlockConfig {
    let xp = g.vec_in(0u8..3, 36);
    let drv = g.vec_in(0u8..4, 6);
    let ins = g.vec_in(0u8..4, 6);
    let ie = g.in_range(0u8..4);
    let oe = g.in_range(0u8..4);
    let ae = g.in_range(0u8..4);

    let mut cfg = BlockConfig::default();
    for (i, &t) in xp.iter().enumerate() {
        cfg.crosspoints[i / 6][i % 6] = match t {
            0 => CellMode::StuckOff,
            1 => CellMode::Active,
            _ => CellMode::StuckOn,
        };
    }
    for (i, &d) in drv.iter().enumerate() {
        cfg.drivers[i] = match d {
            0 => OutMode::Off,
            1 => OutMode::Inv,
            2 => OutMode::Buf,
            _ => OutMode::Pass,
        };
        // keep everything feed-forward: edge destinations only
        cfg.dests[i] = OutputDest::EdgeLane;
    }
    for (i, &s) in ins.iter().enumerate() {
        cfg.inputs[i] = match s {
            0..=2 => InputSource::EdgeLane,
            _ => InputSource::One,
        };
    }
    let edge = |e: u8| match e {
        0 => Edge::West,
        1 => Edge::North,
        2 => Edge::East,
        _ => Edge::South,
    };
    cfg.input_edge = edge(ie);
    cfg.output_edge = edge(oe);
    cfg.alt_edge = edge(ae);
    if cfg.output_edge == cfg.input_edge {
        cfg.output_edge = cfg.input_edge.opposite();
    }
    cfg
}

/// Every block configuration round-trips through its 128-bit image.
#[test]
fn config_bitstream_round_trip() {
    prop::check("config_bitstream_round_trip", 48, |g| {
        let cfg = arb_block_config(g);
        let img = cfg.encode();
        prop_assert_eq!(BlockConfig::decode(&img), Some(cfg));
        Ok(())
    });
}

/// The digital block model and the elaborated gate netlist agree on
/// every input vector, for arbitrary feed-forward configurations —
/// the central correctness property of the fabric.
#[test]
fn block_eval_matches_elaborated_simulation() {
    prop::check("block_eval_matches_elaborated_simulation", 48, |g| {
        let cfg = arb_block_config(g);
        let inputs = g.vec_bool(6);
        let mut fabric = Fabric::new(1, 1);
        *fabric.block_mut(0, 0) = cfg.clone();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(&elab.netlist);
        let mut edge_in = [Logic::X; LANES];
        for (c, &v) in inputs.iter().enumerate() {
            edge_in[c] = Logic::from_bool(v);
            sim.drive(elab.edge_lane(0, 0, cfg.input_edge, c), Logic::from_bool(v));
        }
        sim.settle(1_000_000).expect("feed-forward block settles");
        let model = cfg.eval(&edge_in, &[Logic::Z, Logic::Z]);
        for t in 0..LANES {
            if cfg.dests[t] == OutputDest::EdgeLane && cfg.drivers[t] != OutMode::Off {
                let lane = elab.edge_lane(0, 0, cfg.output_edge, t);
                // skip lanes that double as inputs (alt/output edge collisions)
                if cfg.output_edge == cfg.input_edge || cfg.alt_edge == cfg.output_edge {
                    continue;
                }
                prop_assert_eq!(sim.value(lane), model.edge_out[t], "term {} of {:?}", t, cfg);
            }
        }
        Ok(())
    });
}

/// Fabric bitstreams round-trip for whole arrays.
#[test]
fn fabric_bitstream_round_trip() {
    prop::check("fabric_bitstream_round_trip", 48, |g| {
        let mut fabric = Fabric::new(3, 2);
        for i in 0..6 {
            *fabric.block_mut(i % 3, i / 3) = arb_block_config(g);
        }
        let restored = Fabric::from_bitstream(&fabric.to_bitstream()).unwrap();
        prop_assert_eq!(restored, fabric);
        Ok(())
    });
}

/// Hazard repair preserves the function and removes every SIC
/// static-1 hazard, for arbitrary 4-variable functions.
#[test]
fn hazard_free_covers_equivalent_and_clean() {
    prop::check("hazard_free_covers_equivalent_and_clean", 48, |g| {
        use polymorphic_hw::synth::hazard;
        let tt = TruthTable::from_bits(4, g.u64());
        let cover = hazard::hazard_free_cover(&tt);
        prop_assert_eq!(cover.truth(4), tt);
        prop_assert!(hazard::is_hazard_free(&tt, &cover));
        Ok(())
    });
}

/// Defect maps: behaviour-level `disturbs` is implied by config-level
/// inequality on any *fully driven* configuration, and a dormant
/// fabric is never disturbed.
#[test]
fn defect_disturbance_semantics() {
    prop::check("defect_disturbance_semantics", 48, |g| {
        use polymorphic_hw::fabric::faults::DefectMap;
        let seed = g.u64();
        let rate = g.in_range(0.0f64..0.2);
        let map = DefectMap::sample(3, 3, rate, seed);
        let dormant = Fabric::new(3, 3);
        prop_assert!(!map.disturbs(&dormant));
        // fully used fabric: every term driven
        let mut used = Fabric::new(3, 3);
        for y in 0..3 {
            for x in 0..3 {
                let b = used.block_mut(x, y);
                for t in 0..LANES {
                    b.set_term(t, &[t]);
                    b.drivers[t] = OutMode::Buf;
                }
            }
        }
        let applied = map.apply(&used);
        prop_assert_eq!(map.disturbs(&used), applied != used);
        Ok(())
    });
}

/// Trit / cell-mode encodings round-trip.
#[test]
fn trit_cellmode_roundtrip() {
    prop::check("trit_cellmode_roundtrip", 48, |g| {
        let trit = Trit::ALL[g.in_range(0usize..3)];
        prop_assert_eq!(Trit::decode(trit.encode()), Some(trit));
        prop_assert_eq!(CellMode::from_trit(trit).to_trit(), trit);
        Ok(())
    });
}

/// The general mapper handles arbitrary 4-variable functions
/// (exhaustively checked per sample).
#[test]
fn general_mapper_arbitrary_4var() {
    prop::check("general_mapper_arbitrary_4var", 6, |g| {
        use polymorphic_hw::synth::mapk;
        let tt = TruthTable::from_bits(4, g.u64());
        let (w, h) = mapk::fabric_size_for(4);
        let mut fabric = Fabric::new(w, h);
        let mapped = mapk::map_function(&mut fabric, &tt).unwrap();
        let elab = mapped.elaborate(&fabric, &FabricTiming::default());
        for m in 0..16u64 {
            let mut sim = Simulator::new(&elab.netlist);
            for (v, ports) in mapped.var_ports.iter().enumerate() {
                for p in ports {
                    sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
                }
            }
            sim.settle(2_000_000).unwrap();
            prop_assert_eq!(sim.value(mapped.output.net(&elab)), Logic::from_bool(tt.eval(m)));
        }
        Ok(())
    });
}

/// Fabric adders of arbitrary small widths compute correct sums.
#[test]
fn adder_any_width_correct() {
    prop::check("adder_any_width_correct", 12, |g| {
        let n = g.in_range(1usize..=5);
        let mask = (1u64 << n) - 1;
        let (a, b) = (g.u64() & mask, g.u64() & mask);
        let cin = g.bool();
        let mut fabric = Fabric::new(2, 2 * n);
        let ports = ripple_adder(&mut fabric, 0, 0, n).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(&elab.netlist);
        for i in 0..n {
            let av = a >> i & 1 == 1;
            let bv = b >> i & 1 == 1;
            sim.drive(ports.a[i].0.net(&elab), Logic::from_bool(av));
            sim.drive(ports.a[i].1.net(&elab), Logic::from_bool(!av));
            sim.drive(ports.b[i].0.net(&elab), Logic::from_bool(bv));
            sim.drive(ports.b[i].1.net(&elab), Logic::from_bool(!bv));
        }
        sim.drive(ports.cin.0.net(&elab), Logic::from_bool(cin));
        sim.drive(ports.cin.1.net(&elab), Logic::from_bool(!cin));
        sim.settle(50_000_000).unwrap();
        let mut bits: Vec<Logic> = ports.sum.iter().map(|p| sim.value(p.net(&elab))).collect();
        bits.push(sim.value(ports.cout.0.net(&elab)));
        prop_assert_eq!(polymorphic_hw::sim::logic::to_u64(&bits), Some(a + b + cin as u64));
        Ok(())
    });
}
