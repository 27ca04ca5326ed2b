//! Criterion benches, one group per paper figure (E1–E10): each measures
//! the computational kernel that regenerates that figure, so performance
//! regressions in the reproduction pipeline are visible.

use pmorph_core::elaborate::elaborate;
use pmorph_core::{Fabric, FabricTiming};
use pmorph_device::{ConfigurableInverter, ConfigurableNand, Rtd, RtdRamCell, RtdStack, Trit};
use pmorph_sim::{Logic, Simulator};
use pmorph_synth::{dff, lut3, ripple_adder, TruthTable};
use pmorph_util::microbench::{BenchmarkId, Criterion};
use pmorph_util::{criterion_group, criterion_main};
use std::hint::black_box;

fn fig3_inverter_vtc(c: &mut Criterion) {
    let inv = ConfigurableInverter::default();
    c.bench_function("fig3/vtc_family_5_biases_x_41pts", |b| {
        b.iter(|| {
            for vg2 in [-1.5, -0.5, 0.0, 0.5, 1.5] {
                black_box(inv.vtc(black_box(vg2), 41));
            }
        })
    });
    c.bench_function("fig3/switching_threshold", |b| {
        b.iter(|| black_box(inv.switching_threshold(black_box(0.0))))
    });
}

fn fig4_nand_modes(c: &mut Criterion) {
    let gate = ConfigurableNand::default();
    c.bench_function("fig4/classify_all_9_bias_configs", |b| {
        b.iter(|| {
            for ta in Trit::ALL {
                for tb in Trit::ALL {
                    black_box(gate.classify(ta, tb));
                }
            }
        })
    });
}

fn fig6_rtd_ram(c: &mut Criterion) {
    c.bench_function("fig6/stack_equilibria", |b| {
        let stack = RtdStack::new(Rtd::double_peak(), 0.9);
        b.iter(|| black_box(stack.stable_states()))
    });
    c.bench_function("fig6/write_cycle", |b| {
        let mut cell = RtdRamCell::three_state();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % 3;
            cell.write(k);
            black_box(cell.read())
        })
    });
}

fn fig7_block_sim(c: &mut Criterion) {
    let mut fabric = Fabric::new(1, 1);
    {
        let b = fabric.block_mut(0, 0);
        for t in 0..6 {
            b.set_term(t, &[(t) % 6, (t + 1) % 6]);
            b.drivers[t] = pmorph_core::OutMode::Buf;
        }
    }
    let elab = elaborate(&fabric, &FabricTiming::default());
    c.bench_function("fig7/block_64_vector_sweep", |b| {
        b.iter(|| {
            for m in 0..64u64 {
                let mut sim = Simulator::new(&elab.netlist);
                for i in 0..6 {
                    sim.drive(elab.vlane(0, 0, i), Logic::from_bool(m >> i & 1 == 1));
                }
                sim.settle(100_000).unwrap();
                black_box(sim.value(elab.vlane(1, 0, 0)));
            }
        })
    });
}

fn fig9_lut_dff(c: &mut Criterion) {
    c.bench_function("fig9/map_lut3_all_functions", |b| {
        b.iter(|| {
            for bits in (0..256u64).step_by(16) {
                let mut fabric = Fabric::new(4, 1);
                black_box(lut3(&mut fabric, 0, 0, &TruthTable::from_bits(3, bits)).unwrap());
            }
        })
    });
    c.bench_function("fig9/dff_clock_cycle", |b| {
        let mut fabric = Fabric::new(5, 1);
        let p = dff(&mut fabric, 0, 0).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        let mut sim = Simulator::new(&elab.netlist);
        sim.drive(p.d.net(&elab), Logic::L0);
        sim.drive(p.clk.net(&elab), Logic::L0);
        sim.drive(p.reset_n.net(&elab), Logic::L0);
        sim.settle(10_000_000).unwrap();
        sim.drive(p.reset_n.net(&elab), Logic::L1);
        sim.settle(10_000_000).unwrap();
        let mut bit = false;
        b.iter(|| {
            bit = !bit;
            sim.drive(p.d.net(&elab), Logic::from_bool(bit));
            sim.settle(10_000_000).unwrap();
            sim.drive(p.clk.net(&elab), Logic::L1);
            sim.settle(10_000_000).unwrap();
            sim.drive(p.clk.net(&elab), Logic::L0);
            sim.settle(10_000_000).unwrap();
            black_box(sim.value(p.q.net(&elab)))
        })
    });
}

fn fig10_adder(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10/adder_settle");
    for n in [4usize, 8, 16] {
        let mut fabric = Fabric::new(2, 2 * n);
        let ports = ripple_adder(&mut fabric, 0, 0, n).unwrap();
        let elab = elaborate(&fabric, &FabricTiming::default());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut sim = Simulator::new(&elab.netlist);
                for i in 0..n {
                    sim.drive(ports.a[i].0.net(&elab), Logic::L1);
                    sim.drive(ports.a[i].1.net(&elab), Logic::L0);
                    sim.drive(ports.b[i].0.net(&elab), Logic::L0);
                    sim.drive(ports.b[i].1.net(&elab), Logic::L1);
                }
                sim.drive(ports.cin.0.net(&elab), Logic::L1);
                sim.drive(ports.cin.1.net(&elab), Logic::L0);
                sim.settle(50_000_000).unwrap();
                black_box(sim.value(ports.cout.0.net(&elab)))
            })
        });
    }
    group.finish();
}

fn fig11_micropipeline(c: &mut Criterion) {
    c.bench_function("fig11/ring_cycle_time_measurement", |b| {
        b.iter(|| black_box(pmorph_async::measure_cycle_time(4, 20, 5, 5).unwrap()))
    });
}

fn fig12_ecse(c: &mut Criterion) {
    let mut fabric = Fabric::new(6, 1);
    let p = pmorph_async::ecse(&mut fabric, 0, 0).unwrap();
    let elab = elaborate(&fabric, &FabricTiming::default());
    c.bench_function("fig12/ecse_event_pair", |b| {
        let mut sim = Simulator::new(&elab.netlist);
        for n in [p.din.net(&elab), p.req.net(&elab), p.ack.net(&elab)] {
            sim.drive(n, Logic::L0);
        }
        sim.settle(5_000_000).unwrap();
        let mut phase = false;
        b.iter(|| {
            phase = !phase;
            sim.drive(p.req.net(&elab), Logic::from_bool(phase));
            sim.settle(5_000_000).unwrap();
            sim.drive(p.ack.net(&elab), Logic::from_bool(phase));
            sim.settle(5_000_000).unwrap();
            black_box(sim.value(p.z.net(&elab)))
        })
    });
}

criterion_group!(
    figures,
    fig3_inverter_vtc,
    fig4_nand_modes,
    fig6_rtd_ram,
    fig7_block_sim,
    fig9_lut_dff,
    fig10_adder,
    fig11_micropipeline,
    fig12_ecse
);
criterion_main!(figures);
