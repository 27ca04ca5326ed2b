//! Tracked sweep-engine throughput suite behind `BENCH_sweeps.json`
//! (`scripts/bench.sh`).
//!
//! Times the E18 variation Monte-Carlo, E19 defect-yield curves, the
//! Fig. 10 adder vector sweep, the sequential 64-lane truth sweep, and
//! the hierarchical partitioned PnR of a 100×100-block fabric through
//! the sharded engine (`pmorph-exec`) against their retained flat/serial
//! references — plus the polymorphic synthesis + personality-proof
//! pipeline — and records seven pass/fail checks:
//!
//! * `sweeps_bit_identical_thread1_vs_n` — the sharded E18 study at the
//!   host's worker count equals the flat serial study bit for bit.
//! * `seq_sweep_bit_identical_thread1_vs_n` — the sharded sequential
//!   pipeline sweep equals the serial run bit for bit.
//! * `poly_sweep_bit_identical_thread1_vs_n` — the per-mode truth masks
//!   recovered while proving a polymorphic circuit's personalities are
//!   bit-identical at 1 and N workers.
//! * `e18_sharded_speedup_vs_flat` — sharded full-scale E18 throughput
//!   over flat-serial meets a core-scaled floor: ≥4.0× with 8+ effective
//!   workers, ≥0.45×workers with 2–7, and ≥0.7× when only one core is
//!   available (overhead bound: sharding a serial host must stay within
//!   ~30% of the flat loop).
//! * `e18_direct_speedup_vs_nested` — full-scale E18 on one worker, with
//!   its direct switching-threshold solve, is ≥20× faster than the same
//!   samples through the nested solver it replaced (defined below from
//!   the public `solve_vout`).
//! * `pnr_hier_bit_identical_thread1_vs_n` — the hierarchical seeded
//!   placement search over the 10⁴-LUT fabric is bit-identical at 1 and
//!   N workers.
//! * `pnr_hier_speedup_vs_flat` — the hierarchical 8-candidate seeded
//!   placement search beats the flat single-block search by ≥1.2×. Both
//!   legs run on one worker, so the floor is purely algorithmic and
//!   holds on any host: a flat candidate shuffle scatters connected
//!   LUTs across the whole die (routes ~grid-sized) while a
//!   hierarchical shuffle stays region-local (routes ~region-sized).

use pmorph_bench::experiments::extensions::{defect_yield_curves, defect_yield_curves_flat};
use pmorph_bench::experiments::fabric_figs::{
    fig10_adder_check, fig10_adder_check_flat, fig10_adder_vectors,
};
use pmorph_device::variation::{run_study_cfg, run_study_flat, VariationModel};
use pmorph_device::{ConfigurableInverter, DgMosfet};
use pmorph_exec::SweepConfig;
use pmorph_util::microbench::{Criterion, Throughput};
use pmorph_util::rng::{mix_seed, Rng, StdRng};
use pmorph_util::{criterion_group, criterion_main, pool};
use std::hint::black_box;
use std::time::Instant;

/// Full-scale E18 sample count (the `--full` experiment size).
const E18_SAMPLES: usize = 400;

/// Effective worker count for the sharded legs: the pool's env-derived
/// count, capped at 8 (the tracked-baseline matrix never runs wider).
fn sharded_workers() -> usize {
    pool::worker_count().min(8)
}

/// Speedup floor for `e18_sharded_speedup_vs_flat`, scaled to what the
/// host can actually run in parallel: `PMORPH_THREADS` (capped at 8)
/// further capped by available cores — asking for 8 workers on a 1-core
/// container cannot beat the serial loop, only match it.
fn speedup_target() -> f64 {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let eff = sharded_workers().min(cores);
    if eff >= 8 {
        4.0
    } else if eff >= 2 {
        0.45 * eff as f64
    } else {
        0.7
    }
}

/// Floor for `e18_direct_speedup_vs_nested`. Both legs run on one worker,
/// so it is host-independent; it sits well under the measured ~50×.
const DIRECT_SPEEDUP_TARGET: f64 = 20.0;

/// The switching-threshold solver the direct residual solve replaced:
/// bisection over V_in with a full output solve per step, stuck when
/// either rail's output fails to reach the midpoint. Kept here only as
/// the timing reference for `e18_direct_speedup_vs_nested`.
fn nested_threshold(inv: &ConfigurableInverter) -> Option<f64> {
    let mid = inv.vdd / 2.0;
    if inv.solve_vout(0.0, 0.0) < mid || inv.solve_vout(inv.vdd, 0.0) > mid {
        return None;
    }
    let (mut lo, mut hi) = (0.0, inv.vdd);
    for _ in 0..60 {
        let m = 0.5 * (lo + hi);
        if inv.solve_vout(m, 0.0) > mid {
            lo = m;
        } else {
            hi = m;
        }
    }
    Some(0.5 * (lo + hi))
}

/// E18's Monte-Carlo samples (the draws of `variation::run_study`) solved
/// serially with [`nested_threshold`].
fn nested_e18(model: VariationModel, samples: usize, seed: u64) -> Vec<Option<f64>> {
    let nominal = ConfigurableInverter::default();
    let sigma = model.sigma_total();
    (0..samples)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, i as u64));
            let dvt_n = sigma * rng.std_normal();
            let dvt_p = sigma * rng.std_normal();
            nested_threshold(&ConfigurableInverter {
                nmos: DgMosfet { vt0: nominal.nmos.vt0 + dvt_n, ..nominal.nmos },
                pmos: DgMosfet { vt0: nominal.pmos.vt0 + dvt_p, ..nominal.pmos },
                vdd: nominal.vdd,
            })
        })
        .collect()
}

/// Median wall-clock nanoseconds of `f` over repeated runs inside a small
/// fixed budget (first run is a discarded warm-up). The `Bencher` keeps
/// its medians private, so the speedup check measures its own.
fn median_run_ns<O, F: FnMut() -> O>(budget_ms: u64, mut f: F) -> f64 {
    black_box(f());
    let start = Instant::now();
    let mut samples: Vec<u128> = Vec::new();
    while samples.len() < 5 || (start.elapsed().as_millis() < budget_ms as u128) {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_nanos().max(1));
        if samples.len() >= 101 {
            break;
        }
    }
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid] as f64
    } else {
        (samples[mid - 1] + samples[mid]) as f64 / 2.0
    }
}

/// E18 full-scale Monte-Carlo through the sharded engine vs the flat
/// serial loop — the headline `units_per_sec` pair the speedup check and
/// `benchcheck`'s required-prefix list key on.
fn sweeps_e18_variation(c: &mut Criterion) {
    let model = VariationModel::doped_bulk();
    let cfg = SweepConfig::new().with_workers(sharded_workers()).with_seed(1);
    let mut group = c.benchmark_group("sweeps/e18_variation");
    group.throughput(Throughput::Elements(E18_SAMPLES as u64));
    group.bench_function("sharded", |b| {
        b.iter(|| black_box(run_study_cfg(model, E18_SAMPLES, 1, 0.3, 0.7, &cfg)))
    });
    group.bench_function("flat", |b| {
        b.iter(|| black_box(run_study_flat(model, E18_SAMPLES, 1, 0.3, 0.7, 1)))
    });
    group.finish();
}

/// E19 defect-yield curves (three rates × trials) through the engine.
fn sweeps_e19_faults(c: &mut Criterion) {
    let trials = 24usize;
    let cfg = SweepConfig::new().with_workers(sharded_workers());
    let mut group = c.benchmark_group("sweeps/e19_faults");
    group.throughput(Throughput::Elements((3 * trials) as u64));
    group.bench_function("sharded", |b| b.iter(|| black_box(defect_yield_curves(trials, &cfg))));
    group.bench_function("flat", |b| b.iter(|| black_box(defect_yield_curves_flat(trials, 1))));
    group.finish();
}

/// Fig. 10 adder vector sweep (snapshot/restore per vector) through the
/// engine.
fn sweeps_fig10_adder(c: &mut Criterion) {
    let vectors = fig10_adder_vectors(20);
    let cfg = SweepConfig::new().with_workers(sharded_workers());
    let mut group = c.benchmark_group("sweeps/fig10_adder");
    group.throughput(Throughput::Elements(vectors.len() as u64));
    group.bench_function("sharded", |b| b.iter(|| black_box(fig10_adder_check(&vectors, &cfg))));
    group.bench_function("flat", |b| b.iter(|| black_box(fig10_adder_check_flat(&vectors))));
    group.finish();
}

/// A registered 12-input XOR pipeline (register bank after every tree
/// level: 12 → 6 → 3 → 2 → 1, four DFF levels) for the sequential sweep
/// workload — 4096 vectors = 64 state-plane words, enough to shard.
fn seq_pipeline() -> (pmorph_sim::SeqBitSim, Vec<pmorph_sim::NetId>, pmorph_sim::NetId, usize) {
    use pmorph_sim::{NetId, NetlistBuilder, SeqBitSim};
    let mut b = NetlistBuilder::new();
    let clk = b.net("clk");
    b.clock(clk, 500, 0);
    let inputs: Vec<NetId> = (0..12).map(|i| b.net(format!("i{i}"))).collect();
    let mut level = inputs.clone();
    let mut depth = 0usize;
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            let d = if pair.len() == 2 { b.xor(&[pair[0], pair[1]]) } else { pair[0] };
            let q = b.net(format!("q{depth}_{}", next.len()));
            b.dff(d, clk, None, q);
            next.push(q);
        }
        level = next;
        depth += 1;
    }
    let out = level[0];
    (SeqBitSim::new(b.build()).unwrap(), inputs, out, depth)
}

/// Sequential truth sweep (64-lane `step_cycle` words) through the
/// engine, sharded vs serial, plus the worker-count bit-identity check.
fn sweeps_seq_pipeline(c: &mut Criterion) {
    use pmorph_sim::sweep_seq_truth;
    let (proto, inputs, out, cycles) = seq_pipeline();
    let wide_cfg = SweepConfig::new().with_workers(sharded_workers());
    let serial_cfg = SweepConfig::new().with_workers(1);
    let mut group = c.benchmark_group("sweeps/seq_pipeline");
    group.throughput(Throughput::Elements(1u64 << 12));
    group.bench_function("sharded", |b| {
        b.iter(|| black_box(sweep_seq_truth(&proto, &inputs, &[out], cycles, &wide_cfg)))
    });
    group.bench_function("serial", |b| {
        b.iter(|| black_box(sweep_seq_truth(&proto, &inputs, &[out], cycles, &serial_cfg)))
    });
    group.finish();

    let wide = sweep_seq_truth(&proto, &inputs, &[out], cycles, &wide_cfg);
    let serial = sweep_seq_truth(&proto, &inputs, &[out], cycles, &serial_cfg);
    let identical = wide == serial && wide[0].is_some();
    assert!(
        c.record_check("seq_sweep_bit_identical_thread1_vs_n", identical),
        "sharded sequential sweep diverged from the serial run"
    );
}

/// The tracked E18 pass/fail checks: bit-identity across worker counts,
/// the core-scaled sharded-vs-flat speedup floor, and the direct solve's
/// floor over the nested one.
fn sweeps_checks(c: &mut Criterion) {
    let model = VariationModel::doped_bulk();
    let workers = sharded_workers();

    let flat = run_study_flat(model, E18_SAMPLES, 1, 0.3, 0.7, 1);
    let serial_cfg = SweepConfig::new().with_workers(1).with_seed(1);
    let wide_cfg = SweepConfig::new().with_workers(workers).with_seed(1);
    let identical = run_study_cfg(model, E18_SAMPLES, 1, 0.3, 0.7, &serial_cfg) == flat
        && run_study_cfg(model, E18_SAMPLES, 1, 0.3, 0.7, &wide_cfg) == flat;
    assert!(
        c.record_check("sweeps_bit_identical_thread1_vs_n", identical),
        "sharded E18 study diverged from the flat serial reference"
    );

    let budget_ms = 120u64;
    let sharded_ns =
        median_run_ns(budget_ms, || run_study_cfg(model, E18_SAMPLES, 1, 0.3, 0.7, &wide_cfg));
    let flat_ns = median_run_ns(budget_ms, || run_study_flat(model, E18_SAMPLES, 1, 0.3, 0.7, 1));
    let speedup = flat_ns / sharded_ns;
    let target = speedup_target();
    println!(
        "sweeps/e18_speedup: {speedup:.2}x (flat {flat_ns:.0} ns / sharded {sharded_ns:.0} ns, \
         {workers} workers, target {target:.2}x)"
    );
    assert!(
        c.record_check("e18_sharded_speedup_vs_flat", speedup >= target),
        "sharded E18 speedup {speedup:.2}x under core-scaled target {target:.2}x"
    );

    let direct_ns =
        median_run_ns(budget_ms, || run_study_cfg(model, E18_SAMPLES, 1, 0.3, 0.7, &serial_cfg));
    let nested_ns = median_run_ns(budget_ms, || nested_e18(model, E18_SAMPLES, 1));
    let speedup = nested_ns / direct_ns;
    println!(
        "sweeps/e18_direct_speedup: {speedup:.1}x (nested {nested_ns:.0} ns / direct \
         {direct_ns:.0} ns, 1 worker, target {DIRECT_SPEEDUP_TARGET:.0}x)"
    );
    assert!(
        c.record_check("e18_direct_speedup_vs_nested", speedup >= DIRECT_SPEEDUP_TARGET),
        "direct E18 speedup {speedup:.1}x under target {DIRECT_SPEEDUP_TARGET:.0}x"
    );
}

/// The polymorphic synthesis + proof pipeline: bi-decompose the 8-var
/// odd/even parity pair (the worst case for two-level methods, the best
/// showcase for XOR bi-decomposition), then prove both personalities by
/// exhaustive sharded sweeps. Tracked check: the per-mode masks the
/// sweep recovers are bit-identical at 1 and N workers — the property
/// the serve `poly_sweep` content address rests on.
fn sweeps_poly_synth(c: &mut Criterion) {
    use pmorph_sim::bitsim::{sweep_truth, BitSim};
    use pmorph_sim::table::WideMask;
    use pmorph_synth::poly::{synthesize, PolyTruth};

    let truth = PolyTruth::new(vec![
        ("odd".to_string(), WideMask::from_fn(8, |m| m.count_ones() % 2 == 1)),
        ("even".to_string(), WideMask::from_fn(8, |m| m.count_ones() % 2 == 0)),
    ])
    .unwrap();
    let wide_cfg = SweepConfig::new().with_workers(sharded_workers());
    let serial_cfg = SweepConfig::new().with_workers(1);

    let mut group = c.benchmark_group("sweeps/poly_synth");
    group.throughput(Throughput::Elements(1u64 << 8));
    group.bench_function("synth", |b| b.iter(|| black_box(synthesize(&truth).unwrap())));
    let s = synthesize(&truth).unwrap();
    group.bench_function("verify", |b| {
        b.iter(|| black_box(s.netlist.verify(&truth, &wide_cfg).is_ok()))
    });
    group.finish();

    // bit-identity of the *recovered* masks, mode by mode, word by word
    let mut identical = true;
    for mode in 0..truth.mode_count() {
        let (netlist, inputs, output) = s.netlist.netlist_for_mode(mode);
        let sim = BitSim::new(netlist).unwrap();
        let wide = sweep_truth(&sim, &inputs, &[output], &wide_cfg);
        let serial = sweep_truth(&sim, &inputs, &[output], &serial_cfg);
        identical &= wide == serial
            && wide[0].as_ref().is_some_and(|m| m.words() == truth.mask(mode).words());
    }
    assert!(
        c.record_check("poly_sweep_bit_identical_thread1_vs_n", identical),
        "polymorphic personality proof diverged across worker counts"
    );
}

/// Candidate count for the PnR search legs: enough that the one-time
/// partitioning/layout cost amortizes the way it does in a real seeded
/// search, without inflating the bench budget.
const PNR_CANDIDATES: usize = 8;

/// Speedup floor for `pnr_hier_speedup_vs_flat`. Both legs are timed on
/// a single worker, so the floor is purely algorithmic (hier candidates
/// route region-sized wire, flat candidates route grid-sized wire) and
/// host-independent; it sits well under the measured ~1.5× margin to
/// absorb CI jitter.
const PNR_SPEEDUP_TARGET: f64 = 1.2;

/// Hierarchical partitioned PnR candidate search on a 100×100-block
/// fabric (10⁴ LUTs, mostly-local connectivity) vs the flat single-block
/// search — the exact dispatch `best_seeded_placement` (and the serve
/// `place_route` job) makes at this size — plus the thread-count
/// bit-identity and hier-vs-flat speedup checks.
fn sweeps_pnr_hier(c: &mut Criterion) {
    use pmorph_fpga::pnr::best_seeded_placement_flat;
    use pmorph_fpga::pnr::hier::{auto_partitions, best_seeded_placement_hier};
    use pmorph_fpga::{testgen, FpgaTiming};

    let design = testgen::grid_design(100, 100, 0xFAB);
    let timing = FpgaTiming::default();
    let partitions = auto_partitions(design.luts.len());
    let wide_cfg = SweepConfig::new().with_workers(sharded_workers());
    let serial_cfg = SweepConfig::new().with_workers(1);

    let mut group = c.benchmark_group("sweeps/pnr_hier");
    group.throughput(Throughput::Elements(design.luts.len() as u64));
    group.bench_function("hier", |b| {
        b.iter(|| {
            black_box(best_seeded_placement_hier(
                &design,
                PNR_CANDIDATES,
                7,
                &timing,
                partitions,
                &wide_cfg,
            ))
        })
    });
    group.bench_function("flat", |b| {
        b.iter(|| {
            black_box(best_seeded_placement_flat(&design, PNR_CANDIDATES, 7, &timing, &wide_cfg))
        })
    });
    group.finish();

    let (wide, wide_cp, wide_winner, stats) =
        best_seeded_placement_hier(&design, PNR_CANDIDATES, 7, &timing, partitions, &wide_cfg);
    let (serial, serial_cp, serial_winner, _) =
        best_seeded_placement_hier(&design, PNR_CANDIDATES, 7, &timing, partitions, &serial_cfg);
    let identical = wide.placement == serial.placement
        && wide.connection_lengths == serial.connection_lengths
        && wide.max_occupancy == serial.max_occupancy
        && wide_cp == serial_cp
        && wide_winner == serial_winner
        && wide.placement.len() == design.luts.len();
    assert!(
        c.record_check("pnr_hier_bit_identical_thread1_vs_n", identical),
        "hierarchical PnR diverged across worker counts"
    );

    // Single-worker legs: the check certifies the algorithmic win, not
    // the host's core count (parallel scaling helps both paths — flat
    // shards candidates, hier shards partitions).
    let budget_ms = 300u64;
    let hier_ns = median_run_ns(budget_ms, || {
        best_seeded_placement_hier(&design, PNR_CANDIDATES, 7, &timing, partitions, &serial_cfg)
    });
    let flat_ns = median_run_ns(budget_ms, || {
        best_seeded_placement_flat(&design, PNR_CANDIDATES, 7, &timing, &serial_cfg)
    });
    let speedup = flat_ns / hier_ns;
    let target = PNR_SPEEDUP_TARGET;
    println!(
        "sweeps/pnr_hier_speedup: {speedup:.2}x (flat {flat_ns:.0} ns / hier {hier_ns:.0} ns, \
         {partitions} partitions, {} boundary nets, target {target:.2}x)",
        stats.boundary_nets
    );
    assert!(
        c.record_check("pnr_hier_speedup_vs_flat", speedup >= target),
        "hierarchical PnR speedup {speedup:.2}x under target {target:.2}x"
    );
}

criterion_group!(
    sweeps,
    sweeps_e18_variation,
    sweeps_e19_faults,
    sweeps_fig10_adder,
    sweeps_seq_pipeline,
    sweeps_poly_synth,
    sweeps_pnr_hier,
    sweeps_checks
);
criterion_main!(sweeps);
