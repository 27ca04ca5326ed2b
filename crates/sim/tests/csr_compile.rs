//! Differential property test for the simulator's CSR compile.
//!
//! [`Simulator::new`] builds its fan-in, fan-out and driver-slot arrays
//! straight from the components and never reads the netlist's net tables.
//! Its contract is that those arrays are exactly what
//! [`Netlist::finalize`] derives — same order, fan-out deduplicated the
//! same way — for any netlist, finalized or not. It also must not matter
//! whether the netlist is lent (`Simulator::new(&nl)`) or handed over
//! (`Simulator::new(nl.clone())`): both simulate bit-identically.

use pmorph_sim::logic::Logic;
use pmorph_sim::netlist::{CompId, Component, DriveMode, NetId, Netlist, PortRef};
use pmorph_sim::testgen::{random_combinational, random_netlist, random_schedule};
use pmorph_sim::{SimError, SimStats, Simulator};
use pmorph_util::prop::{self, CaseResult};
use pmorph_util::{prop_assert, prop_assert_eq};

/// The compiled connectivity of `Simulator::new(nl)` against a finalized
/// copy of `nl`.
fn compile_matches_finalize(nl: &Netlist) -> CaseResult {
    let sim = Simulator::new(nl);
    let mut reference = nl.clone();
    reference.finalize();
    for (c, comp) in reference.comps.iter().enumerate() {
        let want: Vec<NetId> = comp.inputs().collect();
        prop_assert_eq!(sim.fanin(CompId(c as u32)), &want[..], "fan-in of comp {}", c);
    }
    for (n, net) in reference.nets.iter().enumerate() {
        let id = NetId(n as u32);
        prop_assert_eq!(sim.fanout(id), &net.fanout[..], "fan-out of net {}", n);
        let drivers: Vec<PortRef> = sim.drivers(id).collect();
        prop_assert_eq!(&drivers, &net.drivers, "drivers of net {}", n);
    }
    Ok(())
}

type Run = (Result<(), SimError>, u64, SimStats, Vec<Vec<(u64, Logic)>>);

/// Watch every net, play `schedule`, run to `deadline`.
fn run(mut sim: Simulator, n_nets: usize, schedule: &[(u64, NetId, Logic)], deadline: u64) -> Run {
    let nets: Vec<NetId> = (0..n_nets as u32).map(NetId).collect();
    for &n in &nets {
        sim.watch(n);
    }
    for &(t, n, v) in schedule {
        sim.drive_at(n, v, t);
    }
    let res = sim.run_until(deadline, 20_000);
    let traces = nets.iter().map(|&n| sim.trace(n).to_vec()).collect();
    (res, sim.time(), sim.stats(), traces)
}

/// Borrowed and owned construction give bit-identical traces and stats.
fn borrowed_equals_owned(nl: &Netlist, schedule: &[(u64, NetId, Logic)]) -> CaseResult {
    let deadline = schedule.last().map_or(0, |&(t, _, _)| t) + 5_000;
    let n = nl.net_count();
    let borrowed = run(Simulator::new(nl), n, schedule, deadline);
    let owned = run(Simulator::new(nl.clone()), n, schedule, deadline);
    prop_assert!(borrowed == owned, "borrowed and owned runs differ");
    Ok(())
}

#[test]
fn compile_matches_finalize_on_random_combinational_netlists() {
    prop::check("csr_compile_combinational", 96, |g| {
        let (nl, inputs, _) = random_combinational(g, 8);
        compile_matches_finalize(&nl)?;
        let schedule = random_schedule(g, &inputs);
        borrowed_equals_owned(&nl, &schedule)
    });
}

#[test]
fn compile_matches_finalize_on_random_sequential_netlists() {
    // Feedback, tri-state buses, state elements and generators.
    prop::check("csr_compile_general", 48, |g| {
        let (nl, inputs) = random_netlist(g);
        compile_matches_finalize(&nl)?;
        let schedule = random_schedule(g, &inputs);
        borrowed_equals_owned(&nl, &schedule)
    });
}

fn check(nl: &Netlist) {
    if let Err(msg) = compile_matches_finalize(nl) {
        panic!("{msg}");
    }
}

#[test]
fn component_reading_one_net_twice_is_one_fanout_entry() {
    let mut nl = Netlist::new();
    let a = nl.add_net("a");
    let b = nl.add_net("b");
    let y = nl.add_net("y");
    let z = nl.add_net("z");
    let g0 = nl.add_comp(Component::Nand { inputs: vec![a, b, a], output: y }, 3);
    let g1 = nl.add_comp(Component::Xor { inputs: vec![a, a], output: z }, 3);
    check(&nl);
    let sim = Simulator::new(&nl);
    assert_eq!(sim.fanin(g0), &[a, b, a]);
    assert_eq!(sim.fanout(a), &[g0, g1]);
}

#[test]
fn two_output_mutex_drives_two_nets() {
    let mut nl = Netlist::new();
    let r1 = nl.add_net("r1");
    let r2 = nl.add_net("r2");
    let g1 = nl.add_net("g1");
    let g2 = nl.add_net("g2");
    let inv = nl.add_net("inv");
    nl.add_comp(Component::Inv { input: r1, output: inv }, 2);
    let m = nl.add_comp(Component::Mutex { r1, r2, g1, g2, owner: 0 }, 5);
    check(&nl);
    let sim = Simulator::new(&nl);
    assert_eq!(sim.drivers(g1).collect::<Vec<_>>(), vec![PortRef { comp: m, port: 0 }]);
    assert_eq!(sim.drivers(g2).collect::<Vec<_>>(), vec![PortRef { comp: m, port: 1 }]);
}

/// A small circuit with a wired bus, a constant and a clock.
fn mixed(nl: &mut Netlist) -> (NetId, NetId) {
    let a = nl.add_net("a");
    let en = nl.add_net("en");
    let bus = nl.add_net("bus");
    let clk = nl.add_net("clk");
    let q = nl.add_net("q");
    nl.add_comp(
        Component::TriBuf { input: a, enable: en, output: bus, mode: DriveMode::Inverting },
        4,
    );
    nl.add_comp(Component::Const { value: Logic::L0, output: bus }, 1);
    nl.add_comp(Component::Clock { output: clk, half_period: 20, phase: 5, value: Logic::L0 }, 1);
    nl.add_comp(
        Component::Dff { d: bus, clk, reset_n: None, q, last_clk: Logic::X, state: Logic::L0 },
        6,
    );
    (a, en)
}

#[test]
fn never_finalized_netlist_compiles() {
    let mut nl = Netlist::new();
    let (a, en) = mixed(&mut nl);
    assert!(!nl.is_finalized());
    check(&nl);
    let schedule = [(0, a, Logic::L1), (0, en, Logic::L1), (40, en, Logic::L0)];
    if let Err(msg) = borrowed_equals_owned(&nl, &schedule) {
        panic!("{msg}");
    }
}

#[test]
fn add_comp_after_finalize_compiles_and_keeps_tables_current() {
    let mut nl = Netlist::new();
    let (a, en) = mixed(&mut nl);
    nl.finalize();
    let late = nl.add_net("late");
    nl.add_comp(Component::Nand { inputs: vec![a, a, en], output: late }, 2);
    nl.add_comp(Component::Buf { input: late, output: a }, 2);
    check(&nl);
    // The in-place tables equal a full rebuild.
    assert!(nl.is_finalized());
    let mut rebuilt = nl.clone();
    rebuilt.finalize();
    for (got, want) in nl.nets.iter().zip(&rebuilt.nets) {
        assert_eq!((&got.fanout, &got.drivers), (&want.fanout, &want.drivers), "{}", got.name);
    }
}
