//! Handshake protocols: four-phase Muller pipelines and protocol checkers.
//!
//! The micropipeline module covers two-phase (transition) signalling; this
//! module adds the four-phase (return-to-zero) discipline and trace
//! checkers that audit simulated handshakes for protocol violations —
//! the hazard-consciousness the paper's §4.1 says programmable platforms
//! should support.

use pmorph_sim::{Component, Logic, NetId, Netlist, NetlistBuilder, Simulator};

/// A four-phase Muller pipeline: `out_req_i = C(in_req_i, ¬out_req_{i+1})`.
#[derive(Clone, Debug)]
pub struct MullerPipeline {
    /// The netlist.
    pub netlist: Netlist,
    /// Request in.
    pub req_in: NetId,
    /// Ack to producer.
    pub ack_out: NetId,
    /// Request to consumer.
    pub req_out: NetId,
    /// Ack from consumer.
    pub ack_in: NetId,
    /// Per-stage C-element outputs.
    pub ctrl: Vec<NetId>,
}

/// Build an `n`-stage four-phase Muller pipeline control spine.
pub fn muller_pipeline(n: usize, stage_delay_ps: u64) -> MullerPipeline {
    assert!(n >= 1);
    let mut b = NetlistBuilder::new();
    let req_in = b.net("req_in");
    let ack_in = b.net("ack_in");
    let ctrl: Vec<NetId> = (0..n).map(|i| b.net(format!("s{i}"))).collect();
    for i in 0..n {
        let prev = if i == 0 { req_in } else { ctrl[i - 1] };
        let delayed = b.net(format!("s{i}_d"));
        b.delay_into(prev, delayed, stage_delay_ps);
        let next = if i + 1 < n { ctrl[i + 1] } else { ack_in };
        let nn = b.inv(next);
        b.comp(Component::CElement { a: delayed, b: nn, output: ctrl[i], state: Logic::L0 }, 10);
    }
    MullerPipeline {
        netlist: b.build(),
        req_in,
        ack_out: ctrl[0],
        req_out: ctrl[n - 1],
        ack_in,
        ctrl,
    }
}

/// A protocol violation found by a checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Simulation time of the offending transition.
    pub time: u64,
    /// Human-readable description.
    pub what: String,
}

/// Merge two watched traces into an event sequence `(time, which, level)`
/// with `which` = 0 for req, 1 for ack. Initial samples are skipped.
fn merge_events(req: &[(u64, Logic)], ack: &[(u64, Logic)]) -> Vec<(u64, u8, bool)> {
    let mut ev: Vec<(u64, u8, bool)> = Vec::new();
    for (which, tr) in [(0u8, req), (1u8, ack)] {
        for w in tr.windows(2) {
            if let (Some(_), Some(b)) = (w[0].1.to_bool(), w[1].1.to_bool()) {
                ev.push((w[1].0, which, b));
            }
        }
    }
    ev.sort();
    ev
}

/// Check a two-phase handshake: request and acknowledge *events* must
/// strictly alternate, request first. Returns the number of completed
/// tokens.
pub fn check_two_phase(req: &[(u64, Logic)], ack: &[(u64, Logic)]) -> Result<usize, Violation> {
    let ev = merge_events(req, ack);
    let mut expect = 0u8; // 0 = req's turn, 1 = ack's turn
    let mut tokens = 0;
    for (t, which, _) in ev {
        if which != expect {
            return Err(Violation {
                time: t,
                what: format!(
                    "two-phase order violated: {} fired out of turn",
                    if which == 0 { "req" } else { "ack" }
                ),
            });
        }
        if which == 1 {
            tokens += 1;
        }
        expect ^= 1;
    }
    Ok(tokens)
}

/// Check a four-phase handshake: the cycle must be
/// `req↑, ack↑, req↓, ack↓`. Returns completed cycles.
pub fn check_four_phase(req: &[(u64, Logic)], ack: &[(u64, Logic)]) -> Result<usize, Violation> {
    let ev = merge_events(req, ack);
    // phases: 0: expect req↑; 1: expect ack↑; 2: expect req↓; 3: expect ack↓
    let expected: [(u8, bool); 4] = [(0, true), (1, true), (0, false), (1, false)];
    let mut phase = 0usize;
    let mut cycles = 0;
    for (t, which, level) in ev {
        let (ew, el) = expected[phase];
        if (which, level) != (ew, el) {
            return Err(Violation {
                time: t,
                what: format!(
                    "four-phase: expected {} {}, saw {} {}",
                    if ew == 0 { "req" } else { "ack" },
                    if el { "rise" } else { "fall" },
                    if which == 0 { "req" } else { "ack" },
                    if level { "rise" } else { "fall" },
                ),
            });
        }
        phase = (phase + 1) % 4;
        if phase == 0 {
            cycles += 1;
        }
    }
    Ok(cycles)
}

/// Drive `cycles` four-phase handshakes through a Muller pipeline with an
/// eager consumer, returning the audited cycle count at both ends.
pub fn run_four_phase(n_stages: usize, cycles: usize) -> Result<(usize, usize), Violation> {
    let p = muller_pipeline(n_stages, 15);
    let mut nl = p.netlist.clone();
    // eager consumer: ack follows req_out after a delay
    nl.add_comp(Component::Buf { input: p.req_out, output: p.ack_in }, 30);
    let mut sim = Simulator::new(nl);
    sim.watch(p.req_in);
    sim.watch(p.ack_out);
    sim.watch(p.req_out);
    sim.watch(p.ack_in);
    sim.drive(p.req_in, Logic::L0);
    sim.settle(1_000_000).expect("init");
    for _ in 0..cycles {
        // req↑, wait for ack↑; req↓, wait for ack↓.
        sim.drive(p.req_in, Logic::L1);
        sim.settle(1_000_000).expect("rise settles");
        assert_eq!(sim.value(p.ack_out), Logic::L1, "ack must rise");
        sim.drive(p.req_in, Logic::L0);
        sim.settle(1_000_000).expect("fall settles");
        assert_eq!(sim.value(p.ack_out), Logic::L0, "ack must fall");
    }
    let near = check_four_phase(sim.trace(p.req_in), sim.trace(p.ack_out))?;
    let far = check_four_phase(sim.trace(p.req_out), sim.trace(p.ack_in))?;
    Ok((near, far))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_phase_pipeline_completes_cycles() {
        let (near, far) = run_four_phase(3, 5).expect("protocol clean");
        assert_eq!(near, 5, "producer saw 5 full handshakes");
        assert_eq!(far, 5, "consumer saw 5 full handshakes");
    }

    #[test]
    fn single_stage_pipeline_works() {
        let (near, far) = run_four_phase(1, 3).expect("protocol clean");
        assert_eq!((near, far), (3, 3));
    }

    #[test]
    fn checker_flags_out_of_order_ack() {
        // Fabricate traces where ack fires before any request.
        let req = vec![(0, Logic::L0), (100, Logic::L1)];
        let ack = vec![(0, Logic::L0), (50, Logic::L1)];
        let err = check_two_phase(&req, &ack).unwrap_err();
        assert!(err.what.contains("out of turn"), "{err:?}");
        assert_eq!(err.time, 50);
    }

    #[test]
    fn checker_flags_missing_return_to_zero() {
        // req rises, ack rises, then ack falls *before* req falls.
        let req = vec![(0, Logic::L0), (10, Logic::L1)];
        let ack = vec![(0, Logic::L0), (20, Logic::L1), (30, Logic::L0)];
        let err = check_four_phase(&req, &ack).unwrap_err();
        assert!(err.what.contains("expected req fall"), "{err:?}");
    }

    #[test]
    fn two_phase_checker_counts_tokens() {
        let req = vec![(0, Logic::L0), (10, Logic::L1), (50, Logic::L0)];
        let ack = vec![(0, Logic::L0), (20, Logic::L1), (60, Logic::L0)];
        assert_eq!(check_two_phase(&req, &ack), Ok(2));
    }
}
