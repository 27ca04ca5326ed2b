//! Globally-asynchronous locally-synchronous systems (paper §4.1).
//!
//! > "An interesting concept that is likely to be important in the future
//! > is globally asynchronous, locally synchronous (GALS) where a system
//! > is partitioned into many clock domains and 'asynchronous wrappers'
//! > are provided for modules…"
//!
//! Two pieces:
//!
//! * [`pausible_clock`] — a gateable ring oscillator, the canonical GALS
//!   local clock: stopping the ring never produces a runt pulse because
//!   the gate is part of the loop;
//! * [`GalsSystem`] — two independently-clocked domains connected by the
//!   two-phase micropipeline FIFO, with two-flop synchronizers on each
//!   domain's view of the other's handshake signal. The transfer tests
//!   prove token conservation and ordering across arbitrary clock ratios
//!   — the paper's "variable sized computational modules" talking safely.

use crate::micropipeline::{self, Micropipeline};
use pmorph_sim::{Component, Logic, NetId, Netlist, NetlistBuilder, Simulator};

/// Build a pausible clock: a NAND-gated ring oscillator.
///
/// Returns `(netlist, run, clk)`. While `run = 1` the ring oscillates
/// with period `2 × (gate + loop_delay)`; dropping `run` parks the clock
/// high after completing the in-flight half-cycle (no runt pulses).
pub fn pausible_clock(loop_delay_ps: u64) -> (Netlist, NetId, NetId) {
    let mut b = NetlistBuilder::new();
    let run = b.net("run");
    let clk = b.net("clk");
    let fb = b.net("fb");
    b.delay_into(clk, fb, loop_delay_ps);
    b.nand_into(&[run, fb], clk);
    (b.build(), run, clk)
}

/// A two-domain GALS system: producer domain A, consumer domain B, joined
/// by an asynchronous FIFO with synchronized handshakes.
pub struct GalsSystem {
    /// The simulator (FIFO + synchronizer flops + domain clocks).
    pub sim: Simulator,
    pipe: Micropipeline,
    /// Producer's synchronized view of the FIFO ack.
    ack_synced_a: NetId,
    /// Consumer's synchronized view of the FIFO request.
    req_synced_b: NetId,
    period_a: u64,
    period_b: u64,
    /// Producer 2-phase request state.
    req_phase: bool,
    /// Consumer 2-phase ack state.
    ack_phase: bool,
    now: u64,
}

impl GalsSystem {
    const MARGIN: u64 = 200; // settle margin after each clock edge (ps)

    /// Build a system: FIFO of `depth` stages × `width` bits, domain
    /// clock periods in ps.
    pub fn new(depth: usize, width: usize, period_a: u64, period_b: u64) -> Self {
        let pipe = micropipeline::build(depth, width, 20, 5);
        let mut nl = pipe.netlist.clone();
        // Domain clocks.
        let clk_a = nl.add_net("clk_a");
        let clk_b = nl.add_net("clk_b");
        nl.add_comp(
            Component::Clock {
                output: clk_a,
                half_period: period_a / 2,
                phase: 37,
                value: Logic::L0,
            },
            1,
        );
        nl.add_comp(
            Component::Clock {
                output: clk_b,
                half_period: period_b / 2,
                phase: 53,
                value: Logic::L0,
            },
            1,
        );
        // Two-flop synchronizers.
        let two_flop = |nl: &mut Netlist, d: NetId, clk: NetId, tag: &str| {
            let m = nl.add_net(format!("sync_{tag}_meta"));
            let q = nl.add_net(format!("sync_{tag}"));
            nl.add_comp(
                Component::Dff {
                    d,
                    clk,
                    reset_n: None,
                    q: m,
                    last_clk: Logic::X,
                    state: Logic::L0,
                },
                10,
            );
            nl.add_comp(
                Component::Dff {
                    d: m,
                    clk,
                    reset_n: None,
                    q,
                    last_clk: Logic::X,
                    state: Logic::L0,
                },
                10,
            );
            q
        };
        let ack_synced_a = two_flop(&mut nl, pipe.ack_out, clk_a, "ack_a");
        let req_synced_b = two_flop(&mut nl, pipe.req_out, clk_b, "req_b");
        let mut sim = Simulator::new(nl);
        sim.drive(pipe.req_in, Logic::L0);
        sim.drive(pipe.ack_in, Logic::L0);
        for &d in &pipe.data_in {
            sim.drive(d, Logic::L0);
        }
        sim.run_until(10, 1_000_000).expect("init");
        GalsSystem {
            sim,
            pipe,
            ack_synced_a,
            req_synced_b,
            period_a,
            period_b,
            req_phase: false,
            ack_phase: false,
            now: 10,
        }
    }

    fn advance_to(&mut self, t: u64) {
        self.sim.run_until(t, 100_000_000).expect("advance");
        self.now = t;
    }

    /// Next rising edge of a clock with the given period/phase after `now`.
    fn next_edge(now: u64, period: u64, phase: u64) -> u64 {
        // rising edges at phase + k*period (Clock starts low, first edge at
        // `phase`)
        if now < phase {
            return phase;
        }
        let k = (now - phase) / period + 1;
        phase + k * period
    }

    /// Run the producer side for one A-clock cycle: send `word` if the
    /// synchronized ack says the FIFO is ready. Returns true if sent.
    pub fn producer_tick(&mut self, word: Option<u64>) -> bool {
        let edge = Self::next_edge(self.now, self.period_a, 37);
        self.advance_to(edge + Self::MARGIN);
        if let Some(w) = word {
            let ready = self.sim.value(self.ack_synced_a) == Logic::from_bool(self.req_phase);
            if ready {
                for (i, &d) in self.pipe.data_in.iter().enumerate() {
                    self.sim.drive(d, Logic::from_bool(w >> i & 1 == 1));
                }
                self.req_phase = !self.req_phase;
                let phase = self.req_phase;
                self.sim.drive(self.pipe.req_in, Logic::from_bool(phase));
                return true;
            }
        }
        false
    }

    /// Run the consumer side for one B-clock cycle: pop a word if the
    /// synchronized request indicates one is waiting.
    pub fn consumer_tick(&mut self) -> Option<u64> {
        let edge = Self::next_edge(self.now, self.period_b, 53);
        self.advance_to(edge + Self::MARGIN);
        let avail = self.sim.value(self.req_synced_b) == Logic::from_bool(!self.ack_phase);
        if !avail {
            return None;
        }
        let word = pmorph_sim::logic::to_u64(
            &self.pipe.data_out.iter().map(|&n| self.sim.value(n)).collect::<Vec<_>>(),
        )?;
        self.ack_phase = !self.ack_phase;
        let phase = self.ack_phase;
        self.sim.drive(self.pipe.ack_in, Logic::from_bool(phase));
        Some(word)
    }

    /// Transfer `words` from domain A to domain B, interleaving domain
    /// ticks; returns the received sequence.
    pub fn transfer(&mut self, words: &[u64]) -> Vec<u64> {
        let mut to_send = words.iter().copied();
        let mut pending = to_send.next();
        let mut got = Vec::new();
        let mut idle = 0;
        while got.len() < words.len() && idle < 10_000 {
            let mut progressed = false;
            if pending.is_some() && self.producer_tick(pending) {
                pending = to_send.next();
                progressed = true;
            }
            if let Some(w) = self.consumer_tick() {
                got.push(w);
                progressed = true;
            }
            if progressed {
                idle = 0;
            } else {
                idle += 1;
            }
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pausible_clock_runs_and_pauses_cleanly() {
        let (nl, run, clk) = pausible_clock(50);
        let mut sim = Simulator::new(nl);
        sim.drive(run, Logic::L0);
        sim.settle(1_000_000).unwrap();
        assert_eq!(sim.value(clk), Logic::L1, "parked high");
        sim.watch(clk);
        sim.drive(run, Logic::L1);
        sim.run_until(2_000, 10_000_000).unwrap();
        let edges: Vec<u64> =
            sim.trace(clk).iter().filter(|(_, v)| v.is_definite()).map(|(t, _)| *t).collect();
        assert!(edges.len() > 10, "oscillates: {} edges", edges.len());
        // pause and verify no runt: last level change completes, then stops
        sim.drive(run, Logic::L0);
        sim.settle(10_000_000).unwrap();
        assert_eq!(sim.value(clk), Logic::L1, "parks high again");
        // all half-periods during running phase are equal (no runts)
        let steady: Vec<u64> = edges.windows(2).map(|w| w[1] - w[0]).skip(1).collect();
        let head = steady[1];
        assert!(
            steady[1..steady.len() - 1].iter().all(|&p| p == head),
            "uniform half-period {steady:?}"
        );
    }

    #[test]
    fn transfer_equal_clocks() {
        let words: Vec<u64> = (1..=10).collect();
        let mut g = GalsSystem::new(3, 8, 1000, 1000);
        assert_eq!(g.transfer(&words), words);
    }

    #[test]
    fn transfer_fast_producer_slow_consumer() {
        let words: Vec<u64> = (1..=12).map(|i| i * 7 % 256).collect();
        let mut g = GalsSystem::new(3, 8, 500, 1900);
        assert_eq!(g.transfer(&words), words, "backpressure preserves order");
    }

    #[test]
    fn transfer_slow_producer_fast_consumer() {
        let words: Vec<u64> = (1..=12).map(|i| 255 - i).collect();
        let mut g = GalsSystem::new(2, 8, 2300, 400);
        assert_eq!(g.transfer(&words), words);
    }

    #[test]
    fn transfer_coprime_periods() {
        let words: Vec<u64> = vec![0xAB, 0xCD, 0x01, 0xFE, 0x3C];
        let mut g = GalsSystem::new(4, 8, 770, 1130);
        assert_eq!(g.transfer(&words), words);
    }
}
