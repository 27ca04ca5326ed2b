//! Seeded job-spec generation for the `serve_cold` workload.
//!
//! The program only ever sees the generated JSON bodies. Each job type
//! draws from a fixed list of cost classes (circuit, size, fabric size,
//! variable count…) and the seed picks everything else (PRNG seeds,
//! truth masks, cycle counts, order), so two seeds give different specs
//! of about the same total cost. That keeps a run's figures comparable
//! across seeds.

use pmorph_sim::WideMask;
use pmorph_util::rng::{mix_seed, Rng, StdRng};

/// The five cacheable job types, in report order.
pub const KINDS: [&str; 5] =
    ["truth_sweep", "seq_sweep", "fault_campaign", "place_route", "poly_sweep"];

/// Cost classes per job type in one `serve_cold` epoch. `truth_sweep`
/// has exactly this many distinct specs (every combinational circuit
/// the server accepts), so an epoch draws all of them without
/// replacement.
pub const CLASSES_PER_KIND: usize = 27;

/// One generated request.
#[derive(Clone, Debug)]
pub struct GenSpec {
    /// Index into [`KINDS`].
    pub kind: usize,
    /// The JSON body sent to `POST /jobs`.
    pub body: String,
}

fn spec(kind: usize, body: String) -> GenSpec {
    GenSpec { kind, body }
}

/// Every `truth_sweep` spec the server accepts: ripple adders up to 19
/// inputs and parity trees up to 20 (the 20-variable sweep limit).
fn truth_space() -> Vec<GenSpec> {
    let adders = (2..=9).map(|n| ("ripple_adder", n));
    let trees = (2..=20).map(|n| ("parity_tree", n));
    adders
        .chain(trees)
        .map(|(c, n)| spec(0, format!(r#"{{"type":"truth_sweep","circuit":"{c}","size":{n}}}"#)))
        .collect()
}

fn seq_sweep(circuit: &str, size: usize, cycles: usize) -> GenSpec {
    spec(
        1,
        format!(r#"{{"type":"seq_sweep","circuit":"{circuit}","size":{size},"cycles":{cycles}}}"#),
    )
}

/// A job seed. The server documents seeds up to 2^53 - 1 but rejects
/// those above 9e15 as not integers, so seeds stay below 2^52.
fn job_seed(rng: &mut StdRng) -> u64 {
    rng.random::<u64>() >> 12
}

fn fault_campaign(rng: &mut StdRng, side: usize, trials: usize) -> GenSpec {
    // three significant digits keep the canonical rate short
    let rate = rng.random_range(1u32..=50) as f64 / 1000.0;
    let seed = job_seed(rng);
    spec(
        2,
        format!(
            r#"{{"type":"fault_campaign","width":{side},"height":{side},"rate":{rate},"trials":{trials},"seed":{seed}}}"#
        ),
    )
}

fn place_route(
    rng: &mut StdRng,
    circuit: &str,
    size: usize,
    cands: usize,
    parts: usize,
) -> GenSpec {
    let seed = job_seed(rng);
    spec(
        3,
        format!(
            r#"{{"type":"place_route","circuit":"{circuit}","size":{size},"candidates":{cands},"seed":{seed},"partitions":{parts}}}"#
        ),
    )
}

/// A `poly_sweep` over `vars` variables with `modes` personalities. Up
/// to 6 variables each mode is a uniformly random function; above that,
/// each mode is `g(low half) ∘ h(high half)` with random `g`, `h` and one
/// operator shared by every mode, the structure bi-decomposition is
/// built to find (a uniformly random 10-variable spec takes about a
/// second to synthesize, which would swamp every other job).
fn poly_sweep(rng: &mut StdRng, vars: usize, modes: usize) -> GenSpec {
    let op = rng.random_range(0u32..3);
    let half = vars / 2;
    let mut parts = Vec::with_capacity(modes);
    for m in 0..modes {
        let mask = if vars <= 6 {
            let mut w: u64 = rng.random();
            if vars < 6 {
                w &= (1u64 << (1u32 << vars)) - 1;
            }
            WideMask::from_words(vars, vec![w])
        } else {
            let g: Vec<bool> = (0..1usize << half).map(|_| rng.random()).collect();
            let h: Vec<bool> = (0..1usize << (vars - half)).map(|_| rng.random()).collect();
            WideMask::from_fn(vars, |x| {
                let (a, b) = (g[x as usize & ((1 << half) - 1)], h[x as usize >> half]);
                match op {
                    0 => a ^ b,
                    1 => a & b,
                    _ => a | b,
                }
            })
        };
        let words: Vec<String> = mask.words().iter().rev().map(|w| format!("{w:016x}")).collect();
        parts.push(format!(r#"{{"name":"m{m}","mask":"{}"}}"#, words.join(":")));
    }
    spec(4, format!(r#"{{"type":"poly_sweep","vars":{vars},"modes":[{}]}}"#, parts.join(",")))
}

const PNR_CIRCUITS: [&str; 4] =
    ["ripple_adder", "parity_tree", "shift_register", "registered_pipeline"];

/// One `serve_cold` epoch: [`CLASSES_PER_KIND`] specs of each of the
/// five types, shuffled. No spec repeats within an epoch; the server's
/// cache is cleared between epochs, so every job is a result-cache miss.
pub fn cold_epoch(seed: u64, epoch: u64) -> Vec<GenSpec> {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, epoch));
    let mut out = truth_space();
    assert_eq!(out.len(), CLASSES_PER_KIND);
    for i in 0..CLASSES_PER_KIND {
        let circuit = if i % 2 == 0 { "shift_register" } else { "registered_pipeline" };
        let size = 2 + i * 62 / (CLASSES_PER_KIND - 1);
        out.push(seq_sweep(circuit, size, size + 2 + rng.random_range(0..=size)));
    }
    for i in 0..CLASSES_PER_KIND {
        out.push(fault_campaign(&mut rng, 8 + (i % 9) * 2, 20 + (i / 9) * 20));
    }
    for i in 0..CLASSES_PER_KIND {
        let size = 8 + (i / 4) * 8;
        // every ninth class forces the hierarchical flow; the rest let
        // the server choose (flat below its LUT threshold)
        let parts = if i % 9 == 8 { 2 } else { 0 };
        out.push(place_route(&mut rng, PNR_CIRCUITS[i % 4], size, 2 + i % 7, parts));
    }
    for i in 0..CLASSES_PER_KIND {
        let vars = [4, 5, 6, 7, 8][i % 5];
        out.push(poly_sweep(&mut rng, vars, 2 + i % 3));
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_serve::JobSpec;
    use pmorph_util::json;
    use std::collections::HashSet;

    fn parse(g: &GenSpec) -> JobSpec {
        JobSpec::parse(&json::parse(&g.body).unwrap()).unwrap_or_else(|e| panic!("{}: {e}", g.body))
    }

    #[test]
    fn cold_epoch_is_valid_distinct_and_seeded() {
        let epoch = cold_epoch(1, 0);
        assert_eq!(epoch.len(), 5 * CLASSES_PER_KIND);
        let canon: HashSet<String> = epoch.iter().map(|g| parse(g).canonical()).collect();
        assert_eq!(canon.len(), epoch.len(), "no spec repeats within an epoch");
        for g in &epoch {
            assert_eq!(parse(g).kind(), KINDS[g.kind]);
        }
        assert_eq!(
            cold_epoch(1, 0).iter().map(|g| &g.body).collect::<Vec<_>>(),
            epoch.iter().map(|g| &g.body).collect::<Vec<_>>()
        );
        assert_ne!(cold_epoch(2, 0)[0].body, cold_epoch(1, 0)[0].body);
    }
}
