//! `repro_full`: in-process full-scale passes over the experiment
//! registry of `repro`, one experiment per operation.
//!
//! Set-up is building the registry plus one warm-up pass (lazy
//! initialisation, allocator growth); its rows are the reference every
//! timed pass must reproduce, and their digest is pinned below. The seed
//! only orders the experiments within each pass: their inputs are fixed
//! by the registry, and their rows must not depend on the order.

use crate::report::{self, Outcome};
use crate::spans::{Recorder, Trace};
use crate::{Ctx, Pass};
use pmorph_bench::experiments::{registry, Experiment, ExperimentFn, Scale};
use pmorph_util::rng::{mix_seed, Rng, StdRng};
use std::time::Instant;

/// Digest of every experiment's id, pass flag and rows, in registry
/// order, at full scale.
const PINNED_ROWS_DIGEST: u64 = 0xb251_b0f6_81ba_127f;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;
/// Untimed passes after set-up (with the set-ups, about two seconds).
const WARM_UP_PASSES: usize = 2;

fn rows_digest(e: &Experiment) -> u64 {
    let mut d = report::digest(e.id.as_bytes());
    d = report::fold(d, e.pass as u64);
    for r in &e.rows {
        d = report::fold(d, report::digest(r.as_bytes()));
    }
    d
}

/// `E18/§3` → `E18`.
fn short_id(id: &str) -> &str {
    id.split('/').next().unwrap_or(id)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut reference: Vec<u64> = Vec::new();
    let mut experiments: Vec<(&'static str, ExperimentFn)> = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        experiments = registry();
        let digests: Vec<u64> =
            experiments.iter().map(|(_, f)| rows_digest(&f(Scale::full()))).collect();
        setups.push(t0.elapsed().as_secs_f64());
        if reference.is_empty() {
            reference = digests;
        } else {
            out.gate(digests == reference, || "warm-up passes disagree".into());
        }
    }
    let pinned = reference.iter().fold(0, |acc, d| report::fold(acc, *d));
    eprintln!("e2ebench: repro rows digest {pinned:#018x}");
    out.gate(pinned == PINNED_ROWS_DIGEST, || {
        format!("repro rows digest {pinned:#018x} != pinned {PINNED_ROWS_DIGEST:#018x}")
    });

    let mut trace = Trace::default();
    let mut per_exp: Vec<Vec<f64>> = vec![Vec::new(); experiments.len()];
    let (passes, rss_mb) = crate::run_passes(ctx, WARM_UP_PASSES, |i, traced| {
        let mut order: Vec<usize> = (0..experiments.len()).collect();
        StdRng::seed_from_u64(mix_seed(ctx.seed, i)).shuffle(&mut order);
        let mut rec = Recorder::new(ctx.origin, 1);
        let mut latencies = Vec::with_capacity(order.len());
        let mut results = Vec::with_capacity(order.len());
        let t0 = Instant::now();
        let pass_span = traced.then(|| rec.open("repro.pass", i, t0));
        for &k in &order {
            let (id, f) = experiments[k];
            let s = Instant::now();
            let e =
                if traced { rec.span(id, k as u64, || f(Scale::full())) } else { f(Scale::full()) };
            latencies.push(s.elapsed().as_secs_f64() * 1e3);
            results.push((k, e));
        }
        let secs = t0.elapsed().as_secs_f64();
        if let Some(span) = pass_span {
            rec.close(span, Instant::now());
            trace.absorb(rec);
            for (&k, ms) in order.iter().zip(&latencies) {
                per_exp[k].push(*ms);
            }
        }
        for (k, e) in &results {
            out.attempted += 1;
            if !e.pass || rows_digest(e) != reference[*k] {
                out.failed += 1;
                out.gate(false, || format!("{} did not reproduce its reference rows", e.id));
            }
        }
        Pass { secs, traced, warm_up: false, latencies_ms: latencies }
    });
    crate::summarize(ctx, &passes, &setups, rss_mb, &mut out);

    if ctx.traced {
        for (k, (id, _)) in experiments.iter().enumerate() {
            out.set(&format!("repro.{}_ms", short_id(id)), report::median(&per_exp[k]));
        }
        let (_, counts) = crate::count_counters(|| {
            for (_, f) in &experiments {
                f(Scale::full());
            }
        });
        crate::set_counts(&mut out, &counts, experiments.len());
        let path = ctx.trace_path();
        if let Err(e) = trace.write_chrome(&path, &[(1, "repro")], &ctx.trace_meta()) {
            eprintln!("e2ebench: could not write {}: {e}", path.display());
        }
    }
    out
}
