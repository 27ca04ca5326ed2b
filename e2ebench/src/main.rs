//! End-to-end benchmark of the polymorphic-hw workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Three workloads, each in one process:
//!
//! | workload | what a pass is | an operation is |
//! |---|---|---|
//! | `serve_cold` | one epoch of 135 distinct jobs (27 per cacheable type) over real TCP, cache cleared between epochs | one job, `POST /jobs` to the last byte of its result |
//! | `repro_full` | the 26 experiments of `repro` at full scale, in seeded order | one experiment |
//! | `fabric_flow` | tech map → fabric map → elaborate → evaluate for a fixed design set on seeded vectors, over 2 threads | one design |
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes, replays the layers' public functions on
//! the recorded inputs, prints the per-layer metrics and writes a Chrome
//! trace to `e2ebench/traces/`. Every run checks its outputs; the last
//! line of standard output is the result object. README.md has the
//! metric definitions and the per-layer prediction table.

mod fabric_flow;
mod report;
mod repro_full;
mod serve_load;
mod spans;
mod specs;

use report::Outcome;
use std::time::Instant;

/// The seed whose output digests are pinned in the source.
pub const DEFAULT_SEED: u64 = 1;

/// Run parameters shared by every workload.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Time origin of every span in the run.
    pub origin: Instant,
}

impl Ctx {
    /// Where the traced run's Chrome trace goes.
    pub fn trace_path(&self) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.json", self.workload, self.seed))
    }

    /// Host facts recorded with a trace.
    pub fn trace_meta(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workload", self.workload.clone()),
            ("seed", self.seed.to_string()),
            ("seconds", self.seconds.to_string()),
            ("pmorph_threads", std::env::var("PMORPH_THREADS").unwrap_or_else(|_| "unset".into())),
            ("available_parallelism", parallelism().to_string()),
        ]
    }
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Timed passes after which the peak resident set is read: a fixed
/// amount of work, so the figure does not depend on how many passes a
/// run's time allowed.
const RSS_AFTER_PASSES: usize = 8;

/// Timing of one pass of a workload.
pub struct Pass {
    pub secs: f64,
    pub traced: bool,
    /// A warm-up pass: its outputs are checked, its timing is not used.
    pub warm_up: bool,
    /// Per-operation latencies in ms; infinite for a failed operation.
    pub latencies_ms: Vec<f64>,
}

/// Run `warm_up` untimed passes, then passes until `ctx.seconds` of
/// timed work is done. Warm-up passes are checked but not timed: the
/// host's cores take one to two seconds of load to reach a steady speed,
/// so each workload sets a count that lasts about that long. A traced
/// run alternates untraced and traced timed passes, so the tracing
/// overhead is measured within one process. `pass` gets the pass index
/// and whether to trace it. Returns the passes and the peak resident set
/// in MB after [`RSS_AFTER_PASSES`] timed passes.
pub fn run_passes(
    ctx: &Ctx,
    warm_up: usize,
    mut pass: impl FnMut(u64, bool) -> Pass,
) -> (Vec<Pass>, f64) {
    let mut out: Vec<Pass> = Vec::new();
    for i in 0..warm_up {
        let mut p = pass(i as u64, false);
        p.warm_up = true;
        out.push(p);
    }
    let mut timed = 0.0;
    let mut rss_mb = None;
    let min_passes = if ctx.traced { 2 } else { 1 };
    while timed < ctx.seconds || out.len() - warm_up < min_passes {
        let traced = ctx.traced && (out.len() - warm_up) % 2 == 1;
        let p = pass(out.len() as u64, traced);
        timed += p.secs;
        out.push(p);
        if out.len() - warm_up == RSS_AFTER_PASSES {
            rss_mb = Some(report::rss_peak_mb());
        }
    }
    (out, rss_mb.unwrap_or_else(report::rss_peak_mb))
}

/// End-to-end metrics from the untraced timed passes, and the run-level
/// per-layer ones (tail latency, failures, tracing overhead). Rates and
/// the typical latency are medians over passes, so a few slow seconds
/// on a shared host move them less than a whole-run mean would. A
/// failed operation counts as an infinite latency and not as a completed
/// job. `rss_mb` is the peak resident set [`run_passes`] read.
pub fn summarize(ctx: &Ctx, passes: &[Pass], setup_s: &[f64], rss_mb: f64, out: &mut Outcome) {
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced && !p.warm_up).collect();
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| report::median(&plain.iter().map(|p| f(p)).collect::<Vec<_>>());
    let completed = |p: &Pass| p.latencies_ms.iter().filter(|l| l.is_finite()).count() as f64;
    out.set("jobs_per_s", per_pass(&|p| completed(p) / p.secs));
    out.set("latency_p50_ms", per_pass(&|p| report::median(&p.latencies_ms)));
    out.set("pass_s", per_pass(&|p| p.secs));
    out.set("setup_s", report::median(setup_s));
    out.set("rss_peak_mb", rss_mb);
    let lat: Vec<f64> = plain.iter().flat_map(|p| p.latencies_ms.iter().copied()).collect();
    out.set("latency_p99_ms", report::quantile(&lat, 0.99));
    out.set("latency_samples", lat.len() as f64);
    out.set("failed_share", out.failed as f64 / out.attempted.max(1) as f64);
    let traced: Vec<f64> = passes.iter().filter(|p| p.traced).map(|p| p.secs).collect();
    if ctx.traced && !traced.is_empty() {
        let base = report::mean(&plain.iter().map(|p| p.secs).collect::<Vec<_>>());
        out.set("trace.overhead_pct", (report::mean(&traced) / base - 1.0) * 100.0);
    }
    let ms: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.1}{}", p.secs * 1e3, if p.warm_up { "w" } else { "" }))
        .collect();
    eprintln!("e2ebench: pass ms (w: warm-up) {}", ms.join(" "));
    eprintln!(
        "e2ebench: {} passes ({} traced, {} warm-up), {} ops timed, setup {:?}",
        passes.len(),
        traced.len(),
        passes.iter().filter(|p| p.warm_up).count(),
        lat.len(),
        setup_s
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload <serve_cold|repro_full|fabric_flow> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).unwrap_or_else(|| usage())
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    // Recording is the benchmark's choice, not the environment's: the
    // untraced run keeps the obs layer off, the traced run switches it
    // on only around its counter passes.
    pmorph_obs::force(false);
    let ctx = Ctx { workload, seed, seconds, traced, origin: Instant::now() };
    eprintln!(
        "e2ebench: workload={} seed={} seconds={} trace={} PMORPH_THREADS={} parallelism={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.traced as u8,
        std::env::var("PMORPH_THREADS").unwrap_or_else(|_| "unset".into()),
        parallelism()
    );
    let outcome = match ctx.workload.as_str() {
        "serve_cold" => serve_load::run(&ctx),
        "repro_full" => repro_full::run(&ctx),
        "fabric_flow" => fabric_flow::run(&ctx),
        _ => usage(),
    };
    println!("{}", outcome.line(ctx.traced));
}

/// Counter deltas of the obs layer around `f`, with recording switched
/// on for its duration. Gauges are not read: their deltas are not
/// attributed to the scope that wrote them.
pub fn count_counters<T>(f: impl FnOnce() -> T) -> (T, Vec<(&'static str, u64)>) {
    const COUNTERS: [&str; 8] = [
        "exec.sweep.shards",
        "exec.sweep.items",
        "fpga.pnr.candidates",
        "sim.bitsim.words",
        "core.faults.samples",
        "device.variation.samples",
        "sim.events",
        "sim.evals",
    ];
    let read = || COUNTERS.map(|c| pmorph_obs::registry::counter(c).get());
    pmorph_obs::force(true);
    let before = read();
    let out = f();
    let after = read();
    pmorph_obs::force(false);
    (out, COUNTERS.iter().zip(after.iter().zip(before)).map(|(n, (a, b))| (*n, a - b)).collect())
}

/// Record counter deltas as per-operation counts over `ops` operations.
pub fn set_counts(out: &mut Outcome, counts: &[(&str, u64)], ops: usize) {
    out.set("trace.base_ops", ops as f64);
    for (name, delta) in counts {
        out.set(&format!("{name}_per_op"), *delta as f64 / ops.max(1) as f64);
    }
}
