//! Metric catalogue, summary statistics and the result line.
//!
//! The catalogue mirrors `BENCHMARK.json`: a run without tracing prints
//! every end-to-end metric, a traced run every per-layer metric. A
//! per-layer metric whose layer a workload never calls reads 0 on that
//! workload (README.md lists where each one is measured).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // run-level
    ("latency_p99_ms", "ms"),
    ("latency_samples", "count"),
    ("failed_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.base_ops", "count"),
    // serve, live
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.run_ms.truth_sweep_p50", "ms"),
    ("serve.run_ms.truth_sweep_share", "ratio"),
    ("serve.run_ms.seq_sweep_p50", "ms"),
    ("serve.run_ms.seq_sweep_share", "ratio"),
    ("serve.run_ms.fault_campaign_p50", "ms"),
    ("serve.run_ms.fault_campaign_share", "ratio"),
    ("serve.run_ms.place_route_p50", "ms"),
    ("serve.run_ms.place_route_share", "ratio"),
    ("serve.run_ms.poly_sweep_p50", "ms"),
    ("serve.run_ms.poly_sweep_share", "ratio"),
    ("serve.cache.design_hit_ratio", "ratio"),
    ("serve.cache.result_hit_ratio", "ratio"),
    ("serve.http.submit_ms_p50", "ms"),
    ("serve.http.result_ms_p50", "ms"),
    // serve, job replay (mean per job)
    ("fpga.circuits.build_ms", "ms"),
    ("fpga.tech_map_ms", "ms"),
    ("fpga.pnr.flat_ms", "ms"),
    ("fpga.pnr.hier_ms", "ms"),
    ("sim.bitsim.truth_ms", "ms"),
    ("sim.seqbitsim.sweep_ms", "ms"),
    ("core.faults.sample_sweep_ms", "ms"),
    ("core.faults.bad_blocks_ms", "ms"),
    ("synth.poly.synthesize_ms", "ms"),
    ("synth.poly.verify_ms", "ms"),
    ("serve.payload.serialise_ms", "ms"),
    ("serve.job.unattributed_ms", "ms"),
    ("serve.job.stage_coverage", "ratio"),
    // serve, request replay (mean per request)
    ("serve.http.read_request_us", "us"),
    ("util.json.parse_us", "us"),
    ("serve.spec.parse_us", "us"),
    ("serve.spec.address_us", "us"),
    ("serve.cache.lookup_us", "us"),
    ("serve.registry.submit_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.http.unattributed_us", "us"),
    // repro, median per experiment
    ("repro.E1_ms", "ms"),
    ("repro.E2_ms", "ms"),
    ("repro.E3_ms", "ms"),
    ("repro.E4_ms", "ms"),
    ("repro.E5_ms", "ms"),
    ("repro.E6_ms", "ms"),
    ("repro.E7_ms", "ms"),
    ("repro.E8_ms", "ms"),
    ("repro.E9_ms", "ms"),
    ("repro.E10_ms", "ms"),
    ("repro.E11_ms", "ms"),
    ("repro.E12_ms", "ms"),
    ("repro.E13_ms", "ms"),
    ("repro.E14_ms", "ms"),
    ("repro.E15_ms", "ms"),
    ("repro.E16_ms", "ms"),
    ("repro.E17_ms", "ms"),
    ("repro.E18_ms", "ms"),
    ("repro.E19_ms", "ms"),
    ("repro.E20_ms", "ms"),
    ("repro.E21_ms", "ms"),
    ("repro.E22_ms", "ms"),
    ("repro.E23_ms", "ms"),
    ("repro.E24_ms", "ms"),
    ("repro.E25_ms", "ms"),
    ("repro.E26_ms", "ms"),
    // fabric flow, mean per pass
    ("flow.map_fabric_ms", "ms"),
    ("core.elaborate_ms", "ms"),
    ("flow.eval_ms", "ms"),
    ("sim.event.reference_ms", "ms"),
    // obs counter deltas per operation
    ("exec.sweep.shards_per_op", "count/op"),
    ("exec.sweep.items_per_op", "count/op"),
    ("fpga.pnr.candidates_per_op", "count/op"),
    ("sim.bitsim.words_per_op", "count/op"),
    ("core.faults.samples_per_op", "count/op"),
    ("device.variation.samples_per_op", "count/op"),
    ("sim.events_per_op", "count/op"),
    ("sim.evals_per_op", "count/op"),
    ("sim.events_per_vector", "count/vector"),
    ("sim.evals_per_vector", "count/vector"),
];

/// One run's outcome: operation counts, the gate verdict and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (empty when every gate passed).
    gate_failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.metrics.insert(key, value);
    }

    /// Fail a gate: the run's result is reported as incorrect.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("e2ebench: GATE FAILED: {msg}");
            self.gate_failures.push(msg);
        }
    }

    /// The result line: every metric of the mode's catalogue. A value
    /// that is not finite (a latency percentile that fell on a failed
    /// operation) prints as `null`, so a run with failures still reports
    /// its counts instead of aborting.
    pub fn line(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.gate_failures.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = match self.metrics.get(name) {
                Some(v) => *v,
                // a per-layer metric of a layer this workload never calls
                None if traced => 0.0,
                None => panic!("end-to-end metric `{name}` was not measured"),
            };
            let sep = if i > 0 { ", " } else { "" };
            let value = if v.is_finite() { v.to_string() } else { "null".into() };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Linear-interpolated quantile `q` in [0, 1] (numpy's default).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if v[hi] == v[lo] {
        // also keeps two infinite neighbours from interpolating to NaN
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fast 64-bit digest of a byte string (word-at-a-time multiply-mix).
/// Used to compare payloads with their references; not cryptographic.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 32)
}

/// Fold a digest into a running one (order-sensitive).
pub fn fold(acc: u64, d: u64) -> u64 {
    (acc ^ d).wrapping_mul(0x100_0000_01B3).rotate_left(17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_within_limits() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = pmorph_util::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> =
                catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, want, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(mean(&[]), 0.0);
        let inf = f64::INFINITY;
        assert_eq!(median(&[1.0, inf, inf]), inf);
        assert_eq!(quantile(&[1.0, 2.0, inf], 0.25), 1.5);
    }

    #[test]
    fn digest_sees_every_byte() {
        let a = vec![7u8; 1001];
        let mut b = a.clone();
        b[1000] = 8;
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a[..1000]), digest(&a));
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(END_TO_END.iter().all(|(n, _)| line.contains(&format!("\"{n}\""))));
        let traced = o.line(true);
        assert!(PER_LAYER.iter().all(|(n, _)| traced.contains(&format!("\"{n}\""))));
    }

    #[test]
    fn failed_run_still_prints_its_line() {
        let mut o = Outcome { attempted: 4, failed: 3, ..Outcome::default() };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.set("latency_p50_ms", median(&[2.0, f64::INFINITY, f64::INFINITY, f64::INFINITY]));
        let line = o.line(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 3"));
        assert!(line.contains("\"latency_p50_ms\": {\"value\": null, \"unit\": \"ms\"}"));
    }
}
