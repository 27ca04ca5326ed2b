//! `benchcheck` binary behaviour against crafted artifacts: the
//! null-median rejection (the empty-sample serialization bug, satellite
//! of the observability PR) and the `--baseline` regression gate.

use std::path::PathBuf;
use std::process::{Command, Output};

const BENCHCHECK: &str = env!("CARGO_BIN_EXE_benchcheck");

fn write_tmp(name: &str, text: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("pmorph_bc_{}_{name}", std::process::id()));
    std::fs::write(&p, text).unwrap();
    p
}

fn run(args: &[&str]) -> Output {
    Command::new(BENCHCHECK).args(args).output().expect("benchcheck runs")
}

fn doc(benches: &str) -> String {
    format!(r#"{{ "budget_ms": 20, "benches": [{benches}], "checks": [] }}"#)
}

fn bench(name: &str, median: &str) -> String {
    format!(
        r#"{{ "name": "{name}", "median_ns": {median}, "mean_ns": 120.0,
             "min_ns": 90.0, "iters": 64, "units_per_sec": 1.0e6 }}"#
    )
}

#[test]
fn accepts_a_well_formed_artifact() {
    let p = write_tmp("ok.json", &doc(&bench("kernel/x_events/sweep", "100.0")));
    let out = run(&[p.to_str().unwrap(), "kernel/x_events"]);
    std::fs::remove_file(&p).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn rejects_null_median_with_an_explicit_message() {
    let p = write_tmp("null.json", &doc(&bench("kernel/x_events/sweep", "null")));
    let out = run(&[p.to_str().unwrap(), "kernel/x_events"]);
    std::fs::remove_file(&p).ok();
    assert!(!out.status.success(), "null median must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("median_ns: null") && err.contains("empty-sample"),
        "error must name the null-median cause, got: {err}"
    );
}

#[test]
fn rejects_missing_required_workload_and_failed_checks() {
    let p = write_tmp("missing.json", &doc(&bench("other/bench", "100.0")));
    let out = run(&[p.to_str().unwrap(), "kernel/x_events"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("required workload"));
    std::fs::remove_file(&p).ok();

    let failing = r#"{ "budget_ms": 20,
        "benches": [{ "name": "kernel/x_events/s", "median_ns": 10.0, "iters": 4,
                      "units_per_sec": 1.0 }],
        "checks": [{ "name": "alloc_free", "pass": false }] }"#;
    let p = write_tmp("badcheck.json", failing);
    let out = run(&[p.to_str().unwrap(), "kernel/x_events"]);
    std::fs::remove_file(&p).ok();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("check `alloc_free` failed"));
}

#[test]
fn required_check_must_be_recorded() {
    let recorded = r#"{ "budget_ms": 20,
        "benches": [{ "name": "kernel/x_events/s", "median_ns": 10.0, "iters": 4,
                      "units_per_sec": 1.0 }],
        "checks": [{ "name": "speedup_floor", "pass": true }] }"#;
    let p = write_tmp("reqcheck.json", recorded);
    let ok = run(&[p.to_str().unwrap(), "kernel/x_events", "--check", "speedup_floor"]);
    let missing = run(&[p.to_str().unwrap(), "kernel/x_events", "--check", "other_floor"]);
    std::fs::remove_file(&p).ok();
    assert!(ok.status.success(), "stderr: {}", String::from_utf8_lossy(&ok.stderr));
    assert!(!missing.status.success(), "an unrecorded required check must fail");
    assert!(String::from_utf8_lossy(&missing.stderr)
        .contains("required check `other_floor` was not recorded"));
}

#[test]
fn baseline_gate_passes_within_tolerance_and_fails_beyond_it() {
    let base = write_tmp("base.json", &doc(&bench("kernel/x_events/sweep", "100.0")));
    let same = write_tmp("same.json", &doc(&bench("kernel/x_events/sweep", "105.0")));
    let slow = write_tmp("slow.json", &doc(&bench("kernel/x_events/sweep", "150.0")));

    let ok = run(&[
        same.to_str().unwrap(),
        "kernel/x_events",
        "--baseline",
        base.to_str().unwrap(),
        "--max-regress-pct",
        "10",
    ]);
    assert!(ok.status.success(), "5% drift within a 10% gate must pass");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("within 10% of baseline"));

    let bad = run(&[
        slow.to_str().unwrap(),
        "kernel/x_events",
        "--baseline",
        base.to_str().unwrap(),
        "--max-regress-pct",
        "10",
    ]);
    assert!(!bad.status.success(), "50% regression must fail a 10% gate");
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains("regressed") && err.contains("kernel/x_events/sweep"), "{err}");

    for p in [base, same, slow] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn baseline_ignores_benches_absent_from_the_baseline() {
    // A brand-new bench (e.g. the obs group the first time it lands) must
    // not fail the gate just because the tracked file predates it.
    let base = write_tmp("oldbase.json", &doc(&bench("kernel/x_events/sweep", "100.0")));
    let newer = write_tmp(
        "newer.json",
        &doc(&format!(
            "{}, {}",
            bench("kernel/x_events/sweep", "101.0"),
            bench("obs/counter_inc_enabled", "5.0")
        )),
    );
    let out =
        run(&[newer.to_str().unwrap(), "kernel/x_events", "--baseline", base.to_str().unwrap()]);
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&newer).ok();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}
