//! Job specifications: the JSON request schema, its canonical form (the
//! content-address), and job execution.
//!
//! ## Canonicalization and cache keys
//!
//! Every job spec re-serializes to a **canonical compact JSON** string:
//! fields in one fixed order per job type, defaults made explicit,
//! unknown fields rejected at parse time. The cache key is the FNV-1a
//! hash ([`pmorph_util::hash`]) of those canonical bytes — so two
//! submissions that differ only in JSON field order or whitespace share
//! an address, while any semantic difference (one changed config byte)
//! derives a different key. The canonical string itself is stored next
//! to each cached artifact and compared on lookup, so even an FNV
//! collision cannot alias two different jobs.
//!
//! ## Job types
//!
//! | `type` | flow | payload artifact |
//! |---|---|---|
//! | `truth_sweep` | netlist → tech map → 64-lane exhaustive sweep | per-output `WideMask` truth tables |
//! | `fault_campaign` | defect sampling over a fabric (E19 kernel) | per-trial defect/bad-block counts |
//! | `place_route` | netlist → tech map → seeded place + route + timing (hierarchical partitioned flow above [`hier::HIER_LUT_THRESHOLD`] LUTs, or on explicit `partitions >= 2`) | placement, wirelength, critical path, LUT config image |
//! | `poly_sweep` | polymorphic spec → bi-decomposition synthesis → per-mode exhaustive bitsim proof | mode-indexed cell config table + verified truth masks |
//! | `sleep` | diagnostic: cancellable timed steps | steps completed |
//!
//! `sleep` is deliberately uncacheable (and is the lever the e2e suite
//! uses to hold a worker busy); the other three are pure functions of
//! their canonical spec, which is what makes content-addressing sound.

use crate::cache::ArtifactCache;
use pmorph_core::faults::DefectMap;
use pmorph_exec::SweepConfig;
use pmorph_fpga::pnr::{best_seeded_placement_flat, hier, FpgaTiming};
use pmorph_fpga::{circuits, tech_map, MappedDesign};
use pmorph_sim::table::WideMask;
use pmorph_util::hash::Fnv64;
use pmorph_util::json::Value;
use pmorph_util::rng::mix_seed;
use std::sync::atomic::{AtomicBool, Ordering};

/// Generator circuits a job may name (the `pmorph-fpga` benchmark set).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CircuitKind {
    /// `ripple_adder_gates(size)` — combinational.
    RippleAdder,
    /// `parity_tree(size)` — combinational.
    ParityTree,
    /// `shift_register(size)` — sequential.
    ShiftRegister,
    /// `registered_pipeline(size)` — sequential.
    RegisteredPipeline,
}

impl CircuitKind {
    fn from_name(name: &str) -> Option<CircuitKind> {
        match name {
            "ripple_adder" => Some(CircuitKind::RippleAdder),
            "parity_tree" => Some(CircuitKind::ParityTree),
            "shift_register" => Some(CircuitKind::ShiftRegister),
            "registered_pipeline" => Some(CircuitKind::RegisteredPipeline),
            _ => None,
        }
    }

    /// The canonical (wire) name.
    pub fn name(&self) -> &'static str {
        match self {
            CircuitKind::RippleAdder => "ripple_adder",
            CircuitKind::ParityTree => "parity_tree",
            CircuitKind::ShiftRegister => "shift_register",
            CircuitKind::RegisteredPipeline => "registered_pipeline",
        }
    }

    /// Primary-input count of the generated circuit (exact; used to
    /// bound `truth_sweep` against the `WideMask` 20-variable limit).
    fn input_count(&self, size: usize) -> usize {
        match self {
            CircuitKind::RippleAdder => 2 * size + 1,
            CircuitKind::ParityTree => size,
            CircuitKind::ShiftRegister => 2,
            CircuitKind::RegisteredPipeline => 3,
        }
    }

    fn is_combinational(&self) -> bool {
        matches!(self, CircuitKind::RippleAdder | CircuitKind::ParityTree)
    }

    /// Inputs a `seq_sweep` actually enumerates: the primary inputs minus
    /// the (virtualized) clock — both sequential generators have exactly
    /// one clock net.
    fn sweep_input_count(&self, size: usize) -> usize {
        self.input_count(size) - !self.is_combinational() as usize
    }
}

/// A circuit reference inside a job spec.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Which generator.
    pub kind: CircuitKind,
    /// Generator size parameter.
    pub size: usize,
}

impl CircuitSpec {
    /// Instantiate the circuit.
    pub fn build(&self) -> circuits::Circuit {
        match self.kind {
            CircuitKind::RippleAdder => circuits::ripple_adder_gates(self.size),
            CircuitKind::ParityTree => circuits::parity_tree(self.size),
            CircuitKind::ShiftRegister => circuits::shift_register(self.size),
            CircuitKind::RegisteredPipeline => circuits::registered_pipeline(self.size),
        }
    }

    /// Cache key for this circuit's tech-mapped design (shared by every
    /// job type that needs the mapped netlist).
    pub fn design_key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("design:").write_str(self.kind.name()).write_u64(self.size as u64);
        h.finish()
    }
}

/// A validated job specification.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// Exhaustive truth-table sweep of a combinational circuit.
    TruthSweep {
        /// Circuit to characterize.
        circuit: CircuitSpec,
    },
    /// Cycle-bounded exhaustive sweep of a *sequential* circuit on the
    /// 64-lane sequential kernel: each input assignment is held constant
    /// for `cycles` virtual clock edges from the power-on state, and the
    /// settled output planes become the truth masks. A `truth_sweep`
    /// naming a sequential circuit parses into this job with the default
    /// cycle bound.
    SeqSweep {
        /// Circuit to characterize.
        circuit: CircuitSpec,
        /// Virtual clock edges per input assignment.
        cycles: usize,
    },
    /// Defect-map sampling campaign over a `width × height` fabric.
    FaultCampaign {
        /// Fabric width (blocks).
        width: usize,
        /// Fabric height (blocks).
        height: usize,
        /// Per-resource defect probability.
        rate: f64,
        /// Number of sampled maps.
        trials: usize,
        /// Parent seed (per-trial seeds are `mix_seed(seed, trial)`).
        seed: u64,
    },
    /// Seeded placement search + routing + timing.
    PlaceRoute {
        /// Circuit to place.
        circuit: CircuitSpec,
        /// Placement candidates to score.
        candidates: usize,
        /// Candidate-shuffle seed.
        seed: u64,
        /// Partition count for the hierarchical flow: `0` (the default)
        /// auto-selects from the design size, `1` forces the flat
        /// single-block flow, `>= 2` forces that many regions. Part of
        /// the canonical spec, so it is part of the content address.
        partitions: usize,
    },
    /// Polymorphic synthesis + proof: bi-decompose the mode-selected
    /// specification onto configurable NAND cells, then prove *every*
    /// personality equivalent by exhaustive per-mode bitsim sweeps. The
    /// payload is the netlist's per-mode `(Trit, Trit)` config table —
    /// the RTD back-gate RAM contents — plus the verified truth masks.
    PolySweep {
        /// The validated polymorphic specification.
        truth: pmorph_synth::poly::PolyTruth,
    },
    /// Diagnostic job: `steps` sleeps of `step_ms`, checking
    /// cancellation between steps. Never cached.
    Sleep {
        /// Number of steps.
        steps: usize,
        /// Milliseconds per step.
        step_ms: u64,
    },
    /// Test-only job that panics mid-run, exercising the worker's panic
    /// isolation.
    #[cfg(test)]
    Panic,
}

/// Spec validation failure (maps to HTTP 400).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Integer field access: present, a non-negative whole number, in range.
fn get_int(obj: &Value, key: &str, min: u64, max: u64) -> Result<u64, SpecError> {
    let v = obj.get(key).ok_or_else(|| err(format!("missing field `{key}`")))?;
    let x = v.as_f64().ok_or_else(|| err(format!("field `{key}` must be a number")))?;
    if x.fract() != 0.0 || x < 0.0 {
        return Err(err(format!("field `{key}` must be a non-negative integer")));
    }
    // compared as f64 so a value past u64 is reported as given, not saturated
    if !(min as f64..=max as f64).contains(&x) {
        return Err(err(format!("field `{key}` must be in {min}..={max}, got {x}")));
    }
    Ok(x as u64)
}

fn get_f64(obj: &Value, key: &str, min: f64, max: f64) -> Result<f64, SpecError> {
    let v = obj.get(key).ok_or_else(|| err(format!("missing field `{key}`")))?;
    let x = v.as_f64().ok_or_else(|| err(format!("field `{key}` must be a number")))?;
    if !(min..=max).contains(&x) {
        return Err(err(format!("field `{key}` must be in [{min}, {max}], got {x}")));
    }
    Ok(x)
}

fn check_fields(obj: &Value, allowed: &[&str]) -> Result<(), SpecError> {
    let Value::Object(fields) = obj else {
        return Err(err("job spec must be a JSON object"));
    };
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(err(format!("unknown field `{k}`")));
        }
    }
    Ok(())
}

fn get_circuit(obj: &Value) -> Result<CircuitSpec, SpecError> {
    let name = obj
        .get("circuit")
        .and_then(Value::as_str)
        .ok_or_else(|| err("missing string field `circuit`"))?;
    let kind = CircuitKind::from_name(name).ok_or_else(|| {
        err(format!(
            "unknown circuit `{name}` (one of: ripple_adder, parity_tree, \
             shift_register, registered_pipeline)"
        ))
    })?;
    let size = get_int(obj, "size", 2, 64)? as usize;
    Ok(CircuitSpec { kind, size })
}

/// Mode-count ceiling a `poly_sweep` accepts. Arbitrary but explicit:
/// the RTD bias DAC in the paper's platform exposes a handful of
/// distinguishable states, and the canonical-form size stays bounded.
pub const POLY_SWEEP_MAX_MODES: usize = 8;

/// Parse the [`mask_hex`] image back into a `WideMask`, strictly:
/// exactly `word_count(vars)` colon-separated 16-digit words,
/// most-significant word first. Rejecting rather than padding keeps one
/// canonical spelling per mask (modulo hex case, which canonicalizes).
fn mask_from_hex(vars: usize, text: &str) -> Result<WideMask, SpecError> {
    let parts: Vec<&str> = text.split(':').collect();
    let want = WideMask::word_count(vars);
    if parts.len() != want {
        return Err(err(format!(
            "mask for {vars} vars needs {want} 16-digit word(s), got {}",
            parts.len()
        )));
    }
    let mut words = Vec::with_capacity(want);
    for p in parts.iter().rev() {
        if p.len() != 16 || !p.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(err(format!("mask word `{p}` is not 16 hex digits")));
        }
        words.push(u64::from_str_radix(p, 16).expect("validated hex"));
    }
    let mask = WideMask::from_words(vars, words.clone());
    if mask.words() != words.as_slice() {
        return Err(err(format!("mask has bits above the {vars}-variable lane limit")));
    }
    Ok(mask)
}

/// Parse and validate the `modes` array of a `poly_sweep`.
fn get_poly_truth(doc: &Value) -> Result<pmorph_synth::poly::PolyTruth, SpecError> {
    use pmorph_synth::poly::MAX_SYNTH_VARS;
    let vars = get_int(doc, "vars", 1, MAX_SYNTH_VARS as u64)? as usize;
    let modes = doc
        .get("modes")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing array field `modes`"))?;
    // 0 or 1 modes is not a *polymorphic* job — reject loudly rather
    // than degenerate into a plain truth sweep
    if modes.len() < 2 {
        return Err(err(format!(
            "poly_sweep needs at least 2 modes (a polymorphic function has \
             several personalities), got {}",
            modes.len()
        )));
    }
    if modes.len() > POLY_SWEEP_MAX_MODES {
        return Err(err(format!(
            "poly_sweep supports at most {POLY_SWEEP_MAX_MODES} modes, got {}",
            modes.len()
        )));
    }
    let mut pairs = Vec::with_capacity(modes.len());
    for (i, m) in modes.iter().enumerate() {
        check_fields(m, &["name", "mask"]).map_err(|e| err(format!("modes[{i}]: {e}")))?;
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| err(format!("modes[{i}]: missing string field `name`")))?;
        if name.is_empty()
            || name.len() > 32
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(err(format!(
                "modes[{i}]: name must be 1..=32 chars of [A-Za-z0-9_-], got `{name}`"
            )));
        }
        if pairs.iter().any(|(n, _)| n == name) {
            return Err(err(format!("modes[{i}]: duplicate mode name `{name}`")));
        }
        let mask_text = m
            .get("mask")
            .and_then(Value::as_str)
            .ok_or_else(|| err(format!("modes[{i}]: missing string field `mask`")))?;
        let mask = mask_from_hex(vars, mask_text).map_err(|e| err(format!("modes[{i}]: {e}")))?;
        pairs.push((name.to_string(), mask));
    }
    pmorph_synth::poly::PolyTruth::new(pairs)
        .map_err(|e| err(format!("invalid polymorphic spec: {e}")))
}

impl JobSpec {
    /// Parse and validate a JSON job spec. Strict: unknown fields and
    /// out-of-range values are errors, so every accepted spec has exactly
    /// one canonical form.
    pub fn parse(doc: &Value) -> Result<JobSpec, SpecError> {
        if !matches!(doc, Value::Object(_)) {
            return Err(err("job spec must be a JSON object"));
        }
        let ty = doc
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| err("missing string field `type`"))?;
        match ty {
            "truth_sweep" => {
                check_fields(doc, &["type", "circuit", "size"])?;
                let circuit = get_circuit(doc)?;
                let inputs = circuit.kind.sweep_input_count(circuit.size);
                if inputs > WideMask::MAX_VARS {
                    return Err(err(format!(
                        "truth_sweep over {inputs} inputs exceeds the {}-variable sweep limit",
                        WideMask::MAX_VARS
                    )));
                }
                if circuit.kind.is_combinational() {
                    Ok(JobSpec::TruthSweep { circuit })
                } else {
                    // sequential circuits characterize on the sequential
                    // kernel with the default cycle bound: enough edges
                    // for any state to flush the longest register chain
                    // (size registers) under held inputs, plus margin
                    Ok(JobSpec::SeqSweep { circuit, cycles: circuit.size + 2 })
                }
            }
            "seq_sweep" => {
                check_fields(doc, &["type", "circuit", "size", "cycles"])?;
                let circuit = get_circuit(doc)?;
                let inputs = circuit.kind.sweep_input_count(circuit.size);
                if inputs > WideMask::MAX_VARS {
                    return Err(err(format!(
                        "seq_sweep over {inputs} inputs exceeds the {}-variable sweep limit",
                        WideMask::MAX_VARS
                    )));
                }
                let cycles = if doc.get("cycles").is_some() {
                    get_int(doc, "cycles", 1, 10_000)? as usize
                } else {
                    circuit.size + 2
                };
                Ok(JobSpec::SeqSweep { circuit, cycles })
            }
            "fault_campaign" => {
                check_fields(doc, &["type", "width", "height", "rate", "trials", "seed"])?;
                Ok(JobSpec::FaultCampaign {
                    width: get_int(doc, "width", 1, 256)? as usize,
                    height: get_int(doc, "height", 1, 256)? as usize,
                    rate: get_f64(doc, "rate", 0.0, 1.0)?,
                    trials: get_int(doc, "trials", 1, 100_000)? as usize,
                    seed: get_int(doc, "seed", 0, u64::MAX >> 11)?,
                })
            }
            "place_route" => {
                check_fields(
                    doc,
                    &["type", "circuit", "size", "candidates", "seed", "partitions"],
                )?;
                let partitions = if doc.get("partitions").is_some() {
                    get_int(doc, "partitions", 0, 4096)? as usize
                } else {
                    0 // auto: pick from the design size
                };
                Ok(JobSpec::PlaceRoute {
                    circuit: get_circuit(doc)?,
                    candidates: get_int(doc, "candidates", 1, 10_000)? as usize,
                    seed: get_int(doc, "seed", 0, u64::MAX >> 11)?,
                    partitions,
                })
            }
            "poly_sweep" => {
                check_fields(doc, &["type", "vars", "modes"])?;
                Ok(JobSpec::PolySweep { truth: get_poly_truth(doc)? })
            }
            "sleep" => {
                check_fields(doc, &["type", "steps", "step_ms"])?;
                Ok(JobSpec::Sleep {
                    steps: get_int(doc, "steps", 0, 10_000)? as usize,
                    step_ms: get_int(doc, "step_ms", 0, 1_000)?,
                })
            }
            #[cfg(test)]
            "panic" => Ok(JobSpec::Panic),
            other => Err(err(format!(
                "unknown job type `{other}` (one of: truth_sweep, seq_sweep, \
                 fault_campaign, place_route, poly_sweep, sleep)"
            ))),
        }
    }

    /// The job type's wire name.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::TruthSweep { .. } => "truth_sweep",
            JobSpec::SeqSweep { .. } => "seq_sweep",
            JobSpec::FaultCampaign { .. } => "fault_campaign",
            JobSpec::PlaceRoute { .. } => "place_route",
            JobSpec::PolySweep { .. } => "poly_sweep",
            JobSpec::Sleep { .. } => "sleep",
            #[cfg(test)]
            JobSpec::Panic => "panic",
        }
    }

    /// Canonical compact JSON: one fixed field order per type, defaults
    /// explicit. This string *is* the content address (hash it with
    /// [`JobSpec::cache_key`]) and round-trips through [`JobSpec::parse`].
    pub fn canonical(&self) -> String {
        let mut obj = Value::object();
        obj.set("type", Value::Str(self.kind().into()));
        match self {
            JobSpec::TruthSweep { circuit } => {
                obj.set("circuit", Value::Str(circuit.kind.name().into()));
                obj.set("size", Value::Num(circuit.size as f64));
            }
            JobSpec::SeqSweep { circuit, cycles } => {
                obj.set("circuit", Value::Str(circuit.kind.name().into()));
                obj.set("size", Value::Num(circuit.size as f64));
                obj.set("cycles", Value::Num(*cycles as f64));
            }
            JobSpec::FaultCampaign { width, height, rate, trials, seed } => {
                obj.set("width", Value::Num(*width as f64));
                obj.set("height", Value::Num(*height as f64));
                obj.set("rate", Value::Num(*rate));
                obj.set("trials", Value::Num(*trials as f64));
                obj.set("seed", Value::Num(*seed as f64));
            }
            JobSpec::PlaceRoute { circuit, candidates, seed, partitions } => {
                obj.set("circuit", Value::Str(circuit.kind.name().into()));
                obj.set("size", Value::Num(circuit.size as f64));
                obj.set("candidates", Value::Num(*candidates as f64));
                obj.set("seed", Value::Num(*seed as f64));
                obj.set("partitions", Value::Num(*partitions as f64));
            }
            JobSpec::PolySweep { truth } => {
                obj.set("vars", Value::Num(truth.vars() as f64));
                obj.set(
                    "modes",
                    Value::Array(
                        truth
                            .mode_names()
                            .iter()
                            .enumerate()
                            .map(|(i, name)| {
                                let mut m = Value::object();
                                m.set("name", Value::Str(name.clone()));
                                m.set("mask", Value::Str(mask_hex(truth.mask(i))));
                                m
                            })
                            .collect(),
                    ),
                );
            }
            JobSpec::Sleep { steps, step_ms } => {
                obj.set("steps", Value::Num(*steps as f64));
                obj.set("step_ms", Value::Num(*step_ms as f64));
            }
            #[cfg(test)]
            JobSpec::Panic => {}
        }
        obj.to_string_compact()
    }

    /// Is this job a pure function of its spec (safe to content-cache)?
    pub fn cacheable(&self) -> bool {
        !matches!(self, JobSpec::Sleep { .. })
    }

    /// The content address: FNV-1a of the canonical spec JSON.
    pub fn cache_key(&self) -> u64 {
        pmorph_util::hash::fnv1a_64(self.canonical().as_bytes())
    }
}

/// Why a job run did not produce a payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The cancel flag was observed mid-run.
    Cancelled,
    /// The flow itself failed (message lands in the job record).
    Failed(String),
}

fn check_cancel(cancel: &AtomicBool) -> Result<(), JobError> {
    if cancel.load(Ordering::Relaxed) {
        return Err(JobError::Cancelled);
    }
    Ok(())
}

/// Tech-map `circuit` (K=4) through the design cache.
fn mapped_design(
    circuit: &CircuitSpec,
    cache: &ArtifactCache,
) -> Result<std::sync::Arc<MappedDesign>, JobError> {
    let c = circuit.build();
    cache
        .design(circuit.design_key(), || tech_map(&c.netlist, &c.outputs, 4))
        .map_err(|e| JobError::Failed(format!("tech map failed: {e:?}")))
}

/// Hex image of a truth mask: 16-digit words, most-significant word
/// first, `:`-separated. Stable and compact; round-trippable by eye.
fn mask_hex(mask: &WideMask) -> String {
    let words: Vec<String> = mask.words().iter().rev().map(|w| format!("{w:016x}")).collect();
    words.join(":")
}

/// Execute a job. Pure: the payload depends only on the spec (and, for
/// cache-accelerated stages, on artifacts that are themselves pure), so
/// repeated runs are byte-identical at any `PMORPH_THREADS`.
pub fn run(spec: &JobSpec, cache: &ArtifactCache, cancel: &AtomicBool) -> Result<Value, JobError> {
    check_cancel(cancel)?;
    let mut payload = Value::object();
    payload.set("type", Value::Str(spec.kind().into()));
    match spec {
        JobSpec::TruthSweep { circuit } => {
            let c = circuit.build();
            let design = mapped_design(circuit, cache)?;
            check_cancel(cancel)?;
            let masks =
                pmorph_sim::vectors::exhaustive_truth(&c.netlist, &design.inputs, &c.outputs)
                    .map_err(|e| JobError::Failed(format!("sweep failed: {e:?}")))?;
            payload.set("circuit", Value::Str(circuit.kind.name().into()));
            payload.set("size", Value::Num(circuit.size as f64));
            payload.set("inputs", Value::Num(design.inputs.len() as f64));
            let truth: Vec<Value> = c
                .outputs
                .iter()
                .zip(&masks)
                .map(|(o, m)| match m {
                    Some(mask) => {
                        let mut t = Value::object();
                        t.set("net", Value::Num(o.0 as f64));
                        t.set("ones", Value::Num(mask.count_ones() as f64));
                        t.set("mask", Value::Str(mask_hex(mask)));
                        t
                    }
                    None => Value::Null,
                })
                .collect();
            payload.set("truth", Value::Array(truth));
        }
        JobSpec::SeqSweep { circuit, cycles } => {
            let c = circuit.build();
            // SeqBitSim::new rejects anything outside its model with a
            // LevelizeError whose Display names the offending component
            // kind (`latch`, `tribuf`, …) or control net — that message,
            // not just the circuit name, is the structured failure.
            let seq = pmorph_sim::SeqBitSim::new(c.netlist.clone())
                .map_err(|e| JobError::Failed(format!("sequential levelization failed: {e}")))?;
            check_cancel(cancel)?;
            let inputs = seq.input_nets().to_vec();
            let masks = pmorph_sim::sweep_seq_truth(
                &seq,
                &inputs,
                &c.outputs,
                *cycles,
                &SweepConfig::new(),
            );
            payload.set("circuit", Value::Str(circuit.kind.name().into()));
            payload.set("size", Value::Num(circuit.size as f64));
            payload.set("cycles", Value::Num(*cycles as f64));
            payload.set("inputs", Value::Num(inputs.len() as f64));
            payload.set("registers", Value::Num(seq.dff_count() as f64));
            let truth: Vec<Value> = c
                .outputs
                .iter()
                .zip(&masks)
                .map(|(o, m)| match m {
                    Some(mask) => {
                        let mut t = Value::object();
                        t.set("net", Value::Num(o.0 as f64));
                        t.set("ones", Value::Num(mask.count_ones() as f64));
                        t.set("mask", Value::Str(mask_hex(mask)));
                        t
                    }
                    None => Value::Null,
                })
                .collect();
            payload.set("truth", Value::Array(truth));
        }
        JobSpec::FaultCampaign { width, height, rate, trials, seed } => {
            let seeds: Vec<u64> = (0..*trials).map(|t| mix_seed(*seed, t as u64)).collect();
            let maps = DefectMap::sample_sweep(*width, *height, *rate, &seeds, &SweepConfig::new());
            check_cancel(cancel)?;
            payload.set(
                "fabric",
                Value::Array(vec![Value::Num(*width as f64), Value::Num(*height as f64)]),
            );
            payload.set("rate", Value::Num(*rate));
            payload.set("trials", Value::Num(*trials as f64));
            let defects: Vec<Value> = maps.iter().map(|m| Value::Num(m.len() as f64)).collect();
            let bad_blocks: Vec<Value> =
                maps.iter().map(|m| Value::Num(m.bad_blocks().len() as f64)).collect();
            let total: usize = maps.iter().map(DefectMap::len).sum();
            payload.set("defects_per_trial", Value::Array(defects));
            payload.set("bad_blocks_per_trial", Value::Array(bad_blocks));
            payload.set("mean_defects", Value::Num(total as f64 / *trials as f64));
        }
        JobSpec::PlaceRoute { circuit, candidates, seed, partitions } => {
            let design = mapped_design(circuit, cache)?;
            check_cancel(cancel)?;
            let timing = FpgaTiming::default();
            let cfg = SweepConfig::new();
            let resolved = match *partitions {
                0 => hier::auto_partitions(design.luts.len()),
                p => p,
            };
            let (pnr, cp_ps, winner, path, actual, boundary_nets) = if resolved > 1 {
                let (pnr, cp, winner, stats) = hier::best_seeded_placement_hier(
                    &design,
                    *candidates,
                    *seed,
                    &timing,
                    resolved,
                    &cfg,
                );
                (pnr, cp, winner, "hier", stats.partitions, stats.boundary_nets)
            } else {
                let (pnr, cp, winner) =
                    best_seeded_placement_flat(&design, *candidates, *seed, &timing, &cfg);
                (pnr, cp, winner, "flat", 1, 0)
            };
            check_cancel(cancel)?;
            payload.set("circuit", Value::Str(circuit.kind.name().into()));
            payload.set("size", Value::Num(circuit.size as f64));
            payload.set("candidates", Value::Num(*candidates as f64));
            payload.set("path", Value::Str(path.into()));
            payload.set("partitions", Value::Num(actual as f64));
            payload.set("boundary_nets", Value::Num(boundary_nets as f64));
            payload.set("winner", Value::Num(winner as f64));
            payload.set("grid", Value::Num(pnr.grid as f64));
            payload.set("critical_path_ps", Value::Num(cp_ps));
            payload.set("total_wirelength", Value::Num(pnr.total_wirelength as f64));
            payload.set("max_occupancy", Value::Num(pnr.max_occupancy as f64));
            // The placement artifact, sorted by net id for a stable image.
            let mut placed: Vec<(u32, usize, usize)> =
                pnr.placement.iter().map(|(&n, &(x, y))| (n, x, y)).collect();
            placed.sort_unstable();
            payload.set(
                "placement",
                Value::Array(
                    placed
                        .into_iter()
                        .map(|(n, x, y)| {
                            Value::Array(vec![
                                Value::Num(n as f64),
                                Value::Num(x as f64),
                                Value::Num(y as f64),
                            ])
                        })
                        .collect(),
                ),
            );
            // The configuration image ("bitstream"): every LUT's inputs
            // and truth mask, in mapped order.
            payload.set(
                "config_image",
                Value::Array(
                    design
                        .luts
                        .iter()
                        .map(|l| {
                            let mut lut = Value::object();
                            lut.set("out", Value::Num(l.output.0 as f64));
                            lut.set(
                                "in",
                                Value::Array(
                                    l.inputs.iter().map(|n| Value::Num(n.0 as f64)).collect(),
                                ),
                            );
                            lut.set("mask", Value::Str(mask_hex(&l.truth)));
                            lut
                        })
                        .collect(),
                ),
            );
        }
        JobSpec::PolySweep { truth } => {
            use pmorph_device::Trit;
            use pmorph_synth::poly::{synthesize, PNet};
            fn trit_sym(t: Trit) -> &'static str {
                match t {
                    Trit::Minus => "-",
                    Trit::Zero => "0",
                    Trit::Plus => "+",
                }
            }
            fn pnet_name(p: PNet) -> String {
                match p {
                    PNet::Input(v) => format!("x{v}"),
                    PNet::Cell(i) => format!("c{i}"),
                }
            }
            let s = synthesize(truth)
                .map_err(|e| JobError::Failed(format!("synthesis failed: {e}")))?;
            check_cancel(cancel)?;
            // the contract: no poly_sweep artifact ships unproven — every
            // personality is swept exhaustively before the payload exists
            s.netlist
                .verify(truth, &SweepConfig::new())
                .map_err(|e| JobError::Failed(format!("personality proof failed: {e}")))?;
            payload.set("vars", Value::Num(truth.vars() as f64));
            payload.set("cells", Value::Num(s.netlist.cell_count() as f64));
            payload.set("poly_cells", Value::Num(s.netlist.poly_cell_count() as f64));
            payload.set("depth", Value::Num(s.netlist.depth() as f64));
            payload.set("config_bits", Value::Num(s.netlist.config_bits() as f64));
            payload.set("fits_6x6", Value::Bool(s.netlist.fits_fabric(6, 6)));
            payload.set("output", Value::Str(pnet_name(s.netlist.output())));
            // the per-mode back-gate RAM contents, one row per cell
            payload.set(
                "config_table",
                Value::Array(
                    s.netlist
                        .cells()
                        .iter()
                        .enumerate()
                        .map(|(i, cell)| {
                            let mut row = Value::object();
                            row.set("cell", Value::Str(format!("c{i}")));
                            row.set("a", Value::Str(pnet_name(cell.a)));
                            row.set("b", Value::Str(pnet_name(cell.b)));
                            row.set(
                                "configs",
                                Value::Array(
                                    cell.configs()
                                        .iter()
                                        .map(|(ca, cb)| {
                                            Value::Str(format!(
                                                "{}{}",
                                                trit_sym(*ca),
                                                trit_sym(*cb)
                                            ))
                                        })
                                        .collect(),
                                ),
                            );
                            row
                        })
                        .collect(),
                ),
            );
            // the proven personalities (== the spec, by the sweep above)
            payload.set(
                "proof",
                Value::Array(
                    truth
                        .mode_names()
                        .iter()
                        .enumerate()
                        .map(|(i, name)| {
                            let mut m = Value::object();
                            m.set("mode", Value::Str(name.clone()));
                            m.set("mask", Value::Str(mask_hex(truth.mask(i))));
                            m.set("ones", Value::Num(truth.mask(i).count_ones() as f64));
                            m
                        })
                        .collect(),
                ),
            );
            let mut st = Value::object();
            st.set("leaf", Value::Num(s.stats.leaf as f64));
            st.set("and_bidec", Value::Num(s.stats.and_bidec as f64));
            st.set("or_bidec", Value::Num(s.stats.or_bidec as f64));
            st.set("xor_bidec", Value::Num(s.stats.xor_bidec as f64));
            st.set("shannon", Value::Num(s.stats.shannon as f64));
            st.set("memo_hits", Value::Num(s.stats.memo_hits as f64));
            payload.set("stats", st);
        }
        JobSpec::Sleep { steps, step_ms } => {
            let mut done = 0usize;
            for _ in 0..*steps {
                check_cancel(cancel)?;
                std::thread::sleep(std::time::Duration::from_millis(*step_ms));
                done += 1;
            }
            payload.set("steps_done", Value::Num(done as f64));
        }
        #[cfg(test)]
        JobSpec::Panic => panic!("injected job panic"),
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmorph_util::json;

    fn parse_spec(text: &str) -> Result<JobSpec, SpecError> {
        JobSpec::parse(&json::parse(text).unwrap())
    }

    #[test]
    fn canonicalization_is_field_order_independent() {
        let a = parse_spec(
            r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":4,"seed":9}"#,
        )
        .unwrap();
        let b = parse_spec(
            r#"{"seed":9,"candidates":4,"size":8,"circuit":"parity_tree","type":"place_route"}"#,
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn partitions_default_is_explicit_in_the_canonical_form() {
        // Omitting `partitions` means auto (0): same content address as
        // spelling the default out, different address for any other value.
        let omitted = parse_spec(
            r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":4,"seed":9}"#,
        )
        .unwrap();
        let explicit = parse_spec(
            r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":4,"seed":9,"partitions":0}"#,
        )
        .unwrap();
        let forced = parse_spec(
            r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":4,"seed":9,"partitions":4}"#,
        )
        .unwrap();
        assert_eq!(omitted, explicit);
        assert_eq!(omitted.cache_key(), explicit.cache_key());
        assert!(omitted.canonical().contains("\"partitions\":0"));
        assert_ne!(omitted.cache_key(), forced.cache_key(), "partition count is addressed");
    }

    #[test]
    fn canonical_round_trips_through_parse() {
        for text in [
            r#"{"type":"truth_sweep","circuit":"parity_tree","size":6}"#,
            r#"{"type":"seq_sweep","circuit":"shift_register","size":4,"cycles":9}"#,
            r#"{"type":"seq_sweep","circuit":"registered_pipeline","size":3}"#,
            r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.01,"trials":3,"seed":7}"#,
            r#"{"type":"place_route","circuit":"ripple_adder","size":4,"candidates":2,"seed":0}"#,
            r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":2,"seed":1,"partitions":4}"#,
            r#"{"type":"sleep","steps":1,"step_ms":0}"#,
        ] {
            let spec = parse_spec(text).unwrap();
            let again = parse_spec(&spec.canonical()).unwrap();
            assert_eq!(spec, again, "{text}");
        }
    }

    #[test]
    fn one_changed_byte_changes_the_key() {
        let base = parse_spec(
            r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.01,"trials":3,"seed":7}"#,
        )
        .unwrap();
        let tweaked = parse_spec(
            r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.02,"trials":3,"seed":7}"#,
        )
        .unwrap();
        assert_ne!(base.cache_key(), tweaked.cache_key());
    }

    #[test]
    fn seed_range_is_decided_by_the_field_bounds() {
        // 2^53 − 1, the largest declared seed, parses and round-trips
        for text in [
            r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.01,"trials":3,"seed":9007199254740991}"#,
            r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":4,"seed":9007199254740991}"#,
        ] {
            let spec = parse_spec(text).unwrap();
            let again = parse_spec(&spec.canonical()).unwrap();
            assert_eq!(spec, again, "{text}");
            assert_eq!(spec.cache_key(), again.cache_key(), "{text}");
        }
        // one past it is out of range, with the range message
        for text in [
            r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.01,"trials":3,"seed":9007199254740992}"#,
            r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":4,"seed":9007199254740992}"#,
        ] {
            let e = parse_spec(text).unwrap_err();
            assert!(
                e.0.contains("field `seed` must be in 0..=9007199254740991, got 9007199254740992"),
                "{text}: got {e}"
            );
        }
        let e = parse_spec(r#"{"type":"sleep","steps":1e20,"step_ms":0}"#).unwrap_err();
        assert!(e.0.contains("must be in 0..=10000, got 100000000000000000000"), "{e}");
    }

    #[test]
    fn canonical_strings_and_cache_keys_are_pinned() {
        // content addresses are persistent: these bytes and keys must not move
        for (text, canonical, key) in [
            (
                r#"{"seed":7,"trials":3,"rate":0.01,"height":4,"width":4,"type":"fault_campaign"}"#,
                r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.01,"trials":3,"seed":7}"#,
                0x461f_f5a9_f471_54ce,
            ),
            (
                r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.01,"trials":3,"seed":4503599627370496}"#,
                r#"{"type":"fault_campaign","width":4,"height":4,"rate":0.01,"trials":3,"seed":4503599627370496}"#,
                0x24ef_368f_e44b_e0b6,
            ),
            (
                r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":4,"seed":9}"#,
                r#"{"type":"place_route","circuit":"parity_tree","size":8,"candidates":4,"seed":9,"partitions":0}"#,
                0x5653_fce7_9beb_1963,
            ),
            (
                r#"{"type":"seq_sweep","circuit":"shift_register","size":4,"cycles":9}"#,
                r#"{"type":"seq_sweep","circuit":"shift_register","size":4,"cycles":9}"#,
                0xe296_5718_5a58_64b9,
            ),
            (
                r#"{"type":"truth_sweep","circuit":"parity_tree","size":6}"#,
                r#"{"type":"truth_sweep","circuit":"parity_tree","size":6}"#,
                0x551c_b53d_779c_7e19,
            ),
            (
                r#"{"type":"sleep","steps":1,"step_ms":0}"#,
                r#"{"type":"sleep","steps":1,"step_ms":0}"#,
                0xfbe3_af41_e777_2921,
            ),
        ] {
            let spec = parse_spec(text).unwrap();
            assert_eq!(spec.canonical(), canonical, "{text}");
            assert_eq!(spec.cache_key(), key, "{text}");
        }
    }

    #[test]
    fn strict_parse_rejects_bad_specs() {
        for (text, needle) in [
            (r#"{"circuit":"parity_tree","size":4}"#, "missing string field `type`"),
            (r#"{"type":"mine_bitcoin"}"#, "unknown job type"),
            (r#"{"type":"sleep","steps":1,"step_ms":0,"x":1}"#, "unknown field `x`"),
            (r#"{"type":"truth_sweep","circuit":"nope","size":4}"#, "unknown circuit"),
            (r#"{"type":"truth_sweep","circuit":"ripple_adder","size":10}"#, "20-variable"),
            (r#"{"type":"seq_sweep","circuit":"shift_register","size":4,"cycles":0}"#, "cycles"),
            (
                r#"{"type":"fault_campaign","width":0,"height":4,"rate":0.1,"trials":1,"seed":0}"#,
                "width",
            ),
            (
                r#"{"type":"fault_campaign","width":4,"height":4,"rate":1.5,"trials":1,"seed":0}"#,
                "rate",
            ),
            (r#"{"type":"sleep","steps":1.5,"step_ms":0}"#, "non-negative integer"),
            (
                r#"{"type":"place_route","circuit":"parity_tree","size":4,"candidates":1,"seed":0,"partitions":5000}"#,
                "partitions",
            ),
            (r#"[1,2]"#, "must be a JSON object"),
        ] {
            let e = parse_spec(text).expect_err(text);
            assert!(e.0.contains(needle), "{text}: got {e}");
        }
    }

    #[test]
    fn truth_sweep_matches_known_parity_table() {
        let spec =
            parse_spec(r#"{"type":"truth_sweep","circuit":"parity_tree","size":3}"#).unwrap();
        let cache = ArtifactCache::new();
        let cancel = AtomicBool::new(false);
        let payload = run(&spec, &cache, &cancel).unwrap();
        let truth = payload.get("truth").and_then(Value::as_array).unwrap();
        assert_eq!(truth.len(), 1);
        // XOR of three inputs: minterms with odd popcount → 0b10010110.
        assert_eq!(truth[0].get("mask").and_then(Value::as_str), Some("0000000000000096"));
        assert_eq!(truth[0].get("ones").and_then(Value::as_f64), Some(4.0));
    }

    #[test]
    fn sequential_truth_sweep_runs_on_the_sequential_kernel() {
        // the spec shape that used to 400 with "requires a combinational
        // circuit" now characterizes through SeqBitSim with the default
        // cycle bound (size + 2)
        let spec =
            parse_spec(r#"{"type":"truth_sweep","circuit":"shift_register","size":4}"#).unwrap();
        assert_eq!(spec.kind(), "seq_sweep");
        assert!(spec.cacheable());
        let again = parse_spec(&spec.canonical()).unwrap();
        assert_eq!(spec, again, "canonical form round-trips");
        let cache = ArtifactCache::new();
        let cancel = AtomicBool::new(false);
        let payload = run(&spec, &cache, &cancel).unwrap();
        assert_eq!(payload.get("cycles").and_then(Value::as_f64), Some(6.0));
        assert_eq!(payload.get("registers").and_then(Value::as_f64), Some(4.0));
        assert_eq!(payload.get("inputs").and_then(Value::as_f64), Some(1.0));
        // after size+2 cycles of held din, every tap equals din: the
        // 1-variable identity table (lane 1 set) on all four outputs
        let truth = payload.get("truth").and_then(Value::as_array).unwrap();
        assert_eq!(truth.len(), 4);
        for t in truth {
            assert_eq!(t.get("mask").and_then(Value::as_str), Some("0000000000000002"));
            assert_eq!(t.get("ones").and_then(Value::as_f64), Some(1.0));
        }
    }

    #[test]
    fn seq_sweep_cycle_bound_is_part_of_the_content_address() {
        let a =
            parse_spec(r#"{"type":"seq_sweep","circuit":"shift_register","size":4,"cycles":2}"#)
                .unwrap();
        let b =
            parse_spec(r#"{"type":"seq_sweep","circuit":"shift_register","size":4,"cycles":3}"#)
                .unwrap();
        assert_ne!(a.cache_key(), b.cache_key());
        // too few cycles for the last tap to see din: output still the
        // power-on zeros ⇒ all-zero mask, distinct payload
        let cache = ArtifactCache::new();
        let cancel = AtomicBool::new(false);
        let short = run(&a, &cache, &cancel).unwrap();
        let truth = short.get("truth").and_then(Value::as_array).unwrap();
        assert_eq!(truth[3].get("ones").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn poly_sweep_parses_canonicalizes_and_runs() {
        // XOR / XNOR: the canonical polymorphic pair
        let text = r#"{"type":"poly_sweep","vars":2,"modes":[
            {"name":"nominal","mask":"0000000000000006"},
            {"name":"biased","mask":"0000000000000009"}]}"#;
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.kind(), "poly_sweep");
        assert!(spec.cacheable(), "poly_sweep is a pure function of its spec");
        let again = parse_spec(&spec.canonical()).unwrap();
        assert_eq!(spec, again, "canonical form round-trips");
        // mode order is semantic (it indexes the config table), so
        // swapping modes is a different job
        let swapped = parse_spec(
            r#"{"type":"poly_sweep","vars":2,"modes":[
                {"name":"biased","mask":"0000000000000009"},
                {"name":"nominal","mask":"0000000000000006"}]}"#,
        )
        .unwrap();
        assert_ne!(spec.cache_key(), swapped.cache_key());
        let cache = ArtifactCache::new();
        let cancel = AtomicBool::new(false);
        let payload = run(&spec, &cache, &cancel).unwrap();
        assert!(payload.get("poly_cells").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(payload.get("fits_6x6"), Some(&Value::Bool(true)));
        let proof = payload.get("proof").and_then(Value::as_array).unwrap();
        assert_eq!(proof[0].get("mask").and_then(Value::as_str), Some("0000000000000006"));
        assert_eq!(proof[1].get("mask").and_then(Value::as_str), Some("0000000000000009"));
        let table = payload.get("config_table").and_then(Value::as_array).unwrap();
        assert_eq!(table.len(), payload.get("cells").and_then(Value::as_f64).unwrap() as usize);
        // every config entry is two trit symbols, one per mode
        for row in table {
            let configs = row.get("configs").and_then(Value::as_array).unwrap();
            assert_eq!(configs.len(), 2);
            for c in configs {
                let s = c.as_str().unwrap();
                assert!(s.len() == 2 && s.chars().all(|ch| "+-0".contains(ch)), "{s}");
            }
        }
    }

    #[test]
    fn poly_sweep_rejects_degenerate_and_hostile_specs() {
        for (text, needle) in [
            (r#"{"type":"poly_sweep","vars":2,"modes":[]}"#, "at least 2 modes"),
            (
                r#"{"type":"poly_sweep","vars":2,"modes":[{"name":"a","mask":"0000000000000006"}]}"#,
                "at least 2 modes",
            ),
            (
                r#"{"type":"poly_sweep","vars":2,"modes":[
                    {"name":"a","mask":"0000000000000006"},
                    {"name":"a","mask":"0000000000000009"}]}"#,
                "duplicate mode name `a`",
            ),
            (
                r#"{"type":"poly_sweep","vars":2,"modes":[
                    {"name":"a","mask":"06"},
                    {"name":"b","mask":"0000000000000009"}]}"#,
                "not 16 hex digits",
            ),
            (
                r#"{"type":"poly_sweep","vars":2,"modes":[
                    {"name":"a","mask":"00000000000000f6"},
                    {"name":"b","mask":"0000000000000009"}]}"#,
                "lane limit",
            ),
            (
                r#"{"type":"poly_sweep","vars":7,"modes":[
                    {"name":"a","mask":"0000000000000006"},
                    {"name":"b","mask":"0000000000000009"}]}"#,
                "needs 2 16-digit word(s), got 1",
            ),
            (r#"{"type":"poly_sweep","vars":13,"modes":[]}"#, "field `vars` must be in 1..=12"),
            (
                r#"{"type":"poly_sweep","vars":2,"modes":[
                    {"name":"", "mask":"0000000000000006"},
                    {"name":"b","mask":"0000000000000009"}]}"#,
                "1..=32 chars",
            ),
            (
                r#"{"type":"poly_sweep","vars":2,"modes":[
                    {"name":"a","mask":"0000000000000006","x":1},
                    {"name":"b","mask":"0000000000000009"}]}"#,
                "unknown field `x`",
            ),
            (r#"{"type":"poly_sweep","vars":2,"modes":[1,2]}"#, "modes[0]"),
        ] {
            let e = parse_spec(text).expect_err(text);
            assert!(e.0.contains(needle), "{text}: got {e}");
        }
        // and a count past the ceiling
        let many: Vec<String> =
            (0..9).map(|i| format!(r#"{{"name":"m{i}","mask":"{:016x}"}}"#, i)).collect();
        let text = format!(r#"{{"type":"poly_sweep","vars":2,"modes":[{}]}}"#, many.join(","));
        let e = parse_spec(&text).unwrap_err();
        assert!(e.0.contains("at most 8 modes"), "{e}");
    }

    #[test]
    fn poly_sweep_hex_case_canonicalizes_to_one_address() {
        let lower = parse_spec(
            r#"{"type":"poly_sweep","vars":3,"modes":[
                {"name":"a","mask":"000000000000001e"},
                {"name":"b","mask":"00000000000000e1"}]}"#,
        )
        .unwrap();
        let upper = parse_spec(
            r#"{"type":"poly_sweep","vars":3,"modes":[
                {"name":"a","mask":"000000000000001E"},
                {"name":"b","mask":"00000000000000E1"}]}"#,
        )
        .unwrap();
        assert_eq!(lower, upper);
        assert_eq!(lower.cache_key(), upper.cache_key());
    }

    #[test]
    fn cancelled_flag_aborts_before_work() {
        let spec = parse_spec(r#"{"type":"sleep","steps":100,"step_ms":10}"#).unwrap();
        let cache = ArtifactCache::new();
        let cancel = AtomicBool::new(true);
        assert_eq!(run(&spec, &cache, &cancel), Err(JobError::Cancelled));
    }
}
