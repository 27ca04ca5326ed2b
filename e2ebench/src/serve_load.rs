//! `serve_cold`: an in-process `pmorph-serve` over real TCP, driven
//! closed loop by [`CLIENTS`] client threads, each with one connection
//! open at a time.
//!
//! Each client submits a batch of [`BATCH`] distinct specs, waits on each
//! with `Registry::wait_terminal` (the HTTP protocol only polls, which
//! would round latency to the poll interval), then fetches each result
//! over HTTP. An epoch is 135 such jobs; the cache is cleared between
//! epochs, so every job misses the result cache.
//!
//! The load generator reads only the job id from the small submit
//! response: it never parses a payload inside the timed window. Every
//! result's bytes are compared with `job::run` called directly on the
//! same spec, outside the timed window.

use crate::report::{self, Outcome};
use crate::spans::{Recorder, Trace};
use crate::specs::{self, GenSpec, KINDS};
use crate::{Ctx, Pass};
use pmorph_exec::SweepConfig;
use pmorph_fpga::pnr::{best_seeded_placement_flat, hier, FpgaTiming};
use pmorph_fpga::{tech_map, MappedDesign};
use pmorph_serve::http;
use pmorph_serve::job::{self, JobSpec};
use pmorph_serve::registry::parse_job_id;
use pmorph_serve::{serve, ArtifactCache, CacheStats, Registry, ServeConfig, ServerHandle};
use pmorph_util::json::{self, Value};
use pmorph_util::rng::mix_seed;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Worker threads of the server (set explicitly, not from the host).
const WORKERS: usize = 2;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Jobs a `serve_cold` client submits before waiting.
const BATCH: usize = 4;
/// A job not terminal after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Set-ups per run (each about 10 ms); the median is reported.
const SETUPS: usize = 25;
/// Untimed epochs before the timed window (about two seconds).
const WARM_UP: usize = 8;

/// Digest of the first epoch's payloads, in spec order, for
/// [`crate::DEFAULT_SEED`].
const PINNED_EPOCH0: u64 = 0x0394_a5fc_307b_1a9b;

fn start_server() -> ServerHandle {
    serve(&ServeConfig { addr: "127.0.0.1:0".into(), workers: WORKERS })
        .expect("bind an ephemeral loopback port")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The bytes `http::request_raw` puts on the wire for a request.
fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: pmorph\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A response as the load generator sees it.
struct Reply {
    status: u16,
    body: Vec<u8>,
    /// When the last body byte arrived.
    last_byte: Instant,
}

/// One request on a fresh connection, on the wire exactly as
/// `http::request_raw` sends it. Unlike that client, this one reads to
/// the server's close before dropping the socket, so the server closes
/// first and the client's ephemeral ports do not pile up in TIME_WAIT:
/// at thousands of requests per second they otherwise run out within
/// seconds, and every later `connect` slows down, in this run and the
/// next ones.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(JOB_TIMEOUT))?;
    stream.write_all(&request_bytes(method, path, body))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let last_byte = Instant::now();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest)?;
    Ok(Reply { status, body, last_byte })
}

/// The raw text of a top-level field of a small JSON response: a string
/// field's contents, or a number's digits. A scan, not a parse.
fn field<'a>(body: &'a [u8], key: &str) -> Option<&'a str> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &text[start..];
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

fn submitted_id(body: &[u8]) -> Option<u64> {
    field(body, "id").and_then(parse_job_id)
}

/// Payload bytes of `job::run` on `body`, as the server serialises them.
fn reference_payload(body: &str) -> Vec<u8> {
    let spec = JobSpec::parse(&json::parse(body).expect("generated spec is JSON"))
        .expect("generated spec is valid");
    job::run(&spec, &ArtifactCache::new(), &AtomicBool::new(false))
        .expect("reference job runs")
        .to_string_compact()
        .into_bytes()
}

/// Reference digests of `bodies`, computed on [`CLIENTS`] threads.
fn reference_digests(bodies: &[&str]) -> Vec<u64> {
    let next = AtomicUsize::new(0);
    let mut out = vec![0u64; bodies.len()];
    let parts: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= bodies.len() {
                            return done;
                        }
                        done.push((i, report::digest(&reference_payload(bodies[i]))));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference thread")).collect()
    });
    for (i, d) in parts.into_iter().flatten() {
        out[i] = d;
    }
    out
}

/// One live operation, as the client saw it.
#[derive(Clone, Debug, Default)]
struct OpRec {
    /// Pass the operation ran in.
    pass: u64,
    /// Spec index within the epoch.
    idx: usize,
    traced: bool,
    /// Server job id, when the submit succeeded.
    id: Option<u64>,
    /// Submit to last result byte; infinite for a failed operation.
    latency_ms: f64,
    submit_ms: f64,
    result_ms: f64,
    /// Digest of the result bytes, when the result arrived.
    digest: Option<u64>,
    /// Terminal-state time minus the submit acknowledgement.
    wait_ms: f64,
    /// Server-side `run_ns` from `GET /jobs/{id}` (traced jobs).
    run_ms: Option<f64>,
}

fn cache_delta(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        result_hits: b.result_hits - a.result_hits,
        result_misses: b.result_misses - a.result_misses,
        design_hits: b.design_hits - a.design_hits,
        design_misses: b.design_misses - a.design_misses,
        ..CacheStats::default()
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

/// Account the live operations: failures, latencies, the gate against
/// the reference digests.
fn account(out: &mut Outcome, ops: &[OpRec], reference: impl Fn(&OpRec) -> u64) {
    for op in ops {
        out.attempted += 1;
        let ok = op.digest.is_some_and(|d| d == reference(op));
        if !ok {
            out.failed += 1;
        }
        out.gate(op.digest.is_none_or(|d| d == reference(op)), || {
            format!("pass {} spec {}: result bytes differ from job::run", op.pass, op.idx)
        });
    }
}

/// The client-side round trips of the traced operations.
fn live_layers(out: &mut Outcome, ops: &[OpRec]) {
    let traced: Vec<&OpRec> = ops.iter().filter(|o| o.traced && o.digest.is_some()).collect();
    let submit: Vec<f64> = traced.iter().map(|o| o.submit_ms).collect();
    let result: Vec<f64> = traced.iter().map(|o| o.result_ms).collect();
    out.set("serve.http.submit_ms_p50", report::median(&submit));
    out.set("serve.http.result_ms_p50", report::median(&result));
}

// ---------------------------------------------------------------------
// Layer replays

/// Per-epoch replay state mirroring the server's caches.
struct JobReplay {
    cache: ArtifactCache,
    designs: HashMap<u64, std::sync::Arc<MappedDesign>>,
}

impl JobReplay {
    fn new() -> JobReplay {
        JobReplay { cache: ArtifactCache::new(), designs: HashMap::new() }
    }

    /// The design `job::run` would take from its design cache: like
    /// `job::run`, it builds the circuit on every call and maps it (timing
    /// the mapper) only on a miss.
    fn design(
        &mut self,
        rec: &mut Recorder,
        id: u64,
        circuit: &pmorph_serve::job::CircuitSpec,
    ) -> std::sync::Arc<MappedDesign> {
        let c = rec.span("fpga.circuits.build", id, || circuit.build());
        let key = circuit.design_key();
        if let Some(d) = self.designs.get(&key) {
            return d.clone();
        }
        let d =
            rec.span("fpga.tech_map", id, || tech_map(&c.netlist, &c.outputs, 4).expect("maps"));
        let d = std::sync::Arc::new(d);
        self.designs.insert(key, d.clone());
        d
    }

    /// Time `job::run` and serialisation as the worker does them, and the
    /// job's stages one public call at a time. `stages_first` alternates
    /// which goes first, so neither always runs on warm caches. Returns
    /// the payload bytes.
    fn job(&mut self, rec: &mut Recorder, id: u64, spec: &JobSpec, stages_first: bool) -> Vec<u8> {
        if stages_first {
            self.stages(rec, id, spec);
        }
        let cancel = AtomicBool::new(false);
        let payload = rec
            .span("serve.job.run", id, || job::run(spec, &self.cache, &cancel))
            .expect("job runs");
        let bytes =
            rec.span("serve.payload.serialise", id, || payload.to_string_compact().into_bytes());
        if !stages_first {
            self.stages(rec, id, spec);
        }
        bytes
    }

    /// The public calls `job::run` makes for `spec`, each in its span.
    fn stages(&mut self, rec: &mut Recorder, id: u64, spec: &JobSpec) {
        let stages = rec.open("serve.job.stages", id, Instant::now());
        let cfg = SweepConfig::new();
        match spec {
            JobSpec::TruthSweep { circuit } => {
                let c = rec.span("fpga.circuits.build", id, || circuit.build());
                let d = self.design(rec, id, circuit);
                black_box(rec.span("sim.bitsim.truth", id, || {
                    pmorph_sim::vectors::exhaustive_truth(&c.netlist, &d.inputs, &c.outputs)
                }))
                .expect("sweeps");
            }
            JobSpec::SeqSweep { circuit, cycles } => {
                let c = rec.span("fpga.circuits.build", id, || circuit.build());
                black_box(rec.span("sim.seqbitsim.sweep", id, || {
                    let seq = pmorph_sim::SeqBitSim::new(c.netlist.clone()).expect("levelizes");
                    let inputs = seq.input_nets().to_vec();
                    pmorph_sim::sweep_seq_truth(&seq, &inputs, &c.outputs, *cycles, &cfg)
                }));
            }
            JobSpec::FaultCampaign { width, height, rate, trials, seed } => {
                let maps = rec.span("core.faults.sample_sweep", id, || {
                    let seeds: Vec<u64> = (0..*trials).map(|t| mix_seed(*seed, t as u64)).collect();
                    pmorph_core::faults::DefectMap::sample_sweep(
                        *width, *height, *rate, &seeds, &cfg,
                    )
                });
                black_box(rec.span("core.faults.bad_blocks", id, || {
                    maps.iter().map(|m| m.bad_blocks().len()).sum::<usize>()
                }));
            }
            JobSpec::PlaceRoute { circuit, candidates, seed, partitions } => {
                let d = self.design(rec, id, circuit);
                let timing = FpgaTiming::default();
                let resolved = match *partitions {
                    0 => hier::auto_partitions(d.luts.len()),
                    p => p,
                };
                if resolved > 1 {
                    black_box(rec.span("fpga.pnr.hier", id, || {
                        hier::best_seeded_placement_hier(
                            &d,
                            *candidates,
                            *seed,
                            &timing,
                            resolved,
                            &cfg,
                        )
                    }));
                } else {
                    black_box(rec.span("fpga.pnr.flat", id, || {
                        best_seeded_placement_flat(&d, *candidates, *seed, &timing, &cfg)
                    }));
                }
            }
            JobSpec::PolySweep { truth } => {
                let s = rec
                    .span("synth.poly.synthesize", id, || pmorph_synth::poly::synthesize(truth))
                    .expect("synthesizes");
                rec.span("synth.poly.verify", id, || s.netlist.verify(truth, &cfg))
                    .expect("verifies");
            }
            JobSpec::Sleep { .. } => unreachable!("the benchmark never sends sleep jobs"),
        }
        rec.close(stages, Instant::now());
    }
}

/// Replay one recorded `POST /jobs` + `GET /jobs/{id}/result` exchange
/// through the server's layers, in the order the server runs them. The
/// `split` spans re-time the addressing and lookup that
/// `Registry::submit` does internally.
fn replay_request(rec: &mut Recorder, id: u64, post: &[u8], registry: &Registry, payload: &[u8]) {
    let mut sink: Vec<u8> = Vec::with_capacity(payload.len() + 256);
    let req_span = rec.open("serve.request", id, Instant::now());
    let req = rec
        .span("serve.http.read_request", id, || http::read_request(post))
        .expect("in-memory read")
        .expect("well-formed request")
        .expect("a request");
    let doc = rec
        .span("util.json.parse", id, || json::parse(std::str::from_utf8(&req.body).expect("UTF-8")))
        .expect("JSON body");
    let spec = rec.span("serve.spec.parse", id, || JobSpec::parse(&doc)).expect("valid spec");
    let split_spec = spec.clone();
    let receipt =
        rec.span("serve.registry.submit", id, || registry.submit(spec)).expect("accepted");
    rec.span("serve.http.write", id, || {
        let mut body = Value::object();
        body.set("id", Value::Str(format!("j-{}", receipt.id)));
        body.set("state", Value::Str(receipt.state.name().into()));
        body.set("cache_hit", Value::Bool(receipt.cache_hit));
        http::write_response(&mut sink, 200, &body).expect("in-memory write")
    });
    let get = request_bytes("GET", &format!("/jobs/j-{}/result", receipt.id), b"");
    black_box(rec.span("serve.http.read_request", id, || http::read_request(&get[..])))
        .expect("in-memory read")
        .expect("well-formed request");
    let stored = rec.span("serve.registry.result", id, || registry.result_bytes(receipt.id).ok());
    let body: &[u8] = stored.as_deref().map_or(payload, |b| &b[..]);
    sink.clear();
    rec.span("serve.http.write", id, || http::write_response_bytes(&mut sink, 200, body))
        .expect("in-memory write");
    rec.close(req_span, Instant::now());

    let split = rec.open("serve.request.split", id, Instant::now());
    let (canonical, key) =
        rec.span("serve.spec.address", id, || (split_spec.canonical(), split_spec.cache_key()));
    black_box(
        rec.span("serve.cache.lookup", id, || registry.cache().lookup_result(key, &canonical)),
    );
    rec.close(split, Instant::now());
}

/// Per-request means of the replayed HTTP-path stages, and the part of
/// the live round trips they do not cover.
fn request_layers(out: &mut Outcome, trace: &Trace, requests: usize, live: &[&OpRec]) {
    let st = trace.self_ns();
    let us = |name: &str| st.get(name).map_or(0.0, |&ns| ns as f64 / 1e3) / requests.max(1) as f64;
    let path = [
        ("serve.http.read_request_us", us("serve.http.read_request")),
        ("util.json.parse_us", us("util.json.parse")),
        ("serve.spec.parse_us", us("serve.spec.parse")),
        ("serve.registry.submit_us", us("serve.registry.submit") + us("serve.registry.result")),
        ("serve.http.write_us", us("serve.http.write")),
    ];
    for (name, v) in path {
        out.set(name, v);
    }
    out.set("serve.spec.address_us", us("serve.spec.address"));
    out.set("serve.cache.lookup_us", us("serve.cache.lookup"));
    let live_us =
        report::median(&live.iter().map(|o| (o.submit_ms + o.result_ms) * 1e3).collect::<Vec<_>>());
    out.set("serve.http.unattributed_us", live_us - path.iter().map(|(_, v)| v).sum::<f64>());
}

fn write_trace(ctx: &Ctx, trace: &Trace) {
    let threads = [(0, "replay"), (10, "client 0"), (11, "client 1")];
    let path = ctx.trace_path();
    if let Err(e) = trace.write_chrome(&path, &threads, &ctx.trace_meta()) {
        eprintln!("e2ebench: could not write {}: {e}", path.display());
    }
}

// ---------------------------------------------------------------------
// serve_cold

fn ids(pending: &[(OpRec, Instant, Instant)]) -> Vec<Option<u64>> {
    pending.iter().map(|(op, _, _)| op.id).collect()
}

/// Wait for each submitted job of a batch to reach a terminal state,
/// each from a thread of its own. Returns, per job, when it was seen
/// terminal; `None` for a job not submitted or not terminal in time. The two workers finish jobs out of submission
/// order: waiting on them one after another would count the time a job
/// sat finished while the client still waited on an earlier one as that
/// job's queue wait.
fn wait_batch(registry: &Registry, ids: &[Option<u64>]) -> Vec<Option<Instant>> {
    std::thread::scope(|s| {
        let waiters: Vec<_> = ids
            .iter()
            .map(|id| {
                id.map(|id| {
                    s.spawn(move || registry.wait_terminal(id, JOB_TIMEOUT).then(Instant::now))
                })
            })
            .collect();
        waiters.into_iter().map(|w| w.and_then(|w| w.join().expect("waiter thread"))).collect()
    })
}

/// Each traced job's server-side `run_ns`, read over `GET /jobs/{id}`
/// after the epoch's timing has ended, so the status requests do not
/// change the queue being measured.
fn fetch_run_ms(addr: SocketAddr, ops: &mut [OpRec]) {
    for op in ops.iter_mut().filter(|o| o.traced) {
        let Some(id) = op.id else { continue };
        op.run_ms = exchange(addr, "GET", &format!("/jobs/j-{id}"), b"")
            .ok()
            .and_then(|r| field(&r.body, "run_ns").and_then(|v| v.parse::<f64>().ok()))
            .map(|ns| ns / 1e6);
    }
}

/// One epoch of closed-loop cold jobs. Returns the operations and each
/// client's span recorder.
fn cold_epoch_live(
    ctx: &Ctx,
    server: &ServerHandle,
    epoch: &[GenSpec],
    pass: u64,
    traced: bool,
) -> (Vec<OpRec>, Vec<Recorder>) {
    let next = AtomicUsize::new(0);
    let addr = server.addr();
    let registry = server.registry();
    let per_client: Vec<(Vec<OpRec>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let next = &next;
                s.spawn(move || {
                    let mut rec = Recorder::new(ctx.origin, 10 + c as u32);
                    let mut ops = Vec::new();
                    loop {
                        let start = next.fetch_add(BATCH, Ordering::Relaxed);
                        if start >= epoch.len() {
                            return (ops, rec);
                        }
                        let batch = start..(start + BATCH).min(epoch.len());
                        let batch_span =
                            traced.then(|| rec.open("serve.client.batch", pass, Instant::now()));
                        let mut pending = Vec::with_capacity(BATCH);
                        for idx in batch {
                            let t_post = Instant::now();
                            let resp = exchange(addr, "POST", "/jobs", epoch[idx].body.as_bytes());
                            let t_ack =
                                resp.as_ref().map_or_else(|_| Instant::now(), |r| r.last_byte);
                            let id = resp
                                .ok()
                                .filter(|r| r.status == 200)
                                .and_then(|r| submitted_id(&r.body));
                            if traced {
                                rec.complete("serve.client.submit", id.unwrap_or(0), t_post, t_ack);
                            }
                            let op = OpRec {
                                pass,
                                idx,
                                traced,
                                id,
                                latency_ms: f64::INFINITY,
                                submit_ms: ms(t_ack - t_post),
                                ..OpRec::default()
                            };
                            pending.push((op, t_post, t_ack));
                        }
                        let t_wait = Instant::now();
                        let terminal = wait_batch(registry, &ids(&pending));
                        if traced {
                            rec.complete("serve.client.wait", pass, t_wait, Instant::now());
                        }
                        for ((op, _, t_ack), t_term) in pending.iter_mut().zip(terminal) {
                            match t_term {
                                Some(t_term) => op.wait_ms = ms(t_term - *t_ack),
                                None => op.id = None,
                            }
                        }
                        for (op, t_post, _) in &mut pending {
                            let Some(id) = op.id else { continue };
                            let t_get = Instant::now();
                            let resp = exchange(addr, "GET", &format!("/jobs/j-{id}/result"), b"");
                            let t_done =
                                resp.as_ref().map_or_else(|_| Instant::now(), |r| r.last_byte);
                            if traced {
                                rec.complete("serve.client.result", id, t_get, t_done);
                            }
                            if let Some(r) = resp.ok().filter(|r| r.status == 200) {
                                op.digest = Some(report::digest(&r.body));
                                op.result_ms = ms(t_done - t_get);
                                op.latency_ms = ms(t_done - *t_post);
                            }
                        }
                        if let Some(span) = batch_span {
                            rec.close(span, Instant::now());
                        }
                        ops.extend(pending.into_iter().map(|(op, _, _)| op));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut ops = Vec::new();
    let mut recs = Vec::new();
    for (o, r) in per_client {
        ops.extend(o);
        recs.push(r);
    }
    (ops, recs)
}

/// Warm-up jobs: the first spec of each type from a fixed epoch, the
/// same for every seed.
fn warm_up(server: &ServerHandle) {
    let epoch = specs::cold_epoch(0, u64::MAX);
    for k in 0..KINDS.len() {
        let g = epoch.iter().find(|g| g.kind == k).expect("every type is in an epoch");
        let resp = exchange(server.addr(), "POST", "/jobs", g.body.as_bytes()).expect("submit");
        let id = submitted_id(&resp.body).expect("warm-up job accepted");
        assert!(server.registry().wait_terminal(id, JOB_TIMEOUT), "warm-up job finishes");
        let r = exchange(server.addr(), "GET", &format!("/jobs/j-{id}/result"), b"").expect("get");
        assert_eq!(r.status, 200, "warm-up job succeeds");
    }
    server.registry().cache().clear();
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            ServerHandle::shutdown(old, false);
        }
        let t0 = Instant::now();
        let s = start_server();
        warm_up(&s);
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("set up");

    let mut epochs: Vec<Vec<GenSpec>> = Vec::new();
    let mut ops: Vec<OpRec> = Vec::new();
    let mut trace = Trace::default();
    let mut cache = CacheStats::default();
    let (passes, rss_mb) = crate::run_passes(ctx, WARM_UP, |i, traced| {
        let epoch = specs::cold_epoch(ctx.seed, i);
        let before = server.registry().cache().stats();
        let t0 = Instant::now();
        let (mut epoch_ops, recs) = cold_epoch_live(ctx, &server, &epoch, i, traced);
        let secs = t0.elapsed().as_secs_f64();
        if traced {
            fetch_run_ms(server.addr(), &mut epoch_ops);
        }
        let d = cache_delta(before, server.registry().cache().stats());
        cache.result_hits += d.result_hits;
        cache.result_misses += d.result_misses;
        cache.design_hits += d.design_hits;
        cache.design_misses += d.design_misses;
        server.registry().cache().clear();
        if traced {
            recs.into_iter().for_each(|r| trace.absorb(r));
        }
        let latencies = epoch_ops.iter().map(|o| o.latency_ms).collect();
        ops.extend(epoch_ops);
        epochs.push(epoch);
        Pass { secs, traced, warm_up: false, latencies_ms: latencies }
    });

    // The gate: every payload against job::run on the same spec.
    let mut distinct: HashMap<&str, usize> = HashMap::new();
    let mut bodies: Vec<&str> = Vec::new();
    for op in ops.iter().filter(|o| o.digest.is_some()) {
        let body = epochs[op.pass as usize][op.idx].body.as_str();
        distinct.entry(body).or_insert_with(|| {
            bodies.push(body);
            bodies.len() - 1
        });
    }
    let digests = reference_digests(&bodies);
    let reference = |op: &OpRec| {
        distinct.get(epochs[op.pass as usize][op.idx].body.as_str()).map_or(0, |&i| digests[i])
    };
    account(&mut out, &ops, reference);
    let mut first: Vec<&OpRec> = ops.iter().filter(|o| o.pass == 0).collect();
    first.sort_by_key(|o| o.idx);
    let pinned = first.iter().fold(0, |acc, o| report::fold(acc, o.digest.unwrap_or(0)));
    eprintln!("e2ebench: serve_cold epoch-0 digest {pinned:#018x}");
    if ctx.seed == crate::DEFAULT_SEED {
        out.gate(pinned == PINNED_EPOCH0, || {
            format!("epoch-0 digest {pinned:#018x} != pinned {PINNED_EPOCH0:#018x}")
        });
    }
    out.gate(cache.result_hits == 0, || {
        format!("{} cold jobs hit the result cache", cache.result_hits)
    });
    crate::summarize(ctx, &passes, &setups, rss_mb, &mut out);

    if ctx.traced {
        cold_layers(ctx, &mut out, &ops, &epochs, cache, &mut trace);
        write_trace(ctx, &trace);
    }
    ServerHandle::shutdown(server, true);
    out
}

fn cold_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    ops: &[OpRec],
    epochs: &[Vec<GenSpec>],
    cache: CacheStats,
    trace: &mut Trace,
) {
    out.set("serve.cache.design_hit_ratio", ratio(cache.design_hits, cache.design_misses));
    out.set("serve.cache.result_hit_ratio", ratio(cache.result_hits, cache.result_misses));
    live_layers(out, ops);
    let traced: Vec<&OpRec> = ops.iter().filter(|o| o.traced && o.run_ms.is_some()).collect();
    let waits: Vec<f64> =
        traced.iter().map(|o| (o.wait_ms - o.run_ms.unwrap_or(0.0)).max(0.0)).collect();
    out.set("serve.queue_wait_ms_p50", report::median(&waits));
    let total_run: f64 = traced.iter().filter_map(|o| o.run_ms).sum();
    for (k, kind) in KINDS.iter().enumerate() {
        let runs: Vec<f64> = traced
            .iter()
            .filter(|o| epochs[o.pass as usize][o.idx].kind == k)
            .filter_map(|o| o.run_ms)
            .collect();
        out.set(&format!("serve.run_ms.{kind}_p50"), report::median(&runs));
        out.set(&format!("serve.run_ms.{kind}_share"), runs.iter().sum::<f64>() / total_run);
    }

    // Replay every traced epoch's jobs, then their HTTP exchanges.
    let mut rec = Recorder::new(ctx.origin, 0);
    let mut jobs = 0usize;
    let mut live = Vec::new();
    let replay_registry = Registry::new();
    let traced_passes: Vec<u64> = {
        let mut p: Vec<u64> = traced.iter().map(|o| o.pass).collect();
        p.dedup();
        p
    };
    let mut job_trace = Trace::default();
    for &p in &traced_passes {
        let mut replay = JobReplay::new();
        let mut epoch_ops: Vec<&&OpRec> = traced.iter().filter(|o| o.pass == p).collect();
        epoch_ops.sort_by_key(|o| o.id);
        for op in epoch_ops {
            let g = &epochs[p as usize][op.idx];
            let id = op.id.unwrap_or(0);
            let spec = JobSpec::parse(&json::parse(&g.body).expect("JSON")).expect("valid");
            let outer = rec.open("serve.job", id, Instant::now());
            let payload = replay.job(&mut rec, id, &spec, jobs % 2 == 1);
            rec.close(outer, Instant::now());
            let post = request_bytes("POST", "/jobs", g.body.as_bytes());
            replay_request(&mut rec, id, &post, &replay_registry, &payload);
            jobs += 1;
            live.push(*op);
        }
    }
    job_trace.absorb(rec);
    let st = job_trace.self_ns();
    let per_job = |name: &str| st.get(name).map_or(0.0, |&ns| ns as f64 / 1e6) / jobs.max(1) as f64;
    let stages = [
        ("fpga.circuits.build_ms", "fpga.circuits.build"),
        ("fpga.tech_map_ms", "fpga.tech_map"),
        ("fpga.pnr.flat_ms", "fpga.pnr.flat"),
        ("fpga.pnr.hier_ms", "fpga.pnr.hier"),
        ("sim.bitsim.truth_ms", "sim.bitsim.truth"),
        ("sim.seqbitsim.sweep_ms", "sim.seqbitsim.sweep"),
        ("core.faults.sample_sweep_ms", "core.faults.sample_sweep"),
        ("core.faults.bad_blocks_ms", "core.faults.bad_blocks"),
        ("synth.poly.synthesize_ms", "synth.poly.synthesize"),
        ("synth.poly.verify_ms", "synth.poly.verify"),
    ];
    let mut covered = 0.0;
    for (metric, span) in stages {
        let v = per_job(span);
        covered += v;
        out.set(metric, v);
    }
    let run = per_job("serve.job.run");
    out.set("serve.payload.serialise_ms", per_job("serve.payload.serialise"));
    out.set("serve.job.unattributed_ms", run - covered);
    out.set("serve.job.stage_coverage", covered / run);
    request_layers(out, &job_trace, jobs, &live);
    eprintln!(
        "e2ebench: replayed {jobs} jobs; stages cover {:.1}% of job::run",
        100.0 * covered / run
    );

    // Counters over the first traced epoch's jobs.
    let first = traced_passes[0] as usize;
    let bodies: Vec<JobSpec> = epochs[first]
        .iter()
        .map(|g| JobSpec::parse(&json::parse(&g.body).expect("JSON")).expect("valid"))
        .collect();
    let (_, counts) = crate::count_counters(|| {
        let cache = ArtifactCache::new();
        for spec in &bodies {
            black_box(job::run(spec, &cache, &AtomicBool::new(false)).expect("runs"));
        }
    });
    crate::set_counts(out, &counts, bodies.len());
    trace.merge(job_trace);
}
