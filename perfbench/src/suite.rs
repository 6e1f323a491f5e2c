//! `suite-cold`: the `paper --no-cache --jobs 1` path.
//!
//! One sequential caller resolves the 20 workloads × {baseline, IPEX I+D}
//! × {RFHome, Solar} points, traces seeded from the benchmark seed,
//! through a fresh in-memory `Sweep` with one worker, one batch per
//! (trace, workload) pair. Host time is almost all `Machine::run`; the
//! memo, disk cache, service, snapshot and verify layers do no work.
//! At the default seed the RFHome half is `core_bench`'s 40-point set.

use std::ops::Range;
use std::time::Instant;

use ehs_bench::{SimPoint, Sweep, SweepOptions, SweepStats};
use ehs_energy::{TraceKind, TraceSpec};
use ehs_isa::{ExecError, Program};
use ehs_sim::canon;
use ehs_sim::prelude::*;
use ehs_verify::oracle::{golden_state, judge, ArchState};

use crate::common::*;
use crate::probe::{self, LayerView};
use crate::span::{self, span, Spans, Tr};

/// The seed at which the recorded digests below apply.
pub const DEFAULT_SEED: u64 = 42;

/// FNV-1a chain over the canonical JSON of `core_bench`'s 40 points
/// (RFHome seed 42, suite order, baseline then IPEX I+D).
pub const CORE_BENCH_DIGEST: u64 = 0x18aa_e6b7_4a9a_029d;

/// The same chain over all 80 suite-cold points at the default seed,
/// recorded at the commit that introduced this benchmark.
pub const SUITE_DIGEST: u64 = 0xe9cb_1236_824c_033a;

const TRACE_SAMPLES: usize = 400_000;

struct Plan {
    specs: Vec<TraceSpec>,
    points: Vec<SimPoint>,
    /// One batch per (trace, workload): the index of its trace spec and
    /// its range of `points`.
    batches: Vec<(usize, Range<usize>)>,
}

fn plan(seed: u64) -> Plan {
    let configs = [
        SimConfig::builder().build(),
        SimConfig::builder().ipex(Ipex::Both).build(),
    ];
    let specs: Vec<TraceSpec> = [TraceKind::RfHome, TraceKind::Solar]
        .map(|kind| TraceSpec::Synthetic {
            kind,
            seed,
            samples: TRACE_SAMPLES,
        })
        .to_vec();
    let mut points = Vec::new();
    let mut batches = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for w in &ehs_workloads::SUITE {
            let start = points.len();
            for cfg in &configs {
                points.push(SimPoint::new(w.name(), cfg.clone(), spec.clone()));
            }
            batches.push((si, start..points.len()));
        }
    }
    Plan {
        specs,
        points,
        batches,
    }
}

/// Oracle references built in set-up: each program and its golden
/// (functional-interpreter) final state.
struct Refs {
    programs: Vec<(&'static str, Program, Result<ArchState, ExecError>)>,
}

impl Refs {
    fn build() -> Refs {
        let mem = SimConfig::default().nvm.size_bytes as usize;
        let programs = ehs_workloads::SUITE
            .iter()
            .map(|w| {
                let p = w.program();
                let g = golden_state(&p, mem);
                (w.name(), p, g)
            })
            .collect();
        Refs { programs }
    }

    fn get(&self, name: &str) -> (&Program, &Result<ArchState, ExecError>) {
        let (_, p, g) = self
            .programs
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("every suite workload has references");
        (p, g)
    }
}

/// One pass over the plan.
#[derive(Default)]
struct Pass {
    wall: f64,
    batch_ms: Vec<f64>,
    results: Vec<Option<SimResult>>,
    errors: Vec<String>,
    digest: u64,
    subset_digest: u64,
    json_bytes: u64,
    stats: SweepStats,
}

impl Pass {
    /// Folds one resolved point into the pass (the canonical JSON is the
    /// run's output; its digest chain is the correctness anchor).
    fn push(&mut self, tr: Tr, parent: u32, req: u64, r: Result<SimResult, SimError>) {
        match r {
            Ok(r) => {
                let json = span(tr, "canon.json", parent, req, |_| canon::canonical_json(&r));
                self.json_bytes += json.len() as u64;
                self.digest = fnv_chain(json.as_bytes(), self.digest);
                if self.results.len() < 40 {
                    self.subset_digest = fnv_chain(json.as_bytes(), self.subset_digest);
                }
                self.results.push(Some(r));
            }
            Err(e) => {
                self.errors
                    .push(format!("point {}: {e}", self.results.len()));
                self.results.push(None);
            }
        }
    }

    fn new() -> Pass {
        Pass {
            digest: FNV_OFFSET,
            subset_digest: FNV_OFFSET,
            ..Pass::default()
        }
    }

    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        self.results.iter().flatten().for_each(|r| t.add(r));
        t
    }

    fn signature(&self) -> Signature {
        let mut sig = Signature::new();
        self.tally().sign(&mut sig);
        sig.insert("canon.bytes", self.json_bytes);
        sig.insert("result.digest", self.digest);
        sig
    }
}

/// The untraced path: a fresh single-worker in-memory engine.
fn sweep_pass(plan: &Plan) -> Pass {
    let mut pass = Pass::new();
    let t0 = Instant::now();
    let sweep = Sweep::new(SweepOptions {
        jobs: Some(1),
        ..SweepOptions::default()
    });
    for (_, range) in &plan.batches {
        let t = Instant::now();
        let rs = sweep.request(plan.points[range.clone()].to_vec()).wait();
        for r in rs {
            pass.push(None, 0, 0, r);
        }
        pass.batch_ms.push(ms_since(t));
    }
    pass.wall = t0.elapsed().as_secs_f64();
    pass.stats = sweep.stats();
    pass
}

/// The traced path: the calls the engine makes for a cold in-memory
/// miss (key, trace synthesis once per spec, assembly, machine build,
/// run), each under its own span, plus the output's canonical JSON.
fn traced_pass(plan: &Plan, spans: &Spans) -> Pass {
    let tr = Some(spans);
    let mut pass = Pass::new();
    let t0 = Instant::now();
    span(tr, "suite", 0, 0, |root| {
        let traces: Vec<PowerTrace> = plan
            .specs
            .iter()
            .map(|s| span(tr, "energy.trace_synth", root, 0, |_| s.synthesize()))
            .collect();
        for (bi, (si, range)) in plan.batches.iter().enumerate() {
            let req = bi as u64 + 1;
            let t = Instant::now();
            span(tr, "batch", root, req, |b| {
                for p in &plan.points[range.clone()] {
                    span(tr, "sweep.key", b, req, |_| p.key());
                    let w = ehs_workloads::by_name(p.workload).expect("suite workload");
                    let program = span(tr, "workloads.program", b, req, |_| w.program());
                    let mut m = span(tr, "sim.build", b, req, |_| {
                        Machine::with_trace(p.config.clone(), &program, traces[*si].clone())
                    });
                    let r = span(tr, "sim.run", b, req, |_| m.run());
                    pass.push(tr, b, req, r);
                }
            });
            pass.batch_ms.push(ms_since(t));
        }
    });
    pass.wall = t0.elapsed().as_secs_f64();
    pass
}

/// Outside the timed region: every point re-run on its own machine,
/// its final architectural state judged against the golden interpreter
/// and its result compared with the engine's.
fn oracle_pass(plan: &Plan, refs: &Refs, want: &Pass, inject: bool, rep: &mut Report) {
    let traces: Vec<PowerTrace> = plan.specs.iter().map(TraceSpec::synthesize).collect();
    for (si, range) in &plan.batches {
        for i in range.clone() {
            let p = &plan.points[i];
            let (program, golden) = refs.get(p.workload);
            let mut m = Machine::with_trace(p.config.clone(), program, traces[*si].clone());
            if inject {
                m.set_fault_plan(RESTORE_FAULT);
            }
            let r = m.run();
            let verdict = judge(golden, &r, &ArchState::of_machine(&m));
            let what = format!("point {i} ({}, {})", p.workload, p.trace.label());
            let err = if !verdict.is_match() {
                Some(format!("{what}: oracle {verdict:?}"))
            } else if r.ok() != want.results[i] {
                Some(format!("{what}: engine result differs from a direct run"))
            } else {
                None
            };
            rep.check(err);
        }
    }
}

/// Correctness of one pass: no point failed, and the work signature
/// equals the reference pass's.
fn check_pass(what: &str, pass: &Pass, reference: &Signature, rep: &mut Report) {
    rep.attempted += pass.results.len() as u64;
    rep.failures
        .extend(pass.errors.iter().map(|e| format!("{what}: {e}")));
    rep.check(signature_diff(what, reference, &pass.signature()));
}

pub fn run(ctx: &Ctx, traced: bool) -> Report {
    let mut rep = Report::default();
    let plan = plan(ctx.seed);
    let (mut setup, refs) = Setup::first(Refs::build);

    let spans = Spans::new();
    let (passes, traced_passes, rss) = measure(
        ctx.seconds,
        traced,
        |_| sweep_pass(&plan),
        |_| traced_pass(&plan, &spans),
        || setup.again(),
    );
    rep.metrics.insert("setup_s", setup.median_s());
    rep.metrics.insert("peak_rss_mb", rss);
    let first = &passes[0];
    let sig = first.signature();
    for (i, p) in passes.iter().enumerate() {
        check_pass(&format!("repeat {i}"), p, &sig, &mut rep);
    }
    if ctx.seed == DEFAULT_SEED {
        for (what, got, want) in [
            (
                "40-point core_bench subset",
                first.subset_digest,
                CORE_BENCH_DIGEST,
            ),
            ("80-point suite", first.digest, SUITE_DIGEST),
        ] {
            rep.check(
                (got != want).then(|| format!("{what} digest {got:016x} != recorded {want:016x}")),
            );
        }
    }
    rep.notes.push(format!(
        "suite-cold: {} points/repeat in {} batches, result digest {:016x} (40-point subset {:016x})",
        plan.points.len(),
        plan.batches.len(),
        first.digest,
        first.subset_digest
    ));
    rep.walls = passes.iter().map(|p| p.wall).collect();
    let tally = first.tally();
    rep.signature = sig.clone();

    if !traced {
        oracle_pass(&plan, &refs, first, ctx.inject_fault, &mut rep);
        let batch_ms: Vec<Vec<f64>> = passes.iter().map(|p| p.batch_ms.clone()).collect();
        e2e_metrics(
            &mut rep.metrics,
            &in_seconds(&batch_ms),
            tally.instructions,
            tally.cycles,
            tally.points,
            &batch_ms,
        );
        rep.notes.push(format!(
            "suite-cold: wall_s and batch latency from each of {} batches' 90th percentile over {} repeats",
            plan.batches.len(),
            passes.len()
        ));
        modelled(&plan, first, &mut rep);
        return rep;
    }

    // Traced run: the same inputs through spans, then the probe.
    for (i, p) in traced_passes.iter().enumerate() {
        check_pass(&format!("traced repeat {i}"), p, &sig, &mut rep);
    }
    let probe = probe::run(&ctx.work, &mut rep);
    let view = LayerView {
        own: span::layers(&spans.records()),
        probe: probe.layers,
    };
    let traced_walls: Vec<f64> = traced_passes.iter().map(|p| p.wall).collect();
    let wall_ns = (traced_walls.iter().sum::<f64>() * 1e9) as u64;
    rep.layer_table = span::table(&view.own, wall_ns);

    let m = &mut rep.metrics;
    view.time_metrics(m);
    let n = traced_passes.len() as u64;
    let run = view.get("sim.run");
    m.insert(
        "sim.ns_per_instr",
        run.self_ns as f64 / (tally.instructions * n) as f64,
    );
    m.insert("sim.run_share", run.self_ns as f64 / wall_ns as f64);
    m.insert(
        "energy.traces_synthesized",
        view.get("energy.trace_synth").count as f64 / n as f64,
    );
    m.insert(
        "workloads.programs_assembled",
        view.get("workloads.program").count as f64 / n as f64,
    );
    m.insert("canon.bytes", first.json_bytes as f64);
    m.insert("snapshot.bytes", 0.0);
    m.insert("snapshot.count", 0.0);
    sweep_counts(m, &first.stats);
    m.insert("service.frame_bytes_per_point", probe.frame_bytes);
    for k in [
        "verify.shrink_runs",
        "verify.shrink_resumed",
        "verify.cycles_skipped",
    ] {
        m.insert(k, 0.0);
    }
    tally.layer_metrics(m);
    m.insert(
        "trace.overhead_frac",
        median(&traced_walls) / median(&rep.walls) - 1.0,
    );
    rep.spans = Some(spans);
    rep
}

/// The engine's exactly-once counters as per-layer metrics.
pub fn sweep_counts(m: &mut Metrics, s: &SweepStats) {
    m.insert("sweep.memo_hits", s.memo_hits as f64);
    m.insert("sweep.disk_hits", s.disk_hits as f64);
    m.insert("sweep.simulated", s.simulated as f64);
    m.insert("sweep.in_flight_waits", s.in_flight_waits as f64);
    m.insert(
        "sweep.dedup_frac",
        (s.requested - s.simulated) as f64 / s.requested.max(1) as f64,
    );
}

/// Modelled metrics: suite gmean IPC and IPEX(I+D) gmean speedup over
/// the (trace, workload) pairs, plus the gap to the paper.
fn modelled(plan: &Plan, pass: &Pass, rep: &mut Report) {
    let results: Vec<&SimResult> = pass.results.iter().flatten().collect();
    let ipcs: Vec<f64> = results.iter().map(|r| ipc(r)).collect();
    let speedups: Vec<f64> = plan
        .batches
        .iter()
        .filter_map(|(_, range)| {
            let base = pass.results[range.start].as_ref()?;
            let ipex = pass.results[range.start + 1].as_ref()?;
            Some(ipex.speedup_over(base))
        })
        .collect();
    let speedup = gmean(&speedups).unwrap_or(f64::NAN);
    rep.metrics
        .insert("sim_ipc", gmean(&ipcs).unwrap_or(f64::NAN));
    rep.metrics.insert("sim_ipex_speedup", speedup);
    rep.notes
        .push(speedup_note("suite-cold", speedup, speedups.len()));
}
