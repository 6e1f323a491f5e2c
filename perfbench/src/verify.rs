//! `verify-ckpt`: single-threaded verification traffic.
//!
//! Each repeat runs, on one thread:
//! - oracle cells: a seeded adversarial trace (`ehs_verify::fuzz`) on a
//!   corpus workload under one of the matrix configurations, checked the
//!   way `check_workload` checks it — program, golden run, machine run
//!   with the invariant sink attached (tracing on), verdict;
//! - a checkpointed shrink of the committed `storm-strings-ipex-both`
//!   case under an injected restore fault, which must equal the plain
//!   shrink's output;
//! - the 15-entry snapshot corpus: an uninterrupted run that captures
//!   and encodes its state at the corpus cycle (which must equal the
//!   committed file byte for byte) and runs on to completion, then the
//!   committed file decoded, resumed and run to completion, which must
//!   equal the uninterrupted run.
//!
//! It is the only workload that writes (capture/encode) and reads
//! (decode/resume) snapshots, and the machine runs with tracing on
//! beside the golden interpreter.

use std::path::Path;
use std::time::Instant;

use ehs_energy::PowerTrace;
use ehs_isa::{ExecError, Program};
use ehs_sim::prelude::*;
use ehs_sim::{canon, Snapshot};
use ehs_verify::oracle::{golden_state, judge, ArchState, CheckOutcome, ConfigId, Divergence};
use ehs_verify::snapcorpus::{self, SnapSpec};
use ehs_verify::{shrink_trace, shrink_trace_checkpointed, CorpusCase, InvariantSink};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::*;
use crate::probe::{self, LayerView};
use crate::span::{self, span, Spans, Tr};

/// Oracle cells per repeat.
const CELLS: u64 = 8;
/// Cycle budget of one oracle cell; a run past it is inconclusive (as in
/// the fuzzer), not failed.
const CELL_MAX_CYCLES: u64 = 400_000_000;
/// ddmin budget of both shrinks (the fuzzer's).
const SHRINK_BUDGET: usize = 64;
/// Snapshot period of the checkpointed shrink, cycles.
const SHRINK_EVERY: u64 = 2_000_000;
const STORM_CASE: &str = "tests/corpus/storm-strings-ipex-both.json";
const SNAPSHOT_DIR: &str = "tests/corpus/snapshots";

/// One oracle cell: workload, configuration and adversarial samples.
struct Cell {
    workload: &'static ehs_workloads::Workload,
    config: ConfigId,
    samples: Vec<f64>,
}

/// The cells of one seed. Workload and configuration are fixed per cell
/// (so runs with different seeds do comparable work); the seed draws the
/// adversarial trace.
fn cells(seed: u64) -> Vec<Cell> {
    (0..CELLS)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let name = snapcorpus::WORKLOADS[i as usize % snapcorpus::WORKLOADS.len()];
            let config = ConfigId::ALL[i as usize % ConfigId::ALL.len()];
            let (_, samples) = ehs_verify::fuzz::adversarial_trace(&mut rng);
            Cell {
                workload: ehs_workloads::by_name(name).expect("corpus workload"),
                config,
                samples,
            }
        })
        .collect()
}

/// Inputs read in set-up: the storm case, the committed snapshot texts,
/// and golden references for the corpus workloads.
struct Inputs {
    storm: CorpusCase,
    snapshots: Vec<(SnapSpec, String)>,
    refs: Vec<(&'static str, Program, Result<ArchState, ExecError>)>,
}

impl Inputs {
    fn load() -> Result<Inputs, String> {
        let storm = CorpusCase::load(Path::new(STORM_CASE))?;
        let snapshots = snapcorpus::specs()
            .into_iter()
            .map(|s| {
                let path = Path::new(SNAPSHOT_DIR).join(s.file_name());
                std::fs::read_to_string(&path)
                    .map(|t| (s, t))
                    .map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect::<Result<_, _>>()?;
        let mem = SimConfig::default().nvm.size_bytes as usize;
        let refs = snapcorpus::WORKLOADS
            .iter()
            .map(|&n| {
                let p = ehs_workloads::by_name(n)
                    .expect("corpus workload")
                    .program();
                let g = golden_state(&p, mem);
                (n, p, g)
            })
            .collect();
        Ok(Inputs {
            storm,
            snapshots,
            refs,
        })
    }

    fn golden(&self, name: &str) -> &Result<ArchState, ExecError> {
        &self
            .refs
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("corpus workload has references")
            .2
    }
}

/// One repeat's outputs.
#[derive(Default)]
struct Pass {
    wall: f64,
    task_ms: Vec<f64>,
    sig: Signature,
    /// Results of the uninterrupted corpus runs, in corpus order.
    corpus: Vec<SimResult>,
    /// Instructions simulated by the machine runs this pass made itself.
    instructions: u64,
    /// The part of `instructions` simulated under `sim.run` spans (the
    /// corpus runs; the cells' runs sit inside `verify.check`).
    run_instructions: u64,
    cycles: u64,
    runs: u64,
    snapshot_bytes: u64,
    failures: Vec<String>,
}

impl Pass {
    fn count(&mut self, key: &'static str, v: u64) {
        *self.sig.entry(key).or_default() += v;
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn sim(&mut self, r: &SimResult, instructions: u64, cycles: u64) {
        self.instructions += instructions;
        self.cycles += cycles;
        self.runs += 1;
        let json = canon::canonical_json(r);
        let d = fnv_chain(
            json.as_bytes(),
            *self.sig.get("result.digest").unwrap_or(&FNV_OFFSET),
        );
        self.sig.insert("result.digest", d);
    }
}

/// `check_workload`'s sequence for one cell, with the run's result and
/// event counts kept.
fn cell(c: &Cell, inject: bool, tr: Tr, parent: u32, req: u64, pass: &mut Pass) {
    let program = span(tr, "workloads.program", parent, req, |_| {
        c.workload.program()
    });
    let mut cfg = c.config.build();
    cfg.max_cycles = CELL_MAX_CYCLES;
    let golden = span(tr, "verify.golden", parent, req, |_| {
        golden_state(&program, cfg.nvm.size_bytes as usize)
    });
    let trace = PowerTrace::from_samples_mw(c.samples.clone());
    let (outcome, run, counts) = span(tr, "verify.check", parent, req, |_| {
        let mut m = Machine::with_trace(cfg.clone(), &program, trace);
        if inject {
            m.set_fault_plan(RESTORE_FAULT);
        }
        let sink = InvariantSink::for_config(&cfg);
        m.set_trace_sink(Box::new(sink.clone()));
        let run = m.run();
        let mut outcome = judge(&golden, &run, &ArchState::of_machine(&m));
        if let (true, Ok(r)) = (outcome.is_match(), &run) {
            let v = sink.finish(Some(r));
            if !v.is_empty() {
                outcome = CheckOutcome::Diverged(Divergence::note(v.join(" | ")));
            }
        }
        (outcome, run, *m.trace_counts())
    });
    match (&outcome, &run) {
        (CheckOutcome::Match, Ok(r)) => {
            pass.sim(r, r.stats.instructions, r.stats.total_cycles);
            pass.count("verify.cells_matched", 1);
            pass.count("events.outage_begin", counts.outage_begin);
            pass.count("events.restore", counts.restore);
            pass.count("events.threshold_cross", counts.threshold_cross);
            pass.count("events.prefetch_issued", counts.prefetch_issued);
        }
        (CheckOutcome::Inconclusive(_), _) => pass.count("verify.cells_inconclusive", 1),
        _ => pass.fail(format!(
            "cell {} {}: {outcome:?}",
            c.workload.name(),
            c.config.name()
        )),
    }
}

/// Plain and checkpointed shrink of the storm case under the injected
/// restore fault; the outputs must be equal.
fn shrinks(inp: &Inputs, tr: Tr, parent: u32, pass: &mut Pass) -> (f64, f64) {
    let case = &inp.storm;
    let w = ehs_workloads::by_name(&case.workload).expect("storm workload");
    let cfg = ConfigId::from_name(&case.config)
        .expect("storm config")
        .build();
    let fault = Some(RESTORE_FAULT);
    let t = Instant::now();
    let mut plain_runs = 0u64;
    let plain = span(tr, "verify.shrink_plain", parent, 0, |_| {
        shrink_trace(&case.samples_mw, SHRINK_BUDGET, |cand| {
            plain_runs += 1;
            let trace = PowerTrace::from_samples_mw(cand.to_vec());
            ehs_verify::oracle::check_workload(w, &cfg, &trace, fault, true).is_divergence()
        })
    });
    let plain_ms = ms_since(t);
    let t = Instant::now();
    let program = w.program();
    let golden = golden_state(&program, cfg.nvm.size_bytes as usize);
    let (ckpt, stats) = span(tr, "verify.shrink_ckpt", parent, 0, |_| {
        shrink_trace_checkpointed(
            &program,
            &golden,
            &cfg,
            fault,
            &case.samples_mw,
            SHRINK_BUDGET,
            SHRINK_EVERY,
        )
    });
    let ckpt_ms = ms_since(t);
    if ckpt != plain {
        pass.fail(format!(
            "checkpointed shrink gave {} samples, plain shrink {}",
            ckpt.len(),
            plain.len()
        ));
    }
    pass.runs += plain_runs + stats.runs;
    pass.count("verify.shrink_plain_runs", plain_runs);
    pass.count("verify.shrink_runs", stats.runs);
    pass.count("verify.shrink_resumed", stats.resumed);
    pass.count("verify.cycles_skipped", stats.cycles_skipped);
    pass.count("verify.shrunk_len", ckpt.len() as u64);
    (plain_ms, ckpt_ms)
}

/// One corpus entry: uninterrupted run with capture, then resume.
fn corpus_entry(inp: &Inputs, i: usize, inject: bool, tr: Tr, parent: u32, pass: &mut Pass) {
    let (spec, committed) = &inp.snapshots[i];
    let req = i as u64;
    let (_, program, _) = inp
        .refs
        .iter()
        .find(|(n, _, _)| *n == spec.workload)
        .expect("corpus workload has references");
    let trace = || PowerTrace::constant_mw(snapcorpus::TRACE_MW, snapcorpus::TRACE_SAMPLES);
    let name = spec.file_name();

    let mut m = span(tr, "sim.build", parent, req, |_| {
        Machine::with_trace(spec.config.build(), program, trace())
    });
    if inject {
        m.set_fault_plan(RESTORE_FAULT);
    }
    if let Err(e) = span(tr, "sim.run", parent, req, |_| {
        m.run_until(snapcorpus::SNAP_CYCLE)
    }) {
        return pass.fail(format!("{name}: run to the capture cycle: {e}"));
    }
    let at_snap = (m.instructions(), m.cycle());
    let snap = span(tr, "snapshot.capture", parent, req, |_| m.snapshot(program));
    let text = span(tr, "snapshot.encode", parent, req, |_| snap.to_json());
    pass.snapshot_bytes += text.len() as u64;
    pass.count("snapshot.count", 1);
    if snapcorpus::render(&snap) != *committed {
        return pass.fail(format!(
            "{name}: captured state differs from the committed corpus"
        ));
    }
    let whole = span(tr, "sim.run", parent, req, |_| m.run());
    let arch = ArchState::of_machine(&m);

    let resumed = span(tr, "snapshot.decode", parent, req, |_| {
        Snapshot::from_json(committed)
    })
    .and_then(|s| {
        span(tr, "snapshot.resume", parent, req, |_| {
            Machine::resume(&s, program, trace())
        })
    });
    let mut r = match resumed {
        Ok(r) => r,
        Err(e) => return pass.fail(format!("{name}: resume: {e:?}")),
    };
    let rest = span(tr, "sim.run", parent, req, |_| r.run());
    let whole = match (whole, rest) {
        (Ok(a), Ok(b)) if a == b && arch == ArchState::of_machine(&r) => a,
        (a, b) => {
            return pass.fail(format!(
                "{name}: resumed run differs from the uninterrupted one ({:?} vs {:?})",
                a.map(|r| r.stats.total_cycles),
                b.map(|r| r.stats.total_cycles)
            ))
        }
    };
    let verdict = judge(inp.golden(spec.workload), &Ok(whole.clone()), &arch);
    if !verdict.is_match() {
        pass.fail(format!("{name}: oracle {verdict:?}"));
    }
    let (instr, cycles) = (whole.stats.instructions, whole.stats.total_cycles);
    // The resumed leg simulates only what follows the capture.
    pass.sim(&whole, 2 * instr - at_snap.0, 2 * cycles - at_snap.1);
    pass.run_instructions += 2 * instr - at_snap.0;
    pass.runs += 1;
    pass.corpus.push(whole);
}

fn run_pass(inp: &Inputs, cells: &[Cell], inject: bool, tr: Tr) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    span(tr, "verify", 0, 0, |root| {
        for (i, c) in cells.iter().enumerate() {
            let t = Instant::now();
            span(tr, "cell", root, i as u64, |id| {
                cell(c, inject, tr, id, i as u64, &mut pass)
            });
            pass.task_ms.push(ms_since(t));
        }
        let (plain_ms, ckpt_ms) = shrinks(inp, tr, root, &mut pass);
        pass.task_ms.extend([plain_ms, ckpt_ms]);
        for i in 0..inp.snapshots.len() {
            let t = Instant::now();
            span(tr, "corpus", root, i as u64, |id| {
                corpus_entry(inp, i, inject, tr, id, &mut pass)
            });
            pass.task_ms.push(ms_since(t));
        }
    });
    pass.wall = t0.elapsed().as_secs_f64();
    pass.count("sim.instructions", pass.instructions);
    pass.count("sim.cycles", pass.cycles);
    pass.count("sim.runs", pass.runs);
    pass.count("snapshot.bytes", pass.snapshot_bytes);
    pass
}

fn check_pass(what: &str, pass: &Pass, reference: &Signature, tasks: u64, rep: &mut Report) {
    rep.attempted += tasks;
    rep.failures
        .extend(pass.failures.iter().map(|f| format!("{what}: {f}")));
    rep.check(signature_diff(what, reference, &pass.sig));
}

pub fn run(ctx: &Ctx, traced: bool) -> Report {
    let mut rep = Report::default();
    let cells = cells(ctx.seed);
    let (mut setup, inputs) = Setup::first(Inputs::load);
    let inp = match inputs {
        Ok(i) => i,
        Err(e) => {
            rep.metrics.insert("setup_s", setup.median_s());
            rep.check(Some(format!("set-up: {e}")));
            return rep;
        }
    };
    let tasks = cells.len() as u64 + 2 + inp.snapshots.len() as u64;

    let spans = Spans::new();
    let (passes, traced_passes, rss) = measure(
        ctx.seconds,
        traced,
        |_| run_pass(&inp, &cells, ctx.inject_fault, None),
        |_| run_pass(&inp, &cells, ctx.inject_fault, Some(&spans)),
        || setup.again(),
    );
    rep.metrics.insert("setup_s", setup.median_s());
    rep.metrics.insert("peak_rss_mb", rss);
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate() {
        check_pass(&format!("repeat {i}"), p, &first.sig, tasks, &mut rep);
    }
    rep.signature = first.sig.clone();
    rep.walls = passes.iter().map(|p| p.wall).collect();

    if !traced {
        let task_ms: Vec<Vec<f64>> = passes.iter().map(|p| p.task_ms.clone()).collect();
        e2e_metrics(
            &mut rep.metrics,
            &in_seconds(&task_ms),
            first.instructions,
            first.cycles,
            first.runs,
            &task_ms,
        );
        rep.notes.push(format!(
            "verify-ckpt: wall_s and task latency from each of {} tasks' 90th percentile over {} repeats ({CELLS} oracle cells, 2 shrinks, {} corpus entries); {} machine runs per repeat",
            tasks,
            passes.len(),
            inp.snapshots.len(),
            first.runs
        ));
        modelled(first, &mut rep);
        return rep;
    }

    for (i, p) in traced_passes.iter().enumerate() {
        check_pass(
            &format!("traced repeat {i}"),
            p,
            &first.sig,
            tasks,
            &mut rep,
        );
    }
    let probe = probe::run(&ctx.work, &mut rep);
    let view = LayerView {
        own: span::layers(&spans.records()),
        probe: probe.layers,
    };
    let traced_walls: Vec<f64> = traced_passes.iter().map(|p| p.wall).collect();
    let wall_ns = (traced_walls.iter().sum::<f64>() * 1e9) as u64;
    rep.layer_table = span::table(&view.own, wall_ns);

    let n = traced_passes.len() as f64;
    let sig = &first.sig;
    let m = &mut rep.metrics;
    view.time_metrics(m);
    let run = view.get("sim.run");
    m.insert(
        "sim.ns_per_instr",
        run.self_ns as f64 / (first.run_instructions as f64 * n),
    );
    m.insert("sim.run_share", run.self_ns as f64 / wall_ns as f64);
    m.insert("energy.traces_synthesized", 0.0);
    m.insert(
        "workloads.programs_assembled",
        view.get("workloads.program").count as f64 / n,
    );
    m.insert("canon.bytes", 0.0);
    m.insert("snapshot.bytes", sig["snapshot.bytes"] as f64);
    m.insert("snapshot.count", sig["snapshot.count"] as f64);
    crate::suite::sweep_counts(m, &Default::default());
    m.insert("service.frame_bytes_per_point", probe.frame_bytes);
    m.insert("verify.shrink_runs", sig["verify.shrink_runs"] as f64);
    m.insert("verify.shrink_resumed", sig["verify.shrink_resumed"] as f64);
    m.insert("verify.cycles_skipped", sig["verify.cycles_skipped"] as f64);
    let mut tally = Tally::default();
    first.corpus.iter().for_each(|r| tally.add(r));
    tally.layer_metrics(m);
    m.insert(
        "trace.overhead_frac",
        median(&traced_walls) / median(&rep.walls) - 1.0,
    );
    rep.spans = Some(spans);
    rep
}

/// Modelled metrics over the snapshot corpus's uninterrupted runs (the
/// seed-independent part): gmean IPC, and IPEX(I+D) vs baseline per
/// corpus workload.
fn modelled(pass: &Pass, rep: &mut Report) {
    let ipcs: Vec<f64> = pass.corpus.iter().map(ipc).collect();
    let specs = snapcorpus::specs();
    let find = |w: &str, c: ConfigId| {
        specs
            .iter()
            .position(|s| s.workload == w && s.config == c)
            .and_then(|i| pass.corpus.get(i))
    };
    let speedups: Vec<f64> = snapcorpus::WORKLOADS
        .iter()
        .filter_map(|w| {
            Some(find(w, ConfigId::IpexBoth)?.speedup_over(find(w, ConfigId::Baseline)?))
        })
        .collect();
    let speedup = gmean(&speedups).unwrap_or(f64::NAN);
    rep.metrics
        .insert("sim_ipc", gmean(&ipcs).unwrap_or(f64::NAN));
    rep.metrics.insert("sim_ipex_speedup", speedup);
    rep.notes.push(speedup_note(
        "verify-ckpt (3 mW corpus)",
        speedup,
        speedups.len(),
    ));
}
