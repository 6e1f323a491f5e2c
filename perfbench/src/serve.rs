//! `serve-monte`: a closed-loop Monte Carlo load on the sweep service.
//!
//! Two client connections talk to an in-process `ehs_bench::service`
//! server whose engine has 2 workers and a disk cache in the run's
//! scratch directory; each client sends its next `SeedSweep` batch only
//! after the previous one's `Done`. Seed ranges half-overlap between the
//! clients. The server restarts once per round on the same cache
//! directory, and the second phase re-requests half of the first
//! phase's groups, which the new engine serves from disk. Every seed
//! synthesizes a fresh trace, so trace synthesis, frames, dedup (memo
//! hits and in-flight waits) and cache reads beside cache writes are
//! all exercised. A round is the unit that repeats.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ehs_bench::service::{Client, Outcome, Server};
use ehs_bench::{Sweep, SweepOptions, SweepStats};
use ehs_energy::{TraceKind, TraceSpec};
use ehs_isa::{ExecError, Program};
use ehs_sim::canon;
use ehs_sim::prelude::*;
use ehs_verify::oracle::{golden_state, judge, ArchState};

use crate::common::*;
use crate::probe::{self, LayerView};
use crate::span::{self, span, Spans, Tr};

/// Seed groups per phase; phase 2 starts halfway through phase 1's.
const GROUPS: u32 = 8;
/// Seeds per `SeedSweep` batch; the two clients' ranges overlap by half.
const SEEDS_PER_BATCH: u64 = 4;
const CLIENTS: u64 = 2;
const SERVER_JOBS: usize = 2;
const TRACE_SAMPLES: usize = 400_000;
const KINDS: [TraceKind; 3] = [TraceKind::RfHome, TraceKind::Solar, TraceKind::Thermal];
/// Every n-th distinct point of a round is re-run locally against the
/// golden interpreter after the timed loop.
const ORACLE_STRIDE: usize = 12;

/// One simulation point of the plan: seed group, configuration index
/// (0 baseline, 1 IPEX I+D) and trace seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pid {
    group: u32,
    cfg: usize,
    seed: u64,
}

struct Plan {
    seed: u64,
    configs: [SimConfig; 2],
}

impl Plan {
    /// The group's workload. Fixed across seeds (the seed only moves the
    /// traces), so runs with different seeds do comparable work.
    fn workload(&self, group: u32) -> &'static ehs_workloads::Workload {
        let n = ehs_workloads::SUITE.len();
        &ehs_workloads::SUITE[(7 * group as usize) % n]
    }

    fn trace(&self, group: u32) -> TraceSpec {
        TraceSpec::Synthetic {
            kind: KINDS[group as usize % KINDS.len()],
            seed: 0,
            samples: TRACE_SAMPLES,
        }
    }

    fn seed_base(&self, group: u32, client: u64) -> u64 {
        self.seed.wrapping_mul(1_000_003)
            + SEEDS_PER_BATCH * group as u64
            + client * SEEDS_PER_BATCH / 2
    }

    fn groups(phase: u32) -> std::ops::Range<u32> {
        let start = phase * GROUPS / 2;
        start..start + GROUPS
    }

    /// A client's batches in one phase: (group, config index).
    fn batches(phase: u32) -> Vec<(u32, usize)> {
        Plan::groups(phase).flat_map(|g| [(g, 0), (g, 1)]).collect()
    }

    /// Distinct points a phase requests.
    fn phase_points(&self, phase: u32) -> BTreeSet<Pid> {
        let mut set = BTreeSet::new();
        for (group, cfg) in Plan::batches(phase) {
            for c in 0..CLIENTS {
                let base = self.seed_base(group, c);
                for seed in base..base + SEEDS_PER_BATCH {
                    set.insert(Pid { group, cfg, seed });
                }
            }
        }
        set
    }
}

/// What one batch returned.
struct Batch {
    ms: f64,
    points: Vec<(Pid, Result<SimResult, String>)>,
    json_bytes: u64,
    digests: Vec<u64>,
}

/// One round: per-phase engine counters and times, and every batch.
struct Round {
    wall: f64,
    /// Each phase's time, s: engine and server start, both clients'
    /// batches, shutdown.
    phase_s: Vec<f64>,
    stats: Vec<SweepStats>,
    batches: Vec<Batch>,
}

fn client_loop(
    plan: &Plan,
    phase: u32,
    c: u64,
    sock: &Path,
    tr: Tr,
    parent: u32,
) -> std::io::Result<Vec<Batch>> {
    let mut client = Client::connect_retry(sock, Duration::from_secs(10))?;
    let mut out = Vec::new();
    for (bi, (group, cfg)) in Plan::batches(phase).into_iter().enumerate() {
        let req = ((phase as u64 * CLIENTS + c) << 16) + bi as u64;
        let base = plan.seed_base(group, c);
        let t = Instant::now();
        let batch = span(tr, "service.batch", parent, req, |b| {
            let reply = client.seed_sweep(
                plan.workload(group).name(),
                plan.configs[cfg].clone(),
                plan.trace(group),
                base,
                SEEDS_PER_BATCH,
            )?;
            let mut batch = Batch {
                ms: 0.0,
                points: Vec::new(),
                json_bytes: 0,
                digests: Vec::new(),
            };
            for (i, o) in reply.outcomes.into_iter().enumerate() {
                let pid = Pid {
                    group,
                    cfg,
                    seed: base + i as u64,
                };
                let r = match o {
                    Outcome::Ok { result } => {
                        let json =
                            span(tr, "canon.json", b, req, |_| canon::canonical_json(&result));
                        batch.json_bytes += json.len() as u64;
                        batch.digests.push(fnv_chain(json.as_bytes(), FNV_OFFSET));
                        Ok(result)
                    }
                    Outcome::Err { message } => {
                        batch.digests.push(0);
                        Err(message)
                    }
                };
                batch.points.push((pid, r));
            }
            Ok::<_, std::io::Error>(batch)
        })?;
        out.push(Batch {
            ms: ms_since(t),
            ..batch
        });
    }
    Ok(out)
}

fn round(plan: &Plan, work: &Path, r: usize, tr: Tr) -> Result<Round, String> {
    let dir = work.join(format!("round{r}"));
    let (cache, sock) = (dir.join("cache"), dir.join("s.sock"));
    let t0 = Instant::now();
    let mut out = Round {
        wall: 0.0,
        phase_s: Vec::new(),
        stats: Vec::new(),
        batches: Vec::new(),
    };
    span(tr, "round", 0, r as u64, |root| {
        for phase in 0..2 {
            let t = Instant::now();
            let sweep = Arc::new(Sweep::new(SweepOptions {
                jobs: Some(SERVER_JOBS),
                disk_cache: Some(cache.clone()),
                ..SweepOptions::default()
            }));
            let server = span(tr, "service.spawn", root, 0, |_| {
                Server::spawn(&sock, Arc::clone(&sweep))
            })
            .map_err(|e| format!("server spawn: {e}"))?;
            let replies: Vec<_> = std::thread::scope(|s| {
                let hs: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let sock = &sock;
                        s.spawn(move || client_loop(plan, phase, c, sock, tr, root))
                    })
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            span(tr, "service.shutdown", root, 0, |_| {
                server.trigger_shutdown();
                server.join();
            });
            out.stats.push(sweep.stats());
            for reply in replies {
                out.batches
                    .extend(reply.map_err(|e| format!("phase {phase}: client: {e}"))?);
            }
            out.phase_s.push(t.elapsed().as_secs_f64());
        }
        Ok::<_, String>(())
    })?;
    out.wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Deterministic view of a round, and its correctness checks.
struct Analysis {
    sig: Signature,
    /// Each distinct point's result (the round simulates each once).
    results: BTreeMap<Pid, SimResult>,
    points_answered: u64,
    specs_synthesized: u64,
}

fn analyse(plan: &Plan, round: &Round, rep: &mut Report) -> Analysis {
    let mut sig = Signature::new();
    let mut results: BTreeMap<Pid, SimResult> = BTreeMap::new();
    let mut digests: BTreeMap<Pid, u64> = BTreeMap::new();
    let mut answered = 0u64;
    let mut json_bytes = 0u64;
    for b in &round.batches {
        json_bytes += b.json_bytes;
        for ((pid, r), d) in b.points.iter().zip(&b.digests) {
            answered += 1;
            let err = match r {
                Err(e) => Some(format!("{pid:?}: server error {e}")),
                Ok(r) => match digests.insert(*pid, *d) {
                    Some(prev) if prev != *d => Some(format!("{pid:?}: two different results")),
                    _ => {
                        results.entry(*pid).or_insert_with(|| r.clone());
                        None
                    }
                },
            };
            rep.check(err);
        }
    }
    // Exactly-once accounting per engine lifetime: every request lands
    // in one bucket, each distinct point is resolved once, and phase 2
    // simulates only what phase 1 did not leave on disk.
    let p1 = plan.phase_points(0);
    let p2 = plan.phase_points(1);
    let on_disk = p1.intersection(&p2).count() as u64;
    let requested = (Plan::batches(0).len() as u64) * CLIENTS * SEEDS_PER_BATCH;
    let want = [
        (p1.len() as u64, 0u64),
        (p2.len() as u64 - on_disk, on_disk),
    ];
    for (phase, (s, (sim, disk))) in round.stats.iter().zip(want).enumerate() {
        let accounted = s.memo_hits + s.in_flight_waits + s.disk_hits + s.simulated;
        let ok = s.requested == requested
            && accounted == requested
            && s.simulated == sim
            && s.disk_hits == disk;
        rep.check((!ok).then(|| {
            format!("phase {phase}: accounting {s:?}, want {sim} simulated + {disk} from disk of {requested}")
        }));
        let names = [
            [
                "sweep.p1.requested",
                "sweep.p1.simulated",
                "sweep.p1.disk_hits",
                "sweep.p1.deduped",
            ],
            [
                "sweep.p2.requested",
                "sweep.p2.simulated",
                "sweep.p2.disk_hits",
                "sweep.p2.deduped",
            ],
        ][phase];
        for (k, v) in names.into_iter().zip([
            s.requested,
            s.simulated,
            s.disk_hits,
            s.memo_hits + s.in_flight_waits,
        ]) {
            sig.insert(k, v);
        }
    }
    let mut tally = Tally::default();
    results.values().for_each(|r| tally.add(r));
    tally.sign(&mut sig);
    let digest = digests
        .values()
        .fold(FNV_OFFSET, |h, d| fnv_chain(&d.to_le_bytes(), h));
    sig.insert("result.digest", digest);
    sig.insert("canon.bytes", json_bytes);
    sig.insert("service.points_answered", answered);
    // The engine synthesizes each trace spec once per lifetime, and only
    // for points it simulates (disk hits need no trace).
    let specs = |pids: &mut dyn Iterator<Item = &Pid>| {
        pids.map(|p| (p.group as usize % KINDS.len(), p.seed))
            .collect::<BTreeSet<_>>()
            .len() as u64
    };
    let specs_synthesized = specs(&mut p1.iter()) + specs(&mut p2.difference(&p1));
    Analysis {
        sig,
        results,
        points_answered: answered,
        specs_synthesized,
    }
}

/// Golden references for the workloads the plan uses.
fn references(plan: &Plan) -> Vec<(&'static str, Program, Result<ArchState, ExecError>)> {
    let mem = SimConfig::default().nvm.size_bytes as usize;
    let names: BTreeSet<&'static str> = (0..GROUPS * 3 / 2)
        .map(|g| plan.workload(g).name())
        .collect();
    names
        .into_iter()
        .map(|n| {
            let p = ehs_workloads::by_name(n).expect("suite workload").program();
            let g = golden_state(&p, mem);
            (n, p, g)
        })
        .collect()
}

/// Outside the timed region: a stride of the round's distinct points
/// re-run locally, judged against the golden interpreter and compared
/// with what the service returned.
fn oracle_check(
    plan: &Plan,
    refs: &[(&'static str, Program, Result<ArchState, ExecError>)],
    a: &Analysis,
    inject: bool,
    rep: &mut Report,
) {
    for (pid, served) in a.results.iter().step_by(ORACLE_STRIDE) {
        let name = plan.workload(pid.group).name();
        let (_, program, golden) = refs
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("references cover the plan");
        let trace = plan.trace(pid.group).with_seed(pid.seed).synthesize();
        let mut m = Machine::with_trace(plan.configs[pid.cfg].clone(), program, trace);
        if inject {
            m.set_fault_plan(RESTORE_FAULT);
        }
        let r = m.run();
        let verdict = judge(golden, &r, &ArchState::of_machine(&m));
        rep.check(if !verdict.is_match() {
            Some(format!("{name} {pid:?}: oracle {verdict:?}"))
        } else if r.as_ref() != Ok(served) {
            Some(format!(
                "{name} {pid:?}: served result differs from a direct run"
            ))
        } else {
            None
        });
    }
}

pub fn run(ctx: &Ctx, traced: bool) -> Report {
    let mut rep = Report::default();
    let plan = Plan {
        seed: ctx.seed,
        configs: [
            SimConfig::builder().build(),
            SimConfig::builder().ipex(Ipex::Both).build(),
        ],
    };
    let (mut setup, refs) = Setup::first(|| references(&plan));

    let spans = Spans::new();
    let (rounds, traced_rounds, rss) = measure(
        ctx.seconds,
        traced,
        |r| round(&plan, &ctx.work, 2 * r, None),
        |r| round(&plan, &ctx.work, 2 * r + 1, Some(&spans)),
        || setup.again(),
    );
    rep.metrics.insert("setup_s", setup.median_s());
    rep.metrics.insert("peak_rss_mb", rss);
    let mut analyses = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        match r {
            Ok(r) => analyses.push(analyse(&plan, r, &mut rep)),
            Err(e) => rep.check(Some(format!("round {i}: {e}"))),
        }
    }
    let rounds: Vec<Round> = rounds.into_iter().flatten().collect();
    let Some(first) = analyses.first() else {
        return rep;
    };
    for (i, a) in analyses.iter().enumerate() {
        rep.check(signature_diff(&format!("round {i}"), &first.sig, &a.sig));
    }
    rep.signature = first.sig.clone();
    rep.walls = rounds.iter().map(|r| r.wall).collect();
    let mut tally = Tally::default();
    first.results.values().for_each(|r| tally.add(r));

    if !traced {
        oracle_check(&plan, &refs, first, ctx.inject_fault, &mut rep);
        let batch_ms: Vec<Vec<f64>> = rounds
            .iter()
            .map(|r| r.batches.iter().map(|b| b.ms).collect())
            .collect();
        let phase_s: Vec<Vec<f64>> = rounds.iter().map(|r| r.phase_s.clone()).collect();
        let (n, first_len) = (rounds.len(), rounds[0].batches.len());
        e2e_metrics(
            &mut rep.metrics,
            &phase_s,
            tally.instructions,
            tally.cycles,
            first.points_answered,
            &batch_ms,
        );
        rep.notes.push(format!(
            "serve-monte: wall_s from each of 2 phases' 90th percentile over {n} rounds; batch latency from each of {} batch positions' 90th percentile over {n} rounds ({} SeedSweep round trips of {SEEDS_PER_BATCH} seeds, {CLIENTS} closed-loop clients); {} points answered and {} simulated per round",
            first_len,
            n * first_len,
            first.points_answered,
            tally.points
        ));
        modelled(first, &mut rep);
        return rep;
    }

    let mut traced_walls = Vec::new();
    for (i, r) in traced_rounds.iter().enumerate() {
        match r {
            Ok(r) => {
                let a = analyse(&plan, r, &mut rep);
                rep.check(signature_diff(
                    &format!("traced round {i}"),
                    &first.sig,
                    &a.sig,
                ));
                traced_walls.push(r.wall);
            }
            Err(e) => rep.check(Some(format!("traced round {i}: {e}"))),
        }
    }
    let probe = probe::run(&ctx.work, &mut rep);
    let view = LayerView {
        own: span::layers(&spans.records()),
        probe: probe.layers.clone(),
    };
    let wall_ns = (traced_walls.iter().sum::<f64>() * 1e9) as u64;
    rep.layer_table = span::table(&view.own, wall_ns);

    let m = &mut rep.metrics;
    view.time_metrics(m);
    // Machine time is spent inside the server: estimated from the
    // probe's per-instruction cost over the round's simulated work,
    // shared by the engine's workers.
    let ns_per_instr = probe.ns_per_instr();
    m.insert("sim.ns_per_instr", ns_per_instr);
    m.insert(
        "sim.run_share",
        ns_per_instr * tally.instructions as f64
            / (median(&traced_walls) * 1e9 * SERVER_JOBS as f64),
    );
    m.insert("energy.traces_synthesized", first.specs_synthesized as f64);
    m.insert("workloads.programs_assembled", tally.points as f64);
    m.insert("canon.bytes", first.sig["canon.bytes"] as f64);
    m.insert("snapshot.bytes", 0.0);
    m.insert("snapshot.count", 0.0);
    let mut total = SweepStats::default();
    for s in &rounds[0].stats {
        total.requested += s.requested;
        total.memo_hits += s.memo_hits;
        total.disk_hits += s.disk_hits;
        total.simulated += s.simulated;
        total.in_flight_waits += s.in_flight_waits;
    }
    crate::suite::sweep_counts(m, &total);
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

/// Modelled metrics over the round's distinct points: gmean IPC, and the
/// IPEX(I+D) gmean speedup over every (group, seed) simulated under both
/// configurations (the seed mean).
fn modelled(a: &Analysis, rep: &mut Report) {
    let ipcs: Vec<f64> = a.results.values().map(ipc).collect();
    let speedups: Vec<f64> = a
        .results
        .iter()
        .filter(|(p, _)| p.cfg == 0)
        .filter_map(|(p, base)| {
            let ipex = a.results.get(&Pid { cfg: 1, ..*p })?;
            Some(ipex.speedup_over(base))
        })
        .collect();
    let speedup = gmean(&speedups).unwrap_or(f64::NAN);
    rep.metrics
        .insert("sim_ipc", gmean(&ipcs).unwrap_or(f64::NAN));
    rep.metrics.insert("sim_ipex_speedup", speedup);
    rep.notes
        .push(speedup_note("serve-monte", speedup, speedups.len()));
}
