//! Checkpoint-accelerated trace shrinking.
//!
//! [`shrink_trace`] re-runs the machine from cycle 0 for every ddmin
//! candidate, yet most candidates share a long sample prefix with the
//! trace they were cut from, and the machine's state at cycle `c` is a
//! function of only the samples consumed so far —
//! `ceil(c / CYCLES_PER_TRACE_SAMPLE)` of them, none re-read later (the
//! cyclic wraparound in [`PowerTrace::power_mw_at`] never engages below
//! the trace's own length). [`shrink_trace_checkpointed`] exploits that:
//! while evaluating a candidate it pauses every `every_cycles` cycles and
//! takes a [`Snapshot`]; whenever a later candidate's bitwise-common
//! prefix with the last *reproducing* trace covers a snapshot's consumed
//! samples, the run resumes from that snapshot instead of starting cold.
//!
//! Snapshot resume is bit-identical (see [`ehs_sim::snapshot`]), so every
//! candidate's verdict — and therefore the shrunk trace — is exactly what
//! the plain shrinker computes; only wall-clock cost changes. Invariant
//! checking stays off here: the [`InvariantSink`](crate::InvariantSink)
//! audits whole power cycles and cannot join an event stream mid-run, so
//! this shrinker minimizes *architectural* divergences (use
//! [`shrink_trace`] for invariant-only failures).

use ehs_energy::PowerTrace;
use ehs_isa::{ExecError, Program};
use ehs_sim::{FaultPlan, Machine, RunStatus, SimConfig, Snapshot, CYCLES_PER_TRACE_SAMPLE};

use crate::oracle::{judge, ArchState};
use crate::shrink::shrink_trace;

/// What [`shrink_trace_checkpointed`] did, beyond the shrunk trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointShrinkStats {
    /// Candidate evaluations (machine runs).
    pub runs: u64,
    /// Runs that resumed from a snapshot instead of starting cold.
    pub resumed: u64,
    /// Cycles *not* re-simulated thanks to snapshot reuse (the sum of
    /// the resumed snapshots' cycle counts).
    pub cycles_skipped: u64,
}

/// Snapshots taken along the most recent reproducing trace, reusable by
/// any candidate sharing a long enough bitwise sample prefix.
struct Store {
    samples: Vec<f64>,
    /// Ascending by cycle.
    snaps: Vec<Snapshot>,
}

/// Longest bitwise-common prefix of two sample vectors.
fn lcp(a: &[f64], b: &[f64]) -> usize {
    a.iter()
        .zip(b)
        .take_while(|(x, y)| x.to_bits() == y.to_bits())
        .count()
}

/// Trace samples a machine paused at `cycle` has consumed. A snapshot is
/// valid under any trace that agrees bitwise on this prefix: harvesting
/// reads sample `c / CYCLES_PER_TRACE_SAMPLE` only for already-elapsed
/// cycles `c`, backup windows draw from the reserve without harvesting,
/// and a mid-backup pause freezes `cycle` at the outage trigger.
fn samples_consumed(cycle: u64) -> u64 {
    cycle.div_ceil(CYCLES_PER_TRACE_SAMPLE)
}

/// [`shrink_trace`] with snapshot reuse: minimizes `samples` while the
/// machine run still *architecturally* diverges from `golden` (invariant
/// checking off — see the module docs).
///
/// Produces the identical shrunk trace as the plain shrinker with the
/// same budget, plus statistics on how much re-simulation the snapshots
/// avoided.
///
/// # Panics
///
/// Panics if `samples` is empty (see [`shrink_trace`]).
pub fn shrink_trace_checkpointed(
    program: &Program,
    golden: &Result<ArchState, ExecError>,
    cfg: &SimConfig,
    fault: Option<FaultPlan>,
    samples: &[f64],
    budget: usize,
    every_cycles: u64,
) -> (Vec<f64>, CheckpointShrinkStats) {
    let every_cycles = every_cycles.max(1);
    let mut stats = CheckpointShrinkStats::default();
    let mut store: Option<Store> = None;
    let shrunk = shrink_trace(samples, budget, |cand| {
        stats.runs += 1;
        let trace = PowerTrace::from_samples_mw(cand.to_vec());
        let shared = store.as_ref().map_or(0, |s| lcp(&s.samples, cand) as u64);
        // Latest stored snapshot whose consumed prefix the candidate
        // agrees on; its state is bit-identical to a cold run's there.
        let resume = store.as_ref().and_then(|s| {
            s.snaps
                .iter()
                .rev()
                .find(|snap| samples_consumed(snap.cycle) <= shared)
                .cloned()
        });
        let mut machine = match resume {
            Some(mut snap) => {
                // Same machine state under a different (prefix-agreeing)
                // trace: re-stamp the digest so validation accepts it.
                // The machine hashes the trace once, for this stamp, the
                // restore check and every snapshot of this run.
                let mut m = Machine::with_trace(snap.cfg.clone(), program, trace);
                snap.trace_digest = m.trace_digest();
                stats.resumed += 1;
                stats.cycles_skipped += snap.cycle;
                m.restore(&snap)
                    .expect("prefix-compatible snapshot resumes");
                m
            }
            None => {
                let mut m = Machine::with_trace(cfg.clone(), program, trace);
                if let Some(plan) = fault {
                    m.set_fault_plan(plan);
                }
                m
            }
        };
        let mut collected = Vec::new();
        let run = loop {
            match machine.run_until(machine.cycle().saturating_add(every_cycles)) {
                Ok(RunStatus::Completed(r)) => break Ok(*r),
                Ok(RunStatus::Paused) => collected.push(machine.snapshot(program)),
                Err(e) => break Err(e),
            }
        };
        let arch = ArchState::of_machine(&machine);
        let reproduced = judge(golden, &run, &arch).is_divergence();
        if reproduced {
            // This candidate is the shrinker's new current trace; future
            // candidates are cut from it. Keep the prefix of the old
            // store it still agrees on (all at or before the resume
            // point, so disjoint from `collected`) plus this run's
            // snapshots.
            let mut snaps: Vec<Snapshot> = store
                .take()
                .map(|s| {
                    s.snaps
                        .into_iter()
                        .filter(|snap| samples_consumed(snap.cycle) <= shared)
                        .collect()
                })
                .unwrap_or_default();
            snaps.extend(collected);
            store = Some(Store {
                samples: cand.to_vec(),
                snaps,
            });
        }
        reproduced
    });
    (shrunk, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_program, golden_state};
    use ehs_isa::Reg;

    /// A scenario with a genuine architectural divergence: the injected
    /// skip-restore fault under a weak supply (many outages). The small
    /// NVM keeps snapshot capture cheap.
    fn failing_setup() -> (Program, Result<ArchState, ExecError>, SimConfig, FaultPlan) {
        let w = ehs_workloads::by_name("strings").unwrap();
        let program = w.program();
        let mut cfg = SimConfig::default();
        cfg.nvm.size_bytes = 1 << 21;
        let golden = golden_state(&program, cfg.nvm.size_bytes as usize);
        let fault = FaultPlan {
            skip_restore_reg: Some(Reg::Sp),
        };
        (program, golden, cfg, fault)
    }

    #[test]
    fn matches_the_plain_shrinker_and_skips_cycles() {
        let (program, golden, cfg, fault) = failing_setup();
        let samples = vec![5.0; 16];
        let plain = shrink_trace(&samples, 24, |cand| {
            let trace = PowerTrace::from_samples_mw(cand.to_vec());
            check_program(&program, &golden, &cfg, &trace, Some(fault), false).is_divergence()
        });
        let (fast, stats) =
            shrink_trace_checkpointed(&program, &golden, &cfg, Some(fault), &samples, 24, 2_000);
        assert_eq!(fast, plain, "snapshot reuse must not change verdicts");
        assert!(stats.runs > 0);
        assert!(stats.resumed > 0, "no run ever resumed: {stats:?}");
        assert!(stats.cycles_skipped > 0);
    }

    #[test]
    fn reuse_granularity_does_not_change_the_result() {
        let (program, golden, cfg, fault) = failing_setup();
        let samples = vec![5.0; 16];
        // Huge legs: never pauses, every run is cold.
        let (cold, cold_stats) =
            shrink_trace_checkpointed(&program, &golden, &cfg, Some(fault), &samples, 16, u64::MAX);
        assert_eq!(cold_stats.resumed, 0);
        let (warm, warm_stats) =
            shrink_trace_checkpointed(&program, &golden, &cfg, Some(fault), &samples, 16, 5_000);
        assert_eq!(cold, warm);
        assert!(warm_stats.cycles_skipped > 0);
    }
}
