//! Snapshot/resume determinism across the full 20-workload suite.
//!
//! For every suite workload under a brownout-style supply (healthy base
//! with periodic single-sample dips — the adversarial fuzzer's first
//! strategy), running to a split point, serializing the complete
//! machine state through JSON, resuming a fresh machine from it, and
//! running on must land in the bit-identical full state as the
//! uninterrupted run: the comparison is the snapshot digest over
//! registers, memory delta, cache and prefetch-buffer contents,
//! prefetcher/throttle state, capacitor energy, statistics, energy
//! breakdown and event counts. The horizon is bounded so the suite
//! stays tier-1 fast; completion is not required for equivalence.

use proptest::prelude::*;

use ehs_repro::energy::PowerTrace;
use ehs_repro::prefetch::{DataPrefetcherKind, InstPrefetcherKind};
use ehs_repro::sim::{Ipex, Machine, RunStatus, SimConfig, Snapshot};
use ehs_repro::verify::run_parallel;
use ehs_repro::workloads::SUITE;

/// Deterministic brownout-style supply: a healthy base with a
/// single-sample dip every 7th sample and a strong recovery tail.
fn brownout_trace() -> PowerTrace {
    let mut samples: Vec<f64> = (0..96)
        .map(|i| {
            if i % 7 == 3 {
                0.5
            } else {
                24.0 + (i % 5) as f64
            }
        })
        .collect();
    samples.extend(std::iter::repeat_n(35.0, 16));
    PowerTrace::from_samples_mw(samples)
}

const SPLIT_CYCLE: u64 = 600_000;
const HORIZON: u64 = 1_500_000;

#[test]
fn snapshot_resume_is_bit_identical_for_all_20_workloads() {
    let trace = brownout_trace();
    let failures: Vec<String> = run_parallel(&SUITE, |w| {
        let program = w.program();
        // Alternate configurations so both controller shapes are swept.
        let cfg = if w.name().len() % 2 == 0 {
            SimConfig::builder().ipex(Ipex::Both).build()
        } else {
            SimConfig::builder().build()
        };

        let mut whole = Machine::with_trace(cfg.clone(), &program, trace.clone());
        whole.run_until(HORIZON).expect("whole run");

        let mut first = Machine::with_trace(cfg, &program, trace.clone());
        first.run_until(SPLIT_CYCLE).expect("first leg");
        let snap = match Snapshot::from_json(&first.snapshot(&program).to_json()) {
            Ok(s) => s,
            Err(e) => return Some(format!("{}: snapshot does not round-trip: {e}", w.name())),
        };
        let mut resumed = match Machine::resume(&snap, &program, trace.clone()) {
            Ok(m) => m,
            Err(e) => return Some(format!("{}: snapshot does not resume: {e}", w.name())),
        };
        if resumed.state_digest(&program) != snap.digest() {
            return Some(format!("{}: resumed state != snapshot", w.name()));
        }
        resumed.run_until(HORIZON).expect("resumed leg");
        if resumed.state_digest(&program) != whole.state_digest(&program) {
            return Some(format!(
                "{}: split run diverged from the uninterrupted run",
                w.name()
            ));
        }
        None
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "snapshot/resume broke determinism:\n  {}",
        failures.join("\n  ")
    );
}

/// Builds the configuration for one (ikind, dkind, policy) cell of the
/// prefetcher × throttling-policy grid, with a small memory image so
/// per-case snapshot capture stays cheap.
fn grid_cfg(ikind: InstPrefetcherKind, dkind: DataPrefetcherKind, policy: u8) -> SimConfig {
    use ehs_repro::ipex::{HysteresisConfig, PolicyConfig, PredictiveConfig, StaticDegreeConfig};
    let mut cfg = match policy {
        0 => SimConfig::builder().build(),
        1 => SimConfig::builder().ipex(Ipex::Both).build(),
        2 => SimConfig::builder()
            .throttle_policy(
                Ipex::Both,
                PolicyConfig::Predictive(PredictiveConfig::paper_default()),
            )
            .build(),
        3 => SimConfig::builder()
            .throttle_policy(
                Ipex::Both,
                PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
            )
            .build(),
        _ => SimConfig::builder()
            .throttle_policy(
                Ipex::Both,
                PolicyConfig::StaticDegree(StaticDegreeConfig::conservative()),
            )
            .build(),
    };
    cfg.inst_prefetcher = ikind;
    cfg.data_prefetcher = dkind;
    cfg.nvm.size_bytes = 1 << 21;
    cfg
}

proptest! {
    /// A run cut at 1–5 random `run_until` boundaries, each leg handed
    /// to a fresh machine through snapshot → JSON → `Machine::resume`,
    /// stitches bit-identically to the monolithic run, across every
    /// prefetcher kind (4 instruction × 5 data) and all 5 throttling
    /// policies, under random supplies. This is what periodic
    /// checkpointing rests on: pausing is neutral and resume is exact,
    /// down to the result and the final state digest.
    #[test]
    fn random_k_way_slicing_stitches_bit_identically(
        ikind in prop_oneof![
            Just(InstPrefetcherKind::None),
            Just(InstPrefetcherKind::Sequential),
            Just(InstPrefetcherKind::Markov),
            Just(InstPrefetcherKind::Tifs),
        ],
        dkind in prop_oneof![
            Just(DataPrefetcherKind::None),
            Just(DataPrefetcherKind::Stride),
            Just(DataPrefetcherKind::Ghb),
            Just(DataPrefetcherKind::BestOffset),
            Just(DataPrefetcherKind::Ampm),
        ],
        policy in 0u8..5,
        raw_cuts in proptest::collection::vec(2_000u64..220_000, 1..6),
        samples in proptest::collection::vec(5.0f64..40.0, 4..24),
    ) {
        let w = ehs_repro::workloads::by_name("gsmd").unwrap();
        let program = w.program();
        let cfg = grid_cfg(ikind, dkind, policy);
        let trace = PowerTrace::from_samples_mw(samples);

        let mut mono = Machine::with_trace(cfg.clone(), &program, trace.clone());
        let truth = mono.run().expect("monolithic run completes");
        let truth_digest = mono.state_digest(&program);

        let mut cuts = raw_cuts;
        cuts.sort_unstable();
        cuts.dedup();
        let mut m = Machine::with_trace(cfg, &program, trace.clone());
        let mut early = None;
        for &cut in &cuts {
            match m.run_until(cut).expect("leg runs") {
                RunStatus::Completed(r) => {
                    early = Some(*r);
                    break;
                }
                RunStatus::Paused => {
                    let snap = Snapshot::from_json(&m.snapshot(&program).to_json())
                        .expect("snapshot round-trips through JSON");
                    m = Machine::resume(&snap, &program, trace.clone()).expect("resume");
                }
            }
        }
        let stitched = match early {
            Some(r) => r,
            None => m.run().expect("final leg completes"),
        };
        prop_assert_eq!(&stitched, &truth, "stitched result diverged (cuts {:?})", &cuts);
        prop_assert_eq!(
            m.state_digest(&program), truth_digest,
            "stitched final state diverged (cuts {:?})", &cuts
        );
    }
}
