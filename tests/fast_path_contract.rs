//! The contract behind the simulator's same-block fetch fast path.
//!
//! `Machine` skips the prefetcher observation, the throttling filter and
//! the issue loop for an I-cache hit to the block of the previous
//! fetch. That is bit-identical only while two promises hold, and this
//! file pins both:
//!
//! * every instruction prefetcher, after observing a fetch to block B
//!   (whatever its outcome), emits nothing and keeps its state on a
//!   `CacheHit` fetch to B;
//! * every throttling policy's `filter` of an empty candidate list
//!   returns 0 and changes nothing.
//!
//! A new instruction prefetcher or policy that breaks either promise
//! fails here; the exhaustive matches below make a new variant a
//! compile error until it is added to the lists.

use proptest::prelude::*;

use ehs_repro::ipex::{
    AnyPolicy, HysteresisConfig, IpexConfig, PolicyConfig, PredictiveConfig, StaticDegreeConfig,
};
use ehs_repro::mem::{block_of, BLOCK_SIZE};
use ehs_repro::prefetch::{AccessEvent, AccessOutcome, InstPrefetcherKind, Prefetcher};
use ehs_repro::sim::canon::canonical_json;

/// Every instruction prefetcher kind.
fn inst_kinds() -> [InstPrefetcherKind; 4] {
    let kinds = [
        InstPrefetcherKind::None,
        InstPrefetcherKind::Sequential,
        InstPrefetcherKind::Markov,
        InstPrefetcherKind::Tifs,
    ];
    for k in kinds {
        // Exhaustive: a new kind must be added to the list above.
        match k {
            InstPrefetcherKind::None
            | InstPrefetcherKind::Sequential
            | InstPrefetcherKind::Markov
            | InstPrefetcherKind::Tifs => {}
        }
    }
    kinds
}

/// Every policy variant, in each configuration that changes its
/// `filter` (IPEX with and without the §5.1 reissue queue).
fn policies() -> Vec<AnyPolicy> {
    let reissue = IpexConfig {
        reissue_throttled: true,
        ..IpexConfig::paper_default()
    };
    let all = vec![
        AnyPolicy::Passthrough,
        AnyPolicy::ipex(IpexConfig::paper_default()),
        AnyPolicy::ipex(reissue),
        PolicyConfig::Predictive(PredictiveConfig::paper_default()).build(),
        PolicyConfig::Hysteresis(HysteresisConfig::paper_default()).build(),
        PolicyConfig::StaticDegree(StaticDegreeConfig::conservative()).build(),
        PolicyConfig::StaticDegree(StaticDegreeConfig::aggressive()).build(),
    ];
    for p in &all {
        // Exhaustive: a new variant must be added to the list above.
        match p {
            AnyPolicy::Passthrough
            | AnyPolicy::Ipex(_)
            | AnyPolicy::Predictive(_)
            | AnyPolicy::Hysteresis(_)
            | AnyPolicy::StaticDegree(_) => {}
        }
    }
    all
}

/// A random instruction fetch: a word-aligned pc in a small text
/// segment (so blocks recur) and any outcome.
fn arb_fetch() -> impl Strategy<Value = AccessEvent> {
    let outcome = prop_oneof![
        Just(AccessOutcome::CacheHit),
        Just(AccessOutcome::BufferHit),
        Just(AccessOutcome::Miss),
    ];
    (0u32..0x200, outcome).prop_map(|(word, outcome)| AccessEvent::fetch(word * 4, outcome))
}

/// One step of a policy's life.
#[derive(Debug, Clone)]
enum PolicyOp {
    Voltage(f64),
    Filter(usize),
    PowerFailure,
    Reboot,
}

fn arb_policy_op() -> impl Strategy<Value = PolicyOp> {
    // Voltage samples are listed twice: they are the common event.
    prop_oneof![
        (3.0f64..3.45).prop_map(PolicyOp::Voltage),
        (3.0f64..3.45).prop_map(PolicyOp::Voltage),
        (0usize..6).prop_map(PolicyOp::Filter),
        Just(PolicyOp::PowerFailure),
        Just(PolicyOp::Reboot),
    ]
}

/// Asserts an empty `filter` is a no-op on `p` in its current state.
fn assert_empty_filter_is_noop(p: &mut AnyPolicy, at: usize) {
    let state = canonical_json(&p.export_state());
    let stats = p.stats();
    let mut empty = Vec::new();
    assert_eq!(p.filter(&mut empty), 0, "{} after op {at}", p.kind_name());
    assert!(empty.is_empty());
    assert_eq!(p.stats(), stats, "{} stats after op {at}", p.kind_name());
    assert_eq!(
        canonical_json(&p.export_state()),
        state,
        "{} state after op {at}",
        p.kind_name()
    );
}

proptest! {
    /// After any observed fetch to block B, further `CacheHit` fetches
    /// anywhere in B emit nothing and leave `export_state()` unchanged,
    /// for every instruction prefetcher at every degree.
    #[test]
    fn same_block_hit_is_a_noop_for_every_inst_prefetcher(
        stream in proptest::collection::vec((arb_fetch(), 0u32..BLOCK_SIZE / 4, 1usize..4), 1..200),
        degree in 1u32..5,
    ) {
        for kind in inst_kinds() {
            let mut p = kind.build_any(degree);
            let mut out = Vec::new();
            for (i, (fetch, word, repeats)) in stream.iter().enumerate() {
                out.clear();
                p.observe(fetch, &mut out);
                let before = canonical_json(&p.export_state());
                let same_block = block_of(fetch.addr) + word * 4;
                for _ in 0..*repeats {
                    out.clear();
                    p.observe(&AccessEvent::fetch(same_block, AccessOutcome::CacheHit), &mut out);
                    prop_assert!(
                        out.is_empty(),
                        "{} degree {degree}: same-block hit after fetch {i} proposed {:?}",
                        kind.name(),
                        out
                    );
                    prop_assert_eq!(
                        canonical_json(&p.export_state()),
                        before.clone(),
                        "{} degree {}: same-block hit after fetch {} changed state",
                        kind.name(),
                        degree,
                        i
                    );
                }
            }
        }
    }

    /// Every policy's `filter` of an empty list returns 0 and leaves
    /// statistics and state unchanged, in every state a random history
    /// of voltages, filters, failures and reboots reaches.
    #[test]
    fn empty_filter_is_a_noop_for_every_policy(
        ops in proptest::collection::vec(arb_policy_op(), 1..150),
    ) {
        for mut p in policies() {
            assert_empty_filter_is_noop(&mut p, 0);
            for (i, op) in ops.iter().enumerate() {
                match op {
                    PolicyOp::Voltage(v) => {
                        let _ = p.observe_voltage(*v);
                    }
                    PolicyOp::Filter(n) => {
                        let mut cands: Vec<u32> = (1..=*n as u32).map(|k| k * BLOCK_SIZE).collect();
                        let _ = p.filter(&mut cands);
                    }
                    PolicyOp::PowerFailure => p.on_power_failure(),
                    PolicyOp::Reboot => p.on_reboot(),
                }
                assert_empty_filter_is_noop(&mut p, i + 1);
            }
        }
    }
}
