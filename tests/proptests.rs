//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use ehs_repro::energy::{Capacitor, CapacitorConfig, PowerTrace};
use ehs_repro::isa::{Instr, MemWidth, Reg};
use ehs_repro::mem::{block_of, Cache, CacheConfig, PrefetchBuffer, BLOCK_SIZE};
use ehs_repro::prefetch::{
    AccessEvent, AccessOutcome, DataPrefetcherKind, InstPrefetcherKind, Prefetcher,
};
use ehs_repro::sim::{Ipex, Machine, SimConfig, Snapshot};

/// An arbitrary demand-access event; instruction prefetchers only look at
/// the pc, so the same stream works for both trains.
fn arb_event() -> impl Strategy<Value = AccessEvent> {
    let outcome = prop_oneof![
        Just(AccessOutcome::CacheHit),
        Just(AccessOutcome::BufferHit),
        Just(AccessOutcome::Miss),
    ];
    (
        0u32..0x400,
        0u32..0x2000,
        outcome,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(pc, addr, outcome, is_write, is_data)| {
            // Word-aligned pcs, byte-granular data addresses.
            if is_data {
                AccessEvent::data(pc * 4, addr, outcome, is_write)
            } else {
                AccessEvent::fetch(pc * 4, outcome)
            }
        })
}

/// Replays `events` through `p` and returns the concatenated candidate
/// stream (with per-event boundaries, so interleavings can't alias).
fn candidate_stream(p: &mut dyn Prefetcher, events: &[AccessEvent]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut stream = Vec::with_capacity(events.len());
    for e in events {
        out.clear();
        p.observe(e, &mut out);
        stream.push(out.clone());
    }
    stream
}

/// Checks that after `power_loss` the prefetcher behaves exactly like a
/// freshly built one: all volatile training state (tables, histories,
/// learned offsets) must be gone, per the paper's volatile-metadata
/// model.
fn assert_power_loss_wipes(
    build: &dyn Fn() -> Box<dyn Prefetcher>,
    warmup: &[AccessEvent],
    probe: &[AccessEvent],
) {
    let mut survivor = build();
    let _ = candidate_stream(survivor.as_mut(), warmup);
    survivor.power_loss();
    let mut fresh = build();
    assert_eq!(
        candidate_stream(survivor.as_mut(), probe),
        candidate_stream(fresh.as_mut(), probe),
        "{}: training state survived power loss",
        survivor.name()
    );
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0usize..16).prop_map(|i| Reg::from_index(i).unwrap())
}

fn arb_imm18() -> impl Strategy<Value = i32> {
    -(1i32 << 17)..(1i32 << 17)
}

fn arb_imm22() -> impl Strategy<Value = i32> {
    -(1i32 << 21)..(1i32 << 21)
}

fn r3() -> impl Strategy<Value = (Reg, Reg, Reg)> {
    (arb_reg(), arb_reg(), arb_reg())
}

fn i3() -> impl Strategy<Value = (Reg, Reg, i32)> {
    (arb_reg(), arb_reg(), arb_imm18())
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        r3().prop_map(|(rd, rs1, rs2)| Instr::Add { rd, rs1, rs2 }),
        r3().prop_map(|(rd, rs1, rs2)| Instr::Mul { rd, rs1, rs2 }),
        r3().prop_map(|(rd, rs1, rs2)| Instr::Sltu { rd, rs1, rs2 }),
        i3().prop_map(|(rd, rs1, imm)| Instr::Addi { rd, rs1, imm }),
        i3().prop_map(|(rd, rs1, imm)| Instr::Xori { rd, rs1, imm }),
        (arb_reg(), arb_imm22()).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
        (
            arb_reg(),
            arb_reg(),
            arb_imm18(),
            prop_oneof![
                Just(MemWidth::Byte),
                Just(MemWidth::Half),
                Just(MemWidth::Word)
            ]
        )
            .prop_map(|(rd, base, offset, width)| Instr::Load {
                rd,
                base,
                offset,
                width,
                signed: width != MemWidth::Word
            }),
        (
            arb_reg(),
            arb_reg(),
            arb_imm18(),
            prop_oneof![
                Just(MemWidth::Byte),
                Just(MemWidth::Half),
                Just(MemWidth::Word)
            ]
        )
            .prop_map(|(src, base, offset, width)| Instr::Store {
                src,
                base,
                offset,
                width
            }),
        i3().prop_map(|(rs1, rs2, offset)| Instr::Beq { rs1, rs2, offset }),
        i3().prop_map(|(rs1, rs2, offset)| Instr::Bgeu { rs1, rs2, offset }),
        (arb_reg(), arb_imm22()).prop_map(|(rd, offset)| Instr::Jal { rd, offset }),
        (arb_reg(), arb_reg(), arb_imm18()).prop_map(|(rd, base, offset)| Instr::Jalr {
            rd,
            base,
            offset
        }),
        Just(Instr::Halt),
    ]
}

proptest! {
    /// Every instruction survives an encode/decode round trip.
    #[test]
    fn instr_encode_decode_round_trip(i in arb_instr()) {
        let decoded = Instr::decode(i.encode()).expect("valid encoding");
        prop_assert_eq!(decoded, i);
    }

    /// The cache agrees with a naive software LRU model on arbitrary
    /// access streams.
    #[test]
    fn cache_matches_naive_lru_model(accesses in proptest::collection::vec((0u32..0x4000, any::<bool>()), 1..400)) {
        let cfg = CacheConfig { size_bytes: 256, assoc: 2 };
        let mut cache = Cache::new(cfg);
        // Naive model: per set, a Vec of blocks in LRU order (front = LRU).
        let sets = cfg.num_sets();
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); sets as usize];
        for (addr, is_write) in accesses {
            let block = block_of(addr);
            let set = ((block / BLOCK_SIZE) % sets) as usize;
            let hit = cache.access(addr, is_write);
            let model_hit = model[set].contains(&block);
            prop_assert_eq!(hit, model_hit, "addr {:#x}", addr);
            if model_hit {
                model[set].retain(|b| *b != block);
                model[set].push(block);
            } else {
                cache.fill(addr, is_write);
                if model[set].len() == cfg.assoc as usize {
                    model[set].remove(0);
                }
                model[set].push(block);
            }
        }
    }

    /// The capacitor never exceeds its capacity, never goes negative,
    /// and voltage is monotone in stored energy.
    #[test]
    fn capacitor_invariants(ops in proptest::collection::vec((any::<bool>(), 0.0f64..500.0), 1..200)) {
        let cfg = CapacitorConfig::paper_default();
        let mut cap = Capacitor::full(cfg);
        let max_energy = cfg.energy_at_nj(cfg.v_max);
        for (harvest, amount) in ops {
            let before = cap.energy_nj();
            if harvest {
                cap.harvest_nj(amount);
                prop_assert!(cap.energy_nj() >= before - 1e-9);
            } else {
                cap.consume_nj(amount);
                prop_assert!(cap.energy_nj() <= before + 1e-9);
            }
            prop_assert!(cap.energy_nj() >= 0.0);
            prop_assert!(cap.energy_nj() <= max_energy + 1e-9);
            prop_assert!(cap.voltage() <= cfg.v_max + 1e-9);
        }
    }

    /// `consume_then_harvest` is bit-equal to `consume_nj` followed by
    /// `harvest_nj`. Each case crosses a random energy (plus empty and
    /// full) with draws that leave charge, empty it exactly or overdraw
    /// it, and harvests below, at, just above and far above the room
    /// left, under a random capacitance.
    #[test]
    fn consume_then_harvest_is_bit_equal_to_the_composition(
        uf in 0.05f64..50.0,
        frac in 0.0f64..1.0,
        draw_x in 0.0f64..2.0,
        harvest_x in 0.0f64..2.0,
    ) {
        let cfg = CapacitorConfig::with_capacitance_uf(uf);
        let max = cfg.energy_at_nj(cfg.v_max);
        for e in [frac * max, 0.0, max] {
            for draw in [draw_x * e, e, e.next_up(), draw_x * max, 0.0] {
                let room = max - (e - draw).max(0.0);
                for harvest in [harvest_x * room, room, room.next_up(), room.next_down().max(0.0), 0.0, 2.0 * max] {
                    let mut fast = Capacitor::with_energy_nj(cfg, e);
                    fast.consume_then_harvest(draw, harvest);
                    let mut slow = Capacitor::with_energy_nj(cfg, e);
                    slow.consume_nj(draw);
                    slow.harvest_nj(harvest);
                    prop_assert_eq!(
                        fast.energy_nj().to_bits(),
                        slow.energy_nj().to_bits(),
                        "e {:e} draw {:e} harvest {:e}", e, draw, harvest
                    );
                }
            }
        }
    }

    /// The cache's victim write-backs name exactly the dirty block a
    /// naive LRU model evicts, for several geometries down to a single
    /// set (pins the tag and set-index arithmetic that rebuilds a
    /// victim's address).
    #[test]
    fn cache_writebacks_name_the_evicted_dirty_block(
        geometry in 0usize..4,
        accesses in proptest::collection::vec((0u32..0x10000, any::<bool>()), 1..400),
    ) {
        let cfg = [
            CacheConfig { size_bytes: 256, assoc: 2 },
            CacheConfig { size_bytes: 2048, assoc: 4 },
            CacheConfig { size_bytes: 512, assoc: 1 },
            CacheConfig { size_bytes: 128, assoc: 8 },
        ][geometry];
        let mut cache = Cache::new(cfg);
        let sets = cfg.num_sets();
        // Per set, (block, dirty) in LRU order (front = LRU).
        let mut model: Vec<Vec<(u32, bool)>> = vec![Vec::new(); sets as usize];
        for (addr, is_write) in accesses {
            let block = block_of(addr);
            let set = &mut model[((block / BLOCK_SIZE) % sets) as usize];
            if cache.access(addr, is_write) {
                let pos = set.iter().position(|(b, _)| *b == block).expect("model hit");
                let (_, dirty) = set.remove(pos);
                set.push((block, dirty || is_write));
                continue;
            }
            let expected = if set.len() == cfg.assoc as usize {
                let (victim, dirty) = set.remove(0);
                dirty.then_some(victim)
            } else {
                None
            };
            prop_assert_eq!(cache.fill(addr, is_write).map(|w| w.block), expected);
            set.push((block, is_write));
        }
    }

    /// Prefetch-buffer occupancy is bounded and its statistics conserve:
    /// every inserted entry is eventually useful, evicted, lost, or
    /// still resident.
    #[test]
    fn prefetch_buffer_conservation(ops in proptest::collection::vec((0u8..4, 0u32..0x200), 1..300)) {
        let mut buf = PrefetchBuffer::new(4);
        for (op, val) in ops {
            let addr = val * 16;
            match op {
                0 | 1 => {
                    let _ = buf.insert(addr, u64::from(val));
                }
                2 => {
                    let _ = buf.lookup(addr, 0);
                }
                _ => {
                    let _ = buf.power_loss();
                }
            }
            prop_assert!(buf.len() <= buf.capacity());
            let s = buf.stats();
            prop_assert_eq!(s.inserted, s.useful + s.evicted_unused + s.lost_unused + buf.len() as u64);
        }
    }

    /// Power-trace text serialisation round-trips arbitrary sample sets.
    #[test]
    fn trace_text_round_trip(samples in proptest::collection::vec(0.0f64..100.0, 1..64)) {
        let t = PowerTrace::from_samples_mw(samples);
        let back = PowerTrace::from_text(&t.to_text()).expect("parses");
        prop_assert_eq!(back.len(), t.len());
        for i in 0..t.len() as u64 {
            prop_assert!((back.power_mw_at(i) - t.power_mw_at(i)).abs() < 1e-5);
        }
    }

    /// `power_loss` fully wipes every instruction prefetcher's volatile
    /// state: after a wipe, the candidate stream on any subsequent
    /// access sequence equals a fresh prefetcher's.
    #[test]
    fn inst_prefetcher_power_loss_wipes_all_state(
        warmup in proptest::collection::vec(arb_event(), 0..120),
        probe in proptest::collection::vec(arb_event(), 1..120),
        degree in 1u32..5,
    ) {
        for kind in [
            InstPrefetcherKind::None,
            InstPrefetcherKind::Sequential,
            InstPrefetcherKind::Markov,
            InstPrefetcherKind::Tifs,
        ] {
            assert_power_loss_wipes(&|| kind.build(degree), &warmup, &probe);
        }
    }

    /// Same property for every data prefetcher kind.
    #[test]
    fn data_prefetcher_power_loss_wipes_all_state(
        warmup in proptest::collection::vec(arb_event(), 0..120),
        probe in proptest::collection::vec(arb_event(), 1..120),
        degree in 1u32..5,
    ) {
        for kind in [
            DataPrefetcherKind::None,
            DataPrefetcherKind::Stride,
            DataPrefetcherKind::Ghb,
            DataPrefetcherKind::BestOffset,
            DataPrefetcherKind::Ampm,
        ] {
            assert_power_loss_wipes(&|| kind.build(degree), &warmup, &probe);
        }
    }

    /// Snapshot/resume is computation-neutral for *every* prefetcher
    /// kind × *every* throttling policy: running to a random cycle,
    /// serializing the complete machine state through JSON, resuming a
    /// fresh machine from it, and running on must land in the
    /// bit-identical full state (digest covers registers, memory,
    /// caches, prefetcher/throttle state, capacitor energy, statistics,
    /// energy totals and event counts) as the uninterrupted run. Random
    /// weak supplies make many snapshots land mid-outage (recharge
    /// phase); mid-backup pauses are pinned by a dedicated `ehs-sim`
    /// unit test.
    #[test]
    fn snapshot_resume_equivalence_across_prefetchers(
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
        split in 2_000u64..150_000,
        extra in 2_000u64..80_000,
        samples in proptest::collection::vec(0.5f64..40.0, 4..24),
    ) {
        use ehs_repro::ipex::{
            HysteresisConfig, PolicyConfig, PredictiveConfig, StaticDegreeConfig,
        };
        let w = ehs_repro::workloads::by_name("strings").unwrap();
        let program = w.program();
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
        // Small memory keeps per-case snapshot capture cheap.
        cfg.nvm.size_bytes = 1 << 21;
        let trace = PowerTrace::from_samples_mw(samples);
        let target = split + extra;

        let mut whole = Machine::with_trace(cfg.clone(), &program, trace.clone());
        whole.run_until(target).expect("whole run");

        let mut first = Machine::with_trace(cfg, &program, trace.clone());
        first.run_until(split).expect("first leg");
        let snap = Snapshot::from_json(&first.snapshot(&program).to_json())
            .expect("snapshot round-trips through JSON");
        let mut resumed = Machine::resume(&snap, &program, trace).expect("snapshot resumes");
        prop_assert_eq!(resumed.state_digest(&program), snap.digest());
        resumed.run_until(target).expect("resumed leg");
        prop_assert_eq!(
            resumed.state_digest(&program),
            whole.state_digest(&program),
            "split at {} diverged from the uninterrupted run", snap.cycle
        );
    }

    /// The IPEX degree ladder is monotone in voltage: a lower voltage
    /// never yields a higher prefetch degree.
    #[test]
    fn ipex_degree_monotone_in_voltage(mut voltages in proptest::collection::vec(3.0f64..3.6, 2..50)) {
        use ehs_repro::ipex::{IpexConfig, IpexController};
        // Feed a descending voltage ramp: degree must never increase.
        voltages.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let mut ctl = IpexController::new(IpexConfig::paper_default());
        let mut last = u32::MAX;
        for v in voltages {
            ctl.observe_voltage(v);
            let d = ctl.current_degree();
            prop_assert!(d <= last, "degree rose from {last} to {d} as voltage fell");
            last = d;
        }
    }

    /// A power failure wipes the hysteresis controller's volatile EWMA:
    /// after the failure/reboot pair its degree decisions on any voltage
    /// sequence equal a fresh controller's (the nonvolatile counters
    /// keep accumulating, per the policy's state rules).
    #[test]
    fn hysteresis_power_loss_wipes_ewma(
        warmup in proptest::collection::vec(2.5f64..3.6, 1..80),
        probe in proptest::collection::vec(2.5f64..3.6, 1..80),
    ) {
        use ehs_repro::ipex::{HysteresisConfig, HysteresisController, ThrottlePolicy};
        let cfg = HysteresisConfig::paper_default();
        let mut survivor = HysteresisController::new(cfg);
        for &v in &warmup {
            survivor.observe_voltage(v);
        }
        let cycles_before = survivor.stats().power_cycles;
        survivor.on_power_failure();
        survivor.on_reboot();
        let mut fresh = HysteresisController::new(cfg);
        for &v in &probe {
            survivor.observe_voltage(v);
            fresh.observe_voltage(v);
            prop_assert_eq!(
                survivor.current_degree(),
                fresh.current_degree(),
                "EWMA state survived the power failure"
            );
        }
        prop_assert_eq!(survivor.stats().power_cycles, cycles_before + 1);
    }

    /// A power failure wipes the predictive controller's volatile
    /// sampled history (previous level, context, sample counter) while
    /// its NVFF transition table records the outage and survives.
    #[test]
    fn predictive_power_loss_wipes_history_but_keeps_table(
        voltages in proptest::collection::vec(2.5f64..3.6, 129..600),
    ) {
        use ehs_repro::ipex::{PredictiveConfig, PredictiveController, ThrottlePolicy};
        use ehs_repro::mem::Persist;
        let mut ctl = PredictiveController::new(PredictiveConfig::paper_default());
        // >= 2 full sample periods of observations, so a context forms.
        for &v in &voltages {
            ctl.observe_voltage(v);
        }
        let before = Persist::export_state(&ctl);
        prop_assert!(before.context.is_some(), "warmup must establish a context");
        let table_before: u32 = before.table.iter().sum();
        ctl.on_power_failure();
        let after = Persist::export_state(&ctl);
        prop_assert_eq!(after.prev_level, None);
        prop_assert_eq!(after.context, None);
        prop_assert_eq!(after.obs_count, 0);
        let table_after: u32 = after.table.iter().sum();
        prop_assert!(
            table_after > 0 && table_after >= table_before,
            "the outage must be recorded in the surviving table \
             ({table_before} -> {table_after})"
        );
        prop_assert_eq!(after.adaptations, before.adaptations + 1);
    }
}
