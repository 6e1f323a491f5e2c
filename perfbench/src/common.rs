//! Shared pieces of the three workloads: run context, the report every
//! workload returns, exact work tallies, statistics and host context.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ehs_isa::Reg;
use ehs_sim::{FaultPlan, SimResult};

/// The planted consistency bug: `sp` is not restored after an outage.
/// verify-ckpt's shrinks always run under it; `--inject-fault` plants it
/// in the machines the correctness checks run.
pub const RESTORE_FAULT: FaultPlan = FaultPlan {
    skip_restore_reg: Some(Reg::Sp),
};

/// What one benchmark invocation was asked to do.
pub struct Ctx {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement budget for the timed loop, seconds.
    pub seconds: f64,
    /// Plant [`RESTORE_FAULT`] in every machine the correctness checks
    /// run (proves the checks fire; the run must then fail).
    pub inject_fault: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

/// One metric value: name, value, unit.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Everything a workload hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (points resolved, checks made).
    pub attempted: u64,
    /// Human-readable description of each failed operation.
    pub failures: Vec<String>,
    /// Metric values by name (the unit comes from the metric table).
    pub metrics: Metrics,
    /// Context lines printed before the result (sample counts, paper gap).
    pub notes: Vec<String>,
    /// Exact work counts of one repeat (the deterministic signature).
    pub signature: Signature,
    /// Per-repeat wall times of the timed loop, seconds.
    pub walls: Vec<f64>,
    /// Traced-run span table, when the run was traced.
    pub layer_table: Vec<String>,
    /// The traced run's spans, written out when the benchmark ends.
    pub spans: Option<crate::span::Spans>,
}

impl Report {
    /// Records one operation and, when `err` is set, its failure.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failures.push(e);
        }
    }
}

/// Exact work counts of one repeat. Host time never enters it, so two
/// repeats of the same inputs — traced or not — must produce equal
/// signatures; a mismatch is a failed operation.
pub type Signature = BTreeMap<&'static str, u64>;

/// Compares `got` with `want`; on mismatch returns a description of the
/// first differing count.
pub fn signature_diff(what: &str, want: &Signature, got: &Signature) -> Option<String> {
    if want == got {
        return None;
    }
    let keys: std::collections::BTreeSet<_> = want.keys().chain(got.keys()).collect();
    for k in keys {
        if want.get(k) != got.get(k) {
            return Some(format!(
                "{what}: work signature differs at {k}: {:?} vs {:?}",
                want.get(k),
                got.get(k)
            ));
        }
    }
    None
}

/// FNV-1a 64 offset basis; chained digests start here.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes`, continuing from `h` (the chaining form the
/// repository's `core_bench` digest uses).
pub fn fnv_chain(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Exact counters summed over a set of simulation results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub points: u64,
    pub instructions: u64,
    pub cycles: u64,
    pub on_cycles: u64,
    pub off_cycles: u64,
    pub power_cycles: u64,
    pub istall: u64,
    pub dstall: u64,
    pub i_accesses: u64,
    pub i_misses: u64,
    pub d_accesses: u64,
    pub d_misses: u64,
    pub checkpoint_blocks: u64,
    pub i_inserted: u64,
    pub i_useful: u64,
    pub i_useless: u64,
    pub d_inserted: u64,
    pub d_useful: u64,
    pub d_useless: u64,
    pub late: u64,
    pub throttled: u64,
    pub saving_entries: u64,
    pub nvm_demand: u64,
    pub nvm_prefetch: u64,
    pub nvm_writes: u64,
}

impl Tally {
    /// Adds one result's counters.
    pub fn add(&mut self, r: &SimResult) {
        let s = &r.stats;
        self.points += 1;
        self.instructions += s.instructions;
        self.cycles += s.total_cycles;
        self.on_cycles += s.on_cycles;
        self.off_cycles += s.off_cycles;
        self.power_cycles += s.power_cycles;
        self.istall += s.istall_cycles;
        self.dstall += s.dstall_cycles;
        self.i_accesses += r.icache.accesses;
        self.i_misses += r.icache.misses;
        self.d_accesses += r.dcache.accesses;
        self.d_misses += r.dcache.misses;
        self.checkpoint_blocks += s.checkpoint_blocks;
        self.i_inserted += r.ibuf.inserted;
        self.i_useful += r.ibuf.useful;
        self.i_useless += r.ibuf.useless();
        self.d_inserted += r.dbuf.inserted;
        self.d_useful += r.dbuf.useful;
        self.d_useless += r.dbuf.useless();
        // A useful prefetch that was still in flight when demanded: the
        // machine's `late-prefetch` event, counted without tracing.
        self.late += r.ibuf.duplicate_suppressed + r.dbuf.duplicate_suppressed;
        for ipex in [&r.ipex_i, &r.ipex_d].into_iter().flatten() {
            self.throttled += ipex.throttled;
            self.saving_entries += ipex.saving_mode_entries;
        }
        self.nvm_demand += r.nvm.demand_reads;
        self.nvm_prefetch += r.nvm.prefetch_reads;
        self.nvm_writes += r.nvm.writes;
    }

    /// Adds the tallies into a signature under `sim.*` names.
    pub fn sign(&self, sig: &mut Signature) {
        for (k, v) in [
            ("sim.points", self.points),
            ("sim.instructions", self.instructions),
            ("sim.cycles", self.cycles),
            ("sim.off_cycles", self.off_cycles),
            ("sim.power_cycles", self.power_cycles),
            ("sim.istall", self.istall),
            ("sim.dstall", self.dstall),
            ("mem.i_misses", self.i_misses),
            ("mem.d_misses", self.d_misses),
            ("mem.checkpoint_blocks", self.checkpoint_blocks),
            ("prefetch.i_inserted", self.i_inserted),
            ("prefetch.d_inserted", self.d_inserted),
            ("prefetch.late", self.late),
            ("ipex.throttled", self.throttled),
            ("nvm.writes", self.nvm_writes),
        ] {
            sig.insert(k, v);
        }
    }

    /// The machine-level per-layer metrics (exact counts and ratios).
    pub fn layer_metrics(&self, m: &mut Metrics) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let accuracy = |useful: u64, useless: u64| {
            if useful + useless == 0 {
                1.0
            } else {
                useful as f64 / (useful + useless) as f64
            }
        };
        m.insert("isa.instructions", self.instructions as f64);
        m.insert("sim.cycles", self.cycles as f64);
        m.insert("sim.off_cycles", self.off_cycles as f64);
        m.insert("sim.power_cycles", self.power_cycles as f64);
        m.insert("sim.istall_frac", ratio(self.istall, self.on_cycles));
        m.insert("sim.dstall_frac", ratio(self.dstall, self.on_cycles));
        m.insert(
            "mem.icache_miss_rate",
            ratio(self.i_misses, self.i_accesses),
        );
        m.insert(
            "mem.dcache_miss_rate",
            ratio(self.d_misses, self.d_accesses),
        );
        m.insert("mem.checkpoint_blocks", self.checkpoint_blocks as f64);
        m.insert("prefetch.i_issued", self.i_inserted as f64);
        m.insert("prefetch.d_issued", self.d_inserted as f64);
        m.insert(
            "prefetch.i_accuracy",
            accuracy(self.i_useful, self.i_useless),
        );
        m.insert(
            "prefetch.d_accuracy",
            accuracy(self.d_useful, self.d_useless),
        );
        m.insert("prefetch.late", self.late as f64);
        m.insert("ipex.throttled", self.throttled as f64);
        m.insert("ipex.saving_entries", self.saving_entries as f64);
        m.insert("nvm.demand_reads", self.nvm_demand as f64);
        m.insert("nvm.prefetch_reads", self.nvm_prefetch as f64);
        m.insert("nvm.writes", self.nvm_writes as f64);
    }
}

/// Modelled instructions per simulated cycle (off time included) of one
/// result.
pub fn ipc(r: &SimResult) -> f64 {
    r.stats.instructions as f64 / r.stats.total_cycles as f64
}

/// Geometric mean; `None` for an empty set.
pub fn gmean(values: &[f64]) -> Option<f64> {
    (!values.is_empty())
        .then(|| (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `(0, 1]`; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Interquartile range over median: the spread reported with a set of
/// repeats (0 for fewer than two values).
pub fn rel_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    (percentile(values, 0.75) - percentile(values, 0.25)) / median(values)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-ups per run at least; `setup_s` is the median of all of them (a
/// set-up takes tens of milliseconds, so a single one is at the mercy
/// of scheduling).
const SETUP_REPEATS: usize = 9;

/// A workload's set-up, timed several times over a run. The first
/// set-up runs before the timed loop and its result is the one used;
/// [`measure`] runs another between consecutive repeats, so the samples
/// span the run instead of one moment of it; [`Setup::median_s`] tops
/// them up to [`SETUP_REPEATS`] and returns their median.
pub struct Setup<F> {
    f: F,
    times: Vec<f64>,
}

impl<R, F: FnMut() -> R> Setup<F> {
    /// Runs and times the first set-up.
    pub fn first(mut f: F) -> (Setup<F>, R) {
        let t = Instant::now();
        let r = f();
        let times = vec![t.elapsed().as_secs_f64()];
        (Setup { f, times }, r)
    }

    /// Runs and times one more set-up, discarding its result.
    pub fn again(&mut self) {
        let t = Instant::now();
        std::hint::black_box((self.f)());
        self.times.push(t.elapsed().as_secs_f64());
    }

    /// Median set-up time in seconds.
    pub fn median_s(mut self) -> f64 {
        while self.times.len() < SETUP_REPEATS {
            self.again();
        }
        median(&self.times)
    }
}

/// The timed loop: repeats `plain` until `seconds` have elapsed (at
/// least once). When `traced`, each step runs one `plain` and one
/// `with_spans` repeat of the same inputs, alternating which goes first,
/// so host drift during the run falls on both sides alike. Each closure
/// gets its repeat's index; `between` runs between consecutive steps
/// (the set-up samples, see [`Setup`]).
///
/// Also returns the peak resident set size (MiB) after the first step:
/// the memory set-up and one repeat need. Later repeats of serve-monte's
/// in-process server restarts raise it only by allocator fragmentation,
/// by a different amount in each run (191 MiB after the first round,
/// 240-285 MiB after the eighth).
pub fn measure<A, B>(
    seconds: f64,
    traced: bool,
    mut plain: impl FnMut(usize) -> A,
    mut with_spans: impl FnMut(usize) -> B,
    mut between: impl FnMut(),
) -> (Vec<A>, Vec<B>, f64) {
    let t = Instant::now();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut rss = f64::NAN;
    while a.is_empty() || t.elapsed().as_secs_f64() < seconds {
        let i = a.len();
        if i > 0 {
            between();
        }
        if traced && i % 2 == 1 {
            b.push(with_spans(i));
        }
        a.push(plain(i));
        if traced && i % 2 == 0 {
            b.push(with_spans(i));
        }
        if i == 0 {
            rss = peak_rss_mb();
        }
    }
    (a, b, rss)
}

/// Peak resident set size of this process so far (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fixed pure-Rust loop, independent of the simulator, timed in ms.
/// Run before and after the measurement so slow-host phases show in the
/// record; it never rescales a metric.
pub fn host_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
    std::hint::black_box(x);
    ms_since(t)
}

/// Milliseconds to seconds, element by element.
pub fn in_seconds(ms: &[Vec<f64>]) -> Vec<Vec<f64>> {
    ms.iter()
        .map(|r| r.iter().map(|v| v / 1e3).collect())
        .collect()
}

/// The quantile of a unit's times over the run's repeats at which host
/// time is read (see [`unit_times`]).
const HOST_QUANTILE: f64 = 0.9;

/// Linearly interpolated quantile `q` in `[0, 1]`; NaN when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let x = q * (v.len() - 1) as f64;
    let (i, f) = (x.floor() as usize, x.fract());
    match v.get(i + 1) {
        Some(next) => v[i] + f * (next - v[i]),
        None => v[i],
    }
}

/// Host time of each unit of work over a run's repeats: `units[r][u]` is
/// unit `u`'s time in repeat `r`, and every repeat runs the same units
/// (suite-cold's batches, serve-monte's phases and batch positions,
/// verify-ckpt's tasks). A unit's time is its [`HOST_QUANTILE`] over the
/// repeats: the slow side.
///
/// Why the slow side: on a shared host the simulator alternates, within
/// a run and from run to run, between stretches at full speed and
/// stretches slowed up to 1.7x by a neighbour's load. The slowed speed
/// is the same whenever it occurs, and runs of half a minute nearly
/// always meet it; the full speed, and the mix of the two, vary from run
/// to run. Measured spreads of each reading are in `perfbench/README.md`.
pub fn unit_times(units: &[Vec<f64>]) -> Vec<f64> {
    let n = units.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|u| {
            let times: Vec<f64> = units.iter().map(|r| r[u]).collect();
            quantile(&times, HOST_QUANTILE)
        })
        .collect()
}

/// Fills the end-to-end metrics every workload derives the same way
/// from its repeats: `unit_s[r]` the times (s) of repeat `r`'s units,
/// which together make the whole repeat; per-repeat simulated
/// instructions and cycles; points completed per repeat; and
/// `batch_ms[r]` repeat `r`'s batch latencies (ms), position by
/// position. `wall_s` is the sum of the [`unit_times`] and the rates
/// divide one repeat's work by it; the batch percentiles are taken over
/// the positions' [`unit_times`].
pub fn e2e_metrics(
    m: &mut Metrics,
    unit_s: &[Vec<f64>],
    instructions: u64,
    cycles: u64,
    points: u64,
    batch_ms: &[Vec<f64>],
) {
    let wall: f64 = unit_times(unit_s).iter().sum();
    m.insert("wall_s", wall);
    m.insert("sim_minstr_per_s", instructions as f64 / wall / 1e6);
    m.insert("sim_mcycles_per_s", cycles as f64 / wall / 1e6);
    m.insert("points_per_s", points as f64 / wall);
    let batches = unit_times(batch_ms);
    m.insert("batch_ms_p50", percentile(&batches, 0.5));
    m.insert("batch_ms_p90", percentile(&batches, 0.9));
}

/// The paper's headline: IPEX (I+D) gmean speedup over the baseline, %.
pub const PAPER_SPEEDUP_PCT: f64 = 8.96;

/// Context line for a modelled speedup ratio: percent and gap to paper.
pub fn speedup_note(label: &str, ratio: f64, n: usize) -> String {
    let pct = (ratio - 1.0) * 100.0;
    format!(
        "{label}: IPEX(I+D) gmean speedup {pct:+.3}% over {n} pairs (paper {PAPER_SPEEDUP_PCT:+.2}%, gap {:+.3} pp)",
        pct - PAPER_SPEEDUP_PCT
    )
}
