//! The layer probe of a traced run, and the per-layer metric view.
//!
//! A workload exercises only some layers (suite-cold takes no snapshot,
//! verify-ckpt talks to no service). So that every per-layer cost is a
//! measured number on every workload, each traced run ends with one
//! fixed probe: a single small point pushed through every layer's public
//! entry points — trace synthesis, assembly, machine build and run,
//! canonical JSON, snapshot capture/encode/decode/resume, an on-disk
//! sweep hit, service round trips and oracle checks — with its spans in
//! a store of their own. A per-op time comes from the workload's own
//! spans when it has any and from the probe otherwise; work counts
//! always come from the workload alone. The probe's outputs are checked
//! like any other (resume equals the uninterrupted run, the disk hit
//! equals the simulation).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use ehs_bench::service::{Client, Outcome, Response, Server};
use ehs_bench::{SimPoint, Sweep, SweepOptions};
use ehs_energy::TraceSpec;
use ehs_sim::prelude::*;
use ehs_sim::{canon, Snapshot};
use ehs_verify::oracle::{check_program, golden_state};

use crate::common::{Metrics, Report};
use crate::span::{layers, span, Layer, Spans};

/// The probe's point: a short workload under the paper's default
/// configuration and RFHome trace.
const PROBE_WORKLOAD: &str = "strings";

/// Pings and key computations timed per probe (sub-millisecond calls
/// need several samples for a stable mean).
const FAST_REPEATS: u64 = 20;

/// Points in the probe's service batches.
const PROBE_BATCH: usize = 8;

/// Alternating check pairs (with and without the invariant sink) behind
/// `verify.invariant_overhead_frac`.
const CHECK_PAIRS: usize = 3;

/// Per-layer times of one traced run: the workload's own spans, with
/// the probe's as fallback for layers the workload did not exercise.
pub struct LayerView {
    pub own: BTreeMap<&'static str, Layer>,
    pub probe: BTreeMap<&'static str, Layer>,
}

impl LayerView {
    /// Aggregate for `name`: own spans if any, else the probe's.
    pub fn get(&self, name: &str) -> Layer {
        match self.own.get(name) {
            Some(l) if l.count > 0 => *l,
            _ => self.probe.get(name).copied().unwrap_or_default(),
        }
    }

    /// Mean self time of `name`, milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.get(name).mean_self_ms()
    }

    /// Fills the per-op time metrics every workload reports the same way.
    pub fn time_metrics(&self, m: &mut Metrics) {
        for (metric, span) in [
            ("energy.trace_synth_ms", "energy.trace_synth"),
            ("workloads.program_ms", "workloads.program"),
            ("sim.build_ms", "sim.build"),
            ("sim.run_ms", "sim.run"),
            ("canon.json_ms", "canon.json"),
            ("snapshot.capture_ms", "snapshot.capture"),
            ("snapshot.encode_ms", "snapshot.encode"),
            ("snapshot.decode_ms", "snapshot.decode"),
            ("snapshot.resume_ms", "snapshot.resume"),
            ("sweep.disk_hit_ms", "sweep.disk_hit"),
            ("verify.golden_ms", "verify.golden"),
            ("verify.check_ms", "verify.check"),
        ] {
            m.insert(metric, self.ms(span));
        }
        m.insert("sweep.key_us", self.ms("sweep.key") * 1e3);
        m.insert("service.ping_rtt_us", self.ms("service.ping") * 1e3);
        m.insert(
            "service.memo_point_ms",
            self.ms("service.memo_batch") / PROBE_BATCH as f64,
        );
        // Checked with the invariant sink vs without, on the same input.
        let (inv, plain) = (
            self.probe.get("verify.check").copied().unwrap_or_default(),
            self.probe
                .get("verify.check_plain")
                .copied()
                .unwrap_or_default(),
        );
        m.insert(
            "verify.invariant_overhead_frac",
            inv.mean_self_ms() / plain.mean_self_ms() - 1.0,
        );
    }
}

/// What the probe measured.
pub struct Probe {
    /// The probe's spans folded per name.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Mean size of a service `Point` frame, bytes (length prefix included).
    pub frame_bytes: f64,
    /// Instructions retired by the probe's timed `sim.run`.
    pub instructions: u64,
}

impl Probe {
    /// Host nanoseconds per retired instruction of the probe's run.
    pub fn ns_per_instr(&self) -> f64 {
        self.layers.get("sim.run").map_or(0, |l| l.self_ns) as f64 / self.instructions.max(1) as f64
    }
}

/// Runs the probe, recording into a fresh span store.
pub fn run(work: &Path, rep: &mut Report) -> Probe {
    let spans = Spans::new();
    let tr = Some(&spans);
    let w = ehs_workloads::by_name(PROBE_WORKLOAD).expect("probe workload exists");
    let spec = TraceSpec::default_rfhome();
    let cfg = SimConfig::builder().build();
    let point = SimPoint::new(w.name(), cfg.clone(), spec.clone());

    let trace = span(tr, "energy.trace_synth", 0, 0, |_| spec.synthesize());
    let program = span(tr, "workloads.program", 0, 0, |_| w.program());
    for _ in 0..FAST_REPEATS {
        span(tr, "sweep.key", 0, 0, |_| point.key());
    }
    let mut m = span(tr, "sim.build", 0, 0, |_| {
        Machine::with_trace(cfg.clone(), &program, trace.clone())
    });
    let whole = span(tr, "sim.run", 0, 0, |_| m.run());
    let Ok(whole) = whole else {
        rep.check(Some(format!("probe: {PROBE_WORKLOAD} failed: {whole:?}")));
        return Probe {
            layers: layers(&spans.records()),
            frame_bytes: 0.0,
            instructions: 0,
        };
    };
    span(tr, "canon.json", 0, 0, |_| canon::canonical_json(&whole));

    // Snapshot layer: pause halfway, capture, encode, decode, resume.
    let mut m = Machine::with_trace(cfg.clone(), &program, trace.clone());
    let half = whole.stats.total_cycles / 2;
    let paused = matches!(m.run_until(half), Ok(RunStatus::Paused));
    let snap = span(tr, "snapshot.capture", 0, 0, |_| m.snapshot(&program));
    let text = span(tr, "snapshot.encode", 0, 0, |_| snap.to_json());
    let decoded = span(tr, "snapshot.decode", 0, 0, |_| Snapshot::from_json(&text));
    let resumed = decoded.map_err(|e| format!("{e:?}")).and_then(|s| {
        span(tr, "snapshot.resume", 0, 0, |_| {
            Machine::resume(&s, &program, trace.clone()).map_err(|e| format!("{e:?}"))
        })
    });
    rep.check(match resumed.map(|mut m| m.run()) {
        Ok(Ok(r)) if paused && r == whole => None,
        other => Some(format!(
            "probe: snapshot resume did not reproduce the run ({:?})",
            other.map(|r| r.is_ok())
        )),
    });

    // Sweep disk hit: one engine stores the point, a fresh one loads it.
    let cache = work.join("probe-cache");
    let disk = || {
        Sweep::new(SweepOptions {
            jobs: Some(1),
            disk_cache: Some(cache.clone()),
            ..SweepOptions::default()
        })
    };
    let stored = disk().get(&point);
    let fresh = disk();
    let hit = span(tr, "sweep.disk_hit", 0, 0, |_| fresh.get(&point));
    rep.check(
        (stored.as_ref() != Ok(&whole) || hit != stored || fresh.stats().disk_hits != 1)
            .then(|| "probe: on-disk sweep hit differs from the simulation".to_owned()),
    );

    // Service: pings, then an all-memo batch on a server over the cache.
    let frame_bytes = service_probe(tr, work, Arc::new(disk()), &point, &whole, rep);

    // Oracle: golden run, then the check with and without the sink.
    let mem = cfg.nvm.size_bytes as usize;
    let golden = span(tr, "verify.golden", 0, 0, |_| golden_state(&program, mem));
    for i in 0..CHECK_PAIRS * 2 {
        let (name, sink) = [("verify.check", true), ("verify.check_plain", false)][i % 2];
        let outcome = span(tr, name, 0, 0, |_| {
            check_program(&program, &golden, &cfg, &trace, None, sink)
        });
        rep.check((!outcome.is_match()).then(|| format!("probe: {name}: {outcome:?}")));
    }
    Probe {
        layers: layers(&spans.records()),
        frame_bytes,
        instructions: whole.stats.instructions,
    }
}

/// Pings a probe server and sends the same batch twice (the second is
/// all memo hits); returns the mean `Point` frame size in bytes.
fn service_probe(
    tr: Option<&Spans>,
    work: &Path,
    sweep: Arc<Sweep>,
    point: &SimPoint,
    want: &SimResult,
    rep: &mut Report,
) -> f64 {
    let sock = work.join("probe.sock");
    let server = match Server::spawn(&sock, sweep) {
        Ok(s) => s,
        Err(e) => {
            rep.check(Some(format!("probe: server spawn: {e}")));
            return 0.0;
        }
    };
    let mut bytes = 0.0;
    let outcome = Client::connect_retry(&sock, Duration::from_secs(10)).and_then(|mut c| {
        // The first answer waits for the accept loop's poll; time the
        // round trips of an accepted connection.
        c.ping()?;
        for _ in 0..FAST_REPEATS {
            span(tr, "service.ping", 0, 0, |_| c.ping())?;
        }
        let batch = vec![point.clone(); PROBE_BATCH];
        c.batch(&batch)?;
        let reply = span(tr, "service.memo_batch", 0, 0, |_| c.batch(&batch))?;
        for (i, o) in reply.outcomes.iter().enumerate() {
            let frame = Response::Point {
                index: i as u64,
                outcome: o.clone(),
            };
            bytes += serde_json::to_string(&frame).map_or(0, |s| s.len() + 4) as f64;
            if !matches!(o, Outcome::Ok { result } if result == want) {
                return Err(std::io::Error::other("service returned a different result"));
            }
        }
        c.shutdown()
    });
    if outcome.is_err() {
        server.trigger_shutdown();
    }
    server.join();
    rep.check(outcome.err().map(|e| format!("probe: service: {e}")));
    bytes / PROBE_BATCH as f64
}
