//! End-to-end and per-layer benchmark of the EHS-IPEX simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite-cold|serve-monte|verify-ckpt> --seed N --seconds S \
//!     --trace <0|1> [--inject-fault]
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the same inputs untraced and then traced
//! (spans around every call into the repository's crates) and reports
//! the per-layer metrics and the tracing overhead. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; any failed check makes the exit code 1.
//! `--inject-fault` plants a restore fault in the machines the
//! correctness checks run, so a run that reports no failure with it
//! would show a check that cannot fire. See `perfbench/README.md`.

mod common;
mod probe;
mod serve;
mod span;
mod suite;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{host_probe_ms, median, rel_spread, Ctx, Report};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("points_per_s", "1/s"),
    ("batch_ms_p50", "ms"),
    ("batch_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_ipc", "instr/cycle"),
    ("sim_ipex_speedup", "x"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 53] = [
    ("energy.trace_synth_ms", "ms"),
    ("energy.traces_synthesized", "count"),
    ("workloads.program_ms", "ms"),
    ("workloads.programs_assembled", "count"),
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_instr", "ns"),
    ("sim.run_share", "fraction"),
    ("isa.instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.off_cycles", "count"),
    ("sim.power_cycles", "count"),
    ("sim.istall_frac", "fraction"),
    ("sim.dstall_frac", "fraction"),
    ("mem.icache_miss_rate", "fraction"),
    ("mem.dcache_miss_rate", "fraction"),
    ("mem.checkpoint_blocks", "count"),
    ("prefetch.i_issued", "count"),
    ("prefetch.d_issued", "count"),
    ("prefetch.i_accuracy", "fraction"),
    ("prefetch.d_accuracy", "fraction"),
    ("prefetch.late", "count"),
    ("ipex.throttled", "count"),
    ("ipex.saving_entries", "count"),
    ("nvm.demand_reads", "count"),
    ("nvm.prefetch_reads", "count"),
    ("nvm.writes", "count"),
    ("canon.json_ms", "ms"),
    ("canon.bytes", "bytes"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.resume_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.count", "count"),
    ("sweep.key_us", "us"),
    ("sweep.disk_hit_ms", "ms"),
    ("sweep.memo_hits", "count"),
    ("sweep.disk_hits", "count"),
    ("sweep.simulated", "count"),
    ("sweep.in_flight_waits", "count"),
    ("sweep.dedup_frac", "fraction"),
    ("service.ping_rtt_us", "us"),
    ("service.memo_point_ms", "ms"),
    ("service.frame_bytes_per_point", "bytes"),
    ("verify.golden_ms", "ms"),
    ("verify.check_ms", "ms"),
    ("verify.invariant_overhead_frac", "fraction"),
    ("verify.shrink_runs", "count"),
    ("verify.shrink_resumed", "count"),
    ("verify.cycles_skipped", "count"),
    ("trace.overhead_frac", "fraction"),
    ("host.probe_ms", "ms"),
];

const USAGE: &str = "usage: ehs-perfbench --workload <suite-cold|serve-monte|verify-ckpt> \
--seed N --seconds S --trace <0|1> [--inject-fault]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_fault: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: suite::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        inject_fault: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-fault" {
            args.inject_fault = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ehs-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let runner: fn(&Ctx, bool) -> Report = match args.workload.as_str() {
        "suite-cold" => suite::run,
        "serve-monte" => serve::run,
        "verify-ckpt" => verify::run,
        other => {
            eprintln!("ehs-perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("ehs-perfbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        inject_fault: args.inject_fault,
        work,
    };

    let probe_before = host_probe_ms();
    let mut rep = runner(&ctx, args.trace);
    let probe_after = host_probe_ms();
    let _ = std::fs::remove_dir_all(&ctx.work);

    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let table: &[(&str, &str)] = if args.trace {
        rep.metrics
            .insert("host.probe_ms", (probe_before + probe_after) / 2.0);
        &PER_LAYER
    } else {
        &END_TO_END
    };
    for (name, _) in table {
        match rep.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            got => rep
                .failures
                .push(format!("metric {name} not measured ({got:?})")),
        }
    }
    if let Some(spans) = &rep.spans {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => rep
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => rep.failures.push(format!("{}: {e}", path.display())),
        }
    }

    // Human-readable record, then the result line.
    let failed = rep.failures.len() as u64;
    let attempted = rep.attempted.max(failed).max(1);
    println!(
        "[perfbench] {} seed {} trace {}: host cpus {cpus}, probe {probe_before:.2} ms before / {probe_after:.2} ms after, {} repeats, repeat wall median {:.4} s, spread (IQR/median) {:.4}",
        args.workload,
        args.seed,
        args.trace as u8,
        rep.walls.len(),
        median(&rep.walls),
        rel_spread(&rep.walls)
    );
    for note in &rep.notes {
        println!("[perfbench] {note}");
    }
    let sig: Vec<String> = rep
        .signature
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("[perfbench] work signature: {}", sig.join(" "));
    for row in &rep.layer_table {
        println!("[perfbench]   {row}");
    }
    for (name, unit) in table {
        println!(
            "[perfbench] {name:<32} {:>16.6} {unit}",
            rep.metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    println!(
        "[perfbench] failed_frac {:.6} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    for f in rep.failures.iter().take(20) {
        println!("[perfbench] FAILED: {f}");
    }

    let metrics: Vec<String> = table
        .iter()
        .filter_map(|(name, unit)| {
            let v = rep.metrics.get(name).filter(|v| v.is_finite())?;
            Some(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
