//! `ehs-serve` — the long-running sweep daemon.
//!
//! ```text
//! cargo run --release -p ehs-bench --bin ehs-serve -- [flags]
//!
//!   --socket PATH            Unix socket to listen on
//!                            (default results/ehs-serve.sock)
//!   --results DIR            results directory owning the cache
//!                            (default results)
//!   --no-cache               don't read or write <results>/.cache
//!   --jobs N                 worker-pool width (default: EHS_SWEEP_JOBS
//!                            env var if set, else available parallelism)
//!   --checkpoint-every N     crash-checkpoint in-flight simulations every
//!                            N simulated cycles (default 250000000;
//!                            0 disables)
//! ```
//!
//! The daemon owns one [`Sweep`] engine (and therefore the on-disk
//! cache) and serves batched simulation requests from any number of
//! concurrent clients over the socket; see `ehs_bench::service` for the
//! protocol. It runs until a client sends `Shutdown` (or the process is
//! killed — in-flight points then resume from their crash checkpoints
//! on the next start).

#[cfg(unix)]
fn main() {
    use std::path::PathBuf;
    use std::sync::Arc;

    use ehs_bench::service::Server;
    use ehs_bench::sweep::{CheckpointPolicy, Sweep, SweepOptions};

    fn usage() -> ! {
        eprintln!(
            "usage: ehs-serve [--socket PATH] [--results DIR] [--no-cache] \
             [--jobs N] [--checkpoint-every N]"
        );
        std::process::exit(2);
    }

    let mut socket: Option<PathBuf> = None;
    let mut results_dir = PathBuf::from("results");
    let mut use_cache = true;
    let mut jobs: Option<usize> = None;
    let mut checkpoint_every: u64 = 250_000_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--results" => results_dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--no-cache" => use_cache = false,
            "--jobs" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => usage(),
            },
            "--checkpoint-every" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => checkpoint_every = n,
                None => usage(),
            },
            _ => usage(),
        }
    }
    let socket = socket.unwrap_or_else(|| results_dir.join("ehs-serve.sock"));

    let sweep = Arc::new(Sweep::new(SweepOptions {
        jobs,
        disk_cache: use_cache.then(|| Sweep::default_cache_dir(&results_dir)),
        checkpoints: (checkpoint_every > 0).then(|| CheckpointPolicy {
            dir: Sweep::default_cache_dir(&results_dir),
            every_cycles: checkpoint_every,
        }),
    }));

    let server = Server::spawn(&socket, Arc::clone(&sweep)).unwrap_or_else(|e| {
        eprintln!("ehs-serve: cannot bind {}: {e}", socket.display());
        std::process::exit(1);
    });
    println!(
        "[ehs-serve] listening on {} ({} worker(s), cache {})",
        socket.display(),
        sweep.jobs(),
        if use_cache { "on" } else { "off" }
    );
    server.join();
    let stats = sweep.stats();
    println!(
        "[ehs-serve] shut down: {} requested, {} simulated, {} disk hits, {} memo hits",
        stats.requested, stats.simulated, stats.disk_hits, stats.memo_hits
    );
}

#[cfg(not(unix))]
fn main() {
    eprintln!("ehs-serve requires a Unix-domain-socket platform");
    std::process::exit(1);
}
