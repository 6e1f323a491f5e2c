//! Integration tests for the sweep service: concurrent clients with
//! overlapping seed batches must get byte-identical results while every
//! unique point is simulated exactly once, and shutdown must be clean.

#![cfg(unix)]

use std::sync::Arc;
use std::time::Duration;

use ehs_bench::service::{Client, Server};
use ehs_bench::sweep::Sweep;
use ehs_energy::{TraceKind, TraceSpec};
use ehs_sim::prelude::*;

fn test_socket(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ehs-serve-{tag}-{}.sock", std::process::id()))
}

/// A small, fast trace environment: the seed sweep varies its seed.
fn small_trace() -> TraceSpec {
    TraceSpec::Synthetic {
        kind: TraceKind::RfHome,
        seed: 0,
        samples: 4_000,
    }
}

#[test]
fn overlapping_clients_simulate_each_point_once() {
    const CLIENTS: usize = 4;
    const SEEDS: u64 = 6;

    let path = test_socket("overlap");
    let sweep = Arc::new(Sweep::in_memory());
    let server = Server::spawn(&path, Arc::clone(&sweep)).unwrap();

    // Every client asks for the same seed window, concurrently. The
    // batches overlap completely, so the engine's in-flight dedup is
    // what keeps the simulation count at one per unique point.
    let mut renders: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let path = &path;
                scope.spawn(move || {
                    let mut client = Client::connect_retry(path, Duration::from_secs(10)).unwrap();
                    let reply = client
                        .seed_sweep(
                            "gsmd",
                            SimConfig::builder().build(),
                            small_trace(),
                            1000,
                            SEEDS,
                        )
                        .unwrap();
                    serde_json::to_string(&reply.results()).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All clients saw byte-identical result streams (after index
    // reordering, which the client does for us).
    let first = renders.pop().unwrap();
    for other in &renders {
        assert_eq!(&first, other, "clients must agree byte-for-byte");
    }

    // Counter-asserted exactly-once: SEEDS unique points total, no
    // matter how many clients raced.
    let mut client = Client::connect_retry(&path, Duration::from_secs(10)).unwrap();
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.simulated, SEEDS, "{stats:?}");
    assert_eq!(
        stats.requested,
        SEEDS * CLIENTS as u64,
        "every client's points must be accounted ({stats:?})"
    );

    client.shutdown().unwrap();
    server.join();
    assert!(!path.exists(), "socket must be cleaned up");
}

#[test]
fn distinct_batches_share_the_memo_across_connections() {
    let path = test_socket("memo");
    let sweep = Arc::new(Sweep::in_memory());
    let server = Server::spawn(&path, Arc::clone(&sweep)).unwrap();

    // First client simulates seeds 2000..2004; a second, later client
    // overlapping half the window must hit the memo for the shared half.
    let cfg = SimConfig::builder().build();
    let mut a = Client::connect_retry(&path, Duration::from_secs(10)).unwrap();
    let ra = a
        .seed_sweep("gsmd", cfg.clone(), small_trace(), 2000, 4)
        .unwrap();
    assert_eq!(ra.stats.simulated, 4);

    let mut b = Client::connect_retry(&path, Duration::from_secs(10)).unwrap();
    let rb = b.seed_sweep("gsmd", cfg, small_trace(), 2002, 4).unwrap();
    assert_eq!(rb.stats.simulated, 6, "only the two new seeds simulate");

    // The overlapping seeds resolve to identical bytes on both clients.
    let a_overlap = serde_json::to_string(&ra.results()[2..]).unwrap();
    let b_overlap = serde_json::to_string(&rb.results()[..2]).unwrap();
    assert_eq!(a_overlap, b_overlap);

    b.shutdown().unwrap();
    server.join();
}

#[test]
fn unknown_workloads_are_rejected_before_any_work() {
    let path = test_socket("reject");
    let sweep = Arc::new(Sweep::in_memory());
    let server = Server::spawn(&path, Arc::clone(&sweep)).unwrap();

    let mut client = Client::connect_retry(&path, Duration::from_secs(10)).unwrap();
    let err = client
        .seed_sweep(
            "no-such-workload",
            SimConfig::builder().build(),
            small_trace(),
            0,
            2,
        )
        .unwrap_err();
    assert!(err.to_string().contains("unknown workload"), "{err}");

    // The connection stays usable and nothing was simulated.
    client.ping().unwrap();
    assert_eq!(client.server_stats().unwrap().simulated, 0);

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn deeply_nested_frames_get_an_error_and_the_server_stays_up() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let path = test_socket("nested");
    let sweep = Arc::new(Sweep::in_memory());
    let server = Server::spawn(&path, Arc::clone(&sweep)).unwrap();
    Client::connect_retry(&path, Duration::from_secs(10))
        .unwrap()
        .ping()
        .unwrap();

    // 100,000 nested arrays: far below the frame-size limit, far beyond
    // any stack a recursive parser could spend on them.
    let frame = "[".repeat(100_000);
    let mut raw = UnixStream::connect(&path).unwrap();
    raw.write_all(&(frame.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(frame.as_bytes()).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).unwrap();
    let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut reply).unwrap();
    let reply = String::from_utf8(reply).unwrap();
    assert!(reply.contains("malformed request"), "{reply}");
    assert!(reply.contains("recursion limit"), "{reply}");
    drop(raw);

    // The next client is served as usual.
    let mut client = Client::connect_retry(&path, Duration::from_secs(10)).unwrap();
    client.ping().unwrap();
    assert_eq!(client.server_stats().unwrap().simulated, 0);
    client.shutdown().unwrap();
    server.join();
}
