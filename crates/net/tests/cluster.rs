//! End-to-end tests for the TCP cluster runtime: closure equivalence
//! (TCP mesh ≡ channel transport ≡ serial) across generators and cluster
//! sizes, the bootstrap handshake's rejection paths, and mid-run
//! worker-loss recovery over real sockets.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_core::{
    read_crc_frame, run_parallel, run_serial, CommMode, FaultKind, FaultPlan, ParallelConfig,
    PartitioningStrategy, RunReport,
};
use owlpar_datagen::{generate_lubm, generate_mdc, LubmConfig, MdcConfig};
use owlpar_datalog::MaterializationStrategy;
use owlpar_net::protocol::{decode_master_msg, encode_worker_msg, MasterMsg, WorkerMsg};
use owlpar_net::{
    run_cluster_master, run_cluster_worker, MasterOptions, NetError, TcpFabricFactory,
    WorkerOptions, WorkerSummary, PROTOCOL_VERSION, WIRE_MAGIC,
};
use owlpar_rdf::Graph;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn serial_closure(mut g: Graph) -> (u64, usize) {
    run_serial(&mut g, MaterializationStrategy::ForwardSemiNaive);
    (g.term_fingerprint(), g.len())
}

fn forward_cfg(k: usize, strategy: PartitioningStrategy) -> ParallelConfig {
    ParallelConfig {
        k,
        strategy,
        ..ParallelConfig::default()
    }
    .forward()
}

/// Run a whole cluster inside this process: the master on the calling
/// thread with a bound listener, `k` workers on their own threads dialing
/// it over real loopback TCP — the same code paths the multi-process
/// binary exercises, minus `fork`.
fn run_cluster(
    g0: &Graph,
    cfg: &ParallelConfig,
) -> (
    Result<RunReport, NetError>,
    Graph,
    Vec<Result<WorkerSummary, NetError>>,
) {
    run_cluster_opts(g0, cfg, &MasterOptions::default(), &WorkerOptions::default())
}

fn run_cluster_opts(
    g0: &Graph,
    cfg: &ParallelConfig,
    master_opts: &MasterOptions,
    worker_opts: &WorkerOptions,
) -> (
    Result<RunReport, NetError>,
    Graph,
    Vec<Result<WorkerSummary, NetError>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = g0.clone();
    let mut worker_results = Vec::new();
    let report = thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.k)
            .map(|_| {
                let opts = worker_opts.clone();
                s.spawn(move || run_cluster_worker(addr, &opts))
            })
            .collect();
        let report = run_cluster_master(&mut g, cfg, listener, master_opts);
        for w in workers {
            worker_results.push(w.join().unwrap());
        }
        report
    });
    (report, g, worker_results)
}

/// The N-seed property: for every seed KB and every cluster size, the
/// closure computed through the in-process channel transport and through
/// the loopback TCP mesh both equal the serial closure, term for term.
#[test]
fn closure_equivalence_across_transports_and_seeds() {
    let seeds: Vec<(&str, Graph)> = vec![
        ("lubm-1", generate_lubm(&LubmConfig::mini(1))),
        ("lubm-2", generate_lubm(&LubmConfig::mini(2))),
        ("mdc", generate_mdc(&MdcConfig::mini())),
    ];
    for (name, g0) in seeds {
        let (want_fp, want_len) = serial_closure(g0.clone());
        for k in [2, 4] {
            for tcp in [false, true] {
                let mut cfg = forward_cfg(k, PartitioningStrategy::data_graph());
                if tcp {
                    cfg.comm = CommMode::Custom(Arc::new(TcpFabricFactory::default()));
                }
                let mut g = g0.clone();
                let report = run_parallel(&mut g, &cfg)
                    .unwrap_or_else(|e| panic!("{name} k={k} tcp={tcp}: {e}"));
                assert!(!report.recovered);
                assert_eq!(g.len(), want_len, "{name} k={k} tcp={tcp}");
                assert_eq!(g.term_fingerprint(), want_fp, "{name} k={k} tcp={tcp}");
            }
        }
    }
}

#[test]
fn cluster_processes_match_serial_data_graph() {
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let (want_fp, want_len) = serial_closure(g0.clone());
    for k in [2, 4] {
        let cfg = forward_cfg(k, PartitioningStrategy::data_graph());
        let (report, g, workers) = run_cluster(&g0, &cfg);
        let report = report.unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert!(!report.recovered);
        assert_eq!(report.k, k);
        assert_eq!(g.len(), want_len, "k={k}");
        assert_eq!(g.term_fingerprint(), want_fp, "k={k}");
        let mut ids: Vec<u32> = workers
            .iter()
            .map(|w| w.as_ref().unwrap().node_id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..k as u32).collect::<Vec<_>>());
        for w in &workers {
            let w = w.as_ref().unwrap();
            assert_eq!(w.k as usize, k);
            assert!(w.rounds >= 1);
        }
    }
}

/// Rule and hybrid partitioning ship very different routing tables
/// (consumer sets and group × shard grids); both must rebuild faithfully
/// on the worker side.
#[test]
fn cluster_processes_match_serial_rule_and_hybrid() {
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let (want_fp, want_len) = serial_closure(g0.clone());
    for (label, cfg) in [
        ("hash", forward_cfg(2, PartitioningStrategy::data_hash())),
        ("rule", forward_cfg(2, PartitioningStrategy::rule())),
        ("hybrid", forward_cfg(4, PartitioningStrategy::Hybrid { rule_groups: 2 })),
    ] {
        let (report, g, workers) = run_cluster(&g0, &cfg);
        let report = report.unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(!report.recovered, "{label}");
        assert_eq!(g.len(), want_len, "{label}");
        assert_eq!(g.term_fingerprint(), want_fp, "{label}");
        for w in workers {
            w.unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

/// A worker executing an injected `Disconnect` mid-run must surface as a
/// typed error on its side, and the master must detect the loss, drain
/// the survivors, and re-close to the exact serial closure.
#[test]
fn mid_run_disconnect_recovers_to_serial_closure() {
    let g0 = generate_mdc(&MdcConfig::mini());
    let (want_fp, want_len) = serial_closure(g0.clone());
    let cfg = forward_cfg(4, PartitioningStrategy::data_graph())
        .with_round_timeout(Duration::from_secs(120))
        .with_faults(FaultPlan::new().with(1, 2, FaultKind::Disconnect));
    let (report, g, workers) = run_cluster(&g0, &cfg);
    let report = report.expect("master recovers from the lost worker");
    assert!(report.recovered, "disconnect at round 1 triggers recovery");
    assert_eq!(report.worker_errors.len(), 1);
    assert_eq!(report.workers.len(), 4, "dead worker keeps its stats slot");
    assert_eq!(g.len(), want_len);
    assert_eq!(g.term_fingerprint(), want_fp);
    let injected: Vec<_> = workers
        .iter()
        .filter(|w| matches!(w, Err(NetError::Injected { round: 1, kind: "disconnect" })))
        .collect();
    assert_eq!(injected.len(), 1, "exactly the faulted worker errors");
    assert_eq!(
        workers.iter().filter(|w| w.is_ok()).count(),
        3,
        "survivors finish cleanly"
    );
}

/// A worker speaking the wrong protocol version is told why (Reject) and
/// the master refuses to start — bootstrap is all-or-nothing.
#[test]
fn handshake_version_mismatch_is_rejected() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = generate_lubm(&LubmConfig::mini(1));
    let cfg = forward_cfg(1, PartitioningStrategy::data_graph());
    let master = thread::spawn(move || {
        run_cluster_master(&mut g, &cfg, listener, &MasterOptions::default())
    });

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let hello = encode_worker_msg(&WorkerMsg::Hello {
        magic: WIRE_MAGIC,
        version: PROTOCOL_VERSION + 99,
    });
    owlpar_core::write_crc_frame(&mut stream, &hello).unwrap();
    let body = read_crc_frame(&mut stream).unwrap();
    match decode_master_msg(&body, u32::MAX).unwrap() {
        MasterMsg::Reject { reason } => {
            assert!(reason.contains("version"), "{reason}");
        }
        other => panic!("expected Reject, got {other:?}"),
    }
    let err = master.join().unwrap().unwrap_err();
    assert!(matches!(err, NetError::Handshake { .. }), "{err}");
}

/// A torn frame (payload bytes flipped under the CRC) is detected before
/// any of it is interpreted; the master refuses the worker.
#[test]
fn torn_handshake_frame_is_rejected() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = generate_lubm(&LubmConfig::mini(1));
    let cfg = forward_cfg(1, PartitioningStrategy::data_graph());
    let master = thread::spawn(move || {
        run_cluster_master(&mut g, &cfg, listener, &MasterOptions::default())
    });

    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = encode_worker_msg(&WorkerMsg::Hello {
        magic: WIRE_MAGIC,
        version: PROTOCOL_VERSION,
    });
    let mut framed = Vec::new();
    owlpar_core::write_crc_frame(&mut framed, &hello).unwrap();
    let last = framed.len() - 1;
    framed[last] ^= 0xFF; // tear the payload under the checksum
    stream.write_all(&framed).unwrap();
    stream.flush().unwrap();

    let err = master.join().unwrap().unwrap_err();
    assert!(
        matches!(err, NetError::Frame(_)),
        "CRC damage surfaces as a frame error, got: {err}"
    );
}

/// End-to-end partition caching: the first run over a KB ships every
/// worker its full `SetupPayload` (all misses); a second run against the
/// same cache directory ships digests only (all hits), spending less
/// than 1% of the cold run's setup bytes — and both closures equal the
/// serial oracle exactly.
#[test]
fn second_run_ships_digest_only_setups() {
    let g0 = generate_lubm(&LubmConfig::mini(22));
    let (want_fp, want_len) = serial_closure(g0.clone());
    let cache_dir = std::env::temp_dir().join(format!(
        "owlpar-cluster-test-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let worker_opts = WorkerOptions {
        cache_dir: Some(cache_dir.clone()),
        ..WorkerOptions::default()
    };
    let k = 2;
    let cfg = forward_cfg(k, PartitioningStrategy::data_graph());

    let (cold, g_cold, _) =
        run_cluster_opts(&g0, &cfg, &MasterOptions::default(), &worker_opts);
    let cold = cold.expect("cold run").wire.expect("wire stats");
    assert_eq!(cold.cache_misses, k as u64, "first run misses everywhere");
    assert_eq!(cold.cache_hits, 0);
    assert_eq!((g_cold.term_fingerprint(), g_cold.len()), (want_fp, want_len));

    let (warm, g_warm, _) =
        run_cluster_opts(&g0, &cfg, &MasterOptions::default(), &worker_opts);
    let warm = warm.expect("warm run").wire.expect("wire stats");
    assert_eq!(warm.cache_hits, k as u64, "second run hits everywhere");
    assert_eq!(warm.cache_misses, 0);
    assert_eq!((g_warm.term_fingerprint(), g_warm.len()), (want_fp, want_len));
    assert!(
        warm.setup.bytes * 100 < cold.setup.bytes,
        "digest-only setups ({} B) must be <1% of full setups ({} B)",
        warm.setup.bytes,
        cold.setup.bytes
    );
    assert!(warm.setup.triples == 0, "no partition triples re-shipped");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// With the chunk cap lowered to a test-size 16 triples, `Final` stores
/// and round deliveries stream as many bounded frames instead of one
/// huge frame each — the mechanism that lifts the 64 MB payload cap —
/// and the closure is byte-identical to serial.
#[test]
fn chunked_streaming_at_tiny_cap_preserves_closure() {
    let g0 = generate_lubm(&LubmConfig::mini(2));
    let (want_fp, want_len) = serial_closure(g0.clone());
    let k = 2;
    let cfg = forward_cfg(k, PartitioningStrategy::data_graph());
    let master_opts = MasterOptions {
        chunk_triples: 16,
        ..MasterOptions::default()
    };
    let worker_opts = WorkerOptions {
        chunk_triples: 16,
        ..WorkerOptions::default()
    };
    let (report, g, workers) = run_cluster_opts(&g0, &cfg, &master_opts, &worker_opts);
    let report = report.expect("chunked run");
    assert!(!report.recovered);
    assert_eq!(g.len(), want_len);
    assert_eq!(g.term_fingerprint(), want_fp);
    for w in workers {
        w.expect("worker");
    }
    let wire = report.wire.expect("wire stats");
    assert!(
        wire.finals.frames > 2 * k as u64,
        "final stores of {} triples at a 16-triple cap must stream as \
         chunk sequences, saw {} frame(s)",
        wire.finals.triples,
        wire.finals.frames
    );
}

/// A master that answers `Hello` with `Reject` must surface worker-side
/// as a typed handshake error carrying the reason — not a decode failure
/// or a hang.
#[test]
fn worker_surfaces_reject_as_typed_handshake_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let _hello = read_crc_frame(&mut stream).unwrap();
        let reject = owlpar_net::protocol::encode_master_msg(&MasterMsg::Reject {
            reason: "cluster is full, try the next epoch".to_string(),
        });
        owlpar_core::write_crc_frame(&mut stream, &reject).unwrap();
    });
    let err = run_cluster_worker(addr, &WorkerOptions::default()).unwrap_err();
    stub.join().unwrap();
    match err {
        NetError::Handshake { detail } => {
            assert!(detail.contains("cluster is full"), "{detail}");
        }
        other => panic!("expected a typed handshake error, got {other}"),
    }
}

/// Version-mismatch regression, old-worker direction: a peer that opens
/// with the v1 `Hello` (same frozen byte layout, `version: 1`) gets a
/// typed `Reject` naming both versions, and the master's graph is left
/// untouched.
#[test]
fn v1_hello_gets_typed_reject_and_graph_is_unchanged() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let mut g = g0.clone();
    let cfg = forward_cfg(1, PartitioningStrategy::data_graph());
    let master = thread::spawn(move || {
        let r = run_cluster_master(&mut g, &cfg, listener, &MasterOptions::default());
        (r, g)
    });

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let hello = encode_worker_msg(&WorkerMsg::Hello {
        magic: WIRE_MAGIC,
        version: 1,
    });
    owlpar_core::write_crc_frame(&mut stream, &hello).unwrap();
    let body = read_crc_frame(&mut stream).unwrap();
    match decode_master_msg(&body, u32::MAX).unwrap() {
        MasterMsg::Reject { reason } => {
            assert!(
                reason.contains("version 1") && reason.contains(&format!("version {PROTOCOL_VERSION}")),
                "{reason}"
            );
        }
        other => panic!("expected Reject, got {other:?}"),
    }
    let (result, g) = master.join().unwrap();
    assert!(matches!(result, Err(NetError::Handshake { .. })));
    assert_eq!(g.len(), g0.len(), "no partial partitions applied");
    assert_eq!(g.term_fingerprint(), g0.term_fingerprint());
}

/// The rejected run must leave the master's graph untouched (no partial
/// partitions applied) — callers can retry with a fixed worker fleet.
#[test]
fn failed_bootstrap_leaves_graph_unchanged() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let mut g = g0.clone();
    let cfg = forward_cfg(1, PartitioningStrategy::data_graph());
    let master = thread::spawn({
        let opts = MasterOptions::default();
        move || {
            let r = run_cluster_master(&mut g, &cfg, listener, &opts);
            (r, g)
        }
    });
    // Dial and vanish without a Hello: the master sees EOF mid-handshake.
    drop(TcpStream::connect(addr).unwrap());
    let (result, g) = master.join().unwrap();
    assert!(result.is_err());
    assert_eq!(g.len(), g0.len());
    assert_eq!(g.term_fingerprint(), g0.term_fingerprint());
}

/// Straggler attribution: a worker that goes silent past the round
/// timeout (an injected `Delay` longer than a 1 s `round_timeout`) is
/// the one reported lost — not the peers left waiting on it — and the
/// run recovers to the serial closure.
#[test]
fn silent_straggler_is_the_worker_reported_lost() {
    let g0 = generate_mdc(&MdcConfig::mini());
    let (want_fp, want_len) = serial_closure(g0.clone());
    let cfg = forward_cfg(3, PartitioningStrategy::data_graph())
        .with_round_timeout(Duration::from_secs(1))
        .with_faults(FaultPlan::new().with(1, 2, FaultKind::Delay { millis: 3_000 }));
    let (report, g, workers) = run_cluster(&g0, &cfg);
    let report = report.expect("master recovers from the straggler");
    assert!(report.recovered, "the straggler's loss triggers recovery");
    let lost: Vec<usize> = report.worker_errors.iter().map(|e| e.worker()).collect();
    assert_eq!(lost, vec![2], "exactly the silent worker is lost: {:?}", report.worker_errors);
    assert_eq!(g.len(), want_len);
    assert_eq!(g.term_fingerprint(), want_fp);
    assert_eq!(workers.iter().filter(|w| w.is_ok()).count(), 2, "peers finish cleanly");
}

/// How a scripted worker breaks the round protocol after bootstrap.
#[derive(Clone, Copy, Debug)]
enum Violation {
    /// Route a batch to worker `k` (one past the last).
    RouteOutOfRange,
    /// Announce round 5 while the cluster is in round 0.
    WrongRound,
}

/// A raw-socket worker that completes the handshake, reads its `Setup`,
/// then commits `violation` and half-closes. Returns its node id.
fn scripted_violator(addr: std::net::SocketAddr, violation: Violation) -> u32 {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let send = |stream: &mut TcpStream, msg: &WorkerMsg| {
        owlpar_core::write_crc_frame(stream, &encode_worker_msg(msg)).unwrap();
    };
    send(
        &mut stream,
        &WorkerMsg::Hello {
            magic: WIRE_MAGIC,
            version: PROTOCOL_VERSION,
        },
    );
    let body = read_crc_frame(&mut stream).unwrap();
    let MasterMsg::Welcome { node_id, k, .. } = decode_master_msg(&body, u32::MAX).unwrap() else {
        panic!("expected Welcome");
    };
    send(&mut stream, &WorkerMsg::CacheAdvert { entries: Vec::new() });
    let body = read_crc_frame(&mut stream).unwrap();
    assert!(matches!(
        decode_master_msg(&body, u32::MAX).unwrap(),
        MasterMsg::Setup(_)
    ));
    let msg = match violation {
        Violation::RouteOutOfRange => WorkerMsg::Triples {
            to: k,
            batch: vec![owlpar_rdf::Triple::new(
                owlpar_rdf::NodeId(0),
                owlpar_rdf::NodeId(0),
                owlpar_rdf::NodeId(0),
            )],
        },
        Violation::WrongRound => WorkerMsg::RoundDone { round: 5, sent: 0 },
    };
    send(&mut stream, &msg);
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    // Hold the connection until the master lets go of it.
    let _ = std::io::copy(&mut stream, &mut std::io::sink());
    node_id
}

/// Protocol violations mid-run: a worker that routes a batch past the
/// cluster or announces the wrong round is lost with a typed
/// `CommError::Protocol`, and the data-partitioned run recovers to the
/// serial closure.
#[test]
fn protocol_violations_lose_the_offender_and_recover() {
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let (want_fp, want_len) = serial_closure(g0.clone());
    for violation in [Violation::RouteOutOfRange, Violation::WrongRound] {
        let cfg = forward_cfg(2, PartitioningStrategy::data_graph())
            .with_round_timeout(Duration::from_secs(30));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut g = g0.clone();
        let (report, honest, offender) = thread::scope(|s| {
            let offender = s.spawn(move || scripted_violator(addr, violation));
            let honest = s.spawn(move || run_cluster_worker(addr, &WorkerOptions::default()));
            let report = run_cluster_master(&mut g, &cfg, listener, &MasterOptions::default());
            (report, honest.join().unwrap(), offender.join().unwrap())
        });
        let report = report.unwrap_or_else(|e| panic!("{violation:?}: {e}"));
        assert!(report.recovered, "{violation:?}");
        assert_eq!(report.worker_errors.len(), 1, "{violation:?}");
        let err = &report.worker_errors[0];
        assert_eq!(err.worker(), offender as usize, "{violation:?}: {err}");
        assert!(
            matches!(
                err,
                owlpar_core::WorkerError::Comm {
                    source: owlpar_core::CommError::Protocol { .. },
                    ..
                }
            ),
            "{violation:?}: {err}"
        );
        honest.unwrap_or_else(|e| panic!("{violation:?}: honest worker: {e}"));
        assert_eq!(g.len(), want_len, "{violation:?}");
        assert_eq!(g.term_fingerprint(), want_fp, "{violation:?}");
    }
}
