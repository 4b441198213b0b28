//! The multi-process star runtime: one master process, `k` worker
//! processes, all exchange through the master over TCP.
//!
//! The master runs the same pre-spawn half of Algorithm 3 the in-process
//! runtime uses — [`prepare_run`] compiles, lints and partitions — then
//! ships each worker its partition, rule subsets and routing table over
//! the versioned bootstrap protocol (`protocol`). A worker runs the
//! in-process runtime's round engine (`owlpar_core::worker::run_rounds`)
//! over the star exchange: it closes its local store, routes fresh
//! derivations, sends them (as `Triples` frames relayed through the
//! master), announces `RoundDone`, and blocks until the master's
//! `Deliver` hands it the round verdict plus its inbound triples. The
//! verdict is the paper's termination test — a round in which nobody
//! sent anything — computed from the per-round send counts every
//! `RoundDone` carries, so it is reached by every worker in the same
//! round, just like the in-process cumulative-counter check. The master
//! ends with the in-process master's aggregate/recover/report tail
//! (`owlpar_core::master::finish_run`).
//!
//! ## Star, not mesh
//!
//! Relaying rounds through the master costs each triple two hops but
//! buys the failure model: the master observes every worker through one
//! connection with a deadline, so a dead, hung or defecting worker is
//! detected at the next read and the run flows into the same
//! adopt-and-reclose recovery the in-process master uses ([`RunPlan`]'s
//! recoverability rule is shared). The peer-to-peer TCP path without a
//! coordinator is the in-process mesh (`transport`).
//!
//! ## Failure discipline
//!
//! Bootstrap failures are fatal — a cluster that cannot assemble its `k`
//! workers and ship every partition refuses to start, because a partial
//! start could silently compute a partial closure. Mid-run failures are
//! recoverable: survivors drain at the next verdict (any death forces
//! `stop`), their stores are unioned (each is a subset of the closure),
//! and — for data partitioning under
//! [`FaultRecovery::AdoptAndReclose`] — a serial re-close reproduces
//! exactly the serial closure, monotonicity doing the proof.

use crate::cache::PartitionCache;
use crate::protocol::{
    decode_master_msg, decode_setup_payload, decode_worker_msg, encode_master_msg,
    encode_setup_payload, encode_worker_msg, CacheEntry, MasterMsg, NetError, Setup, SetupPayload,
    WireFault, WireRouting, WireStats, WorkerMsg, PROTOCOL_VERSION, WIRE_MAGIC,
};
use owlpar_core::config::RoundMode;
use owlpar_core::master::{finish_run, resolve_materialization, WorkersDone};
use owlpar_core::stats::{WireBytes, WirePhase, WireRound};
use owlpar_core::worker::{run_rounds, Exchange, Routing};
use owlpar_core::{
    digest128, prepare_run, read_crc_frame, write_crc_frame, Backoff, CommError, Digest128,
    FaultKind, ParallelConfig, RunError, RunReport, WorkerError,
};
use owlpar_datalog::{Reasoner, Rule};
use owlpar_obs::{wire as obs_wire, Metric, Phase, Recorder, Track, NO_ROUND};
use owlpar_partition::RulePartitions;
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{Graph, Triple, TripleStore};
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Frame envelope cost of the shared codec (`len u32 | crc u32`).
const FRAME_OVERHEAD: u64 = 8;

/// Default chunk bound for streamed transfers (`Triples`, `FinalChunk`,
/// `DeliverChunk`), in triples. One chunk encodes well under the 64 MB
/// per-frame payload cap even at the raw-equivalent 12 bytes/triple;
/// transfers of any size stream as chunk sequences, so the cap no
/// longer limits result size. Tests lower it to force multi-chunk
/// streams on tiny KBs.
pub const DEFAULT_CHUNK_TRIPLES: usize = 1 << 20;

/// Master-side knobs (everything else comes from [`ParallelConfig`]).
#[derive(Debug, Clone)]
pub struct MasterOptions {
    /// Run epoch carried in every `Welcome` — lets a worker (and its
    /// logs) tell two runs on the same port apart.
    pub epoch: u64,
    /// How long the master waits for all `k` workers to dial in and
    /// complete their handshake before refusing to start.
    pub accept_timeout: Duration,
    /// Most triples per streamed chunk frame (`DeliverChunk` splitting).
    pub chunk_triples: usize,
    /// Telemetry sink. `Some(enabled recorder)` turns the `trace` flag
    /// on in every `Welcome`, making workers record phase spans and ship
    /// them back as `TraceChunk` frames; the master merges them into
    /// this recorder (clock-offset corrected) alongside its own relay
    /// lane. `None` (default) keeps the run telemetry-free — workers
    /// are told not to record and ship nothing.
    pub trace: Option<Recorder>,
}

impl Default for MasterOptions {
    fn default() -> Self {
        MasterOptions {
            epoch: 0,
            accept_timeout: Duration::from_secs(60),
            chunk_triples: DEFAULT_CHUNK_TRIPLES,
            trace: None,
        }
    }
}

/// Worker-side knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// How long the worker keeps dialing (with capped exponential
    /// backoff) before giving up; also the handshake read patience.
    pub connect_timeout: Duration,
    /// Where to persist shipped partitions for digest-keyed reuse
    /// across runs; `None` disables the cache (every run ships full).
    pub cache_dir: Option<PathBuf>,
    /// Most triples per streamed chunk frame (`Triples`/`FinalChunk`
    /// splitting).
    pub chunk_triples: usize,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect_timeout: Duration::from_secs(30),
            cache_dir: None,
            chunk_triples: DEFAULT_CHUNK_TRIPLES,
        }
    }
}

// ---------------------------------------------------------------------
// wire accounting
// ---------------------------------------------------------------------

/// Master-side wire accounting, updated concurrently by the
/// per-connection handler threads. The star topology makes the master
/// the authoritative vantage point: every frame of the run crosses it
/// exactly once.
#[derive(Debug, Default)]
struct WireLedger {
    setup: [AtomicU64; 3],
    rounds: [AtomicU64; 3],
    finals: [AtomicU64; 3],
    control_bytes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Round-phase traffic broken out per round number:
    /// `round → (bytes, triples)`. Inbound `Triples` frames carry no
    /// round number, so each handler buffers them and flushes the
    /// accumulator when the worker's `RoundDone(r)` labels the batch;
    /// outbound `DeliverChunk`/`Deliver` are charged to their explicit
    /// round. A `BTreeMap` under a mutex — a handful of handler threads
    /// touching it once per frame burst, never on the triple hot path.
    per_round: Mutex<BTreeMap<u32, (u64, u64)>>,
}

impl WireLedger {
    fn add(phase: &[AtomicU64; 3], body_len: usize, triples: usize) {
        phase[0].fetch_add(body_len as u64 + FRAME_OVERHEAD, Ordering::Relaxed);
        phase[1].fetch_add(1, Ordering::Relaxed);
        phase[2].fetch_add(triples as u64, Ordering::Relaxed);
    }

    fn setup_frame(&self, body_len: usize, triples: usize) {
        Self::add(&self.setup, body_len, triples);
    }

    fn round_frame(&self, body_len: usize, triples: usize) {
        Self::add(&self.rounds, body_len, triples);
    }

    fn final_frame(&self, body_len: usize, triples: usize) {
        Self::add(&self.finals, body_len, triples);
    }

    fn control_frame(&self, body_len: usize) {
        self.control_bytes
            .fetch_add(body_len as u64 + FRAME_OVERHEAD, Ordering::Relaxed);
    }

    /// Charge `bytes`/`triples` of round-phase traffic to round `round`.
    fn round_traffic(&self, round: u32, bytes: u64, triples: u64) {
        if bytes == 0 && triples == 0 {
            return;
        }
        if let Ok(mut per_round) = self.per_round.lock() {
            let slot = per_round.entry(round).or_insert((0, 0));
            slot.0 += bytes;
            slot.1 += triples;
        }
    }

    fn cache_outcome(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> WireBytes {
        let phase = |p: &[AtomicU64; 3]| WirePhase {
            bytes: p[0].load(Ordering::Relaxed),
            frames: p[1].load(Ordering::Relaxed),
            triples: p[2].load(Ordering::Relaxed),
        };
        let per_round = self
            .per_round
            .lock()
            .map(|m| {
                m.iter()
                    .map(|(&round, &(bytes, triples))| WireRound {
                        round,
                        bytes,
                        triples,
                    })
                    .collect()
            })
            .unwrap_or_default();
        WireBytes {
            setup: phase(&self.setup),
            rounds: phase(&self.rounds),
            finals: phase(&self.finals),
            control_bytes: self.control_bytes.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            per_round,
        }
    }
}

/// What a worker process reports when its run completed cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Identity the master assigned in `Welcome`.
    pub node_id: u32,
    /// Cluster size.
    pub k: u32,
    /// Run epoch.
    pub epoch: u64,
    /// Rounds participated in.
    pub rounds: usize,
    /// Triples derived locally.
    pub derived: usize,
    /// Final local store size.
    pub store_len: usize,
    /// Triples sent (with multiplicity).
    pub sent: u64,
}

fn handshake_err(detail: impl Into<String>) -> NetError {
    NetError::Handshake {
        detail: detail.into(),
    }
}

fn send_master(stream: &mut TcpStream, msg: &MasterMsg) -> Result<(), NetError> {
    write_crc_frame(stream, &encode_master_msg(msg)).map_err(NetError::from)
}

// ---------------------------------------------------------------------
// master
// ---------------------------------------------------------------------

/// What a connection-handler thread distills worker frames into.
enum Event {
    /// The worker routed a batch to worker `to`.
    Routed {
        from: usize,
        to: usize,
        batch: Vec<Triple>,
    },
    /// The worker finished a round's sends.
    Done {
        from: usize,
        round: usize,
        sent: u64,
    },
    /// The worker delivered its final counters and store.
    Final {
        from: usize,
        stats: WireStats,
        store: Vec<Triple>,
    },
    /// The connection is gone (EOF, deadline, CRC damage, bad grammar).
    Dead { from: usize, detail: String },
}

/// Per-connection pump: frames in → events out, `Deliver`s written back
/// when the coordinator releases the round. Exits on `Final`, on any
/// connection error, or when the coordinator drops the delivery sender
/// (the worker was declared dead).
///
/// Large deliveries are split here into `DeliverChunk* Deliver` at
/// `chunk` triples per frame; inbound `FinalChunk` sequences are
/// reassembled here, so the coordinator only ever sees whole stores.
/// Every frame is charged to the shared [`WireLedger`].
///
/// When `trace` is set, inbound `TraceChunk` frames accumulate here and
/// are absorbed into the recorder (as `worker {id}`, pid `id + 1`) when
/// the pump exits — on `Final` and on death alike, so a crashed
/// worker's spans up to its last chunk still reach the merged timeline.
#[allow(clippy::too_many_arguments)] // internal pump; the master wires it up once
fn handle_worker(
    id: usize,
    stream: TcpStream,
    n_terms: u32,
    chunk: usize,
    ledger: &WireLedger,
    events: &mpsc::Sender<Event>,
    delivery: &mpsc::Receiver<MasterMsg>,
    trace: Option<&Recorder>,
) {
    let mut acc = TraceAcc::default();
    pump_worker(
        id, stream, n_terms, chunk, ledger, events, delivery, trace, &mut acc,
    );
    if let (Some(rec), false) = (trace, acc.events.is_empty()) {
        rec.absorb(
            &acc.events,
            &format!("worker {id}"),
            id as u32 + 1,
            acc.offset_us.unwrap_or(0),
        );
    }
}

/// Worker telemetry accumulated by one connection handler: decoded
/// events plus the best clock-offset estimate — the minimum of
/// `master receipt − worker clock` over all chunks, because the chunk
/// with the smallest transit delay bounds the offset tightest.
#[derive(Default)]
struct TraceAcc {
    events: Vec<owlpar_obs::Event>,
    offset_us: Option<i64>,
}

#[allow(clippy::too_many_arguments)] // split from handle_worker, same wiring
fn pump_worker(
    id: usize,
    mut stream: TcpStream,
    n_terms: u32,
    chunk: usize,
    ledger: &WireLedger,
    events: &mpsc::Sender<Event>,
    delivery: &mpsc::Receiver<MasterMsg>,
    trace: Option<&Recorder>,
    acc: &mut TraceAcc,
) {
    let dead = |detail: String| {
        let _ = events.send(Event::Dead { from: id, detail });
    };
    let chunk = chunk.max(1);
    let mut final_acc: Vec<Triple> = Vec::new();
    let mut next_seq = 0u32;
    // Inbound round traffic awaiting a round label (see
    // `WireLedger::per_round`): `(bytes, triples)`.
    let mut pending = (0u64, 0u64);
    loop {
        let body = match read_crc_frame(&mut stream) {
            Ok(b) => b,
            Err(e) => return dead(format!("reading from worker {id}: {e}")),
        };
        match decode_worker_msg(&body, n_terms) {
            Ok(WorkerMsg::Triples { to, batch }) => {
                ledger.round_frame(body.len(), batch.len());
                pending.0 += body.len() as u64 + FRAME_OVERHEAD;
                pending.1 += batch.len() as u64;
                let routed = Event::Routed {
                    from: id,
                    to: to as usize,
                    batch,
                };
                if events.send(routed).is_err() {
                    return;
                }
            }
            Ok(WorkerMsg::RoundDone { round, sent }) => {
                ledger.control_frame(body.len());
                ledger.round_traffic(round, pending.0, pending.1);
                pending = (0, 0);
                let done = Event::Done {
                    from: id,
                    round: round as usize,
                    sent,
                };
                if events.send(done).is_err() {
                    return;
                }
                // Block until the coordinator releases the round for this
                // worker; a closed channel means we were declared dead.
                let Ok(msg) = delivery.recv() else { return };
                let MasterMsg::Deliver {
                    round,
                    stop,
                    mut triples,
                } = msg
                else {
                    return dead(format!("coordinator queued a non-Deliver for worker {id}"));
                };
                // Stream the bulk as bounded chunks; the verdict frame
                // carries the tail, so the worker needs no chunk count
                // up front and any inbox size fits under the frame cap.
                let mut offset = 0usize;
                while triples.len() - offset > chunk {
                    let part = MasterMsg::DeliverChunk {
                        round,
                        batch: triples[offset..offset + chunk].to_vec(),
                    };
                    let part_body = encode_master_msg(&part);
                    ledger.round_frame(part_body.len(), chunk);
                    ledger.round_traffic(round, part_body.len() as u64 + FRAME_OVERHEAD, chunk as u64);
                    if let Err(e) = write_crc_frame(&mut stream, &part_body) {
                        return dead(format!("delivering round chunk to worker {id}: {e}"));
                    }
                    offset += chunk;
                }
                triples.drain(..offset);
                let tail = triples.len();
                let verdict = MasterMsg::Deliver {
                    round,
                    stop,
                    triples,
                };
                let verdict_body = encode_master_msg(&verdict);
                ledger.round_frame(verdict_body.len(), tail);
                ledger.round_traffic(round, verdict_body.len() as u64 + FRAME_OVERHEAD, tail as u64);
                if let Err(e) = write_crc_frame(&mut stream, &verdict_body) {
                    return dead(format!("delivering round to worker {id}: {e}"));
                }
            }
            Ok(WorkerMsg::FinalChunk { seq, batch }) => {
                ledger.final_frame(body.len(), batch.len());
                if seq != next_seq {
                    return dead(format!(
                        "worker {id} sent final chunk {seq}, expected {next_seq}"
                    ));
                }
                next_seq += 1;
                final_acc.extend(batch);
            }
            Ok(WorkerMsg::Final { stats, store }) => {
                ledger.final_frame(body.len(), store.len());
                final_acc.extend(store);
                let _ = events.send(Event::Final {
                    from: id,
                    stats,
                    store: final_acc,
                });
                return;
            }
            Ok(WorkerMsg::TraceChunk { payload }) => {
                ledger.control_frame(body.len());
                // Tolerated-but-dropped when tracing is off: the Welcome
                // told this worker not to send any, but a stray chunk is
                // not worth killing the run over.
                let Some(rec) = trace else { continue };
                let receipt = i64::try_from(rec.now_us()).unwrap_or(i64::MAX);
                match obs_wire::decode_trace_chunk(&payload) {
                    Ok(chunk) => {
                        let clock = i64::try_from(chunk.clock_us).unwrap_or(i64::MAX);
                        let offset = receipt.saturating_sub(clock);
                        acc.offset_us = Some(acc.offset_us.map_or(offset, |o| o.min(offset)));
                        acc.events.extend(chunk.events);
                    }
                    Err(e) => {
                        return dead(format!("undecodable trace chunk from worker {id}: {e}"))
                    }
                }
            }
            Ok(WorkerMsg::Hello { .. } | WorkerMsg::CacheAdvert { .. }) => {
                return dead(format!("worker {id} repeated the handshake mid-run"))
            }
            Err(e) => return dead(format!("undecodable message from worker {id}: {e}")),
        }
    }
}

/// The coordinator's view of which workers are still in the run.
struct Roster {
    alive: Vec<bool>,
    /// Per-worker delivery senders; dropping one unblocks its handler.
    delivery: Vec<Option<mpsc::Sender<MasterMsg>>>,
    /// Why each lost worker was lost, in detection order.
    errors: Vec<WorkerError>,
}

impl Roster {
    /// Declare worker `id` lost with `err`; the first cause wins.
    fn kill(&mut self, id: usize, err: WorkerError) {
        if self.alive[id] {
            self.alive[id] = false;
            self.delivery[id] = None; // unblocks the handler
            self.errors.push(err);
        }
    }
}

/// A worker that broke the round protocol in `round`.
fn protocol_violation(round: usize, worker: usize, detail: String) -> WorkerError {
    WorkerError::Comm {
        worker,
        source: CommError::Protocol {
            round,
            worker,
            peer: worker,
            detail,
        },
    }
}

/// A worker whose connection died in `round`.
fn connection_lost(round: usize, worker: usize, detail: String) -> WorkerError {
    WorkerError::Comm {
        worker,
        source: CommError::Io {
            round,
            worker,
            path: None,
            kind: ErrorKind::ConnectionAborted,
            detail,
            attempts: 1,
        },
    }
}

/// The shippable image of a worker's routing table.
fn wire_routing(r: &Routing) -> WireRouting {
    match r {
        Routing::Data { owner } => WireRouting::Data {
            owner: owner.iter().map(|(&n, &w)| (n, w)).collect(),
        },
        Routing::Rule { partitions, .. } => WireRouting::Rule {
            k: partitions.k as u32,
            assignment: partitions.assignment.clone(),
        },
        Routing::Hybrid {
            owner,
            groups,
            data_shards,
            ..
        } => WireRouting::Hybrid {
            owner: owner.iter().map(|(&n, &w)| (n, w)).collect(),
            groups_k: groups.k as u32,
            groups_assignment: groups.assignment.clone(),
            data_shards: *data_shards,
        },
    }
}

/// The worker-level faults planned for worker `id` — transport-internal
/// kinds (IO flakes, corruption) stay in-process and do not ship.
fn wire_faults(cfg: &ParallelConfig, id: usize) -> Vec<(u32, WireFault)> {
    cfg.fault
        .iter()
        .flat_map(|p| p.events.iter())
        .filter(|e| e.worker == id)
        .filter_map(|e| {
            let fault = match e.kind {
                FaultKind::Panic => WireFault::Panic,
                FaultKind::Disconnect => WireFault::Disconnect,
                FaultKind::Delay { millis } => WireFault::Delay { millis },
                _ => return None,
            };
            Some((e.round as u32, fault))
        })
        .collect()
}

/// Accept one worker and run the versioned handshake
/// (`Hello → Welcome → CacheAdvert`). Returns the stream, ready for
/// `Setup`, plus the cache entries the worker advertised.
fn accept_worker(
    listener: &TcpListener,
    deadline: Instant,
    node_id: u32,
    k: u32,
    opts: &MasterOptions,
    ledger: &WireLedger,
) -> Result<(TcpStream, Vec<CacheEntry>), NetError> {
    // Poll the nonblocking listener with the shared backoff so a slow
    // cluster assembly neither busy-spins nor oversleeps the deadline.
    let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(50));
    let mut stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(handshake_err(format!(
                        "worker {node_id}/{k} never connected within {:?}",
                        opts.accept_timeout
                    )));
                }
                backoff.sleep();
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    };
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(opts.accept_timeout))?;
    stream.set_write_timeout(Some(opts.accept_timeout))?;

    let body = read_crc_frame(&mut stream)?;
    ledger.control_frame(body.len());
    // The dictionary bound is irrelevant during the handshake — Hello
    // carries no triples.
    match decode_worker_msg(&body, u32::MAX)? {
        WorkerMsg::Hello { magic, version }
            if magic == WIRE_MAGIC && version == PROTOCOL_VERSION =>
        {
            let welcome = encode_master_msg(&MasterMsg::Welcome {
                node_id,
                k,
                epoch: opts.epoch,
                trace: opts.trace.as_ref().is_some_and(Recorder::is_enabled),
            });
            ledger.control_frame(welcome.len());
            write_crc_frame(&mut stream, &welcome)?;
            // The advert follows immediately — an empty one when the
            // worker has no cache.
            let advert = read_crc_frame(&mut stream)?;
            ledger.control_frame(advert.len());
            match decode_worker_msg(&advert, u32::MAX)? {
                WorkerMsg::CacheAdvert { entries } => Ok((stream, entries)),
                other => Err(handshake_err(format!(
                    "expected CacheAdvert after Welcome, got {other:?}"
                ))),
            }
        }
        WorkerMsg::Hello { magic, version } => {
            let reason = format!(
                "incompatible hello: magic {magic:#010x} version {version}, \
                 this master speaks {WIRE_MAGIC:#010x} version {PROTOCOL_VERSION}"
            );
            let _ = send_master(&mut stream, &MasterMsg::Reject { reason: reason.clone() });
            Err(handshake_err(reason))
        }
        other => Err(handshake_err(format!(
            "expected Hello from connecting worker, got {other:?}"
        ))),
    }
}

/// Digest of the input KB: dictionary size plus every id-triple in
/// canonical sorted order — the `input` half of the partition-cache
/// key. Order-canonical so the same KB digests equally run after run
/// regardless of hash-set iteration order.
fn input_digest(graph: &Graph) -> [u8; 16] {
    let mut d = Digest128::new();
    d.update_u32(graph.dict.len() as u32);
    for t in graph.store.iter_sorted() {
        d.update_u32(t.s.0);
        d.update_u32(t.p.0);
        d.update_u32(t.o.0);
    }
    d.finish()
}

/// Digest of the partitioning configuration — everything that changes
/// *which bytes* a worker's partition payload holds, beyond the input
/// KB itself. The payload digest is the actual correctness check; this
/// merely keys the cache so config changes don't thrash one entry.
fn config_digest(
    cfg: &ParallelConfig,
    k: usize,
    materialization: owlpar_datalog::MaterializationStrategy,
) -> [u8; 16] {
    let fp = format!(
        "k={k}|strategy={:?}|materialization={materialization:?}|extra_rules={}|unsafe_rules={:?}",
        cfg.strategy,
        cfg.extra_rules.len(),
        cfg.unsafe_rules,
    );
    digest128(fp.as_bytes())
}

/// Run a cluster master over `listener`: assemble `cfg.k` workers, ship
/// partitions, coordinate rounds to quiescence, aggregate the closure
/// into `graph`. The report is shaped exactly like
/// [`run_parallel`](owlpar_core::run_parallel)'s.
pub fn run_cluster_master(
    graph: &mut Graph,
    cfg: &ParallelConfig,
    listener: TcpListener,
    opts: &MasterOptions,
) -> Result<RunReport, NetError> {
    if matches!(cfg.rounds, RoundMode::Async) {
        return Err(NetError::Run(RunError::config(
            "the cluster runtime supports barrier rounds only",
        )));
    }
    let start_total = Instant::now();
    let before_len = graph.len();
    // The cache key's input half is the KB as handed to us, digested
    // before partitioning touches anything.
    let in_digest = input_digest(graph);
    let mut plan = prepare_run(graph, cfg)?;
    let k = plan.k;
    // Telemetry: an enabled recorder in the options turns on worker-side
    // tracing (via the Welcome flag) and gives the master its own
    // "relay" lane. Predicted-vs-measured needs the analyzer's report —
    // Auto runs already carry one; otherwise a traced run pays for one
    // analyzer pass here (it re-runs the partitioner, accepted only
    // when tracing).
    let trace = opts.trace.clone().filter(Recorder::is_enabled);
    let analysis = match (&trace, &plan.analysis) {
        (Some(_), None) => {
            let base = owlpar_core::PlanningBase::compile(graph, &cfg.extra_rules);
            owlpar_core::analyze_strategy(&base, &graph.dict, k, &plan.strategy).ok()
        }
        _ => plan.analysis.clone(),
    };
    let pred_round_bytes = analysis
        .as_ref()
        .map(|a| a.round_bytes / a.rounds.expected.max(1) as f64);
    let pred_skew = analysis.as_ref().map(|a| a.max_load_share * k as f64);
    let trace_rec = trace.clone().unwrap_or_default();
    let mut relay = trace_rec.track("relay");
    let n_terms = graph.dict.len() as u32;
    let materialization = resolve_materialization(cfg.materialization, k);
    let cfg_digest = config_digest(cfg, k, materialization);
    let ledger = Arc::new(WireLedger::default());

    // --- bootstrap: all-or-nothing -----------------------------------
    let setup_span = relay.begin(Phase::Setup, NO_ROUND);
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + opts.accept_timeout;
    let mut streams = Vec::with_capacity(k);
    let mut adverts = Vec::with_capacity(k);
    for id in 0..k {
        let (stream, advert) =
            accept_worker(&listener, deadline, id as u32, k as u32, opts, &ledger)?;
        streams.push(stream);
        adverts.push(advert);
    }
    let mut bases = std::mem::take(&mut plan.bases);
    for (id, stream) in streams.iter_mut().enumerate() {
        let payload = SetupPayload {
            n_terms,
            materialization,
            schema: plan.schema.clone(),
            base: std::mem::take(&mut bases[id]),
            all_rules: plan.all_rules.clone(),
            my_rules: plan.rules_per_worker[id].clone(),
            routing: wire_routing(&plan.routing[id]),
        };
        let payload_triples = payload.schema.len() + payload.base.len();
        let blob = encode_setup_payload(&payload);
        let payload_digest = digest128(&blob);
        // Digest-only ship iff the worker advertised this exact blob —
        // exact meaning the payload digest matches too, so a stale or
        // nondeterministically different partition degrades to a full
        // ship, never to a wrong one.
        let hit = adverts[id].iter().any(|e| {
            e.input == in_digest
                && e.config == cfg_digest
                && e.node == id as u32
                && e.payload == payload_digest
        });
        ledger.cache_outcome(hit);
        let setup = Setup {
            input_digest: in_digest,
            config_digest: cfg_digest,
            payload_digest,
            round_timeout_ms: cfg.round_timeout.as_millis() as u64,
            faults: wire_faults(cfg, id),
            payload: (!hit).then_some(blob),
        };
        let body = encode_master_msg(&MasterMsg::Setup(Box::new(setup)));
        ledger.setup_frame(body.len(), if hit { 0 } else { payload_triples });
        write_crc_frame(stream, &body)?;
        // From here on the per-read patience is the round timeout: a
        // worker that produces nothing for that long is declared dead.
        stream.set_read_timeout(Some(cfg.round_timeout.saturating_mul(2)))?;
        stream.set_write_timeout(Some(cfg.round_timeout))?;
    }
    relay.end(setup_span);

    // --- rounds ------------------------------------------------------
    let t_par = Instant::now();
    let (events_tx, events) = mpsc::channel::<Event>();
    let mut roster = Roster {
        alive: vec![true; k],
        delivery: Vec::with_capacity(k),
        errors: Vec::new(),
    };
    let mut finals: Vec<Option<(WireStats, Vec<Triple>)>> = (0..k).map(|_| None).collect();

    thread::scope(|scope| {
        for (id, stream) in streams.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<MasterMsg>();
            roster.delivery.push(Some(tx));
            let handler_tx = events_tx.clone();
            let handler_ledger = Arc::clone(&ledger);
            let handler_trace = trace.clone();
            let chunk = opts.chunk_triples;
            let builder = thread::Builder::new().name(format!("cluster-worker-{id}"));
            let spawned = builder.spawn_scoped(scope, move || {
                handle_worker(
                    id,
                    stream,
                    n_terms,
                    chunk,
                    &handler_ledger,
                    &handler_tx,
                    &rx,
                    handler_trace.as_ref(),
                );
            });
            if spawned.is_err() {
                let _ = events_tx.send(Event::Dead {
                    from: id,
                    detail: "could not spawn connection handler".to_string(),
                });
            }
        }
        drop(events_tx);

        let mut inboxes: Vec<Vec<Triple>> = (0..k).map(|_| Vec::new()).collect();

        let mut round = 0usize;
        loop {
            let mut done = vec![false; k];
            let mut round_sent = 0u64;
            // Live skew: when each worker's RoundDone lands, measured
            // from the master's release of the previous round. The gap
            // between first and last arrival is the straggler tax the
            // analyzer's `skew_ratio` predicts.
            let round_t0 = Instant::now();
            let mut done_at_ms: Vec<f64> = Vec::with_capacity(k);
            let relay_bytes_before = ledger.rounds[0].load(Ordering::Relaxed);
            let wait_span = relay.begin(Phase::BarrierWait, round as u32);
            while (0..k).any(|i| roster.alive[i] && !done[i]) {
                match events.recv_timeout(cfg.round_timeout) {
                    Ok(Event::Routed { from, to, batch }) => {
                        if to < k {
                            inboxes[to].extend(batch);
                        } else {
                            roster.kill(
                                from,
                                protocol_violation(
                                    round,
                                    from,
                                    format!("routed a batch to worker {to} of {k}"),
                                ),
                            );
                        }
                    }
                    Ok(Event::Done { from, round: r, sent }) => {
                        if r == round {
                            done[from] = true;
                            round_sent += sent;
                            done_at_ms.push(round_t0.elapsed().as_secs_f64() * 1e3);
                        } else {
                            roster.kill(
                                from,
                                protocol_violation(
                                    round,
                                    from,
                                    format!("announced round {r} during round {round}"),
                                ),
                            );
                        }
                    }
                    Ok(Event::Dead { from, detail }) => {
                        roster.kill(from, connection_lost(round, from, detail));
                    }
                    Ok(Event::Final { from, .. }) => {
                        roster.kill(
                            from,
                            protocol_violation(
                                round,
                                from,
                                "sent Final before the stop verdict".to_string(),
                            ),
                        );
                    }
                    Err(_) => {
                        // Nothing from anyone for a whole round timeout:
                        // declare every straggler dead.
                        for (id, &announced) in done.iter().enumerate() {
                            if roster.alive[id] && !announced {
                                roster.kill(
                                    id,
                                    WorkerError::BarrierTimeout {
                                        worker: id,
                                        round,
                                        waited: cfg.round_timeout,
                                    },
                                );
                            }
                        }
                    }
                }
            }

            relay.end(wait_span);

            // The verdict: quiescence, or any loss so far drains the
            // survivors — same rule as the in-process RunFlags check.
            let stop = round_sent == 0 || !roster.errors.is_empty();
            for id in 0..k {
                if !roster.alive[id] || !done[id] {
                    continue;
                }
                let deliver = MasterMsg::Deliver {
                    round: round as u32,
                    stop,
                    triples: std::mem::take(&mut inboxes[id]),
                };
                if let Some(tx) = &roster.delivery[id] {
                    if tx.send(deliver).is_err() {
                        roster.kill(
                            id,
                            WorkerError::Comm {
                                worker: id,
                                source: CommError::Disconnected {
                                    round,
                                    from: id,
                                    to: id,
                                },
                            },
                        );
                    }
                }
            }
            // Relay traffic this round, measured at the master: inbound
            // Triples plus outbound Deliver(Chunk)s charged since the
            // loop top. (Deliveries of round N−1 written after that
            // snapshot smear into round N — a bounded, documented blur.)
            let relay_bytes = ledger.rounds[0]
                .load(Ordering::Relaxed)
                .saturating_sub(relay_bytes_before);
            relay.count(Phase::Exchange, round as u32, Metric::Bytes, relay_bytes);
            if trace.is_some() && !done_at_ms.is_empty() {
                let max = done_at_ms.iter().copied().fold(f64::MIN, f64::max);
                let min = done_at_ms.iter().copied().fold(f64::MAX, f64::min);
                let mean = done_at_ms.iter().sum::<f64>() / done_at_ms.len() as f64;
                let skew_ratio = if mean > 0.0 { max / mean } else { 1.0 };
                let pred = match (pred_round_bytes, pred_skew) {
                    (Some(b), Some(s)) => {
                        format!(" pred_round_bytes={b:.0} pred_skew_ratio={s:.2}")
                    }
                    _ => String::new(),
                };
                eprintln!(
                    "[owlpar-cluster] RoundSummary round={round} workers={} \
                     sent={round_sent} max_ms={max:.1} min_ms={min:.1} \
                     skew_ms={:.1} skew_ratio={skew_ratio:.2} \
                     relay_bytes={relay_bytes}{pred}",
                    done_at_ms.len(),
                    max - min,
                );
            }
            if stop || !roster.alive.iter().any(|&a| a) {
                break;
            }
            round += 1;
        }

        // --- finals --------------------------------------------------
        while (0..k).any(|i| roster.alive[i] && finals[i].is_none()) {
            match events.recv_timeout(cfg.round_timeout) {
                Ok(Event::Final { from, stats, store }) => {
                    finals[from] = Some((stats, store));
                    roster.delivery[from] = None;
                }
                Ok(Event::Dead { from, detail }) => {
                    roster.kill(from, connection_lost(round, from, detail));
                }
                Ok(Event::Routed { .. }) => {} // late, harmless: run is over
                Ok(Event::Done { from, .. }) => {
                    roster.kill(
                        from,
                        protocol_violation(
                            round,
                            from,
                            "announced a round after the stop verdict".to_string(),
                        ),
                    );
                }
                Err(_) => {
                    for (id, f) in finals.iter().enumerate() {
                        if roster.alive[id] && f.is_none() {
                            roster.kill(
                                id,
                                WorkerError::BarrierTimeout {
                                    worker: id,
                                    round,
                                    waited: cfg.round_timeout,
                                },
                            );
                        }
                    }
                }
            }
        }
        roster.delivery.clear(); // release any handler still blocked
    });
    let host_parallel_time = t_par.elapsed();

    let finals = finals
        .into_iter()
        .enumerate()
        .map(|(id, f)| f.map(|(stats, store)| (store, stats.into_worker_stats(id))))
        .collect();
    let report = finish_run(
        graph,
        cfg,
        &plan,
        &mut relay,
        WorkersDone {
            finals,
            errors: roster.errors,
            started: start_total,
            before_len,
            host_parallel_time,
            wire: Some(ledger.snapshot()),
        },
    )?;
    // Lay the analyzer's predictions beside the measured trace — the
    // exact keys `owlpar trace summary` reads from the `"plan"` extra.
    if let Some(rec) = &trace {
        let plan_json = match &analysis {
            Some(a) => format!(
                "{{\"strategy\":{:?},\"setup_bytes\":{},\"round_bytes\":{:.1},\
                 \"predicted_rounds\":{},\"skew_ratio\":{:.4}}}",
                a.strategy,
                a.setup_bytes,
                a.round_bytes,
                a.rounds.expected,
                a.max_load_share * k as f64,
            ),
            None => format!("{{\"strategy\":{:?}}}", plan.strategy.label()),
        };
        rec.set_extra("plan", plan_json);
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------

/// Rule indices per partition, recovered from the shipped assignment.
fn parts_from_assignment(k: usize, assignment: &[u32]) -> Vec<Vec<usize>> {
    let mut parts = vec![Vec::new(); k];
    for (i, &p) in assignment.iter().enumerate() {
        parts[p as usize].push(i);
    }
    parts
}

/// Rebuild the in-process routing table from its wire image, validating
/// every destination it could ever produce against the cluster size.
fn rebuild_routing(w: WireRouting, k: u32, all_rules: &Arc<Vec<Rule>>) -> Result<Routing, NetError> {
    let check_rules_len = |len: usize| {
        if len == all_rules.len() {
            Ok(())
        } else {
            Err(NetError::protocol(format!(
                "rule assignment covers {len} rule(s), rule-base has {}",
                all_rules.len()
            )))
        }
    };
    match w {
        WireRouting::Data { owner } => {
            let mut map = FxHashMap::default();
            for (node, worker) in owner {
                if worker >= k {
                    return Err(NetError::protocol(format!(
                        "ownership table assigns {node:?} to worker {worker} of {k}"
                    )));
                }
                map.insert(node, worker);
            }
            Ok(Routing::Data {
                owner: Arc::new(map),
            })
        }
        WireRouting::Rule { k: parts, assignment } => {
            if parts != k {
                return Err(NetError::protocol(format!(
                    "rule routing built for {parts} partitions, cluster has {k}"
                )));
            }
            check_rules_len(assignment.len())?;
            let rebuilt = RulePartitions {
                k: parts as usize,
                parts: parts_from_assignment(parts as usize, &assignment),
                assignment,
                edge_cut: 0,
                partition_time: Duration::ZERO,
            };
            Ok(Routing::Rule {
                partitions: Arc::new(rebuilt),
                all_rules: Arc::clone(all_rules),
            })
        }
        WireRouting::Hybrid {
            owner,
            groups_k,
            groups_assignment,
            data_shards,
        } => {
            if groups_k.checked_mul(data_shards) != Some(k) {
                return Err(NetError::protocol(format!(
                    "hybrid routing {groups_k} group(s) × {data_shards} shard(s) ≠ cluster size {k}"
                )));
            }
            check_rules_len(groups_assignment.len())?;
            let mut map = FxHashMap::default();
            for (node, shard) in owner {
                map.insert(node, shard); // shard < data_shards checked at decode
            }
            let rebuilt = RulePartitions {
                k: groups_k as usize,
                parts: parts_from_assignment(groups_k as usize, &groups_assignment),
                assignment: groups_assignment,
                edge_cut: 0,
                partition_time: Duration::ZERO,
            };
            Ok(Routing::Hybrid {
                owner: Arc::new(map),
                groups: Arc::new(rebuilt),
                all_rules: Arc::clone(all_rules),
                data_shards,
            })
        }
    }
}

/// The worker's end of its master connection, with wire-byte
/// accounting (frame envelopes included).
struct MasterLink {
    stream: TcpStream,
    /// Bytes written to the master.
    sent: u64,
    /// Bytes read from the master.
    recv: u64,
}

impl MasterLink {
    fn send(&mut self, msg: &WorkerMsg) -> Result<(), NetError> {
        let body = encode_worker_msg(msg);
        self.sent += body.len() as u64 + FRAME_OVERHEAD;
        write_crc_frame(&mut self.stream, &body).map_err(NetError::from)
    }

    /// Read one master frame and decode it against `n_terms`.
    fn read(&mut self, n_terms: u32) -> Result<MasterMsg, NetError> {
        let body = read_crc_frame(&mut self.stream)?;
        self.recv += body.len() as u64 + FRAME_OVERHEAD;
        decode_master_msg(&body, n_terms)
    }

    /// Ship the lane's buffered telemetry as one `TraceChunk` (tracing
    /// runs only). The chunk's `clock_us` is the clock-offset sample the
    /// master aligns the worker's timeline with.
    fn ship_trace(&mut self, rec: &Recorder, lane: &mut Track) -> Result<(), NetError> {
        if !rec.is_enabled() {
            return Ok(());
        }
        let payload = obs_wire::encode_trace_chunk(rec.now_us(), &lane.take_buffered());
        self.send(&WorkerMsg::TraceChunk { payload })
    }
}

/// Star rounds: triples are relayed through the master, whose `Deliver`
/// is barrier A, the verdict and barrier B in one.
struct StarExchange<'a> {
    link: &'a mut MasterLink,
    rec: &'a Recorder,
    me: u32,
    n_terms: u32,
    chunk: usize,
    /// Injected faults, `(round, fault)`.
    faults: Vec<(u32, WireFault)>,
}

impl Exchange for StarExchange<'_> {
    type Error = NetError;

    fn begin_round(&mut self, round: usize) -> Result<(), NetError> {
        for &(_, fault) in self.faults.iter().filter(|(r, _)| *r as usize == round) {
            let kind = match fault {
                WireFault::Panic => "panic",
                WireFault::Disconnect => "disconnect",
                WireFault::Delay { millis } => {
                    thread::sleep(Duration::from_millis(millis));
                    continue;
                }
            };
            return Err(NetError::Injected { round, kind });
        }
        Ok(())
    }

    fn send(&mut self, _round: usize, outbox: &[Vec<Triple>]) -> Result<u64, NetError> {
        let mut sent = 0u64;
        for (to, batch) in outbox.iter().enumerate() {
            if batch.is_empty() || to as u32 == self.me {
                continue;
            }
            // Bounded frames regardless of batch size: a huge round
            // splits into several Triples frames the master unions.
            for part in batch.chunks(self.chunk) {
                self.link.send(&WorkerMsg::Triples {
                    to: to as u32,
                    batch: part.to_vec(),
                })?;
            }
            sent += batch.len() as u64;
        }
        Ok(sent)
    }

    fn finish_round(
        &mut self,
        round: usize,
        sent: u64,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), NetError> {
        // Ship buffered telemetry before announcing the round — one
        // chunk per round keeps frames small and gives the master a
        // fresh clock sample every round. Spans still open here (this
        // Round span itself) ride a later chunk; the pre-Final flush
        // ships the stragglers.
        self.link.ship_trace(self.rec, lane)?;
        self.link.send(&WorkerMsg::RoundDone {
            round: round as u32,
            sent,
        })?;
        let wait_span = lane.begin(Phase::BarrierWait, round as u32);
        // The round's inbound stream: any number of DeliverChunk frames
        // then the Deliver verdict carrying the tail.
        let mut inbound: Vec<Triple> = Vec::new();
        let stop = loop {
            match self.link.read(self.n_terms)? {
                MasterMsg::DeliverChunk { round: r, batch } if r as usize == round => {
                    inbound.extend(batch);
                }
                MasterMsg::Deliver {
                    round: r,
                    stop,
                    triples,
                } if r as usize == round => {
                    inbound.extend(triples);
                    break stop;
                }
                MasterMsg::DeliverChunk { round: r, .. } | MasterMsg::Deliver { round: r, .. } => {
                    return Err(NetError::protocol(format!(
                        "master delivered round {r} during round {round}"
                    )))
                }
                other => {
                    return Err(NetError::protocol(format!(
                        "expected Deliver, got {other:?}"
                    )))
                }
            }
        };
        lane.end(wait_span);
        Ok((inbound, stop))
    }

    fn fail(&mut self) {
        // The master sees the loss at its next read of this connection.
        let _ = self.link.stream.shutdown(Shutdown::Both);
    }

    fn leave(&mut self) {}
}

/// Run one worker process: dial the master, handshake, receive the
/// partition, run [`run_rounds`] over the star exchange to the stop
/// verdict, ship the final store back.
pub fn run_cluster_worker(
    addr: impl ToSocketAddrs,
    opts: &WorkerOptions,
) -> Result<WorkerSummary, NetError> {
    // Dial with the shared capped backoff: the master may still be
    // partitioning when we start.
    let deadline = Instant::now() + opts.connect_timeout;
    let mut backoff = Backoff::new(Duration::from_millis(5), Duration::from_millis(250));
    let stream = loop {
        match TcpStream::connect(&addr) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(NetError::Io(e));
                }
                backoff.sleep();
            }
        }
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(opts.connect_timeout))?;
    stream.set_write_timeout(Some(opts.connect_timeout))?;
    let mut link = MasterLink {
        stream,
        sent: 0,
        recv: 0,
    };

    // --- handshake ---------------------------------------------------
    link.send(&WorkerMsg::Hello {
        magic: WIRE_MAGIC,
        version: PROTOCOL_VERSION,
    })?;
    let (node_id, k, epoch, traced) = match link.read(u32::MAX)? {
        MasterMsg::Welcome {
            node_id,
            k,
            epoch,
            trace,
        } => (node_id, k, epoch, trace),
        MasterMsg::Reject { reason } => return Err(handshake_err(reason)),
        other => {
            return Err(handshake_err(format!(
                "expected Welcome or Reject, got {other:?}"
            )))
        }
    };
    if k == 0 || node_id >= k {
        return Err(handshake_err(format!(
            "master assigned node id {node_id} in a cluster of {k}"
        )));
    }

    // Advertise whatever shipped partitions we hold (an empty advert
    // when uncached — the master always reads one).
    let cache = match &opts.cache_dir {
        Some(dir) => Some(PartitionCache::open(dir)?),
        None => None,
    };
    let entries = cache.as_ref().map(PartitionCache::scan).unwrap_or_default();
    link.send(&WorkerMsg::CacheAdvert { entries })?;

    let setup = match link.read(u32::MAX)? {
        MasterMsg::Setup(s) => *s,
        other => {
            return Err(handshake_err(format!(
                "expected Setup after Welcome, got {other:?}"
            )))
        }
    };
    // Resolve the payload blob: shipped on the wire (verify, then
    // persist for next time) or elided because the master matched our
    // advert (load and re-verify from disk). Either way the bytes are
    // checked against the header's digest before they are decoded.
    let blob = match setup.payload {
        Some(blob) => {
            if digest128(&blob) != setup.payload_digest {
                return Err(NetError::protocol(
                    "setup payload does not match its declared digest",
                ));
            }
            if let Some(c) = &cache {
                // A cache write failure costs the next run a re-ship,
                // not this run its result.
                let _ = c.store(&setup.input_digest, &setup.config_digest, node_id, &blob);
            }
            blob
        }
        None => cache
            .as_ref()
            .and_then(|c| {
                c.load(
                    &setup.input_digest,
                    &setup.config_digest,
                    node_id,
                    &setup.payload_digest,
                )
            })
            .ok_or_else(|| {
                handshake_err("master elided the setup payload but no matching cache entry exists")
            })?,
    };
    let payload = decode_setup_payload(&blob)?;
    let round_timeout = Duration::from_millis(setup.round_timeout_ms.max(1000));
    // The master's Deliver can lag a full coordinator round behind our
    // sends; give reads twice its patience before declaring it gone.
    link.stream
        .set_read_timeout(Some(round_timeout.saturating_mul(2)))?;
    link.stream.set_write_timeout(Some(round_timeout))?;

    // --- rounds: the shared engine over the star exchange ------------
    let all_rules = Arc::new(payload.all_rules);
    let routing = rebuild_routing(payload.routing, k, &all_rules)?;
    let reasoner = Reasoner::new(payload.my_rules, payload.materialization);
    let mut store = TripleStore::new();
    store.extend(payload.schema);
    store.extend(payload.base);

    // Telemetry: a LOCAL recorder, never the process global — worker
    // events reach the merged timeline only as `TraceChunk` frames, so
    // a loopback cluster (worker threads sharing one process in tests)
    // cannot double-count through an ambient recorder. The master's
    // Welcome flag decides; untraced runs carry a no-op recorder and
    // ship nothing.
    let rec = if traced {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut lane = rec.track("worker");
    let chunk = opts.chunk_triples.max(1);
    let mut exchange = StarExchange {
        link: &mut link,
        rec: &rec,
        me: node_id,
        n_terms: payload.n_terms,
        chunk,
        faults: setup.faults,
    };
    let stats = run_rounds(
        node_id,
        k as usize,
        &mut store,
        &reasoner,
        &routing,
        &mut lane,
        &mut exchange,
    )?;

    let summary = WorkerSummary {
        node_id,
        k,
        epoch,
        rounds: stats.rounds,
        derived: stats.derived,
        store_len: store.len(),
        sent: stats.sent as u64,
    };
    // Ship the final store as a bounded chunk stream: FinalChunk* then
    // the Final terminator carrying the tail (and the counters), so a
    // store of any size fits under the per-frame cap. Globally sorted
    // first — each chunk is then a contiguous id range, which is both
    // deterministic and what the delta codec compresses best.
    let full = store.iter_sorted();
    let tail_start = full.len().saturating_sub(1) / chunk * chunk;
    for (seq, part) in full[..tail_start].chunks(chunk).enumerate() {
        link.send(&WorkerMsg::FinalChunk {
            seq: seq as u32,
            batch: part.to_vec(),
        })?;
    }
    // Flush the telemetry stragglers (final Round span, last barrier
    // wait) just before the Final frame — the handler absorbs the
    // accumulated events when the pump exits.
    link.ship_trace(&rec, &mut lane)?;
    // The counters ride inside the Final frame, so they cannot include
    // it; the master-side ledger is the authoritative total.
    let mut stats = WireStats::from_worker_stats(&stats);
    stats.wire_sent_bytes = link.sent;
    stats.wire_recv_bytes = link.recv;
    link.send(&WorkerMsg::Final {
        stats,
        store: full[tail_start..].to_vec(),
    })?;
    Ok(summary)
}
