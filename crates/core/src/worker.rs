//! The per-node loop of Algorithm 3: one round engine, three exchanges.
//!
//! [`run_rounds`] is the paper's loop, written once: close the local
//! store, route new derivations to the partitions that may need them,
//! exchange, repeat until the round verdict says stop. How a round's
//! triples travel and who decides the verdict is an [`Exchange`]'s job:
//! barrier rounds and the §VI-B asynchronous rounds in this module, the
//! TCP star in `owlpar-net`.
//!
//! # Fault containment
//!
//! The loop returns `Result` instead of panicking. A worker that fails —
//! persistent IO error, barrier timeout, contained panic — marks the
//! shared [`RunFlags`] as failed **before** defecting from the
//! [`RoundBarrier`], so by the time the barrier membership shrinks the
//! failure is already visible, and survivors drain with their
//! (monotonically correct, partial) stores intact for the master's
//! recovery pass. Sends to an already-dead peer come back `Disconnected`
//! and are skipped — the run's outcome is decided by the dead worker's
//! own structured error, not by a cascade.
//!
//! The failure flag is racy by nature: it can be raised between a
//! barrier's release and a survivor's flag check, so two survivors may
//! observe it one round apart (one breaks now, the other only after
//! another barrier crossing). The liveness rule that makes this safe is
//! that **every** exit from the round loop — failure drain, normal
//! quiescence, or structured error — defects from the barrier
//! ([`Exchange::leave`]), so a worker that leaves can never strand a
//! slower peer mid-round; the peer's next barrier releases against the
//! shrunken membership and its own flag check ends its loop.

use crate::backoff::Backoff;
use crate::barrier::RoundBarrier;
use crate::comm::WorkerComm;
use crate::cputime::CpuTimer;
use crate::error::{CommError, WorkerError};
use crate::stats::WorkerStats;
use owlpar_datalog::{Reasoner, Rule};
use owlpar_obs::{Metric, Phase, Track, NO_ROUND};
use owlpar_partition::RulePartitions;
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{NodeId, Triple, TripleStore};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a worker decides where a freshly derived triple must travel.
pub enum Routing {
    /// Data partitioning: a derived triple belongs on the owner of its
    /// subject and the owner of its object (the partition table of
    /// Algorithm 1).
    Data {
        /// The partition table.
        owner: Arc<FxHashMap<NodeId, u32>>,
    },
    /// Rule partitioning: a derived triple travels to every partition
    /// holding a rule whose body might consume it.
    Rule {
        /// The rule-base split of Algorithm 2.
        partitions: Arc<RulePartitions>,
        /// The complete rule-base (for body matching).
        all_rules: Arc<Vec<Rule>>,
    },
    /// Hybrid partitioning (the paper's §VII future work, after Shao et
    /// al.): rules split into groups, data split into shards; worker
    /// `g·d + j` holds rule group `g` over data shard `j`. A derived
    /// triple goes to every interested rule group × both owner shards.
    Hybrid {
        /// Data-ownership table (shard ids `0..d`).
        owner: Arc<FxHashMap<NodeId, u32>>,
        /// Rule grouping (group ids `0..g`).
        groups: Arc<RulePartitions>,
        /// The complete rule-base.
        all_rules: Arc<Vec<Rule>>,
        /// Number of data shards (`d`).
        data_shards: u32,
    },
}

impl Routing {
    /// Destinations of `t` other than `me`.
    pub fn destinations(&self, t: &Triple, me: u32, out: &mut Vec<u32>) {
        out.clear();
        match self {
            Routing::Data { owner } => {
                let a = owner.get(&t.s).copied();
                let b = owner.get(&t.o).copied();
                if let Some(x) = a {
                    if x != me {
                        out.push(x);
                    }
                }
                if let Some(y) = b {
                    if y != me && a != Some(y) {
                        out.push(y);
                    }
                }
            }
            Routing::Rule {
                partitions,
                all_rules,
            } => {
                out.extend(partitions.consumers(all_rules, t, me));
            }
            Routing::Hybrid {
                owner,
                groups,
                all_rules,
                data_shards,
            } => {
                let a = owner.get(&t.s).copied();
                let b = owner.get(&t.o).copied();
                for g in groups.interested_groups(all_rules, t) {
                    for shard in [a, b].into_iter().flatten() {
                        let widx = g * data_shards + shard;
                        if widx != me && !out.contains(&widx) {
                            out.push(widx);
                        }
                    }
                }
            }
        }
    }
}

/// Run-wide failure flag shared by all workers and the master.
///
/// Set by a failing worker *before* it defects from the barrier, so the
/// barrier's release order guarantees every survivor observes it at the
/// same round's exit check.
#[derive(Default)]
pub struct RunFlags {
    failed: AtomicBool,
}

impl RunFlags {
    /// Fresh, un-failed flags.
    pub fn new() -> Self {
        RunFlags::default()
    }

    /// Mark the run as having lost a worker.
    pub fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
    }

    /// Has any worker been lost?
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }
}

/// Shared state for distributed termination detection in the
/// asynchronous mode: exit when every worker is idle and every sent
/// triple has been processed.
#[derive(Default)]
pub struct AsyncControl {
    /// Cumulative triples sent (incremented *before* the send).
    pub total_sent: AtomicU64,
    /// Cumulative received triples fully processed.
    pub total_done: AtomicU64,
    /// Workers currently idle (inbox empty, nothing to derive).
    pub idle: AtomicUsize,
    /// Latched once global quiescence is observed (or a worker is lost —
    /// the async mode has no barrier, so the exit flag doubles as its
    /// failure broadcast).
    pub exit: AtomicBool,
}

/// How a worker's rounds are synchronized with its peers.
pub enum RoundSync {
    /// Barrier-synchronized rounds (Algorithm 3).
    Barrier {
        /// Round barrier shared by all workers (timeout- and
        /// defection-aware).
        barrier: Arc<RoundBarrier>,
        /// Cumulative count of triples sent by anyone (termination
        /// detector).
        total_sent: Arc<AtomicU64>,
        /// Patience at each barrier crossing.
        round_timeout: Duration,
    },
    /// The asynchronous variant of §VI-B; requires the channel transport.
    Async(Arc<AsyncControl>),
}

/// Everything a worker thread needs.
pub struct WorkerCtx {
    /// Worker index (== partition id).
    pub id: usize,
    /// Total number of workers.
    pub k: usize,
    /// Private store, pre-loaded with the schema and this partition's
    /// base tuples.
    pub store: TripleStore,
    /// The wrapped serial reasoner (complete rule-base for data
    /// partitioning; this partition's subset for rule partitioning).
    pub reasoner: Reasoner,
    /// Triple routing policy.
    pub routing: Routing,
    /// Communication endpoint.
    pub comm: WorkerComm,
    /// Round synchronization: barrier or asynchronous.
    pub sync: RoundSync,
    /// Run-wide failure flag.
    pub flags: Arc<RunFlags>,
    /// Last round this worker entered — read by the master's panic
    /// containment to report *where* a worker died.
    pub progress: Arc<AtomicUsize>,
}

/// The transport half of an Algorithm 3 round, driven by [`run_rounds`].
/// Hooks are called in this order each round: `begin_round`, `send`,
/// `finish_round`; then once, on leaving the loop, `fail` (only when an
/// error ends the run) followed by `leave`.
pub trait Exchange {
    /// What a failing exchange reports.
    type Error;

    /// Round `round` starts: fire injected faults and delays.
    fn begin_round(&mut self, round: usize) -> Result<(), Self::Error>;

    /// Ship `outbox[w]` to worker `w` (this worker's own slot is empty).
    /// Returns the triples sent.
    fn send(&mut self, round: usize, outbox: &[Vec<Triple>]) -> Result<u64, Self::Error>;

    /// Close round `round`, in which this worker sent `sent` triples:
    /// wait for the peers, collect the inbound triples and decide whether
    /// the run stops. Wait and collect spans go on `lane`.
    fn finish_round(
        &mut self,
        round: usize,
        sent: u64,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), Self::Error>;

    /// The run is ending with an error: broadcast the failure.
    fn fail(&mut self);

    /// Leave the run — on every exit path, after `fail` if it ran.
    fn leave(&mut self);
}

/// The trace round tag for loop round `round`.
fn trace_round(round: usize) -> u32 {
    u32::try_from(round).unwrap_or(NO_ROUND)
}

/// Run Algorithm 3's round loop for worker `me` of `k` to its stop
/// verdict: close `store`, route derivations through `routing`, exchange
/// through `exchange`, absorb, repeat. Returns the worker's counters
/// (`skipped`/`io_retries` are the transport's to fill in).
pub fn run_rounds<X: Exchange + ?Sized>(
    me: u32,
    k: usize,
    store: &mut TripleStore,
    reasoner: &Reasoner,
    routing: &Routing,
    lane: &mut Track,
    exchange: &mut X,
) -> Result<WorkerStats, X::Error> {
    let outcome = drive_rounds(me, k, store, reasoner, routing, lane, exchange);
    if outcome.is_err() {
        exchange.fail();
    }
    exchange.leave();
    outcome
}

fn drive_rounds<X: Exchange + ?Sized>(
    me: u32,
    k: usize,
    store: &mut TripleStore,
    reasoner: &Reasoner,
    routing: &Routing,
    lane: &mut Track,
    exchange: &mut X,
) -> Result<WorkerStats, X::Error> {
    let mut stats = WorkerStats {
        id: me as usize,
        ..WorkerStats::default()
    };
    // CPU charged to the round in progress (reason + io); closed with the
    // round's sends so the master can replay the synchronous schedule.
    let mut round_cpu = Duration::ZERO;
    let mut dests: Vec<u32> = Vec::with_capacity(2);
    // `None` before round 0, whose join closes the base tuples; later
    // joins close the fresh part of the previous round's inbox.
    let mut inbox: Option<Vec<Triple>> = None;
    let mut open_round = None;
    for round in 0usize.. {
        let join_tag = round.checked_sub(1).map_or(NO_ROUND, trace_round);
        let span = lane.begin(Phase::Join, join_tag);
        let t = CpuTimer::start();
        let fresh: Vec<Triple> = match inbox.take() {
            None => store.iter().copied().collect(),
            Some(received) => received
                .into_iter()
                .filter(|tr| store.insert(*tr))
                .collect(),
        };
        let derived = reasoner.materialize_delta(store, fresh);
        let dt = t.elapsed();
        lane.end(span);
        stats.reason_time += dt;
        round_cpu += dt;
        stats.derived += derived.len();
        if let Some(span) = open_round.take() {
            lane.end(span);
        }

        stats.rounds += 1;
        let tag = trace_round(round);
        let round_span = lane.begin(Phase::Round, tag);
        exchange.begin_round(round)?;

        // route + send
        let span = lane.begin(Phase::Exchange, tag);
        let t = CpuTimer::start();
        let mut outbox: Vec<Vec<Triple>> = vec![Vec::new(); k];
        for tr in &derived {
            routing.destinations(tr, me, &mut dests);
            for &d in &dests {
                outbox[d as usize].push(*tr);
            }
        }
        let sent = exchange.send(round, &outbox)?;
        let dt = t.elapsed();
        lane.count(Phase::Exchange, tag, Metric::Sent, sent);
        lane.end(span);
        stats.sent += sent as usize;
        stats.io_time += dt;
        round_cpu += dt;
        // The round's CPU account closes with its sends; waiting and
        // collecting are charged to the next round.
        stats.round_cpu.push(std::mem::take(&mut round_cpu));

        let t = CpuTimer::start();
        let (received, stop) = exchange.finish_round(round, sent, lane)?;
        let dt = t.elapsed();
        lane.count(Phase::Collect, tag, Metric::Received, received.len() as u64);
        stats.received += received.len();
        stats.io_time += dt;
        round_cpu += dt;
        if stop {
            lane.end(round_span);
            break;
        }
        inbox = Some(received);
        open_round = Some(round_span);
    }
    if round_cpu > Duration::ZERO {
        stats.round_cpu.push(round_cpu); // trailing collect work
    }
    stats.output_size = store.len();
    Ok(stats)
}

/// Run an in-process worker to quiescence over the round
/// synchronization in `ctx.sync`. Returns the final local store and
/// stats, or a structured error if this worker dropped out of the run.
pub fn run_worker(ctx: WorkerCtx) -> Result<(TripleStore, WorkerStats), WorkerError> {
    let WorkerCtx {
        id,
        k,
        mut store,
        reasoner,
        routing,
        mut comm,
        sync,
        flags,
        progress,
    } = ctx;
    // Ambient tracing lane for this worker (one branch per span when the
    // recorder is disabled; flushed on drop, including error exits).
    let mut lane = owlpar_obs::global().track(&format!("worker {id}"));
    let local = Local {
        id,
        comm: &mut comm,
        flags: &flags,
        progress: &progress,
    };
    let mut exchange: Box<dyn Exchange<Error = WorkerError> + '_> = match &sync {
        RoundSync::Barrier {
            barrier,
            total_sent,
            round_timeout,
        } => Box::new(BarrierExchange {
            local,
            barrier,
            total_sent,
            round_timeout: *round_timeout,
            last_total: 0,
        }),
        RoundSync::Async(control) => Box::new(AsyncExchange {
            local,
            control,
            k,
            processed: 0,
        }),
    };
    let outcome = run_rounds(
        id as u32,
        k,
        &mut store,
        &reasoner,
        &routing,
        &mut lane,
        &mut *exchange,
    );
    drop(exchange); // releases `comm`
    let mut stats = outcome?;
    stats.skipped = comm.skipped().len();
    stats.io_retries = comm.io_retries as usize;
    Ok((store, stats))
}

/// The in-process state both local exchanges share.
struct Local<'a> {
    id: usize,
    comm: &'a mut WorkerComm,
    flags: &'a RunFlags,
    progress: &'a AtomicUsize,
}

impl Local<'_> {
    /// Record progress, then fire the faults pinned to `round`.
    fn begin_round(&mut self, round: usize) {
        self.progress.store(round, Ordering::Relaxed);
        self.comm.fire_scheduled_panic(round); // contained by the master
        if let Some(d) = self.comm.scheduled_delay(round) {
            std::thread::sleep(d);
        }
    }

    /// Send every batch of `outbox`. A hung-up peer is already dead and
    /// its own structured error decides the run, so its batch goes to
    /// `on_lost` instead of failing this worker. Returns the triples
    /// handed to live peers.
    fn send_all(
        &mut self,
        outbox: &[Vec<Triple>],
        mut on_lost: impl FnMut(u64),
    ) -> Result<u64, WorkerError> {
        let mut sent = 0u64;
        for (to, batch) in outbox.iter().enumerate() {
            match self.comm.send(to, batch) {
                Ok(()) => sent += batch.len() as u64,
                Err(CommError::Disconnected { .. }) => on_lost(batch.len() as u64),
                Err(source) => return Err(self.comm_error(source)),
            }
        }
        Ok(sent)
    }

    fn comm_error(&self, source: CommError) -> WorkerError {
        WorkerError::Comm {
            worker: self.id,
            source,
        }
    }
}

/// Barrier rounds over the in-process fabric.
struct BarrierExchange<'a> {
    local: Local<'a>,
    barrier: &'a RoundBarrier,
    total_sent: &'a AtomicU64,
    round_timeout: Duration,
    /// The cumulative send count at the previous round's verdict.
    last_total: u64,
}

impl BarrierExchange<'_> {
    /// Cross the barrier or fail with a structured timeout.
    fn cross(&self, round: usize, lane: &mut Track) -> Result<(), WorkerError> {
        let span = lane.begin(Phase::BarrierWait, trace_round(round));
        let crossed = self.barrier.wait(self.round_timeout);
        lane.end(span);
        crossed.map_err(|t| WorkerError::BarrierTimeout {
            worker: self.local.id,
            round,
            waited: t.waited,
        })
    }
}

impl Exchange for BarrierExchange<'_> {
    type Error = WorkerError;

    fn begin_round(&mut self, round: usize) -> Result<(), WorkerError> {
        self.local.begin_round(round);
        Ok(())
    }

    fn send(&mut self, _round: usize, outbox: &[Vec<Triple>]) -> Result<u64, WorkerError> {
        // Dropping a dead peer's batch is safe: recovery re-closes from
        // the surviving stores.
        let sent = self.local.send_all(outbox, |_| {})?;
        self.total_sent.fetch_add(sent, Ordering::SeqCst);
        Ok(sent)
    }

    fn finish_round(
        &mut self,
        round: usize,
        _sent: u64,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), WorkerError> {
        // barrier A closes the round's send window
        self.cross(round, lane)?;
        let span = lane.begin(Phase::Collect, trace_round(round));
        let received = self.local.comm.collect();
        lane.end(span);
        let received = received.map_err(|source| self.local.comm_error(source))?;
        // read the verdict inside the [A, B] window, then barrier B
        let now_total = self.total_sent.load(Ordering::SeqCst);
        self.cross(round, lane)?;
        // A lost worker drains every survivor in the same round (see the
        // module docs); a round in which nobody moved a triple is global
        // quiescence.
        let stop = self.local.flags.failed() || now_total == self.last_total;
        self.last_total = now_total;
        Ok((received, stop))
    }

    fn fail(&mut self) {
        self.local.flags.fail();
    }

    fn leave(&mut self) {
        // Leaving the run — on drain *or* quiescence — must shrink the
        // barrier membership: a peer that raced past our flag check may
        // already be waiting on the next barrier, and without this
        // defection it would stall there until its round timeout.
        self.barrier.defect();
    }
}

/// The asynchronous variant of §VI-B: no round barrier — a worker
/// consumes whatever has arrived and keeps deriving; one burst counts as
/// one round. Termination: every worker idle ∧ every sent triple
/// processed ([`AsyncControl`]). With no barrier to defect from, a
/// failing worker broadcasts through `AsyncControl::exit` instead, so no
/// survivor spins forever waiting for a quiescence that can no longer be
/// reached.
struct AsyncExchange<'a> {
    local: Local<'a>,
    control: &'a AsyncControl,
    k: usize,
    /// Triples handed to the engine by the last `finish_round` — closed by
    /// the time the next `send` runs, so counted done there.
    processed: u64,
}

impl AsyncExchange<'_> {
    fn try_collect(&mut self) -> Result<Vec<Triple>, WorkerError> {
        self.local
            .comm
            .try_collect()
            .map_err(|source| self.local.comm_error(source))
    }
}

impl Exchange for AsyncExchange<'_> {
    type Error = WorkerError;

    fn begin_round(&mut self, round: usize) -> Result<(), WorkerError> {
        self.local.begin_round(round);
        Ok(())
    }

    fn send(&mut self, _round: usize, outbox: &[Vec<Triple>]) -> Result<u64, WorkerError> {
        let c = self.control;
        // This worker is not idle until its next empty collect, so the
        // two counters may move in either order here.
        c.total_done
            .fetch_add(std::mem::take(&mut self.processed), Ordering::SeqCst);
        let sent: u64 = outbox.iter().map(|b| b.len() as u64).sum();
        c.total_sent.fetch_add(sent, Ordering::SeqCst);
        // A dead peer's share counts as done, so the in-flight counter
        // can still reach quiescence.
        self.local.send_all(outbox, |n| {
            c.total_done.fetch_add(n, Ordering::SeqCst);
        })?;
        Ok(sent)
    }

    fn finish_round(
        &mut self,
        _round: usize,
        _sent: u64,
        _lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), WorkerError> {
        // grab whatever has arrived; if nothing, go idle and watch for
        // quiescence
        let mut received = self.try_collect()?;
        if received.is_empty() {
            let c = self.control;
            c.idle.fetch_add(1, Ordering::SeqCst);
            // Idle polls sleep rather than spin, so waiting is not
            // charged to the worker's CPU account.
            let mut backoff = Backoff::new(Duration::from_micros(10), Duration::from_micros(200));
            loop {
                if c.exit.load(Ordering::SeqCst) {
                    return Ok((Vec::new(), true));
                }
                received = self.try_collect()?;
                if !received.is_empty() {
                    c.idle.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
                // all idle and nothing in flight ⇒ latch the exit flag
                if c.idle.load(Ordering::SeqCst) == self.k
                    && c.total_sent.load(Ordering::SeqCst) == c.total_done.load(Ordering::SeqCst)
                {
                    c.exit.store(true, Ordering::SeqCst);
                    return Ok((Vec::new(), true));
                }
                backoff.sleep();
            }
        }
        self.processed = received.len() as u64;
        Ok((received, false))
    }

    fn fail(&mut self) {
        self.local.flags.fail();
        self.control.exit.store(true, Ordering::SeqCst);
    }

    fn leave(&mut self) {}
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_datalog::ast::build::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn data_routing_dedupes_same_owner() {
        let mut owner = FxHashMap::default();
        owner.insert(NodeId(1), 2u32);
        owner.insert(NodeId(2), 2u32);
        let r = Routing::Data {
            owner: Arc::new(owner),
        };
        let mut out = Vec::new();
        r.destinations(&t(1, 9, 2), 0, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn data_routing_skips_self() {
        let mut owner = FxHashMap::default();
        owner.insert(NodeId(1), 0u32);
        owner.insert(NodeId(2), 1u32);
        let r = Routing::Data {
            owner: Arc::new(owner),
        };
        let mut out = Vec::new();
        r.destinations(&t(1, 9, 2), 0, &mut out);
        assert_eq!(out, vec![1]);
        r.destinations(&t(1, 9, 2), 1, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn data_routing_ignores_unowned_endpoints() {
        let mut owner = FxHashMap::default();
        owner.insert(NodeId(1), 1u32);
        let r = Routing::Data {
            owner: Arc::new(owner),
        };
        let mut out = Vec::new();
        // object 999 (a class) has no owner
        r.destinations(&t(1, 9, 999), 0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn rule_routing_matches_consumer_partitions() {
        use owlpar_partition::multilevel::PartitionOptions;
        let rules = vec![
            Rule::new(
                "p2q",
                atom(v(0), c(NodeId(20)), v(1)),
                vec![atom(v(0), c(NodeId(10)), v(1))],
            )
            .unwrap(),
            Rule::new(
                "q2r",
                atom(v(0), c(NodeId(30)), v(1)),
                vec![atom(v(0), c(NodeId(20)), v(1))],
            )
            .unwrap(),
        ];
        let parts = owlpar_partition::partition_rules(
            &rules,
            2,
            None,
            &PartitionOptions::default(),
        );
        let all = Arc::new(rules);
        let routing = Routing::Rule {
            partitions: Arc::new(parts.clone()),
            all_rules: Arc::clone(&all),
        };
        let mut out = Vec::new();
        // a predicate-20 triple interests the partition holding rule q2r
        let q_home = parts.assignment[1];
        routing.destinations(&t(5, 20, 6), 1 - q_home, &mut out);
        assert_eq!(out, vec![q_home]);
    }

    #[test]
    fn run_flags_latch() {
        let f = RunFlags::new();
        assert!(!f.failed());
        f.fail();
        assert!(f.failed());
        f.fail();
        assert!(f.failed());
    }

    /// A scripted exchange for worker 0 of 2: round `r` collects
    /// `script[r]` and the last entry carries the stop verdict;
    /// `fail_at = (r, hook)` makes that hook fail in round `r`. Every hook
    /// call is logged.
    #[derive(Default)]
    struct Scripted {
        script: Vec<Vec<Triple>>,
        fail_at: Option<(usize, &'static str)>,
        to_peer: Vec<Vec<Triple>>,
        log: Vec<&'static str>,
    }

    impl Scripted {
        fn hook(&mut self, name: &'static str, round: usize) -> Result<(), String> {
            self.log.push(name);
            match self.fail_at {
                Some(at) if at == (round, name) => Err(format!("{name} failed in round {round}")),
                _ => Ok(()),
            }
        }
    }

    impl Exchange for Scripted {
        type Error = String;

        fn begin_round(&mut self, round: usize) -> Result<(), String> {
            self.hook("begin", round)
        }

        fn send(&mut self, round: usize, outbox: &[Vec<Triple>]) -> Result<u64, String> {
            self.hook("send", round)?;
            assert!(outbox[0].is_empty(), "nothing is routed to self");
            self.to_peer.push(outbox[1].clone());
            Ok(outbox[1].len() as u64)
        }

        fn finish_round(
            &mut self,
            round: usize,
            _sent: u64,
            _lane: &mut Track,
        ) -> Result<(Vec<Triple>, bool), String> {
            self.hook("finish", round)?;
            // Burn a little CPU so every collect shows in the account.
            let t = CpuTimer::start();
            while t.elapsed() == Duration::ZERO {
                std::hint::spin_loop();
            }
            let stop = round + 1 >= self.script.len();
            Ok((self.script.get(round).cloned().unwrap_or_default(), stop))
        }

        fn fail(&mut self) {
            self.log.push("fail");
        }

        fn leave(&mut self) {
            self.log.push("leave");
        }
    }

    /// Run `x` under `p ⊑ q` (predicates 10, 20) over a store holding
    /// `1 p 2`, nodes 2 and 4 owned by worker 1.
    fn run(x: &mut Scripted, rec: &owlpar_obs::Recorder) -> Result<WorkerStats, String> {
        let rule = Rule::new(
            "p2q",
            atom(v(0), c(NodeId(20)), v(1)),
            vec![atom(v(0), c(NodeId(10)), v(1))],
        )
        .unwrap();
        let owner = [(NodeId(1), 0), (NodeId(2), 1), (NodeId(4), 1)];
        let routing = Routing::Data {
            owner: Arc::new(owner.into_iter().collect()),
        };
        let mut store: TripleStore = [t(1, 10, 2)].into_iter().collect();
        let mut lane = rec.track("worker 0");
        let reasoner = Reasoner::forward(vec![rule]);
        run_rounds(0, 2, &mut store, &reasoner, &routing, &mut lane, x)
    }

    #[test]
    fn run_rounds_drives_productive_rounds_to_the_stop_verdict() {
        let rec = owlpar_obs::Recorder::enabled();
        let mut x = Scripted {
            script: vec![vec![t(3, 10, 4)], vec![t(5, 10, 4)], Vec::new()],
            ..Scripted::default()
        };
        let stats = run(&mut x, &rec).unwrap();
        assert_eq!((stats.rounds, stats.sent, stats.received), (3, 3, 2));
        assert_eq!((stats.derived, stats.output_size), (3, 6));
        // One CPU entry per round plus the trailing collect.
        assert_eq!(stats.round_cpu.len(), stats.rounds + 1);
        // Each round's derivation went to the owner of its object.
        let want = [t(1, 20, 2), t(3, 20, 4), t(5, 20, 4)].map(|tr| vec![tr]);
        assert_eq!(x.to_peer, want);
        assert_eq!(x.log.last(), Some(&"leave"));
        assert!(!x.log.contains(&"fail"));
        // The engine's spans: one Round and one Exchange per round, the
        // base close plus one Join per non-final round.
        let book = rec.drain();
        for phase in [Phase::Round, Phase::Exchange, Phase::Join] {
            let n = book
                .events
                .iter()
                .filter(|e| matches!(e, owlpar_obs::Event::Span { phase: p, .. } if *p == phase));
            assert_eq!(n.count(), 3, "{phase:?} spans");
        }
    }

    #[test]
    fn run_rounds_fails_before_leaving_once_on_error() {
        let rec = owlpar_obs::Recorder::disabled();
        let mut x = Scripted {
            script: vec![vec![t(3, 10, 4)], Vec::new()],
            fail_at: Some((1, "send")),
            ..Scripted::default()
        };
        assert_eq!(run(&mut x, &rec).unwrap_err(), "send failed in round 1");
        let want = ["begin", "send", "finish", "begin", "send", "fail", "leave"];
        assert_eq!(x.log, want);

        let mut x = Scripted {
            fail_at: Some((0, "finish")),
            ..Scripted::default()
        };
        assert_eq!(run(&mut x, &rec).unwrap_err(), "finish failed in round 0");
        assert_eq!(x.log, ["begin", "send", "finish", "fail", "leave"]);
    }

    #[test]
    fn run_rounds_leaves_on_quiescent_exit() {
        let mut x = Scripted::default();
        let stats = run(&mut x, &owlpar_obs::Recorder::disabled()).unwrap();
        assert_eq!((stats.rounds, stats.received), (1, 0));
        assert_eq!(x.log, ["begin", "send", "finish", "leave"]);
    }
}
