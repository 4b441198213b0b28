//! The serve workload: a durable server on the closed KB, driven by an
//! open loop of queries and INSERTs over at most two connections.

use crate::check::{insert_batch, student_iri, Reference, BATCH_STUDENTS, RYW_QUERY};
use crate::child::Emit;
use crate::mix::{self, op, Op, Part, Sample};
use crate::spans::{Tracer, ROOT};
use crate::workload::{core_metrics, read_input, wire_mb, Workload};
use owlpar_core::run_parallel;
use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::HorstReasoner;
use owlpar_query::lubm;
use owlpar_serve::{
    run_info, serve, Client, Durability, DurabilityConfig, ServeConfig, ServeError, ServingKb,
};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load, requests per second: the mix's sample quota fits in a
/// 20 s load, and the generator stays on schedule (see
/// `serve.gen_late_p99_ms`).
pub const RATE: f64 = 60.0;
/// Client connections open at once, each with one request in flight.
const CONNECTIONS: usize = 2;
/// Server worker threads.
const THREADS: usize = 2;
/// Connections that may wait for a worker beyond `THREADS`. The load
/// holds at most two connections open, so no request is ever refused BUSY.
const MAX_PENDING: usize = 4;
/// WAL bytes between checkpoints, in INSERT batches: about one INSERT in
/// six takes a checkpoint, so checkpoint stalls reach the INSERT p90.
const BATCHES_PER_CHECKPOINT: u64 = 6;
/// The run is invalid when the achieved rate falls this far behind the
/// offered one (a growing backlog).
const MIN_ACHIEVED_SHARE: f64 = 0.97;

/// A share of the open-loop load: `part` of a load that lasts `seconds`
/// in all.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub seconds: f64,
    pub part: Part,
}

/// One served run: set-up (load, materialize, open the WAL, serve, first
/// PING); then, with `load`, the checks and that part of the open loop.
pub fn run(dir: &Path, tracer: &Tracer, load: Option<Load>, out: &mut Emit) -> Result<(), String> {
    let reference = Reference::load(&dir.join("reference.txt"))?;
    let data_dir = dir.join(format!("data-{}", std::process::id()));
    let result = run_in(dir, &data_dir, &reference, tracer, load, out);
    let _ = std::fs::remove_dir_all(&data_dir);
    result
}

fn run_in(
    dir: &Path,
    data_dir: &Path,
    reference: &Reference,
    tracer: &Tracer,
    load: Option<Load>,
    out: &mut Emit,
) -> Result<(), String> {
    let cfg = Workload::Serve.config();
    let t0 = Instant::now();
    let (set_up, setup) = tracer.span("setup", "main", ROOT, |root| {
        let (parsed, parse) = read_input(dir, tracer, root);
        let mut g = parsed?;
        let (made, materialize) = tracer.span("serve.materialize", "main", root, |id| {
            let (report, _) = tracer.span("core.run_parallel", "main", id, |_| {
                run_parallel(&mut g, &cfg)
            });
            let report = report.map_err(|e| format!("run_parallel: {e}"))?;
            let closed = t0.elapsed();
            let reasoner =
                HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
            let mut wal = DurabilityConfig::new(data_dir);
            wal.checkpoint_bytes = BATCHES_PER_CHECKPOINT * insert_batch(0).len() as u64;
            let (durability, _) =
                tracer.span("serve.wal_init", "main", id, |_| Durability::init(wal, &g));
            let durability = durability.map_err(|e| format!("opening the WAL: {e}"))?;
            let kb = ServingKb::from_closed(g, reasoner).with_durability(durability);
            Ok::<_, String>((kb, report, closed))
        });
        let (kb, report, closed) = made?;
        let snap0 = kb.snapshot();
        let serve_cfg = ServeConfig {
            threads: THREADS,
            max_pending: MAX_PENDING,
            ..ServeConfig::default()
        };
        let (ready, ready_s) = tracer.span("serve.ready", "main", root, |_| {
            let handle = serve(kb, run_info(&report), &serve_cfg)?;
            Client::connect(handle.addr())?.ping()?;
            Ok::<_, ServeError>(handle)
        });
        let handle = ready.map_err(|e| format!("starting the server: {e}"))?;
        Ok::<_, String>((handle, snap0, report, closed, parse, materialize, ready_s))
    });
    let (handle, snap0, report, closed, parse, materialize, ready) = set_up?;
    let addr = handle.addr();

    out.metric("wall_s", closed.as_secs_f64());
    out.metric("setup_s", setup.as_secs_f64());
    out.metric("wire_mb", wire_mb(&report));
    if tracer.enabled() {
        out.metric("rdf.parse_s", parse.as_secs_f64());
        core_metrics(&report, out);
        let timed = parse + report.partition_time + report.host_parallel_time;
        let unaccounted = closed.saturating_sub(timed + report.breakdown.aggregation);
        out.metric("core.unaccounted_s", unaccounted.as_secs_f64());
        out.metric("serve.materialize_s", materialize.as_secs_f64());
        out.metric("serve.ready_s", ready.as_secs_f64());
    }

    let loaded = match load {
        Some(load) => drive(&addr, reference, tracer, load, out).and_then(|()| {
            if tracer.enabled() {
                mix::time_queries(&snap0.store, &snap0.dict, out)?;
            }
            stats(&addr, tracer, out)
        }),
        None => Ok(()),
    };
    let stopped = Client::connect(addr)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("SHUTDOWN: {e}"))
        .and_then(|()| handle.join().map_err(|e| format!("server shutdown: {e}")));
    loaded?;
    stopped?;
    if load.is_some() {
        let checkpoints = owlpar_serve::checkpoint::list(data_dir)
            .map_err(|e| format!("listing checkpoints: {e}"))?
            .iter()
            .map(|(seq, _)| *seq)
            .max()
            .unwrap_or(0);
        out.check(
            "checkpoints",
            checkpoints >= 2,
            &format!("{checkpoints} checkpoint(s) taken during the run"),
        );
        if tracer.enabled() {
            out.metric("serve.checkpoints", checkpoints as f64);
        }
        out.metric("peak_rss_mb", crate::child::peak_rss_mb()?);
    }
    Ok(())
}

/// Epoch-0 checks, the open loop, then read-your-writes.
fn drive(
    addr: &SocketAddr,
    reference: &Reference,
    tracer: &Tracer,
    load: Load,
    out: &mut Emit,
) -> Result<(), String> {
    let queries = lubm::queries();
    let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let mut epoch0_failed = 0;
    for (q, (name, _, src)) in queries.iter().enumerate() {
        let rows = client.query(src).map(|r| (r.epoch, r.rows.len() as u64));
        let ok = matches!(rows, Ok((0, n)) if n == reference.rows0[q]);
        if !ok {
            epoch0_failed += 1;
            out.check(
                &format!("epoch0.{name}"),
                false,
                &format!("{rows:?} vs {}", reference.rows0[q]),
            );
        }
    }
    out.ops(queries.len(), epoch0_failed);
    // Each open connection holds a server worker: free this one.
    drop(client);

    let total = mix::ops_needed().max((RATE * load.seconds).ceil() as usize);
    let ops = load.part.range(total);
    let n = ops.len();
    let generated = open_loop(addr, reference, tracer, ops);
    let span = generated.last_done.as_secs_f64();
    let achieved = n as f64 / span;
    out.info(&format!(
        "serve: {n} requests at {RATE}/s offered, {achieved:.2}/s achieved over {span:.2} s"
    ));
    out.check(
        "backlog",
        achieved >= MIN_ACHIEVED_SHARE * RATE,
        &format!("achieved {achieved:.2}/s of {RATE}/s offered"),
    );
    for late in &generated.late {
        out.sample("late", late.as_secs_f64() * 1e3);
    }
    if tracer.enabled() {
        let inserts = generated.samples.iter().filter(|s| s.insert).count() as u64;
        mix::delta_metrics(generated.derived, generated.added, inserts, out);
    }
    mix::emit(&generated.samples, out);

    // Read-your-writes: every acknowledged student is listed, which
    // needs its inferred `Student` type.
    let ryw = Client::connect(addr)
        .and_then(|mut c| c.query(&queries[RYW_QUERY].2))
        .map_err(|e| format!("read-your-writes query: {e}"))?;
    let listed: HashSet<&str> = ryw
        .rows
        .iter()
        .filter_map(|r| r.first())
        .map(String::as_str)
        .collect();
    let missing = generated
        .acked
        .iter()
        .flat_map(|&seq| (0..BATCH_STUDENTS).map(move |j| format!("<{}>", student_iri(seq, j))))
        .filter(|s| !listed.contains(s.as_str()))
        .count();
    out.ops(1, usize::from(missing > 0));
    out.check(
        "read_your_writes",
        missing == 0 && ryw.epoch == generated.acked.len() as u64,
        &format!(
            "{missing} acknowledged student(s) missing at epoch {} after {} acked INSERT(s)",
            ryw.epoch,
            generated.acked.len()
        ),
    );
    Ok(())
}

struct Generated {
    samples: Vec<Sample>,
    late: Vec<Duration>,
    acked: Vec<usize>,
    derived: u64,
    added: u64,
    /// Completion of the last request, from the start of the schedule.
    last_done: Duration,
}

/// Request `i` is due `i / RATE` seconds after the start, whatever the
/// state of earlier requests; each connection takes the next due request
/// when it is free. Latency runs from when a request was due, so time a
/// request spends waiting for a free connection counts.
fn open_loop(
    addr: &SocketAddr,
    reference: &Reference,
    tracer: &Tracer,
    ops: std::ops::Range<usize>,
) -> Generated {
    let queries = lubm::queries();
    let (first, n) = (ops.start, ops.end);
    let next = AtomicUsize::new(first);
    let gathered = Mutex::new(Generated {
        samples: Vec::with_capacity(ops.len()),
        late: Vec::with_capacity(ops.len()),
        acked: Vec::new(),
        derived: 0,
        added: 0,
        last_done: Duration::ZERO,
    });
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for c in 0..CONNECTIONS {
            let (next, gathered, queries) = (&next, &gathered, &queries);
            let lane = format!("conn{c}");
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let due = start + Duration::from_secs_f64((i - first) as f64 / RATE);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let client = Client::connect(addr);
                let (ok, name, delta) = match op(i) {
                    Op::Query(q) => {
                        let ok = client
                            .and_then(|mut c| c.query(&queries[q].2))
                            .is_ok_and(|r| {
                                r.rows.len() as u64 == reference.expected_rows(q, r.epoch)
                            });
                        (ok, queries[q].0, None)
                    }
                    Op::Insert(seq) => {
                        match client.and_then(|mut c| c.insert(&insert_batch(seq))) {
                            Ok(r) => {
                                let ok = u64::from(r.added) == reference.batch_added
                                    && u64::from(r.derived) == reference.batch_derived;
                                (ok, "insert", Some((seq, r.added, r.derived)))
                            }
                            Err(_) => (false, "insert", None),
                        }
                    }
                };
                let done = Instant::now();
                tracer.record_at(name, &lane, ROOT, sent, done - sent);
                let mut g = gathered
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                g.samples.push(Sample {
                    insert: matches!(op(i), Op::Insert(_)),
                    latency: done.saturating_duration_since(due),
                    ok,
                });
                g.late.push(sent.saturating_duration_since(due));
                if let Some((seq, added, derived)) = delta {
                    g.added += u64::from(added);
                    g.derived += u64::from(derived);
                    if ok {
                        g.acked.push(seq);
                    }
                }
                g.last_done = g.last_done.max(done.saturating_duration_since(start));
            });
        }
    });
    gathered
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server-side counters from STATS.
fn stats(addr: &SocketAddr, tracer: &Tracer, out: &mut Emit) -> Result<(), String> {
    let json = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS: {e}"))?;
    let field = |k: &str| json_number(&json, k).ok_or_else(|| format!("STATS lacks {k}"));
    let (busy, errors) = (field("busy_rejections")?, field("errors")?);
    out.check(
        "server_errors",
        busy == 0.0 && errors == 0.0,
        &format!("{busy} BUSY rejection(s), {errors} error(s)"),
    );
    if tracer.enabled() {
        out.metric("serve.busy_rejections", busy);
        out.metric("serve.errors", errors);
        for (metric, key) in [
            ("serve.query_service_p50_ms", "query_p50_us"),
            ("serve.query_service_p99_ms", "query_p99_us"),
            ("serve.insert_service_p50_ms", "insert_p50_us"),
            ("serve.insert_service_p99_ms", "insert_p99_us"),
        ] {
            out.metric(metric, field(key)? / 1e3);
        }
    }
    Ok(())
}

/// The number after `"key":` in a flat JSON object.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fields_are_read() {
        let j = "{\"epoch\":3,\"errors\":0,\"busy_rejections\":12,\"query_p99_us\":6543}";
        assert_eq!(json_number(j, "busy_rejections"), Some(12.0));
        assert_eq!(json_number(j, "query_p99_us"), Some(6543.0));
        assert_eq!(json_number(j, "missing"), None);
    }

    #[test]
    fn the_offered_rate_fills_the_sample_quota_within_a_run() {
        assert!(RATE * 20.0 >= mix::ops_needed() as f64);
    }
}
