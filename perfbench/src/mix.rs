//! The query/INSERT mix: LUBM Q1–Q14 round-robin with every tenth
//! operation an INSERT batch in place of the query due in that slot, and
//! the latency summary shared by the in-process (batch workloads) and
//! the served (serve workload) runs.

use crate::check::{insert_batch, Reference};
use crate::child::Emit;
use crate::spans::{Tracer, ROOT};
use crate::stats::{median, percentile, samples_needed};
use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::HorstReasoner;
use owlpar_query::{execute, lubm, parse_query_frozen};
use owlpar_rdf::{Dictionary, Graph, TripleSource};
use owlpar_serve::ServingKb;
use std::time::{Duration, Instant};

/// LUBM Q1–Q14.
pub const QUERIES: usize = 14;
/// Every `INSERT_EVERY`-th operation is an INSERT.
pub const INSERT_EVERY: usize = 10;
/// Query percentile reported next to the median.
pub const QUERY_TAIL: f64 = 0.99;
/// INSERT percentile reported next to the median: inserts are a tenth of
/// the traffic, so p90 is the highest with enough samples in a short run.
pub const INSERT_TAIL: f64 = 0.90;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Index into `lubm::queries()`.
    Query(usize),
    /// INSERT batch sequence number.
    Insert(usize),
}

/// The `i`-th operation of the mix. An INSERT takes the slot of the query
/// due there, so over 70 operations seven queries run five times and
/// seven run four times. With equal shares, half of all queries would be
/// exactly the seven fastest kinds, and the median would sit on the edge
/// between two kinds of query and jump between them from run to run.
pub fn op(i: usize) -> Op {
    if i % INSERT_EVERY == INSERT_EVERY - 1 {
        Op::Insert(i / INSERT_EVERY)
    } else {
        Op::Query(i % QUERIES)
    }
}

/// Fewest operations whose queries and inserts both reach the sample
/// counts their reported percentiles need.
pub fn ops_needed() -> usize {
    let (q, i) = (samples_needed(QUERY_TAIL), samples_needed(INSERT_TAIL));
    (1..)
        .find(|&n| n / INSERT_EVERY >= i && n - n / INSERT_EVERY >= q)
        .unwrap_or(usize::MAX)
}

/// The share of the mix one process runs: operations
/// `[index·n/of, (index+1)·n/of)`. Splitting the mix over processes and
/// pooling their samples evens out how fast any one process happens to
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Part {
    pub index: usize,
    pub of: usize,
}

impl Part {
    pub const WHOLE: Part = Part { index: 0, of: 1 };

    pub fn range(self, n: usize) -> std::ops::Range<usize> {
        self.index * n / self.of..(self.index + 1) * n / self.of
    }

    pub fn parse(s: &str) -> Option<Part> {
        let (i, of) = s.split_once('/')?;
        let p = Part {
            index: i.parse().ok()?,
            of: of.parse().ok()?,
        };
        (p.index < p.of).then_some(p)
    }
}

impl std::fmt::Display for Part {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

/// One finished operation. A failed one counts as missing every latency
/// limit, so it enters the percentiles as an infinite latency.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub insert: bool,
    pub latency: Duration,
    pub ok: bool,
}

/// Report each operation's latency, to be pooled across processes.
pub fn emit(samples: &[Sample], out: &mut Emit) {
    for s in samples {
        let ms = if s.ok {
            s.latency.as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        };
        out.sample(if s.insert { "insert" } else { "query" }, ms);
    }
    out.ops(samples.len(), samples.iter().filter(|s| !s.ok).count());
}

/// The four latency metrics of the pooled samples. A failed operation's
/// infinite latency is reported as `f64::MAX`.
pub fn summarize(queries: &[f64], inserts: &[f64]) -> Result<[(&'static str, f64); 4], String> {
    let at = |v: &[f64], q: f64, what: &str| {
        percentile(v, q).map(|x| x.min(f64::MAX)).ok_or_else(|| {
            format!(
                "{} {what} samples are too few for the p{}",
                v.len(),
                q * 100.0
            )
        })
    };
    Ok([
        ("query_p50_ms", at(queries, 0.5, "query")?),
        ("query_p99_ms", at(queries, QUERY_TAIL, "query")?),
        ("insert_p50_ms", at(inserts, 0.5, "insert")?),
        ("insert_p90_ms", at(inserts, INSERT_TAIL, "insert")?),
    ])
}

/// `query.Q*_ms` (median of three passes of parse + execute) and
/// `query.rows` on a closed store.
pub fn time_queries<S: TripleSource + ?Sized>(
    store: &S,
    dict: &Dictionary,
    out: &mut Emit,
) -> Result<(), String> {
    const PASSES: usize = 3;
    let queries = lubm::queries();
    let mut times = vec![Vec::new(); QUERIES];
    let mut rows = 0usize;
    for pass in 0..PASSES {
        for (i, (name, _, src)) in queries.iter().enumerate() {
            let t = Instant::now();
            let q = parse_query_frozen(src, dict).map_err(|e| format!("{name}: {e}"))?;
            let n = std::hint::black_box(execute(store, &q)).len();
            times[i].push(t.elapsed().as_secs_f64() * 1e3);
            if pass == 0 {
                rows += n;
            }
        }
    }
    for (i, t) in times.iter().enumerate() {
        let name = QUERY_METRICS[i];
        out.metric(name, median(t).unwrap_or(0.0));
    }
    out.metric("query.rows", rows as f64);
    Ok(())
}

const QUERY_METRICS: [&str; QUERIES] = [
    "query.Q1_ms",
    "query.Q2_ms",
    "query.Q3_ms",
    "query.Q4_ms",
    "query.Q5_ms",
    "query.Q6_ms",
    "query.Q7_ms",
    "query.Q8_ms",
    "query.Q9_ms",
    "query.Q10_ms",
    "query.Q11_ms",
    "query.Q12_ms",
    "query.Q13_ms",
    "query.Q14_ms",
];

/// The mix as a closed loop in this process, on the closure a batch
/// workload just wrote: queries parse and execute on the current
/// snapshot, INSERTs go through `ServingKb::insert_ntriples` (no WAL).
pub fn run_in_process(
    mut g: Graph,
    reference: &Reference,
    tracer: &Tracer,
    part: Part,
    out: &mut Emit,
) {
    let reasoner = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
    let kb = ServingKb::from_closed(g, reasoner);
    let queries = lubm::queries();
    let mut samples = Vec::new();
    let (mut derived, mut added) = (0u64, 0u64);
    for i in part.range(ops_needed()) {
        let (ok, latency) = match op(i) {
            Op::Query(q) => tracer.span(queries[q].0, "mix", ROOT, |_| {
                let snap = kb.snapshot();
                parse_query_frozen(&queries[q].2, &snap.dict).is_ok_and(|parsed| {
                    execute(&snap.store, &parsed).len() as u64
                        == reference.expected_rows(q, snap.epoch)
                })
            }),
            Op::Insert(seq) => tracer.span("insert", "mix", ROOT, |_| {
                kb.insert_ntriples(&insert_batch(seq)).is_ok_and(|r| {
                    derived += r.derived as u64;
                    added += r.added as u64;
                    r.added as u64 == reference.batch_added
                        && r.derived as u64 == reference.batch_derived
                })
            }),
        };
        samples.push(Sample {
            insert: matches!(op(i), Op::Insert(_)),
            latency,
            ok,
        });
    }
    if tracer.enabled() {
        let inserts = samples.iter().filter(|s| s.insert).count() as u64;
        delta_metrics(derived, added, inserts, out);
    }
    emit(&samples, out);
}

/// `horst.delta_*` from the INSERT results: closure triples derived per
/// INSERT batch, and per triple added.
pub fn delta_metrics(derived: u64, added: u64, inserts: u64, out: &mut Emit) {
    let per = |n: u64| {
        if n > 0 {
            derived as f64 / n as f64
        } else {
            0.0
        }
    };
    out.metric("horst.delta_derived", per(inserts));
    out.metric("horst.delta_per_added", per(added));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tenth_operation_inserts_in_a_query_slot() {
        assert_eq!(op(0), Op::Query(0));
        assert_eq!(op(9), Op::Insert(0));
        assert_eq!(op(10), Op::Query(10));
        assert_eq!(op(14), Op::Query(0));
        assert_eq!(op(19), Op::Insert(1));
        let mut share = [0; QUERIES];
        for i in 0..70 {
            if let Op::Query(q) = op(i) {
                share[q] += 1;
            }
        }
        share.sort_unstable();
        assert_eq!(share, [4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5]);
    }

    #[test]
    fn the_run_is_sized_for_its_percentiles() {
        let n = ops_needed();
        let inserts = (0..n).filter(|&i| matches!(op(i), Op::Insert(_))).count();
        assert!(inserts >= samples_needed(INSERT_TAIL));
        assert!(n - inserts >= samples_needed(QUERY_TAIL));
        assert!(n - 1 - (n - 1) / INSERT_EVERY < samples_needed(QUERY_TAIL));
    }

    #[test]
    fn a_failed_operation_counts_as_missing_the_limit() {
        let n = ops_needed();
        let inserts = n / INSERT_EVERY;
        let (q, mut i) = (vec![1.0; n - inserts], vec![1.0; inserts]);
        assert_eq!(
            summarize(&q, &i).expect("enough samples")[3],
            ("insert_p90_ms", 1.0)
        );
        for x in i.iter_mut().take(20) {
            *x = f64::INFINITY;
        }
        assert_eq!(
            summarize(&q, &i).expect("enough samples")[3],
            ("insert_p90_ms", f64::MAX)
        );
        assert!(summarize(&q[1..], &i).is_err());
    }

    #[test]
    fn parts_cover_the_mix_once() {
        let n = ops_needed();
        let halves = [Part { index: 0, of: 2 }, Part { index: 1, of: 2 }];
        assert_eq!(halves[0].range(n).end, halves[1].range(n).start);
        assert_eq!(halves[1].range(n).end, n);
        assert_eq!(Part::parse("1/2"), Some(halves[1]));
        assert_eq!(Part::parse(&halves[1].to_string()), Some(halves[1]));
        assert_eq!(Part::parse("2/2"), None);
        assert_eq!(Part::WHOLE.range(n), 0..n);
    }
}
