//! End-to-end benchmark of owlpar.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). The seed generates the workload's KB;
//! set-up writes it as N-Triples under `.perfbench_work/` and computes
//! the `run_serial` reference in a child process. Every repetition then
//! runs in a child process of its own, reading only that file. The last
//! line of standard output is the JSON result: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics (from the benchmark's own
//! spans and the counters the program returns) with `--trace 1`.
//! README.md describes the workloads and what each metric measures.

mod check;
mod child;
mod mix;
mod report;
mod serving;
mod spans;
mod stats;
mod workload;

use child::{Emit, Report};
use mix::Part;
use report::{Outcome, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Everything a run does must end within this, set-up included.
const RUN_BUDGET: Duration = Duration::from_secs(170);
/// Work files of every run live under this directory of the checkout.
const WORK_DIR: &str = ".perfbench_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Emit::default();
    let result = match args.first().map(String::as_str) {
        Some("prepare") => prepare_child(&args[1..], &mut out),
        Some("rep") => rep_child(&args[1..], &mut out),
        _ => {
            return match orchestrate(&args) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    };
    child::finish(out, result)
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <materialize-lubm20|cluster-uobm10|serve-lubm5> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let flag = |name: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == name).ok_or(USAGE)?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| USAGE.to_string())
    };
    let workload = flag("--workload")?;
    let workload = Workload::parse(workload)
        .ok_or_else(|| format!("unknown workload '{workload}'\n{USAGE}"))?;
    let seed = flag("--seed")?
        .parse()
        .map_err(|_| format!("--seed: a whole number\n{USAGE}"))?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|_| format!("--seconds\n{USAGE}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err(USAGE.into()),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn orchestrate(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let work = root.join(WORK_DIR);
    let dir = work.join(format!(
        "{}-seed{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let deadline = Instant::now() + RUN_BUDGET;
    let result = measure(&opts, &root, &dir, &work, deadline);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = result?;
    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    outcome.to_json(catalogue)
}

/// One planned child run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The workload's timed run (on serve, its set-up).
    Run,
    /// The timed run, then a part of the query/INSERT mix (on serve, of
    /// the open-loop load).
    Mix(Part),
}

impl Step {
    fn arg(self) -> String {
        match self {
            Step::Run => "run".into(),
            Step::Mix(part) => format!("mix:{part}"),
        }
    }

    fn parse(s: &str) -> Option<Step> {
        match s {
            "run" => Some(Step::Run),
            _ => Part::parse(s.strip_prefix("mix:")?).map(Step::Mix),
        }
    }
}

fn measure(
    opts: &Options,
    root: &Path,
    dir: &Path,
    work: &Path,
    deadline: Instant,
) -> Result<Outcome, String> {
    let w = opts.workload;
    let dir_arg = dir.to_string_lossy().into_owned();
    let prep = child::run(
        &[
            "prepare".into(),
            w.name().into(),
            opts.seed.to_string(),
            dir_arg.clone(),
        ],
        root,
        deadline,
    );
    if !prep.ok() {
        return Err(format!("set-up failed: {}", prep.failures.join("; ")));
    }

    // The mix is split over the timed processes and their samples are
    // pooled. Serve set-ups are short, so serve takes five `setup_s`
    // samples. Traced runs alternate untraced and traced repetitions, so
    // the tracing overhead is measured under the same conditions.
    use Step::*;
    let part = |index, of| (false, Mix(Part { index, of }));
    let batch = w != Workload::Serve;
    let plan: Vec<(bool, Step)> = match (batch, opts.trace) {
        (_, true) => vec![
            (false, Run),
            (true, Mix(Part::WHOLE)),
            (false, Run),
            (true, Run),
        ],
        (true, false) => (0..5).map(|i| part(i, 5)).collect(),
        (false, false) => vec![
            part(0, 2),
            part(1, 2),
            (false, Run),
            (false, Run),
            (false, Run),
        ],
    };
    let started = Instant::now();
    let mut reps: Vec<(bool, Report)> = Vec::new();
    let mut i = 0;
    loop {
        let (traced, step) = match plan.get(i) {
            Some(&s) => s,
            // Untraced batch runs repeat until the run length is used up.
            None if batch && !opts.trace && started.elapsed().as_secs_f64() < opts.seconds => {
                (false, Run)
            }
            None => break,
        };
        let trace_out = work.join(format!("trace-{}-seed{}-rep{i}.json", w.name(), opts.seed));
        let args = vec![
            "rep".to_string(),
            step.arg(),
            w.name().into(),
            dir_arg.clone(),
            u8::from(traced).to_string(),
            opts.seconds.to_string(),
            trace_out.to_string_lossy().into_owned(),
        ];
        let report = child::run(&args, root, deadline);
        for f in &report.failures {
            eprintln!("perfbench: repetition {i} failed: {f}");
        }
        reps.push((traced, report));
        if Instant::now() >= deadline {
            break;
        }
        i += 1;
    }
    aggregate(w, opts.trace, &reps)
}

/// Fold the repetitions into the run's result. A failed repetition
/// counts as a failed operation and contributes no timing.
fn aggregate(w: Workload, trace: bool, reps: &[(bool, Report)]) -> Result<Outcome, String> {
    let mut o = Outcome::new();
    for (_, r) in reps {
        o.op(r.ok());
        o.attempted += r.attempted;
        o.failed += r.failed;
    }
    let good = || reps.iter().filter(|(_, r)| r.ok());
    let median_of = |traced: Option<bool>, name: &str| {
        let v: Vec<f64> = good()
            .filter(|(t, _)| traced.is_none_or(|want| *t == want))
            .filter_map(|(_, r)| r.metrics.get(name).copied())
            .collect();
        stats::median(&v)
    };
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    for m in catalogue {
        let traced = trace.then_some(true);
        if let Some(v) = median_of(traced, m.name) {
            o.set(m.name, v);
        }
    }
    let pooled = |kind: &str| -> Vec<f64> {
        good()
            .flat_map(|(_, r)| r.samples.get(kind).into_iter().flatten().copied())
            .collect()
    };
    if !trace {
        match mix::summarize(&pooled("query"), &pooled("insert")) {
            Ok(latencies) => latencies.into_iter().for_each(|(name, v)| o.set(name, v)),
            Err(e) => eprintln!("perfbench: {e}"),
        }
    }
    if trace {
        if let Some(v) = stats::percentile(&pooled("late"), 0.99) {
            o.set("serve.gen_late_p99_ms", v);
        }
        if let (Some(t), Some(u)) = (
            median_of(Some(true), "wall_s"),
            median_of(Some(false), "wall_s"),
        ) {
            o.set("trace.overhead_s", t - u);
        }
        for m in PER_LAYER {
            if w.bypassed_layers().iter().any(|p| m.name.starts_with(p)) {
                o.values.entry(m.name).or_insert(0.0);
            }
        }
    }
    // A metric no successful repetition measured: with failures that is
    // their consequence and the metric reads as missing every limit;
    // without, it is a bug in this benchmark.
    for m in catalogue {
        if !o.values.contains_key(m.name) {
            if o.failed == 0 {
                return Err(format!("metric {} was not measured", m.name));
            }
            o.set(m.name, f64::MAX);
        }
    }
    Ok(o)
}

fn prepare_child(args: &[String], out: &mut Emit) -> Result<(), String> {
    let [w, seed, dir] = args else {
        return Err("prepare <workload> <seed> <dir>".into());
    };
    let w = Workload::parse(w).ok_or("unknown workload")?;
    let seed = seed.parse().map_err(|_| "seed")?;
    workload::prepare(w, seed, Path::new(dir), out)
}

fn rep_child(args: &[String], out: &mut Emit) -> Result<(), String> {
    let [step, w, dir, traced, seconds, trace_out] = args else {
        return Err("rep <step> <workload> <dir> <traced> <seconds> <trace-out>".into());
    };
    let step = Step::parse(step).ok_or("unknown step")?;
    let w = Workload::parse(w).ok_or("unknown workload")?;
    let seconds: f64 = seconds.parse().map_err(|_| "seconds")?;
    let dir = PathBuf::from(dir);
    let tracer = Tracer::new(traced == "1");
    let result = match (w, step) {
        (Workload::Serve, Step::Mix(part)) => {
            serving::run(&dir, &tracer, Some(serving::Load { seconds, part }), out)
        }
        (Workload::Serve, Step::Run) => serving::run(&dir, &tracer, None, out),
        (_, Step::Run) => workload::batch_rep(w, &dir, &tracer, None, out),
        (_, Step::Mix(part)) => workload::batch_rep(w, &dir, &tracer, Some(part), out),
    };
    if tracer.enabled() {
        std::fs::write(trace_out, tracer.to_chrome_json(std::process::id()))
            .map_err(|e| format!("writing {trace_out}: {e}"))?;
    }
    result
}

/// A fresh directory for one test, inside the checkout's work dir.
#[cfg(test)]
fn test_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(WORK_DIR)
        .join(format!("test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlpar_datagen::{generate_lubm, LubmConfig};

    fn report(wall: f64, ok: bool) -> Report {
        let mut r = Report::default();
        for m in END_TO_END {
            r.metrics.insert(m.name.to_string(), wall);
        }
        if !ok {
            r.failures.push("check closure failed".into());
        }
        r
    }

    #[test]
    fn a_failed_repetition_counts_and_contributes_no_timing() {
        let reps = [
            (false, report(1.0, true)),
            (false, report(99.0, false)),
            (false, report(3.0, true)),
        ];
        let o = aggregate(Workload::Materialize, false, &reps).expect("aggregate");
        assert_eq!((o.attempted, o.failed), (3, 1));
        assert_eq!(o.values.get("wall_s"), Some(&2.0));
    }

    #[test]
    fn a_wrong_reference_digest_fails_the_repetition() {
        let dir = test_dir("digest");
        workload::set_up(generate_lubm(&LubmConfig::mini(1)), &dir).expect("set-up");
        let run = |out: &mut Emit| {
            workload::batch_rep(Workload::Materialize, &dir, &Tracer::new(false), None, out)
        };

        let mut out = Emit::default();
        run(&mut out).expect("clean repetition");
        assert!(Report::parse(&out.lines().join("\n")).ok());

        // Corrupt the reference: the same run must now fail its check.
        let path = dir.join("reference.txt");
        let text = std::fs::read_to_string(&path).expect("reference");
        let wrong: String = text
            .lines()
            .map(|l| match l.strip_prefix("closure ") {
                Some(d) => format!("closure {}:0:0\n", d.split(':').next().unwrap_or("0")),
                None => format!("{l}\n"),
            })
            .collect();
        std::fs::write(&path, wrong).expect("write");
        let mut out = Emit::default();
        run(&mut out).expect("the repetition itself completes");
        let r = Report::parse(&out.lines().join("\n"));
        assert!(!r.ok());
        let o = aggregate(Workload::Materialize, false, &[(false, r)]).expect("aggregate");
        assert_eq!((o.attempted, o.failed), (1, 1));
        assert_eq!(o.values.get("wall_s"), Some(&f64::MAX));
        let line = o.to_json(END_TO_END).expect("json");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn options_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_options(&args(
            "--workload serve-lubm5 --seed 3 --seconds 20 --trace 0"
        ))
        .is_ok());
        assert!(parse_options(&args("--workload nope --seed 3 --seconds 20 --trace 0")).is_err());
        assert!(parse_options(&args(
            "--workload serve-lubm5 --seed x --seconds 20 --trace 0"
        ))
        .is_err());
        assert!(parse_options(&args(
            "--workload serve-lubm5 --seed 3 --seconds 20 --trace 2"
        ))
        .is_err());
        assert!(parse_options(&args("--workload serve-lubm5 --seed 3")).is_err());
    }
}
