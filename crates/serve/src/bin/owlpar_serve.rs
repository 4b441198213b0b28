//! The `owlpar-serve` command-line tool: run a KB server, or talk to
//! one.
//!
//! ```text
//! owlpar-serve run <kb.nt|kb.owlpar> [--addr 127.0.0.1:7878] [--k 2]
//!                  [--threads 4] [--strategy graph|hash|domain|rule|hybrid|auto]
//!                  [--data-dir <dir>] [--checkpoint-bytes <n>]
//!                  [--read-timeout-ms <n>] [--max-pending <n>]
//!                  [--crash-at <point[@occ][,...]>] [--trace-out <file>]
//! owlpar-serve query <addr> '<SPARQL>'
//! owlpar-serve insert <addr> <batch.nt|->
//! owlpar-serve stats <addr>
//! owlpar-serve ping <addr>
//! owlpar-serve shutdown <addr>
//! ```
//!
//! With `--data-dir`, every accepted INSERT is write-ahead logged and
//! the closed KB is checkpointed atomically; if the directory already
//! holds state, the server recovers from it (latest valid checkpoint +
//! WAL replay) and the `<kb>` argument is ignored. `--crash-at` injects
//! a real `abort(2)` at a durability crash point — the hook the CI
//! crash-recovery smoke job drives. `--trace-out` records the whole run
//! — initial materialization phases plus every query / insert /
//! checkpoint / WAL-fsync span — and writes a Chrome-trace JSON on
//! clean shutdown (live phase totals are scrapeable from STATS anytime).
//!
//! Exit codes mirror `owlpar`: 0 success, 1 usage/IO/remote error, 3 the
//! initial parallel materialization failed *or* the data directory is
//! unrecoverable.

use owlpar_core::{run_parallel, CrashPlan, ParallelConfig, PartitioningStrategy};
use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::HorstReasoner;
use owlpar_rdf::{parse_ntriples, snapshot, Graph};
use owlpar_serve::{
    has_state, recover, run_info, serve, Client, CrashAction, Durability, DurabilityConfig,
    RunInfo, ServeConfig, ServeError, ServingKb,
};
use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

enum CliError {
    Usage(String),
    /// Materialization failed or the data directory is unrecoverable —
    /// the states an operator cannot fix by retrying the same command.
    Fatal(String),
}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError::Usage(s)
    }
}

impl From<&str> for CliError {
    fn from(s: &str) -> Self {
        CliError::Usage(s.to_string())
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Run(r) => CliError::Fatal(format!("materialization failed: {r}")),
            ServeError::Recovery(r) => CliError::Fatal(format!("unrecoverable state: {r}")),
            other => CliError::Usage(other.to_string()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("owlpar-serve: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Fatal(e)) => {
            eprintln!("owlpar-serve: {e}");
            ExitCode::from(3)
        }
    }
}

fn run(args: Vec<String>) -> Result<(), CliError> {
    let cmd = args.first().cloned().unwrap_or_default();
    let rest = &args[args.len().min(1)..];
    match cmd.as_str() {
        "run" => run_server(rest),
        "query" => query(rest),
        "insert" => insert(rest),
        "stats" => stats(rest),
        "ping" => ping(rest),
        "shutdown" => shutdown(rest),
        _ => Err(format!(
            "usage: owlpar-serve <run|query|insert|stats|ping|shutdown> ... (got '{cmd}')"
        )
        .into()),
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn load_kb(path: &str) -> Result<Graph, CliError> {
    if path.ends_with(".owlpar") {
        let mut f =
            std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
        return snapshot::load(&mut f).map_err(|e| format!("loading {path}: {e}").into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut g = Graph::new();
    parse_ntriples(&text, &mut g).map_err(|e| format!("parsing {path}: {e}"))?;
    Ok(g)
}

/// Build the durability config from the CLI flags.
fn durability_config(args: &[String], dir: PathBuf) -> Result<DurabilityConfig, CliError> {
    let mut cfg = DurabilityConfig::new(dir);
    if let Some(v) = flag_value(args, "--checkpoint-bytes") {
        cfg.checkpoint_bytes = v
            .parse()
            .map_err(|_| "--checkpoint-bytes wants a byte count".to_string())?;
    }
    if let Some(spec) = flag_value(args, "--crash-at") {
        cfg.crash = CrashPlan::parse(&spec).map_err(|e| format!("--crash-at: {e}"))?;
        cfg.crash_action = CrashAction::Abort;
    }
    Ok(cfg)
}

fn run_server(args: &[String]) -> Result<(), CliError> {
    let [input, ..] = args else {
        return Err("run needs <kb.nt|kb.owlpar>".into());
    };
    // Install the ambient recorder before anything records: the initial
    // materialization, the KB writer lane, and the pool threads all bind
    // to it at construction time.
    let trace_out = flag_value(args, "--trace-out");
    if trace_out.is_some() {
        owlpar_obs::install_global(owlpar_obs::Recorder::enabled());
    }
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let k: usize = flag_value(args, "--k")
        .map_or(Ok(2), |v| v.parse().map_err(|_| "--k".to_string()))?;
    let threads: usize = flag_value(args, "--threads")
        .map_or(Ok(4), |v| v.parse().map_err(|_| "--threads".to_string()))?;
    let strategy = PartitioningStrategy::from_name(
        flag_value(args, "--strategy").as_deref().unwrap_or("graph"),
        k,
    )?;
    let mut serve_cfg = ServeConfig {
        addr,
        threads,
        ..ServeConfig::default()
    };
    if let Some(ms) = flag_value(args, "--read-timeout-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| "--read-timeout-ms wants milliseconds".to_string())?;
        serve_cfg.read_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(n) = flag_value(args, "--max-pending") {
        serve_cfg.max_pending = n
            .parse()
            .map_err(|_| "--max-pending wants a count".to_string())?;
    }
    let data_dir = flag_value(args, "--data-dir").map(PathBuf::from);

    // Three startup shapes: recover from a non-empty data dir (the
    // `<kb>` argument is ignored — checkpoint 0 holds the initial KB),
    // initialize a fresh data dir from the input, or serve purely
    // in-memory when no --data-dir is given.
    let (kb, run): (ServingKb, RunInfo) = match data_dir {
        Some(dir) if has_state(&dir) => {
            let (graph, durability, report) = recover(durability_config(args, dir)?)?;
            println!("recovery: {}", report.summary());
            let mut graph = graph;
            let reasoner = HorstReasoner::from_graph(
                &mut graph,
                MaterializationStrategy::ForwardSemiNaive,
            );
            let run = RunInfo {
                summary: report.summary(),
                derived: report.rederived,
                ..RunInfo::default()
            };
            (
                ServingKb::from_closed(graph, reasoner).with_durability(durability),
                run,
            )
        }
        data_dir => {
            let mut graph = load_kb(input)?;
            let base = graph.len();
            let cfg = ParallelConfig {
                k,
                strategy,
                ..ParallelConfig::default()
            }
            .forward();
            let report = run_parallel(&mut graph, &cfg)
                .map_err(|e| CliError::Fatal(format!("materialization failed: {e}")))?;
            println!("materialized: {} ({base} base triples)", report.summary());
            let reasoner = HorstReasoner::from_graph(
                &mut graph,
                MaterializationStrategy::ForwardSemiNaive,
            );
            let run = run_info(&report);
            let kb = match data_dir {
                Some(dir) => {
                    // Checkpoint 0 = the closed initial KB; the WAL then
                    // records everything accepted after it.
                    let d = Durability::init(durability_config(args, dir)?, &graph)?;
                    println!("durability: data dir {} initialized", d.dir().display());
                    ServingKb::from_closed(graph, reasoner).with_durability(d)
                }
                None => ServingKb::from_closed(graph, reasoner),
            };
            (kb, run)
        }
    };

    let handle = serve(kb, run, &serve_cfg)?;
    println!(
        "serving on {} with {threads} thread(s); epoch {}",
        handle.addr(),
        handle.epoch()
    );
    handle.join()?;
    println!("shut down cleanly");
    if let Some(path) = trace_out {
        let book = owlpar_obs::global().drain();
        owlpar_obs::install_global(owlpar_obs::Recorder::disabled());
        std::fs::write(&path, owlpar_obs::chrome::to_chrome_json(&book))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "trace written to {path} ({} event(s), {} lane(s))",
            book.events.len(),
            book.tracks.len()
        );
    }
    Ok(())
}

fn connect(args: &[String], what: &str) -> Result<(Client, Vec<String>), CliError> {
    let [addr, rest @ ..] = args else {
        return Err(format!("{what} needs <addr>").into());
    };
    Ok((Client::connect(addr.as_str())?, rest.to_vec()))
}

fn query(args: &[String]) -> Result<(), CliError> {
    let (mut client, rest) = connect(args, "query")?;
    let [sparql, ..] = &rest[..] else {
        return Err("query needs <addr> '<SPARQL>'".into());
    };
    let result = client.query(sparql)?;
    println!("{}", result.columns.join("\t"));
    for row in &result.rows {
        println!("{}", row.join("\t"));
    }
    eprintln!("{} row(s) @ epoch {}", result.rows.len(), result.epoch);
    Ok(())
}

fn insert(args: &[String]) -> Result<(), CliError> {
    let (mut client, rest) = connect(args, "insert")?;
    let [source, ..] = &rest[..] else {
        return Err("insert needs <addr> <batch.nt|->".into());
    };
    let nt = if source == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("reading {source}: {e}"))?
    };
    let out = client.insert(&nt)?;
    println!(
        "epoch {}: +{} base triple(s), {} derived{}",
        out.epoch,
        out.added,
        out.derived,
        if out.schema_changed {
            " (schema changed; rules recompiled)"
        } else {
            ""
        }
    );
    Ok(())
}

fn stats(args: &[String]) -> Result<(), CliError> {
    let (mut client, _) = connect(args, "stats")?;
    println!("{}", client.stats()?);
    Ok(())
}

fn ping(args: &[String]) -> Result<(), CliError> {
    let (mut client, _) = connect(args, "ping")?;
    client.ping()?;
    println!("pong");
    Ok(())
}

fn shutdown(args: &[String]) -> Result<(), CliError> {
    let (mut client, _) = connect(args, "shutdown")?;
    client.shutdown()?;
    println!("server shutting down");
    Ok(())
}
