//! Child processes. Set-up and every repetition run in a process of
//! their own, so that one's memory never counts in another's peak RSS.
//! A child reports on standard output, one `pb <kind> ...` line each.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What a child reports, collected before printing.
#[derive(Debug, Default)]
pub struct Emit {
    lines: Vec<String>,
}

impl Emit {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.lines.push(format!("pb metric {name} {value}"));
    }

    /// One operation's latency, pooled by the orchestrator.
    pub fn sample(&mut self, kind: &str, ms: f64) {
        self.lines.push(format!("pb sample {kind} {ms}"));
    }

    /// Operations attempted and failed beyond the repetition itself.
    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.lines.push(format!("pb ops {attempted} {failed}"));
    }

    /// An output check; a failed one fails the repetition.
    pub fn check(&mut self, what: &str, ok: bool, detail: &str) {
        let verdict = if ok { "ok" } else { "fail" };
        self.lines
            .push(format!("pb check {what} {verdict} {detail}"));
    }

    pub fn info(&mut self, msg: &str) {
        self.lines.push(format!("pb info {msg}"));
    }

    pub fn lines(&self) -> &[String] {
        &self.lines
    }
}

/// A child's report as the orchestrator reads it.
#[derive(Debug, Default, Clone)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    /// Latency samples by kind (`query`, `insert`, `late`), in ms.
    pub samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks and errors; non-empty means the repetition failed.
    pub failures: Vec<String>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn parse(stdout: &str) -> Report {
        let mut r = Report::default();
        for line in stdout.lines() {
            let mut f = line.splitn(4, ' ');
            if f.next() != Some("pb") {
                continue;
            }
            match (f.next(), f.next(), f.next()) {
                (Some("metric"), Some(name), Some(v)) => match v.trim().parse::<f64>() {
                    Ok(_) if !crate::report::valid_name(name) => {
                        r.failures.push(format!("invalid metric name: {name}"))
                    }
                    Ok(v) => {
                        r.metrics.insert(name.to_string(), v);
                    }
                    Err(_) => r.failures.push(format!("unreadable metric line: {line}")),
                },
                (Some("sample"), Some(kind), Some(v)) => match v.trim().parse::<f64>() {
                    Ok(v) => r.samples.entry(kind.to_string()).or_default().push(v),
                    Err(_) => r.failures.push(format!("unreadable sample line: {line}")),
                },
                (Some("ops"), Some(a), Some(b)) => {
                    match (a.parse::<u64>(), b.trim().parse::<u64>()) {
                        (Ok(a), Ok(b)) => {
                            r.attempted += a;
                            r.failed += b;
                        }
                        _ => r.failures.push(format!("unreadable ops line: {line}")),
                    }
                }
                (Some("check"), Some(what), Some(rest)) => {
                    if !rest.starts_with("ok") {
                        r.failures.push(format!("check {what} failed: {rest}"));
                    }
                }
                (Some("info"), ..) => eprintln!("perfbench: {}", &line[8..]),
                (Some("error"), ..) => r.failures.push(line[9..].to_string()),
                _ => r.failures.push(format!("unreadable line: {line}")),
            }
        }
        r
    }
}

/// Print a child's report and turn its result into an exit code.
pub fn finish(out: Emit, result: Result<(), String>) -> std::process::ExitCode {
    for line in out.lines() {
        println!("{line}");
    }
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            println!("pb error {}", e.replace('\n', " "));
            std::process::ExitCode::FAILURE
        }
    }
}

/// Run this executable with `args` in `cwd` and read its report. A
/// child still running at `deadline` is killed and counts as failed.
pub fn run(args: &[String], cwd: &Path, deadline: Instant) -> Report {
    match spawn_and_wait(args, cwd, deadline) {
        Ok((true, stdout)) => Report::parse(&stdout),
        Ok((false, stdout)) => {
            let mut r = Report::parse(&stdout);
            if r.failures.is_empty() {
                r.failures
                    .push(format!("child {} exited with an error", args.join(" ")));
            }
            r
        }
        Err(e) => Report {
            failures: vec![e],
            ..Report::default()
        },
    }
}

fn spawn_and_wait(
    args: &[String],
    cwd: &Path,
    deadline: Instant,
) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning child: {e}"))?;
    let mut pipe = child.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = pipe.read_to_string(&mut s);
        s
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err("child ran past the run's deadline and was killed".to_string());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("waiting for child: {e}"));
            }
        }
    };
    let stdout = reader.join().unwrap_or_default();
    Ok((status?.success(), stdout))
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the size and layout of Linux's `struct rusage`
    // on 64-bit targets (two `timeval`s, then fourteen `long`s), and `u`
    // is a valid, exclusively borrowed instance for the call to fill.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return Err("getrusage failed".into());
    }
    // Linux reports ru_maxrss in KiB.
    Ok(u.maxrss as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_emit() {
        let mut e = Emit::default();
        e.metric("wall_s", 1.25);
        e.ops(10, 2);
        e.sample("query", 0.5);
        e.sample("query", f64::INFINITY);
        e.check("closure", true, "same");
        let r = Report::parse(&e.lines().join("\n"));
        assert_eq!(r.metrics.get("wall_s"), Some(&1.25));
        assert_eq!(r.samples.get("query"), Some(&vec![0.5, f64::INFINITY]));
        assert_eq!((r.attempted, r.failed), (10, 2));
        assert!(r.ok());
    }

    #[test]
    fn a_failed_check_fails_the_report() {
        let mut e = Emit::default();
        e.check("closure", false, "got 1:0:0, reference 2:0:0");
        let r = Report::parse(&e.lines().join("\n"));
        assert!(!r.ok());
        assert!(r.failures[0].contains("closure"));
    }

    #[test]
    fn a_metric_with_an_invalid_name_fails_the_report() {
        let mut e = Emit::default();
        e.metric("wall time", 1.0);
        assert!(!Report::parse(&e.lines().join("\n")).ok());
    }

    #[test]
    fn peak_rss_is_positive() {
        let mb = peak_rss_mb().expect("getrusage");
        assert!(mb > 1.0 && mb < 1e6, "{mb}");
    }
}
