//! The repo benchmark. One binary, one `--workload` switch:
//!
//! ```text
//! lowdiff-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run; prints `name value unit` rows, then (last line) one JSON
//!     object {correct, attempted, failed, metrics}. `--seconds` fixes the
//!     number of timed operations (see `Ctx::count`): it is not a deadline
//! lowdiff-benchmark [--workload NAME] [--seed N] [--seconds S] [--smoke]
//!                   [--aa] [--spread K]
//!     the suite: every workload untraced then traced, in child processes
//! lowdiff-benchmark --emit-spec
//!     prints BENCHMARK.json
//! ```
//!
//! Every layer is measured from outside, through public items only; see
//! README.md for the list.

mod cluster;
mod paced;
mod probes;
mod recover;
mod spec;
mod stats;
mod suite;
mod timed;
mod train;

use spec::Metrics;
use stats::{Lane, Trace};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

pub const RESULTS_DIR: &str = "benchmark/results";

/// What one run carries through its workload.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Shrink every workload to a few iterations (CI smoke).
    pub smoke: bool,
    pub trace: Arc<Trace>,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Scratch space inside the checkout, removed when the run ends.
    pub work_dir: PathBuf,
    notes: Vec<(&'static str, f64)>,
}

impl Ctx {
    /// How many operations the timed phase runs: `per_second` for each of
    /// `--seconds` (a third of that on the traced pass, which spends the
    /// rest on probes). A fixed count, not a deadline: the same arguments
    /// do the same work on every host, so counts, bytes and final states
    /// repeat exactly.
    pub fn count(&self, per_second: f64, smoke: u64) -> u64 {
        if self.smoke {
            return smoke;
        }
        let seconds = if self.traced {
            self.seconds / 3.0
        } else {
            self.seconds
        };
        ((seconds * per_second).round() as u64).max(3)
    }

    /// A fact about the run that is not a metric (iteration counts, the
    /// final-state CRC); printed as a `# name value` row.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }
}

#[derive(Default)]
pub struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    aa: bool,
    spread: Option<usize>,
    emit_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                args.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => args.trace = Some(value("0 or 1")? != "0"),
            "--spread" => {
                args.spread = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--spread: {e}"))?,
                )
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--emit-spec" => args.emit_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !spec::WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(args)
}

/// `VmHWM`: the process's peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One workload in this process; the last stdout line is the result JSON.
fn run_single(args: &Args, workload: &str, traced: bool) -> ExitCode {
    let trace = Arc::new(Trace::new(traced));
    let mut cx = Ctx {
        workload: workload.to_string(),
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(spec::RUN_SECONDS as f64),
        traced,
        smoke: args.smoke,
        trace: Arc::clone(&trace),
        metrics: Metrics::default(),
        attempted: 0,
        failed: 0,
        work_dir: PathBuf::from(format!("benchmark/.work/{}", std::process::id())),
        notes: Vec::new(),
    };
    match workload {
        spec::TRAIN_FAST => train::run(&mut cx, None),
        spec::TRAIN_SLOW => train::run(&mut cx, Some(spec::SLOW_STORE_MBPS)),
        spec::RECOVER_CHAIN => recover::run(&mut cx),
        spec::CLUSTER => cluster::run(&mut cx),
        other => unreachable!("parse_args admitted workload {other}"),
    }
    let _ = std::fs::remove_dir_all(&cx.work_dir);
    if cx.metrics.get("peak_rss_mb") == 0.0 {
        cx.metrics.set("peak_rss_mb", peak_rss_mb());
    }

    if traced {
        trace.adopt("iter", Lane::Train);
        trace.adopt("recover.resume", Lane::Main);
        write_trace(&cx);
    }
    for (name, value) in &cx.notes {
        println!("# {name} {value}");
    }
    println!("# pool_threads {}", rayon::pool::current_num_threads());
    let rows = cx.metrics.rows(traced);
    for (name, value, unit) in &rows {
        println!("{name} {} {unit}", spec::json_number(*value));
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        cx.failed == 0,
        cx.attempted.max(1),
        cx.failed
    );
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            spec::json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if cx.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: {} of {} operations failed",
            cx.failed, cx.attempted
        );
        ExitCode::FAILURE
    }
}

/// Chrome-trace JSON plus the self-time table, under `benchmark/results/`.
fn write_trace(cx: &Ctx) {
    let spans = cx.trace.spans();
    let _ = std::fs::create_dir_all(RESULTS_DIR);
    let path = format!("{RESULTS_DIR}/trace-{}.json", cx.workload);
    if let Err(e) = std::fs::write(&path, stats::chrome_trace_json(&spans)) {
        eprintln!("cannot write {path}: {e}");
    }
    let mut table = format!(
        "# self time by span name, {} ({} spans, {} dropped)\n# name count total_ms self_ms\n",
        cx.workload,
        spans.len(),
        cx.trace.dropped()
    );
    for (name, (count, total_ns, self_ns)) in stats::self_time_table(&spans) {
        let _ = writeln!(
            table,
            "{name} {count} {:.3} {:.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    let path = format!("{RESULTS_DIR}/selftime-{}.txt", cx.workload);
    if let Err(e) = std::fs::write(&path, &table) {
        eprintln!("cannot write {path}: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lowdiff-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match (&args.workload, args.trace) {
        (Some(workload), Some(traced)) => run_single(&args, workload, traced),
        (None, Some(_)) => {
            eprintln!("lowdiff-benchmark: --trace needs --workload");
            ExitCode::from(2)
        }
        _ => suite::run(&args),
    }
}
