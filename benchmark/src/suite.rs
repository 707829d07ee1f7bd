//! The suite: every workload in its own child process (so `VmHWM` is the
//! workload's own), untraced for the end-to-end numbers and traced for the
//! per-layer ones, plus the two self-checks a benchmark owes its users:
//! `--aa` (two sets of runs of the same build agree within each bound) and
//! `--spread K` (run-to-run spread over K seeds, by the acceptance rule).

use crate::spec::{self, END_TO_END};
use crate::stats::{iqr_spread, median};
use crate::{Args, RESULTS_DIR};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// What one child run printed.
struct RunResult {
    ok: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
    notes: BTreeMap<String, f64>,
}

fn child(args: &Args, workload: &str, seed: u64, traced: bool) -> RunResult {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    cmd.args([
        "--seconds",
        &args.seconds.unwrap_or(spec::RUN_SECONDS as f64).to_string(),
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawn a workload process");
    let mut result = RunResult {
        ok: out.status.success(),
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        notes: BTreeMap::new(),
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["#", name, value] => {
                result
                    .notes
                    .insert(name.to_string(), value.parse().unwrap_or(0.0));
            }
            [r#"{"correct":"#, _, r#""attempted":"#, attempted, r#""failed":"#, failed, ..] => {
                let count = |s: &str| s.trim_end_matches(',').parse().unwrap_or(0);
                result.attempted = count(attempted);
                result.failed = count(failed);
            }
            [name, value, unit] => {
                if let Ok(v) = value.parse() {
                    result
                        .metrics
                        .insert(name.to_string(), (v, unit.to_string()));
                }
            }
            _ => {}
        }
    }
    if !result.ok {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    result
}

fn workloads(args: &Args) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.0)
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect()
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics.get(name).map_or(0.0, |m| m.0)
}

fn note(r: &RunResult, name: &str) -> f64 {
    r.notes.get(name).copied().unwrap_or(0.0)
}

/// The host the numbers belong to.
fn fingerprint(traced: &RunResult) -> Vec<(String, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let num = |v: f64| spec::json_number(v);
    vec![
        (
            "cores".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "pool_threads".into(),
            num(traced.notes.get("pool_threads").copied().unwrap_or(0.0)),
        ),
        (
            "host.memcpy_gbps".into(),
            num(value(traced, "host.memcpy_gbps")),
        ),
        (
            "util.crc32_gbps".into(),
            num(value(traced, "util.crc32_gbps")),
        ),
        ("slow_store_mbps".into(), num(spec::SLOW_STORE_MBPS)),
        (
            "work_dir_fs".into(),
            format!("\"{}\"", env("BENCH_WORK_FS")),
        ),
        ("rustc".into(), format!("\"{}\"", env("BENCH_RUSTC"))),
    ]
}

fn write_result(
    workload: &str,
    seed: u64,
    plain: &RunResult,
    traced: &RunResult,
    overhead: &[(String, f64)],
) {
    let mut json = format!("{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n");
    let _ = writeln!(json, "  \"correct\": {},", plain.ok && traced.ok);
    json.push_str("  \"fingerprint\": {");
    for (i, (k, v)) in fingerprint(traced).iter().enumerate() {
        let _ = write!(json, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
    }
    json.push_str("},\n  \"notes\": {");
    for (i, (k, v)) in plain.notes.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{k}\": {}",
            if i == 0 { "" } else { ", " },
            spec::json_number(*v)
        );
    }
    json.push_str("},\n  \"metrics\": {\n");
    let rows = plain
        .metrics
        .iter()
        .chain(&traced.metrics)
        .map(|(k, (v, u))| {
            format!(
                "    \"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                spec::json_number(*v)
            )
        })
        .chain(overhead.iter().map(|(k, v)| {
            format!(
                "    \"{k}\": {{\"value\": {}, \"unit\": \"frac\"}}",
                spec::json_number(*v)
            )
        }))
        .collect::<Vec<_>>();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  }\n}\n");
    let _ = std::fs::create_dir_all(RESULTS_DIR);
    let path = format!("{RESULTS_DIR}/{workload}.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("cannot write {path}: {e}");
    }
}

/// One complete set of runs: every workload untraced, then traced.
struct WorkloadRuns {
    workload: &'static str,
    plain: RunResult,
    traced: RunResult,
}

fn run_set(args: &Args, seed: u64) -> Vec<WorkloadRuns> {
    workloads(args)
        .into_iter()
        .map(|workload| WorkloadRuns {
            workload,
            plain: child(args, workload, seed, false),
            traced: child(args, workload, seed, true),
        })
        .collect()
}

/// Tracing overhead: the traced pass's own end-to-end figures against the
/// untraced ones.
fn trace_overhead(r: &WorkloadRuns) -> Vec<(String, f64)> {
    ["ckpt_cycle_ms_p50", "recover_s_p50"]
        .iter()
        .filter_map(|base| {
            let off = value(&r.plain, base);
            let on = value(&r.traced, &format!("traced.{base}"));
            (off > 0.0 && on > 0.0).then(|| (format!("trace_overhead_frac.{base}"), on / off - 1.0))
        })
        .collect()
}

/// One acceptance criterion of the benchmark's design, checked on a set.
/// A fatal one fails the suite: exact repeats and sums of parts say the
/// harness itself is sound. The others depend on how fast this host is
/// and are reported (`BASELINE.md` records which were met).
struct Check {
    name: String,
    value: f64,
    want: &'static str,
    met: bool,
    fatal: bool,
}

fn design_checks(set: &[WorkloadRuns]) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut check = |name: String, value: f64, want: &'static str, met: bool, fatal: bool| {
        checks.push(Check {
            name,
            value,
            want,
            met,
            fatal,
        });
    };
    let near_one = |v: f64, tol: f64| (v - 1.0).abs() <= tol;
    let find = |w: &str| set.iter().find(|r| r.workload == w);
    if let (Some(fast), Some(slow)) = (find(spec::TRAIN_FAST), find(spec::TRAIN_SLOW)) {
        // The two stores run one trace: same final state, same bytes.
        for (pass, f, s) in [
            ("untraced", &fast.plain, &slow.plain),
            ("traced", &fast.traced, &slow.traced),
        ] {
            let diff = note(f, "final_state_crc") - note(s, "final_state_crc");
            let name = format!("final_state_crc.fast_minus_slow.{pass}");
            check(name, diff, "= 0", diff == 0.0, true);
        }
        let diff = value(&fast.plain, "bytes_per_iter") - value(&slow.plain, "bytes_per_iter");
        let name = "bytes_per_iter.fast_minus_slow".to_string();
        check(name, diff, "= 0", diff == 0.0, true);

        // The two stores separate the layers as designed.
        let busy = value(&fast.traced, "backend.busy_frac");
        let name = format!("backend.busy_frac.{}", spec::TRAIN_FAST);
        check(name, busy, "< 0.05", busy < 0.05, false);
        let busy = value(&slow.traced, "backend.busy_frac");
        let name = format!("backend.busy_frac.{}", spec::TRAIN_SLOW);
        check(name, busy, "> 0.6", busy > 0.6, false);
        let device_ms = value(&slow.traced, "codec.full_bytes") / (spec::SLOW_STORE_MBPS * 1e3);
        let model_ms = device_ms + value(&slow.traced, "backend.queue_wait_ms_p50");
        let frac = value(&slow.traced, "full_durable_ms_p50") / model_ms;
        let name = format!("full_durable_over_device_plus_wait.{}", spec::TRAIN_SLOW);
        check(name, frac, "within 25 % of 1", near_one(frac, 0.25), false);
    }
    for r in set {
        // Parts measured one by one must add up to the whole.
        for parts in ["engine.hooks_sum_frac", "recovery.parts_sum_frac"] {
            let frac = value(&r.traced, parts);
            if frac != 0.0 {
                let name = format!("{parts}.{}", r.workload);
                check(name, frac, "within 10 % of 1", near_one(frac, 0.10), true);
            }
        }
        let timed = match r.workload {
            spec::RECOVER_CHAIN => "recover_s_p50",
            _ => "ckpt_cycle_ms_p50",
        };
        for (name, frac) in trace_overhead(r) {
            if name.ends_with(timed) {
                let name = format!("{name}.{}", r.workload);
                check(name, frac, "<= 0.05", frac <= 0.05, false);
            }
        }
    }
    checks
}

/// Prints the checks; false if a fatal one was not met.
fn report_checks(checks: &[Check]) -> bool {
    println!("## design checks");
    for c in checks {
        let verdict = match (c.met, c.fatal) {
            (true, _) => "met",
            (false, true) => "FAILED",
            (false, false) => "NOT-MET",
        };
        println!(
            "check {} {} ({}) {verdict}",
            c.name,
            spec::json_number(c.value),
            c.want
        );
    }
    checks.iter().all(|c| c.met || !c.fatal)
}

/// Untraced then traced, every metric printed as `name value unit`.
fn full_pass(args: &Args) -> bool {
    let seed = args.seed.unwrap_or(1);
    let set = run_set(args, seed);
    let mut all_ok = true;
    for r in &set {
        let ok = r.plain.ok && r.traced.ok;
        all_ok &= ok;
        println!("## {}{}", r.workload, if ok { "" } else { "  FAILED" });
        println!("ops_attempted {} count", r.plain.attempted);
        println!("ops_failed {} count", r.plain.failed);
        for m in END_TO_END {
            println!(
                "{} {} {}",
                m.name,
                spec::json_number(value(&r.plain, m.name)),
                m.unit
            );
        }
        for (name, (v, unit)) in &r.traced.metrics {
            println!("{name} {} {unit}", spec::json_number(*v));
        }
        let overhead = trace_overhead(r);
        for (name, frac) in &overhead {
            println!("{name} {} frac", spec::json_number(*frac));
        }
        if !args.smoke {
            write_result(r.workload, seed, &r.plain, &r.traced, &overhead);
        }
    }
    // A toy-sized smoke run is all timer noise: only its outputs count.
    if args.smoke {
        return all_ok;
    }
    report_checks(&design_checks(&set)) && all_ok
}

/// Traced-pass counts that must repeat exactly between two sets of one seed.
const EXACT_TRACED: &[&str] = &[
    "wire.bytes_per_epoch",
    "backend.puts",
    "backend.ranged_puts",
    "backend.gets",
    "backend.lists",
    "backend.deletes",
];

/// The full benchmark twice on the same build, side by side: every
/// end-to-end metric must agree within its own bound, and the counts must
/// repeat exactly.
fn aa(args: &Args) -> bool {
    let seed = args.seed.unwrap_or(1);
    let (first, second) = (run_set(args, seed), run_set(args, seed));
    let mut ok = true;
    println!("# workload metric first second rel_diff bound verdict");
    for (a, b) in first.iter().zip(&second) {
        ok &= a.plain.ok && a.traced.ok && b.plain.ok && b.traced.ok;
        for m in END_TO_END {
            let (x, y) = (value(&a.plain, m.name), value(&b.plain, m.name));
            let rel = if x == 0.0 { 0.0 } else { (y - x) / x };
            let within = rel.abs() <= m.bound;
            ok &= within;
            println!(
                "{} {} {} {} {rel:+.4} {} {}",
                a.workload,
                m.name,
                spec::json_number(x),
                spec::json_number(y),
                m.bound,
                if within { "ok" } else { "EXCEEDS" }
            );
        }
        let plain = |f: fn(&RunResult) -> f64| (f(&a.plain), f(&b.plain));
        let mut exact = vec![
            ("ops_attempted", plain(|r| r.attempted as f64)),
            ("final_state_crc", plain(|r| note(r, "final_state_crc"))),
            ("bytes_per_iter", plain(|r| value(r, "bytes_per_iter"))),
        ];
        for name in EXACT_TRACED {
            exact.push((name, (value(&a.traced, name), value(&b.traced, name))));
        }
        for (name, (x, y)) in exact {
            ok &= x == y;
            println!(
                "{} {name} {} {} exact {}",
                a.workload,
                spec::json_number(x),
                spec::json_number(y),
                if x == y { "ok" } else { "DIFFERS" }
            );
        }
    }
    for set in [&first, &second] {
        ok &= report_checks(&design_checks(set));
    }
    ok
}

/// Run-to-run spread over `k` seeds, by the acceptance rule: interquartile
/// distance over median, to stay under a third of the metric's bound.
fn spread(args: &Args, k: usize) -> bool {
    let first = args.seed.unwrap_or(1);
    let mut ok = true;
    println!("# workload metric median spread bound verdict");
    for w in workloads(args) {
        let runs: Vec<RunResult> = (0..k as u64)
            .map(|i| child(args, w, first + i, false))
            .collect();
        ok &= runs.iter().all(|r| r.ok);
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| value(r, m.name)).collect();
            let s = iqr_spread(&values);
            let verdict = if m.name == "setup_s" || s <= m.bound / 3.0 {
                "ok"
            } else if s <= m.bound {
                "WIDE"
            } else {
                ok = false;
                "EXCEEDS"
            };
            println!(
                "{w} {} {} {s:.4} {} {verdict}",
                m.name,
                spec::json_number(median(&values)),
                m.bound
            );
        }
    }
    ok
}

pub fn run(args: &Args) -> ExitCode {
    let ok = match (args.aa, args.spread) {
        (true, _) => aa(args),
        (_, Some(k)) if k >= 2 => spread(args, k),
        (_, Some(_)) => {
            eprintln!("lowdiff-benchmark: --spread needs at least 2 runs");
            return ExitCode::from(2);
        }
        _ => full_pass(args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
