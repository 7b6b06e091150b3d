//! `perfbench` — the repository benchmark for the DANCE co-exploration
//! stack. See `perfbench/README.md` for the workloads, the metric → layer →
//! workload map and what each correctness check proves.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload search|evaluator --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload with telemetry off and prints the
//! end-to-end metrics; `--trace 1` first runs the same workload untraced in
//! a child process, which then also times the per-layer probes with
//! telemetry off, then runs the workload traced in-process followed by its
//! side session (`fleet` after `search`, `serve` after `evaluator`), and
//! prints the per-layer metrics. The last stdout line is always the result
//! object.

mod digests;
mod evaluator;
mod fleet;
mod layers;
mod probes;
mod reference;
mod search;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dance_telemetry::json::{parse, push_escaped, push_num, Json};

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Input seed from `--seed`.
    pub seed: u64,
    /// Measurement budget from `--seconds`.
    pub seconds: f64,
    /// Scratch directory for checkpoints and ledgers, inside the checkout
    /// and removed when the run ends.
    pub work: PathBuf,
    /// Process start: the first set-up is timed from here.
    pub started: Instant,
}

/// One named correctness check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Samples of the workload's timed operation, ms.
    pub op_ms: Vec<f64>,
    /// The reference kernel's time sampled after each operation, ms.
    pub ref_ms: Vec<f64>,
    /// Throughput in the workload's own unit of work, per second.
    pub ops_per_s: f64,
    /// Wall time of a fixed amount of work, ms: traced over untraced gives
    /// the tracing overhead.
    pub work_ms: f64,
    /// Operations attempted and failed; the result adds the checks.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Per-layer values only this workload can observe.
    pub layer: BTreeMap<&'static str, f64>,
    /// The workload parameters, for the record.
    pub params: Vec<(&'static str, String)>,
}

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 2] = ["search", "evaluator"];

/// End-to-end metrics: every workload reports each one.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_norm", "ref")];

/// Share of the samples trimmed from each end for `op_norm`.
const OP_TRIM: f64 = 0.1;

/// How a traced run splits `--seconds`: the untraced child's workload and
/// the traced workload get this share each, the side session the rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.35;
const SIDE_SESSION_SHARE: f64 = 1.0 - 2.0 * TRACED_WORKLOAD_SHARE;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Also time the per-layer probes (set only on the untraced child of a
    /// traced run).
    probes: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut probes = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |_| format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--probes" => probes = value == "1",
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds as f64,
        trace: trace.unwrap_or(false),
        probes,
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "search" => search::run(ctx),
        "evaluator" => evaluator::run(ctx),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// The layers a workload does not enter itself, driven after it in its
/// traced run: the fleet of short searches after `search`, the server that
/// answers evaluator queries after `evaluator`.
fn run_side_session(name: &str, ctx: &Ctx) -> (&'static str, Outcome) {
    match name {
        "search" => ("fleet", fleet::run(ctx)),
        "evaluator" => ("serve", serve::run(ctx)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

impl Ctx {
    /// The same run with a budget of `seconds`, its set-up timed from now.
    fn with_seconds(&self, seconds: f64) -> Ctx {
        Ctx {
            seed: self.seed,
            seconds,
            work: self.work.clone(),
            started: Instant::now(),
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, count] = argv.as_slice() {
        if flag == "--record-digests" {
            return record_digests(count);
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload search|evaluator --seed N --seconds S \
                 --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Pin the program to its defaults before any library code reads the
    // environment: all cores, arena on, plans on, guard on. Telemetry is the
    // one switch the benchmark owns.
    for var in ["DANCE_THREADS", "DANCE_ARENA", "DANCE_PLAN", "DANCE_GUARD"] {
        std::env::remove_var(var);
    }
    std::env::set_var("DANCE_TELEMETRY", if args.trace { "on" } else { "off" });
    let work = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    // Run logs of traced runs outlive the run's scratch directory.
    std::env::set_var(
        "DANCE_RUN_DIR",
        Path::new(env!("CARGO_MANIFEST_DIR")).join("work/runs"),
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        started,
    };
    let code = if args.trace {
        traced_run(&args, &ctx)
    } else if args.probes {
        // The untraced child of a traced run.
        let out = run_workload(
            &args.workload,
            &ctx.with_seconds(ctx.seconds * TRACED_WORKLOAD_SHARE),
        );
        let probed = probes::run(&ctx);
        print_detail(&args, &args.workload, &out, None, Some(&probed));
        print_result(&out, &end_to_end_metrics(&out));
        ExitCode::SUCCESS
    } else {
        let out = run_workload(&args.workload, &ctx);
        print_detail(&args, &args.workload, &out, None, None);
        print_result(&out, &end_to_end_metrics(&out));
        ExitCode::SUCCESS
    };
    if let Err(e) = std::fs::remove_dir_all(&work) {
        eprintln!("perfbench: cannot remove {}: {e}", work.display());
    }
    code
}

/// Prints the digest tables of `digests.rs` for seeds `0..count`.
fn record_digests(count: &str) -> ExitCode {
    let Ok(count) = count.parse::<u64>() else {
        eprintln!("perfbench: --record-digests takes a seed count");
        return ExitCode::from(2);
    };
    std::env::set_var("DANCE_TELEMETRY", "off");
    let ckpt = Path::new(env!("CARGO_MANIFEST_DIR")).join("work/record");
    println!("pub const SEARCH: &[(u64, u64)] = &[");
    for seed in 0..count {
        println!("    ({seed}, 0x{:016x}),", search::digest(seed, &ckpt));
    }
    println!("];\npub const GROUND_TRUTH: &[(u64, u64)] = &[");
    for seed in 0..count {
        println!("    ({seed}, 0x{:016x}),", evaluator::digest(seed));
    }
    println!("];");
    let _ignored = std::fs::remove_dir_all(&ckpt);
    ExitCode::SUCCESS
}

/// The untraced child run with the layer probes, then the traced run and
/// its side session.
fn traced_run(args: &Args, ctx: &Ctx) -> ExitCode {
    let Some(untraced) = untraced_run(args) else {
        return ExitCode::FAILURE;
    };
    let run = dance_telemetry::runlog::RunGuard::start(&format!("perfbench-{}", args.workload));
    let mut out = run_workload(
        &args.workload,
        &ctx.with_seconds(ctx.seconds * TRACED_WORKLOAD_SHARE),
    );
    dance_backend::storage::flush_metrics();
    let spans = dance_telemetry::span::span_report();
    let counters = dance_telemetry::metrics::snapshot().counters;
    let mut layer = layers::from_telemetry(&spans, &counters, &out);
    // The side session's layers are read from its own outcome and from the
    // counters it adds; the workload's layers above are read before it ran.
    let (side_name, side) = run_side_session(
        &args.workload,
        &ctx.with_seconds(ctx.seconds * SIDE_SESSION_SHARE),
    );
    dance_backend::storage::flush_metrics();
    let spans = dance_telemetry::span::span_report();
    let counters = dance_telemetry::metrics::snapshot().counters;
    drop(run);
    layer.extend(layers::fleet_counters(&counters));
    layer.extend(side.layer.iter().map(|(k, v)| (*k, *v)));
    layer.insert(
        "telemetry.overhead_frac",
        out.work_ms / untraced.work_ms - 1.0,
    );
    // The untraced run's and the side session's operations and failures
    // count too.
    out.attempted += untraced.attempted + side.attempted;
    out.failed += untraced.failed + side.failed;
    layers::finish(&mut layer, &untraced.probes);
    print_detail(args, &args.workload, &out, Some((&spans, &counters)), None);
    print_detail(args, side_name, &side, None, None);
    out.checks.extend(side.checks);
    let metrics: Vec<(&str, &str, f64)> = layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layer.get(name).copied().unwrap_or(0.0)))
        .collect();
    print_result(&out, &metrics);
    ExitCode::SUCCESS
}

/// What the untraced child run reported.
struct Untraced {
    work_ms: f64,
    attempted: u64,
    failed: u64,
    probes: BTreeMap<&'static str, f64>,
}

/// Runs this workload again in a child process with telemetry off, with
/// the per-layer probes after it.
fn untraced_run(args: &Args) -> Option<Untraced> {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return None;
        }
    };
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds as u64).to_string()])
        .args(["--trace", "0", "--probes", "1"])
        .env("DANCE_TELEMETRY", "off")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(o) if o.status.success() => o,
        Ok(o) => {
            eprintln!("perfbench: untraced child failed: {}", o.status);
            return None;
        }
        Err(e) => {
            eprintln!("perfbench: cannot start untraced child: {e}");
            return None;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|d| parse(d).ok());
    let result = stdout.lines().last().and_then(|l| parse(l).ok());
    let num = |doc: &Option<Json>, key: &str| doc.as_ref()?.get(key)?.as_f64();
    let probed = detail.as_ref().and_then(|d| d.get("probes"));
    let probes = layers::PER_LAYER
        .iter()
        .filter_map(|&(name, _)| Some((name, probed?.get(name)?.as_f64()?)))
        .collect();
    match (
        num(&detail, "work_ms"),
        num(&result, "attempted"),
        num(&result, "failed"),
    ) {
        (Some(work_ms), Some(attempted), Some(failed)) => Some(Untraced {
            work_ms,
            attempted: attempted as u64,
            failed: failed as u64,
            probes,
        }),
        _ => {
            eprintln!("perfbench: untraced child printed no result");
            None
        }
    }
}

fn end_to_end_metrics(out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let values = [stats::median(&out.setup_s), peak_rss_mb(), op_norm(out)];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// The operation's time in units of the reference kernel's time sampled
/// alongside it: both trimmed means over the run.
fn op_norm(out: &Outcome) -> f64 {
    stats::trimmed_mean(&out.op_ms, OP_TRIM) / stats::trimmed_mean(&out.ref_ms, OP_TRIM)
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

const DETAIL_PREFIX: &str = "perfbench-detail ";

/// Prints the fingerprint, parameters, checks and (when traced) the
/// program's own span and counter aggregates as one JSON line.
fn print_detail(
    args: &Args,
    session: &str,
    out: &Outcome,
    trace: Option<(&[dance_telemetry::span::SpanAgg], &BTreeMap<String, u64>)>,
    probes: Option<&BTreeMap<&'static str, f64>>,
) {
    let mut s = String::with_capacity(1024);
    s.push_str("{\"workload\":");
    push_escaped(&mut s, &args.workload);
    s.push_str(",\"session\":");
    push_escaped(&mut s, session);
    s.push_str(",\"seed\":");
    push_num(&mut s, args.seed as f64);
    s.push_str(",\"seconds\":");
    push_num(&mut s, args.seconds);
    s.push_str(",\"telemetry\":");
    s.push_str(if dance_telemetry::enabled() {
        "true"
    } else {
        "false"
    });
    s.push_str(",\"machine\":{");
    let fingerprint = [
        ("nproc", available_parallelism().to_string()),
        ("cpu", cpu_model()),
        ("backend_threads", dance_backend::threads().to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("commit", commit()),
    ];
    push_pairs(&mut s, fingerprint.iter().map(|(k, v)| (*k, v.as_str())));
    s.push_str("},\"params\":{");
    push_pairs(&mut s, out.params.iter().map(|(k, v)| (*k, v.as_str())));
    s.push_str("},\"setup_s\":[");
    for (i, v) in out.setup_s.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_num(&mut s, *v);
    }
    s.push_str("],\"work_ms\":");
    push_num(&mut s, out.work_ms);
    s.push_str(",\"ops_per_s\":");
    push_num(&mut s, out.ops_per_s);
    s.push_str(",\"op_ms_trimmed_mean\":");
    push_num(&mut s, stats::trimmed_mean(&out.op_ms, OP_TRIM));
    s.push_str(",\"ref_ms_trimmed_mean\":");
    push_num(&mut s, stats::trimmed_mean(&out.ref_ms, OP_TRIM));
    s.push_str(",\"op_samples\":");
    push_num(&mut s, out.op_ms.len() as f64);
    if out.op_ms.len() <= 100 {
        s.push_str(",\"op_ms\":[");
        for (i, v) in out.op_ms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_num(&mut s, *v);
        }
        s.push(']');
        s.push_str(",\"ref_ms\":[");
        for (i, v) in out.ref_ms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_num(&mut s, *v);
        }
        s.push(']');
    }
    for (label, q) in [
        ("op_p10_ms", 0.10),
        ("op_p25_ms", 0.25),
        ("op_p75_ms", 0.75),
        ("op_p90_ms", 0.90),
        ("op_p99_ms", 0.99),
    ] {
        if let Some((v, _)) = stats::quantile(&out.op_ms, q) {
            s.push_str(&format!(",\"{label}\":"));
            push_num(&mut s, v);
        }
    }
    if let Some((q, v)) = stats::tail(&out.op_ms) {
        s.push_str(",\"op_tail_quantile\":");
        push_num(&mut s, q);
        s.push_str(",\"op_tail_ms\":");
        push_num(&mut s, v);
    }
    s.push_str(",\"checks\":[");
    for (i, c) in out.checks.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"name\":");
        push_escaped(&mut s, c.name);
        s.push_str(",\"ok\":");
        s.push_str(if c.ok { "true" } else { "false" });
        s.push_str(",\"detail\":");
        push_escaped(&mut s, &c.detail);
        s.push('}');
    }
    s.push(']');
    if let Some(probes) = probes {
        s.push_str(",\"probes\":{");
        for (i, (name, v)) in probes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_escaped(&mut s, name);
            s.push(':');
            push_num(&mut s, *v);
        }
        s.push('}');
    }
    if let Some((spans, counters)) = trace {
        s.push_str(",\"spans\":{");
        let mut first = true;
        for agg in spans {
            if !first {
                s.push(',');
            }
            first = false;
            push_escaped(&mut s, &agg.name);
            s.push_str(":{\"count\":");
            push_num(&mut s, agg.stats.count as f64);
            s.push_str(",\"total_ms\":");
            push_num(&mut s, agg.stats.total_ns as f64 / 1e6);
            s.push_str(",\"mean_us\":");
            push_num(&mut s, layers::mean_ns(&agg.stats) / 1e3);
            s.push('}');
        }
        s.push_str("},\"counters\":{");
        for (i, (name, v)) in counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_escaped(&mut s, name);
            s.push(':');
            push_num(&mut s, *v as f64);
        }
        s.push('}');
    }
    s.push('}');
    println!("{DETAIL_PREFIX}{s}");
}

fn push_pairs<'a>(s: &mut String, pairs: impl Iterator<Item = (&'a str, &'a str)>) {
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_escaped(s, k);
        s.push(':');
        push_escaped(s, v);
    }
}

/// Prints the result object as the last stdout line. A value that is not
/// finite cannot be written as JSON; it is reported as 0 and fails the run.
fn print_result(out: &Outcome, metrics: &[(&str, &str, f64)]) {
    // A failed check is a failed operation; a value that is not finite
    // fails the run.
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let failed_checks = out.checks.iter().filter(|c| !c.ok).count() as u64;
    let attempted = out.attempted + out.checks.len() as u64;
    let failed = out.failed + failed_checks + u64::from(!finite);
    let correct = failed == 0;
    let mut s = String::with_capacity(512);
    s.push_str("{\"correct\":");
    s.push_str(if correct { "true" } else { "false" });
    s.push_str(",\"attempted\":");
    push_num(&mut s, attempted.max(1) as f64);
    s.push_str(",\"failed\":");
    push_num(&mut s, failed as f64);
    s.push_str(",\"metrics\":{");
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_escaped(&mut s, name);
        s.push_str(":{\"value\":");
        push_num(&mut s, if v.is_finite() { *v } else { 0.0 });
        s.push_str(",\"unit\":");
        push_escaped(&mut s, unit);
        s.push('}');
    }
    s.push_str("}}");
    println!("{s}");
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, when the benchmark runs inside a git work tree.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let text = include_str!("../../BENCHMARK.json");
        parse(text).expect("BENCHMARK.json parses")
    }

    fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(names_units(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), owned(&layers::PER_LAYER));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(listed, WORKLOADS);
    }

    #[test]
    fn args_are_validated() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&argv("--workload search --seed 3 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.trace),
            ("search", 3, true)
        );
        assert!(parse_args(&argv("--workload serve --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload search --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload search --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload search --seed 1 --seconds 10 --trace 2")).is_err());
    }
}
