//! `fleet`: an in-process `dance_fleet::supervisor::Fleet` with two workers
//! running many short searches (4 epochs of `Benchmark::tiny`, FLOPs
//! penalty), each checkpointed every epoch under a lease. It is the side
//! session of the `search` workload's traced runs and reports per-layer
//! metrics.
//!
//! Jobs are submitted while the time budget lasts, keeping a few queued
//! ahead of the workers, and then run until the fleet settles. The timed
//! operation is one job, from submission to `done`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dance_fleet::ledger::JobSpec;
use dance_fleet::supervisor::{Fleet, FleetOpts};
use dance_fleet::worker::run_job;

use crate::{stats, Check, Ctx, Outcome};

const WORKERS: usize = 2;
const EPOCHS: u64 = 4;
const BATCH: u64 = 32;
const LAMBDA2: f32 = 0.3;
/// Jobs kept pending or leased while submitting: one queued behind the
/// workers, so a worker never idles waiting for a submission. The fleet
/// claims pending jobs in id (spec-digest) order, not submission order, so
/// a deeper queue would make a job's wait depend on how its digest sorts.
const IN_FLIGHT: usize = WORKERS + 1;
const POLL: Duration = Duration::from_millis(5);
const SETTLE_TIMEOUT: Duration = Duration::from_secs(120);
/// Set-ups before the jobs; as many more are timed after the fleet has
/// settled, so the set-up median spans the run.
const SETUP_REPS: usize = 3;

fn spec(seed: u64, index: u64) -> JobSpec {
    let job_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index);
    JobSpec::new(EPOCHS, BATCH, job_seed, LAMBDA2)
}

/// The first job's spec run directly through `run_job`, outside the fleet:
/// the reference the fleet's answer is checked against.
fn reference(ctx: &Ctx, rep: usize) -> u64 {
    let _span = dance_telemetry::span!("perfbench.run_job");
    let dir = ctx.work.join(format!("reference-{rep}"));
    run_job(&spec(ctx.seed, 0), &dir, false, &mut |_| {}).digest
}

/// Starts a fleet, then computes the reference, which also pays the lazy
/// start-up (pool, arena) the fleet's first jobs would otherwise pay.
fn set_up(ctx: &Ctx, rep: usize) -> std::io::Result<(Fleet, u64)> {
    let fleet = {
        let _span = dance_telemetry::span!("perfbench.fleet.start");
        Fleet::start(FleetOpts::new(ctx.work.join(format!("fleet-{rep}"))).with_workers(WORKERS))?
    };
    Ok((fleet, reference(ctx, rep)))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut t0 = ctx.started;
    let mut live = None;
    for rep in 0..SETUP_REPS {
        if let Some((prev, _)) = live.take() {
            Fleet::shutdown(prev);
            t0 = Instant::now();
        }
        match set_up(ctx, rep) {
            Ok(l) => live = Some(l),
            Err(e) => {
                out.checks
                    .push(Check::new("fleet.start", false, e.to_string()));
                return out;
            }
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (fleet, reference) = live.expect("a fleet after set-up");

    let begin = Instant::now();
    let mut submitted: BTreeMap<String, Instant> = BTreeMap::new();
    let mut finished: BTreeMap<String, f64> = BTreeMap::new();
    let mut first_id = None;
    let mut next = 0u64;
    let (mut busy, mut samples) = (0usize, 0usize);
    loop {
        let submitting = begin.elapsed().as_secs_f64() < ctx.seconds;
        if submitting {
            while submitted.len() - finished.len() < IN_FLIGHT {
                match fleet.submit(spec(ctx.seed, next)) {
                    Ok((id, _)) => {
                        first_id.get_or_insert_with(|| id.clone());
                        submitted.insert(id, Instant::now());
                    }
                    Err(e) => {
                        out.checks.push(Check::new("fleet.submit", false, e));
                        break;
                    }
                }
                next += 1;
            }
        }
        std::thread::sleep(POLL);
        for (id, t) in &submitted {
            if finished.contains_key(id) {
                continue;
            }
            let settled = fleet
                .status(id)
                .is_some_and(|j| j.state == "done" || j.state == "failed");
            if settled {
                finished.insert(id.clone(), t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let counts = fleet.counts();
        busy += counts
            .workers
            .values()
            .filter(|w| w.state == "busy")
            .count();
        samples += counts.workers.len();
        if !submitting && finished.len() == submitted.len() {
            break;
        }
        if begin.elapsed() > Duration::from_secs_f64(ctx.seconds) + SETTLE_TIMEOUT {
            out.checks.push(Check::new(
                "fleet.settled",
                false,
                format!("{} of {} jobs finished", finished.len(), submitted.len()),
            ));
            break;
        }
    }
    let wall_s = begin.elapsed().as_secs_f64();
    let jobs = fleet.jobs();
    let counts = fleet.counts();
    Fleet::shutdown(fleet);
    for rep in SETUP_REPS..2 * SETUP_REPS {
        let t = Instant::now();
        match set_up(ctx, rep) {
            Ok((again, _)) => {
                out.setup_s.push(t.elapsed().as_secs_f64());
                Fleet::shutdown(again);
            }
            Err(e) => out
                .checks
                .push(Check::new("fleet.start", false, e.to_string())),
        }
    }

    let done = jobs.iter().filter(|j| j.state == "done").count();
    out.attempted = submitted.len() as u64;
    out.failed = (submitted.len() - done) as u64;
    out.checks.push(Check::new(
        "fleet.all_done",
        done == submitted.len() && done > 0,
        format!("{done} of {} jobs done", submitted.len()),
    ));
    let first = first_id
        .as_deref()
        .and_then(|id| jobs.iter().find(|j| j.id == id))
        .and_then(|j| j.digest);
    out.checks.push(Check::new(
        "fleet.digest_matches_run_job",
        first == Some(reference),
        format!("fleet {first:016x?} vs direct run_job {reference:016x}"),
    ));
    out.checks.push(Check::new(
        "fleet.no_reclaims_or_fences",
        counts.reclaims == 0 && counts.fenced == 0,
        format!("reclaims {}, fenced {}", counts.reclaims, counts.fenced),
    ));
    out.op_ms = finished.values().copied().collect();
    out.ops_per_s = done as f64 / wall_s;
    out.work_ms = stats::median(&out.op_ms);
    out.layer.insert("fleet.job_p50_s", out.work_ms / 1e3);
    out.layer.insert(
        "fleet.worker_busy_frac",
        busy as f64 / samples.max(1) as f64,
    );
    out.layer.insert("fleet.reclaims", counts.reclaims as f64);
    out.layer.insert("fleet.fenced", counts.fenced as f64);
    out.params = vec![
        ("workers", WORKERS.to_string()),
        ("benchmark", "tiny".into()),
        ("penalty", "flops".into()),
        ("epochs_per_job", EPOCHS.to_string()),
        ("batch", BATCH.to_string()),
        ("lambda2", LAMBDA2.to_string()),
        ("in_flight", IN_FLIGHT.to_string()),
        ("jobs", submitted.len().to_string()),
        ("op", "job, submission to done".into()),
        ("ops_per_s", "jobs done per second".into()),
    ];
    out
}
