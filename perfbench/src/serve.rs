//! `serve`: an in-process `dance_serve::Server` with a width-128 evaluator,
//! driven open-loop over two connections. It is the side session of the
//! `evaluator` workload's traced runs and reports per-layer metrics.
//!
//! Traffic mix: 30% `cost/predict` on fresh encodings (cache and plan
//! misses), 50% `cost/predict` from a 256-key pool warmed during set-up
//! (cache hits), 20% `cost/analytic`. The offered rate steps through
//! [`SCHEDULE`]; latency is read at 1000 req/s, timed from each request's
//! due time. The timed operation is a fresh `cost/predict` (a cache miss)
//! at that rate.

use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dance::prelude::*;
use dance_plan::Executor;
use dance_serve::batch::BatchConfig;
use dance_serve::proto::{ReqBody, Request};
use dance_serve::{Client, ServeConfig, Server};
use dance_telemetry::json::{self, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{self, Rung, Sent};
use crate::{search, Check, Ctx, Outcome};

const POOL: usize = 256;
const CONNECTIONS: usize = 2;
/// The rate ladder as (offered req/s, share of the time budget) steps, in
/// run order. The first step is an untimed warm-up. The reporting rate is
/// split into three steps spread over the run, so its latency samples span
/// the run instead of one stretch of it. Two synchronous connections top
/// out near 4000 req/s on this mix (a third of requests wait out the
/// collector's 1 ms linger), so the top rung sits clearly above that
/// instead of on it.
const SCHEDULE: [(f64, f64); 7] = [
    (1000.0, 0.1),
    (1000.0, 0.1),
    (500.0, 0.15),
    (1000.0, 0.1),
    (2000.0, 0.2),
    (1000.0, 0.1),
    (5000.0, 0.15),
];
const REPORT_RATE: f64 = 1000.0;
/// The tail-latency limit a rung must meet to count toward the max rate.
const LIMIT_MS: f64 = 10.0;
/// Lateness growth across a rung beyond this marks a growing backlog.
const LAG_SLACK_MS: f64 = 1.0;
/// Every this many predict requests, the payload is checked bit for bit.
const CHECK_EVERY: usize = 16;
const SETUP_REPS: usize = 3;
/// How long before a request's due time the generator stops sleeping.
const SPIN_S: f64 = 200e-6;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Miss,
    Hit,
    Analytic,
}

struct Planned {
    due: f64,
    class: Class,
    req: Request,
    check: bool,
}

struct Answered {
    sent: Sent,
    class: Class,
    shed: bool,
    /// The encoding and response line of a request picked for the payload
    /// check.
    sample: Option<(Vec<f32>, String)>,
}

struct Live {
    handle: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

fn request(id: usize, body: ReqBody) -> Request {
    Request {
        id: id.to_string(),
        deadline_ms: None,
        body,
    }
}

fn predict(id: usize, arch: Vec<f32>) -> Request {
    request(id, ReqBody::CostPredict { arch })
}

fn call_json(client: &mut Client, body: ReqBody) -> std::io::Result<Json> {
    client.call(&request(0, body))
}

/// Binds a server, waits until its predict collector serves from a frozen
/// plan, warms the pool keys and opens the load connections.
fn start(dir: &std::path::Path, pool: &[Vec<f32>]) -> std::io::Result<Live> {
    let cfg = ServeConfig {
        eval_width: search::EVAL_WIDTH,
        eval_seed: search::EVAL_SEED,
        ckpt_root: dir.join("jobs"),
        campaign_root: dir.join("campaigns"),
        fleet_root: dir.join("fleet"),
        ..ServeConfig::default()
    };
    let server = {
        let _span = dance_telemetry::span!("perfbench.server.bind");
        Server::bind(&cfg)?
    };
    let addr = server.local_addr();
    let handle = std::thread::Builder::new()
        .name("perfbench-server".into())
        .spawn(move || server.run())?;
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        clients.push(Client::connect(addr, Some(Duration::from_secs(30)))?);
    }
    let ready = Instant::now();
    loop {
        let health = call_json(&mut clients[0], ReqBody::Health)?;
        if health.get("predict_plan") == Some(&Json::Bool(true)) {
            break;
        }
        if ready.elapsed() > Duration::from_secs(60) {
            return Err(std::io::Error::other("predict plan never became active"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for (i, row) in pool.iter().enumerate() {
        let line = clients[0].call_raw(&predict(i, row.clone()))?;
        if !line.contains("\"ok\":true") {
            return Err(std::io::Error::other(format!(
                "pool warm-up failed: {line}"
            )));
        }
    }
    Ok(Live { handle, clients })
}

/// Drains the server and waits for it to exit.
fn stop(mut live: Live) -> std::io::Result<()> {
    call_json(&mut live.clients[0], ReqBody::Shutdown)?;
    drop(live.clients);
    live.handle
        .join()
        .map_err(|_| std::io::Error::other("server thread panicked"))?
}

fn random_row(rng: &mut StdRng, width: usize) -> Vec<f32> {
    (0..width).map(|_| rng.gen_range(0.0f32..1.0)).collect()
}

/// The requests of one rung, split round-robin over the connections.
fn plan_rung(
    rng: &mut StdRng,
    pool: &[Vec<f32>],
    rate: f64,
    seconds: f64,
    next_id: &mut usize,
) -> Vec<Vec<Planned>> {
    let width = pool[0].len();
    let configs = HardwareSpace::new().len();
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut per_conn: Vec<Vec<Planned>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for i in 0..n {
        let id = *next_id;
        *next_id += 1;
        let u: f64 = rng.gen_range(0.0..1.0);
        let (class, req) = if u < 0.3 {
            (Class::Miss, predict(id, random_row(rng, width)))
        } else if u < 0.8 {
            let k = rng.gen_range(0..pool.len());
            (Class::Hit, predict(id, pool[k].clone()))
        } else {
            let choices = (0..9).map(|_| rng.gen_range(0..7u8)).collect();
            let cfg = rng.gen_range(0..configs);
            let body = ReqBody::CostAnalytic {
                choices,
                cfg,
                detail: false,
            };
            (Class::Analytic, request(id, body))
        };
        per_conn[i % CONNECTIONS].push(Planned {
            due: i as f64 / rate,
            class,
            check: class != Class::Analytic && id.is_multiple_of(CHECK_EVERY),
            req,
        });
    }
    per_conn
}

/// Sends each request at its due time (or at once, when already late) and
/// waits for its answer before the next: one open-loop connection.
fn drive(client: &mut Client, plan: &[Planned], t0: Instant) -> Vec<Answered> {
    let mut out = Vec::with_capacity(plan.len());
    for p in plan {
        // Sleep to just short of the due time, then yield until it: a timer
        // wake-up alone overshoots by a varying tens of microseconds, which
        // would land in every latency.
        let early = p.due - SPIN_S - t0.elapsed().as_secs_f64();
        if early > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(early));
        }
        while t0.elapsed().as_secs_f64() < p.due {
            std::thread::yield_now();
        }
        let sent = t0.elapsed().as_secs_f64();
        let reply = client.call_raw(&p.req);
        let done = t0.elapsed().as_secs_f64();
        let (ok, shed, sample) = match reply {
            Ok(line) => {
                let ok = line.contains("\"ok\":true");
                let shed = line.contains("\"code\":503");
                let sample = match &p.req.body {
                    ReqBody::CostPredict { arch } if p.check => Some((arch.clone(), line)),
                    _ => None,
                };
                (ok, shed, sample)
            }
            Err(e) => {
                eprintln!("perfbench: serve transport error: {e}");
                let _ignored = client.reconnect();
                (false, false, None)
            }
        };
        out.push(Answered {
            sent: Sent {
                due: p.due,
                sent,
                done,
                ok,
            },
            class: p.class,
            shed,
            sample,
        });
    }
    out
}

fn run_rung(clients: &mut [Client], plan: &[Vec<Planned>]) -> Vec<Answered> {
    let t0 = Instant::now();
    let (first, rest) = clients.split_first_mut().expect("at least one connection");
    std::thread::scope(|scope| {
        let others: Vec<_> = rest
            .iter_mut()
            .zip(&plan[1..])
            .map(|(client, p)| scope.spawn(move || drive(client, p, t0)))
            .collect();
        let mut all = drive(first, &plan[0], t0);
        for h in others {
            all.extend(h.join().expect("load connection thread panicked"));
        }
        all
    })
}

/// Checks a sampled predict payload against a direct forward of the same
/// row through the same frozen evaluator.
fn payload_matches(exec: &mut Executor, space: &HardwareSpace, row: &[f32], line: &str) -> bool {
    let Ok(doc) = json::parse(line) else {
        return false;
    };
    let Some(metrics) = doc.get("metrics").and_then(Json::as_arr) else {
        return false;
    };
    exec.input_mut(1).copy_from_slice(row);
    exec.run(1);
    let want = exec.output(0, 1);
    let bits_match = metrics.len() == want.len()
        && metrics
            .iter()
            .zip(want)
            .all(|(m, w)| m.as_f64().map(|v| (v as f32).to_bits()) == Some(w.to_bits()));
    let mut heads = [0usize; 4];
    for (h, &w) in HEAD_WIDTHS.iter().enumerate() {
        let logits = &exec.output(1 + h, 1)[..w];
        // Ties keep the last maximum, as the server's read-out does.
        let mut best = 0;
        for j in 1..w {
            if logits[j] >= logits[best] {
                best = j;
            }
        }
        heads[h] = best;
    }
    let cfg = space.index_of(&space.from_head_indices(heads[0], heads[1], heads[2], heads[3]));
    bits_match && doc.get("cfg").and_then(Json::as_f64) == Some(cfg as f64)
}

fn p50_of(answers: &[Answered], class: Option<Class>) -> f64 {
    let lat: Vec<f64> = answers
        .iter()
        .filter(|a| class.is_none_or(|c| a.class == c))
        .map(|a| a.sent.latency_ms())
        .collect();
    stats::median(&lat)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5E4E);
    let width = NetworkTemplate::cifar10().num_slots() * SlotChoice::CANDIDATES.len();
    let pool: Vec<Vec<f32>> = (0..POOL).map(|_| random_row(&mut rng, width)).collect();
    let mut t0 = ctx.started;
    let mut live = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = live.take() {
            if let Err(e) = stop(prev) {
                out.checks
                    .push(Check::new("serve.drain", false, e.to_string()));
            }
            t0 = Instant::now();
        }
        match start(&ctx.work.join(format!("serve-{rep}")), &pool) {
            Ok(l) => live = Some(l),
            Err(e) => {
                out.checks
                    .push(Check::new("serve.start", false, e.to_string()));
                return out;
            }
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut live = live.expect("a live server after set-up");

    let mut next_id = POOL;
    let steps: Vec<(f64, Vec<Vec<Planned>>)> = SCHEDULE
        .iter()
        .map(|&(rate, share)| {
            let plan = plan_rung(&mut rng, &pool, rate, share * ctx.seconds, &mut next_id);
            (rate, plan)
        })
        .collect();
    // Per offered rate: answers, summed step wall time, and whether any of
    // its steps fell behind.
    let mut by_rate: BTreeMap<u64, (Vec<Answered>, f64, bool)> = BTreeMap::new();
    let mut checked = Vec::new();
    for (i, (rate, plan)) in steps.iter().enumerate() {
        let answers = {
            let _span = dance_telemetry::span!("perfbench.serve.rung");
            run_rung(&mut live.clients, plan)
        };
        out.attempted += answers.len() as u64;
        out.failed += answers.iter().filter(|a| !a.sent.ok).count() as u64;
        let shed = answers.iter().filter(|a| a.shed).count() as f64;
        *out.layer.entry("serve.shed").or_insert(0.0) += shed;
        checked.extend(answers.iter().filter_map(|a| a.sample.clone()));
        if i == 0 {
            continue; // warm-up
        }
        let sent: Vec<Sent> = answers.iter().map(|a| a.sent).collect();
        let entry = by_rate.entry(*rate as u64).or_default();
        entry.1 += sent.iter().map(|r| r.done).fold(0.0, f64::max);
        entry.2 |= stats::lag_growing(&sent, LAG_SLACK_MS);
        entry.0.extend(answers);
    }
    let rungs: Vec<Rung> = by_rate
        .iter()
        .map(|(&rate, (answers, wall_s, lag_growing))| {
            let latency: Vec<f64> = answers.iter().map(|a| a.sent.latency_ms()).collect();
            Rung {
                rate: rate as f64,
                achieved: answers.len() as f64 / wall_s,
                tail_ms: stats::tail(&latency).map_or(f64::INFINITY, |(_, v)| v),
                errors: answers.iter().filter(|a| !a.sent.ok).count() as u64,
                lag_growing: *lag_growing,
            }
        })
        .collect();
    let report = by_rate
        .remove(&(REPORT_RATE as u64))
        .map(|(answers, _, _)| answers)
        .unwrap_or_default();
    let health = call_json(&mut live.clients[0], ReqBody::Health).ok();
    let hit_rate = health
        .as_ref()
        .and_then(|h| h.get("cache"))
        .and_then(|c| c.get("hit_rate"))
        .and_then(Json::as_f64);
    if let Err(e) = stop(live) {
        out.checks
            .push(Check::new("serve.drain", false, e.to_string()));
    }

    let ev = search::evaluator(HeadSampling::Softmax { tau: 1.0 });
    let space = HardwareSpace::new();
    match ev.freeze_plan(BatchConfig::default().max_batch) {
        Ok(plan) => {
            let mut exec = Executor::new(plan);
            let bad = checked
                .iter()
                .filter(|(row, line)| !payload_matches(&mut exec, &space, row, line))
                .count();
            out.checks.push(Check::new(
                "serve.predict_payload_bits",
                bad == 0 && !checked.is_empty(),
                format!(
                    "{bad} of {} sampled payloads differ from a direct plan forward",
                    checked.len()
                ),
            ));
        }
        Err(e) => out.checks.push(Check::new(
            "serve.predict_payload_bits",
            false,
            format!("reference evaluator does not freeze: {e}"),
        )),
    }

    // The timed operation is a fresh query: a predict that misses the
    // cache and runs the collector and the plan. Hits and analytic queries
    // are answered in tens of microseconds, where a VM's scheduling noise
    // swamps any change to the program; they are reported per layer.
    out.op_ms = report
        .iter()
        .filter(|a| a.class == Class::Miss)
        .map(|a| a.sent.latency_ms())
        .collect();
    let all_p50 = p50_of(&report, None);
    out.work_ms = all_p50;
    out.ops_per_s = stats::max_rate(&rungs, LIMIT_MS).map_or(0.0, |r| r.achieved);
    let late: Vec<f64> = report.iter().map(|a| a.sent.late_ms()).collect();
    out.layer
        .insert("serve.cache_hit_rate", hit_rate.unwrap_or(0.0));
    out.layer.insert("serve.p50_ms", all_p50);
    out.layer
        .insert("serve.hit_p50_ms", p50_of(&report, Some(Class::Hit)));
    out.layer.insert(
        "serve.analytic_p50_ms",
        p50_of(&report, Some(Class::Analytic)),
    );
    out.layer
        .insert("serve.miss_p50_ms", p50_of(&report, Some(Class::Miss)));
    out.layer.insert(
        "serve.gen_late_ms",
        stats::tail(&late).map_or(0.0, |(_, v)| v),
    );
    out.params = vec![
        ("eval_width", search::EVAL_WIDTH.to_string()),
        ("connections", CONNECTIONS.to_string()),
        (
            "mix",
            "30% predict miss, 50% predict hit (256-key pool), 20% analytic".into(),
        ),
        (
            "schedule_req_per_s",
            format!("{:?}", SCHEDULE.map(|(r, _)| r)),
        ),
        ("report_rate", REPORT_RATE.to_string()),
        ("limit_ms", LIMIT_MS.to_string()),
        (
            "rungs",
            format!(
                "{:?}",
                rungs
                    .iter()
                    .map(|r| (r.rate, r.achieved, r.tail_ms, r.errors, r.lag_growing))
                    .collect::<Vec<_>>()
            ),
        ),
        ("op", "predict miss at 1000 req/s, from due time".into()),
        (
            "ops_per_s",
            "requests answered per second at the highest ladder rate meeting the limit".into(),
        ),
    ];
    out
}
