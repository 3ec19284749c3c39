//! The `serve-guarded` workload: an open-loop Poisson generator speaking
//! `sefi_serve::proto` over one TCP connection to an in-process
//! `run_server` (Chainer/AlexNet, f32, one worker, two replicas,
//! `max_batch` 8, 2 ms window), while `ServeEngine::poison_replica` fires
//! on a seeded request-count schedule so guard trips and targeted reloads
//! recur.
//!
//! Every request is timed from its due time, not from when it was sent,
//! so a stalled generator shows as latency. In each of several rounds the
//! generator sends at three fixed rates (`light`, `mid`, `peak`) and then
//! runs a closed loop that keeps the server saturated, whose completion
//! rate is the throughput. After the rounds it binary-searches a fixed
//! rate ladder (5% steps) below that throughput for the highest rate at
//! which p99 ≤ 25 ms, nothing is lost and no backlog grows. Every answer
//! must arrive exactly once and match `ServeEngine::serve_deterministic`
//! on a clean engine.
//!
//! The traced run sends the `peak` schedule untraced and traced over TCP,
//! then replays it through `BatchQueue::push` + `ServeEngine::run_worker`
//! without TCP, reading `BatchServed`/`ReplicaReload` events from a
//! `JsonlSink` the benchmark passes in, to split a request into queue,
//! batch and protocol time.

use crate::stats;
use crate::trace::{self, Tracer};
use crate::{heap, metric, Args, Report, RunDir, WORKERS};
use sefi_frameworks::{save_checkpoint, FrameworkKind};
use sefi_hdf5::{Dtype, EccSidecar};
use sefi_models::{build, ModelConfig, ModelKind};
use sefi_nn::EnvelopeSet;
use sefi_rng::DetRng;
use sefi_serve::proto::{read_response, write_request, Response, FLAG_RESERVED};
use sefi_serve::{
    calibrate_from_clean_bytes, corpus_images, run_server, BatchQueue, EngineConfig, ReplicaSpec,
    Request, ServeEngine, ServerConfig,
};
use sefi_telemetry::{Event, JsonlSink};
use sefi_tensor::Tensor;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Engine replicas; the one worker serves from the first and fails over
/// to the second while the first reloads.
const REPLICAS: usize = 2;

/// The worker's own replica, the one that is poisoned.
const HOME_REPLICA: usize = 0;

/// The fixed offered rates, req/s.
const RATES: [(&str, f64); 3] = [("light", 1000.0), ("mid", 5000.0), ("peak", 9000.0)];

/// Share of `--seconds` spent on each fixed rate and on the closed loop,
/// over all rounds; the SLO probes get the rest.
const SHARES: [f64; 4] = [0.1, 0.2, 0.25, 0.3];

/// Rounds the fixed rates and the closed loop are split into.
const ROUNDS: usize = 20;

/// A figure is the best decile of its per-round values (the 10th
/// percentile of latencies, the 90th of throughputs). Host noise only ever
/// slows a round, and on a shared 2-vCPU VM it comes and goes within
/// seconds: in a noisy stretch the per-round `mid` p50 ranged 1.25-3.4 ms
/// within one run against 1.1-1.2 ms when quiet, so a median over the
/// rounds follows the noise and the best decile does not.
const BEST_PCT: f64 = 10.0;

/// Requests the closed loop keeps outstanding: four full batches, so the
/// worker always finds one waiting.
const IN_FLIGHT: usize = 4 * 8;

/// Throughput the first closed-loop round is sized for, req/s; later
/// rounds use the rate measured so far.
const FIRST_GUESS_RPS: f64 = 30_000.0;

/// Latency limit of the SLO search.
const SLO_P99_MS: f64 = 25.0;

/// Ladder: `LADDER_BASE × LADDER_STEP^k` req/s for `k < LADDER_RUNGS`.
const LADDER_BASE: f64 = 1000.0;
const LADDER_STEP: f64 = 1.05;
const LADDER_RUNGS: usize = 85;

/// Tail latencies are the median of the p99s of consecutive windows of
/// this length (by due time), so a host stall moves the windows it falls
/// in and not the whole figure. At `peak` a window holds about 90
/// requests; the host stalls for several ms a few times a second, so
/// longer windows would let most windows hold a stall.
const WINDOW_S: f64 = 0.01;

/// A backlog grows when the last quarter's median latency exceeds the
/// first quarter's by more than this.
const BACKLOG_MS: f64 = 5.0;

/// Requests between replica poisonings, on average.
const POISON_EVERY: u64 = 1500;

/// Set-ups per run: the server's set-up is short, so it is repeated
/// more often than a trial workload's.
const SETUPS: usize = 9;

/// Distinct images the generator cycles through.
const CORPUS: usize = 128;

/// Weight seed of the served checkpoint (the `sefi-serve` default).
const WEIGHT_SEED: u64 = 0xC0DE_5EED;

/// How long the generator waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(30);

fn engine_config() -> EngineConfig {
    EngineConfig {
        fw: FrameworkKind::Chainer,
        model: ModelKind::AlexNet,
        model_config: ModelConfig { scale: 0.05, input_size: 16, num_classes: 10 },
        dtype: Dtype::F32,
        max_batch: 8,
        batch_window: Duration::from_millis(2),
        guard_slack: 0.5,
    }
}

/// Everything an engine is built from.
struct Served {
    specs: Vec<ReplicaSpec>,
    env: Arc<EnvelopeSet>,
    canary: Tensor,
    corpus: Vec<Vec<f32>>,
}

impl Served {
    fn engine(&self, sink: Option<Arc<JsonlSink>>) -> Result<ServeEngine, String> {
        let cfg = engine_config();
        ServeEngine::new(
            cfg,
            &self.specs,
            Arc::clone(&self.env),
            self.canary.clone(),
            sink,
            "perfbench",
        )
    }
}

/// Mint, protect and write the replicas, calibrate the guards, load the
/// engine: the server's set-up.
fn set_up(dir: &Path, seed: u64) -> Result<(Served, ServeEngine), String> {
    let cfg = engine_config();
    let (mut net, _) = build(cfg.model, cfg.model_config, &mut DetRng::new(WEIGHT_SEED));
    let clean = save_checkpoint(cfg.fw, &mut net, 1, cfg.dtype).to_bytes_v2();
    let sidecar = EccSidecar::protect(&clean).map_err(|e| format!("sidecar: {e}"))?;
    let mut specs = Vec::with_capacity(REPLICAS);
    for r in 0..REPLICAS {
        let path = dir.join(format!("replica_{r}.h5"));
        std::fs::write(&path, &clean).map_err(|e| format!("writing {path:?}: {e}"))?;
        specs.push(ReplicaSpec { path, sidecar: Some(sidecar.clone()) });
    }
    let corpus = corpus_images(CORPUS, cfg.model_config.input_size, seed);
    let s = cfg.model_config.input_size;
    let batches: Vec<Tensor> = corpus
        .chunks(cfg.max_batch)
        .map(|chunk| Tensor::from_vec(chunk.concat(), &[chunk.len(), 3, s, s]))
        .collect();
    let env = Arc::new(calibrate_from_clean_bytes(&cfg, &clean, &batches)?);
    let served = Served { specs, env, canary: batches[0].clone(), corpus };
    let engine = served.engine(None)?;
    Ok((served, engine))
}

/// One schedule: due offsets and the request indices before which a
/// replica is poisoned.
struct Schedule {
    rate: f64,
    due: Vec<Duration>,
    poison: Vec<(usize, usize)>,
}

fn schedule(rate: f64, seconds: f64, seed: u64) -> Schedule {
    let n = ((rate * seconds).round() as usize).max(64);
    let mut arrivals = DetRng::new(seed).substream("arrivals");
    let mut t = 0.0f64;
    let due = (0..n)
        .map(|_| {
            t += -arrivals.uniform().max(f64::MIN_POSITIVE).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect();
    Schedule { rate, due, poison: poisonings(n, seed) }
}

/// Seeded poisonings of `n` requests: (request index, replica), about one
/// per [`POISON_EVERY`] requests, always of [`HOME_REPLICA`] (a spare is
/// only read during failover, so a poisoned spare would wait there for the
/// next trip).
fn poisonings(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = DetRng::new(seed).substream("poison");
    let mut poison = Vec::new();
    let mut at = rng.below(POISON_EVERY) as usize;
    while at < n {
        poison.push((at, HOME_REPLICA));
        at += (POISON_EVERY / 2 + rng.below(POISON_EVERY)) as usize;
    }
    poison
}

/// What one schedule produced.
struct Outcome {
    rate: f64,
    sent: usize,
    /// Due time of each request, s from the start of the schedule.
    due_s: Vec<f64>,
    /// Latency from due time, ms, in request order (`NaN` if unanswered).
    latency_ms: Vec<f64>,
    missing: usize,
    duplicates: usize,
    wrong: usize,
    flagged: usize,
    reserved: usize,
    gen_lag_ms_max: f64,
}

impl Outcome {
    fn sorted_ms(&self) -> Vec<f64> {
        stats::sorted(
            &self.latency_ms.iter().copied().filter(|v| v.is_finite()).collect::<Vec<_>>(),
        )
    }

    fn p(&self, pct: f64) -> f64 {
        stats::percentile(&self.sorted_ms(), pct)
    }

    /// Percentile `pct` of each [`WINDOW_S`] window; an unanswered request
    /// counts as infinitely late.
    fn window_percentiles(&self, pct: f64) -> Vec<f64> {
        let span = self.due_s.last().copied().unwrap_or(0.0);
        let windows = ((span / WINDOW_S).round() as usize).max(1);
        let mut per = vec![Vec::new(); windows];
        for (due, ms) in self.due_s.iter().zip(&self.latency_ms) {
            let w = ((due / span.max(f64::MIN_POSITIVE)) * windows as f64) as usize;
            per[w.min(windows - 1)].push(if ms.is_nan() { f64::INFINITY } else { *ms });
        }
        per.iter().map(|v| stats::percentile(&stats::sorted(v), pct)).collect()
    }

    fn lossless(&self) -> bool {
        self.missing == 0 && self.duplicates == 0
    }

    fn backlog_grows(&self) -> bool {
        let q = self.latency_ms.len() / 4;
        if q == 0 {
            return false;
        }
        let first = stats::median(&self.latency_ms[..q]);
        let last = stats::median(&self.latency_ms[self.latency_ms.len() - q..]);
        // NaN: an unanswered request is among the medians.
        let growth = last - first;
        growth.is_nan() || growth > BACKLOG_MS
    }

    fn meets_slo(&self) -> bool {
        self.lossless()
            && self.wrong == 0
            && stats::median(&self.window_percentiles(99.0)) <= SLO_P99_MS
            && !self.backlog_grows()
    }

    /// Fold the per-request checks into the report.
    fn check(&self, what: &str, report: &mut Report) {
        let bad = self.missing + self.duplicates + self.wrong + self.flagged;
        report.attempted += self.sent as u64;
        report.failed += bad as u64;
        if bad > 0 {
            report.problems.push(format!(
                "{what} at {:.0} req/s: {} unanswered, {} duplicated, {} wrong, {} flagged of {}",
                self.rate, self.missing, self.duplicates, self.wrong, self.flagged, self.sent
            ));
        }
    }
}

/// Best decile ([`BEST_PCT`]) of latencies, one per round.
fn best_ms(per_round: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(per_round), BEST_PCT)
}

/// Best decile of the rounds `outs`' median latencies.
fn p50(outs: &[Outcome]) -> f64 {
    best_ms(&outs.iter().map(|o| o.p(50.0)).collect::<Vec<_>>())
}

/// Best decile of the rounds `outs`' medians over their windows of the
/// window's percentile `pct`.
fn windowed(outs: &[Outcome], pct: f64) -> f64 {
    best_ms(&outs.iter().map(|o| stats::median(&o.window_percentiles(pct))).collect::<Vec<_>>())
}

/// Tally answers against the clean reference.
fn tally(
    sched: &Schedule,
    sent_at: &[Instant],
    t0: Instant,
    answers: &[(Instant, u64, u32, u32)],
    reference: &[u32],
) -> Outcome {
    let n = sched.due.len();
    let mut latency_ms = vec![f64::NAN; n];
    let (mut duplicates, mut wrong, mut flagged, mut reserved) = (0, 0, 0, 0);
    for &(at, id, class, flags) in answers {
        let i = id as usize;
        if i >= n || latency_ms[i].is_finite() {
            duplicates += 1;
            continue;
        }
        latency_ms[i] = at.saturating_duration_since(t0 + sched.due[i]).as_secs_f64() * 1e3;
        wrong += usize::from(class != reference[i % CORPUS]);
        flagged += usize::from(flags & !FLAG_RESERVED != 0);
        reserved += usize::from(flags & FLAG_RESERVED != 0);
    }
    let gen_lag_ms_max = sent_at
        .iter()
        .zip(&sched.due)
        .map(|(s, d)| s.saturating_duration_since(t0 + *d).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    Outcome {
        rate: sched.rate,
        sent: n,
        due_s: sched.due.iter().map(Duration::as_secs_f64).collect(),
        missing: latency_ms.iter().filter(|v| v.is_nan()).count(),
        latency_ms,
        duplicates,
        wrong,
        flagged,
        reserved,
        gen_lag_ms_max,
    }
}

/// Sleep until `due` (returns at once if it has passed).
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Send one schedule over TCP to a fresh `run_server` on `engine`.
fn over_tcp(
    engine: &Arc<ServeEngine>,
    served: &Served,
    sched: &Schedule,
    reference: &[u32],
    dir: &Path,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let n = sched.due.len();
    let port_file = dir.join("port");
    let _ = std::fs::remove_file(&port_file);
    let server_cfg = ServerConfig {
        workers: WORKERS,
        port: 0,
        port_file: Some(port_file.clone()),
        request_limit: Some(n as u64),
    };
    let server = {
        let engine = Arc::clone(engine);
        std::thread::spawn(move || run_server(engine, &server_cfg))
    };
    let port = wait_for_port(&port_file)?;
    let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut sent_at = Vec::with_capacity(n);
    let t0 = Instant::now();
    let (sent, got) = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                let resp = tracer
                    .root("proto.read_response", got.len() as u64, || read_response(&mut reader));
                match resp {
                    Ok(Some(Response { id, class, flags })) => {
                        got.push((Instant::now(), id, class, flags))
                    }
                    _ => break,
                }
            }
            got
        });
        let mut send = || -> Result<(), String> {
            let mut poison = sched.poison.iter().peekable();
            for (i, due) in sched.due.iter().enumerate() {
                wait_until(t0 + *due);
                while let Some(&(_, victim)) = poison.next_if(|(at, _)| *at == i) {
                    tracer.root("serve.poison_replica", i as u64, || engine.poison_replica(victim));
                }
                let image = &served.corpus[i % CORPUS];
                tracer
                    .root("proto.write_request", i as u64, || {
                        write_request(&mut writer, i as u64, image)
                    })
                    .map_err(|e| format!("send: {e}"))?;
                sent_at.push(Instant::now());
            }
            Ok(())
        };
        let sent = send();
        let deadline = Instant::now() + DRAIN;
        while sent.is_ok() && !collector.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Unblocks the collector if answers are still missing.
        let _ = stream.shutdown(Shutdown::Both);
        (sent, collector.join())
    });
    // A failed send leaves the server waiting for requests; its thread
    // ends with the process.
    sent?;
    let got = got.map_err(|_| "collector panicked".to_string())?;
    server.join().map_err(|_| "server thread panicked".to_string())??;
    Ok(tally(sched, &sent_at, t0, &got, reference))
}

fn wait_for_port(path: &Path) -> Result<u16, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Some(port) =
            std::fs::read_to_string(path).ok().and_then(|s| s.trim().parse::<u16>().ok())
        {
            return Ok(port);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(format!("server never wrote {path:?}"))
}

/// Closed loop over TCP: one thread keeps [`IN_FLIGHT`] of `n` requests
/// outstanding on a fresh `run_server`, sending the next as each answer
/// arrives. Returns the outcome (latency from send).
fn saturate(
    engine: &Arc<ServeEngine>,
    served: &Served,
    n: usize,
    seed: u64,
    reference: &[u32],
    dir: &Path,
) -> Result<Outcome, String> {
    let port_file = dir.join("port");
    let _ = std::fs::remove_file(&port_file);
    let server_cfg = ServerConfig {
        workers: WORKERS,
        port: 0,
        port_file: Some(port_file.clone()),
        request_limit: Some(n as u64),
    };
    let server = {
        let engine = Arc::clone(engine);
        std::thread::spawn(move || run_server(engine, &server_cfg))
    };
    let port = wait_for_port(&port_file)?;
    let mut stream =
        TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    // A lost answer ends the loop instead of blocking it.
    stream.set_read_timeout(Some(DRAIN)).map_err(|e| format!("timeout: {e}"))?;
    let poison = poisonings(n, seed);
    let mut poison = poison.iter().peekable();
    let mut sent_at = Vec::with_capacity(n);
    let mut got = Vec::with_capacity(n);
    let t0 = Instant::now();
    let mut send = |stream: &mut TcpStream, sent_at: &mut Vec<Instant>| -> Result<(), String> {
        let i = sent_at.len();
        while let Some(&(_, victim)) = poison.next_if(|(at, _)| *at == i) {
            engine.poison_replica(victim);
        }
        write_request(stream, i as u64, &served.corpus[i % CORPUS])
            .map_err(|e| format!("send: {e}"))?;
        sent_at.push(Instant::now());
        Ok(())
    };
    // A failed send leaves the server waiting for requests; its thread
    // ends with the process.
    while sent_at.len() < IN_FLIGHT.min(n) {
        send(&mut stream, &mut sent_at)?;
    }
    while got.len() < n {
        match read_response(&mut stream) {
            Ok(Some(Response { id, class, flags })) => got.push((Instant::now(), id, class, flags)),
            _ => break,
        }
        if sent_at.len() < n {
            send(&mut stream, &mut sent_at)?;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    if got.len() == n {
        server.join().map_err(|_| "server thread panicked".to_string())??;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let sched = Schedule {
        rate: n as f64 / elapsed,
        due: sent_at.iter().map(|s| s.duration_since(t0)).collect(),
        poison: Vec::new(),
    };
    let mut out = tally(&sched, &sent_at, t0, &got, reference);
    out.missing += n - sent_at.len();
    out.sent = n;
    Ok(out)
}

/// Event lines as the sink wrote them, stamped with the emitting thread
/// and time.
type Stamped = Arc<Mutex<Vec<(ThreadId, Instant, String)>>>;

/// A `JsonlSink` target that keeps each flushed line in memory.
struct StampedWriter {
    lines: Stamped,
    buf: Vec<u8>,
}

impl Write for StampedWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            let line = String::from_utf8_lossy(&self.buf).trim_end().to_string();
            self.buf.clear();
            let stamp = (std::thread::current().id(), Instant::now(), line);
            self.lines.lock().expect("event log poisoned").push(stamp);
        }
        Ok(())
    }
}

/// One answer as a replay worker delivered it: worker thread, time, id,
/// class, flags.
type Delivery = (ThreadId, Instant, u64, u32, u32);

/// Per-request phases of the replay, and the engine's events.
struct Replay {
    outcome: Outcome,
    queue_ms: Vec<f64>,
    covered: Vec<f64>,
    batch_sizes: Vec<f64>,
    batch_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    guard_trips: usize,
}

/// Replay `sched` through `BatchQueue::push` + `ServeEngine::run_worker`
/// on a fresh engine that reports to an in-memory sink.
fn replay(
    served: &Served,
    sched: &Schedule,
    reference: &[u32],
    tracer: &Tracer,
) -> Result<Replay, String> {
    let lines: Stamped = Arc::default();
    let writer = StampedWriter { lines: Arc::clone(&lines), buf: Vec::new() };
    let sink = Arc::new(JsonlSink::to_writer(Box::new(writer)));
    let engine = served.engine(Some(sink))?;
    let queue = BatchQueue::new();
    let delivered: Mutex<Vec<Delivery>> = Mutex::default();
    let n = sched.due.len();
    let mut pushed = Vec::with_capacity(n);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let (engine, queue, delivered) = (&engine, &queue, &delivered);
            s.spawn(move || {
                tracer.root("serve.run_worker", w as u64, || {
                    engine.run_worker(w, queue, |a| {
                        let flags = if a.reserved { FLAG_RESERVED } else { 0 };
                        let at = Instant::now();
                        let me = std::thread::current().id();
                        delivered
                            .lock()
                            .expect("delivery log poisoned")
                            .push((me, at, a.id, a.class, flags));
                    })
                })
            });
        }
        let mut poison = sched.poison.iter().peekable();
        for (i, due) in sched.due.iter().enumerate() {
            wait_until(t0 + *due);
            while let Some(&(_, victim)) = poison.next_if(|(at, _)| *at == i) {
                tracer.root("serve.poison_replica", i as u64, || engine.poison_replica(victim));
            }
            let req = Request { id: i as u64, tag: 0, image: served.corpus[i % CORPUS].clone() };
            pushed.push(Instant::now());
            let accepted = tracer.root("serve.push", i as u64, || queue.push(req));
            assert!(accepted, "the queue closes only after the last push");
        }
        queue.close();
    });
    let delivered = delivered.into_inner().expect("delivery log poisoned");
    let answers: Vec<_> = delivered.iter().map(|d| (d.1, d.2, d.3, d.4)).collect();
    let outcome = tally(sched, &pushed, t0, &answers, reference);

    // Each worker thread emits a batch's `BatchServed` and then delivers
    // its answers, so a delivery belongs to the latest `BatchServed` its
    // thread emitted.
    let events = lines.lock().expect("event log poisoned").clone();
    let mut batch_start: HashMap<ThreadId, Vec<(Instant, Instant)>> = HashMap::new();
    let (mut batch_sizes, mut batch_ms, mut reload_ms, mut guard_trips) =
        (vec![], vec![], vec![], 0);
    for (thread, at, line) in &events {
        match serde_json::from_str::<Event>(line) {
            Ok(Event::BatchServed { size, duration_ns, .. }) => {
                batch_sizes.push(size as f64);
                batch_ms.push(duration_ns as f64 / 1e6);
                let start = *at - Duration::from_nanos(duration_ns);
                batch_start.entry(*thread).or_default().push((*at, start));
            }
            Ok(Event::ReplicaReload { duration_ns, .. }) => {
                reload_ms.push(duration_ns as f64 / 1e6)
            }
            Ok(Event::GuardTrip { .. }) => guard_trips += 1,
            Ok(_) => {}
            Err(e) => return Err(format!("unreadable serve event {line:?}: {e}")),
        }
    }
    let mut queue_ms = Vec::with_capacity(n);
    let mut covered = Vec::with_capacity(n);
    for &(thread, at, id, _, _) in &delivered {
        let Some(batches) = batch_start.get(&thread) else { continue };
        let k = batches.partition_point(|(emitted, _)| *emitted <= at);
        let Some(&(emitted, start)) = k.checked_sub(1).map(|k| &batches[k]) else { continue };
        let i = id as usize;
        let due = t0 + sched.due[i];
        queue_ms.push(start.saturating_duration_since(pushed[i]).as_secs_f64() * 1e3);
        // Generator lag + queue + batch + reply, over the latency.
        let phases = pushed[i].saturating_duration_since(due)
            + start.saturating_duration_since(pushed[i])
            + emitted.saturating_duration_since(start)
            + at.saturating_duration_since(emitted);
        let latency = at.saturating_duration_since(due).as_secs_f64();
        if latency > 0.0 {
            covered.push(phases.as_secs_f64() / latency);
        }
    }
    Ok(Replay { outcome, queue_ms, covered, batch_sizes, batch_ms, reload_ms, guard_trips })
}

/// Set up [`SETUPS`] times, each in a fresh directory; keep the last.
fn set_up_repeatedly(
    run: &RunDir,
    seed: u64,
) -> Result<(Served, Arc<ServeEngine>, PathBuf, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS {
        drop(last.take());
        let dir = run.enter(&format!("setup-{k}"))?;
        let t0 = Instant::now();
        let (served, engine) = set_up(&dir, seed)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some((served, engine, dir));
    }
    let (served, engine, dir) = last.expect("at least one set-up");
    Ok((served, Arc::new(engine), dir, times))
}

/// The `serve-guarded` workload.
pub fn serve_guarded(args: &Args, run: &RunDir) -> Result<Report, String> {
    let (served, engine, dir, setup_s) = set_up_repeatedly(run, args.seed)?;
    let clean = served.engine(None)?;
    let corpus: Vec<Request> = served
        .corpus
        .iter()
        .enumerate()
        .map(|(i, image)| Request { id: i as u64, tag: 0, image: image.clone() })
        .collect();
    let reference: Vec<u32> =
        clean.serve_deterministic(&corpus, 8).iter().map(|a| a.class).collect();
    drop(clean);
    let mut report = Report::default();
    let off = Tracer::new(false, 0);
    let seed_for =
        |what: &str| sefi_experiments::combo_seed_parts("serve", what, "", args.seed as usize);

    if args.trace {
        let (_, peak) = RATES[2];
        let share = args.seconds / 3.0;
        let sched = schedule(peak, share, seed_for("peak"));
        let plain = over_tcp(&engine, &served, &sched, &reference, &dir, &off)?;
        plain.check("untraced peak", &mut report);
        // Two spans per request over TCP, one per replayed request.
        let on = Tracer::new(true, 4 * sched.due.len());
        let traced = over_tcp(&engine, &served, &sched, &reference, &dir, &on)?;
        traced.check("traced peak", &mut report);
        let r = replay(&served, &sched, &reference, &on)?;
        r.outcome.check("replayed peak", &mut report);
        let spans = on.spans();
        let path = run.trace_path(args);
        trace::write_jsonl(&spans, &path).map_err(|e| format!("writing {path:?}: {e}"))?;
        let requests = r.outcome.sent.max(1) as f64;
        report.layers.extend([
            metric("serve.batch_size_mean", stats::mean(&r.batch_sizes), "count"),
            metric("serve.batch_ms_p50", stats::median(&r.batch_ms), "ms"),
            metric("serve.queue_ms_p50", stats::median(&r.queue_ms), "ms"),
            metric("serve.proto_ms_p50", plain.p(50.0) - r.outcome.p(50.0), "ms"),
            metric("serve.guard_trips", r.guard_trips as f64, "count"),
            metric("serve.reload_ms_p50", stats::median(&r.reload_ms), "ms"),
            metric("serve.reserved_frac", r.outcome.reserved as f64 / requests, "frac"),
            metric("serve.gen_lag_ms_max", plain.gen_lag_ms_max.max(traced.gen_lag_ms_max), "ms"),
            metric("trace.stage_coverage", stats::median(&r.covered), "frac"),
            metric("trace.overhead_frac", traced.p(50.0) / plain.p(50.0) - 1.0, "frac"),
        ]);
        return Ok(report);
    }

    // The fixed rates and the closed loop run in rounds spread over the
    // whole run, so a stretch of host noise hits some rounds of each
    // rather than all of one.
    let [light_s, mid_s, peak_s, closed_s] = SHARES.map(|f| args.seconds * f / ROUNDS as f64);
    let mut fixed: [Vec<Outcome>; 3] = Default::default();
    // Each round's closed-loop rate per wall second, whose median sizes the
    // next round and anchors the SLO search, and per CPU second of the
    // process, the throughput figure: CPU time leaves out the time the
    // host's hypervisor gives to its other guests, which under load
    // took 10-40% of each round.
    let (mut wall_rates, mut cpu_rates) = (Vec::new(), Vec::new());
    let mut throughput = FIRST_GUESS_RPS;
    // SLO probes may queue without bound, so the memory metric is the peak
    // over the set-ups, the fixed rates and the closed loop.
    let mut peak_heap_mb = heap::peak_mb();
    for round in 0..ROUNDS {
        heap::reset_peak();
        for (((name, rate), outs), secs) in
            RATES.iter().zip(&mut fixed).zip([light_s, mid_s, peak_s])
        {
            let sched = schedule(*rate, secs, seed_for(&format!("{name}-{round}")));
            let out = over_tcp(&engine, &served, &sched, &reference, &dir, &off)?;
            out.check(name, &mut report);
            outs.push(out);
        }
        let n = ((throughput * closed_s) as usize).max(4 * IN_FLIGHT);
        let seed = seed_for(&format!("closed-{round}"));
        let (wall0, cpu0) = (Instant::now(), process_cpu_s());
        let out = saturate(&engine, &served, n, seed, &reference, &dir)?;
        cpu_rates.push(n as f64 / (process_cpu_s() - cpu0));
        wall_rates.push(n as f64 / wall0.elapsed().as_secs_f64());
        out.check("closed loop", &mut report);
        throughput = stats::median(&wall_rates);
        peak_heap_mb = peak_heap_mb.max(heap::peak_mb());
    }

    // The SLO rate: binary search of the ladder between the rung at or
    // below half the closed-loop throughput and the rung at or below it;
    // when the lower end fails too, the search goes on below it. A rung
    // fails only when two probes of it fail.
    let rung_of = |rate: f64| ((rate / LADDER_BASE).ln() / LADDER_STEP.ln()).floor() as i64;
    let probe_s = args.seconds * (1.0 - SHARES.iter().sum::<f64>()) / 6.0;
    let (mut lo, mut hi) = (rung_of(throughput / 2.0).max(0) - 1, rung_of(throughput) + 1);
    hi = hi.min(LADDER_RUNGS as i64);
    let mut slo_rps = None;
    let mut probed = 0;
    while hi - lo > 1 {
        // Probe the lower end first, then halve.
        let mid = if slo_rps.is_none() { lo + 1 } else { (lo + hi) / 2 };
        let rate = LADDER_BASE * LADDER_STEP.powi(mid as i32);
        let mut meets = false;
        for _ in 0..2 {
            let sched = schedule(rate, probe_s, seed_for(&format!("ladder-{probed}")));
            let out = over_tcp(&engine, &served, &sched, &reference, &dir, &off)?;
            out.check("ladder", &mut report);
            probed += 1;
            meets = out.meets_slo();
            if meets {
                break;
            }
        }
        if meets {
            lo = mid;
            slo_rps = Some(rate);
        } else if slo_rps.is_none() {
            // The lower end failed: search the rungs below it.
            hi = mid;
            lo = (mid / 2) - 1;
        } else {
            hi = mid;
        }
    }
    report.check(slo_rps.is_some(), || {
        format!("no ladder rate met the SLO (lowest {LADDER_BASE} req/s)")
    });
    let slo_rps = slo_rps.unwrap_or(0.0);

    let [light, mid, peak] = &fixed;
    report.end_to_end.extend([
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("throughput_per_s", stats::median(&cpu_rates), "1/s"),
        metric("latency_ms_p50", p50(mid), "ms"),
        metric("latency_ms_tail", windowed(mid, 90.0), "ms"),
        metric("peak_heap_mb", peak_heap_mb, "MB"),
    ]);
    let gen_lag = fixed.iter().flatten().map(|o| o.gen_lag_ms_max).fold(0.0, f64::max);
    report.detail.extend([
        metric("req_ms_p50.light", p50(light), "ms"),
        metric("req_ms_p50.mid", p50(mid), "ms"),
        metric("req_ms_p90.mid", windowed(mid, 90.0), "ms"),
        metric("req_ms_p99.mid", windowed(mid, 99.0), "ms"),
        metric("req_ms_p99.peak", windowed(peak, 99.0), "ms"),
        metric("closed_rps", throughput, "1/s"),
        metric("closed_rps_per_cpu", stats::median(&cpu_rates), "1/s"),
        metric("slo_rps", slo_rps, "1/s"),
        metric("serve.gen_lag_ms_max", gen_lag, "ms"),
    ]);
    Ok(report)
}

/// CPU time this process has used, all threads, in seconds.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    unsafe extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}
