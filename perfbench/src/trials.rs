//! The two trial workloads: closed-loop fault-injection trials through the
//! campaign runner (`Prebaked::with_campaign` + `run_plan`, one pool
//! worker), at the `default` budget, on f64 checkpoints.
//!
//! - `resume-train`: Chainer/ResNet50; clone → 1000 mantissa flips →
//!   build → restore → one resume epoch (a Figure 2 trial).
//! - `verify-predict`: TensorFlow/VGG16; clone → 1000 full-range flips →
//!   v2 encode → ECC protect → raw payload flips → ECC-correcting decode →
//!   build → restore → predict a 32-image probe (a Table VIII trial behind
//!   a verified loader).
//!
//! A run sets up [`SETUPS`] times, each in a fresh working directory, runs
//! one warm-up wave of one trial per worker, then one closed-loop wave
//! sized to fill the rest of `--seconds`. A traced run splits that time
//! into an untraced and a traced wave.

use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::{metric, replay, Args, Metric, Report, RunDir, WORKERS};
use sefi_core::{
    Corrupter, CorrupterConfig, CorruptionMode, FileRegion, InjectionReport, RawConfig,
    RawCorrupter,
};
use sefi_experiments::{Budget, CampaignConfig, CellPlan, Prebaked, TrialError, TrialOutcome};
use sefi_float::{BitRange, Precision};
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_hdf5::{Dtype, EccSidecar, H5File, LoadPolicy};
use sefi_models::ModelKind;
use sefi_nn::EpochRecord;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// The experiment budget every trial workload runs at.
pub const BUDGET_NAME: &str = "default";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Logical flips per trial.
const FLIPS: u64 = 1000;

/// Raw payload flips per `verify-predict` trial.
const RAW_FLIPS: u64 = 3;

/// Images in the `verify-predict` probe batch.
const PROBE_IMAGES: usize = 32;

/// Seed of the sessions `Prebaked` builds (its trials restore over the
/// initial weights, so only the architecture matters).
const SESSION_SEED: u64 = 0x5EF1_2021;

fn budget() -> Budget {
    Budget::by_name(BUDGET_NAME).expect("the budget preset exists")
}

/// A session configured the way `Prebaked` configures its own.
fn session_config(fw: FrameworkKind, model: ModelKind) -> SessionConfig {
    let b = budget();
    let mut cfg = SessionConfig::new(fw, model, SESSION_SEED);
    cfg.model_config = b.model_config();
    cfg.train.batch_size = 8.min(b.train_images.max(1));
    cfg
}

/// A set-up harness: dataset, pretrained baseline, minted pristine file.
struct Setup {
    pre: Prebaked,
    pristine: Arc<H5File>,
}

/// Set up [`SETUPS`] times, each cold in a fresh working directory, and
/// keep the last harness (its directory stays the working directory).
fn set_up(
    run: &RunDir,
    workload: &str,
    fw: FrameworkKind,
    model: ModelKind,
) -> Result<(Setup, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last: Option<Setup> = None;
    for k in 0..SETUPS {
        drop(last.take());
        run.enter(&format!("setup-{k}"))?;
        let t0 = Instant::now();
        let config = CampaignConfig::new(&format!("perfbench-{workload}")).results_dir("results");
        let pre = Prebaked::with_campaign(budget(), config)
            .map_err(|e| format!("opening the campaign: {e}"))?;
        let pristine = pre.checkpoint_shared(fw, model, Dtype::F64);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(Setup { pre, pristine });
    }
    Ok((last.expect("at least one set-up"), times))
}

/// One trial as the closure saw it.
struct Timed<R> {
    seed: u64,
    thread: ThreadId,
    start_s: f64,
    end_s: f64,
    record: R,
}

impl<R> Timed<R> {
    fn ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// One `run_plan` call.
struct Wave<R> {
    wall_s: f64,
    outcomes: Vec<TrialOutcome>,
    runs: Vec<Timed<R>>,
}

/// Consecutive waves measured as one closed loop.
struct Phase<R> {
    waves: Vec<Wave<R>>,
}

impl<R> Phase<R> {
    fn runs(&self) -> impl Iterator<Item = &Timed<R>> {
        self.waves.iter().flat_map(|w| &w.runs)
    }

    fn wall_s(&self) -> f64 {
        self.waves.iter().map(|w| w.wall_s).sum()
    }

    fn trials_per_s(&self) -> f64 {
        self.runs().count() as f64 / self.wall_s()
    }

    fn trial_ms(&self) -> Vec<f64> {
        stats::sorted(&self.runs().map(Timed::ms).collect::<Vec<_>>())
    }

    /// Closure time over wall time × workers.
    fn busy_frac(&self) -> f64 {
        let busy: f64 = self.runs().map(|r| r.end_s - r.start_s).sum();
        busy / (self.wall_s() * WORKERS as f64)
    }

    /// Mean time a pool thread spends between the end of one trial closure
    /// and the start of its next: the runner's per-trial bookkeeping.
    fn overhead_ms(&self) -> f64 {
        let mut gaps = Vec::new();
        for w in &self.waves {
            let mut by_thread: HashMap<ThreadId, Vec<(f64, f64)>> = HashMap::new();
            for r in &w.runs {
                by_thread.entry(r.thread).or_default().push((r.start_s, r.end_s));
            }
            for spans in by_thread.values_mut() {
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                gaps.extend(spans.windows(2).map(|p| (p[1].0 - p[0].1) * 1e3));
            }
        }
        stats::mean(&gaps)
    }
}

type TrialFn<'a, R> = dyn Fn(&Tracer, u64) -> Result<(TrialOutcome, R), TrialError> + Sync + 'a;

/// Run `trials` trials of `trial` as one cell through the campaign runner.
#[allow(clippy::too_many_arguments)]
fn run_wave<R: Send>(
    pre: &Prebaked,
    cell: String,
    fw: FrameworkKind,
    model: ModelKind,
    trials: usize,
    clock: Instant,
    tracer: &Tracer,
    trial: &TrialFn<'_, R>,
) -> Wave<R> {
    let runs = Mutex::new(Vec::with_capacity(trials));
    let plan = CellPlan::new("perfbench", cell, fw, model, trials, |_, seed| {
        let start_s = clock.elapsed().as_secs_f64();
        let (outcome, record) = trial(tracer, seed)?;
        let end_s = clock.elapsed().as_secs_f64();
        let thread = std::thread::current().id();
        runs.lock().expect("trial log poisoned").push(Timed {
            seed,
            thread,
            start_s,
            end_s,
            record,
        });
        Ok(outcome)
    });
    let t0 = Instant::now();
    let outcomes = pre.run_plan(std::slice::from_ref(&plan)).pop().expect("one plan, one cell");
    let wall_s = t0.elapsed().as_secs_f64();
    drop(plan);
    let runs = runs.into_inner().expect("trial log poisoned");
    Wave { wall_s, outcomes, runs }
}

/// Trials that fill `seconds` on [`WORKERS`] workers at `trial_s` each,
/// rounded up to whole rounds of workers.
fn trials_for(seconds: f64, trial_s: f64) -> usize {
    let n = (seconds.max(0.0) * WORKERS as f64 / trial_s.max(1e-3)).round() as usize;
    n.max(WORKERS).div_ceil(WORKERS) * WORKERS
}

/// The waves of one run.
struct Measured<R> {
    warm: Wave<R>,
    plain: Phase<R>,
    /// The traced phase and its spans.
    traced: Option<(Phase<R>, Vec<Span>)>,
}

impl<R> Measured<R> {
    fn waves(&self) -> impl Iterator<Item = &Wave<R>> {
        let traced = self.traced.iter().flat_map(|(p, _)| &p.waves);
        std::iter::once(&self.warm).chain(&self.plain.waves).chain(traced)
    }
}

/// Most waves one phase runs; later waves only top up the time.
const MAX_WAVES: usize = 4;

/// Warm up, then measure closed-loop for the rest of `--seconds`: one
/// untraced phase, or an untraced and a traced phase of half the time
/// each. A phase runs waves sized from the trial times seen so far until
/// its time is used.
fn closed_loop<R: Send>(
    args: &Args,
    setup: &Setup,
    fw: FrameworkKind,
    model: ModelKind,
    trial: &TrialFn<'_, R>,
) -> Measured<R> {
    let clock = Instant::now();
    let mut waves_run = 0;
    let mut wave = |n: usize, tracer: &Tracer| {
        waves_run += 1;
        let cell = format!("{}-seed{}-wave{waves_run}", args.workload, args.seed);
        run_wave(&setup.pre, cell, fw, model, n, clock, tracer, trial)
    };
    let off = Tracer::new(false, 0);
    let warm = wave(WORKERS, &off);
    let mut trial_s: Vec<f64> = warm.runs.iter().map(|r| r.end_s - r.start_s).collect();
    let left = args.seconds - clock.elapsed().as_secs_f64();
    let share = if args.trace { left / 2.0 } else { left };
    let mut phase = |tracer: &Tracer| {
        let end = clock.elapsed().as_secs_f64() + share;
        let mut waves = Vec::new();
        while waves.len() < MAX_WAVES {
            let left = end - clock.elapsed().as_secs_f64();
            let est = stats::mean(&trial_s);
            if !waves.is_empty() && left < est / 2.0 {
                break;
            }
            let w = wave(trials_for(left, est), tracer);
            if waves.is_empty() {
                // The warm-up's first trials ran cold.
                trial_s.clear();
            }
            trial_s.extend(w.runs.iter().map(|r| r.end_s - r.start_s));
            waves.push(w);
        }
        Phase { waves }
    };
    let plain = phase(&off);
    let traced = args.trace.then(|| {
        // Ten spans per trial; a few thousand trials at most.
        let on = Tracer::new(true, 1 << 15);
        let p = phase(&on);
        (p, on.spans())
    });
    Measured { warm, plain, traced }
}

/// Checks, end-to-end metrics and the runner/trace layer metrics shared by
/// both trial workloads.
fn common_report<R>(
    args: &Args,
    run: &RunDir,
    setup: &Setup,
    setup_s: &[f64],
    m: &Measured<R>,
    report: &mut Report,
) -> Result<(), String> {
    let total: usize = m.waves().map(|w| w.outcomes.len()).sum();
    let failed: Vec<&TrialOutcome> =
        m.waves().flat_map(|w| &w.outcomes).filter(|o| o.is_failed()).collect();
    report.attempted += total as u64;
    report.failed += failed.len() as u64;
    for o in failed.iter().take(3) {
        report.problems.push(format!("trial failed: {}", o.failure.as_deref().unwrap_or("?")));
    }
    let (executed, cached) = setup.pre.campaign_totals().expect("the harness has a campaign");
    report.check(cached == 0 && executed == total as u64, || {
        format!("{cached} trials served from a manifest, {executed} run, {total} submitted")
    });

    let ms = m.plain.trial_ms();
    let (tail_pct, tail_ms) = stats::tail(&ms);
    let tps = m.plain.trials_per_s();
    report.end_to_end.extend([
        metric("setup_s", stats::median(setup_s), "s"),
        metric("throughput_per_s", tps, "1/s"),
        metric("latency_ms_p50", stats::percentile(&ms, 50.0), "ms"),
        metric("latency_ms_tail", tail_ms, "ms"),
        metric("peak_heap_mb", crate::heap::peak_mb(), "MB"),
    ]);
    report.detail.extend([
        metric("trials", ms.len() as f64, "count"),
        metric("trials_per_s", tps, "1/s"),
        metric("trial_ms_p50", stats::percentile(&ms, 50.0), "ms"),
        metric("trial_ms_tail", tail_ms, "ms"),
        metric("trial_ms_tail.percentile", tail_pct, "pct"),
    ]);

    if let Some((traced, spans)) = &m.traced {
        let traced_p50 = stats::percentile(&traced.trial_ms(), 50.0);
        let results_bytes = dir_bytes(Path::new("results"));
        report.layers.extend([
            metric("runner.busy_frac", traced.busy_frac(), "frac"),
            metric("runner.overhead_ms", traced.overhead_ms(), "ms"),
            metric("telemetry.bytes_per_trial", results_bytes as f64 / total as f64, "B"),
            metric("trace.stage_coverage", trace::coverage(spans, "experiments.trial"), "frac"),
            metric("trace.overhead_frac", traced_p50 / stats::percentile(&ms, 50.0) - 1.0, "frac"),
        ]);
        let path = run.trace_path(args);
        trace::write_jsonl(spans, &path).map_err(|e| format!("writing {path:?}: {e}"))?;
    }
    Ok(())
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Median duration (ms) of the spans named `name`.
fn span_ms(spans: &[Span], name: &str) -> f64 {
    stats::median(&spans.iter().filter(|s| s.name == name).map(Span::ms).collect::<Vec<_>>())
}

/// `<span>_ms` metrics: the median duration of each named span.
fn span_layers(spans: &[Span], names: &[&str]) -> Vec<Metric> {
    names.iter().map(|name| metric(format!("{name}_ms"), span_ms(spans, name), "ms")).collect()
}

fn corrupt(cfg: CorrupterConfig, file: &mut H5File) -> Result<InjectionReport, TrialError> {
    Ok(Corrupter::new(cfg)?.corrupt(file)?)
}

/// What a `resume-train` trial keeps for the checks and counters.
struct ResumeRecord {
    history: Vec<EpochRecord>,
    injections: u64,
    nan_redraws: u64,
}

fn mantissa_flips(seed: u64) -> CorrupterConfig {
    let mut cfg = CorrupterConfig::bit_flips_full_range(FLIPS, Precision::Fp64, seed);
    cfg.mode = CorruptionMode::BitRange(BitRange { first_bit: 0, last_bit: 51 });
    cfg
}

fn same_history(a: &[EpochRecord], b: &[EpochRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.epoch == y.epoch
                && x.train_loss.to_bits() == y.train_loss.to_bits()
                && x.test_accuracy.to_bits() == y.test_accuracy.to_bits()
        })
}

/// The `resume-train` workload.
pub fn resume_train(args: &Args, run: &RunDir) -> Result<Report, String> {
    let (fw, model) = (FrameworkKind::Chainer, ModelKind::ResNet50);
    let (setup, setup_s) = set_up(run, &args.workload, fw, model)?;
    let b = budget();
    let cfg = session_config(fw, model);
    let (pre, pristine) = (&setup.pre, &setup.pristine);
    let trial = |t: &Tracer, seed: u64| -> Result<(TrialOutcome, ResumeRecord), TrialError> {
        t.root("experiments.trial", seed, || {
            let mut ck = t.span("hdf5.clone", || (**pristine).clone());
            let inj = t.span("core.corrupt", || corrupt(mantissa_flips(seed), &mut ck))?;
            let mut session = t.span("frameworks.build", || Session::new(cfg.clone()));
            t.span("frameworks.restore", || session.restore(&ck)).map_err(TrialError::new)?;
            let target = session.epoch() + b.resume_epochs;
            let out = t.span("nn.train", || session.train_to(pre.data(), target));
            let outcome = TrialOutcome::ok().with_collapsed(out.collapsed()).with_counters(
                inj.injections,
                inj.nan_redraws,
                inj.skipped,
            );
            let record = ResumeRecord {
                history: out.history().to_vec(),
                injections: inj.injections,
                nan_redraws: inj.nan_redraws,
            };
            Ok((outcome, record))
        })
    };
    let m = closed_loop(args, &setup, fw, model, &trial);
    let mut report = Report::default();
    common_report(args, run, &setup, &setup_s, &m, &mut report)?;

    // The first and last measured trials, re-run one at a time through the
    // harness's own resume path, must reproduce the pooled histories bit
    // for bit.
    let runs: Vec<_> = m.plain.runs().collect();
    for r in [runs.first(), runs.last()].into_iter().flatten() {
        let mut ck = (**pristine).clone();
        let same = corrupt(mantissa_flips(r.seed), &mut ck)
            .and_then(|_| pre.try_resume(fw, model, &ck, b.resume_epochs))
            .map(|out| same_history(out.history(), &r.record.history));
        report.check(matches!(same, Ok(true)), || match same {
            Err(e) => format!("sequential re-run of seed {:x} failed: {e}", r.seed),
            _ => format!("seed {:x}: sequential history differs from the pooled one", r.seed),
        });
    }

    if let Some((traced, spans)) = &m.traced {
        let train_ms = span_ms(spans, "nn.train");
        let epoch = replay::resnet50_epoch(&b, pre.data(), WORKERS);
        let replayed: f64 = epoch.kind_ms.iter().map(|(_, ms)| ms).sum();
        report.layers.extend(span_layers(
            spans,
            &["hdf5.clone", "core.corrupt", "frameworks.build", "frameworks.restore", "nn.train"],
        ));
        let per_trial = |f: fn(&ResumeRecord) -> u64| {
            stats::mean(&traced.runs().map(|r| f(&r.record) as f64).collect::<Vec<_>>())
        };
        report.layers.extend([
            metric("core.injections", per_trial(|r| r.injections), "count"),
            metric("core.nan_redraws", per_trial(|r| r.nan_redraws), "count"),
            metric("nn.replay_coverage", replayed / train_ms, "frac"),
            metric("tensor.train_gflops", epoch.flops / train_ms / 1e6, "GFLOP/s"),
        ]);
        for (kind, ms) in epoch.kind_ms {
            report.layers.push(metric(format!("nn.kind_ms.{kind}"), ms, "ms"));
        }
    }
    Ok(report)
}

/// What a `verify-predict` trial keeps for the checks and counters.
struct VerifyRecord {
    /// Probe predictions; `None` when a raw flip was uncorrectable.
    preds: Option<Vec<usize>>,
    injections: u64,
    nan_redraws: u64,
    sections_flipped: usize,
    sections_repaired: usize,
    file_bytes: usize,
    parity_bytes: usize,
}

fn full_range_flips(seed: u64) -> CorrupterConfig {
    CorrupterConfig::bit_flips_full_range(FLIPS, Precision::Fp64, seed)
}

fn raw_flips(seed: u64) -> RawConfig {
    RawConfig { flips: RAW_FLIPS, region: Some(FileRegion::Payload), seed: seed.rotate_left(17) }
}

/// The `verify-predict` workload.
pub fn verify_predict(args: &Args, run: &RunDir) -> Result<Report, String> {
    let (fw, model) = (FrameworkKind::TensorFlow, ModelKind::Vgg16);
    let (setup, setup_s) = set_up(run, &args.workload, fw, model)?;
    let cfg = session_config(fw, model);
    let probe = setup.pre.data().prediction_set(PROBE_IMAGES).0;
    let pristine = &setup.pristine;
    let trial = |t: &Tracer, seed: u64| -> Result<(TrialOutcome, VerifyRecord), TrialError> {
        t.root("experiments.trial", seed, || {
            let mut ck = t.span("hdf5.clone", || (**pristine).clone());
            let inj = t.span("core.corrupt", || corrupt(full_range_flips(seed), &mut ck))?;
            let mut bytes = t.span("hdf5.encode", || ck.to_bytes_v2());
            let sidecar = t.span("hdf5.protect", || EccSidecar::protect(&bytes))?;
            let raw = t.span("core.raw_flip", || {
                RawCorrupter::new(raw_flips(seed))?.corrupt_bytes(&mut bytes)
            })?;
            let (file, load) = t.span("hdf5.decode", || {
                H5File::from_bytes_with_ecc(&bytes, LoadPolicy::Correct, &sidecar)
            })?;
            let mut session = t.span("frameworks.build", || Session::new(cfg.clone()));
            let preds = if load.quarantined.is_empty() {
                t.span("frameworks.restore", || session.restore(&file)).map_err(TrialError::new)?;
                Some(t.span("nn.predict", || session.predict(probe.clone())).0)
            } else {
                None
            };
            let flipped: BTreeSet<&str> = raw
                .flips
                .iter()
                .filter_map(|f| f.target.as_ref())
                .map(|t| t.dataset.as_str())
                .collect();
            let record = VerifyRecord {
                preds,
                injections: inj.injections,
                nan_redraws: inj.nan_redraws,
                sections_flipped: flipped.len(),
                sections_repaired: load.corrected.len(),
                file_bytes: bytes.len(),
                parity_bytes: sidecar.parity_bytes(),
            };
            let outcome =
                TrialOutcome::ok().with_counters(inj.injections, inj.nan_redraws, inj.skipped);
            Ok((outcome, record))
        })
    };
    let m = closed_loop(args, &setup, fw, model, &trial);
    let mut report = Report::default();
    common_report(args, run, &setup, &setup_s, &m, &mut report)?;

    // Whenever every raw flip was repaired, the network restored from the
    // ECC-corrected bytes must predict exactly what the in-memory
    // corrupted file predicts.
    for r in m.waves().flat_map(|w| &w.runs) {
        let Some(preds) = &r.record.preds else { continue };
        let mut ck = (**pristine).clone();
        let mut session = Session::new(cfg.clone());
        let reference = corrupt(full_range_flips(r.seed), &mut ck)
            .and_then(|_| session.restore(&ck).map_err(TrialError::new))
            .map(|()| session.predict(probe.clone()).0);
        report.check(reference.as_ref().is_ok_and(|p| p == preds), || {
            format!("seed {:x}: ECC-restored predictions differ from the in-memory file", r.seed)
        });
    }

    if let Some((traced, spans)) = &m.traced {
        let records: Vec<&VerifyRecord> = traced.runs().map(|r| &r.record).collect();
        let mean = |f: fn(&VerifyRecord) -> f64| {
            stats::mean(&records.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let file_mb = mean(|r| r.file_bytes as f64) / 1e6;
        let protect_ms = span_ms(spans, "hdf5.protect");
        let decode_ms = span_ms(spans, "hdf5.decode");
        let flipped: usize = records.iter().map(|r| r.sections_flipped).sum();
        let repaired: usize = records.iter().map(|r| r.sections_repaired).sum();
        report.layers.extend(span_layers(
            spans,
            &[
                "hdf5.clone",
                "core.corrupt",
                "hdf5.encode",
                "hdf5.protect",
                "core.raw_flip",
                "hdf5.decode",
                "frameworks.build",
                "frameworks.restore",
                "nn.predict",
            ],
        ));
        report.layers.extend([
            metric("core.injections", mean(|r| r.injections as f64), "count"),
            metric("core.nan_redraws", mean(|r| r.nan_redraws as f64), "count"),
            metric("hdf5.protect_mbps", file_mb / (protect_ms / 1e3), "MB/s"),
            metric("hdf5.decode_mbps", file_mb / (decode_ms / 1e3), "MB/s"),
            // Encode writes the file, protect and decode each read it once.
            metric(
                "hdf5.bytes_per_trial",
                mean(|r| (3 * r.file_bytes + r.parity_bytes) as f64),
                "B",
            ),
            metric("hdf5.repair_ratio", repaired as f64 / flipped.max(1) as f64, "frac"),
            metric(
                "hdf5.uncorrectable",
                records.iter().filter(|r| r.preds.is_none()).count() as f64,
                "count",
            ),
        ]);
    }
    Ok(report)
}
