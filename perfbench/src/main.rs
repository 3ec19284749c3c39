//! End-to-end benchmark of the system's two units of work: a
//! fault-injection trial (clone → corrupt → build and restore → resume or
//! predict) and a served request (read → queue → batch → forward → guard →
//! reply).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <resume-train|verify-predict|serve-guarded> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run works in a fresh directory under `.perfbench/` (removed on
//! exit), so pretraining caches and campaign manifests never carry over
//! between runs. With `--trace 0` the last stdout line is the end-to-end
//! result; with `--trace 1` it is the per-layer result, from spans the
//! benchmark records around its calls into each crate (written to
//! `.perfbench/traces/`). The command exits 1 when an output check fails
//! and 2 on bad arguments. See `perfbench/README.md`.

mod heap;
mod replay;
mod serve;
mod stats;
mod trace;
mod trials;

use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The workloads, as `BENCHMARK.json` names them.
const WORKLOADS: [&str; 3] = ["resume-train", "verify-predict", "serve-guarded"];

/// Pool workers for trials and serving workers. One, although the host
/// has two vCPUs: the host is shared, and under its neighbours' load it
/// gives this machine about one CPU's worth. A fixed integer loop then
/// took 57-64 ms on its own but 110-150 ms beside a second copy, so
/// two-worker throughput swung by up to 2x with the neighbours' load,
/// while one busy thread kept its speed.
pub const WORKERS: usize = 1;

/// The end-to-end metrics every run reports with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_heap_mb", "MB"),
];

/// The per-layer metrics every run reports with `--trace 1`. A layer a
/// workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("runner.busy_frac", "frac"),
    ("runner.overhead_ms", "ms"),
    ("telemetry.bytes_per_trial", "B"),
    ("core.corrupt_ms", "ms"),
    ("core.injections", "count"),
    ("core.nan_redraws", "count"),
    ("core.raw_flip_ms", "ms"),
    ("hdf5.clone_ms", "ms"),
    ("hdf5.encode_ms", "ms"),
    ("hdf5.protect_ms", "ms"),
    ("hdf5.protect_mbps", "MB/s"),
    ("hdf5.decode_ms", "ms"),
    ("hdf5.decode_mbps", "MB/s"),
    ("hdf5.bytes_per_trial", "B"),
    ("hdf5.repair_ratio", "frac"),
    ("hdf5.uncorrectable", "count"),
    ("frameworks.build_ms", "ms"),
    ("frameworks.restore_ms", "ms"),
    ("nn.train_ms", "ms"),
    ("nn.kind_ms.conv", "ms"),
    ("nn.kind_ms.batchnorm", "ms"),
    ("nn.kind_ms.relu", "ms"),
    ("nn.kind_ms.pool", "ms"),
    ("nn.kind_ms.dense", "ms"),
    ("nn.kind_ms.join", "ms"),
    ("nn.kind_ms.loss_sgd", "ms"),
    ("nn.replay_coverage", "frac"),
    ("nn.predict_ms", "ms"),
    ("tensor.train_gflops", "GFLOP/s"),
    ("serve.batch_size_mean", "count"),
    ("serve.batch_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.proto_ms_p50", "ms"),
    ("serve.guard_trips", "count"),
    ("serve.reload_ms_p50", "ms"),
    ("serve.reserved_frac", "frac"),
    ("serve.gen_lag_ms_max", "ms"),
    ("trace.stage_coverage", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Units of work attempted (trials or requests) plus output checks.
    pub attempted: u64,
    /// Failed units or failed checks.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The contract's end-to-end metrics ([`END_TO_END`]).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end figures under their specific names
    /// (printed, not part of the result line).
    pub detail: Vec<Metric>,
    /// Per-layer metrics of the traced run ([`PER_LAYER`]).
    pub layers: Vec<Metric>,
}

impl Report {
    /// Record an output check: counts as attempted, and as failed with
    /// `problem` when `ok` is false.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; valid: {WORKLOADS:?}"));
                }
                workload = Some(value.clone())
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The run's scratch area: `.perfbench/run-<pid>/` under the directory the
/// benchmark was started in. Each set-up gets a fresh subdirectory and
/// becomes the working directory, because the pretraining cache
/// (`target/sefi-cache`) and the campaign results resolve against it.
/// Dropping the guard returns to the start directory and deletes the area.
pub struct RunDir {
    home: PathBuf,
    root: PathBuf,
}

impl RunDir {
    fn create() -> Result<Self, String> {
        let home = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        let root = home.join(".perfbench").join(format!("run-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root).map_err(|e| format!("clearing {root:?}: {e}"))?;
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {root:?}: {e}"))?;
        Ok(RunDir { home, root })
    }

    /// Create `<root>/<name>` afresh and make it the working directory.
    pub fn enter(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        std::env::set_current_dir(&dir).map_err(|e| format!("entering {dir:?}: {e}"))?;
        Ok(dir)
    }

    /// Where a traced run leaves its spans: `.perfbench/traces/`, kept
    /// after the run.
    pub fn trace_path(&self, args: &Args) -> PathBuf {
        self.home
            .join(".perfbench")
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.home);
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Peak resident set of this process, in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// The host conditions every result records.
fn host_block(args: &Args) -> String {
    use sefi_tensor::{active_isa_name, cpu_features, kernel_mode, KernelMode};
    let mode = kernel_mode();
    let isa = if mode == KernelMode::Simd { active_isa_name() } else { "scalar" };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"isa\":\"{isa}\",\
         \"cpu_features\":\"{}\",\"kernel_mode\":\"{}\",\"nproc\":{nproc},\"threads\":{WORKERS},\
         \"budget\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        cpu_features(),
        format!("{mode:?}").to_lowercase(),
        trials::BUDGET_NAME,
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_line(report: &Report, trace: bool) -> String {
    let (declared, measured): (&[(&str, &str)], &[Metric]) =
        if trace { (&PER_LAYER, &report.layers) } else { (&END_TO_END, &report.end_to_end) };
    let fields: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = measured.iter().find(|m| m.name == *name).map(|m| m.value).unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(value))
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The trial pool's worker count; the rayon stand-in reads it per call.
    std::env::set_var("RAYON_NUM_THREADS", WORKERS.to_string());
    let started = Instant::now();
    let run = match RunDir::create() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let result = match args.workload.as_str() {
        "resume-train" => trials::resume_train(&args, &run),
        "verify-predict" => trials::verify_predict(&args, &run),
        _ => serve::serve_guarded(&args, &run),
    };
    drop(run);
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    println!("host {}", host_block(&args));
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.detail.push(metric("failed_frac", failed_frac, "frac"));
    report.detail.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    let shown = if args.trace { &report.layers } else { &report.end_to_end };
    for m in report.detail.iter().chain(shown) {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    eprintln!("perfbench: {} finished in {:.1} s", args.workload, started.elapsed().as_secs_f64());
    println!("{}", result_line(&report, args.trace));
    std::process::exit(if report.failed == 0 { 0 } else { 1 });
}
