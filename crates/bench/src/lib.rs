//! Benchmark support: shared fixtures for the Criterion benches.
//!
//! The benches live in `benches/`:
//! * `injector` — corruption throughput per mode/precision, plus the
//!   N-EV-threshold ablation (DESIGN.md §4.6).
//! * `checkpoint` — container encode/decode/save throughput.
//! * `training` — per-epoch training cost per model.
//! * `experiments` — one benchmark per paper table/figure, driving the
//!   experiment harness at micro scale.
//!
//! It also holds what the standalone `bench_*` binaries share: the timer,
//! the host block, and the entry row that can carry a baseline build's
//! time for the same operation.

use sefi_hdf5::{Dataset, Dtype, H5File};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Mean ns/iter of `f` after one warmup call, timed until `min_total`
/// elapses (at least 3, at most `max_iters` runs).
pub fn time_ns(min_total: Duration, max_iters: u64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < max_iters && (iters < 3 || start.elapsed() < min_total) {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The host conditions a bench file's numbers belong to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// CPU model name (`unknown` where the OS does not report one).
    pub cpu: String,
    /// Microkernel ISA the tensor kernels dispatch to on this host.
    pub isa: String,
    /// Kernel-relevant CPU features detected on this host.
    pub cpu_features: String,
    /// Hardware threads visible during the run.
    pub threads: usize,
    /// `smoke` or `full` measurement length.
    pub budget: String,
}

impl Host {
    /// Describe the current host for a run of the given length.
    pub fn detect(smoke: bool) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, name)| name.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpu,
            isa: sefi_tensor::active_isa_name().into(),
            cpu_features: sefi_tensor::cpu_features().into(),
            threads: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            budget: if smoke { "smoke" } else { "full" }.into(),
        }
    }
}

/// One measured operation. `before_ns_per_iter` is the same row in an
/// earlier run's file passed as `--baseline` (a build of the previous
/// commit, on the same host); it and `speedup` are 0 without one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Entry {
    /// Stable identifier, e.g. `scan_clean_ecc`.
    pub name: String,
    /// Mean wall time per iteration.
    pub ns_per_iter: f64,
    /// Checkpoint-payload throughput where a whole file is processed
    /// (0 for rows that deliberately touch only part of it).
    pub mb_per_s: f64,
    /// Baseline mean wall time per iteration.
    pub before_ns_per_iter: f64,
    /// `before_ns_per_iter / ns_per_iter`.
    pub speedup: f64,
}

/// Row times of an earlier bench file: only `name` and `ns_per_iter` of
/// each entry are read, so files from before the baseline columns load.
#[derive(Debug, Default, Deserialize)]
pub struct Baseline {
    entries: Vec<BaselineEntry>,
}

#[derive(Debug, Deserialize)]
struct BaselineEntry {
    name: String,
    ns_per_iter: f64,
}

impl Baseline {
    /// Read a bench file written by an earlier build.
    pub fn load(path: &str) -> Baseline {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("unparseable baseline {path}: {e}"))
    }

    /// A row measured at `ns` per iteration; `mb` is the payload size in MB
    /// for whole-file rows, `None` otherwise.
    pub fn entry(&self, name: &str, ns: f64, mb: Option<f64>) -> Entry {
        let before = self.entries.iter().find(|e| e.name == name).map_or(0.0, |e| e.ns_per_iter);
        Entry {
            name: name.into(),
            ns_per_iter: ns,
            mb_per_s: mb.map_or(0.0, |mb| mb * 1e9 / ns),
            before_ns_per_iter: before,
            speedup: if before > 0.0 { before / ns } else { 0.0 },
        }
    }
}

/// A synthetic checkpoint with `entries` float values spread over several
/// datasets, mimicking a small model file.
pub fn synthetic_checkpoint(entries: usize, dtype: Dtype) -> H5File {
    let mut f = H5File::new();
    let per = (entries / 4).max(1);
    for (i, name) in ["conv1/W", "conv1/b", "fc/W", "fc/b"].iter().enumerate() {
        let values: Vec<f32> = (0..per).map(|k| (((k + i * 7) as f32) * 0.37).sin()).collect();
        f.create_dataset(
            &format!("model/{name}"),
            Dataset::from_f32(&values, &[per], dtype).unwrap(),
        )
        .unwrap();
    }
    f
}

/// A deeper checkpoint: `layers` conv-style layers of `per_layer` values
/// each (plus a bias per layer), mimicking a real model file where lazy
/// single-dataset access only needs a sliver of the payload.
pub fn layered_checkpoint(layers: usize, per_layer: usize, dtype: Dtype) -> H5File {
    let mut f = H5File::new();
    for l in 0..layers {
        let values: Vec<f32> =
            (0..per_layer).map(|k| (((k + l * 13) as f32) * 0.21).cos()).collect();
        f.create_dataset(
            &format!("model/layer{l}/W"),
            Dataset::from_f32(&values, &[per_layer], dtype).unwrap(),
        )
        .unwrap();
        f.create_dataset(
            &format!("model/layer{l}/b"),
            Dataset::from_f32(&[0.5; 8], &[8], dtype).unwrap(),
        )
        .unwrap();
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_has_requested_magnitude() {
        let f = synthetic_checkpoint(1000, Dtype::F64);
        assert_eq!(f.total_entries(), 1000);
        assert_eq!(f.dataset_paths().len(), 4);
    }

    #[test]
    fn layered_fixture_shape() {
        let f = layered_checkpoint(8, 100, Dtype::F32);
        assert_eq!(f.dataset_paths().len(), 16);
        assert_eq!(f.total_entries(), 8 * (100 + 8));
    }
}
