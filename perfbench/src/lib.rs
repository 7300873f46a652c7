//! The repository benchmark: three workloads that each stress a
//! different layer of the GPUMEM pipeline, measured end to end on the
//! host clock and the modeled K20c clock, with a per-layer breakdown
//! from one extra traced operation. See `README.md` beside this crate
//! for the metric dictionary and the reasons behind each workload.
//!
//! Every layer is measured from outside, by timing calls into the
//! library's public API; nothing is added inside the program.

pub mod calibrate;
pub mod layers;
pub mod manifest;
pub mod oneshot;
pub mod report;
pub mod serving;
pub mod tally;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

pub use calibrate::Prober;
pub use report::{Metric, Report};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The CLI default path: ℓs = min(13, L), dense index.
    OneshotDefault,
    /// A closely related pair with many MEMs: the block kernels and merges.
    MatchHeavy,
    /// Zipf traffic over six references under a registry byte budget.
    ServingZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OneshotDefault,
        Workload::MatchHeavy,
        Workload::ServingZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotDefault => "oneshot_default",
            Workload::MatchHeavy => "match_heavy",
            Workload::ServingZipf => "serving_zipf",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics every workload reports, in order, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("qps", "1/s"),
    ("setup_s", "s"),
    ("modeled_index_s", "s"),
    ("modeled_match_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports, in order, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.speed", "ratio"),
    ("raw.wall_s", "s"),
    ("raw.setup_s", "s"),
    ("wall_p50_s", "s"),
    ("wall_p90_s", "s"),
    ("seq.parse_s", "s"),
    ("index.rows", "count"),
    ("index.bytes_per_row", "bytes"),
    ("sim.launches", "count"),
    ("sim.warp_efficiency", "ratio"),
    ("sim.host_ns_per_warp_cycle", "ns/cycle"),
    ("sim.pool_peak_bytes", "bytes"),
    ("index.build_s", "s"),
    ("block.host_s", "s"),
    ("block.modeled_s", "s"),
    ("block.seed_lookup.warp_cycles", "cycles"),
    ("block.seed_lookup.warp_efficiency", "ratio"),
    ("block.balance.warp_cycles", "cycles"),
    ("block.balance.warp_efficiency", "ratio"),
    ("block.generate.warp_cycles", "cycles"),
    ("block.generate.warp_efficiency", "ratio"),
    ("block.combine.warp_cycles", "cycles"),
    ("block.combine.warp_efficiency", "ratio"),
    ("block.expand.warp_cycles", "cycles"),
    ("block.expand.warp_efficiency", "ratio"),
    ("block.in_block", "count"),
    ("block.out_block", "count"),
    ("tile_merge.host_s", "s"),
    ("tile_merge.modeled_s", "s"),
    ("tile_merge.fragments_in", "count"),
    ("tile_merge.out_tile", "count"),
    ("global.host_s", "s"),
    ("global.fragments_in", "count"),
    ("global.mems", "count"),
    ("pipeline.unattributed_s", "s"),
    ("registry.hit_rate", "ratio"),
    ("registry.evictions", "count"),
    ("registry.peak_resident_bytes", "bytes"),
    ("engine.build_wait_s", "s"),
    ("engine.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("baseline.mummer_s", "s"),
];

/// Input sizes: `Full` is the benchmark proper, `Tiny` the same code
/// paths on inputs small enough for the self-check tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Run one workload: generate its inputs from `seed`, set up, measure
/// for `seconds`, then make the traced operation. `prober` runs the
/// host-speed probes (see [`calibrate`]).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    size: Size,
    prober: &Prober,
) -> Report {
    let work = WorkDir::create(workload.name());
    let mut report = match workload {
        Workload::OneshotDefault => {
            oneshot::run(&oneshot::spec_default(size), seed, seconds, &work, prober)
        }
        Workload::MatchHeavy => oneshot::run(
            &oneshot::spec_match_heavy(size),
            seed,
            seconds,
            &work,
            prober,
        ),
        Workload::ServingZipf => serving::run(&serving::spec(size), seed, seconds, &work, prober),
    };
    report.workload = workload.name().to_string();
    report
        .manifest
        .insert(0, ("seed".to_string(), seed.to_string()));
    report.manifest.extend(manifest::host_entries());
    report
}

/// Times repeated by every workload's set-up; `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 5;

/// A scratch directory under the working directory for the FASTA
/// inputs of one run, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tag: &str) -> WorkDir {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(".perfbench-work").join(format!("{tag}-{}-{run}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the benchmark's input directory");
        WorkDir(dir)
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Write `records` as a FASTA file.
pub(crate) fn write_fasta_file(path: &Path, records: &[gpumem_seq::FastaRecord]) {
    let file = std::fs::File::create(path).expect("create an input FASTA file");
    let mut writer = std::io::BufWriter::new(file);
    gpumem_seq::write_fasta(&mut writer, records).expect("write an input FASTA file");
    std::io::Write::flush(&mut writer).expect("flush an input FASTA file");
}

/// Read and pack a FASTA file (the timed parse layer).
pub(crate) fn read_fasta_file(path: &Path) -> Vec<gpumem_seq::FastaRecord> {
    let file = std::fs::File::open(path).expect("open an input FASTA file");
    gpumem_seq::read_fasta(
        std::io::BufReader::new(file),
        gpumem_seq::AmbigPolicy::Error,
    )
    .expect("the benchmark's own FASTA parses")
}
