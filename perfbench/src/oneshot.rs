//! One-shot workloads: one operation is one `Gpumem::run` from packed
//! reference and query to canonical MEMs, as the CLI does it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::{Device, DeviceSpec};
use gpumem_baselines::{MemFinder, Mummer};
use gpumem_core::{Gpumem, GpumemConfig, GpumemStats, RefSession};
use gpumem_seq::{table2_pairs, FastaRecord, PackedSeq};

use crate::calibrate::{Calibrator, Prober};
use crate::layers::{sim_metrics, stage_metrics, LayerTimes};
use crate::report::{mean, median, quantile, Metric, Report};
use crate::tally::{same_modeled, Tally};
use crate::{peak_rss_mb, read_fasta_file, write_fasta_file, Size, WorkDir, SETUP_REPEATS};

/// A Table II pair at a scale, and the configuration it runs under.
#[derive(Clone, Debug)]
pub struct PairWorkload {
    /// Index into `table2_pairs`.
    pub pair: usize,
    pub scale: f64,
    pub min_len: u32,
    /// `None` keeps the builder's default ℓs = min(13, L).
    pub seed_len: Option<usize>,
    /// Independent realisations of the pair, each `1/blocks` of its
    /// size, concatenated into one reference and one query.
    pub blocks: usize,
    /// Timed operations made even when `seconds` runs out first.
    pub min_ops: usize,
}

impl PairWorkload {
    pub fn config(&self) -> GpumemConfig {
        let mut builder = GpumemConfig::builder(self.min_len);
        if let Some(seed_len) = self.seed_len {
            builder = builder.seed_len(seed_len);
        }
        builder.build().expect("workload configurations are valid")
    }

    /// The reference and query for `seed`.
    pub fn realize(&self, seed: u64) -> (PackedSeq, PackedSeq) {
        let mut spec = table2_pairs(self.scale)[self.pair].clone();
        if self.blocks == 1 {
            let pair = spec.realize(seed);
            return (pair.reference, pair.query);
        }
        spec.ref_len /= self.blocks;
        spec.query_len /= self.blocks;
        let (mut reference, mut query) = (Vec::new(), Vec::new());
        for block in 0..self.blocks as u64 {
            let pair = spec.realize(seed.wrapping_mul(self.blocks as u64).wrapping_add(block));
            reference.extend(pair.reference.to_codes());
            query.extend(pair.query.to_codes());
        }
        (
            PackedSeq::from_codes(&reference),
            PackedSeq::from_codes(&query),
        )
    }
}

/// `oneshot_default`: chrXII/chrI at 1/256 (4.3 kb × 910 kb), L = 20,
/// the untouched default configuration.
pub fn spec_default(size: Size) -> PairWorkload {
    match size {
        Size::Full => PairWorkload {
            pair: 3,
            scale: 1.0 / 256.0,
            min_len: 20,
            seed_len: None,
            blocks: 1,
            min_ops: 3,
        },
        Size::Tiny => PairWorkload {
            pair: 3,
            scale: 1.0 / 65536.0,
            min_len: 20,
            seed_len: Some(8),
            blocks: 1,
            min_ops: 2,
        },
    }
}

/// `match_heavy`: chrXc/chrXh at 1/256 (522 kb × 602 kb), L = 30,
/// ℓs = 10. The pair is realised as 64 independent blocks of 1/64 the
/// size: one realisation of this pair has few, long query segments with
/// log-uniform divergence, so its MEM count (and matching work) swings
/// by ±30% between seeds; 64 blocks keep the shape and average
/// that out. (The harness's `scaled_seed_len` rounds log4 of this
/// reference, 9.497, down to 9; ℓs = 10 keeps the 25-row tile grid this
/// workload was chosen for.)
pub fn spec_match_heavy(size: Size) -> PairWorkload {
    match size {
        Size::Full => PairWorkload {
            pair: 1,
            scale: 1.0 / 256.0,
            min_len: 30,
            seed_len: Some(10),
            blocks: 64,
            min_ops: 3,
        },
        Size::Tiny => PairWorkload {
            pair: 1,
            scale: 1.0 / 16384.0,
            min_len: 30,
            seed_len: Some(8),
            blocks: 4,
            min_ops: 2,
        },
    }
}

pub fn run(
    spec: &PairWorkload,
    seed: u64,
    seconds: Duration,
    work: &WorkDir,
    prober: &Prober,
) -> Report {
    let config = spec.config();
    let mut report = Report::default();

    // Inputs and oracle (untimed for setup_s).
    let pair_spec = &table2_pairs(spec.scale)[spec.pair];
    let (reference_seq, query_seq) = spec.realize(seed);
    let ref_path = work.path("reference.fa");
    let query_path = work.path("query.fa");
    write_fasta_file(
        &ref_path,
        &[FastaRecord {
            header: pair_spec.reference_name.clone(),
            seq: reference_seq.clone(),
        }],
    );
    write_fasta_file(
        &query_path,
        &[FastaRecord {
            header: pair_spec.query_name.clone(),
            seq: query_seq.clone(),
        }],
    );
    let t = Instant::now();
    let oracle = Mummer::build(&reference_seq).find_mems(&query_seq, spec.min_len);
    let mummer_s = t.elapsed().as_secs_f64();

    // Set-up: parse + pack both inputs, construct the runner.
    let mut calibrator = Calibrator::new(prober);
    let mut setup_s = Vec::new();
    let mut parse_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let reference = read_fasta_file(&ref_path).remove(0).seq;
        let query = read_fasta_file(&query_path).remove(0).seq;
        parse_s.push(t.elapsed().as_secs_f64());
        let gpumem = Gpumem::new(config.clone());
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some((reference, query, gpumem));
    }
    let (reference, query, gpumem) = setup.expect("at least one set-up");
    report.check(
        "fasta_roundtrip",
        reference == reference_seq && query == query_seq,
        "parsed inputs equal the generated ones",
    );

    // Timed operations.
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut runs: Vec<GpumemStats> = Vec::new();
    let mut run_walls = Vec::new();
    let start = Instant::now();
    while walls.len() < spec.min_ops || start.elapsed() < seconds {
        calibrator.tick();
        // A fresh runner per operation: every run starts with a cold
        // device buffer pool, as a CLI invocation does.
        let gpumem = Gpumem::new(config.clone());
        let t = Instant::now();
        let outcome = gpumem.run(&reference, &query);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        tally.record(&[outcome.as_ref()], &[&oracle]);
        if let Ok(result) = outcome {
            runs.push(result.stats);
            run_walls.push(wall);
        }
    }
    let peak_rss = peak_rss_mb();
    calibrator.probe();
    let speed = calibrator.speed();
    let wall_s = mean(&walls);

    // The traced operation, after the timed ones.
    let t = Instant::now();
    let traced = gpumem.run_traced(&reference, &query);
    let traced_wall = t.elapsed().as_secs_f64();
    tally.record(&[traced.as_ref().map(|(r, _)| r)], &[&oracle]);

    // The index layer on its own: warm a session over the same
    // reference to read the per-row footprint.
    let session = RefSession::new(
        Arc::new(reference.clone()),
        config.clone(),
        &DeviceSpec::tesla_k20c(),
    )
    .expect("the workload fits the device");
    let t = Instant::now();
    session.warm(&Device::new(DeviceSpec::tesla_k20c()));
    let warm_s = t.elapsed().as_secs_f64();
    let bytes_per_row = session.resident_bytes() as f64 / session.resident_rows().max(1) as f64;
    let index_rows = session.rows();
    drop(session);

    let modeled_repeat = runs.windows(2).all(|w| same_modeled(&w[0], &w[1]));
    report.check(
        "modeled_repeats",
        modeled_repeat,
        format!(
            "modeled stats identical across {} untraced runs",
            runs.len()
        ),
    );

    let mut layer_metrics = Vec::new();
    let mut attributed = 0.0;
    if let (Ok((traced_result, trace)), Some(last)) = (&traced, runs.last()) {
        report.check(
            "traced_equals_untraced",
            same_modeled(&traced_result.stats, last),
            "traced run's modeled LaunchStats equal the untraced run's",
        );
        let layers = LayerTimes::from_trace(trace, DeviceSpec::tesla_k20c().warp_size);
        attributed = layers.attributed_s();
        layer_metrics = stage_metrics(&layers, &traced_result.stats);
    } else {
        report.check(
            "traced_equals_untraced",
            false,
            "no successful traced and untraced run",
        );
    }

    let index_modeled: Vec<f64> = runs.iter().map(|s| s.index.modeled_secs()).collect();
    let match_modeled: Vec<f64> = runs.iter().map(|s| s.matching.modeled_secs()).collect();
    report.end_to_end = vec![
        Metric::new("wall_s", wall_s * speed, "s"),
        Metric::new("qps", 1.0 / (wall_s * speed), "1/s"),
        Metric::new("setup_s", median(&setup_s) * speed, "s"),
        Metric::new("modeled_index_s", mean(&index_modeled), "s"),
        Metric::new("modeled_match_s", mean(&match_modeled), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];

    let unattributed = traced_wall - attributed;
    let mut per_layer = vec![
        Metric::new("host.speed", speed, "ratio"),
        Metric::new("raw.wall_s", wall_s, "s"),
        Metric::new("raw.setup_s", median(&setup_s), "s"),
        Metric::new("wall_p50_s", median(&walls), "s"),
        Metric::new("wall_p90_s", quantile(&walls, 0.9), "s"),
        Metric::new("seq.parse_s", median(&parse_s), "s"),
        Metric::new("index.rows", index_rows as f64, "count"),
        Metric::new("index.bytes_per_row", bytes_per_row, "bytes"),
    ];
    per_layer.extend(sim_metrics(&runs));
    per_layer.extend(layer_metrics);
    per_layer.extend([
        Metric::new("pipeline.unattributed_s", unattributed, "s"),
        // A one-shot run has no registry: every row is built, none kept.
        Metric::new("registry.hit_rate", 0.0, "ratio"),
        Metric::new("registry.evictions", 0.0, "count"),
        Metric::new("registry.peak_resident_bytes", 0.0, "bytes"),
        Metric::new(
            "engine.build_wait_s",
            mean(
                &runs
                    .iter()
                    .map(|s| s.index_wall.as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        Metric::new(
            "engine.overhead_s",
            mean(
                &run_walls
                    .iter()
                    .zip(&runs)
                    .map(|(w, s)| w - (s.index_wall + s.match_wall).as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        Metric::new("trace.overhead_frac", traced_wall / wall_s - 1.0, "ratio"),
        Metric::new("baseline.mummer_s", mummer_s, "s"),
    ]);
    report.per_layer = per_layer;

    report.notes.push(format!(
        "raw.wall_s is the mean of {} operations; walls (s): {:.4?}",
        walls.len(),
        walls
    ));
    report.notes.push(format!(
        "host.speed from {} probes; wall_s = raw.wall_s x host.speed",
        calibrator.probes()
    ));
    report.notes.push(format!(
        "reconciliation: layers {attributed:.4} s + unattributed {unattributed:.4} s = traced wall {traced_wall:.4} s = raw.wall_s {wall_s:.4} s x (1 + trace.overhead_frac)"
    ));
    report.notes.push(format!(
        "index warm of the same reference via RefSession::warm: {warm_s:.4} s"
    ));
    if let Some(first) = &tally.first_failure {
        report.notes.push(format!("first failure: {first}"));
    }
    report.manifest = manifest(spec, &config, &reference, &query, runs.first());
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report
}

fn manifest(
    spec: &PairWorkload,
    config: &GpumemConfig,
    reference: &PackedSeq,
    query: &PackedSeq,
    first: Option<&GpumemStats>,
) -> Vec<(String, String)> {
    let pair = &table2_pairs(spec.scale)[spec.pair];
    let (rows, cols) = first.map_or((0, 0), |s| (s.rows, s.cols));
    vec![
        ("pair".to_string(), pair.name.clone()),
        (
            "scale".to_string(),
            format!("1/{}", (1.0 / spec.scale).round()),
        ),
        ("blocks".to_string(), spec.blocks.to_string()),
        ("ref_bases".to_string(), reference.len().to_string()),
        ("query_bases".to_string(), query.len().to_string()),
        ("config".to_string(), describe_config(config)),
        ("tiles".to_string(), format!("{rows}x{cols}")),
    ]
}

pub(crate) fn describe_config(config: &GpumemConfig) -> String {
    format!(
        "L={} ls={} step={} tau={} blocks_per_tile={} tile_len={} index={:?} seed_mode={:?} schedule={:?}",
        config.min_len,
        config.seed_len,
        config.step,
        config.threads_per_block,
        config.blocks_per_tile,
        config.tile_len(),
        config.index_kind,
        config.seed_mode,
        config.schedule_policy,
    )
}
