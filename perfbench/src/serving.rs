//! `serving_zipf`: one closed-loop client sends Zipf(1)-ranked requests
//! to six references hosted in one byte-budgeted `Registry`. Each
//! request builds a transient `Engine` over the registry and executes a
//! batch of mutated windows of its reference through `Engine::execute`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::{Device, DeviceSpec};
use gpumem_baselines::{MemFinder, Mummer};
use gpumem_core::{
    Engine, GpumemConfig, GpumemResult, GpumemStats, RefHandle, Registry, RunError, RunOptions,
    RunOutput, RunRequest,
};
use gpumem_seq::{FastaRecord, GenomeModel, Mem, MutationModel, PackedSeq, SeqSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calibrate::{Calibrator, Prober};
use crate::layers::{sim_metrics, stage_metrics, sum_stats, LayerTimes};
use crate::oneshot::describe_config;
use crate::report::{mean, median, quantile, Metric, Report};
use crate::tally::{same_modeled, Tally};
use crate::{peak_rss_mb, read_fasta_file, write_fasta_file, Size, WorkDir, SETUP_REPEATS};

/// The serving workload's shape.
#[derive(Clone, Debug)]
pub struct ServingWorkload {
    pub refs: usize,
    pub ref_len: usize,
    pub min_len: u32,
    pub seed_len: usize,
    /// Registry budget in units of one warmed reference's index bytes.
    pub budget_refs: f64,
    pub windows: usize,
    pub window_len: usize,
}

/// Query workers of each request's engine (fewer on a 1-core host).
const ENGINE_THREADS: usize = 2;

pub fn spec(size: Size) -> ServingWorkload {
    match size {
        Size::Full => ServingWorkload {
            refs: 6,
            ref_len: 100_000,
            min_len: 25,
            seed_len: 10,
            budget_refs: 3.5,
            windows: 4,
            window_len: 2_000,
        },
        Size::Tiny => ServingWorkload {
            refs: 3,
            ref_len: 4_000,
            min_len: 25,
            seed_len: 8,
            budget_refs: 1.5,
            windows: 2,
            window_len: 500,
        },
    }
}

impl ServingWorkload {
    fn config(&self) -> GpumemConfig {
        GpumemConfig::builder(self.min_len)
            .seed_len(self.seed_len)
            .build()
            .expect("workload configurations are valid")
    }

    /// Requests per rank in one traffic cycle: exact Zipf(1) frequencies
    /// `c / (rank + 1)` with `c = lcm(1..=refs)`.
    fn cycle_counts(&self) -> Vec<usize> {
        let lcm = (1..=self.refs).fold(1, |acc, k| acc / gcd(acc, k) * k);
        (0..self.refs).map(|rank| lcm / (rank + 1)).collect()
    }
}

fn engine_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    ENGINE_THREADS.min(cores)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One request: a rank and a batch of query windows with their oracle.
struct Request {
    rank: usize,
    queries: SeqSet,
    oracles: Vec<Vec<Mem>>,
    oracle_s: f64,
}

/// Deterministic request stream: every cycle is the same shuffled
/// permutation of the cycle's rank multiset; request `i`'s windows come
/// from its own generator. The workload seed draws the references and
/// the windows but not the rank order, which uses the fixed
/// [`SCHEDULE_SEED`]: with a seed-drawn order, the number of evicting
/// requests varied enough to move `qps` by ±20% between seeds. From the
/// second cycle on, every cycle starts from the same registry state and
/// evicts the same references, so the timed mix does not depend on how
/// many cycles a run serves.
struct Traffic<'a> {
    spec: &'a ServingWorkload,
    seed: u64,
    codes: Vec<Vec<u8>>,
    mummers: Vec<Mummer>,
    order: Vec<usize>,
}

impl<'a> Traffic<'a> {
    fn new(spec: &'a ServingWorkload, seed: u64, references: &[PackedSeq]) -> Traffic<'a> {
        Traffic {
            spec,
            seed,
            codes: references.iter().map(PackedSeq::to_codes).collect(),
            mummers: references.iter().map(Mummer::build).collect(),
            order: Vec::new(),
        }
    }

    fn cycle_len(&self) -> usize {
        self.spec.cycle_counts().iter().sum()
    }

    fn request(&mut self, i: usize) -> Request {
        if self.order.is_empty() {
            let mut ranks: Vec<usize> = self
                .spec
                .cycle_counts()
                .iter()
                .enumerate()
                .flat_map(|(rank, &n)| std::iter::repeat_n(rank, n))
                .collect();
            let mut rng = StdRng::seed_from_u64(SCHEDULE_SEED);
            for k in (1..ranks.len()).rev() {
                ranks.swap(k, rng.gen_range(0..=k));
            }
            self.order = ranks;
        }
        let rank = self.order[i % self.order.len()];
        let mut rng = StdRng::seed_from_u64(mix(self.seed, i as u64));
        let mutation = MutationModel {
            sub_rate: 0.01,
            indel_rate: 0.001,
        };
        let codes = &self.codes[rank];
        let records: Vec<FastaRecord> = (0..self.spec.windows)
            .map(|w| {
                let start = rng.gen_range(0..=codes.len() - self.spec.window_len);
                let window = &codes[start..start + self.spec.window_len];
                FastaRecord {
                    header: format!("r{i}w{w}"),
                    seq: PackedSeq::from_codes(&mutation.apply(window, &mut rng)),
                }
            })
            .collect();
        let queries = SeqSet::from_records(&records);
        let t = Instant::now();
        let oracles = records
            .iter()
            .map(|r| self.mummers[rank].find_mems(&r.seq, self.spec.min_len))
            .collect();
        Request {
            rank,
            queries,
            oracles,
            oracle_s: t.elapsed().as_secs_f64(),
        }
    }
}

/// Seed of the rank order of the traffic cycle (see [`Traffic`]).
const SCHEDULE_SEED: u64 = 2014;

fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A registry holding every reference, with rank 0 warmed.
struct Hosted {
    registry: Arc<Registry>,
    references: Vec<Arc<PackedSeq>>,
    handles: Vec<RefHandle>,
}

/// What one request measured.
struct Served {
    wall_s: f64,
    stats: GpumemStats,
    build_wait_s: f64,
}

fn serve(
    hosted: &Hosted,
    config: &GpumemConfig,
    request: &Request,
    options: RunOptions,
) -> (Result<Vec<RunOutput>, RunError>, Served) {
    let t = Instant::now();
    let engine = match Engine::builder(Arc::clone(&hosted.references[request.rank]))
        .config(config.clone())
        .registry(Arc::clone(&hosted.registry))
        .name(&format!("ref{}", request.rank))
        .threads(engine_threads())
        .build()
    {
        Ok(engine) => engine,
        Err(e) => {
            let served = Served {
                wall_s: t.elapsed().as_secs_f64(),
                stats: GpumemStats::default(),
                build_wait_s: 0.0,
            };
            return (Err(e), served);
        }
    };
    let outputs = engine.execute(&RunRequest::batch(&request.queries).options(options));
    let mut wall = t.elapsed();
    let build_wait_s = engine.metrics().index_cache.build_wait_s;
    let t = Instant::now();
    drop(engine);
    wall += t.elapsed();
    let outputs: Result<Vec<RunOutput>, RunError> = outputs.into_iter().collect();
    let stats = match &outputs {
        Ok(outs) => sum_stats(outs.iter().map(|o| &o.result.stats)),
        Err(_) => GpumemStats::default(),
    };
    let served = Served {
        wall_s: wall.as_secs_f64(),
        stats,
        build_wait_s,
    };
    (outputs, served)
}

fn account(tally: &mut Tally, outputs: &Result<Vec<RunOutput>, RunError>, request: &Request) {
    let oracles: Vec<&[Mem]> = request.oracles.iter().map(Vec::as_slice).collect();
    match outputs {
        Ok(outs) => {
            let results: Vec<Result<&GpumemResult, &RunError>> =
                outs.iter().map(|o| Ok(&o.result)).collect();
            tally.record(&results, &oracles);
        }
        Err(e) => tally.record(&[Err(e)], &oracles),
    }
}

/// Row hits and row builds summed over every hosted session.
fn row_touches(hosted: &Hosted) -> (u64, u64) {
    hosted.handles.iter().fold((0, 0), |(hits, built), &h| {
        let session = hosted
            .registry
            .session(h)
            .expect("hosted handles stay registered");
        (
            hits + session.cache_hits(),
            built + session.built_rows() as u64,
        )
    })
}

pub fn run(
    spec: &ServingWorkload,
    seed: u64,
    seconds: Duration,
    work: &WorkDir,
    prober: &Prober,
) -> Report {
    let config = spec.config();
    let device_spec = DeviceSpec::tesla_k20c();
    let mut report = Report::default();

    // Inputs, oracle indexes and the budget (untimed for setup_s).
    let generated: Vec<PackedSeq> = (0..spec.refs)
        .map(|i| GenomeModel::mammalian().generate(spec.ref_len, mix(seed, 1 << 40 | i as u64)))
        .collect();
    let refs_path = work.path("references.fa");
    let records: Vec<FastaRecord> = generated
        .iter()
        .enumerate()
        .map(|(i, seq)| FastaRecord {
            header: format!("ref{i}"),
            seq: seq.clone(),
        })
        .collect();
    write_fasta_file(&refs_path, &records);
    let mut traffic = Traffic::new(spec, seed, &generated);
    let per_ref_bytes = {
        let probe = Registry::new(device_spec.clone());
        let handle = probe
            .add("probe", Arc::new(generated[0].clone()), config.clone())
            .expect("the workload fits the device");
        let session = probe.session(handle).expect("probe handle resolves");
        session.warm(&Device::new(device_spec.clone()));
        session.resident_bytes()
    };
    let budget = (per_ref_bytes as f64 * spec.budget_refs) as u64;

    // Set-up: load the references into a fresh registry and warm rank 0.
    let mut calibrator = Calibrator::new(prober);
    let mut setup_s = Vec::new();
    let mut parse_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut hosted = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let records = read_fasta_file(&refs_path);
        parse_s.push(t.elapsed().as_secs_f64());
        let registry = Arc::new(Registry::with_budget(device_spec.clone(), budget));
        let references: Vec<Arc<PackedSeq>> =
            records.into_iter().map(|r| Arc::new(r.seq)).collect();
        let handles: Vec<RefHandle> = references
            .iter()
            .enumerate()
            .map(|(i, r)| {
                registry
                    .add(&format!("ref{i}"), Arc::clone(r), config.clone())
                    .expect("the workload fits the device")
            })
            .collect();
        let tw = Instant::now();
        registry
            .session(handles[0])
            .expect("fresh handle resolves")
            .warm(&Device::new(device_spec.clone()));
        registry.touch(handles[0]);
        warm_s.push(tw.elapsed().as_secs_f64());
        setup_s.push(t.elapsed().as_secs_f64());
        hosted = Some(Hosted {
            registry,
            references,
            handles,
        });
    }
    let hosted = hosted.expect("at least one set-up");
    report.check(
        "fasta_roundtrip",
        hosted
            .references
            .iter()
            .zip(&generated)
            .all(|(a, b)| **a == *b),
        "parsed references equal the generated ones",
    );

    // The closed loop: a warm-up cycle, then whole cycles, at least one,
    // until `seconds` have passed since the loop started. The timed
    // metrics cover the cycles after the warm-up, which all serve the
    // same mix (see [`Traffic`]); the modeled metrics average over the
    // first of them, so they repeat exactly for a seed.
    let cycle_len = traffic.cycle_len();
    let mut tally = Tally::default();
    let mut served: Vec<Served> = Vec::new();
    let mut oracle_s = Vec::new();
    let mut after_warmup = None;
    let start = Instant::now();
    while served.len() < 2 * cycle_len || served.len() % cycle_len != 0 || start.elapsed() < seconds
    {
        if served.len() == cycle_len {
            after_warmup = Some((row_touches(&hosted), hosted.registry.stats().evictions));
        }
        calibrator.tick();
        let request = traffic.request(served.len());
        oracle_s.push(request.oracle_s);
        let (outputs, s) = serve(&hosted, &config, &request, RunOptions::default());
        account(&mut tally, &outputs, &request);
        served.push(s);
    }
    let ((hits0, built0), evictions0) = after_warmup.expect("the loop serves a warm-up cycle");
    let timed = &served[cycle_len..];
    let peak_rss = peak_rss_mb();
    calibrator.probe();
    let speed = calibrator.speed();
    let (hits1, built1) = row_touches(&hosted);
    let registry_stats = hosted.registry.stats();

    // Traced twin: request 0 again, cold, untraced then traced.
    let twin = traffic.request(0);
    let session = hosted
        .registry
        .session(hosted.handles[twin.rank])
        .expect("hosted handles stay registered");
    session.evict_rows();
    let (untraced_out, untraced) = serve(&hosted, &config, &twin, RunOptions::default());
    account(&mut tally, &untraced_out, &twin);
    session.evict_rows();
    let traced_options = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let (traced_out, traced) = serve(&hosted, &config, &twin, traced_options);
    account(&mut tally, &traced_out, &twin);

    let mut layer_metrics = Vec::new();
    let mut attributed = 0.0;
    match &traced_out {
        Ok(outs) if untraced_out.is_ok() => {
            report.check(
                "traced_equals_untraced",
                same_modeled(&traced.stats, &untraced.stats),
                "traced request's modeled LaunchStats equal the untraced twin's",
            );
            let trace =
                gpumem_core::Trace::merge(outs.iter().filter_map(|o| o.trace.clone()).collect());
            let layers = LayerTimes::from_trace(&trace, device_spec.warp_size);
            attributed = layers.attributed_s();
            layer_metrics = stage_metrics(&layers, &traced.stats);
        }
        _ => report.check("traced_equals_untraced", false, "twin request failed"),
    }

    let walls: Vec<f64> = timed.iter().map(|s| s.wall_s).collect();
    let modeled = &timed[..cycle_len];
    report.end_to_end = vec![
        Metric::new("wall_s", mean(&walls) * speed, "s"),
        Metric::new("qps", 1.0 / (mean(&walls) * speed), "1/s"),
        Metric::new("setup_s", median(&setup_s) * speed, "s"),
        Metric::new(
            "modeled_index_s",
            mean(
                &modeled
                    .iter()
                    .map(|s| s.stats.index.modeled_secs())
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        Metric::new(
            "modeled_match_s",
            mean(
                &modeled
                    .iter()
                    .map(|s| s.stats.matching.modeled_secs())
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];

    let index_rows = session.rows();
    let runs: Vec<GpumemStats> = timed.iter().map(|s| s.stats.clone()).collect();
    let unattributed = traced.wall_s - attributed;
    let row_hits = hits1 - hits0;
    let row_touched = row_hits + (built1 - built0);
    let mut per_layer = vec![
        Metric::new("host.speed", speed, "ratio"),
        Metric::new("raw.wall_s", mean(&walls), "s"),
        Metric::new("raw.setup_s", median(&setup_s), "s"),
        Metric::new("wall_p50_s", median(&walls), "s"),
        Metric::new("wall_p90_s", quantile(&walls, 0.9), "s"),
        Metric::new("seq.parse_s", median(&parse_s), "s"),
        Metric::new("index.rows", index_rows as f64, "count"),
        Metric::new(
            "index.bytes_per_row",
            per_ref_bytes as f64 / index_rows.max(1) as f64,
            "bytes",
        ),
    ];
    per_layer.extend(sim_metrics(&runs));
    per_layer.extend(layer_metrics);
    per_layer.extend([
        Metric::new("pipeline.unattributed_s", unattributed, "s"),
        Metric::new(
            "registry.hit_rate",
            row_hits as f64 / row_touched.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "registry.evictions",
            (registry_stats.evictions - evictions0) as f64,
            "count",
        ),
        Metric::new(
            "registry.peak_resident_bytes",
            registry_stats.peak_resident_bytes as f64,
            "bytes",
        ),
        Metric::new(
            "engine.build_wait_s",
            mean(&timed.iter().map(|s| s.build_wait_s).collect::<Vec<_>>()),
            "s",
        ),
        Metric::new(
            "engine.overhead_s",
            mean(
                &timed
                    .iter()
                    .map(|s| s.wall_s - (s.stats.index_wall + s.stats.match_wall).as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        Metric::new(
            "trace.overhead_frac",
            traced.wall_s / untraced.wall_s - 1.0,
            "ratio",
        ),
        Metric::new("baseline.mummer_s", mean(&oracle_s), "s"),
    ]);
    report.per_layer = per_layer;

    let beyond_p90 = walls.iter().filter(|&&w| w > quantile(&walls, 0.9)).count();
    report.notes.push(format!(
        "{} requests ({} cycles) timed after a warm-up cycle, in a closed loop with one client; wall_p90_s has {beyond_p90} samples beyond it",
        timed.len(),
        timed.len() / cycle_len
    ));
    report.notes.push(format!(
        "host.speed from {} probes; wall_s = raw.wall_s x host.speed",
        calibrator.probes()
    ));
    report.notes.push(format!(
        "rank-0 warm in set-up (RefSession::warm): median {:.4} s",
        median(&warm_s)
    ));
    report.notes.push(format!(
        "reconciliation (cold twin request): layers {attributed:.4} s + unattributed {unattributed:.4} s = traced wall {:.4} s = untraced twin {:.4} s x (1 + trace.overhead_frac)",
        traced.wall_s, untraced.wall_s
    ));
    if let Some(first) = &tally.first_failure {
        report.notes.push(format!("first failure: {first}"));
    }
    report.manifest = vec![
        (
            "references".to_string(),
            format!("{} x {} bases (mammalian model)", spec.refs, spec.ref_len),
        ),
        (
            "budget_bytes".to_string(),
            format!("{budget} ({} warmed references)", spec.budget_refs),
        ),
        (
            "request".to_string(),
            format!(
                "{} windows x {} bases, Zipf(1) ranks, cycle of {cycle_len}",
                spec.windows, spec.window_len
            ),
        ),
        ("engine_threads".to_string(), engine_threads().to_string()),
        ("config".to_string(), describe_config(&config)),
    ];
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report
}
