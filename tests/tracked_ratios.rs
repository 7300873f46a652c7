//! Exact pins for the modeled-time figures README.md and DESIGN.md
//! quote: the copMEM dual-sampling ablation, the SaLoBa-style
//! locality/balance knobs on a skewed pair, and the 4-shard split.
//!
//! Modeled K20c time is deterministic, so every figure is asserted
//! exactly (integer nanoseconds, or a ratio at the precision the docs
//! print). Each scenario also checks that its configurations agree on
//! the MEM set, so a figure can only move with the output it explains.
//! Host wall time is not measured here; `perfbench` (`BENCHMARK.json`)
//! is the wall-clock ledger.
//!
//! A deliberate change to the cost model or a kernel moves these pins;
//! re-derive them from the failing assertion and update the docs that
//! quote them in the same change.

use gpumem::core::GpumemConfigBuilder;
use gpumem::index::max_coprime_steps;
use gpumem::seq::{GenomeModel, Mem, MutationModel, PackedSeq};
use gpumem::sim::{DeviceSpec, LaunchStats};
use gpumem::{Engine, Gpumem, GpumemConfig, RunOptions, RunRequest, SchedulePolicy, SeedMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED_LEN: usize = 8;
const THREADS_PER_BLOCK: usize = 64;
const BLOCKS_PER_TILE: usize = 4;
/// Base seed of every generated sequence below; each scenario offsets
/// it so the three datasets are independent.
const DATA_SEED: u64 = 2024;

fn config(min_len: u32) -> GpumemConfigBuilder {
    GpumemConfig::builder(min_len)
        .seed_len(SEED_LEN)
        .threads_per_block(THREADS_PER_BLOCK)
        .blocks_per_tile(BLOCKS_PER_TILE)
}

/// `reference` mutated at the given rates, reproducibly.
fn mutate(reference: &[u8], sub_rate: f64, indel_rate: f64, seed: u64) -> PackedSeq {
    let model = MutationModel {
        sub_rate,
        indel_rate,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    PackedSeq::from_codes(&model.apply(reference, &mut rng))
}

fn modeled_ns(stats: &LaunchStats) -> u128 {
    stats.modeled_time.as_nanos()
}

fn run(config: GpumemConfig, reference: &PackedSeq, query: &PackedSeq) -> (Vec<Mem>, LaunchStats) {
    let result = Gpumem::new(config)
        .run(reference, query)
        .expect("scenario fits the device");
    (result.mems, result.stats.matching)
}

/// RefOnly against copMEM-style dual sampling (auto co-prime steps) on
/// a lightly mutated 40 kb pair: the dual win grows with `L` because
/// the query-probe count shrinks as `1/k2`.
#[test]
fn dual_sampling_ablation_modeled_match_time() {
    let reference = GenomeModel::mammalian().generate(40_000, DATA_SEED + 2);
    let query = mutate(&reference.to_codes(), 0.001, 0.0001, DATA_SEED + 3);
    // (L, ref ns, dual ns, MEMs, ref/dual as the docs print it)
    let expected: [(u32, u128, u128, usize, &str); 3] = [
        (25, 896_122, 1_915_756, 7_070, "0.47"),
        (100, 143_857, 70_836, 2_279, "2.03"),
        (300, 106_184, 23_037, 27, "4.61"),
    ];
    for (l, ref_ns, dual_ns, mems, ratio) in expected {
        let (k1, k2) = max_coprime_steps(l, SEED_LEN).expect("valid ablation steps");
        let mode = |mode: SeedMode| config(l).seed_mode(mode).build().expect("valid config");
        let (ref_mems, ref_stats) = run(mode(SeedMode::RefOnly), &reference, &query);
        let (dual_mems, dual_stats) =
            run(mode(SeedMode::DualSampled { k1, k2 }), &reference, &query);
        assert_eq!(ref_mems, dual_mems, "seed modes disagree at L = {l}");
        let got = (
            modeled_ns(&ref_stats),
            modeled_ns(&dual_stats),
            ref_mems.len(),
        );
        assert_eq!(
            got,
            (ref_ns, dual_ns, mems),
            "L = {l} (k1 = {k1}, k2 = {k2})"
        );
        assert_eq!(format!("{:.2}", ref_ns as f64 / dual_ns as f64), ratio);
    }
}

/// A repeat-heavy 30 kb pair (one motif spliced in 24 times plus a
/// 600-base homopolymer run) under the default schedule and under the
/// tuned stack: mass-descending tiles, work stealing, query staging.
#[test]
fn skewed_pair_locality_and_balance_knobs() {
    const REF_LEN: usize = 30_000;
    const MOTIF_LEN: usize = 400;
    const MOTIF_COPIES: usize = 24;
    let mut codes = GenomeModel::mammalian()
        .generate(REF_LEN, DATA_SEED + 4)
        .to_codes();
    let motif = GenomeModel::mammalian()
        .generate(MOTIF_LEN, DATA_SEED + 5)
        .to_codes();
    for copy in 0..MOTIF_COPIES {
        let at = 1_000 + copy * ((REF_LEN - 2_000) / MOTIF_COPIES);
        codes[at..at + MOTIF_LEN].copy_from_slice(&motif);
    }
    codes[200..800].fill(1);
    let reference = PackedSeq::from_codes(&codes);
    let query = mutate(&codes, 0.02, 0.002, DATA_SEED + 6);

    // Traced, so the expand phase's own efficiency is visible; tracing
    // moves no modeled statistic.
    let run_traced = |config: GpumemConfig| {
        let (result, trace) = Gpumem::new(config)
            .run_traced(&reference, &query)
            .expect("scenario fits the device");
        let expand = trace
            .phase_totals()
            .into_iter()
            .find(|p| p.name == "expand")
            .expect("the expand phase ran");
        let expand_efficiency = expand.lane_cycles as f64 / (expand.warp_cycles * 32) as f64;
        (result.mems, result.stats.matching, expand_efficiency)
    };
    let (base_mems, base, base_expand) = run_traced(config(25).build().unwrap());
    let (tuned_mems, tuned, tuned_expand) = run_traced(
        config(25)
            .schedule_policy(SchedulePolicy::MassDescending)
            .work_stealing(true)
            .query_staging(true)
            .build()
            .unwrap(),
    );
    assert_eq!(base_mems, tuned_mems, "knobs changed the MEM set");
    assert_eq!(
        (modeled_ns(&base), modeled_ns(&tuned), base_mems.len()),
        (1_134_396, 1_094_162, 99_957)
    );
    assert_eq!(
        (base.steal_events, tuned.steal_events),
        (0, 21_367),
        "only the tuned stack steals"
    );
    assert_eq!(
        (base.global_mem_ops, tuned.global_mem_ops),
        (2_777_405, 2_218_682)
    );
    let efficiency = |s: &LaunchStats| format!("{:.4}", s.warp_efficiency(32));
    assert_eq!(
        [
            efficiency(&base),
            efficiency(&tuned),
            format!("{base_expand:.2}"),
            format!("{tuned_expand:.2}"),
        ],
        ["0.4341", "0.4369", "0.36", "0.54"]
    );
    assert_eq!(
        format!(
            "{:.2}",
            modeled_ns(&base) as f64 / modeled_ns(&tuned) as f64
        ),
        "1.04"
    );
}

/// The 120 kb pair split across four simulated devices: the modeled
/// multi-device speedup is single-device match time over the slowest
/// shard's, and the sharded MEM set is byte-identical.
#[test]
fn four_shard_modeled_speedup() {
    let reference = GenomeModel::mammalian().generate(120_000, DATA_SEED);
    let query = mutate(&reference.to_codes(), 0.03, 0.003, DATA_SEED + 1);
    let engine = Engine::builder(reference)
        .config(config(25).build().unwrap())
        .spec(DeviceSpec::tesla_k20c())
        .build()
        .expect("scenario fits the device");
    let single = engine.run(&query).expect("single-device run");
    let options = RunOptions {
        shards: 4,
        ..RunOptions::default()
    };
    let sharded = engine
        .execute(&RunRequest::query(&query).options(options))
        .pop()
        .expect("one query yields one output")
        .expect("sharded run")
        .result;
    assert_eq!(single.mems, sharded.mems, "sharding changed the MEM set");
    let shards = &sharded.stats.shard_matching;
    assert_eq!(shards.len(), 4);
    let slowest = shards.iter().map(modeled_ns).max().unwrap();
    let single_ns = modeled_ns(&single.stats.matching);
    assert_eq!(
        (single_ns, slowest, single.mems.len()),
        (7_165_826, 1_982_686, 41_040)
    );
    assert_eq!(format!("{:.2}", single_ns as f64 / slowest as f64), "3.61");
}
