//! Pins the modeled execution of the full pipeline on a fixed seed
//! dataset: every `LaunchStats` counter and the complete MEM output.
//!
//! Host-side performance work (buffer pooling, bulk memory ops, scratch
//! reuse) must never move modeled time or results — this snapshot is the
//! proof. If an intentional *model* change (cost table, scheduling,
//! kernel shape) shifts these numbers, re-harvest them by running the
//! test and copying the `actual:` block from the failure message.
//!
//! Deliberately excluded: `wall_time` (host-machine dependent) and
//! `pool_allocs` (host-side bookkeeping that optimization is expected
//! to change).

use gpumem::core::{Gpumem, GpumemConfig, IndexKind};
use gpumem::seq::{GenomeModel, Mem, MutationModel, PackedSeq};
use gpumem::sim::{Device, DeviceSpec, LaunchStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn smoke_pair() -> (PackedSeq, PackedSeq) {
    let reference = GenomeModel::mammalian().generate(4_000, 2024);
    let query = {
        let model = MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let mut rng = StdRng::seed_from_u64(2025);
        PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng))
    };
    (reference, query)
}

fn gpumem(kind: IndexKind) -> Gpumem {
    gpumem_with_seed_len(kind, 6)
}

fn gpumem_with_seed_len(kind: IndexKind, seed_len: usize) -> Gpumem {
    let config = GpumemConfig::builder(25)
        .seed_len(seed_len)
        .threads_per_block(64)
        .blocks_per_tile(2)
        .index_kind(kind)
        .build()
        .expect("valid config");
    Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()))
}

/// FNV-1a over every MEM triplet, order-sensitive: pins the exact output
/// sequence without pasting thousands of literals.
fn mem_hash(mems: &[Mem]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    };
    for m in mems {
        mix(m.r as u64);
        mix(m.q as u64);
        mix(u64::from(m.len));
    }
    h
}

fn render_stats(tag: &str, s: &LaunchStats) -> String {
    format!(
        "{tag}: launches={} blocks={} warps={} warp_cycles={} lane_cycles={} \
         device_cycles={} modeled_ns={} divergence={} atomics={} global={} compares={}",
        s.launches,
        s.blocks,
        s.warps,
        s.warp_cycles,
        s.lane_cycles,
        s.device_cycles,
        s.modeled_time.as_nanos(),
        s.divergence_events,
        s.atomic_ops,
        s.global_mem_ops,
        s.comparisons,
    )
}

fn snapshot(kind: IndexKind) -> String {
    snapshot_with_seed_len(kind, 6)
}

fn snapshot_with_seed_len(kind: IndexKind, seed_len: usize) -> String {
    let (reference, query) = smoke_pair();
    let result = gpumem_with_seed_len(kind, seed_len)
        .run(&reference, &query)
        .unwrap();
    let s = &result.stats;
    let c = &s.counts;
    format!(
        "{}\n{}\ntiles: {}x{}\ncounts: in_block={} out_block={} in_tile={} out_tile={} \
         from_global={} total={}\nmems: n={} fnv=0x{:016x}",
        render_stats("index", &s.index),
        render_stats("matching", &s.matching),
        s.rows,
        s.cols,
        c.in_block,
        c.out_block,
        c.in_tile,
        c.out_tile,
        c.from_global,
        c.total,
        result.mems.len(),
        mem_hash(&result.mems),
    )
}

#[test]
fn dense_pipeline_modeled_stats_and_output_are_pinned() {
    let expect = "\
index: launches=14 blocks=18 warps=624 warp_cycles=43059 lane_cycles=1291192 device_cycles=20768 modeled_ns=90768 divergence=47 atomics=400 global=75416 compares=12
matching: launches=7 blocks=11 warps=6488 warp_cycles=105940 lane_cycles=1708395 device_cycles=32563 modeled_ns=67563 divergence=1592 atomics=0 global=52228 compares=42775
tiles: 2x2
counts: in_block=153 out_block=5 in_tile=1 out_tile=3 from_global=1 total=155
mems: n=155 fnv=0x7f5fd4641554ede1";
    let actual = snapshot(IndexKind::DenseTable);
    assert_eq!(
        actual, expect,
        "\nmodeled execution drifted.\nactual:\n{actual}\n"
    );
}

/// At ℓs = 9 the dense build's scan spans 65 chunks and its copy/sort
/// kernels 16 blocks, so block-class replay engages (at ℓs = 6 every
/// replayed launch has a single block). These values were harvested
/// from a build that interpreted every block.
#[test]
fn dense_pipeline_with_replayed_index_kernels_is_pinned() {
    let expect = "\
index: launches=14 blocks=330 warps=13200 warp_cycles=2470011 lane_cycles=77815920 device_cycles=618867 modeled_ns=688867 divergence=934 atomics=470 global=4753145 compares=12
matching: launches=7 blocks=11 warps=2184 warp_cycles=46506 lane_cycles=848475 device_cycles=15651 modeled_ns=50651 divergence=690 atomics=0 global=34439 compares=22378
tiles: 2x2
counts: in_block=152 out_block=5 in_tile=2 out_tile=3 from_global=1 total=155
mems: n=155 fnv=0x7f5fd4641554ede1";
    let actual = snapshot_with_seed_len(IndexKind::DenseTable, 9);
    assert_eq!(
        actual, expect,
        "\nmodeled execution drifted.\nactual:\n{actual}\n"
    );
}

#[test]
fn compact_pipeline_modeled_stats_and_output_are_pinned() {
    let expect = "\
index: launches=4 blocks=4 warps=160 warp_cycles=2282 lane_cycles=42378 device_cycles=1141 modeled_ns=21141 divergence=1 atomics=0 global=800 compares=3584
matching: launches=7 blocks=11 warps=6488 warp_cycles=158100 lane_cycles=3276843 device_cycles=47699 modeled_ns=82699 divergence=1592 atomics=0 global=150256 compares=42775
tiles: 2x2
counts: in_block=153 out_block=5 in_tile=1 out_tile=3 from_global=1 total=155
mems: n=155 fnv=0x7f5fd4641554ede1";
    let actual = snapshot(IndexKind::CompactDirectory);
    assert_eq!(
        actual, expect,
        "\nmodeled execution drifted.\nactual:\n{actual}\n"
    );
}

/// Observability is pure bookkeeping: running with a trace recorder
/// installed must leave the output and every modeled counter exactly
/// where the untraced (pinned) run has them, and the trace's Stage
/// spans must partition the run — their stats summing to the run
/// totals counter for counter, with no gap and no double count.
#[test]
fn traced_run_changes_nothing_and_stage_spans_reconcile_exactly() {
    let (reference, query) = smoke_pair();
    for kind in [IndexKind::DenseTable, IndexKind::CompactDirectory] {
        let plain = gpumem(kind).run(&reference, &query).unwrap();
        let (traced, trace) = gpumem(kind).run_traced(&reference, &query).unwrap();
        assert_eq!(traced.mems, plain.mems, "{kind:?}: output drifted");
        assert_eq!(
            render_stats("index", &traced.stats.index),
            render_stats("index", &plain.stats.index),
            "{kind:?}: modeled index stats drifted under tracing"
        );
        assert_eq!(
            render_stats("matching", &traced.stats.matching),
            render_stats("matching", &plain.stats.matching),
            "{kind:?}: modeled matching stats drifted under tracing"
        );
        let mut run_total = traced.stats.index.clone();
        run_total += traced.stats.matching.clone();
        assert_eq!(
            trace.stage_totals(),
            run_total,
            "{kind:?}: stage spans do not reconcile with run totals"
        );
    }
}
