//! Block-class replay is exact: the dense index build with replayed
//! per-seed kernels produces the same index and the same `LaunchStats`
//! (every field but `wall_time`) as a fully interpreted build. A
//! sanitizer session forces full interpretation, so the two sides are
//! one build with and one without a session.
//!
//! Kept in its own test binary: sessions are process-global, and a
//! session held by a concurrently running test would silently turn the
//! replayed side into a fully interpreted one.

use std::time::Duration;

use gpumem::index::{build_gpu, Region, SeedIndex};
use gpumem::seq::{GenomeModel, PackedSeq};
use gpumem::sim::sanitizer::Session;
use gpumem::sim::{Device, DeviceSpec, LaunchStats};

fn build(spec: &DeviceSpec, seq: &PackedSeq, seed_len: usize) -> (SeedIndex, LaunchStats) {
    let device = Device::new(spec.clone());
    let (index, mut stats) = build_gpu(&device, seq, Region::whole(seq), seed_len, 3);
    stats.wall_time = Duration::ZERO;
    (index, stats)
}

#[test]
fn replayed_dense_build_equals_fully_interpreted_build() {
    let seq = GenomeModel::mammalian().generate(4_000, 2024);
    for spec in [DeviceSpec::tesla_k20c(), DeviceSpec::test_tiny()] {
        for seed_len in [8, 10] {
            let replayed = build(&spec, &seq, seed_len);
            let session = Session::start();
            let interpreted = build(&spec, &seq, seed_len);
            let report = session.finish();
            assert!(report.is_clean(), "{}, ls={seed_len}:\n{report}", spec.name);
            assert_eq!(replayed.1, interpreted.1, "{}, ls={seed_len}", spec.name);
            assert_eq!(replayed.0, interpreted.0, "{}, ls={seed_len}", spec.name);
        }
    }
}
