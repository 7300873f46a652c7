//! Deliberately hazardous fixture kernels, one per detector class.
//!
//! Each fixture runs a tiny kernel twice over: a `hazardous` variant
//! seeded with exactly the bug the detector exists for, and a clean
//! twin that does the same work correctly. The tests assert the
//! hazardous variant is flagged — naming the buffer and both
//! conflicting sites — and that the clean twin produces a clean report.
//! All fixture buffers are named `fixture.*` so reports are easy to
//! filter.

use crate::exec::{Device, LaunchConfig};
use crate::memory::GpuU32;
use crate::sanitizer::{HazardClass, SanitizeReport, Session};
use crate::spec::DeviceSpec;

fn device() -> Device {
    Device::new(DeviceSpec::test_tiny())
}

/// Inter-block race: when hazardous, lane 0 of *every* block writes
/// element 0; the clean twin writes one slot per block.
pub fn run_inter_block_race(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let out = GpuU32::named(4, "fixture.race");
    device().launch_fn_named(LaunchConfig::new(4, 32), "race_fixture", |ctx| {
        let block = ctx.block_id;
        ctx.simt_range(0..1, |lane| {
            let slot = if hazardous { 0 } else { block };
            lane.st32(&out, slot, block as u32);
        });
    });
    session.finish()
}

/// Missing barrier: when hazardous, each lane writes its slot and reads
/// its neighbor's *in the same SIMT region*; the clean twin puts a
/// barrier (region boundary) between the write and the read.
pub fn run_missing_barrier(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let n = 32usize;
    let buf = GpuU32::named(n, "fixture.shared");
    let out = GpuU32::named(n, "fixture.shared_out");
    device().launch_fn_named(LaunchConfig::new(1, n), "barrier_fixture", |ctx| {
        if hazardous {
            ctx.simt(|lane| {
                lane.st32(&buf, lane.tid, lane.tid as u32);
                let v = lane.ld32(&buf, (lane.tid + 1) % n);
                lane.st32(&out, lane.tid, v);
            });
        } else {
            ctx.simt(|lane| {
                lane.st32(&buf, lane.tid, lane.tid as u32);
            });
            // __syncthreads() between the regions.
            ctx.simt(|lane| {
                let v = lane.ld32(&buf, (lane.tid + 1) % n);
                lane.st32(&out, lane.tid, v);
            });
        }
    });
    session.finish()
}

/// Out of bounds: when hazardous the buffer is one element too small
/// for the block, so the last lane indexes past the end.
pub fn run_out_of_bounds(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let n = 32usize;
    let len = if hazardous { n - 1 } else { n };
    let buf = GpuU32::named(len, "fixture.bounds");
    device().launch_fn_named(LaunchConfig::new(1, n), "bounds_fixture", |ctx| {
        ctx.simt(|lane| {
            lane.st32(&buf, lane.tid, 7);
        });
    });
    session.finish()
}

/// Uninitialized read: the buffer comes from `alloc_uninit`
/// (`cudaMalloc`); when hazardous the kernel reads it before anything
/// wrote it, the clean twin zero-fills it in an earlier launch.
pub fn run_uninit_read(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let n = 32usize;
    let buf = GpuU32::alloc_uninit(n, "fixture.uninit");
    let out = GpuU32::named(n, "fixture.uninit_out");
    let dev = device();
    if !hazardous {
        dev.launch_fn_named(LaunchConfig::new(1, n), "zero_fill", |ctx| {
            ctx.simt(|lane| {
                lane.st32(&buf, lane.tid, 0);
            });
        });
    }
    dev.launch_fn_named(LaunchConfig::new(1, n), "uninit_fixture", |ctx| {
        ctx.simt(|lane| {
            let v = lane.ld32(&buf, lane.tid);
            lane.st32(&out, lane.tid, v);
        });
    });
    session.finish()
}

/// Overlapping reservation: Algorithm 1's fill idiom with a corrupted
/// cursor. The clean twin reserves all slots through one shared cursor;
/// the hazardous variant gives half the lanes a *second* zeroed cursor
/// on the same target, so both halves are handed the same slots.
pub fn run_overlapping_reservation(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let slots = GpuU32::named(64, "fixture.slots");
    let cursor = GpuU32::named(1, "fixture.cursor");
    let rogue = GpuU32::named(1, "fixture.rogue_cursor");
    device().launch_fn_named(LaunchConfig::new(1, 8), "reserve_fixture", |ctx| {
        ctx.simt(|lane| {
            let use_rogue = hazardous && lane.tid >= 4;
            let base = if use_rogue {
                lane.atomic_reserve32(&rogue, 0, 2, &slots)
            } else {
                lane.atomic_reserve32(&cursor, 0, 2, &slots)
            };
            let _ = base;
        });
    });
    session.finish()
}

/// Hazard in a replayed block: four blocks of one replay class each
/// store to their own slot; when hazardous, block 2 (neither the first
/// nor the last of its class) stores to block 1's slot instead. Under
/// a session every block is interpreted, so the replay effect must
/// never run and the race must still be seen.
pub fn run_replayed_race(hazardous: bool) -> SanitizeReport {
    let session = Session::start();
    let out = GpuU32::named(4, "fixture.replayed");
    device().launch_classed(
        LaunchConfig::new(4, 32),
        "replay_fixture",
        |_| 0,
        &|ctx: &mut crate::exec::BlockCtx<'_>| {
            let block = ctx.block_id;
            ctx.simt_range(0..1, |lane| {
                let slot = if hazardous && block == 2 { 1 } else { block };
                lane.st32(&out, slot, block as u32);
            });
        },
        |block_id| panic!("block {block_id} replayed under a sanitizer session"),
    );
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hazards of `class` on a `fixture.*` buffer.
    fn of_class(report: &SanitizeReport, class: HazardClass) -> Vec<&crate::sanitizer::Hazard> {
        report
            .hazards
            .iter()
            .filter(|h| h.class == class && h.buffer.starts_with("fixture."))
            .collect()
    }

    #[test]
    fn inter_block_race_flagged_and_clean_twin_passes() {
        let report = run_inter_block_race(true);
        let hits = of_class(&report, HazardClass::InterBlockRace);
        assert!(!hits.is_empty(), "race not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(h.buffer, "fixture.race");
        assert!(h.elems.contains(&0));
        let second = h.second.as_ref().expect("races have two sites");
        assert_eq!(h.first.kernel, "race_fixture");
        assert_ne!(
            h.first.block, second.block,
            "sites must be in different blocks"
        );

        let clean = run_inter_block_race(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn missing_barrier_flagged_and_clean_twin_passes() {
        let report = run_missing_barrier(true);
        let hits = of_class(&report, HazardClass::MissingBarrier);
        assert!(!hits.is_empty(), "missing barrier not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(h.buffer, "fixture.shared");
        let second = h.second.as_ref().expect("two sites");
        assert_eq!(h.first.block, second.block, "same block");
        assert_eq!(h.first.region, second.region, "same SIMT region");
        assert!(
            h.first.lane != second.lane || h.first.warp != second.warp,
            "distinct lanes"
        );

        let clean = run_missing_barrier(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn out_of_bounds_flagged_and_clean_twin_passes() {
        let report = run_out_of_bounds(true);
        let hits = of_class(&report, HazardClass::OutOfBounds);
        assert!(!hits.is_empty(), "OOB not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(h.buffer, "fixture.bounds");
        assert_eq!(h.elems, 31..32, "the one out-of-range element");
        assert!(h.second.is_none());

        let clean = run_out_of_bounds(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn uninit_read_flagged_and_clean_twin_passes() {
        let report = run_uninit_read(true);
        let hits = of_class(&report, HazardClass::UninitRead);
        assert!(!hits.is_empty(), "uninit read not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(h.buffer, "fixture.uninit");
        assert_eq!(h.elems, 0..32, "all 32 uninit reads coalesce");
        assert_eq!(h.first.kernel, "uninit_fixture");

        let clean = run_uninit_read(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn overlapping_reservation_flagged_and_clean_twin_passes() {
        let report = run_overlapping_reservation(true);
        let hits = of_class(&report, HazardClass::OverlappingReservation);
        assert!(!hits.is_empty(), "overlap not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(
            h.buffer, "fixture.slots",
            "named after the target, not the cursor"
        );
        let second = h.second.as_ref().expect("two reserving sites");
        assert_eq!(h.first.kernel, "reserve_fixture");
        assert_eq!(second.kernel, "reserve_fixture");

        let clean = run_overlapping_reservation(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn hazard_in_replayed_block_flagged_and_clean_twin_passes() {
        let report = run_replayed_race(true);
        let hits = of_class(&report, HazardClass::InterBlockRace);
        assert!(!hits.is_empty(), "race not flagged:\n{report}");
        let h = hits[0];
        assert_eq!(h.buffer, "fixture.replayed");
        assert_eq!(h.elems, 1..2);
        let second = h.second.as_ref().expect("races have two sites");
        let mut blocks = [h.first.block, second.block];
        blocks.sort_unstable();
        assert_eq!(blocks, [1, 2], "the replayed block's store is seen");

        let clean = run_replayed_race(false);
        assert!(clean.is_clean(), "clean twin flagged:\n{clean}");
    }

    #[test]
    fn oob_loads_are_suppressed_to_zero() {
        let session = Session::start();
        let buf = GpuU32::named(4, "fixture.oob_load");
        let out = GpuU32::named(1, "fixture.oob_out");
        device().launch_fn_named(LaunchConfig::new(1, 1), "oob_load", |ctx| {
            ctx.simt(|lane| {
                let v = lane.ld32(&buf, 1000);
                lane.st32(&out, 0, v + 1);
            });
        });
        let report = session.finish();
        assert_eq!(out.load(0), 1, "suppressed load must read as 0");
        assert_eq!(
            of_class_count(&report, HazardClass::OutOfBounds),
            1,
            "{report}"
        );
    }

    fn of_class_count(report: &SanitizeReport, class: HazardClass) -> usize {
        report.hazards.iter().filter(|h| h.class == class).count()
    }

    #[test]
    fn report_counts_launches_and_accesses() {
        let report = run_inter_block_race(false);
        assert_eq!(report.launches, 1);
        assert_eq!(report.accesses_checked, 4, "one store per block");
        assert_eq!(report.suppressed, 0);
    }
}
