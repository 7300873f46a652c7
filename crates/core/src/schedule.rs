//! Occupancy-aware tile scheduling (SaLoBa-style locality planning).
//!
//! The paper's Figure 6 shows seed-occurrence counts are heavily
//! skewed, and that skew is *spatially* skewed too: tiles covering
//! repeat-dense regions carry far more triplet work than tiles over
//! unique sequence. A row-major tile sweep therefore interleaves heavy
//! and light launches arbitrarily, and the heaviest tile — the one that
//! bounds the critical path on a real device with a deep launch queue —
//! can land last.
//!
//! [`plan_mass_descending`] is the host-side planner behind
//! [`SchedulePolicy::MassDescending`](crate::config::SchedulePolicy):
//! it estimates each tile's seed-occurrence mass by probing a bounded
//! sample of the tile's query seed positions against the row's partial
//! index (the same Fig. 6 histogram data the load balancer consumes,
//! aggregated per tile instead of per thread), then orders tile
//! launches within a tile row — and tile rows within the run —
//! heaviest first.
//!
//! Planning is host-side work on an already-built index and charges no
//! device cycles. Reordering launches never changes the MEM set (every
//! tile's kernel is a pure function of its tile, and the global merge
//! sorts before combining) and never changes summed launch statistics
//! (per-launch statistics are order-independent, and the gauges merge
//! by `max`). What it changes is *when* the straggler tile is issued —
//! front-loading it so the tail of the run drains light tiles, the
//! classic longest-processing-time heuristic applied at tile
//! granularity.

use gpumem_index::{SeedCodec, SharedSeedLookup};
use gpumem_seq::PackedSeq;

use crate::config::GpumemConfig;
use crate::tile::Tiling;

/// Upper bound on per-tile probe positions when estimating mass. A
/// bounded sample keeps planning O(rows × cols × PROBES) regardless of
/// tile length; 64 probes per tile tracks the skew shape closely enough
/// to rank tiles (ranking, not exact counting, is all the scheduler
/// needs).
const PROBES_PER_TILE: usize = 64;

/// The launch order produced by a scheduling policy: rows of the tile
/// grid in issue order, and for each row (indexed by *row id*, not issue
/// position) its columns in issue order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileSchedule {
    /// Tile-row ids in the order they should be issued.
    pub row_order: Vec<usize>,
    /// `col_orders[row]` — column ids of `row` in issue order.
    pub col_orders: Vec<Vec<usize>>,
}

impl TileSchedule {
    /// The identity (row-major) schedule of
    /// [`SchedulePolicy::InOrder`](crate::config::SchedulePolicy).
    pub fn in_order(n_rows: usize, n_cols: usize) -> TileSchedule {
        TileSchedule {
            row_order: (0..n_rows).collect(),
            col_orders: vec![(0..n_cols).collect(); n_rows],
        }
    }
}

/// Indices of `masses` in stable descending-mass order: heaviest first,
/// ties broken by the lower index (so equal-mass grids reduce to the
/// in-order schedule and the plan is deterministic).
pub fn descending(masses: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..masses.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(masses[i]), i));
    order
}

/// Estimated seed-occurrence mass of one tile: the summed occurrence
/// counts of a bounded, grid-aligned sample of the tile's query seed
/// positions against the row's partial index.
pub fn tile_mass(
    index: &dyn gpumem_index::SeedLookup,
    codec: &SeedCodec,
    query: &PackedSeq,
    col_range: std::ops::Range<usize>,
    q_step: usize,
    seed_len: usize,
) -> u64 {
    if col_range.is_empty() {
        return 0;
    }
    // Probe stride: a multiple of the query sampling step (so probes
    // sit on positions the block loop would actually serve), widened to
    // stay within the probe budget.
    let stride = (col_range.len() / PROBES_PER_TILE).max(1).div_ceil(q_step) * q_step;
    // First on-grid position at or after the column start.
    let first = col_range.start.div_ceil(q_step) * q_step;
    let mut mass = 0u64;
    let mut q = first;
    while q < col_range.end {
        if q + seed_len <= query.len() {
            if let Some(code) = codec.encode(query, q) {
                mass += index.occurrences(code) as u64;
            }
        }
        q += stride;
    }
    mass
}

/// Plan a mass-descending launch order over the full tile grid.
/// `indexes[row]` is row `row`'s partial index (the serving engine's
/// cached sessions hold exactly this set; one-shot runs build it in a
/// pre-pass). Row mass is the sum of the row's tile masses; rows are
/// issued heaviest first, and each row's columns likewise.
pub fn plan_mass_descending(
    config: &GpumemConfig,
    query: &PackedSeq,
    tiling: &Tiling,
    indexes: &[SharedSeedLookup],
) -> TileSchedule {
    assert_eq!(indexes.len(), tiling.n_rows(), "one index per tile row");
    let rows: Vec<usize> = (0..tiling.n_rows()).collect();
    plan_mass_descending_rows(config, query, tiling, &rows, indexes)
}

/// [`plan_mass_descending`] restricted to a subset of tile rows — the
/// shard-local planner. `rows` lists the tile-row ids this shard owns
/// and `indexes[i]` is the partial index of `rows[i]`. The returned
/// schedule's `row_order` is a permutation of `rows`; `col_orders` is
/// still indexed by absolute row id (rows outside the subset get an
/// empty column order and are never issued).
pub fn plan_mass_descending_rows(
    config: &GpumemConfig,
    query: &PackedSeq,
    tiling: &Tiling,
    rows: &[usize],
    indexes: &[SharedSeedLookup],
) -> TileSchedule {
    assert_eq!(indexes.len(), rows.len(), "one index per subset row");
    let codec = SeedCodec::new(config.seed_len);
    let q_step = config.query_step();
    let mut row_masses = Vec::with_capacity(rows.len());
    let mut col_orders = vec![Vec::new(); tiling.n_rows()];
    for (&row, index) in rows.iter().zip(indexes) {
        let col_masses: Vec<u64> = (0..tiling.n_cols())
            .map(|col| {
                tile_mass(
                    index.as_ref(),
                    &codec,
                    query,
                    tiling.col_range(col),
                    q_step,
                    config.seed_len,
                )
            })
            .collect();
        row_masses.push(col_masses.iter().sum());
        col_orders[row] = descending(&col_masses);
    }
    TileSchedule {
        row_order: descending(&row_masses)
            .into_iter()
            .map(|i| rows[i])
            .collect(),
        col_orders,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_index::{build_sequential, Region};
    use gpumem_seq::GenomeModel;
    use std::sync::Arc;

    #[test]
    fn descending_is_stable_and_heaviest_first() {
        assert_eq!(descending(&[5, 20, 5, 40]), vec![3, 1, 0, 2]);
        assert_eq!(descending(&[7, 7, 7]), vec![0, 1, 2], "ties keep order");
        assert_eq!(descending(&[]), Vec::<usize>::new());
    }

    #[test]
    fn in_order_schedule_is_row_major() {
        let s = TileSchedule::in_order(2, 3);
        assert_eq!(s.row_order, vec![0, 1]);
        assert_eq!(s.col_orders, vec![vec![0, 1, 2], vec![0, 1, 2]]);
    }

    #[test]
    fn repeat_dense_tiles_rank_heavier() {
        // Query: unique sequence, then a poly-A repeat region whose
        // seeds saturate the index, then unique sequence again.
        let unique = GenomeModel::mammalian().generate(600, 11).to_codes();
        let mut codes = unique.clone();
        codes.extend(std::iter::repeat_n(0u8, 600)); // poly-A block
        codes.extend(GenomeModel::mammalian().generate(600, 12).to_codes());
        let query = PackedSeq::from_codes(&codes);
        let reference = query.clone();
        let config = GpumemConfig::builder(12)
            .seed_len(6)
            .threads_per_block(8)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        // One row over the whole reference; tile the query.
        let tiling = Tiling::new(config.tile_len(), reference.len(), query.len());
        assert!(tiling.n_cols() >= 3, "query spans several tiles");
        let index = Arc::new(build_sequential(
            &reference,
            Region::whole(&reference),
            config.seed_len,
            config.step,
        )) as SharedSeedLookup;
        let indexes: Vec<SharedSeedLookup> =
            (0..tiling.n_rows()).map(|_| Arc::clone(&index)).collect();
        let plan = plan_mass_descending(&config, &query, &tiling, &indexes);
        // The first-issued column of the first-issued row must cover
        // part of the poly-A block (cols overlapping 600..1200).
        let row = plan.row_order[0];
        let first_col = plan.col_orders[row][0];
        let range = tiling.col_range(first_col);
        assert!(
            range.start < 1200 && range.end > 600,
            "heaviest tile {range:?} misses the repeat block"
        );
        // Every column appears exactly once per row.
        for orders in &plan.col_orders {
            let mut sorted = orders.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..tiling.n_cols()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uniform_mass_reduces_to_in_order() {
        // Zero-mass (no seeds indexed) grid: descending order with tie
        // break by index is exactly in-order.
        let query = GenomeModel::mammalian().generate(400, 13);
        let reference = GenomeModel::uniform().generate(400, 14);
        let config = GpumemConfig::builder(20)
            .seed_len(10)
            .threads_per_block(4)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        let tiling = Tiling::new(config.tile_len(), reference.len(), query.len());
        let index = Arc::new(build_sequential(
            &reference,
            Region { start: 0, len: 0 },
            config.seed_len,
            config.step,
        )) as SharedSeedLookup;
        let indexes: Vec<SharedSeedLookup> =
            (0..tiling.n_rows()).map(|_| Arc::clone(&index)).collect();
        let plan = plan_mass_descending(&config, &query, &tiling, &indexes);
        assert_eq!(
            plan,
            TileSchedule::in_order(tiling.n_rows(), tiling.n_cols())
        );
    }
}
