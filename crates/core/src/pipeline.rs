//! The end-to-end GPUMEM runner (Figure 1).
//!
//! For each tile row: build the row's partial index on the device
//! (Algorithm 1), then for each tile in the row launch one GPU block
//! per `ℓ_tile × ℓ_block` slice (§III-B), merge the tile's out-block
//! fragments (§III-C1), and finally merge the accumulated out-tile
//! fragments on the host (§III-C2).
//!
//! The tile loop itself lives in [`run_tile_rows`]: a streaming core
//! that emits every stage's MEMs into a
//! [`MemSink`](crate::engine::MemSink) as tiles complete and takes the
//! row index from a caller-supplied provider; [`finish_global`] closes
//! a run with the host merge. [`Gpumem::run`] wires them to a fresh
//! per-row build and a collecting sink; the serving engine
//! ([`crate::engine`]) wires the same pair to a cached
//! [`RefSession`](crate::engine::RefSession) and per-worker (or
//! per-shard) scratch instead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gpu_sim::{Device, DeviceSpec, LaunchConfig, LaunchStats, SharedArena, WorkQueue};
use gpumem_index::{build_compact_gpu, build_gpu, Region, SharedSeedLookup};
use gpumem_seq::{Mem, PackedSeq};

use crate::block::{process_block, steal_queue_capacity, BlockOutput, BlockScratch};
use crate::config::{GpumemConfig, SchedulePolicy};
use crate::engine::{MemCollector, MemSink, MemStage};
use crate::expand::Bounds;
use crate::global::global_merge;
use crate::schedule::TileSchedule;
use crate::tile::Tiling;
use crate::tile_run::{merge_tile, TileOutput};
use crate::trace::{SpanCat, Trace, TraceRecorder};

/// The sort-key packing in the device sort limits sequence coordinates
/// to 30 bits, so each input sequence must stay under 1 Gbp.
pub const SORT_KEY_LIMIT: usize = 1 << 30;

/// Why a run (or session creation) was refused before any launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A sequence is at or over [`SORT_KEY_LIMIT`] bases.
    SequenceTooLong {
        /// The offending sequence's length.
        len: usize,
        /// The limit it violates ([`SORT_KEY_LIMIT`]).
        limit: usize,
    },
    /// One tile row's working set does not fit the device's global
    /// memory (the quantity the paper sizes the tiling against, §III).
    DeviceMemoryExceeded {
        /// Estimated bytes for one tile row's working set.
        estimate: u64,
        /// The device's global memory capacity in bytes.
        capacity: u64,
    },
    /// A [`RunRequest`](crate::engine::RunRequest) carried options the
    /// engine cannot honor (conflicting builder inputs, a seed-mode
    /// override that fails config validation, a shard plan that does
    /// not cover the run's tile rows, …).
    InvalidOptions(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::SequenceTooLong { len, limit } => write!(
                f,
                "sequence of {len} bases exceeds the {limit}-base sort-key limit (1 Gbp)"
            ),
            RunError::DeviceMemoryExceeded { estimate, capacity } => write!(
                f,
                "tile working set (~{estimate} bytes) exceeds device memory ({capacity} bytes); \
                 reduce blocks_per_tile or seed_len"
            ),
            RunError::InvalidOptions(why) => write!(f, "invalid run options: {why}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Refuse sequences whose coordinates would overflow the sort keys.
pub(crate) fn ensure_sort_key(seq: &PackedSeq) -> Result<(), RunError> {
    if seq.len() >= SORT_KEY_LIMIT {
        return Err(RunError::SequenceTooLong {
            len: seq.len(),
            limit: SORT_KEY_LIMIT,
        });
    }
    Ok(())
}

/// Refuse configurations whose tile-row working set overflows `spec`'s
/// global memory.
pub(crate) fn ensure_fits(config: &GpumemConfig, spec: &DeviceSpec) -> Result<(), RunError> {
    let estimate = device_memory_estimate(config);
    if estimate > spec.global_mem_bytes {
        return Err(RunError::DeviceMemoryExceeded {
            estimate,
            capacity: spec.global_mem_bytes,
        });
    }
    Ok(())
}

/// Estimated device bytes for one tile row under `config`: the partial
/// index (`ptrs` + `locs`), the packed tile of reference bases, and
/// working triplet buffers. This is the quantity the paper sizes the
/// tiling against ("to fit the problem to GPU memory", §III).
pub fn device_memory_estimate(config: &GpumemConfig) -> u64 {
    let n_locs = (config.tile_len() / config.step + 1) as u64;
    let directory = match config.index_kind {
        // Dense: the full 4^ℓs ptrs table.
        crate::config::IndexKind::DenseTable => ((1u64 << (2 * config.seed_len)) + 1) * 4,
        // Compact: entries + offsets, both ≤ n_locs.
        crate::config::IndexKind::CompactDirectory => 2 * (n_locs + 1) * 4,
    };
    let locs = n_locs * 4;
    let tile_bases = (config.tile_len() as u64).div_ceil(4); // 2-bit packed
                                                             // Triplet working set: generously assume every sampled location
                                                             // anchors one 12-byte triplet, twice (block + tile stage).
    let triplets = n_locs * 12 * 2;
    directory + locs + 2 * tile_bases + triplets
}

/// Build `config`'s index layout for one reference region on `device`.
/// Returned behind an [`Arc`] so a serving session can cache the index
/// and hand clones to concurrent query workers.
pub(crate) fn build_row_index(
    device: &Device,
    config: &GpumemConfig,
    reference: &PackedSeq,
    region: Region,
) -> (SharedSeedLookup, LaunchStats) {
    match config.index_kind {
        crate::config::IndexKind::DenseTable => {
            let (index, stats) = build_gpu(device, reference, region, config.seed_len, config.step);
            (Arc::new(index), stats)
        }
        crate::config::IndexKind::CompactDirectory => {
            let (index, stats) =
                build_compact_gpu(device, reference, region, config.seed_len, config.step);
            (Arc::new(index), stats)
        }
    }
}

/// Report from building the per-row partial indexes (the Table III
/// measurement).
#[derive(Clone, Debug, Default)]
pub struct IndexBuildReport {
    /// Device statistics of the index-construction launches.
    pub stats: LaunchStats,
    /// Wall time spent simulating the builds.
    pub wall: Duration,
    /// Number of tile rows whose index was built.
    pub rows: usize,
}

/// Per-worker working storage for one in-flight run: the block
/// scratch/accumulators hoisted across every tile (blocks execute
/// sequentially, see the `gpu_sim::exec` docs) plus the run's out-tile
/// fragment list. One-shot runs make one; the serving engine keeps one
/// per query worker so parallel queries never contend on scratch.
pub struct RunScratch {
    block: BlockScratch,
    blocks_out: BlockOutput,
    tile_out: TileOutput,
    pub(crate) out_tile: Vec<Mem>,
}

impl RunScratch {
    /// Scratch for `config`'s block geometry (τ threads, seed codec).
    pub fn new(config: &GpumemConfig) -> RunScratch {
        RunScratch {
            block: BlockScratch::new(config.threads_per_block, config.seed_len),
            blocks_out: BlockOutput::default(),
            tile_out: TileOutput::default(),
            out_tile: Vec::new(),
        }
    }
}

/// How many MEM fragments each stage produced (§IV would call these the
/// intermediate result sizes; Fig. 7's discussion leans on them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// In-block MEMs reported by block kernels.
    pub in_block: usize,
    /// Out-block fragments passed to tile merges.
    pub out_block: usize,
    /// In-tile MEMs reported by tile merges.
    pub in_tile: usize,
    /// Out-tile fragments passed to the host merge.
    pub out_tile: usize,
    /// MEMs produced by the final host merge.
    pub from_global: usize,
    /// Final canonical MEM count (for a streaming run: the total MEMs
    /// emitted, which may count cross-tile duplicates).
    pub total: usize,
}

/// Aggregated run statistics.
#[derive(Clone, Debug, Default)]
pub struct GpumemStats {
    /// Device statistics of the index-construction launches. Table III
    /// reports `index.modeled_time`.
    pub index: LaunchStats,
    /// Device statistics of the extraction launches (blocks + tile
    /// merges). Table IV reports `matching.modeled_time`.
    pub matching: LaunchStats,
    /// Wall time spent simulating index construction.
    pub index_wall: Duration,
    /// Wall time spent simulating extraction (including the host merge).
    pub match_wall: Duration,
    /// Stage result sizes.
    pub counts: StageCounts,
    /// Tile grid dimensions (`n_r`, `n_c`).
    pub rows: usize,
    /// Number of tile columns.
    pub cols: usize,
    /// Per-shard extraction statistics of a sharded run, one entry per
    /// shard in shard order; empty for single-device runs. `matching`
    /// is their sum, but the per-shard split is what a speedup model
    /// needs: the sharded critical path is the *slowest* shard.
    pub shard_matching: Vec<LaunchStats>,
}

impl std::fmt::Display for GpumemStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "tiles: {} rows x {} cols; modeled device time: index {:.3} ms + matching {:.3} ms",
            self.rows,
            self.cols,
            self.index.modeled_secs() * 1e3,
            self.matching.modeled_secs() * 1e3
        )?;
        writeln!(
            f,
            "warp efficiency {:.2}, {} divergence events, {} atomics, {} comparisons",
            self.matching.warp_efficiency(32),
            self.matching.divergence_events,
            self.index.atomic_ops + self.matching.atomic_ops,
            self.matching.comparisons
        )?;
        write!(
            f,
            "stages: {} in-block + {} in-tile + {} global = {} MEMs ({} out-block, {} out-tile fragments)",
            self.counts.in_block,
            self.counts.in_tile,
            self.counts.from_global,
            self.counts.total,
            self.counts.out_block,
            self.counts.out_tile
        )
    }
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct GpumemResult {
    /// All maximal exact matches of length ≥ L, canonical.
    pub mems: Vec<Mem>,
    /// Run statistics.
    pub stats: GpumemStats,
}

/// The streaming tile loop shared by [`Gpumem::run`] and the serving
/// engine. Runs every tile of the rows listed in `rows` (`None` = all
/// rows) in schedule order; `row_index` supplies each row's partial
/// index (built fresh, or served from a session cache with zero launch
/// stats); in-block and in-tile MEMs go to `sink` the moment their
/// stage completes, and the out-tile fragments are left in
/// `scratch.out_tile` for [`finish_global`]. Out-tile fragments are
/// per-tile products — independent of which device runs the tile — so
/// concatenating the fragments of disjoint row subsets and
/// host-merging them once reproduces the single-device output exactly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tile_rows(
    device: &Device,
    config: &GpumemConfig,
    reference: &PackedSeq,
    query: &PackedSeq,
    row_index: &mut dyn FnMut(&Device, usize, Region) -> (SharedSeedLookup, LaunchStats),
    scratch: &mut RunScratch,
    sink: &mut dyn MemSink,
    trace: Option<&TraceRecorder>,
    rows: Option<&[usize]>,
) -> GpumemStats {
    let mut stats = GpumemStats::default();
    scratch.out_tile.clear();

    if reference.len() >= config.seed_len && !query.is_empty() {
        let tiling = Tiling::new(config.tile_len(), reference.len(), query.len());
        stats.rows = tiling.n_rows();
        stats.cols = tiling.n_cols();
        let all_rows: Vec<usize>;
        let subset: &[usize] = match rows {
            Some(rows) => rows,
            None => {
                all_rows = (0..tiling.n_rows()).collect();
                &all_rows
            }
        };
        debug_assert!(
            subset.iter().all(|&r| r < tiling.n_rows()),
            "shard rows out of range"
        );

        // Persistent-block steal queue (one segment per block of a tile
        // launch) and shared-memory staging arena, shared across every
        // launch of the run. Both `None` by default.
        let queue = config.work_stealing.then(|| {
            WorkQueue::new(
                config.blocks_per_tile,
                steal_queue_capacity(config.threads_per_block),
                "match.steal",
            )
        });
        let mut arena = config
            .query_staging
            .then(|| SharedArena::new(device.spec().shared_mem_per_block));

        // Launch order. `MassDescending` needs every subset row's index
        // up front to sample tile masses, so it builds them in a
        // pre-pass (same spans/stats as the in-loop build; like a
        // serving session, it holds all row indexes alive for the run)
        // and the tile loop below consumes the cache. `InOrder` walks
        // the subset in ascending row order with the build inline —
        // byte-identical to the unscheduled pipeline.
        let mut row_indexes: Vec<Option<SharedSeedLookup>> =
            (0..tiling.n_rows()).map(|_| None).collect();
        let schedule = match config.schedule_policy {
            SchedulePolicy::InOrder => TileSchedule {
                row_order: subset.to_vec(),
                col_orders: vec![(0..tiling.n_cols()).collect(); tiling.n_rows()],
            },
            SchedulePolicy::MassDescending => {
                for &row in subset {
                    let row_range = tiling.row_range(row);
                    let t0 = Instant::now();
                    let index_span = trace.map(|t| t.begin("index_build", SpanCat::Stage));
                    let (index, istats) = row_index(
                        device,
                        row,
                        Region {
                            start: row_range.start,
                            len: row_range.len(),
                        },
                    );
                    if let (Some(t), Some(id)) = (trace, index_span) {
                        t.end_with_stats(id, istats.clone());
                    }
                    stats.index += istats;
                    stats.index_wall += t0.elapsed();
                    row_indexes[row] = Some(index);
                }
                let indexes: Vec<SharedSeedLookup> = subset
                    .iter()
                    .map(|&row| Arc::clone(row_indexes[row].as_ref().expect("prepass built row")))
                    .collect();
                crate::schedule::plan_mass_descending_rows(config, query, &tiling, subset, &indexes)
            }
        };

        for &row in &schedule.row_order {
            let row_range = tiling.row_range(row);
            let row_span = trace.map(|t| t.begin(format!("tile_row {row}"), SpanCat::TileRow));

            // Partial index of this row (Algorithm 1, on device):
            // cached by the scheduling pre-pass, or built here.
            let index = match row_indexes[row].take() {
                Some(index) => index,
                None => {
                    let t0 = Instant::now();
                    let index_span = trace.map(|t| t.begin("index_build", SpanCat::Stage));
                    let (index, istats) = row_index(
                        device,
                        row,
                        Region {
                            start: row_range.start,
                            len: row_range.len(),
                        },
                    );
                    if let (Some(t), Some(id)) = (trace, index_span) {
                        t.end_with_stats(id, istats.clone());
                    }
                    stats.index += istats;
                    stats.index_wall += t0.elapsed();
                    index
                }
            };

            for &col in &schedule.col_orders[row] {
                let t1 = Instant::now();
                let tile_span =
                    trace.map(|t| t.begin(format!("tile ({row},{col})"), SpanCat::Tile));

                // One GPU block per ℓ_tile × ℓ_block slice; every
                // block appends into the reused accumulator.
                scratch.blocks_out.in_block.clear();
                scratch.blocks_out.out_block.clear();
                let batch_span = trace.map(|t| t.begin("block_batch", SpanCat::Stage));
                let cell =
                    Mutex::new((&mut scratch.blocks_out, &mut scratch.block, arena.as_mut()));
                let launch = device.launch_fn_named(
                    LaunchConfig::new(config.blocks_per_tile, config.threads_per_block),
                    "match.blocks",
                    |ctx| {
                        let block_q = tiling.block_range(col, ctx.block_id, config.block_width());
                        let guard = &mut *cell.lock();
                        let (output, scratch, arena) = guard;
                        process_block(
                            ctx,
                            reference,
                            query,
                            index.as_ref(),
                            config,
                            row_range.clone(),
                            block_q,
                            queue.as_ref(),
                            arena.as_deref_mut(),
                            scratch,
                            output,
                        );
                    },
                );
                if let (Some(t), Some(id)) = (trace, batch_span) {
                    t.end_with_stats(id, launch.clone());
                }
                stats.matching += launch;

                stats.counts.in_block += scratch.blocks_out.in_block.len();
                if !scratch.blocks_out.in_block.is_empty() {
                    sink.mems(MemStage::Block { row, col }, &scratch.blocks_out.in_block);
                }
                stats.counts.out_block += scratch.blocks_out.out_block.len();

                // Tile merge (§III-C1) as its own kernel.
                if !scratch.blocks_out.out_block.is_empty() {
                    let tile_bounds = Bounds {
                        r: row_range.clone(),
                        q: tiling.col_range(col),
                    };
                    scratch.tile_out.in_tile.clear();
                    scratch.tile_out.out_tile.clear();
                    let merge_span = trace.map(|t| t.begin("tile_merge", SpanCat::Stage));
                    let cell = Mutex::new((
                        &mut scratch.blocks_out.out_block,
                        &mut scratch.tile_out,
                        arena.as_mut(),
                    ));
                    let launch = device.launch_fn_named(
                        LaunchConfig::new(1, config.threads_per_block),
                        "match.tile_merge",
                        |ctx| {
                            let guard = &mut *cell.lock();
                            let (fragments, output, arena) = guard;
                            merge_tile(
                                ctx,
                                reference,
                                query,
                                fragments,
                                &tile_bounds,
                                config.min_len,
                                arena.as_deref_mut(),
                                output,
                            );
                        },
                    );
                    if let (Some(t), Some(id)) = (trace, merge_span) {
                        t.end_with_stats(id, launch.clone());
                    }
                    stats.matching += launch;
                    stats.counts.in_tile += scratch.tile_out.in_tile.len();
                    if !scratch.tile_out.in_tile.is_empty() {
                        sink.mems(MemStage::Tile { row, col }, &scratch.tile_out.in_tile);
                    }
                    scratch
                        .out_tile
                        .extend_from_slice(&scratch.tile_out.out_tile);
                }
                stats.match_wall += t1.elapsed();
                if let (Some(t), Some(id)) = (trace, tile_span) {
                    t.end(id);
                }
            }
            if let (Some(t), Some(id)) = (trace, row_span) {
                t.end(id);
            }
        }
    }

    stats
}

/// Host merge of out-tile fragments (§III-C2) — the closing half of
/// every run, after [`run_tile_rows`]; a sharded run concatenates every
/// shard's fragments and merges them once. A stage span with zero device
/// stats: it runs on the host, so it contributes wall time but nothing
/// to the launch-stat reconciliation. Finalizes `stats.counts`
/// (`out_tile`, `from_global`, and the emitted `total`).
pub(crate) fn finish_global(
    reference: &PackedSeq,
    query: &PackedSeq,
    out_tile: Vec<Mem>,
    min_len: u32,
    sink: &mut dyn MemSink,
    trace: Option<&TraceRecorder>,
    stats: &mut GpumemStats,
) {
    let t2 = Instant::now();
    let global_span = trace.map(|t| t.begin("global_merge", SpanCat::Stage));
    stats.counts.out_tile = out_tile.len();
    let global = global_merge(reference, query, out_tile, min_len);
    stats.counts.from_global = global.len();
    if !global.is_empty() {
        sink.mems(MemStage::Global, &global);
    }
    if let (Some(t), Some(id)) = (trace, global_span) {
        t.end_with_stats(id, LaunchStats::default());
    }
    stats.match_wall += t2.elapsed();
    stats.counts.total = stats.counts.in_block + stats.counts.in_tile + stats.counts.from_global;
}

/// The GPUMEM tool: a configuration bound to a (simulated) device.
pub struct Gpumem {
    config: GpumemConfig,
    device: Device,
}

impl Gpumem {
    /// Run on the paper's Tesla K20c.
    pub fn new(config: GpumemConfig) -> Gpumem {
        Gpumem {
            config,
            device: Device::new(DeviceSpec::tesla_k20c()),
        }
    }

    /// Run on an explicit device (ablations; tests use a small spec).
    pub fn with_device(config: GpumemConfig, device: Device) -> Gpumem {
        Gpumem { config, device }
    }

    /// The configuration.
    pub fn config(&self) -> &GpumemConfig {
        &self.config
    }

    /// The device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Estimated device bytes for one tile row (see
    /// [`device_memory_estimate`]).
    pub fn device_memory_estimate(&self) -> u64 {
        device_memory_estimate(&self.config)
    }

    /// `true` if a tile row's working set fits the device's global
    /// memory. [`Gpumem::run`] refuses to start otherwise.
    pub fn fits_device(&self) -> bool {
        self.device_memory_estimate() <= self.device.spec().global_mem_bytes
    }

    /// Build all per-row partial indexes without matching — the Table
    /// III measurement (index generation time).
    pub fn build_index_only(&self, reference: &PackedSeq) -> IndexBuildReport {
        let tiling = Tiling::new(self.config.tile_len(), reference.len(), usize::MAX);
        let mut stats = LaunchStats::default();
        let start = Instant::now();
        for row in 0..tiling.n_rows() {
            let range = tiling.row_range(row);
            let (_, s) = build_row_index(
                &self.device,
                &self.config,
                reference,
                Region {
                    start: range.start,
                    len: range.len(),
                },
            );
            stats += s;
        }
        IndexBuildReport {
            stats,
            wall: start.elapsed(),
            rows: tiling.n_rows(),
        }
    }

    /// Extract all MEMs of length ≥ L between `reference` and `query`.
    pub fn run(&self, reference: &PackedSeq, query: &PackedSeq) -> Result<GpumemResult, RunError> {
        self.run_inner(reference, query, None)
    }

    /// [`Gpumem::run`] with structured tracing: also returns the run's
    /// [`Trace`] (span tree + per-stage device statistics; see
    /// [`crate::trace`]). Tracing changes no result and no modeled
    /// statistic — only wall time, by the cost of recording.
    pub fn run_traced(
        &self,
        reference: &PackedSeq,
        query: &PackedSeq,
    ) -> Result<(GpumemResult, Trace), RunError> {
        let recorder = Arc::new(TraceRecorder::new(self.device.spec().warp_size));
        self.device
            .set_observer(Some(crate::trace::as_observer(&recorder)));
        let run_span = recorder.begin("run", SpanCat::Run);
        let result = self.run_inner(reference, query, Some(&recorder));
        recorder.end(run_span);
        self.device.set_observer(None);
        result.map(|r| (r, recorder.snapshot()))
    }

    fn run_inner(
        &self,
        reference: &PackedSeq,
        query: &PackedSeq,
        trace: Option<&TraceRecorder>,
    ) -> Result<GpumemResult, RunError> {
        ensure_sort_key(reference)?;
        ensure_sort_key(query)?;
        ensure_fits(&self.config, self.device.spec())?;

        let mut scratch = RunScratch::new(&self.config);
        let mut collector = MemCollector::default();
        let mut provider = |device: &Device, _row: usize, region: Region| {
            build_row_index(device, &self.config, reference, region)
        };
        let mut stats = run_tile_rows(
            &self.device,
            &self.config,
            reference,
            query,
            &mut provider,
            &mut scratch,
            &mut collector,
            trace,
            None,
        );
        finish_global(
            reference,
            query,
            std::mem::take(&mut scratch.out_tile),
            self.config.min_len,
            &mut collector,
            trace,
            &mut stats,
        );

        let t = Instant::now();
        let mems = collector.into_canonical();
        stats.match_wall += t.elapsed();
        stats.counts.total = mems.len();
        Ok(GpumemResult { mems, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_seq::{is_maximal_exact, naive_mems, table2_pairs, GenomeModel};

    fn small_gpumem(min_len: u32, seed_len: usize, tau: usize, n_block: usize) -> Gpumem {
        let config = GpumemConfig::builder(min_len)
            .seed_len(seed_len)
            .threads_per_block(tau)
            .blocks_per_tile(n_block)
            .build()
            .unwrap();
        Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()))
    }

    #[test]
    fn matches_naive_on_related_pair_with_many_tiles() {
        let spec = &table2_pairs(1.0 / 65536.0)[1]; // chrXc/chrXh shape
        let pair = spec.realize(42);
        // Small tiles force the full multi-tile path:
        // tile_len = 2 * 8 * w.
        let gpumem = small_gpumem(16, 8, 8, 2);
        assert!(gpumem.config().tile_len() < pair.reference.len());
        let result = gpumem.run(&pair.reference, &pair.query).unwrap();
        let expect = naive_mems(&pair.reference, &pair.query, 16);
        assert_eq!(result.mems, expect);
        assert!(result.stats.rows > 1 && result.stats.cols > 1);
    }

    #[test]
    fn matches_naive_on_self_comparison() {
        // Self-comparison has a full-length diagonal crossing every
        // tile — the hardest boundary case.
        let text = GenomeModel::mammalian().generate(3_000, 401);
        let gpumem = small_gpumem(20, 8, 8, 2);
        let result = gpumem.run(&text, &text).unwrap();
        let expect = naive_mems(&text, &text, 20);
        assert_eq!(result.mems, expect);
        assert!(result.mems.contains(&Mem {
            r: 0,
            q: 0,
            len: text.len() as u32
        }));
    }

    #[test]
    fn matches_naive_across_l_values() {
        let spec = &table2_pairs(1.0 / 65536.0)[3];
        let pair = spec.realize(43);
        for min_len in [10u32, 14, 20, 31] {
            let gpumem = small_gpumem(min_len, 7, 8, 2);
            let result = gpumem.run(&pair.reference, &pair.query).unwrap();
            let expect = naive_mems(&pair.reference, &pair.query, min_len);
            assert_eq!(result.mems, expect, "L = {min_len}");
        }
    }

    #[test]
    fn load_balancing_toggle_changes_stats_not_output() {
        let spec = &table2_pairs(1.0 / 65536.0)[0];
        let pair = spec.realize(44);
        let on = small_gpumem(15, 7, 16, 2);
        let off = {
            let config = GpumemConfig::builder(15)
                .seed_len(7)
                .threads_per_block(16)
                .blocks_per_tile(2)
                .load_balancing(false)
                .build()
                .unwrap();
            Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()))
        };
        let a = on.run(&pair.reference, &pair.query).unwrap();
        let b = off.run(&pair.reference, &pair.query).unwrap();
        assert_eq!(a.mems, b.mems, "output must be identical");
        assert!(
            b.stats.matching.warp_efficiency(32) <= a.stats.matching.warp_efficiency(32) + 1e-9,
            "disabling balancing cannot improve warp efficiency"
        );
    }

    fn knobbed_gpumem(
        min_len: u32,
        seed_len: usize,
        tau: usize,
        n_block: usize,
        policy: SchedulePolicy,
        stealing: bool,
        staging: bool,
    ) -> Gpumem {
        let config = GpumemConfig::builder(min_len)
            .seed_len(seed_len)
            .threads_per_block(tau)
            .blocks_per_tile(n_block)
            .schedule_policy(policy)
            .work_stealing(stealing)
            .query_staging(staging)
            .build()
            .unwrap();
        Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()))
    }

    #[test]
    fn scheduling_knobs_preserve_output_on_multi_tile_runs() {
        let spec = &table2_pairs(1.0 / 65536.0)[1];
        let pair = spec.realize(45);
        let baseline = small_gpumem(16, 8, 8, 2);
        assert!(baseline.config().tile_len() < pair.reference.len());
        let expect = baseline.run(&pair.reference, &pair.query).unwrap().mems;
        assert_eq!(expect, naive_mems(&pair.reference, &pair.query, 16));
        for policy in [SchedulePolicy::InOrder, SchedulePolicy::MassDescending] {
            for stealing in [false, true] {
                for staging in [false, true] {
                    if policy == SchedulePolicy::InOrder && !stealing && !staging {
                        continue; // the baseline itself
                    }
                    let gpumem = knobbed_gpumem(16, 8, 8, 2, policy, stealing, staging);
                    let result = gpumem.run(&pair.reference, &pair.query).unwrap();
                    assert_eq!(
                        result.mems, expect,
                        "{policy:?}/stealing={stealing}/staging={staging}"
                    );
                    if stealing {
                        assert!(
                            result.stats.matching.steal_events > 0,
                            "{policy:?}: multi-tile run must record steals"
                        );
                    } else {
                        assert_eq!(result.stats.matching.steal_events, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn mass_descending_schedule_leaves_device_totals_unchanged() {
        // Reordering tile launches permutes span order but must not
        // change any modeled total: same launches, same work, same
        // memory traffic — only the wall-clock overlap story differs.
        let spec = &table2_pairs(1.0 / 65536.0)[2];
        let pair = spec.realize(46);
        let in_order = small_gpumem(16, 8, 8, 2);
        let mass = knobbed_gpumem(16, 8, 8, 2, SchedulePolicy::MassDescending, false, false);
        let a = in_order.run(&pair.reference, &pair.query).unwrap();
        let b = mass.run(&pair.reference, &pair.query).unwrap();
        assert_eq!(a.mems, b.mems);
        for (x, y, what) in [
            (&a.stats.index, &b.stats.index, "index"),
            (&a.stats.matching, &b.stats.matching, "matching"),
        ] {
            assert_eq!(x.launches, y.launches, "{what}");
            assert_eq!(x.blocks, y.blocks, "{what}");
            assert_eq!(x.warps, y.warps, "{what}");
            assert_eq!(x.warp_cycles, y.warp_cycles, "{what}");
            assert_eq!(x.lane_cycles, y.lane_cycles, "{what}");
            assert_eq!(x.device_cycles, y.device_cycles, "{what}");
            assert_eq!(x.divergence_events, y.divergence_events, "{what}");
            assert_eq!(x.atomic_ops, y.atomic_ops, "{what}");
            assert_eq!(x.global_mem_ops, y.global_mem_ops, "{what}");
            assert_eq!(x.comparisons, y.comparisons, "{what}");
        }
    }

    #[test]
    fn query_staging_cuts_global_traffic_end_to_end() {
        let spec = &table2_pairs(1.0 / 65536.0)[1];
        let pair = spec.realize(47);
        let base = small_gpumem(16, 8, 8, 2)
            .run(&pair.reference, &pair.query)
            .unwrap();
        let staged = knobbed_gpumem(16, 8, 8, 2, SchedulePolicy::InOrder, false, true)
            .run(&pair.reference, &pair.query)
            .unwrap();
        assert_eq!(base.mems, staged.mems);
        assert!(
            staged.stats.matching.global_mem_ops < base.stats.matching.global_mem_ops,
            "staging must trade global for shared traffic"
        );
        assert!(
            staged.stats.matching.lane_cycles < base.stats.matching.lane_cycles,
            "shared reads are modeled cheaper"
        );
    }

    #[test]
    fn every_output_mem_is_maximal_and_long_enough() {
        let reference = GenomeModel::mammalian().generate(4_000, 402);
        let query = GenomeModel::mammalian().generate(2_500, 403);
        let gpumem = small_gpumem(12, 6, 8, 2);
        let result = gpumem.run(&reference, &query).unwrap();
        for &mem in &result.mems {
            assert!(is_maximal_exact(&reference, &query, mem, 12), "{mem:?}");
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let gpumem = small_gpumem(10, 5, 8, 2);
        let empty = PackedSeq::from_codes(&[]);
        let short: PackedSeq = "ACG".parse().unwrap();
        let normal = GenomeModel::uniform().generate(200, 404);
        assert!(gpumem.run(&empty, &normal).unwrap().mems.is_empty());
        assert!(gpumem.run(&normal, &empty).unwrap().mems.is_empty());
        assert!(
            gpumem.run(&short, &normal).unwrap().mems.is_empty(),
            "ref < seed"
        );
    }

    #[test]
    fn index_only_build_visits_every_row() {
        let reference = GenomeModel::uniform().generate(5_000, 405);
        let gpumem = small_gpumem(20, 10, 8, 2);
        let rows = reference.len().div_ceil(gpumem.config().tile_len());
        let report = gpumem.build_index_only(&reference);
        assert!(report.stats.launches >= 4 * rows as u64);
        assert!(report.wall > Duration::ZERO);
        assert_eq!(report.rows, rows);
    }

    #[test]
    fn compact_index_produces_identical_output() {
        let spec = &table2_pairs(1.0 / 65536.0)[1];
        let pair = spec.realize(48);
        let build = |kind: crate::config::IndexKind| {
            let config = GpumemConfig::builder(16)
                .seed_len(8)
                .threads_per_block(8)
                .blocks_per_tile(2)
                .index_kind(kind)
                .build()
                .unwrap();
            Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()))
        };
        let dense = build(crate::config::IndexKind::DenseTable)
            .run(&pair.reference, &pair.query)
            .unwrap();
        let compact = build(crate::config::IndexKind::CompactDirectory)
            .run(&pair.reference, &pair.query)
            .unwrap();
        assert_eq!(
            dense.mems, compact.mems,
            "index layout must not change results"
        );
        assert_eq!(dense.mems, naive_mems(&pair.reference, &pair.query, 16));
        // The compact directory trades lookup overhead for memory.
        assert!(
            compact.stats.matching.global_mem_ops > dense.stats.matching.global_mem_ops,
            "compact lookups pay binary-search loads"
        );
    }

    #[test]
    fn compact_index_shrinks_the_memory_estimate() {
        let dense = small_gpumem(20, 10, 8, 2);
        let config = GpumemConfig::builder(20)
            .seed_len(10)
            .threads_per_block(8)
            .blocks_per_tile(2)
            .index_kind(crate::config::IndexKind::CompactDirectory)
            .build()
            .unwrap();
        let compact = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
        assert!(compact.device_memory_estimate() * 50 < dense.device_memory_estimate());
    }

    #[test]
    fn stats_display_is_informative() {
        let text = GenomeModel::mammalian().generate(1_000, 407);
        let gpumem = small_gpumem(20, 8, 8, 2);
        let result = gpumem.run(&text, &text).unwrap();
        let rendered = result.stats.to_string();
        assert!(rendered.contains("tiles:"));
        assert!(rendered.contains("warp efficiency"));
        assert!(rendered.contains("MEMs"));
    }

    #[test]
    fn memory_fit_is_checked() {
        let config = GpumemConfig::builder(50)
            .seed_len(13)
            .threads_per_block(64)
            .blocks_per_tile(4)
            .build()
            .unwrap();
        // ptrs alone for ℓs = 13 is ~268 MB.
        let spacious = Gpumem::with_device(config.clone(), Device::new(DeviceSpec::tesla_k20c()));
        assert!(spacious.fits_device());
        assert!(spacious.device_memory_estimate() > 268_000_000);
        let mut cramped_spec = DeviceSpec::test_tiny();
        cramped_spec.global_mem_bytes = 1 << 20; // 1 MiB device
        let cramped = Gpumem::with_device(config, Device::new(cramped_spec));
        assert!(!cramped.fits_device());
    }

    #[test]
    fn run_rejects_oversized_working_set() {
        let mut spec = DeviceSpec::test_tiny();
        spec.global_mem_bytes = 1 << 16; // 64 KiB device
        let config = GpumemConfig::builder(20)
            .seed_len(10)
            .threads_per_block(16)
            .blocks_per_tile(2)
            .build()
            .unwrap();
        let text = GenomeModel::uniform().generate(1_000, 500);
        let err = Gpumem::with_device(config, Device::new(spec))
            .run(&text, &text)
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::DeviceMemoryExceeded { estimate, capacity }
                if estimate > capacity && capacity == 1 << 16
        ));
        assert!(err.to_string().contains("exceeds device memory"));
    }

    #[test]
    fn run_errors_display_cleanly() {
        let long = RunError::SequenceTooLong {
            len: SORT_KEY_LIMIT,
            limit: SORT_KEY_LIMIT,
        };
        assert!(long.to_string().contains("sort-key limit"));
        let oom = RunError::DeviceMemoryExceeded {
            estimate: 2,
            capacity: 1,
        };
        assert!(oom.to_string().contains("reduce blocks_per_tile"));
    }

    #[test]
    fn stage_counts_are_plausible() {
        let text = GenomeModel::mammalian().generate(2_000, 406);
        let gpumem = small_gpumem(20, 8, 8, 2);
        let result = gpumem.run(&text, &text).unwrap();
        let c = result.stats.counts;
        assert!(c.out_block > 0, "the main diagonal crosses blocks");
        assert!(c.out_tile > 0, "and tiles");
        assert_eq!(c.total, result.mems.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gpumem_seq::naive_mems;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The whole pipeline equals the ground truth on arbitrary
        /// inputs and parameters.
        #[test]
        fn pipeline_always_matches_naive(
            r in proptest::collection::vec(0u8..4, 1..500),
            q in proptest::collection::vec(0u8..4, 1..500),
            seed_len in 2usize..7,
            extra in 0u32..10,
            tau_pow in 1u32..5,
            n_block in 1usize..4,
        ) {
            let min_len = seed_len as u32 + extra;
            let reference = PackedSeq::from_codes(&r);
            let query = PackedSeq::from_codes(&q);
            let config = GpumemConfig::builder(min_len)
                .seed_len(seed_len)
                .threads_per_block(1 << tau_pow)
                .blocks_per_tile(n_block)
                .build()
                .unwrap();
            let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
            let got = gpumem.run(&reference, &query).unwrap().mems;
            prop_assert_eq!(got, naive_mems(&reference, &query, min_len));
        }

        /// Every combination of the locality/balance knobs is
        /// output-preserving on arbitrary inputs: schedule policy,
        /// work stealing, and query staging may only move work and
        /// memory traffic around, never change the MEM set.
        #[test]
        fn knobbed_pipeline_always_matches_naive(
            r in proptest::collection::vec(0u8..4, 1..500),
            q in proptest::collection::vec(0u8..4, 1..500),
            seed_len in 2usize..7,
            extra in 0u32..10,
            tau_pow in 1u32..5,
            n_block in 1usize..4,
            knobs in 0u8..8,
        ) {
            let (mass, stealing, staging) =
                (knobs & 1 != 0, knobs & 2 != 0, knobs & 4 != 0);
            let min_len = seed_len as u32 + extra;
            let reference = PackedSeq::from_codes(&r);
            let query = PackedSeq::from_codes(&q);
            let policy = if mass {
                crate::config::SchedulePolicy::MassDescending
            } else {
                crate::config::SchedulePolicy::InOrder
            };
            let config = GpumemConfig::builder(min_len)
                .seed_len(seed_len)
                .threads_per_block(1 << tau_pow)
                .blocks_per_tile(n_block)
                .schedule_policy(policy)
                .work_stealing(stealing)
                .query_staging(staging)
                .build()
                .unwrap();
            let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
            let got = gpumem.run(&reference, &query).unwrap().mems;
            prop_assert_eq!(got, naive_mems(&reference, &query, min_len));
        }

        /// Dual sampling under arbitrary valid co-prime pairs and tile
        /// geometries equals the ground truth too — the tile/block
        /// decomposition must keep both sample grids phase-aligned
        /// across every boundary.
        #[test]
        fn dual_pipeline_always_matches_naive(
            r in proptest::collection::vec(0u8..4, 1..500),
            q in proptest::collection::vec(0u8..4, 1..500),
            seed_len in 2usize..7,
            k1 in 1usize..5,
            k2 in 1usize..6,
            slack in 0u32..8,
            tau_pow in 1u32..5,
            n_block in 1usize..4,
        ) {
            prop_assume!(gpumem_index::gcd(k1, k2) == 1);
            let min_len = (seed_len + k1 * k2 - 1) as u32 + slack;
            let reference = PackedSeq::from_codes(&r);
            let query = PackedSeq::from_codes(&q);
            let config = GpumemConfig::builder(min_len)
                .seed_len(seed_len)
                .threads_per_block(1 << tau_pow)
                .blocks_per_tile(n_block)
                .seed_mode(gpumem_index::SeedMode::DualSampled { k1, k2 })
                .build()
                .unwrap();
            let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::test_tiny()));
            let got = gpumem.run(&reference, &query).unwrap().mems;
            prop_assert_eq!(got, naive_mems(&reference, &query, min_len));
        }
    }
}
