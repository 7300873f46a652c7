//! Per-layer numbers from one traced operation.
//!
//! The pipeline's trace is a span tree run → tile row → tile → stage.
//! `Stage` spans (`index_build`, `block_batch`, `tile_merge`,
//! `global_merge`) are disjoint and never nest inside one another; their
//! only children are the informational `Launch`/`Phase` spans of their
//! own kernels, which belong to the same layer. A stage's self time is
//! therefore its duration, and whatever the operation's wall time does
//! not spend in a stage (canonicalisation, the MEM sink, tile and engine
//! bookkeeping) is the unattributed residual.

use gpu_sim::{DeviceSpec, LaunchStats};
use gpumem_core::{GpumemStats, SpanCat, Trace};

use crate::report::{median, Metric};

/// The kernel phases of a block launch, in pipeline order.
pub const BLOCK_PHASES: [&str; 5] = ["seed_lookup", "balance", "generate", "combine", "expand"];

/// One layer's share of a traced operation.
#[derive(Clone, Debug, Default)]
pub struct StageTotals {
    pub host_s: f64,
    pub device: LaunchStats,
}

/// Host and device totals of every stage of one (possibly merged)
/// trace.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub index: StageTotals,
    pub block: StageTotals,
    pub tile_merge: StageTotals,
    pub global: StageTotals,
    /// `(name, warp_cycles, warp_efficiency)` of each block phase.
    pub phases: Vec<(&'static str, u64, f64)>,
}

impl LayerTimes {
    pub fn from_trace(trace: &Trace, warp_size: usize) -> LayerTimes {
        let mut layers = LayerTimes::default();
        for span in trace.spans().iter().filter(|s| s.cat == SpanCat::Stage) {
            let stage = match span.name.as_str() {
                "index_build" => &mut layers.index,
                "block_batch" => &mut layers.block,
                "tile_merge" => &mut layers.tile_merge,
                "global_merge" => &mut layers.global,
                _ => continue,
            };
            stage.host_s += span.dur.as_secs_f64();
            if let Some(stats) = &span.stats {
                stage.device += stats.clone();
            }
        }
        let totals = trace.phase_totals();
        layers.phases = BLOCK_PHASES
            .iter()
            .map(|&name| match totals.iter().find(|p| p.name == name) {
                Some(p) => (name, p.warp_cycles, p.warp_efficiency(warp_size)),
                None => (name, 0, 1.0),
            })
            .collect();
        layers
    }

    /// Summed host seconds of every stage.
    pub fn attributed_s(&self) -> f64 {
        self.index.host_s + self.block.host_s + self.tile_merge.host_s + self.global.host_s
    }
}

/// `sim.*` from the untraced runs.
pub(crate) fn sim_metrics(runs: &[GpumemStats]) -> Vec<Metric> {
    let warp_size = DeviceSpec::tesla_k20c().warp_size;
    let launches: Vec<f64> = runs
        .iter()
        .map(|s| (s.index.launches + s.matching.launches) as f64)
        .collect();
    let efficiency: Vec<f64> = runs
        .iter()
        .map(|s| s.matching.warp_efficiency(warp_size))
        .collect();
    let ns_per_cycle: Vec<f64> = runs
        .iter()
        .filter(|s| s.matching.warp_cycles > 0)
        .map(|s| s.match_wall.as_secs_f64() * 1e9 / s.matching.warp_cycles as f64)
        .collect();
    let pool_peak = runs
        .iter()
        .map(|s| s.index.pool_peak_bytes.max(s.matching.pool_peak_bytes))
        .max()
        .unwrap_or(0);
    vec![
        Metric::new("sim.launches", median(&launches), "count"),
        Metric::new("sim.warp_efficiency", median(&efficiency), "ratio"),
        Metric::new(
            "sim.host_ns_per_warp_cycle",
            median(&ns_per_cycle),
            "ns/cycle",
        ),
        Metric::new("sim.pool_peak_bytes", pool_peak as f64, "bytes"),
    ]
}

/// `block.*`, `tile_merge.*` and `global.*` from a traced operation's
/// layers and stage counts; `index.build_s` leads.
pub(crate) fn stage_metrics(layers: &LayerTimes, stats: &GpumemStats) -> Vec<Metric> {
    let c = stats.counts;
    let mut out = vec![
        Metric::new("index.build_s", layers.index.host_s, "s"),
        Metric::new("block.host_s", layers.block.host_s, "s"),
        Metric::new("block.modeled_s", layers.block.device.modeled_secs(), "s"),
    ];
    for &(phase, cycles, efficiency) in &layers.phases {
        out.push(Metric::new(
            format!("block.{phase}.warp_cycles"),
            cycles as f64,
            "cycles",
        ));
        out.push(Metric::new(
            format!("block.{phase}.warp_efficiency"),
            efficiency,
            "ratio",
        ));
    }
    out.extend([
        Metric::new("block.in_block", c.in_block as f64, "count"),
        Metric::new("block.out_block", c.out_block as f64, "count"),
        Metric::new("tile_merge.host_s", layers.tile_merge.host_s, "s"),
        Metric::new(
            "tile_merge.modeled_s",
            layers.tile_merge.device.modeled_secs(),
            "s",
        ),
        Metric::new("tile_merge.fragments_in", c.out_block as f64, "count"),
        Metric::new("tile_merge.out_tile", c.out_tile as f64, "count"),
        Metric::new("global.host_s", layers.global.host_s, "s"),
        Metric::new("global.fragments_in", c.out_tile as f64, "count"),
        Metric::new("global.mems", c.from_global as f64, "count"),
    ]);
    out
}

/// Sum the stage counts and device statistics of several query results
/// into one (a serving request is a batch of queries).
pub(crate) fn sum_stats<'a>(stats: impl IntoIterator<Item = &'a GpumemStats>) -> GpumemStats {
    let mut total = GpumemStats::default();
    for s in stats {
        total.index += s.index.clone();
        total.matching += s.matching.clone();
        total.index_wall += s.index_wall;
        total.match_wall += s.match_wall;
        total.counts.in_block += s.counts.in_block;
        total.counts.out_block += s.counts.out_block;
        total.counts.in_tile += s.counts.in_tile;
        total.counts.out_tile += s.counts.out_tile;
        total.counts.from_global += s.counts.from_global;
        total.counts.total += s.counts.total;
    }
    total
}
