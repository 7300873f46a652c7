//! Failure accounting: every timed operation is checked against the
//! oracle MEM set and the stage count law; a mismatch or a `RunError`
//! counts as a failed operation and the run goes on.

use gpu_sim::LaunchStats;
use gpumem_core::{GpumemResult, GpumemStats, RunError};
use gpumem_seq::Mem;

/// Attempted/failed operation counts plus the first failure seen.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Account one operation made of one or more query results; it
    /// fails if any of them fails.
    pub fn record(&mut self, outcomes: &[Result<&GpumemResult, &RunError>], oracles: &[&[Mem]]) {
        self.attempted += 1;
        let failure = outcomes
            .iter()
            .zip(oracles)
            .find_map(|(outcome, oracle)| failure_of(*outcome, oracle));
        if let Some(why) = failure {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }
}

/// Why one query result is wrong, or `None` if it is right.
pub fn failure_of(outcome: Result<&GpumemResult, &RunError>, oracle: &[Mem]) -> Option<String> {
    let result = match outcome {
        Ok(result) => result,
        Err(e) => return Some(format!("run error: {e}")),
    };
    if result.mems != oracle {
        return Some(format!(
            "MEM set differs from the oracle ({} MEMs, expected {})",
            result.mems.len(),
            oracle.len()
        ));
    }
    let c = result.stats.counts;
    if c.in_block + c.in_tile + c.from_global != c.total {
        return Some(format!(
            "count law broken: {} in-block + {} in-tile + {} global != {} total",
            c.in_block, c.in_tile, c.from_global, c.total
        ));
    }
    None
}

/// `stats` with the host-side fields cleared (wall time and buffer-pool
/// bookkeeping), leaving the modeled device statistics, which must
/// repeat exactly for the same input.
pub fn modeled_only(stats: &LaunchStats) -> LaunchStats {
    LaunchStats {
        wall_time: Default::default(),
        pool_allocs: 0,
        pool_peak_bytes: 0,
        ..stats.clone()
    }
}

/// Modeled index and matching statistics of two runs agree exactly.
pub fn same_modeled(a: &GpumemStats, b: &GpumemStats) -> bool {
    modeled_only(&a.index) == modeled_only(&b.index)
        && modeled_only(&a.matching) == modeled_only(&b.matching)
}
