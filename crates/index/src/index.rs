//! The `ptrs`/`locs` index structure.

use gpumem_seq::PackedSeq;

use crate::seed::SeedCodec;

/// A half-open reference region `[start, start + len)` — one tile row's
/// worth of reference (§III-A: "only a partial index is created for
/// `ℓ_tile` base pairs of reference").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First reference position covered.
    pub start: usize,
    /// Region length in bases.
    pub len: usize,
}

impl Region {
    /// The whole of `seq`.
    pub fn whole(seq: &PackedSeq) -> Region {
        Region {
            start: 0,
            len: seq.len(),
        }
    }

    /// End position (exclusive).
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// The lightweight index over one reference region.
///
/// Invariants (checked by [`SeedIndex::validate`]):
/// * `ptrs.len() == 4^ℓs + 1`, non-decreasing, `ptrs[0] == 0`,
///   `ptrs[4^ℓs] == locs.len()`;
/// * bucket `s` (`locs[ptrs[s] .. ptrs[s+1]]`) holds exactly the sampled
///   positions whose seed code is `s`, in ascending order;
/// * every sampled in-range position appears exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedIndex {
    /// Seed codec (carries `ℓs`).
    pub codec: SeedCodec,
    /// Sampling step `Δs`.
    pub step: usize,
    /// The indexed reference region.
    pub region: Region,
    /// Bucket offsets, `4^ℓs + 1` entries.
    pub ptrs: Vec<u32>,
    /// Sampled seed locations (absolute reference positions), bucketed
    /// by seed code and ascending within each bucket.
    pub locs: Vec<u32>,
}

impl SeedIndex {
    /// All indexed locations of seed `code`, ascending.
    #[inline(always)]
    pub fn lookup(&self, code: u32) -> &[u32] {
        let lo = self.ptrs[code as usize] as usize;
        let hi = self.ptrs[code as usize + 1] as usize;
        &self.locs[lo..hi]
    }

    /// Number of indexed occurrences of seed `code` — a thread's `load`
    /// in Algorithm 2.
    #[inline(always)]
    pub fn occurrences(&self, code: u32) -> usize {
        (self.ptrs[code as usize + 1] - self.ptrs[code as usize]) as usize
    }

    /// Number of sampled locations.
    pub fn num_locations(&self) -> usize {
        self.locs.len()
    }

    /// Approximate memory footprint in bytes (`ptrs` + `locs`), the
    /// quantity the paper's §III-A sizes against GPU memory.
    pub fn memory_bytes(&self) -> usize {
        (self.ptrs.len() + self.locs.len()) * std::mem::size_of::<u32>()
    }

    /// The paper's theoretical bit count (§III-A): the `locs` array
    /// "can be stored in `n_locs × ⌈log₂ ℓ_tile⌉` bits" and `ptrs`
    /// needs "`4^ℓs × ⌈log₂ n_locs⌉`" bits. (The implementation uses
    /// plain `u32`s; this is the densely-packed lower bound the paper
    /// argues from.)
    pub fn paper_bits(&self) -> u64 {
        let ceil_log2 =
            |x: usize| (usize::BITS - x.max(1).next_power_of_two().leading_zeros() - 1) as u64;
        let n_locs = self.locs.len();
        let locs_bits = n_locs as u64 * ceil_log2(self.region.len);
        let ptrs_bits = self.codec.num_seeds() as u64 * ceil_log2(n_locs);
        locs_bits + ptrs_bits
    }

    /// The sampled positions this index must cover, in order: every
    /// `step`-th position of the region whose seed fits inside the
    /// sequence.
    pub fn expected_positions(
        region: Region,
        step: usize,
        seed_len: usize,
        seq_len: usize,
    ) -> Vec<u32> {
        (0..Self::num_positions(region, step, seed_len, seq_len))
            .map(|k| (region.start + k * step) as u32)
            .collect()
    }

    /// How many positions [`SeedIndex::expected_positions`] samples:
    /// the starts `region.start + k·step` that lie inside the region and
    /// leave room for a whole seed in the sequence (none when the
    /// sequence is shorter than a seed).
    pub(crate) fn num_positions(
        region: Region,
        step: usize,
        seed_len: usize,
        seq_len: usize,
    ) -> usize {
        let fit_end = (seq_len + 1).saturating_sub(seed_len);
        region
            .end()
            .min(fit_end)
            .saturating_sub(region.start)
            .div_ceil(step)
    }

    /// Exhaustively check the structural invariants against the source
    /// sequence. Used by tests and debug assertions, not production
    /// paths (it is O(index size)).
    pub fn validate(&self, seq: &PackedSeq) -> Result<(), String> {
        let n = self.codec.num_seeds();
        if self.ptrs.len() != n + 1 {
            return Err(format!(
                "ptrs has {} entries, want {}",
                self.ptrs.len(),
                n + 1
            ));
        }
        if self.ptrs[0] != 0 {
            return Err("ptrs[0] != 0".into());
        }
        if self.ptrs[n] as usize != self.locs.len() {
            return Err("ptrs sentinel != |locs|".into());
        }
        let mut expected =
            Self::expected_positions(self.region, self.step, self.codec.seed_len(), seq.len());
        let mut seen: Vec<u32> = Vec::with_capacity(self.locs.len());
        for code in 0..n as u32 {
            if self.ptrs[code as usize] > self.ptrs[code as usize + 1] {
                return Err(format!("ptrs decreasing at seed {code}"));
            }
            let bucket = self.lookup(code);
            for window in bucket.windows(2) {
                if window[0] >= window[1] {
                    return Err(format!("bucket {code} not strictly ascending"));
                }
            }
            for &loc in bucket {
                let actual = self
                    .codec
                    .encode(seq, loc as usize)
                    .ok_or_else(|| format!("location {loc} has no full seed"))?;
                if actual != code {
                    return Err(format!("location {loc} in bucket {code} encodes {actual}"));
                }
                seen.push(loc);
            }
        }
        seen.sort_unstable();
        expected.sort_unstable();
        if seen != expected {
            return Err(format!(
                "indexed positions mismatch: {} indexed vs {} expected",
                seen.len(),
                expected.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cpu::build_sequential;

    #[test]
    fn region_whole_covers_sequence() {
        let seq: PackedSeq = "ACGTACGT".parse().unwrap();
        let region = Region::whole(&seq);
        assert_eq!(region.start, 0);
        assert_eq!(region.len, 8);
        assert_eq!(region.end(), 8);
    }

    #[test]
    fn expected_positions_respect_step_and_tail() {
        // len 10, seed 3: valid starts are 0..=7; step 3 -> 0, 3, 6.
        let region = Region { start: 0, len: 10 };
        assert_eq!(
            SeedIndex::expected_positions(region, 3, 3, 10),
            vec![0, 3, 6]
        );
        // Region ending at the sequence end with no room for a seed.
        let tail = Region { start: 9, len: 1 };
        assert!(SeedIndex::expected_positions(tail, 1, 3, 10).is_empty());
    }

    #[test]
    fn expected_positions_allow_seed_past_region_end() {
        // A seed may start inside the region and extend past its end
        // (into the next tile row) as long as it fits the sequence.
        let region = Region { start: 0, len: 4 };
        assert_eq!(
            SeedIndex::expected_positions(region, 1, 3, 10),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn lookup_and_occurrences_agree() {
        let seq: PackedSeq = "ACACACAC".parse().unwrap();
        let index = build_sequential(&seq, Region::whole(&seq), 2, 1);
        let codec = SeedCodec::new(2);
        let ac = codec.encode(&seq, 0).unwrap();
        assert_eq!(index.occurrences(ac), 4);
        assert_eq!(index.lookup(ac), &[0, 2, 4, 6]);
        let ca = codec.encode(&seq, 1).unwrap();
        assert_eq!(index.lookup(ca), &[1, 3, 5]);
        // A seed that never occurs.
        let tt = 0b11_11;
        assert_eq!(index.occurrences(tt), 0);
        assert!(index.lookup(tt).is_empty());
    }

    #[test]
    fn paper_bits_formula() {
        let seq = gpumem_seq::GenomeModel::uniform().generate(1_000, 8);
        let index = build_sequential(&seq, Region::whole(&seq), 4, 10);
        // n_locs = ceil((1000-4+1)/10) = 100; ceil(log2 1000) = 10;
        // ptrs: 4^4 = 256 seeds × ceil(log2 100) = 7 bits.
        assert_eq!(index.num_locations(), 100);
        assert_eq!(index.paper_bits(), 100 * 10 + 256 * 7);
        // Densely packed is below the u32 implementation.
        assert!(index.paper_bits() / 8 < index.memory_bytes() as u64);
    }

    #[test]
    fn memory_footprint_shrinks_with_step() {
        let seq = gpumem_seq::GenomeModel::uniform().generate(10_000, 3);
        let full = build_sequential(&seq, Region::whole(&seq), 8, 1);
        let sparse = build_sequential(&seq, Region::whole(&seq), 8, 38);
        assert!(sparse.num_locations() * 30 < full.num_locations() * 2);
        assert!(sparse.memory_bytes() < full.memory_bytes());
    }
}
