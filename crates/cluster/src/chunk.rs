//! Chunks: contiguous shard-key ranges assigned to shards.

/// One chunk: the half-open key range `[min, max)` living on `shard`.
/// `max == None` means +∞. The first chunk's `min` is the empty key
/// (−∞ — every encoded key is non-empty, so it sorts after).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// Inclusive lower key bound.
    pub min: Vec<u8>,
    /// Exclusive upper key bound; `None` is +∞.
    pub max: Option<Vec<u8>>,
    /// Owning shard id.
    pub shard: usize,
    /// Approximate bytes of documents in this chunk.
    pub bytes: u64,
    /// Documents in this chunk.
    pub docs: u64,
    /// True when the chunk exceeded the split size but cannot split
    /// (every document shares one shard-key value — §4.1.2's "jumbo").
    pub jumbo: bool,
}

impl Chunk {
    /// Does `key` fall inside this chunk?
    pub fn contains(&self, key: &[u8]) -> bool {
        key >= &self.min[..] && self.max.as_deref().is_none_or(|m| key < m)
    }
}

/// A rejected chunk split: the proposed key does not fall strictly
/// inside the chunk's `(min, max)` range. Returned (not panicked) so a
/// live balancer interleaved with migrations can route the error and
/// keep running instead of aborting mid-rebalance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitError {
    /// The rejected split key.
    pub split_key: Vec<u8>,
    /// The chunk's inclusive lower bound.
    pub min: Vec<u8>,
    /// The chunk's exclusive upper bound (`None` = +∞).
    pub max: Option<Vec<u8>>,
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "split key {:02x?} outside chunk [{:02x?}, {:?})",
            self.split_key, self.min, self.max
        )
    }
}

impl std::error::Error for SplitError {}

/// The cluster's routing table: chunks sorted by `min`, covering the
/// whole key space without gaps.
#[derive(Clone, Debug, Default)]
pub struct ChunkMap {
    chunks: Vec<Chunk>,
}

impl ChunkMap {
    /// A single chunk covering everything, on `shard`.
    pub fn new_single(shard: usize) -> Self {
        ChunkMap {
            chunks: vec![Chunk {
                min: Vec::new(),
                max: None,
                shard,
                bytes: 0,
                docs: 0,
                jumbo: false,
            }],
        }
    }

    /// All chunks, sorted by `min`.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Mutable access for the balancer/splitter.
    pub(crate) fn chunks_mut(&mut self) -> &mut [Chunk] {
        &mut self.chunks
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Never true — a chunk map always covers the key space.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Index of the chunk containing `key`.
    pub fn route(&self, key: &[u8]) -> usize {
        // Last chunk whose min <= key.
        self.chunks.partition_point(|c| c.min.as_slice() <= key) - 1
    }

    /// Indices of chunks intersecting `[lo, hi)` (`hi == None` → +∞).
    pub fn overlapping(&self, lo: &[u8], hi: Option<&[u8]>) -> std::ops::Range<usize> {
        self.overlapping_from(0, lo, hi)
    }

    /// [`overlapping`](Self::overlapping) for a caller walking ranges in
    /// ascending order: the search starts at chunk `from`, which must
    /// not lie past the chunk containing `lo`, and gallops forward.
    pub(crate) fn overlapping_from(
        &self,
        from: usize,
        lo: &[u8],
        hi: Option<&[u8]>,
    ) -> std::ops::Range<usize> {
        // Last chunk whose min <= lo.
        let start = self.gallop(from, |c| c.min.as_slice() <= lo) - 1;
        let end = match hi {
            None => self.chunks.len(),
            // First chunk whose min >= h is fully beyond the range.
            Some(h) => self.gallop(start, |c| c.min.as_slice() < h),
        };
        start..end.max(start + 1)
    }

    /// The first index at or after `from` whose chunk fails `below`, a
    /// predicate that holds on a prefix of the map including every
    /// chunk before `from`: probes at doubling distances, then a binary
    /// search between the last two, so a hop of one chunk costs two
    /// compares.
    fn gallop(&self, from: usize, below: impl Fn(&Chunk) -> bool) -> usize {
        let len = self.chunks.len();
        let mut bound = 1;
        while from + bound <= len && below(&self.chunks[from + bound - 1]) {
            bound *= 2;
        }
        // Every chunk before `from + bound / 2` holds, and the answer
        // lies at or before `from + bound - 1`.
        let lo = from + bound / 2;
        let hi = (from + bound - 1).min(len);
        lo + self.chunks[lo..hi].partition_point(below)
    }

    /// Split the chunk at `idx` at `split_key`. The key must fall
    /// strictly inside the chunk's range; an out-of-range key is
    /// rejected with a [`SplitError`] and the map is left untouched.
    /// Both halves stay on the same shard; counters split
    /// proportionally (re-estimated on subsequent inserts).
    pub fn split(&mut self, idx: usize, split_key: Vec<u8>) -> Result<(), SplitError> {
        let c = &mut self.chunks[idx];
        if split_key.as_slice() <= c.min.as_slice()
            || c.max.as_deref().is_some_and(|m| split_key.as_slice() >= m)
        {
            return Err(SplitError {
                split_key,
                min: c.min.clone(),
                max: c.max.clone(),
            });
        }
        let right = Chunk {
            min: split_key.clone(),
            max: c.max.take(),
            shard: c.shard,
            bytes: c.bytes / 2,
            docs: c.docs / 2,
            jumbo: false,
        };
        c.max = Some(split_key);
        c.bytes -= right.bytes;
        c.docs -= right.docs;
        c.jumbo = false;
        self.chunks.insert(idx + 1, right);
        Ok(())
    }

    /// Reassign chunk `idx` to `shard` — the routing-table flip that
    /// commits a migration.
    pub fn assign(&mut self, idx: usize, shard: usize) {
        self.chunks[idx].shard = shard;
    }

    /// Ensure boundaries exist at every given key (splitting chunks as
    /// needed) — used when zone ranges are applied.
    pub fn split_at_boundaries(&mut self, boundaries: &[Vec<u8>]) {
        for b in boundaries {
            if b.is_empty() {
                continue;
            }
            let idx = self.route(b);
            if self.chunks[idx].min != *b {
                self.split(idx, b.clone())
                    .expect("routed boundary lies inside its chunk");
            }
        }
    }

    /// Chunk count per shard (for the balancer), sized to `num_shards`.
    pub fn counts_per_shard(&self, num_shards: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_shards];
        for c in &self.chunks {
            counts[c.shard] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u8) -> Vec<u8> {
        vec![0x10, n] // fake rank byte + payload, orders by n
    }

    #[test]
    fn single_chunk_routes_everything() {
        let m = ChunkMap::new_single(0);
        assert_eq!(m.route(&[]), 0);
        assert_eq!(m.route(&k(200)), 0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn split_and_route() {
        let mut m = ChunkMap::new_single(0);
        m.split(0, k(100)).unwrap();
        m.split(0, k(50)).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.route(&k(10)), 0);
        assert_eq!(m.route(&k(50)), 1);
        assert_eq!(m.route(&k(99)), 1);
        assert_eq!(m.route(&k(100)), 2);
        // Boundaries stay contiguous.
        assert_eq!(m.chunks()[0].max.as_ref(), Some(&k(50)));
        assert_eq!(m.chunks()[1].min, k(50));
        assert_eq!(m.chunks()[1].max.as_ref(), Some(&k(100)));
        assert_eq!(m.chunks()[2].max, None);
    }

    #[test]
    fn overlapping_ranges() {
        let mut m = ChunkMap::new_single(0);
        m.split(0, k(100)).unwrap();
        m.split(0, k(50)).unwrap();
        assert_eq!(m.overlapping(&k(0), Some(&k(49))), 0..1);
        assert_eq!(m.overlapping(&k(0), Some(&k(60))), 0..2);
        assert_eq!(m.overlapping(&k(55), Some(&k(60))), 1..2);
        assert_eq!(m.overlapping(&k(55), None), 1..3);
        assert_eq!(m.overlapping(&[], None), 0..3);
        // Range falling inside one chunk still yields that chunk.
        assert_eq!(m.overlapping(&k(120), Some(&k(130))), 2..3);
    }

    #[test]
    fn overlapping_from_any_start_up_to_the_containing_chunk() {
        let mut m = ChunkMap::new_single(0);
        let bounds: Vec<_> = (1..=20).map(|b| k(b * 10)).collect();
        m.split_at_boundaries(&bounds);
        for lo in 0..=215u8 {
            for hi in [
                lo.saturating_sub(5),
                lo,
                lo.saturating_add(7),
                lo.saturating_add(60),
            ] {
                let (lo, hi) = (k(lo), k(hi));
                // The definition: binary searches over the whole map.
                let start = m.chunks.partition_point(|c| c.min <= lo) - 1;
                let end = m.chunks.partition_point(|c| c.min < hi);
                for from in 0..=start {
                    assert_eq!(
                        m.overlapping_from(from, &lo, Some(&hi)),
                        start..end.max(start + 1)
                    );
                    assert_eq!(m.overlapping_from(from, &lo, None), start..m.len());
                }
            }
        }
    }

    #[test]
    fn split_at_boundaries_is_idempotent() {
        let mut m = ChunkMap::new_single(0);
        m.split_at_boundaries(&[k(10), k(20)]);
        assert_eq!(m.len(), 3);
        m.split_at_boundaries(&[k(10), k(20)]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn split_outside_is_rejected() {
        let mut m = ChunkMap::new_single(0);
        m.split(0, k(100)).unwrap();
        // k(50) lies in chunk 0, not chunk 1: rejected, map untouched.
        let err = m.split(1, k(50)).unwrap_err();
        assert_eq!(err.split_key, k(50));
        assert_eq!(err.min, k(100));
        assert_eq!(err.max, None);
        assert_eq!(m.len(), 2);
        // Splitting exactly at a boundary is rejected too (no-op split).
        assert!(m.split(1, k(100)).is_err());
        assert!(m.split(0, k(100)).is_err());
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn counts_per_shard() {
        let mut m = ChunkMap::new_single(1);
        m.split(0, k(10)).unwrap();
        m.assign(1, 0);
        assert_eq!(m.counts_per_shard(3), vec![1, 1, 0]);
    }
}
