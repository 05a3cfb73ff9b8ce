//! Store configuration.

use crate::approach::Approach;
use crate::router::RouterConfig;
use sts_cluster::{LiveBalancerConfig, RecoveryPolicy};
use sts_curve::{CurveFamily, RangeBudget};
use sts_geo::{GeoPoint, GeoRect};
use sts_query::Planner;

/// Everything needed to deploy one sharded spatio-temporal store.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Which method (§5.1) to run.
    pub approach: Approach,
    /// Number of shards (the paper uses 12).
    pub num_shards: usize,
    /// Chunk split threshold in bytes (64 MB in MongoDB; scale with
    /// your data so chunk counts stay realistic).
    pub max_chunk_bytes: u64,
    /// Hilbert curve order, bits per axis (paper: 13).
    pub curve_order: u32,
    /// Which curve family the curve-based approaches (`hil`/`hil*`) run
    /// on. Defaults to Hilbert — the paper's configuration; the
    /// alternatives (Z-order, onion, skew-adaptive GeoHash) plug into
    /// the identical `hilbertIndex` key layout and shard-key machinery.
    pub curve: CurveFamily,
    /// Training sample for data-fitted curve families (skew GeoHash
    /// bucket-boundary fitting). Ignored by the analytic families; an
    /// empty sample degrades fitted families to uniform buckets.
    pub curve_sample: Vec<GeoPoint>,
    /// GeoHash precision of 2dsphere index keys (MongoDB default 26).
    pub geo_bits: u32,
    /// Data MBR — the extent `hil*` fits its curve to. Ignored by the
    /// other approaches.
    pub data_mbr: GeoRect,
    /// Budget for Hilbert range decomposition per query (§4.2.2's
    /// `$or` size).
    pub range_budget: RangeBudget,
    /// Per-shard query planner settings.
    pub planner: Planner,
    /// Router fault tolerance: per-shard timeouts, bounded backoff
    /// retries, hedged reads.
    pub recovery: RecoveryPolicy,
    /// Seed for deterministic failpoint draws (chaos testing).
    pub fault_seed: u64,
    /// Live-balancer policy applied at every ingest-batch commit.
    pub balancer: LiveBalancerConfig,
    /// Router tier: plan/result caching, the shard executor, and
    /// admission control.
    pub router: RouterConfig,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            approach: Approach::Hil,
            num_shards: 12,
            max_chunk_bytes: 640 * 1024,
            curve_order: sts_curve::PAPER_CURVE_ORDER,
            curve: CurveFamily::default(),
            curve_sample: Vec::new(),
            geo_bits: sts_geo::DEFAULT_GEOHASH_BITS,
            // The paper's real data set MBR (§5.1) — a sensible default
            // for examples; override for your data.
            data_mbr: GeoRect::new(19.632533, 34.929233, 28.245285, 41.757797),
            range_budget: RangeBudget::default(),
            planner: Planner::default(),
            recovery: RecoveryPolicy::default(),
            fault_seed: 0x5EED_FA17,
            balancer: LiveBalancerConfig::default(),
            router: RouterConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = StoreConfig::default();
        assert_eq!(c.num_shards, 12);
        assert_eq!(c.curve_order, 13);
        assert_eq!(c.geo_bits, 26);
        assert_eq!(c.curve, CurveFamily::Hilbert);
        assert!(c.curve_sample.is_empty());
    }
}
