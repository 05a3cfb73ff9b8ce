//! The four indexing/partitioning approaches of §5.1.

use crate::{DATE_FIELD, HILBERT_FIELD, LOCATION_FIELD};
use std::fmt;
use sts_cluster::ShardKey;
use sts_curve::{CurveGrid, CurveKind};
use sts_geo::{GeoRect, WORLD};
use sts_index::{IndexField, IndexSpec};

/// Which indexing + sharding method the store runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Approach {
    /// Time-based sharding, local compound `(location 2dsphere, date)`.
    BslST,
    /// Time-based sharding, local compound `(date, location 2dsphere)`.
    BslTS,
    /// Hilbert sharding/indexing; curve spans the whole globe.
    Hil,
    /// Hilbert sharding/indexing; curve fitted to the data's MBR
    /// (same bit budget → higher effective precision).
    HilStar,
    /// ST-Hash (ref. \[10\] of the paper, §2.2 related work): a time-prefixed space-time code
    /// sharded and indexed as a single field. Not part of the paper's
    /// evaluation matrix ([`Approach::ALL`]); provided so its critique
    /// can be measured (see [`crate::sthash`]).
    StHash,
}

impl Approach {
    /// The paper's evaluation matrix, in presentation order.
    pub const ALL: [Approach; 4] = [
        Approach::BslST,
        Approach::BslTS,
        Approach::Hil,
        Approach::HilStar,
    ];

    /// The matrix plus the ST-Hash related-work baseline.
    pub const EXTENDED: [Approach; 5] = [
        Approach::BslST,
        Approach::BslTS,
        Approach::Hil,
        Approach::HilStar,
        Approach::StHash,
    ];

    /// The paper's short name.
    pub fn name(self) -> &'static str {
        match self {
            Approach::BslST => "bslST",
            Approach::BslTS => "bslTS",
            Approach::Hil => "hil",
            Approach::HilStar => "hil*",
            Approach::StHash => "stHash",
        }
    }

    /// Is this one of the Hilbert-based methods?
    pub fn uses_hilbert(self) -> bool {
        matches!(self, Approach::Hil | Approach::HilStar)
    }

    /// The shard key (§4.1.2 / §4.2.2).
    pub fn shard_key(self) -> ShardKey {
        match self {
            Approach::BslST | Approach::BslTS => ShardKey::range(&[DATE_FIELD]),
            Approach::Hil | Approach::HilStar => ShardKey::range(&[HILBERT_FIELD, DATE_FIELD]),
            Approach::StHash => ShardKey::range(&[crate::sthash::STHASH_FIELD]),
        }
    }

    /// User-created index specs. The baselines' shard-key index (`date`)
    /// is auto-created by the cluster, matching MongoDB. The Hilbert
    /// methods declare theirs, `(hilbertIndex, date)` under the name the
    /// cluster would give it, so that it can say its leading field holds
    /// `curve`'s cell of `location`: the store's writes set
    /// `hilbertIndex` that way on every document (`StStore::augment`).
    pub fn index_specs(self, geo_bits: u32, curve: Option<CurveGrid>) -> Vec<IndexSpec> {
        match self {
            Approach::BslST => vec![IndexSpec::new(
                "location_2dsphere_date_1",
                vec![
                    IndexField::geo_bits(LOCATION_FIELD, geo_bits),
                    IndexField::asc(DATE_FIELD),
                ],
            )],
            Approach::BslTS => vec![IndexSpec::new(
                "date_1_location_2dsphere",
                vec![
                    IndexField::asc(DATE_FIELD),
                    IndexField::geo_bits(LOCATION_FIELD, geo_bits),
                ],
            )],
            Approach::Hil | Approach::HilStar => curve
                .map(|grid| {
                    IndexSpec::new(
                        format!("{HILBERT_FIELD}_1_{DATE_FIELD}_1"),
                        vec![IndexField::asc(HILBERT_FIELD), IndexField::asc(DATE_FIELD)],
                    )
                    .with_curve(grid, LOCATION_FIELD)
                })
                .into_iter()
                .collect(),
            Approach::StHash => vec![],
        }
    }

    /// The curve grid for the Hilbert methods; `None` for the baselines.
    ///
    /// `hil` lays the `kind` curve over the world, `hil*` over
    /// `data_mbr` (§5.1: "the applied Hilbert curve is limited to the
    /// spatial region of the data set").
    pub fn curve(self, kind: CurveKind, order: u32, data_mbr: &GeoRect) -> Option<CurveGrid> {
        match self {
            Approach::BslST | Approach::BslTS | Approach::StHash => None,
            Approach::Hil => Some(CurveGrid::new(WORLD, order, kind)),
            Approach::HilStar => Some(CurveGrid::new(*data_mbr, order, kind)),
        }
    }

    /// The field zones are defined on (§4.2.4): `date` for the
    /// baselines, `hilbertIndex` for the Hilbert methods.
    pub fn zone_field(self) -> &'static str {
        match self {
            Approach::BslST | Approach::BslTS => DATE_FIELD,
            Approach::Hil | Approach::HilStar => HILBERT_FIELD,
            Approach::StHash => crate::sthash::STHASH_FIELD,
        }
    }
}

impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_keys_match_paper() {
        assert_eq!(Approach::BslST.shard_key().fields, vec!["date"]);
        assert_eq!(Approach::BslTS.shard_key().fields, vec!["date"]);
        assert_eq!(
            Approach::Hil.shard_key().fields,
            vec!["hilbertIndex", "date"]
        );
    }

    #[test]
    fn baselines_have_compound_geo_indexes() {
        let st = Approach::BslST.index_specs(26, None);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].leading_path(), "location");
        let ts = Approach::BslTS.index_specs(26, None);
        assert_eq!(ts[0].leading_path(), "date");
        assert!(Approach::Hil.index_specs(26, None).is_empty());
    }

    #[test]
    fn hilbert_shard_key_index_names_its_curve() {
        let grid = CurveGrid::world(13);
        let specs = Approach::Hil.index_specs(26, Some(grid));
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name, "hilbertIndex_1_date_1");
        let curve = specs[0].curve.as_ref().unwrap();
        assert_eq!((curve.grid, curve.point_path.as_str()), (grid, "location"));
    }

    #[test]
    fn curves_differ_by_extent() {
        let mbr = GeoRect::new(19.6, 34.9, 28.2, 41.8);
        for kind in CurveKind::ALL {
            assert!(Approach::BslST.curve(kind, 13, &mbr).is_none());
            let hil = Approach::Hil.curve(kind, 13, &mbr).unwrap();
            let star = Approach::HilStar.curve(kind, 13, &mbr).unwrap();
            assert_eq!(hil.kind(), kind);
            assert_eq!(hil.extent(), &WORLD);
            assert_eq!(star.extent(), &mbr);
        }
        // The default kind is the paper's Hilbert grid.
        let hil = Approach::Hil.curve(CurveKind::default(), 13, &mbr);
        assert_eq!(hil, Some(CurveGrid::world(13)));
        let star = Approach::HilStar.curve(CurveKind::default(), 13, &mbr);
        assert_eq!(star, Some(CurveGrid::fitted(mbr, 13)));
    }

    #[test]
    fn zone_fields() {
        assert_eq!(Approach::BslST.zone_field(), "date");
        assert_eq!(Approach::Hil.zone_field(), "hilbertIndex");
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Approach::HilStar.to_string(), "hil*");
        assert_eq!(
            Approach::ALL.map(|a| a.name()).join(","),
            "bslST,bslTS,hil,hil*"
        );
    }
}
