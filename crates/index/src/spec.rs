//! Index specifications.

use std::fmt;
use sts_curve::CurveGrid;

/// How one index field treats its document values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FieldKind {
    /// Plain ascending order on the (BSON-comparable) value.
    Asc,
    /// 2dsphere: the field holds a GeoJSON point (or legacy `[lon, lat]`
    /// pair) and is indexed as a GeoHash cell id of `bits` precision.
    Geo2dSphere {
        /// GeoHash precision; MongoDB's default is 26 (§3.2).
        bits: u32,
    },
    /// Hashed: indexed by a 64-bit hash of the value (hashed sharding).
    Hashed,
}

/// One field of an index.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndexField {
    /// Dotted path into the document.
    pub path: String,
    /// Treatment of the field's values.
    pub kind: FieldKind,
}

impl IndexField {
    /// Ascending field.
    pub fn asc(path: impl Into<String>) -> Self {
        IndexField {
            path: path.into(),
            kind: FieldKind::Asc,
        }
    }

    /// 2dsphere field at MongoDB's default 26-bit precision.
    pub fn geo(path: impl Into<String>) -> Self {
        IndexField {
            path: path.into(),
            kind: FieldKind::Geo2dSphere {
                bits: sts_geo::DEFAULT_GEOHASH_BITS,
            },
        }
    }

    /// 2dsphere field at explicit precision.
    pub fn geo_bits(path: impl Into<String>, bits: u32) -> Self {
        IndexField {
            path: path.into(),
            kind: FieldKind::Geo2dSphere { bits },
        }
    }

    /// Hashed field.
    pub fn hashed(path: impl Into<String>) -> Self {
        IndexField {
            path: path.into(),
            kind: FieldKind::Hashed,
        }
    }
}

/// What a curve-valued leading field holds: each document's value is
/// `grid.index_of` the point at `point_path`, as the writer computed it
/// when it stored the document (the Hilbert methods' `hilbertIndex`).
#[derive(Clone, PartialEq, Debug)]
pub struct CurveCells {
    /// The grid the value was computed on.
    pub grid: CurveGrid,
    /// Dotted path of the GeoJSON point the value was computed from.
    pub point_path: String,
}

/// A (possibly compound) index definition.
#[derive(Clone, PartialEq, Debug)]
pub struct IndexSpec {
    /// Index name, unique within a collection.
    pub name: String,
    /// Fields in declaration order (up to 32, like MongoDB).
    pub fields: Vec<IndexField>,
    /// Set when the leading field holds curve cells of a point field;
    /// the planner then knows which keys lie in cells wholly inside a
    /// query rectangle.
    pub curve: Option<CurveCells>,
}

impl IndexSpec {
    /// Build a spec; panics on empty or oversized field lists.
    pub fn new(name: impl Into<String>, fields: Vec<IndexField>) -> Self {
        assert!(!fields.is_empty(), "index needs at least one field");
        assert!(
            fields.len() <= 32,
            "MongoDB caps compound indexes at 32 fields"
        );
        IndexSpec {
            name: name.into(),
            fields,
            curve: None,
        }
    }

    /// Declare that the leading field holds `grid`'s cell of the point
    /// at `point_path` on every document. Only a writer that maintains
    /// that invariant may declare it: the planner trusts it to skip the
    /// point-in-rectangle check.
    pub fn with_curve(mut self, grid: CurveGrid, point_path: impl Into<String>) -> Self {
        self.curve = Some(CurveCells {
            grid,
            point_path: point_path.into(),
        });
        self
    }

    /// Single ascending field shorthand.
    pub fn single(path: &str) -> Self {
        IndexSpec::new(path, vec![IndexField::asc(path)])
    }

    /// The leading field's path.
    pub fn leading_path(&self) -> &str {
        &self.fields[0].path
    }
}

impl fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.name)?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match field.kind {
                FieldKind::Asc => write!(f, "{}: 1", field.path)?,
                FieldKind::Geo2dSphere { .. } => write!(f, "{}: \"2dsphere\"", field.path)?,
                FieldKind::Hashed => write!(f, "{}: \"hashed\"", field.path)?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let spec = IndexSpec::new(
            "st",
            vec![IndexField::geo("location"), IndexField::asc("date")],
        );
        assert_eq!(spec.to_string(), "st{location: \"2dsphere\", date: 1}");
        assert_eq!(spec.leading_path(), "location");
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn rejects_empty() {
        IndexSpec::new("x", vec![]);
    }
}
