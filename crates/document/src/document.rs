//! Ordered field maps ("documents").

use crate::{ObjectId, Value};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// An ordered set of `(field, value)` pairs, like a BSON document.
///
/// Field order is preserved (it matters for canonical comparison and for
/// serialized size), and lookup is linear — documents in this workload have
/// at most ~75 fields, where linear scans beat hashing.
///
/// Field names are unique: every mutation either replaces a field of
/// the same name or appends a new one, so a document never holds a
/// duplicate name and its encoding decodes back to an equal document.
///
/// Field storage is copy-on-write behind an [`Arc`]: `clone()` is a
/// reference-count bump (the query hot path clones every fetched
/// document out of the store's document cache), and the first mutation of
/// a shared document copies the fields once. Readers never observe
/// another handle's mutations.
#[derive(Clone, PartialEq, Default)]
pub struct Document {
    fields: Arc<Vec<(String, Value)>>,
}

impl Document {
    /// Create an empty document.
    pub fn new() -> Self {
        Document::default()
    }

    /// Create with pre-allocated capacity for `n` fields.
    pub fn with_capacity(n: usize) -> Self {
        Document {
            fields: Arc::new(Vec::with_capacity(n)),
        }
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Set a field, replacing any existing value under the same name.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        let key = key.into();
        let value = value.into();
        let fields = Arc::make_mut(&mut self.fields);
        if let Some(slot) = fields.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            fields.push((key, value));
        }
    }

    /// Remove a field, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.fields.iter().position(|(k, _)| k == key)?;
        Some(Arc::make_mut(&mut self.fields).remove(idx).1)
    }

    /// Get a top-level field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Get by dotted path, e.g. `"location.coordinates.0"`.
    ///
    /// Numeric path segments index into arrays.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut segments = path.split('.');
        let first = segments.next()?;
        let mut cur = self.get(first)?;
        for seg in segments {
            cur = match cur {
                Value::Document(d) => d.get(seg)?,
                Value::Array(a) => a.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Iterate `(field, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The `_id` field, if present and an ObjectId.
    pub fn object_id(&self) -> Option<ObjectId> {
        match self.get("_id") {
            Some(Value::ObjectId(id)) => Some(*id),
            _ => None,
        }
    }

    /// Ensure an `_id` ObjectId exists (generated with `ts_secs` if absent),
    /// returning it. Mirrors the MongoDB client driver behaviour the paper
    /// describes in §A.1. An `_id` of another type is replaced, so the
    /// document still holds exactly one `_id` afterwards.
    pub fn ensure_id(&mut self, ts_secs: u32) -> ObjectId {
        if let Some(id) = self.object_id() {
            return id;
        }
        let id = ObjectId::with_timestamp(ts_secs);
        let fields = Arc::make_mut(&mut self.fields);
        fields.retain(|(k, _)| k != "_id");
        // `_id` conventionally leads the document.
        fields.insert(0, ("_id".to_string(), Value::ObjectId(id)));
        id
    }

    /// BSON-style canonical comparison: field-by-field in stored order.
    pub fn canonical_cmp(&self, other: &Document) -> Ordering {
        for ((ka, va), (kb, vb)) in self.fields.iter().zip(other.fields.iter()) {
            let o = ka.cmp(kb).then_with(|| va.canonical_cmp(vb));
            if o != Ordering::Equal {
                return o;
            }
        }
        self.fields.len().cmp(&other.fields.len())
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        for (k, v) in self.fields.iter() {
            m.entry(&format_args!("{k}"), v);
        }
        m.finish()
    }
}

impl FromIterator<(String, Value)> for Document {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut d = Document::new();
        for (k, v) in iter {
            d.set(k, v);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn set_get_replace() {
        let mut d = Document::new();
        d.set("a", 1i32);
        d.set("b", "x");
        d.set("a", 2i32);
        assert_eq!(d.len(), 2);
        assert_eq!(d.get("a").unwrap().as_i64(), Some(2));
        assert_eq!(d.get("missing"), None);
    }

    #[test]
    fn dotted_path_into_geojson() {
        let d = doc! {
            "location" => doc! {
                "type" => "Point",
                "coordinates" => vec![Value::from(23.72), Value::from(37.98)],
            }
        };
        assert_eq!(
            d.get_path("location.coordinates.1").unwrap().as_f64(),
            Some(37.98)
        );
        assert!(d.get_path("location.coordinates.7").is_none());
        assert!(d.get_path("location.type.x").is_none());
    }

    #[test]
    fn ensure_id_is_idempotent_and_leading() {
        let mut d = doc! {"x" => 1};
        let id = d.ensure_id(100);
        assert_eq!(d.ensure_id(200), id);
        assert_eq!(d.iter().next().unwrap().0, "_id");
        assert_eq!(id.timestamp(), 100);
    }

    #[test]
    fn ensure_id_replaces_a_non_object_id() {
        let mut d = doc! {"x" => 1, "_id" => "caller-chosen"};
        let id = d.ensure_id(100);
        let names: Vec<&str> = d.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["_id", "x"], "one `_id`, leading");
        assert_eq!(d.object_id(), Some(id));
        assert_eq!(d.ensure_id(200), id);
    }

    #[test]
    fn remove_field() {
        let mut d = doc! {"a" => 1, "b" => 2};
        assert_eq!(d.remove("a").unwrap().as_i64(), Some(1));
        assert!(d.remove("a").is_none());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn clone_is_shared_until_mutation() {
        let mut a = doc! {"x" => 1, "y" => 2};
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.fields, &b.fields), "clone shares storage");
        a.set("x", 9i32);
        assert!(!Arc::ptr_eq(&a.fields, &b.fields), "mutation copies");
        assert_eq!(b.get("x").unwrap().as_i64(), Some(1));
        assert_eq!(a.get("x").unwrap().as_i64(), Some(9));
    }

    #[test]
    fn canonical_cmp_orders_by_fields() {
        let a = doc! {"a" => 1};
        let b = doc! {"a" => 2};
        let c = doc! {"a" => 1, "b" => 0};
        assert_eq!(a.canonical_cmp(&b), Ordering::Less);
        assert_eq!(a.canonical_cmp(&c), Ordering::Less);
        assert_eq!(a.canonical_cmp(&a.clone()), Ordering::Equal);
    }
}
