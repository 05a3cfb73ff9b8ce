//! Shared helpers for the integration-test binaries.
//!
//! Each test binary that needs these declares `mod support;` — unused
//! items in *that* binary are expected, hence the allow.
#![allow(dead_code)]

pub mod oracle;
pub mod schedule;

use sts::core::{Approach, StStore, StoreConfig};
use sts::curve::CurveKind;
use sts::document::Document;
use sts::geo::GeoRect;

/// Deploy one approach over the documents, with a small chunk size so
/// even modest test loads split across shards.
pub fn store_for(
    approach: Approach,
    docs: &[Document],
    mbr: GeoRect,
    num_shards: usize,
) -> StStore {
    store_for_curve(approach, CurveKind::default(), docs, mbr, num_shards)
}

/// [`store_for`] with an explicit curve.
pub fn store_for_curve(
    approach: Approach,
    curve: CurveKind,
    docs: &[Document],
    mbr: GeoRect,
    num_shards: usize,
) -> StStore {
    let mut store = StStore::new(StoreConfig {
        approach,
        num_shards,
        max_chunk_bytes: 24 * 1024,
        data_mbr: mbr,
        curve,
        ..Default::default()
    });
    store.bulk_load(docs.iter().cloned()).unwrap();
    store
}
