//! Query-rectangle → 1D range decomposition.
//!
//! Both supported curves keep every *aligned* `2^k × 2^k` quadtree block
//! contiguous in index space. Decomposition therefore recurses over
//! aligned blocks: blocks fully inside the query emit their whole index
//! range at once, partial blocks split into four children, and single
//! cells bottom out. The result is the exact set of index intervals the
//! query touches — what §4.2.1 encodes into `$or`/`$in` constraints and
//! what Table 8 times.

use crate::grid::CurveGrid;

/// Bounds the number of ranges a decomposition may return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeBudget {
    /// Maximum number of disjoint ranges (minimum 1). Excess ranges are
    /// coalesced across the smallest gaps, trading false-positive index
    /// keys for fewer B-tree seeks.
    pub max_ranges: usize,
}

impl RangeBudget {
    /// No practical limit: the exact decomposition.
    pub const UNLIMITED: RangeBudget = RangeBudget {
        max_ranges: usize::MAX,
    };

    /// Budget of `n` ranges.
    pub fn new(n: usize) -> Self {
        RangeBudget {
            max_ranges: n.max(1),
        }
    }
}

impl Default for RangeBudget {
    /// 64 ranges. Measured on the perfsmoke workload (scale 0.002, 120
    /// queries, seed `0x51372021`; `perfsmoke --ablation-json`):
    ///
    /// * **hil** (order-13 curve): coverings are naturally small (~2.4
    ///   ranges/query, 287 total) — budgets 16/32/64/128 produce the
    ///   identical covering, so the budget never binds.
    /// * **hil\*** (finer curve): the budget binds hard. Total covering
    ///   ranges grow 1 898 → 3 566 → 5 365 → 5 895 across budgets
    ///   16/32/64/128, while `total_keys_examined` grows 55 251 →
    ///   57 504 → 61 750 → 63 595: each extra range costs a descent
    ///   plus a terminator probe, and the skip-scan's time-dimension
    ///   jumps already skip most of the false positives a bridged gap
    ///   admits. Result counts are identical at every budget.
    ///
    /// 64 keeps coverings tight enough for `$or`-clause routing (§4.2.2
    /// builds one filter clause per range) while staying within a few
    /// percent of the best-measured latency; lowering it is a
    /// reasonable tuning knob for very fine curves.
    fn default() -> Self {
        RangeBudget { max_ranges: 64 }
    }
}

/// Reusable working state for range decomposition.
///
/// The covering pipeline needs a block list (raw index intervals in
/// visit order, sorted and merged once at the end) and a gap buffer
/// (budget coalescing). Both retain their capacity across queries, so a
/// store that threads one scratch through its queries builds coverings
/// without steady-state heap allocation.
#[derive(Default)]
pub struct CoveringScratch {
    pub(crate) blocks: Vec<(u64, u64)>,
    pub(crate) gaps: Vec<(u64, u32)>,
}

impl CoveringScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Decompose the aligned-block cover of `[x0..=x1] × [y0..=y1]`.
pub(crate) fn decompose_blocks(
    grid: &CurveGrid,
    x0: u64,
    x1: u64,
    y0: u64,
    y1: u64,
    budget: RangeBudget,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    decompose_blocks_into(
        grid,
        x0,
        x1,
        y0,
        y1,
        budget,
        &mut CoveringScratch::new(),
        &mut out,
    );
    out
}

/// Like [`decompose_blocks`], but appends to `out` and reuses `scratch`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decompose_blocks_into(
    grid: &CurveGrid,
    x0: u64,
    x1: u64,
    y0: u64,
    y1: u64,
    budget: RangeBudget,
    scratch: &mut CoveringScratch,
    out: &mut Vec<(u64, u64)>,
) {
    decompose_blocks_generic_into(
        grid.order(),
        &|x, y| grid.index_of_cell(x, y),
        x0,
        x1,
        y0,
        y1,
        budget,
        scratch,
        out,
    );
}

/// Aligned-block decomposition for any curve whose aligned `2^k × 2^k`
/// quadtree blocks are contiguous in index space (Hilbert, Z-order and
/// every Z-order-topology variant regardless of cell geometry).
/// `index_of_cell` is the curve's cell → index map.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decompose_blocks_generic_into<F: Fn(u64, u64) -> u64>(
    order: u32,
    index_of_cell: &F,
    x0: u64,
    x1: u64,
    y0: u64,
    y1: u64,
    budget: RangeBudget,
    scratch: &mut CoveringScratch,
    out: &mut Vec<(u64, u64)>,
) {
    let size = 1u64 << order;
    scratch.blocks.clear();
    visit(
        index_of_cell,
        0,
        0,
        size,
        x0,
        x1,
        y0,
        y1,
        &mut scratch.blocks,
    );
    finish_covering(scratch, budget, out);
}

/// Sort the blocks collected in `scratch`, append them to `out` merging
/// overlapping and adjacent (`hi + 1 == lo`) neighbours in one pass, and
/// coalesce down to the range budget — the shared tail of every curve's
/// decomposition, block-recursive or ring-walking.
pub(crate) fn finish_covering(
    scratch: &mut CoveringScratch,
    budget: RangeBudget,
    out: &mut Vec<(u64, u64)>,
) {
    let start = out.len();
    scratch.blocks.sort_unstable();
    for &(lo, hi) in &scratch.blocks {
        match out[start..].last_mut() {
            Some((_, prev_hi)) if lo <= prev_hi.saturating_add(1) => {
                *prev_hi = (*prev_hi).max(hi);
            }
            _ => out.push((lo, hi)),
        }
    }
    if let Some(kept) = coalesce_to_budget(&mut out[start..], budget.max_ranges, &mut scratch.gaps)
    {
        out.truncate(start + kept);
    }
}

/// Recursive block visitor: every block or cell of the cover is pushed
/// in visit order; [`finish_covering`] sorts and merges them.
#[allow(clippy::too_many_arguments)]
fn visit<F: Fn(u64, u64) -> u64>(
    index_of_cell: &F,
    bx: u64,
    by: u64,
    size: u64,
    x0: u64,
    x1: u64,
    y0: u64,
    y1: u64,
    out: &mut Vec<(u64, u64)>,
) {
    // Disjoint?
    if bx > x1 || by > y1 || bx + size - 1 < x0 || by + size - 1 < y0 {
        return;
    }
    // Fully contained?
    if bx >= x0 && bx + size - 1 <= x1 && by >= y0 && by + size - 1 <= y1 {
        let base = index_of_cell(bx, by) & !(size * size - 1);
        out.push((base, base + size * size - 1));
        return;
    }
    if size == 1 {
        let d = index_of_cell(bx, by);
        out.push((d, d));
        return;
    }
    let half = size / 2;
    visit(index_of_cell, bx, by, half, x0, x1, y0, y1, out);
    visit(index_of_cell, bx + half, by, half, x0, x1, y0, y1, out);
    visit(index_of_cell, bx, by + half, half, x0, x1, y0, y1, out);
    visit(
        index_of_cell,
        bx + half,
        by + half,
        half,
        x0,
        x1,
        y0,
        y1,
        out,
    );
}

/// Reduce sorted, disjoint `ranges` to at most `max_ranges` by bridging
/// the smallest gaps, compacting in place. Returns the compacted length,
/// or `None` when the budget already holds.
///
/// Selection of the `max_ranges - 1` gaps to *keep* uses
/// `select_nth_unstable` on the reusable `gaps` buffer — O(n) instead of
/// the old full sort + `BTreeSet` membership (O(n log n) with per-query
/// allocation). Ties break exactly as the old sort did (larger gap, then
/// larger index, wins), so coverings are byte-identical.
fn coalesce_to_budget(
    ranges: &mut [(u64, u64)],
    max_ranges: usize,
    gaps: &mut Vec<(u64, u32)>,
) -> Option<usize> {
    if ranges.len() <= max_ranges {
        return None;
    }
    // Gap before range i+1 is ranges[i+1].0 - ranges[i].1.
    gaps.clear();
    gaps.extend(
        ranges
            .windows(2)
            .enumerate()
            .map(|(i, w)| (w[1].0 - w[0].1, i as u32)),
    );
    let keep = max_ranges - 1;
    if keep == 0 {
        // Budget of one: bridge everything.
        ranges[0].1 = ranges[ranges.len() - 1].1;
        return Some(1);
    }
    // Partition the `keep` largest (by (gap, index), descending) to the
    // front, then order those few by position for the rebuild walk.
    gaps.select_nth_unstable_by(keep - 1, |a, b| b.cmp(a));
    let kept = &mut gaps[..keep];
    kept.sort_unstable_by_key(|&(_, i)| i);
    let mut next_kept = 0usize;
    let mut write = 0usize;
    let mut cur = ranges[0];
    for i in 1..ranges.len() {
        if next_kept < keep && kept[next_kept].1 as usize == i - 1 {
            next_kept += 1;
            ranges[write] = cur;
            write += 1;
            cur = ranges[i];
        } else {
            cur.1 = ranges[i].1;
        }
    }
    ranges[write] = cur;
    Some(write + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CurveGrid, CurveKind};
    use proptest::prelude::*;
    use sts_geo::GeoRect;

    fn unit_grid(order: u32, kind: CurveKind) -> CurveGrid {
        CurveGrid::new(GeoRect::new(0.0, 0.0, 1.0, 1.0), order, kind)
    }

    /// Exact cover check: every cell in the block is in some range, and
    /// every range value maps back into the block.
    fn assert_exact_cover(grid: &CurveGrid, x0: u64, x1: u64, y0: u64, y1: u64) {
        let ranges = decompose_blocks(grid, x0, x1, y0, y1, RangeBudget::UNLIMITED);
        let mut covered = 0u64;
        for &(lo, hi) in &ranges {
            for d in lo..=hi {
                let (x, y) = grid.cell_of_index(d);
                assert!(
                    (x0..=x1).contains(&x) && (y0..=y1).contains(&y),
                    "index {d} -> ({x},{y}) outside query block"
                );
                covered += 1;
            }
        }
        assert_eq!(covered, (x1 - x0 + 1) * (y1 - y0 + 1), "cover incomplete");
        // Ranges disjoint & sorted with real gaps.
        for w in ranges.windows(2) {
            assert!(w[0].1 + 1 < w[1].0);
        }
    }

    #[test]
    fn exact_cover_various_blocks_hilbert() {
        let g = unit_grid(6, CurveKind::Hilbert);
        assert_exact_cover(&g, 0, 63, 0, 63);
        assert_exact_cover(&g, 0, 0, 0, 0);
        assert_exact_cover(&g, 5, 20, 7, 33);
        assert_exact_cover(&g, 10, 11, 0, 63);
        assert_exact_cover(&g, 31, 32, 31, 32); // straddles the main quadrants
    }

    #[test]
    fn exact_cover_zorder() {
        let g = unit_grid(6, CurveKind::ZOrder);
        assert_exact_cover(&g, 5, 20, 7, 33);
        assert_exact_cover(&g, 31, 32, 31, 32);
    }

    #[test]
    fn full_grid_is_single_range() {
        let g = unit_grid(8, CurveKind::Hilbert);
        let ranges = decompose_blocks(&g, 0, 255, 0, 255, RangeBudget::UNLIMITED);
        assert_eq!(ranges, vec![(0, 65_535)]);
    }

    #[test]
    fn budget_coalesces_with_superset_coverage() {
        let g = unit_grid(8, CurveKind::Hilbert);
        let exact = decompose_blocks(&g, 10, 200, 17, 23, RangeBudget::UNLIMITED);
        assert!(exact.len() > 8, "need a fragmented query: {}", exact.len());
        let budgeted = decompose_blocks(&g, 10, 200, 17, 23, RangeBudget::new(8));
        assert!(budgeted.len() <= 8);
        // Budgeted cover is a superset: every exact range lies in some
        // budgeted range.
        for &(lo, hi) in &exact {
            assert!(
                budgeted.iter().any(|&(blo, bhi)| blo <= lo && hi <= bhi),
                "({lo},{hi}) lost"
            );
        }
        // Total covered span only grows.
        let span = |rs: &[(u64, u64)]| rs.iter().map(|(lo, hi)| hi - lo + 1).sum::<u64>();
        assert!(span(&budgeted) >= span(&exact));
    }

    #[test]
    fn finish_covering_sorts_and_merges_after_existing_output() {
        let mut scratch = CoveringScratch::new();
        let mut out = vec![(100, 200)];
        finish_covering(&mut scratch, RangeBudget::UNLIMITED, &mut out);
        assert_eq!(out, vec![(100, 200)], "no blocks, nothing appended");
        // Visit order, with an adjacency, an overlap and a containment;
        // the caller's earlier output is never merged into.
        scratch.blocks = vec![
            (5, 6),
            (0, 2),
            (3, 4),
            (10, 12),
            (11, 30),
            (15, 16),
            (201, 202),
        ];
        finish_covering(&mut scratch, RangeBudget::UNLIMITED, &mut out);
        assert_eq!(out, vec![(100, 200), (0, 6), (10, 30), (201, 202)]);
    }

    #[test]
    fn hilbert_fragments_less_than_zorder_vertical_strip() {
        // Moon et al.'s clustering result: Z-order interleaves x into the
        // low bits, so a *vertical* strip shatters it while Hilbert's
        // symmetry keeps the fragment count low. (Averaged over random
        // rectangles Hilbert also wins — asserted in `locality`.)
        let h = unit_grid(9, CurveKind::Hilbert);
        let z = unit_grid(9, CurveKind::ZOrder);
        let hr = decompose_blocks(&h, 200, 203, 0, 511, RangeBudget::UNLIMITED).len();
        let zr = decompose_blocks(&z, 200, 203, 0, 511, RangeBudget::UNLIMITED).len();
        assert!(hr < zr, "hilbert {hr} vs zorder {zr}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_exact_cover(x0 in 0u64..32, w in 0u64..32, y0 in 0u64..32, hgt in 0u64..32) {
            let g = unit_grid(5, CurveKind::Hilbert);
            let x1 = (x0 + w).min(31);
            let y1 = (y0 + hgt).min(31);
            assert_exact_cover(&g, x0, x1, y0, y1);
        }

        /// Coalescing under *any* budget only widens: the budgeted
        /// covering's union is a superset of the exact covering, and no
        /// exact range is ever split across two budgeted ranges.
        #[test]
        fn prop_budgeted_cover_is_unsplit_superset(
            x0 in 0u64..64, w in 0u64..64, y0 in 0u64..64, hgt in 0u64..64,
            budget in 1usize..24,
        ) {
            let g = unit_grid(6, CurveKind::Hilbert);
            let x1 = (x0 + w).min(63);
            let y1 = (y0 + hgt).min(63);
            let exact = decompose_blocks(&g, x0, x1, y0, y1, RangeBudget::UNLIMITED);
            let budgeted = decompose_blocks(&g, x0, x1, y0, y1, RangeBudget::new(budget));
            prop_assert!(budgeted.len() <= budget.max(1));
            prop_assert!(budgeted.len() <= exact.len());
            // Budgeted ranges stay sorted and disjoint.
            for w in budgeted.windows(2) {
                prop_assert!(w[0].1 + 1 < w[1].0, "unmerged neighbours {w:?}");
            }
            // Every exact range lies wholly inside exactly one budgeted
            // range (superset, never split).
            for &(lo, hi) in &exact {
                let n = budgeted
                    .iter()
                    .filter(|&&(blo, bhi)| blo <= lo && hi <= bhi)
                    .count();
                prop_assert_eq!(n, 1, "exact range ({}, {}) split or lost", lo, hi);
            }
            // And the union never shrinks.
            let span = |rs: &[(u64, u64)]| rs.iter().map(|(lo, hi)| hi - lo + 1).sum::<u64>();
            prop_assert!(span(&budgeted) >= span(&exact));
        }
    }
}
