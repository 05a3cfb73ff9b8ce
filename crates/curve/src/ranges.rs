//! Query-rectangle → 1D range decomposition.
//!
//! Both quadtree curves (Hilbert, Z-order) keep every *aligned*
//! `2^k × 2^k` block contiguous in index space, and a block's four
//! children are the four consecutive quarters of its range. The covering
//! therefore descends the quadtree visiting each node's children in
//! curve order and carrying each child's first index down: blocks fully
//! inside the query emit their whole index range at once, partial blocks
//! descend, disjoint ones are skipped. Ranges come out sorted, so
//! adjacent ones merge as they are pushed — no block list, no sort, no
//! per-block cell → index map. The result is the exact set of index
//! intervals the query touches — what §4.2.1 encodes into `$or`/`$in`
//! constraints and what Table 8 times.

use crate::grid::CurveKind;

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
    /// 64 ranges. Measured at commit 787593e by the since-deleted
    /// `perfsmoke --ablation-json` (R set at scale 0.002, 120 city-sized
    /// queries, seed `0x51372021`):
    ///
    /// * **hil** (order-13 curve): coverings are naturally small (~2.5
    ///   ranges/query, 305 total) — budgets 16/32/64/128 produce the
    ///   identical covering, so the budget never binds.
    /// * **hil\*** (finer curve): the budget binds hard. Total covering
    ///   ranges grow 1 920 → 3 687 → 5 641 → 6 120 across budgets
    ///   16/32/64/128, while `total_keys_examined` grows 63 599 →
    ///   65 754 → 70 540 → 72 278: each extra range costs a descent
    ///   plus a terminator probe, and the skip-scan's time-dimension
    ///   jumps already skip most of the false positives a bridged gap
    ///   admits. Result counts are identical at every budget.
    ///
    /// 64 keeps coverings tight enough for `$or`-clause routing (§4.2.2
    /// builds one filter clause per range) while staying within a few
    /// percent of the best-measured latency; lowering it is a
    /// reasonable tuning knob for very fine curves. The counter half of
    /// this ablation — hil\* ranges non-decreasing across budgets
    /// 16/32/64/128 with identical results — is asserted by
    /// `tests/covering_budget.rs::hil_star_covering_ranges_grow_with_the_budget`.
    fn default() -> Self {
        RangeBudget { max_ranges: 64 }
    }
}

/// Reusable working state for range decomposition.
///
/// Every covering coalesces to its budget through the gap buffer, which
/// retains its capacity across queries, so a store that threads one
/// scratch through its queries builds coverings without steady-state
/// heap allocation.
#[derive(Default)]
pub struct CoveringScratch {
    gaps: Vec<(u64, u32)>,
}

impl CoveringScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Child `(rx, ry)` bits by rank along a Hilbert node, before the
/// node's orientation is applied: the order-1 curve's `U`.
const HILBERT_RANKS: [(u64, u64); 4] = [(0, 0), (0, 1), (1, 1), (1, 0)];

/// Child `(rx, ry)` bits by rank along a Z-order node: x is each rank's
/// low bit, and the `N` never turns.
const ZORDER_RANKS: [(u64, u64); 4] = [(0, 0), (1, 0), (0, 1), (1, 1)];

/// Decompose the aligned-block cover of `[x0..=x1] × [y0..=y1]` on the
/// `2^order` grid whose cells `kind` orders: append its sorted, merged
/// ranges to `out` (never merging into what `out` already held) and
/// coalesce them to `budget`.
pub(crate) fn decompose_blocks_into(
    order: u32,
    kind: CurveKind,
    span: (u64, u64, u64, u64),
    budget: RangeBudget,
    scratch: &mut CoveringScratch,
    out: &mut Vec<(u64, u64)>,
) {
    let start = out.len();
    let ranks = match kind {
        CurveKind::Hilbert => &HILBERT_RANKS,
        CurveKind::ZOrder => &ZORDER_RANKS,
    };
    Descent {
        span,
        ranks,
        turns: kind == CurveKind::Hilbert,
        out: &mut *out,
        start,
    }
    .visit(0, 0, 1 << order, 0, false, false);
    apply_budget(out, start, budget, &mut scratch.gaps);
}

/// One curve-order descent over a query span.
struct Descent<'o> {
    span: (u64, u64, u64, u64),
    ranks: &'static [(u64, u64); 4],
    /// Whether sub-curves turn (Hilbert) or keep the parent's order.
    turns: bool,
    out: &'o mut Vec<(u64, u64)>,
    /// Where this covering starts in `out`.
    start: usize,
}

impl Descent<'_> {
    /// Visit the aligned block of side `size` at `(bx, by)`, whose
    /// sub-curve starts at index `base` and runs in orientation
    /// `(swap, complement)`: the rank order with x and y exchanged, then
    /// with both bits flipped. That is the transform `hilbert::xy2d`
    /// has applied to the coordinates by this level; swaps and
    /// complements commute, so it is its own inverse.
    fn visit(&mut self, bx: u64, by: u64, size: u64, base: u64, swap: bool, complement: bool) {
        let (x0, x1, y0, y1) = self.span;
        let (ex, ey) = (bx + size - 1, by + size - 1);
        if bx > x1 || by > y1 || ex < x0 || ey < y0 {
            return;
        }
        if bx >= x0 && ex <= x1 && by >= y0 && ey <= y1 {
            push_merged(self.out, self.start, (base, base + size * size - 1));
            return;
        }
        // A partial block has side ≥ 2: a single cell is inside or out.
        let half = size / 2;
        let flip = u64::from(complement);
        for (r, &(rx, ry)) in (0u64..).zip(self.ranks) {
            let (qx, qy) = if swap { (ry, rx) } else { (rx, ry) };
            // The two lower quadrants of a Hilbert `U` are transposed,
            // the right one also complemented.
            let turn = self.turns && ry == 0;
            self.visit(
                bx + (qx ^ flip) * half,
                by + (qy ^ flip) * half,
                half,
                base + r * half * half,
                swap ^ turn,
                complement ^ (turn && rx == 1),
            );
        }
    }
}

/// Append `(lo, hi)`, no lower than any range already in `out[start..]`,
/// extending the last of them when the two overlap or touch.
fn push_merged(out: &mut Vec<(u64, u64)>, start: usize, (lo, hi): (u64, u64)) {
    match out[start..].last_mut() {
        Some((_, prev_hi)) if lo <= prev_hi.saturating_add(1) => *prev_hi = (*prev_hi).max(hi),
        _ => out.push((lo, hi)),
    }
}

/// Coalesce the covering in `out[start..]` down to `budget`.
fn apply_budget(
    out: &mut Vec<(u64, u64)>,
    start: usize,
    budget: RangeBudget,
    gaps: &mut Vec<(u64, u32)>,
) {
    if let Some(kept) = coalesce_to_budget(&mut out[start..], budget.max_ranges, gaps) {
        out.truncate(start + kept);
    }
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

    fn decompose(
        order: u32,
        kind: CurveKind,
        span: (u64, u64, u64, u64),
        budget: RangeBudget,
    ) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        decompose_blocks_into(
            order,
            kind,
            span,
            budget,
            &mut CoveringScratch::new(),
            &mut out,
        );
        out
    }

    fn decompose_blocks(
        grid: &CurveGrid,
        x0: u64,
        x1: u64,
        y0: u64,
        y1: u64,
        budget: RangeBudget,
    ) -> Vec<(u64, u64)> {
        decompose(grid.order(), grid.kind(), (x0, x1, y0, y1), budget)
    }

    /// The reference covering, by brute force: every cell of the span
    /// through the curve's cell → index map, sorted, adjacent indices
    /// merged, then the same budget coalescing.
    fn brute_force(
        order: u32,
        kind: CurveKind,
        (x0, x1, y0, y1): (u64, u64, u64, u64),
        budget: RangeBudget,
    ) -> Vec<(u64, u64)> {
        let mut cells = Vec::new();
        for x in x0..=x1 {
            for y in y0..=y1 {
                cells.push(match kind {
                    CurveKind::Hilbert => crate::hilbert::xy2d(order, x, y),
                    CurveKind::ZOrder => crate::zorder::xy2z(order, x, y),
                });
            }
        }
        cells.sort_unstable();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for d in cells {
            match ranges.last_mut() {
                Some((_, hi)) if *hi + 1 == d => *hi = d,
                _ => ranges.push((d, d)),
            }
        }
        if let Some(kept) = coalesce_to_budget(&mut ranges, budget.max_ranges, &mut Vec::new()) {
            ranges.truncate(kept);
        }
        ranges
    }

    const ORACLE_BUDGETS: [RangeBudget; 5] = [
        RangeBudget { max_ranges: 1 },
        RangeBudget { max_ranges: 2 },
        RangeBudget { max_ranges: 16 },
        RangeBudget { max_ranges: 64 },
        RangeBudget::UNLIMITED,
    ];

    #[test]
    fn order_zero_and_whole_grid_resolve_at_the_root() {
        for kind in [CurveKind::Hilbert, CurveKind::ZOrder] {
            assert_eq!(
                decompose(0, kind, (0, 0, 0, 0), RangeBudget::UNLIMITED),
                [(0, 0)]
            );
            for order in 1..=7 {
                let n = 1u64 << order;
                for budget in ORACLE_BUDGETS {
                    assert_eq!(
                        decompose(order, kind, (0, n - 1, 0, n - 1), budget),
                        [(0, n * n - 1)],
                        "{kind:?} order {order}"
                    );
                }
            }
        }
    }

    #[test]
    fn descent_never_merges_into_earlier_output() {
        // Order-1 Hilbert: cell (0,1) is index 1, adjacent to a caller's
        // range ending at 0.
        let mut out = vec![(0, 0)];
        decompose_blocks_into(
            1,
            CurveKind::Hilbert,
            (0, 0, 1, 1),
            RangeBudget::new(1),
            &mut CoveringScratch::new(),
            &mut out,
        );
        assert_eq!(out, [(0, 0), (1, 1)]);
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

        /// The descent equals the brute-force covering on both quadtree
        /// curves at every order up to 7 and every oracle budget.
        #[test]
        fn prop_descent_matches_brute_force(
            order in 0u32..8,
            xs in (0u64..128, 0u64..128),
            ys in (0u64..128, 0u64..128),
        ) {
            let n = 1u64 << order;
            let (a, b) = (xs.0 % n, xs.1 % n);
            let (c, d) = (ys.0 % n, ys.1 % n);
            let span = (a.min(b), a.max(b), c.min(d), c.max(d));
            for kind in [CurveKind::Hilbert, CurveKind::ZOrder] {
                for budget in ORACLE_BUDGETS {
                    prop_assert_eq!(
                        decompose(order, kind, span, budget),
                        brute_force(order, kind, span, budget),
                        "{:?} order {} span {:?} budget {}", kind, order, span, budget.max_ranges
                    );
                }
            }
        }

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
