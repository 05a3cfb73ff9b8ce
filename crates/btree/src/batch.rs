//! Multi-range cursor: one descent amortized across sorted ranges.
//!
//! Serving a Hilbert covering means scanning dozens of index ranges that
//! are sorted and frequently land in the same region of the tree. A
//! fresh [`RangeIter`](crate::RangeIter) per range re-descends from the
//! root and clones both bounds; this cursor instead keeps its descent
//! path and, when the next range's lower bound still falls inside the
//! current subtree, reuses the shared prefix of the path — popping only
//! the levels the target actually leaves, in the style of HOC-Tree's
//! shared-prefix range batching. Bounds are borrowed (`Bound<&[u8]>`)
//! and the path lives in a fixed-size inline stack, so a whole batch of
//! ranges is served without a single heap allocation.
//!
//! Accounting matches [`RangeIter`](crate::RangeIter) exactly: every
//! touched entry counts toward `keys_examined` (including the
//! out-of-range entry that terminates a range), and each
//! [`seek`](BatchCursor::seek) counts one `seek` regardless of how much
//! of the path it reused.

use crate::node::{Internal, Leaf, Node};
use std::ops::Bound;

/// Deepest tree this cursor can serve. With a branch factor of 64 and
/// the half-full invariant, depth 32 needs over 2^150 entries — far
/// beyond anything addressable; [`BatchCursor::seek`] would panic on a
/// deeper tree rather than corrupt its path.
const MAX_DEPTH: usize = 32;

/// One retained level of the descent path: an internal node, the child
/// index currently descended into, and the subtree's exclusive upper
/// separator (`None` = unbounded, inherited from the parent when the
/// child is the node's last).
type Level<'a> = (&'a Internal, usize, Option<&'a [u8]>);

/// A forward cursor over `(key, record id)` entries serving many ranges
/// in one pass.
///
/// ```
/// use sts_btree::BTree;
/// use std::ops::Bound;
///
/// let mut t = BTree::new();
/// for i in 0..100u64 {
///     t.insert(&i.to_be_bytes(), i);
/// }
/// let mut cur = t.batch_cursor();
/// let mut hits = Vec::new();
/// for (lo, hi) in [(5u64, 8u64), (40, 42), (97, 99)] {
///     cur.seek(Bound::Included(&lo.to_be_bytes()));
///     while let Some((_, rid)) = cur.next(Bound::Included(&hi.to_be_bytes()[..])) {
///         hits.push(rid);
///     }
/// }
/// assert_eq!(hits, vec![5, 6, 7, 8, 40, 41, 42, 97, 98, 99]);
/// ```
pub struct BatchCursor<'a> {
    root: &'a Node,
    stack: [Option<Level<'a>>; MAX_DEPTH],
    depth: usize,
    leaf: Option<(&'a Leaf, usize)>,
    /// Range-scan termination latch (mirrors `RangeIter::done`).
    done: bool,
    keys_examined: u64,
    seeks: u64,
}

impl<'a> BatchCursor<'a> {
    pub(crate) fn new(root: &'a Node) -> Self {
        BatchCursor {
            root,
            stack: [None; MAX_DEPTH],
            depth: 0,
            leaf: None,
            done: true,
            keys_examined: 0,
            seeks: 0,
        }
    }

    /// Index entries touched so far, including each range's terminating
    /// out-of-range probe — `totalKeysExamined` semantics, identical to
    /// running a fresh [`RangeIter`](crate::RangeIter) per range.
    pub fn keys_examined(&self) -> u64 {
        self.keys_examined
    }

    /// Number of repositionings ([`seek`](Self::seek) calls): the batch
    /// analogue of "one descent per range".
    pub fn seeks(&self) -> u64 {
        self.seeks
    }

    /// Position at the first entry satisfying `lower`.
    ///
    /// When the target lies at or beyond the current leaf's first key,
    /// the retained path is reused: only the levels whose subtree the
    /// target leaves are popped and re-descended. A backward target
    /// (unsorted batch) falls back to a full root descent — correct for
    /// any seek order, fast for the sorted one.
    pub fn seek(&mut self, lower: Bound<&[u8]>) {
        self.seeks += 1;
        self.done = false;
        let reusable = match (lower, self.leaf) {
            // Reuse only when the target cannot precede the current
            // leaf: its first key is this path's lower frontier.
            (Bound::Included(t) | Bound::Excluded(t), Some((leaf, _))) => {
                leaf.entries.first().is_some_and(|(k, _)| k.as_ref() <= t)
            }
            _ => false,
        };
        if !reusable {
            self.depth = 0;
            self.leaf = None;
            self.descend(self.root, lower);
            return;
        }
        let (Bound::Included(t) | Bound::Excluded(t)) = lower else {
            unreachable!("reusable path requires a bounded target");
        };
        // Pop levels until the target falls below the subtree's upper
        // separator (or the subtree is upper-unbounded).
        let mut node: &'a Node = match self.leaf {
            Some((l, _)) if upper_open(self.stack[..self.depth].last(), t) => {
                // Target still inside the current leaf's subtree.
                self.position_in_leaf(l, lower);
                return;
            }
            _ => {
                self.leaf = None;
                loop {
                    let Some(&Some((internal, idx, _))) = self.stack[..self.depth].last() else {
                        // Path exhausted: target beyond every retained
                        // subtree; restart from the root.
                        self.depth = 0;
                        self.descend(self.root, lower);
                        return;
                    };
                    if upper_open(self.stack[..self.depth - 1].last(), t) {
                        // The target re-enters at this internal node:
                        // advance the child index (forward only) and
                        // descend from there.
                        let from = idx;
                        let rel = internal.keys[from..].partition_point(|sep| sep.as_ref() <= t);
                        let child = from + rel;
                        self.depth -= 1;
                        self.push_level(internal, child);
                        break &internal.children[child];
                    }
                    self.depth -= 1;
                }
            }
        };
        loop {
            match node {
                Node::Internal(i) => {
                    let child = i.keys.partition_point(|sep| sep.as_ref() <= t);
                    self.push_level(i, child);
                    node = &i.children[child];
                }
                Node::Leaf(l) => {
                    self.position_in_leaf(l, lower);
                    return;
                }
            }
        }
    }

    /// [`seek`](Self::seek) for a target above the entry
    /// [`next`](Self::next) last returned — a skip-scan's jumps. Such
    /// a target usually lies a few entries ahead, so those are probed
    /// in place before falling back to the path-reusing seek; counted
    /// as one seek either way, and never as keys examined.
    pub fn seek_forward(&mut self, target: &[u8]) {
        /// Entries probed before a binary search is the better bet.
        const PROBE: usize = 4;
        if let Some((leaf, idx)) = self.leaf {
            debug_assert!(idx > 0 && leaf.entries[idx - 1].0.as_ref() < target);
            let ahead = &leaf.entries[idx..leaf.entries.len().min(idx + PROBE)];
            if let Some(hit) = ahead.iter().position(|(k, _)| k.as_ref() >= target) {
                self.seeks += 1;
                self.done = false;
                self.leaf = Some((leaf, idx + hit));
                return;
            }
        }
        self.seek(Bound::Included(target));
    }

    /// Next entry at or below `upper`, or `None` when the range is
    /// exhausted (the probe that discovers exhaustion is counted).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self, upper: Bound<&[u8]>) -> Option<(&'a [u8], u64)> {
        if self.done {
            return None;
        }
        loop {
            let (leaf, idx) = self.leaf?;
            if idx < leaf.entries.len() {
                let (k, v) = &leaf.entries[idx];
                self.keys_examined += 1;
                let within = match upper {
                    Bound::Unbounded => true,
                    Bound::Included(u) => k.as_ref() <= u,
                    Bound::Excluded(u) => k.as_ref() < u,
                };
                if !within {
                    self.done = true;
                    return None;
                }
                self.leaf = Some((leaf, idx + 1));
                return Some((k.as_ref(), *v));
            }
            if !self.advance_leaf() {
                self.done = true;
                return None;
            }
        }
    }

    /// Full descent from `node` (initial position or backward fallback).
    fn descend(&mut self, node: &'a Node, lower: Bound<&[u8]>) {
        let mut node = node;
        loop {
            match node {
                Node::Internal(i) => {
                    let child = match lower {
                        Bound::Unbounded => 0,
                        Bound::Included(t) | Bound::Excluded(t) => {
                            i.keys.partition_point(|sep| sep.as_ref() <= t)
                        }
                    };
                    self.push_level(i, child);
                    node = &i.children[child];
                }
                Node::Leaf(l) => {
                    self.position_in_leaf(l, lower);
                    return;
                }
            }
        }
    }

    fn position_in_leaf(&mut self, leaf: &'a Leaf, lower: Bound<&[u8]>) {
        let idx = match lower {
            Bound::Unbounded => 0,
            Bound::Included(t) => leaf.entries.partition_point(|(e, _)| e.as_ref() < t),
            Bound::Excluded(t) => leaf.entries.partition_point(|(e, _)| e.as_ref() <= t),
        };
        self.leaf = Some((leaf, idx));
    }

    /// Record a level: child `idx` of `internal`, deriving the subtree's
    /// upper separator from the node or, for the last child, the parent.
    fn push_level(&mut self, internal: &'a Internal, idx: usize) {
        let inherited = match self.stack[..self.depth].last() {
            Some(&Some((_, _, upper))) => upper,
            _ => None,
        };
        let upper = internal.keys.get(idx).map(|k| k.as_ref()).or(inherited);
        assert!(self.depth < MAX_DEPTH, "tree deeper than MAX_DEPTH");
        self.stack[self.depth] = Some((internal, idx, upper));
        self.depth += 1;
    }

    /// Move to the first entry of the next leaf in key order.
    fn advance_leaf(&mut self) -> bool {
        while self.depth > 0 {
            let Some((internal, idx, _)) = self.stack[self.depth - 1] else {
                unreachable!("levels below depth are always populated");
            };
            if idx + 1 < internal.children.len() {
                self.depth -= 1;
                self.push_level(internal, idx + 1);
                let mut node = &internal.children[idx + 1];
                loop {
                    match node {
                        Node::Internal(i) => {
                            self.push_level(i, 0);
                            node = &i.children[0];
                        }
                        Node::Leaf(l) => {
                            self.leaf = Some((l, 0));
                            return true;
                        }
                    }
                }
            }
            self.depth -= 1;
        }
        self.leaf = None;
        false
    }
}

/// True when `t` is inside the open upper boundary of the level's
/// subtree (no separator, or `t` strictly below it).
fn upper_open(level: Option<&Option<Level<'_>>>, t: &[u8]) -> bool {
    match level {
        Some(&Some((_, _, Some(upper)))) => t < upper,
        Some(&Some((_, _, None))) | None => true,
        Some(&None) => unreachable!("levels below depth are always populated"),
    }
}

#[cfg(test)]
mod tests {
    use crate::BTree;
    use std::ops::Bound;

    fn key(n: u64) -> [u8; 8] {
        n.to_be_bytes()
    }

    fn tree(n: u64) -> BTree {
        let mut t = BTree::new();
        for i in 0..n {
            t.insert(&key(i), i);
        }
        t
    }

    /// Collect one range through the batch cursor.
    fn scan(cur: &mut super::BatchCursor<'_>, lo: u64, hi: u64) -> Vec<u64> {
        cur.seek(Bound::Included(&key(lo)));
        let hi = key(hi);
        let mut out = Vec::new();
        while let Some((_, v)) = cur.next(Bound::Excluded(&hi[..])) {
            out.push(v);
        }
        out
    }

    #[test]
    fn batch_equals_fresh_iterators() {
        let t = tree(10_000);
        let ranges = [
            (5u64, 40u64),
            (41, 45),
            (300, 302),
            (4_000, 4_500),
            (9_990, 10_100),
        ];
        let mut cur = t.batch_cursor();
        let mut batch_keys = 0;
        let mut batched = Vec::new();
        for &(lo, hi) in &ranges {
            batched.extend(scan(&mut cur, lo, hi));
        }
        batch_keys += cur.keys_examined();
        let mut fresh = Vec::new();
        let mut fresh_keys = 0;
        for &(lo, hi) in &ranges {
            let mut it = t.range(
                Bound::Included(key(lo).to_vec()),
                Bound::Excluded(key(hi).to_vec()),
            );
            fresh.extend(it.by_ref().map(|(_, v)| v));
            fresh_keys += it.keys_examined();
        }
        assert_eq!(batched, fresh);
        assert_eq!(batch_keys, fresh_keys, "identical totalKeysExamined");
        assert_eq!(cur.seeks(), ranges.len() as u64);
    }

    #[test]
    fn adjacent_ranges_share_the_leaf() {
        let t = tree(1_000);
        let mut cur = t.batch_cursor();
        // Consecutive tiny ranges within one leaf: after the first seek
        // the cursor only repositions within the retained path.
        let mut all = Vec::new();
        for start in (0..60u64).step_by(3) {
            all.extend(scan(&mut cur, start, start + 3));
        }
        assert_eq!(all, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn backward_seek_falls_back_correctly() {
        let t = tree(5_000);
        let mut cur = t.batch_cursor();
        assert_eq!(scan(&mut cur, 4_000, 4_003), vec![4_000, 4_001, 4_002]);
        // Unsorted batch: a backward target must still be served.
        assert_eq!(scan(&mut cur, 10, 12), vec![10, 11]);
        assert_eq!(scan(&mut cur, 4_500, 4_502), vec![4_500, 4_501]);
    }

    #[test]
    fn seek_forward_lands_where_seek_does() {
        // Jumps of every length up to several leaves, from every
        // position: the probe and the fallback must agree with `seek`.
        let t = tree(1_000);
        for start in (0..900u64).step_by(7) {
            for jump in [1u64, 2, 3, 4, 5, 63, 64, 65, 200] {
                let mut fwd = t.batch_cursor();
                fwd.seek(Bound::Included(&key(start)));
                assert_eq!(fwd.next(Bound::Unbounded).unwrap().1, start);
                let mut plain = t.batch_cursor();
                plain.seek(Bound::Included(&key(start)));
                plain.next(Bound::Unbounded);
                fwd.seek_forward(&key(start + jump));
                plain.seek(Bound::Included(&key(start + jump)));
                assert_eq!(fwd.next(Bound::Unbounded), plain.next(Bound::Unbounded));
                assert_eq!(fwd.seeks(), 2);
                assert_eq!(fwd.keys_examined(), plain.keys_examined());
            }
        }
        // Past the last key: exhausted, like `seek`.
        let mut cur = t.batch_cursor();
        cur.seek(Bound::Included(&key(998)));
        cur.next(Bound::Unbounded);
        cur.seek_forward(&key(5_000));
        assert!(cur.next(Bound::Unbounded).is_none());
    }

    #[test]
    fn unbounded_and_empty_ranges() {
        let t = tree(100);
        let mut cur = t.batch_cursor();
        cur.seek(Bound::Unbounded);
        assert_eq!(cur.next(Bound::Unbounded).unwrap().1, 0);
        // Empty range between stored keys.
        let mut cur = t.batch_cursor();
        cur.seek(Bound::Excluded(&key(50)));
        let upper = key(51);
        assert!(cur.next(Bound::Excluded(&upper[..])).is_none());
        // Probing key 51 to terminate counts, like RangeIter.
        assert_eq!(cur.keys_examined(), 1);
    }

    #[test]
    fn seek_past_end_of_tree() {
        let t = tree(100);
        let mut cur = t.batch_cursor();
        assert_eq!(scan(&mut cur, 98, 200), vec![98, 99]);
        assert_eq!(scan(&mut cur, 300, 400), Vec::<u64>::new());
        assert_eq!(cur.keys_examined(), 2, "no terminator at tree end");
    }

    #[test]
    fn empty_tree() {
        let t = BTree::new();
        let mut cur = t.batch_cursor();
        cur.seek(Bound::Unbounded);
        assert!(cur.next(Bound::Unbounded).is_none());
    }

    /// Differential check across many random-ish sorted batches.
    #[test]
    fn randomized_sorted_batches_match() {
        let t = tree(20_000);
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let mut ranges: Vec<(u64, u64)> = (0..20)
                .map(|_| {
                    let lo = rnd() % 20_500;
                    (lo, lo + rnd() % 64)
                })
                .collect();
            ranges.sort_unstable();
            let mut cur = t.batch_cursor();
            let mut batched = Vec::new();
            for &(lo, hi) in &ranges {
                batched.extend(scan(&mut cur, lo, hi));
            }
            let mut fresh = Vec::new();
            let mut fresh_keys = 0;
            for &(lo, hi) in &ranges {
                let mut it = t.range(
                    Bound::Included(key(lo).to_vec()),
                    Bound::Excluded(key(hi).to_vec()),
                );
                fresh.extend(it.by_ref().map(|(_, v)| v));
                fresh_keys += it.keys_examined();
            }
            assert_eq!(batched, fresh);
            assert_eq!(cur.keys_examined(), fresh_keys);
        }
    }
}
