//! The Z-order (Morton) curve, for comparison against Hilbert.
//!
//! Z-order is what GeoHash effectively computes (§2.1); the paper chooses
//! Hilbert for its better clustering (ref. \[14\]). Implementing both lets
//! the `locality` tests quantify that choice.

/// Interleave the low `order` bits of `x` (even positions) and `y` (odd
/// positions) into a Morton code.
pub fn xy2z(order: u32, x: u64, y: u64) -> u64 {
    debug_assert!(order <= 31);
    debug_assert!(x < (1 << order) && y < (1 << order));
    spread_bits(x) | (spread_bits(y) << 1)
}

/// Inverse of [`xy2z`].
pub fn z2xy(_order: u32, z: u64) -> (u64, u64) {
    (compact_bits(z), compact_bits(z >> 1))
}

/// Spread the low 32 bits of `v` into even bit positions.
fn spread_bits(v: u64) -> u64 {
    let mut v = v & 0xFFFF_FFFF;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Gather even bit positions back into the low 32 bits.
fn compact_bits(v: u64) -> u64 {
    let mut v = v & 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_values() {
        assert_eq!(xy2z(2, 0, 0), 0);
        assert_eq!(xy2z(2, 1, 0), 1);
        assert_eq!(xy2z(2, 0, 1), 2);
        assert_eq!(xy2z(2, 1, 1), 3);
        assert_eq!(xy2z(2, 2, 0), 4);
    }

    #[test]
    fn exhaustive_bijection_order4() {
        let mut seen = vec![false; 256];
        for x in 0..16u64 {
            for y in 0..16u64 {
                let z = xy2z(4, x, y) as usize;
                assert!(!seen[z]);
                seen[z] = true;
                assert_eq!(z2xy(4, z as u64), (x, y));
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn aligned_blocks_contiguous() {
        // Like Hilbert, Z-order keeps aligned quadtree blocks contiguous.
        let order = 5u32;
        for k in 1..=3u32 {
            let size = 1u64 << k;
            for bx in (0..(1u64 << order)).step_by(size as usize) {
                for by in (0..(1u64 << order)).step_by(size as usize) {
                    let base = xy2z(order, bx, by) & !(size * size - 1);
                    for dx in 0..size {
                        for dy in 0..size {
                            let z = xy2z(order, bx + dx, by + dy);
                            assert!((base..base + size * size).contains(&z));
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(x in 0u64..(1 << 31), y in 0u64..(1 << 31)) {
            prop_assert_eq!(z2xy(31, xy2z(31, x, y)), (x, y));
        }
    }
}
