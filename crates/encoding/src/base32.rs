//! The GeoHash base32 alphabet (`0-9`, `b-z` minus `a i l o`).
//!
//! Used to render GeoHash cell ids the way §2.1 of the paper presents
//! them (e.g. Athens → `"swbb5"` at 5-character precision).

/// The 32-character GeoHash alphabet.
pub const GEOHASH_ALPHABET: &[u8; 32] = b"0123456789bcdefghjkmnpqrstuvwxyz";

/// Encode the top `5 * chars` bits of `bits` (a left-aligned bit string of
/// length `nbits`) into GeoHash base32 characters.
///
/// `bits` carries its payload in the **most significant** `nbits` bits of
/// the `u64`. This matches how interleaved GeoHash bit strings are built.
pub fn base32_encode(bits: u64, nbits: u32, chars: usize) -> String {
    let mut s = String::with_capacity(chars);
    for i in 0..chars {
        let shift = 64 - 5 * (i as u32 + 1);
        let idx = if 5 * (i as u32 + 1) <= nbits {
            ((bits >> shift) & 0x1F) as usize
        } else {
            // Pad missing low bits with zeros, as geohash truncation does.
            let have = nbits.saturating_sub(5 * i as u32).min(5);
            if have == 0 {
                0
            } else {
                (((bits >> (64 - nbits)) << (5 - have)) & 0x1F) as usize
            }
        };
        s.push(GEOHASH_ALPHABET[idx] as char);
    }
    s
}

/// Decode a base32 GeoHash string into a left-aligned bit string and its
/// length in bits. Returns `None` on characters outside the alphabet.
pub fn base32_decode(s: &str) -> Option<(u64, u32)> {
    let mut bits = 0u64;
    let mut n = 0u32;
    for ch in s.bytes() {
        let idx = GEOHASH_ALPHABET.iter().position(|&c| c == ch)? as u64;
        if n + 5 > 64 {
            return None;
        }
        bits |= idx << (64 - n - 5);
        n += 5;
    }
    Some((bits, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let (bits, n) = base32_decode("swbb5").unwrap();
        assert_eq!(n, 25);
        assert_eq!(base32_encode(bits, n, 5), "swbb5");
    }

    #[test]
    fn rejects_excluded_letters() {
        for s in ["a", "i", "l", "o", "A"] {
            assert!(base32_decode(s).is_none(), "{s}");
        }
    }

    #[test]
    fn prefix_property() {
        // Truncating the bit string yields the character prefix (paper §2.1).
        let (bits, _) = base32_decode("swbb5ftzes").unwrap();
        assert_eq!(base32_encode(bits, 25, 5), "swbb5");
    }

    #[test]
    fn zero_bits_encode_as_zero_chars() {
        assert_eq!(base32_encode(0, 0, 3), "000");
    }
}
