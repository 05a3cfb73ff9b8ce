//! `snappy-lite`: a small LZ77 byte compressor.
//!
//! Same design family as Google's snappy (which WiredTiger uses for
//! block compression): a greedy matcher over a hash table of 4-byte
//! sequences, emitting literal runs and back-reference copies, no
//! entropy coding. Compression ratios on BSON-like data land in the same
//! ballpark as snappy, which is what the Table 6 size model needs.
//!
//! Stream format (all varints LEB128):
//!
//! ```text
//! stream  := uncompressed_len | op*
//! op      := 0x00 len bytes…          (literal run)
//!          | 0x01 distance len        (copy, distance ≥ 1, len ≥ 4)
//! ```

use sts_encoding::{read_uvarint, write_uvarint};

/// Minimum match length worth encoding as a copy.
const MIN_MATCH: usize = 4;
/// Hash table size (power of two).
const HASH_BITS: u32 = 14;
/// Maximum back-reference window.
const WINDOW: usize = 32 * 1024;

const OP_LITERAL: u8 = 0x00;
const OP_COPY: u8 = 0x01;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compress `input`, returning the encoded stream.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    write_uvarint(input.len() as u64, &mut out);
    if input.is_empty() {
        return out;
    }
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut literal_start = 0usize;
    while i + MIN_MATCH <= input.len() {
        let h = hash4(input, i);
        let cand = table[h];
        table[h] = i;
        let matched = cand != usize::MAX
            && i - cand <= WINDOW
            && input[cand..cand + MIN_MATCH] == input[i..i + MIN_MATCH];
        if matched {
            // Extend the match as far as possible.
            let mut len = MIN_MATCH;
            while i + len < input.len() && input[cand + len] == input[i + len] {
                len += 1;
            }
            flush_literals(input, literal_start, i, &mut out);
            out.push(OP_COPY);
            write_uvarint((i - cand) as u64, &mut out);
            write_uvarint(len as u64, &mut out);
            // Seed the table sparsely inside the match to keep the
            // compressor O(n) while still finding overlapping repeats.
            let end = i + len;
            let mut j = i + 1;
            while j + MIN_MATCH <= input.len() && j < end {
                table[hash4(input, j)] = j;
                j += 3;
            }
            i = end;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(input, literal_start, input.len(), &mut out);
    out
}

fn flush_literals(input: &[u8], start: usize, end: usize, out: &mut Vec<u8>) {
    if start >= end {
        return;
    }
    out.push(OP_LITERAL);
    write_uvarint((end - start) as u64, out);
    out.extend_from_slice(&input[start..end]);
}

/// Decompress a stream produced by [`compress`]. Returns `None` on any
/// malformed input, hostile bytes included: no op may write past the
/// header's length, and the output grows with what the ops write, not
/// with what the header claims.
pub fn decompress(stream: &[u8]) -> Option<Vec<u8>> {
    let mut pos = 0usize;
    let total = read_len(stream, &mut pos)?;
    // Guard absurd headers before allocating.
    if total > (1 << 31) {
        return None;
    }
    // Reserve no more than the stream could spell out as literals;
    // copies grow the buffer as they write, never past `total`.
    let mut out = Vec::with_capacity(total.min(stream.len()));
    while pos < stream.len() {
        let op = stream[pos];
        pos += 1;
        let room = total - out.len();
        match op {
            OP_LITERAL => {
                let len = read_len(stream, &mut pos)?;
                let end = pos.checked_add(len).filter(|_| len <= room)?;
                out.extend_from_slice(stream.get(pos..end)?);
                pos = end;
            }
            OP_COPY => {
                let dist = read_len(stream, &mut pos)?;
                let len = read_len(stream, &mut pos)?;
                if dist == 0 || dist > out.len() || len < MIN_MATCH || len > room {
                    return None;
                }
                // Overlapping copies are legal (RLE-style); copy bytewise.
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return None,
        }
    }
    (out.len() == total).then_some(out)
}

/// A varint length, or `None` when it does not fit a `usize`.
fn read_len(stream: &[u8], pos: &mut usize) -> Option<usize> {
    usize::try_from(read_uvarint(stream, pos)?).ok()
}

/// Compressed size without materializing the stream contents beyond
/// necessity (convenience for size accounting).
pub fn compressed_size(input: &[u8]) -> usize {
    compress(input).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_empty_and_tiny() {
        for input in [&b""[..], b"a", b"abc", b"abcd"] {
            assert_eq!(decompress(&compress(input)).unwrap(), input);
        }
    }

    #[test]
    fn roundtrip_repetitive() {
        let input: Vec<u8> = b"hilbertIndex".repeat(500);
        let c = compress(&input);
        assert!(c.len() < input.len() / 5, "{} vs {}", c.len(), input.len());
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn roundtrip_overlapping_rle() {
        let input = vec![7u8; 10_000];
        let c = compress(&input);
        assert!(c.len() < 100);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn incompressible_data_grows_little() {
        // Pseudo-random bytes: no matches, overhead stays tiny.
        let mut state = 1u64;
        let input: Vec<u8> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let c = compress(&input);
        assert!(c.len() <= input.len() + input.len() / 64 + 16);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn bson_like_data_compresses() {
        // Documents share field names — the realistic case for Table 6.
        let mut input = Vec::new();
        for i in 0..200 {
            input.extend_from_slice(b"\x01location\x00\x03type\x00Point\x00\x04coordinates\x00");
            input.extend_from_slice(&(23.7 + f64::from(i) * 1e-4).to_le_bytes());
            input.extend_from_slice(&(37.9 + f64::from(i) * 1e-4).to_le_bytes());
            input.extend_from_slice(b"\x09date\x00");
            input.extend_from_slice(&(1_538_000_000_000i64 + i64::from(i) * 30_000).to_le_bytes());
        }
        let c = compress(&input);
        assert!(
            (c.len() as f64) < input.len() as f64 * 0.6,
            "ratio {}",
            c.len() as f64 / input.len() as f64
        );
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn rejects_corrupt_streams() {
        let c = compress(b"hello world hello world hello world");
        assert!(decompress(&c[..c.len() - 1]).is_none());
        let mut bad = c.clone();
        bad[1] = 0x7E; // bogus op tag
        assert!(decompress(&bad).is_none());
        assert!(decompress(&[]).is_none());
    }

    /// A stream of the given ops after a `total` header.
    fn stream(total: u64, ops: &[(u8, &[u64], &[u8])]) -> Vec<u8> {
        let mut s = Vec::new();
        write_uvarint(total, &mut s);
        for &(op, args, bytes) in ops {
            s.push(op);
            args.iter().for_each(|&a| write_uvarint(a, &mut s));
            s.extend_from_slice(bytes);
        }
        s
    }

    #[test]
    fn a_literal_longer_than_the_stream_is_rejected_not_an_overflow() {
        // `pos + len` overflowed here before the length was checked.
        let s = stream(1, &[(OP_LITERAL, &[u64::MAX], b"a")]);
        assert_eq!(decompress(&s), None);
        let s = stream(1, &[(OP_LITERAL, &[2], b"a")]);
        assert_eq!(decompress(&s), None, "runs past the stream's end");
    }

    #[test]
    fn a_copy_longer_than_the_header_is_rejected_before_writing() {
        // Twelve bytes asking for a 2^40-byte copy: it used to push
        // until the process ran out of memory, checking the length only
        // after the byte loop.
        let s = stream(
            8,
            &[(OP_LITERAL, &[1], b"a"), (OP_COPY, &[1, 1 << 40], b"")],
        );
        assert_eq!(s.len(), 12);
        assert_eq!(decompress(&s), None);
        // One byte over the header is just as wrong.
        let s = stream(8, &[(OP_LITERAL, &[4], b"abcd"), (OP_COPY, &[4, 5], b"")]);
        assert_eq!(decompress(&s), None);
        let s = stream(8, &[(OP_LITERAL, &[4], b"abcd"), (OP_COPY, &[4, 4], b"")]);
        assert_eq!(decompress(&s).as_deref(), Some(&b"abcdabcd"[..]));
    }

    #[test]
    fn a_huge_header_reserves_no_more_than_the_stream_holds() {
        // Five bytes claiming 2 GiB of output.
        let s = stream(1 << 31, &[]);
        assert_eq!(s.len(), 5);
        assert_eq!(decompress(&s), None);
        let s = stream(1 << 31, &[(OP_LITERAL, &[1], b"a")]);
        assert_eq!(decompress(&s), None, "a short stream under a big header");
        assert_eq!(decompress(&stream(u64::MAX, &[])), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_arbitrary_bytes_never_panic(bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..256)) {
            // Whatever comes back is exactly as long as its header says.
            if let Some(out) = decompress(&bytes) {
                prop_assert_eq!(Some(out.len()), read_len(&bytes, &mut 0));
            }
        }

        #[test]
        fn prop_damaged_streams_decode_to_none_or_the_input(
            input in proptest::collection::vec(0u8..4, 0..512),
            cut in 0usize..1024,
            flip in 0usize..1024,
            bit in 0u32..8,
        ) {
            let c = compress(&input);
            let truncated = &c[..cut % (c.len() + 1)];
            let got = decompress(truncated);
            prop_assert!(got.is_none() || got.as_deref() == Some(&input[..]));
            // A flipped literal byte still decodes, to another output of
            // the header's length; nothing else may come back.
            let mut flipped = c.clone();
            flipped[flip % c.len()] ^= 1 << bit;
            if let Some(out) = decompress(&flipped) {
                prop_assert_eq!(Some(out.len()), read_len(&flipped, &mut 0));
            }
        }

        #[test]
        fn prop_roundtrip(input in proptest::collection::vec(proptest::num::u8::ANY, 0..4096)) {
            prop_assert_eq!(decompress(&compress(&input)).unwrap(), input);
        }

        #[test]
        fn prop_roundtrip_structured(n in 1usize..50, word in "[a-d]{1,6}") {
            let input: Vec<u8> = word.as_bytes().repeat(n);
            prop_assert_eq!(decompress(&compress(&input)).unwrap(), input);
        }
    }
}
