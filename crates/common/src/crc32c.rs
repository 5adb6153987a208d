//! CRC32C (Castagnoli), computed one of two ways with identical results.
//!
//! [`extend`] checks for SSE4.2 at run time: an x86-64 processor that has it
//! runs the `crc32` instruction over eight bytes at a time; any other runs a
//! byte-at-a-time lookup table. The table path is also the oracle the
//! instruction path is tested against, so every file format is the same
//! bytes on either kind of machine.
//!
//! The write-ahead log and sstable block trailers checksum their payloads
//! with CRC32C, masked the same way LevelDB masks stored checksums so that a
//! CRC of data that itself embeds CRCs does not degrade.

/// The Castagnoli polynomial in reversed bit order.
const POLY: u32 = 0x82f6_3b78;

/// Lookup table for byte-at-a-time CRC computation, built at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ if crc & 1 != 0 { POLY } else { 0 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes the CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extends a CRC computed over some data with additional bytes.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        // SAFETY: the check above found SSE4.2, the one feature
        // `extend_sse42` is compiled for.
        return unsafe { extend_sse42(crc, data) };
    }
    extend_table(crc, data)
}

/// [`extend`] one byte at a time through [`TABLE`].
fn extend_table(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    for &byte in data {
        crc = TABLE[((crc ^ u32::from(byte)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// [`extend`] on the SSE4.2 `crc32` instruction: eight bytes at a time (the
/// instruction reads them little-endian, as the table does), then the tail
/// one byte at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut wide = u64::from(!crc);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        wide = _mm_crc32_u64(wide, word);
    }
    let mut crc = wide as u32;
    for &byte in words.remainder() {
        crc = _mm_crc32_u8(crc, byte);
    }
    !crc
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// Masks a CRC before storing it on disk.
///
/// Storing raw CRCs of data that contains embedded CRCs reduces their
/// error-detection power; the rotation-plus-constant mask avoids that.
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Reverses [`mask`].
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Standard CRC32C test vectors (RFC 3720 appendix B.4).
    fn rfc3720_vectors() -> [(Vec<u8>, u32); 4] {
        [
            (vec![0u8; 32], 0x8a91_36aa),
            (vec![0xffu8; 32], 0x62a8_ab43),
            ((0u8..32).collect(), 0x46dd_794e),
            (b"123456789".to_vec(), 0xe306_9283),
        ]
    }

    #[test]
    fn known_vectors() {
        for (data, expected) in rfc3720_vectors() {
            assert_eq!(crc32c(&data), expected, "{data:?}");
            assert_eq!(extend_table(0, &data), expected, "table: {data:?}");
        }
    }

    /// `extend` and the table agree on `buf[offset..offset + len]` for every
    /// `len` in `lengths` and `offset` in 0..=8, and from a nonzero seed CRC.
    fn assert_paths_agree(buf: &[u8], lengths: impl IntoIterator<Item = usize>) {
        for len in lengths {
            for offset in 0..=8 {
                let data = &buf[offset..offset + len];
                let expected = extend_table(0, data);
                assert_eq!(extend(0, data), expected, "len {len} at offset {offset}");
                let seeded = extend_table(expected, data);
                assert_eq!(extend(expected, data), seeded, "len {len}, chained");
            }
        }
    }

    #[test]
    fn the_hardware_path_equals_the_table() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut buf = vec![0u8; (64 << 10) + 8];
        rng.fill_bytes(&mut buf);
        let sampled: Vec<usize> = (0..48).map(|_| rng.gen_range(0..=64 << 10)).collect();
        assert_paths_agree(
            &buf,
            (0..=64).chain([4095, 4096, 4097, 64 << 10]).chain(sampled),
        );
    }

    /// The same comparison over every length up to 16 KiB and every 7th up
    /// to 64 KiB; run with `--release -- --ignored`.
    #[test]
    #[ignore]
    fn the_hardware_path_equals_the_table_long_sweep() {
        let mut buf = vec![0u8; (64 << 10) + 8];
        StdRng::seed_from_u64(4400).fill_bytes(&mut buf);
        assert_paths_agree(&buf, (0..=16 << 10).chain((16 << 10..=64 << 10).step_by(7)));
    }

    #[test]
    fn extend_matches_full_computation() {
        let data = b"hello world, this is pebblesdb: CRC32C, split anywhere";
        for split in 0..=data.len() {
            let partial = crc32c(&data[..split]);
            assert_eq!(extend(partial, &data[split..]), crc32c(data), "{split}");
            let partial = extend_table(0, &data[..split]);
            assert_eq!(extend_table(partial, &data[split..]), crc32c(data));
        }
    }

    #[test]
    fn mask_roundtrip_and_differs() {
        let crc = crc32c(b"foo");
        assert_ne!(mask(crc), crc);
        assert_eq!(unmask(mask(crc)), crc);
    }

    #[test]
    fn different_inputs_have_different_crcs() {
        assert_ne!(crc32c(b"a"), crc32c(b"b"));
        assert_ne!(crc32c(b"foo"), crc32c(b"foo\0"));
    }
}
