//! Fixed-width and variable-length integer encodings.
//!
//! All on-disk formats in the workspace (write-ahead log, sstables, MANIFEST
//! version edits) use little-endian fixed-width integers and LEB128-style
//! varints, matching the conventions of the LevelDB family the paper builds
//! on.

use crate::error::{Error, Result};

/// Appends a little-endian `u32` to `dst`.
pub fn put_fixed32(dst: &mut Vec<u8>, value: u32) {
    dst.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64` to `dst`.
pub fn put_fixed64(dst: &mut Vec<u8>, value: u64) {
    dst.extend_from_slice(&value.to_le_bytes());
}

/// Decodes a little-endian `u32` from the first four bytes of `src`.
///
/// # Panics
///
/// Panics if `src` is shorter than four bytes.
#[inline]
pub fn decode_fixed32(src: &[u8]) -> u32 {
    u32::from_le_bytes(src[..4].try_into().expect("buffer holds 4 bytes"))
}

/// Decodes a little-endian `u64` from the first eight bytes of `src`.
///
/// # Panics
///
/// Panics if `src` is shorter than eight bytes.
#[inline]
pub fn decode_fixed64(src: &[u8]) -> u64 {
    u64::from_le_bytes(src[..8].try_into().expect("buffer holds 8 bytes"))
}

/// Appends a varint-encoded `u32` to `dst`.
pub fn put_varint32(dst: &mut Vec<u8>, value: u32) {
    put_varint64(dst, u64::from(value));
}

/// Appends a varint-encoded `u64` to `dst`.
pub fn put_varint64(dst: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        dst.push((value as u8 & 0x7f) | 0x80);
        value >>= 7;
    }
    dst.push(value as u8);
}

/// Decodes a varint `u64` from the front of `src`.
///
/// Returns the decoded value and the number of bytes consumed. A one-byte
/// varint — most lengths in a block — is decoded inline; longer ones take
/// an out-of-line path.
#[inline]
pub fn decode_varint64(src: &[u8]) -> Result<(u64, usize)> {
    match src.first() {
        Some(&byte) if byte < 0x80 => Ok((u64::from(byte), 1)),
        _ => decode_varint64_long(src),
    }
}

/// The multi-byte case of [`decode_varint64`]. A tenth byte may carry only
/// bit 63: anything above 1 would overflow and is rejected, not truncated.
#[cold]
fn decode_varint64_long(src: &[u8]) -> Result<(u64, usize)> {
    let mut result: u64 = 0;
    for (idx, &byte) in src.iter().enumerate().take(10) {
        if idx == 9 && byte > 1 {
            return Err(Error::corruption("varint64 overflow"));
        }
        result |= u64::from(byte & 0x7f) << (7 * idx);
        if byte & 0x80 == 0 {
            return Ok((result, idx + 1));
        }
    }
    Err(Error::corruption("truncated varint64"))
}

/// Decodes a varint `u32` from the front of `src`.
///
/// Returns the decoded value and the number of bytes consumed.
#[inline]
pub fn decode_varint32(src: &[u8]) -> Result<(u32, usize)> {
    let (value, len) = decode_varint64(src)?;
    if value > u64::from(u32::MAX) {
        return Err(Error::corruption("varint32 out of range"));
    }
    Ok((value as u32, len))
}

/// Appends a length-prefixed byte slice (varint length followed by the bytes).
pub fn put_length_prefixed_slice(dst: &mut Vec<u8>, value: &[u8]) {
    put_varint32(dst, value.len() as u32);
    dst.extend_from_slice(value);
}

/// Decodes a length-prefixed byte slice from the front of `src`.
///
/// Returns the slice and the total number of bytes consumed (prefix + data).
pub fn get_length_prefixed_slice(src: &[u8]) -> Result<(&[u8], usize)> {
    let (len, prefix) = decode_varint32(src)?;
    let len = len as usize;
    if src.len() < prefix + len {
        return Err(Error::corruption("truncated length-prefixed slice"));
    }
    Ok((&src[prefix..prefix + len], prefix + len))
}

/// Returns the number of bytes the varint encoding of `value` occupies.
pub fn varint_length(mut value: u64) -> usize {
    let mut len = 1;
    while value >= 0x80 {
        value >>= 7;
        len += 1;
    }
    len
}

/// A cursor over a byte slice used when decoding structured records.
///
/// The manifest and write-batch decoders use this to consume fields in order
/// while reporting corruption instead of panicking on truncated input.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    data: &'a [u8],
    offset: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, offset: 0 }
    }

    /// Returns `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.offset >= self.data.len()
    }

    /// Returns the number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.offset
    }

    /// Reads a varint `u32`.
    pub fn read_varint32(&mut self) -> Result<u32> {
        let (value, used) = decode_varint32(&self.data[self.offset..])?;
        self.offset += used;
        Ok(value)
    }

    /// Reads a varint `u64`.
    pub fn read_varint64(&mut self) -> Result<u64> {
        let (value, used) = decode_varint64(&self.data[self.offset..])?;
        self.offset += used;
        Ok(value)
    }

    /// Reads a length-prefixed byte slice.
    pub fn read_length_prefixed_slice(&mut self) -> Result<&'a [u8]> {
        let (slice, used) = get_length_prefixed_slice(&self.data[self.offset..])?;
        self.offset += used;
        Ok(slice)
    }

    /// Reads exactly `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::corruption("truncated byte read"));
        }
        let slice = &self.data[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_roundtrip() {
        let mut buf = Vec::new();
        put_fixed32(&mut buf, 0xdeadbeef);
        put_fixed64(&mut buf, 0x0123_4567_89ab_cdef);
        assert_eq!(decode_fixed32(&buf), 0xdeadbeef);
        assert_eq!(decode_fixed64(&buf[4..]), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn varint_roundtrip_selected_values() {
        let values = [
            0u64,
            1,
            127,
            128,
            255,
            256,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for &v in &values {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            assert_eq!(buf.len(), varint_length(v));
            let (decoded, used) = decode_varint64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint32_rejects_out_of_range() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(decode_varint32(&buf).is_err());
    }

    #[test]
    fn truncated_varint_is_corruption() {
        let buf = vec![0x80u8, 0x80];
        assert!(decode_varint64(&buf).is_err());
    }

    /// A tenth byte holds bit 63 only: `[0xff x 9, 0x01]` is `u64::MAX`,
    /// and a larger tenth byte overflows rather than decoding to the same
    /// value with its high bits dropped.
    #[test]
    fn overflowing_tenth_byte_is_corruption() {
        let mut canonical = vec![0xffu8; 9];
        canonical.push(0x01);
        assert_eq!(decode_varint64(&canonical).unwrap(), (u64::MAX, 10));
        for tenth in [0x02u8, 0x7f, 0x81] {
            let mut buf = vec![0xffu8; 9];
            buf.push(tenth);
            buf.push(0x00);
            assert!(
                matches!(decode_varint64(&buf), Err(Error::Corruption(_))),
                "tenth byte {tenth:#x}"
            );
        }
    }

    #[test]
    fn length_prefixed_slice_roundtrip() {
        let mut buf = Vec::new();
        put_length_prefixed_slice(&mut buf, b"hello");
        put_length_prefixed_slice(&mut buf, b"");
        let (a, used_a) = get_length_prefixed_slice(&buf).unwrap();
        assert_eq!(a, b"hello");
        let (b, used_b) = get_length_prefixed_slice(&buf[used_a..]).unwrap();
        assert_eq!(b, b"");
        assert_eq!(used_a + used_b, buf.len());
    }

    #[test]
    fn decoder_reads_fields_in_order() {
        let mut buf = Vec::new();
        put_varint32(&mut buf, 7);
        put_varint64(&mut buf, 42);
        put_length_prefixed_slice(&mut buf, b"key");
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.read_varint32().unwrap(), 7);
        assert_eq!(dec.read_varint64().unwrap(), 42);
        assert_eq!(dec.read_length_prefixed_slice().unwrap(), b"key");
        assert!(dec.is_empty());
    }

    #[test]
    fn decoder_reports_truncation() {
        let mut buf = Vec::new();
        put_varint32(&mut buf, 10);
        buf.extend_from_slice(b"abc");
        let mut dec = Decoder::new(&buf);
        assert!(dec.read_length_prefixed_slice().is_err());
    }
}
