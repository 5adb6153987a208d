//! Block handles and the fixed-size table footer.

use pebblesdb_common::coding::{decode_fixed64, decode_varint64, put_fixed64, put_varint64};
use pebblesdb_common::{Error, Result};

/// Magic number identifying the end of an sstable produced by this workspace.
pub const TABLE_MAGIC: u64 = 0x7065_6262_6c65_7362; // "pebblesb"

/// Encoded length of the footer: two varint64 pairs padded to 40 bytes plus
/// the 8-byte magic number.
pub const FOOTER_SIZE: usize = 48;

/// The location (offset, size) of a block within the table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockHandle {
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Size of the block contents, excluding the trailer.
    pub size: u64,
}

impl BlockHandle {
    /// Creates a handle.
    pub fn new(offset: u64, size: u64) -> Self {
        BlockHandle { offset, size }
    }

    /// Appends the varint encoding of the handle to `dst`.
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.offset);
        put_varint64(dst, self.size);
    }

    /// Returns the varint encoding of the handle.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        self.encode_to(&mut out);
        out
    }

    /// Decodes a handle from the front of `src`.
    #[inline]
    pub fn decode_from(src: &[u8]) -> Result<(BlockHandle, usize)> {
        let (offset, first) = decode_varint64(src)?;
        let (size, second) = decode_varint64(&src[first..])?;
        Ok((BlockHandle { offset, size }, first + second))
    }
}

/// The footer written at the very end of every table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footer {
    /// Handle of the sstable-level bloom filter block (size 0 if absent).
    pub filter_handle: BlockHandle,
    /// Handle of the index block.
    pub index_handle: BlockHandle,
}

impl Footer {
    /// Serialises the footer to exactly [`FOOTER_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FOOTER_SIZE);
        self.filter_handle.encode_to(&mut out);
        self.index_handle.encode_to(&mut out);
        out.resize(FOOTER_SIZE - 8, 0);
        put_fixed64(&mut out, TABLE_MAGIC);
        out
    }

    /// Decodes a footer from the last [`FOOTER_SIZE`] bytes of a file.
    pub fn decode(src: &[u8]) -> Result<Footer> {
        if src.len() < FOOTER_SIZE {
            return Err(Error::corruption("footer too small"));
        }
        let magic = decode_fixed64(&src[src.len() - 8..]);
        if magic != TABLE_MAGIC {
            return Err(Error::corruption("bad table magic number"));
        }
        let (filter_handle, used) = BlockHandle::decode_from(src)?;
        let (index_handle, _) = BlockHandle::decode_from(&src[used..])?;
        Ok(Footer {
            filter_handle,
            index_handle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_handle_roundtrip() {
        let handle = BlockHandle::new(1 << 40, 12345);
        let encoded = handle.encode();
        let (decoded, used) = BlockHandle::decode_from(&encoded).unwrap();
        assert_eq!(decoded, handle);
        assert_eq!(used, encoded.len());
    }

    #[test]
    fn footer_roundtrip_is_fixed_size() {
        let footer = Footer {
            filter_handle: BlockHandle::new(1000, 200),
            index_handle: BlockHandle::new(1200, 99),
        };
        let encoded = footer.encode();
        assert_eq!(encoded.len(), FOOTER_SIZE);
        assert_eq!(Footer::decode(&encoded).unwrap(), footer);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let footer = Footer::default();
        let mut encoded = footer.encode();
        let last = encoded.len() - 1;
        encoded[last] ^= 0xff;
        assert!(Footer::decode(&encoded).is_err());
        assert!(Footer::decode(&[0u8; 10]).is_err());
    }
}
