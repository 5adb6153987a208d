//! [`FileBytes`]: bytes read from a file, shared rather than copied.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A refcounted view of a file's bytes.
///
/// A file that holds its contents in memory ([`MemEnv`](crate::MemEnv))
/// hands out views of its own buffer: taking one is a bounds check and a
/// reference count, and the view keeps the bytes it saw whatever later
/// happens to the file (appends and truncations copy on write, a removal
/// only drops the file's reference). Any other file copies what it read into
/// a buffer of the view's own.
///
/// A *resident* view pins its file's whole buffer, so a reader that keeps
/// bytes around for long — a cache — should keep only non-resident ones.
#[derive(Clone)]
pub struct FileBytes {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
    resident: bool,
}

impl FileBytes {
    /// A view of `range` of a file's in-memory contents.
    ///
    /// Panics if `range` is not within `buf`.
    pub fn resident(buf: Arc<Vec<u8>>, range: Range<usize>) -> FileBytes {
        assert!(range.start <= range.end && range.end <= buf.len());
        FileBytes {
            buf,
            start: range.start,
            end: range.end,
            resident: true,
        }
    }

    /// Whether these are the file's own bytes rather than a copy.
    pub fn is_resident(&self) -> bool {
        self.resident
    }

    /// The sub-view `range` of these bytes (indexes relative to the view),
    /// sharing their buffer.
    ///
    /// Panics if `range` is not within the view.
    pub fn slice(self, range: Range<usize>) -> FileBytes {
        assert!(range.start <= range.end && range.end <= self.len());
        FileBytes {
            start: self.start + range.start,
            end: self.start + range.end,
            ..self
        }
    }
}

/// Bytes copied out of a file: the view owns them.
impl From<Vec<u8>> for FileBytes {
    fn from(bytes: Vec<u8>) -> FileBytes {
        FileBytes {
            end: bytes.len(),
            buf: Arc::new(bytes),
            start: 0,
            resident: false,
        }
    }
}

impl Deref for FileBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl fmt::Debug for FileBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileBytes")
            .field("len", &self.len())
            .field("resident", &self.resident)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_the_buffer_and_index_from_the_view() {
        let buf = Arc::new(b"0123456789".to_vec());
        let view = FileBytes::resident(Arc::clone(&buf), 2..9);
        assert_eq!(&*view, b"2345678");
        let inner = view.slice(1..4);
        assert_eq!(&*inner, b"345");
        assert!(inner.is_resident());
        assert_eq!(Arc::strong_count(&buf), 2);

        let copied = FileBytes::from(b"abc".to_vec());
        assert!(!copied.is_resident());
        assert_eq!(&*copied.slice(1..3), b"bc");
    }

    #[test]
    #[should_panic]
    fn a_slice_past_the_view_panics() {
        let view = FileBytes::from(vec![0u8; 4]);
        let _ = view.slice(2..5);
    }
}
