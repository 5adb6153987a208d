//! B+Tree node layout and (de)serialisation.

use pebblesdb_common::{Error, Result};

use crate::PAGE_SIZE;

/// Byte tag identifying a leaf page.
const TAG_LEAF: u8 = 1;
/// Byte tag identifying an internal page.
const TAG_INTERNAL: u8 = 2;
/// Page id meaning "no page".
pub const NO_PAGE: u32 = u32::MAX;

/// A decoded B+Tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A leaf holding sorted `(key, value)` pairs and a pointer to the next
    /// leaf (for range scans).
    Leaf {
        /// Sorted entries.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        /// Page id of the next leaf, or [`NO_PAGE`].
        next_leaf: u32,
    },
    /// An internal node: `children.len() == keys.len() + 1`; subtree
    /// `children[i]` holds keys `< keys[i]`, the last child holds the rest.
    Internal {
        /// Separator keys.
        keys: Vec<Vec<u8>>,
        /// Child page ids.
        children: Vec<u32>,
    },
}

impl Node {
    /// Creates an empty leaf.
    pub fn empty_leaf() -> Node {
        Node::Leaf {
            entries: Vec::new(),
            next_leaf: NO_PAGE,
        }
    }

    /// Serialised size in bytes.
    pub fn encoded_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                1 + 2
                    + 4
                    + entries
                        .iter()
                        .map(|(k, v)| 2 + 2 + k.len() + v.len())
                        .sum::<usize>()
            }
            Node::Internal { keys, children } => {
                1 + 2 + 4 * children.len() + keys.iter().map(|k| 2 + k.len()).sum::<usize>()
            }
        }
    }

    /// Returns `true` if the node no longer fits in a page and must split.
    pub fn overflows(&self) -> bool {
        self.encoded_size() > PAGE_SIZE
    }

    /// Serialises the node into a page-sized buffer.
    pub fn encode(&self) -> Result<Vec<u8>> {
        if self.encoded_size() > PAGE_SIZE {
            return Err(Error::internal("b+tree node exceeds page size"));
        }
        let mut out = Vec::with_capacity(PAGE_SIZE);
        match self {
            Node::Leaf { entries, next_leaf } => {
                out.push(TAG_LEAF);
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                out.extend_from_slice(&next_leaf.to_le_bytes());
                for (key, value) in entries {
                    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
                    out.extend_from_slice(&(value.len() as u16).to_le_bytes());
                    out.extend_from_slice(key);
                    out.extend_from_slice(value);
                }
            }
            Node::Internal { keys, children } => {
                out.push(TAG_INTERNAL);
                out.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                for child in children {
                    out.extend_from_slice(&child.to_le_bytes());
                }
                for key in keys {
                    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
                    out.extend_from_slice(key);
                }
            }
        }
        out.resize(PAGE_SIZE, 0);
        Ok(out)
    }

    /// Decodes a node from a page.
    pub fn decode(page: &[u8]) -> Result<Node> {
        if page.is_empty() {
            return Err(Error::corruption("empty b+tree page"));
        }
        let mut pos = 1usize;
        let read_u16 = |page: &[u8], pos: &mut usize| -> Result<u16> {
            if *pos + 2 > page.len() {
                return Err(Error::corruption("truncated b+tree page"));
            }
            let v = u16::from_le_bytes([page[*pos], page[*pos + 1]]);
            *pos += 2;
            Ok(v)
        };
        let read_u32 = |page: &[u8], pos: &mut usize| -> Result<u32> {
            if *pos + 4 > page.len() {
                return Err(Error::corruption("truncated b+tree page"));
            }
            let v =
                u32::from_le_bytes([page[*pos], page[*pos + 1], page[*pos + 2], page[*pos + 3]]);
            *pos += 4;
            Ok(v)
        };
        match page[0] {
            TAG_LEAF => {
                let count = read_u16(page, &mut pos)? as usize;
                let next_leaf = read_u32(page, &mut pos)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let klen = read_u16(page, &mut pos)? as usize;
                    let vlen = read_u16(page, &mut pos)? as usize;
                    if pos + klen + vlen > page.len() {
                        return Err(Error::corruption("truncated leaf entry"));
                    }
                    let key = page[pos..pos + klen].to_vec();
                    pos += klen;
                    let value = page[pos..pos + vlen].to_vec();
                    pos += vlen;
                    entries.push((key, value));
                }
                Ok(Node::Leaf { entries, next_leaf })
            }
            TAG_INTERNAL => {
                let count = read_u16(page, &mut pos)? as usize;
                let mut children = Vec::with_capacity(count + 1);
                for _ in 0..count + 1 {
                    children.push(read_u32(page, &mut pos)?);
                }
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    let klen = read_u16(page, &mut pos)? as usize;
                    if pos + klen > page.len() {
                        return Err(Error::corruption("truncated internal key"));
                    }
                    keys.push(page[pos..pos + klen].to_vec());
                    pos += klen;
                }
                Ok(Node::Internal { keys, children })
            }
            other => Err(Error::corruption(format!(
                "unknown b+tree page tag {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf {
            entries: vec![
                (b"apple".to_vec(), b"red".to_vec()),
                (b"banana".to_vec(), b"yellow".to_vec()),
            ],
            next_leaf: 42,
        };
        let page = node.encode().unwrap();
        assert_eq!(page.len(), PAGE_SIZE);
        assert_eq!(Node::decode(&page).unwrap(), node);
    }

    #[test]
    fn internal_roundtrip() {
        let node = Node::Internal {
            keys: vec![b"m".to_vec(), b"t".to_vec()],
            children: vec![1, 2, 3],
        };
        let page = node.encode().unwrap();
        assert_eq!(Node::decode(&page).unwrap(), node);
    }

    #[test]
    fn oversized_node_is_rejected_and_detected() {
        let node = Node::Leaf {
            entries: vec![(vec![b'k'; 100], vec![b'v'; PAGE_SIZE])],
            next_leaf: NO_PAGE,
        };
        assert!(node.overflows());
        assert!(node.encode().is_err());
    }

    #[test]
    fn corrupt_pages_are_rejected() {
        assert!(Node::decode(&[]).is_err());
        assert!(Node::decode(&[9u8; 16]).is_err());
        let mut page = vec![TAG_LEAF];
        page.extend_from_slice(&100u16.to_le_bytes());
        assert!(Node::decode(&page).is_err());
    }
}
