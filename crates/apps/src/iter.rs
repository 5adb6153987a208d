//! Cursor adapter surfacing decoded documents from an engine cursor.

use pebblesdb_common::{DbIterator, Result};

use crate::document::Document;

/// Wraps an engine cursor whose values are encoded [`Document`]s, exposing
/// the document's `value` field and (for namespaced layers) the document id
/// as the key.
///
/// With a non-empty `key_prefix` the cursor is confined to that engine-key
/// namespace: seeks are translated into the namespace and entries outside it
/// terminate iteration, which is how the MongoDB-like layer keeps its
/// collection boundary without materialising ranges.
pub(crate) struct DocumentFieldIterator {
    inner: Box<dyn DbIterator>,
    key_prefix: Vec<u8>,
    key: Vec<u8>,
    value: Vec<u8>,
    valid: bool,
}

impl DocumentFieldIterator {
    pub(crate) fn new(inner: Box<dyn DbIterator>, key_prefix: Vec<u8>) -> Self {
        DocumentFieldIterator {
            inner,
            key_prefix,
            key: Vec::new(),
            value: Vec::new(),
            valid: false,
        }
    }

    /// Re-derives the decoded view from the inner cursor's position.
    fn refresh(&mut self) {
        self.valid = false;
        if !self.inner.valid() {
            return;
        }
        let engine_key = self.inner.key();
        if !engine_key.starts_with(&self.key_prefix) {
            return;
        }
        match Document::decode(self.inner.value()) {
            Ok(doc) => {
                self.key = if self.key_prefix.is_empty() {
                    engine_key.to_vec()
                } else {
                    doc.id.clone()
                };
                self.value = doc.field("value").unwrap_or_default().to_vec();
            }
            Err(_) => {
                // Surface the raw entry rather than silently skipping data
                // the layer cannot decode.
                self.key = engine_key[self.key_prefix.len()..].to_vec();
                self.value = self.inner.value().to_vec();
            }
        }
        self.valid = true;
    }
}

impl DbIterator for DocumentFieldIterator {
    fn valid(&self) -> bool {
        self.valid
    }

    fn seek_to_first(&mut self) {
        if self.key_prefix.is_empty() {
            self.inner.seek_to_first();
        } else {
            let prefix = self.key_prefix.clone();
            self.inner.seek(&prefix);
        }
        self.refresh();
    }

    fn seek(&mut self, target: &[u8]) {
        let mut engine_target = self.key_prefix.clone();
        engine_target.extend_from_slice(target);
        self.inner.seek(&engine_target);
        self.refresh();
    }

    fn next(&mut self) {
        assert!(self.valid, "next() on invalid iterator");
        self.inner.next();
        self.refresh();
    }

    fn key(&self) -> &[u8] {
        assert!(self.valid, "key() on invalid iterator");
        &self.key
    }

    fn value(&self) -> &[u8] {
        assert!(self.valid, "value() on invalid iterator");
        &self.value
    }

    fn status(&self) -> Result<()> {
        self.inner.status()
    }
}
