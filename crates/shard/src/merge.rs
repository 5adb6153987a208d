//! The whole-store cursor of a sharded store is the chassis'
//! [`MergingIterator`](pebblesdb_common::iterator::MergingIterator) in
//! [`BytewiseOrder`](pebblesdb_common::iterator::BytewiseOrder): each child
//! is one shard's user-key cursor, all pinned at the same global sequence,
//! and because the partitioner assigns every key to exactly one shard the
//! children's key sets are disjoint — no tie-breaking is ever needed. These
//! tests hold the merge to what a sharded cursor needs of it.

#[cfg(test)]
mod tests {
    use pebblesdb_common::iterator::{BytewiseOrder, DbIterator, MergingIterator, VecIterator};

    type ShardMerge = MergingIterator<BytewiseOrder>;

    fn entries(keys: &[&str]) -> Box<dyn DbIterator> {
        Box::new(VecIterator::<BytewiseOrder>::with_order(
            keys.iter()
                .map(|k| (k.as_bytes().to_vec(), format!("v-{k}").into_bytes()))
                .collect(),
        ))
    }

    fn merged() -> ShardMerge {
        // Disjoint key sets, interleaved in order — like hash shards.
        ShardMerge::with_order(vec![
            entries(&["a", "d", "g"]),
            entries(&["b", "e"]),
            entries(&["c", "f", "h"]),
        ])
    }

    #[test]
    fn forward_scan_is_globally_sorted() {
        let mut iter = merged();
        iter.seek_to_first();
        let mut got = Vec::new();
        while iter.valid() {
            got.push(String::from_utf8(iter.key().to_vec()).unwrap());
            assert_eq!(
                iter.value(),
                format!("v-{}", got.last().unwrap()).as_bytes()
            );
            iter.next();
        }
        assert_eq!(got, ["a", "b", "c", "d", "e", "f", "g", "h"]);
    }

    #[test]
    fn seek_lands_on_the_global_successor() {
        let mut iter = merged();
        iter.seek(b"d");
        assert_eq!(iter.key(), b"d");
        iter.seek(b"dd");
        assert_eq!(iter.key(), b"e");
        iter.seek(b"z");
        assert!(!iter.valid());
    }

    #[test]
    fn empty_children_are_harmless() {
        let mut iter = ShardMerge::with_order(vec![entries(&[]), entries(&["k"]), entries(&[])]);
        iter.seek_to_first();
        assert_eq!(iter.key(), b"k");
        iter.next();
        assert!(!iter.valid());
        iter.seek(b"j");
        assert_eq!(iter.key(), b"k");
    }
}
