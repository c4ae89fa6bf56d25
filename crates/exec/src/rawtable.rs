//! Open-addressing flat hash table shared by the hash operators.
//!
//! The paper's vectorized operators (§3.3, §5) keep hot loops tight by
//! separating *batch-wise* key preparation from a simple per-row probe
//! loop. [`RawTable`] is the probe-side half: a flat open-addressing
//! table with 1-byte fingerprint tags and linear probing, keyed by a
//! precomputed 64-bit hash over each key's canonical byte encoding
//! (see [`hive_common::hash`]). Keys live contiguously in an arena —
//! one `Vec<u8>` for the whole table, no per-entry allocation — and
//! compare by `memcmp`, which the encoding scheme makes equivalent to
//! the engine's grouping semantics.
//!
//! Entry ids are assigned in insertion order, so a build that inserts
//! rows in ascending order gets first-seen-ordered entries for free —
//! the property the deterministic partition merges in join/aggregate
//! rely on. Growth rehashes buckets from the *stored* hashes; keys are
//! never re-encoded and entry ids never move.
//!
//! The per-batch half (column-wise hashing with dict-code and null-free
//! fast paths) lives with the key readers: [`crate::dict::KeyReader`]
//! for aggregate/window keys and the join codec in [`crate::join`],
//! both of which bottom out in [`encode_cell`] / [`try_encode_cell`]
//! here.

use hive_common::hash::{self, fnv1a_extend, FNV_OFFSET};
use hive_common::{ColumnVector, Value};

/// Bucket tag marking an empty slot. Occupied tags always have the high
/// bit set, so no fingerprint collides with empty.
const EMPTY: u8 = 0;

/// Fingerprint tag for an occupied bucket: high bit + the hash's top 7
/// bits (bits the bucket index doesn't use, so tag and index are
/// independent filters).
#[inline]
fn tag_of(hash: u64) -> u8 {
    0x80 | (hash >> 57) as u8
}

/// Flat open-addressing hash table mapping encoded keys to dense entry
/// ids (`0..len`, in insertion order). Callers keep per-entry payloads
/// in parallel vectors indexed by entry id.
#[derive(Debug, Default, Clone)]
pub struct RawTable {
    /// Per-bucket fingerprint tags (0 = empty).
    tags: Vec<u8>,
    /// Per-bucket entry id (valid where `tags` is non-empty).
    slots: Vec<u32>,
    /// Bucket-index mask (`tags.len() - 1`; bucket count is a power of
    /// two).
    mask: usize,
    /// Per-entry full hash, in entry order (also the source for
    /// rehash-on-grow — keys are never re-hashed).
    hashes: Vec<u64>,
    /// Per-entry end offset of the key bytes in `arena`.
    key_ends: Vec<usize>,
    /// All key bytes, concatenated in entry order.
    arena: Vec<u8>,
}

impl RawTable {
    /// An empty table (allocates nothing until the first insert).
    pub fn new() -> RawTable {
        RawTable::default()
    }

    /// An empty table pre-sized for about `entries` keys.
    pub fn with_capacity(entries: usize) -> RawTable {
        let mut t = RawTable::new();
        if entries > 0 {
            t.rebuild_buckets(buckets_for(entries));
            t.hashes.reserve(entries);
            t.key_ends.reserve(entries);
        }
        t
    }

    /// Number of distinct keys inserted.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The encoded key bytes of entry `e`.
    #[inline]
    pub fn key(&self, e: usize) -> &[u8] {
        let start = if e == 0 { 0 } else { self.key_ends[e - 1] };
        &self.arena[start..self.key_ends[e]]
    }

    /// Look up `key` (with its precomputed hash); `Some(entry id)` on a
    /// hit. The tight loop the probe sides run: tag filter first, then
    /// full-hash filter, then `memcmp`.
    #[inline]
    pub fn find(&self, hash: u64, key: &[u8]) -> Option<u32> {
        if self.tags.is_empty() {
            return None;
        }
        let tag = tag_of(hash);
        let mut b = (hash as usize) & self.mask;
        loop {
            let t = self.tags[b];
            if t == EMPTY {
                return None;
            }
            if t == tag {
                let e = self.slots[b] as usize;
                if self.hashes[e] == hash && self.key(e) == key {
                    return Some(e as u32);
                }
            }
            b = (b + 1) & self.mask;
        }
    }

    /// Find `key` or insert it, returning `(entry id, inserted)`. New
    /// entries copy the key bytes into the arena and take the next
    /// dense id.
    #[inline]
    pub fn insert(&mut self, hash: u64, key: &[u8]) -> (u32, bool) {
        // Keep load ≤ 7/8 *before* probing so the loop always finds an
        // empty bucket.
        if (self.len() + 1) * 8 > self.tags.len() * 7 {
            self.grow();
        }
        let tag = tag_of(hash);
        let mut b = (hash as usize) & self.mask;
        loop {
            let t = self.tags[b];
            if t == EMPTY {
                let e = self.len() as u32;
                self.tags[b] = tag;
                self.slots[b] = e;
                self.hashes.push(hash);
                self.arena.extend_from_slice(key);
                self.key_ends.push(self.arena.len());
                return (e, true);
            }
            if t == tag {
                let e = self.slots[b] as usize;
                if self.hashes[e] == hash && self.key(e) == key {
                    return (e as u32, false);
                }
            }
            b = (b + 1) & self.mask;
        }
    }

    /// Double the bucket array and re-place every entry from its stored
    /// hash. Entry ids, key bytes and payload indices are untouched.
    #[cold]
    fn grow(&mut self) {
        let new_buckets = (self.tags.len() * 2).max(16);
        self.rebuild_buckets(new_buckets);
    }

    fn rebuild_buckets(&mut self, buckets: usize) {
        debug_assert!(buckets.is_power_of_two());
        self.tags = vec![EMPTY; buckets];
        self.slots = vec![0; buckets];
        self.mask = buckets - 1;
        for (e, &hash) in self.hashes.iter().enumerate() {
            let tag = tag_of(hash);
            let mut b = (hash as usize) & self.mask;
            while self.tags[b] != EMPTY {
                b = (b + 1) & self.mask;
            }
            self.tags[b] = tag;
            self.slots[b] = e as u32;
        }
    }
}

/// Bucket count for `entries` keys at ≤ 7/8 load.
fn buckets_for(entries: usize) -> usize {
    (entries * 8 / 7 + 1).next_power_of_two().max(16)
}

/// Append the canonical encoding of column cell `(col, i)` to `out`
/// when it is non-NULL; return `false` (appending nothing) for NULL.
/// Join keys use this directly (a NULL key part drops the row);
/// [`encode_cell`] wraps it for operators where NULL is a key.
///
/// Typed per-variant access keeps the hot path allocation-free: string
/// cells fold their bytes without materializing a `Value`, and a plain
/// `Dict` column (one that fell off the code fast path) encodes the
/// referenced dictionary entry — the same bytes its decoded `Str` twin
/// would produce.
#[inline]
pub(crate) fn try_encode_cell(col: &ColumnVector, i: usize, out: &mut Vec<u8>) -> bool {
    if col.is_null(i) {
        return false;
    }
    match col {
        ColumnVector::Boolean(v, _) => {
            out.push(hash::TAG_BOOL);
            out.push(v[i] as u8);
        }
        ColumnVector::Int(v, _) => hash::encode_i64(v[i] as i64, out),
        ColumnVector::BigInt(v, _) => hash::encode_i64(v[i], out),
        ColumnVector::Double(v, _) => hash::encode_f64(v[i], out),
        ColumnVector::Decimal(v, s, _) => hash::encode_decimal(v[i], *s, out),
        ColumnVector::Str(v, _) => hash::encode_str(v[i].as_bytes(), out),
        ColumnVector::Dict { codes, dict, .. } => {
            hash::encode_str(dict[codes[i] as usize].as_bytes(), out)
        }
        ColumnVector::Date(v, _) => hash::encode_date(v[i], out),
        ColumnVector::Timestamp(v, _) => hash::encode_timestamp(v[i], out),
    }
    true
}

/// Append the canonical encoding of cell `(col, i)`, encoding NULL as
/// its own key class (GROUP BY / window / set-op semantics: all NULLs
/// group together).
#[inline]
pub(crate) fn encode_cell(col: &ColumnVector, i: usize, out: &mut Vec<u8>) {
    if !try_encode_cell(col, i, out) {
        out.push(hash::TAG_NULL);
    }
}

/// Encode one whole row of `batch` (every column, NULLs included) —
/// the set-op key: two rows encode equal exactly when they group equal.
#[inline]
pub(crate) fn encode_row(batch: &hive_common::VectorBatch, i: usize, out: &mut Vec<u8>) {
    for c in batch.columns() {
        encode_cell(c.as_ref(), i, out);
    }
}

/// Hash a scalar [`Value`] through the same canonical encoding (used by
/// the DISTINCT-aggregate dedup set, where values arrive one at a time
/// rather than column-wise).
#[inline]
pub(crate) fn hash_value(v: &Value, scratch: &mut Vec<u8>) -> u64 {
    scratch.clear();
    hash::encode_value(v, scratch);
    fnv1a_extend(FNV_OFFSET, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::hash::fnv1a;
    use hive_common::BitSet;
    use std::sync::Arc;

    #[test]
    fn insert_find_roundtrip_with_dense_entry_ids() {
        let mut t = RawTable::new();
        for n in 0..100u64 {
            let key = n.to_le_bytes();
            let (e, inserted) = t.insert(fnv1a(&key), &key);
            assert!(inserted);
            assert_eq!(e as u64, n, "entry ids are dense in insertion order");
        }
        for n in 0..100u64 {
            let key = n.to_le_bytes();
            let (e, inserted) = t.insert(fnv1a(&key), &key);
            assert!(!inserted);
            assert_eq!(e as u64, n);
            assert_eq!(t.find(fnv1a(&key), &key), Some(n as u32));
            assert_eq!(t.key(n as usize), key);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.find(fnv1a(b"absent"), b"absent"), None);
    }

    #[test]
    fn forced_fingerprint_collisions_disambiguate_by_key_bytes() {
        // Every key gets the *same* hash — same bucket, same tag — so
        // correctness rests entirely on the memcmp fallback.
        let mut t = RawTable::new();
        let h = 0xdead_beef_dead_beef;
        for n in 0..200u32 {
            let key = n.to_le_bytes();
            assert_eq!(t.insert(h, &key), (n, true));
        }
        for n in 0..200u32 {
            let key = n.to_le_bytes();
            assert_eq!(t.find(h, &key), Some(n));
        }
        assert_eq!(t.find(h, &1000u32.to_le_bytes()), None);
        // And a different hash with the same low bits (same bucket,
        // different tag) still misses.
        assert_eq!(t.find(h ^ (0x7f << 57), &0u32.to_le_bytes()), None);
    }

    #[test]
    fn growth_preserves_entries_across_boundaries() {
        // Cross several doublings (16 → 2048 buckets) and check every
        // entry survives with its id and key bytes intact, including
        // exactly at the 7/8 load boundary.
        let mut t = RawTable::new();
        let mut keys = Vec::new();
        for n in 0..1500u64 {
            let key = (n.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes();
            t.insert(fnv1a(&key), &key);
            keys.push(key);
        }
        assert_eq!(t.len(), 1500);
        for (n, key) in keys.iter().enumerate() {
            assert_eq!(t.find(fnv1a(key), key), Some(n as u32), "key {n}");
            assert_eq!(t.key(n), key);
        }
    }

    #[test]
    fn with_capacity_presizes_and_still_grows() {
        let mut t = RawTable::with_capacity(10);
        for n in 0..50u8 {
            t.insert(fnv1a(&[n]), &[n]);
        }
        assert_eq!(t.len(), 50);
        assert_eq!(t.find(fnv1a(&[49]), &[49]), Some(49));
    }

    #[test]
    fn empty_key_is_a_valid_key() {
        // Cross-style joins key every row by the empty key.
        let mut t = RawTable::new();
        assert_eq!(t.insert(FNV_OFFSET, b""), (0, true));
        assert_eq!(t.insert(FNV_OFFSET, b""), (0, false));
        assert_eq!(t.find(FNV_OFFSET, b""), Some(0));
    }

    #[test]
    fn cell_encoding_matches_value_encoding() {
        // The typed per-variant fast paths must produce byte-identical
        // encodings to the scalar `encode_value` they bypass.
        let mut nulls = BitSet::new(3);
        nulls.set(1);
        let cols = vec![
            ColumnVector::Int(vec![7, 0, -3], Some(nulls.clone())),
            ColumnVector::Str(
                vec!["a".into(), String::new(), "bc".into()],
                Some(nulls.clone()),
            ),
            ColumnVector::Double(vec![2.5, 0.0, 42.0], Some(nulls.clone())),
            ColumnVector::Decimal(vec![25, 0, 4200], 2, Some(nulls.clone())),
            ColumnVector::Date(vec![0, 1, -40], Some(nulls.clone())),
            ColumnVector::Timestamp(vec![0, 1, 86_400_000_000], Some(nulls.clone())),
            ColumnVector::Boolean(vec![true, false, false], Some(nulls)),
            ColumnVector::dict_from_codes(
                vec![1, 0, 1],
                Arc::new(vec!["x".into(), "yz".into()]),
                None,
            )
            .unwrap(),
        ];
        for col in &cols {
            for i in 0..3 {
                let (mut fast, mut oracle) = (Vec::new(), Vec::new());
                encode_cell(col, i, &mut fast);
                hash::encode_value(&col.get(i), &mut oracle);
                assert_eq!(fast, oracle, "{col:?} row {i}");
            }
        }
    }
}
