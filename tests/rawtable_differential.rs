//! Flat-hash-table model suite: property tests drive
//! [`RawTable`] — the one hash table behind join, GROUP BY, DISTINCT,
//! window partitioning and set operations — against a `HashMap` model,
//! through forced fingerprint collisions and growth boundaries. The
//! model is the oracle for the table's own contract, so it lives here
//! and not in the operators. Operator results are pinned by the golden
//! digests in `tests/golden/tpcds_da7a.tsv` (`parallel_determinism.rs`,
//! `spill_differential.rs`).

use hive_exec::RawTable;
use proptest::prelude::*;
use std::collections::HashMap;

/// FNV-1a as the table uses it (the real hash for the model runs).
fn fnv(key: &[u8]) -> u64 {
    hive_warehouse::common::hash::fnv1a(key)
}

/// Drive a key sequence through [`RawTable`] and a `HashMap` model:
/// entry ids must be dense first-seen indexes, lookups must agree, and
/// stored key bytes must round-trip — under whatever `hash` function
/// the caller picks (a constant one forces every key through the same
/// bucket chain and a single fingerprint).
fn check_against_model(keys: &[Vec<u8>], hash: impl Fn(&[u8]) -> u64) {
    let mut table = RawTable::new();
    let mut model: HashMap<Vec<u8>, u32> = HashMap::new();
    for key in keys {
        let h = hash(key);
        let expected = model.len() as u32;
        let (e, inserted) = table.insert(h, key);
        match model.get(key) {
            Some(&id) => {
                assert!(!inserted, "reinserted known key");
                assert_eq!(e, id, "entry id changed for known key");
            }
            None => {
                assert!(inserted, "missed new key");
                assert_eq!(e, expected, "entry ids must be dense first-seen indexes");
                model.insert(key.clone(), expected);
            }
        }
        assert_eq!(
            table.key(e as usize),
            key.as_slice(),
            "arena key bytes diverged"
        );
    }
    assert_eq!(table.len(), model.len());
    for (key, &id) in &model {
        assert_eq!(table.find(hash(key), key), Some(id));
    }
    // Never-inserted probes must miss.
    let absent = b"\xFFnever-inserted\xFF".to_vec();
    if !model.contains_key(&absent) {
        assert_eq!(table.find(hash(&absent), &absent), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte keys from a small alphabet (plenty of duplicates)
    /// behave exactly like the `HashMap` model.
    #[test]
    fn rawtable_matches_hashmap_model(
        keys in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..6), 0..400),
    ) {
        check_against_model(&keys, fnv);
    }

    /// A constant hash forces every key onto one probe chain with one
    /// fingerprint: disambiguation must fall through to key bytes.
    #[test]
    fn forced_fingerprint_collisions_disambiguate_by_key_bytes(
        keys in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..5), 0..200),
        h in any::<u64>(),
    ) {
        check_against_model(&keys, move |_| h);
    }

    /// Insert counts straddling the growth threshold: entry ids and
    /// lookups survive every rehash boundary.
    #[test]
    fn growth_boundaries_preserve_entries(n in 0usize..700) {
        let keys: Vec<Vec<u8>> = (0..n as u64)
            .map(|i| i.to_le_bytes().to_vec())
            .collect();
        check_against_model(&keys, fnv);
        // And again with every key re-probed after full growth.
        let twice: Vec<Vec<u8>> = keys.iter().chain(keys.iter()).cloned().collect();
        check_against_model(&twice, fnv);
    }
}
