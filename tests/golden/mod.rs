//! Golden results for the curated TPC-DS suite, shared by the
//! integration tests that load it at the `0xDA7A` scale.

use std::collections::HashMap;

/// Row count and FNV-1a digest (rows rendered one per line) of every
/// curated TPC-DS query at the test scale and seed `0xDA7A`, one
/// `id \t rows \t digest-hex` line per query. Recorded on the retired
/// `HashMap` hash-operator path at one thread, so the `RawTable` path
/// must reproduce it byte for byte.
const GOLDEN: &str = include_str!("tpcds_da7a.tsv");

/// Parse a golden file: one `id \t count \t digest-hex` line per query.
pub fn parse(text: &'static str) -> HashMap<&'static str, (usize, u64)> {
    text.lines()
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let rows = f[1].parse().expect("golden file: row count");
            let digest = u64::from_str_radix(f[2], 16).expect("golden file: hex digest");
            (f[0], (rows, digest))
        })
        .collect()
}

pub fn golden() -> HashMap<&'static str, (usize, u64)> {
    parse(GOLDEN)
}

/// FNV-1a over `rows`, each followed by a newline.
pub fn digest(rows: &[String]) -> u64 {
    rows.iter()
        .flat_map(|r| r.bytes().chain(std::iter::once(b'\n')))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Assert `rows` (the result of curated query `id`) matches its golden
/// row count and digest; `setting` names the run in the failure.
pub fn assert_golden(
    golden: &HashMap<&str, (usize, u64)>,
    id: &str,
    rows: &[String],
    setting: &str,
) {
    assert_eq!(
        (rows.len(), digest(rows)),
        golden[id],
        "{id} diverged from its golden digest {setting}"
    );
}
