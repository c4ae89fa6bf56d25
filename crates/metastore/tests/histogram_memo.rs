//! Property tests on the memoized histogram buckets.
//!
//! A `ColumnHistogram` derives its equi-depth buckets once per stats
//! version and keeps them until `update_f64` or `merge` changes the
//! sample. Every estimate answered from the memo must be bit-equal to
//! the estimate a copy of the same histogram without a memo gives, under
//! any interleaving of mutations and estimates. And `join_selectivity`,
//! which weighs each bucket only against the segments it spans, must be
//! bit-equal to weighing every bucket against every segment.

use hive_metastore::{join_selectivity, Bucket, ColumnHistogram};
use proptest::prelude::*;

/// Values with the shapes estimates care about: a heavy hitter over a
/// tail, a handful of distinct values (single-valued buckets), a wide
/// uniform range, and ranges shifted far enough apart to be disjoint.
fn values() -> impl Strategy<Value = Vec<f64>> {
    (0u8..4, 1usize..12_000, 1i64..2_000, 0usize..4, 0i64..50).prop_map(
        |(shape, n, span, shift, heavy)| {
            let offset = [0.0, -5_000.0, 700.0, 1e6][shift];
            (0..n)
                .map(|i| {
                    let i = i as i64;
                    let v = match shape {
                        // 70% one value, the rest spread over `span`.
                        0 => {
                            if i % 10 < 7 {
                                heavy
                            } else {
                                (i * 7919) % span
                            }
                        }
                        // At most five distinct values.
                        1 => heavy + i % (span % 5 + 1),
                        // Uniform over `span`.
                        2 => (i * 104_729) % span,
                        // A skewed ramp: small values repeat most.
                        _ => (i * i) % (span + 1) / (i % 7 + 1),
                    };
                    v as f64 + offset
                })
                .collect()
        },
    )
}

#[derive(Debug, Clone)]
enum Op {
    Update(Vec<f64>),
    Merge(Vec<f64>),
    Buckets,
    Eq(f64),
    Range(Option<f64>, Option<f64>),
    Join(Vec<f64>),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let probe = || (-6_000i64..3_000).prop_map(|x| x as f64);
    let bound = || proptest::option::of(probe());
    proptest::collection::vec(
        prop_oneof![
            3 => values().prop_map(Op::Update),
            2 => values().prop_map(Op::Merge),
            1 => Just(Op::Buckets),
            3 => probe().prop_map(Op::Eq),
            3 => (bound(), bound()).prop_map(|(lo, hi)| Op::Range(lo, hi)),
            2 => values().prop_map(Op::Join),
        ],
        1..14,
    )
}

fn hist_of(vals: &[f64]) -> ColumnHistogram {
    let mut h = ColumnHistogram::default();
    for &v in vals {
        h.update_f64(v);
    }
    h
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

fn bucket_bits(b: &[Bucket]) -> Vec<[u64; 4]> {
    b.iter()
        .map(|b| {
            [
                b.lo.to_bits(),
                b.hi.to_bits(),
                b.rows.to_bits(),
                b.ndv.to_bits(),
            ]
        })
        .collect()
}

/// `join_selectivity` as first written: every bucket weighed against
/// every merged segment.
fn full_scan_join_selectivity(l: &ColumnHistogram, r: &ColumnHistogram) -> Option<f64> {
    if l.is_empty() || r.is_empty() {
        return None;
    }
    let lb = l.buckets();
    let rb = r.buckets();
    let l_total = l.total_rows() as f64;
    let r_total = r.total_rows() as f64;
    let mut bounds: Vec<f64> = Vec::new();
    for b in lb.iter().chain(rb.iter()) {
        bounds.push(b.lo);
        bounds.push(b.hi);
    }
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let mut segs: Vec<(f64, f64)> = Vec::new();
    for (i, &v) in bounds.iter().enumerate() {
        segs.push((v, v));
        if let Some(&next) = bounds.get(i + 1) {
            segs.push((v, next));
        }
    }
    let l_seg = full_scan_distribute(lb, &segs);
    let r_seg = full_scan_distribute(rb, &segs);
    let mut out_rows = 0.0;
    for (i, &(lo, hi)) in segs.iter().enumerate() {
        let (lr, mut ln) = l_seg[i];
        let (rr, mut rn) = r_seg[i];
        if lr <= 0.0 || rr <= 0.0 {
            continue;
        }
        if hi <= lo {
            ln = 1.0;
            rn = 1.0;
        }
        out_rows += lr * rr / ln.max(rn).max(1.0);
    }
    if out_rows <= 0.0 {
        return Some(0.0);
    }
    Some((out_rows / (l_total * r_total)).clamp(0.0, 1.0))
}

fn full_scan_distribute(buckets: &[Bucket], segs: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = vec![(0.0, 0.0); segs.len()];
    for b in buckets {
        let width = b.hi - b.lo;
        let weight = |&(lo, hi): &(f64, f64)| -> f64 {
            if hi <= lo {
                if b.lo <= lo && lo <= b.hi {
                    if width <= 0.0 {
                        1.0
                    } else {
                        1.0 / b.ndv.max(1.0)
                    }
                } else {
                    0.0
                }
            } else if width <= 0.0 {
                0.0
            } else {
                let cl = lo.max(b.lo);
                let ch = hi.min(b.hi);
                if ch > cl {
                    (ch - cl) / width
                } else {
                    0.0
                }
            }
        };
        let total: f64 = segs.iter().map(weight).sum();
        if total <= 0.0 {
            continue;
        }
        for (i, seg) in segs.iter().enumerate() {
            let w = weight(seg) / total;
            if w <= 0.0 {
                continue;
            }
            out[i].0 += b.rows * w;
            out[i].1 += (b.ndv * w).clamp(1.0, b.ndv.max(1.0));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Answers from the memo equal, bit for bit, the answers of a copy
    /// that never derived its buckets (`shadow` takes the same
    /// mutations but is never asked anything, so each clone of it
    /// derives afresh).
    fn memoized_answers_match_a_fresh_derivation(start in values(), script in ops()) {
        let mut h = hist_of(&start);
        let mut shadow = hist_of(&start);
        for op in script {
            match op {
                Op::Update(vals) => {
                    for v in vals {
                        h.update_f64(v);
                        shadow.update_f64(v);
                    }
                }
                Op::Merge(vals) => {
                    let other = hist_of(&vals);
                    shadow.merge(&other);
                    // The merged-in side carries a memo of its own.
                    let _ = other.buckets();
                    h.merge(&other);
                }
                Op::Buckets => {
                    prop_assert_eq!(
                        bucket_bits(h.buckets()),
                        bucket_bits(shadow.clone().buckets())
                    );
                }
                Op::Eq(x) => {
                    prop_assert_eq!(
                        bits(h.eq_fraction(x)),
                        bits(shadow.clone().eq_fraction(x))
                    );
                }
                Op::Range(lo, hi) => {
                    prop_assert_eq!(
                        bits(h.range_fraction(lo, hi)),
                        bits(shadow.clone().range_fraction(lo, hi))
                    );
                }
                Op::Join(vals) => {
                    let other = hist_of(&vals);
                    let fresh = shadow.clone();
                    let fresh_other = other.clone();
                    prop_assert_eq!(
                        bits(join_selectivity(&h, &other)),
                        bits(join_selectivity(&fresh, &fresh_other))
                    );
                    prop_assert_eq!(
                        bits(join_selectivity(&other, &h)),
                        bits(join_selectivity(&fresh_other, &fresh))
                    );
                }
            }
            prop_assert_eq!(&h, &shadow, "the memo takes no part in equality");
        }
    }

    /// Weighing each bucket against only the segments it spans gives
    /// the full scan's answer bit for bit.
    fn spanned_segments_match_the_full_scan(l in values(), r in values()) {
        let (l, r) = (hist_of(&l), hist_of(&r));
        prop_assert_eq!(
            bits(join_selectivity(&l, &r)),
            bits(full_scan_join_selectivity(&l, &r))
        );
        prop_assert_eq!(
            bits(join_selectivity(&r, &l)),
            bits(full_scan_join_selectivity(&r, &l))
        );
        prop_assert_eq!(
            bits(join_selectivity(&l, &l)),
            bits(full_scan_join_selectivity(&l, &l))
        );
    }
}

/// The generated shapes reach the cases the properties are about:
/// single-valued buckets, a heavy hitter, and disjoint key ranges
/// (whose join selectivity is exactly zero).
#[test]
fn generated_shapes_cover_the_edge_cases() {
    use proptest::test_runner::TestRng;
    let (mut single, mut heavy, mut disjoint) = (false, false, false);
    let mut rng = TestRng::new(0x5EED);
    for _ in 0..64 {
        let l = hist_of(&values().generate(&mut rng));
        let r = hist_of(&values().generate(&mut rng));
        single |= l.buckets().iter().any(|b| b.lo == b.hi);
        heavy |= l
            .buckets()
            .iter()
            .any(|b| b.rows > 0.5 * l.total_rows() as f64);
        if l.max_value() < r.min_value() {
            disjoint = true;
            assert_eq!(join_selectivity(&l, &r), Some(0.0));
            assert_eq!(full_scan_join_selectivity(&l, &r), Some(0.0));
        }
    }
    assert!(single && heavy && disjoint, "{single} {heavy} {disjoint}");
}
