//! Property tests for the metrics-plane histogram: shard-merge algebra,
//! percentile monotonicity, bucket determinism, and JSON round-trips.

use obs::metrics::{
    self as met, bucket_index, bucket_lower_bound, bucket_upper_bound, HistSnapshot,
    MetricsRegistry, MetricsSnapshot,
};
use proptest::prelude::*;

/// Record every value into one histogram.
fn hist_of(values: &[u64]) -> HistSnapshot {
    let mut h = HistSnapshot::empty();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Splitting the recorded multiset across shards and merging — in any
    /// grouping — equals recording everything into one histogram:
    /// `merge` is associative with `empty` as identity, so shard count
    /// and merge order can never change a snapshot.
    #[test]
    fn record_merge_associative_across_shards(
        values in proptest::collection::vec(any::<u64>(), 0..64),
        cuts in proptest::collection::vec(0usize..64, 0..6),
    ) {
        let reference = hist_of(&values);

        // Split into shards at the (sorted, clamped) cut points.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(values.len())).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut shards = Vec::new();
        let mut start = 0;
        for b in bounds {
            shards.push(hist_of(&values[start..b]));
            start = b;
        }
        shards.push(hist_of(&values[start..]));

        // Left fold: ((s0 + s1) + s2) + ...
        let mut left = HistSnapshot::empty();
        for s in &shards {
            left.merge(s);
        }
        // Right fold: s0 + (s1 + (s2 + ...))
        let mut right = HistSnapshot::empty();
        for s in shards.iter().rev() {
            let mut acc = s.clone();
            acc.merge(&right);
            right = acc;
        }
        prop_assert_eq!(&left, &reference);
        prop_assert_eq!(&right, &reference);
    }

    /// The registry's per-actor shards are the live form of the same
    /// algebra: attributing each observation to an arbitrary actor and
    /// snapshotting must equal single-histogram recording.
    #[test]
    fn registry_shard_merge_matches_single_hist(
        obs_by_actor in proptest::collection::vec((0i32..4, any::<u64>()), 0..64),
    ) {
        let reg = MetricsRegistry::deterministic(4);
        for &(actor, v) in &obs_by_actor {
            reg.observe(actor, met::ROUND_LATENCY_NS, v);
        }
        let snap = reg.snapshot();
        let got = snap.hist("mana2_round_latency_ns").expect("histogram registered");
        let want = hist_of(&obs_by_actor.iter().map(|&(_, v)| v).collect::<Vec<_>>());
        prop_assert_eq!(got, &want);
    }

    /// Quantiles are monotone in q and bounded by the recorded extremes'
    /// buckets.
    #[test]
    fn percentile_monotone(
        values in proptest::collection::vec(any::<u64>(), 1..64),
        qs_permille in proptest::collection::vec(0u32..=1000, 2..8),
    ) {
        let h = hist_of(&values);
        let mut qs_permille = qs_permille;
        qs_permille.sort_unstable();
        let quants: Vec<u64> = qs_permille
            .iter()
            .map(|&q| h.quantile(q as f64 / 1000.0).unwrap())
            .collect();
        for w in quants.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?}", quants);
        }
        let lo = bucket_lower_bound(bucket_index(*values.iter().min().unwrap()));
        let hi = bucket_lower_bound(bucket_index(*values.iter().max().unwrap()));
        prop_assert!(*quants.first().unwrap() >= lo);
        prop_assert!(*quants.last().unwrap() <= hi);
    }

    /// Bucketing is a pure function of the value: every value lands in
    /// the bucket whose [lower, upper] range contains it, recording the
    /// same multiset twice yields identical snapshots, and bucket lower
    /// bounds in a snapshot are exactly the canonical ones.
    #[test]
    fn bucket_boundaries_deterministic(values in proptest::collection::vec(any::<u64>(), 0..64)) {
        for &v in &values {
            let lb = bucket_lower_bound(bucket_index(v));
            prop_assert!(lb <= v, "lower bound {lb} above value {v}");
            prop_assert!(v <= bucket_upper_bound(lb), "value {v} above upper bound of {lb}");
        }
        let a = hist_of(&values);
        let b = hist_of(&values);
        prop_assert_eq!(&a, &b);
        for &(lb, n) in &a.buckets {
            prop_assert!(n > 0, "empty bucket {lb} materialized");
            prop_assert_eq!(lb, bucket_lower_bound(bucket_index(lb)), "non-canonical bucket bound");
        }
    }

    /// Snapshot JSONL round-trip is exact — including never-recorded
    /// (empty) histograms, whose `buckets` array is empty.
    #[test]
    fn snapshot_json_roundtrip(
        obs_by_actor in proptest::collection::vec((0i32..3, any::<u64>()), 0..32),
        counts in proptest::collection::vec(0u64..1000, 0..8),
    ) {
        let reg = MetricsRegistry::deterministic(3);
        for &(actor, v) in &obs_by_actor {
            reg.observe(actor, met::ROUND_LATENCY_NS, v);
        }
        for (i, &c) in counts.iter().enumerate() {
            reg.add((i % 3) as i32, met::ROUNDS_COMMITTED, c);
        }
        // ROUND_WRITE_NS (among others) stays empty on purpose.
        let snap = reg.snapshot();
        let line = snap.to_json_line();
        let v = obs::json::parse(&line).expect("snapshot line parses");
        let back = MetricsSnapshot::from_json(&v).expect("snapshot decodes");
        prop_assert_eq!(&back, &snap);
        let empty = back.hist("mana2_round_write_ns").expect("empty histogram present");
        prop_assert_eq!(empty, &HistSnapshot::empty());
    }
}

/// The empty histogram round-trips through a full series file.
#[test]
fn empty_histogram_series_roundtrip() {
    let reg = MetricsRegistry::deterministic(2);
    let meta = obs::JsonlHeader {
        label: "empty".into(),
        ranks: 2,
        seed: None,
        config: obs::ConfigRecord::default(),
    };
    let snap = reg.snapshot();
    let text = met::series_to_jsonl(&meta, std::slice::from_ref(&snap));
    let (back_meta, snaps) = met::parse_series(&text).expect("series parses");
    assert_eq!(back_meta, meta);
    assert_eq!(snaps, vec![snap]);
    met::check_series(&text).expect("empty-histogram series passes --check");
}
