//! Property-based tests for the snapshot algebra.

use bf_telemetry::{Histogram, Registry, Snapshot};
use proptest::prelude::*;

/// Builds a snapshot whose counters/histograms are populated from the
/// given (name-index, value) pairs through a real registry.
fn snapshot_from(samples: &[(u8, u64)]) -> Snapshot {
    let registry = Registry::new();
    for &(name, value) in samples {
        registry.counter(&format!("c{}", name % 4)).add(value);
        registry.histogram(&format!("h{}", name % 3)).record(value);
    }
    registry.snapshot()
}

proptest! {
    /// Snapshot::merge is commutative: folding a into b and b into a
    /// produce the same totals, extrema, and bucket counts.
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec((0u8..8, 0u64..1 << 40), 0..40),
        b in proptest::collection::vec((0u8..8, 0u64..1 << 40), 0..40),
    ) {
        let (sa, sb) = (snapshot_from(&a), snapshot_from(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    /// Snapshot::merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec((0u8..8, 0u64..1 << 40), 0..30),
        b in proptest::collection::vec((0u8..8, 0u64..1 << 40), 0..30),
        c in proptest::collection::vec((0u8..8, 0u64..1 << 40), 0..30),
    ) {
        let (sa, sb, sc) = (snapshot_from(&a), snapshot_from(&b), snapshot_from(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Splitting one run at an arbitrary point and reconstituting it as
    /// delta(later, earlier) ∪ earlier equals the undivided run.
    #[test]
    fn delta_then_merge_equals_undivided_run(
        samples in proptest::collection::vec((0u8..8, 0u64..1 << 40), 1..60),
        split_seed in 0usize..1000,
    ) {
        let split = split_seed % (samples.len() + 1);
        let registry = Registry::new();
        let record = |batch: &[(u8, u64)]| {
            for &(name, value) in batch {
                registry.counter(&format!("c{}", name % 4)).add(value);
                registry.histogram(&format!("h{}", name % 3)).record(value);
            }
        };
        record(&samples[..split]);
        let earlier = registry.snapshot();
        record(&samples[split..]);
        let later = registry.snapshot();

        let mut reconstituted = later.delta(&earlier);
        reconstituted.merge(&earlier);
        prop_assert_eq!(reconstituted, later);
    }

    /// The merge of per-shard histograms equals one histogram fed the
    /// concatenated stream, bucket for bucket.
    #[test]
    fn sharded_histograms_merge_to_the_undivided_one(
        shards in proptest::collection::vec(
            proptest::collection::vec(0u64..1 << 50, 0..30), 1..6),
    ) {
        let undivided = Histogram::new();
        let mut merged = bf_telemetry::HistogramSnapshot::default();
        for shard in &shards {
            let h = Histogram::new();
            for &v in shard {
                h.record(v);
                undivided.record(v);
            }
            merged.merge(&h.snapshot());
        }
        prop_assert_eq!(merged, undivided.snapshot());
    }
}
