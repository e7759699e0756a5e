//! Property-based tests for the snapshot algebra and the span tracer.

use bf_telemetry::{validate_chrome_trace, Histogram, Registry, Snapshot, SpanTracer, SpanTrack};
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

    /// Random interleavings of begins/ends/instants/counters/retro-spans
    /// across several tracks always export a validator-clean Chrome
    /// trace — even at tiny capacities (drop-whole-subtree keeps B/E
    /// balanced) and even when accesses leave spans open (export
    /// force-closes them). With default capacity nothing is dropped.
    #[test]
    fn span_streams_always_export_valid_traces(
        accesses in proptest::collection::vec(
            (0u32..3, proptest::collection::vec((0u8..6, 1u64..5), 0..12)),
            0..20),
    ) {
        let roomy = SpanTracer::new();
        let tight = SpanTracer::with_capacity(8);
        roomy.set_sampling(1);
        tight.set_sampling(1);
        let mut clocks = [0u64; 3]; // per-track clocks only advance
        for (t, ops) in &accesses {
            let track = SpanTrack::new(*t, *t);
            let mut now = clocks[*t as usize];
            roomy.sample_access(track, now);
            tight.sample_access(track, now);
            let mut depth = 0u32;
            for &(op, dt) in ops {
                now += dt;
                roomy.set_now(now);
                tight.set_now(now);
                match op {
                    0 | 1 => {
                        roomy.begin("work", &[("dt", dt)]);
                        tight.begin("work", &[("dt", dt)]);
                        depth += 1;
                    }
                    2 if depth > 0 => {
                        roomy.end();
                        tight.end();
                        depth -= 1;
                    }
                    2 | 3 => {
                        roomy.instant("mark", &[]);
                        tight.instant("mark", &[]);
                    }
                    4 => {
                        roomy.counter(track, "occupancy", dt);
                        tight.counter(track, "occupancy", dt);
                    }
                    _ => {
                        // Retrospective span [now, now+dt]; advance the
                        // clock past it like the machine does after a
                        // kernel fault.
                        roomy.span("retro", dt, &[]);
                        tight.span("retro", dt, &[]);
                        now += dt;
                        roomy.set_now(now);
                        tight.set_now(now);
                    }
                }
            }
            // Spans may be left open on purpose: export must close them.
            roomy.finish_access();
            tight.finish_access();
            clocks[*t as usize] = now + 1;
        }
        let roomy_summary =
            validate_chrome_trace(&roomy.chrome_trace()).map_err(TestCaseError)?;
        validate_chrome_trace(&tight.chrome_trace()).map_err(TestCaseError)?;
        if bf_telemetry::enabled() {
            prop_assert_eq!(roomy.dropped(), 0);
            prop_assert_eq!(roomy_summary.begins, roomy_summary.ends);
        } else {
            prop_assert_eq!(roomy_summary.begins + roomy_summary.instants, 0);
        }
    }
}
