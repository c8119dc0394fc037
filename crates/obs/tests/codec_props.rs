//! Property tests for the two `obs` wire codecs, in the FRCK/FRSP/FRDM
//! style: arbitrary values round-trip, and every truncation, byte flip
//! or oversized length field decodes to a typed [`TraceDecodeError`] —
//! never a panic and never a giant allocation.
//!
//! * FRMT — [`MetricsSnapshot::encode_bin`] / `decode_bin`;
//! * FRTR — [`Trace::encode_bin`] / `decode_bin`.

use obs::{intern, AttrValue, Histogram, MetricsSnapshot, SpanRecord, Trace};
use proptest::prelude::*;

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec((0u32..50, -1000i64..1000), 0..6),
        proptest::collection::vec((0u32..50, -1.0e6f64..1.0e6), 0..6),
        proptest::collection::vec((0u32..20, 0u64..1 << 40), 0..24),
    )
        .prop_map(|(counters, gauges, samples)| {
            let mut snap = MetricsSnapshot::default();
            for (k, v) in counters {
                snap.counters.insert(format!("c{k}.total"), v);
            }
            for (k, v) in gauges {
                snap.gauges.insert(format!("g{k}"), v);
            }
            for (k, v) in samples {
                snap.histograms
                    .entry(format!("node{}.round_ns", k % 4))
                    .or_insert_with(Histogram::new)
                    .record(v);
            }
            snap
        })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec(
            (0u32..8, 0usize..4, 0u64..1 << 40, 0u64..1 << 30, 0u8..4),
            0..10,
        ),
        proptest::collection::vec((0u32..20, -500i64..500), 0..5),
        proptest::collection::vec((0u32..20, -10.0f64..10.0), 0..5),
    )
        .prop_map(|(spans, counters, gauges)| {
            let mut trace = Trace::default();
            for (name, pid, start_ns, dur_ns, attrs) in spans {
                let attrs = (0..attrs)
                    .map(|i| {
                        let v = match i {
                            0 => AttrValue::Int(start_ns as i64 - 7),
                            1 => AttrValue::Float(dur_ns as f64 * 0.25),
                            _ => AttrValue::Str(format!("v{name}")),
                        };
                        (intern(&format!("a{i}")), v)
                    })
                    .collect();
                trace.spans.push(SpanRecord {
                    name: intern(&format!("span{name}")),
                    cat: intern("engine"),
                    pid,
                    tid: pid + 1,
                    start_ns,
                    dur_ns,
                    attrs,
                });
            }
            for (k, v) in counters {
                trace.counters.insert(format!("c{k}"), v);
            }
            for (k, v) in gauges {
                trace.gauges.insert(format!("g{k}"), v);
            }
            trace
        })
}

/// Overwrite the 4 bytes at `at` (clamped into the frame) with `value`.
fn with_u32(mut bytes: Vec<u8>, at: usize, value: u32) -> Vec<u8> {
    let at = at % (bytes.len() - 3);
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frmt_round_trips(snap in arb_snapshot()) {
        prop_assert_eq!(MetricsSnapshot::decode_bin(&snap.encode_bin()).unwrap(), snap);
    }

    #[test]
    fn frmt_every_truncation_errors(snap in arb_snapshot(), frac in 0usize..100) {
        let bytes = snap.encode_bin();
        let cut = bytes.len() * frac / 100;
        prop_assert!(MetricsSnapshot::decode_bin(&bytes[..cut]).is_err());
    }

    #[test]
    fn frmt_mutated_byte_never_panics(snap in arb_snapshot(), pos in 0usize..4096, xor in 1u8..=255) {
        let mut bytes = snap.encode_bin();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        let _ = MetricsSnapshot::decode_bin(&bytes);
    }

    #[test]
    fn frmt_oversize_length_errors_or_decodes(snap in arb_snapshot(), at in 0usize..4096, big in 1u32 << 20..u32::MAX) {
        // Anywhere in the frame: no panic, no giant allocation.
        let _ = MetricsSnapshot::decode_bin(&with_u32(snap.encode_bin(), at, big));
        // The counter count right after magic + version: a typed error.
        prop_assert!(MetricsSnapshot::decode_bin(&with_u32(snap.encode_bin(), 6, big)).is_err());
    }

    #[test]
    fn frtr_round_trips(trace in arb_trace()) {
        prop_assert_eq!(Trace::decode_bin(&trace.encode_bin()).unwrap(), trace);
    }

    #[test]
    fn frtr_every_truncation_errors(trace in arb_trace(), frac in 0usize..100) {
        let bytes = trace.encode_bin();
        let cut = bytes.len() * frac / 100;
        prop_assert!(Trace::decode_bin(&bytes[..cut]).is_err());
    }

    #[test]
    fn frtr_mutated_byte_never_panics(trace in arb_trace(), pos in 0usize..4096, xor in 1u8..=255) {
        let mut bytes = trace.encode_bin();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        let _ = Trace::decode_bin(&bytes);
    }

    #[test]
    fn frtr_oversize_length_errors_or_decodes(trace in arb_trace(), at in 0usize..4096, big in 1u32 << 20..u32::MAX) {
        let _ = Trace::decode_bin(&with_u32(trace.encode_bin(), at, big));
        // The span count right after magic + version: a typed error.
        prop_assert!(Trace::decode_bin(&with_u32(trace.encode_bin(), 6, big)).is_err());
    }
}

/// Two pairs for one bucket whose counts overflow a `u64` when added:
/// a typed error, not an arithmetic-overflow panic.
#[test]
fn frmt_overflowing_bucket_counts_are_an_error() {
    let mut snap = MetricsSnapshot::default();
    let mut h = Histogram::new();
    h.record(5);
    snap.histograms.insert("h".into(), h);
    let mut bytes = snap.encode_bin();
    // Tail: name, sum u64, pair count u32 = 1, (index u32, count u64).
    let pair = bytes[bytes.len() - 12..].to_vec();
    let n = bytes.len();
    bytes[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
    bytes.extend_from_slice(&pair);
    let count_at = n - 16;
    bytes[count_at..count_at + 4].copy_from_slice(&2u32.to_le_bytes());
    let e = MetricsSnapshot::decode_bin(&bytes).unwrap_err();
    assert!(e.reason.contains("overflows"), "{e}");
}
