//! Property tests for the FRDM v7 coordinator ↔ node frame codec, in
//! the style of the FRCK (`ft/tests/codec_props.rs`) and FRSP harnesses:
//! every message kind round-trips, and every truncation, single-byte
//! flip, oversize length and foreign version byte surfaces as a typed
//! [`DistError`] — never a panic, never an allocation beyond
//! [`MAX_FRAME_LEN`].

use freeride_dist::proto::{read_message, write_message, Message, MAX_FRAME_LEN, WIRE_VERSION};
use freeride_dist::DistError;
use proptest::prelude::*;

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..40)
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 0..12)
        .prop_map(|cs| cs.into_iter().map(|c| (b'a' + c) as char).collect())
}

fn arb_f64s() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 0..10)
}

fn arb_job() -> impl Strategy<Value = Message> {
    (
        (
            arb_string(),
            proptest::collection::vec(0i64..1000, 0..6),
            arb_bytes(),
            arb_string(),
        ),
        (0u32..64, 0u8..4, 0u8..2, 0u64..1 << 20, 0u32..8, 0u32..8),
        (
            0u32..16,
            0u8..3,
            0u8..5,
            0u64..256,
            0u64..4096,
            0u64..u64::MAX,
        ),
        0u8..2,
    )
        .prop_map(
            |(
                (task, params, layout, dataset),
                (threads, trace_level, io_mode, chunk_rows, buffers, readers),
                (stats_every, backend, scheme, scheme_stripes, scheme_cells, scheme_mask),
                splitter,
            )| Message::Job {
                task,
                params,
                layout,
                dataset,
                threads,
                trace_level,
                io_mode,
                chunk_rows,
                buffers,
                readers,
                stats_every,
                backend,
                scheme,
                scheme_stripes,
                scheme_cells,
                scheme_mask,
                splitter,
            },
        )
}

/// One arbitrary message of every kind the v7 wire carries.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (0u32..1000).prop_map(|node_id| Message::Hello { node_id }),
        (0u32..1000).prop_map(|node_id| Message::HelloAck { node_id }),
        arb_job(),
        Just(Message::EndJob),
        (arb_bytes(), arb_bytes()).prop_map(|(trace, metrics)| Message::JobDone { trace, metrics }),
        (0u32..100, arb_bytes()).prop_map(|(round, metrics)| Message::Stats { round, metrics }),
        Just(Message::Shutdown),
        arb_string().prop_map(|message| Message::Error { message }),
        arb_string().prop_map(|token| Message::Join { token }),
        (0u32..1000).prop_map(|node_id| Message::Leave { node_id }),
        (0u32..100, 0u32..5, arb_f64s()).prop_map(|(round, attempt, state)| {
            Message::RoundStart {
                round,
                attempt,
                state,
            }
        }),
        (0u32..100, 0u32..5, 0u64..1 << 40, 0u64..1 << 20).prop_map(
            |(round, attempt, first_row, rows)| Message::Unit {
                round,
                attempt,
                first_row,
                rows,
            }
        ),
        (
            0u32..100,
            0u32..5,
            0u64..1 << 40,
            0u64..1 << 40,
            arb_bytes()
        )
            .prop_map(|(round, attempt, first_row, elapsed_ns, cells)| {
                Message::UnitResult {
                    round,
                    attempt,
                    first_row,
                    elapsed_ns,
                    cells,
                }
            }),
        (0u32..100, 0u32..5).prop_map(|(round, attempt)| Message::RoundEnd { round, attempt }),
    ]
}

/// Decode one frame, asserting the failure (if any) is typed.
fn decode(frame: &[u8], context: &str) -> Option<Message> {
    match read_message(&mut &frame[..]) {
        Ok((msg, _)) => Some(msg),
        Err(DistError::Protocol { .. } | DistError::Io(_)) => None,
        Err(other) => panic!("{context}: untyped decode failure {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_round_trip(msg in arb_message()) {
        let mut wire = Vec::new();
        let n = write_message(&mut wire, &msg).unwrap();
        prop_assert_eq!(n, wire.len());
        let (back, m) = read_message(&mut &wire[..]).unwrap();
        prop_assert_eq!(m, wire.len());
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn prop_truncation_is_typed_error(msg in arb_message(), cut in 0usize..4096) {
        let frame = msg.encode();
        let cut = cut % frame.len();
        prop_assert!(
            decode(&frame[..cut], &format!("{} cut at {cut}", msg.kind_name())).is_none(),
            "a truncated frame decoded"
        );
    }

    #[test]
    fn prop_byte_flip_never_panics(msg in arb_message(), pos in 0usize..4096, x in 1u8..=255) {
        // A flip may land in opaque payload bytes and still decode; it
        // must never panic, and any failure must be typed.
        let mut frame = msg.encode();
        let pos = pos % frame.len();
        frame[pos] ^= x;
        let got = decode(&frame, &format!("{} flip {pos}^{x}", msg.kind_name()));
        // Header damage (magic, version, type, length) never passes
        // through as the original message.
        if pos < 10 {
            prop_assert!(got.as_ref() != Some(&msg), "header flip at {} went unnoticed", pos);
        }
    }

    #[test]
    fn prop_oversize_len_rejected(msg in arb_message(), extra in 1u32..u32::MAX) {
        let mut frame = msg.encode();
        let len = MAX_FRAME_LEN.saturating_add(extra);
        frame[6..10].copy_from_slice(&len.to_le_bytes());
        let err = read_message(&mut &frame[..]).unwrap_err();
        prop_assert!(err.to_string().contains("exceeds limit"), "{}", err);
    }

    #[test]
    fn prop_inner_len_oversize_rejected(state in arb_f64s(), len in 0u32..u32::MAX) {
        // An inner array length larger than the payload must fail before
        // any allocation sized by it.
        let msg = Message::RoundStart { round: 1, attempt: 0, state: state.clone() };
        let mut frame = msg.encode();
        let len = len.max(state.len() as u32 + 1);
        frame[18..22].copy_from_slice(&len.to_le_bytes());
        prop_assert!(matches!(
            read_message(&mut &frame[..]),
            Err(DistError::Protocol { .. })
        ));
    }

    #[test]
    fn prop_foreign_version_rejected(msg in arb_message(), v in 0u8..=255) {
        let v = if v == WIRE_VERSION { v.wrapping_add(1) } else { v };
        let mut frame = msg.encode();
        frame[4] = v;
        let err = read_message(&mut &frame[..]).unwrap_err();
        prop_assert!(err.to_string().contains("version"), "{}", err);
    }

    #[test]
    fn prop_byte_soup_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let _ = decode(&bytes, "byte soup");
    }
}

#[test]
fn wire_version_is_7() {
    assert_eq!(WIRE_VERSION, 7);
}
