//! Property tests for the FRSV service protocol, in the FRCK/FRSP/FRDM
//! style: every message kind round-trips, and every truncation, byte
//! flip or oversized length field reads back as a typed `ServeError` —
//! never a panic and never an allocation beyond the frame cap.

use cfr_serve::proto::{read_message, Message, MAX_FRAME_LEN};
use cfr_serve::{JobRow, JobSpec, ServeError, ServerStatus, TenantStatus};
use proptest::prelude::*;

fn status(seed: u64, n: usize) -> ServerStatus {
    ServerStatus {
        queued: seed as u32 % 7,
        running: n as u32,
        completed: (seed >> 8) as u32,
        program_cache_hits: 3,
        tenants: (0..n)
            .map(|i| TenantStatus {
                tenant: format!("t{i}"),
                active: i as u32 + 1,
                running: i as u32,
            })
            .collect(),
        queue: (0..n as u64).map(|i| seed.wrapping_add(i)).collect(),
        ..ServerStatus::default()
    }
}

/// One message of every kind, chosen by `kind`, with sizes from `n`.
fn message(kind: u8, seed: u64, n: usize, xs: Vec<f64>) -> Message {
    let text = format!("s{seed}-{}", "é".repeat(n));
    match kind % 18 {
        0 => Message::ClientHello {
            tenant: text.clone(),
            token: text,
        },
        1 => Message::Welcome { session: seed },
        2 => Message::Submit {
            spec: JobSpec::Task {
                task: "kmeans".into(),
                params: (0..n as i64).map(|i| i - seed as i64).collect(),
                init_state: xs,
                rounds: n as u32,
                dataset: text,
                threads_per_node: 2,
                backend: seed as u8,
            },
        },
        3 => Message::Submit {
            spec: JobSpec::Chapel {
                source: text,
                opt: 2,
                threads: n as u32,
                globals: (0..n).map(|i| format!("g{i}")).collect(),
                backend: 1,
            },
        },
        4 => Message::Submitted { job_id: seed },
        5 => Message::Rejected { reason: text },
        6 => Message::Wait { job_id: seed },
        7 => Message::JobResult {
            job_id: seed,
            state: xs.clone(),
            robj: (0..n as u8).collect(),
            globals: (0..n).map(|i| (format!("g{i}"), xs.clone())).collect(),
            trace: text.into_bytes(),
        },
        8 => Message::JobFailed {
            job_id: seed,
            message: text,
        },
        9 => Message::Status,
        10 => Message::StatusReport {
            status: status(seed, n),
        },
        11 => Message::DumpTrace,
        12 => Message::TraceDump { chrome_json: text },
        13 => Message::StopServer,
        14 => Message::Stopping,
        15 => Message::Bye,
        16 => Message::Top,
        _ => Message::TopReport {
            status: status(seed, n),
            jobs: (0..n as u64)
                .map(|i| JobRow {
                    job_id: i,
                    tenant: format!("t{i}"),
                    state: (i % 4) as u8,
                })
                .collect(),
            metrics: text.into_bytes(),
            weights: (0..n as u32).map(|i| (i, seed)).collect(),
        },
    }
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        0u8..18,
        0u64..u64::MAX,
        0usize..6,
        proptest::collection::vec(-1.0e9f64..1.0e9, 0..8),
    )
        .prop_map(|(kind, seed, n, xs)| message(kind, seed, n, xs))
}

fn decode(bytes: &[u8]) -> Result<Message, ServeError> {
    read_message(&mut &bytes[..])
}

/// A typed error: a protocol violation, or the socket-level short read
/// a cut frame produces.
fn typed(e: ServeError) -> bool {
    matches!(e, ServeError::Protocol { .. } | ServeError::Io(_))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_kind_round_trips(msg in arb_message()) {
        prop_assert_eq!(decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn every_truncation_errors(msg in arb_message(), frac in 0usize..100) {
        let bytes = msg.encode();
        let cut = bytes.len() * frac / 100;
        prop_assert!(typed(decode(&bytes[..cut]).unwrap_err()));
        // The same cut with the header's length patched to match: the
        // payload decoder itself must see the truncation.
        if cut >= 10 && cut < bytes.len() {
            let mut short = bytes[..cut].to_vec();
            short[6..10].copy_from_slice(&((cut - 10) as u32).to_le_bytes());
            match decode(&short) {
                Err(ServeError::Protocol { .. }) => {}
                other => prop_assert!(false, "short payload decoded: {:?}", other),
            }
        }
    }

    #[test]
    fn mutated_byte_never_panics(msg in arb_message(), pos in 0usize..4096, xor in 1u8..=255) {
        let mut bytes = msg.encode();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        if let Err(e) = decode(&bytes) {
            prop_assert!(typed(e));
        }
    }

    #[test]
    fn oversize_length_errors_or_decodes(msg in arb_message(), at in 0usize..4096, big in 1u32 << 20..u32::MAX) {
        let mut bytes = msg.encode();
        // Anywhere in the frame (header length included, which is
        // bounded by the frame cap): no panic.
        let at = at % (bytes.len() - 3);
        let mut any = bytes.clone();
        any[at..at + 4].copy_from_slice(&big.to_le_bytes());
        if let Err(e) = decode(&any) {
            prop_assert!(typed(e));
        }
        // A header length over the cap: refused before allocating.
        bytes[6..10].copy_from_slice(&(MAX_FRAME_LEN + 1 + big % 1024).to_le_bytes());
        match decode(&bytes) {
            Err(ServeError::Protocol { reason }) => prop_assert!(reason.contains("exceeds")),
            other => prop_assert!(false, "oversize frame decoded: {:?}", other),
        }
    }
}
