//! The signal WAL's record grammar as every reader sees it. A log holds
//! exactly two payload shapes — delta-framed `{signal, delta}` records and
//! `{leader_term}` markers — and anything else in a well-framed record is
//! a typed [`StoreCorruption::BadPayload`] that ends the intact prefix for
//! the recovering leader, the file tailer, the replication cursor and
//! `wal-verify` alike.

mod common;

use lorentz::core::personalizer::wal::next_frame;
use lorentz::core::personalizer::{frame_record, wal_codec};
use lorentz::core::{
    Personalizer, PersonalizerConfig, SatisfactionSignal, ShardedLambdaStore, SignalWal, WalEntry,
    WalRecord, WalTailer,
};
use lorentz::types::{
    CustomerId, LambdaDelta, PathKey, ResourceGroupId, ResourcePath, ServerOffering,
    StoreCorruption, SubscriptionId,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn signal(customer: u32, gamma: f64) -> SatisfactionSignal {
    SatisfactionSignal::new(
        ResourcePath::new(CustomerId(customer), SubscriptionId(0), ResourceGroupId(0)),
        ServerOffering::GeneralPurpose,
        gamma,
    )
    .unwrap()
}

/// A record as the leader writes it: the signal plus the delta applying
/// it to `store` published.
fn leader_record(store: &ShardedLambdaStore, customer: u32, gamma: f64) -> WalRecord {
    let signal = signal(customer, gamma);
    store.apply_signal(&signal);
    WalRecord {
        signal,
        delta: store.publish_delta_for(&signal.path),
    }
}

fn leader_store() -> ShardedLambdaStore {
    let mut personalizer = Personalizer::new(PersonalizerConfig::default()).unwrap();
    for customer in 0..8 {
        personalizer.register(signal(customer, 0.0).path);
    }
    ShardedLambdaStore::new(personalizer, 1).unwrap()
}

/// A well-framed record whose payload is a bare signal — the pre-delta
/// record shape, which no reader accepts.
fn bare_signal_frame(customer: u32) -> Vec<u8> {
    let payload = serde_json::to_string(&signal(customer, 0.5)).unwrap();
    wal_codec().encode(payload.as_bytes())
}

/// A log holding two leader records followed by a bare-signal record.
/// Returns its path and the byte length of the intact prefix.
fn log_with_bare_tail(name: &str) -> (PathBuf, usize) {
    let path = common::scratch_dir(name).join("signals.wal");
    let store = leader_store();
    let (mut wal, _) = SignalWal::open(&path).unwrap();
    let mut intact = 0;
    for customer in [1, 2] {
        let record = leader_record(&store, customer, 1.0);
        intact += frame_record(&record).unwrap().len();
        wal.append_record(&record).unwrap();
    }
    wal.append_frame(&bare_signal_frame(3)).unwrap();
    (path, intact)
}

fn bad_payload(payload: &[u8]) -> bool {
    let frame = wal_codec().encode(payload);
    matches!(
        next_frame(&frame, 0),
        Some(Err(StoreCorruption::BadPayload(_)))
    )
}

#[test]
fn verify_stops_at_a_bare_signal_record() {
    let (path, intact) = log_with_bare_tail("wal-verify-bare");
    let report = SignalWal::verify(&path).unwrap();
    assert_eq!(report.records.len(), 2);
    let (offset, why) = report.corrupt.expect("the bare record is corrupt");
    assert_eq!(offset, intact as u64);
    assert!(matches!(why, StoreCorruption::BadPayload(_)), "{why:?}");
    assert_eq!(report.trailing_bytes, bare_signal_frame(3).len() as u64);
}

#[test]
fn tailer_stalls_at_a_bare_signal_record() {
    let (path, intact) = log_with_bare_tail("wal-tail-bare");
    let mut tailer = WalTailer::new(&path);
    let entries = tailer.poll().unwrap();
    assert_eq!(entries.len(), 2);
    assert!(entries.iter().all(|e| matches!(e, WalEntry::Record(_))));
    assert_eq!(tailer.offset(), intact as u64);
    // The bad record is never consumed, however often the tailer polls.
    assert!(tailer.poll().unwrap().is_empty());
    assert_eq!(tailer.offset(), intact as u64);
}

#[test]
fn replay_cursor_ends_before_a_bare_signal_record() {
    let (path, _) = log_with_bare_tail("wal-replay-bare");
    let replay = SignalWal::replay_from(&path, 0).unwrap();
    assert_eq!(replay.frames.len(), 2);
    assert!(!replay.full_resync);
    assert_eq!(replay.log_last_epoch, 3);
}

#[test]
fn reopened_log_appends_after_the_intact_prefix() {
    let (path, intact) = log_with_bare_tail("wal-reopen-bare");
    let (mut wal, recovery) = SignalWal::open(&path).unwrap();
    assert_eq!(recovery.signals, vec![signal(1, 1.0), signal(2, 1.0)]);
    assert_eq!(recovery.last_epoch, 3);
    assert_eq!(recovery.torn_tail_bytes, bare_signal_frame(3).len());
    assert_eq!(std::fs::metadata(&path).unwrap().len(), intact as u64);

    // The next append lands where the bad record was, and the log is clean.
    let record = WalRecord {
        signal: signal(4, -1.0),
        delta: LambdaDelta::new(4, vec![(PathKey::new(signal(4, 0.0).path), [0.0; 3])]),
    };
    wal.append_record(&record).unwrap();
    drop(wal);
    let report = SignalWal::verify(&path).unwrap();
    assert!(report.corrupt.is_none());
    assert_eq!(report.records.len(), 3);
    assert_eq!(report.records[2].epoch, Some(4));
}

#[test]
fn non_utf8_payload_is_a_bad_payload() {
    let frame = wal_codec().encode(&[0xff, 0xfe, 0x00, 0x7b]);
    match next_frame(&frame, 0) {
        Some(Err(StoreCorruption::BadPayload(why))) => assert!(why.contains("UTF-8"), "{why}"),
        other => panic!("expected BadPayload, got {other:?}"),
    }
}

#[test]
fn payloads_of_neither_shape_are_bad_payloads() {
    let signal_only = format!(
        r#"{{"signal": {}}}"#,
        serde_json::to_string(&signal(1, 1.0)).unwrap()
    );
    for payload in [
        "",
        "{}",
        "[]",
        "null",
        "\"record\"",
        r#"{"leader_term": "seven"}"#,
        r#"{"leader_term": -1}"#,
        r#"{"delta": {"epoch": 2, "entries": []}}"#,
        signal_only.as_str(),
    ] {
        assert!(
            bad_payload(payload.as_bytes()),
            "{payload:?} must not decode"
        );
    }
    // The signal payload alone is exactly the removed bare-signal shape.
    let bare = serde_json::to_string(&signal(1, 1.0)).unwrap();
    assert!(bad_payload(bare.as_bytes()));
}

#[test]
fn verify_offsets_follow_the_frame_lengths() {
    let path = common::scratch_dir("wal-offsets").join("signals.wal");
    let store = leader_store();
    let (mut wal, _) = SignalWal::open(&path).unwrap();
    wal.append_term(1).unwrap();
    let mut expected = Vec::new();
    for (customer, gamma) in [(0, 1.0), (5, -0.5), (0, 0.25)] {
        let record = leader_record(&store, customer, gamma);
        expected.push((
            record.delta.epoch,
            record.delta.entries.len(),
            frame_record(&record).unwrap().len(),
        ));
        wal.append_record(&record).unwrap();
    }
    drop(wal);

    let report = SignalWal::verify(&path).unwrap();
    assert_eq!(report.records.len(), 4);
    assert_eq!(report.records[0].term, Some(1));
    let mut offset = report.records[1].offset;
    for (summary, (epoch, keys, len)) in report.records[1..].iter().zip(expected) {
        assert_eq!(summary.offset, offset);
        assert_eq!(summary.epoch, Some(epoch));
        assert_eq!(summary.delta_keys, keys);
        offset += len as u64;
    }
    assert_eq!(std::fs::metadata(&path).unwrap().len(), offset);
    for (i, summary) in report.records.iter().enumerate() {
        assert_eq!(summary.index, i);
    }
}

#[test]
fn a_log_copied_frame_by_frame_is_byte_identical() {
    let dir = common::scratch_dir("wal-copy");
    let leader_path = dir.join("leader.wal");
    let store = leader_store();
    let (mut leader, _) = SignalWal::open(&leader_path).unwrap();
    leader.append_term(1).unwrap();
    for customer in 0..4 {
        leader
            .append_record(&leader_record(&store, customer, 0.5))
            .unwrap();
    }
    leader.append_term(2).unwrap();
    leader
        .append_record(&leader_record(&store, 7, -1.0))
        .unwrap();
    drop(leader);

    let replica_path = dir.join("replica.wal");
    let (mut replica, _) = SignalWal::open(&replica_path).unwrap();
    for frame in SignalWal::replay_from(&leader_path, 0).unwrap().frames {
        replica.append_frame(&frame).unwrap();
    }
    drop(replica);
    assert_eq!(
        std::fs::read(&replica_path).unwrap(),
        std::fs::read(&leader_path).unwrap()
    );
}

proptest! {
    /// Every record the leader can frame decodes back to itself, and the
    /// decoder consumes exactly the frame.
    #[test]
    fn record_frames_decode_to_the_same_record(
        customer in 0u32..1000,
        gamma in -1.0f64..=1.0,
        epoch in 2u64..u64::from(u32::MAX),
        lambdas in collection::vec(-4.0f64..4.0, 3),
    ) {
        let signal = signal(customer, gamma);
        let record = WalRecord {
            signal,
            delta: LambdaDelta::new(
                epoch,
                vec![(PathKey::new(signal.path), [lambdas[0], lambdas[1], lambdas[2]])],
            ),
        };
        let frame = frame_record(&record).unwrap();
        let (entry, end) = next_frame(&frame, 0).unwrap().unwrap();
        prop_assert_eq!(end, frame.len());
        prop_assert_eq!(entry.epoch(), Some(epoch));
        prop_assert_eq!(entry, WalEntry::Record(record));
    }

    /// A term marker of any term decodes to that term and carries no
    /// signal or epoch.
    #[test]
    fn term_frames_decode_to_their_term(term in any::<u64>()) {
        let payload = format!(r#"{{"leader_term": {term}}}"#);
        let frame = wal_codec().encode(payload.as_bytes());
        let (entry, end) = next_frame(&frame, 0).unwrap().unwrap();
        prop_assert_eq!(end, frame.len());
        prop_assert_eq!(entry.term(), Some(term));
        prop_assert_eq!(entry.epoch(), None);
        prop_assert!(entry.signal().is_none());
    }
}
