//! The chaos harness's artifact readers, driven with artifacts the real
//! system writes: [`StandbyLedger::parse`] over the follower's exit status
//! line (which no longer carries a legacy-signal count) and
//! [`NodeWal::load`] over logs written by [`SignalWal`].

mod common;

use lorentz::core::personalizer::wal_codec;
use lorentz::core::{SatisfactionSignal, SignalWal, WalRecord};
use lorentz::types::{
    CustomerId, LambdaDelta, PathKey, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId,
};
use lorentz_chaos::invariants::{NodeWal, StandbyLedger};
use lorentz_chaos::ChaosError;

/// The follower's exit line in the exact shape `lorentz serve --follow`
/// prints it.
fn status_line(
    applied: u64,
    skipped: u64,
    version: u64,
    state: &str,
    term: u64,
    dups: u64,
) -> String {
    format!(
        "followed tcp://127.0.0.1:7400: {applied} deltas applied, {skipped} skipped \
         (lambda v{version}, last epoch {version}); served 3 requests, \
         0 feedback rejected (read-only); state {state}, term {term}, {dups} duplicates"
    )
}

fn record(customer: u32, epoch: u64) -> WalRecord {
    let path = ResourcePath::new(CustomerId(customer), SubscriptionId(0), ResourceGroupId(0));
    WalRecord {
        signal: SatisfactionSignal::new(path, ServerOffering::GeneralPurpose, 1.0).unwrap(),
        delta: LambdaDelta::new(epoch, vec![(PathKey::new(path), [0.0, 0.3, 0.0])]),
    }
}

#[test]
fn the_last_status_line_wins() {
    let stderr = vec![
        "following tcp://127.0.0.1:7400 (caught up to epoch 3)".to_owned(),
        status_line(2, 0, 3, "following", 1, 0),
        "restarting".to_owned(),
        status_line(9, 1, 12, "leader", 4, 2),
    ];
    let ledger = StandbyLedger::parse("standby1", &stderr).unwrap();
    assert_eq!(ledger.name, "standby1");
    assert_eq!(ledger.state, "leader");
    assert_eq!(ledger.term, 4);
    assert_eq!(ledger.lambda_version, 12);
    assert_eq!(ledger.skipped, 1);
    assert_eq!(ledger.duplicates, 2);
}

#[test]
fn a_halted_state_keeps_its_reason() {
    let line = status_line(0, 0, 1, "halted: wal append failed", 2, 0);
    let ledger = StandbyLedger::parse("s", &[line]).unwrap();
    assert_eq!(ledger.state, "halted: wal append failed");
    assert_eq!(ledger.term, 2);
    assert_eq!(ledger.lambda_version, 1);
}

#[test]
fn a_missing_status_line_is_a_timeout_naming_the_node() {
    let stderr = vec!["following tcp://h:1 (caught up to epoch 0)".to_owned()];
    match StandbyLedger::parse("standby2", &stderr) {
        Err(ChaosError::Timeout(why)) => {
            assert!(why.contains("standby2"), "{why}");
            assert!(
                why.contains("following tcp://h:1"),
                "captured stderr is echoed: {why}"
            );
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
}

#[test]
fn a_status_line_missing_a_field_is_an_error() {
    let full = status_line(1, 0, 2, "following", 1, 0);
    for (field, cut) in [
        ("term", full.replace(", term 1", "")),
        ("state", full.replace("; state following", "")),
        ("lambda v", full.replace("lambda v2", "lambda 2")),
        ("duplicates", full.replace(" 0 duplicates", "")),
    ] {
        let err = StandbyLedger::parse("s", std::slice::from_ref(&cut)).unwrap_err();
        assert!(matches!(err, ChaosError::Timeout(_)), "{field}: {err:?}");
        assert!(
            err.to_string().contains("ledger line missing"),
            "{field}: {err}"
        );
    }
}

#[test]
fn node_wal_reads_epochs_and_term_offsets() {
    let path = common::scratch_dir("chaos-node-wal").join("signals.wal");
    let (mut wal, _) = SignalWal::open(&path).unwrap();
    wal.append_term(1).unwrap();
    wal.append_record(&record(1, 2)).unwrap();
    wal.append_record(&record(2, 3)).unwrap();
    let promoted_at = std::fs::metadata(&path).unwrap().len();
    wal.append_term(3).unwrap();
    wal.append_record(&record(1, 4)).unwrap();
    drop(wal);

    let node = NodeWal::load("leader", &path).unwrap();
    assert_eq!(node.epochs, vec![2, 3, 4]);
    assert_eq!(node.terms, vec![(1, 0), (3, promoted_at)]);
    assert_eq!(node.max_term(), 3);
    assert!(!node.torn);
    assert_eq!(node.intact_len, node.bytes.len() as u64);
}

#[test]
fn node_wal_flags_a_bare_signal_tail_as_torn() {
    let path = common::scratch_dir("chaos-bare-tail").join("signals.wal");
    let (mut wal, _) = SignalWal::open(&path).unwrap();
    wal.append_record(&record(1, 2)).unwrap();
    let intact = std::fs::metadata(&path).unwrap().len();
    let bare = serde_json::to_string(&record(2, 3).signal).unwrap();
    wal.append_frame(&wal_codec().encode(bare.as_bytes()))
        .unwrap();
    drop(wal);

    let node = NodeWal::load("standby0", &path).unwrap();
    assert!(node.torn);
    assert_eq!(node.intact_len, intact);
    assert_eq!(node.epochs, vec![2]);
    assert_eq!(node.max_term(), 0);
}

#[test]
fn node_wal_of_a_missing_file_is_an_io_error() {
    let path = common::scratch_dir("chaos-missing").join("absent.wal");
    match NodeWal::load("leader", &path) {
        Err(ChaosError::Io { path: p, .. }) => assert!(p.ends_with("absent.wal"), "{p}"),
        Err(other) => panic!("expected an I/O error, got {other:?}"),
        Ok(_) => panic!("a missing log must not load"),
    }
}
