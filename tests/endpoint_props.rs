//! Property-based tests of [`Endpoint`] parsing: every endpoint the
//! grammar accepts survives a parse → Display → parse round trip, and the
//! malformed shapes operators actually type — out-of-range ports, IPv6
//! literals (whose colons would misparse the authority), empty paths —
//! are rejected for any generated instance, not just the handful of
//! fixtures in the unit tests.

use lorentz::types::{Endpoint, LorentzError};
use proptest::prelude::*;
use std::path::PathBuf;

const HOST_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";
const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789./-_";

fn host(ix: &[usize]) -> String {
    ix.iter()
        .map(|i| HOST_CHARS[i % HOST_CHARS.len()] as char)
        .collect()
}

fn path(ix: &[usize]) -> String {
    ix.iter()
        .map(|i| PATH_CHARS[i % PATH_CHARS.len()] as char)
        .collect()
}

proptest! {
    /// A well-formed `tcp://HOST:PORT` parses to the same authority it
    /// displays, and re-parsing the display lands on an equal endpoint.
    #[test]
    fn tcp_roundtrips(ix in collection::vec(0usize..1000, 1..16), port in any::<u16>()) {
        let h = host(&ix);
        let s = format!("tcp://{h}:{port}");
        let ep = Endpoint::parse(&s).expect("valid tcp endpoint");
        let authority = format!("{h}:{port}");
        prop_assert_eq!(ep.as_tcp(), Some(authority.as_str()));
        prop_assert_eq!(ep.to_string(), s.clone());
        prop_assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep);
    }

    /// A non-empty `file:PATH` parses to that path and the display form
    /// re-parses to an equal endpoint.
    #[test]
    fn file_roundtrips(ix in collection::vec(0usize..1000, 1..24)) {
        let p = path(&ix);
        let ep = Endpoint::parse(&format!("file:{p}")).expect("valid file endpoint");
        prop_assert_eq!(ep.as_file(), Some(&PathBuf::from(p)));
        prop_assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep);
    }

    /// Ports beyond u16 are rejected no matter the host.
    #[test]
    fn oversized_ports_are_rejected(
        ix in collection::vec(0usize..1000, 1..12),
        beyond in 0u32..1_000_000,
    ) {
        let port = u64::from(u16::MAX) + 1 + u64::from(beyond);
        let s = format!("tcp://{}:{port}", host(&ix));
        prop_assert!(Endpoint::parse(&s).is_err(), "{s} must not parse");
    }

    /// Any host containing a colon — an unbracketed or bracketed IPv6
    /// literal, or a stray separator — is rejected outright, because the
    /// authority split would otherwise silently cut inside the address.
    #[test]
    fn hosts_with_colons_are_rejected(
        ix in collection::vec(0usize..1000, 1..12),
        split in 0usize..12,
        port in any::<u16>(),
    ) {
        let h = host(&ix);
        let split = split.min(h.len());
        let spliced = format!("{}:{}", &h[..split], &h[split..]);
        for s in [
            format!("tcp://{spliced}:{port}"),
            format!("tcp://::1:{port}"),
            format!("tcp://[::1]:{port}"),
        ] {
            prop_assert!(Endpoint::parse(&s).is_err(), "{s} must not parse");
        }
    }

    /// A bare path is a typed "has no scheme" error; the same path behind
    /// `file:` parses to exactly that path.
    #[test]
    fn bare_paths_need_a_scheme(ix in collection::vec(0usize..1000, 1..24)) {
        let p = path(&ix);
        let err = Endpoint::parse(&p).expect_err("bare path rejected");
        prop_assert!(err.to_string().contains("has no scheme"), "{err}");
        let ep = Endpoint::parse(&format!("file:{p}")).unwrap();
        prop_assert_eq!(ep, Endpoint::File(PathBuf::from(p)));
    }
}

#[test]
fn empty_and_schemeless_forms_are_rejected() {
    for s in [
        "file:",
        "file://",
        "",
        "   ",
        "tcp://",
        "tcp://h",
        "tcp://:7",
        "udp://h:7",
    ] {
        assert!(Endpoint::parse(s).is_err(), "{s:?} must not parse");
    }
}

#[test]
fn unsupported_schemes_are_named_in_the_error() {
    for (s, scheme) in [
        ("udp://h:7", "udp"),
        ("http://h:80", "http"),
        ("tcp6://h:7", "tcp6"),
    ] {
        let err = Endpoint::parse(s).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("unsupported endpoint scheme '{scheme}'")),
            "{s}: {err}"
        );
    }
}

#[test]
fn every_parse_error_is_an_invalid_config() {
    for s in [
        "",
        "relative/path.wal",
        "/abs/path.wal",
        "file:",
        "tcp://h",
        "tcp://h:x",
        "ftp://h:1",
    ] {
        let err = Endpoint::parse(s).unwrap_err();
        assert!(
            matches!(err, LorentzError::InvalidConfig(_)),
            "{s:?}: {err:?}"
        );
    }
}

#[test]
fn surrounding_whitespace_is_ignored() {
    assert_eq!(
        Endpoint::parse("  tcp://standby:7400 \n").unwrap(),
        Endpoint::Tcp("standby:7400".to_owned())
    );
    assert_eq!(
        Endpoint::parse("\tfile:/var/lorentz/signals.wal ").unwrap(),
        Endpoint::File(PathBuf::from("/var/lorentz/signals.wal"))
    );
}

#[test]
fn trailing_slashes_on_tcp_authorities_are_dropped() {
    let ep = Endpoint::parse("tcp://standby:7400/").unwrap();
    assert_eq!(ep.as_tcp(), Some("standby:7400"));
    assert_eq!(ep.to_string(), "tcp://standby:7400");
    assert_eq!(Endpoint::parse("tcp://standby:7400//").unwrap(), ep);
}

#[test]
fn file_endpoints_keep_relative_and_absolute_paths() {
    for (s, p) in [
        ("file:replica.wal", "replica.wal"),
        ("file:dir/replica.wal", "dir/replica.wal"),
        ("file://dir/replica.wal", "dir/replica.wal"),
        ("file:/abs/replica.wal", "/abs/replica.wal"),
        ("file:///abs/replica.wal", "/abs/replica.wal"),
    ] {
        let ep = Endpoint::parse(s).unwrap();
        assert_eq!(ep.as_file(), Some(&PathBuf::from(p)), "{s}");
        assert_eq!(ep.as_tcp(), None);
        assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep, "{s}");
    }
}
