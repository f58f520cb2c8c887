//! Typed transport endpoints (`file:PATH` / `tcp://HOST:PORT`).
//!
//! Every place the CLI names a transport — the client front end's listen
//! address, a follower's replication upstream, the leader's replication
//! listener — parses one [`Endpoint`] instead of growing its own flag
//! grammar. Two schemes exist:
//!
//! * `file:PATH` (or `file://PATH`) — a path on a filesystem shared with
//!   the leader, tailed directly;
//! * `tcp://HOST:PORT` — a socket address, resolved at connect/bind time.
//!
//! A string with no scheme — a bare path included — is a typed "has no
//! scheme" error.

use std::fmt;
use std::path::PathBuf;

use crate::error::LorentzError;

/// A parsed transport endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A filesystem path (`file:PATH`).
    File(PathBuf),
    /// A TCP authority (`tcp://HOST:PORT`), kept as a string and resolved
    /// by `ToSocketAddrs` at connect/bind time so hostnames work.
    Tcp(String),
}

impl Endpoint {
    /// Parse an endpoint URI. Requires an explicit scheme; a scheme-less
    /// string is an error.
    pub fn parse(s: &str) -> Result<Endpoint, LorentzError> {
        let s = s.trim();
        if let Some(rest) = s
            .strip_prefix("file://")
            .or_else(|| s.strip_prefix("file:"))
        {
            if rest.is_empty() {
                return Err(LorentzError::InvalidConfig(format!(
                    "endpoint '{s}' has an empty path"
                )));
            }
            return Ok(Endpoint::File(PathBuf::from(rest)));
        }
        if let Some(rest) = s.strip_prefix("tcp://") {
            let authority = rest.trim_end_matches('/');
            let port_ok = authority.rsplit_once(':').is_some_and(|(host, port)| {
                // An unbracketed IPv6 literal (`tcp://::1:7400`) would
                // silently misparse — the last colon is inside the
                // address — so hosts with colons are rejected outright.
                !host.is_empty() && !host.contains(':') && port.parse::<u16>().is_ok()
            });
            if !port_ok {
                return Err(LorentzError::InvalidConfig(format!(
                    "endpoint '{s}' must be tcp://HOST:PORT with a numeric port \
                     (IPv6 literals are not supported)"
                )));
            }
            return Ok(Endpoint::Tcp(authority.to_owned()));
        }
        if let Some((scheme, _)) = s.split_once("://") {
            return Err(LorentzError::InvalidConfig(format!(
                "unsupported endpoint scheme '{scheme}' (expected file:PATH or tcp://HOST:PORT)"
            )));
        }
        Err(LorentzError::InvalidConfig(format!(
            "endpoint '{s}' has no scheme (expected file:PATH or tcp://HOST:PORT)"
        )))
    }

    /// The filesystem path, if this is a `file:` endpoint.
    pub fn as_file(&self) -> Option<&PathBuf> {
        match self {
            Endpoint::File(p) => Some(p),
            Endpoint::Tcp(_) => None,
        }
    }

    /// The TCP authority (`HOST:PORT`), if this is a `tcp://` endpoint.
    pub fn as_tcp(&self) -> Option<&str> {
        match self {
            Endpoint::Tcp(a) => Some(a),
            Endpoint::File(_) => None,
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::File(p) => write!(f, "file:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp://{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_schemes() {
        assert_eq!(
            Endpoint::parse("file:/var/lorentz/signals.wal").unwrap(),
            Endpoint::File(PathBuf::from("/var/lorentz/signals.wal"))
        );
        assert_eq!(
            Endpoint::parse("file:///var/run/x.wal").unwrap(),
            Endpoint::File(PathBuf::from("/var/run/x.wal"))
        );
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:7400").unwrap(),
            Endpoint::Tcp("127.0.0.1:7400".to_owned())
        );
        assert_eq!(
            Endpoint::parse("tcp://standby.internal:7400").unwrap(),
            Endpoint::Tcp("standby.internal:7400".to_owned())
        );
    }

    #[test]
    fn rejects_malformed_endpoints() {
        assert!(Endpoint::parse("tcp://no-port").is_err());
        assert!(Endpoint::parse("tcp://:7400").is_err());
        assert!(Endpoint::parse("tcp://host:notaport").is_err());
        assert!(Endpoint::parse("udp://host:1").is_err());
        assert!(Endpoint::parse("file:").is_err());
        let bare = Endpoint::parse("/bare/path.wal").unwrap_err();
        assert!(bare.to_string().contains("has no scheme"), "{bare}");
        // IPv6 hosts would misparse around the colons; rejected outright.
        assert!(Endpoint::parse("tcp://::1:7400").is_err());
        assert!(Endpoint::parse("tcp://[::1]:7400").is_err());
    }

    #[test]
    fn display_roundtrips() {
        for s in ["file:/a/b.wal", "tcp://127.0.0.1:7400"] {
            assert_eq!(Endpoint::parse(s).unwrap().to_string(), s);
        }
    }
}
