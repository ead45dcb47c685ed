//! The runtime's single error surface.
//!
//! [`Error`] has one case per way the runtime can fail, so a binary (or
//! a test) can match on *what went wrong* instead of parsing error
//! strings:
//!
//! * [`Error::Io`] — the OS refused a socket operation;
//! * [`Error::Protocol`] — the bytes on a stream violated an
//!   application-protocol rule ([`crate::rpc`]'s `ERR_RPC_*` codes).
//!
//! A deadline is not an error here: [`crate::Driver::run_until`] returns
//! whether its condition was reached, and the caller names what it was
//! waiting for.

use std::fmt;
use std::io;

/// Shorthand for results across the io crate's public surface.
pub type Result<T> = std::result::Result<T, Error>;

/// Any failure the real-socket runtime can surface.
#[derive(Debug)]
pub enum Error {
    /// An OS-level socket or file failure.
    Io(io::Error),
    /// A protocol violation: malformed framing, an illegal value, or a
    /// peer-announced error code.
    Protocol {
        /// Numeric error code (application- or transport-defined).
        code: u64,
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Protocol { code, reason } => {
                write!(f, "protocol error {code:#x}: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = Error::Protocol {
            code: 0x10,
            reason: "bad rpc request magic".into(),
        };
        assert!(e.to_string().contains("0x10"));
        assert!(e.to_string().contains("bad rpc request magic"));
    }

    #[test]
    fn io_errors_keep_their_kind_and_source() {
        let wrapped = Error::from(io::Error::new(io::ErrorKind::AddrInUse, "busy"));
        assert!(wrapped.to_string().contains("busy"));
        let Error::Io(inner) = &wrapped else {
            panic!("an io::Error converts to Error::Io");
        };
        assert_eq!(inner.kind(), io::ErrorKind::AddrInUse);
        assert!(std::error::Error::source(&wrapped).is_some());
    }
}
