//! Error type shared across the crate.

use std::fmt;

/// Errors produced while compressing, opening or querying a CapsuleBox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input contains a byte LogGrep cannot store (NUL, reserved as the
    /// pad byte).
    UnsupportedByte {
        /// Offset of the offending byte in the input.
        offset: usize,
    },
    /// A CapsuleBox buffer is truncated or structurally invalid.
    Corrupt(String),
    /// A query string failed to parse.
    BadQuery(String),
    /// An inner codec failed to decompress a Capsule.
    Codec(String),
    /// An archive file could not be read or written (the message names the
    /// operation, the path and the OS error).
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnsupportedByte { offset } => {
                write!(f, "input contains NUL byte at offset {offset}")
            }
            Error::Corrupt(msg) => write!(f, "corrupt capsule box: {msg}"),
            Error::BadQuery(msg) => write!(f, "bad query: {msg}"),
            Error::Codec(msg) => write!(f, "codec failure: {msg}"),
            Error::Io(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for Error {}

impl From<codec::CodecError> for Error {
    fn from(e: codec::CodecError) -> Self {
        Error::Codec(e.reason)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
