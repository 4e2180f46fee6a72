//! Error types shared across the workspace.

use crate::addr::BlockAddr;
use crate::ids::CacheId;
use std::error::Error;
use std::fmt;

/// An invalid configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with the given message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }

    /// The human-readable description.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// A violated protocol assumption.
///
/// These indicate bugs in a protocol implementation (or a deliberately
/// injected fault in the failure-injection tests), not recoverable runtime
/// conditions: a correctly implemented protocol never produces them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A command arrived that the recipient's state machine has no
    /// transition for.
    UnexpectedCommand {
        /// Description of the receiving state.
        state: String,
        /// Description of the offending command.
        command: String,
    },
    /// The directory believed block `a` was modified in some cache, but no
    /// cache answered the query.
    NoOwnerResponded {
        /// The orphaned block.
        a: BlockAddr,
    },
    /// Two caches both believed they owned block `a` dirty.
    DuplicateOwner {
        /// The doubly-owned block.
        a: BlockAddr,
        /// First claimant.
        first: CacheId,
        /// Second claimant.
        second: CacheId,
    },
    /// A coherence violation detected by the oracle: a read observed stale
    /// data.
    StaleRead {
        /// The block read.
        a: BlockAddr,
        /// The reading cache.
        reader: CacheId,
        /// The version observed.
        observed: u64,
        /// The version the oracle expected.
        expected: u64,
    },
    /// A directory state was inconsistent with actual cache contents.
    DirectoryInconsistent {
        /// The block concerned.
        a: BlockAddr,
        /// Description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnexpectedCommand { state, command } => {
                write!(f, "unexpected command {command} in state {state}")
            }
            ProtocolError::NoOwnerResponded { a } => {
                write!(f, "no cache responded to a query for modified block {a}")
            }
            ProtocolError::DuplicateOwner { a, first, second } => {
                write!(f, "both {first} and {second} claim dirty ownership of {a}")
            }
            ProtocolError::StaleRead {
                a,
                reader,
                observed,
                expected,
            } => write!(
                f,
                "stale read of {a} by {reader}: observed v{observed}, expected v{expected}"
            ),
            ProtocolError::DirectoryInconsistent { a, detail } => {
                write!(
                    f,
                    "directory entry for {a} inconsistent with caches: {detail}"
                )
            }
        }
    }
}

impl Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_displays_message() {
        let e = ConfigError::new("zero caches");
        assert_eq!(e.to_string(), "invalid configuration: zero caches");
        assert_eq!(e.message(), "zero caches");
    }

    #[test]
    fn protocol_errors_display_key_facts() {
        let e = ProtocolError::StaleRead {
            a: BlockAddr::new(16),
            reader: CacheId::new(2),
            observed: 3,
            expected: 5,
        };
        let s = e.to_string();
        assert!(s.contains("blk:0x10") && s.contains("C2") && s.contains("v3") && s.contains("v5"));

        let e = ProtocolError::DuplicateOwner {
            a: BlockAddr::new(1),
            first: CacheId::new(0),
            second: CacheId::new(1),
        };
        assert!(e.to_string().contains("dirty ownership"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
        assert_err::<ProtocolError>();
    }
}
