//! Error type for pattern construction and generation.

use std::error::Error;
use std::fmt;

use soctam_model::{CoreId, TerminalId};

/// Errors produced when building SI patterns or pattern sets.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PatternError {
    /// The same terminal was assigned two different care symbols.
    ConflictingCareBit {
        /// The doubly-assigned terminal.
        terminal: TerminalId,
    },
    /// The same bus line was occupied on behalf of two different cores.
    ConflictingBusLine {
        /// Index of the doubly-occupied line.
        line: u8,
    },
    /// A care bit referenced a terminal outside the SOC's terminal space.
    TerminalOutOfRange {
        /// The offending terminal.
        terminal: TerminalId,
        /// Size of the terminal space.
        total: u32,
    },
    /// A bus line is driven from a core outside the SOC.
    DriverOutOfRange {
        /// The occupied bus line.
        line: u8,
        /// The offending driver core.
        driver: CoreId,
        /// Number of cores in the SOC.
        cores: usize,
    },
    /// Pattern generation needs at least this many terminals.
    NotEnoughTerminals {
        /// Terminals required by the generator configuration.
        required: u32,
        /// Terminals available in the SOC.
        available: u32,
    },
    /// The generator configuration is internally inconsistent (for example
    /// an empty aggressor range).
    InvalidConfig {
        /// Human-readable description.
        message: String,
    },
    /// A deterministic failpoint fired (see `soctam_exec::fault`).
    FaultInjected {
        /// Name of the failpoint site that fired.
        site: String,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::ConflictingCareBit { terminal } => {
                write!(f, "terminal {terminal} assigned two different care symbols")
            }
            PatternError::ConflictingBusLine { line } => {
                write!(f, "bus line {line} occupied for two different driver cores")
            }
            PatternError::TerminalOutOfRange { terminal, total } => write!(
                f,
                "terminal {terminal} outside the {total}-terminal space of the soc"
            ),
            PatternError::DriverOutOfRange {
                line,
                driver,
                cores,
            } => write!(
                f,
                "bus line {line} driven from {driver}, outside the {cores}-core soc"
            ),
            PatternError::NotEnoughTerminals {
                required,
                available,
            } => write!(
                f,
                "pattern generation needs {required} terminals but the soc has {available}"
            ),
            PatternError::InvalidConfig { message } => {
                write!(f, "invalid generator configuration: {message}")
            }
            PatternError::FaultInjected { site } => {
                write!(f, "injected fault at failpoint `{site}`")
            }
        }
    }
}

impl Error for PatternError {}

impl From<soctam_exec::FaultError> for PatternError {
    fn from(fault: soctam_exec::FaultError) -> Self {
        PatternError::FaultInjected {
            site: fault.site().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_terminal() {
        let err = PatternError::ConflictingCareBit {
            terminal: TerminalId::new(9),
        };
        assert!(err.to_string().contains("t9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<PatternError>();
    }
}
