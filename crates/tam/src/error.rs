//! Error type for TAM construction and optimization.

use std::error::Error;
use std::fmt;

use soctam_model::CoreId;
use soctam_wrapper::WrapperError;

/// Errors produced by TAM architecture construction and optimization.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TamError {
    /// A rail was declared with zero width.
    ZeroWidthRail,
    /// A rail was declared with no cores.
    EmptyRail,
    /// A core appears on two rails (or twice on one).
    DuplicateCore {
        /// The doubly-assigned core.
        core: CoreId,
    },
    /// A core of the SOC is not assigned to any rail.
    UnassignedCore {
        /// The missing core.
        core: CoreId,
    },
    /// A rail or SI group referenced a core outside the SOC.
    CoreOutOfRange {
        /// The offending core id.
        core: CoreId,
        /// Number of cores in the SOC.
        cores: usize,
    },
    /// The architecture exceeds the allowed total TAM width.
    WidthExceeded {
        /// Sum of rail widths.
        used: u32,
        /// Allowed maximum.
        max: u32,
    },
    /// The TAM width budget cannot host the SOC (fewer wires than one).
    ZeroWidthBudget,
    /// Forwarded wrapper-design failure.
    Wrapper(WrapperError),
}

impl fmt::Display for TamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamError::ZeroWidthRail => write!(f, "testrail width must be at least 1"),
            TamError::EmptyRail => write!(f, "testrail must host at least one core"),
            TamError::DuplicateCore { core } => {
                write!(f, "{core} is assigned to more than one testrail")
            }
            TamError::UnassignedCore { core } => {
                write!(f, "{core} is not assigned to any testrail")
            }
            TamError::CoreOutOfRange { core, cores } => {
                write!(f, "{core} out of range for an soc with {cores} cores")
            }
            TamError::WidthExceeded { used, max } => {
                write!(f, "architecture uses {used} tam wires, budget is {max}")
            }
            TamError::ZeroWidthBudget => write!(f, "tam width budget must be at least 1"),
            TamError::Wrapper(e) => write!(f, "wrapper design failed: {e}"),
        }
    }
}

impl Error for TamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TamError::Wrapper(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WrapperError> for TamError {
    fn from(e: WrapperError) -> Self {
        TamError::Wrapper(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_core_ids() {
        let err = TamError::DuplicateCore {
            core: CoreId::new(4),
        };
        assert!(err.to_string().contains("core#4"));
    }

    #[test]
    fn wrapper_errors_forward() {
        let err = TamError::from(WrapperError::ZeroWidth);
        assert!(err.source().is_some());
    }
}
