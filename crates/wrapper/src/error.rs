//! Error type for wrapper design.

use std::error::Error;
use std::fmt;

/// Errors produced by wrapper design and test-time computation.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::CoreSpec;
/// use soctam_wrapper::{WrapperDesign, WrapperError};
///
/// let core = CoreSpec::new("c", 1, 1, 0, vec![], 1)?;
/// assert_eq!(
///     WrapperDesign::design(&core, 0).unwrap_err(),
///     WrapperError::ZeroWidth
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WrapperError {
    /// A wrapper cannot be designed for a zero-width TAM.
    ZeroWidth,
    /// The TAM width exceeds [`MAX_TAM_WIDTH`](crate::MAX_TAM_WIDTH).
    WidthTooLarge {
        /// The requested width.
        width: u32,
        /// The largest width accepted.
        max: u32,
    },
}

impl fmt::Display for WrapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WrapperError::ZeroWidth => write!(f, "tam width must be at least 1"),
            WrapperError::WidthTooLarge { width, max } => {
                write!(f, "tam width {width} exceeds the limit of {max} wires")
            }
        }
    }
}

impl Error for WrapperError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_meaningful() {
        assert!(WrapperError::ZeroWidth.to_string().contains("width"));
        let too_large = WrapperError::WidthTooLarge {
            width: 5000,
            max: 4096,
        };
        assert_eq!(
            too_large.to_string(),
            "tam width 5000 exceeds the limit of 4096 wires"
        );
    }
}
