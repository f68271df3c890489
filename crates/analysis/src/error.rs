//! Error type for trace analysis.

use std::error::Error;
use std::fmt;

/// Errors raised by the analysis utilities.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// A series was used where at least `needed` samples are required.
    NotEnoughSamples {
        /// Samples required.
        needed: usize,
        /// Samples available.
        available: usize,
    },
    /// Samples were not in strictly increasing time order.
    UnsortedSamples,
    /// A parameter was out of its domain.
    InvalidParameter(&'static str),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NotEnoughSamples { needed, available } => {
                write!(f, "not enough samples: need {needed}, have {available}")
            }
            AnalysisError::UnsortedSamples => write!(f, "samples must strictly increase in time"),
            AnalysisError::InvalidParameter(why) => write!(f, "invalid parameter: {why}"),
        }
    }
}

impl Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = AnalysisError::NotEnoughSamples { needed: 2, available: 0 };
        assert!(e.to_string().contains("need 2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + std::error::Error>() {}
        check::<AnalysisError>();
    }
}
