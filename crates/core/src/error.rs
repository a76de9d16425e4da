use std::fmt;

use locap_graph::budget::TruncationReason;
use locap_groups::GroupError;
use locap_models::RunError;

/// Errors from the constructions of the main theorems.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// No generator set of the requested size and girth was found within
    /// the search budget.
    GeneratorSearchFailed {
        /// Number of generators requested.
        k: usize,
        /// Girth bound required (`> 2r + 1`).
        girth_bound: usize,
        /// Human-readable context.
        detail: String,
    },
    /// The requested construction parameters exceed what can be
    /// materialised (group order too large).
    TooLarge {
        /// Description of the blow-up.
        reason: String,
    },
    /// A verification step failed — the constructed object does not have
    /// the property the theorem promises (indicates a bug or bad inputs).
    VerificationFailed {
        /// Which property failed.
        property: String,
    },
    /// Invalid parameters.
    BadParameters {
        /// Description of the defect.
        reason: String,
    },
    /// A model run inside the pipeline rejected its input.
    Run(RunError),
    /// A [`locap_graph::budget::RunBudget`] cut a report-shaped pipeline
    /// short: no meaningful partial report exists, so the truncation is
    /// an error carrying the stage it interrupted. (Value-shaped runs
    /// return their partial prefix via
    /// [`locap_graph::budget::Budgeted`] instead.)
    Truncated {
        /// Which pipeline stage was interrupted.
        stage: &'static str,
        /// Why the budget stopped it.
        reason: TruncationReason,
    },
}

impl CoreError {
    /// Stable machine-readable tag for structured error responses. The
    /// `locapd` wire protocol namespaces it: `Run` errors become
    /// `run/<RunError::kind>`, `Truncated` becomes
    /// `truncated/<TruncationReason::kind>`, and the remaining variants
    /// become `core/<kind>`.
    pub fn kind(&self) -> &'static str {
        match self {
            CoreError::GeneratorSearchFailed { .. } => "generator_search_failed",
            CoreError::TooLarge { .. } => "too_large",
            CoreError::VerificationFailed { .. } => "verification_failed",
            CoreError::BadParameters { .. } => "bad_parameters",
            CoreError::Run(e) => e.kind(),
            CoreError::Truncated { .. } => "truncated",
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::GeneratorSearchFailed { k, girth_bound, detail } => {
                write!(f, "no {k}-generator set with girth > {girth_bound} found: {detail}")
            }
            CoreError::TooLarge { reason } => write!(f, "construction too large: {reason}"),
            CoreError::VerificationFailed { property } => {
                write!(f, "verification failed: {property}")
            }
            CoreError::BadParameters { reason } => write!(f, "bad parameters: {reason}"),
            CoreError::Run(e) => write!(f, "model run failed: {e}"),
            CoreError::Truncated { stage, reason } => {
                write!(f, "budget exhausted during {stage}: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RunError> for CoreError {
    fn from(e: RunError) -> CoreError {
        // Already published at its construction site (`RunError::publish`);
        // wrapping adds no second count.
        CoreError::Run(e)
    }
}

impl From<GroupError> for CoreError {
    /// A group that rejects its parameters rejects the pipeline's: the
    /// group's reason is carried as is, so the message says "bad
    /// parameters" once.
    fn from(e: GroupError) -> CoreError {
        match e {
            GroupError::BadParameters { reason } => CoreError::BadParameters { reason },
            other => CoreError::BadParameters { reason: other.to_string() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = CoreError::GeneratorSearchFailed { k: 2, girth_bound: 5, detail: "x".into() };
        assert!(e.to_string().contains("girth > 5"));
        assert!(CoreError::TooLarge { reason: "6^15".into() }.to_string().contains("6^15"));
        let e: Box<dyn std::error::Error> =
            Box::new(CoreError::VerificationFailed { property: "girth".into() });
        assert!(e.to_string().contains("girth"));
    }

    #[test]
    fn run_and_truncated_variants() {
        let e: CoreError = RunError::MissingIds.into();
        assert!(matches!(e, CoreError::Run(RunError::MissingIds)));
        assert!(e.to_string().contains("identifiers"));
        let t = CoreError::Truncated {
            stage: "mask sweep",
            reason: TruncationReason::RoundLimit { limit: 4 },
        };
        assert!(t.to_string().contains("mask sweep"));
    }

    #[test]
    fn group_parameter_errors_print_one_prefix() {
        let e = locap_groups::IterGroup::finite(1, 7).map_err(CoreError::from).unwrap_err();
        assert_eq!(e.to_string(), "bad parameters: modulus 7 must be even and >= 2");
        let e = CoreError::from(GroupError::BadGenerators { reason: "dup".into() });
        assert_eq!(e.to_string(), "bad parameters: bad generators: dup");
    }
}
