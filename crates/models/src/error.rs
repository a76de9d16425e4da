//! Typed errors for the execution core (simulator, engines, `run::*`).
//!
//! Every precondition the simulator and the engines place on
//! user-supplied input — identifiers present and long enough, input
//! slices matching the node count, ports in range with reverse ports,
//! orientations covering every edge, algorithm outputs of the right
//! shape — surfaces as a [`RunError`] instead of a panic. Construction
//! goes through [`RunError::publish`], which bumps an
//! `errors/run/<kind>` counter in `locap-obs` so failing requests are
//! visible in `OBS_JSON` snapshots and the daemon's `stats`.

use std::fmt;

use locap_graph::GraphError;
use locap_obs as obs;

/// An error from running an algorithm over an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The algorithm needs identifiers but the run is anonymous
    /// (`ids: None`).
    MissingIds,
    /// The algorithm needs per-node inputs but none were supplied.
    MissingInputs,
    /// The algorithm needs an edge orientation but none was supplied.
    MissingOrientation,
    /// A per-node slice (`ids`, `inputs`, `rank`, ports) does not match
    /// the node count.
    InputLengthMismatch {
        /// Which slice is wrong (`"ids"`, `"inputs"`, `"rank"`, …).
        what: &'static str,
        /// Expected length (the instance's node count).
        expected: usize,
        /// Actual slice length.
        actual: usize,
    },
    /// The supplied orientation does not orient edge `{u, v}`.
    UnorientedEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A port number has no neighbour under the supplied numbering.
    PortOutOfRange {
        /// The node whose port is out of range.
        node: usize,
        /// The offending port.
        port: usize,
        /// The node's degree under the numbering.
        degree: usize,
    },
    /// The numbering has no reverse port for a delivered message.
    MissingReversePort {
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
    },
    /// An edge algorithm returned an output of the wrong length.
    OutputLengthMismatch {
        /// The node whose output is malformed.
        node: usize,
        /// Expected length (the node's degree).
        expected: usize,
        /// Actual output length.
        actual: usize,
    },
    /// A PO edge algorithm selected a letter absent at the node.
    AbsentLetter {
        /// The node.
        node: usize,
        /// Display form of the absent letter.
        letter: String,
    },
    /// The algorithm does not support this instance (e.g. a
    /// cycle-only algorithm on a node of degree ≠ 2).
    Unsupported {
        /// Human-readable reason.
        reason: String,
    },
    /// A structural error from the graph layer.
    Graph(GraphError),
}

impl RunError {
    /// Stable short name, used as the counter suffix.
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::MissingIds => "missing_ids",
            RunError::MissingInputs => "missing_inputs",
            RunError::MissingOrientation => "missing_orientation",
            RunError::InputLengthMismatch { .. } => "input_length",
            RunError::UnorientedEdge { .. } => "unoriented_edge",
            RunError::PortOutOfRange { .. } => "port_out_of_range",
            RunError::MissingReversePort { .. } => "missing_reverse_port",
            RunError::OutputLengthMismatch { .. } => "output_length",
            RunError::AbsentLetter { .. } => "absent_letter",
            RunError::Unsupported { .. } => "unsupported",
            RunError::Graph(_) => "graph",
        }
    }

    /// Publishes this error to the obs registry (`errors/run/<kind>`)
    /// and returns it. Every error-construction site in the execution
    /// core goes through this, so OBS_JSON snapshots count failures.
    pub fn publish(self) -> RunError {
        obs::counter(&format!("errors/run/{}", self.kind())).inc();
        self
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MissingIds => {
                write!(f, "algorithm needs identifiers but the run is anonymous")
            }
            RunError::MissingInputs => {
                write!(f, "algorithm needs per-node inputs but none were supplied")
            }
            RunError::MissingOrientation => {
                write!(f, "algorithm needs an edge orientation but none was supplied")
            }
            RunError::InputLengthMismatch { what, expected, actual } => {
                write!(f, "{what} slice has length {actual}, expected {expected}")
            }
            RunError::UnorientedEdge { u, v } => {
                write!(f, "orientation does not cover edge {{{u}, {v}}}")
            }
            RunError::PortOutOfRange { node, port, degree } => {
                write!(f, "port {port} out of range at node {node} (degree {degree})")
            }
            RunError::MissingReversePort { from, to } => {
                write!(f, "no reverse port for message {from} -> {to}")
            }
            RunError::OutputLengthMismatch { node, expected, actual } => {
                write!(f, "edge output at node {node} has length {actual}, expected {expected}")
            }
            RunError::AbsentLetter { node, letter } => {
                write!(f, "algorithm selected absent letter {letter} at node {node}")
            }
            RunError::Unsupported { reason } => write!(f, "unsupported instance: {reason}"),
            RunError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<GraphError> for RunError {
    fn from(e: GraphError) -> RunError {
        RunError::Graph(e).publish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(RunError::MissingIds.to_string().contains("anonymous"));
        let e = RunError::InputLengthMismatch { what: "ids", expected: 5, actual: 3 };
        assert_eq!(e.to_string(), "ids slice has length 3, expected 5");
        let e = RunError::UnorientedEdge { u: 1, v: 2 };
        assert!(e.to_string().contains("{1, 2}"));
        let e = RunError::PortOutOfRange { node: 0, port: 7, degree: 2 };
        assert!(e.to_string().contains("port 7"));
        let e = RunError::MissingReversePort { from: 3, to: 4 };
        assert!(e.to_string().contains("3 -> 4"));
        let e = RunError::OutputLengthMismatch { node: 9, expected: 3, actual: 1 };
        assert!(e.to_string().contains("node 9"));
        let e = RunError::AbsentLetter { node: 2, letter: "0'".into() };
        assert!(e.to_string().contains("0'"));
    }

    #[test]
    fn publish_counts_by_kind() {
        let before = obs::counter_value("errors/run/missing_ids");
        let e = RunError::MissingIds.publish();
        assert_eq!(e, RunError::MissingIds);
        assert_eq!(obs::counter_value("errors/run/missing_ids"), before + 1);
    }

    #[test]
    fn graph_error_converts_and_counts() {
        let before = obs::counter_value("errors/run/graph");
        let ge = locap_graph::Graph::new(2).add_edge(0, 5).unwrap_err();
        let e: RunError = ge.clone().into();
        assert_eq!(e, RunError::Graph(ge));
        assert_eq!(obs::counter_value("errors/run/graph"), before + 1);
        assert_eq!(e.kind(), "graph");
    }
}
