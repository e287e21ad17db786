//! Fleet-level errors.

use exegpt_serve::ServeError;

/// Errors raised by the fleet fabric.
#[derive(Debug)]
pub enum FleetError {
    /// A replica's serving loop failed (stall, infeasible schedule,
    /// unsurvivable failover).
    Serve(ServeError),
    /// A fleet configuration was invalid.
    InvalidConfig {
        /// Which configuration item.
        what: &'static str,
        /// Why it was rejected.
        why: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Serve(e) => write!(f, "replica serving loop failed: {e}"),
            FleetError::InvalidConfig { what, why } => {
                write!(f, "invalid fleet config `{what}`: {why}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Serve(e) => Some(e),
            FleetError::InvalidConfig { .. } => None,
        }
    }
}

impl From<ServeError> for FleetError {
    fn from(e: ServeError) -> Self {
        FleetError::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FleetError::InvalidConfig { what: "classes", why: "must be non-empty".into() };
        assert!(e.to_string().contains("classes"));
    }
}
