//! Run budgets and the typed failure model of the routing flow.

use crate::Stopwatch;
use mebl_control::{CancelToken, DeadlineProbe};
use mebl_netlist::CircuitIssue;
use std::time::Duration;

/// Resource bounds for one routing run.
///
/// The default budget is unlimited and adds no overhead beyond one
/// atomic load per cooperative check; results are bit-identical to an
/// unbudgeted run. When a bound is set, the run degrades gracefully
/// instead of failing: stages stop at net/pass boundaries, skipped work
/// is recorded as [`Degradation`](mebl_control::Degradation)s on the
/// outcome, and the partial result still satisfies every hard MEBL
/// constraint (see `tests/robustness.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock deadline for the whole run. The clock starts when the
    /// run starts; the single sanctioned clock site ([`Stopwatch`])
    /// keeps deadline probes out of the determinism-linted crates.
    pub time: Option<Duration>,
    /// Cap on total search-node expansions (global + detailed A\*).
    /// Deterministic, unlike wall-clock bounds — preferred in tests.
    pub max_expansions: Option<u64>,
}

impl RunBudget {
    /// No bounds (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Budget with only a wall-clock deadline.
    pub fn with_time(limit: Duration) -> Self {
        Self {
            time: Some(limit),
            ..Self::default()
        }
    }

    /// Budget with only an expansion cap.
    pub fn with_max_expansions(cap: u64) -> Self {
        Self {
            max_expansions: Some(cap),
            ..Self::default()
        }
    }

    /// Whether the budget is spent before any work can happen.
    pub fn is_dead_on_arrival(&self) -> bool {
        self.time == Some(Duration::ZERO) || self.max_expansions == Some(0)
    }

    /// Arms a run-wide [`CancelToken`] for this budget alone: the
    /// deadline clock starts now.
    pub fn arm(&self) -> CancelToken {
        self.arm_under(&CancelToken::inert())
    }

    /// Arms a run-wide [`CancelToken`] that also honors an external
    /// `interrupt` token: the run cancels when either this budget's
    /// deadline passes or `interrupt` latches. A service uses this to
    /// compose server shutdown into every in-flight job without giving
    /// jobs a way to cancel each other — `interrupt` stays owned by the
    /// caller; only its cancelled state is observed. An inert
    /// `interrupt` adds no probe, so an unbudgeted run arms a token
    /// with no deadline at all. The deadline clock starts now.
    ///
    /// Public so out-of-crate drivers (e.g. the delta router) can run
    /// individual stages under the same budget machinery the full flow
    /// uses.
    pub fn arm_under(&self, interrupt: &CancelToken) -> CancelToken {
        let time_probe = self.time.map(|limit| {
            let sw = Stopwatch::start();
            move || sw.elapsed() >= limit
        });
        let probe: Option<DeadlineProbe> = if interrupt.is_inert() {
            time_probe.map(|p| Box::new(p) as DeadlineProbe)
        } else {
            let interrupt = interrupt.clone();
            Some(Box::new(move || {
                interrupt.is_cancelled_now() || time_probe.as_ref().is_some_and(|p| p())
            }))
        };
        CancelToken::armed(self.max_expansions, probe)
    }
}

/// Typed failure of [`Router::try_route`](crate::Router::try_route).
///
/// Degraded-but-usable outcomes are *not* errors — they come back as a
/// [`RoutingOutcome`](crate::RoutingOutcome) with recorded
/// degradations. An error means the run produced no result at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The router configuration itself is unusable (e.g. a non-positive
    /// stitch period).
    InvalidConfig(String),
    /// Pre-flight validation found error-severity issues; the full list
    /// is attached.
    InvalidCircuit(Vec<CircuitIssue>),
    /// The budget was exhausted before any routing could start.
    BudgetExhausted,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RouteError::InvalidCircuit(issues) => {
                let errors: Vec<&CircuitIssue> =
                    issues.iter().filter(|i| i.is_error()).collect();
                match errors.split_first() {
                    Some((first, [])) => write!(f, "invalid circuit: {first}"),
                    Some((first, rest)) => {
                        write!(f, "invalid circuit: {first} (+{} more)", rest.len())
                    }
                    None => write!(f, "invalid circuit"),
                }
            }
            RouteError::BudgetExhausted => {
                write!(f, "budget exhausted before routing could start")
            }
        }
    }
}

impl std::error::Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_default_and_not_dead() {
        let b = RunBudget::default();
        assert_eq!((b.time, b.max_expansions), (None, None));
        assert!(!b.is_dead_on_arrival());
        assert_eq!(b, RunBudget::unlimited());
    }

    #[test]
    fn zero_bounds_are_dead_on_arrival() {
        assert!(RunBudget::with_time(Duration::ZERO).is_dead_on_arrival());
        assert!(RunBudget::with_max_expansions(0).is_dead_on_arrival());
        assert!(!RunBudget::with_max_expansions(1).is_dead_on_arrival());
    }

    #[test]
    fn armed_token_enforces_expansion_cap() {
        let token = RunBudget::with_max_expansions(5).arm();
        assert!(!token.charge_expansions(4));
        assert!(token.charge_expansions(1));
        assert!(token.is_cancelled());
    }

    #[test]
    fn deadline_probe_uses_the_stopwatch() {
        // A zero deadline fires on the first unconditional probe.
        let token = RunBudget::with_time(Duration::ZERO).arm();
        assert!(token.is_cancelled_now());
    }

    #[test]
    fn arm_under_follows_a_live_interrupt_only() {
        let free = RunBudget::default().arm_under(&CancelToken::inert());
        assert!(!free.is_inert(), "an armed token still records");
        assert!(!free.is_cancelled_now());

        let outer = CancelToken::armed(None, None);
        let run = RunBudget::default().arm_under(&outer);
        assert!(!run.is_cancelled_now());
        outer.cancel();
        assert!(run.is_cancelled_now());
        // Cancelling the run never latches the interrupt it observes.
        let outer = CancelToken::armed(None, None);
        RunBudget::default().arm_under(&outer).cancel();
        assert!(!outer.is_cancelled_now());
    }

    #[test]
    fn error_messages_are_single_line() {
        for e in [
            RouteError::InvalidConfig("stitch period must be positive".into()),
            RouteError::BudgetExhausted,
        ] {
            assert!(!e.to_string().contains('\n'));
        }
    }
}
