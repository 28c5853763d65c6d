//! Cooperative run control for the routing pipeline.
//!
//! Production routing runs must be *bounded*: a caller that grants the
//! router one second wants an answer — possibly partial — after one
//! second, not a panic and not an open-ended negotiation loop. This
//! crate provides the two primitives the rest of the workspace threads
//! through its stage configs:
//!
//! * [`CancelToken`] — a cheap, cloneable, cooperative cancellation
//!   handle. Hot loops poll [`CancelToken::is_cancelled`] (an atomic
//!   load when no deadline is armed) and charge search work through
//!   [`CancelToken::charge_expansion`]. Deadlines are injected as
//!   opaque probe closures so this crate itself never reads a clock —
//!   the workspace's single sanctioned clock site stays in
//!   `mebl-route`'s `Stopwatch`.
//! * [`Degradation`] — the record a stage emits when it gives
//!   something up (skipped nets, abandoned searches, internal
//!   fallbacks). Tokens double as the event sink: stages call
//!   [`CancelToken::record`], the driver drains the log with
//!   [`CancelToken::take_degradations`] and reports it on the final
//!   outcome. A degraded run is an *answer*, not an error — but it is
//!   never a silent one.
//!
//! The default token is inert: every check is a no-op returning
//! `false`, so unbudgeted runs behave (and hash) exactly as if the
//! token did not exist.

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// How often (in polls) an armed deadline probe is actually invoked.
///
/// Deadline probes read the clock; hot loops poll every node
/// expansion. Sampling every 64th poll keeps the overhead of a
/// budgeted run negligible while bounding deadline overshoot to a few
/// microseconds of extra work.
const PROBE_STRIDE: u64 = 64;

/// Pipeline stage a [`Degradation`] originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Benchmark circuit generation (`mebl-netlist`).
    Generate,
    /// Pre-flight circuit validation.
    Validate,
    /// Global tile routing and negotiation (`mebl-global`).
    Global,
    /// Layer/track assignment (`mebl-assign`).
    Assign,
    /// Detailed A* routing and rip-up rounds (`mebl-detailed`).
    Detailed,
    /// Stitch-rule geometry checking (`mebl-stitch`).
    Check,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::Generate => "generate",
            Stage::Validate => "validate",
            Stage::Global => "global",
            Stage::Assign => "assign",
            Stage::Detailed => "detailed",
            Stage::Check => "check",
        };
        f.write_str(name)
    }
}

/// What kind of shortcut a stage took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradationKind {
    /// Work was skipped because the run budget was exhausted.
    BudgetExhausted,
    /// An internal invariant did not hold and a safe fallback was
    /// taken instead of panicking.
    InternalFallback,
    /// The input was tolerated but imperfect.
    ValidationWarning,
    /// A windowed search exhausted every widening stage without
    /// connecting, and the net was left unrouted.
    SearchExhausted,
}

impl fmt::Display for DegradationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DegradationKind::BudgetExhausted => "budget-exhausted",
            DegradationKind::InternalFallback => "internal-fallback",
            DegradationKind::ValidationWarning => "validation-warning",
            DegradationKind::SearchExhausted => "search-exhausted",
        };
        f.write_str(name)
    }
}

/// One recorded give-up: which stage skipped what, and why.
///
/// Degradations describe work the run *abandoned* (budget skips,
/// invariant fallbacks) — ordinarily-unroutable nets are reported
/// through `RouteReport`, not here, so an unbudgeted healthy run
/// records zero degradations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Stage that degraded.
    pub stage: Stage,
    /// Category of the shortcut.
    pub kind: DegradationKind,
    /// Net index, when the record concerns a single net.
    pub net: Option<usize>,
    /// Human-readable description of what was skipped.
    pub detail: String,
}

impl Degradation {
    /// Convenience constructor.
    pub fn new(
        stage: Stage,
        kind: DegradationKind,
        net: Option<usize>,
        detail: impl Into<String>,
    ) -> Self {
        Self {
            stage,
            kind,
            net,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}] ", self.stage, self.kind)?;
        if let Some(net) = self.net {
            write!(f, "net {net}: ")?;
        }
        f.write_str(&self.detail)
    }
}

/// Why a token latched into the cancelled state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// The wall-clock deadline probe fired.
    Deadline,
    /// The cumulative expansion cap was reached.
    ExpansionCap,
    /// [`CancelToken::cancel`] was called.
    External,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CancelReason::Deadline => "deadline reached",
            CancelReason::ExpansionCap => "expansion cap reached",
            CancelReason::External => "cancelled by caller",
        };
        f.write_str(name)
    }
}

const REASON_NONE: u8 = 0;
const REASON_DEADLINE: u8 = 1;
const REASON_EXPANSIONS: u8 = 2;
const REASON_EXTERNAL: u8 = 3;

/// Opaque deadline probe: returns `true` once the deadline has passed.
///
/// Probes are built by the driver (from `mebl-route`'s `Stopwatch`) so
/// this crate stays clock-free.
pub type DeadlineProbe = Box<dyn Fn() -> bool + Send + Sync>;

struct Inner {
    cancelled: AtomicBool,
    reason: AtomicU8,
    expansions: AtomicU64,
    expansion_cap: u64,
    polls: AtomicU64,
    deadline: Option<DeadlineProbe>,
    events: Mutex<Vec<Degradation>>,
}

/// Cooperative cancellation handle shared by every stage of one run.
///
/// Clones share state: cancelling (or exhausting the budget through)
/// any clone cancels them all, and degradations recorded through any
/// clone land in the same log. The [`Default`] token is inert — it
/// never cancels, never records, and costs a single branch per check —
/// so configs embedding a token behave identically when no budget is
/// armed.
#[derive(Default, Clone)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// An inert token: never cancels, never records. Identical to
    /// [`CancelToken::default`].
    pub fn inert() -> Self {
        Self::default()
    }

    /// An armed token with optional expansion cap and deadline probe.
    ///
    /// An armed token records degradations even when both limits are
    /// absent (useful to surface internal fallbacks on healthy runs).
    pub fn armed(expansion_cap: Option<u64>, deadline: Option<DeadlineProbe>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                reason: AtomicU8::new(REASON_NONE),
                expansions: AtomicU64::new(0),
                expansion_cap: expansion_cap.unwrap_or(u64::MAX),
                polls: AtomicU64::new(0),
                deadline,
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this token can ever cancel or record anything.
    pub fn is_inert(&self) -> bool {
        self.inner.is_none()
    }

    /// Latches the token into the cancelled state.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.latch(REASON_EXTERNAL);
        }
    }

    /// Why the shared token latched, if it did.
    pub fn reason(&self) -> Option<CancelReason> {
        let inner = self.inner.as_ref()?;
        match inner.reason.load(Ordering::Relaxed) {
            REASON_DEADLINE => Some(CancelReason::Deadline),
            REASON_EXPANSIONS => Some(CancelReason::ExpansionCap),
            REASON_EXTERNAL => Some(CancelReason::External),
            _ => None,
        }
    }

    /// Cooperative check: should the current loop stop early?
    ///
    /// Loops call this at natural commit points (net boundaries,
    /// negotiation passes, rip-up rounds) so a cancelled run always
    /// leaves internally consistent state behind. Deadline probes are
    /// only sampled every [`PROBE_STRIDE`] polls.
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.cancelled.load(Ordering::Relaxed) || inner.sample_deadline())
    }

    /// Like [`is_cancelled`](Self::is_cancelled) but samples the
    /// deadline probe unconditionally. Used at stage boundaries where
    /// an accurate answer matters more than the clock read.
    pub fn is_cancelled_now(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.cancelled.load(Ordering::Relaxed) || inner.probe_deadline())
    }

    /// Charges `n` units of search work (node expansions) against the
    /// shared budget and returns `true` when the run should stop.
    ///
    /// Also samples the deadline every [`PROBE_STRIDE`] charges, so an
    /// A* loop needs exactly one call per popped node. Inlined so an
    /// inert token (no budget, no deadline) costs two branches in the
    /// caller's loop rather than a cross-crate call.
    #[inline]
    pub fn charge_expansions(&self, n: u64) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        let total = inner.expansions.fetch_add(n, Ordering::Relaxed) + n;
        if total >= inner.expansion_cap {
            inner.latch(REASON_EXPANSIONS);
            return true;
        }
        inner.sample_deadline()
    }

    /// Total expansions charged so far across all clones.
    pub fn expansions(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.expansions.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Appends a degradation record to the shared log. No-op on inert
    /// tokens.
    pub fn record(&self, degradation: Degradation) {
        if let Some(inner) = &self.inner {
            if let Ok(mut events) = inner.events.lock() {
                events.push(degradation);
            }
        }
    }

    /// Drains the shared degradation log.
    pub fn take_degradations(&self) -> Vec<Degradation> {
        match &self.inner {
            Some(inner) => match inner.events.lock() {
                Ok(mut events) => std::mem::take(&mut *events),
                Err(_) => Vec::new(),
            },
            None => Vec::new(),
        }
    }
}

impl Inner {
    fn latch(&self, reason: u8) {
        if !self.cancelled.swap(true, Ordering::Relaxed) {
            self.reason.store(reason, Ordering::Relaxed);
        }
    }

    /// Samples the deadline probe on every [`PROBE_STRIDE`]-th call;
    /// latches on expiry.
    #[inline]
    fn sample_deadline(&self) -> bool {
        self.deadline.is_some()
            && self.polls.fetch_add(1, Ordering::Relaxed).is_multiple_of(PROBE_STRIDE)
            && self.probe_deadline()
    }

    /// Samples the deadline probe; latches on expiry.
    fn probe_deadline(&self) -> bool {
        match &self.deadline {
            Some(probe) if probe() => {
                self.latch(REASON_DEADLINE);
                true
            }
            _ => false,
        }
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("armed", &self.inner.is_some())
            .field("cancelled", &self.reason())
            .field("expansions", &self.expansions())
            .finish()
    }
}

/// Tokens compare by identity: two clones of the same run compare
/// equal, and all inert tokens compare equal. This keeps the stage
/// configs that embed a token `PartialEq`/`Eq` without pretending the
/// token's mutable state is part of the configuration.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for CancelToken {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_cancels_or_records() {
        let token = CancelToken::default();
        assert!(token.is_inert());
        assert!(!token.is_cancelled());
        assert!(!token.charge_expansions(1 << 40));
        token.record(Degradation::new(
            Stage::Global,
            DegradationKind::BudgetExhausted,
            None,
            "ignored",
        ));
        assert!(token.take_degradations().is_empty());
        assert_eq!(token.reason(), None);
    }

    #[test]
    fn expansion_cap_latches_all_clones() {
        let token = CancelToken::armed(Some(10), None);
        let clone = token.clone();
        assert!(!clone.charge_expansions(9));
        assert!(clone.charge_expansions(1));
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), Some(CancelReason::ExpansionCap));
        assert_eq!(token.expansions(), 10);
    }

    #[test]
    fn explicit_cancel_latches() {
        let token = CancelToken::armed(None, None);
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), Some(CancelReason::External));
    }

    #[test]
    fn deadline_probe_is_sampled_and_latches() {
        use std::sync::atomic::AtomicBool;
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        let token = CancelToken::armed(None, Some(Box::new(move || flag.load(Ordering::Relaxed))));
        assert!(!token.is_cancelled_now());
        fired.store(true, Ordering::Relaxed);
        assert!(token.is_cancelled_now());
        assert_eq!(token.reason(), Some(CancelReason::Deadline));
        // Once latched, even the rate-limited check reports it.
        assert!(token.is_cancelled());
    }

    #[test]
    fn records_are_shared_across_clones_and_drained_once() {
        let token = CancelToken::armed(None, None);
        let clone = token.clone();
        clone.record(Degradation::new(
            Stage::Detailed,
            DegradationKind::InternalFallback,
            Some(7),
            "path end missing",
        ));
        let drained = token.take_degradations();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].net, Some(7));
        assert!(token.take_degradations().is_empty());
    }

    #[test]
    fn token_equality_is_identity() {
        let a = CancelToken::armed(None, None);
        let b = CancelToken::armed(None, None);
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        assert_eq!(CancelToken::default(), CancelToken::inert());
        assert_ne!(a, CancelToken::default());
    }

    #[test]
    fn display_formats_are_single_line() {
        let d = Degradation::new(
            Stage::Global,
            DegradationKind::BudgetExhausted,
            Some(3),
            "negotiation passes 2..3 skipped",
        );
        let line = d.to_string();
        assert_eq!(line, "[global/budget-exhausted] net 3: negotiation passes 2..3 skipped");
        assert!(!line.contains('\n'));
    }
}
