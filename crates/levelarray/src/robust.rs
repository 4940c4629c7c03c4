//! Robustness telemetry: the counters the crash-recovery machinery exposes.
//!
//! Two layers feed one report.  [`crate::ElasticLevelArray`] accounts for the
//! **stuck-pin watchdog** — the age of the oldest active chain pin and how
//! many retirement/shrink passes were deferred while the capped backoff was
//! armed (see `docs/ROBUSTNESS.md` for the policy).  The optional
//! [`crate::lease::LeaseRegistry`] accounts for **orphan recovery** — names
//! quarantined because their holder stopped heartbeating, and names reclaimed
//! by the two-phase sweep.  [`RobustnessReport::merge`] combines the views,
//! which is what [`crate::lease::LeaseRegistry::robustness_report`] returns
//! for elastic arrays.

/// A point-in-time snapshot of the crash-robustness counters.
///
/// All counters are cumulative since construction except
/// [`RobustnessReport::quarantined`] and
/// [`RobustnessReport::oldest_pin_age_ms`], which describe the current
/// state.  Reports are cheap to take (a handful of relaxed loads plus one
/// stripe scan) and safe to take concurrently with live traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RobustnessReport {
    /// Names reclaimed from clients that stopped heartbeating (the lease
    /// sweep's second phase freed them back into the array).
    pub orphaned_reclaimed: u64,
    /// Names currently quarantined: their lease expired once, and they are
    /// reclaimed (or re-animated by a late heartbeat) on the next sweep.
    pub quarantined: usize,
    /// Age of the oldest currently-active chain pin in milliseconds, or
    /// `None` when no pins are active (always `None` for non-elastic
    /// arrays, which have no chain to pin).  Advisory and stripe-granular,
    /// and measured from the first time an observer (this report or a
    /// failed retirement pass) saw the pin's stripe busy, not from the pin
    /// itself: a pin first seen by this report reads 0.  See
    /// `EpochChain::oldest_pin_age_ms`.
    pub oldest_pin_age_ms: Option<u64>,
    /// Shrink attempts skipped because the stuck-pin watchdog's backoff was
    /// armed.
    pub deferred_shrinks: u64,
    /// Retirement passes skipped because the stuck-pin watchdog's backoff
    /// was armed.
    pub deferred_retirements: u64,
}

impl RobustnessReport {
    /// Combines two layers' views: counters add, the pin age takes the
    /// maximum (either layer may have no pins in sight).
    #[must_use]
    pub fn merge(self, other: RobustnessReport) -> RobustnessReport {
        RobustnessReport {
            orphaned_reclaimed: self.orphaned_reclaimed + other.orphaned_reclaimed,
            quarantined: self.quarantined + other.quarantined,
            oldest_pin_age_ms: match (self.oldest_pin_age_ms, other.oldest_pin_age_ms) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            deferred_shrinks: self.deferred_shrinks + other.deferred_shrinks,
            deferred_retirements: self.deferred_retirements + other.deferred_retirements,
        }
    }

    /// Whether the report shows any degradation at all — any orphan
    /// activity, quarantined names, or deferred maintenance.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.orphaned_reclaimed == 0
            && self.quarantined == 0
            && self.deferred_shrinks == 0
            && self.deferred_retirements == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_maxes_ages() {
        let a = RobustnessReport {
            orphaned_reclaimed: 2,
            quarantined: 1,
            oldest_pin_age_ms: Some(10),
            deferred_shrinks: 3,
            deferred_retirements: 4,
        };
        let b = RobustnessReport {
            orphaned_reclaimed: 1,
            quarantined: 0,
            oldest_pin_age_ms: Some(25),
            deferred_shrinks: 0,
            deferred_retirements: 1,
        };
        let m = a.merge(b);
        assert_eq!(m.orphaned_reclaimed, 3);
        assert_eq!(m.quarantined, 1);
        assert_eq!(m.oldest_pin_age_ms, Some(25));
        assert_eq!(m.deferred_shrinks, 3);
        assert_eq!(m.deferred_retirements, 5);
        assert!(!m.is_quiet());
    }

    #[test]
    fn merge_handles_missing_ages() {
        let quiet = RobustnessReport::default();
        assert!(quiet.is_quiet());
        let aged = RobustnessReport {
            oldest_pin_age_ms: Some(7),
            ..RobustnessReport::default()
        };
        assert_eq!(quiet.clone().merge(aged.clone()).oldest_pin_age_ms, Some(7));
        assert_eq!(aged.merge(quiet).oldest_pin_age_ms, Some(7));
    }
}
