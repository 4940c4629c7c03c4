//! Panic-safety and crash-robustness storms across the suite's facades.
//!
//! Two tiers share this file:
//!
//! * **Always-on tests** (no cfg) exercise the panic paths reachable without
//!   fault injection — operations that panic inside the flat-combining
//!   engine, leases abandoned by clients that never release, watchdog
//!   telemetry on healthy traffic.  They run in tier-1 (`cargo test`).
//! * **Seeded crash storms** (`mod storm`, compiled under
//!   `RUSTFLAGS="--cfg la_fault"`, see `make fault` / `make fault-storm`)
//!   arm the `la_fault` failpoints threaded through `probe_core`, `packed`,
//!   `epoch_chain`, `elastic`, the registry, reclamation and the combiner,
//!   and assert the invariants of `docs/ROBUSTNESS.md`: an operation that
//!   unwinds leaks nothing it did not already own, a dead combiner hands
//!   off, the lease sweep recovers every orphan, and the stuck-pin watchdog
//!   defers — but never unlinks — under a live pin.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use la_flatcombine::FlatCombining;
use larng::default_rng;
use levelarray::lease::{LeaseClock, LeaseRegistry, ManualClock};
use levelarray::{
    ActivityArray, ElasticLevelArray, GrowthPolicy, LevelArray, ShardedLevelArray, ThreadRegistry,
};

/// The sequential semantics used by every combining test: fetch-and-add,
/// with one poison value whose application panics *before* mutating.
fn guarded_adder(seq: &mut u64, delta: u64) -> u64 {
    assert_ne!(delta, u64::MAX, "poison operation");
    let old = *seq;
    *seq += delta;
    old
}

/// The storm tests arm `la_fault`'s process-global plan, so under
/// `--cfg la_fault` every test in this binary — the always-on ones included
/// — serializes on one gate and clears any leftover plan before running.
/// Without the cfg there is nothing to protect against and this is free.
#[cfg(la_fault)]
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive() -> Option<std::sync::MutexGuard<'static, ()>> {
    #[cfg(la_fault)]
    {
        let gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        la_fault::reset();
        Some(gate)
    }
    #[cfg(not(la_fault))]
    None
}

#[test]
fn a_panicking_operation_surfaces_on_its_owner_not_the_engine() {
    let _gate = exclusive();
    let fc = FlatCombining::new(Arc::new(LevelArray::new(4)), 0u64, guarded_adder);
    let mut rng = default_rng(1);
    let session = fc.join(&mut rng);
    assert_eq!(session.execute(5), 0);

    // The poison op panics inside the combiner; the payload must resurface
    // here, on the owner...
    let payload = catch_unwind(AssertUnwindSafe(|| session.execute(u64::MAX)))
        .expect_err("the poison operation must panic");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("poison operation"),
        "unexpected payload: {message:?}"
    );

    // ...and the engine must keep working: same session, same lock.
    assert_eq!(session.execute(7), 5);
    assert_eq!(fc.with_sequential(|s| *s), 12);
    drop(session);
    assert!(fc.registry().collect().is_empty(), "slot leaked");
}

#[test]
fn concurrent_panicking_operations_lose_no_other_operation() {
    let _gate = exclusive();
    let threads = 4;
    let per_thread = 500u64;
    let fc = Arc::new(FlatCombining::new(
        Arc::new(LevelArray::new(threads)),
        0u64,
        guarded_adder,
    ));

    std::thread::scope(|scope| {
        for t in 0..threads {
            let fc = Arc::clone(&fc);
            scope.spawn(move || {
                let mut rng = default_rng(300 + t as u64);
                let session = fc.join(&mut rng);
                for i in 0..per_thread {
                    if i % 7 == 3 {
                        // A poison op panics before mutating: it must cost
                        // nothing and poison nothing.
                        let err = catch_unwind(AssertUnwindSafe(|| session.execute(u64::MAX)));
                        assert!(err.is_err());
                    } else {
                        let _ = session.execute(1);
                    }
                }
            });
        }
    });

    let expected: u64 = (0..per_thread).filter(|i| i % 7 != 3).count() as u64 * threads as u64;
    assert_eq!(fc.with_sequential(|s| *s), expected);
    assert!(fc.registry().collect().is_empty());
}

#[test]
fn lease_sweep_recovers_clients_that_never_release_on_a_sharded_array() {
    let _gate = exclusive();
    let clock = Arc::new(ManualClock::new());
    let registry = LeaseRegistry::with_clock(
        ThreadRegistry::new(ShardedLevelArray::new(32, 4), 77),
        100,
        Arc::clone(&clock) as Arc<dyn LeaseClock>,
    );

    // Six clients register; half "crash" (drop the lease without releasing
    // and stop heartbeating), half stay live.
    let mut live = Vec::new();
    for i in 0..6 {
        let lease = registry.register();
        if i % 2 == 0 {
            live.push(lease);
        } // else: abandoned
    }
    assert_eq!(registry.collect().len(), 6);

    // One lease later the dead clients are quarantined, the live ones beat.
    clock.advance(150);
    for lease in &live {
        assert!(registry.heartbeat(lease));
    }
    let first = registry.sweep();
    assert_eq!(first.newly_quarantined, 3);
    assert_eq!(first.reclaimed, 0);

    // Another lease later the quarantined names are reclaimed; the live
    // clients are untouched.
    clock.advance(150);
    for lease in &live {
        assert!(registry.heartbeat(lease));
    }
    let second = registry.sweep();
    assert_eq!(second.reclaimed, 3);
    let report = registry.lease_report();
    assert_eq!(report.orphaned_reclaimed, 3);
    assert_eq!(report.quarantined, 0);

    for lease in live {
        assert!(registry.release(lease));
    }
    assert!(registry.collect().is_empty());
}

#[test]
fn watchdog_telemetry_stays_quiet_on_healthy_elastic_traffic() {
    let _gate = exclusive();
    let array = ElasticLevelArray::new(4, GrowthPolicy::Doubling { max_epochs: 3 });
    let mut rng = default_rng(9);
    for _ in 0..50 {
        let names: Vec<_> = (0..4)
            .filter_map(|_| array.try_get(&mut rng))
            .map(|got| got.name())
            .collect();
        for name in names {
            array.free(name);
        }
    }
    let report = array.robustness_report();
    assert!(report.is_quiet(), "healthy traffic degraded: {report:?}");
    assert_eq!(
        report.oldest_pin_age_ms, None,
        "no pin is active between operations"
    );
}

/// Seeded crash storms: compiled only when the failpoints are live.
#[cfg(la_fault)]
mod storm {
    use super::*;
    use la_fault::{FaultAction, FaultPlan};
    use la_reclaim::ReclaimDomain;
    use levelarray::{LevelArrayConfig, Name};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Takes the binary-wide [`super::GATE`] (shared with the always-on
    /// tests — the plan is process-global), clears leftover state, and arms
    /// `plan`.
    fn armed(plan: FaultPlan) -> std::sync::MutexGuard<'static, ()> {
        let gate = super::GATE.lock().unwrap_or_else(|e| e.into_inner());
        la_fault::reset();
        la_fault::install_quiet_hook();
        la_fault::configure(plan);
        gate
    }

    /// `make fault-storm` re-seeds the storms through `LA_FAULT_SEED`; the
    /// plan *shape* (rates, site filters, trigger-only plans) stays with
    /// each test — only the decision seed moves.
    fn seed(default: u64) -> u64 {
        std::env::var("LA_FAULT_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// What a worker should do with a panic it caught.
    enum Caught {
        /// A [`la_fault::ThreadDeath`]: the simulated client is gone and
        /// abandons everything it holds.
        Died,
        /// A [`la_fault::FaultPanic`]: the operation unwound and rolled
        /// back; the client lives on.
        RolledBack,
    }

    fn classify(payload: Box<dyn std::any::Any + Send>) -> Caught {
        if payload.downcast_ref::<la_fault::ThreadDeath>().is_some() {
            return Caught::Died;
        }
        if la_fault::is_injected(payload.as_ref()) {
            return Caught::RolledBack;
        }
        // A genuine bug: let the harness see it.
        std::panic::resume_unwind(payload)
    }

    /// Frees a batch under live fault injection.  `free_many` may unwind
    /// mid-batch (its per-epoch kernels each carry a pre-effect site), so
    /// recovery consults `Collect` for which of *our* names are still held
    /// and retries exactly those.
    fn free_batch_with_recovery(array: &dyn ActivityArray, names: &mut Vec<Name>) {
        while !names.is_empty() {
            match catch_unwind(AssertUnwindSafe(|| array.free_many(names))) {
                Ok(()) => names.clear(),
                Err(payload) => {
                    match classify(payload) {
                        Caught::Died | Caught::RolledBack => {}
                    }
                    let held: HashSet<Name> = array.collect().into_iter().collect();
                    names.retain(|name| held.contains(name));
                }
            }
        }
    }

    /// The core storm: `threads` clients hammer get/get_many/free under the
    /// armed plan.  A client that draws [`la_fault::ThreadDeath`] abandons
    /// its names (returned as orphans); every other unwind must roll back
    /// completely.  After the storm, `Collect` must show *exactly* the
    /// orphans — nothing leaked, nothing lost.
    fn run_storm(array: &dyn ActivityArray, seed: u64, threads: usize, iters: usize) {
        let orphans: Vec<Name> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut rng = default_rng(seed ^ (0xA5A5 * (t as u64 + 1)));
                        let mut held: Vec<Name> = Vec::new();
                        let mut out = Vec::new();
                        for i in 0..iters {
                            if held.len() >= 8 || (i % 3 == 0 && !held.is_empty()) {
                                let name = *held.last().expect("nonempty");
                                match catch_unwind(AssertUnwindSafe(|| array.free(name))) {
                                    // `free` is all-or-nothing: success pops...
                                    Ok(()) => {
                                        held.pop();
                                    }
                                    Err(payload) => match classify(payload) {
                                        Caught::Died => return held,
                                        // ...and an unwind means it never
                                        // happened — retry next round.
                                        Caught::RolledBack => {}
                                    },
                                }
                            } else if i % 5 == 4 {
                                out.clear();
                                match catch_unwind(AssertUnwindSafe(|| {
                                    array.get_many(&mut rng, 3, &mut out)
                                })) {
                                    Ok(_) => {
                                        held.extend(out.drain(..).map(|got| got.name()));
                                    }
                                    Err(payload) => match classify(payload) {
                                        Caught::Died => return held,
                                        Caught::RolledBack => {
                                            assert!(
                                                out.is_empty(),
                                                "get_many unwound but left wins behind"
                                            );
                                        }
                                    },
                                }
                            } else {
                                match catch_unwind(AssertUnwindSafe(|| array.try_get(&mut rng))) {
                                    Ok(Some(got)) => held.push(got.name()),
                                    Ok(None) => {}
                                    Err(payload) => match classify(payload) {
                                        Caught::Died => return held,
                                        Caught::RolledBack => {}
                                    },
                                }
                            }
                        }
                        // Graceful shutdown: drain everything, still under fire.
                        free_batch_with_recovery(array, &mut held);
                        held
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker hit a genuine panic"))
                .collect()
        });

        assert!(
            la_fault::hits_total() > 0,
            "the storm never hit a failpoint"
        );
        la_fault::reset();

        // The registered set is exactly what the dead clients still hold.
        let held: HashSet<Name> = array.collect().into_iter().collect();
        let orphan_set: HashSet<Name> = orphans.iter().copied().collect();
        assert_eq!(orphan_set.len(), orphans.len(), "orphan name duplicated");
        assert_eq!(
            held, orphan_set,
            "Collect after the storm disagrees with the dead clients' holdings"
        );

        // Simulated recovery (what the lease sweep automates): free the
        // orphans and the array must come back spotless.
        for name in orphans {
            array.free(name);
        }
        assert!(array.collect().is_empty(), "names leaked through the storm");
    }

    #[test]
    fn storm_level_array_rolls_back_to_exactly_the_orphan_set() {
        let seed = seed(0xD15EA5E);
        let _gate = armed(FaultPlan::storm(seed));
        let array = LevelArray::new(64);
        run_storm(&array, seed, 4, 400);
        la_fault::reset();
    }

    #[test]
    fn storm_sharded_array_rolls_back_to_exactly_the_orphan_set() {
        let seed = seed(0x5EED_CAFE);
        let _gate = armed(FaultPlan::storm(seed));
        let array = ShardedLevelArray::new(64, 4);
        run_storm(&array, seed, 4, 400);
        la_fault::reset();
    }

    #[test]
    fn storm_elastic_array_rolls_back_and_epochs_still_collapse() {
        let seed = seed(0xE1A5_71C0);
        let _gate = armed(FaultPlan::storm(seed));
        let array = ElasticLevelArray::new(8, GrowthPolicy::Doubling { max_epochs: 4 });
        run_storm(&array, seed, 4, 400);
        // With the array empty and the faults cleared, retirement must make
        // progress back down to a single epoch.
        for _ in 0..64 {
            if array.num_epochs() == 1 {
                break;
            }
            array.try_retire();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(array.num_epochs(), 1, "drained epochs failed to retire");
        la_fault::reset();
    }

    #[test]
    fn lease_storm_reclaims_every_abandoned_lease() {
        let _gate = armed(FaultPlan::storm(seed(0x0DD_B17E5)));
        let clock = Arc::new(ManualClock::new());
        let array = ElasticLevelArray::new(8, GrowthPolicy::Doubling { max_epochs: 4 });
        let registry = Arc::new(LeaseRegistry::with_clock(
            ThreadRegistry::new(array, 42),
            100,
            Arc::clone(&clock) as Arc<dyn LeaseClock>,
        ));

        let abandoned_total: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let registry = Arc::clone(&registry);
                    scope.spawn(move || {
                        let mut leases = Vec::new();
                        // Leases granted but lost to an unwind: a fault at
                        // the post-insert `lease::register` site fires after
                        // the grant, so the lease exists with no handle —
                        // an orphan only the sweep can recover.  Any other
                        // site in the register path is pre-grant (the
                        // registration guard rolls the slot back).
                        let mut handleless = 0usize;
                        'life: for i in 0..200 {
                            if leases.len() < 3 {
                                match catch_unwind(AssertUnwindSafe(|| registry.register())) {
                                    Ok(lease) => leases.push(lease),
                                    Err(payload) => {
                                        if la_fault::injected_site(payload.as_ref())
                                            == Some("lease::register")
                                        {
                                            handleless += 1;
                                        }
                                        match classify(payload) {
                                            Caught::Died => break 'life,
                                            Caught::RolledBack => {}
                                        }
                                    }
                                }
                            } else {
                                // Release the oldest, retrying rolled-back
                                // attempts (release puts the lease back on
                                // unwind, so retrying is always safe).
                                let lease = leases.remove(0);
                                loop {
                                    let attempt = lease.clone();
                                    match catch_unwind(AssertUnwindSafe(|| {
                                        registry.release(attempt)
                                    })) {
                                        Ok(_) => break,
                                        Err(payload) => match classify(payload) {
                                            Caught::Died => {
                                                leases.push(lease);
                                                break 'life;
                                            }
                                            Caught::RolledBack => {}
                                        },
                                    }
                                }
                            }
                            if i % 5 == t {
                                for lease in &leases {
                                    registry.heartbeat(lease);
                                }
                            }
                        }
                        // Whatever is left is abandoned: the client is gone
                        // and will never beat again.  The handleless grants
                        // were never beatable at all.
                        leases.len() + handleless
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker hit a genuine panic"))
                .sum()
        });

        assert!(la_fault::hits_total() > 0);
        la_fault::reset();

        // Two sweeps a full lease apart quarantine and then reclaim every
        // abandoned name.
        clock.advance(150);
        let first = registry.sweep();
        assert_eq!(first.newly_quarantined, abandoned_total);
        clock.advance(150);
        let second = registry.sweep();
        assert_eq!(second.reclaimed, abandoned_total);

        let report = registry.robustness_report();
        assert_eq!(report.orphaned_reclaimed as usize, abandoned_total);
        assert_eq!(report.quarantined, 0);
        assert!(registry.collect().is_empty(), "orphans survived the sweep");

        // Collect is consistent and the epochs collapse now that every
        // name is home.
        let array = registry.registry().array();
        for _ in 0..64 {
            if array.num_epochs() == 1 {
                break;
            }
            array.try_retire();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(array.num_epochs(), 1);
        la_fault::reset();
    }

    #[test]
    fn combiner_storm_hands_off_and_never_wedges() {
        let _gate = armed(FaultPlan::storm(seed(0xFC0_FA11)).only_sites("flatcombine"));
        let threads = 4;
        let per_thread = 300u64;
        let fc = Arc::new(FlatCombining::new(
            Arc::new(LevelArray::new(threads)),
            0u64,
            guarded_adder,
        ));

        let applied_for_sure: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let fc = Arc::clone(&fc);
                    scope.spawn(move || {
                        let mut rng = default_rng(900 + t as u64);
                        let session = fc.join(&mut rng);
                        let mut confirmed = 0u64;
                        for _ in 0..per_thread {
                            match catch_unwind(AssertUnwindSafe(|| session.execute(1))) {
                                Ok(_) => confirmed += 1,
                                Err(payload) => match classify(payload) {
                                    // Dying drops the session: its record is
                                    // quiesced and its slot freed.
                                    Caught::Died => break,
                                    // A post-publication unwind may or may
                                    // not have been combined; the counter
                                    // bounds below absorb the ambiguity.
                                    Caught::RolledBack => {}
                                },
                            }
                        }
                        confirmed
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker hit a genuine panic"))
                .sum()
        });

        assert!(la_fault::hits_total() > 0);
        la_fault::reset();

        // Every confirmed op applied exactly once; unwound ops at most once.
        let total = fc.with_sequential(|s| *s);
        assert!(
            total >= applied_for_sure && total <= threads as u64 * per_thread,
            "sum {total} outside [{applied_for_sure}, {}]",
            threads as u64 * per_thread
        );
        // No slot leaked, no lock wedged: a fresh session still combines.
        assert!(fc.registry().collect().is_empty());
        let mut rng = default_rng(999);
        let session = fc.join(&mut rng);
        assert_eq!(session.execute(1), total);
        drop(session);
        assert!(fc.registry().collect().is_empty());
        la_fault::reset();
    }

    /// The ISSUE's adversarial acceptance test: with the stuck-pin
    /// threshold at zero, a paused (stuck) pinner makes every retirement
    /// pass fail its grace check and arm the backoff — and the watchdog
    /// must **never** unlink the epoch the pinner can still see.  Once the
    /// pin releases and the backoff expires, retirement makes progress.
    #[test]
    fn watchdog_defers_but_never_unlinks_under_a_live_pin() {
        let _gate = armed(FaultPlan::count_only(1));
        let array = Arc::new(
            LevelArrayConfig::new(1)
                .growth(GrowthPolicy::Doubling { max_epochs: 4 })
                .auto_retire(false)
                .stuck_pin_threshold_ms(0)
                .build_elastic()
                .expect("valid configuration"),
        );

        // Grow to a second epoch and drain the first, so epoch 0 is
        // retirable the moment the grace protocol allows it.
        let mut rng = default_rng(5);
        let mut names = Vec::new();
        while array.num_epochs() < 2 {
            match array.try_get(&mut rng) {
                Some(got) => names.push(got.name()),
                None => break,
            }
        }
        assert!(array.num_epochs() >= 2, "the array never grew");
        let anchor = names
            .iter()
            .copied()
            .find(|n| n.epoch() > 0)
            .expect("a grown-epoch name");
        for name in names {
            if name != anchor {
                array.free(name);
            }
        }

        // Manufacture the stuck pin: the next pin parks inside the chain,
        // guard held, until released.
        la_fault::reset();
        la_fault::arm_site("epoch_chain::pinned", 1, FaultAction::Pause);
        let stuck = {
            let array = Arc::clone(&array);
            std::thread::spawn(move || {
                let mut rng = default_rng(6);
                // Parks at the pinned site; completes after release_paused.
                let got = array.try_get(&mut rng);
                if let Some(got) = got {
                    array.free(got.name());
                }
            })
        };
        for _ in 0..2000 {
            if la_fault::paused_count() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(la_fault::paused_count(), 1, "the pinner never parked");

        // Hammer retirement under the stuck pin.  Grace can never pass, so
        // nothing may be retired, the epoch count may not drop, and the
        // backoff must start deferring passes outright.
        let epochs_before = array.num_epochs();
        for _ in 0..200 {
            assert_eq!(array.try_retire(), 0, "retired under a live pin");
            assert_eq!(
                array.num_epochs(),
                epochs_before,
                "the watchdog unlinked an epoch a live pinner holds"
            );
        }
        let pinned_report = array.robustness_report();
        assert!(
            pinned_report.deferred_retirements > 0,
            "the backoff never engaged: {pinned_report:?}"
        );
        assert!(
            pinned_report.oldest_pin_age_ms.is_some(),
            "the stuck pin is invisible: {pinned_report:?}"
        );

        // Release the pinner; the stuck pin drains.
        la_fault::release_paused();
        stuck.join().expect("the stuck pinner panicked");
        array.free(anchor);

        // Once the pin expired and the (capped, ≤ ~1 s) backoff drained,
        // retirement makes progress again.
        for _ in 0..100 {
            if array.num_epochs() == 1 {
                break;
            }
            array.try_retire();
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(
            array.num_epochs(),
            1,
            "retirement never recovered after the stuck pin expired"
        );
        let report = array.robustness_report();
        assert_eq!(report.oldest_pin_age_ms, None);
        la_fault::reset();
    }

    /// The pin reads no clock, so the watchdog dates a stuck pin from the
    /// first failed grace check that sees it, not from the pin itself.  A
    /// pinner parked well past the threshold must therefore not arm the
    /// backoff on the first failed pass; once it has been *seen* stuck for
    /// longer than the threshold, failing passes arm it — and no pass ever
    /// unlinks the epoch the pinner holds.
    #[test]
    fn watchdog_dates_a_stuck_pin_from_the_first_failed_pass() {
        const THRESHOLD_MS: u64 = 50;
        let _gate = armed(FaultPlan::count_only(1));
        let array = Arc::new(
            LevelArrayConfig::new(1)
                .growth(GrowthPolicy::Doubling { max_epochs: 4 })
                .auto_retire(false)
                .stuck_pin_threshold_ms(THRESHOLD_MS)
                .build_elastic()
                .expect("valid configuration"),
        );

        // Two epochs, the oldest drained and retirable, one name anchoring
        // the newest.
        let mut rng = default_rng(7);
        let mut names = Vec::new();
        while array.num_epochs() < 2 {
            match array.try_get(&mut rng) {
                Some(got) => names.push(got.name()),
                None => break,
            }
        }
        assert!(array.num_epochs() >= 2, "the array never grew");
        let anchor = names
            .iter()
            .copied()
            .find(|n| n.epoch() > 0)
            .expect("a grown-epoch name");
        for name in names {
            if name != anchor {
                array.free(name);
            }
        }

        la_fault::reset();
        la_fault::arm_site("epoch_chain::pinned", 1, FaultAction::Pause);
        let stuck = {
            let array = Arc::clone(&array);
            std::thread::spawn(move || {
                let mut rng = default_rng(8);
                if let Some(got) = array.try_get(&mut rng) {
                    array.free(got.name());
                }
            })
        };
        for _ in 0..2000 {
            if la_fault::paused_count() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(la_fault::paused_count(), 1, "the pinner never parked");

        // The pin is now older than the threshold, but nobody has seen it:
        // the first failed pass dates it and must not arm the backoff, so
        // the pass right after it still runs instead of deferring.
        std::thread::sleep(Duration::from_millis(THRESHOLD_MS + 10));
        let epochs_before = array.num_epochs();
        assert_eq!(array.try_retire(), 0, "retired under a live pin");
        assert_eq!(array.try_retire(), 0, "retired under a live pin");
        let first_report = array.robustness_report();
        assert_eq!(
            first_report.deferred_retirements, 0,
            "the first failed pass armed the backoff: {first_report:?}"
        );
        assert!(
            matches!(first_report.oldest_pin_age_ms, Some(age) if age < THRESHOLD_MS),
            "the age did not run from the first observation: {first_report:?}"
        );

        // Seen stuck for longer than the threshold: failing passes arm the
        // backoff, and the epoch the pinner holds is never unlinked.
        std::thread::sleep(Duration::from_millis(THRESHOLD_MS + 10));
        for _ in 0..200 {
            assert_eq!(array.try_retire(), 0, "retired under a live pin");
            assert_eq!(
                array.num_epochs(),
                epochs_before,
                "the watchdog unlinked an epoch a live pinner holds"
            );
        }
        let stuck_report = array.robustness_report();
        assert!(
            stuck_report.deferred_retirements > 0,
            "the backoff never engaged: {stuck_report:?}"
        );
        assert!(
            stuck_report.oldest_pin_age_ms >= Some(THRESHOLD_MS + 10),
            "the stamp did not hold: {stuck_report:?}"
        );

        la_fault::release_paused();
        stuck.join().expect("the stuck pinner panicked");
        array.free(anchor);
        la_fault::reset();
    }

    /// A payload that counts its drops.
    struct DropCounter(Arc<AtomicUsize>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A reclamation pass closes the open bag *before* it takes its
    /// `Collect`.  Park a pass between the two: a node retired meanwhile
    /// must go to the next bag (so `retire` does not wait for the parked
    /// pass), and a reader pinned meanwhile must hold that node alive.  A
    /// pass that snapshots first would file the node against a snapshot
    /// that misses the reader and free it under the reader.
    #[test]
    fn a_pass_closes_its_bag_before_it_takes_its_snapshot() {
        let _gate = armed(FaultPlan::count_only(1));
        let domain = Arc::new(ReclaimDomain::new(Arc::new(LevelArray::new(4))));
        let drops = Arc::new(AtomicUsize::new(0));

        la_fault::reset();
        la_fault::arm_site("reclaim::closed", 1, FaultAction::Pause);
        let pass = {
            let domain = Arc::clone(&domain);
            std::thread::spawn(move || domain.try_reclaim())
        };
        for _ in 0..2000 {
            if la_fault::paused_count() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(la_fault::paused_count(), 1, "the pass never parked");

        // Pin a reader, then retire a node from another thread, while the
        // pass is parked between its close and its snapshot.  The retire
        // must complete without waiting for the pass.
        let mut rng = default_rng(9);
        let reader = domain.pin(&mut rng);
        let retirer = {
            let domain = Arc::clone(&domain);
            let node = Box::new(DropCounter(Arc::clone(&drops)));
            std::thread::spawn(move || domain.retire(node))
        };
        for _ in 0..2000 {
            if retirer.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(retirer.is_finished(), "retire waited for the parked pass");
        assert_eq!(la_fault::paused_count(), 1, "the pass moved on early");
        retirer.join().expect("the retirer panicked");

        la_fault::release_paused();
        assert_eq!(pass.join().expect("the parked pass panicked"), 0);
        for _ in 0..2 {
            assert_eq!(domain.try_reclaim(), 0, "freed under a live reader");
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under a live reader");

        drop(reader);
        assert_eq!(domain.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        let stats = domain.stats();
        assert_eq!((stats.retired, stats.freed, stats.in_limbo), (1, 1, 0));
        la_fault::reset();
    }
}
