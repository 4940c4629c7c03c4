//! The Free→Get hint cache: correctness under churn and under theft.
//!
//! With [`LevelArrayConfig::free_hint`] enabled, every `free` arms a
//! per-thread hint and the next same-thread `try_get` retries exactly that
//! slot with one test-and-set before probing.  These tests drive the hint
//! through the renaming contract: names stay unique while held (the hint
//! must never hand out a slot somebody else already won), a stolen hint
//! falls back to the probe path, and concurrent free/get churn across
//! threads never duplicates a live name.

use std::collections::HashSet;
use std::sync::Arc;

use larng::default_rng;
use levelarray::{ActivityArray, GrowthPolicy, LevelArrayConfig, Name};

fn facades() -> Vec<Box<dyn ActivityArray>> {
    let base = LevelArrayConfig::new(16).free_hint(true);
    vec![
        Box::new(base.clone().build().unwrap()),
        Box::new(base.clone().build_sharded(2).unwrap()),
        Box::new(
            base.clone()
                .growth(GrowthPolicy::Doubling { max_epochs: 3 })
                .build_elastic()
                .unwrap(),
        ),
    ]
}

fn churn_ops() -> usize {
    if cfg!(miri) {
        200
    } else {
        20_000
    }
}

/// Sequential churn with the hint hot: names stay unique while held and the
/// census never drifts from the model, on every facade.
#[test]
fn hinted_churn_preserves_uniqueness_on_every_facade() {
    for array in facades() {
        let array = &*array;
        let mut rng = default_rng(0x41A7);
        let mut script = default_rng(0x51DE);
        let mut held: Vec<Name> = Vec::new();
        use larng::RandomSource;
        for step in 0..churn_ops() {
            let register = held.is_empty() || (script.gen_bool(0.55) && held.len() < 12);
            if register {
                let got = array.try_get(&mut rng).expect("under the bound");
                assert!(
                    !held.contains(&got.name()),
                    "step {step}: {} handed out a live name {}",
                    array.algorithm_name(),
                    got.name()
                );
                held.push(got.name());
            } else {
                let victim = held.swap_remove(script.gen_index(held.len()));
                array.free(victim);
            }
        }
        let mut collected = array.collect();
        collected.sort();
        held.sort();
        assert_eq!(collected, held, "{} census drifted", array.algorithm_name());
        for name in held {
            array.free(name);
        }
    }
}

/// A hint whose slot was stolen between the Free and the Get must miss and
/// fall through to the probe path — never duplicate the stolen name.
#[test]
fn stolen_hints_fall_through_to_the_probe_path() {
    // Flat facade: the concrete force_occupy hook plays the thief.
    let flat = LevelArrayConfig::new(8).free_hint(true).build().unwrap();
    let mut rng = default_rng(7);
    let got = flat.get(&mut rng);
    let victim = got.name();
    flat.free(victim);
    assert!(flat.force_occupy(victim), "the thief wins the freed slot");
    let next = flat.get(&mut rng);
    assert_ne!(next.name(), victim, "the missed hint must not duplicate");
    assert!(flat.is_held(victim));

    // Sharded facade.
    let sharded = LevelArrayConfig::new(8)
        .free_hint(true)
        .build_sharded(2)
        .unwrap();
    let got = sharded.get(&mut rng);
    let victim = got.name();
    sharded.free(victim);
    assert!(sharded.force_occupy(victim));
    let next = sharded.get(&mut rng);
    assert_ne!(next.name(), victim);

    // Elastic facade: steal an epoch-tagged name.
    let elastic = LevelArrayConfig::new(4)
        .free_hint(true)
        .growth(GrowthPolicy::Doubling { max_epochs: 3 })
        .build_elastic()
        .unwrap();
    let names: Vec<Name> = (0..15).map(|_| elastic.get(&mut rng).name()).collect();
    let victim = *names.iter().find(|n| n.epoch() == 0).unwrap();
    elastic.free(victim);
    assert!(elastic.force_occupy(victim));
    let next = elastic.get(&mut rng);
    assert_ne!(next.name(), victim);
}

/// A hint left over from a retired epoch is stale but harmless: the Get
/// rejects it (the epoch is no longer live) and probes normally.
#[test]
fn a_hint_into_a_retired_epoch_is_rejected_without_panicking() {
    let array = LevelArrayConfig::new(2)
        .free_hint(true)
        .growth(GrowthPolicy::Doubling { max_epochs: 4 })
        .auto_retire(false)
        .build_elastic()
        .unwrap();
    let mut rng = default_rng(9);
    let names: Vec<Name> = (0..12).map(|_| array.get(&mut rng).name()).collect();
    assert!(array.num_epochs() >= 2);
    // Free everything; the LAST free recorded is the freshest hint.  Retire
    // the drained old epochs, then Get: if the hint names a retired epoch it
    // must be discarded, not panic the liveness lookup.
    let old = *names.iter().find(|n| n.epoch() == 0).unwrap();
    for name in names {
        if name != old {
            array.free(name);
        }
    }
    array.free(old); // freshest hint: an epoch-0 name
    let _ = array.try_retire();
    assert_eq!(array.num_epochs(), 1, "the drained old epochs retire");
    let got = array.get(&mut rng);
    assert_eq!(got.name().epoch(), array.newest_epoch());
}

/// Stale hints across the elastic resize cycle: a hint armed by a free into
/// an oversized epoch stays in the per-thread cache while `try_shrink`
/// publishes a smaller head and `try_retire` unlinks the drained giant.
/// The cache is never invalidated by either (it lives in other threads'
/// thread-locals, so it *cannot* be); correctness rests on `hint_acquire`
/// re-validating under a fresh pin — the stale hint must degrade to a clean
/// probe-path miss, never a panic or a duplicate name.
#[test]
fn stale_hints_into_shrunk_and_retired_epochs_miss_cleanly() {
    let array = LevelArrayConfig::new(2)
        .free_hint(true)
        .growth(GrowthPolicy::Doubling { max_epochs: 3 })
        .auto_retire(false)
        .build_elastic()
        .unwrap();
    let mut rng = default_rng(21);
    // Saturate upward until an oversized epoch (bound 8) is serving.
    let mut held: Vec<Name> = Vec::new();
    while array.newest_epoch() < 2 {
        held.push(array.get(&mut rng).name());
    }
    let big = array.newest_epoch();
    let victim = *held.iter().rev().find(|n| n.epoch() == big).unwrap();
    // Drain the giant; the LAST free arms the hint with a big-epoch name.
    for name in held {
        if name != victim {
            array.free(name);
        }
    }
    array.free(victim);
    // Clear the drained smaller epochs so the chain has headroom, then
    // shrink: a smaller epoch takes over the head, leaving the giant
    // non-newest, drained, and retirement-eligible.  The hint still names it.
    assert!(array.try_retire() >= 1, "the drained early epochs retire");
    assert!(array.try_shrink(), "room to shrink below the giant");
    assert!(array.try_retire() >= 1, "the drained giant retires");
    assert!(
        !array.epoch_ids().contains(&big),
        "the hinted epoch is gone: {:?}",
        array.epoch_ids()
    );
    // The stale hint must miss cleanly and the probe path must serve from a
    // live epoch, with no duplicate of any later hand-out.
    let a = array.get(&mut rng);
    let b = array.get(&mut rng);
    assert!(array.epoch_ids().contains(&a.name().epoch()));
    assert_ne!(a.name(), b.name());
    array.free(a.name());
    array.free(b.name());
}

/// Concurrent free/get churn with hints hot on every thread: the per-slot
/// ownership bit proves no slot is ever handed to two threads at once.
#[test]
fn concurrent_hinted_churn_never_duplicates_names() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let threads = if cfg!(miri) { 2 } else { 8 };
    let rounds = if cfg!(miri) { 50 } else { 2_000 };
    let arrays: Vec<Arc<dyn ActivityArray + Send + Sync>> = {
        let base = LevelArrayConfig::new(16).free_hint(true);
        vec![
            Arc::new(base.clone().build().unwrap()),
            Arc::new(base.clone().build_sharded(4).unwrap()),
        ]
    };
    for array in arrays {
        let owned: Arc<Vec<AtomicBool>> = Arc::new(
            (0..array.capacity())
                .map(|_| AtomicBool::new(false))
                .collect(),
        );
        std::thread::scope(|scope| {
            for t in 0..threads {
                let array = Arc::clone(&array);
                let owned = Arc::clone(&owned);
                scope.spawn(move || {
                    let mut rng = default_rng(0xB1F7 + t as u64);
                    for _ in 0..rounds {
                        let got = array.try_get(&mut rng).expect("under the bound");
                        let idx = got.name().index();
                        assert!(
                            !owned[idx].swap(true, Ordering::SeqCst),
                            "slot {idx} handed to two threads at once"
                        );
                        owned[idx].store(false, Ordering::SeqCst);
                        array.free(got.name());
                    }
                });
            }
        });
        assert!(array.collect().is_empty());
    }
}

/// Uniqueness across hint wins interleaved with probe wins: fill to capacity
/// through a hint-heavy schedule and confirm every slot is handed out once.
#[test]
fn hinted_fill_reaches_capacity_with_unique_names() {
    let array = LevelArrayConfig::new(12).free_hint(true).build().unwrap();
    let mut rng = default_rng(5);
    let mut held = HashSet::new();
    for step in 0..(if cfg!(miri) { 2_000 } else { 50_000 }) {
        if held.len() == array.capacity() {
            break;
        }
        if let Some(got) = array.try_get(&mut rng) {
            assert!(held.insert(got.name()), "duplicate {}", got.name());
            // Churn every tenth step to keep the hint hot mid-fill (keyed to
            // the step, not the fill level: the hint re-wins a freed slot, so
            // a fill-level trigger would re-fire forever on the same pair).
            if step % 10 == 0 {
                let name = got.name();
                array.free(name);
                held.remove(&name);
            }
        }
    }
    assert_eq!(held.len(), array.capacity());
    assert!(array.try_get(&mut rng).is_none());
}

/// `ActivityArray::try_reacquire`, the sticky-registration kernel, shares
/// the hint's one-CAS path but not its knob: with the hint off, it wins
/// exactly the named slot when that slot is free (one probe, same census)
/// and misses on a held, out-of-range or dead-epoch name.
#[test]
fn try_reacquire_wins_exactly_the_named_free_slot_on_every_facade() {
    let base = LevelArrayConfig::new(16);
    let facades: Vec<Box<dyn ActivityArray>> = vec![
        Box::new(base.clone().build().unwrap()),
        Box::new(base.clone().build_sharded(2).unwrap()),
        Box::new(
            base.clone()
                .growth(GrowthPolicy::Doubling { max_epochs: 3 })
                .build_elastic()
                .unwrap(),
        ),
    ];
    for array in facades {
        let label = array.algorithm_name();
        let mut rng = default_rng(0x57C7);
        let got = array.get(&mut rng);
        assert!(array.try_reacquire(got.name()).is_none(), "{label}: held");
        array.free(got.name());
        let again = array
            .try_reacquire(got.name())
            .unwrap_or_else(|| panic!("{label}: the freed slot is free"));
        assert_eq!(again.name(), got.name(), "{label}");
        assert_eq!(again.probes(), 1, "{label}");
        assert_eq!(array.collect(), vec![got.name()], "{label}");
        let out_of_range = Name::new(array.capacity() + 5);
        assert!(array.try_reacquire(out_of_range).is_none(), "{label}");
        assert!(
            array.try_reacquire(Name::with_epoch(7, 0)).is_none(),
            "{label}"
        );
        array.free(again.name());
        assert!(array.collect().is_empty(), "{label}");
    }

    // A name from a retired epoch misses cleanly.
    let elastic = LevelArrayConfig::new(2)
        .growth(GrowthPolicy::Doubling { max_epochs: 4 })
        .auto_retire(false)
        .build_elastic()
        .unwrap();
    let mut rng = default_rng(0x57C8);
    let names: Vec<Name> = (0..12).map(|_| elastic.get(&mut rng).name()).collect();
    let old = *names.iter().find(|n| n.epoch() == 0).unwrap();
    for name in names {
        elastic.free(name);
    }
    let _ = elastic.try_retire();
    assert_eq!(elastic.num_epochs(), 1, "the drained old epochs retire");
    assert!(elastic.try_reacquire(old).is_none());
}
