//! The reclamation domain: registration, retirement, and collect-based grace
//! periods.
//!
//! # Protocol
//!
//! * A thread **pins** the domain before touching a protected structure:
//!   [`ReclaimDomain::pin`] registers a name in the activity array and
//!   returns an RAII [`OperationGuard`]; dropping the guard performs the
//!   `Free`.
//! * When a thread unlinks a node it calls [`ReclaimDomain::retire`] — the
//!   node goes into the *open limbo bag* together with nothing else; it cannot
//!   be freed yet because other pinned operations may still hold references.
//! * [`ReclaimDomain::try_reclaim`] runs a *pass*: it closes the open bag and
//!   then takes a `Collect` snapshot of the names registered at that moment;
//!   a closed bag may be freed once **every name in its snapshot has been
//!   observed absent** in some later `Collect`.  A name's absence proves the
//!   operation that held it at close time has completed (it held the name
//!   continuously until its `Free`), so no operation that could have seen the
//!   retired nodes is still running.  Re-acquisition of the same name by a
//!   *new* operation merely delays reclamation; it never makes it unsafe.
//!
//! Two locks split the work, so a `retire` never waits on a `Collect`:
//!
//! * the **open lock** guards the open bag and the retired count.  `retire`
//!   takes only this lock, for one push;
//! * the **limbo lock** guards the closed bags, the scan buffer and the
//!   freed count.  A pass holds it from start to end, so passes run one at
//!   a time.  The pass counter sits beside the locks in an atomic of its
//!   own (see "Sticky pins"), but only a pass, under this lock, bumps it.
//!
//! Two rules keep this sound and deadlock-free:
//!
//! * **Close, then snapshot.**  A pass swaps the open bag out *before* it
//!   takes its `Collect`.  Every node in the closed bag was unlinked before
//!   the close, so an operation that can still reach it pinned before the
//!   snapshot and, while it stays pinned, is in it.  The other order is
//!   unsound: a node retired between a snapshot and the close would land in
//!   a bag whose snapshot misses a reader that pinned after that snapshot,
//!   and the node would be freed under the reader.
//! * **Lock order: limbo → open.**  A pass (and [`ReclaimDomain::stats`])
//!   takes the open lock only while it holds the limbo lock; `retire` never
//!   takes the limbo lock.
//!
//! ## Sticky pins
//!
//! Every pass's `Collect` reads every registry line, so a randomized `Get`
//! right after another core's pass lands on a line that core still holds
//! and pays to pull it back.  A pin therefore first re-takes the name its
//! thread released last in this domain, with one test-and-set
//! ([`ActivityArray::try_reacquire`]): that line is usually still
//! exclusive in the thread's own cache.  If the name is taken (or the
//! registry has no such kernel) the pin falls back to the paper's
//! randomized `Get`.  Each thread keeps one entry, `(domain, name, pass)`;
//! a thread that alternates between two domains simply loses it.
//!
//! The **fence** is the pass counter.  A pin reads it and takes the sticky
//! path only if its thread's entry was recorded at the current count; a
//! guard records its name on drop only if the count has not moved since its
//! pin.  So every op of a *sticky chain* — consecutive ops of one thread on
//! one name — pinned within one pass interval, and the first pin after a
//! pass draws afresh.
//!
//! * **Safety does not depend on which name a pin takes.**  A name seen
//!   absent proves that the op holding it when the bag closed has unpinned;
//!   an op that takes the same name later, sticky or not, started after the
//!   absence and so after the unlink, and cannot reach the bag's nodes.
//! * **Liveness: a sticky chain never outlives the pass interval it started
//!   in.**  A bag closed in pass `p` waits on names held at its snapshot; a
//!   chain holding such a name pinned every op before pass `p` finished, so
//!   by pass `p + 2`'s snapshot the name is present only if an op pinned
//!   before pass `p` finished is still running, or a random `Get` redrew
//!   the name.  A bag closed in pass `p` therefore ripens by pass `p + 2`
//!   under the same conditions that ripen it by pass `p + 1` without sticky
//!   pins.  Without the fence a chain could hold one name through every
//!   snapshot, and its bags would wait for a snapshot to fall in the gap
//!   between a free and the next pin.
//!
//! The registry's own Free→Get hint ([`levelarray::LevelArrayConfig::free_hint`])
//! is a sticky path *without* this fence: the fallback `Get` would take it
//! after every pass.  It stays safe, and the domain's drain test over a
//! hinted registry passes, but its bags ripen only when a snapshot happens
//! to catch the gap, with no pass bound.
//!
//! This is the "dynamic collect" reclamation scheme of the paper's reference
//! \[17\], expressed over the activity-array API.
//!
//! The protocol compares names only for identity (membership in a snapshot),
//! never as dense indices, so it works unchanged over *elastic* registries:
//! a name from a grown epoch is simply a different [`Name`] value, and the
//! absence proof is exactly the quiescence argument
//! [`levelarray::ElasticLevelArray`] itself uses to retire drained epochs.

use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use la_fault::fail_point;
use la_sync::atomic::{AtomicU64, Ordering};

use larng::RandomSource;
use levelarray::{ActivityArray, Name};

/// A unit of deferred destruction: a type-erased owned allocation.
struct Retired {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
}

// SAFETY: a `Retired` is an owned allocation that is only ever dropped by the
// reclaimer while no other thread can reach it (that is the whole point of the
// grace-period protocol); moving the pointer between threads is sound.
unsafe impl Send for Retired {}

impl std::fmt::Debug for Retired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Retired({:p})", self.ptr)
    }
}

impl Retired {
    fn new<T: Send + 'static>(boxed: Box<T>) -> Self {
        unsafe fn drop_box<T>(ptr: *mut ()) {
            // SAFETY: constructed from Box::into_raw::<T> below and dropped
            // exactly once by the reclaimer.
            drop(unsafe { Box::from_raw(ptr as *mut T) });
        }
        Retired {
            ptr: Box::into_raw(boxed) as *mut (),
            drop_fn: drop_box::<T>,
        }
    }

    fn reclaim(self) {
        // SAFETY: see `Retired::new`; `self` is consumed so this runs once.
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

/// The bag `retire` appends to, behind the open lock.
#[derive(Debug, Default)]
struct OpenBag {
    nodes: Vec<Retired>,
    /// Nodes retired over the domain's lifetime.
    retired: u64,
}

/// A bag of retired nodes closed against a `Collect` snapshot.
#[derive(Debug)]
struct ClosedBag {
    nodes: Vec<Retired>,
    /// Names that were registered when the bag was closed and have not yet
    /// been observed absent, sorted.
    waiting_on: Vec<Name>,
}

/// Everything a pass owns, behind the limbo lock.
#[derive(Debug, Default)]
struct LimboState {
    closed: Vec<ClosedBag>,
    /// Reusable `Collect` buffer: the steady-state reclamation pass scans the
    /// registry through [`ActivityArray::collect_into`], so it stops paying a
    /// fresh `Vec` allocation per grace-period scan.
    scan: Vec<Name>,
    /// The bag being closed.  Between passes it is empty: the spare that a
    /// close swaps in for the open bag, recycled from a freed bag, so
    /// `retire` pushes into spare capacity instead of allocating under the
    /// open lock.  During a pass it holds the nodes closed but not yet filed
    /// against a snapshot; a pass that unwinds before filing them leaves
    /// them here, still in limbo, for the next pass.
    closing: Vec<Retired>,
    /// Nodes freed (or moved out to be freed) so far.
    freed: u64,
}

impl LimboState {
    fn in_limbo(&self) -> u64 {
        self.closing.len() as u64
            + self
                .closed
                .iter()
                .map(|b| b.nodes.len() as u64)
                .sum::<u64>()
    }
}

/// Counters describing the state of a domain (for tests, benchmarks, and
/// operational visibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DomainStats {
    /// Nodes retired over the domain's lifetime.
    pub retired: u64,
    /// Nodes actually freed so far.
    pub freed: u64,
    /// Nodes currently awaiting a grace period (open + closed bags).
    pub in_limbo: u64,
    /// Completed reclamation passes.
    pub reclaim_passes: u64,
    /// Currently pinned operations (an instantaneous census).
    pub pinned_now: usize,
}

/// The pass counter, padded to its own pair of cache lines: every pin reads
/// it, and every `retire` writes the open lock that would otherwise share
/// its line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct PassCounter(AtomicU64);

thread_local! {
    /// The calling thread's sticky entry: the domain it last unpinned from,
    /// the name it released there, and the pass count it pinned at (see
    /// "Sticky pins" in the module docs).
    static STICKY: Cell<Option<(u64, Name, u64)>> = const { Cell::new(None) };
}

/// Allocates a process-unique identity for one domain, so a thread's sticky
/// entry never crosses from one domain to another.
fn next_domain_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// A reclamation domain built over an activity array.
///
/// See the [module documentation](self) for the protocol.
#[derive(Debug)]
pub struct ReclaimDomain {
    registry: Arc<dyn ActivityArray>,
    /// Keys the calling thread's sticky entry.
    id: u64,
    /// Completed reclamation passes, bumped by a pass under the limbo lock:
    /// the fence of the sticky path.
    passes: PassCounter,
    /// The pass lock.  Lock order: `limbo` → `open`.
    limbo: Mutex<LimboState>,
    /// The retire lock, held for one push.
    open: Mutex<OpenBag>,
}

impl ReclaimDomain {
    /// Creates a domain whose registration is served by `registry`.
    pub fn new(registry: Arc<dyn ActivityArray>) -> Self {
        ReclaimDomain {
            registry,
            id: next_domain_id(),
            passes: PassCounter::default(),
            limbo: Mutex::new(LimboState::default()),
            open: Mutex::new(OpenBag::default()),
        }
    }

    /// The activity array used for registration.
    pub fn registry(&self) -> &dyn ActivityArray {
        self.registry.as_ref()
    }

    /// Registers the calling operation and returns a guard that deregisters on
    /// drop.  The guard must be held across every access to memory protected
    /// by this domain.
    ///
    /// If no pass has run since this thread's previous operation in this
    /// domain pinned, the pin first re-takes the name that operation
    /// released, with one test-and-set ([`ActivityArray::try_reacquire`]);
    /// otherwise, or if that name is taken, it runs the registry's randomized
    /// `Get` (see "Sticky pins" in the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the activity array is exhausted, i.e. more operations are
    /// simultaneously pinned than the contention bound it was built for.
    pub fn pin(&self, rng: &mut dyn RandomSource) -> OperationGuard<'_> {
        // Relaxed: the count only steers which name the pin takes, and
        // safety holds for any name (see "Sticky pins").
        let pass = self.passes.0.load(Ordering::Relaxed);
        let acquired = match STICKY.with(Cell::get) {
            Some((domain, name, at)) if domain == self.id && at == pass => {
                self.registry.try_reacquire(name)
            }
            _ => None,
        }
        .unwrap_or_else(|| self.registry.get(rng));
        OperationGuard {
            domain: self,
            name: acquired.name(),
            probes: acquired.probes(),
            pass,
        }
    }

    /// Registers `k` operations in ONE batched `Get`
    /// ([`ActivityArray::get_many`]) and returns a guard that deregisters
    /// them all through the bulk `Free` ([`ActivityArray::free_many`]) on
    /// drop.  The batched seam matters here: a reclamation-heavy workload
    /// pins in bursts (one pin per hazard-era operation), and the bulk
    /// kernels collapse those bursts into a handful of word-level RMWs.
    ///
    /// # Panics
    ///
    /// Panics if the activity array saturates before all `k` registrations
    /// are served — same contract as [`ReclaimDomain::pin`].
    pub fn pin_many(&self, rng: &mut dyn RandomSource, k: usize) -> BatchGuard<'_> {
        let mut out = Vec::with_capacity(k);
        let won = self.registry.get_many(rng, k, &mut out);
        assert_eq!(
            won, k,
            "the registry saturated: only {won} of {k} operations could pin"
        );
        BatchGuard {
            domain: self,
            names: out.into_iter().map(|got| got.name()).collect(),
        }
    }

    /// Hands an unlinked allocation to the domain for deferred destruction.
    ///
    /// The caller must guarantee the node is unreachable for *new* operations
    /// (it has been unlinked from the shared structure); operations that were
    /// already pinned may still read it, which is exactly what the grace
    /// period protects.  Takes only the open lock, so it never waits for a
    /// pass's `Collect`.
    pub fn retire<T: Send + 'static>(&self, boxed: Box<T>) {
        // Type-erase *before* the fault site: `Retired` has no Drop impl, so
        // a panic past this point leaks the allocation (safe — readers may
        // still hold references) instead of unwinding through `Box`'s drop
        // and freeing it under their feet.
        let node = Retired::new(boxed);
        fail_point!("reclaim::retire");
        let mut open = self.lock_open();
        open.retired += 1;
        open.nodes.push(node);
    }

    /// Runs one reclamation pass and returns the number of nodes freed.
    ///
    /// A pass (1) closes the open bag, (2) takes a `Collect` snapshot and
    /// files the bag against it, (3) prunes every closed bag's waiting set by
    /// removing names absent from the snapshot, and (4) frees the bags whose
    /// waiting sets have emptied — after it has released the limbo lock.
    ///
    /// Passes are serialized on the limbo lock: a pass waits behind a
    /// running one rather than skipping it or overlapping it.  On the
    /// `reclaim` benchmark both faster alternatives — skipping when a pass is
    /// running, and concurrent passes with the `Collect` outside the lock —
    /// raised throughput but made p50/p90 operation latency 1.7–3× worse
    /// (see ROADMAP.md): a pass that waits keeps the two threads' stack
    /// operations apart, and overlapped push and pop cost about twice as
    /// much each.
    pub fn try_reclaim(&self) -> u64 {
        // Early-return variant: a "died before the pass" fault simply skips
        // this pass — reclamation is optional progress, never correctness.
        fail_point!("reclaim::reclaim", 0);
        let mut guard = self.lock_limbo();
        let limbo = &mut *guard;

        // (1) Close first, so the snapshot below is taken after every node
        // in the bag was retired (see "Close, then snapshot").
        {
            let mut open = self.lock_open();
            std::mem::swap(&mut open.nodes, &mut limbo.closing);
            // Normally a no-op: only a pass that unwound leaves nodes behind.
            limbo.closing.append(&mut open.nodes);
        }
        fail_point!("reclaim::closed");

        // (2) Then snapshot, and file the bag against it.
        limbo.scan.clear();
        self.registry.collect_into(&mut limbo.scan);
        limbo.scan.sort_unstable();
        limbo.scan.dedup();
        let snapshot = &limbo.scan;
        if !limbo.closing.is_empty() {
            limbo.closed.push(ClosedBag {
                nodes: std::mem::take(&mut limbo.closing),
                waiting_on: snapshot.clone(),
            });
        }

        // (3) Prune every bag and move the ripe nodes out.  A bag closed
        // against an empty snapshot is ripe at once.
        let mut ripe = Vec::new();
        limbo.closed.retain_mut(|bag| {
            bag.waiting_on
                .retain(|name| snapshot.binary_search(name).is_ok());
            if !bag.waiting_on.is_empty() {
                return true;
            }
            ripe.append(&mut bag.nodes);
            if limbo.closing.capacity() == 0 {
                limbo.closing = std::mem::take(&mut bag.nodes);
            }
            false
        });
        let freed = ripe.len() as u64;
        limbo.freed += freed;
        // Ends every sticky chain pinned before this point (only passes
        // write it, one at a time, under the limbo lock).
        self.passes.0.fetch_add(1, Ordering::Relaxed);
        drop(guard);

        // (4) Free outside the lock: nothing can reach these nodes any more.
        for node in ripe {
            node.reclaim();
        }
        freed
    }

    /// The limbo lock, tolerant of poisoning: the state it guards is plain
    /// data that every mutation leaves consistent, so a panic while holding
    /// it (fault injection included) carries no information — later passes
    /// proceed instead of cascading the panic through every caller.
    fn lock_limbo(&self) -> MutexGuard<'_, LimboState> {
        self.limbo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The open lock, tolerant of poisoning for the same reason as
    /// [`ReclaimDomain::lock_limbo`].
    fn lock_open(&self) -> MutexGuard<'_, OpenBag> {
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current counters.
    ///
    /// The counters are read under both locks, so `retired == freed +
    /// in_limbo` holds in every snapshot, mid-traffic included.  The
    /// `pinned_now` census runs after both are released: it is a `Collect`,
    /// and neither a `retire` nor a pass should wait on it.
    pub fn stats(&self) -> DomainStats {
        let (retired, freed, in_limbo, reclaim_passes) = {
            let limbo = self.lock_limbo();
            let open = self.lock_open();
            (
                open.retired,
                limbo.freed,
                open.nodes.len() as u64 + limbo.in_limbo(),
                self.passes.0.load(Ordering::Relaxed),
            )
        };
        DomainStats {
            retired,
            freed,
            in_limbo,
            reclaim_passes,
            pinned_now: self.registry.collect().len(),
        }
    }
}

impl Drop for ReclaimDomain {
    fn drop(&mut self) {
        // The domain owns every allocation still in limbo; free them now.
        // (No operation can still be pinned: guards borrow the domain.)
        let open = self.open.get_mut().unwrap_or_else(PoisonError::into_inner);
        for node in open.nodes.drain(..) {
            node.reclaim();
        }
        let limbo = self.limbo.get_mut().unwrap_or_else(PoisonError::into_inner);
        for node in limbo.closing.drain(..) {
            node.reclaim();
        }
        for bag in limbo.closed.drain(..) {
            for node in bag.nodes {
                node.reclaim();
            }
        }
    }
}

/// An RAII pinned operation: holds a registration in the domain's activity
/// array and releases it on drop.
#[derive(Debug)]
pub struct OperationGuard<'a> {
    domain: &'a ReclaimDomain,
    name: Name,
    probes: u32,
    /// The domain's pass count when this operation pinned.
    pass: u64,
}

impl OperationGuard<'_> {
    /// The name (slot) this operation occupies in the registry.
    pub fn name(&self) -> Name {
        self.name
    }

    /// How many probes the registration took (the quantity the paper
    /// measures): 1 on a sticky hit, whose single test-and-set sits outside
    /// the paper's probe sequence.
    pub fn probes(&self) -> u32 {
        self.probes
    }
}

impl Drop for OperationGuard<'_> {
    fn drop(&mut self) {
        let domain = self.domain;
        domain.registry.free(self.name);
        // The fence: a pass since the pin ends the sticky chain.
        if domain.passes.0.load(Ordering::Relaxed) == self.pass {
            STICKY.with(|sticky| sticky.set(Some((domain.id, self.name, self.pass))));
        }
    }
}

/// An RAII *batch* of pinned operations (see [`ReclaimDomain::pin_many`]):
/// holds `k` registrations in the domain's activity array and releases them
/// all through the bulk `Free` kernel on drop.
#[derive(Debug)]
pub struct BatchGuard<'a> {
    domain: &'a ReclaimDomain,
    names: Vec<Name>,
}

impl BatchGuard<'_> {
    /// The names (slots) this batch occupies in the registry.
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    /// How many operations the batch pinned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the batch is empty (`pin_many` with `k == 0`).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        self.domain.registry.free_many(&self.names);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use larng::default_rng;
    use levelarray::LevelArray;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn domain(n: usize) -> ReclaimDomain {
        ReclaimDomain::new(Arc::new(LevelArray::new(n)))
    }

    /// A payload that counts how many times it is dropped.
    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn pin_registers_and_unpin_deregisters() {
        let d = domain(4);
        let mut rng = default_rng(1);
        assert_eq!(d.stats().pinned_now, 0);
        {
            let guard = d.pin(&mut rng);
            assert!(guard.probes() >= 1);
            assert_eq!(d.stats().pinned_now, 1);
            assert_eq!(d.registry().collect(), vec![guard.name()]);
        }
        assert_eq!(d.stats().pinned_now, 0);
    }

    #[test]
    fn retire_without_pins_frees_on_first_pass() {
        let d = domain(4);
        let drops = Arc::new(AtomicUsize::new(0));
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.stats().in_limbo, 2);
        assert_eq!(drops.load(Ordering::SeqCst), 0);

        let freed = d.try_reclaim();
        assert_eq!(freed, 2);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        let stats = d.stats();
        assert_eq!(stats.retired, 2);
        assert_eq!(stats.freed, 2);
        assert_eq!(stats.in_limbo, 0);
        assert_eq!(stats.reclaim_passes, 1);
    }

    #[test]
    fn pinned_operation_defers_reclamation() {
        let d = domain(4);
        let mut rng = default_rng(2);
        let drops = Arc::new(AtomicUsize::new(0));

        let guard = d.pin(&mut rng);
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));

        // The pinned operation was registered when the bag is closed, so the
        // bag must not be freed while the guard is alive.
        assert_eq!(d.try_reclaim(), 0);
        assert_eq!(d.try_reclaim(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(d.stats().in_limbo, 1);

        drop(guard);
        assert_eq!(d.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn batch_pinned_operations_defer_reclamation_until_the_batch_drops() {
        let d = domain(16);
        let mut rng = default_rng(7);
        let drops = Arc::new(AtomicUsize::new(0));

        let batch = d.pin_many(&mut rng, 10);
        assert_eq!(batch.len(), 10);
        assert!(!batch.is_empty());
        assert_eq!(d.stats().pinned_now, 10);
        let unique: HashSet<Name> = batch.names().iter().copied().collect();
        assert_eq!(unique.len(), 10, "batched pins must occupy distinct slots");

        // A bag closed under the batch waits for the WHOLE batch.
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.try_reclaim(), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 0);

        // One drop releases every name through the bulk kernel.
        drop(batch);
        assert_eq!(d.stats().pinned_now, 0);
        assert_eq!(d.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn operations_pinned_after_closing_do_not_block_the_bag() {
        let d = domain(4);
        let mut rng = default_rng(3);
        let drops = Arc::new(AtomicUsize::new(0));

        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        // Close the bag while nothing is pinned...
        // (first pass closes AND frees, because the snapshot is empty)
        assert_eq!(d.try_reclaim(), 1);

        // ...whereas a bag closed under a pin waits only for that pin, not for
        // later ones.
        let early = d.pin(&mut rng);
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.try_reclaim(), 0); // closed against {early}
        let late = d.pin(&mut rng); // pinned after closing
        drop(early);
        assert_eq!(d.try_reclaim(), 1, "late pin must not block the old bag");
        drop(late);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn name_reuse_is_conservative_but_safe() {
        // If the name held at close time is re-acquired by a new operation
        // before the reclaimer looks again, the bag simply waits longer.
        let d = ReclaimDomain::new(Arc::new(LevelArray::new(1)));
        let mut rng = default_rng(4);
        let drops = Arc::new(AtomicUsize::new(0));

        let first = d.pin(&mut rng);
        let first_name = first.name();
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.try_reclaim(), 0); // waits on {first_name}
        drop(first);
        // A new operation may well get the same slot back (n = 1 makes it
        // likely but not certain); either way the pass stays safe.
        let second = d.pin(&mut rng);
        let freed = d.try_reclaim();
        if second.name() == first_name {
            assert_eq!(freed, 0, "conservative: cannot distinguish reuse");
        } else {
            assert_eq!(freed, 1);
        }
        drop(second);
        assert_eq!(d.try_reclaim() + freed, 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropping_the_domain_frees_everything_left_in_limbo() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let d = domain(4);
            for _ in 0..5 {
                d.retire(Box::new(DropCounter(Arc::clone(&drops))));
            }
            // Close one bag under a pin so it stays in limbo.
            let mut rng = default_rng(5);
            let _guard = d.pin(&mut rng);
            let _ = d.try_reclaim();
            drop(_guard);
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            5,
            "Drop must free limbo nodes"
        );
    }

    #[test]
    fn elastic_registry_serves_pins_beyond_the_initial_bound() {
        use levelarray::{ElasticLevelArray, GrowthPolicy};

        // A domain whose registry starts at n = 2 but doubles on demand: the
        // contention bound is no longer a hard pin limit.
        let registry = Arc::new(ElasticLevelArray::new(
            2,
            GrowthPolicy::Doubling { max_epochs: 4 },
        ));
        let d = ReclaimDomain::new(Arc::clone(&registry) as Arc<dyn ActivityArray>);
        let mut rng = default_rng(6);
        let drops = Arc::new(AtomicUsize::new(0));

        // Pin 12 operations at once (initial capacity is only 6).
        let guards: Vec<_> = (0..12).map(|_| d.pin(&mut rng)).collect();
        assert!(registry.num_epochs() >= 2, "the registry must have grown");
        assert!(guards.iter().any(|g| g.name().epoch() > 0));
        assert_eq!(d.stats().pinned_now, 12);

        // A bag closed under these pins waits for them, epoch tags included.
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.try_reclaim(), 0);
        drop(guards);
        assert_eq!(d.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // With every pin released the registry drains and retires old epochs.
        registry.try_retire();
        assert_eq!(registry.num_epochs(), 1);
    }

    #[test]
    fn a_repin_within_one_pass_interval_retakes_the_same_name() {
        let d = domain(4096);
        let mut rng = default_rng(8);
        let first = d.pin(&mut rng).name();
        for _ in 0..3 {
            let again = d.pin(&mut rng);
            assert_eq!(again.name(), first, "no pass ran: the pin must stick");
            assert_eq!(again.probes(), 1, "a sticky hit is one test-and-set");
        }
        // A name taken by someone else is skipped, not shared.
        let holder = d.pin(&mut rng);
        let other = d.pin(&mut rng);
        assert_ne!(other.name(), holder.name());
    }

    #[test]
    fn a_pass_ends_the_sticky_chain() {
        let d = domain(4096);
        let mut rng = default_rng(9);

        // A pass between an unpin and the next pin.
        let released = d.pin(&mut rng).name();
        d.try_reclaim();
        let next = d.pin(&mut rng);
        assert_ne!(
            next.name(),
            released,
            "the pin after a pass must draw afresh"
        );

        // A pass while pinned: the guard records nothing on drop.
        let straddled = next.name();
        d.try_reclaim();
        drop(next);
        assert_ne!(d.pin(&mut rng).name(), straddled);
    }

    #[test]
    fn a_thread_that_switches_domains_loses_its_sticky_name() {
        let (a, b) = (domain(4096), domain(4096));
        let mut rng = default_rng(10);
        let on_a = a.pin(&mut rng).name();
        drop(b.pin(&mut rng));
        assert_ne!(a.pin(&mut rng).name(), on_a);
    }

    #[test]
    fn a_bag_closed_under_a_sticky_chain_ripens_by_the_second_pass_after_it() {
        let d = domain(4096);
        let mut rng = default_rng(11);
        let drops = Arc::new(AtomicUsize::new(0));

        // A sticky chain whose last op is pinned when the bag closes.
        let chain = d.pin(&mut rng).name();
        let last = d.pin(&mut rng);
        assert_eq!(last.name(), chain);
        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
        assert_eq!(d.try_reclaim(), 0, "closed against the chain's name");
        drop(last);

        // The thread stays busy, pinned across every pass; its pins must
        // leave the chain's name, or the bag would wait on it forever.
        let mut freed = 0;
        for _ in 0..2 {
            let busy = d.pin(&mut rng);
            assert_ne!(busy.name(), chain, "the fence must end the chain");
            freed += d.try_reclaim();
            drop(busy);
        }
        assert_eq!(freed, 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    /// Two threads pin and unpin in tight loops, each doing a little work
    /// while pinned, while this thread retires and reclaims.  Once retiring
    /// stops, passes must drain limbo while the pinners are still running,
    /// and two passes after they stop nothing may be left.
    fn limbo_drains_under_live_pinners(registry: Arc<dyn ActivityArray>) {
        const RETIRED: usize = 2_000;
        let d = ReclaimDomain::new(registry);
        let drops = Arc::new(AtomicUsize::new(0));
        let stop = AtomicBool::new(false);
        let running = AtomicUsize::new(0);
        let drained_after = std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (d, stop, running) = (&d, &stop, &running);
                scope.spawn(move || {
                    let mut rng = default_rng(200 + t);
                    drop(d.pin(&mut rng));
                    running.fetch_add(1, Ordering::SeqCst);
                    while !stop.load(Ordering::Relaxed) {
                        let guard = d.pin(&mut rng);
                        for _ in 0..32 {
                            std::hint::black_box(guard.name());
                        }
                    }
                });
            }
            while running.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            for i in 0..RETIRED {
                d.retire(Box::new(DropCounter(Arc::clone(&drops))));
                if i % 16 == 15 {
                    d.try_reclaim();
                }
            }
            // A pinner descheduled while pinned holds a bag back for its
            // whole timeslice, sticky pins or not: bound by time, not passes.
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut passes = 0u64;
            while d.stats().in_limbo != 0 && Instant::now() < deadline {
                d.try_reclaim();
                passes += 1;
            }
            let in_limbo = d.stats().in_limbo;
            // Stop the pinners before asserting, or a failure would hang
            // the scope.
            stop.store(true, Ordering::Relaxed);
            (in_limbo, passes)
        });
        assert_eq!(
            drained_after.0, 0,
            "{} passes under live pinners left limbo undrained",
            drained_after.1
        );

        d.try_reclaim();
        d.try_reclaim();
        let stats = d.stats();
        assert_eq!(stats.in_limbo, 0, "{stats:?}");
        assert_eq!(stats.freed, RETIRED as u64, "{stats:?}");
        assert_eq!(drops.load(Ordering::SeqCst), RETIRED);
    }

    #[test]
    fn limbo_drains_while_sticky_pinners_keep_running() {
        limbo_drains_under_live_pinners(Arc::new(LevelArray::new(256)));
    }

    /// The registry's Free→Get hint is stickiness without the pass fence:
    /// the domain's fallback `Get` takes it after every pass.  Limbo still
    /// drains, through snapshots that catch a name between its free and
    /// the next pin.
    #[test]
    fn limbo_drains_while_pinners_run_over_a_free_hint_registry() {
        let registry = levelarray::LevelArrayConfig::new(256)
            .free_hint(true)
            .build()
            .unwrap();
        limbo_drains_under_live_pinners(Arc::new(registry));
    }

    #[test]
    fn concurrent_pin_retire_reclaim_is_safe() {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .clamp(2, 4);
        let d = Arc::new(domain(threads * 2));
        let drops = Arc::new(AtomicUsize::new(0));
        let per_thread = 2_000usize;

        std::thread::scope(|scope| {
            for t in 0..threads {
                let d = Arc::clone(&d);
                let drops = Arc::clone(&drops);
                scope.spawn(move || {
                    let mut rng = default_rng(100 + t as u64);
                    for i in 0..per_thread {
                        let _guard = d.pin(&mut rng);
                        d.retire(Box::new(DropCounter(Arc::clone(&drops))));
                        if i % 64 == 0 {
                            d.try_reclaim();
                        }
                    }
                });
            }
            // Mid-traffic, until every worker has dropped its handle: the
            // accounting identity holds in every snapshot, not only at
            // quiescence.
            scope.spawn(|| loop {
                let stats = d.stats();
                assert_eq!(stats.retired, stats.freed + stats.in_limbo, "{stats:?}");
                if Arc::strong_count(&d) == 1 {
                    break;
                }
            });
        });
        // Quiescent now: a couple of passes flush everything.
        let _ = d.try_reclaim();
        let _ = d.try_reclaim();
        let stats = d.stats();
        assert_eq!(stats.retired, (threads * per_thread) as u64);
        assert_eq!(stats.freed, stats.retired, "{stats:?}");
        assert_eq!(stats.in_limbo, 0);
        assert_eq!(drops.load(Ordering::SeqCst), threads * per_thread);
    }
}
