//! Criterion micro-benchmarks: per-operation costs of the activity arrays and
//! of the applications built on top of them.
//!
//! These complement the figure harnesses: Figure 2 measures end-to-end
//! workload behaviour, while these benches isolate the latency of a single
//! `Get`+`Free` pair, a `Collect`, and the application fast paths
//! (reclamation pin/unpin, alone and under a concurrent `Collect`,
//! flat-combining operations, reader registration) at a fixed occupancy.

//! Set `MICRO_QUICK=1` to shrink the warm-up and measurement windows to a
//! smoke-test size (`make bench-smoke` uses this to *execute* the wiring
//! rather than collect publishable numbers).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use la_baselines::{LinearProbingArray, LinearScanArray, RandomArray};
use la_coordination::ReaderRegistry;
use la_flatcombine::FcCounter;
use la_reclaim::{ReclaimDomain, TreiberStack};
use larng::default_rng;
use levelarray::{
    ActivityArray, ElasticLevelArray, GrowthPolicy, LevelArray, LevelArrayConfig, Name,
    ShardedLevelArray, SlotLayout, TasKind,
};

/// Warm-up and measurement windows: full-size by default, tiny under
/// `MICRO_QUICK=1` (the `make bench-smoke` mode).
fn windows() -> (Duration, Duration) {
    let quick = std::env::var("MICRO_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    if quick {
        (Duration::from_millis(50), Duration::from_millis(150))
    } else {
        (Duration::from_millis(500), Duration::from_secs(2))
    }
}

/// Occupies `fraction` of the structure's contention bound and returns the
/// held names so the benchmark runs at a realistic load.
fn prefill(array: &dyn ActivityArray, fraction: f64, seed: u64) -> Vec<Name> {
    let mut rng = default_rng(seed);
    let target = ((array.max_participants() as f64) * fraction) as usize;
    (0..target).map(|_| array.get(&mut rng).name()).collect()
}

fn bench_get_free(c: &mut Criterion) {
    let n = 256;
    let mut group = c.benchmark_group("get_free_50pct");
    let (warm_up, measurement) = windows();
    group.measurement_time(measurement);
    group.warm_up_time(warm_up);
    group.sample_size(30);

    let arrays: Vec<(&str, Box<dyn ActivityArray>)> = vec![
        ("LevelArray", Box::new(LevelArray::new(n))),
        (
            "LevelArray-swap",
            Box::new(
                LevelArrayConfig::new(n)
                    .tas_kind(TasKind::Swap)
                    .build()
                    .unwrap(),
            ),
        ),
        (
            "LevelArray-packed",
            Box::new(
                LevelArrayConfig::new(n)
                    .slot_layout(SlotLayout::Packed)
                    .build()
                    .unwrap(),
            ),
        ),
        (
            "LevelArray-hybrid",
            Box::new(LevelArrayConfig::new(n).hybrid_layout().build().unwrap()),
        ),
        (
            // Free→Get hint cache on: at 50% occupancy the hinted slot is
            // re-won with one CAS, so this cell shows the fast-path floor.
            "LevelArray-hint",
            Box::new(LevelArrayConfig::new(n).free_hint(true).build().unwrap()),
        ),
        (
            "ShardedLevelArray-s4",
            Box::new(ShardedLevelArray::new(n, 4)),
        ),
        (
            // Fully provisioned single epoch: isolates the epoch-chain
            // overhead (read lock + tag) against the plain LevelArray.
            "ElasticLevelArray-e4",
            Box::new(ElasticLevelArray::new(
                n,
                GrowthPolicy::Doubling { max_epochs: 4 },
            )),
        ),
        ("Random", Box::new(RandomArray::new(n))),
        ("LinearProbing", Box::new(LinearProbingArray::new(n))),
        ("LinearScan", Box::new(LinearScanArray::new(n))),
    ];
    for (label, array) in &arrays {
        let _held = prefill(array.as_ref(), 0.5, 1);
        let mut rng = default_rng(2);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let got = array.get(&mut rng);
                array.free(got.name());
                got.probes()
            })
        });
    }
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    let n = 256;
    let k = 16;
    let mut group = c.benchmark_group("batched_k16_50pct");
    let (warm_up, measurement) = windows();
    group.measurement_time(measurement);
    group.warm_up_time(warm_up);
    group.sample_size(30);

    // One iteration = a k-name acquire + release round.  The batched rows go
    // through get_many/free_many (one multi-claim RMW per probed word on the
    // packed layout, one fetch_and per released word); the singleton rows run
    // the same round as k independent get/free pairs.
    let arrays: Vec<(&str, Box<dyn ActivityArray>)> = vec![
        ("LevelArray", Box::new(LevelArray::new(n))),
        (
            "LevelArray-packed",
            Box::new(
                LevelArrayConfig::new(n)
                    .slot_layout(SlotLayout::Packed)
                    .build()
                    .unwrap(),
            ),
        ),
        (
            "LevelArray-hybrid",
            Box::new(LevelArrayConfig::new(n).hybrid_layout().build().unwrap()),
        ),
        (
            "ShardedLevelArray-s4",
            Box::new(ShardedLevelArray::new(n, 4)),
        ),
        (
            "ElasticLevelArray-e4",
            Box::new(ElasticLevelArray::new(
                n,
                GrowthPolicy::Doubling { max_epochs: 4 },
            )),
        ),
    ];
    for (label, array) in &arrays {
        let _held = prefill(array.as_ref(), 0.5, 7);
        let mut rng = default_rng(8);
        let mut out = Vec::with_capacity(k);
        let mut names: Vec<Name> = Vec::with_capacity(k);
        group.bench_function(BenchmarkId::new("batched", label), |b| {
            b.iter(|| {
                out.clear();
                names.clear();
                array.get_many(&mut rng, k, &mut out);
                names.extend(out.iter().map(|got| got.name()));
                array.free_many(&names);
                names.len()
            })
        });
        group.bench_function(BenchmarkId::new("singleton", label), |b| {
            b.iter(|| {
                names.clear();
                for _ in 0..k {
                    names.push(array.get(&mut rng).name());
                }
                for &name in &names {
                    array.free(name);
                }
                names.len()
            })
        });
    }
    group.finish();
}

fn bench_collect(c: &mut Criterion) {
    let mut group = c.benchmark_group("collect");
    let (warm_up, measurement) = windows();
    group.measurement_time(measurement);
    group.warm_up_time(warm_up);
    group.sample_size(30);
    for n in [64usize, 256, 1024] {
        let array = LevelArray::new(n);
        let _held = prefill(&array, 0.5, 3);
        group.bench_with_input(BenchmarkId::new("LevelArray", n), &n, |b, _| {
            b.iter(|| array.collect().len())
        });
    }
    // The slot-layout ablation: the same scan into a reused buffer
    // (collect_into), so the cell isolates the memory actually touched —
    // one word per slot vs one bit per slot.
    for layout in ["word-per-slot", "packed", "hybrid"] {
        let label = match layout {
            "word-per-slot" => "LevelArray-collect_into",
            "packed" => "LevelArray-packed-collect_into",
            _ => "LevelArray-hybrid-collect_into",
        };
        for n in [256usize, 1024] {
            let config = match layout {
                "word-per-slot" => LevelArrayConfig::new(n).slot_layout(SlotLayout::WordPerSlot),
                "packed" => LevelArrayConfig::new(n).slot_layout(SlotLayout::Packed),
                // Default crossover: batch 0 word-per-slot, tail packed.
                _ => LevelArrayConfig::new(n).hybrid_layout(),
            };
            let array = config.build().unwrap();
            let _held = prefill(&array, 0.5, 3);
            let mut out = Vec::with_capacity(array.capacity());
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    out.clear();
                    array.collect_into(&mut out);
                    out.len()
                })
            });
        }
    }
    group.finish();
}

fn bench_applications(c: &mut Criterion) {
    let mut group = c.benchmark_group("applications");
    let (warm_up, measurement) = windows();
    group.measurement_time(measurement);
    group.warm_up_time(warm_up);
    group.sample_size(30);

    // Memory reclamation: pin/unpin plus one push/pop cycle.
    {
        let domain = Arc::new(ReclaimDomain::new(Arc::new(LevelArray::new(64))));
        let stack = TreiberStack::new(Arc::clone(&domain));
        let mut rng = default_rng(4);
        let mut i = 0u64;
        group.bench_function("reclaim_push_pop", |b| {
            b.iter(|| {
                stack.push(i, &mut rng);
                i += 1;
                let popped = stack.pop(&mut rng);
                if i % 1024 == 0 {
                    domain.try_reclaim();
                }
                popped
            })
        });
        domain.try_reclaim();
    }

    // Registration under Collect: pin/unpin on the perfbench `reclaim`
    // registry size while a helper thread scans the same registry in a
    // loop, as another core's reclamation passes do.  Each scan reads every
    // registry line, so this is the cell where a pin pays for pulling its
    // slot's line back from the scanning core.
    {
        let domain = ReclaimDomain::new(Arc::new(LevelArray::new(4096)));
        let stop = AtomicBool::new(false);
        let mut rng = default_rng(7);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut scan = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    scan.clear();
                    domain.registry().collect_into(&mut scan);
                }
            });
            group.bench_function("reclaim_pin_while_collecting", |b| {
                b.iter(|| domain.pin(&mut rng).probes())
            });
            stop.store(true, Ordering::Relaxed);
        });
    }

    // Flat combining: uncontended fetch_add through the combiner.
    {
        let counter = FcCounter::new(Arc::new(LevelArray::new(64)));
        let mut rng = default_rng(5);
        let session = counter.join(&mut rng);
        group.bench_function("flatcombine_fetch_add", |b| b.iter(|| session.fetch_add(1)));
    }

    // Reader registry: enter/exit a read-side critical section.
    {
        let registry = ReaderRegistry::new(Arc::new(LevelArray::new(64)));
        let mut rng = default_rng(6);
        group.bench_function("reader_registry_enter_exit", |b| {
            b.iter(|| {
                let guard = registry.enter(&mut rng);
                guard.probes()
            })
        });
    }

    group.finish();
}

criterion_group!(
    benches,
    bench_get_free,
    bench_batched,
    bench_collect,
    bench_applications
);
criterion_main!(benches);
