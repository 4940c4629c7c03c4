# Local mirror of .github/workflows/ci.yml — `make ci` runs the full gate.

CARGO ?= cargo

.PHONY: ci fmt clippy build test doc bench-check bench-smoke bench-json bench-diff bench-layout bench-topology bench-batch examples miri loom loom-mutant fault fault-storm perfbench-smoke scan-placement

ci: fmt clippy build test doc bench-check

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps

bench-check:
	$(CARGO) bench --no-run

# Run every bench binary on a minimal cell so the bench wiring (workload
# construction, algorithm set, table rendering) is *executed*, not just
# compiled.  Finishes in well under a minute.  Honors BENCH_JSON (exported by
# bench-diff) to also emit machine-readable records.
bench-smoke:
	FIG2_THREADS=2 FIG2_OPS=2000 FIG2_EMULATED=4 FIG2_SHARDS=2 FIG2_ELASTIC_EPOCHS=4 \
		$(CARGO) bench --bench fig2_panels
	SWEEP_THREADS=2 SWEEP_OPS=2000 SWEEP_EMULATED=4 \
		SWEEP_COLLECT_N=256 SWEEP_COLLECT_ITERS=50 \
		$(CARGO) bench --bench sweeps
	FIG3_N=64 FIG3_OPS=4000 FIG3_SNAPSHOT=1000 FIG3_SHARDS=2 FIG3_ELASTIC_EPOCHS=4 \
		$(CARGO) bench --bench fig3_healing
	MICRO_QUICK=1 $(CARGO) bench --bench micro

# The reference cells behind the committed baseline table: the same shape as
# bench-smoke but with enough operations per cell that throughput is stable
# enough to diff (the smoke cells are far too small for that).  The caller
# sets BENCH_JSON; micro is skipped (its criterion stand-in has no JSON).
# The topology storm runs as its own sweeps invocation because it needs a
# different shape from the core sweeps: a >=8-thread contended Get storm at
# 90% prefill and space factor 1.5, with enough ops per thread that every
# thread is descheduled mid-run and the threads genuinely overlap (shorter
# runs complete within one timeslice on a loaded box and flatter the flat
# layout).  g=16 is omitted: 1024 shards of 16 names runs the storm an order
# of magnitude slower, and the small-group end is covered at smoke size by
# bench-topology.
bench-json:
	BENCH_REPEAT=5 FIG2_THREADS=2 FIG2_OPS=50000 FIG2_EMULATED=8 FIG2_SHARDS=2 FIG2_ELASTIC_EPOCHS=4 \
		$(CARGO) bench --bench fig2_panels
	BENCH_REPEAT=5 SWEEP_ONLY=core SWEEP_THREADS=2 SWEEP_OPS=50000 SWEEP_EMULATED=8 \
		$(CARGO) bench --bench sweeps
	BENCH_REPEAT=3 SWEEP_ONLY=topology SWEEP_THREADS=256 SWEEP_TOPOLOGY_EMULATED=64 \
		SWEEP_TOPOLOGY_OPS=400000 SWEEP_TOPOLOGY_GROUPS=0,64,256 \
		$(CARGO) bench --bench sweeps
	FIG3_N=256 FIG3_OPS=32000 FIG3_SNAPSHOT=4000 FIG3_SHARDS=2 FIG3_ELASTIC_EPOCHS=4 \
		$(CARGO) bench --bench fig3_healing
	BENCH_REPEAT=5 SWEEP_ONLY=batch SWEEP_BATCH_K=16 \
		$(CARGO) bench --bench sweeps

# The slot-layout ablation in isolation: the sweeps bench at reference-cell
# sizes, which prints the Get-side layout table (word-per-slot / packed /
# hybrid at the sweep thread count and at >=8 threads), the Collect-latency
# table with the scalar-walk reference row, and the Free->Get hint micro.
# This is the recipe behind the committed crossover default for
# `hybrid_layout()`; set BENCH_JSON to capture records.
bench-layout:
	BENCH_REPEAT=5 SWEEP_ONLY=core SWEEP_THREADS=2 SWEEP_OPS=50000 SWEEP_EMULATED=8 \
		$(CARGO) bench --bench sweeps

# The batched-ops micro in isolation: get_many/free_many at SWEEP_BATCH_K
# (default 16) against the equivalent k-singleton loops, per slot layout.
# This is the recipe behind the committed batched-vs-singleton records
# (sweeps/batch/... keys, emitted by bench-json at BENCH_REPEAT=5); set
# BENCH_JSON to capture records.  Shape knobs: SWEEP_BATCH_K / _N / _ROUNDS
# (see benches/sweeps.rs).
bench-batch:
	BENCH_REPEAT=5 SWEEP_ONLY=batch $(CARGO) bench --bench sweeps

# The hierarchical-composition storm in isolation: shard-group scaling of the
# elastic-of-sharded array and the packed-vs-word false-sharing tax under a
# >=8-thread contended Get storm.  This is the recipe behind the committed
# DEFAULT_SHARD_GROUP and shrink-watermark defaults (at the bench-json shape
# above); `MICRO_QUICK=1 make bench-topology` shrinks it to smoke size for
# CI.  Shape knobs: SWEEP_TOPOLOGY_EMULATED / _OPS / _PREFILL / _SPACE /
# _GROUPS (see benches/sweeps.rs).
bench-topology:
	SWEEP_ONLY=topology $(CARGO) bench --bench sweeps

# Regression check: rerun the reference cells with JSON output and diff them
# against the committed table, flagging >20% throughput or worst-case drift
# (exit 1 on drift; CI runs this as a non-blocking step so elastic-path
# perf drift is visible per-PR without gating on machine-specific numbers).  Throughput baselines are machine-specific — regenerate
# with `rm bench/baselines/smoke.json && BENCH_JSON=$(CURDIR)/bench/baselines/smoke.json make bench-json`
# on the reference machine.  Tune with BENCH_DIFF_TOLERANCE=<fraction>.
bench-diff:
	rm -f target/bench-current.json
	BENCH_JSON=$(CURDIR)/target/bench-current.json $(MAKE) bench-json
	$(CARGO) run -q --release -p la_bench --bin bench_diff -- \
		bench/baselines target/bench-current.json

# The repository benchmark (perfbench, see BENCHMARK.json) is a workspace of
# its own, so the build/clippy/test steps above never compile it: run two
# short workloads and require their self-checks to pass, so a library API
# change cannot break the benchmark unseen.  `elastic` covers the elastic
# array; `reclaim` checks the reclamation domain's accounting end to end
# (the Treiber stack drains by count and checksum, and after a quiescent
# pass retired == freed with nothing left in limbo).  The last stdout line
# of each run is its JSON record.
perfbench-smoke:
	CARGO_TARGET_DIR=.bench_build $(CARGO) run --quiet --release --offline \
		--manifest-path perfbench/Cargo.toml -- \
		--workload elastic --seed 1 --seconds 1 --trace 0 \
		| tail -n 1 | grep '"correct": true'
	CARGO_TARGET_DIR=.bench_build $(CARGO) run --quiet --release --offline \
		--manifest-path perfbench/Cargo.toml -- \
		--workload reclaim --seed 1 --seconds 1 --trace 0 \
		| tail -n 1 | grep '"correct": true'

# Where the word-per-slot Collect loop landed in the perfbench binary (a
# report, not a gate; build it first, e.g. with `make perfbench-smoke`).
# `reclaim` throughput swings with the offset of that loop within its
# 64-byte line (see ROADMAP.md), so for each copy of
# `SlotSlab::collect_all_into` this prints the line offset that the
# backward `jne` after `cmp $$0x1` jumps to, and the functions that call
# the copy.  Prints "not found" and succeeds when the pattern is absent.
# Point it at another build with SCAN_BIN=<path>.
SCAN_BIN ?= .bench_build/release/perfbench
scan-placement:
	@found=0; \
	for sym in $$(nm -S $(SCAN_BIN) 2>/dev/null | awk '/SlotSlab16collect_all_into/ {print $$1 ":" $$2}'); do \
		start=$$((0x$${sym%%:*})); stop=$$((start + 0x$${sym##*:})); \
		target=$$(objdump -d --no-show-raw-insn --start-address=$$start --stop-address=$$stop $(SCAN_BIN) \
			| awk '{ at = $$1; sub(":", "", at) } \
				cmp && $$2 == "jne" && (length($$3) < length(at) || (length($$3) == length(at) && $$3 < at)) { print $$3; exit } \
				{ cmp = /cmp +\$$0x1,/ }'); \
		[ -n "$$target" ] || continue; \
		found=1; \
		callers=$$(objdump -d -C --no-show-raw-insn $(SCAN_BIN) \
			| awk -v a=$$(printf '%x' $$start) '/^[0-9a-f]+ </ { fn = $$0; sub(/^[0-9a-f]+ </, "", fn); sub(/>:$$/, "", fn) } \
				$$2 == "call" && $$3 == a { print fn }' | sort -u | paste -sd ';'); \
		printf 'collect_all_into @ 0x%x: loop lands at 0x%02x of its 64-byte line; called from %s\n' \
			$$start $$((0x$$target & 63)) "$$callers"; \
	done; \
	[ $$found = 1 ] || echo "not found"

# Model-checked interleavings of the innermost slot representations and the
# layout-conformance seam (the suites shrink their case counts under
# cfg(miri)).  Needs the nightly toolchain with the miri component:
#   rustup toolchain install nightly --component miri
miri:
	$(CARGO) +nightly miri test -p levelarray --lib -- slot:: packed:: probe_core:: hint:: shrink
	$(CARGO) +nightly miri test -p levelarray --lib -- epoch_chain::
	$(CARGO) +nightly miri test -p levelarray --test layout_conformance
	$(CARGO) +nightly miri test -p levelarray --test free_hint
	$(CARGO) +nightly miri test -p la_reclaim --lib -- stack::
	$(CARGO) +nightly miri test -p la_flatcombine --lib -- engine::

# The loom-style model checker over the elastic epoch chain (see
# docs/TESTING.md).  `--cfg la_loom` reroutes every atomic in the lock-free
# core through the vendored `vendor/loom` runtime, which exhaustively
# explores thread interleavings — and the stale-read branches the C11 model
# allows for non-SeqCst loads — within a preemption bound.  A dedicated
# target dir keeps the RUSTFLAGS-keyed build cache away from the normal one.
# Knobs: LOOM_MAX_PREEMPTIONS (default 2), LOOM_MAX_DURATION_SECS (per-model
# time budget, default 60), LOOM_MAX_EXECUTIONS, LOOM_MAX_STEPS.
loom:
	RUSTFLAGS="--cfg la_loom" CARGO_TARGET_DIR=target/loom \
		$(CARGO) test -p levelarray --test loom_chain -- --test-threads=1 --nocapture
	RUSTFLAGS="--cfg la_loom" CARGO_TARGET_DIR=target/loom \
		$(CARGO) test -p la_reclaim --test loom_domain -- --test-threads=1
	RUSTFLAGS="--cfg la_loom" CARGO_TARGET_DIR=target/loom \
		$(CARGO) build -p la_reclaim -p la_flatcombine
	CARGO_TARGET_DIR=target/loom $(CARGO) test -p loom --test litmus -q

# Crash-robustness gate (see docs/ROBUSTNESS.md).  `--cfg la_fault` turns
# the `la_fault::fail_point!` sites threaded through probe_core, packed,
# the epoch chain, the registry, reclamation and the combiner hand-off
# live; the full workspace suite then runs with the sites compiled in but
# *inert* (no plan armed — proving the instrumentation itself changes no
# behavior), followed by the panic_safety storms, which arm seeded plans
# per test.  The storm binary is serialized (`--test-threads=1`): la_fault's
# plan is process-global.  A dedicated target dir keeps the RUSTFLAGS-keyed
# cache away from the normal build.
fault:
	RUSTFLAGS="--cfg la_fault" CARGO_TARGET_DIR=target/fault \
		$(CARGO) test -q
	RUSTFLAGS="--cfg la_loom --cfg la_fault" CARGO_TARGET_DIR=target/loom_fault \
		$(CARGO) build -p levelarray -p la_reclaim -p la_flatcombine

# The seeded crash storm in isolation, plus the armed bench cell
# (sweeps/fault/storm=armed).  Re-seed with LA_FAULT_SEED=<u64>; the
# committed guards-only baseline cell comes from the *normal* build
# (`SWEEP_ONLY=fault make bench-json`-style run without the cfg).
fault-storm:
	RUSTFLAGS="--cfg la_fault" CARGO_TARGET_DIR=target/fault \
		$(CARGO) test --test panic_safety -- --test-threads=1 --nocapture
	RUSTFLAGS="--cfg la_fault" CARGO_TARGET_DIR=target/fault SWEEP_ONLY=fault \
		$(CARGO) bench --bench sweeps

# Mutation soundness check: rebuild with each seeded ordering bug and
# require the model suite to FAIL on both — a green mutant means the models
# lost their teeth.  `la_loom_weak_seal` relaxes the retirement seal CAS;
# `la_loom_weak_held` makes a free's drain check read only the caller's own
# stripe of the striped per-epoch held counter.  One target dir per mutant,
# so neither rebuild evicts the other's RUSTFLAGS-keyed cache.
loom-mutant:
	! RUSTFLAGS="--cfg la_loom --cfg la_loom_weak_seal" CARGO_TARGET_DIR=target/loom_mutant \
		$(CARGO) test -p levelarray --test loom_chain seal -- --test-threads=1
	! RUSTFLAGS="--cfg la_loom --cfg la_loom_weak_held" CARGO_TARGET_DIR=target/loom_mutant_held \
		$(CARGO) test -p levelarray --test loom_chain last_frees -- --test-threads=1

examples:
	$(CARGO) run -q --release --example quickstart
	$(CARGO) run -q --release --example healing
	$(CARGO) run -q --release --example sharded
	$(CARGO) run -q --release --example elastic
	$(CARGO) run -q --release --example hierarchical
	$(CARGO) run -q --release --example coordination
	$(CARGO) run -q --release --example flat_combining
	$(CARGO) run -q --release --example memory_reclamation
