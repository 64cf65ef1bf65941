.PHONY: all build test check crash contention scrub perfbench-selftest bench-engine bench-migrate bench-compare fmt clean

all: build

build:
	dune build

test:
	dune runtest

# Full CI gate: build, tests, and (when ocamlformat is installed) a
# formatting check. See ci/check.sh.
check:
	./ci/check.sh

# Crash matrix only: every fault-injection site crossed with every
# operator, at a fixed seed so failures reproduce.
crash:
	NBSC_CRASH_SEED=42 dune exec test/test_crash_matrix.exe

# Contention soak only: high-conflict workload crossed with every sync
# strategy, fault-free and with a sync-commit fault, at a fixed seed.
contention:
	NBSC_CONTENTION_SEED=42 dune exec test/test_contention.exe

# Storage-integrity drill (bench-free): the integrity suite at a fixed
# seed, then an end-to-end scrub pass — generate a store, verify it
# clean, damage one byte, verify the scrub refuses it.
scrub:
	NBSC_CRASH_SEED=42 dune exec test/test_integrity.exe
	@dir=$$(mktemp -u /tmp/nbsc_scrub.XXXXXX); \
	trap 'rm -rf "$$dir"' EXIT; \
	dune exec bin/nbsc_cli.exe -- mkstore "$$dir" --rows 200 && \
	dune exec bin/nbsc_cli.exe -- scrub "$$dir" && \
	dune exec bin/nbsc_cli.exe -- flip "$$dir/wal.nbsc" && \
	if dune exec bin/nbsc_cli.exe -- scrub "$$dir"; then \
	  echo "scrub missed injected corruption" >&2; exit 1; \
	else echo "scrub drill OK"; fi

# The schema-change benchmark's determinism self-test: every perfbench
# workload at tiny scale, rerun with the same seed and with another; the
# counts must repeat exactly and every oracle check must hold. Builds
# perfbench/ in its own profile under .perfbench_work/. Part of ci/check.sh.
perfbench-selftest:
	python3 perfbench/run.py --selftest

# Full-scale engine bench: mixed transactional workload under a
# concurrent FOJ schema change; writes BENCH_engine.json and gates
# against the committed quick-scale baseline.
bench-engine:
	dune exec bench/main.exe -- engine --out BENCH_engine.json \
		--gate ci/bench_engine_baseline.json

# Migration-strategy bench: eager vs lazy vs hybrid initial-image
# migration for the same FOJ change under a live workload; writes
# BENCH_migrate.json (the eager-vs-lazy trajectory) and gates the
# aggregate workload throughput against the committed full-scale
# baseline.
bench-migrate:
	dune exec bench/main.exe -- migrate --out BENCH_migrate.json \
		--gate ci/bench_migrate_baseline.json

# Competitor-strategy bench: the paper's log-redo method vs the
# DBLog-style virtual-cut populator vs the shadow-table baseline, all
# running the same FOJ change under the same live workload; writes
# BENCH_compare.json (throughput impact, catch-up lag, WAL high-water,
# crash-resume cost) and gates the paper run's workload throughput
# against the committed baseline. Exits non-zero if any strategy
# diverges from its relational oracle.
bench-compare:
	dune exec bench/main.exe -- compare --out BENCH_compare.json \
		--gate ci/bench_compare_baseline.json

# Reformat in place (requires ocamlformat).
fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
