.PHONY: all build test check crash contention scrub examples perfbench-selftest fmt clean

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

# Storage-integrity drill: the integrity suite at a fixed
# seed, then an end-to-end scrub pass per file of the store — generate a
# store, verify it clean, damage one byte of wal.nbsc (then, on a fresh
# store, of snapshot.nbsc), verify the scrub refuses it.
scrub:
	NBSC_CRASH_SEED=42 dune exec test/test_integrity.exe
	@for damaged in wal.nbsc snapshot.nbsc; do \
	  dir=$$(mktemp -u /tmp/nbsc_scrub.XXXXXX); \
	  dune exec bin/nbsc_cli.exe -- mkstore "$$dir" --rows 200 && \
	  dune exec bin/nbsc_cli.exe -- scrub "$$dir" && \
	  dune exec bin/nbsc_cli.exe -- flip "$$dir/$$damaged" || \
	    { rm -rf "$$dir"; exit 1; }; \
	  if dune exec bin/nbsc_cli.exe -- scrub "$$dir"; then \
	    rm -rf "$$dir"; \
	    echo "scrub missed injected corruption in $$damaged" >&2; exit 1; \
	  fi; \
	  rm -rf "$$dir"; \
	  echo "scrub drill OK ($$damaged)"; \
	done

# The five examples, each checking itself: an example exits 1 when one
# of its printed checks (oracle equality, dropped sources, a clean
# partition) is false, and its output is shown then. Part of
# ci/check.sh.
EXAMPLES = quickstart telecom_foj customer_split many_to_many orders_archive
examples:
	@for ex in $(EXAMPLES); do \
	  out=$$(dune exec examples/$$ex.exe 2>&1) || \
	    { echo "$$out"; echo "examples/$$ex failed" >&2; exit 1; }; \
	  echo "examples/$$ex OK"; \
	done

# The schema-change benchmark's determinism self-test: every perfbench
# workload at tiny scale, rerun with the same seed and with another; the
# counts must repeat exactly and every oracle check must hold. Builds
# perfbench/ in its own profile under .perfbench_work/. Part of ci/check.sh.
perfbench-selftest:
	python3 perfbench/run.py --selftest

# Reformat in place (requires ocamlformat).
fmt:
	dune build @fmt --auto-promote

clean:
	dune clean
