#!/bin/sh
# CI gate: build + tests, plus a formatting check when ocamlformat is
# available. The formatting step is advisory-by-absence: environments
# without ocamlformat (the binary is not part of the base toolchain)
# skip it rather than fail.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

# dune runtest already runs the crash matrix with a random seed; this
# second pass pins the seed so a CI failure is reproducible verbatim.
echo "== crash matrix (fixed seed) =="
NBSC_CRASH_SEED=42 dune exec test/test_crash_matrix.exe

# Same idea for the contention soak: a pinned seed makes any livelock
# or divergence reproducible verbatim.
echo "== contention soak (fixed seed) =="
NBSC_CONTENTION_SEED=42 dune exec test/test_contention.exe

# Storage-integrity matrix at a pinned seed: checksummed-format
# verification, disk-error model (EIO retry, ENOSPC degraded mode),
# and the flip/truncate fuzz property.
echo "== integrity matrix (fixed seed) =="
NBSC_CRASH_SEED=42 dune exec test/test_integrity.exe

# End-to-end scrub drill: a freshly generated store must scrub clean
# (exit 0); after one flipped byte the scrub must refuse it (non-zero).
echo "== nbsc scrub drill =="
scrub_dir=$(mktemp -u /tmp/nbsc_scrub.XXXXXX)
dune exec bin/nbsc_cli.exe -- mkstore "$scrub_dir" --rows 200 >/dev/null
dune exec bin/nbsc_cli.exe -- scrub "$scrub_dir" >/dev/null
dune exec bin/nbsc_cli.exe -- flip "$scrub_dir/wal.nbsc" >/dev/null
if dune exec bin/nbsc_cli.exe -- scrub "$scrub_dir" >/dev/null 2>&1; then
  echo "nbsc scrub missed injected corruption" >&2
  rm -rf "$scrub_dir"
  exit 1
fi
rm -rf "$scrub_dir"

# Trace-enabled fixed-seed simulation: write the event stream as JSON
# lines, then have the CLI re-read it and check one well-formed object
# per line with the required fields (ev/name/at, span/parent on span
# events). Guards the observability wire format end to end.
echo "== trace output validation (fixed seed) =="
trace_out=$(mktemp /tmp/nbsc_trace.XXXXXX.jsonl)
wal_out=$(mktemp /tmp/nbsc_bench_wal.XXXXXX.json)
trap 'rm -f "$trace_out" "$wal_out"' EXIT
dune exec bin/nbsc_cli.exe -- trace --seed 42 --out "$trace_out" --validate
test -s "$trace_out"

# The bounded-memory WAL soak: a fixed-seed simulation with a
# never-synchronizing schema change plus sustained traffic must keep
# the live log's high-water mark under the bound and independent of
# run length (test/test_sim.ml, group "soak").
echo "== wal soak (bounded log memory, fixed seed) =="
dune exec test/test_sim.exe -- test soak

# The schema-change benchmark's determinism self-test (perfbench/):
# every workload at tiny scale, twice with one seed and once with
# another. It fails if a same-seed rerun changes any count, if the
# streams do not change with the seed, or if an oracle, durability or
# stream-identity check inside the benchmark fails. So an engine change
# that breaks the benchmark's exact replay fails here, not only when
# the benchmark itself runs.
echo "== perfbench determinism self-test =="
python3 perfbench/run.py --selftest

# Smoke the wal bench end to end and check it produces valid JSON.
echo "== bench wal smoke =="
dune exec bench/main.exe -- wal quick --out "$wal_out" >/dev/null
test -s "$wal_out"

# Smoke the engine bench (quick scale) and gate it: the run must emit
# the expected JSON shape and stay within 20% of the committed
# baseline's mixed-workload throughput (the gate exits non-zero on a
# regression past the margin).
echo "== bench engine smoke + regression gate =="
engine_out=$(mktemp /tmp/nbsc_bench_engine.XXXXXX.json)
trap 'rm -f "$trace_out" "$wal_out" "$engine_out"' EXIT
dune exec bench/main.exe -- engine quick --out "$engine_out" \
  --gate ci/bench_engine_baseline.json >/dev/null
test -s "$engine_out"
for key in '"bench":"engine"' '"populate"' '"propagate"' '"txn_per_s"' \
  '"alloc_words_per_txn"' '"baseline"' '"speedup_txn"'; do
  grep -q "$key" "$engine_out" || {
    echo "bench engine JSON missing $key" >&2
    exit 1
  }
done

# Migration-strategy bench (full scale — it is cheap): the same FOJ
# change under eager, lazy and hybrid initial-image migration with a
# live workload. The bench itself exits non-zero if any strategy's
# target diverges from the FOJ oracle, and the gate holds the
# aggregate workload throughput within 30% of the committed baseline
# (full scale so the baseline's scale matches the run's).
echo "== bench migrate smoke + oracle equality + regression gate =="
migrate_out=$(mktemp /tmp/nbsc_bench_migrate.XXXXXX.json)
trap 'rm -f "$trace_out" "$wal_out" "$engine_out" "$migrate_out"' EXIT
dune exec bench/main.exe -- migrate --out "$migrate_out" \
  --gate ci/bench_migrate_baseline.json >/dev/null
test -s "$migrate_out"
for key in '"bench":"migrate"' '"eager"' '"lazy"' '"hybrid"' \
  '"demand_migrations"' '"workload_txn_per_s"' '"lazy_total_vs_eager"'; do
  grep -q "$key" "$migrate_out" || {
    echo "bench migrate JSON missing $key" >&2
    exit 1
  }
done

# Competitor-strategy bench (full scale — it is cheap): the paper's
# log-redo method, the DBLog-style virtual-cut populator, and the
# shadow-table baseline run the same FOJ change under the same live
# workload. The bench itself exits non-zero if any strategy's target
# diverges from its relational FOJ oracle (crash-resume mini-runs
# included), and the gate holds the paper run's workload throughput
# within 30% of the committed baseline. The measured window is tens of
# milliseconds, so the rate is noisy on a loaded host: best of three.
echo "== bench compare smoke + oracle equality + regression gate =="
compare_out=$(mktemp /tmp/nbsc_bench_compare.XXXXXX.json)
trap 'rm -f "$trace_out" "$wal_out" "$engine_out" "$migrate_out" "$compare_out"' EXIT
compare_ok=0
for attempt in 1 2 3; do
  if dune exec bench/main.exe -- compare --out "$compare_out" \
    --gate ci/bench_compare_baseline.json >/dev/null; then
    compare_ok=1
    break
  fi
  echo "bench compare gate: attempt $attempt failed, retrying"
done
if [ "$compare_ok" != 1 ]; then
  echo "bench compare gate failed on all attempts" >&2
  exit 1
fi
test -s "$compare_out"
for key in '"bench":"compare"' '"paper"' '"virtual-cut"' '"shadow"' \
  '"catchup_lag_peak"' '"wal_high_water"' '"crash_resume_quanta"' \
  '"paper_txn_per_s"' '"shadow_vs_paper_resume"'; do
  grep -q "$key" "$compare_out" || {
    echo "bench compare JSON missing $key" >&2
    exit 1
  }
done

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== ocamlformat check =="
  dune build @fmt
else
  echo "== ocamlformat not installed; skipping format check =="
fi

echo "OK"
