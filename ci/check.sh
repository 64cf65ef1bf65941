#!/bin/sh
# CI gate: build + tests, plus a formatting check when ocamlformat is
# available. The formatting step is advisory-by-absence: environments
# without ocamlformat (the binary is not part of the base toolchain)
# skip it rather than fail.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

# Among the suites, test_work pins the work counts (quanta, rows, log
# records, row versions, refusals, allocation) of three fixed-seed
# schema-change scenarios.
echo "== dune runtest =="
dune runtest

# dune runtest already runs the crash suite at its default seed (42)
# with a random QCheck seed; this pass pins both, at three seeds of the
# suite's own, so every cell meets every sync strategy and both traffic
# shapes and a CI failure is reproducible verbatim. The Makefile holds
# the command.
echo "== crash suite (fixed seeds) =="
make crash

# The lock suite's properties (the reference-model check among them)
# at a pinned seed; QCheck_alcotest reads QCHECK_SEED and prints the
# seed it used, so a failure reproduces verbatim.
echo "== lock suite (fixed seed) =="
QCHECK_SEED=42 dune exec test/test_lock.exe

# The deadlock suite at a pinned seed, for the same reason: its
# property (acyclic after resolution; victims disarmed) draws random
# lock schedules against youngest-in-cycle detection.
echo "== deadlock suite (fixed seed) =="
QCHECK_SEED=42 dune exec test/test_deadlock.exe

# The value suite at a pinned seed: its properties draw values of every
# kind, rows and change lists over them, and integers of every decimal
# width with both signs, min_int and max_int among them; they hold the
# codec to its inverse and the snapshot's digit writer (Codec.add_int)
# to string_of_int, alone and inside every chunk encoder.
echo "== value suite (fixed seed) =="
QCHECK_SEED=42 dune exec test/test_value.exe

# The storage suite at a pinned seed: its hash-index properties (a
# heap-scan reference model over shared indexes and key lists that
# outgrow their bound) draw random insert/update/delete sequences.
echo "== storage suite (fixed seed) =="
QCHECK_SEED=42 dune exec test/test_storage.exe

# The rule-plan suite at a pinned seed: its property checks every
# compiled plan primitive against its list-walking definition over
# random position lists, rows and change lists.
echo "== plan suite (fixed seed) =="
QCHECK_SEED=42 dune exec test/test_plan.exe

# The MVCC suite at a pinned seed: its reference model draws schedules
# of locked writers, snapshot readers and one schema change (a split
# under a drawn sync strategy) and checks every snapshot read, targets
# included, then that finishing everything leaves no version and no
# tracked transaction.
echo "== mvcc suite (fixed seed) =="
QCHECK_SEED=42 dune exec test/test_mvcc.exe

# Storage-integrity matrix at pinned seeds: checksummed-format
# verification, disk-error model (EIO retry, ENOSPC degraded mode),
# scrub and reopen agreeing, and the flip/truncate fuzz property. Then
# the end-to-end scrub drill, once per file of the store: a freshly
# generated store must scrub clean (exit 0); after one flipped byte in
# wal.nbsc, or in snapshot.nbsc, the scrub must refuse it (exit 1).
echo "== integrity matrix and nbsc scrub drill (fixed seed) =="
make scrub

# Trace-enabled fixed-seed simulation: write the event stream as JSON
# lines, then have the CLI re-read it and check one well-formed object
# per line with the required fields (ev/name/at), an integer span on
# every span event, a parent that names a span opened earlier, and no
# close of a span that is not open. Guards the observability wire
# format end to end.
echo "== trace output validation (fixed seed) =="
trace_out=$(mktemp /tmp/nbsc_trace.XXXXXX.jsonl)
trap 'rm -f "$trace_out"' EXIT
dune exec bin/nbsc_cli.exe -- trace --seed 42 --out "$trace_out" --validate
test -s "$trace_out"

# The bounded-memory WAL soak: a fixed-seed simulation with a
# never-synchronizing schema change plus sustained traffic must keep
# the live log's high-water mark under the bound and independent of
# run length (test/test_sim.ml, group "soak").
echo "== wal soak (bounded log memory, fixed seed) =="
dune exec test/test_sim.exe -- test soak

# The examples are compiled by dune build but run only here. Each one
# exits 1 when a check it prints is false: oracle equality, dropped
# sources or a clean partition.
echo "== examples =="
make examples

# Two changes at once through the job registry, with user writes
# between rounds. The command compares both changes' targets with the
# relational oracle and exits 1 on a mismatch.
echo "== nbsc concurrent (oracle check) =="
dune exec bin/nbsc_cli.exe -- concurrent

# A durable split, crashed at an injected fault and resumed. The
# command compares R and S with the split of the kept source T, and T's
# online-built split index with a blocking rebuild, and exits 1 on a
# mismatch. With --after 3 the crash lands inside population and the
# resumed job restarts it; with --after 18 it lands in the change's
# last step, so the resumed job starts in Draining with the index as
# the snapshot restored it. The wal_rewrite runs crash a checkpoint
# between its snapshot and its WAL copy: --after 2 the round-9 one,
# during population (its snapshot holds no R or S row, and the resumed
# job restarts population); --after 5 the round-18 one, so the job
# resumes in Draining from that snapshot's target rows and the WAL an
# earlier checkpoint copied.
echo "== nbsc crash-demo (oracle check) =="
dune exec bin/nbsc_cli.exe -- crash-demo --site quantum_end --after 3
dune exec bin/nbsc_cli.exe -- crash-demo --site quantum_end --after 18
dune exec bin/nbsc_cli.exe -- crash-demo --site wal_rewrite --after 2
dune exec bin/nbsc_cli.exe -- crash-demo --site wal_rewrite --after 5

# The schema-change benchmark's determinism self-test (perfbench/):
# every workload at tiny scale, twice with one seed and once with
# another. It fails if a same-seed rerun changes any count, if the
# streams do not change with the seed, or if an oracle, durability or
# stream-identity check inside the benchmark fails. So an engine change
# that breaks the benchmark's exact replay fails here, not only when
# the benchmark itself runs.
echo "== perfbench determinism self-test =="
python3 perfbench/run.py --selftest

# Every figure and ablation table of the simulator, once, at reduced
# scale (virtual time, fixed seeds). For 4d the command exits non-zero
# unless the priority sweep has the paper's shape: the lowest priority
# never finishes and the highest does, no unfinished point lies above
# a finished one, and completion time does not rise with priority. For
# methods it exits non-zero unless the comparison has the paper's
# shape: the log-based method has the highest relative throughput and
# the lowest relative response time of the three, and the blocking
# dump finishes.
echo "== nbsc figure --quick (every figure) =="
for fig in 4a 4b 4c 4d foj methods ablate; do
  dune exec bin/nbsc_cli.exe -- figure --quick "$fig" >/dev/null
done

# The synchronization window's size per strategy, in the simulator's
# virtual time: twice, and the two outputs must be byte-identical, so
# nothing in it may depend on a clock or on the run.
echo "== nbsc sync (reproducible) =="
sync_a=$(dune exec bin/nbsc_cli.exe -- sync)
sync_b=$(dune exec bin/nbsc_cli.exe -- sync)
echo "$sync_a"
if [ "$sync_a" != "$sync_b" ]; then
  echo "nbsc sync printed different outputs on two runs:" >&2
  echo "$sync_b" >&2
  exit 1
fi

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== ocamlformat check =="
  dune build @fmt
else
  echo "== ocamlformat not installed; skipping format check =="
fi

echo "OK"
