#!/bin/sh
# Shell-level contract tests for the installed binaries: the exit codes
# documented in README.md (and in each binary's man page) are part of
# the scripting interface, and the trace sink must survive SIGTERM.
#
#   usage: test_cli.sh QUBE QDIAMETER QUBED QCHECK_PROOF HARD_INSTANCE
#
# Exit-code contract under test:
#   qube          10 true | 20 false | 30 unknown | 2 bad input
#   qdiameter     0 ok | 2 bad input
#   qubed         0 all decided | 2 input error | 3 some unknown | 4 internal
#   qcheck_proof  0 valid | 1 invalid | 2 usage or input error
set -u

QUBE=$1
QDIAMETER=$2
QUBED=$3
QCHECK=$4
HARD=$5

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

fail() {
  echo "test_cli: FAIL: $1" >&2
  exit 1
}

# expect CODE DESC CMD... : run CMD, demand exit code CODE
expect() {
  want=$1
  desc=$2
  shift 2
  "$@" >/dev/null 2>&1
  got=$?
  [ "$got" -eq "$want" ] || fail "$desc: expected exit $want, got $got"
}

# expect_piped CODE DESC FILE CMD... : pipe FILE into CMD, demand exit
# code CODE
expect_piped() {
  want=$1
  desc=$2
  input=$3
  shift 3
  cat "$input" | "$@" >/dev/null 2>&1
  got=$?
  [ "$got" -eq "$want" ] || fail "$desc: expected exit $want, got $got"
}

# A command that could block (a worker starved of descriptors, a FIFO)
# runs under a time limit where the host has one.
if command -v timeout >/dev/null 2>&1; then guard="timeout 60"; else guard=""; fi

cat > "$tmp/true.qdimacs" <<EOF
p cnf 2 2
e 1 2 0
1 2 0
-1 2 0
EOF

cat > "$tmp/false.qdimacs" <<EOF
p cnf 1 2
e 1 0
1 0
-1 0
EOF

printf 'this is not a qbf\n' > "$tmp/bad.qdimacs"

# the same matrix under a quantifier tree, true
cat > "$tmp/true.nqdimacs" <<EOF
p ncnf 2 2
t (a 1 (e 2))
1 2 0
-1 -2 0
EOF

# ---- qube ----------------------------------------------------------
expect 10 "qube true instance" "$QUBE" "$tmp/true.qdimacs"
expect 20 "qube false instance" "$QUBE" "$tmp/false.qdimacs"
expect 30 "qube starved by node budget" "$QUBE" --max-nodes 1 "$HARD"
"$QUBE" --max-nodes 1 --json-status "$HARD" > "$tmp/starved.json" 2>/dev/null
got=$?
[ "$got" -eq 30 ] || fail "qube --json-status starved: expected exit 30, got $got"
grep -q '"report":{[^}]*"stopped":"node-budget"' "$tmp/starved.json" \
  || fail "qube --json-status starved: report does not read stopped node-budget"
expect 2 "qube malformed input" "$QUBE" "$tmp/bad.qdimacs"
expect 2 "qube missing file" "$QUBE" "$tmp/does-not-exist.qdimacs"

# A path that cannot seek (a pipe) is read to end of file.
expect_piped 10 "qube on a piped true instance" "$tmp/true.qdimacs" "$QUBE" /dev/stdin
expect_piped 10 "qube on a piped NQDIMACS instance" "$tmp/true.nqdimacs" "$QUBE" /dev/stdin
expect_piped 2 "qube on piped malformed input" "$tmp/bad.qdimacs" "$QUBE" /dev/stdin

# ---- qcheck_proof --------------------------------------------------
# The checker loads the formula with qube's loader: a malformed formula,
# a missing one and a directory exit 2 with qube's diagnostic.
"$QUBE" "$tmp/bad.qdimacs" 2> "$tmp/qube.err"
want="qube: $tmp/bad.qdimacs:1:15: missing 'p cnf' header"
[ "$(cat "$tmp/qube.err")" = "$want" ] \
  || fail "qube malformed input: printed $(cat "$tmp/qube.err")"
printf 'p qproof 1\n' > "$tmp/empty.qproof"
for f in "$tmp/bad.qdimacs" "$tmp/does-not-exist.qdimacs" "$tmp"; do
  "$QUBE" "$f" 2> "$tmp/qube.err"
  "$QCHECK" "$f" "$tmp/empty.qproof" 2> "$tmp/qcheck.err"
  got=$?
  [ "$got" -eq 2 ] || fail "qcheck_proof on $f: expected exit 2, got $got"
  qube_diag=$(sed 's/^qube: //' "$tmp/qube.err")
  qcheck_diag=$(sed 's/^qcheck_proof: //' "$tmp/qcheck.err")
  [ -n "$qube_diag" ] && [ "$qcheck_diag" = "$qube_diag" ] \
    || fail "qcheck_proof on $f: printed '$qcheck_diag', qube '$qube_diag'"
done

# The checker reads a piped formula too, and accepts its certificate.
expect 10 "qube --proof true instance" "$QUBE" --proof "$tmp/true.qproof" "$tmp/true.qdimacs"
expect_piped 0 "qcheck_proof on a piped formula" "$tmp/true.qdimacs" \
  "$QCHECK" /dev/stdin "$tmp/true.qproof"

# ---- qdiameter -----------------------------------------------------
expect 2 "qdiameter unreadable model" "$QDIAMETER" "$tmp/bad.qdimacs"
expect 2 "qdiameter missing model" "$QDIAMETER" "$tmp/no-such-model.smv"

# ---- qubed ---------------------------------------------------------
{
  echo "$tmp/true.qdimacs"
  echo "$tmp/false.qdimacs"
} > "$tmp/batch.jsonl"
expect 0 "qubed clean batch" "$QUBED" --workers 2 "$tmp/batch.jsonl"

echo "$tmp/bad.qdimacs" > "$tmp/badbatch.jsonl"
expect 2 "qubed batch with input error" "$QUBED" --workers 2 "$tmp/badbatch.jsonl"

printf '{"path":"%s","max_nodes":1}\n' "$HARD" > "$tmp/starved.jsonl"
expect 3 "qubed starved job stays unknown" \
  "$QUBED" --workers 1 --retries 0 "$tmp/starved.jsonl"
"$QUBED" --workers 1 --retries 0 --summary "$tmp/starved.jsonl" \
  > "$tmp/starved.out" 2>/dev/null
grep -q '"type":"summary".*"unknown":1,"errors":0' "$tmp/starved.out" \
  || fail "qubed starved job: summary does not read unknown 1, errors 0"

# Workers and the certificate re-check open a job's path again, so a
# path that is not a regular file (here a FIFO no one writes) is an
# input error, found before anything opens it.
if command -v mkfifo >/dev/null 2>&1; then
  mkfifo "$tmp/fifo.qdimacs"
  echo "$tmp/fifo.qdimacs" > "$tmp/fifobatch.jsonl"
  expect 2 "qubed batch naming a FIFO" $guard "$QUBED" --workers 1 "$tmp/fifobatch.jsonl"
fi

expect 2 "qubed missing batch file" "$QUBED" "$tmp/no-such-batch.jsonl"
expect 2 "qubed with no workers" "$QUBED" --workers 0 "$tmp/batch.jsonl"

# ---- qubed when no worker can be spawned ---------------------------
# With fds 3-9 closed and a limit of 4 descriptors, qubed can read its
# batch but not open a worker's pipes.  Each job must fail its one round
# as a `spawn` failure and the batch must end with exit 3, not hang.
(
  exec 3>&- 4>&- 5>&- 6>&- 7>&- 8>&- 9>&-
  ulimit -n 4
  exec $guard "$QUBED" --retries 0 --summary "$tmp/batch.jsonl"
) > "$tmp/nospawn.out" 2>/dev/null
got=$?
[ "$got" -eq 3 ] || fail "qubed without spawnable workers: expected exit 3, got $got"
[ "$(grep -c '"failures":{"spawn":1}' "$tmp/nospawn.out")" -eq 2 ] \
  || fail "qubed without spawnable workers: a job did not fail once as spawn"
[ "$(wc -l < "$tmp/nospawn.out")" -eq 3 ] \
  || fail "qubed without spawnable workers: expected 2 status lines and a summary"
grep -q '"type":"summary".*"spawns":0[,}]' "$tmp/nospawn.out" \
  || fail "qubed without spawnable workers: summary does not read spawns 0"

# ---- trace durability across SIGTERM -------------------------------
# The JSONL trace sink must be flushed and closed on the signal exit
# path, not just on a clean finish: after SIGTERM the file has to exist,
# be non-empty, and contain only complete lines.
"$QUBE" --trace "$tmp/trace.jsonl" "$HARD" >/dev/null 2>&1 &
pid=$!
sleep 0.3
kill -TERM "$pid" 2>/dev/null
wait "$pid"
got=$?
case "$got" in
  10|20|30) : ;;  # 30 when the signal lands mid-search; 10/20 if it won first
  *) fail "qube under SIGTERM: expected exit 10/20/30, got $got" ;;
esac
[ -s "$tmp/trace.jsonl" ] || fail "trace file empty after SIGTERM"
# every line is a complete JSON object: starts with '{' and ends with '}'
if grep -qv '^{.*}$' "$tmp/trace.jsonl"; then
  fail "trace file has an incomplete line after SIGTERM"
fi

echo "test_cli: all exit-code and durability checks passed"
