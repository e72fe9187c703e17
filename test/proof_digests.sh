#!/bin/sh
# Print the SHA-256 of the `qube --proof` trace of gray3 phi_7 and of
# every example instance, with default flags ("default") and under
# aggressive learned-DB reduction ("reduce": --restarts
# --db-reduce-interval 16 --db-keep 0.1), one "instance flags digest"
# line each: the format of test/golden/proof_digests.txt.  ncf_hard runs
# under --max-nodes 20000, since it does not finish otherwise.  The
# traces record every learned constraint with its derivation, so a
# change that must not move the search keeps every line.
#
# usage (from the root of a checkout): sh test/proof_digests.sh QUBE QBFGEN
set -e
qube=$1
qbfgen=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$qbfgen" dia --model gray3 -n 7 -o "$tmp/gray3-7.nq" >/dev/null
for f in "$tmp/gray3-7.nq" examples/instances/*; do
  case $f in *ncf_hard*) budget="--max-nodes 20000" ;; *) budget="" ;; esac
  for mode in default reduce; do
    case $mode in
      reduce) flags="--restarts --db-reduce-interval 16 --db-keep 0.1" ;;
      *) flags="" ;;
    esac
    rm -f "$tmp/p.qrp"
    # shellcheck disable=SC2086
    "$qube" "$f" $budget $flags --proof "$tmp/p.qrp" >/dev/null && rc=0 || rc=$?
    case $rc in
      10 | 20 | 30) ;;
      *) echo "qube exited $rc on $f $flags" >&2; exit 1 ;;
    esac
    echo "$(basename "$f") $mode $(sha256sum < "$tmp/p.qrp" | cut -d' ' -f1)"
  done
done
