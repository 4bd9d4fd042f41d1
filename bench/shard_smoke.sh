#!/bin/sh
# Shard-determinism gate: the sharded synopsis pipeline must be invisible
# in the numbers. Build the same store at --shards 1/4/8 and require
# (1) `synopsis-build` stdout byte-identical across shard counts,
# (2) `repro_cli batch` answers over each store byte-identical,
# (3) an insert+delete `synopsis-delta` round-trip to produce batch
#     answers byte-identical to a from-scratch rebuild on the post-delta
#     CSVs, and
# (4) the sharded build to emit a "synopsis-build" provenance record, and
# (5) the same delta-vs-rebuild store byte identity for a graph the
#     estimator stores swapped (key side on the left), whose maintained
#     store must also answer `synopsis-estimate`, and
# (6) a CSV that cannot be read (unterminated quote, missing file,
#     duplicate header) to fail the build with exit 1 and an
#     `error: PATH: REASON` line, writing no store, and
# (7) bad arguments to be refused, writing no store: a theta outside
#     (0, 1] (NaN included) as a usage error naming the option (exit
#     124), a join column the CSV lacks with exit 1 and an
#     `error: PATH: no column named "C"` line, and a graph key given
#     twice with exit 2 before any CSV is read.
# Run from the bench build directory by the @shard-smoke alias; on a cmp
# failure the shard-*.txt outputs are what CI uploads as the diff.
set -eu

CLI=../bin/repro_cli.exe

# non-key join columns on both sides (every k repeats) so the estimator
# never swaps orientation, and a jvd far above the variant-selection
# threshold so base and post-delta data resolve to the same spec — the
# preconditions for delta-vs-rebuild byte-identity stated in
# docs/architecture.md
{
  echo k,attr
  i=0
  while [ $i -lt 200 ]; do
    echo "$((i % 20)),$((i % 7))"
    i=$((i + 1))
  done
} > shard-left.csv

{
  echo k,attr
  i=0
  while [ $i -lt 140 ]; do
    echo "$((i % 14)),$((i % 5))"
    i=$((i + 1))
  done
} > shard-right.csv

awk 'BEGIN {
  for (i = 0; i < 20; i++)
    printf "attr < %d ;; attr > %d\n", (i % 7) + 1, i % 3
}' > shard-queries.txt

# ---- phase 1: shard-count invariance ----

for K in 1 4 8; do
  $CLI synopsis-build "g=shard-left.csv:k,shard-right.csv:k" \
    --theta 0.5 --seed 11 --shards "$K" --jobs 2 \
    --store "shard-syn-$K.bin" --bench-json "shard-prov-$K.json" \
    2> /dev/null \
    | sed "s/shard-syn-$K\.bin/STORE/" > "shard-build-$K.txt"
  $CLI batch g --store "shard-syn-$K.bin" --queries shard-queries.txt \
    > "shard-batch-$K.txt"
done

# stdout of the build and of the 20 batch estimates must not depend on K
cmp shard-build-1.txt shard-build-4.txt
cmp shard-build-1.txt shard-build-8.txt
cmp shard-batch-1.txt shard-batch-4.txt
cmp shard-batch-1.txt shard-batch-8.txt

# sharded builds carry offline provenance
grep -q '"experiment": "synopsis-build"' shard-prov-4.json

# ---- phase 2: delta round-trip vs from-scratch rebuild ----

{
  echo k,attr
  echo 3,1
  echo 21,2
  echo 7,0
} > shard-ins-left.csv

{
  echo k,attr
  echo 3,1
  echo 33,4
} > shard-ins-right.csv

cp shard-syn-4.bin shard-syn-delta.bin
$CLI synopsis-delta g --store shard-syn-delta.bin \
  --insert-left shard-ins-left.csv --delete-left 0,13,57 \
  --insert-right shard-ins-right.csv --delete-right 5,28 \
  --out-left shard-delta-left.csv --out-right shard-delta-right.csv \
  > shard-delta.txt 2> /dev/null
grep -q 'applied delta to g' shard-delta.txt

$CLI batch g --store shard-syn-delta.bin --queries shard-queries.txt \
  > shard-batch-delta.txt

# same key => same keyed PRNG stream, so a fresh build over the
# post-delta CSVs must redraw the exact synopsis the delta maintained
$CLI synopsis-build "g=shard-delta-left.csv:k,shard-delta-right.csv:k" \
  --theta 0.5 --seed 11 --shards 4 --store shard-syn-fresh.bin \
  > /dev/null 2>&1
$CLI batch g --store shard-syn-fresh.bin --queries shard-queries.txt \
  > shard-batch-fresh.txt

cmp shard-batch-delta.txt shard-batch-fresh.txt
# same shard count, tables, stream and budget: the maintained store
# file itself must match the fresh rebuild byte for byte
cmp shard-syn-delta.bin shard-syn-fresh.bin

# the maintained store must also be invariant to how it is re-sharded:
# delta again with pure deletes, at the stored shard count, and compare
# against a monolithic rebuild
$CLI synopsis-delta g --store shard-syn-delta.bin --delete-left 4 \
  --out-left shard-delta-left.csv --out-right shard-delta-right.csv \
  > /dev/null 2>&1
$CLI batch g --store shard-syn-delta.bin --queries shard-queries.txt \
  > shard-batch-delta2.txt
$CLI synopsis-build "g=shard-delta-left.csv:k,shard-delta-right.csv:k" \
  --theta 0.5 --seed 11 --shards 1 --store shard-syn-fresh1.bin \
  > /dev/null 2>&1
$CLI batch g --store shard-syn-fresh1.bin --queries shard-queries.txt \
  > shard-batch-fresh1.txt
cmp shard-batch-delta2.txt shard-batch-fresh1.txt

# ---- phase 3: delta on an entry stored swapped ----

# the left side is a key (k unique) and the right side is not, so the
# estimator samples the right side first and stores the entry swapped;
# inserts keep the left side a key so the rebuild swaps the same way
{
  echo k,attr
  i=0
  while [ $i -lt 40 ]; do
    echo "$i,$((i % 7))"
    i=$((i + 1))
  done
} > shard-pk.csv

{
  echo k,attr
  i=0
  while [ $i -lt 200 ]; do
    echo "$((i % 40)),$((i % 5))"
    i=$((i + 1))
  done
} > shard-fk.csv

printf 'k,attr\n40,3\n41,2\n' > shard-ins-pk.csv
printf 'k,attr\n3,1\n40,4\n' > shard-ins-fk.csv

$CLI synopsis-build "p=shard-pk.csv:k,shard-fk.csv:k" \
  --theta 0.5 --seed 11 --shards 4 --store shard-syn-p.bin > /dev/null 2>&1
$CLI synopsis-delta p --store shard-syn-p.bin \
  --insert-left shard-ins-pk.csv --delete-left 7 \
  --insert-right shard-ins-fk.csv --delete-right 5,28 \
  --out-left shard-pdelta-pk.csv --out-right shard-pdelta-fk.csv \
  > /dev/null 2>&1

# each post-delta table lands at its own side's path (40+2-1 key rows,
# 200+2-2 non-key rows)
test "$(($(wc -l < shard-pdelta-pk.csv) - 1))" -eq 41
test "$(($(wc -l < shard-pdelta-fk.csv) - 1))" -eq 200

$CLI synopsis-estimate p --store shard-syn-p.bin > shard-p-estimate.txt
$CLI synopsis-build "p=shard-pdelta-pk.csv:k,shard-pdelta-fk.csv:k" \
  --theta 0.5 --seed 11 --shards 4 --store shard-syn-pfresh.bin \
  > /dev/null 2>&1
cmp shard-syn-p.bin shard-syn-pfresh.bin
$CLI synopsis-estimate p --store shard-syn-pfresh.bin > shard-pfresh-estimate.txt
cmp shard-p-estimate.txt shard-pfresh-estimate.txt

# ---- phase 4: a bad CSV is a user error, not an internal one ----

printf 'k,attr\n1,2\n"3,4\n' > shard-badquote.csv
printf 'k,k\n1,2\n' > shard-duphead.csv
rm -f shard-missing.csv shard-syn-bad.bin

# bad_csv FILE REASON: synopsis-build over FILE exits 1 and names FILE
# and REASON on stderr
bad_csv() {
  status=0
  $CLI synopsis-build "g=$1:k,shard-right.csv:k" --theta 0.5 \
    --store shard-syn-bad.bin > /dev/null 2> shard-bad.txt || status=$?
  test "$status" -eq 1
  grep -q "^error: $1: .*$2" shard-bad.txt
}
bad_csv shard-badquote.csv 'line 3: unterminated quote in field 1'
bad_csv shard-missing.csv 'No such file'
bad_csv shard-duphead.csv 'duplicate column "k"'
test ! -e shard-syn-bad.bin

# ---- phase 5: bad arguments are user errors ----

# expect STATUS PATTERN CMD...: CMD exits STATUS and prints PATTERN on
# stderr (usage errors are wrapped to the terminal, so lines are joined)
expect() {
  want=$1
  pattern=$2
  shift 2
  status=0
  "$@" > /dev/null 2> shard-bad.txt || status=$?
  if [ "$status" -ne "$want" ] ||
    ! tr -s ' \n' '  ' < shard-bad.txt | grep -q -- "$pattern"; then
    echo "expected exit $want and '$pattern' from: $*; got exit $status:" >&2
    cat shard-bad.txt >&2
    exit 1
  fi
}

for theta in nan 0 1.5 inf -0.5; do
  expect 124 "option '--theta'.*(0, 1]" \
    $CLI synopsis-build "g=shard-left.csv:k,shard-right.csv:k" \
    --theta="$theta" --store shard-syn-bad.bin
done
expect 124 "option '--theta'.*(0, 1]" \
  $CLI estimate --left shard-left.csv --left-col k --right shard-right.csv \
  --right-col k --theta nan
expect 124 "option '--thetas'.*(0, 1]" $CLI bakeoff --thetas 0.01,nan
expect 1 '^error: shard-right.csv: no column named "nope" $' \
  $CLI synopsis-build "g=shard-left.csv:k,shard-right.csv:nope" \
  --theta 0.5 --store shard-syn-bad.bin
expect 1 '^error: shard-left.csv: no column named "nope" $' \
  $CLI estimate --left shard-left.csv --left-col nope --right shard-right.csv \
  --right-col k --theta 0.5
# the second graph names a CSV that does not exist: refused before reading
expect 2 '^error: graph key "g" is given twice $' \
  $CLI synopsis-build "g=shard-left.csv:k,shard-right.csv:k" \
  "g=shard-missing.csv:k,shard-right.csv:k" --theta 0.5 \
  --store shard-syn-bad.bin
test ! -e shard-syn-bad.bin

echo "shard smoke passed"
