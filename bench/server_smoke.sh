#!/bin/sh
# End-to-end smoke of the estimation daemon: build a two-key store over
# generated CSVs, serve it on a fixed port, and require (1) the client's
# query-file mode to be byte-identical to `repro_cli batch` over the same
# store, (2) the protocol verbs to answer, (3) SIGTERM to exit 0 after
# "shutdown complete", (4) the same byte identity through a one-slot
# cache, where every query file starts on a cache miss that reads the
# store, (5) a brief --chaos run to inject faults and still serve every
# query without crashing, (6) the same byte identity, with no degraded
# reply, on a store whose first side holds only sentries, (7) a
# predicate on an unknown column failing batch with exit 1 and getting an
# err reply from the daemon, and (8) the same byte identity, with no
# degraded reply, through a one-slot cache over a store of its own built
# at --shards 4: a self-join on two columns of one CSV and an entry the
# estimator stores swapped, whose misses the daemon answers from the
# sampled rows alone (it builds no whole table). Run from the bench build
# directory by the @server-smoke alias.
set -eu

PORT=7457

{
  echo k,attr
  i=0
  while [ $i -lt 200 ]; do
    echo "$((i % 20)),$((i % 7))"
    i=$((i + 1))
  done
} > srv-left.csv

{
  echo k,attr
  i=0
  while [ $i -lt 140 ]; do
    echo "$((i % 14)),$((i % 5))"
    i=$((i + 1))
  done
} > srv-right.csv

awk 'BEGIN {
  for (i = 0; i < 20; i++)
    printf "attr < %d ;; attr > %d\n", (i % 7) + 1, i % 3
}' > srv-queries.txt

awk 'BEGIN {
  for (i = 0; i < 20; i++)
    printf "attr >= %d ;; attr <= %d\n", i % 5, (i % 7) + 1
}' > srv-queries-cd.txt

# two keys so the chaos phase can churn a capacity-1 cache
../bin/repro_cli.exe synopsis-build \
  "ab=srv-left.csv:k,srv-right.csv:k" \
  "cd=srv-right.csv:k,srv-left.csv:k" \
  --theta 0.5 --seed 11 --store srv-synopses.bin

../bin/repro_cli.exe batch ab --store srv-synopses.bin \
  --queries srv-queries.txt > srv-batch-out.txt
../bin/repro_cli.exe batch cd --store srv-synopses.bin \
  --queries srv-queries-cd.txt > srv-batch-out-cd.txt

wait_ready() {
  i=0
  until ../bin/repro_cli.exe client --port $PORT --verb ready \
      > srv-ready.txt 2> /dev/null; do
    i=$((i + 1))
    if [ $i -ge 100 ]; then
      echo "server did not become ready" >&2
      cat "$1" >&2
      exit 1
    fi
    sleep 0.1
  done
}

# ---- phase 1: parity with batch, verbs, clean SIGTERM ----

../bin/repro_cli.exe serve --store srv-synopses.bin --port $PORT \
  --access-log srv-access.jsonl 2> srv-server.log &
SRV=$!
wait_ready srv-server.log
grep -q 'ok ready keys=2' srv-ready.txt

../bin/repro_cli.exe client --port $PORT --verb health | grep -q 'ok serving'
../bin/repro_cli.exe client --port $PORT --verb keys | grep -q 'ab'
../bin/repro_cli.exe client --port $PORT --verb slo | grep -q '^ok window='
../bin/repro_cli.exe client --port $PORT --verb metrics > srv-metrics.txt
grep -q 'server_requests_total' srv-metrics.txt
grep -q 'repro_build_info' srv-metrics.txt
grep -q 'runtime_gc_heap_words' srv-metrics.txt
grep -q 'server_slo_p99_seconds' srv-metrics.txt

# reload re-reads the store from disk and swaps the snapshot atomically;
# the store is unchanged here, so the key count must survive the swap
../bin/repro_cli.exe client --port $PORT --verb reload \
  | grep -q 'ok reloaded keys=2'

# the load-bearing assertion: the served estimates are byte-identical to
# the batch pipeline over the same store, ids and %.17g floats included
../bin/repro_cli.exe client --port $PORT --key ab \
  --queries srv-queries.txt > srv-client-out.txt
cmp srv-batch-out.txt srv-client-out.txt

kill -TERM $SRV
wait $SRV    # set -e: a non-zero exit status fails the smoke
grep -q 'shutdown complete' srv-server.log

# the access-log writer must have drained on shutdown: one JSON object
# per request served, estimate records tagged with their request IDs
test -s srv-access.jsonl
grep -q '"verb":"estimate"' srv-access.jsonl
grep -q '"id":"' srv-access.jsonl
echo "server vs batch: 20 estimates byte-identical; SIGTERM exited 0"

# ---- phase 2: parity across cache misses ----

# capacity 1 over 2 keys: the slot holds whichever key answered last, so
# each query file below opens on a miss — a per-key store read that
# resolves that key's two CSVs — and the rest of it hits the cache
../bin/repro_cli.exe serve --store srv-synopses.bin --port $PORT \
  --cache-capacity 1 2> srv-miss.log &
SRV=$!
wait_ready srv-miss.log

for round in 1 2; do
  ../bin/repro_cli.exe client --port $PORT --key ab \
    --queries srv-queries.txt > srv-miss-ab-$round.txt
  cmp srv-batch-out.txt srv-miss-ab-$round.txt
  ../bin/repro_cli.exe client --port $PORT --key cd \
    --queries srv-queries-cd.txt > srv-miss-cd-$round.txt
  cmp srv-batch-out-cd.txt srv-miss-cd-$round.txt
done

# the misses really happened: two per round
../bin/repro_cli.exe client --port $PORT --verb metrics > srv-miss-metrics.txt
grep '^server_loads_total' srv-miss-metrics.txt \
  | awk '{ s += $NF } END { exit !(s >= 4) }'

kill -TERM $SRV
wait $SRV
grep -q 'shutdown complete' srv-miss.log
echo "server vs batch through cache misses: 80 estimates byte-identical"

# ---- phase 3: chaos mode keeps serving ----

# capacity 1 over 2 keys: alternating queries miss the cache, forcing
# real store loads, 90% of which the chaos hook corrupts or fails
../bin/repro_cli.exe serve --store srv-synopses.bin --port $PORT \
  --cache-capacity 1 --chaos 0.9 --seed 5 2> srv-chaos.log &
SRV=$!
wait_ready srv-chaos.log

j=0
while [ $j -lt 6 ]; do
  ../bin/repro_cli.exe client --port $PORT --key ab > /dev/null
  ../bin/repro_cli.exe client --port $PORT --key cd > /dev/null
  j=$((j + 1))
done

# every query still gets a one-line reply (answered or degraded)
../bin/repro_cli.exe client --port $PORT --key ab \
  --queries srv-queries.txt > srv-chaos-out.txt
test "$(wc -l < srv-chaos-out.txt)" -eq 20

../bin/repro_cli.exe client --port $PORT --verb metrics > srv-chaos-metrics.txt
grep 'server_chaos_injected' srv-chaos-metrics.txt \
  | awk '{ s += $NF } END { exit !(s > 0) }'

kill -TERM $SRV
wait $SRV
grep -q 'shutdown complete' srv-chaos.log
echo "chaos mode: faults injected, every query answered, SIGTERM exited 0"

# ---- phase 4: a first side of sentries only answers as batch ----

# a low-jvd pair, 4,000 rows over 3 keys against 3 rows: at theta 0.0005
# CSDL-Opt picks CSDL(1,diff) and its budget fits only the sentries, so
# the sampler clamps every q_v to 0 and Eq. 7's sentry terms carry each
# estimate. The daemon must answer them, not fall back to a prior.
{
  echo k,attr
  i=0
  while [ $i -lt 4000 ]; do
    echo "$((i % 3)),$((i % 11))"
    i=$((i + 1))
  done
} > lj-left.csv
printf 'k,attr\n0,0\n1,1\n2,2\n' > lj-right.csv
printf '%s\n' ' ;; ' 'k <= 1 ;; ' 'attr < 5 ;; k >= 1' 'k = 2 ;; attr = 2' \
  'attr > 100 ;; ' > lj-queries.txt

../bin/repro_cli.exe synopsis-build "lj=lj-left.csv:k,lj-right.csv:k" \
  --theta 0.0005 --seed 11 --store lj-synopses.bin > lj-build.txt
grep -q 'built lj: CSDL(1,diff)' lj-build.txt
../bin/repro_cli.exe batch lj --store lj-synopses.bin \
  --queries lj-queries.txt > lj-batch-out.txt

# a predicate on a column the table lacks is the client's mistake: batch
# exits 1 with a located error line and prints no estimate, and the
# daemon replies err (counted in class err) instead of a degraded prior
printf 'nope < 3 ;; \n' > lj-bad-column.txt
bad='bad input: Predicate: no column named "nope"'
status=0
../bin/repro_cli.exe batch lj --store lj-synopses.bin \
  --queries lj-bad-column.txt > lj-bad-batch-out.txt \
  2> lj-bad-batch-err.txt || status=$?
if [ "$status" -ne 1 ] \
  || ! grep -qxF "error: lj-bad-column.txt: line 1 (q0000): $bad" \
    lj-bad-batch-err.txt \
  || [ -s lj-bad-batch-out.txt ]; then
  echo "unknown column: batch exited $status" >&2
  cat lj-bad-batch-err.txt >&2
  exit 1
fi

../bin/repro_cli.exe serve --store lj-synopses.bin --port $PORT \
  2> lj-server.log &
SRV=$!
wait_ready lj-server.log
../bin/repro_cli.exe client --port $PORT --key lj \
  --queries lj-queries.txt > lj-client-out.txt

status=0
../bin/repro_cli.exe client --port $PORT --key lj \
  --queries lj-bad-column.txt > lj-bad-client-out.txt \
  2> lj-bad-client-err.txt || status=$?
../bin/repro_cli.exe client --port $PORT --verb metrics > lj-metrics.txt
kill -TERM $SRV
wait $SRV
grep -q 'shutdown complete' lj-server.log

if [ "$status" -ne 1 ] \
  || ! grep -qxF "error: q0000: $bad" lj-bad-client-err.txt; then
  echo "unknown column: the client exited $status" >&2
  cat lj-bad-client-out.txt lj-bad-client-err.txt >&2
  exit 1
fi
grep -qxF 'server_outcome{class="err"} 1' lj-metrics.txt

if grep -q degraded lj-client-out.txt; then
  echo "sentry-only store: the daemon degraded" >&2
  cat lj-client-out.txt >&2
  exit 1
fi
cmp lj-batch-out.txt lj-client-out.txt
echo "sentry-only store: 5 estimates byte-identical, none degraded"
echo "unknown column: batch exits 1, the daemon replies err"

# ---- phase 8: misses built from the sampled rows answer as batch ----

# The daemon reads its CSVs through the row reader: one scan each for the
# fingerprint and the counts, and only the sampled rows built. Its own
# store: a self-join on two columns of one CSV (one read serves both
# samples) and a key side on the left, which the estimator samples second
# and so stores swapped, built at 4 shards and served through a one-slot
# cache, so each query file below opens on a miss.
{
  echo a,b,attr
  i=0
  while [ $i -lt 300 ]; do
    echo "$((i % 23)),$((i % 17)),$((i % 9))"
    i=$((i + 1))
  done
} > rr-self.csv

{
  echo k,attr
  i=0
  while [ $i -lt 40 ]; do
    echo "$i,$((i % 7))"
    i=$((i + 1))
  done
} > rr-pk.csv

{
  echo k,attr
  i=0
  while [ $i -lt 200 ]; do
    echo "$((i % 40)),$((i % 5))"
    i=$((i + 1))
  done
} > rr-fk.csv

awk 'BEGIN {
  for (i = 0; i < 20; i++)
    printf "attr < %d ;; attr > %d\n", (i % 9) + 1, i % 4
}' > rr-queries.txt

../bin/repro_cli.exe synopsis-build \
  "self=rr-self.csv:a,rr-self.csv:b" "sw=rr-pk.csv:k,rr-fk.csv:k" \
  --theta 0.5 --seed 11 --shards 4 --store rr-synopses.bin > rr-build.txt

for key in self sw; do
  ../bin/repro_cli.exe batch $key --store rr-synopses.bin \
    --queries rr-queries.txt > rr-batch-$key.txt
done

../bin/repro_cli.exe serve --store rr-synopses.bin --port $PORT \
  --cache-capacity 1 2> rr-server.log &
SRV=$!
wait_ready rr-server.log

for round in 1 2; do
  for key in self sw; do
    ../bin/repro_cli.exe client --port $PORT --key $key \
      --queries rr-queries.txt > rr-client-$key-$round.txt
    if grep -q degraded rr-client-$key-$round.txt; then
      echo "row reader, $key: the daemon degraded" >&2
      cat rr-client-$key-$round.txt >&2
      exit 1
    fi
    cmp rr-batch-$key.txt rr-client-$key-$round.txt
  done
done

# the misses really happened: two per round
../bin/repro_cli.exe client --port $PORT --verb metrics > rr-metrics.txt
grep '^server_loads_total' rr-metrics.txt \
  | awk '{ s += $NF } END { exit !(s >= 4) }'

kill -TERM $SRV
wait $SRV
grep -q 'shutdown complete' rr-server.log
echo "row reader: self-join and swapped keys through cache misses: 80 estimates byte-identical, none degraded"
