#!/bin/sh
# End-to-end: a torn or altered entry in alb-serve's --cache-dir must
# not kill the server or be served. The run over the damaged directory
# exits 0, answers every line exactly as the fresh run did, re-simulates
# only the damaged key (counted as corrupt) and writes it back, so the
# next run is all hits.
#
#   serve_torn_cache_test.sh ALB_SERVE WORK_DIR
set -eu
serve=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
printf 'das app=ASP clusters=2 per=2\ndas app=TSP clusters=2 per=2\n' > "$work/requests"
run() {
  "$serve" --requests "$work/requests" --cache-dir "$work/cache" --jobs 2 \
    > "$work/$1.out" 2> "$work/$1.err" || { echo "alb-serve ($1) exited $?"; cat "$work/$1.err"; exit 1; }
}
expect() {
  grep -q " $2 " "$work/$1.err" || { echo "$1 run: expected '$2'"; cat "$work/$1.err"; exit 1; }
}
# A damaged entry is one corrupt miss: same answers, one re-simulation.
expect_one_corrupt() {
  diff "$work/fresh.out" "$work/$1.out" || { echo "$1 run answered differently"; exit 1; }
  if grep -v ' status=ok$' "$work/$1.out"; then echo "$1 run: a line is not status=ok"; exit 1; fi
  expect "$1" hits=1
  expect "$1" misses=1
  expect "$1" corrupt=1
}

run fresh
expect fresh misses=2
entries=$(ls "$work/cache"/*.albres)
# Tear one entry inside its record line.
entry=$(echo "$entries" | head -n 1)
at=$(grep -b -o ' trace_hash=' "$entry" | cut -d: -f1)
head -c "$at" "$entry" > "$work/torn"
mv "$work/torn" "$entry"

run torn
expect_one_corrupt torn

run repaired
diff "$work/fresh.out" "$work/repaired.out" || { echo "repaired run answered differently"; exit 1; }
expect repaired misses=0
expect repaired corrupt=0

# Flip the first digit of the other entry's event count: same length,
# still well formed, a different answer.
entry=$(echo "$entries" | tail -n 1)
awk 'NR == 2 { i = index($0, " events=") + 8
               $0 = substr($0, 1, i - 1) ((substr($0, i, 1) + 1) % 10) substr($0, i + 1) }
     { print }' "$entry" > "$work/flipped"
cmp -s "$entry" "$work/flipped" && { echo "digit flip changed nothing"; exit 1; }
[ "$(wc -c < "$entry")" -eq "$(wc -c < "$work/flipped")" ] || { echo "digit flip changed the length"; exit 1; }
mv "$work/flipped" "$entry"

run flipped
expect_one_corrupt flipped
echo "torn and altered cache entries re-simulated and repaired"
