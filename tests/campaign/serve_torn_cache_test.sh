#!/bin/sh
# End-to-end: a torn entry in alb-serve's --cache-dir must not kill the
# server. The run over the damaged directory exits 0, answers every line
# exactly as the fresh run did, re-simulates only the torn key (counted
# as corrupt) and writes it back, so the next run is all hits.
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

run fresh
expect fresh misses=2
# Tear one entry inside its first traffic line.
entry=$(ls "$work/cache"/*.albres | head -n 1)
at=$(grep -b -o 'traffic.kind=0 ' "$entry" | cut -d: -f1)
head -c "$((at + 15))" "$entry" > "$work/torn"
mv "$work/torn" "$entry"

run torn
diff "$work/fresh.out" "$work/torn.out" || { echo "torn run answered differently"; exit 1; }
if grep -v ' status=ok$' "$work/torn.out"; then echo "torn run: a line is not status=ok"; exit 1; fi
expect torn hits=1
expect torn misses=1
expect torn corrupt=1

run repaired
diff "$work/fresh.out" "$work/repaired.out" || { echo "repaired run answered differently"; exit 1; }
expect repaired misses=0
expect repaired corrupt=0
echo "torn cache entry re-simulated and repaired"
