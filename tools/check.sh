#!/usr/bin/env bash
# Full local CI gate: sanitizer build + release build, both test suites,
# a TSan pass over the campaign engine, a parallel-vs-sequential CSV
# determinism diff, and a bench smoke run. Usage: tools/check.sh [jobs]
#
#   build-asan/     Debug + ASan/UBSan (catches lifetime bugs in the
#                   zero-allocation hot path, where objects are recycled
#                   through pools instead of malloc/free)
#   build-release/  -O3 NDEBUG, the configuration benchmarks run in;
#                   built with -Werror, so a new warning fails the gate
#   build-tsan/     ALB_SANITIZE=thread; runs test_campaign, the suite
#                   that exercises the worker pool and the logger from
#                   concurrent threads, the partitioned-engine tests and
#                   RA's shared smaller-database memo
#
# All trees are configured out-of-source and are .gitignore'd.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "=== configure + build: Debug + ASan/UBSan ==="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DALB_SANITIZE=ON > /dev/null
cmake --build build-asan -j "$JOBS"

echo "=== ctest: sanitizer build ==="
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "=== configure + build: Release ==="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DALB_WERROR=ON > /dev/null
cmake --build build-release -j "$JOBS"

echo "=== ctest: release build ==="
ctest --test-dir build-release --output-on-failure -j "$JOBS"

echo "=== configure + build: TSan (campaign + partitioned engine) ==="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DALB_SANITIZE=thread > /dev/null
cmake --build build-tsan --target test_campaign test_sim test_partition test_kernels -j "$JOBS"

echo "=== TSan: campaign tests ==="
./build-tsan/tests/test_campaign

echo "=== TSan: RA's process-wide smaller-database memo, built cold by 4 threads ==="
./build-tsan/tests/test_kernels --gtest_filter='RaKernel.ConcurrentRunsShareOneMemo'

echo "=== TSan: partitioned-engine tests (epoch barrier + mailboxes) ==="
./build-tsan/tests/test_sim --gtest_filter='Partition.*'
./build-tsan/tests/test_partition

echo "=== campaign determinism smoke: --jobs 4 CSV must equal --jobs 1 ==="
for fig in "bench_fig --app water" bench_fig15; do
  out="build-release/${fig##* }"
  ./build-release/bench/$fig --quick --csv --jobs 1 > "$out.j1.csv"
  ./build-release/bench/$fig --quick --csv --jobs 4 > "$out.j4.csv"
  diff "$out.j1.csv" "$out.j4.csv" \
    || { echo "$fig: parallel CSV differs from sequential"; exit 1; }
done

echo "=== fixed points: figures, ablation + bench tables must match results/ ==="
# The checked-in renditions are goldens: a change that moves a speedup
# curve or an ablation row must regenerate them in the same commit.
# ASCII rendering is forced so the gate does not depend on matplotlib.
rm -rf build-release/figures && mkdir -p build-release/figures
python3 - <<'EOF'
import subprocess, sys
sys.path.insert(0, "tools")
import plot_figures as pf
for name in pf.FIGS:
    text = subprocess.run(["build-release/bench/bench_fig", "--app", name, "--csv"],
                          capture_output=True, text=True, check=True).stdout
    title, rows = pf.parse(text)
    pf.ascii_plot(title, rows, f"build-release/figures/fig_{name}.txt")
EOF
diff -r results/figures build-release/figures \
  || { echo "figure renditions differ from results/figures"; exit 1; }
./build-release/bench/bench_ablation > build-release/ablation.txt
diff results/ablation.txt build-release/ablation.txt \
  || { echo "bench_ablation output differs from results/ablation.txt"; exit 1; }
# The paper-table benches, one `### <bench>` section each.
for spec in bench_fig15 bench_fig16 \
            "bench_fig --app acp" "bench_fig --app asp" "bench_fig --app atpg" \
            "bench_fig --app ida" "bench_fig --app ra" "bench_fig --app sor" \
            "bench_fig --app tsp" "bench_fig --app water" \
            bench_sensitivity bench_table1 bench_table2 bench_table4_5 bench_validation; do
  echo "### $spec"
  ./build-release/bench/$spec
  echo
done > build-release/all_benches.txt
diff results/all_benches.txt build-release/all_benches.txt \
  || { echo "bench outputs differ from results/all_benches.txt"; exit 1; }

echo "=== bench smoke ==="
./build-release/bench/bench_engine --smoke --json build-release/BENCH_engine.smoke.json
./build-release/bench/bench_campaign --quick --json build-release/BENCH_campaign.smoke.json

echo "=== observability smoke: traced run + artifact validation ==="
./build-release/tools/alb-trace --app ASP --clusters 2 --per 4 \
  --trace-out build-release/alb-trace.smoke.json \
  --metrics-out build-release/alb-trace.smoke.csv \
  --metrics-json build-release/alb-trace.smoke.metrics.json
python3 - <<'EOF'
import json
trace = json.load(open("build-release/alb-trace.smoke.json"))
assert trace["traceEvents"], "empty traceEvents"
assert trace["otherData"]["recorded"] > 0, "nothing recorded"
phases = {e["ph"] for e in trace["traceEvents"]}
assert {"b", "e", "i"} <= phases, f"missing event phases: {phases}"
metrics = json.load(open("build-release/alb-trace.smoke.metrics.json"))
assert metrics["counters"]["net/wan.table.bcast.msgs"] > 0, "no WAN broadcast traffic"
print(f"trace OK: {len(trace['traceEvents'])} events; "
      f"{len(metrics['counters'])} counters")
EOF

echo "=== causal analysis: critical path + what-if gates ==="
# The §4 story as an executable assertion: the per-cluster-queue TSP
# optimization must shrink the critical path's WAN share.
CP_ARGS=(--app TSP --clusters 4 --per 15 --csv --critical-path)
./build-release/tools/alb-trace "${CP_ARGS[@]}" > build-release/alb-trace.cp.orig.csv
./build-release/tools/alb-trace "${CP_ARGS[@]}" --opt > build-release/alb-trace.cp.opt.csv
python3 - <<'EOF'
import re
def wan_share(path):
    for line in open(path):
        m = re.search(r"cp_wan_share_pct=([0-9.]+)", line)
        if m:
            return float(m.group(1))
    raise SystemExit(f"{path}: no cp_wan_share_pct line")
orig = wan_share("build-release/alb-trace.cp.orig.csv")
opt = wan_share("build-release/alb-trace.cp.opt.csv")
assert opt < orig, f"optimized TSP WAN share did not drop: {orig} -> {opt}"
print(f"critical-path WAN share: orig {orig}% -> opt {opt}% OK")
EOF
# What-if output (and the whole causal pipeline) must be byte-identical
# across campaign --jobs values.
./build-release/bench/bench_causal --quick --csv --jobs 1 \
  --json build-release/BENCH_causal.j1.json \
  | grep -v '^wrote ' > build-release/bench_causal.j1.csv
./build-release/bench/bench_causal --quick --csv --jobs 4 \
  --json build-release/BENCH_causal.j4.json \
  | grep -v '^wrote ' > build-release/bench_causal.j4.csv
diff build-release/bench_causal.j1.csv build-release/bench_causal.j4.csv \
  || { echo "bench_causal: parallel CSV differs from sequential"; exit 1; }
diff build-release/BENCH_causal.j1.json build-release/BENCH_causal.j4.json \
  || { echo "bench_causal: parallel JSON differs from sequential"; exit 1; }

echo "=== resilience: faulted determinism + disabled-plan no-op gates ==="
# Same (seed, plan) must reproduce every table byte-for-byte, twice in a
# row and across campaign --jobs values; with --faults off the tool must
# be byte-identical run to run (the plan-disabled no-op contract itself
# is pinned by test_net's DisabledPlanIsByteIdentical and the goldens).
FAULT_ARGS=(--app TSP --clusters 2 --per 2 --csv)
./build-release/tools/alb-trace "${FAULT_ARGS[@]}" --faults > build-release/alb-trace.faults.a.csv
./build-release/tools/alb-trace "${FAULT_ARGS[@]}" --faults > build-release/alb-trace.faults.b.csv
diff build-release/alb-trace.faults.a.csv build-release/alb-trace.faults.b.csv \
  || { echo "faulted alb-trace run is not deterministic"; exit 1; }
./build-release/tools/alb-trace "${FAULT_ARGS[@]}" > build-release/alb-trace.clean.a.csv
./build-release/tools/alb-trace "${FAULT_ARGS[@]}" > build-release/alb-trace.clean.b.csv
diff build-release/alb-trace.clean.a.csv build-release/alb-trace.clean.b.csv \
  || { echo "faults-off alb-trace run is not deterministic"; exit 1; }
if ! grep -q '^retries,' build-release/alb-trace.faults.a.csv; then
  echo "fault counter table missing from --faults output"; exit 1
fi
if grep -q '^retries,0$' build-release/alb-trace.faults.a.csv; then
  echo "faulted TSP run saw no retries — injection is not reaching the RPC path"; exit 1
fi
./build-release/bench/bench_resilience --quick --csv --jobs 1 \
  --json build-release/BENCH_resilience.j1.json \
  | grep -v '^wrote ' > build-release/bench_resilience.j1.csv
./build-release/bench/bench_resilience --quick --csv --jobs 4 \
  --json build-release/BENCH_resilience.j4.json \
  | grep -v '^wrote ' > build-release/bench_resilience.j4.csv
diff build-release/bench_resilience.j1.csv build-release/bench_resilience.j4.csv \
  || { echo "bench_resilience: parallel CSV differs from sequential"; exit 1; }
diff build-release/BENCH_resilience.j1.json build-release/BENCH_resilience.j4.json \
  || { echo "bench_resilience: parallel JSON differs from sequential"; exit 1; }
# TSan coverage for the faulted path itself comes from test_campaign's
# FaultedRunsMatchAcrossJobsCounts, run above.

echo "=== partition determinism: --partitions 4 must equal --partitions 1 ==="
# The conservative-lookahead engine's whole-stack contract: every output
# byte (summary CSV, metrics, counters) is independent of the partition
# count — clean and under fault injection.
PART_ARGS=(--app ASP --clusters 4 --per 2 --csv)
./build-release/tools/alb-trace "${PART_ARGS[@]}" --partitions 1 > build-release/alb-trace.p1.csv
./build-release/tools/alb-trace "${PART_ARGS[@]}" --partitions 4 > build-release/alb-trace.p4.csv
diff build-release/alb-trace.p1.csv build-release/alb-trace.p4.csv \
  || { echo "partitioned run differs from sequential reference"; exit 1; }
./build-release/tools/alb-trace "${PART_ARGS[@]}" --faults --partitions 1 > build-release/alb-trace.p1f.csv
./build-release/tools/alb-trace "${PART_ARGS[@]}" --faults --partitions 4 > build-release/alb-trace.p4f.csv
diff build-release/alb-trace.p1f.csv build-release/alb-trace.p4f.csv \
  || { echo "faulted partitioned run differs from sequential reference"; exit 1; }

echo "=== wide-area collectives: traffic floor + determinism gates ==="
# Tree dissemination + gateway combining must cut RA's WAN wire RPC
# count at the paper geometry (floor: at least 25% fewer than flat),
# and the tree-mode schedule must stay byte-identical across partition
# counts — clean and faulted — with a --jobs-independent bench table.
COLL_ARGS=(--app RA --clusters 4 --per 16 --csv)
./build-release/tools/alb-trace "${COLL_ARGS[@]}" \
  --metrics-json build-release/alb-trace.ra.flat.json > /dev/null
./build-release/tools/alb-trace "${COLL_ARGS[@]}" --coll tree \
  --metrics-json build-release/alb-trace.ra.tree.json > /dev/null
python3 - <<'EOF'
import json
flat = json.load(open("build-release/alb-trace.ra.flat.json"))["counters"]
tree = json.load(open("build-release/alb-trace.ra.tree.json"))["counters"]
f, t = flat["net/wan.table.rpc.msgs"], tree["net/wan.table.rpc.msgs"]
assert f > 0, "flat RA run crossed no WAN RPCs"
assert t < 0.75 * f, f"tree did not cut RA WAN RPCs by >=25%: {f} -> {t}"
assert tree["net/wan.combined.flushes"] > 0, "tree RA run never combined"
print(f"RA 4x16 WAN wire RPCs: flat {f:.0f} -> tree {t:.0f} OK")
EOF
TREE_ARGS=(--app ASP --clusters 4 --per 2 --csv --coll tree --wan-streams 2)
./build-release/tools/alb-trace "${TREE_ARGS[@]}" --partitions 1 > build-release/alb-trace.tree.p1.csv
./build-release/tools/alb-trace "${TREE_ARGS[@]}" --partitions 4 > build-release/alb-trace.tree.p4.csv
diff build-release/alb-trace.tree.p1.csv build-release/alb-trace.tree.p4.csv \
  || { echo "tree-mode partitioned run differs from sequential reference"; exit 1; }
./build-release/tools/alb-trace "${TREE_ARGS[@]}" --faults --partitions 1 > build-release/alb-trace.tree.p1f.csv
./build-release/tools/alb-trace "${TREE_ARGS[@]}" --faults --partitions 4 > build-release/alb-trace.tree.p4f.csv
diff build-release/alb-trace.tree.p1f.csv build-release/alb-trace.tree.p4f.csv \
  || { echo "faulted tree-mode partitioned run differs from sequential reference"; exit 1; }
# bench_collective verdicts the whole-suite contract (checksums equal,
# elapsed no worse, wire traffic reduced on the combine targets) via its
# exit code; its CSV carries only simulated numbers, so it must be
# --jobs independent. (The JSON adds wall-clock throughput — not diffed.)
./build-release/bench/bench_collective --quick --csv --jobs 1 \
  --json build-release/BENCH_collective.j1.json \
  | grep -v '^wrote ' > build-release/bench_collective.j1.csv
./build-release/bench/bench_collective --quick --csv --jobs 4 \
  --json build-release/BENCH_collective.j4.json \
  | grep -v '^wrote ' > build-release/bench_collective.j4.csv
diff build-release/bench_collective.j1.csv build-release/bench_collective.j4.csv \
  || { echo "bench_collective: parallel CSV differs from sequential"; exit 1; }

echo "=== adaptive engine: determinism + decision gates ==="
# Adaptive decisions are sim-time state, not observations of the run, so
# --adapt must stay byte-identical across partition counts — clean and
# faulted — like every other mode.
ADAPT_ARGS=(--app ASP --clusters 4 --per 2 --csv --adapt)
./build-release/tools/alb-trace "${ADAPT_ARGS[@]}" --partitions 1 > build-release/alb-trace.adapt.p1.csv
./build-release/tools/alb-trace "${ADAPT_ARGS[@]}" --partitions 4 > build-release/alb-trace.adapt.p4.csv
diff build-release/alb-trace.adapt.p1.csv build-release/alb-trace.adapt.p4.csv \
  || { echo "adaptive partitioned run differs from sequential reference"; exit 1; }
./build-release/tools/alb-trace "${ADAPT_ARGS[@]}" --faults --partitions 1 > build-release/alb-trace.adapt.p1f.csv
./build-release/tools/alb-trace "${ADAPT_ARGS[@]}" --faults --partitions 4 > build-release/alb-trace.adapt.p4f.csv
diff build-release/alb-trace.adapt.p1f.csv build-release/alb-trace.adapt.p4f.csv \
  || { echo "faulted adaptive partitioned run differs from sequential reference"; exit 1; }
# The armed sequencer must actually trip on the smoke geometry, or the
# diff above is vacuously comparing two no-op runs.
if ! grep -q '^sequencer arms,[1-9]' build-release/alb-trace.adapt.p1.csv; then
  echo "adaptive ASP smoke armed no sequencer migration"; exit 1
fi
# bench_adaptive verdicts the three-arm contract (auto checksums equal
# orig, auto strictly beats orig and lands within 25% of hand-opt on the
# gated apps) via its exit code; its CSV carries only simulated numbers,
# so it must be --jobs independent.
./build-release/bench/bench_adaptive --quick --csv --jobs 1 \
  --json build-release/BENCH_adaptive.j1.json \
  | grep -v '^wrote ' > build-release/bench_adaptive.j1.csv
./build-release/bench/bench_adaptive --quick --csv --jobs 4 \
  --json build-release/BENCH_adaptive.j4.json \
  | grep -v '^wrote ' > build-release/bench_adaptive.j4.csv
diff build-release/bench_adaptive.j1.csv build-release/bench_adaptive.j4.csv \
  || { echo "bench_adaptive: parallel CSV differs from sequential"; exit 1; }

echo "=== scenario DSL: validate, heterogeneous lookahead, cached-sweep identity ==="
# Every shipped .scn must parse cleanly (typed errors abort here); the
# absolute goldens pinning scenario-loaded configs to the historical
# hand-built ones run as test_scenario in both ctest passes above.
./build-release/tools/alb-serve --validate scenarios
# Heterogeneous per-pair WAN circuits: the conservative lookahead must
# tighten to the fastest circuit, so partitioned execution stays
# byte-identical on a topology where the pairs differ.
./build-release/tools/alb-trace --scenario hetero3 --app ASP --csv \
  --partitions 1 > build-release/alb-trace.hetero.p1.csv
./build-release/tools/alb-trace --scenario hetero3 --app ASP --csv \
  --partitions 3 > build-release/alb-trace.hetero.p3.csv
diff build-release/alb-trace.hetero.p1.csv build-release/alb-trace.hetero.p3.csv \
  || { echo "hetero3 partitioned run differs from sequential reference"; exit 1; }
# The cache contract, end to end: the sweep-demo grid must produce the
# same bytes fresh at any --jobs value, and a repeat against a warm
# cache must be answered entirely from it (zero re-simulation) — still
# byte-identical.
printf 'sweep-demo\ndas app=ASP clusters=2 per=2\n' > build-release/scn.requests
rm -rf build-release/scn-cache
./build-release/tools/alb-serve --requests build-release/scn.requests \
  --cache-dir build-release/scn-cache --jobs 4 \
  > build-release/alb-serve.j4.out 2> build-release/alb-serve.j4.err
./build-release/tools/alb-serve --requests build-release/scn.requests \
  --jobs 1 > build-release/alb-serve.j1.out 2> build-release/alb-serve.j1.err
diff build-release/alb-serve.j4.out build-release/alb-serve.j1.out \
  || { echo "alb-serve: --jobs 4 output differs from --jobs 1"; exit 1; }
./build-release/tools/alb-serve --requests build-release/scn.requests \
  --cache-dir build-release/scn-cache --jobs 4 \
  > build-release/alb-serve.cached.out 2> build-release/alb-serve.cached.err
diff build-release/alb-serve.j4.out build-release/alb-serve.cached.out \
  || { echo "alb-serve: cached sweep differs from fresh sweep"; exit 1; }
grep -q ' misses=0 ' build-release/alb-serve.cached.err \
  || { echo "alb-serve: warm-cache pass re-simulated something:"; \
       cat build-release/alb-serve.cached.err; exit 1; }
grep -q ' hits=[1-9]' build-release/alb-serve.cached.err \
  || { echo "alb-serve: warm-cache pass reported no hits"; exit 1; }

echo "=== host telemetry: firewall diff + artifact validation ==="
# The determinism firewall, end to end: the same run with every
# telemetry sink armed (fast heartbeat, Chrome trace, JSON snapshot)
# must produce byte-identical stdout. docs/OBSERVABILITY.md, "Host
# telemetry"; the unit-level pin is tests/telemetry/firewall_test.cpp.
./build-release/tools/alb-trace --app ASP --clusters 2 --per 4 --csv \
  > build-release/alb-trace.tel-off.csv
./build-release/tools/alb-trace --app ASP --clusters 2 --per 4 --csv \
  --progress=0.05 --progress-out build-release/alb-trace.heartbeat.jsonl \
  --telemetry-out build-release/alb-trace.host.trace.json \
  --telemetry-json build-release/alb-trace.host.json \
  > build-release/alb-trace.tel-on.csv
diff build-release/alb-trace.tel-off.csv build-release/alb-trace.tel-on.csv \
  || { echo "alb-trace: telemetry-on stdout differs from telemetry-off"; exit 1; }
./build-release/tools/alb-serve --requests build-release/scn.requests \
  --jobs 4 \
  --progress=0.05 --progress-out build-release/alb-serve.heartbeat.jsonl \
  --telemetry-out build-release/alb-serve.host.trace.json \
  --telemetry-json build-release/alb-serve.host.json \
  > build-release/alb-serve.tel.out 2> build-release/alb-serve.tel.err
diff build-release/alb-serve.j4.out build-release/alb-serve.tel.out \
  || { echo "alb-serve: telemetry-on stdout differs from telemetry-off"; exit 1; }
grep -q ' hit_ms_p50=' build-release/alb-serve.tel.err \
  || { echo "alb-serve: summary lacks hit-latency percentiles"; exit 1; }
grep -q 'pool: workers=' build-release/alb-serve.tel.err \
  || { echo "alb-serve: summary lacks the pool table"; exit 1; }
python3 - <<'EOF'
import json

HEARTBEAT_KEYS = {"type", "job", "seq", "wall_s", "jobs_total", "jobs_done",
                  "workers", "workers_busy", "worker_state", "jobs_per_min",
                  "eta_s", "cache_hits", "cache_misses", "spans",
                  "spans_dropped", "rss_kb", "final"}
for tool in ("alb-trace", "alb-serve"):
    records = []
    with open(f"build-release/{tool}.heartbeat.jsonl") as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    assert records, f"{tool}: no heartbeat records"
    for r in records:
        missing = HEARTBEAT_KEYS - r.keys()
        assert not missing, f"{tool}: heartbeat lacks {missing}"
        assert r["type"] == "heartbeat"
    assert records[-1]["final"] is True, f"{tool}: no final heartbeat"

    host = json.load(open(f"build-release/{tool}.host.trace.json"))
    events = host["traceEvents"]
    assert host["otherData"]["clock"] == "wall", f"{tool}: host trace not wall-clock"
    names = {e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"}
    spans = [e for e in events if e["ph"] == "X"]
    assert spans, f"{tool}: host trace has no spans"
    assert all(e["dur"] >= 0 for e in spans), f"{tool}: negative span duration"

    snap = json.load(open(f"build-release/{tool}.host.json"))
    for key in ("wall_s", "pool", "cache", "threads", "spans"):
        assert key in snap, f"{tool}: snapshot lacks {key}"
    assert len(snap["threads"]) == len(names), f"{tool}: track/thread count mismatch"

# The serve run sharded over workers: per-thread tracks and the
# documented span names must be present.
serve = json.load(open("build-release/alb-serve.host.trace.json"))
names = {e["args"]["name"] for e in serve["traceEvents"]
         if e["ph"] == "M" and e["name"] == "thread_name"}
spans = {e["name"] for e in serve["traceEvents"] if e["ph"] == "X"}
assert "serve-main" in names, f"missing serve-main track: {names}"
assert any(n.startswith("campaign-worker-") for n in names), f"no worker tracks: {names}"
assert {"serve.parse", "serve.resolve", "serve.simulate", "serve.output",
        "campaign.job"} <= spans, f"missing documented spans: {spans}"
unlabelled = [e for e in serve["traceEvents"]
              if e["ph"] == "X" and e["name"] == "campaign.job"
              and len(e["args"].get("label", "").split()) != 3]
assert not unlabelled, f"campaign.job spans without <app> <variant> <key>: {unlabelled[:3]}"
print(f"telemetry artifacts OK: {len(names)} serve tracks, {len(spans)} span kinds")
EOF

echo "=== docs: metric catalogue coverage ==="
# Every sim/net/orca metric name the source publishes must appear in the
# OBSERVABILITY.md catalogue (directly, via a `<kind>` template, or
# under a documented `.*` family) — undocumented counters fail CI.
python3 - <<'EOF'
import pathlib, re, sys

# Metric names the source publishes: string literals shaped like
# <scope>/<word>... with scope sim|net|orca|campaign. Include paths
# share the shape, so anything ending in a source-file suffix is
# skipped. tools/ is scanned too: alb-serve publishes campaign/serve.*.
lit = re.compile(r'"((?:sim|net|orca|campaign)/[A-Za-z0-9_.]*)"')
published = set()
files = list(pathlib.Path("src").rglob("*.?pp")) + list(pathlib.Path("tools").glob("*.?pp"))
for f in files:
    for m in lit.finditer(f.read_text()):
        n = m.group(1)
        if n.endswith((".hpp", ".cpp", ".h", ".inc")):
            continue
        published.add(n)

doc = pathlib.Path("docs/OBSERVABILITY.md").read_text()
exact, families = set(), []
token = re.compile(r'`([^`]+)`')
name_like = re.compile(r'(?:sim|net|orca|campaign)/[A-Za-z0-9_.<>*]+$')
for line in doc.splitlines():
    last = None
    for t in token.findall(line):
        if t.startswith(".") and last:  # `.bytes` shorthand continuation
            t = last.rsplit(".", 1)[0] + t
        if not name_like.match(t):
            continue
        last = t
        if t.endswith(".*"):
            families.append(t[:-1])     # documented family, e.g. net/fault.
        else:
            exact.add(t)
templates = [re.compile(re.escape(t).replace(re.escape("<kind>"), r"[a-z_-]+") + "$")
             for t in exact if "<" in t]

missing = []
for n in sorted(published):
    if n in exact:
        continue
    if n.endswith("."):                 # concatenation prefix of a templated name
        if any(t.startswith(n) for t in exact if "<" in t):
            continue
    if any(t.match(n) for t in templates):
        continue
    if any(n.startswith(f) for f in families):
        continue
    missing.append(n)

if missing:
    for n in missing:
        print(f"undocumented metric: {n} — add it to docs/OBSERVABILITY.md")
    sys.exit(1)
print(f"doc coverage OK: {len(published)} published names covered by the catalogue")

# Host-telemetry catalogues: every ScopedSpan name literal and every
# kCounterNames entry must appear in the OBSERVABILITY.md "Host
# telemetry" tables — span/counter names are stable identifiers the
# heartbeat/trace consumers match on.
span_lit = re.compile(r'ScopedSpan\s+\w+\s*\(\s*"([^"]+)"|ScopedSpan\s*\(\s*"([^"]+)"')
spans = set()
for f in files:
    for m in span_lit.finditer(f.read_text()):
        spans.add(m.group(1) or m.group(2))
counters = set(re.findall(r'"([a-z_]+)"', re.search(
    r'kCounterNames\[kNumCounters\]\s*=\s*\{([^}]*)\}',
    pathlib.Path("src/telemetry/telemetry.cpp").read_text()).group(1)))
# Line by line like the catalogue scan above: code fences leave an odd
# backtick count, which would desynchronize pairing across the document.
doc_tokens = {t for line in doc.splitlines() for t in token.findall(line)}
undocd = sorted(n for n in spans | counters if n not in doc_tokens)
if undocd:
    for n in undocd:
        print(f"undocumented telemetry name: {n} — add it to the Host telemetry tables")
    sys.exit(1)
print(f"telemetry doc coverage OK: {len(spans)} spans, {len(counters)} counters")
EOF

echo "=== docs: no dead relative links ==="
fail=0
for doc in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do
  dir=$(dirname "$doc")
  # Extract relative markdown link targets (skip fenced code blocks,
  # which contain lambda syntax that looks like links, URLs and #anchors).
  for target in $(sed '/^```/,/^```/d' "$doc" \
                  | grep -o '](\([^)#]*\))' | sed 's/](\(.*\))/\1/' \
                  | grep -v '^[a-z]*://' || true); do
    if [ ! -e "$dir/$target" ]; then
      echo "dead link in $doc: $target"
      fail=1
    fi
  done
done
[ "$fail" -eq 0 ] || { echo "dead relative links found"; exit 1; }

# Host-timing gates run last: a noisy timing comparison must not stop
# the determinism and fixed-point stages above from running. Each gate
# still runs with its own baseline and tolerance, and any failure makes
# the script exit non-zero once all of them have reported.
gate_failed=0

echo "=== perf gate: bench_engine vs tracked baseline ==="
# Full (non-smoke) run so the numbers are comparable to the baseline;
# tolerance lives in bench_compare.py (default 25%). bench_engine links
# the instrumented engine with no collector active, so this gate is
# also the host-telemetry overhead gate: telemetry compiled in but off
# must stay within tolerance of the pre-telemetry baseline.
./build-release/bench/bench_engine --json build-release/BENCH_engine.gate.json > /dev/null
python3 tools/bench_compare.py results/BENCH_engine.baseline.json \
  build-release/BENCH_engine.gate.json || gate_failed=1

echo "=== perf trajectory: record + compare against bench history ==="
# Every gate run extends results/history.jsonl (one record per bench,
# keyed by git rev + hardware_concurrency; same-rev reruns replace),
# then the run is held against the median of its own trajectory.
python3 tools/bench_history.py build-release/BENCH_engine.gate.json \
  --history results/history.jsonl
python3 tools/bench_compare.py --history results/history.jsonl \
  build-release/BENCH_engine.gate.json || gate_failed=1

echo "=== perf gate: bench_collective vs tracked baseline ==="
./build-release/bench/bench_collective --json build-release/BENCH_collective.gate.json > /dev/null
python3 tools/bench_compare.py results/BENCH_collective.baseline.json \
  build-release/BENCH_collective.gate.json || gate_failed=1

echo "=== perf gate: bench_adaptive vs tracked baseline ==="
# Full (paper-geometry) run: the three-arm verdicts gate via the exit
# code, the suite throughputs gate via bench_compare.py.
./build-release/bench/bench_adaptive --json build-release/BENCH_adaptive.gate.json > /dev/null
python3 tools/bench_compare.py results/BENCH_adaptive.baseline.json \
  build-release/BENCH_adaptive.gate.json || gate_failed=1

[ "$gate_failed" -eq 0 ] || { echo "perf gates failed (see above)"; exit 1; }

echo "=== all checks passed ==="
