#!/usr/bin/env bash
# CI driver: builds and tests the Release tree, the ASan/UBSan variant, a
# TSan variant running the threaded suites (the serving engine plus the
# thread-pool-backed training paths and the telemetry layer), and a no-SIMD
# variant proving the scalar fallbacks bit-identical. The Release
# leg also runs bench_train_parallel (validating BENCH_train.json),
# bench_extract + bench_infer in --smoke mode (validating
# BENCH_extract.json / BENCH_infer.json, the >= 8x single-thread
# LUT-extraction speedup floor, and the >= 1x flat-vs-nodewalk floor on
# every tree model), bench_serve_throughput (validating its
# Prometheus exposition, including HELP/TYPE pairing), and contract_scanner
# under PHISHINGHOOK_TRACE (validating the span trace, now including the
# async request lanes and flow arrows — at least one trace id must connect
# the request umbrella to its queue/extract stage slices), a chaos smoke
# (contract_scanner against a 10% fault-injecting explorer, checking that
# every request resolves to a definite status), bench_stream in --smoke
# mode (validating BENCH_stream.json: both arrival scenarios present,
# finite rows/s and shed/error rates, accounting identity intact, windowed
# SLO sample and per-stage queue-wait/service-time attribution rows, plus
# the network row the socket-path scenario emits), a scrape smoke
# (stream_follower serving /metrics,/vars,/healthz on loopback mid-run,
# exposition linted, health JSON schema-checked), and a JSON-RPC smoke
# (score_server on ephemeral ports, a single phook_score plus a mixed batch
# over real sockets, response shape and net_* metrics asserted), plus the
# servebench selftest (the serving benchmark builds and its gates hold), so
# the perf trajectory, the telemetry surface, and the fault-isolation
# contract all stay machine-checked across PRs. The ASan leg runs the full suite, including
# the fast-vs-legacy equivalence tests (test_features_fast). The TSan leg
# adds test_stream, racing the three streaming pipeline threads against the
# engine workers' completions, and test_net, hammering the event loop with
# concurrent clients and racing RpcFrontend::stop() against a completion.
#
#   ./ci.sh            # all three variants
#
# Build trees live under build-ci-* so they never collide with a developer's
# ./build. Any failure aborts the script (set -e) and leaves the offending
# tree around for inspection.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

run_variant() {
  local name="$1" sanitize="$2" ctest_args="${3:-}"
  local dir="build-ci-${name}"
  echo "=== ${name}: configure ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release \
        -DPHISHINGHOOK_SANITIZE="${sanitize}" >/dev/null
  echo "=== ${name}: build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  # shellcheck disable=SC2086
  (cd "${dir}" && ctest --output-on-failure --no-tests=error -j "${JOBS}" ${ctest_args})
}

check_bench_json() {
  local json="$1"
  echo "=== bench_train_parallel: ${json} ==="
  if [[ ! -f "${json}" ]]; then
    echo "ci.sh: ${json} missing" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${json}" <<'PY'
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
rows = doc["results"]
assert rows, "empty results"
for row in rows:
    for key in ("model", "threads", "ms", "speedup"):
        assert key in row, f"missing {key}"
print(f"BENCH_train.json ok: {len(rows)} rows")
PY
  else
    # No python3: cheap structural check on the required keys.
    grep -q '"results"' "${json}" && grep -q '"model"' "${json}" &&
      grep -q '"threads"' "${json}" && grep -q '"speedup"' "${json}" ||
      { echo "ci.sh: ${json} malformed" >&2; exit 1; }
  fi
}

check_extract_json() {
  local json="$1"
  echo "=== bench_extract: ${json} ==="
  if [[ ! -f "${json}" ]]; then
    echo "ci.sh: ${json} missing" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${json}" <<'PY'
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
rows = doc["results"]
assert rows, "empty results"
by_path = {}
for row in rows:
    for key in ("path", "threads", "ms", "mb_per_s", "speedup_vs_legacy"):
        assert key in row, f"missing {key}"
    assert row["mb_per_s"] > 0, f"zero throughput for {row['path']}"
    by_path[row["path"]] = row
for required in ("legacy", "fast"):
    assert required in by_path, f"missing path {required}"
fast = by_path["fast"]
assert fast["threads"] == 1, "fast row must be single-thread"
# Floor raised 5x -> 8x with the banked-histogram accumulator (the CI box
# measures ~35x; 8x leaves headroom for noisy hosts without letting the
# fast path quietly decay to the old scalar scan).
assert fast["speedup_vs_legacy"] >= 8.0, (
    f"LUT extraction speedup {fast['speedup_vs_legacy']:.2f}x "
    "below the 8x floor")
print(f"BENCH_extract.json ok: {len(rows)} rows, "
      f"fast path {fast['speedup_vs_legacy']:.1f}x legacy "
      f"at {fast['mb_per_s']:.0f} MB/s")
PY
  else
    grep -q '"results"' "${json}" && grep -q '"path": "fast"' "${json}" &&
      grep -q '"mb_per_s"' "${json}" &&
      grep -q '"speedup_vs_legacy"' "${json}" ||
      { echo "ci.sh: ${json} malformed" >&2; exit 1; }
  fi
}

check_infer_json() {
  local json="$1"
  echo "=== bench_infer: ${json} ==="
  if [[ ! -f "${json}" ]]; then
    echo "ci.sh: ${json} missing" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${json}" <<'PY'
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
rows = doc["results"]
assert rows, "empty results"
seen = set()
for row in rows:
    for key in ("model", "path", "threads", "ms", "rows_per_s",
                "speedup_vs_nodewalk"):
        assert key in row, f"missing {key}"
    assert row["rows_per_s"] > 0, (
        f"zero throughput for {row['model']}/{row['path']}")
    seen.add((row["model"], row["path"]))
for model in ("random_forest", "xgboost", "lightgbm", "catboost"):
    for path in ("nodewalk", "flat"):
        assert (model, path) in seen, f"missing row {model}/{path}"
# Enforced floor: the compiled flat walk must beat the per-row
# nodewalk on EVERY model at one thread (DESIGN.md §10). The floors are
# "never slower" (1.0), not the measured speedups (~3.3x RF, ~1.9x XGB,
# ~1.8x LGBM, ~1.25x CatBoost on the CI box) — pinning the measured
# numbers would flake on host noise, while 1.0 catches any regression to
# the pre-rewrite state, where xgboost/lightgbm sat at ~0.7-0.8x.
min_speedup = {"random_forest": 1.0, "xgboost": 1.0,
               "lightgbm": 1.0, "catboost": 1.0}
checked = set()
for row in rows:
    if row["path"] != "flat" or row.get("threads") != 1:
        continue
    floor = min_speedup.get(row["model"])
    if floor is None:
        continue
    assert row["speedup_vs_nodewalk"] >= floor, (
        f"flat inference for {row['model']} at "
        f"{row['speedup_vs_nodewalk']:.2f}x nodewalk, below the "
        f"{floor:.1f}x floor")
    checked.add(row["model"])
assert checked == set(min_speedup), (
    f"missing single-thread flat rows for {set(min_speedup) - checked}")
print(f"BENCH_infer.json ok: {len(rows)} rows over "
      f"{len({m for m, _ in seen})} models, flat >= nodewalk on all of "
      + ", ".join(sorted(checked)))
PY
  else
    grep -q '"results"' "${json}" && grep -q '"rows_per_s"' "${json}" &&
      grep -q '"path": "flat"' "${json}" &&
      grep -q '"speedup_vs_nodewalk"' "${json}" ||
      { echo "ci.sh: ${json} malformed" >&2; exit 1; }
  fi
}

check_stream_json() {
  local json="$1"
  echo "=== bench_stream: ${json} ==="
  if [[ ! -f "${json}" ]]; then
    echo "ci.sh: ${json} missing" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${json}" <<'PY'
import json, math, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
rows = doc["results"]
assert rows, "empty results"
scenarios = set()
for row in rows:
    for key in ("scenario", "sustained_rows_per_s", "shed_rate",
                "error_rate", "ingest_lag_blocks", "max_ingest_lag_blocks",
                "submitted", "completed", "failed", "shed",
                "accounting_ok"):
        assert key in row, f"missing {key}"
    for key in ("sustained_rows_per_s", "shed_rate", "error_rate",
                "window_rate_per_sec", "window_p99_us",
                "window_error_burn_rate", "shed_pressure"):
        assert key in row, f"missing {key}"
        assert math.isfinite(row[key]), f"non-finite {key}"
    assert row["accounting_ok"] is True, (
        f"accounting broken for {row['scenario']}")
    assert row["submitted"] == row["completed"] + row["failed"] + row["shed"], (
        f"submitted != completed+failed+shed for {row['scenario']}")
    assert row["sustained_rows_per_s"] > 0, (
        f"zero throughput for {row['scenario']}")
    assert 0.0 <= row["shed_pressure"] <= 1.0, "shed_pressure out of [0,1]"
    # Per-stage latency attribution: every scenario reports where time went
    # (queue-wait vs service-time) for the four instrumented stages.
    stages = {s["stage"]: s for s in row["stages"]}
    for stage, kind in (("addr_queue", "wait"), ("queue", "wait"),
                        ("extract", "service"), ("predict", "service")):
        assert stage in stages, f"missing stage row {stage}"
        s = stages[stage]
        assert s["kind"] == kind, f"stage {stage} kind {s['kind']} != {kind}"
        for key in ("count", "mean_us", "p50_us", "p95_us", "p99_us",
                    "max_us"):
            assert key in s, f"stage {stage} missing {key}"
            assert math.isfinite(s[key]), f"stage {stage} non-finite {key}"
    # Real traffic flowed through the engine stages in every scenario.
    assert stages["queue"]["count"] > 0, "no queue-wait samples"
    assert stages["extract"]["count"] > 0, "no extract samples"
    scenarios.add(row["scenario"])
for required in ("steady", "mempool_burst"):
    assert required in scenarios, f"missing scenario {required}"
# Network path: LoadGenerator-driven traffic over real loopback sockets
# through the JSON-RPC front door, with latency attributed across the
# client (connect/rtt), the net layer (parse/handle) and the engine
# (queue/extract/predict).
net = doc["network"]
for key in ("scenario", "requests", "ok", "shed", "transport_errors",
            "rps", "shed_rate"):
    assert key in net, f"network row missing {key}"
assert net["requests"] > 0, "no socket-path requests"
assert net["ok"] > 0, "no socket-path scored responses"
assert net["transport_errors"] == 0, (
    f"{net['transport_errors']} transport errors on loopback")
assert math.isfinite(net["rps"]) and net["rps"] > 0, "bad network rps"
net_stages = {s["stage"]: s for s in net["stages"]}
for stage, kind in (("connect", "service"), ("rtt", "service"),
                    ("parse", "service"),
                    ("handle", "service"), ("queue", "wait"),
                    ("extract", "service"), ("predict", "service")):
    assert stage in net_stages, f"missing network stage row {stage}"
    s = net_stages[stage]
    assert s["kind"] == kind, f"network stage {stage} kind {s['kind']}"
    for key in ("count", "mean_us", "p50_us", "p95_us", "p99_us", "max_us"):
        assert math.isfinite(s[key]), f"network stage {stage} bad {key}"
assert net_stages["parse"]["count"] > 0, "no frames parsed on the socket path"
# Every parsed frame got exactly one answer: the handle stage closes when a
# frame's last reply lands, once per frame.
assert net_stages["handle"]["count"] == net_stages["parse"]["count"], (
    f"{net_stages['parse']['count']} frames parsed but "
    f"{net_stages['handle']['count']} answered")
assert net_stages["queue"]["count"] > 0, "socket traffic never hit the engine"
print(f"BENCH_stream.json ok: {len(rows)} scenarios, "
      + ", ".join(f"{r['scenario']}={r['sustained_rows_per_s']:.0f} rows/s"
                  for r in rows)
      + f"; network {net['rps']:.0f} req/s over {net['requests']} requests")
PY
  else
    grep -q '"scenario": "steady"' "${json}" &&
      grep -q '"scenario": "mempool_burst"' "${json}" &&
      grep -q '"sustained_rows_per_s"' "${json}" &&
      grep -q '"ingest_lag_blocks"' "${json}" &&
      grep -q '"accounting_ok": true' "${json}" &&
      ! grep -q '"accounting_ok": false' "${json}" ||
      { echo "ci.sh: ${json} malformed" >&2; exit 1; }
  fi
}

check_cascade_json() {
  local json="$1"
  echo "=== bench_cascade: ${json} ==="
  if [[ ! -f "${json}" ]]; then
    echo "ci.sh: ${json} missing" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${json}" <<'PY'
import json, math, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
for key in ("test_rows", "models", "stage0_rows_per_s", "heavy_rows_per_s",
            "stage0_accuracy", "heavy_accuracy", "best_single_model",
            "best_single_accuracy", "results"):
    assert key in doc, f"missing {key}"
assert doc["test_rows"] > 0, "empty held-out set"
assert doc["models"]["stage0"] and doc["models"]["heavy"], "missing model names"
rows = doc["results"]
assert rows, "empty results"
for row in rows:
    for key in ("band_lo", "band_hi", "enabled", "rows_per_s",
                "escalation_rate", "degraded_rows", "stage_rows",
                "accuracy", "accuracy_delta_pp", "speedup_vs_heavy"):
        assert key in row, f"missing {key}"
    for key in ("band_lo", "band_hi", "rows_per_s", "escalation_rate",
                "accuracy", "accuracy_delta_pp", "speedup_vs_heavy"):
        assert math.isfinite(row[key]), f"non-finite {key}"
    assert row["rows_per_s"] > 0, "zero throughput"
    assert 0.0 <= row["escalation_rate"] <= 1.0, "escalation_rate out of [0,1]"
    assert row["degraded_rows"] == 0, "faults in a fault-free bench"
    assert sum(row["stage_rows"]) >= doc["test_rows"], "rows went missing"
# The disabled band never escalates; the full [0,1] band escalates every
# row — together they prove the band logic actually gates the heavy stage.
disabled = [r for r in rows if not r["enabled"]]
assert disabled, "no disabled-band control point"
assert all(r["escalation_rate"] == 0.0 for r in disabled), (
    "disabled band escalated rows")
full = [r for r in rows if r["band_lo"] == 0.0 and r["band_hi"] == 1.0]
assert full, "no full-band control point"
assert all(r["escalation_rate"] == 1.0 for r in full), (
    "full [0,1] band failed to escalate every row")
# The optimization gate: some enabled band must beat the heavy model by
# >= 2x while giving up <= 0.5 pp of accuracy vs the best single model.
winners = [r for r in rows
           if r["enabled"] and r["speedup_vs_heavy"] >= 2.0
           and r["accuracy_delta_pp"] >= -0.5]
assert winners, ("no band met the gate: >= 2x over the heavy model at "
                 "<= 0.5 pp accuracy loss")
best = max(winners, key=lambda r: r["speedup_vs_heavy"])
print(f"BENCH_cascade.json ok: {len(rows)} bands, best gate-passing band "
      f"[{best['band_lo']:.2f}, {best['band_hi']:.2f}] at "
      f"{best['speedup_vs_heavy']:.1f}x vs heavy, "
      f"{best['accuracy_delta_pp']:+.2f} pp accuracy")
PY
  else
    grep -q '"bench": "cascade"' "${json}" &&
      grep -q '"escalation_rate"' "${json}" &&
      grep -q '"speedup_vs_heavy"' "${json}" &&
      grep -q '"enabled": true' "${json}" &&
      grep -q '"enabled": false' "${json}" ||
      { echo "ci.sh: ${json} malformed" >&2; exit 1; }
  fi
}

check_prometheus() {
  local prom="$1"
  echo "=== bench_serve_throughput: ${prom} ==="
  if [[ ! -f "${prom}" ]]; then
    echo "ci.sh: ${prom} missing" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${prom}" <<'PY'
import re, sys
line_re = re.compile(
    r'^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|nan|inf)$')
lines = [l.rstrip() for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty exposition"
samples = 0
helped = set()
for line in lines:
    if line.startswith("# HELP "):
        helped.add(line.split()[2])
        continue
    if line.startswith("# TYPE "):
        # Exposition-format conformance: HELP precedes TYPE per name.
        name = line.split()[2]
        assert name in helped, f"# TYPE {name} without a preceding # HELP"
        continue
    assert line_re.match(line), f"malformed exposition line: {line!r}"
    samples += 1
names = " ".join(lines)
for required in ("serve_requests_completed", "serve_cache_hit_rate",
                 "serve_request_latency_us", "threadpool_tasks_total"):
    assert required in names, f"missing metric {required}"
print(f"{sys.argv[1]} ok: {samples} samples")
PY
  else
    grep -q '^serve_requests_completed' "${prom}" &&
      grep -q 'serve_request_latency_us' "${prom}" ||
      { echo "ci.sh: ${prom} malformed" >&2; exit 1; }
  fi
}

check_trace() {
  local trace="$1"
  echo "=== contract_scanner: ${trace} ==="
  if [[ ! -f "${trace}" ]]; then
    echo "ci.sh: ${trace} missing" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${trace}" <<'PY'
import json, sys
from collections import defaultdict
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty trace"
lanes = defaultdict(set)  # async trace id -> stage names on that lane
for event in events:
    ph = event["ph"]
    for key in ("name", "ph", "pid", "tid", "ts"):
        assert key in event, f"missing {key}"
    if ph == "X":
        assert "dur" in event, "complete event without dur"
    elif ph in ("b", "e"):
        assert event.get("cat") == "phook.req", f"async event cat {event}"
        assert event["id"].startswith("0x"), "async event without hex id"
        lanes[event["id"]].add(event["name"])
    elif ph in ("s", "t", "f"):
        assert event.get("cat") == "phook.flow", f"flow event cat {event}"
        assert event["id"].startswith("0x"), "flow event without hex id"
        if ph == "f":
            assert event.get("bp") == "e", "flow finish must bind enclosing"
    else:
        raise AssertionError(f"unexpected phase {ph!r}")
names = {e["name"].split(":")[0] for e in events if e["ph"] == "X"}
for required in ("serve.batch", "features.transform_all", "model.predict"):
    assert required in names, f"missing span {required} (have {sorted(names)})"
# Causal lanes: at least one request's trace id must connect the umbrella
# slice with the per-stage slices (queue wait + extract at minimum).
connected = [i for i, stages in lanes.items()
             if {"request", "req.queue", "req.extract"} <= stages]
assert connected, f"no connected request lane (lanes: {len(lanes)})"
print(f"{sys.argv[1]} ok: {len(events)} events, {len(names)} distinct spans, "
      f"{len(lanes)} request lanes ({len(connected)} fully connected)")
PY
  else
    grep -q '"traceEvents"' "${trace}" && grep -q 'serve.batch' "${trace}" ||
      { echo "ci.sh: ${trace} malformed" >&2; exit 1; }
  fi
}

check_chaos_smoke() {
  local out="$1"
  echo "=== contract_scanner: chaos smoke (10% faults) ==="
  if ! grep -q '^status counts: ok=' "${out}"; then
    echo "ci.sh: chaos smoke missing per-status counts" >&2
    exit 1
  fi
  if ! grep -q '^chaos accounting: .* OK$' "${out}"; then
    echo "ci.sh: chaos accounting violated (completed+failed+shed != submitted)" >&2
    grep '^chaos accounting:' "${out}" >&2 || true
    exit 1
  fi
  grep '^status counts:' "${out}"
  grep '^chaos accounting:' "${out}"
}

fetch_url() {
  local url="$1" out="$2"
  if command -v curl >/dev/null 2>&1; then
    curl -sf --max-time 5 "${url}" -o "${out}"
  else
    python3 - "${url}" "${out}" <<'PY'
import sys, urllib.request
body = urllib.request.urlopen(sys.argv[1], timeout=5).read()
open(sys.argv[2], "wb").write(body)
PY
  fi
}

post_url() {
  local url="$1" body="$2" out="$3"
  if command -v curl >/dev/null 2>&1; then
    curl -sf --max-time 5 -X POST -H 'Content-Type: application/json' \
      -d "${body}" "${url}" -o "${out}"
  else
    python3 - "${url}" "${out}" "${body}" <<'PY'
import sys, urllib.request
req = urllib.request.Request(sys.argv[1], data=sys.argv[3].encode(),
                             headers={"Content-Type": "application/json"})
open(sys.argv[2], "wb").write(urllib.request.urlopen(req, timeout=5).read())
PY
  fi
}

# Scrape smoke: stream_follower serving /metrics, /vars and /healthz on an
# ephemeral loopback port while the pipeline runs. Pulls all three paths
# mid-run, lints the /metrics exposition (grammar + HELP/TYPE pairing +
# the windowed SLO series the pre-scrape hooks refresh), and checks the
# health JSON and the follower's own exit status.
run_scrape_smoke() {
  local dir="$1"
  echo "=== stream_follower: scrape smoke ==="
  rm -f "${dir}/scrape_smoke.out"
  (cd "${dir}" && ./examples/stream_follower --seconds 6 --rate 200 \
    --metrics-port 0 > scrape_smoke.out 2>&1) &
  local follower_pid=$!

  # The follower prints the bound port before the pipeline starts.
  local url="" tries=0
  while [[ -z "${url}" && ${tries} -lt 100 ]]; do
    url="$(grep -o 'http://127\.0\.0\.1:[0-9]*' "${dir}/scrape_smoke.out" \
           2>/dev/null | head -n1 || true)"
    [[ -z "${url}" ]] && sleep 0.1 && tries=$((tries + 1))
  done
  if [[ -z "${url}" ]]; then
    echo "ci.sh: scrape smoke never printed its metrics URL" >&2
    cat "${dir}/scrape_smoke.out" >&2 || true
    kill "${follower_pid}" 2>/dev/null || true
    exit 1
  fi
  local base="${url%/metrics}"

  local path
  for path in metrics vars healthz; do
    if ! fetch_url "${base}/${path}" "${dir}/scrape_${path}.out.tmp"; then
      echo "ci.sh: scrape smoke could not fetch ${base}/${path}" >&2
      cat "${dir}/scrape_smoke.out" >&2 || true
      kill "${follower_pid}" 2>/dev/null || true
      exit 1
    fi
  done
  mv "${dir}/scrape_metrics.out.tmp" "${dir}/scrape_metrics.prom"
  mv "${dir}/scrape_vars.out.tmp" "${dir}/scrape_vars.json"
  mv "${dir}/scrape_healthz.out.tmp" "${dir}/scrape_healthz.json"
  if ! wait "${follower_pid}"; then
    echo "ci.sh: stream_follower exited nonzero under the scrape smoke" >&2
    cat "${dir}/scrape_smoke.out" >&2 || true
    exit 1
  fi

  if command -v python3 >/dev/null 2>&1; then
    python3 - "${dir}/scrape_metrics.prom" "${dir}/scrape_vars.json" \
      "${dir}/scrape_healthz.json" <<'PY'
import json, re, sys
line_re = re.compile(
    r'^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|nan|inf)$')
lines = [l.rstrip() for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty /metrics body"
helped = set()
samples = 0
for line in lines:
    if line.startswith("# HELP "):
        helped.add(line.split()[2])
        continue
    if line.startswith("# TYPE "):
        name = line.split()[2]
        assert name in helped, f"# TYPE {name} without a preceding # HELP"
        continue
    assert line_re.match(line), f"malformed exposition line: {line!r}"
    samples += 1
text = "\n".join(lines)
for required in ("stream_requests_submitted", "stream_window_rate_per_sec",
                 "stream_window_p99_us", "stream_error_burn_rate",
                 "stream_shed_pressure", "stream_stage_wait_us",
                 "trace_events_buffered", "serve_requests_completed"):
    assert required in text, f"missing metric {required} in /metrics"

doc = json.load(open(sys.argv[2]))
assert isinstance(doc.get("registries"), list) and doc["registries"], \
    "/vars missing registries array"

health = json.load(open(sys.argv[3]))
assert health.get("status") in ("running", "draining", "drained"), \
    f"unexpected health status {health.get('status')!r}"
for key in ("submitted", "completed", "failed", "shed", "queues",
            "in_flight"):
    assert key in health, f"/healthz missing {key}"
for key in ("size", "capacity", "closed"):
    assert key in health["queues"]["addresses"], \
        f"/healthz queue addresses missing {key}"
in_flight = health["in_flight"]
for key in ("size", "capacity"):
    assert key in in_flight, f"/healthz in_flight missing {key}"
assert 0 <= in_flight["size"] <= in_flight["capacity"], \
    f"/healthz in_flight out of range: {in_flight!r}"
if health["status"] == "drained":
    assert in_flight["size"] == 0, \
        f"/healthz drained with {in_flight['size']} completions owed"
print(f"scrape smoke ok: {samples} exposition samples, "
      f"health status {health['status']!r}")
PY
  else
    grep -q 'stream_window_rate_per_sec' "${dir}/scrape_metrics.prom" &&
      grep -q '"registries"' "${dir}/scrape_vars.json" &&
      grep -q '"status"' "${dir}/scrape_healthz.json" ||
      { echo "ci.sh: scrape smoke responses malformed" >&2; exit 1; }
  fi
}

# JSON-RPC smoke: score_server on ephemeral ports, score a freshly mined
# address over the socket (single call + mixed batch), and assert both the
# JSON-RPC 2.0 response shape and the presence of the net_* series in the
# scraped /metrics exposition.
run_rpc_smoke() {
  local dir="$1"
  echo "=== score_server: json-rpc smoke ==="
  rm -f "${dir}/rpc_smoke.out"
  (cd "${dir}" && ./examples/score_server --seconds 8 \
    --metrics-port 0 > rpc_smoke.out 2>&1) &
  local server_pid=$!

  # The server prints its RPC URL, metrics URL and a scoreable address
  # once the chain is pre-mined and both listeners are bound.
  local addr="" tries=0
  while [[ -z "${addr}" && ${tries} -lt 150 ]]; do
    addr="$(grep -o '== sample_address: 0x[0-9a-fA-F]*' \
            "${dir}/rpc_smoke.out" 2>/dev/null | awk '{print $3}' || true)"
    [[ -z "${addr}" ]] && sleep 0.1 && tries=$((tries + 1))
  done
  local rpc_url metrics_url
  rpc_url="$(grep -o '== rpc: http://127\.0\.0\.1:[0-9]*/' \
             "${dir}/rpc_smoke.out" 2>/dev/null | awk '{print $3}' || true)"
  metrics_url="$(grep -o '== metrics: http://127\.0\.0\.1:[0-9]*/metrics' \
                 "${dir}/rpc_smoke.out" 2>/dev/null | awk '{print $3}' || true)"
  if [[ -z "${addr}" || -z "${rpc_url}" || -z "${metrics_url}" ]]; then
    echo "ci.sh: rpc smoke never printed its endpoints" >&2
    cat "${dir}/rpc_smoke.out" >&2 || true
    kill "${server_pid}" 2>/dev/null || true
    exit 1
  fi

  local single_body batch_body
  single_body='{"jsonrpc":"2.0","id":1,"method":"phook_score","params":["'"${addr}"'"]}'
  batch_body='[{"jsonrpc":"2.0","id":"s","method":"phook_score","params":["'"${addr}"'"]},'
  batch_body+='{"jsonrpc":"2.0","id":"h","method":"phook_health"}]'
  if ! post_url "${rpc_url}" "${single_body}" "${dir}/rpc_single.json" ||
     ! post_url "${rpc_url}" "${batch_body}" "${dir}/rpc_batch.json" ||
     ! fetch_url "${metrics_url}" "${dir}/rpc_metrics.prom"; then
    echo "ci.sh: rpc smoke request failed against ${rpc_url}" >&2
    cat "${dir}/rpc_smoke.out" >&2 || true
    kill "${server_pid}" 2>/dev/null || true
    exit 1
  fi
  if ! wait "${server_pid}"; then
    echo "ci.sh: score_server exited nonzero under the rpc smoke" >&2
    cat "${dir}/rpc_smoke.out" >&2 || true
    exit 1
  fi

  if command -v python3 >/dev/null 2>&1; then
    python3 - "${dir}/rpc_single.json" "${dir}/rpc_batch.json" \
      "${dir}/rpc_metrics.prom" "${addr}" <<'PY'
import json, sys
addr = sys.argv[4]

def check_score(resp, want_id):
    assert resp.get("jsonrpc") == "2.0", f"bad jsonrpc field: {resp!r}"
    assert resp.get("id") == want_id, f"id mismatch: {resp!r}"
    assert "error" not in resp, f"rpc error: {resp!r}"
    res = resp["result"]
    assert res["address"].lower() == addr.lower(), f"wrong address: {res!r}"
    assert res["status"] == "ok", f"score status {res['status']!r}"
    assert 0.0 <= res["probability"] <= 1.0, f"bad probability: {res!r}"
    for key in ("flagged", "cache_hit", "latency_us", "trace_id",
                "stage", "model"):
        assert key in res, f"result missing {key}: {res!r}"
    assert res["stage"] in (0, 1), f"bad cascade stage: {res!r}"

single = json.load(open(sys.argv[1]))
check_score(single, 1)

batch = json.load(open(sys.argv[2]))
assert isinstance(batch, list) and len(batch) == 2, f"bad batch: {batch!r}"
by_id = {r.get("id"): r for r in batch}
check_score(by_id["s"], "s")
health = by_id["h"]["result"]
assert health["status"] == "ok", f"health status {health!r}"
assert health["engine"]["requests_completed"] >= 1, f"no completions: {health!r}"
assert "requests_degraded" in health["engine"], f"no degraded counter: {health!r}"
# score_server serves a two-stage cascade; health must attribute it.
cascade = health["cascade"]
assert cascade["enabled"] is True, f"cascade disabled: {cascade!r}"
assert len(cascade["stages"]) == 2, f"wrong stage count: {cascade!r}"
for stage in cascade["stages"]:
    for key in ("stage", "model", "rows", "escalations", "faults"):
        assert key in stage, f"cascade stage missing {key}: {stage!r}"
assert cascade["stages"][0]["rows"] >= 1, f"stage 0 never scored: {cascade!r}"

text = open(sys.argv[3]).read()
for required in ("net_requests_total", "net_responses_total",
                 "net_connections_active", "net_batch_calls_total",
                 "net_stage_service_us", "net_frames_in_flight",
                 "net_request_total_us"):
    assert required in text, f"missing net metric {required} in /metrics"
print(f"rpc smoke ok: scored {addr} "
      f"(p={single['result']['probability']:.3f}, "
      f"trace {single['result']['trace_id']})")
PY
  else
    grep -q '"result"' "${dir}/rpc_single.json" &&
      grep -q '"result"' "${dir}/rpc_batch.json" &&
      grep -q 'net_requests_total' "${dir}/rpc_metrics.prom" ||
      { echo "ci.sh: rpc smoke responses malformed" >&2; exit 1; }
  fi
}

run_variant release ""
(cd build-ci-release && ./bench/bench_train_parallel)
check_bench_json build-ci-release/BENCH_train.json
(cd build-ci-release && ./bench/bench_extract --smoke)
check_extract_json build-ci-release/BENCH_extract.json
(cd build-ci-release && ./bench/bench_infer --smoke)
check_infer_json build-ci-release/BENCH_infer.json
# Stream smoke: the whole miner -> follower -> load generator -> engine
# pipeline under both arrival scenarios, with the accounting identity and
# the BENCH_stream.json schema machine-checked.
(cd build-ci-release && ./bench/bench_stream --smoke)
check_stream_json build-ci-release/BENCH_stream.json
# Cascade smoke: band sweep over the two-stage scorer; the gate demands a
# band that keeps >= 2x of the heavy model's throughput headroom at
# <= 0.5 pp accuracy loss, plus the disabled / full-band control points.
(cd build-ci-release && ./bench/bench_cascade --smoke)
check_cascade_json build-ci-release/BENCH_cascade.json
(cd build-ci-release && ./bench/bench_serve_throughput 1)
check_prometheus build-ci-release/BENCH_serve_metrics.prom
(cd build-ci-release &&
  PHISHINGHOOK_TRACE=scanner_trace.json ./examples/contract_scanner)
check_trace build-ci-release/scanner_trace.json
# Chaos smoke: the scanner against a 10% fault-injecting explorer must exit
# 0 (no aborted workers, no lost completions) and report per-status counts
# that account for every submission.
(cd build-ci-release && ./examples/contract_scanner --chaos 0.10 \
  | tee chaos_smoke.out >/dev/null)
check_chaos_smoke build-ci-release/chaos_smoke.out
run_scrape_smoke build-ci-release
run_rpc_smoke build-ci-release
# Serving benchmark selftest: builds servebench/ (its own CMake package over
# ../src) and runs its verdict-gate selftest, so a src/ API change that
# breaks the benchmark's build or its gates fails here.
echo "=== servebench: selftest ==="
python3 servebench/run.py --selftest

run_variant asan address

# TSan cannot be combined with ASan, and slows everything ~10x, so it runs
# only the suites with actual cross-thread state: the serving engine, its
# chaos/fault-injection suite, the cascade suite (worker-count determinism
# and degraded-path accounting), the thread-pool unit tests, the pool-backed
# training determinism suite, the telemetry layer, and the socket/JSON-RPC
# front end (event loop under concurrent clients, stop() with a reply owed).
run_variant tsan thread "-R test_serve|test_serve_faults|test_cascade|test_thread_pool|test_parallel_determinism|test_obs|test_stream|test_net"

# No-SIMD leg: build with PHISHINGHOOK_SIMD compiled out (and gcc's
# autovectorizers off) and run the fast-vs-legacy equivalence suite. The
# scalar fallbacks must be bit-identical to the vectorized build — this is
# the proof that the SIMD pragmas are an optimization, never a semantic.
echo "=== nosimd: configure ==="
cmake -B build-ci-nosimd -S . -DCMAKE_BUILD_TYPE=Release \
      -DPHISHINGHOOK_NO_SIMD=ON >/dev/null
echo "=== nosimd: build ==="
cmake --build build-ci-nosimd -j "${JOBS}" --target test_features_fast
echo "=== nosimd: test_features_fast ==="
(cd build-ci-nosimd && ./tests/test_features_fast)

echo "=== ci.sh: all variants green ==="
