#!/usr/bin/env bash
# CI driver: the build/test jobs a change must pass.
#
#   tier1        Release build, full test suite          (the seed contract)
#   asan         AddressSanitizer, smoke-labeled tests   (fast memory checks)
#   tsan         ThreadSanitizer, full test suite        (pool + pipeline races)
#   bench-smoke  Run bench binaries at tiny N, then parse-check the
#                BENCH_*.json artifacts with bench_json_check (obs::json)
#                and require every BENCH_stream.json run to match batch
#                and its slow-sink run to stall within its batch bound,
#                and BENCH_serve.json's 4-thread closed loop to be no
#                slower than its 1-thread one at any shard count.
#                Catches bench bitrot and malformed reporter output without
#                paying for a full benchmark run.
#   chaos-smoke  Fault-injection gate: the chaos-labeled test suite
#                (ctest -L chaos), a multi-seed `tero_cli chaos` sweep
#                (transient faults => bit-identical dataset; permanent
#                faults => explicit quarantine/degraded output), and the
#                fault-point overhead benchmark with an absolute ceiling on
#                the disabled-point cost.
#   obs-smoke    Observability gate (DESIGN.md §13): the timeline/SLO test
#                suites, a Prometheus exposition format check over `tero_cli
#                obs export --prom` output (bench_json_check), and the
#                determinism diff — a same-seed `obs export` at 1 and 8
#                threads must produce byte-identical timeline and SLO JSON.
#   cluster-smoke  Multi-node serving gate (DESIGN.md §14): the
#                cluster-labeled test suite (ctest -L cluster), a
#                `tero_cli cluster kill` / `cluster join` invariant run
#                (availability under node loss, breaker SLO firing,
#                ownership audit, remap bound — the CLI exits nonzero on
#                any violation), a `cmp` of the kill run's tally and
#                result checksum at 1 and 8 threads, and bench_cluster
#                --tiny with a JSON
#                parse check plus availability/determinism floors on
#                BENCH_cluster.json.
#   tsdb-smoke   Tiered-storage gate (DESIGN.md §15): the tsdb-labeled test
#                suite (ctest -L tsdb), bench_tsdb --tiny with a JSON parse
#                check plus a >= 5x compression-ratio floor and a
#                thread-determinism flag on BENCH_tsdb.json, and a 10-seed
#                crash-during-compaction recovery sweep (`tero_cli tsdb
#                verify` — acknowledged samples must survive any injected
#                crash, and reopening a torn directory must reproduce the
#                pre-crash dataset digest), and a range-answer pin: one
#                checksum over `tero_cli query range` outputs (two keys,
#                count/mean/p50/p99/drift, daily and hourly windows) from a
#                fixed `stream --tsdb-dir` run.
#   control-smoke  Overload-resilience gate (DESIGN.md §16): the
#                control-labeled test suite (ctest -L control),
#                bench_control --tiny with a JSON parse check plus awk
#                floors (reactive must shed less than static at 2x and 4x
#                overload, the brownout ladder must engage before the
#                first shed, the 1-vs-N-thread decision logs must match),
#                and a 3-seed `tero_cli control sweep` determinism sweep —
#                the per-tick decision log at 1 and 8 threads must be
#                byte-identical (cmp) for every seed.
#   perf-smoke   Extraction fast-path gate (DESIGN.md §12): the simd_test
#                bit-identity suite, the per-stage extraction microbenches
#                checked against the committed floors in
#                bench/perf_baseline.txt (>15% throughput drop fails), and
#                a TERO_SIMD=off full-OCR run that must reproduce the
#                vectorized run's dataset digest exactly.
#   perfbench-smoke  Repository benchmark self-test: perfbench/test_perfbench.py
#                builds perfbench against src/ and runs every workload at
#                tiny size (metric names, units, output checks, fingerprint
#                corruption). perfbench is not part of ctest, so this is
#                where a removed public name it uses first fails.
#
# Run the default three:   scripts/ci.sh
# Run a subset:            scripts/ci.sh asan tsan
# Bench artifact gate:     scripts/ci.sh bench-smoke
# Fault-injection gate:    scripts/ci.sh chaos-smoke
# Observability gate:      scripts/ci.sh obs-smoke
# Cluster gate:            scripts/ci.sh cluster-smoke
# Tiered-storage gate:     scripts/ci.sh tsdb-smoke
# Overload-control gate:   scripts/ci.sh control-smoke
# Extraction perf gate:    scripts/ci.sh perf-smoke
# Benchmark self-test:     scripts/ci.sh perfbench-smoke
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=("$@")
if [ ${#jobs[@]} -eq 0 ]; then
  jobs=(tier1 asan tsan)
fi

run_preset() {
  local preset="$1" test_preset="$2"
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  ctest --preset "$test_preset" -j "$(nproc)"
}

run_bench_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target bench_perf_micro bench_serve bench_stream bench_cluster \
    bench_tsdb bench_control bench_json_check
  # Benchmarks write BENCH_*.json into their cwd; keep artifacts in build/bench.
  (
    cd build/bench
    ./bench_perf_micro \
      --benchmark_filter='BM_CleanStream/100$|BM_ChannelHandoff|BM_TsdbChunkCodec|BM_TsdbRange' \
      --benchmark_min_time=0.01
    ./bench_serve --tiny
    ./bench_stream --tiny
    ./bench_cluster --tiny
    ./bench_tsdb --tiny
    ./bench_control --tiny
    # Every bench above must have left its artifact behind; name the missing
    # ones explicitly so a silently-skipped reporter is obvious from the log.
    local artifacts missing sizes
    artifacts=(BENCH_perf_micro.json BENCH_serve.json BENCH_stream.json \
               BENCH_cluster.json BENCH_tsdb.json BENCH_control.json)
    missing=()
    sizes=""
    for artifact in "${artifacts[@]}"; do
      if [ -s "$artifact" ]; then
        sizes+=" $artifact=$(wc -c < "$artifact")B"
      else
        missing+=("$artifact")
      fi
    done
    if [ ${#missing[@]} -gt 0 ]; then
      echo "bench-smoke: missing or empty artifacts: ${missing[*]}" >&2
      echo "bench-smoke: a bench binary exited without writing its JSON" \
           "report — check its output above" >&2
      exit 1
    fi
    echo "bench-smoke: artifacts$sizes"
    ./bench_json_check "${artifacts[@]}"
    # Stream/batch equality: every runs[] row of BENCH_stream.json must have
    # reproduced the batch snapshot byte for byte.
    awk '/"runs": \[/ { in_runs = 1; next }
         in_runs && /^ *\]/ { in_runs = 0 }
         in_runs && /"threads"/ {
           rows++
           if (index($0, "\"matches_batch\": true") == 0) {
             print "bench-smoke: stream run does not match batch: " $0
             bad = 1
           }
         }
         END {
           if (rows == 0) {
             print "bench-smoke: BENCH_stream.json has no runs[] rows"
             exit 1
           }
           if (bad) exit 1
           print "bench-smoke: stream matches batch in all " rows " runs"
         }' BENCH_stream.json
    # Slow-sink backpressure: the stall counter must fire, and no channel
    # may have queued more batches than its bound (capacity_batches).
    awk 'function num(key,   a, b) {
           if (split($0, a, "\"" key "\": ") < 2) return -1
           split(a[2], b, /[,}]/)
           return b[1] + 0
         }
         /"backpressure"/ {
           seen = 1
           stalls = num("stalls")
           peak = num("peak_depth")
           cap = num("capacity_batches")
           if (stalls <= 0) {
             print "bench-smoke: slow sink recorded no backpressure stalls"
             bad = 1
           }
           if (cap < 1 || peak < 0 || peak > cap) {
             print "bench-smoke: peak depth " peak " exceeds capacity " \
                   cap " batches"
             bad = 1
           }
         }
         END {
           if (!seen) {
             print "bench-smoke: BENCH_stream.json has no backpressure row"
             exit 1
           }
           if (bad) exit 1
           print "bench-smoke: backpressure stalls " stalls ", peak depth " \
                 peak "/" cap " batches"
         }' BENCH_stream.json
    # Shard/thread layout cannot change answers: BENCH_serve.json must have
    # at least two closed_loop[] rows, all carrying one checksum.
    awk '/"closed_loop": \[/ { in_rows = 1; next }
         in_rows && /^ *\]/ { in_rows = 0 }
         in_rows && /"shards"/ {
           rows++
           split($0, a, "\"checksum\": \"")
           split(a[2], b, "\"")
           if (rows == 1) first = b[1]
           if (b[1] == "" || b[1] != first) {
             print "bench-smoke: serve closed_loop checksums disagree: " $0
             bad = 1
           }
         }
         END {
           if (rows < 2) {
             print "bench-smoke: BENCH_serve.json has " rows + 0 \
                   " closed_loop[] rows, want >= 2"
             exit 1
           }
           if (bad) exit 1
           print "bench-smoke: serve checksum " first " in all " rows \
                 " closed_loop rows"
         }' BENCH_serve.json
    # Readers share no written cache line: 4 closed-loop threads must be no
    # slower than 1 at every shard count. bench_serve writes the ratios only
    # when the machine has 4 hardware threads.
    awk '/"scaling_4v1"/ {
           seen = 1
           n = split($0, parts, "\"ratio\": ")
           for (i = 2; i <= n; i++) {
             split(parts[i], v, "}")
             split(parts[i - 1], s, "\"shards\": ")
             split(s[2], shards, ",")
             if (v[1] + 0 < 1.0) {
               print "bench-smoke: serve 4-thread/1-thread throughput " \
                     v[1] " < 1.0 at " shards[1] " shard(s)"
               bad = 1
             }
             rows++
           }
         }
         END {
           if (!seen) {
             print "bench-smoke: BENCH_serve.json has no scaling_4v1 key"
             exit 1
           }
           if (bad) exit 1
           if (rows == 0) {
             print "bench-smoke: serve scaling not checked (fewer than 4" \
                   " hardware threads)"
           } else {
             print "bench-smoke: serve 4-thread/1-thread >= 1.0 at all " \
                   rows " shard counts"
           }
         }' BENCH_serve.json
  )
}

run_tsdb_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target tsdb_test tero_cli bench_tsdb bench_json_check
  (cd build && ctest -L tsdb --output-on-failure -j "$(nproc)")
  # Bench artifact gate: BENCH_tsdb.json must parse, the Gorilla-lineage
  # codec must beat the 16 B/sample raw encoding by >= 5x, and the sealing/
  # compaction schedule must be bit-identical at 1 thread vs machine width.
  (
    cd build/bench
    ./bench_tsdb --tiny
    ./bench_json_check BENCH_tsdb.json
    awk '/"compression"/ {
           split($0, a, "\"ratio\": ")
           split(a[2], b, ",")
           if (b[1] + 0 < 5.0) {
             print "tsdb-smoke: compression ratio " b[1] " < 5.0 floor"
             bad = 1
           }
           comp = 1
         }
         /"determinism"/ {
           if (index($0, "\"digest_match\": true") == 0 ||
               index($0, "\"layout_match\": true") == 0) {
             print "tsdb-smoke: compaction not thread-deterministic"
             bad = 1
           }
           det = 1
         }
         END {
           if (!comp || !det) {
             print "tsdb-smoke: compression/determinism rows missing from JSON"
             bad = 1
           }
           exit bad
         }' BENCH_tsdb.json
  )
  # Crash-recovery sweep: 10 seeds, each with a seeded crash injected into
  # tsdb.compact mid-run. The CLI reopens the torn directory and exits
  # nonzero if any acknowledged sample is lost, the recovered digest
  # diverges, or the 1-vs-8-thread schedules disagree.
  ./build/examples/tero_cli tsdb verify 10 --threads 8
  # Range-answer pin: everything `query range` prints for a fixed stream
  # run is folded into one checksum, so a change to a range answer that
  # shows at the CLI's two printed decimals fails here. Bit-level equality
  # is checked by tsdb_test and obs_test, not by this pin.
  local pin_dir=build/tsdb-smoke-range
  rm -rf "$pin_dir" && mkdir -p "$pin_dir"
  ./build/examples/tero_cli stream 60 7 4 --snapshot-out "$pin_dir/snap.tkv" \
    --tsdb-dir "$pin_dir/tsdb" > /dev/null
  local key agg window range_sum
  range_sum=$(
    for key in "Among Us|Costa Rica" "Call of Duty Warzone|United Kingdom"; do
      for agg in count mean p50 p99 drift; do
        for window in 86400000 3600000; do
          ./build/examples/tero_cli query "$pin_dir/snap.tkv" range \
            "${key%%|*}" "${key#*|}" --tsdb-dir "$pin_dir/tsdb" \
            --agg "$agg" --window "$window"
        done
      done
    done | sha256sum | cut -c1-16)
  if [ "$range_sum" != "9d9f7328b77a9d6e" ]; then
    echo "tsdb-smoke: range answers checksum $range_sum, want 9d9f7328b77a9d6e"
    exit 1
  fi
  echo "tsdb-smoke: compression, determinism, crash-recovery and range-answer gates held"
}

run_chaos_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target chaos_test tero_cli bench_perf_micro
  (cd build && ctest -L chaos --output-on-failure -j "$(nproc)")
  # Multi-seed deterministic chaos sweep; tero_cli exits nonzero when any
  # resilience invariant is violated.
  ./build/examples/tero_cli chaos 5 40 2
  # Overhead gate: a disabled fault point must stay in the
  # tens-of-nanoseconds range per crossing. throughput is crossings/s, so
  # 1e7/s = 100 ns per crossing — a deliberately generous ceiling that
  # still catches accidental locks or allocations on the disabled path.
  (
    cd build/bench
    ./bench_perf_micro --benchmark_filter='BM_FaultPoint' \
      --benchmark_min_time=0.01
    awk -F'"throughput": ' '/BM_FaultPointDisabled/ {
        split($2, a, "}")
        if (a[1] + 0 < 1e7) {
          print "chaos-smoke: disabled fault point too slow: " a[1] " /s"
          exit 1
        }
        found = 1
      }
      END {
        if (!found) {
          print "chaos-smoke: BM_FaultPointDisabled missing from JSON"
          exit 1
        }
      }' BENCH_perf_micro.json
  )
}

run_obs_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target timeline_test slo_test obs_test tero_cli bench_json_check
  ./build/tests/obs_test
  ./build/tests/timeline_test
  ./build/tests/slo_test
  # Exposition format gate: the CLI's Prometheus export must pass the
  # checker bench_json_check applies to .prom files (validate_prom_text).
  local out
  out=$(mktemp -d)
  ./build/examples/tero_cli obs export 40 2 8000 4 \
    --prom "$out/obs.prom" --json "$out/t4.json" --slo "$out/s4.json"
  ./build/bench/bench_json_check "$out/obs.prom"
  # Determinism gate (DESIGN.md §13): same seed, 1 vs 8 threads, the
  # timeline history and SLO verdict log must match byte for byte.
  ./build/examples/tero_cli obs export 40 2 8000 1 \
    --json "$out/t1.json" --slo "$out/s1.json"
  ./build/examples/tero_cli obs export 40 2 8000 8 \
    --json "$out/t8.json" --slo "$out/s8.json"
  if ! cmp -s "$out/t1.json" "$out/t8.json" ||
     ! cmp -s "$out/s1.json" "$out/s8.json"; then
    echo "obs-smoke: obs export differs across thread counts" >&2
    rm -rf "$out"
    exit 1
  fi
  rm -rf "$out"
  echo "obs-smoke: timeline + SLO output bit-identical at 1 and 8 threads"
}

run_cluster_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target cluster_test replay_golden_test tero_cli bench_cluster \
    bench_json_check
  (cd build && ctest -L cluster --output-on-failure -j "$(nproc)")
  # Invariant runs: the CLI asserts availability under a mid-sweep node
  # kill, the breaker opening plus its burn-rate SLO firing within two
  # scrapes, and — for join — the ownership audit and the < 2/n remap
  # bound. Either command exiting nonzero fails the gate.
  # Determinism gate: the kill run's tally and result checksum lines must
  # be byte-identical at 1 and at 8 threads.
  local out
  out=$(mktemp -d)
  ./build/examples/tero_cli cluster kill 60 2 12000 --threads 1 \
    | tee "$out/kill1.txt"
  ./build/examples/tero_cli cluster kill 60 2 12000 --threads 8 \
    | tee "$out/kill8.txt"
  grep -E '^  (issued|result checksum) ' "$out/kill1.txt" > "$out/sum1.txt"
  grep -E '^  (issued|result checksum) ' "$out/kill8.txt" > "$out/sum8.txt"
  if ! grep -q 'result checksum' "$out/sum1.txt" ||
     ! cmp -s "$out/sum1.txt" "$out/sum8.txt"; then
    echo "cluster-smoke: cluster kill result differs at 1 vs 8 threads" >&2
    rm -rf "$out"
    exit 1
  fi
  rm -rf "$out"
  ./build/examples/tero_cli cluster join 60 2 12000 --threads 8
  # Bench artifact gate: BENCH_cluster.json must parse and its committed
  # floors must hold — the 1-vs-N-thread churn sweep stayed bit-identical
  # and availability under a single-node kill never dropped below 99%.
  (
    cd build/bench
    ./bench_cluster --tiny
    ./bench_json_check BENCH_cluster.json
    awk '/"determinism"/ {
           if (index($0, "\"checksum_match\": true") == 0) {
             print "cluster-smoke: churn sweep not thread-deterministic"
             bad = 1
           }
           det = 1
         }
         /"kill"/ {
           split($0, a, "\"availability\": ")
           split(a[2], b, ",")
           if (b[1] + 0 < 0.99) {
             print "cluster-smoke: availability under kill " b[1] " < 0.99"
             bad = 1
           }
           kill = 1
         }
         END {
           if (!det || !kill) {
             print "cluster-smoke: determinism/kill rows missing from JSON"
             bad = 1
           }
           exit bad
         }' BENCH_cluster.json
  )
  echo "cluster-smoke: determinism, availability and audit gates held"
}

run_control_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target control_test replay_golden_test tero_cli bench_control \
    bench_json_check
  (cd build && ctest -L control --output-on-failure -j "$(nproc)")
  # Bench artifact gate: BENCH_control.json must parse and the committed
  # floors must hold — the reactive policy sheds measurably less than the
  # static baseline at 2x and 4x overload, the brownout ladder engaged
  # before the first shed, and the 1-vs-N-thread decision logs matched.
  (
    cd build/bench
    ./bench_control --tiny
    ./bench_json_check BENCH_control.json
    awk '/"comparison"/ {
           split($0, a, "\"static_shed_2x\": "); split(a[2], s2, ",")
           split($0, a, "\"reactive_shed_2x\": "); split(a[2], r2, ",")
           split($0, a, "\"static_shed_4x\": "); split(a[2], s4, ",")
           split($0, a, "\"reactive_shed_4x\": "); split(a[2], r4, ",")
           if (r2[1] + 0 >= s2[1] + 0) {
             print "control-smoke: reactive shed " r2[1] " >= static " s2[1] \
                   " at 2x"
             bad = 1
           }
           if (r4[1] + 0 >= s4[1] + 0) {
             print "control-smoke: reactive shed " r4[1] " >= static " s4[1] \
                   " at 4x"
             bad = 1
           }
           comp = 1
         }
         /"ladder"/ {
           if (index($0, "\"engaged_before_shed\": true") == 0) {
             print "control-smoke: ladder did not engage before shedding"
             bad = 1
           }
           ladder = 1
         }
         /"determinism"/ {
           if (index($0, "\"log_match\": true") == 0 ||
               index($0, "\"checksum_match\": true") == 0) {
             print "control-smoke: decision log not thread-deterministic"
             bad = 1
           }
           det = 1
         }
         END {
           if (!comp || !ladder || !det) {
             print "control-smoke: comparison/ladder/determinism rows" \
                   " missing from JSON"
             bad = 1
           }
           exit bad
         }' BENCH_control.json
  )
  # Determinism sweep: per seed the CLI's per-tick decision log at 1 thread
  # and at 8 threads must be byte-identical; any divergence is a replay
  # hazard in the controller's scrape -> decide -> actuate loop. The CLI
  # itself exits nonzero when the ladder failed to engage before shedding.
  local out
  out=$(mktemp -d)
  for seed in 3 11 29; do
    ./build/examples/tero_cli control sweep --policy reactive --mult 4 \
      --seed "$seed" --threads 1 --log-out "$out/d1-$seed.log"
    ./build/examples/tero_cli control sweep --policy reactive --mult 4 \
      --seed "$seed" --threads 8 --log-out "$out/d8-$seed.log" > /dev/null
    if ! cmp -s "$out/d1-$seed.log" "$out/d8-$seed.log"; then
      echo "control-smoke: decision log differs at 1 vs 8 threads" \
           "(seed $seed)" >&2
      rm -rf "$out"
      exit 1
    fi
  done
  rm -rf "$out"
  echo "control-smoke: shed floors, ladder order and decision-log" \
       "determinism gates held"
}

run_perf_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target bench_perf_micro simd_test tero_cli
  # Scalar-vs-SIMD bit-identity across every vectorized kernel (randomized
  # images, odd widths, tail lanes) — the determinism half of the contract.
  ./build/tests/simd_test
  (
    cd build/bench
    ./bench_perf_micro \
      --benchmark_filter='BM_OcrExtract|BM_Img|BM_Glyph|BM_OcrMatch' \
      --benchmark_min_time=0.05
    # Throughput floors: bench/perf_baseline.txt records the events/s each
    # stage sustained at the commit that last touched the fast path (scaled
    # down for slow CI machines); dropping more than 15% below a floor
    # fails the gate.
    awk 'NR==FNR {
           if ($0 !~ /^#/ && NF >= 2) floor[$1] = $2
           next
         }
         {
           for (name in floor) {
             if (index($0, "\"" name "\":") > 0) {
               split($0, a, "\"events_per_s\": ")
               split(a[2], b, ",")
               got = b[1] + 0
               if (got < floor[name] * 0.85) {
                 printf "perf-smoke: %s regressed: %f events/s < 0.85 * %f\n", \
                        name, got, floor[name]
                 bad = 1
               }
               seen[name] = 1
             }
           }
         }
         END {
           for (name in floor) {
             if (!(name in seen)) {
               print "perf-smoke: " name " missing from BENCH_perf_micro.json"
               bad = 1
             }
           }
           exit bad
         }' ../../bench/perf_baseline.txt BENCH_perf_micro.json
  )
  # Dispatch determinism: a scalar (TERO_SIMD=off, 1 thread) full-OCR run
  # must print the same dataset digest as the vectorized multi-threaded run.
  local out ref alt
  out=$(mktemp -d)
  ref=$(./build/examples/tero_cli simulate "$out" 40 2 4 --full-ocr --digest |
        awk '/^digest /{print $2}')
  alt=$(TERO_SIMD=off ./build/examples/tero_cli simulate "$out" 40 2 1 \
        --full-ocr --digest | awk '/^digest /{print $2}')
  rm -rf "$out"
  if [ -z "$ref" ] || [ "$ref" != "$alt" ]; then
    echo "perf-smoke: TERO_SIMD=off digest mismatch: '$ref' vs '$alt'" >&2
    exit 1
  fi
  echo "perf-smoke: digest $ref identical with TERO_SIMD=off"
}

run_perfbench_smoke() {
  python3 perfbench/test_perfbench.py
}

for job in "${jobs[@]}"; do
  echo "=== ci: $job ==="
  case "$job" in
    tier1) run_preset default default ;;
    asan)  run_preset asan asan ;;   # test preset filters to -L smoke
    tsan)  run_preset tsan tsan ;;
    bench-smoke) run_bench_smoke ;;
    chaos-smoke) run_chaos_smoke ;;
    obs-smoke) run_obs_smoke ;;
    cluster-smoke) run_cluster_smoke ;;
    tsdb-smoke) run_tsdb_smoke ;;
    control-smoke) run_control_smoke ;;
    perf-smoke) run_perf_smoke ;;
    perfbench-smoke) run_perfbench_smoke ;;
    *) echo "unknown job: $job (want tier1, asan, tsan, bench-smoke," \
            "chaos-smoke, obs-smoke, cluster-smoke, tsdb-smoke," \
            "control-smoke, perf-smoke or perfbench-smoke)" >&2
       exit 2 ;;
  esac
done
echo "=== ci: all jobs passed ==="
