#!/usr/bin/env bash
# Repository gate: static checks, build, and the full test suite under the
# race detector. This is the tier-1 verify plus the concurrency checks the
# parallel solve engine requires; CI and pre-commit hooks should run this.
#
# Usage:
#   scripts/check.sh          # full gate (lint + race over every package +
#                             # multi-CPU repeats of the concurrency-bearing
#                             # packages + serve smoke)
#   scripts/check.sh -short   # quick tier: lint + build + short-mode race + serve smoke
#   scripts/check.sh -lint    # lint tier only: vet + gofmt + birplint
#   scripts/check.sh -serve   # serving smoke tier only: 10k-request replay with
#                             # byte-identical decision logs across -workers {1,4},
#                             # accounting + staleness-bound assertions, and a TCP
#                             # daemon round trip with SIGINT clean shutdown
#   scripts/check.sh -bench   # bench tier: fig7 workers {1,4} and serve replay
#                             # byte-identity, fig7 BIRP stage-1 counter gates,
#                             # micro-benches with the slot-loop and serve-submit
#                             # allocs/op gates; writes nothing into the
#                             # checkout (perfbench/ is the benchmark)
set -euo pipefail
cd "$(dirname "$0")/.."

# serve_smoke: the online-serving acceptance gate. The replay arm proves the
# determinism contract (same seed -> byte-identical decision log for any
# -workers value) and the counter invariants (every request accounted, max
# staleness within the bound); the daemon arm proves the TCP frontend serves
# round trips and shuts down cleanly on SIGINT.
serve_smoke() {
	local stmp
	stmp=$(mktemp -d)
	echo "== build birpserve"
	go build -o "$stmp/birpserve" ./cmd/birpserve

	echo "== serve replay 10k (workers 1 vs 4, byte-identical decision logs)"
	for w in 1 4; do
		"$stmp/birpserve" -gen 10000 -seed 1 -policy token-bucket -cap 64 -rate 48 \
			-route least-loaded -workers "$w" -log "$stmp/serve_w$w.log" \
			-json "$stmp/serve_w$w.json" >"$stmp/serve_w$w.txt"
	done
	cmp "$stmp/serve_w1.log" "$stmp/serve_w4.log"
	python3 - "$stmp/serve_w1.json" <<-'EOF'
		import json, sys
		o = json.load(open(sys.argv[1]))
		assert o["submitted"] == 10000, o["submitted"]
		assert o["submitted"] == o["admitted"] + o["rejected"], "accounting leak"
		assert o["admitted"] > 0, "nothing admitted"
		assert o["stale_max_ms"] <= o["stale_bound_ms"] + 1e-9, "staleness bound violated"
		print(f"ok: 10k requests accounted, stale max {o['stale_max_ms']:.1f}ms"
		      f" <= bound {o['stale_bound_ms']:.1f}ms")
	EOF

	echo "== serve daemon smoke (TCP round trip + SIGINT clean shutdown)"
	"$stmp/birpserve" -listen 127.0.0.1:0 -apps 1 >"$stmp/daemon.txt" 2>&1 &
	local pid=$! addr=""
	for _ in $(seq 100); do
		addr=$(sed -n 's/^serving on \(.*\) (SIGINT.*/\1/p' "$stmp/daemon.txt" | head -1)
		[[ -n "$addr" ]] && break
		sleep 0.1
	done
	if [[ -z "$addr" ]]; then
		kill "$pid" 2>/dev/null || true
		echo "daemon never announced its address" >&2
		exit 1
	fi
	python3 - "$addr" <<-'EOF'
		import json, socket, sys
		host, port = sys.argv[1].rsplit(":", 1)
		s = socket.create_connection((host, int(port)), timeout=5)
		f = s.makefile("rw")
		for q in range(5):
		    f.write(json.dumps({"id": q, "app": 0, "region": q % 3}) + "\n")
		    f.flush()
		    d = json.loads(f.readline())
		    assert d["id"] == q and d.get("admit"), d
		s.close()
		print("ok: 5 daemon round trips")
	EOF
	kill -INT "$pid"
	wait "$pid"
	grep -q "daemon: submitted 5 admitted 5" "$stmp/daemon.txt"
	rm -rf "$stmp"
	echo "ok: serve smoke passed"
}

if [[ "${1:-}" == "-serve" ]]; then
	serve_smoke
	exit 0
fi

if [[ "${1:-}" == "-bench" ]]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	echo "== build birpbench + birpserve"
	go build -o "$tmp/birpbench" ./cmd/birpbench
	go build -o "$tmp/birpserve" ./cmd/birpserve

	# identical CONFIG: the two worker counts of one configuration must print
	# byte-identical stdout once the wall-clock trailer is stripped.
	identical() {
		sed '/ completed in /d' "$tmp/out_$1_w1.txt" >"$tmp/id_$1_w1.txt"
		sed '/ completed in /d' "$tmp/out_$1_w4.txt" >"$tmp/id_$1_w4.txt"
		cmp "$tmp/id_$1_w1.txt" "$tmp/id_$1_w4.txt"
	}

	# The workers=1 arm runs twice: repeated runs, like worker counts, must
	# print byte-identical results.
	echo "== fig7 -slots 150 (workers {1,4}, serial twice)"
	for arm in w1 w1b w4; do
		w=1
		[[ "$arm" == w4 ]] && w=4
		"$tmp/birpbench" -exp fig7 -slots 150 -seed 1 -workers "$w" \
			-solverstats >"$tmp/out_fig7_$arm.txt"
	done
	identical fig7
	sed '/ completed in /d' "$tmp/out_fig7_w1b.txt" >"$tmp/id_fig7_w1b.txt"
	cmp "$tmp/id_fig7_w1.txt" "$tmp/id_fig7_w1b.txt"

	# Stage-1 counter gates on fig7's BIRP arm (deterministic for the seed).
	# The stage-1 LP re-enters from the previous slot's basis: measured 19.1
	# pivots per solve (143.8 under -noreuse, which solves it cold) with 146
	# of 150 solves answered warm. The budget allows ~2x the measured pivots; the floor
	# allows the share of solves not answered warm to grow from 2.7% to 10%.
	python3 - "$tmp/out_fig7_w1.txt" <<-'EOF'
		import re, sys
		MAX_PIVOTS_PER_SOLVE, MIN_WARM_SHARE = 40.0, 0.90
		for line in open(sys.argv[1]):
		    m = re.match(r"^\s+BIRP\s.*stage1\(solves=(\d+) warm=(\d+) reject=\d+ pivots=(\d+) ", line)
		    if m:
		        break
		else:
		    sys.exit("fig7 -solverstats printed no BIRP stage1(...) counters")
		solves, warm, pivots = (int(g) for g in m.groups())
		per, share = pivots / solves, warm / solves
		assert per <= MAX_PIVOTS_PER_SOLVE, f"stage-1 {per:.1f} pivots/solve > budget {MAX_PIVOTS_PER_SOLVE}"
		assert share >= MIN_WARM_SHARE, f"stage-1 warm share {share:.3f} < floor {MIN_WARM_SHARE}"
		print(f"ok: stage-1 {per:.1f} pivots/solve <= {MAX_PIVOTS_PER_SOLVE}, warm share {share:.3f} >= {MIN_WARM_SHARE}")
	EOF

	# Three repetitions per worker count; every repetition's decision log
	# must be byte-identical (within a worker count and across worker counts).
	echo "== serve replay 10k (workers {1,4} x3, byte-identical decision logs)"
	for w in 1 4; do
		for r in 1 2 3; do
			"$tmp/birpserve" -gen 10000 -seed 1 -policy token-bucket -cap 64 -rate 48 \
				-route least-loaded -workers "$w" -log "$tmp/serve_w${w}_r$r.log" \
				>"$tmp/out_serve_w${w}_r$r.txt"
		done
		cmp "$tmp/serve_w${w}_r1.log" "$tmp/serve_w${w}_r2.log"
		cmp "$tmp/serve_w${w}_r1.log" "$tmp/serve_w${w}_r3.log"
	done
	cmp "$tmp/serve_w1_r1.log" "$tmp/serve_w4_r1.log"

	echo "== micro-benches (warm vs cold, LP box solve, warm re-entry, slot-loop and serve-submit allocs)"
	go test . -run '^$' -bench 'BenchmarkWarmVsColdRelaxation' -benchtime 100x |
		tee "$tmp/micro.txt"
	go test ./internal/lp -run '^$' -bench 'BenchmarkBoundedBoxLP|BenchmarkWarmReentry' -benchmem |
		tee -a "$tmp/micro.txt"
	go test ./internal/core -run '^$' -bench 'BenchmarkSlotLoop' -benchtime 200x -benchmem |
		tee -a "$tmp/micro.txt"
	go test ./internal/serve -run '^$' -bench 'BenchmarkLoopSubmit' -benchmem |
		tee -a "$tmp/micro.txt"

	# Alloc gates: the steady-state slot loop must stay within the recorded
	# allocs/op budget, and a serve decision between replans must allocate
	# nothing (TestSlotLoopAllocBudget and
	# TestLoopSubmitAllocatesNothingBetweenReplans enforce the same ceilings
	# in-process; this guards the benchmark output itself).
	python3 - "$tmp/micro.txt" <<-'EOF'
		import re, sys
		BUDGETS = {"BenchmarkSlotLoop": ("slot loop", 300), "BenchmarkLoopSubmit": ("serve submit", 0)}
		seen = set()
		for line in open(sys.argv[1]):
		    m = re.match(r"^(Benchmark\w+)\b.* (\d+) allocs/op", line)
		    if m and m.group(1) in BUDGETS and m.group(1) not in seen:
		        seen.add(m.group(1))
		        what, budget = BUDGETS[m.group(1)]
		        allocs = int(m.group(2))
		        assert allocs <= budget, f"{what} {allocs} allocs/op > budget {budget}"
		        print(f"ok: {what} {allocs} allocs/op <= budget {budget}")
		missing = set(BUDGETS) - seen
		if missing:
		    sys.exit(f"{', '.join(sorted(missing))} missing from micro.txt")
	EOF
	echo "ok: bench tier passed"
	exit 0
fi

short=""
if [[ "${1:-}" == "-short" ]]; then
	short="-short"
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# The determinism linter runs in every tier, including -short: its findings
# are exactly the bugs the race detector and seeded tests can miss (map-order
# output, float equality, swallowed solver errors). The -short tier lints only
# the files changed since HEAD (tracked edits plus untracked .go files) via
# birplint -changed; an empty change list or no usable git falls back to the
# full module so the quick tier never silently skips the gate.
lint_tmp=$(mktemp -d)
trap 'rm -rf "$lint_tmp"' EXIT
lint_status=0
changed=""
if [[ -n "$short" ]] && command -v git >/dev/null && git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	# testdata fixtures deliberately seed findings and are excluded from the
	# gate, same as the full-module walk excludes them.
	changed=$( (git diff --name-only HEAD -- '*.go'; git ls-files --others --exclude-standard -- '*.go') |
		grep -v '/testdata/' | sort -u || true)
fi
if [[ -n "$changed" ]]; then
	echo "== birplint -changed ($(wc -l <<<"$changed") files)"
	go run ./cmd/birplint -changed -json - <<<"$changed" >"$lint_tmp/lint.json" || lint_status=$?
else
	echo "== birplint ./..."
	go run ./cmd/birplint -json ./... >"$lint_tmp/lint.json" || lint_status=$?
fi
python3 scripts/lintreport.py "$lint_tmp/lint.json"
if [[ $lint_status -ne 0 ]]; then
	echo "birplint: unwaived findings (exit $lint_status); fix them or waive with //birplint:ignore" >&2
	exit "$lint_status"
fi

if [[ "${1:-}" == "-lint" ]]; then
	echo "ok: lint tier passed"
	exit 0
fi

# Race instrumentation slows the numeric hot paths ~10x, so the full gate
# gets a generous timeout for single-core machines.
echo "== go test -race $short ./..."
go test -race $short -timeout 45m ./...

# The race pass runs each test once at the host's CPU count; protocol
# shutdown races (edgenet, serve TCP, connset), pool scheduling and the
# solvers' worker-count invariance only show up under other core counts and
# repeated runs, so the full gate repeats the concurrency-bearing packages
# at -cpu 1,2,4.
if [[ -z "$short" ]]; then
	echo "== go test -count=3 -cpu 1,2,4 (edgenet, serve, connset, par, core, miqp, lp)"
	go test -count=3 -cpu 1,2,4 ./internal/edgenet ./internal/serve ./internal/connset \
		./internal/par ./internal/core ./internal/miqp ./internal/lp
fi

serve_smoke

echo "ok: all checks passed"
