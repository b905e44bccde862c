# Keep `check` equal to what CI runs: a clean checkout that passes
# `make check` will pass the workflow. `check` includes perfbench-ab, the
# benchmark of record's A/B gate, against BASE, which defaults to the
# merge base with origin/main, as in CI's pull-request runs (a push to
# main is compared with the previous commit).

GO ?= go

.PHONY: fmt build test perfbench-test perfbench-ab bench-ledger race lint lint-sarif mc check fuzz paper-smoke fault-smoke serve serve-smoke trace-smoke promscrape-smoke soak-smoke cluster-smoke

# Fails listing every file gofmt would change; CI's check job runs this
# same target.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench/ is its own module, so ./... above skips it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The benchmark of record's wall-time gate. BASE is exported into
# .bench_build/ab/src, whose run.sh builds from it; this working tree is
# HEAD. After one short traced pass at HEAD, each workload runs AB_PAIRS
# times per side, untraced, the sides taking turns to go first, pair i on
# seed i: one-second runs spread by up to 31% of their median, too wide
# for a single pair against the 0.25 bound. A run that exits nonzero fails
# at once; cmd/benchjson fails any end-to-end metric whose HEAD median is
# worse than BASE's by more than BENCHMARK.json's bound.
AB_PAIRS = 5
AB_SECONDS = 3
BASE ?= $(shell git merge-base HEAD origin/main 2>/dev/null)
perfbench-ab:
	@test -n "$(BASE)" || { echo "perfbench-ab: no merge base with origin/main; pass BASE=<rev>" >&2; exit 2; }
	rm -rf .bench_build/ab && mkdir -p .bench_build/ab/src .bench_build/ab/base .bench_build/ab/head
	git archive "$(BASE)" | tar -x -C .bench_build/ab/src
	bash perfbench/run.sh --workload replay --seed 1 --seconds 1 --trace 1
	for i in $$(seq 1 $(AB_PAIRS)); do \
		sides="base head"; [ $$((i % 2)) = 1 ] || sides="head base"; \
		for w in replay serve fleet; do for side in $$sides; do \
			echo "perfbench-ab: pair $$i, $$w, $$side"; \
			root=.; [ $$side = head ] || root=.bench_build/ab/src; \
			bash $$root/perfbench/run.sh --workload $$w --seed $$i --seconds $(AB_SECONDS) --trace 0 \
				> .bench_build/ab/out || { cat .bench_build/ab/out; exit 1; }; \
			tail -n 1 .bench_build/ab/out >> .bench_build/ab/$$side/$$w.jsonl; \
		done; done; \
	done
	$(GO) run ./cmd/benchjson .bench_build/ab/base .bench_build/ab/head

# Appends this checkout's line to the benchmark ledger, BENCH.json: the
# result of one untraced run per workload and of one traced run, each of
# BENCHMARK.json's run_seconds, with the commit and the CPU model.
bench-ledger:
	rm -rf .bench_build/ledger && mkdir -p .bench_build/ledger
	set -e; secs=$$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json); \
	for run in replay:0 serve:0 fleet:0 replay:1; do \
		bash perfbench/run.sh --workload $${run%:*} --seed 1 --seconds $$secs --trace $${run#*:} > .bench_build/ledger/out; \
		tail -n 1 .bench_build/ledger/out > .bench_build/ledger/$$run; \
	done; \
	cd .bench_build/ledger; \
	printf '{"commit":"%s","cpu":"%s","seconds":%s,"results":{"replay":%s,"serve":%s,"fleet":%s},"traced":%s}\n' \
		"$$(git rev-parse HEAD)$$(git diff --quiet HEAD || echo -dirty)" "$$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)" \
		"$$secs" "$$(cat replay:0)" "$$(cat serve:0)" "$$(cat fleet:0)" "$$(cat replay:1)" >> ../../BENCH.json

race:
	$(GO) test -race ./...

# Static analysis: go vet plus the dirsim-specific rule suite.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/dirsimlint ./...

# SARIF export for code-scanning upload (CI attaches dirsimlint.sarif to
# the security tab via codeql-action/upload-sarif). Exit 1 — findings —
# still produces a useful upload, so only exit 2 (load/analysis failure)
# fails the target. Runs a built binary, not `go run`, because go run
# collapses every nonzero program exit to 1 and would mask exit 2.
lint-sarif:
	rm -rf lint-sarif.tmp && mkdir lint-sarif.tmp
	$(GO) build -o lint-sarif.tmp/dirsimlint ./cmd/dirsimlint
	./lint-sarif.tmp/dirsimlint -format sarif ./... > dirsimlint.sarif; \
	code=$$?; rm -rf lint-sarif.tmp; test $$code -eq 0 || test $$code -eq 1

# Explicit-state model check of every engine over the 2-cache universe,
# then the 2-block universe where cross-block state can interact, then 3
# caches, where the limited-pointer schemes overflow their pointers.
mc:
	$(GO) run ./cmd/dirsimlint -mc
	$(GO) run ./cmd/dirsimlint -mc -blocks 2
	$(GO) run ./cmd/dirsimlint -mc -caches 3 -blocks 2

check: fmt build lint test perfbench-test perfbench-ab race mc

# Short local fuzz of the scheme registry (CI runs the seed corpus via
# `go test`; this explores further).
fuzz:
	$(GO) test ./internal/coherence/ -run FuzzNewByName -fuzz FuzzNewByName -fuzztime 30s

# Paper reproduction drill (same scenario CI runs): every table and
# figure cmd/paper prints must match the committed paper_output.txt byte
# for byte, so a refactor that changes any result fails here. The output
# goes to a file first so that cmd/paper's own exit status counts too.
paper-smoke:
	rm -rf paper-smoke.tmp && mkdir paper-smoke.tmp
	$(GO) run ./cmd/paper > paper-smoke.tmp/out.txt
	diff -u paper_output.txt paper-smoke.tmp/out.txt
	rm -rf paper-smoke.tmp

# End-to-end resilience drill (same scenario CI runs): a sweep with an
# injected panic, a truncated trace and transient faults on every job
# must exit nonzero yet leave a partial CSV, a failure manifest and a
# checkpoint; a clean -resume run must reproduce the fault-free output
# byte for byte.
fault-smoke:
	rm -rf fault-smoke.tmp && mkdir fault-smoke.tmp
	$(GO) run ./cmd/sweep -workloads pops -schemes dir0b,dragon -cpus 2,4,8 \
		-refs 6000 -seeds 2 -parallel 2 -o fault-smoke.tmp/clean.csv
	! $(GO) run ./cmd/sweep -workloads pops -schemes dir0b,dragon -cpus 2,4,8 \
		-refs 6000 -seeds 2 -parallel 2 -o fault-smoke.tmp/faulty.csv \
		-fault-panic 1 -fault-jobs 2 -fault-truncate 3000 -fault-transient 1 \
		-retry-base 1ms -checkpoint fault-smoke.tmp/ck.json \
		-manifest fault-smoke.tmp/failures.json
	test -s fault-smoke.tmp/faulty.csv
	grep -q '"jobs_failed": 2' fault-smoke.tmp/failures.json
	$(GO) run ./cmd/sweep -workloads pops -schemes dir0b,dragon -cpus 2,4,8 \
		-refs 6000 -seeds 2 -parallel 2 -o fault-smoke.tmp/resumed.csv \
		-checkpoint fault-smoke.tmp/ck.json -resume
	cmp fault-smoke.tmp/clean.csv fault-smoke.tmp/resumed.csv
	rm -rf fault-smoke.tmp

# Run the simulation daemon locally (API.md documents the endpoints).
serve:
	$(GO) run ./cmd/dirsimd -addr 127.0.0.1:8023 -cache-dir dirsimd-cache

# End-to-end service drill (same scenario CI runs): start dirsimd on an
# ephemeral port, submit a small POPS/Dir1NB job and wait for it, then
# re-submit the identical spec and prove the content-addressed cache
# served it — the response bytes match and /metrics shows zero new
# runner jobs — and finally SIGTERM the daemon and require a clean
# (exit 0) drain.
serve-smoke:
	rm -rf serve-smoke.tmp && mkdir serve-smoke.tmp
	$(GO) build -o serve-smoke.tmp/dirsimd ./cmd/dirsimd
	set -e; \
	./serve-smoke.tmp/dirsimd -addr 127.0.0.1:0 \
		-ready-file serve-smoke.tmp/addr -cache-dir serve-smoke.tmp/cache \
		-parallel 2 > serve-smoke.tmp/daemon.log 2>&1 & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 100); do test -s serve-smoke.tmp/addr && break; sleep 0.1; done; \
	test -s serve-smoke.tmp/addr; \
	addr=$$(cat serve-smoke.tmp/addr); \
	printf '%s' '{"sweep":{"workloads":["pops"],"schemes":["dir1nb"],"cpus":[4],"refs":20000,"seeds":1}}' \
		> serve-smoke.tmp/req.json; \
	curl -fsS http://$$addr/v1/engines | grep -q '"dir1nb"'; \
	curl -fsS -X POST --data-binary @serve-smoke.tmp/req.json \
		"http://$$addr/v1/jobs?wait=1" -o serve-smoke.tmp/first.json; \
	grep -q '"status":"done"' serve-smoke.tmp/first.json; \
	curl -fsS http://$$addr/metrics -o serve-smoke.tmp/m1.json; \
	curl -fsS -X POST --data-binary @serve-smoke.tmp/req.json \
		"http://$$addr/v1/jobs?wait=1" -o serve-smoke.tmp/second.json; \
	cmp serve-smoke.tmp/first.json serve-smoke.tmp/second.json; \
	curl -fsS http://$$addr/metrics -o serve-smoke.tmp/m2.json; \
	j1=$$(grep -o '"jobs_total":[0-9]*' serve-smoke.tmp/m1.json); \
	j2=$$(grep -o '"jobs_total":[0-9]*' serve-smoke.tmp/m2.json); \
	test -n "$$j1" && test "$$j1" = "$$j2"; \
	kill -TERM $$pid; \
	wait $$pid; \
	trap - EXIT; \
	grep -q 'drained cleanly' serve-smoke.tmp/daemon.log
	rm -rf serve-smoke.tmp

# Multi-tenant burn-in (same scenario CI runs): thousands of concurrent
# submits across three synthetic tenants against a stateful dirsimd,
# with one SIGKILL + restart mid-soak. The driver (cmd/soak) proves
# zero lost jobs (every ack reaches done), zero duplicated work (the
# revived daemon's jobs_total equals exactly the cells without a
# durable checkpoint at restart), bounded queue depth via the
# dirsim_queue_depth Prometheus histogram, and that batch tenants
# cannot starve interactive ?wait=1 submits beyond their fair share.
soak-smoke:
	rm -rf soak-smoke.tmp && mkdir soak-smoke.tmp
	$(GO) build -o soak-smoke.tmp/dirsimd ./cmd/dirsimd
	$(GO) run ./cmd/soak -daemon soak-smoke.tmp/dirsimd -dir soak-smoke.tmp/run -jobs 2001
	rm -rf soak-smoke.tmp

# Fleet drill (same scenario CI runs): three clustered dirsimd daemons
# on ephemeral ports share a membership file written after they bind
# (the lazy FileSource retries the load, so flag order does not matter).
# The drill proves the three cluster properties end to end:
#   1. a clustered sweep's CSV is byte-identical to the local
#      single-process sweep's;
#   2. every cell is simulated exactly once fleet-wide — the summed
#      jobs_total across daemons equals the cell count, and an identical
#      re-sweep adds zero jobs (content-addressed cache + rendezvous
#      routing dedup);
#   3. SIGKILLing one daemon mid-sweep does not lose the sweep — HRW
#      failover reroutes its cells and the CSV still matches the local
#      run byte for byte.
cluster-smoke:
	rm -rf cluster-smoke.tmp && mkdir cluster-smoke.tmp
	$(GO) build -o cluster-smoke.tmp/dirsimd ./cmd/dirsimd
	$(GO) build -o cluster-smoke.tmp/sweep ./cmd/sweep
	$(GO) build -o cluster-smoke.tmp/tracecheck ./cmd/tracecheck
	$(GO) build -o cluster-smoke.tmp/dirsimtop ./cmd/dirsimtop
	./cluster-smoke.tmp/sweep -workloads pops -schemes dir0b,dragon -cpus 2,4 \
		-refs 6000 -seeds 2 -parallel 2 -o cluster-smoke.tmp/local.csv
	./cluster-smoke.tmp/sweep -workloads pops -schemes dir0b,dragon -cpus 2,4 \
		-refs 150000 -seeds 2 -parallel 2 -o cluster-smoke.tmp/local-big.csv
	set -e; \
	for n in 1 2 3; do \
		./cluster-smoke.tmp/dirsimd -addr 127.0.0.1:0 \
			-ready-file cluster-smoke.tmp/addr$$n \
			-cache-dir cluster-smoke.tmp/cache$$n -parallel 2 \
			-cluster-peers cluster-smoke.tmp/peers.json -cluster-probe 500ms \
			> cluster-smoke.tmp/daemon$$n.log 2>&1 & \
		echo $$! > cluster-smoke.tmp/pid$$n; \
	done; \
	trap "kill $$(cat cluster-smoke.tmp/pid1 cluster-smoke.tmp/pid2 cluster-smoke.tmp/pid3) 2>/dev/null || true" EXIT; \
	for n in 1 2 3; do \
		for i in $$(seq 1 100); do test -s cluster-smoke.tmp/addr$$n && break; sleep 0.1; done; \
		test -s cluster-smoke.tmp/addr$$n; \
	done; \
	printf '{"key":"smoke","peers":[{"addr":"http://%s"},{"addr":"http://%s"},{"addr":"http://%s"}]}' \
		"$$(cat cluster-smoke.tmp/addr1)" "$$(cat cluster-smoke.tmp/addr2)" "$$(cat cluster-smoke.tmp/addr3)" \
		> cluster-smoke.tmp/peers.json; \
	./cluster-smoke.tmp/sweep -cluster cluster-smoke.tmp/peers.json -hedge 0 \
		-workloads pops -schemes dir0b,dragon -cpus 2,4 -refs 6000 -seeds 2 \
		-parallel 2 -retry-base 50ms -o cluster-smoke.tmp/clustered.csv; \
	cmp cluster-smoke.tmp/local.csv cluster-smoke.tmp/clustered.csv; \
	total=0; \
	for n in 1 2 3; do \
		v=$$(curl -fsS "http://$$(cat cluster-smoke.tmp/addr$$n)/metrics" \
			| grep -o '"jobs_total":[0-9]*' | cut -d: -f2); \
		total=$$((total+v)); \
	done; \
	test "$$total" -eq 4; \
	./cluster-smoke.tmp/sweep -cluster cluster-smoke.tmp/peers.json -hedge 0 \
		-workloads pops -schemes dir0b,dragon -cpus 2,4 -refs 6000 -seeds 2 \
		-parallel 2 -retry-base 50ms -o cluster-smoke.tmp/resweep.csv; \
	cmp cluster-smoke.tmp/local.csv cluster-smoke.tmp/resweep.csv; \
	total=0; \
	for n in 1 2 3; do \
		v=$$(curl -fsS "http://$$(cat cluster-smoke.tmp/addr$$n)/metrics" \
			| grep -o '"jobs_total":[0-9]*' | cut -d: -f2); \
		total=$$((total+v)); \
	done; \
	test "$$total" -eq 4; \
	./cluster-smoke.tmp/sweep -workloads pops -schemes dir0b,dragon -cpus 2,4,8 \
		-refs 9000 -seeds 3 -parallel 2 -o cluster-smoke.tmp/local-traced.csv; \
	./cluster-smoke.tmp/sweep -cluster cluster-smoke.tmp/peers.json -hedge 0 \
		-workloads pops -schemes dir0b,dragon -cpus 2,4,8 -refs 9000 -seeds 3 \
		-parallel 2 -retry-base 50ms -trace cluster-smoke.tmp/fleet.trace \
		-o cluster-smoke.tmp/traced.csv; \
	cmp cluster-smoke.tmp/local-traced.csv cluster-smoke.tmp/traced.csv; \
	./cluster-smoke.tmp/tracecheck -format chrome -min-events 24 cluster-smoke.tmp/fleet.trace; \
	./cluster-smoke.tmp/tracecheck -format spans -min-services 4 cluster-smoke.tmp/fleet.trace; \
	curl -fsS -H "X-Dirsim-Cluster-Key: smoke" \
		"http://$$(cat cluster-smoke.tmp/addr1)/v1/cluster/metrics?format=prometheus" \
		| ./cluster-smoke.tmp/tracecheck -format prom; \
	rows=$$(curl -fsS -H "X-Dirsim-Cluster-Key: smoke" \
		"http://$$(cat cluster-smoke.tmp/addr1)/v1/cluster/metrics" \
		| grep -o '"addr"' | wc -l); \
	test "$$rows" -eq 3; \
	./cluster-smoke.tmp/dirsimtop -once -key smoke \
		-addr "http://$$(cat cluster-smoke.tmp/addr1)" \
		| grep -q '3 members, 3 up'; \
	( sleep 0.3; kill -9 "$$(cat cluster-smoke.tmp/pid3)" ) & killer=$$!; \
	./cluster-smoke.tmp/sweep -cluster cluster-smoke.tmp/peers.json \
		-workloads pops -schemes dir0b,dragon -cpus 2,4 -refs 150000 -seeds 2 \
		-parallel 2 -retry-base 50ms -o cluster-smoke.tmp/killed.csv; \
	wait $$killer 2>/dev/null || true; \
	cmp cluster-smoke.tmp/local-big.csv cluster-smoke.tmp/killed.csv; \
	kill -TERM "$$(cat cluster-smoke.tmp/pid1)" "$$(cat cluster-smoke.tmp/pid2)"; \
	wait "$$(cat cluster-smoke.tmp/pid1)" "$$(cat cluster-smoke.tmp/pid2)"; \
	trap - EXIT; \
	grep -q 'drained cleanly' cluster-smoke.tmp/daemon1.log; \
	grep -q 'drained cleanly' cluster-smoke.tmp/daemon2.log
	rm -rf cluster-smoke.tmp

# Observability drill (same scenario CI runs): a POPS run under Dir1B
# with the flight recorder on must produce a valid NDJSON trace and a
# valid Chrome trace (checked by cmd/tracecheck), and tracing must not
# perturb results — the traced run's CSV is byte-identical to the
# untraced one. The second pair cross-checks pricing the same way:
# untraced, RunSchemes simulates Dir_nNB alone and prices Dir0B,
# Berkeley, Tang, WTI, Write-Once, MESI, Dir1B and Dir4B from it; traced,
# it simulates all nine.
trace-smoke:
	rm -rf trace-smoke.tmp && mkdir trace-smoke.tmp
	$(GO) build -o trace-smoke.tmp/dirsim ./cmd/dirsim
	$(GO) build -o trace-smoke.tmp/tracecheck ./cmd/tracecheck
	./trace-smoke.tmp/dirsim -workload pops -refs 50000 -schemes dir1b \
		-csv > trace-smoke.tmp/untraced.csv
	./trace-smoke.tmp/dirsim -workload pops -refs 50000 -schemes dir1b \
		-csv -trace-out trace-smoke.tmp/run.ndjson -spans \
		> trace-smoke.tmp/traced.csv
	cmp trace-smoke.tmp/untraced.csv trace-smoke.tmp/traced.csv
	./trace-smoke.tmp/tracecheck -format ndjson -min-events 100 trace-smoke.tmp/run.ndjson
	./trace-smoke.tmp/dirsim -workload pops -refs 50000 -schemes dir1b \
		-csv -trace-out trace-smoke.tmp/run.json -spans > /dev/null
	./trace-smoke.tmp/tracecheck -format chrome -min-events 100 trace-smoke.tmp/run.json
	./trace-smoke.tmp/dirsim -workload pops -refs 50000 \
		-schemes dir0b,berkeley,dirnnb,tang,wti,writeonce,mesi,dir1b,dir4b \
		-csv > trace-smoke.tmp/untraced-priced.csv
	./trace-smoke.tmp/dirsim -workload pops -refs 50000 \
		-schemes dir0b,berkeley,dirnnb,tang,wti,writeonce,mesi,dir1b,dir4b \
		-csv -trace-out trace-smoke.tmp/priced.ndjson \
		> trace-smoke.tmp/traced-priced.csv
	cmp trace-smoke.tmp/untraced-priced.csv trace-smoke.tmp/traced-priced.csv
	rm -rf trace-smoke.tmp

# Prometheus-scrape drill (same scenario CI runs): dirsimd on an
# ephemeral port with tracing on must serve a /metrics text exposition
# that passes the in-repo validator and a Perfetto-loadable per-job
# trace for a finished job.
promscrape-smoke:
	rm -rf promscrape-smoke.tmp && mkdir promscrape-smoke.tmp
	$(GO) build -o promscrape-smoke.tmp/dirsimd ./cmd/dirsimd
	$(GO) build -o promscrape-smoke.tmp/tracecheck ./cmd/tracecheck
	set -e; \
	./promscrape-smoke.tmp/dirsimd -addr 127.0.0.1:0 -trace-sample 8 \
		-ready-file promscrape-smoke.tmp/addr -parallel 2 \
		> promscrape-smoke.tmp/daemon.log 2>&1 & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 100); do test -s promscrape-smoke.tmp/addr && break; sleep 0.1; done; \
	test -s promscrape-smoke.tmp/addr; \
	addr=$$(cat promscrape-smoke.tmp/addr); \
	printf '%s' '{"sweep":{"workloads":["pops"],"schemes":["dir1b"],"cpus":[4],"refs":20000,"seeds":1}}' \
		> promscrape-smoke.tmp/req.json; \
	curl -fsS -X POST --data-binary @promscrape-smoke.tmp/req.json \
		"http://$$addr/v1/jobs?wait=1" -o promscrape-smoke.tmp/result.json; \
	grep -q '"status":"done"' promscrape-smoke.tmp/result.json; \
	id=$$(grep -o '"id":"[0-9a-f]*"' promscrape-smoke.tmp/result.json | head -1 | cut -d'"' -f4); \
	test -n "$$id"; \
	curl -fsS "http://$$addr/metrics?format=prometheus" \
		| ./promscrape-smoke.tmp/tracecheck -format prom; \
	curl -fsS "http://$$addr/v1/jobs/$$id/trace" \
		| ./promscrape-smoke.tmp/tracecheck -format chrome -min-events 10; \
	curl -fsS "http://$$addr/v1/jobs/$$id/trace?format=ndjson" \
		| ./promscrape-smoke.tmp/tracecheck -format ndjson -min-events 10; \
	kill -TERM $$pid; \
	wait $$pid; \
	trap - EXIT; \
	grep -q 'drained cleanly' promscrape-smoke.tmp/daemon.log
	rm -rf promscrape-smoke.tmp
