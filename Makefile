# Entry points for the common developer loops.  Everything runs against
# the source tree directly (PYTHONPATH=src), no install required.

PYTHON ?= python
export PYTHONPATH := src

# Line budget for src/ (*.py + *.c), enforced by `make loc`.  Raise it in
# the PR that needs the room, and say why.
SRC_LOC_BUDGET := 16971
LOC = find $(1) -type f \( -name '*.py' -o -name '*.c' \) -exec cat {} + | wc -l

.PHONY: test test-fast bench-smoke loc dead-code chaos-smoke policy-smoke agg-smoke cluster-smoke striped-smoke runall-smoke serve-quick serve-soak

test:            ## full tier-1 suite
	$(PYTHON) -m pytest -x -q

test-fast:       ## everything not marked slow
	$(PYTHON) -m pytest -x -q -m "not slow"

bench-smoke:     ## the repo benchmark (bench/): its own tests, then all six workloads at smoke size
	$(PYTHON) -m pytest -q bench/tests
	$(PYTHON) -m bench run --size 0.1 --seconds 0.3

loc:             ## line counts of src/, tests/, bench/; fails when src/ exceeds SRC_LOC_BUDGET
	@for tree in src tests bench; do \
		printf '%-6s %6d\n' $$tree $$($(call LOC,$$tree)); \
	done
	@lines=$$($(call LOC,src)); test $$lines -le $(SRC_LOC_BUDGET) || \
		{ echo "src/ has $$lines lines, over its budget of $(SRC_LOC_BUDGET)"; exit 1; }

dead-code:       ## src/repro definitions no entry point runs and tools/dead_code_keep.txt does not list (a few minutes; not in CI)
	@$(PYTHON) tools/dead_code.py

chaos-smoke:     ## the builtin fault battery under each sharing policy's invariants, cooperative push over 2 devices, and pool pressure beside budgeted operators
	$(PYTHON) -m repro chaos e2 --scale 0.1 --streams 2 --sharing-policy grouping-throttling
	$(PYTHON) -m repro chaos e2 --scale 0.1 --streams 2 --sharing-policy cooperative
	$(PYTHON) -m repro chaos e2 --scale 0.1 --streams 2 --sharing-policy pbm
	$(PYTHON) -m repro chaos st-push --scale 0.1 --streams 3 --device-count 2 --push \
		--sharing-policy cooperative
	$(PYTHON) -m repro chaos ag-mix --scale 0.1 --streams 2 \
		--faults pool-pressure:fraction=0.6,from=0.0

policy-smoke:    ## three sharing policies on the quick staggered scenario, digest-checked
	$(PYTHON) -m repro sweep e2 --param sharing_policy \
		--values grouping-throttling,cooperative,pbm \
		--scale 0.1 --streams 2 --jobs 1 --no-cache --out policy-serial.json
	$(PYTHON) -m repro sweep e2 --param sharing_policy \
		--values grouping-throttling,cooperative,pbm \
		--scale 0.1 --streams 2 --jobs 3 --no-cache --out policy-parallel.json
	$(PYTHON) tools/same_digest.py policy policy-serial.json policy-parallel.json --points 3

agg-smoke:       ## budgeted-aggregation and multibuffer-join mixes across three policies, digest-checked, must spill and chunk
	$(PYTHON) -m repro sweep ag-mix --param sharing_policy \
		--values grouping-throttling,cooperative,pbm \
		--scale 0.1 --streams 2 --jobs 1 --no-cache --out agg-serial.json
	$(PYTHON) -m repro sweep ag-mix --param sharing_policy \
		--values grouping-throttling,cooperative,pbm \
		--scale 0.1 --streams 2 --jobs 3 --no-cache --out agg-parallel.json
	$(PYTHON) tools/same_digest.py agg agg-serial.json agg-parallel.json
	$(PYTHON) -c "import json; s=json.load(open('agg-serial.json')); \
		spilled = sum(pt['metrics'].get('spilled_partitions', 0) for pt in s['experiments']); \
		assert spilled > 0, 'agg smoke never spilled'; \
		print(f'{spilled:.0f} partitions spilled')"
	$(PYTHON) -m repro sweep mj-join --param sharing_policy \
		--values grouping-throttling,cooperative,pbm \
		--scale 0.1 --streams 2 --jobs 1 --no-cache --out join-serial.json
	$(PYTHON) -m repro sweep mj-join --param sharing_policy \
		--values grouping-throttling,cooperative,pbm \
		--scale 0.1 --streams 2 --jobs 3 --no-cache --out join-parallel.json
	$(PYTHON) tools/same_digest.py join join-serial.json join-parallel.json --points 3
	$(PYTHON) -c "import json; s=json.load(open('join-serial.json')); \
		chunks = [pt['metrics'].get('join_chunks', 0) for pt in s['experiments']]; \
		assert all(n > 1 for n in chunks), f'join smoke probed in one pass: {chunks}'; \
		print(f'join chunks per policy: {chunks}')"

cluster-smoke:   ## two cluster scenarios, serial digest == --jobs digest, every run drained, every replica within its bounds
	$(PYTHON) -m repro cluster-sim steady,skew --scale 0.1 --replicas 2 \
		--jobs 1 --no-cache --out cluster-serial.json
	$(PYTHON) -m repro cluster-sim steady,skew --scale 0.1 --replicas 2 \
		--jobs 2 --no-cache --out cluster-parallel.json
	$(PYTHON) tools/same_digest.py cluster cluster-serial.json cluster-parallel.json
	$(PYTHON) -c "import json; s=json.load(open('cluster-serial.json')); \
		assert all(pt['metrics']['drained'] for pt in s['experiments']), 'a cluster run failed to drain'"
	$(PYTHON) -c "import json; \
		from repro.service.metrics import bounded_problems; \
		s=json.load(open('cluster-serial.json')); \
		p=[q for pt in s['experiments'] for r, rep in sorted(pt['metrics']['replicas'].items()) \
		   for q in bounded_problems(pt['label'] + '/r' + r, rep['service'])]; \
		assert not p, p; print('every replica within its bounds')"

striped-smoke:   ## push pipeline over 1 and 2 devices, serial digest == --jobs digest
	$(PYTHON) -m repro sweep st-push --param device_count --values 1,2 \
		--scale 0.1 --streams 2 --jobs 1 --no-cache --out striped-serial.json
	$(PYTHON) -m repro sweep st-push --param device_count --values 1,2 \
		--scale 0.1 --streams 2 --jobs 2 --no-cache --out striped-parallel.json
	$(PYTHON) tools/same_digest.py striped striped-serial.json striped-parallel.json --points 2

runall-smoke:    ## run-all determinism: --jobs 2 == --jobs 1, then a cached re-run hits both entries
	$(PYTHON) -m repro run-all --only e1,e4 --scale 0.1 --streams 2 \
		--jobs 1 --no-cache --out runall-serial.json
	$(PYTHON) -m repro run-all --only e1,e4 --scale 0.1 --streams 2 \
		--jobs 2 --no-cache --out runall-parallel.json
	$(PYTHON) tools/same_digest.py run-all runall-serial.json runall-parallel.json
	$(PYTHON) -m repro run-all --only e1,e4 --scale 0.1 --streams 2
	$(PYTHON) -m repro run-all --only e1,e4 --scale 0.1 --streams 2 | grep "2 cache hits"

serve-quick:     ## service-layer smoke: steady scenario, bounds asserted
	$(PYTHON) -m repro serve-sim steady --scale 0.1 --no-cache --assert-bounded

serve-soak:      ## long mixed soak under pool-pressure chaos, bounds asserted
	$(PYTHON) -m repro serve-sim soak --scale 0.1 --no-cache --assert-bounded \
		--faults "pool-pressure:fraction=0.6,from=1.0,until=3.0"
