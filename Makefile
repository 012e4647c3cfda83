# Entry points for the common developer loops.  Everything runs against
# the source tree directly (PYTHONPATH=src), no install required.

PYTHON ?= python
export PYTHONPATH := src

# Line budget for src/ (*.py + *.c), enforced by `make loc`.  Raise it in
# the PR that needs the room, and say why.
SRC_LOC_BUDGET := 18741
LOC = find $(1) -type f \( -name '*.py' -o -name '*.c' \) -exec cat {} + | wc -l

.PHONY: test test-fast bench-smoke loc dead-code policy-smoke agg-smoke cluster-smoke serve-quick serve-soak

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

policy-smoke:    ## three sharing policies on the quick staggered scenario, digest-checked
	$(PYTHON) -m repro sweep e2 --param sharing_policy \
		--values grouping-throttling,cooperative,pbm \
		--scale 0.1 --streams 2 --jobs 1 --no-cache --out policy-serial.json
	$(PYTHON) -m repro sweep e2 --param sharing_policy \
		--values grouping-throttling,cooperative,pbm \
		--scale 0.1 --streams 2 --jobs 3 --no-cache --out policy-parallel.json
	$(PYTHON) -c "import json; s=json.load(open('policy-serial.json')); \
		p=json.load(open('policy-parallel.json')); \
		assert s['suite_digest'] == p['suite_digest'], 'policy sweep diverged under --jobs'; \
		assert len(s['experiments']) == 3, 'policy sweep lost a grid point'; \
		print('policy smoke OK:', s['suite_digest'][:12])"

agg-smoke:       ## budgeted-aggregation mix across three policies, digest-checked
	$(PYTHON) -m repro sweep ag-mix --param sharing_policy \
		--values grouping-throttling,cooperative,pbm \
		--scale 0.1 --streams 2 --jobs 1 --no-cache --out agg-serial.json
	$(PYTHON) -m repro sweep ag-mix --param sharing_policy \
		--values grouping-throttling,cooperative,pbm \
		--scale 0.1 --streams 2 --jobs 3 --no-cache --out agg-parallel.json
	$(PYTHON) -c "import json; s=json.load(open('agg-serial.json')); \
		p=json.load(open('agg-parallel.json')); \
		assert s['suite_digest'] == p['suite_digest'], 'agg sweep diverged under --jobs'; \
		spilled = sum(pt['metrics'].get('spilled_partitions', 0) for pt in s['experiments']); \
		assert spilled > 0, 'agg smoke never spilled'; \
		print('agg smoke OK:', s['suite_digest'][:12], f'({spilled:.0f} partitions spilled)')"

cluster-smoke:   ## two cluster scenarios, serial digest == --jobs digest
	$(PYTHON) -m repro cluster-sim steady,skew --quick --replicas 2 \
		--jobs 1 --no-cache --out cluster-serial.json
	$(PYTHON) -m repro cluster-sim steady,skew --quick --replicas 2 \
		--jobs 2 --no-cache --out cluster-parallel.json
	$(PYTHON) -c "import json; s=json.load(open('cluster-serial.json')); \
		p=json.load(open('cluster-parallel.json')); \
		assert s['suite_digest'] == p['suite_digest'], 'cluster sims diverged under --jobs'; \
		assert all(pt['metrics']['drained'] for pt in s['experiments']), 'a cluster run failed to drain'; \
		print('cluster smoke OK:', s['suite_digest'][:12])"

serve-quick:     ## service-layer smoke: steady scenario, bounds asserted
	$(PYTHON) -m repro serve-sim steady --quick --no-cache --assert-bounded

serve-soak:      ## long mixed soak under pool-pressure chaos, bounds asserted
	$(PYTHON) -m repro serve-sim soak --quick --no-cache --assert-bounded \
		--faults "pool-pressure:fraction=0.6,from=1.0,until=3.0"
