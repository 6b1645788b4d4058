# Convenience targets for the repro library.

.PHONY: test chaos chaos-grid grid-resume chaos-ps chaos-ps-server steps-resume serve-smoke shapes bench-pairs experiments grid steps examples all

# Worker processes for the parallel experiment grid (make grid JOBS=8).
JOBS ?= 4

test:            ## tier-1 suite, exactly as CI runs it
	PYTHONPATH=src python -m pytest -x -q -W error::RuntimeWarning

chaos:           ## fault-injection + recovery suite: the supervised loop's properties, then shm + ps drills (CI runs exactly this)
	PYTHONPATH=src python -m pytest -q -W error::RuntimeWarning \
		tests/faults tests/parallel/test_chaos.py \
		tests/distributed/test_ps.py tests/distributed/test_failover.py

chaos-grid:      ## degraded-mode grid run under injected cell faults
	rm -rf /tmp/chaos_grid && REPRO_CACHE_DIR=/tmp/chaos_grid/cache \
	PYTHONPATH=src python -m repro experiments \
		--artifacts table3 --tasks lr --datasets covtype w8a \
		--scale tiny --tolerance 0.05 --jobs 2 --keep-going \
		--inject-grid-fault cell-kill@1 \
		--inject-grid-fault cell-stall@2:600 \
		--inject-grid-fault cell-nan@4 \
		--cell-attempts 2 --cell-deadline 20 --retry-budget 4 \
		--store /tmp/chaos_grid/store \
		--manifest-out /tmp/chaos_grid/manifest.json
	PYTHONPATH=src python -c "import json; \
		m = json.load(open('/tmp/chaos_grid/manifest.json')); \
		kinds = sorted(f['failure']['kind'] for f in m['failures']); \
		assert kinds == ['crash', 'divergence', 'stall'], kinds; \
		assert m['settings']['keep_going'] is True, m['settings']; \
		healthy = [c for c in m['cells'] if c.get('source') != 'quarantined']; \
		assert healthy, 'chaos grid quarantined every cell'; \
		assert m['counters'].get('grid.pool.created', 0) >= 1, m['counters']; \
		print('chaos-grid: quarantined kinds', kinds, '|', len(healthy), 'healthy cells on the warm pool')"
	@# The drill kills and replaces workers; none of it may leak a segment.
	@ls /dev/shm/psm_* >/dev/null 2>&1 && \
		{ echo 'chaos-grid: leaked shared-memory segments'; ls /dev/shm/psm_*; exit 1; } || true

GRID_RESUME_ARGS = --artifacts table2 table3 --tasks lr svm --datasets covtype w8a \
	--scale tiny --tolerance 0.05 --jobs 2 --store /tmp/grid_resume/store

grid-resume:     ## --jobs 2 grid into a store, then resume it: same tables, nothing re-executed
	rm -rf /tmp/grid_resume && mkdir -p /tmp/grid_resume
	REPRO_CACHE_DIR=/tmp/grid_resume/cache PYTHONPATH=src python -m repro experiments \
		$(GRID_RESUME_ARGS) > /tmp/grid_resume/first.txt
	REPRO_CACHE_DIR=/tmp/grid_resume/cache PYTHONPATH=src python -m repro experiments \
		$(GRID_RESUME_ARGS) --resume \
		--manifest-out /tmp/grid_resume/manifest.json > /tmp/grid_resume/resumed.txt
	diff /tmp/grid_resume/first.txt /tmp/grid_resume/resumed.txt
	@# An empty diff alone would also pass if the store were silently
	@# re-keyed (every cell recomputed): the resumed run must execute none.
	PYTHONPATH=src python -c "import json; \
		c = json.load(open('/tmp/grid_resume/manifest.json'))['counters']; \
		assert c.get('grid.cells_executed', 0) == 0, c; \
		assert c.get('grid.cells_resumed', 0) > 0, c; \
		print('grid-resume: identical tables |', int(c['grid.cells_resumed']), \
			'cells resumed,', int(c.get('grid.cells_recosted', 0)), 'recosted, 0 executed')"
	@ls /dev/shm/psm_* >/dev/null 2>&1 && \
		{ echo 'grid-resume: leaked shared-memory segments'; ls /dev/shm/psm_*; exit 1; } || true

STEPS_ARGS = gridsearch --scale tiny --tasks lr --datasets covtype w8a
STEPS_RUN = REPRO_CACHE_DIR=/tmp/steps/cache PYTHONPATH=src python -m repro $(STEPS_ARGS)

steps-resume:    ## tuned-table rows serially, over --jobs 2 into a store, then resumed: same rows, nothing re-executed
	rm -rf /tmp/steps && mkdir -p /tmp/steps
	$(STEPS_RUN) --table /tmp/steps/serial.json > /tmp/steps/serial.txt
	$(STEPS_RUN) --table /tmp/steps/jobs2.json --jobs 2 --store /tmp/steps/store \
		> /tmp/steps/jobs2.txt
	$(STEPS_RUN) --table /tmp/steps/resumed.json --jobs 2 --store /tmp/steps/store \
		--resume --manifest-out /tmp/steps/manifest.json > /tmp/steps/resumed.txt
	cmp /tmp/steps/serial.json /tmp/steps/jobs2.json
	cmp /tmp/steps/serial.json /tmp/steps/resumed.json
	diff /tmp/steps/serial.txt /tmp/steps/jobs2.txt
	diff /tmp/steps/serial.txt /tmp/steps/resumed.txt
	PYTHONPATH=src python -c "import json; \
		c = json.load(open('/tmp/steps/manifest.json'))['counters']; \
		assert 'grid.cells_executed' not in c, c; \
		assert c.get('grid.cells_resumed', 0) > 0, c; \
		print('steps-resume: identical rows |', int(c['grid.cells_resumed']), \
			'points resumed, 0 executed')"
	@ls /dev/shm/psm_* >/dev/null 2>&1 && \
		{ echo 'steps-resume: leaked shared-memory segments'; ls /dev/shm/psm_*; exit 1; } || true

chaos-ps:        ## node-kill/node-stall drill against the parameter-server backend
	rm -rf /tmp/chaos_ps && mkdir -p /tmp/chaos_ps
	REPRO_CACHE_DIR=/tmp/chaos_ps/cache PYTHONPATH=src python -m repro train \
		--task lr --dataset w8a --scale tiny --epochs 4 \
		--backend ps --nodes 3 --max-staleness 16 --epoch-timeout 5 \
		--inject-fault node-kill@2 --inject-fault node-stall@3 \
		--max-restarts 3 \
		--manifest-out /tmp/chaos_ps/manifest.json
	PYTHONPATH=src python -c "import json; \
		m = json.load(open('/tmp/chaos_ps/manifest.json')); \
		c = m['counters']; \
		assert c.get('fault.injected', 0) >= 2, c; \
		assert c.get('fault.worker_restarts', 0) >= 1, c; \
		assert c.get('ps.reconnects', 0) >= 1, c; \
		assert c.get('ps.dead_workers_reaped', 0) >= 1, c; \
		assert c.get('ps.pushes', 0) > 0 and c.get('ps.pulls', 0) > 0, c; \
		assert c.get('ps.pull_rounds', 0) > 0, c; \
		assert c.get('ps.shard_cache_hits', 0) > 0, c; \
		assert c['ps.pull_rounds'] <= 1.1 * c['sgd.updates_applied'], c; \
		rec = m['results']['measured']['recovery']; \
		assert len(rec) >= 2, rec; \
		print('chaos-ps: recovered', [r['action'] for r in rec], \
			'| rounds/update %.3f, cache hits %d' \
			% (c['ps.pull_rounds'] / c['sgd.updates_applied'], \
			   c['ps.shard_cache_hits']))"
	@# A leaked server socket needs a live owner, so orphaned drill
	@# processes (forked workers keep the parent cmdline) cover both.
	@pgrep -f 'repro train.*backend p[s]' >/dev/null 2>&1 && \
		{ echo 'chaos-ps: leaked worker processes'; pgrep -af 'repro train.*backend p[s]'; exit 1; } || true

chaos-ps-server: ## SIGKILL, then wedge, the shard server mid-epoch; checkpoint-restore failover drill
	rm -rf /tmp/chaos_ps_server && mkdir -p /tmp/chaos_ps_server
	REPRO_CACHE_DIR=/tmp/chaos_ps_server/cache PYTHONPATH=src python -m repro train \
		--task lr --dataset w8a --scale tiny --epochs 4 \
		--backend ps --nodes 2 --max-staleness 16 --epoch-timeout 30 \
		--ps-checkpoint-dir /tmp/chaos_ps_server/ckpt --ps-checkpoint-every 50 \
		--inject-fault server-kill@2 --inject-fault server-stall@3:12 \
		--max-restarts 3 \
		--manifest-out /tmp/chaos_ps_server/manifest.json
	PYTHONPATH=src python -c "import json, os; \
		m = json.load(open('/tmp/chaos_ps_server/manifest.json')); \
		c = m['counters']; \
		assert c.get('fault.injected', 0) >= 2, c; \
		assert c.get('ps.server_failovers', 0) >= 2, c; \
		assert c.get('ps.checkpoints_restored', 0) >= 1, c; \
		assert c.get('ps.checkpoints_written', 0) >= 1, c; \
		assert c.get('ps.reconnects_midrun', 0) >= 1, c; \
		assert c.get('fault.worker_restarts', 0) == 0, c; \
		rec = m['results']['measured']['recovery']; \
		fo = [r for r in rec if r['action'] == 'server_failover']; \
		assert [r['epoch'] for r in fo] == [2, 3], rec; \
		assert 'timed out' in fo[1]['cause']['message'], fo; \
		names = os.listdir('/tmp/chaos_ps_server/ckpt'); \
		assert any(n.endswith('.ckpt') for n in names), names; \
		assert not [n for n in names if not n.endswith('.ckpt')], names; \
		print('chaos-ps-server: kill healed in %.3fs, stall in %.3fs |' \
			% (fo[0]['time_to_repair_seconds'], fo[1].get('time_to_repair_seconds', float('nan'))), \
			'restored %d, reconnects %d, checkpoints %d' \
			% (c['ps.checkpoints_restored'], c['ps.reconnects_midrun'], \
			   c['ps.checkpoints_written']))"
	@# Both the respawned server generation and the healed workers must
	@# be gone: a leaked process here is a failover that never tore down.
	@pgrep -f 'repro train.*backend p[s]' >/dev/null 2>&1 && \
		{ echo 'chaos-ps-server: leaked drill processes'; pgrep -af 'repro train.*backend p[s]'; exit 1; } || true

serve-smoke:     ## train -> serve -> score through hot-swaps -> manifest check, no shm leak
	REPRO_CACHE_DIR=.repro_cache python scripts/serve_smoke.py
	@ls /dev/shm/psm_* >/dev/null 2>&1 && \
		{ echo 'serve-smoke: leaked shared-memory segments'; ls /dev/shm/psm_*; exit 1; } || true

shapes:          ## regenerate + assert all tables/figures (CI runs exactly this)
	PYTHONPATH=src python -m pytest benchmarks/ -q -s

# make bench-pairs WORKLOAD=train-shm PARENT=HEAD~1 PAIRS=10 SEEDS=1,2
# (compares committed trees: PARENT against HEAD, both exported)
PAIRS ?= 10
SEEDS ?= 1
bench-pairs:     ## alternating parent/change `bench run` pairs + the 9-of-10 / inter-quartile verdict
	python3 scripts/bench_pairs.py --workload $(WORKLOAD) --parent $(PARENT) \
		--pairs $(PAIRS) --seeds $(SEEDS)

experiments:     ## rebuild EXPERIMENTS.md from a fresh run
	REPRO_CACHE_DIR=.repro_cache python scripts/run_experiments.py

grid:            ## all paper artifacts over the parallel, resumable grid
	REPRO_CACHE_DIR=.repro_cache PYTHONPATH=src python -m repro experiments \
		--jobs $(JOBS) --resume --store .repro_cache/grid

examples:
	for f in examples/*.py; do echo "== $$f"; REPRO_CACHE_DIR=.repro_cache python $$f || exit 1; done

steps:           ## re-run the step-size protocol for every tuned-table row; writes the packaged table
	REPRO_CACHE_DIR=.repro_cache PYTHONPATH=src python -m repro gridsearch \
		--table src/repro/experiments/tuned_steps.json --jobs $(JOBS) --resume

all: test shapes experiments
