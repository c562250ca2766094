.PHONY: all build test bench bench-smoke bench-full examples doc clean faultcheck chaoscheck ab

all: build

build:
	dune build @all

test:
	dune runtest --force

bench:
	dune exec bench/main.exe

# Tiny-budget pass over every experiment: exercises each code path and
# the BENCH_*.json emission in well under a minute.
bench-smoke:
	BENCH_RUNS=1 BENCH_ITERS=300 BENCH_FIG2_ITERS=1500 \
	BENCH_COMPARE_ITERS=2000 BENCH_GA_GENERATIONS=5 BENCH_GA_POPULATION=30 \
	BENCH_RANDOM_SAMPLES=500 BENCH_HILL_MOVES=1000 BENCH_TABU_ITERS=200 \
	BENCH_RESTARTS_ITERS=1500 BENCH_MICRO_MOVES=2000 dune exec bench/main.exe

# A/B the DSE benchmark: PAIRS alternating runs of the parent commit
# (HEAD^) and of this checkout on one workload, each for BENCHMARK.json's
# run_seconds, then each end-to-end metric's median, quartiles and pair
# wins, and each side's failed operations.
WORKLOAD ?= g512_sa
PAIRS ?= 10
SEED ?= 1
ab:
	python3 bench/ab.py --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

# Paper-scale Fig. 3 protocol (100 runs per device size)
bench-full:
	BENCH_RUNS=100 dune exec bench/main.exe -- fig3

examples:
	dune exec examples/quickstart.exe
	dune exec examples/motion_detection.exe
	dune exec examples/custom_architecture.exe
	dune exec examples/sdf_pipeline.exe
	dune exec examples/heterogeneous_soc.exe
	dune exec examples/video_phone.exe

# Deterministic fault drills: the in-process fault suite, then — for
# several seeds — crash a checkpointed CLI run at an injected
# evaluation fault and prove the checkpoint resumes to completion,
# and crash the job daemon mid-queue at an injected job fault and
# prove recovery leaves every job in exactly one outcome directory.
# A clean and a resumed run's result files may differ only in wall
# time and evaluation statistics; the drills diff them with both cut.
STRIP_RESULT = sed -e 's/, "eval_stats": .*/}/' -e 's/"wall_seconds": [^,]*, //'

faultcheck: build
	dune exec -- test/test_main.exe test fault
	@set -e; for seed in 1 2 3; do \
	  ck=$$(mktemp -u); \
	  echo "faultcheck: seed $$seed (REPRO_FAULTS=eval:2500)"; \
	  if REPRO_FAULTS=eval:2500 dune exec -- bin/dse_run.exe \
	       --seed $$seed --iters 5000 --warmup 200 \
	       --checkpoint $$ck --checkpoint-every 400 >/dev/null 2>&1; then \
	    echo "faultcheck: injected fault did not fire"; exit 1; \
	  fi; \
	  dune exec -- bin/dse_run.exe --seed $$seed --iters 5000 --warmup 200 \
	    --resume $$ck >/dev/null; \
	  rm -f $$ck; \
	done; echo "faultcheck resume drill OK"
	@set -e; for spec in sa:5000:2500 greedy:40:10 random:200:100 \
	    hill:200:100 tabu:20:100 ga:4:700 ga-spatial:4:700; do \
	  engine=$${spec%%:*}; rest=$${spec#*:}; \
	  iters=$${rest%%:*}; fault=$${rest#*:}; \
	  ck=$$(mktemp -u); clean=$$(mktemp); resumed=$$(mktemp); \
	  echo "faultcheck: engine $$engine kill/resume" \
	       "(iters $$iters, REPRO_FAULTS=eval:$$fault)"; \
	  dune exec -- bin/dse_run.exe --engine $$engine --seed 7 \
	    --iters $$iters --warmup 200 --result $$clean >/dev/null; \
	  if REPRO_FAULTS=eval:$$fault dune exec -- bin/dse_run.exe \
	       --engine $$engine --seed 7 --iters $$iters --warmup 200 \
	       --checkpoint $$ck --checkpoint-every 1 >/dev/null 2>&1; then \
	    echo "faultcheck: $$engine: injected fault did not fire"; exit 1; \
	  fi; \
	  dune exec -- bin/dse_run.exe --engine $$engine --seed 7 \
	    --iters $$iters --warmup 200 --resume $$ck --result $$resumed \
	    >/dev/null; \
	  $(STRIP_RESULT) $$clean > $$clean.cmp; \
	  $(STRIP_RESULT) $$resumed > $$resumed.cmp; \
	  if ! diff $$clean.cmp $$resumed.cmp >/dev/null; then \
	    echo "faultcheck: $$engine: resumed result differs from clean run"; \
	    $(STRIP_RESULT) $$clean; \
	    $(STRIP_RESULT) $$resumed; \
	    exit 1; \
	  fi; \
	  rm -f $$ck $$clean $$clean.cmp $$resumed $$resumed.cmp; \
	done; echo "faultcheck all-engine kill/resume drill OK"
	@set -e; \
	  ck=$$(mktemp -u); clean=$$(mktemp); resumed=$$(mktemp); \
	  echo "faultcheck: racing portfolio kill/resume (--time-budget 1)"; \
	  dune exec -- bin/dse_run.exe --engine portfolio:race:sa+hill --seed 7 \
	    --iters 200000 --result $$clean >/dev/null; \
	  if dune exec -- bin/dse_run.exe --engine portfolio:race:sa+hill \
	       --seed 7 --iters 200000 --time-budget 1 \
	       --checkpoint $$ck --checkpoint-every 1 >/dev/null 2>&1; then \
	    echo "faultcheck: portfolio: time budget did not interrupt the race"; \
	    exit 1; \
	  fi; \
	  if [ ! -e $$ck ]; then \
	    echo "faultcheck: portfolio: interrupt flushed no checkpoint"; exit 1; fi; \
	  dune exec -- bin/dse_run.exe --engine portfolio:race:sa+hill --seed 7 \
	    --iters 200000 --resume $$ck --result $$resumed >/dev/null; \
	  $(STRIP_RESULT) $$clean > $$clean.cmp; \
	  $(STRIP_RESULT) $$resumed > $$resumed.cmp; \
	  if ! diff $$clean.cmp $$resumed.cmp >/dev/null; then \
	    echo "faultcheck: portfolio: resumed race differs from clean run"; \
	    cat $$clean.cmp $$resumed.cmp; exit 1; \
	  fi; \
	  rm -f $$ck $$ck.m0 $$ck.m1 $$clean $$clean.cmp $$resumed $$resumed.cmp; \
	  echo "faultcheck racing-portfolio kill/resume drill OK"
	@set -e; for seed in 1 2 3; do \
	  spool=$$(mktemp -d); \
	  echo "faultcheck: serve drill seed $$seed (REPRO_FAULTS=job:1)"; \
	  mkdir -p $$spool/jobs; \
	  for j in 1 2 3; do \
	    printf '{"app": "motion_detection", "iters": 200, "warmup": 50, "seed": %d}\n' \
	      $$((seed * 10 + j)) > $$spool/jobs/job$$j.json; \
	  done; \
	  if REPRO_FAULTS=job:1 dune exec -- bin/dse_serve.exe watch $$spool --once \
	       >/dev/null 2>&1; then \
	    echo "faultcheck: injected job fault did not fire"; exit 1; \
	  fi; \
	  dune exec -- bin/dse_serve.exe watch $$spool --once >/dev/null 2>&1; \
	  for j in 1 2 3; do \
	    r=$$spool/results/job$$j.json; f=$$spool/failed/job$$j.json; \
	    if [ -e $$r ] && [ -e $$f ]; then \
	      echo "faultcheck: job$$j ran twice"; exit 1; fi; \
	    if [ ! -e $$r ] && [ ! -e $$f ]; then \
	      echo "faultcheck: job$$j lost"; exit 1; fi; \
	  done; \
	  if [ -n "$$(find $$spool/jobs $$spool/work -type f)" ]; then \
	    echo "faultcheck: spool not drained"; exit 1; fi; \
	  rm -rf $$spool; \
	done; echo "faultcheck serve drill OK"
	@set -e; \
	  spool=$$(mktemp -d); clean=$$(mktemp -d); \
	  job='{"app": "motion_detection", "engine": "sa", "iters": 5000, "seed": 9}'; \
	  echo "faultcheck: lease-reclaim drill (REPRO_FAULTS=eval:700)"; \
	  mkdir -p $$spool/jobs $$clean/jobs; \
	  echo "$$job" > $$spool/jobs/drill.json; \
	  echo "$$job" > $$clean/jobs/drill.json; \
	  dune exec -- bin/dse_serve.exe watch $$clean --once --checkpoint-every 50 \
	    >/dev/null 2>&1; \
	  if REPRO_FAULTS=eval:700 dune exec -- bin/dse_serve.exe watch $$spool --once \
	       --lease-ttl 2 --checkpoint-every 50 >/dev/null 2>&1; then \
	    echo "faultcheck: injected eval fault did not kill the daemon"; exit 1; \
	  fi; \
	  if [ ! -e $$spool/work/drill.json ] || [ ! -e $$spool/work/drill.claim ]; then \
	    echo "faultcheck: crash left no stamped claim behind"; exit 1; fi; \
	  if [ ! -e $$spool/work/drill.ckpt ]; then \
	    echo "faultcheck: crash left no checkpoint behind"; exit 1; fi; \
	  dune exec -- bin/dse_serve.exe watch $$spool --once --checkpoint-every 50 \
	    >/dev/null 2>&1; \
	  if [ ! -e $$spool/results/drill.json ]; then \
	    echo "faultcheck: reclaimed job never completed"; exit 1; fi; \
	  crc() { sed -n 's/.*"solution": "\([0-9a-f]*\)".*/\1/p' $$1; }; \
	  a=$$(crc $$spool/results/drill.json); b=$$(crc $$clean/results/drill.json); \
	  if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
	    echo "faultcheck: reclaimed result differs from clean run ($$a vs $$b)"; \
	    exit 1; \
	  fi; \
	  rm -rf $$spool $$clean; \
	  echo "faultcheck lease-reclaim drill OK"; \
	echo "faultcheck OK"

# Seeded chaos drill over the fleet protocol: daemons killed mid-job,
# corrupted checkpoint/result writes, a clock-skewed remote claim, an
# fsck pass crashed mid-repair, then a multi-daemon drain — asserting
# no job lost or duplicated, bit-identical resumed solutions and fsck
# converging in one pass.  Equal seeds replay identical drills.
chaoscheck: build
	@set -e; for seed in 1 2 3; do \
	  echo "chaoscheck: seed $$seed"; \
	  dune exec -- test/chaos/chaos_main.exe $$seed; \
	done; echo "chaoscheck OK"

clean:
	dune clean
