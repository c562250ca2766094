#!/usr/bin/env python3
"""A/B the DSE benchmark: the parent commit against the current checkout.

    python3 bench/ab.py --workload g512_sa --pairs 10 --seed 1

(or `make ab WORKLOAD=g512_sa PAIRS=10 SEED=1`).  Run it from the root
of a checkout whose HEAD commits the change under test.  The base is
always HEAD^, the parent of that change: it is exported with
`git archive` into a temporary directory and built there, so nothing in
the checkout is touched.  The change side is the checkout as it stands.
Both `dsebench/main.exe` binaries then run `--trace 0` for
BENCHMARK.json's run_seconds, alternately, the side that goes first
alternating from pair to pair, with results written to a temporary
`--out` directory.

For every end-to-end metric that BENCHMARK.json declares, it prints
each side's median and quartiles, the ratio of the medians, how many
pairs the change won (ties count for neither side) and a verdict:

  gain        the change won at least 9 of every 10 pairs, the medians
              differ by more than the base's interquartile range, and
              the change failed neither more operations nor a larger
              share of them than the base
  ok          the change's median is within the metric's bound
  unresolved  the base's spread is wider than the bound
  worse       the change's median is worse than the bound allows

It also prints each side's failed and attempted operation counts,
summed over the runs.

Exit status: 0 when no metric is `worse`, every run passed its checks
and the change failed neither more operations nor a larger share of
them than the base; 1 otherwise; 2 on a usage or build error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(*args):
    return subprocess.run(["git"] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


BASE = "HEAD^"


def build(root, dest):
    """Build dsebench/main.exe under [root] and copy it to [dest]."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    subprocess.run(["dune", "build", "--root", root, "./dsebench/main.exe"],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    shutil.copy(os.path.join(root, "_build", "default", "dsebench", "main.exe"),
                dest)


def run(exe, cwd, args, out):
    proc = subprocess.run([exe] + args + ["--out", out], cwd=cwd,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"ab: {exe} failed (status {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return (result["correct"], result["attempted"], result["failed"], metrics)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, change, better, bound, more_failures):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - bmed)
    if wins >= 0.9 * len(base) and gain > bq3 - bq1 and not more_failures:
        return wins, "gain"
    scale = abs(bmed) if bmed != 0 else 1.0
    if -gain <= bound * scale:
        return wins, "ok"
    if bq3 - bq1 > bound * scale and not (
            min(sign * c for c in change) > max(sign * b for b in base)):
        return wins, "unresolved"
    return wins, "worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        print("ab: run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    try:
        base_sha = git("rev-parse", "--verify", BASE + "^{commit}")
    except subprocess.CalledProcessError:
        print("ab: HEAD has no parent commit", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix="dse-ab-")
    try:
        tree = os.path.join(tmp, "base")
        os.mkdir(tree)
        archive = subprocess.Popen(["git", "archive", base_sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            print("ab: git archive failed", file=sys.stderr)
            return 2
        sides = {"base": os.path.join(tmp, "base.exe"),
                 "change": os.path.join(tmp, "change.exe")}
        try:
            build(tree, sides["base"])
            build(root, sides["change"])
        except subprocess.CalledProcessError:
            print("ab: build failed", file=sys.stderr)
            return 2
        cwd = {"base": tree, "change": root}
        bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(seconds), "--trace", "0"]
        print(f"ab: {args.workload} seed {args.seed}, {args.pairs} pairs of "
              f"{seconds:g} s; base {BASE} ({base_sha[:12]}) vs checkout",
              flush=True)
        samples = {"base": [], "change": []}
        attempted = {"base": 0, "change": 0}
        failures = {"base": 0, "change": 0}
        all_correct = True
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                out = os.path.join(tmp, f"out-{side}-{i}")
                correct, att, fail, metrics = run(sides[side], cwd[side],
                                                  bench_args, out)
                all_correct = all_correct and correct
                attempted[side] += att
                failures[side] += fail
                samples[side].append(metrics)
            line = "  ".join(
                f"{m['name']} {samples['base'][-1].get(m['name'], float('nan')):.4g}"
                f"->{samples['change'][-1].get(m['name'], float('nan')):.4g}"
                for m in bench["end_to_end"][:2])
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {line}",
                  flush=True)
        print()
        for side in ("base", "change"):
            print(f"{side}: {failures[side]} of {attempted[side]} "
                  f"operations failed")
        def share(side):
            return failures[side] / max(1, attempted[side])
        more_failures = (failures["change"] > failures["base"]
                         or share("change") > share("base"))
        print()
        print(f"{'metric':<14}{'base median [q1, q3]':<36}"
              f"{'change median [q1, q3]':<36}{'ratio':>7}{'wins':>7}  verdict")
        failed = not all_correct or more_failures
        for m in bench["end_to_end"]:
            name = m["name"]
            base = [s[name] for s in samples["base"] if name in s]
            change = [s[name] for s in samples["change"] if name in s]
            if len(base) != args.pairs or len(change) != args.pairs:
                continue
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            wins, v = verdict(base, change, m["better"], m["bound"],
                              more_failures)
            failed = failed or v == "worse"
            ratio = cmed / bmed if bmed else float("nan")
            print(f"{name:<14}"
                  + f"{bmed:.5g} [{bq1:.5g}, {bq3:.5g}]".ljust(36)
                  + f"{cmed:.5g} [{cq1:.5g}, {cq3:.5g}]".ljust(36)
                  + f"{ratio:>7.3f}{wins:>4}/{args.pairs:<2}  {v}")
        if not all_correct:
            print("ab: some run failed its checks")
        if more_failures:
            print("ab: the change failed more operations than the base")
        return 1 if failed else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
