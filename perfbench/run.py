"""Benchmark of sepclass's three series routes.

    python3 perfbench/run.py [--workload grid25|deep|closed_high|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its ``src``.
Each pass runs in a fresh interpreter (``worker.py``), one at a time, so
the process-global q-binomial cache starts empty as it does for every
`sepclass` invocation.  Passes repeat until their measured time reaches
``--seconds`` (at least one pass).  The outputs of the first pass are
checked (``checks.py``); every later pass must write the same bytes.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``,
``wall_s``, ``job_p50_ms`` and ``peak_rss_mb``, each a median over the run's
samples.  With ``--trace 1`` a traced pass follows the untraced ones and
the result holds the per-layer metrics and the tracing overhead.  The last
stdout line is the JSON result; results and traces are also written under
``perfbench/out``.  Exit code 0 when every output check passed, 1 when one
failed or a pass died, 2 when the checkout has no ``src/sepclass``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

OUT_DIR = Path("perfbench", "out")
WORKER = Path("perfbench", "worker.py")
SETUP_SAMPLES = 8
RUN_BUDGET_S = 175


class BenchError(Exception):
    """A worker died, timed out or printed no summary."""


def worker(args, deadline):
    """Run worker.py; returns (summary, seconds from start to its set-up
    mark)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + [p for p in [env.get("PYTHONPATH")] if p])
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the run budget") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    summary = json.loads(proc.stdout.splitlines()[-1])
    return summary, summary["ready"] - start


def run_pass(run_dir, index, workload, trunc, specs, trace, deadline):
    dump_dir = run_dir / f"pass{index}"
    job_file = run_dir / f"pass{index}.json"
    job_file.write_text(json.dumps({
        "workload": workload, "trunc": trunc, "specs": specs,
        "trace": trace, "dump_dir": str(dump_dir)}))
    summary, setup = worker([str(job_file)], deadline)
    summary["setup_s"] = setup
    summary["dump_dir"] = dump_dir
    return summary


def pass_wall(summary):
    """A pass's wall time: the sum of its job times."""
    return sum(job["s"] for job in summary["jobs"])


def same_outputs(first, other):
    """Files of two dump directories that are missing or differ."""
    names = {p.name for p in first.iterdir()} | \
        {p.name for p in other.iterdir()}
    return sorted(n for n in names
                  if not (first / n).is_file() or not (other / n).is_file()
                  or (first / n).read_bytes() != (other / n).read_bytes())


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    trunc, specs = workloads.job_list(workload, seed)
    run_dir = OUT_DIR / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # one untimed start first, so that bytecode caches are written;
        # set-up samples are taken half before and half after the passes
        worker(["--setup-only"], deadline)
        setups = [worker(["--setup-only"], deadline)[1]
                  for _ in range(SETUP_SAMPLES // 2)]
        passes = []
        while not passes or sum(map(pass_wall, passes)) < seconds:
            passes.append(run_pass(run_dir, len(passes), workload, trunc,
                                   specs, False, deadline))
        setups += [worker(["--setup-only"], deadline)[1]
                   for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        traced = None
        if trace:
            traced = run_pass(run_dir, len(passes), workload, trunc, specs,
                              True, deadline)
        return summarize(workload, trunc, specs, setups, passes, traced,
                         run_dir)
    finally:
        shutil.rmtree(run_dir)


def summarize(workload, trunc, specs, setups, passes, traced, run_dir):
    _, grid_specs = workloads.grid()
    checker = checks.Checker(grid_specs)
    first = passes[0]
    outputs = []
    for i, (spec, job) in enumerate(zip(specs, first["jobs"])):
        routes = {}
        if job["error"] is None:
            for path in sorted(first["dump_dir"].glob(f"job{i}-*")):
                routes[path.stem.split("-")[1]] = checks.read_dump(path)
            checker.check_job(workload, spec, trunc, routes)
        outputs.append(routes)
    for other in passes[1:] + ([traced] if traced else []):
        for name in same_outputs(first["dump_dir"], other["dump_dir"]):
            checker.failures.append(f"repeat: {name} differs from pass 0")

    all_passes = passes + ([traced] if traced else [])
    attempted = sum(len(p["jobs"]) for p in all_passes)
    errors = [f"{j['spec']}: {j['error']}" for p in all_passes
              for j in p["jobs"] if j["error"]]
    walls = [pass_wall(p) for p in passes]
    if traced is None:
        metrics = {
            "setup_s": (statistics.median(
                setups + [p["setup_s"] for p in passes]), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "job_p50_ms": (statistics.median(
                statistics.median(j["s"] for j in p["jobs"]) * 1000
                for p in passes), "ms"),
            "peak_rss_mb": (statistics.median(
                p["peak_rss_kb"] / 1024 for p in passes), "MB"),
        }
    else:
        metrics = {name: tuple(metric)
                   for name, metric in traced["layers"].items()}
        for route in ("oracle", "basis", "closed"):
            metrics[f"route.{route}.terms"] = (
                sum(len(r.get(route, {})) for r in outputs), "count")
        metrics["trace.wall_s"] = (pass_wall(traced), "s")
        metrics["trace.overhead_s"] = (
            pass_wall(traced) - statistics.median(walls), "s")
        (OUT_DIR / f"trace-{run_dir.name}.json").write_text(
            json.dumps(traced["trace"], indent=1) + "\n")
    result = {
        "correct": not checker.failures,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {"workload": workload, "trunc": trunc,
               "jobs": [checks.spec_label(s) for s in specs],
               "passes": [{"setup_s": p["setup_s"], "jobs": p["jobs"],
                           "peak_rss_kb": p["peak_rss_kb"]}
                          for p in all_passes],
               "setup_only_s": setups, "checks": checker.counts,
               "check_failures": checker.failures, "errors": errors,
               "result": result}
    (OUT_DIR / f"result-{run_dir.name}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    return result, details


def report(workload, result, details):
    """Human-readable lines for one workload."""
    print(f"== {workload}: {len(details['jobs'])} jobs at "
          f"N={details['trunc']}, {len(details['passes'])} pass(es)")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6f} {metric['unit']}")
    counts = ", ".join(f"{k} {v}" for k, v in details["checks"].items())
    print(f"  checks: {counts}; failures {len(details['check_failures'])}")
    print(f"  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for line in details["check_failures"][:20] + details["errors"][:20]:
        print(f"  FAIL {line}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src", "sepclass", "__init__.py").is_file() or \
            not workloads.GRID_FILE.is_file():
        print("error: run from the root of a sepclass checkout "
              "(no src/sepclass here)", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, details = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace))
            report(name, result, details)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
