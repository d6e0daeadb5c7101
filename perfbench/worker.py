"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py JOB_FILE

Started by run.py from the checkout root with ``PYTHONPATH=src``.  The
set-up a user pays (interpreter start, ``import sepclass``, the
``sepclass.cli`` entry point, ``load_grid``) comes first and ends with a
``time.monotonic()`` mark, which run.py subtracts from its own mark taken
just before the process was started.  Each job is then timed on its own;
its outputs are written to the dump directory between jobs, outside the
timed intervals.  The peak resident set size is read after the last job.
The last stdout line is a JSON summary.
"""

import sys
import time


def setup():
    import sepclass
    import sepclass.cli
    _, grid_specs = sepclass.load_grid()
    return sepclass, grid_specs, time.monotonic()


def run_job(sepclass, workload, spec, trunc):
    """The calls one job makes; returns {route: Series or JSON bytes}."""
    if workload == "grid25":
        # the same calls `sepclass verify` makes for one spec
        started = time.perf_counter()
        routes = {"oracle": sepclass.refined_gf(spec, trunc),
                  "basis": sepclass.basis_driven_gf(spec, trunc),
                  "closed": sepclass.closed_form_gf(spec, trunc)}
        sepclass.compare_routes(routes, spec, trunc, started)
        return routes
    if workload == "deep":
        return {"basis": sepclass.basis_driven_gf(spec, trunc),
                "closed": sepclass.closed_form_gf(spec, trunc)}
    if workload == "closed_high":
        argv = ["series", "--class", spec.kind]
        for name, value in spec.to_json_dict().items():
            if name != "class":
                argv += [f"--{name}", str(value)]
        argv += ["--trunc", str(trunc), "--route", "closed",
                 "--format", "json"]
        code, out, err = sepclass.cli.run(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.decode().strip()}")
        return {"closed": out}
    raise ValueError(f"unknown workload {workload!r}")


def dump(path, output):
    """Write one route's output: JSON bytes as they are, a Series as
    'q marks... coeff' lines in sorted order."""
    if isinstance(output, bytes):
        path.with_suffix(".json").write_bytes(output)
        return
    with open(path.with_suffix(".txt"), "w") as fh:
        for (q, marks), coeff in output.sorted_terms():
            fh.write(" ".join(map(str, (q, *marks, coeff))) + "\n")


def main(argv):
    sepclass, grid_specs, ready = setup()
    import json
    import os
    import resource
    from pathlib import Path

    src = os.path.realpath(os.path.join("src", "sepclass"))
    if os.path.dirname(os.path.realpath(sepclass.__file__)) != src:
        print(f"imported {sepclass.__file__}, not the checkout's {src}",
              file=sys.stderr)
        return 2
    if argv == ["--setup-only"]:
        print(json.dumps({"ready": ready}))
        return 0

    job = json.loads(Path(argv[0]).read_text())
    workload, trunc = job["workload"], job["trunc"]
    specs = [sepclass.ClassSpec.from_json_dict(d) for d in job["specs"]]
    if workload == "grid25" and \
            sorted(map(str, specs)) != sorted(map(str, grid_specs)):
        print("job list differs from load_grid()", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    dump_dir = Path(job["dump_dir"])
    dump_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    clock = time.perf_counter
    for i, spec in enumerate(specs):
        start = clock()
        try:
            outputs = run_job(sepclass, workload, spec, trunc)
            error = None
        except Exception as exc:    # one failed job must not end the pass
            outputs, error = {}, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        for route, output in outputs.items():
            dump(dump_dir / f"job{i}-{route}", output)
        del outputs
        jobs.append({"spec": str(spec), "s": elapsed, "error": error})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    summary = {"ready": ready, "jobs": jobs, "peak_rss_kb": peak_kb}
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        summary["trace"] = tracer.dump()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
