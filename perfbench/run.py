"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``).

Each step runs in a process of its own, with a time limit:

1. once per checkout and ``inputs.code_key()`` (a hash of the package
   sources, the benchmark's files and the golden fixtures), the
   fixture-scale cross-check (``fixture_check.py``); its verdict is
   cached under that key and counts in every later run's ``correct``;
2. input synthesis for (workload size, seed) (``inputs.py``), cached
   and outside every timed region and outside ``setup_s``;
3. the run itself (``session.py``). A crash or timeout there counts
   as a failed execution; the executions finished before it still
   give the metrics.

Everything is written under ``.bench_cache/`` in the checkout,
including Ray's temp dir; every process a run starts is stopped before
it exits. Ray gets ``nproc`` CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

CACHE = ".bench_cache"
RUN_LIMIT_S = 170          # one run, everything included
FIRST_RUN_LIMIT_S = 880    # the first run in a checkout also cross-checks
FIXTURE_LIMIT_S = 600
INPUTS_LIMIT_S = 120
OBJECT_STORE_BYTES = 512 << 20
_HERE = os.path.dirname(os.path.abspath(__file__))
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
# about 62 bytes below the temp dir
_SOCKET_ROOM = 107 - 62


def _ray_tmp(cache: str) -> str:
    """Ray's temp dir inside the checkout. When the checkout path is
    too long for Ray's socket paths, the same directory is named
    through ``/proc/self/cwd``: every Ray process inherits the run's
    working directory, so it resolves to the same place for all."""
    name = f"ray{os.getpid()}"
    direct = os.path.join(cache, name)
    if len(direct) <= _SOCKET_ROOM:
        return direct
    return os.path.join("/proc/self/cwd", CACHE, name)


def _stop_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _run(cmd: list[str], limit_s: float, log: str) -> int | None:
    """Run ``cmd`` in its own process group; None when it timed out."""
    with open(log, "ab") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait(timeout=max(1.0, limit_s))
        except subprocess.TimeoutExpired:
            return None
        finally:
            _stop_group(proc)


def _spec_common(ray_tmp: str) -> dict:
    from perfbench.probe import host_cpus
    return {"ray_cpus": host_cpus(), "ray_tmp": ray_tmp,
            "object_store_bytes": OBJECT_STORE_BYTES}


def _fixture_path(cache: str) -> str:
    from perfbench.inputs import code_key
    return os.path.join(cache, f"fixture_check_{code_key()}.json")


def _fixture_verdict(cache: str, ray_tmp: str, deadline: float) -> dict:
    from perfbench.probe import stop_processes
    path = _fixture_path(cache)
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    spec = {**_spec_common(ray_tmp), "result": path + ".tmp"}
    spec_path = os.path.join(cache, "fixture_spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    code = _run([sys.executable, os.path.join(_HERE, "fixture_check.py"),
                 spec_path], min(FIXTURE_LIMIT_S, deadline - time.monotonic()),
                os.path.join(cache, "fixture_check.log"))
    stop_processes(ray_tmp)
    if code == 0 and os.path.exists(spec["result"]):
        os.replace(spec["result"], path)
        with open(path) as f:
            return json.load(f)
    # a crash or timeout is not cached: the next run tries again
    return {"ok": False, "problems": [f"fixture check exited with {code}"]}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(res: dict, units: dict[str, str], limit_s: float) -> dict:
    execs = res.get("executions", [])
    ok = [e for e in execs if not e.get("error") and not e.get("problems")]
    warm = [e for e in ok if e is not execs[0]] or ok or execs
    cpus = [e["cpu"] for e in warm if e.get("cpu") is not None] or [0.0]
    values = {
        "cpu_s": statistics.median(cpus),
        "setup_s": res.get("setup_s", limit_s),
        "peak_rss_mb": res.get("peak_rss_mb", 0.0),
    }
    return {name: _metric(values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("osm_sidewalkreator_ray",
                                       "__init__.py")):
        print("run from the root of a checkout: osm_sidewalkreator_ray/ "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.getcwd())
    from perfbench import inputs
    from perfbench.probe import stop_processes
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}

    t_start = time.monotonic()
    cache = CACHE
    run_dir = os.path.join(cache, "runs", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ray_tmp = _ray_tmp(os.path.abspath(cache))
    first = not os.path.exists(_fixture_path(cache))
    deadline = t_start + (FIRST_RUN_LIMIT_S if first else RUN_LIMIT_S)
    result = os.path.join(run_dir, "result.json")
    limit = deadline - time.monotonic()
    code = None
    try:
        fixture = _fixture_verdict(cache, ray_tmp, deadline)
        dirs = {}
        for kind, n in WORKLOADS[args.workload].inputs.items():
            root = os.path.join(cache, "inputs")
            d = inputs.entry_dir(root, kind, n, args.seed)
            if not inputs.is_complete(d):
                _run([sys.executable, os.path.join(_HERE, "inputs.py"), kind,
                      str(n), str(args.seed), root], INPUTS_LIMIT_S,
                     os.path.join(run_dir, "inputs.log"))
            if inputs.is_complete(d):
                dirs[kind] = os.path.abspath(d)
            else:
                # inputs come from the package's own generators: a failed
                # synthesis is a failed run, reported below
                print(f"input synthesis failed: {kind} n={n}; see "
                      f"{run_dir}/inputs.log", file=sys.stderr)

        spec = {**_spec_common(ray_tmp),
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "inputs": dirs, "scratch": os.path.abspath(run_dir),
                "result": result, "per_layer": sorted(units),
                "spans": os.path.join(cache, f"spans_{args.workload}_"
                                             f"{args.seed}.json")}
        spec_path = os.path.join(run_dir, "spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        limit = deadline - time.monotonic() - 10
        if len(dirs) == len(WORKLOADS[args.workload].inputs):
            code = _run([sys.executable, os.path.join(_HERE, "session.py"),
                         spec_path], limit,
                        os.path.join(run_dir, "session.log"))
            stop_processes(ray_tmp)
    finally:
        shutil.rmtree(ray_tmp, ignore_errors=True)

    res: dict = {"executions": []}
    if os.path.exists(result):
        with open(result) as f:
            res = json.load(f)
    execs = res["executions"]
    crashed = not res.get("done")
    failed = sum(1 for e in execs if e.get("error") or e.get("problems"))
    attempted = len(execs)
    if crashed:
        # the execution in flight (or the set-up) when the run died
        attempted += 1
        failed += 1
        print(f"session exited with {code}; see {run_dir}/session.log",
              file=sys.stderr)
    for i, e in enumerate(execs):
        for p in (e.get("problems") or []) + ([e["error"]] if e.get("error")
                                              else []):
            print(f"execution {i}: {p}", file=sys.stderr)
    if not fixture.get("ok"):
        print(f"fixture check: {fixture.get('problems')}", file=sys.stderr)
    if args.trace:
        layer = res.get("per_layer", {})
        metrics = {n: _metric(float(layer.get(n, 0.0)), u)
                   for n, u in units.items()}
    else:
        metrics = _end_to_end(res, units, limit)
    context = {k: res.get(k) for k in ("host_cpus", "ray_cpus",
                                       "gauge_before_s", "gauge_after_s",
                                       "import_s", "setup_runs")}
    context["walls"] = [e.get("wall") for e in execs]
    context["digests"] = sorted({e["digest"] for e in execs
                                 if e.get("digest")})
    print(json.dumps({"context": context}), file=sys.stderr)
    if not failed:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and bool(fixture.get("ok")),
                      "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
