"""One benchmark run of one workload, in a process of its own.

    python3 perfbench/session.py SPEC_JSON

SPEC_JSON names the workload, seed, run length, trace flag, input
directories, a scratch directory, the Ray temp dir and the result
file. The result file is rewritten after every execution, so the
caller still has every finished execution if this process dies.

Untraced run: set up (imports once, then Ray init + worker warm-up
``SETUPS`` times), execute until ``seconds`` have passed, then check
every output. Traced run: one cold and one warm untraced execution,
one execution with the layer spans on, then the in-process kernel
replay.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback

SETUPS = 3            # set-ups per run; setup_s is their median
MIN_WARM = 1          # warm executions a run needs besides the first


def _write(path: str, res: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(res, f, default=str)
    os.replace(tmp, path)


def _warm_batch(batch):
    # the worker imports what the workloads run, so the first timed
    # execution does not pay module imports in the worker
    import osm_sidewalkreator_ray.pipelines.page_join  # noqa: F401
    import osm_sidewalkreator_ray.pipelines.textops  # noqa: F401
    return batch


def _ray_up(spec: dict):
    import ray
    import ray.data as rd
    ray.init(num_cpus=spec["ray_cpus"], include_dashboard=False,
             logging_level="ERROR", _temp_dir=spec["ray_tmp"],
             object_store_memory=spec["object_store_bytes"],
             log_to_driver=False)
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    rd.range(64, override_num_blocks=2).map_batches(_warm_batch).materialize()


def _ray_down() -> None:
    """Stop this run's Ray session without the graceful wait of
    ``ray.shutdown`` (about 1.3 s of polling per session): kill the
    node's processes, reset the driver, then stop what is left of the
    session (its agents) and wait until each process has ended."""
    import signal

    import ray
    from perfbench.probe import stop_processes
    node = ray._private.worker._global_node
    session = node.get_session_dir_path()
    node.kill_all_processes(check_alive=False, allow_graceful=False,
                            wait=True)
    ray.shutdown()
    stop_processes(session, first=signal.SIGKILL)


def _pids() -> list[int]:
    from perfbench import probe
    return [os.getpid()] + probe.worker_pids(os.getpid())


def _cpu() -> dict[int, float]:
    from perfbench import probe
    return {p: probe.cpu_seconds(p) for p in _pids()}


def _cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    # a worker that exited in between is left out; one that started in
    # between counts from zero
    return sum(v - before.get(p, 0.0) for p, v in after.items())


def _timed(wl, res: dict, outputs: list, path: str) -> None:
    c0 = _cpu()
    t0 = time.perf_counter()
    rec = {"wall": None, "cpu": None, "rows": None, "error": None}
    out = None
    try:
        result = wl.execute()
        rec["wall"] = time.perf_counter() - t0
        rec["cpu"] = _cpu_delta(c0, _cpu())
        out = wl.output(result)
        rec["rows"] = out.rows
        rec["digest"] = out.digest()
    except Exception:  # noqa: BLE001 - a failed execution is a result
        rec["error"] = traceback.format_exc(limit=8)
    if rec["wall"] is None:
        rec["wall"] = time.perf_counter() - t0
        rec["cpu"] = _cpu_delta(c0, _cpu())
    outputs.append(out)
    res["executions"].append(rec)
    _write(path, res)


def main(spec: dict) -> None:
    from perfbench import probe
    path = spec["result"]
    res = {"executions": [], "done": False}
    res["gauge_before_s"] = probe.noise_gauge()
    res["host_cpus"] = probe.host_cpus()
    _write(path, res)

    t0 = time.perf_counter()
    import ray
    import ray.data  # noqa: F401
    from perfbench import workloads
    cls = workloads.WORKLOADS[spec["workload"]]
    import osm_sidewalkreator_ray.pipelines.page_join  # noqa: F401
    import osm_sidewalkreator_ray.pipelines.textops  # noqa: F401
    import_s = time.perf_counter() - t0
    setups = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        _ray_up(spec)
        setups.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            _ray_down()
    res.update(import_s=import_s, setup_runs=setups,
               setup_s=import_s + statistics.median(setups),
               ray_cpus=ray.cluster_resources().get("CPU", 0))
    _write(path, res)

    wl = cls(spec["inputs"], spec["scratch"])
    outputs: list = []
    if spec["trace"]:
        _traced(wl, spec, res, outputs, path)
    else:
        t_start = time.perf_counter()
        while (time.perf_counter() - t_start < spec["seconds"]
               or len(outputs) < 1 + MIN_WARM):
            _timed(wl, res, outputs, path)
    res["peak_rss_mb"] = probe.peak_rss_mb(_pids())
    for rec, probs in zip(res["executions"], wl.problems(outputs)):
        rec["problems"] = probs
    if res.get("per_layer", {}).get("replay.mismatches"):
        res["executions"][-1]["problems"].append(
            "the in-process kernel replay disagrees with the Ray output")
    res["gauge_after_s"] = probe.noise_gauge()
    _ray_down()
    res["done"] = True
    _write(path, res)


def _traced(wl, spec: dict, res: dict, outputs: list, path: str) -> None:
    from perfbench import probe
    from perfbench.tracing import RayDataProbe, Tracer
    _timed(wl, res, outputs, path)          # cold
    _timed(wl, res, outputs, path)          # warm, untraced reference
    tracer = Tracer()
    rayprobe = RayDataProbe(tracer)
    wl.hooks(tracer)
    rayprobe.install()
    try:
        with tracer.root_span("execution") as root:
            _timed(wl, res, outputs, path)
    finally:
        tracer.unhook_all()
        rayprobe.uninstall()
    out = outputs[-1]
    m = dict.fromkeys(spec["per_layer"], 0.0)
    m.update(rayprobe.metrics())
    if out is not None:
        t0 = time.perf_counter()
        with tracer.span("replay"):
            m.update(wl.layer_metrics(tracer, out))
        m["replay_s"] = time.perf_counter() - t0
    traced_wall = root["end"] - root["start"]
    m.update({
        "host.cpus": probe.host_cpus(),
        "ray.cpus": res["ray_cpus"],
        "host.gauge_s": res["gauge_before_s"],
        "first_s": res["executions"][0]["wall"],
        "wall_s": res["executions"][1]["wall"],
        "rows_per_s": (res["executions"][1]["rows"] or 0)
        / res["executions"][1]["wall"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - res["executions"][1]["wall"],
        "trace.self_root_s": tracer.self_times().get("execution", 0.0),
    })
    res["per_layer"] = m
    res["missing_hooks"] = tracer.missing_hooks
    tracer.dump(spec["spans"], {"workload": spec["workload"],
                                "seed": spec["seed"], "metrics": m,
                                "ray_ops": rayprobe.ops})


if __name__ == "__main__":
    sys.path.insert(0, os.getcwd())
    with open(sys.argv[1]) as f:
        main(json.load(f))
