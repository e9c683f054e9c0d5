"""The repository benchmark: three seeded workloads, one command.

    python3 perfbench/run.py --workload plan_beam --seed 1 --seconds 35 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

- ``plan_beam``      closed loop, one caller, in-process beam search;
- ``lifecycle_mix``  open loop over HTTP: cheap plans, apply/rollback,
                     reads and verifies on 4 store-backed deployments;
- ``reshard_churn``  closed loop of ``POST reshard`` plus an open loop of
                     ``GET status`` on the same deployment, eight
                     deployments in turn.

Every workload serves from the committed 4-GPU bundle and sets up
:data:`SETUPS` times (``setup_s`` is the median).  With ``--trace 0`` the
last line of standard output is the JSON result with the end-to-end
metrics; with ``--trace 1`` the run measures untraced, then again with
span wrappers installed in the serving process, and reports the
per-layer metrics plus the tracing overhead.  The run fails (exit 1,
``"correct": false``) on any failed request or correctness violation,
and exits 2 without a result when the repository is not there to run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("plan_beam", "lifecycle_mix", "reshard_churn")

#: Set-ups per run; ``setup_s`` is their median, the last one is measured.
SETUPS = 5
#: The quality guards (``plan_cost_ms``, ``feasible_share``,
#: ``reshard_objective_ms``) cover the first this many plans of
#: ``plan_beam`` and reshards of ``reshard_churn``, whatever the run
#: length, so they are exact functions of the seed.
QUALITY_PLANS = 10
QUALITY_RESHARDS = 16
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Time a server child gets to come up or shut down.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Pass:
    """One measured pass of a workload."""

    samples: list  # timed Samples
    quality: list  # the Samples the quality guards average over
    start: float
    end: float
    setup: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: CPU time the serving process spent while the workload ran, and
    #: the requests it served in that time (timed or not).
    cpu_s: float = 0.0
    requests: int = 0
    failures: list = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return self.end - self.start


def _median_setup(setups: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in setups) for key in setups[0]}


def _quality(samples: list, objective: bool = False) -> dict[str, float]:
    feasible = [s for s in samples if s.info.get("feasible")]
    out = {
        "plan_cost_ms": statistics.fmean(s.info["cost_ms"] for s in feasible),
        "feasible_share": len(feasible) / len(samples),
    }
    if objective:
        out["reshard_objective_ms"] = statistics.fmean(
            s.info["objective_ms"] for s in feasible
        )
    return out


# ----------------------------------------------------------------------
# plan_beam: in-process engine, closed loop, one caller
# ----------------------------------------------------------------------


def _beam_setup():
    from perfbench import inputs
    from perfbench.server import make_engine
    from repro.api import ShardingRequest
    from repro.costmodel import PretrainedCostModels
    from repro.data.tasks import ShardingTask

    started = time.monotonic()
    pool = inputs.table_pool()
    synthesized = time.monotonic()
    bundle = PretrainedCostModels.load(ROOT / inputs.BUNDLE_DIR)
    loaded = time.monotonic()
    engine = make_engine(bundle, lifelong_cache=True)
    warmup = ShardingTask(
        tables=inputs.beam_warmup_tables(pool),
        num_devices=inputs.NUM_DEVICES,
        memory_bytes=inputs.MEMORY_BYTES,
        task_id=-1,
    )
    engine.shard(ShardingRequest(warmup, strategy="beam"))
    setup = {
        "setup_s": time.monotonic() - started,
        "pool_synth_s": synthesized - started,
        "bundle_load_s": loaded - synthesized,
        "server_ready_s": 0.0,
    }
    return pool, engine, setup


def _beam_pass(seed: int, seconds: float, quality_plans: int, tracer=None) -> Pass:
    from perfbench import inputs
    from perfbench.loadgen import closed_loop
    from perfbench.metrics import Sample
    from repro.api import ShardingRequest
    from repro.data.tasks import ShardingTask
    from repro.validation import PlanValidator

    pool, engine, setup = _beam_setup()
    if tracer is not None:
        from perfbench.tracing import install

        install(tracer)
    validator = PlanValidator()
    tasks = inputs.beam_tasks(pool, seed)
    failures: list[str] = []
    indices = itertools.count()

    def plan() -> Sample:
        index = next(indices)
        task = ShardingTask(
            tables=next(tasks),
            num_devices=inputs.NUM_DEVICES,
            memory_bytes=inputs.MEMORY_BYTES,
            task_id=index,
        )
        sent = time.monotonic()
        response = engine.shard(ShardingRequest(task, strategy="beam"))
        done = time.monotonic()
        report = validator.validate_response(response, task)
        ok = response.feasible and response.error is None and report.ok
        if not ok:
            failures.append(f"plan {index}: {response.error or report.error_codes}")
        info = {"feasible": response.feasible, "cost_ms": response.simulated_cost_ms}
        return Sample("beam_plan", sent, sent, done, ok, info)

    cpu_start = time.process_time()
    start = time.monotonic()
    timed, extra = closed_loop(plan, start + seconds, quality_plans)
    cpu_s = time.process_time() - cpu_start
    result = Pass(
        samples=timed,
        quality=(timed + extra)[:quality_plans],
        start=start,
        end=max(s.done for s in timed),
        setup=setup,
        cache=engine.cache_stats(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        cpu_s=cpu_s,
        requests=len(timed) + len(extra),
        failures=failures,
    )
    if tracer is not None:
        tracer.uninstall()
        result.spans = tracer.spans
    engine.close()
    return result


def plan_beam(seed: int, seconds: float, trace: bool, setups: int = SETUPS,
              quality_plans: int = QUALITY_PLANS):
    """Measure ``plan_beam``; ``(untraced pass, traced pass or None, setups)``."""
    setup_runs = [_beam_setup()[2] for _ in range(setups - 1)]
    untraced = _beam_pass(seed, seconds, quality_plans)
    setup_runs.append(untraced.setup)
    traced = None
    if trace:
        from perfbench.tracing import Tracer

        traced = _beam_pass(seed, seconds, quality_plans, tracer=Tracer())
    return untraced, traced, setup_runs


# ----------------------------------------------------------------------
# HTTP workloads: a server child per set-up
# ----------------------------------------------------------------------


class ServerChild:
    """``perfbench/server.py`` in its own process, stopped by :meth:`stop`."""

    def __init__(self, trace: bool) -> None:
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=WORK))
        command = [
            sys.executable,
            str(ROOT / "perfbench" / "server.py"),
            "--store", str(self.dir / "store"),
            "--out", str(self.dir / "out.json"),
        ] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError("server child did not come up")
        info = json.loads(line)
        self.port = int(info["port"])
        self.bundle_load_s = float(info["bundle_load_s"])

    def cpu_s(self) -> float:
        """CPU time the child has used so far, all its threads."""
        self.proc.stdin.write("cpu\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("server child did not report its CPU time")
        return float(json.loads(line)["cpu_s"])

    def stop(self) -> dict:
        """Close the child's stdin, wait for it, return what it wrote."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        out = self.dir / "out.json"
        data = json.loads(out.read_text()) if out.exists() else {}
        shutil.rmtree(self.dir, ignore_errors=True)
        return data


def _http_setup(deployments: Callable, trace: bool):
    """Start a server child, create ``deployments``, plan + apply each."""
    from perfbench import inputs
    from perfbench.loadgen import Connection
    from repro.data.io import table_to_dict

    started = time.monotonic()
    pool = inputs.table_pool()
    synthesized = time.monotonic()
    child = ServerChild(trace)
    ready = time.monotonic()
    conn = Connection(child.port)
    try:
        for name, tables in deployments(pool).items():
            body = {"name": name, "tables": [table_to_dict(t) for t in tables]}
            steps = [
                ("POST", "/v1/deployments", body),
                ("POST", f"/v1/deployments/{name}/plan", {"strategy": "dim_greedy"}),
                ("POST", f"/v1/deployments/{name}/apply", {}),
            ]
            for method, path, payload in steps:
                status, raw = conn.call(method, path, payload)
                if status != 200:
                    raise RuntimeError(f"set-up {method} {path} -> {status}: {raw[:200]!r}")
    except BaseException:
        child.stop()
        raise
    finally:
        conn.close()
    setup = {
        "setup_s": time.monotonic() - started,
        "pool_synth_s": synthesized - started,
        "bundle_load_s": child.bundle_load_s,
        "server_ready_s": ready - synthesized,
    }
    return child, setup


def _verify_clean(port: int, names: list[str]) -> list[str]:
    """Validate and audit every deployment after its workload."""
    from perfbench.loadgen import Connection

    failures = []
    conn = Connection(port)
    try:
        for name in names:
            for verb in ("validate", "audit"):
                status, raw = conn.call("GET", f"/v1/deployments/{name}/{verb}")
                body = json.loads(raw) if status == 200 else {}
                clean = body.get("ok") and body.get("num_advisories", 0) == 0
                if not clean:
                    failures.append(f"{verb} {name}: {status} {raw[:300]!r}")
    finally:
        conn.close()
    return failures


def _http_pass(deployments, names, drive, trace: bool) -> Pass:
    """Set up, run ``drive(port) -> (timed, quality)``, check, stop."""
    child, setup = _http_setup(deployments, trace)
    try:
        cpu_start = child.cpu_s()
        start = time.monotonic() + 0.05
        timed, quality = drive(child.port, start)
        cpu_s = child.cpu_s() - cpu_start
        end = max(s.done for s in timed)
        failures = [f"{s.verb}: {s.info}" for s in timed + quality if not s.ok]
        failures += _verify_clean(child.port, names)
    finally:
        data = child.stop()
    return Pass(
        samples=timed,
        quality=quality,
        start=start,
        end=end,
        setup=setup,
        spans=data.get("spans", []),
        cache=data.get("cache", {}),
        peak_rss_mb=data.get("peak_rss_mb", 0.0),
        cpu_s=cpu_s,
        requests=len({id(s) for s in timed + quality}),
        failures=failures,
    )


def _http_workload(deployments, names, drive, trace: bool, setups: int):
    setup_runs = []
    for _ in range(setups - 1):
        child, setup = _http_setup(deployments, False)
        child.stop()
        setup_runs.append(setup)
    untraced = _http_pass(deployments, names, drive, False)
    setup_runs.append(untraced.setup)
    traced = _http_pass(deployments, names, drive, True) if trace else None
    return untraced, traced, setup_runs


def lifecycle_mix(seed: int, seconds: float, trace: bool, setups: int = SETUPS):
    """Measure ``lifecycle_mix``; ``(untraced pass, traced pass or None, setups)``."""
    from perfbench import inputs
    from perfbench.loadgen import Connection, open_loop, run_threads

    schedules = inputs.lifecycle_schedules(seed, seconds)

    def drive(port: int, start: float):
        conns = [Connection(port) for _ in schedules]
        try:
            results = run_threads(
                [lambda c=c, s=s: open_loop(c, s, start) for c, s in zip(conns, schedules)]
            )
        finally:
            for conn in conns:
                conn.close()
        timed = [s for r in results for s in r]
        return timed, [s for s in timed if s.verb == "plan"]

    names = [f"dep{i}" for i in range(len(inputs.LIFECYCLE_TABLES))]
    return _http_workload(
        lambda pool: inputs.lifecycle_deployments(pool, seed), names, drive, trace, setups
    )


def reshard_churn(seed: int, seconds: float, trace: bool, setups: int = SETUPS,
                  quality_reshards: int = QUALITY_RESHARDS):
    """Measure ``reshard_churn``; ``(untraced pass, traced pass or None, setups)``."""
    from perfbench import inputs
    from perfbench.loadgen import Connection, closed_loop, open_loop, run_threads, send

    pool = inputs.table_pool()
    initial = inputs.reshard_deployments(pool, seed)
    status = inputs.reshard_status_schedule(seconds)

    def drive(port: int, start: float):
        writer, reader = Connection(port), Connection(port)

        def churn():
            # Each deployment in turn for its share of the window; the
            # quality guards cover the first deployment's first reshards.
            timed, quality = [], []
            time.sleep(max(0.0, start - time.monotonic()))
            for chain, tables in enumerate(initial.values()):
                deltas = inputs.reshard_deltas(pool, seed, chain, tables)
                end = start + (chain + 1) * seconds / len(initial)
                mine, extra = closed_loop(
                    lambda: send(writer, next(deltas)), end, quality_reshards if not chain else 0
                )
                timed += mine
                quality = quality or (mine + extra)[:quality_reshards]
            return timed, quality

        try:
            (timed, quality), reads = run_threads(
                [churn, lambda: open_loop(reader, status, start)]
            )
        finally:
            writer.close()
            reader.close()
        return timed + reads, quality

    return _http_workload(
        lambda pool: inputs.reshard_deployments(pool, seed), list(initial), drive, trace, setups
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def _report(workload: str, untraced: Pass, traced: Pass | None, setup_runs: list[dict],
            trace: bool) -> dict:
    from perfbench import metrics

    def measured(p: Pass, setup_s: list[float]) -> tuple[dict, dict]:
        e2e = metrics.end_to_end(
            p.samples, p.elapsed_s, setup_s, p.peak_rss_mb, p.cpu_s, p.requests
        )
        return e2e, metrics.latency(p.samples, p.start, p.elapsed_s)

    quality = _quality(untraced.quality, objective=workload == "reshard_churn")
    e2e, lat = measured(untraced, [s["setup_s"] for s in setup_runs])
    print(f"# {workload}: {len(untraced.samples)} timed requests in "
          f"{untraced.elapsed_s:.2f} s, {len(setup_runs)} set-ups")
    for line in metrics.verb_report(untraced.samples, untraced.elapsed_s, quality):
        print(f"#   {line}")
    for name, value in lat.items():
        print(f"#   {name} {value:.6g} {metrics.UNITS[name]} (reported, not gated)")
    for name, value in e2e.items():
        print(f"#   {name} {value:.6g} {metrics.UNITS[name]}")
    passes = [untraced] + ([traced] if traced else [])
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted = sum(len(p.samples) for p in passes)
    if not trace:
        values = {k: (v, metrics.UNITS[k]) for k, v in e2e.items()}
    else:
        layer = metrics.layer_metrics(
            traced.spans, (traced.start, traced.end), traced.samples, traced.cache
        )
        layer.update(metrics.loadgen_metrics(untraced.samples))
        setup = _median_setup(setup_runs)
        for key in ("pool_synth_s", "bundle_load_s", "server_ready_s"):
            layer[f"setup.{key}"] = setup[key]
        for key, value in lat.items():
            layer[f"latency.{key}"] = value
        traced_all = {k: v for part in measured(traced, [0.0]) for k, v in part.items()}
        for key in ("p50_ms", "goodput_rps", "cpu_ms_per_req"):
            layer[f"trace.overhead.{key}"] = traced_all[key] - {**e2e, **lat}[key]
        print(f"#   tracing overhead: p50 {layer['trace.overhead.p50_ms']:+.3f} ms, "
              f"goodput {layer['trace.overhead.goodput_rps']:+.4f} 1/s, "
              f"cpu {layer['trace.overhead.cpu_ms_per_req']:+.3f} ms/request")
        shard_ms = layer["engine.shard.ms"]
        if workload == "plan_beam":
            model_ms = shard_ms * (1 - layer["core.bookkeeping_share"])
            print(f"#   engine.shard {shard_ms:.1f} ms = costmodel {model_ms:.1f} ms + "
                  f"bookkeeping {shard_ms - model_ms:.1f} ms "
                  f"(share {layer['core.bookkeeping_share']:.3f})")
        else:
            # Greedy search evaluates no cost model: these read 0 here.
            layer = {k: v for k, v in layer.items() if not k.startswith(metrics.BEAM_ONLY)}
        values = {k: (v, metrics.layer_unit(k)) for k, v in layer.items()}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def remove_work_dir() -> None:
    """Remove :data:`WORK` once no run uses it (each removes its own part)."""
    try:
        WORK.rmdir()
    except OSError:
        pass


def prepare() -> None:
    """Set up this process (and the server children it starts) to measure.

    BLAS runs single-threaded here and in the server child (which
    inherits the environment); set before numpy loads.  The cost models'
    GEMMs are small, so a second BLAS thread only spins — same wall time,
    twice the CPU — and competes with the load generator and other
    tenants for the second core, which makes runs uneven.
    """
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="NeuroShard repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prepare()
    from perfbench import inputs

    if not (ROOT / inputs.BUNDLE_DIR).is_dir():
        print(f"perfbench: bundle {inputs.BUNDLE_DIR} is missing", file=sys.stderr)
        return 2

    try:
        runner = {"plan_beam": plan_beam, "lifecycle_mix": lifecycle_mix,
                  "reshard_churn": reshard_churn}[args.workload]
        untraced, traced, setup_runs = runner(args.seed, args.seconds, bool(args.trace))
        result = _report(args.workload, untraced, traced, setup_runs, bool(args.trace))
    finally:
        remove_work_dir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
