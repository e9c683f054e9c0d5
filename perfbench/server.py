"""Server process of the HTTP workloads.

Started by ``perfbench/run.py`` (never by ``repro serve``) so traced and
untraced runs serve from the same process topology::

    python3 perfbench/server.py --store DIR --out FILE [--trace]

Loads the committed bundle read-only, serves an empty store-backed
:class:`~repro.api.service.ShardingService` on a free local port, and
prints one JSON line ``{"port": ..., "bundle_load_s": ...}`` once it
accepts requests.  Each ``cpu`` line on its standard input is answered
with ``{"cpu_s": ...}``, the CPU time of the process so far (all
threads).  It stops when its standard input closes, then writes
``FILE``: peak RSS, the engine's cache statistics and, with ``--trace``,
every span recorded while it ran.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402
from perfbench.tracing import Tracer, install  # noqa: E402
from repro.api import PlanStore, ShardingEngine, ShardingService  # noqa: E402
from repro.api.server import ShardingHTTPServer  # noqa: E402
from repro.config import ClusterConfig, SearchConfig  # noqa: E402
from repro.costmodel import PretrainedCostModels  # noqa: E402
from repro.hardware import SimulatedCluster  # noqa: E402


def make_engine(bundle: PretrainedCostModels, lifelong_cache: bool = False):
    """The engine every workload serves with: 4 x 4 GiB, paper search config."""
    cluster = SimulatedCluster(
        ClusterConfig(num_devices=inputs.NUM_DEVICES, memory_bytes=inputs.MEMORY_BYTES)
    )
    return ShardingEngine(
        cluster,
        bundle,
        search=SearchConfig(),
        strategy_kwargs={"beam": {"lifelong_cache": lifelong_cache}},
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = install(Tracer()) if args.trace else None
    started = time.monotonic()
    bundle = PretrainedCostModels.load(ROOT / inputs.BUNDLE_DIR)
    bundle_load_s = time.monotonic() - started
    engine = make_engine(bundle)
    service = ShardingService(PlanStore(args.store))
    # The micro-batching knobs are `repro serve`'s defaults.
    server = ShardingHTTPServer(
        service,
        engine,
        port=0,
        max_batch=8,
        batch_wait_s=0.010,
        bundle_ref=inputs.BUNDLE_DIR,
    )
    server.start()
    print(json.dumps({"port": server.port, "bundle_load_s": bundle_load_s}), flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "cpu":
                print(json.dumps({"cpu_s": time.process_time()}), flush=True)
    finally:
        server.close()
        engine.close()
    Path(args.out).write_text(
        json.dumps(
            {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "cache": engine.cache_stats(),
                "spans": [] if tracer is None else tracer.spans,
            }
        )
    )


if __name__ == "__main__":
    main()
