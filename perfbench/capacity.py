"""Saturation throughput of the ``lifecycle_mix`` request mix.

    python3 perfbench/capacity.py --seeds 1 2 3 --seconds 20

Sets up ``lifecycle_mix`` exactly as ``run.py`` does (server child, the
seed's four deployments), then sends each connection's schedule closed
loop — the next request as soon as the previous reply arrived, due
times ignored — and prints the requests/s completed per seed and their
median.  That median is what ``inputs.LIFECYCLE_CAPACITY_RPS`` records;
the open loop of ``lifecycle_mix`` offers a fixed share of it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import run  # noqa: E402

#: Offered rate of the generated schedules: far above what the server
#: completes, so a closed loop never runs out of requests.
SCHEDULE_RPS = 1000.0


def capacity(seed: int, seconds: float) -> float:
    """Requests/s the server completes on ``seed``'s mix, closed loop."""
    from perfbench import inputs
    from perfbench.loadgen import Connection, run_threads, send

    schedules = inputs.lifecycle_schedules(seed, seconds, rate_rps=SCHEDULE_RPS)
    child, _ = run._http_setup(lambda pool: inputs.lifecycle_deployments(pool, seed), False)
    conns = [Connection(child.port) for _ in schedules]
    try:
        end = time.monotonic() + seconds

        def drive(conn, schedule):
            samples = []
            for request in schedule:
                if time.monotonic() >= end:
                    break
                samples.append(send(conn, request))
            return samples

        start = time.monotonic()
        results = run_threads(
            [lambda c=c, s=s: drive(c, s) for c, s in zip(conns, schedules)]
        )
        elapsed = time.monotonic() - start
    finally:
        for conn in conns:
            conn.close()
        child.stop()
    samples = [s for r in results for s in r]
    failed = [s for s in samples if not s.ok]
    if failed:
        raise RuntimeError(f"{len(failed)} failed requests, first: {failed[0]}")
    return len(samples) / elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    run.prepare()
    try:
        rates = []
        for seed in args.seeds:
            rates.append(capacity(seed, args.seconds))
            print(f"seed {seed}: {rates[-1]:.2f} requests/s")
    finally:
        run.remove_work_dir()
    print(f"median: {statistics.median(rates):.2f} requests/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
