"""Microbenchmark for the sign algorithms.

The workload is a fixed-seed stream of random 64-bit mask pairs, so
every run times the same inputs; only the timings themselves vary.
ns/op includes the Python call overhead, which is the honest number
for this kind of kernel.

The quadratic factor-list algorithm is orders of magnitude slower
than the bit tricks on 64-bit masks, so the default run is kept to
``kernel.DEFAULT_PAIRS`` pairs, a few seconds.  A million pairs take
about 1.5 minutes, and ``MAX_PAIRS`` caps the workload there, before
any list is built.

Only ``cltwist bench`` imports this module (the CLI, inside its
handler), so no other command loads it.
"""

import random
import time
from typing import List, NamedTuple, Tuple

from . import kernel

__all__ = ["BenchResult", "format_report", "make_workload", "run_bench"]

#: Largest workload; checked before the two lists of inputs are built.
MAX_PAIRS = 1_000_000
_SEED = 0x7715F  # fixed so the workload is reproducible


def make_workload(pairs: int) -> Tuple[List[int], List[int]]:
    """Deterministic list of ``pairs`` random 64-bit (p, q) inputs."""
    if type(pairs) is not int or pairs < 1:
        raise ValueError(f"need at least one pair, got {pairs!r}")
    if pairs > MAX_PAIRS:
        raise ValueError(f"need at most {MAX_PAIRS} pairs, got {pairs!r}")
    rng = random.Random(_SEED)
    ps = [rng.getrandbits(kernel.MASK_BITS) for _ in range(pairs)]
    qs = [rng.getrandbits(kernel.MASK_BITS) for _ in range(pairs)]
    return ps, qs


class BenchResult(NamedTuple):
    """Mean time of one algorithm over the workload."""

    name: str
    pairs: int
    ns_per_op: float


def _time_one(func, ps, qs, mu) -> float:
    t0 = time.perf_counter()
    for p, q in zip(ps, qs):
        func(p, q, mu)
    return time.perf_counter() - t0


def run_bench(
    pairs: int = kernel.DEFAULT_PAIRS, mu: int = -1,
) -> List[BenchResult]:
    ps, qs = make_workload(pairs)
    results = []
    for name, func in kernel.ALGORITHMS.items():
        elapsed = _time_one(func, ps, qs, mu)
        results.append(BenchResult(name, pairs, elapsed * 1e9 / pairs))
    return results


def _json_report(results: List[BenchResult], mu: int) -> str:
    """One JSON object: the workload (seed, pairs, mu), ns/op per
    algorithm, and the interpreter, platform, CPU count and numpy
    version (null if numpy is not installed) it ran on.  numpy's
    version is read from its metadata, so numpy stays unloaded."""
    import json
    import os
    import platform
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return json.dumps({
        "seed": _SEED,
        "pairs": results[0].pairs,
        "mu": mu,
        "ns_per_op": {r.name: r.ns_per_op for r in results},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
    })


def format_report(results: List[BenchResult]) -> str:
    """One labeled throughput line per algorithm."""
    return "".join(
        f"{r.name:<10} {r.ns_per_op:12.1f} ns/op  ({r.pairs} pairs)\n"
        for r in results
    )
