"""cltwist benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload signs --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it reads the package from ``src``
and writes traces under ``perfbench/out``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  ``--workload all``
runs every workload in turn and prints one table.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys

from harness import CHILD_PYTHONPATH, ROOT, SRC, Tracer, closed_loop, p90, python_child

WORKLOAD_NAMES = ("signs", "exhaustive")
SETUP_SAMPLES = 6  # before the loop, and as many again after it
_IMPORT_TIMER = ("import time; t = time.perf_counter(); import cltwist; "
                 "print(time.perf_counter() - t)")
UNITS = {
    "ops_per_s": "ops/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB", "setup_s": "s", "ok_ratio": "share",
}


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _git_commit(),
        "pythonpath": CHILD_PYTHONPATH,
    }


def import_seconds() -> float:
    """Wall time of ``import cltwist`` in a fresh interpreter."""
    child = python_child(["-c", _IMPORT_TIMER])
    if child.code != 0:
        raise RuntimeError(f"import cltwist failed:\n{child.stderr}")
    return float(child.stdout)


def run_workload(args) -> int:
    env = environment(args.seed)
    print("env " + json.dumps(env))
    # One unmeasured import first writes the bytecode caches, which a
    # user pays for only once.
    setup = [import_seconds() for _ in range(SETUP_SAMPLES + 1)][1:]
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    tracer = Tracer() if args.trace else None
    loop = closed_loop(workload, args.seconds, tracer)
    # Sampled before and after the loop, set-up time sees the machine
    # at two moments about one run apart.
    setup += [import_seconds() for _ in range(SETUP_SAMPLES)]
    lat = loop.latencies
    best = loop.fastest(workload.keys)
    failures = loop.failures
    attempted = len(lat) + len(loop.traced_latencies)
    probe_failures = []
    if args.trace:
        metrics, probe_failures = layer_metrics(args, workload, tracer, loop, setup)
        _write_trace(args, env, metrics, tracer)
    else:
        metrics = {
            "ops_per_s": len(best) / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p90_ms": p90(best) * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
            "ok_ratio": (attempted - len(failures)) / attempted,
        }
    units = {**UNITS, **layer_units()}
    for name, value in metrics.items():
        print(f"{name:<36} {value:14.4f} {units[name]}")
    print(f"{'failed_ratio':<36} {len(failures) / attempted:14.4f} share"
          f"  ({len(failures)} of {attempted} ops)")
    print(f"fastest time of each input, over {len(lat) / len(workload.keys):.1f} cycles"
          f" of {len(workload.keys)} operations")
    print(f"every operation: {len(lat) / sum(lat):.4f} ops/s,"
          f" p50 {statistics.median(lat) * 1e3:.4f} ms, p90 {p90(lat) * 1e3:.4f} ms"
          f" over {len(lat)} samples")
    for kind, message in sorted(set(failures))[:5]:
        print(f"failed ({kind}): {message}")
    for kind, message in probe_failures:
        print(f"probe failed ({kind}): {message}")
    result = {
        "correct": not any(kind == "wrong" for kind, _ in failures + probe_failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def layer_units() -> dict:
    """Per-layer metric names and units, in BENCHMARK.json's order."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def layer_metrics(args, workload, tracer, loop, setup):
    """(per-layer metrics, failures in the algebra and cli probes)."""
    import layers

    measured = layers.span_metrics(tracer, len(loop.traced_latencies))
    measured["tables.peak_alloc_mib"] = (
        workload.peak_alloc_mib() if hasattr(workload, "peak_alloc_mib") else 0.0)
    measured.update(layers.kernel_probes(args.seed))
    algebra_metrics, algebra_failures = layers.algebra_probe(args.seed)
    measured.update(algebra_metrics)
    cli_metrics, cli_failures = layers.cli_probes(args.seed, setup)
    measured.update(cli_metrics)
    measured["trace.overhead_pct"] = (
        sum(loop.traced_latencies) / sum(loop.latencies) - 1) * 100
    return ({name: measured[name] for name in layer_units()},
            algebra_failures + cli_failures)


def _write_trace(args, env, metrics, tracer) -> None:
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as f:
        json.dump({"env": env, "metrics": metrics, **tracer.dump()}, f)
    print(f"trace written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in its own process, then one table of results."""
    results = {}
    for name in WORKLOAD_NAMES:
        child = python_child(
            [__file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=600,
        )
        sys.stdout.write(child.stdout)
        if child.code != 0:
            sys.stderr.write(child.stderr)
            return 1
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    print(f"\n{'metric':<36}" + "".join(f"{n:>14}" for n in WORKLOAD_NAMES) + "  unit")
    names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    for metric in names:
        row = [results[n]["metrics"][metric]["value"] for n in WORKLOAD_NAMES]
        unit = results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        print(f"{metric:<36}" + "".join(f"{v:14.4f}" for v in row) + f"  {unit}")
    ratios = [results[n]["failed"] / results[n]["attempted"] for n in WORKLOAD_NAMES]
    print(f"{'failed_ratio':<36}" + "".join(f"{v:14.4f}" for v in ratios) + "  share")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cltwist" / "__init__.py").is_file():
        print(f"run.py: no cltwist package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
