"""Benchmark of entrobound: seeded workloads, checked outputs, timed rounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
the same checkout.  A run sets itself up (imports plus input generation),
then repeats rounds of its workload's fixed operation sequence until
``--seconds`` have passed, always finishing the round it is in.  Every
operation's output is checked against an independent numpy computation.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` the run alternates untraced and traced rounds
and carries the per-layer metrics instead.  Either way the full record,
with the environment, goes to ``perfbench/out/``.
"""

import os
import sys
import time

_START = time.perf_counter()
# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_CHILDREN = 2   # extra set-ups measured in fresh processes
SETUP_TIMEOUT_S = 60

END_TO_END = {  # name: unit
    "wall_s": "s",
    "op_s_p50": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="closed-form, greedy-newton or subspace-newton")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def import_program() -> None:
    """Import entrobound from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))  # this script's directory is already on the path
    try:
        import entrobound
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import entrobound from {src}: {exc}")
    if Path(entrobound.__file__).resolve().parent != src / "entrobound":
        raise SystemExit(f"perfbench: entrobound came from {entrobound.__file__}, "
                         f"not from {src}")


def cpu_seconds() -> float:
    children = os.times()
    return time.process_time() + children.children_user + children.children_system


@dataclass
class Round:
    wall: float
    cpu: float
    traced: bool
    op_times: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def run_round(ops, tracer=None) -> Round:
    """Run every operation once and check its output."""
    if tracer is not None:
        tracer.install()
    try:
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        rnd = Round(0.0, 0.0, tracer is not None)
        for op in ops:
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a program fault fails this operation only
                rnd.op_times.append(time.perf_counter() - t0)
                rnd.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            rnd.op_times.append(time.perf_counter() - t0)
            problems = op.check(result)
            if problems:
                rnd.failures.append(f"{op.name}: {'; '.join(problems[:3])}")
        rnd.wall = time.perf_counter() - wall0
        rnd.cpu = cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        rnd.layers = tracer.layer_metrics()
    return rnd


def child_setup(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    return doc["import_s"], doc["inputs_s"]


def environment() -> dict:
    import numpy
    import scipy

    blas_threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            blas_threads = int(getter())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads,
        "blas_thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS",
                                                           "OMP_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    imported = time.perf_counter()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.perf_counter()
    own_setup = (imported - _START, ready - imported)
    if args.setup_only:
        print(json.dumps({"import_s": own_setup[0], "inputs_s": own_setup[1]}))
        return 0
    setups = [own_setup] + [child_setup(args) for _ in range(SETUP_CHILDREN)]

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_round(ops))
        if args.trace:
            traced.append(run_round(ops, tracing.Tracer()))
        if time.perf_counter() - start >= args.seconds:
            break
    rounds = plain + traced
    attempted = len(ops) * len(rounds)
    failures = [f for rnd in rounds for f in rnd.failures]

    if args.trace:
        # counts from the first traced round, times as medians over all of them
        metrics = {name: median(r.layers[name] for r in traced) if unit in ("s", "us")
                   else traced[0].layers[name]
                   for name, unit in tracing.LAYER_METRICS.items()
                   if name in traced[0].layers}
        metrics["setup.import_s"] = median(s[0] for s in setups)
        metrics["setup.inputs_s"] = median(s[1] for s in setups)
        metrics["trace.overhead_s"] = (median(r.wall for r in traced)
                                       - median(r.wall for r in plain))
        metrics = {name: {"value": value, "unit": tracing.LAYER_METRICS[name]}
                   for name, value in metrics.items()}
    else:
        values = {
            "wall_s": median(r.wall for r in plain),
            "op_s_p50": median(t for r in plain for t in r.op_times),
            "cpu_s": median(r.cpu for r in plain),
            "setup_s": median(a + b for a, b in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "attempted": attempted,
        "failed": len(failures), "failures": failures[:20], "metrics": metrics,
        "rounds": [{"traced": rnd.traced, "wall_s": rnd.wall, "cpu_s": rnd.cpu,
                    "op_s": rnd.op_times} for rnd in rounds],
        "op_names": [op.name for op in ops],
        "setups_s": setups,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"env: nproc={env['nproc']} blas_threads={env['blas_threads']} "
          f"numpy={env['numpy']} scipy={env['scipy']} python={env['python']}")
    print(f"{args.workload} seed={args.seed}: {len(plain)} rounds of {len(ops)} "
          f"operations ({len(traced)} traced), {attempted} attempted, "
          f"{len(failures)} failed; record in {out_file.relative_to(ROOT)}")
    for failure in failures[:5]:
        print(f"  failed: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
