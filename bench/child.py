"""One benchmark run of one workload in a fresh interpreter (started by run.py).

Set-up is the time from spawn until `import whitney.cli` returns; run.py
stamps the spawn, this process stamps the end of the import.  The
workload's operations then run as a closed loop, each verified against
reference.json as soon as it returns.  Protocol on stdout, one JSON
object per line: {"event": "ready"}, {"event": "plan"}, {"event":
"result"}.  Anything the program prints goes to stderr.

    python3 bench/child.py --workload spectral --seed 1 [--trace] [--record]
    python3 bench/child.py --setup-only
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import whitney.cli  # noqa: E402,F401  set-up ends when this import returns

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def emit(stream, event, **fields):
    stream.write(json.dumps({"event": event, **fields}) + "\n")
    stream.flush()


def _blas(config_fn) -> dict:
    try:
        deps = config_fn(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {"unknown": "show_config(mode='dicts') unavailable"}
    return {lib: {k: deps[lib].get(k) for k in ("name", "version", "openblas configuration")
                  if deps[lib].get(k) is not None}
            for lib in ("blas", "lapack") if lib in deps}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": _blas(np.show_config), "scipy_blas": _blas(scipy.show_config),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
            "git_commit": _git_commit(),
            "seed": seed}


def run_ops(ops, reference, record):
    """Closed loop: each operation runs after the previous one returned and
    was verified.  Exceptions are crashes; mismatches are failed checks."""
    state, results, observations = {}, [], {}
    for op in ops:
        t = time.perf_counter()
        entry = {"name": op.name}
        try:
            observed = op.run(state)
        except Exception as exc:  # any program failure is a crashed operation
            entry.update(status="crashed", problems=[f"{type(exc).__name__}: {exc}"])
        else:
            if record:
                observations[op.key] = observed
                problems = []
            else:
                try:
                    problems = op.verify(observed, reference.get(op.key))
                except Exception as exc:  # an observation the verifier cannot read
                    problems = [f"verifier raised {type(exc).__name__}: {exc}"]
            entry.update(status="check_failed" if problems else "ok", problems=problems[:10])
        entry["seconds"] = time.perf_counter() - t
        results.append(entry)
    return results, observations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out = sys.stdout
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(whitney.cli.__file__), src]) != src:
        print(f"whitney imported from {whitney.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    emit(out, "ready", t=READY)
    if args.setup_only:
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    reference = {}
    if not args.record:
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh).get(args.workload, {})

    tracer = None
    install_s = 0.0
    if args.trace:
        t = time.perf_counter()
        tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}").install()
        install_s = time.perf_counter() - t

    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        ops = WORKLOADS[args.workload](args.seed)
        emit(out, "plan", ops=[op.name for op in ops])
        results, observations = run_ops(ops, reference, args.record)
        run_s = time.perf_counter() - t0

    result = {"workload": args.workload, "seed": args.seed, "run_s": run_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "ops": results, "env": environment(args.seed)}
    if args.record:
        result["observations"] = observations
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json")
        tracer.write(spans_file)
        result["metrics"] = tracer.metrics()
        result["trace"] = {"install_s": install_s, "spans": len(tracer.spans),
                           "hook_s": tracer.hook_s, "patched": tracer.patched,
                           "missing": tracer.missing,
                           "spans_file": os.path.relpath(spans_file, ROOT)}
    emit(out, "result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
