"""whitney benchmark: parent process that runs and summarises one benchmark run.

    python3 bench/run.py --workload spectral --seed 1 --seconds 44 --trace 0
    python3 bench/run.py --self-check      # the verifier must catch planted faults
    python3 bench/run.py --record          # rewrite reference.json from this commit

Every run of a workload is a fresh interpreter (child.py) started from
this process, one at a time, with one BLAS/OpenMP thread.  Untraced
(--trace 0): a few set-up-only interpreters, then whole-workload
interpreters until --seconds is used up; it reports the medians of
setup_s, run_s and peak_rss_mb.  Traced (--trace 1): one untraced and two
traced interpreters; it reports the per-layer metrics of tracing.py, the
tracing overhead, and how many count metrics differed between the two
traced interpreters.  The last stdout line is the result object; the
line before it, also written to .bench_out/, is the full report
(environment, per-interpreter timings, every operation's verdict).

Exit status 0 means the benchmark ran (see "correct" for the verdict);
anything else means it could not run, and no result is printed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import COUNT_METRICS, METRIC_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("spectral", "fine-mesh", "saddle")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2          # set-up-only interpreters per untraced run
TRACED_CHILDREN = 2       # traced interpreters per traced run, compared for counts
DEADLINE_S = 170          # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    # the program gets its inputs from the seed alone: no WHITNEY_SEED override
    env = {k: v for k, v in os.environ.items() if k != "WHITNEY_SEED"}
    env.update(THREAD_ENV)
    return env


def _text(data) -> str:
    return data.decode(errors="replace") if isinstance(data, bytes) else (data or "")


def spawn(args, deadline) -> dict:
    """Run child.py once; its set-up time is stamped from this side of the spawn."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another interpreter")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:     # run() has killed and reaped it
        stdout, stderr, code = _text(exc.stdout), _text(exc.stderr), "timeout"
    wall_s = time.monotonic() - t_spawn
    events = {}
    for line in stdout.splitlines():
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict) and "event" in event:
            events[event.pop("event")] = event
    tail = stderr.strip().splitlines()[-3:]
    if "ready" not in events:
        raise BenchError(f"interpreter failed during set-up (exit {code}): {' | '.join(tail)}")
    child = {"setup_s": events["ready"]["t"] - t_spawn, "wall_s": wall_s, "exit": code}
    if "result" in events:
        child.update(events["result"])
    elif args[:1] != ["--setup-only"]:
        # the interpreter died mid-workload: every planned operation it did
        # not report is a crashed operation
        planned = events.get("plan", {}).get("ops", ["(workload)"])
        child["ops"] = [{"name": name, "status": "crashed",
                         "problems": [f"interpreter exit {code}: {' | '.join(tail)}"]}
                        for name in planned]
    return child


def workload_args(workload, seed, traced=False):
    return ["--workload", workload, "--seed", str(seed)] + (["--trace"] if traced else [])


def tally(children) -> dict:
    ops = [op for child in children for op in child.get("ops", [])]
    crashed = sum(op["status"] == "crashed" for op in ops)
    check_failed = sum(op["status"] == "check_failed" for op in ops)
    return {"ops": len(ops), "crashed": crashed, "check_failed": check_failed,
            "fail_ratio": (crashed + check_failed) / len(ops) if ops else 1.0}


def _completed(children):
    done = [c for c in children if "run_s" in c]
    if not done:
        raise BenchError("no interpreter completed the workload: "
                         + "; ".join(op["problems"][0] for op in children[0]["ops"]))
    return done


def run_untraced(workload, seed, seconds, deadline):
    start = time.monotonic()
    probes = [spawn(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    children = []
    while True:
        child = spawn(workload_args(workload, seed), deadline)
        children.append(child)
        now = time.monotonic()
        if ("run_s" not in child or now - start + child["wall_s"] > seconds
                or now + child["wall_s"] > deadline):
            break
    done = _completed(children)
    setups = [c["setup_s"] for c in probes + children]
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "run_s": (statistics.median(c["run_s"] for c in done), "s"),
               "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in done), "MB")}
    return children, metrics, {"setup_samples": setups}


def run_traced(workload, seed, deadline):
    children = [spawn(workload_args(workload, seed), deadline)]
    children += [spawn(workload_args(workload, seed, traced=True), deadline)
                 for _ in range(TRACED_CHILDREN)]
    untraced = _completed(children[:1])[0]
    traced = [c for c in children[1:] if "metrics" in c]
    if not traced:
        raise BenchError("no traced interpreter completed the workload")
    metrics = {}
    for name, unit in METRIC_UNITS.items():
        if name.startswith("trace."):
            continue
        values = [c["metrics"][name] for c in traced]
        metrics[name] = (statistics.median(values) if unit == "s" else values[0], unit)
    mismatched = {name: [c["metrics"][name] for c in traced] for name in COUNT_METRICS
                  if len({json.dumps(c["metrics"][name]) for c in traced}) > 1}
    overhead = statistics.median(c["run_s"] for c in traced) - untraced["run_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.count_mismatches"] = (len(mismatched), "count")
    extra = {"count_mismatches": mismatched,
             "trace": [c.get("trace") for c in traced]}
    return children, metrics, extra


def bench(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        children, metrics, extra = run_traced(args.workload, args.seed, deadline)
    else:
        children, metrics, extra = run_untraced(args.workload, args.seed, args.seconds, deadline)
    counts = tally(children)
    failed = counts["crashed"] + counts["check_failed"]
    env = next((c["env"] for c in children if "env" in c), {})
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "fail_ratio": counts,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "interpreters": [{k: c.get(k) for k in ("setup_s", "run_s", "peak_rss_mb",
                                                      "wall_s", "exit", "ops")}
                               for c in children],
              **extra}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    for child in children:
        for op in child.get("ops", []):
            if op["status"] != "ok":
                print(f"{op['status']}: {op['name']}: {'; '.join(op['problems'][:3])}",
                      file=sys.stderr)
    if args.trace and extra["count_mismatches"]:
        print(f"count metrics differ between traced runs: {sorted(extra['count_mismatches'])}",
              file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": counts["ops"], "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def self_check() -> int:
    """Planted faults must surface as failed operations, not as a crash."""
    deadline = time.monotonic() + DEADLINE_S
    child = spawn(["--workload", "selfcheck", "--seed", "0"], deadline)
    statuses = [op["status"] for op in child.get("ops", [])]
    counts = tally([child])
    expected = ["ok", "check_failed", "crashed"]
    ok = statuses == expected and counts["fail_ratio"] == 2 / 3
    for op in child.get("ops", []):
        print(f"{op['status']:>12}  {op['name']}  {'; '.join(op['problems'][:2])}")
    print(f"fail_ratio {counts['crashed'] + counts['check_failed']}/{counts['ops']} "
          f"(crashed {counts['crashed']}, check_failed {counts['check_failed']}): "
          f"{'verifier OK' if ok else f'expected statuses {expected}'}")
    return 0 if ok else 1


def record() -> int:
    """Write reference.json from the observations of this commit (seed 0)."""
    deadline = time.monotonic() + DEADLINE_S * 4
    reference = {}
    for workload in (*WORKLOADS, "selfcheck"):
        child = spawn(["--workload", workload, "--seed", "0", "--record"], deadline)
        bad = [op["name"] for op in child["ops"] if op["status"] != "ok"]
        bad += [key for key, obs in child["observations"].items() if obs.get("exit", 0) != 0]
        if workload != "selfcheck" and bad:
            raise BenchError(f"{workload}: cannot record failing operations {bad}")
        reference[workload] = child["observations"]
        print(f"{workload}: {len(child['observations'])} observations", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "whitney", "__init__.py")):
            raise BenchError(f"no whitney sources under {os.path.join(ROOT, 'src')}")
        if args.self_check:
            return self_check()
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
