"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-guarded --seed 1 --seconds 18 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no instrumentation.  ``--trace 1`` runs the workload twice, untraced and
traced, each with half of ``--seconds`` so the command still ends within
three minutes.  It prints the per-layer metrics of the traced run, plus
the tracing overhead on each end-to-end metric: how much worse the
traced value is than the untraced one.  The spans are written as Chrome
trace-event JSON under ``perfbench/out/``.

Every measuring run is a child process.  The command itself only
supervises: it is the child subreaper of everything the runs start, so
when a run has ended it kills and reaps whatever is left of its process
tree, orphans included, before it exits.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")
#: Every child run must end within this many seconds of the start, so
#: the whole command, clean-up included, stays under three minutes.
DEADLINE_S = 165
#: How long a process asked to stop with SIGTERM gets before SIGKILL.
GRACE_S = 4.0
#: prctl(2) option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36

# One BLAS/OpenMP thread per process: the harness and the fleet worker
# share two cores.  Engine selectors are left to the program's defaults.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
CLEARED_ENV = (
    "REPRO_SERVE_ENGINE",
    "REPRO_STA_ENGINE",
    "REPRO_SIM_ENGINE",
    "REPRO_WORKERS",
    "REPRO_FLEET_WORKERS",
    "REPRO_CACHE_DIR",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the measuring run, untraced ("plain") or traced.
    parser.add_argument("--child", choices=("plain", "traced"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args, kind: str, seconds: float, prefix: str = "") -> dict:
    """One measuring run in a child process; prints its notes and
    returns its result object.  A failed run prints no result."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--child", kind,
    ]
    remaining = DEADLINE_S - (time.perf_counter() - _STARTED)
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(remaining, 1.0))
        except BaseException as exc:
            # SIGTERM first, so the run stops its own processes and the
            # resource tracker can unlink the shared segments.
            proc.terminate()
            try:
                proc.communicate(timeout=GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SystemExit(f"{kind} run did not end within {DEADLINE_S} s")
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        raise SystemExit(f"{kind} run failed with exit code {proc.returncode}")
    for line in lines[:-1]:
        print(prefix + line)
    return json.loads(lines[-1])


def _become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> list:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # the process ended meanwhile
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def _reap_descendants() -> None:
    """Stop every process left below this one and wait for each to end.

    Each gets SIGTERM, then SIGKILL after ``GRACE_S``.  The resource
    tracker ignores SIGTERM and ends by itself, once no process holds its
    pipe, after unlinking what its processes left behind.  As subreaper
    this process inherits the orphans of its children, so once it has no
    child left, not even a zombie, its whole tree is gone."""
    deadline = time.monotonic() + GRACE_S
    asked = set()
    while True:
        late = time.monotonic() > deadline
        for pid in _children():
            if pid in asked and not late:
                continue
            asked.add(pid)
            try:
                os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
            except ProcessLookupError:
                pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from report import load_spec

    spec = load_spec(SPEC_PATH)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)

    if args.child is not None:
        return _measure(args, spec)
    _become_subreaper()
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        return _supervise(args, spec)
    finally:
        _reap_descendants()


def _supervise(args, spec) -> int:
    from report import result_line

    if args.trace == 0:
        plain = _child(args, "plain", args.seconds)
        print(json.dumps(plain))
        return 0
    plain = _child(args, "plain", args.seconds / 2, "untraced: ")
    traced = _child(args, "traced", args.seconds / 2, "traced: ")
    values = dict(traced["layers"])
    # Overhead is the cost tracing adds: positive when the traced
    # run is worse, whichever way the metric improves.
    for metric in spec["end_to_end"]:
        name = metric["name"]
        delta = traced["values"][name] - plain["metrics"][name]["value"]
        values[f"trace.overhead.{name}"] = (
            -delta if metric["better"] == "higher" else delta
        )
    print(
        result_line(
            spec["per_layer"],
            values,
            plain["correct"] and traced["correct"],
            plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"],
        )
    )
    return 0


def _measure(args, spec) -> int:
    from report import result_line

    # Stopping by SIGTERM runs the workload's clean-up on the way out.
    signal.signal(signal.SIGTERM, _on_sigterm)
    tracer = None
    if args.child == "traced":
        from tracing import Tracer

        tracer = Tracer()
    import workloads

    if tracer is not None:
        import layers

        layers.install(tracer)
    bench = workloads.run(args.workload, args.seed, args.seconds, tracer)
    for line in bench.notes + bench.ledger.describe():
        print(line)
    ledger = bench.ledger
    correct = ledger.failed == 0
    if tracer is not None:
        tracer.restore()
        layer_values = layers.layer_metrics(tracer, bench)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        written = tracer.write_chrome(
            path, {"workload": args.workload, "seed": args.seed}
        )
        print(f"trace: {written} spans written to {os.path.relpath(path, ROOT)}")
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": ledger.attempted,
                    "failed": ledger.failed,
                    "values": bench.values,
                    "layers": layer_values,
                }
            )
        )
        return 0
    print(
        result_line(
            spec["end_to_end"], bench.values, correct, ledger.attempted, ledger.failed
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
