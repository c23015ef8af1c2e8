"""Benchmark harness for grothkit: one workload per process, one closed-loop client.

    python3 bench/run.py --workload construct --seed 1 --seconds 15 --trace 0

Set-up imports grothkit from `src/` of the checkout this file sits in, makes
the workload's inputs from the seed and runs a warm-up pass.  The run is cut
into SETUPS parts of `--seconds` / SETUPS each; every part starts with a
fresh set-up, after the previous part's inputs and module copy are dropped,
and then times whole rounds of the job list until its share of the seconds
has passed (and at least MIN_ROUNDS rounds were timed in all).  `setup_s` is
the upper quartile of the set-ups, which sample the host's speed at several
moments of the run, for the reason given below.  Every verdict is checked against the oracles in
`oracles.py` outside the timed interval.

Times are read from the process CPU clock.  The program computes in this one
process and waits on nothing but the page cache, so on an idle machine the
CPU clock and the wall clock agree; on a shared virtual machine the CPU
clock leaves out the time the host gives to other guests (steal).  Set-up
is timed the same way, from process start.

A shared host runs this guest at a steady base speed with bursts of up to
1.7 times that speed, some lasting a minute (see README.md).  So each job's
verdict time is the 90th percentile of its times over the run's rounds: the
time it takes at the base speed, which a burst over less than nine tenths
of the run leaves alone and a slower program moves as much as the median.
`jobs_per_s` is the round's job count over the sum of those times, and the
latency percentiles are taken over them, one per job of the round.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
public functions of grothkit are wrapped (see `tracer.py`) and the metrics
are per layer.  Run from any directory; nothing is written outside the
checkout.  See README.md for what each metric means.
"""

import time

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = HERE / "scratch"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5        # set-ups per run, one before each fifth of the timed phase; setup_s is their upper quartile
MIN_ROUNDS = 10   # at least this many timings per job, and with 36 jobs or more per round, 360 timed jobs


def drop_program() -> None:
    """Forget the imported grothkit, so that the next import is a fresh one."""
    for name in [m for m in sys.modules if m == "grothkit" or m.startswith("grothkit.")]:
        del sys.modules[name]


def import_program():
    """A fresh import of grothkit from this checkout's src/, never an installed copy."""
    init = SRC / "grothkit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} is missing; run from a grothkit checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    gk = importlib.import_module("grothkit")
    if Path(gk.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported grothkit from {gk.__file__}, expected {init}")
    return gk


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def judge(job, out) -> tuple[bool, str | None]:
    """(failed, wrong): the job failed to deliver a verdict, or delivered a wrong one."""
    if isinstance(out, Exception):
        return True, None
    try:
        return False, job.check(out)
    except oracles.Failed as err:
        return True, str(err)
    except Exception as err:  # a verdict the oracle cannot even read is a wrong one
        return False, f"unreadable verdict: {err!r}"


def call(job):
    try:
        return job.call()
    except Exception as err:  # a crash of the program is a failed operation, recorded below
        return err


def set_up(workload: str, seed: int, scratch: Path, tracer, trace_setup: bool):
    gk = import_program()
    if tracer is not None:
        tracer.install(gk)
        tracer.enabled = trace_setup
    jobs = workloads.WORKLOADS[workload](gk, random.Random(seed), str(scratch))
    # warm-up: one job of each kind, checked like the timed ones; a wrong answer stops the run
    seen = set()
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            failed, wrong = judge(job, call(job))
            if wrong and not failed:
                raise SystemExit(f"bench: warm-up {job.kind} gave a wrong answer: {wrong}")
    if tracer is not None:
        tracer.enabled = False
    return jobs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    scratch = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    setups: list[float] = []
    jobs = times = None
    attempted = failed = rounds = 0
    wrong: list[str] = []
    try:
        for part in range(SETUPS):
            # drop the previous part's inputs and module copy first, so that
            # peak_rss_mb holds one set-up's memory
            jobs = None
            drop_program()
            gc.unfreeze()
            gc.collect()
            t0 = time.process_time() if part else 0.0  # the first set-up is timed from process start
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            # the traced run records the first set-up's layers, and every part's timed calls
            jobs = set_up(args.workload, args.seed, scratch, tracer, trace_setup=part == 0)
            setups.append(time.process_time() - t0)
            if part == 0:
                times = [[] for _ in jobs]  # each job's verdict times in ms; the seed fixes the job list
                setup_rss = max_rss_mb()
                if tracer is not None:
                    setup_layers = tracer.snapshot()
                    tracer.reset()
            gc.collect()
            gc.freeze()  # inputs live for the whole part; collections need not rescan them

            begin = time.perf_counter()
            while rounds < MIN_ROUNDS * (part + 1) // SETUPS or time.perf_counter() - begin < args.seconds / SETUPS:
                for job, job_times in zip(jobs, times):
                    attempted += 1
                    if tracer is not None:
                        tracer.enabled = True
                    t = time.process_time_ns()
                    out = call(job)
                    dt = time.process_time_ns() - t
                    if tracer is not None:
                        tracer.enabled = False
                    bad_call, bad_answer = judge(job, out)
                    if bad_call:
                        failed += 1
                        if rounds == 0:
                            detail = bad_answer or "".join(traceback.format_exception_only(type(out), out)).strip()
                            print(f"bench: failed {job.kind}: {detail}", file=sys.stderr)
                        continue
                    if bad_answer:
                        wrong.append(f"{job.kind}: {bad_answer}")
                    job_times.append(dt / 1e6)
                rounds += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run is still using it
            pass

    for w in wrong[:10]:
        print(f"bench: WRONG {w}", file=sys.stderr)
    if tracer is not None:
        metrics = tracer.metrics(rounds, setup_layers)
    else:
        # each job's time at the host's base speed: the 90th percentile of its times
        verdict = [statistics.quantiles(t, n=10, method="inclusive")[8] for t in times if len(t) > 1]
        q = statistics.quantiles(verdict, n=100, method="inclusive")
        metrics = {
            "jobs_per_s": (len(verdict) / (sum(verdict) / 1e3), "1/s"),
            "verdict_ms_p50": (q[49], "ms"),
            "verdict_ms_p90": (q[89], "ms"),
            "peak_rss_mb": (max_rss_mb(), "MB"),
            "setup_s": (statistics.quantiles(setups, n=4, method="inclusive")[2], "s"),
        }
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds of {len(jobs)} jobs, "
          f"{sum(map(len, times))} timed, {failed} failed, {len(wrong)} wrong; peak RSS {setup_rss:.1f} MB "
          f"after set-up, {max_rss_mb():.1f} MB at the end; set-ups {', '.join(f'{t:.3f}' for t in setups)} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
