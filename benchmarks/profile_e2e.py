"""Where one end-to-end round spends its CPU, by package and function.

``make profile-e2e WORKLOAD=gen_concurrent`` (or ``PYTHONPATH=src python
-m benchmarks.profile_e2e --workload W [--seed N] [--seconds S]``) runs
one round of a ``benchmarks/e2e`` workload in this process — the same
``run_round`` the benchmark's children run, production configuration,
outputs verified — under one ``cProfile.Profile(time.thread_time)`` per
thread, merges the profiles and prints CPU seconds by ``src/repro``
package and the top functions by self time.

Why per-thread CPU clocks: every workload here is CPU-bound on one GIL
(``turns_per_s x cpu_ms_per_op`` is about 1, docs/performance.md), so a
wall-clock profile — and the benchmark's per-layer *wall* self times —
charge a thread for the time it spent waiting for the GIL while another
thread computed. ``time.thread_time`` only advances while the thread
itself runs, so the merged profile adds up to the process's CPU and
names who burned it. Start a performance issue here; use the traced
run's layer table for counts and for waiting, not for CPU.

The main thread is profiled only around the timed ``run_ops`` (boot,
warm-up and verification are not the measurement); every other thread
is profiled from its start, so the warm-up share the long-lived
serving threads ran is included (a few percent of the ops). Profiling
itself costs 2-3x in wall time and is heaviest on small functions:
find candidates here, then measure them with the benchmark proper.

``--counts`` prints instead how many times per operation a fixed list
of functions ran (:data:`COUNTS`: registry lookups, label sorts, lock
exits, spans, event loops, asyncio tasks, loop runs,
``asyncio.to_thread`` hops, SQL parses,
plans built, row DISTINCT passes, regex substitutions, prompt contexts
built, grouped cores built from row 0, grouped folds — each
``_fold_groups``, from row 0 or onto a state — scan selections
(``_selection``, one per columnar scan run), numpy sorts/searches —
``ndarray.argsort``, ``.sort`` and ``.searchsorted``, which
``np.argsort``, ``np.unique`` and ``np.searchsorted`` reach, charged by
name wherever called — clock reads, metric records and label
resolutions (``MetricHandle.labels``), engine wake-ups
(``call_soon_threadsafe``) and thread waits (``threading`` ``wait``)).
Call counts do not drift with the machine the way times do,
so they say where work was saved and compare across sessions. To
count only the timed region, that mode profiles the main thread's timed ``run_ops``
and the threads started inside it — the client threads — and leaves
out threads started earlier (the serving engine's, idle on cached
turns).

Which thread does the work therefore changes the counts. A sync
``generate`` that finds the engine idle runs the model on the client
thread, where the engine's step threads ran it before; so on
``chat_unique`` seed 1 that change raised ``metric records`` from 14.4
to 24.0, ``thread-lock exits`` from 22 to 47 and ``re.Pattern.sub``
from 0.22 to 2.98 per op. That is work moved into the counted
threads, not work added.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import threading
import time

from benchmarks.e2e import rounds
from benchmarks.e2e.workloads import SIZING_SECONDS, WORKLOADS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOP_FUNCTIONS = 30

#: ``--counts`` rows: (label, file suffix or "~" for built-ins, function
#: [, only the calls made from this function]).
COUNTS = (
    ("registry lookups", "obs/metrics.py", "_get_or_create"),
    ("label sorts", "obs/metrics.py", "_label_key"),
    ("thread-lock exits", "~", "<method '__exit__' of '_thread.lock' objects>"),
    ("spans recorded", "obs/tracer.py", "_record"),
    ("event loops created", "asyncio/events.py", "new_event_loop"),
    ("asyncio tasks created", "asyncio/base_events.py", "create_task"),
    ("loop runs", "asyncio/base_events.py", "run_until_complete"),
    # ``to_thread`` is a coroutine, which the profiler counts once per
    # resumption; the executor submission it makes is one per hop.
    ("to_thread hops", "asyncio/base_events.py", "run_in_executor", "to_thread"),
    ("SQL parses", "sqlengine/parser.py", "parse_sql"),
    ("plans built", "sqlengine/planner.py", "build_plan"),
    ("row DISTINCT passes", "sqlengine/executor.py", "_distinct"),
    ("prompt contexts built", "datasources/base.py", "prompt_context"),
    ("grouped cores from row 0", "sqlengine/executor.py", "_empty_groups"),
    ("grouped folds", "sqlengine/executor.py", "_fold_groups"),
    ("scan selections", "sqlengine/executor.py", "_selection"),
    # ``np.argsort``/``np.unique``/``np.searchsorted`` reach these methods.
    ("numpy sorts/searches", "~", "<method 'argsort' of 'numpy.ndarray' objects>"),
    ("numpy sorts/searches", "~", "<method 'sort' of 'numpy.ndarray' objects>"),
    ("numpy sorts/searches", "~", "<method 'searchsorted' of 'numpy.ndarray' objects>"),
    ("re.Pattern.sub", "~", "<method 'sub' of 're.Pattern' objects>"),
    # Rows sharing a label add up.
    ("clock reads", "repro/runtime.py", "perf_clock"),
    ("clock reads", "repro/runtime.py", "mono_clock"),
    ("metric records", "obs/metrics.py", "_add"),
    ("metric records", "obs/metrics.py", "_observe"),
    ("label resolutions", "obs/metrics.py", "labels"),
    # A thread handing work to the serving engine's loop, and a
    # ``threading`` wait; an ``Event.wait`` that blocks also runs
    # ``Condition.wait``, so it counts twice.
    ("engine wake-ups", "asyncio/base_events.py", "call_soon_threadsafe"),
    ("thread waits", "threading.py", "wait"),
)


def cpu_profile() -> cProfile.Profile:
    return cProfile.Profile(time.thread_time)


class ThreadProfiles:
    """One CPU-clock profiler per thread started while installed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._finished: list[cProfile.Profile] = []
        self.unfinished = 0
        self._thread_run = threading.Thread.run

    def install(self) -> None:
        profiles = self
        thread_run = self._thread_run

        def profiled_run(thread: threading.Thread) -> None:
            profile = cpu_profile()
            with profiles._lock:
                profiles.unfinished += 1
            profile.enable()
            try:
                thread_run(thread)
            finally:
                # Only the owning thread can stop its profiler with the
                # right clock; a thread still running at the end is
                # left out (and counted) rather than read half-open.
                profile.disable()
                with profiles._lock:
                    profiles.unfinished -= 1
                    profiles._finished.append(profile)

        threading.Thread.run = profiled_run

    def uninstall(self) -> None:
        threading.Thread.run = self._thread_run

    def merged(self, main: cProfile.Profile) -> pstats.Stats:
        with self._lock:
            finished = list(self._finished)
        stats = pstats.Stats(main)
        for profile in finished:
            stats.add(profile)
        return stats


def profile_round(
    workload: str, seed: int, seconds: float, timed_threads_only: bool = False
):
    """Run one round; returns ``(round result, merged stats, threads
    left out because they were still running)``. With
    ``timed_threads_only`` only threads started inside the timed region
    are profiled besides the main thread."""
    profiles = ThreadProfiles()
    main = cpu_profile()
    run_ops = rounds.run_ops

    def timed_only(stack, plan, ops, *rest):
        if ops is not plan.ops:  # the warm-up pass
            return run_ops(stack, plan, ops, *rest)
        if timed_threads_only:
            profiles.install()
        main.enable()
        try:
            return run_ops(stack, plan, ops, *rest)
        finally:
            main.disable()
            if timed_threads_only:
                profiles.uninstall()

    rounds.run_ops = timed_only
    if not timed_threads_only:
        profiles.install()
    try:
        result = rounds.run_round(workload, seed, seconds, traced=False)
    finally:
        profiles.uninstall()
        rounds.run_ops = run_ops
    return result, profiles.merged(main), profiles.unfinished


def _package(filename: str) -> str:
    """``repro.<package>`` for program code, else a coarse bucket."""
    marker = os.sep + os.path.join("src", "repro") + os.sep
    if marker in filename:
        rest = filename.split(marker, 1)[1]
        head = rest.split(os.sep, 1)[0]
        return "repro." + (head[:-3] if head.endswith(".py") else head)
    if filename.startswith(os.path.join(REPO_ROOT, "benchmarks")):
        return "(benchmark harness)"
    if filename.startswith("~") or filename.startswith("<"):
        return "(builtins)"
    return "(stdlib / site-packages)"


def _where(filename: str, line: int, name: str) -> str:
    if filename.startswith(REPO_ROOT):
        filename = os.path.relpath(filename, REPO_ROOT)
        prefix = os.path.join("src", "repro") + os.sep
        if filename.startswith(prefix):
            filename = filename[len(prefix):]
    elif os.sep in filename:
        filename = os.path.join("...", *filename.split(os.sep)[-2:])
    return f"{filename}:{name}" if line == 0 else f"{filename}:{line}:{name}"


def report(result: dict, stats: pstats.Stats, unfinished: int) -> str:
    rows = []
    by_package: dict[str, float] = {}
    for function, (_cc, calls, tottime, cumtime, callers) in stats.stats.items():
        rows.append((tottime, cumtime, calls, function))
        if function[0] == "~" and callers:
            # A built-in has no file: charge its time to whoever called
            # it (``sorted`` under ``_label_key`` is repro.obs's CPU).
            shares = [
                (_package(caller[0]), called[2])
                for caller, called in callers.items()
            ]
        else:
            shares = [(_package(function[0]), tottime)]
        for package, seconds in shares:
            by_package[package] = by_package.get(package, 0.0) + seconds
    total = sum(row[0] for row in rows)
    ok = result["succeeded"]
    lines = [
        f"{result['workload']} seed {result['seed']}: {ok} ok ops of "
        f"{result['attempted']} ({result['failed']} failed), "
        f"{result['wall_s']:.2f} s wall / {result['cpu_s']:.2f} s CPU under "
        f"the profiler; profiled CPU {total:.2f} s "
        f"({1000.0 * total / max(ok, 1):.3f} ms/op)",
    ]
    if unfinished:
        lines.append(
            f"({unfinished} thread(s) still running at the end were left out)"
        )
    lines += [
        "",
        "CPU self time by package (built-ins charged to their callers)",
        f"{'s':>9} {'share':>7}  package",
    ]
    for package, seconds in sorted(by_package.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"{seconds:9.3f} {100.0 * seconds / max(total, 1e-9):6.1f}%  {package}"
        )
    lines += [
        "",
        f"top {TOP_FUNCTIONS} functions by CPU self time",
        f"{'self s':>9} {'share':>7} {'cum s':>9} {'calls':>9}  function",
    ]
    for tottime, cumtime, calls, function in sorted(rows, reverse=True)[
        :TOP_FUNCTIONS
    ]:
        lines.append(
            f"{tottime:9.3f} {100.0 * tottime / max(total, 1e-9):6.1f}% "
            f"{cumtime:9.3f} {calls:9d}  {_where(*function)}"
        )
    return "\n".join(lines)


def count_report(result: dict, stats: pstats.Stats, unfinished: int) -> str:
    calls = {label: 0 for label, *_ in COUNTS}
    for (filename, _line, name), row in stats.stats.items():
        for label, where, function, *caller in COUNTS:
            if name == function and (
                filename == where if where == "~" else filename.endswith(where)
            ):
                calls[label] += (
                    sum(
                        counts[1]
                        for (_file, _at, by), counts in row[4].items()
                        if by == caller[0]
                    )
                    if caller
                    else row[1]
                )
    ok = max(result["succeeded"], 1)
    lines = [
        f"{result['workload']} seed {result['seed']}: {result['succeeded']} "
        f"ok ops of {result['attempted']} ({result['failed']} failed); "
        "calls per op over the timed region",
    ]
    if unfinished:
        lines.append(
            f"({unfinished} thread(s) still running at the end were left out)"
        )
    lines.append(f"{'count':<24} {'calls':>10} {'per op':>9}")
    for label in calls:
        lines.append(f"{label:<24} {calls[label]:>10d} {calls[label] / ok:>9.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=SIZING_SECONDS,
        help="length the round is sized for (sets the op count)",
    )
    parser.add_argument(
        "--counts",
        action="store_true",
        help="print calls per op of the COUNTS functions instead of CPU",
    )
    args = parser.parse_args(argv)
    result, stats, unfinished = profile_round(
        args.workload, args.seed, args.seconds, timed_threads_only=args.counts
    )
    render = count_report if args.counts else report
    print(render(result, stats, unfinished))
    for failure in result["failures"]:
        print(failure, file=sys.stderr)
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
