"""Command line of the end-to-end benchmark.

Three ways in, one code path underneath (every round is a fresh child
process running :func:`benchmarks.e2e.rounds.run_round`):

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    The contract of ``BENCHMARK.json``: one workload, last line of
    standard output is one JSON object. ``--trace 0`` reports the
    bounded end-to-end metrics (over the samples of three rounds),
    ``--trace 1`` the per-layer metrics of one traced round.

``PYTHONPATH=src python -m benchmarks.e2e --seed N``
    All four workloads, three interleaved rounds (``A B C D`` three
    times) plus one traced round each; prints every metric by name
    with unit and sample count, appends a summary to
    ``out/history.jsonl`` and exits non-zero on any failed operation.
    ``--quick`` runs one round at a tenth of the op counts;
    ``--check-repeat`` runs two full sets and fails unless they agree
    within the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
# Runnable as a plain script from a checkout: the program lives in
# ``src/`` and this package is imported by its full name.
for _path in (os.path.join(REPO_ROOT, "src"), REPO_ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import OUT_DIR  # noqa: E402 - after the path set-up
from benchmarks.e2e.stats import (  # noqa: E402
    agree_within,
    environment_stamp,
    pooled_metrics,
    worsening,
)
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

#: Timed rounds per workload; :func:`summarize` makes one value of them.
ROUNDS = 3
#: A round that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0

WORKLOAD_NAMES = tuple(WORKLOADS)

#: The issue's names for the same measurements on ``gen_concurrent``,
#: where a "turn" is one generation.
GEN_ALIASES = {
    "turns_per_s": "gen_per_s",
    "turn_ms_p50": "gen_ms_p50",
    "turn_ms_p95": "gen_ms_p95",
}
#: Metrics measured on some workloads only (everything else: on all).
ONLY_ON = {
    "turn_ms_p99": ("chat_repeat",),
    "write_ms_p50": ("dash_write_mix",),
    "ttft_ms_p50": ("gen_concurrent",),
    "ttft_ms_p95": ("gen_concurrent",),
}
#: Which sample count stands beside which metric.
SAMPLES_OF = {
    "turn_ms_p50": "turns",
    "turn_ms_p95": "turns",
    "turn_ms_p99": "turns",
    "write_ms_p50": "writes",
    "ttft_ms_p50": "ttft",
    "ttft_ms_p95": "ttft",
}


def load_contract() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- child rounds ------------------------------------------------------------


def run_child(workload: str, seed: int, round_seconds: float, traced: bool) -> dict:
    """Run one round in a fresh interpreter and return its result.

    The cache manager, tracer and metrics registry are process-global,
    so a fresh process is the only clean slate; it is also what makes
    ``peak_rss_mb`` and ``setup_s`` per-round measurements.
    """
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(round_seconds),
        "--trace", "1" if traced else "0",
    ]
    done = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"round of {workload} exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_main(args: argparse.Namespace) -> int:
    from benchmarks.e2e.rounds import run_round

    result = run_round(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result))
    return 0


# -- aggregation ---------------------------------------------------------------


def summarize(rounds: list[dict]) -> dict:
    """One run: its rounds' metrics (:func:`stats.pooled_metrics`), totals
    and failures."""
    metrics, samples = pooled_metrics(rounds)
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "failures": [f for r in rounds for f in r["failures"]][:5],
        "truncated": any(r["attempted"] < r["ops"] for r in rounds),
    }


def report_failures(workload: str, summary: dict) -> None:
    if summary["truncated"]:
        print(
            f"{workload}: a round hit its time limit before its last op; "
            "counts are not comparable",
            file=sys.stderr,
        )
    for failure in summary["failures"]:
        print(f"{workload}: FAILED {failure}", file=sys.stderr)


# -- the BENCHMARK.json contract -----------------------------------------------


def driver_main(args: argparse.Namespace) -> int:
    contract = load_contract()
    round_seconds = args.seconds / ROUNDS
    untraced = [
        run_child(args.workload, args.seed, round_seconds, False)
        for _ in range(1 if args.trace else ROUNDS)
    ]
    summary = summarize(untraced)
    if args.trace:
        traced = run_child(args.workload, args.seed, round_seconds, True)
        summary["attempted"] += traced["attempted"]
        summary["failed"] += traced["failed"]
        summary["failures"] += traced["failures"]
        values = {
            **{k: v or 0.0 for k, v in summary["metrics"].items()},
            **traced["layers"],
            "harness.trace_overhead_ratio": traced["wall_s"] / untraced[0]["wall_s"],
        }
        wanted = contract["per_layer"]
    else:
        values = summary["metrics"]
        wanted = contract["end_to_end"]
    report_failures(args.workload, summary)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(
            f"{args.workload}: --seconds {args.seconds} gives too few samples "
            f"for {missing}",
            file=sys.stderr,
        )
        return 2
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


# -- the full report -------------------------------------------------------------


def run_set(seed: int, seconds: float, rounds: int) -> dict[str, dict]:
    """``rounds`` interleaved rounds of every workload, summarized."""
    collected: dict[str, list[dict]] = {name: [] for name in WORKLOAD_NAMES}
    for number in range(rounds):
        for name in WORKLOAD_NAMES:
            print(f"  round {number + 1}/{rounds} {name} ...", file=sys.stderr)
            collected[name].append(run_child(name, seed, seconds / ROUNDS, False))
    return {name: summarize(results) for name, results in collected.items()}


def _format(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def print_end_to_end(name: str, summary: dict, flag: str, units: dict) -> None:
    print(f"\n== {name}{flag}: end-to-end (over the run's rounds) ==")
    for metric, value in summary["metrics"].items():
        if name not in ONLY_ON.get(metric, (name,)):
            continue
        shown = GEN_ALIASES.get(metric, metric) if name == "gen_concurrent" else metric
        count = summary["samples"].get(SAMPLES_OF.get(metric, ""), None)
        samples = f"  n={count}" if count is not None else ""
        note = "  (too few samples beyond it)" if value is None and count else ""
        print(f"{shown:<16}{_format(value):>14} {units[metric]:<6}{samples}{note}")


def print_layers(name: str, traced: dict, overhead: float, units: dict) -> None:
    print(f"\n== {name}: per-layer (traced round, {traced['spans']} spans) ==")
    layers = {**traced["layers"], "harness.trace_overhead_ratio": overhead}
    for metric in sorted(layers):
        print(f"{metric:<32}{layers[metric]:>14.4f} {units.get(metric, '')}")
    print()
    print(traced["layer_table"])
    print(f"spans written to {traced['trace_file']}")


def check_repeat(first: dict, second: dict, contract: dict) -> list[str]:
    """Disagreements between two sets, one line each."""
    problems = []
    for name in WORKLOAD_NAMES:
        for metric in contract["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]
            b = second[name]["metrics"][metric["name"]]
            change = worsening(a, b, metric["better"])
            verdict = agree_within(a, b, metric["better"], metric["bound"])
            print(
                f"{name:<16}{metric['name']:<16}{a:>12.4f}{b:>12.4f}"
                f"{change:>+9.1%}  bound {metric['bound']:.0%}  "
                f"{'ok' if verdict else 'DISAGREE'}"
            )
            if not verdict:
                problems.append(f"{name}.{metric['name']}")
    return problems


def full_main(args: argparse.Namespace) -> int:
    contract = load_contract()
    seconds = args.seconds or float(contract["run_seconds"])
    rounds = ROUNDS
    flag = ""
    if args.quick:
        seconds, rounds, flag = seconds / 10.0, 1, " [quick]"
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    stamp = environment_stamp(REPO_ROOT)
    print(f"environment: {json.dumps(stamp)}", file=sys.stderr)

    first = run_set(args.seed, seconds, rounds)
    failed = sum(summary["failed"] for summary in first.values())
    for name, summary in first.items():
        report_failures(name, summary)
        print_end_to_end(name, summary, flag, units)

    record = {"stamp": stamp, "seed": args.seed, "quick": args.quick,
              "seconds": seconds, "workloads": {n: s["metrics"] for n, s in first.items()}}
    if args.check_repeat:
        second = run_set(args.seed, seconds, rounds)
        failed += sum(summary["failed"] for summary in second.values())
        print("\n== repeat check: first set, second set, change ==")
        problems = check_repeat(first, second, contract)
        record["repeat"] = {n: s["metrics"] for n, s in second.items()}
        record["disagreements"] = problems
    else:
        problems = []
        record["layers"] = {}
        for name in WORKLOAD_NAMES:
            print(f"  traced round {name} ...", file=sys.stderr)
            # Back to back, so the ratio compares like with like.
            untraced = run_child(name, args.seed, seconds / ROUNDS, False)
            traced = run_child(name, args.seed, seconds / ROUNDS, True)
            failed += untraced["failed"] + traced["failed"]
            overhead = traced["wall_s"] / untraced["wall_s"]
            print_layers(name, traced, overhead, units)
            record["layers"][name] = {
                **traced["layers"], "harness.trace_overhead_ratio": overhead
            }

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "history.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    if failed:
        print(f"\nFAILED: {failed} operations failed or gave wrong output")
        return 1
    if problems:
        print(f"\nFAILED: sets disagree beyond their bounds on {problems}")
        return 1
    print("\nall operations correct")
    return 0


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload, over all rounds "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round at a tenth of the op counts")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets and compare them within the bounds")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print(
            f"benchmarks/e2e measures the program under src/repro; "
            f"{REPO_ROOT} has none",
            file=sys.stderr,
        )
        return 2
    if args.child:
        return child_main(args)
    if args.workload is not None:
        if args.seconds is None:
            args.seconds = float(load_contract()["run_seconds"])
        return driver_main(args)
    return full_main(args)


if __name__ == "__main__":
    sys.exit(main())
