"""Run one workload of the gateway benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet_rejoin --seed 1 --seconds 20 --trace 0

The inputs (training set, device fleet, pcaps) are synthesized from
``--seed``; the gateway is built from ``src/`` of this checkout.  With
``--trace 0`` the end-to-end metrics come from untraced iterations, their
times adjusted to a nominal host speed (``perfbench/speed.py``); with
``--trace 1`` untraced and traced iterations alternate and the per-layer
breakdown (raw self times) of the median traced iteration is reported.
Progress goes to standard error; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` (operations
that did not complete) and ``metrics``.  Scratch files live under
``.perfbench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"perfbench: no gateway sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(f"[{args.workload}] {line}", file=sys.stderr, flush=True)

    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workroot=ROOT / ".perfbench_work",
        log=log,
    )
    print(json.dumps({"shape": result.shape}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": result.units[name]}
                    for name, value in result.metrics.items()
                },
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
