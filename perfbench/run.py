"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload square --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``); the
lines before it, each starting with ``#``, give the sample counts, any
failures and the recorded environment.  A traced run also writes a
Chrome trace-event file to ``perfbench/out/``.  See
``perfbench/README.md``.

Maintenance modes: ``--write-golden`` regenerates the golden model
ledger of ``cm5-scalar``; ``--setup-probe`` is the fresh process the
benchmark starts to sample set-up time.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from svdbench.env import pin_environment  # noqa: E402


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="square")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the benchmark's tests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate the golden cm5-scalar model ledger")
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    pin_environment()
    from svdbench import env, runner
    from svdbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"available: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(runner.setup_seconds(args.workload, args.seed,
                                              args.scale)))
        return 0
    if args.write_golden:
        runner.write_golden()
        return 0
    result, info = runner.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=args.scale, trace_dir=HERE / "out")
    print("# " + json.dumps(info))
    print("# env " + json.dumps(env.environment_record(args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
