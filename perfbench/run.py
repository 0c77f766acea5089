"""Run one benchmark workload for one seed and print its result.

    python3 perfbench/run.py --workload annotate-long --seed 1 \\
        --seconds 40 --trace 0

Run from the repository root.  Builds the workload's world and request
stream in one process (``world.py``), then measures in a second one
(``measure.py``), both with ``PYTHONHASHSEED=0`` because the program's
output depends on the hash seed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Exits non-zero without a result when the sources are
missing or a step fails; with ``"correct": false`` and no metrics when
the correctness gate fails (status 1) or the run has too few samples to
name one of its percentiles (status 6, as in a serve-mixed traced run
below ``--seconds 30``).
Scratch files live under ``.perfbench-work/`` and are removed at the
end.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("annotate-long", "serve-mixed")

#: Wall-clock budget of one run, world building included.
BUDGET_SECONDS = 170.0


def run_step(command: List[str], env: dict, deadline: float, capture: bool) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise subprocess.TimeoutExpired(command, 0)
    return subprocess.run(
        command,
        env=env,
        cwd=str(ROOT),
        timeout=remaining,
        stdout=subprocess.PIPE if capture else sys.stderr,
        text=True,
    )


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"run.py: program sources not found at {source}", file=sys.stderr)
        return 2

    # A terminated run must not leave its child running: SystemExit
    # inside subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    deadline = time.monotonic() + BUDGET_SECONDS
    scratch = ROOT / ".perfbench-work"
    work = scratch / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    common = ["--workload", args.workload, "--seconds", str(args.seconds)]
    try:
        built = run_step(
            [sys.executable, str(HERE / "world.py"), *common,
             "--seed", str(args.seed), "--out", str(work)],
            env, deadline, capture=False,
        )
        if built.returncode != 0:
            print(f"run.py: building the world failed ({built.returncode})", file=sys.stderr)
            return 3
        measured = run_step(
            [sys.executable, str(HERE / "measure.py"), *common,
             "--trace", str(args.trace), "--dir", str(work),
             "--spans", str(scratch / f"{args.workload}.spans.jsonl")],
            env, deadline, capture=True,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: over the {BUDGET_SECONDS:g}s budget", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = measured.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if lines and lines[-1].startswith("{"):
        print(lines[-1])
    elif measured.returncode == 0:
        print("run.py: the measuring process printed no result", file=sys.stderr)
        return 5
    return measured.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
