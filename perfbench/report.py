"""Every workload, untraced and traced, on the default and held-out seeds.

    python3 perfbench/report.py [--seeds 1,2]

Run from the repository root.  Each run is a fresh process of ``run.py``,
one after the other, over every workload and for the run length that
``BENCHMARK.json`` declares.  Prints every end-to-end metric by name with its unit
and sample count, then the per-layer metrics of the traced run, per
workload and seed.  Exits 1 if any run is not correct: a failed output
check, an exactness mismatch, or a traced span tree that fails its checks.

Seed 1 is the default seed; seed 2 is held out, for checking a claimed
gain on inputs the change was not written against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 180


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds.split(","):
            for trace in ("0", "1"):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", seed, "--seconds", str(spec["run_seconds"]), "--trace", trace],
                    cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                )
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
                print("\n".join(lines[:-1]) if result else proc.stdout, end="\n")
                if proc.stderr:
                    print(proc.stderr, end="", file=sys.stderr)
                if result is None:
                    all_correct = False
                    print(f"  run failed with exit code {proc.returncode}")
                    continue
                all_correct &= result["correct"]
                print(
                    f"  correct={result['correct']} attempted={result['attempted']} "
                    f"failed={result['failed']}\n"
                )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
