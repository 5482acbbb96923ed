"""Regenerate ``reference.json``: every op output a run can check.

Run from the repository root at the commit whose outputs are to be
pinned::

    python3 perfbench/pin.py [workload ...]

It runs every pinned op input of each named workload (all four by
default) serially and records the outputs in their JSON form.  The
Figure-4 pool must also pass the paper's oracle.  Rebuild the lint
corpus first when re-pinning at a new commit::

    git archive --format=tar HEAD src/repro | gzip -n -9 > perfbench/corpus/src.tar.gz
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _revision() -> str:
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def main(argv: list) -> int:
    names = argv or list(workloads.WORKLOAD_TYPES)
    reference = (
        workloads.load_reference() if workloads.REFERENCE.exists() else {}
    )
    reference["commit"] = _revision()
    for name in names:
        workload = workloads.make(name, 0, ROOT)
        workload.setup()
        outputs = {}
        checked = []
        try:
            for op in workload.pool():
                result = workload.run(op)
                outputs[workload.key(op)] = json.loads(
                    json.dumps(workload.observe(op, result))
                )
                checked.append((op, result))
                print(name, op, file=sys.stderr)
        finally:
            workload.close()
        problems = workload.check_run(checked)
        if problems:
            print(f"{name}: pinned outputs fail the oracle: {problems}", file=sys.stderr)
            return 1
        reference[name] = {"outputs": outputs}
    with open(workloads.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
