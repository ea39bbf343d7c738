"""Freeze the seed-0 expectations the checker compares against.

    python3 perfbench/freeze.py

Runs every case of every workload (full and tiny lists) once at seed 0 and
writes perfbench/expected.json: per case id, the exit code, the sha256 of
exit code plus report bytes, the stated cohomology dims and the sha256 of the
input text.  Run it only on a commit whose reports are known good; a change
that keeps report bytes identical must not need it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import cases
    from check import digest, report_dims
    from run import execute

    frozen = {}
    for workload in cases.WORKLOADS:
        for tiny in (False, True):
            for case in cases.build(workload, 0, ROOT, tiny):
                _, code, out = execute(case)
                dims = report_dims(case.command, json.loads(out)) if code == 0 else None
                frozen[case.id] = {"code": code, "sha256": digest(out, code), "dims": dims,
                                   "input": hashlib.sha256(case.text.encode()).hexdigest()}
    path = HERE / "expected.json"
    lines = [f"{json.dumps(cid)}: {json.dumps(frozen[cid], sort_keys=True)}" for cid in sorted(frozen)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(frozen)} expectations to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
