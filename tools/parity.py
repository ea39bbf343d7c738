"""Print one line per CLI run: its id, exit code and the SHA-256 of its stdout
and of its stderr.

    python3 tools/parity.py OUT

Run it at two commits and compare the two OUT files with `diff`: a line that
differs names a run whose report bytes, messages or exit code moved.

The runs are every file in problems/ and problems/negative/ under each CLI
command, over the file's own field, Q, F_101 and F_2, with max_page
default/1/2/6, degree default/1/2/4/5 and json and text output; and SEEDS seeded
perturbations of each file (one to three scalars of the structure constants,
the module or the splitting redrawn from -2..2) under validate and hs over Q
and F_3, so that invalid inputs reach every fallback.  All runs go through
`cli.main` in one process, against the package in this checkout's src/.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rinehart import cli  # noqa: E402

FIELDS = (None, "rational", "101", "2")
MAX_PAGES = (None, "1", "2", "6")
DEGREES = (None, "1", "2", "4", "5")
FORMATS = ("json", "text")
SEEDS = 40
PERTURBED_COMMANDS = ("validate", "hs")
PERTURBED_FIELDS = ("rational", "3")
# the blocks whose scalars a perturbation may redraw
SCALARS = {"algebra": ("unit", "mult"), "algebroid": ("anchor", "bracket"),
           "module": ("action", "rho"), "extension": ("splitting",)}


def corpus() -> list:
    """The problem files, as paths relative to the checkout."""
    files = sorted((ROOT / "problems").glob("*.json")) + \
        sorted((ROOT / "problems" / "negative").glob("*.json"))
    return [str(p.relative_to(ROOT)) for p in files]


def runs(files=None) -> list:
    """(id, file, perturbation seed or None, CLI arguments) of each run, for the
    given corpus files or all of them."""
    out = []
    for name in corpus() if files is None else files:
        for command, fld, page, degree, fmt in product(cli.COMMANDS, FIELDS, MAX_PAGES,
                                                        DEGREES, FORMATS):
            flags = [command, name, "--format", fmt]
            for flag, value in (("--field", fld), ("--max-page", page), ("--degree", degree)):
                if value is not None:
                    flags += [flag, value]
            out.append((" ".join(flags), name, None, flags))
        for seed, command, fld in product(range(SEEDS), PERTURBED_COMMANDS, PERTURBED_FIELDS):
            flags = [command, "perturbed.json", "--format", "json", "--field", fld]
            out.append((f"{command} {name}#{seed} --field {fld}", name, seed, flags))
    return out


def perturbed(name: str, seed: int) -> dict:
    """The problem file name with one to three of its scalars redrawn, seeded by
    (name, seed)."""
    data = json.loads((ROOT / name).read_text(encoding="utf-8"))
    rng = random.Random(f"{name}#{seed}")
    leaves = []

    def walk(node):
        for key, value in enumerate(node):
            if isinstance(value, list):
                walk(value)
            elif type(value) in (int, str):
                leaves.append((node, key))

    for block, keys in SCALARS.items():
        if isinstance(data.get(block), dict):
            for key in keys:
                if isinstance(data[block].get(key), list):
                    walk(data[block][key])
    for _ in range(rng.randint(1, 3) if leaves else 0):
        node, key = rng.choice(leaves)
        node[key] = rng.randint(-2, 2)
    return data


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lines(selected) -> list:
    """The line of each run: id, exit code, SHA-256 of stdout and of stderr."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for run_id, name, seed, flags in selected:
            cwd = ROOT
            if seed is not None:
                cwd = Path(tmp)
                (cwd / "perturbed.json").write_text(json.dumps(perturbed(name, seed)),
                                                    encoding="utf-8")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.chdir(cwd), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(flags)
                except Exception as e:   # a traceback is a result too
                    code = f"raised {type(e).__name__}"
                    print(f"{type(e).__name__}: {e}", file=sys.stderr)
            out.append(f"{run_id}\t{code}\t{_sha(stdout.getvalue())}\t{_sha(stderr.getvalue())}")
    return out


def main(argv) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    result = lines(runs())
    with open(argv[0], "w", encoding="utf-8") as fh:
        fh.write("\n".join(result) + "\n")
    print(f"{len(result)} runs written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
