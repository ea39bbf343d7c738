"""tools/parity.py prints one line per CLI run so that two commits can be
compared with diff: its run list must cover every corpus file under every
command, and its lines must not depend on anything but the code and the run."""

import importlib.util
from pathlib import Path

from rinehart.cli import COMMANDS

ROOT = Path(__file__).resolve().parents[1]


def load_parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_name_every_corpus_file_and_command():
    parity = load_parity()
    files = sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("problems/**/*.json"))
    assert len(files) > 15 and sorted(parity.corpus()) == files
    runs = parity.runs()
    ids = [run_id for run_id, *_ in runs]
    assert len(set(ids)) == len(ids)
    covered = {(name, flags[0]) for _, name, _, flags in runs}
    assert {(name, command) for name in files for command in COMMANDS} <= covered
    assert {name for _, name, seed, _ in runs if seed is not None} == set(files)


def test_two_calls_give_the_same_lines():
    parity = load_parity()
    runs = parity.runs(["problems/heisenberg3.json"])
    first = parity.lines(runs)
    assert len(first) == len(runs)
    assert [line.split("\t")[0] for line in first] == [run_id for run_id, *_ in runs]
    assert {line.split("\t")[1] for line in first} == {"0", "1", "2"}
    assert parity.lines(runs) == first
