"""Output checker that does not trust the engine.

Every fact is computed here from closed forms, from the report bytes, or from
values frozen on the parent commit (`expected.json`, written by freeze.py):

- closed-form dims: abelian k^n has dim H^p = C(n,p); Heisenberg h_{2k+1} has
  C(2k,p) - C(2k,p-2) for p <= k and Poincare duality above; n_4 has the
  Kostant numbers 1,3,5,6,5,3,1 (Euler characteristic 0, duality); sl2 over Q
  has 1,0,0,1 (Whitehead).  `hs` is read through the antidiagonal totals of
  E_infinity, `env` through ext_dims;
- the Euler characteristic of every cohomology table is 0 (the cochain spaces
  are N * C(n,p)-dimensional and n >= 1);
- over F_101 no dim is smaller than over Q for the same input;
- every seed gives the dims frozen at seed 0, and wherever the input bytes
  are the seed-0 bytes, the report bytes and exit code are the frozen ones.
"""

from __future__ import annotations

import hashlib
import json
from math import comb


def closed_form(expect: dict) -> list | None:
    kind = expect.get("kind")
    if kind == "abelian":
        n = expect["n"]
        return [comb(n, p) for p in range(n + 1)]
    if kind == "heisenberg":
        k = expect["k"]
        n = 2 * k + 1
        low = [comb(2 * k, p) - (comb(2 * k, p - 2) if p >= 2 else 0) for p in range(k + 1)]
        return low + [low[n - p] for p in range(k + 1, n + 1)]
    if kind == "n4":
        return [1, 3, 5, 6, 5, 3, 1]
    if kind == "sl2":
        return [1, 0, 0, 1]
    return None


def report_dims(command: str, report: dict) -> list | None:
    """The cohomology dims a report states, or None for commands without them."""
    res = report.get("results")
    if res is None:
        return None
    if command in ("cohomology", "total"):
        return list(res["dims"])
    if command == "env":
        return list(res["ext_dims"])
    if command == "hs":
        totals = {}
        for key, d in res["e_infinity"].items():
            p, q = map(int, key.split(","))
            totals[p + q] = totals.get(p + q, 0) + d
        return [totals.get(s, 0) for s in range(max(totals, default=-1) + 1)]
    return None


def digest(output: str, code: int) -> str:
    return hashlib.sha256(f"{code}\n{output}".encode()).hexdigest()


def load_expected(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Checks one case's output against the frozen expectations and identities.

    `frozen` maps case id to {"code", "sha256", "dims", "input"}; the digest
    gate applies when the case's input bytes hash to the frozen "input"
    (always at seed 0, and for the corpus, whose inputs no seed changes).
    """

    def __init__(self, frozen: dict):
        self.frozen = frozen

    def check(self, case, code: int, output: str) -> list[str]:
        problems = []
        want = self.frozen.get(case.id)
        if want is None:
            return [f"{case.id}: no frozen expectation"]
        negative = case.expect.get("kind") == "negative"
        if negative and code not in (1, 2):
            problems.append(f"{case.id}: negative input ended in exit {code}")
        if code != want["code"]:
            problems.append(f"{case.id}: exit {code}, expected {want['code']}")
        same_input = hashlib.sha256(case.text.encode()).hexdigest() == want["input"]
        if same_input and digest(output, code) != want["sha256"]:
            problems.append(f"{case.id}: report bytes differ from the frozen digest")
        if code != 0 or negative:
            return problems
        dims = report_dims(case.command, json.loads(output))
        if dims is None:
            return problems
        if dims != want.get("dims"):
            problems.append(f"{case.id}: dims {dims} differ from seed 0's {want.get('dims')}")
        if sum((-1) ** p * d for p, d in enumerate(dims)) != 0:
            problems.append(f"{case.id}: Euler characteristic of {dims} is not 0")
        if case.field == "Q":
            cf = closed_form(case.expect)
            if cf is not None and dims != cf:
                problems.append(f"{case.id}: dims {dims}, closed form {cf}")
        return problems

    @staticmethod
    def cross_field(dims_by_id: dict) -> list[str]:
        """dims over F_101 >= dims over Q, entrywise, for each input run in both."""
        problems = []
        for cid, dims in dims_by_id.items():
            if not cid.endswith("@F_101"):
                continue
            q = dims_by_id.get(cid[: -len("@F_101")] + "@Q")
            if q is None or dims is None:
                continue
            if len(q) != len(dims) or any(a < b for a, b in zip(dims, q)):
                problems.append(f"{cid}: dims {dims} fall below Q's {q}")
        return problems
