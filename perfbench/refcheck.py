"""Reference outputs: how they are stored and how new outputs are compared.

An artifact (a CSV, a report, a JSON document, a command's stdout) is
split into its numbers and its text skeleton, the text with every number
replaced by ``#``.  Its reference holds the sha256 of the artifact, the
sha256 of the skeleton and its numbers in one of two forms:

* ``exact``: every number, column by column for a CSV.  Runs of equal
  values and exact arithmetic progressions are stored as
  ``[first, step, count]``, so a day at 1 s stays small.
* ``stats``: per column the count, minimum, maximum, sum and a
  row-weighted sum, with the summed tolerance of the column.  Used where
  storing every number for every pool entry would be too large
  (``fleet_minutely``).  It catches any change of the extremes and any
  systematic or large change; a small change confined to a few rows can
  pass it.

An artifact whose bytes equal the reference matches.  Otherwise the
skeleton must be equal and every number must lie within one unit in the
6th significant digit of the reference.  Text meant for people is
printed at 5 significant digits (power factors at 4 decimals); there one
unit in that last printed digit is allowed.
"""

from __future__ import annotations

import hashlib
import math
import re

NUM_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")
_FOUR_DECIMALS = re.compile(r"-?\d\.\d{4}")
_CHECK_SLACK = 1e-12  # relative float slack on summed statistics


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _split(text: str) -> tuple[str, list[str]]:
    return NUM_RE.sub("#", text), NUM_RE.findall(text)


def _unit(value: float, digit: int) -> float:
    """One unit in the ``digit``-th significant digit of ``value``."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - (digit - 1))


def _tolerance(ref: float, new_text: str, human: bool) -> float:
    tol = _unit(ref, 6)
    if human:
        tol = max(tol, _unit(ref, 5))
        if _FOUR_DECIMALS.fullmatch(new_text):
            tol = max(tol, 1e-4)
    return tol * (1.0 + 1e-9)


def _is_human(name: str) -> bool:
    return name.endswith(".txt")


def _columns(name: str, text: str, numbers: list[str]) -> list[list[str]]:
    """Numbers grouped by CSV column; one group for any other artifact."""
    if name.endswith(".csv") and numbers:
        ncols = text.split("\n", 1)[0].count(",") + 1
        if len(numbers) % ncols == 0:
            return [numbers[c::ncols] for c in range(ncols)]
    return [numbers]


def _encode_runs(values: list[float]) -> list:
    out: list = []
    i, n = 0, len(values)
    while i < n:
        if i + 2 < n:
            first, step = values[i], values[i + 1] - values[i]
            j = i + 1
            while j < n and values[j] == first + step * (j - i):
                j += 1
            if j - i >= 3:
                out.append([first, step, j - i])
                i = j
                continue
        out.append(values[i])
        i += 1
    return out


def _decode_runs(runs: list) -> list[float]:
    out: list[float] = []
    for item in runs:
        if isinstance(item, list):
            first, step, count = item
            out.extend(first + step * k for k in range(count))
        else:
            out.append(item)
    return out


def _stats(values: list[float], human: bool) -> list[float]:
    weights = [1 + k % 7 for k in range(len(values))]
    tols = [_tolerance(v, "", human) for v in values]
    return [
        len(values),
        min(values),
        max(values),
        math.fsum(values),
        math.fsum(w * v for w, v in zip(weights, values)),
        math.fsum(tols),
        math.fsum(w * t for w, t in zip(weights, tols)),
        math.fsum(w * abs(v) for w, v in zip(weights, values)),
    ]


def make_reference(name: str, text: str, mode: str) -> dict:
    """Reference of one artifact; ``mode`` is ``exact`` or ``stats``."""
    skeleton, numbers = _split(text)
    columns = [[float(x) for x in col] for col in _columns(name, text, numbers)]
    ref = {"sha256": sha256(text), "skeleton": sha256(skeleton), "mode": mode}
    if mode == "exact":
        ref["columns"] = [_encode_runs(col) for col in columns]
    else:
        ref["columns"] = [_stats(col, _is_human(name)) if col else [] for col in columns]
    return ref


def mismatches(name: str, text: str, ref: dict) -> list[str]:
    """Why ``text`` departs from ``ref``; empty when it matches."""
    if sha256(text) == ref["sha256"]:
        return []
    skeleton, numbers = _split(text)
    if sha256(skeleton) != ref["skeleton"]:
        return [f"{name}: text outside the numbers differs"]
    human = _is_human(name)
    columns = _columns(name, text, numbers)
    if len(columns) != len(ref["columns"]):
        return [f"{name}: {len(columns)} columns, reference has {len(ref['columns'])}"]
    problems = []
    for c, (col, stored) in enumerate(zip(columns, ref["columns"])):
        if ref["mode"] == "exact":
            expected = _decode_runs(stored)
            if len(expected) != len(col):
                problems.append(f"{name}[col {c}]: {len(col)} values, reference {len(expected)}")
                continue
            for k, (got, want) in enumerate(zip(col, expected)):
                value = float(got)
                same_nan = math.isnan(value) and math.isnan(want)
                if not (same_nan or abs(value - want) <= _tolerance(want, got, human)):
                    problems.append(f"{name}[col {c}, #{k}]: {got} vs reference {want!r}")
                    break
        elif col:
            problems.extend(_stats_mismatch(f"{name}[col {c}]", col, stored, human))
    return problems


def _stats_mismatch(where: str, col: list[str], stored: list[float], human: bool) -> list[str]:
    n, lo, hi, total, wtotal, tol_sum, wtol_sum, wabs = stored
    got = _stats([float(x) for x in col], human)
    slack = _CHECK_SLACK * wabs
    checks = (
        ("count", got[0] == n),
        ("min", abs(got[1] - lo) <= _tolerance(lo, "", human)),
        ("max", abs(got[2] - hi) <= _tolerance(hi, "", human)),
        ("sum", abs(got[3] - total) <= tol_sum + slack),
        ("weighted sum", abs(got[4] - wtotal) <= wtol_sum + slack),
    )
    return [f"{where}: {label} departs from the reference" for label, ok in checks if not ok]
