"""Output check: compare a run's CSV data rows with the stored reference values.

Values are compared with a relative tolerance, not byte for byte, because
the library may change results at the last-digit level (for example when
a loop over draws becomes a batched computation).  Non-numeric cells and
the learning counts (learn calls, iterations, converged draws) must match
exactly.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-7
ATOL = 1e-12
# Stored values keep this many significant digits, far below RTOL.
DIGITS = 12
# The per-iteration learning trace is stored as per-draw sums: its first
# KEY_COLUMNS columns (tau, alpha, m0, draw) identify a draw.
GROUPED = {"learn.csv": 4}
COUNT_KEYS = ("filtering.learn_calls", "filtering.learn_iters", "filtering.converged")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_rows(path: Path) -> tuple[list[str], list[list]]:
    """(header, data rows) of a CSV file; ``#`` comment lines are skipped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], [[_cell(c) for c in row] for row in rows[1:]]


def _group(rows: list[list], keys: int) -> list[list]:
    groups: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row[:keys])
        sums = groups.setdefault(key, [0] + [0.0] * (len(row) - keys))
        sums[0] += 1
        for j, v in enumerate(row[keys:], start=1):
            sums[j] += v
    return [list(k) + v for k, v in groups.items()]


def digest(paths: list[Path]) -> dict:
    """What the reference stores for a run's output files, keyed by file name."""
    out = {}
    for path in paths:
        header, rows = read_rows(path)
        keys = GROUPED.get(path.name)
        if keys is not None:
            header = header[:keys] + ["rows"] + [f"sum_{h}" for h in header[keys:]]
            rows = _group(rows, keys)
        out[path.name] = {"header": header, "rows": rows}
    return out


def rounded(d: dict) -> dict:
    """A digest with floats cut to DIGITS significant digits, for storage."""
    def cut(v):
        return float(f"{v:.{DIGITS}g}") if isinstance(v, float) else v

    return {
        name: {"header": f["header"], "rows": [[cut(v) for v in row] for row in f["rows"]]}
        for name, f in d.items()
    }


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def compare(ref: dict, got: dict) -> list[str]:
    """Mismatches between a reference digest and a run's digest (empty: pass)."""
    problems = []
    if sorted(ref) != sorted(got):
        return [f"output files {sorted(got)} != reference {sorted(ref)}"]
    for name, r in ref.items():
        g = got[name]
        if r["header"] != g["header"]:
            problems.append(f"{name}: header {g['header']} != {r['header']}")
            continue
        if len(r["rows"]) != len(g["rows"]):
            problems.append(f"{name}: {len(g['rows'])} rows != {len(r['rows'])}")
            continue
        for i, (rrow, grow) in enumerate(zip(r["rows"], g["rows"])):
            for j, (a, b) in enumerate(zip(rrow, grow)):
                if not _same(a, b):
                    problems.append(f"{name} row {i} {r['header'][j]}: {b!r} != reference {a!r}")
    return problems


def compare_counts(ref: dict, counts: dict) -> list[str]:
    return [
        f"{k}: {counts[k]} != reference {ref[k]}"
        for k in COUNT_KEYS
        if counts.get(k) != ref[k]
    ]


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
