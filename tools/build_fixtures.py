#!/usr/bin/env python3
"""Regenerate the bundled data files under src/diracsp/data/.

Deterministic; run from the repository root:

    python tools/build_fixtures.py

The marriage network is the classic 15-family Renaissance dataset with the
families in alphabetical order.  The coastal tessellation is a 7 x 19
triangulated strip (anti-diagonal split) with four interior diagonals
removed (square gaps/islands) and 22 boundary links pruned, landing on
exactly 133 nodes, 322 links and 186 triangles.
"""

import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diracsp.complexes import betti_numbers, build_complex  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "src" / "diracsp" / "data"

MARRIAGES = [
    ("Acciaiuoli", "Medici"),
    ("Albizzi", "Ginori"),
    ("Albizzi", "Guadagni"),
    ("Albizzi", "Medici"),
    ("Barbadori", "Castellani"),
    ("Barbadori", "Medici"),
    ("Bischeri", "Guadagni"),
    ("Bischeri", "Peruzzi"),
    ("Bischeri", "Strozzi"),
    ("Castellani", "Peruzzi"),
    ("Castellani", "Strozzi"),
    ("Guadagni", "Lamberteschi"),
    ("Guadagni", "Tornabuoni"),
    ("Medici", "Ridolfi"),
    ("Medici", "Salviati"),
    ("Medici", "Tornabuoni"),
    ("Pazzi", "Salviati"),
    ("Peruzzi", "Strozzi"),
    ("Ridolfi", "Strozzi"),
    ("Ridolfi", "Tornabuoni"),
]

FAMILIES = sorted({f for pair in MARRIAGES for f in pair})


def build_florentine():
    idx = {f: i for i, f in enumerate(FAMILIES)}
    links = [(idx[a], idx[b]) for a, b in MARRIAGES]
    K = build_complex(links, node_count=len(FAMILIES))
    assert K.counts == (15, 20, 0), K.counts
    K.save(DATA / "florentine_marriage.json")
    print("florentine_marriage:", K.counts, "betti", betti_numbers(K))


ROWS, COLS = 7, 19
HOLE_CELLS = [(2, 4), (2, 9), (2, 14), (4, 7)]  # cells whose diagonal is removed
BOTTOM_PRUNE = [2, 6, 10, 14]  # bottom-row horizontal links removed


def _vid(r, c):
    return r * COLS + c


def build_coastal():
    links = set()
    triangles = []
    for r in range(ROWS):
        for c in range(COLS - 1):
            links.add((_vid(r, c), _vid(r, c + 1)))  # horizontal
    for r in range(ROWS - 1):
        for c in range(COLS):
            links.add((_vid(r, c), _vid(r + 1, c)))  # vertical
    for r in range(ROWS - 1):
        for c in range(COLS - 1):
            links.add(tuple(sorted((_vid(r, c + 1), _vid(r + 1, c)))))  # diagonal
            a, b, cc, d = _vid(r, c), _vid(r, c + 1), _vid(r + 1, c), _vid(r + 1, c + 1)
            triangles.append(tuple(sorted((a, b, cc))))
            triangles.append(tuple(sorted((b, cc, d))))

    removed_links = set()
    for r, c in HOLE_CELLS:  # interior square gaps: drop the diagonal
        removed_links.add(tuple(sorted((_vid(r, c + 1), _vid(r + 1, c)))))
    for c in range(COLS - 1):  # prune the whole top boundary
        removed_links.add((_vid(0, c), _vid(0, c + 1)))
    for c in BOTTOM_PRUNE:  # and a few bottom-boundary links
        removed_links.add((_vid(ROWS - 1, c), _vid(ROWS - 1, c + 1)))

    links -= removed_links
    triangles = [
        t
        for t in triangles
        if all(
            f not in removed_links
            for f in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
        )
    ]
    K = build_complex(sorted(links), triangles, ROWS * COLS)
    assert K.counts == (133, 322, 186), K.counts
    assert betti_numbers(K) == (1, 4, 0), betti_numbers(K)
    K.save(DATA / "coastal_tessellation.json")
    print("coastal_tessellation:", K.counts, "betti", betti_numbers(K))
    return K


def build_coastal_flow(K):
    """A smooth swirl around the grid center sampled on the links."""
    cy, cx = (ROWS - 1) / 2.0, (COLS - 1) / 2.0
    with open(DATA / "coastal_tessellation_flow.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["block", "index", "value"])
        for i, (a, b) in enumerate(K.links.tolist()):
            ra, ca = divmod(a, COLS)
            rb, cb = divmod(b, COLS)
            my, mx = (ra + rb) / 2.0 - cy, (ca + cb) / 2.0 - cx
            field = (-my, mx)  # rigid rotation about the center
            d = (cb - ca, rb - ra)  # oriented a -> b (a < b)
            value = (field[0] * d[0] + field[1] * d[1]) / 8.0
            w.writerow(["link", i, repr(value)])
    print("coastal_tessellation_flow.csv written")


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    build_florentine()
    K = build_coastal()
    build_coastal_flow(K)
