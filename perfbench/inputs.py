"""Seeded inputs for the workloads, built by benchmark code alone.

Each workload has a fixed size schedule; the seed only chooses the points,
the raw coordinate labels and the function values.  Every seed therefore
asks for about the same amount of work, and a change to the library's own
generators cannot change what is measured.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

Point = tuple[int, ...]

# Raw coordinates are distinct random labels per axis, so the CLI has real
# canonicalization work to do and point order differs from generation order.
LABEL_RANGE = 10**6
# Random values have denominators 1..12; additive tables use divisors of 12
# only, so their sums keep denominators of at most 12 as well.
MAX_DENOMINATOR = 12
TABLE_DENOMINATORS = (1, 2, 3, 4, 6, 12)

SURVEY_ARGV = ["search", "--grid", "3", "3", "2", "--max-size", "6", "--workers", "1"]
SURVEY_ROWS = 804
PARITY_ARGV = ["search", "--grid", "2", "2", "3", "--max-size", "8"]
PARITY_ROWS = 129
SURVEY_WARMUP_ARGV = ["search", "--grid", "2", "2", "2", "--max-size", "4"]


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the files it reads, and what the checks need."""

    kind: str
    argv: tuple[str, ...]
    points: tuple[Point, ...]
    values: dict | None = None
    files: tuple[tuple[str, str], ...] = ()


def _labels(rng: random.Random, count: int) -> list[int]:
    return rng.sample(range(-LABEL_RANGE, LABEL_RANGE), count)


def _relabel(rng: random.Random, points: list[Point], extents: tuple[int, ...]) -> list[Point]:
    labels = [_labels(rng, e) for e in extents]
    return [tuple(labels[a][p[a]] for a in range(len(p))) for p in points]


def dense_set(rng: random.Random, side: int, n: int) -> list[Point]:
    """n distinct points of a side^3 box.  More than 3*side - 2 points exceed
    the rank of the slice matrix, so every such set is non-basic."""
    cells = rng.sample(range(side ** 3), n)
    pts = [(c // (side * side), c // side % side, c % side) for c in cells]
    return _relabel(rng, pts, (side, side, side))


def sparse_set(rng: random.Random, n: int, box: int) -> list[Point]:
    """n distinct random points of a box^3 box; with box well above n most
    slices hold one point and the set is usually basic."""
    cells = rng.sample(range(box ** 3), n)
    pts = [(c // (box * box), c // box % box, c % box) for c in cells]
    return _relabel(rng, pts, (box, box, box))


def lightning_set(rng: random.Random, l: int) -> list[Point]:
    """Planar closed lightning with 2l vertices: a zigzag over shuffled u and
    v values, so each in-plane line holds exactly two vertices.  Non-basic
    with a one-dimensional kernel."""
    us = _labels(rng, l)
    vs = _labels(rng, l)
    normal = rng.randrange(3)
    level = rng.randrange(-LABEL_RANGE, LABEL_RANGE)
    u_axis, v_axis = [a for a in range(3) if a != normal]
    out = []
    for i in range(l):
        for u, v in ((us[i], vs[i]), (us[i], vs[(i + 1) % l])):
            p = [0, 0, 0]
            p[normal], p[u_axis], p[v_axis] = level, u, v
            out.append(tuple(p))
    return out


EXAMPLE1 = ((0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1))


def peelable_with_example1(rng: random.Random, n: int, copies: int) -> list[Point]:
    """Sparse random points that peel away completely, plus `copies` copies of
    example1 on coordinate values nothing else uses.

    Each random point takes at least one coordinate value no earlier point
    has, so peeling in reverse order of generation strips all of them.  The
    copies remain: every slice of a copy holds two of its points, and its
    slice graph is K4, so the fast route decides the set as basic.
    """
    extra = n - 4 * copies
    pools = [_labels(rng, 2 * copies + extra) for _ in range(3)]
    out = []
    for k in range(copies):
        for q in EXAMPLE1:
            out.append(tuple(pools[a][2 * k + q[a]] for a in range(3)))
    fresh = [2 * copies] * 3
    taken: list[list[int]] = [[], [], []]  # values the random points use so far
    for _ in range(extra):
        new_axis = rng.randrange(3)
        p = []
        for a in range(3):
            if a == new_axis or not taken[a] or rng.random() < 0.35:
                value = pools[a][fresh[a]]
                fresh[a] += 1
                taken[a].append(value)
            else:
                value = rng.choice(taken[a])
            p.append(value)
        out.append(tuple(p))
    rng.shuffle(out)
    return out


def random_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-60, 61), rng.randrange(1, MAX_DENOMINATOR + 1))


def additive_values(rng: random.Random, points: list[Point]) -> dict:
    """f = f1(x) + f2(y) + f3(z) for random rational tables: always decomposable."""
    tables = [{} for _ in range(3)]
    for p in points:
        for a in range(3):
            if p[a] not in tables[a]:
                tables[a][p[a]] = Fraction(rng.randrange(-60, 61), rng.choice(TABLE_DENOMINATORS))
    return {p: sum((tables[a][p[a]] for a in range(3)), Fraction(0)) for p in points}


def _points_text(points, as_json: bool) -> str:
    if as_json:
        return json.dumps({"dim": 3, "points": [list(p) for p in points]})
    return "".join(" ".join(map(str, p)) + "\n" for p in points)


def _values_text(values: dict) -> str:
    return "".join(" ".join(map(str, p)) + f" {v}\n" for p, v in values.items())


def _check_op(kind, i, points, work: Path, flags) -> Op:
    path = work / f"{kind}{i:03d}.{'json' if i % 2 else 'txt'}"
    return Op(kind, ("check", str(path), *flags, "--json"), tuple(points),
              files=((str(path), _points_text(points, i % 2 == 1)),))


def oracle_ops(seed: int, work: Path) -> list[Op]:
    """36 dense sets (sides 3..14, three sizes each, 8 to 250 points), 40 sparse
    sets (8..47 points in boxes of side 4n), 40 planar lightnings (l = 4..50).
    Sizes are skewed small: a few large sets, many small ones."""
    rng = random.Random(f"oracle:{seed}")
    ops = []
    for side in range(3, 15):
        lo, hi = 3 * side - 1, min(side ** 3, 250)
        top = 1.0 if side % 4 == 2 else 0.5
        for frac in (0.0, 0.15, top):
            ops.append(("dense", dense_set(rng, side, lo + round(frac * (hi - lo)))))
    for i in range(40):
        n = 8 + i
        ops.append(("sparse", sparse_set(rng, n, 4 * n)))
    for i in range(40):
        ops.append(("lightning", lightning_set(rng, 4 + round(46 * (i / 39) ** 5))))
    return [_check_op(kind, i, pts, work, ()) for i, (kind, pts) in enumerate(ops)]


def fast_ops(seed: int, work: Path) -> list[Op]:
    """120 peelable sparse sets of 40..250 points, skewed small, with 1..4
    example1 copies."""
    rng = random.Random(f"fast:{seed}")
    ops = []
    for i in range(120):
        n = 40 + round(210 * (i / 119) ** 3)
        pts = peelable_with_example1(rng, n, 1 + i % 4)
        ops.append(_check_op("fast", i, pts, work, ("--fast",)))
    return ops


def decompose_ops(seed: int, work: Path) -> list[Op]:
    """60 additive functions (solve path) on dense sets (sides 3..7) and sparse
    sets of 9..67 points, and 60 random functions (witness path) on dense
    non-basic sets and planar lightnings (l = 4..18).  Values are rationals
    with denominators up to 12."""
    rng = random.Random(f"decompose:{seed}")
    specs = []
    for i in range(60):
        side = 3 + i // 12
        if i % 2:
            specs.append(("additive", sparse_set(rng, 8 + i, 3 * (8 + i))))
        else:
            n = min(side ** 3, 3 * side + i % 12 * side)
            specs.append(("additive", dense_set(rng, side, n)))
    for i in range(60):
        side = 3 + i // 12
        if i % 2:
            specs.append(("witness", lightning_set(rng, 4 + i // 4)))
        else:
            n = min(side ** 3, 3 * side - 1 + i % 12 * side // 3)
            specs.append(("witness", dense_set(rng, side, n)))
    ops = []
    for i, (kind, pts) in enumerate(specs):
        if kind == "additive":
            values = additive_values(rng, pts)
        else:
            values = {p: random_value(rng) for p in pts}
        as_json = i % 3 == 1
        ppath = work / f"dec{i:03d}.{'json' if as_json else 'txt'}"
        vpath = work / f"dec{i:03d}.values"
        ops.append(Op(kind, ("decompose", str(ppath), "--values", str(vpath), "--json"),
                      tuple(pts), values,
                      ((str(ppath), _points_text(pts, as_json)),
                       (str(vpath), _values_text(values)))))
    return ops


def survey_ops(seed: int, work: Path) -> list[Op]:
    """The survey does not depend on the seed."""
    return [Op("survey", tuple(SURVEY_ARGV), ())]


BUILDERS = {"oracle": oracle_ops, "fast": fast_ops,
            "decompose": decompose_ops, "survey": survey_ops}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Generate the workload's inputs and write the files they read."""
    ops = BUILDERS[workload](seed, work)
    for op in ops:
        for path, text in op.files:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    return ops


def warmup_ops(workload: str, ops: list[Op]) -> list[tuple[str, ...]]:
    """A few small calls that load every code path the pass uses."""
    if workload == "survey":
        return [tuple(SURVEY_WARMUP_ARGV)]
    kinds = {}
    for op in ops:
        kinds.setdefault(op.kind, op.argv)
    return list(kinds.values())
