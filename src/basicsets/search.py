"""Desk-scale exhaustive searches over small grids.

The inclusion-minimal non-basic subsets of a grid are the circuits of the
row matroid of its slice matrix.  A depth-first walk over independent sets
in index order finds each circuit exactly once, from the circuit minus its
greatest point.  The walk extends one echelon by one row per level, so each
candidate point costs one reduction, not an elimination of the whole path.
A circuit's kernel is a line, so its least sup-norm certificate is its
primitive circuit vector, whose sup-norm the walk reports with the circuit.
Sorting and symmetry dedup run on grid index tuples.  For other non-basic
sets, certificates of least sup-norm come from exhausting integer
coefficient boxes over the canonical kernel basis.  All output is
deterministic and independent of the worker count.
"""

import csv
import io
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb
from typing import NamedTuple

from .core import Point, PointSet
from . import decide, ratlin
from .decide import Certificate, NotNonBasic

DEFAULT_BUDGET = 1 << 27
DEFAULT_TIME_LIMIT = 600.0


class BudgetExceeded(RuntimeError):
    pass


class NoneWithinBound(ValueError):
    """No valid certificate exists within the requested sup-norm bound."""


@dataclass(frozen=True)
class GridSpec:
    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("grid extents must be positive")

    @property
    def extents(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    def points(self) -> tuple[Point, ...]:
        return tuple(product(range(self.nx), range(self.ny), range(self.nz)))


class MinimalityReport(NamedTuple):
    point_set: PointSet
    is_nonbasic: bool
    minimal: bool
    failing_deletions: tuple[Point, ...]


def is_minimal_nonbasic(ps: PointSet) -> MinimalityReport:
    """Oracle verdict for the set and for every single-point deletion.

    Minimal means non-basic while every proper deletion is basic; the
    deletions that stay non-basic are listed (empty exactly when minimal).
    One row scan gives the nullity: at 1, the kernel vector's support is
    the only circuit, and exactly the points outside it can go; at 2 or
    more, no single deletion makes the set basic.
    """
    found = list(ratlin.circuits(decide.slice_rows(ps)))
    if not found:
        return MinimalityReport(ps, False, False, ())
    if len(found) == 1:
        failing = tuple(p for i, p in enumerate(ps.points) if i not in found[0])
    else:
        failing = ps.points
    return MinimalityReport(ps, True, not failing, failing)


def _circuits_from(args) -> list[tuple[tuple[int, ...], int]]:
    """Worker: (index tuple, sup-norm) of each circuit whose least index is `first`.

    A path is an independent, increasing index tuple, and each node of the
    walk keeps the echelon of its path's rows.  A candidate row j is reduced
    once against it: a nonzero residual extends the path, and the child's
    echelon is a shallow copy plus that one row (stored rows are never
    changed).  A zero residual's tag is j's fundamental circuit over the
    path, and path + (j,) is a circuit exactly when every path row has a
    coefficient in it; the sup-norm is that of the tag's primitive vector.
    Each circuit C is reached once, from C - max(C).
    """
    rows, first, max_size, deadline = args
    found = []

    def grow(path: tuple[int, ...], echelon: dict) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("wall-clock limit reached")
        for j in range(path[-1] + 1, len(rows)):
            vec, tag = ratlin._reduce(echelon, rows[j], j)
            if vec:
                if len(path) + 1 < max_size:
                    grow(path + (j,), {**echelon, min(vec): (vec, tag)})
            elif len(tag) == len(path) + 1:
                norm = max(map(abs, ratlin.primitive_integer(list(tag.values()))))
                found.append((path + (j,), norm))

    vec, tag = ratlin._reduce({}, rows[first], first)
    grow((first,), {min(vec): (vec, tag)})
    return found


def grid_symmetries(grid: GridSpec) -> list[tuple[int, ...]]:
    """Each grid symmetry once, as the tuple of the images' grid indices.

    Axis permutations preserving the extents, crossed with per-axis value
    reversals: 48 for a cubic grid, fewer when an extent is 1.
    """
    points = grid.points()
    index = {p: i for i, p in enumerate(points)}
    ext = grid.extents
    out = {}
    for perm in permutations(range(3)):
        if tuple(ext[a] for a in perm) != ext:
            continue
        for flips in product((False, True), repeat=3):
            image = tuple(index[tuple(ext[a] - 1 - p[perm[a]] if flips[a] else p[perm[a]]
                                      for a in range(3))]
                          for p in points)
            out.setdefault(image)
    return list(out)


def _minimal_sets(grid: GridSpec, max_size: int, dedup: bool, workers: int, budget: int,
                  time_limit: float | None) -> list[tuple[PointSet, int]]:
    """enumerate_minimal's point sets with their sup-norms.  Grid points are
    sorted, so circuits are sorted and deduplicated as index tuples; an orbit
    keeps the circuit equal to the least sorted image of its indices."""
    for name, value, least in (("max size", max_size, 0), ("worker count", workers, 1),
                               ("budget", budget, 0), ("time limit", time_limit or 0, 0)):
        if not value >= least:  # also rejects a NaN time limit
            raise ValueError(f"{name} must be at least {least}, got {value}")
    grid_points = grid.points()
    n = len(grid_points)
    if sum(comb(n, k) for k in range(1, min(max_size, n) + 1)) > budget:
        raise BudgetExceeded(f"subset count exceeds the budget of {budget}")
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    rows = decide.slice_rows(PointSet.from_points(grid_points, dim=3))
    jobs = [(rows, first, max_size, deadline) for first in range(n)] if max_size > 1 else []
    if workers > 1 and len(jobs) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(workers, len(jobs))) as pool:
            found = pool.map(_circuits_from, jobs)
    else:
        found = map(_circuits_from, jobs)
    circuits = sorted((pair for sub in found for pair in sub),
                      key=lambda pair: (len(pair[0]), pair[0]))
    if dedup:
        symmetries = grid_symmetries(grid)
        circuits = [(c, norm) for c, norm in circuits
                    if c == min(tuple(sorted(s[i] for i in c)) for s in symmetries)]
    return [(PointSet.from_points([grid_points[i] for i in c], dim=3), norm)
            for c, norm in circuits]


def enumerate_minimal(grid: GridSpec, max_size: int, *, dedup: bool = False,
                      workers: int = 1, budget: int = DEFAULT_BUDGET,
                      time_limit: float | None = DEFAULT_TIME_LIMIT) -> list[MinimalityReport]:
    """All inclusion-minimal non-basic subsets of the grid up to max_size.

    These are the circuits of the grid's point rows, found by a depth-first
    walk with one job per least index.  Reports come in canonical order
    (size, then point tuples).  With dedup on, only the least set of each
    grid-symmetry orbit is kept.  The budget bounds the number of subsets
    up to max_size, and the time limit is checked at every node of the
    walk.  The output is identical for any worker count.
    """
    return [MinimalityReport(ps, True, True, ())
            for ps, _ in _minimal_sets(grid, max_size, dedup, workers, budget, time_limit)]


def minimize_certificate(ps: PointSet, sup_bound: int) -> Certificate:
    """Valid certificate of least sup-norm within the bound, or NoneWithinBound.

    Any integer certificate equals its own values at the free columns times
    the canonical kernel basis, so exhausting integer coefficients in
    [-sup_bound, sup_bound] per kernel dimension covers every certificate
    with sup-norm within the bound.  Ties break lexicographically.
    """
    if sup_bound < 1:
        raise ValueError("sup-norm bound must be at least 1")
    basis = []
    for tag in ratlin.circuits(decide.slice_rows(ps)):
        # scaled to 1 at its own (last) point, a circuit is the canonical
        # kernel vector of that point's free column
        own = tag[max(tag)]
        basis.append([Fraction(tag.get(i, 0), own) for i in range(len(ps))])
    if not basis:
        raise NotNonBasic("certificates exist only for non-basic sets")
    span = 2 * sup_bound + 1
    if span ** len(basis) > 1 << 22:
        raise BudgetExceeded("certificate search space too large")
    n = len(ps)
    best: tuple[int, tuple[int, ...]] | None = None
    for coeffs in product(range(-sup_bound, sup_bound + 1), repeat=len(basis)):
        if not any(coeffs):
            continue
        vector = [sum(c * vec[i] for c, vec in zip(coeffs, basis)) for i in range(n)]
        if any(x.denominator != 1 for x in vector):
            continue
        weights = [int(x) for x in vector]
        if max(abs(w) for w in weights) > sup_bound:
            continue
        weights = ratlin.primitive_integer(weights)
        candidate = (max(abs(w) for w in weights), tuple(weights))
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise NoneWithinBound(f"no certificate with sup-norm <= {sup_bound}")
    cert = Certificate(best[1])
    assert decide.certificate_valid(ps, cert)
    return cert


class SurveyRow(NamedTuple):
    point_set: PointSet
    size: int
    minimal: bool
    min_sup_norm: int | None


class Survey(NamedTuple):
    rows: tuple[SurveyRow, ...]
    max_sup_norm: int | None
    witnesses: tuple[PointSet, ...]


def max_weight_survey(grid: GridSpec, max_size: int, *, sup_cap: int = 8,
                      dedup: bool = False, workers: int = 1,
                      budget: int = DEFAULT_BUDGET,
                      time_limit: float | None = DEFAULT_TIME_LIMIT) -> Survey:
    """Minimal certificate sup-norm for every minimal non-basic set found.

    Rows follow enumerate_minimal order.  A minimal set's least certificate
    is its primitive circuit vector, so a row's sup-norm is the walk's, or
    None above sup_cap.  The maximum observed sup-norm and the sets
    witnessing it are reported alongside.
    """
    if sup_cap < 1:
        raise ValueError(f"sup-norm cap must be at least 1, got {sup_cap}")
    rows = [SurveyRow(ps, len(ps), True, norm if norm <= sup_cap else None)
            for ps, norm in _minimal_sets(grid, max_size, dedup, workers, budget, time_limit)]
    max_norm = max((r.min_sup_norm for r in rows if r.min_sup_norm is not None), default=None)
    witnesses = () if max_norm is None else tuple(
        r.point_set for r in rows if r.min_sup_norm == max_norm)
    return Survey(tuple(rows), max_norm, witnesses)


def _points_field(ps: PointSet) -> str:
    return ";".join(",".join(str(c) for c in p) for p in ps.points)


def survey_csv(survey: Survey) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["set", "size", "minimal", "min_sup_norm"])
    for row in survey.rows:
        writer.writerow([_points_field(row.point_set), row.size,
                         int(row.minimal), "" if row.min_sup_norm is None else row.min_sup_norm])
    return buf.getvalue()


def survey_payload(survey: Survey) -> dict:
    return {
        "rows": [{"points": [list(p) for p in row.point_set.points],
                  "size": row.size,
                  "minimal": row.minimal,
                  "min_sup_norm": row.min_sup_norm}
                 for row in survey.rows],
        "max_sup_norm": survey.max_sup_norm,
        "witnesses": [[list(p) for p in ps.points] for ps in survey.witnesses],
    }
