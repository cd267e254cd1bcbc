"""Desk-scale exhaustive searches over small grids.

Enumerates inclusion-minimal non-basic subsets (size-ascending, pruning
supersets of sets already found, which is exact because any non-basic set
contains a smaller minimal one), and hunts for certificates of least
sup-norm by exhausting integer coefficient boxes over the canonical kernel
basis.  All output is deterministic and independent of the worker count.
"""

import csv
import io
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, gcd

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

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    def points(self) -> tuple[Point, ...]:
        return tuple(sorted((x, y, z)
                            for x in range(self.nx)
                            for y in range(self.ny)
                            for z in range(self.nz)))


@dataclass(frozen=True)
class MinimalityReport:
    point_set: PointSet
    is_nonbasic: bool
    minimal: bool
    failing_deletions: tuple[Point, ...]


def is_minimal_nonbasic(ps: PointSet) -> MinimalityReport:
    """Oracle verdict for the set and for every single-point deletion.

    Minimal means non-basic while every proper deletion is basic; the
    deletions that stay non-basic are listed (empty exactly when minimal).
    """
    if decide.is_basic(ps).basic:
        return MinimalityReport(ps, False, False, ())
    failing = []
    for p in ps.points:
        smaller = PointSet.from_points([q for q in ps.points if q != p], dim=ps.dim)
        if not decide.is_basic(smaller).basic:
            failing.append(p)
    return MinimalityReport(ps, True, not failing, tuple(failing))


def _mask_points(mask: int, grid_points: tuple[Point, ...]) -> list[Point]:
    return [p for i, p in enumerate(grid_points) if mask >> i & 1]


def _scan_level(args) -> list[int]:
    """Worker: masks of the verified minimal non-basic subsets in a chunk.

    `known` holds minimal sets already found at smaller sizes; any superset
    of one is non-basic but never minimal, so it is skipped unexamined.
    """
    grid_points, masks, known = args
    found = []
    for mask in masks:
        if any(mask & km == km for km in known):
            continue
        ps = PointSet.from_points(_mask_points(mask, grid_points), dim=3)
        if decide.is_basic(ps).basic:
            continue
        if is_minimal_nonbasic(ps).minimal:
            found.append(mask)
    return found


def grid_symmetries(grid: GridSpec) -> list[tuple[tuple[int, int, int], tuple[bool, bool, bool]]]:
    """Axis permutations preserving the extents, crossed with per-axis value
    reversals; 48 elements for a cubic grid."""
    out = []
    for perm in permutations(range(3)):
        if tuple(grid.extents[perm[i]] for i in range(3)) != grid.extents:
            continue
        for flips in product((False, True), repeat=3):
            out.append((perm, flips))
    return out


def apply_symmetry(points, grid: GridSpec, perm, flips) -> tuple[Point, ...]:
    moved = []
    for p in points:
        q = tuple(p[perm[i]] for i in range(3))
        q = tuple(grid.extents[i] - 1 - q[i] if flips[i] else q[i] for i in range(3))
        moved.append(q)
    return tuple(sorted(moved))


def orbit_representative(points, grid: GridSpec, symmetries=None) -> tuple[Point, ...]:
    if symmetries is None:
        symmetries = grid_symmetries(grid)
    return min(apply_symmetry(points, grid, perm, flips) for perm, flips in symmetries)


def enumerate_minimal(grid: GridSpec, max_size: int, *, dedup: bool = False,
                      workers: int = 1, budget: int = DEFAULT_BUDGET,
                      time_limit: float | None = DEFAULT_TIME_LIMIT) -> list[MinimalityReport]:
    """All inclusion-minimal non-basic subsets of the grid up to max_size.

    Reports come in canonical order (size, then point tuples) and each one
    is re-verified by the deletion check before being reported.  With dedup
    on, only the least set of each grid-symmetry orbit is kept.  The output
    is identical for any worker count.
    """
    if max_size < 0:
        raise ValueError(f"max size must be at least 0, got {max_size}")
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    grid_points = grid.points()
    n = len(grid_points)
    top = min(max_size, n)
    if sum(comb(n, k) for k in range(1, top + 1)) > budget:
        raise BudgetExceeded(f"subset count exceeds the budget of {budget}")
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    known: list[int] = []
    reports: list[MinimalityReport] = []
    for k in range(1, top + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("wall-clock limit reached")
        masks = [sum(1 << i for i in c) for c in combinations(range(n), k)]
        if workers > 1 and len(masks) > 1:
            import multiprocessing

            chunk = (len(masks) + workers - 1) // workers
            jobs = [(grid_points, masks[i:i + chunk], tuple(known))
                    for i in range(0, len(masks), chunk)]
            with multiprocessing.Pool(workers) as pool:
                results = pool.map(_scan_level, jobs)
            level_found = [m for sub in results for m in sub]
        else:
            level_found = _scan_level((grid_points, masks, tuple(known)))
        for mask in level_found:
            ps = PointSet.from_points(_mask_points(mask, grid_points), dim=3)
            reports.append(MinimalityReport(ps, True, True, ()))
        known.extend(level_found)
    reports.sort(key=lambda r: (len(r.point_set), r.point_set.points))
    if dedup:
        symmetries = grid_symmetries(grid)
        reports = [r for r in reports
                   if r.point_set.points == orbit_representative(
                       r.point_set.points, grid, symmetries)]
    return reports


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
        g = gcd(*weights)
        weights = [w // g for w in weights]
        first = next(w for w in weights if w)
        if first < 0:
            weights = [-w for w in weights]
        candidate = (max(abs(w) for w in weights), tuple(weights))
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise NoneWithinBound(f"no certificate with sup-norm <= {sup_bound}")
    cert = Certificate(best[1])
    assert decide.certificate_valid(ps, cert)
    return cert


@dataclass(frozen=True)
class SurveyRow:
    point_set: PointSet
    size: int
    minimal: bool
    min_sup_norm: int | None


@dataclass(frozen=True)
class Survey:
    rows: tuple[SurveyRow, ...]
    max_sup_norm: int | None
    witnesses: tuple[PointSet, ...]


def max_weight_survey(grid: GridSpec, max_size: int, *, sup_cap: int = 8,
                      dedup: bool = False, workers: int = 1,
                      budget: int = DEFAULT_BUDGET,
                      time_limit: float | None = DEFAULT_TIME_LIMIT) -> Survey:
    """Minimal certificate sup-norm for every minimal non-basic set found.

    Rows follow enumerate_minimal order; the maximum observed sup-norm and
    the sets witnessing it are reported alongside.
    """
    reports = enumerate_minimal(grid, max_size, dedup=dedup, workers=workers,
                                budget=budget, time_limit=time_limit)
    rows = []
    for rep in reports:
        norm = None
        for bound in range(1, sup_cap + 1):
            try:
                norm = minimize_certificate(rep.point_set, bound).sup_norm
                break
            except NoneWithinBound:
                continue
        rows.append(SurveyRow(rep.point_set, len(rep.point_set), rep.minimal, norm))
    norms = [r.min_sup_norm for r in rows if r.min_sup_norm is not None]
    max_norm = max(norms) if norms else None
    witnesses = tuple(r.point_set for r in rows if r.min_sup_norm == max_norm) \
        if max_norm is not None else ()
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
