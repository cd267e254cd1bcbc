"""The ground-truth decision oracle for basicness, with certificates both ways.

A point set is *basic* when every function on it is a sum of one
single-coordinate function per axis.  Writing one equation per point in the
unknown per-slice values gives the 0/1 slice matrix; the set is basic exactly
when its rows are independent.  A dependency, scaled to primitive integers,
is a certificate of non-basicness: nonzero weights on the points whose sum
over every slice is zero.
"""

import heapq
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple

from .core import Point, PointSet, Record, SliceId, _set, axes_for, slices_of
from . import ratlin
from .ratlin import RatMatrix, Unsolvable


class DomainMismatch(ValueError):
    """A per-point mapping does not cover exactly the points of the set."""


class NotNonBasic(ValueError):
    """An operation that needs a non-basic set was given a basic one."""


class SliceMatrix(NamedTuple):
    """0/1 incidence of points (rows) against slices (columns)."""

    matrix: RatMatrix
    columns: tuple[SliceId, ...]


class Certificate(Record):
    """Nonzero primitive integer weights per point, in canonical point order.

    Valid for a set when the weights of the points in every slice sum to
    exactly zero; see certificate_valid.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[int, ...]):
        if not any(weights):
            raise ValueError("certificate weights must not all be zero")
        if gcd(*weights) != 1:
            raise ValueError("certificate weights must have gcd 1")
        _set(self, "weights", weights)

    @property
    def sup_norm(self) -> int:
        return max(abs(w) for w in self.weights)


class Witness(Record):
    """Proof that one particular function is not decomposable.

    The certificate pairs to a nonzero value against the function, which is
    impossible for any sum of per-axis functions.
    """

    __slots__ = ("certificate", "pairing")

    def __init__(self, certificate: Certificate, pairing: Fraction):
        _set(self, "certificate", certificate)
        _set(self, "pairing", pairing)


class Verdict(Record):
    """Basic, or non-basic with the certificate that proves it."""

    __slots__ = ("basic", "certificate")

    def __init__(self, basic: bool, certificate: Certificate | None = None):
        if basic and certificate is not None:
            raise ValueError("a basic verdict carries no certificate")
        if not basic and certificate is None:
            raise ValueError("a non-basic verdict requires a certificate")
        _set(self, "basic", basic)
        _set(self, "certificate", certificate)

    @property
    def kind(self) -> str:
        return "basic" if self.basic else "nonbasic"


class Color(Enum):
    BLACK = "black"
    WHITE = "white"


class InvalidColoring(NamedTuple):
    """Names a slice whose two color counts differ."""

    slice_id: SliceId
    black: int
    white: int


class Decomposition(Record):
    """One exact value table per axis; tables[a][v] is the a-th summand at v."""

    __slots__ = ("tables",)

    def __init__(self, tables: tuple[dict[int, Fraction], ...]):
        _set(self, "tables", tables)

    def value_at(self, point: Point) -> Fraction:
        return sum((self.tables[a][point[a]] for a in range(len(self.tables))), Fraction(0))


def slice_matrix(ps: PointSet) -> SliceMatrix:
    """Row per point (canonical order), column per slice (slices_of order)."""
    slices = slices_of(ps)
    columns = tuple(sid for sid, _ in slices)
    rows = [[Fraction(0)] * len(columns) for _ in range(len(ps))]
    for col, (_, members) in enumerate(slices):
        for i in members:
            rows[i][col] = Fraction(1)
    return SliceMatrix(RatMatrix(rows, ncols=len(columns)), columns)


def slice_sums(ps: PointSet, weights) -> dict[SliceId, Fraction]:
    if len(weights) != len(ps):
        raise DomainMismatch(f"{len(weights)} weights for {len(ps)} points")
    return {sid: sum((Fraction(weights[i]) for i in members), Fraction(0))
            for sid, members in slices_of(ps)}


def certificate_valid(ps: PointSet, cert: Certificate) -> bool:
    return all(s == 0 for s in slice_sums(ps, cert.weights).values())


def slice_rows(ps: PointSet) -> list[dict[int, int]]:
    """Sparse integer rows of the slice matrix: {column: 1} per point."""
    rows: list[dict[int, int]] = [{} for _ in range(len(ps))]
    for col, (_, members) in enumerate(slices_of(ps)):
        for i in members:
            rows[i][col] = 1
    return rows


def is_basic(ps: PointSet) -> Verdict:
    """Basic iff the slice-matrix rows are independent.

    Point rows go into one sparse integer elimination in canonical order.
    A non-basic verdict carries the primitive fundamental circuit of the
    first dependent point, which equals the first canonical kernel basis
    vector of the transpose system, so repeated runs agree.
    """
    tag = ratlin.first_circuit(slice_rows(ps))
    if tag is None:
        return Verdict(True)
    vector = [tag.get(i, 0) for i in range(len(ps))]
    return Verdict(False, Certificate(tuple(ratlin.primitive_integer(vector))))


def decompose(ps: PointSet, f: Mapping[Point, Fraction | int]) -> Decomposition | Witness:
    """Split f into per-axis tables, or produce a witness that none exists.

    Success returns the canonical solution (free slice values zero under the
    fixed column order), found by column_solve over the slice columns.
    Failure returns the first fundamental circuit of the point rows, in
    canonical order, that pairs to a nonzero value against f; such a circuit
    always exists when the system is inconsistent, because the circuits span
    the kernel of the transpose.
    """
    if set(f.keys()) != set(ps.points):
        raise DomainMismatch("function values must be given on exactly the points of the set")
    values = [Fraction(f[p]) for p in ps.points]
    slices = slices_of(ps)
    try:
        x = ratlin.column_solve([dict.fromkeys(members, 1) for _, members in slices], values)
    except Unsolvable:
        for tag in ratlin.circuits(slice_rows(ps)):
            if sum(values[i] * w for i, w in tag.items()) != 0:
                weights = ratlin.primitive_integer([tag.get(i, 0) for i in range(len(ps))])
                return Witness(Certificate(tuple(weights)), ratlin.dot(weights, values))
        raise AssertionError("inconsistent system but every circuit pairs to zero")
    tables: tuple[dict[int, Fraction], ...] = tuple({} for _ in range(ps.dim))
    for (sid, _), xv in zip(slices, x):
        tables[sid.axis][sid.value] = xv
    return Decomposition(tables)


def peel(ps: PointSet) -> tuple[list[Point], PointSet]:
    """Iteratively strip points that are alone in some slice of the remainder.

    A point alone in a slice owns a private column of the slice matrix, so
    its row is independent of the others and removing it cannot change the
    verdict of what is left.  Empty core therefore certifies a basic set;
    a nonempty core is merely inconclusive.  Ties go to the point that is
    lowest in canonical order.
    """
    points = ps.points
    axes = axes_for(ps.dim)
    members: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(points):
        for a in axes:
            members.setdefault((a, p[a]), []).append(i)
    count = {key: len(group) for key, group in members.items()}
    alive = [True] * len(points)
    # Counts only fall, so a lonely point stays lonely until it is removed:
    # the heap holds every lonely live point once, least index on top.
    lonely = sorted({group[0] for group in members.values() if len(group) == 1})
    queued = set(lonely)
    order: list[Point] = []
    while lonely:
        i = heapq.heappop(lonely)
        alive[i] = False
        order.append(points[i])
        for a in axes:
            key = (a, points[i][a])
            count[key] -= 1
            if count[key] == 1:
                last = next(j for j in members[key] if alive[j])
                if last not in queued:
                    queued.add(last)
                    heapq.heappush(lonely, last)
    core = [p for p, live in zip(points, alive) if live]
    return order, PointSet.from_points(core, dim=ps.dim)


def coloring_certificate(ps: PointSet, coloring: Mapping[Point, Color]) -> Certificate | InvalidColoring:
    """Turn a slice-balanced two-coloring into a +/-1 certificate.

    Every slice must contain as many black as white points; the first
    unbalanced slice (in slice order) is reported otherwise.
    """
    if set(coloring.keys()) != set(ps.points):
        raise DomainMismatch("coloring must cover exactly the points of the set")
    for sid, members in slices_of(ps):
        black = sum(1 for i in members if coloring[ps.points[i]] is Color.BLACK)
        white = len(members) - black
        if black != white:
            return InvalidColoring(sid, black, white)
    raw = [1 if coloring[p] is Color.BLACK else -1 for p in ps.points]
    return Certificate(tuple(ratlin.primitive_integer(raw)))
