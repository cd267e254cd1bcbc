"""Exact linear algebra over Python ints and rationals.

One sparse integer echelon, circuits, decides, solves and finds witnesses;
first_circuit and column_solve are built on it, and the circuit walk of
search extends an echelon with its reduction step.  Pivots are first
nonzero entries and free variables are zero in solutions, so results are
reproducible.  The dense Fraction routines (RatMatrix, rref, rank,
kernel_basis, solve) serve only as test references, and stay until ROADMAP
item 1 moves the benchmark's traced metrics off their names.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence

Rat = Fraction


class Unsolvable(ValueError):
    """The linear system has no solution."""


class ZeroVector(ValueError):
    """A nonzero vector was required."""


class RatMatrix:
    """Dense rows x cols matrix of Fractions."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence[Rat | int]], ncols: int | None = None):
        data = [[Fraction(x) for x in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows have unequal lengths")
            if ncols is not None and ncols != width:
                raise ValueError(f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.rows = data
        self.nrows = len(data)
        self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], ncols=n)

    def copy_rows(self) -> list[list[Fraction]]:
        return [row[:] for row in self.rows]

    def transpose(self) -> "RatMatrix":
        return RatMatrix([[self.rows[r][c] for r in range(self.nrows)]
                          for c in range(self.ncols)], ncols=self.nrows)

    def mul_vec(self, v: Sequence[Rat | int]) -> list[Fraction]:
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} != {self.ncols} columns")
        vv = [Fraction(x) for x in v]
        return [sum((a * b for a, b in zip(row, vv)), Fraction(0)) for row in self.rows]

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RatMatrix({self.nrows}x{self.ncols}: {body})"


def dot(u: Sequence[Rat | int], v: Sequence[Rat | int]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("vectors have unequal lengths")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns.

    Pivot rule: first row with a nonzero entry, in column order.
    rank(m) == len(pivots).
    """
    rows = m.copy_rows()
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
        pivot_row = next((i for i in range(r, m.nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return RatMatrix(rows, ncols=m.ncols), pivots


def _integer_rank(rows: list[list[int]], ncols: int) -> int:
    # Bareiss fraction-free elimination; every division below is exact.
    nrows = len(rows)
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, nrows):
            fi = rows[i][c]
            row_i, row_r = rows[i], rows[r]
            for j in range(c + 1, ncols):
                q, rem = divmod(row_i[j] * pv - fi * row_r[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row_i[j] = q
            row_i[c] = 0
        prev = pv
        r += 1
        if r == nrows:
            break
    return r


def rank(m: RatMatrix) -> int:
    """Rank of m; integer matrices take a fraction-free fast path."""
    if m.is_integral():
        return _integer_rank([[int(x) for x in row] for row in m.rows], m.ncols)
    return len(rref(m)[1])


def kernel_basis(m: RatMatrix) -> list[list[Fraction]]:
    """Basis of {v : m v = 0} under the canonical pivot convention.

    Each basis vector carries a 1 in its own free column and 0 in every
    other free column; there are cols - rank of them.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * m.ncols
        v[free] = Fraction(1)
        for row, piv in enumerate(pivots):
            v[piv] = -reduced.rows[row][free]
        basis.append(v)
    return basis


def solve(m: RatMatrix, b: Sequence[Rat | int]) -> list[Fraction]:
    """Canonical solution of m x = b (free variables zero), or Unsolvable."""
    if len(b) != m.nrows:
        raise ValueError(f"right-hand side has {len(b)} entries, matrix {m.nrows} rows")
    aug = RatMatrix([row + [Fraction(bv)] for row, bv in zip(m.copy_rows(), b)],
                    ncols=m.ncols + 1)
    reduced, pivots = rref(aug)
    if pivots and pivots[-1] == m.ncols:
        raise Unsolvable("rank of the augmented matrix exceeds rank of the matrix")
    x = [Fraction(0)] * m.ncols
    for row, piv in enumerate(pivots):
        x[piv] = reduced.rows[row][m.ncols]
    return x


def _combine(u: dict[int, int], s: int, v: Mapping[int, int], t: int) -> dict[int, int]:
    # s*u + t*v over sparse {key: int} vectors, zeros dropped.
    out = {k: s * x for k, x in u.items()}
    for k, x in v.items():
        y = out.get(k, 0) + t * x
        if y:
            out[k] = y
        else:
            del out[k]
    return out


def _reduce(echelon: Mapping[int, tuple[dict[int, int], dict[int, int]]],
            row: Mapping[int, int], index: int) -> tuple[dict[int, int], dict[int, int]]:
    # Row `index` reduced against the echelon: (residual, tag).  The tag is
    # the residual's combination of input rows, and an empty residual means
    # the row depends on the stored rows.  Neither the echelon nor its rows
    # are changed.
    vec = {c: x for c, x in row.items() if x}
    tag = {index: 1}
    while vec and (lead := min(vec)) in echelon:
        pivot_row, pivot_tag = echelon[lead]
        g = gcd(vec[lead], pivot_row[lead])
        s, t = pivot_row[lead] // g, -vec[lead] // g
        vec = _combine(vec, s, pivot_row, t)
        tag = _combine(tag, s, pivot_tag, t)
        content = gcd(*vec.values(), *tag.values())
        if content != 1:
            vec = {c: x // content for c, x in vec.items()}
            tag = {i: x // content for i, x in tag.items()}
    return vec, tag


def circuits(rows: Sequence[Mapping[int, int]]) -> Iterator[dict[int, int]]:
    """The fundamental circuit of every dependent sparse integer row, in order.

    Rows are {column: value} and go in order into an echelon form keyed by
    leading (least) column; each stored row carries its combination of input
    rows as a tag {row index: coefficient}.  A row that reduces to zero is
    dependent on the stored rows before it, which are independent, so its tag
    is their unique dependency with that row up to scale (its fundamental
    circuit); the row's own index is the tag's greatest key, with a nonzero
    entry.  Divided by that entry, the tag is the canonical kernel vector of
    the transpose for the row's free column.  The stored rows are the greedy
    row basis, which is rref's pivot set of the transpose.  Every step
    divides row and tag by their common gcd.
    """
    echelon: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    for index, row in enumerate(rows):
        vec, tag = _reduce(echelon, row, index)
        if vec:
            echelon[min(vec)] = (vec, tag)
        else:
            yield tag


def first_circuit(rows: Sequence[Mapping[int, int]]) -> dict[int, int] | None:
    """The first of circuits(rows), or None if the rows are independent."""
    return next(circuits(rows), None)


def column_solve(columns: Sequence[Mapping[int, int]], b: Sequence[Rat | int]) -> list[Fraction]:
    """Canonical solution of m x = b for m given by its sparse integer columns.

    The same as solve on the dense matrix: b, scaled to integers, goes into
    circuits after the columns, and its circuit, if any, uses only the greedy
    column basis (rref's pivots), so it is the free-variables-zero solution.
    Raises Unsolvable when b is independent of the columns.
    """
    target = [Fraction(v) for v in b]
    scale = lcm(*(v.denominator for v in target))
    last = len(columns)
    for tag in circuits([*columns, {i: int(v * scale) for i, v in enumerate(target) if v}]):
        if last in tag:
            x = [Fraction(0)] * last
            for c, coeff in tag.items():
                if c != last:
                    x[c] = Fraction(-coeff, tag[last] * scale)
            return x
    raise Unsolvable("the right-hand side is independent of the columns")


def primitive_integer(v: Sequence[Rat | int]) -> list[int]:
    """Scale a nonzero rational vector to primitive integers.

    Multiplies by the lcm of denominators, divides by the gcd of the result,
    and fixes the sign so the first nonzero entry is positive.  Output is
    unique per line through the origin, so certificates compare equal across
    runs.
    """
    vv = [Fraction(x) for x in v]
    if not any(vv):
        raise ZeroVector("cannot scale the zero vector")
    mult = lcm(*(x.denominator for x in vv))
    ints = [int(x * mult) for x in vv]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return ints
