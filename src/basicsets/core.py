"""Lattice point sets, axis slices, and exact-coordinate canonicalization.

Whether every function on a finite point set splits into a sum of
single-coordinate functions depends only on which points share a coordinate
value on each axis.  Raw exact coordinates are therefore reduced to dense
integer ranks per axis before anything else runs; all downstream arithmetic
is exact and bounded.
"""

import json
from enum import IntEnum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Point = tuple[int, ...]


class Axis(IntEnum):
    """Coordinate axis.  2D sets use X and Y only."""

    X = 0
    Y = 1
    Z = 2


def axes_for(dim: int) -> tuple[Axis, ...]:
    if dim not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dim}")
    return tuple(Axis(i) for i in range(dim))


class SliceId(NamedTuple):
    """A plane (a line in 2D) perpendicular to `axis` at coordinate `value`."""

    axis: Axis
    value: int

    def __str__(self) -> str:
        return f"{self.axis.name.lower()}={self.value}"


class DuplicatePoint(ValueError):
    """An input point occurred more than once.

    Duplicates are rejected rather than merged: a repeated point would make
    the weight vector (+1, -1, 0, ...) a certificate, which says something
    about the input encoding, not about the set.
    """


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_set = object.__setattr__


class Record:
    """Immutable value record; a subclass names its fields in `__slots__`.

    Records compare equal when they have the same type and equal fields,
    hash and print by their fields, refuse assignment and deletion, and
    pickle and copy through their constructor.  A subclass's `__init__`
    checks its arguments and stores each field with `_set`.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        return type(self), self._values()


class PointSet(Record):
    """Finite set of lattice points plus per-axis tables of occurring values.

    `points` is sorted lexicographically; that order fixes point indices in
    slice listings, matrices, certificates, and decompositions, so results
    are reproducible byte for byte.
    """

    __slots__ = ("dim", "points", "values")

    def __init__(self, dim: int, points: tuple[Point, ...],
                 values: tuple[tuple[int, ...], ...]):
        _set(self, "dim", dim)
        _set(self, "points", points)
        _set(self, "values", values)

    @classmethod
    def from_points(cls, pts: Iterable[Sequence[int]], dim: int | None = None) -> "PointSet":
        rows = [tuple(p) for p in pts]
        if dim is None:
            if not rows:
                raise ValueError("dimension is required for an empty point set")
            dim = len(rows[0])
        if dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {dim}")
        seen: set[Point] = set()
        for p in rows:
            if len(p) != dim:
                raise ValueError(f"point {p} does not have {dim} coordinates")
            for c in p:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError(f"coordinate {c!r} is not an integer index")
            if p in seen:
                raise DuplicatePoint(f"point {p} occurs more than once")
            seen.add(p)
        points = tuple(sorted(rows))
        values = tuple(tuple(sorted({p[a] for p in points})) for a in range(dim))
        return cls(dim, points, values)

    @classmethod
    def from_canonical(cls, points: Sequence[Point], dim: int) -> "PointSet":
        """Set of canonicalize_points output, which is not checked again.

        Those points are distinct and take the values 0..k-1 on every axis.
        """
        if not points:
            return cls.empty(dim)
        return cls(dim, tuple(sorted(points)),
                   tuple(tuple(range(max(p[a] for p in points) + 1)) for a in range(dim)))

    @classmethod
    def empty(cls, dim: int = 3) -> "PointSet":
        if dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {dim}")
        return cls(dim, (), tuple(() for _ in range(dim)))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        return tuple(point) in self.points


ExactScalar = int | str | Fraction


def _exact(value: ExactScalar) -> int | Fraction:
    # An int and an equal Fraction hash and compare alike, so plain ints
    # rank and collide exactly as their Fraction forms would.
    if type(value) is int:
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"coordinate {value!r} is not exact; use integers or rational text")
    if isinstance(value, (int, str, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot read coordinate {value!r} exactly")


def canonicalize_points(raw_points: Iterable[Sequence[ExactScalar]],
                        dim: int | None = None) -> list[Point]:
    """Relabel raw exact coordinates to dense per-axis ranks, in input order.

    Two raw points map to the same output iff they were equal, so the
    basic/non-basic status of the set is unchanged.
    """
    rows = []
    for p in raw_points:
        p = tuple(p)
        if dim is None:
            dim = len(p)
        if len(p) != dim:
            raise ValueError(f"point {p} does not have {dim} coordinates")
        rows.append(tuple(map(_exact, p)))
    if dim is not None and dim not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dim}")
    seen: set[tuple[int | Fraction, ...]] = set()
    for p in rows:
        if p in seen:
            raise DuplicatePoint(f"point {tuple(str(c) for c in p)} occurs more than once")
        seen.add(p)
    if not rows:
        return []
    columns = []
    for axis_values in zip(*rows):
        rank = {v: r for r, v in enumerate(sorted(set(axis_values)))}
        columns.append(map(rank.__getitem__, axis_values))
    return list(zip(*columns))


def canonicalize(raw_points: Iterable[Sequence[ExactScalar]],
                 dim: int | None = None) -> PointSet:
    """Canonical PointSet for raw exact coordinates (see canonicalize_points)."""
    rows = list(raw_points)
    if not rows:
        return PointSet.empty(dim if dim is not None else 3)
    canon = canonicalize_points(rows, dim=dim)
    return PointSet.from_canonical(canon, len(canon[0]))


def slices_of(ps: PointSet) -> list[tuple[SliceId, tuple[int, ...]]]:
    """Every nonempty slice with the indices of its points.

    Deterministic order: axis X, Y, Z, values ascending.  For each axis the
    slices partition the set.
    """
    out: list[tuple[SliceId, tuple[int, ...]]] = []
    for axis in axes_for(ps.dim):
        groups: dict[int, list[int]] = {}
        for i, p in enumerate(ps.points):
            groups.setdefault(p[axis], []).append(i)
        for value in ps.values[axis]:
            out.append((SliceId(axis, value), tuple(groups[value])))
    return out


def fixtures() -> dict[str, PointSet]:
    """The standard example sets, exactly as usually printed.

    example1: four cube vertices whose slice graph is K4 (basic);
    ex2: five cube vertices, the smallest set whose certificates need a
    weight of 2; cube8: eight points with no two sharing two coordinates,
    yet non-basic with a +/-1 certificate.
    """
    return {
        "example1": PointSet.from_points([(0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)]),
        "ex2": PointSet.from_points([(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)]),
        "cube8": PointSet.from_points([(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0),
                                       (0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)]),
    }


# ---------------------------------------------------------------------------
# External formats.  Text: one point per line, whitespace-separated integers,
# '#' starts a comment.  JSON: {"dim": 3, "points": [[x, y, z], ...]}.
# Both reject duplicate points; both produce the canonicalized set.

_KIND_NAMES = {int: "an integer", Fraction: "an exact rational"}


def numbered_lines(text: str, kind=int, last=None):
    """(line number, numbers) for every line that has tokens before its '#'.

    Tokens are read with `kind` (int or Fraction), the last one with `last`
    when given.  A token that does not read raises ParseError at its line
    and column.  All line-based text inputs go through here.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            if last is None:
                row = tuple(map(kind, tokens))
            else:
                row = (*map(kind, tokens[:-1]), last(tokens[-1]))
        except (ValueError, ZeroDivisionError):
            raise _bad_token(raw, tokens, lineno, kind, last) from None
        yield lineno, row


def _bad_token(raw: str, tokens: list[str], lineno: int, kind, last) -> ParseError:
    column = 0
    for i, tok in enumerate(tokens):
        column = raw.index(tok, column)
        read = last if last is not None and i == len(tokens) - 1 else kind
        try:
            read(tok)
        except (ValueError, ZeroDivisionError):
            return ParseError(f"{tok!r} is not {_KIND_NAMES[read]}", line=lineno,
                              column=column + 1)
        column += len(tok)
    raise AssertionError("every token of the line reads")


def read_points_text(text: str) -> list[Point]:
    seen: dict[Point, int] = {}
    dim = None
    for lineno, point in numbered_lines(text):
        if dim is None:
            if len(point) not in (2, 3):
                raise ParseError(f"expected 2 or 3 coordinates, got {len(point)}", line=lineno)
            dim = len(point)
        elif len(point) != dim:
            raise ParseError(f"expected {dim} coordinates, got {len(point)}", line=lineno)
        if point in seen:
            raise ParseError(f"duplicate point {point} (first at line {seen[point]})", line=lineno)
        seen[point] = lineno
    return list(seen)


def read_points_json(text: str) -> tuple[int, list[Point]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(data, dict) or "points" not in data:
        raise ParseError('expected an object with "dim" and "points"')
    dim = data.get("dim", 3)
    if dim not in (2, 3):
        raise ParseError(f'"dim" must be 2 or 3, got {dim!r}')
    raw = data["points"]
    if not isinstance(raw, list):
        raise ParseError('"points" must be an array of coordinate arrays')
    rows: list[Point] = []
    seen: set[Point] = set()
    for entry in raw:
        if (not isinstance(entry, list) or len(entry) != dim
                or any(isinstance(c, bool) or not isinstance(c, int) for c in entry)):
            hint = "" if "dim" in data else f' ("dim" is missing, so {dim} is assumed)'
            raise ParseError(f"point {entry!r} is not an array of {dim} integers{hint}")
        point = tuple(entry)
        if point in seen:
            raise ParseError(f"duplicate point {point}")
        seen.add(point)
        rows.append(point)
    return dim, rows


def _file_dim(found: int | None, dim: int | None) -> int:
    # the dimension a file sets (None: no points to tell), checked against
    # the one a caller gives, which otherwise names it (default 3)
    if found is None:
        return dim if dim is not None else 3
    if dim is not None and found != dim:
        raise ParseError(f"expected {dim}-D points, the input has {found}-D points")
    return found


def read_points(text: str, dim: int | None = None) -> tuple[int, list[Point]]:
    """Dimension and raw points of either format, in file order.

    JSON when the first significant byte is '{'.  The file sets the
    dimension: its "dim", or the arity of its text points.  A given `dim`
    must agree with it, and names it when a text file has no points.
    """
    if text.lstrip().startswith("{"):
        found, rows = read_points_json(text)
        return _file_dim(found, dim), rows
    rows = read_points_text(text)
    return _file_dim(len(rows[0]) if rows else None, dim), rows


def parse_points_auto(text: str, dim: int | None = None) -> PointSet:
    """Parse either format (see read_points)."""
    dim, rows = read_points(text, dim=dim)
    return canonicalize(rows, dim=dim)


def format_points_text(ps: PointSet) -> str:
    return "".join(" ".join(str(c) for c in p) + "\n" for p in ps.points)


def points_payload(ps: PointSet) -> dict:
    return {"dim": ps.dim, "points": [list(p) for p in ps.points]}
