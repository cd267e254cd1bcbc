"""Closed lightnings, non-basic set constructions, and the planar criterion.

A *lightning* is a point sequence inside one slice whose consecutive points
alternate between sharing the first and sharing the second in-slice
coordinate.  Closed lightnings without repeated vertices are the minimal
non-basic sets of the plane; translating balanced pieces of one along the
slice normal, or splitting an aligned pair of any non-basic set, yields new
non-basic sets in space.
"""

import random
from collections import deque
from typing import Mapping, NamedTuple, Sequence

from .core import Point, PointSet, Record, SliceId, Axis, _set, axes_for
from . import decide, ratlin
from .decide import Certificate, Color, NotNonBasic, Verdict


class PointOutsideSlice(ValueError):
    pass


class UnbalancedGroup(ValueError):
    def __init__(self, group):
        self.group = group
        super().__init__(f"group {group!r} has unequal numbers of black and white points")


class PointsNotAligned(ValueError):
    pass


class CollisionWithExisting(ValueError):
    pass


class LightningShape(NamedTuple):
    lightning: bool
    closed: bool
    simple: bool


def inplane_axes(slice_id: SliceId) -> tuple[Axis, Axis]:
    u, v = (a for a in axes_for(3) if a != slice_id.axis)
    return u, v


def is_lightning(slice_id: SliceId, pts: Sequence[Point]) -> LightningShape:
    """Check the alternation, distinct-consecutive, and closure conditions.

    Consecutive points must differ and share exactly one in-slice
    coordinate, with the shared coordinate alternating strictly along the
    sequence (either coordinate may lead).  Closed means odd length with
    first point equal to last; simple means no vertex repeats (the closing
    repetition excepted).
    """
    pts = [tuple(p) for p in pts]
    for p in pts:
        if len(p) != 3:
            raise ValueError(f"point {p} is not three-dimensional")
        if p[slice_id.axis] != slice_id.value:
            raise PointOutsideSlice(f"point {p} is not in slice {slice_id}")
    u, v = inplane_axes(slice_id)
    previous_shared = None
    for a, b in zip(pts, pts[1:]):
        same_u = a[u] == b[u]
        same_v = a[v] == b[v]
        if same_u == same_v:
            # both: equal points; neither: a jump with nothing shared
            return LightningShape(False, False, False)
        shared = u if same_u else v
        if shared == previous_shared:
            return LightningShape(False, False, False)
        previous_shared = shared
    closed = len(pts) >= 3 and len(pts) % 2 == 1 and pts[0] == pts[-1]
    vertices = pts[:-1] if closed else pts
    simple = len(set(vertices)) == len(vertices)
    return LightningShape(True, closed, simple)


class ClosedLightning(Record):
    """Lightning of length 2l+1 whose last point closes on the first."""

    __slots__ = ("slice_id", "points")

    def __init__(self, slice_id: SliceId, points: tuple[Point, ...]):
        shape = is_lightning(slice_id, points)
        if not (shape.lightning and shape.closed):
            raise ValueError("sequence is not a closed lightning")
        _set(self, "slice_id", slice_id)
        _set(self, "points", points)

    @property
    def simple(self) -> bool:
        """No vertex repeats."""
        return len(set(self.vertices())) == len(self.vertices())

    @property
    def l(self) -> int:
        return (len(self.points) - 1) // 2

    def vertices(self) -> tuple[Point, ...]:
        return self.points[:-1]

    def point_set(self) -> PointSet:
        return PointSet.from_points(self.vertices(), dim=3)


def closed_lightning(slice_id: SliceId, l: int, seed: int = 0) -> ClosedLightning:
    """Simple closed lightning with 2l distinct vertices, deterministic per seed.

    Walks a zigzag cycle over an l x l grid of shuffled coordinate values:
    each of the l values on either in-slice axis is visited by exactly two
    vertices, so every slice perpendicular to the home slice meets the
    lightning in exactly two points.
    """
    if l < 2:
        raise ValueError("closed lightnings need l >= 2")
    rng = random.Random(seed)
    us = list(range(l))
    vs = list(range(l))
    rng.shuffle(us)
    rng.shuffle(vs)
    u_axis, v_axis = inplane_axes(slice_id)
    seq = []
    for i in range(l):
        seq.append((us[i], vs[i]))
        seq.append((us[i], vs[(i + 1) % l]))
    seq.append(seq[0])
    pts = []
    for uval, vval in seq:
        coords = [0, 0, 0]
        coords[slice_id.axis] = slice_id.value
        coords[u_axis] = uval
        coords[v_axis] = vval
        pts.append(tuple(coords))
    return ClosedLightning(slice_id, tuple(pts))


def alternating_coloring(cl: ClosedLightning) -> dict[Point, Color]:
    """Two-coloring along the cycle: even positions black, odd positions white.

    Well defined only for simple closed lightnings (a repeated vertex could
    occur at both parities).
    """
    if not cl.simple:
        raise ValueError("alternating coloring needs distinct vertices")
    return {p: (Color.BLACK if i % 2 == 0 else Color.WHITE)
            for i, p in enumerate(cl.vertices())}


def translate_point(p: Point, axis: Axis, offset: int) -> Point:
    return tuple(c + (offset if i == axis else 0) for i, c in enumerate(p))


def construction_split(cl: ClosedLightning, grouping: Mapping[Point, object],
                       offsets: Mapping[object, int]) -> PointSet:
    """Translate color-balanced pieces of a closed lightning along its normal.

    Each group must contain as many black as white points of the
    alternating coloring; the coloring then transports to the output, every
    slice of which stays balanced, so the result is always non-basic.
    """
    vertices = cl.vertices()
    colors = alternating_coloring(cl)
    if set(grouping.keys()) != set(vertices):
        raise ValueError("grouping must cover exactly the lightning vertices")
    members: dict[object, list[Point]] = {}
    for p in vertices:
        members.setdefault(grouping[p], []).append(p)
    for gid in sorted(members, key=repr):
        if gid not in offsets:
            raise ValueError(f"no offset for group {gid!r}")
        black = sum(1 for p in members[gid] if colors[p] is Color.BLACK)
        if 2 * black != len(members[gid]):
            raise UnbalancedGroup(gid)
    moved = [translate_point(p, cl.slice_id.axis, offsets[grouping[p]]) for p in vertices]
    return PointSet.from_points(moved, dim=3)


def boyarov_split(ps: PointSet, a: Point, b: Point, offset: int,
                  axis: Axis | None = None) -> PointSet:
    """Replace an aligned pair of a non-basic set by a translated copy.

    `a` and `b` must agree in all but one coordinate.  Both are translated
    by `offset` along an axis on which they agree (perpendicular to the
    segment between them); the result keeps `a`, drops `b`, and adds both
    translates, and is non-basic whenever the input is.

    Without an explicit axis the agreeing axes are tried in index order;
    for each, the given offset sign first and then its negation, taking the
    first translation that lands on no existing point.  With an explicit
    axis only the two signs are tried.  CollisionWithExisting is raised when
    every candidate collides (offset 0 always does).
    """
    a, b = tuple(a), tuple(b)
    if a not in ps or b not in ps:
        raise ValueError("both points must belong to the set")
    agreeing = [ax for ax in axes_for(ps.dim) if a[ax] == b[ax]]
    if a == b or len(agreeing) != ps.dim - 1:
        raise PointsNotAligned(f"points {a} and {b} must agree in exactly "
                               f"{ps.dim - 1} coordinates")
    if decide.is_basic(ps).basic:
        raise NotNonBasic("the set to split must be non-basic")
    if axis is not None:
        if axis not in agreeing:
            raise PointsNotAligned(f"points {a} and {b} differ on axis {axis.name}")
        candidates = [(axis, offset), (axis, -offset)]
    else:
        candidates = [(ax, sign * offset) for ax in agreeing for sign in (1, -1)]
    rest = set(ps.points) - {b}
    for ax, off in candidates:
        if off == 0:
            continue
        a2 = translate_point(a, ax, off)
        b2 = translate_point(b, ax, off)
        if a2 in rest or b2 in rest:
            continue
        return PointSet.from_points(sorted(rest | {a2, b2}), dim=ps.dim)
    raise CollisionWithExisting("every candidate translation lands on an existing point")


def is_basic_2d(ps: PointSet) -> Verdict:
    """Planar criterion: basic iff the value-incidence graph is a forest.

    Nodes are the distinct x values and the distinct y values, one edge per
    point.  A cycle in this bipartite multigraph is exactly a closed
    lightning through the points; alternating +1/-1 along it balances every
    slice and is returned as the certificate, so planar certificates always
    have entries in {-1, 0, +1}.
    """
    if ps.dim != 2:
        raise ValueError("is_basic_2d needs a two-dimensional point set")
    if len(ps) == 0:
        return Verdict(True)
    parent: dict[SliceId, SliceId] = {}
    forest: dict[SliceId, list[tuple[SliceId, int]]] = {}

    def find(node: SliceId) -> SliceId:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for i, p in enumerate(ps.points):
        nx = SliceId(Axis.X, p[0])
        ny = SliceId(Axis.Y, p[1])
        for node in (nx, ny):
            if node not in parent:
                parent[node] = node
                forest[node] = []
        if find(nx) != find(ny):
            parent[find(nx)] = find(ny)
            forest[nx].append((ny, i))
            forest[ny].append((nx, i))
            continue
        # i closes a cycle: alternate signs along it, zero elsewhere
        path = _forest_path(forest, ny, nx)
        weights = [0] * len(ps)
        weights[i] = 1
        sign = 1
        for point_index in path:
            sign = -sign
            weights[point_index] = sign
        return Verdict(False, Certificate(tuple(ratlin.primitive_integer(weights))))
    return Verdict(True)


def _forest_path(forest, start: SliceId, goal: SliceId) -> list[int]:
    """Point indices along the unique forest path from start to goal."""
    previous: dict[SliceId, tuple[SliceId, int]] = {start: (start, -1)}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for nxt, via in forest[node]:
            if nxt not in previous:
                previous[nxt] = (node, via)
                queue.append(nxt)
    path = []
    node = goal
    while node != start:
        node, via = previous[node]
        path.append(via)
    return path
