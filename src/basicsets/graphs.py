"""Graph basicness and the bridge from point sets with two-point slices.

A graph is *basic* when every assignment of numbers to vertices is realized
by numbers on edges summing at each vertex.  Two independent routes decide
it: no connected component may be bipartite, and equivalently the vertex
coboundary vectors (rows of the vertex-edge incidence matrix) must be
linearly independent.
"""

from collections import deque
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .core import ParseError, PointSet, SliceId, axes_for, numbered_lines, slices_of
from . import decide, ratlin
from .ratlin import RatMatrix


class EdgeFault(ValueError):
    """An edge leaves the vertex range or is a self-loop; `index` is its position."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class Graph(NamedTuple):
    """Undirected multigraph; parallel edges allowed, self-loops not."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        normalized = []
        for index, (u, v) in enumerate(edges):
            if not 0 <= u < n or not 0 <= v < n:
                raise EdgeFault(index, f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise EdgeFault(index, f"self-loop at vertex {u}")
            normalized.append((min(u, v), max(u, v)))
        return cls(n, tuple(sorted(normalized)))

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per vertex: (neighbor, edge index) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for idx, (u, v) in enumerate(self.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        return adj


class ComponentInfo(NamedTuple):
    vertices: tuple[int, ...]
    bipartite: bool
    coloring: dict | None  # vertex -> 0/1 when bipartite


class NotTwoRegular(NamedTuple):
    """Names the first slice that does not hold exactly two points."""

    slice_id: SliceId
    size: int


class EdgeUnsolvable(ratlin.Unsolvable):
    """Vertex values with no edge assignment; carries the obstruction.

    `component` is a bipartite component and `difference` the nonzero gap
    between the value sums of its two parts (edge sums contribute equally
    to both parts, so any gap is fatal).
    """

    def __init__(self, component: ComponentInfo, difference: Fraction):
        self.component = component
        self.difference = difference
        super().__init__(
            f"bipartite component {component.vertices} has part-sum difference {difference}")


class EdgeAssignment(NamedTuple):
    """Edge values aligned with graph.edges; parallel edges count separately."""

    graph: Graph
    values: tuple[Fraction, ...]

    def vertex_sums(self) -> list[Fraction]:
        sums = [Fraction(0)] * self.graph.n
        for (u, v), x in zip(self.graph.edges, self.values):
            sums[u] += x
            sums[v] += x
        return sums


def bipartite_components(g: Graph) -> list[ComponentInfo]:
    """BFS two-coloring per connected component, in order of least vertex.

    Parallel edges never obstruct bipartiteness; an odd cycle does.  An
    isolated vertex is a bipartite component by convention (its empty edge
    set cannot realize a nonzero vertex value).
    """
    adj = g.adjacency()
    color: list[int | None] = [None] * g.n
    out = []
    for start in range(g.n):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = deque([start])
        members = []
        bipartite = True
        while queue:
            u = queue.popleft()
            members.append(u)
            for v, _ in adj[u]:
                if color[v] is None:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    bipartite = False
        members = tuple(sorted(members))
        coloring = {v: color[v] for v in members} if bipartite else None
        out.append(ComponentInfo(members, bipartite, coloring))
    return out


def graph_is_basic(g: Graph) -> bool:
    """True iff no connected component is bipartite."""
    return all(not c.bipartite for c in bipartite_components(g))


def coboundary_matrix(g: Graph) -> RatMatrix:
    """n x e incidence matrix; row i is the coboundary vector of vertex i."""
    rows = [[Fraction(0)] * len(g.edges) for _ in range(g.n)]
    for j, (u, v) in enumerate(g.edges):
        rows[u][j] = Fraction(1)
        rows[v][j] = Fraction(1)
    return RatMatrix(rows, ncols=len(g.edges))


def graph_is_basic_rank(g: Graph) -> bool:
    """True iff the vertex coboundaries are linearly independent."""
    rows: list[dict[int, int]] = [{} for _ in range(g.n)]
    for j, (u, v) in enumerate(g.edges):
        rows[u][j] = rows[v][j] = 1
    return ratlin.first_circuit(rows) is None


def solve_edges(g: Graph, b: Sequence[Fraction | int]) -> EdgeAssignment:
    """Exact edge assignment realizing the vertex values b, or EdgeUnsolvable.

    Succeeds for every b exactly when the graph is basic; a failure is
    always explained by a bipartite component whose part sums differ.
    """
    if len(b) != g.n:
        raise ValueError(f"{len(b)} vertex values for {g.n} vertices")
    try:
        x = ratlin.column_solve([{u: 1, v: 1} for u, v in g.edges], b)
    except ratlin.Unsolvable:
        for comp in bipartite_components(g):
            if comp.bipartite:
                assert comp.coloring is not None
                diff = sum((Fraction(b[v]) * (1 if comp.coloring[v] == 0 else -1)
                            for v in comp.vertices), Fraction(0))
                if diff != 0:
                    raise EdgeUnsolvable(comp, diff) from None
        raise AssertionError("unsolvable incidence system with balanced bipartite parts")
    return EdgeAssignment(g, tuple(x))


def point_graph(ps: PointSet) -> Graph | NotTwoRegular:
    """Graph with the points as vertices and one edge per two-point slice.

    Applicable only when every nonempty slice holds exactly two points.
    Two points sharing two coordinates lie in two common slices and get a
    parallel edge pair (three shared coordinates would mean equal points).
    """
    edges = []
    for sid, members in slices_of(ps):
        if len(members) != 2:
            return NotTwoRegular(sid, len(members))
        edges.append(members)
    return Graph.from_edges(len(ps), edges)


class FastKind(Enum):
    BASIC = "basic"
    NONBASIC = "nonbasic"
    INAPPLICABLE = "inapplicable"


class FastResult(NamedTuple):
    kind: FastKind
    route: str


def fast_is_basic(ps: PointSet) -> FastResult:
    """Combinatorial fast path: peel, then decide through the slice graph.

    Peeled points are alone in some slice and removable without changing
    the verdict.  A core confined to a single plane drops the constant axis
    (the corresponding summand only contributes a constant there).  If every
    remaining slice holds exactly two points the slice graph decides; any
    other shape is reported inapplicable and the caller falls back to the
    rank oracle.
    """
    peeled, core = decide.peel(ps)
    if len(core) == 0:
        return FastResult(FastKind.BASIC, f"peel: removed all {len(peeled)} points")
    work = core
    note = ""
    if work.dim == 3:
        constant = [a for a in axes_for(3) if len(work.values[a]) == 1]
        if constant:
            drop = constant[0]
            flat = [tuple(c for i, c in enumerate(p) if i != drop) for p in work.points]
            work = PointSet.from_points(flat, dim=2)
            note = f"planar core ({drop.name.lower()} constant), "
    pg = point_graph(work)
    if isinstance(pg, NotTwoRegular):
        return FastResult(FastKind.INAPPLICABLE,
                          f"{note}slice {pg.slice_id} holds {pg.size} points")
    components = bipartite_components(pg)
    bipartite = [c for c in components if c.bipartite]
    if bipartite:
        return FastResult(FastKind.NONBASIC,
                          f"{note}graph: bipartite component {bipartite[0].vertices}")
    return FastResult(FastKind.BASIC,
                      f"{note}graph: {len(components)} non-bipartite component(s)")


# ---------------------------------------------------------------------------
# Graph text format: first significant line "n m", then m lines "u v"
# (0-based vertex numbers); '#' starts a comment.

def parse_graph_text(text: str) -> Graph:
    lines = list(numbered_lines(text))
    if not lines:
        raise ParseError("empty graph file; expected a header line 'n m'")
    (header_line, header), edges = lines[0], lines[1:]
    if len(header) != 2:
        raise ParseError("header must be two integers 'n m'", line=header_line)
    n, m = header
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, file has {len(edges)}", line=header_line)
    for lineno, edge in edges:
        if len(edge) != 2:
            raise ParseError("edge line must be two integers 'u v'", line=lineno)
    try:
        return Graph.from_edges(n, [edge for _, edge in edges])
    except EdgeFault as exc:
        raise ParseError(str(exc), line=edges[exc.index][0]) from exc
    except ValueError as exc:
        raise ParseError(str(exc), line=header_line) from exc
