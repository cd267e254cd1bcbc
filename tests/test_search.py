import multiprocessing
import time
from collections import Counter
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest
from hypothesis import example, given, strategies as st

from basicsets.core import PointSet
from basicsets.decide import NotNonBasic, certificate_valid, is_basic, slice_rows, slice_sums
from basicsets.ratlin import first_circuit, primitive_integer
from basicsets.search import (BudgetExceeded, GridSpec, MinimalityReport,
                              NoneWithinBound, _circuits_from, enumerate_minimal,
                              grid_symmetries, is_minimal_nonbasic,
                              max_weight_survey, minimize_certificate,
                              survey_csv, survey_payload)

RECTANGLE = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
EX2 = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)]
GRID333 = GridSpec(3, 3, 3).points()


def _deletion_scan(ps):
    """Reference minimality check: one oracle call per single-point deletion."""
    if is_basic(ps).basic:
        return MinimalityReport(ps, False, False, ())
    failing = tuple(p for p in ps.points
                    if not is_basic(PointSet.from_points(
                        [q for q in ps.points if q != p], dim=ps.dim)).basic)
    return MinimalityReport(ps, True, not failing, failing)


def _level_scan_minimal(grid, max_size):
    """Reference enumeration: every subset, size by size, skipping supersets
    of the minimal sets already found."""
    points = grid.points()
    known, reports = [], []
    for k in range(1, min(max_size, len(points)) + 1):
        level = []
        for combo in combinations(range(len(points)), k):
            mask = sum(1 << i for i in combo)
            if any(mask & m == m for m in known):
                continue
            ps = PointSet.from_points([points[i] for i in combo], dim=3)
            if _deletion_scan(ps).minimal:
                level.append(mask)
                reports.append(MinimalityReport(ps, True, True, ()))
        known.extend(level)
    reports.sort(key=lambda r: (len(r.point_set), r.point_set.points))
    return reports


def _parent_circuits_from(args):
    """Reference walk: every candidate eliminates its whole path again."""
    rows, first, max_size, deadline = args
    found = []

    def grow(path):
        path_rows = [rows[i] for i in path]
        for j in range(path[-1] + 1, len(rows)):
            tag = first_circuit(path_rows + [rows[j]])
            if tag is None:
                if len(path) + 1 < max_size:
                    grow(path + (j,))
            elif len(tag) == len(path) + 1:
                found.append(path + (j,))

    grow((first,))
    return found


def _row_norm(ps):
    """Reference survey norm: the sup-norm of the primitive first circuit of
    the set's own rows, eliminated anew."""
    return max(map(abs, primitive_integer(list(first_circuit(slice_rows(ps)).values()))))


def _point_symmetries(grid):
    """Reference symmetries: (axis permutation, per-axis reversal) pairs."""
    return [(perm, flips) for perm in permutations(range(3))
            if tuple(grid.extents[perm[i]] for i in range(3)) == grid.extents
            for flips in product((False, True), repeat=3)]


def _apply_symmetry(points, grid, perm, flips):
    moved = []
    for p in points:
        q = tuple(p[perm[i]] for i in range(3))
        q = tuple(grid.extents[i] - 1 - q[i] if flips[i] else q[i] for i in range(3))
        moved.append(q)
    return tuple(sorted(moved))


def _orbit_representative(points, grid):
    """Reference dedup key: the least sorted point tuple over all symmetries."""
    return min(_apply_symmetry(points, grid, perm, flips)
               for perm, flips in _point_symmetries(grid))


def _retry_norm(ps, sup_cap):
    """Reference survey norm: the least bound up to sup_cap that the box
    search meets."""
    for bound in range(1, sup_cap + 1):
        try:
            return minimize_certificate(ps, bound).sup_norm
        except NoneWithinBound:
            continue
    return None


def test_rectangle_is_minimal():
    report = is_minimal_nonbasic(PointSet.from_points(RECTANGLE))
    assert report.is_nonbasic and report.minimal
    assert report.failing_deletions == ()


def test_ex2_is_minimal():
    report = is_minimal_nonbasic(PointSet.from_points(EX2))
    assert report.is_nonbasic and report.minimal


def test_rectangle_plus_far_point_is_not_minimal():
    report = is_minimal_nonbasic(PointSet.from_points(RECTANGLE + [(5, 5, 5)]))
    assert report.is_nonbasic and not report.minimal
    assert report.failing_deletions == ((5, 5, 5),)


def test_basic_set_report():
    report = is_minimal_nonbasic(PointSet.from_points([(0, 0, 0), (1, 1, 1)]))
    assert not report.is_nonbasic and not report.minimal


def test_minimality_matches_the_deletion_scan_on_the_cube(corpus_cube222):
    for ps in corpus_cube222:
        assert is_minimal_nonbasic(ps) == _deletion_scan(ps)


@given(st.lists(st.sampled_from(GRID333), unique=True, max_size=12))
@example(RECTANGLE + [(1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2)])  # nullity 2
@example(RECTANGLE + [(2, 2, 2)])
@example(EX2)
def test_minimality_matches_the_deletion_scan_on_the_333_grid(points):
    ps = PointSet.from_points(points, dim=3)
    assert is_minimal_nonbasic(ps) == _deletion_scan(ps)


@pytest.mark.parametrize("extents, max_size", [((2, 2, 2), 8), ((2, 2, 3), 8),
                                               ((3, 3, 1), 6), ((4, 4, 1), 6),
                                               ((3, 3, 2), 5)],
                         ids=["222-8", "223-8", "331-6", "441-6", "332-5"])
def test_circuit_walk_matches_the_level_scan(extents, max_size):
    grid = GridSpec(*extents)
    assert enumerate_minimal(grid, max_size) == _level_scan_minimal(grid, max_size)


@pytest.mark.parametrize("extents, max_size, circuits", [((2, 2, 3), 8, 129),
                                                         ((3, 3, 2), 6, 804),
                                                         ((3, 3, 3), 5, 459)],
                         ids=["223-8", "332-6", "333-5"])
def test_circuit_walk_matches_the_per_candidate_elimination(extents, max_size, circuits):
    rows = slice_rows(PointSet.from_points(GridSpec(*extents).points(), dim=3))
    total = 0
    for first in range(len(rows)):
        found = [c for c, _ in _circuits_from((rows, first, max_size, None))]
        assert found == _parent_circuits_from((rows, first, max_size, None))
        total += len(found)
    assert total == circuits


@pytest.mark.parametrize("extents, max_size, circuits", [((2, 2, 3), 8, 129),
                                                         ((3, 3, 2), 6, 804),
                                                         ((3, 3, 3), 5, 459)],
                         ids=["223-8", "332-6", "333-5"])
def test_walk_norms_match_the_per_row_elimination(extents, max_size, circuits):
    points = GridSpec(*extents).points()
    rows = slice_rows(PointSet.from_points(points, dim=3))
    found = [pair for first in range(len(rows))
             for pair in _circuits_from((rows, first, max_size, None))]
    assert len(found) == circuits
    for c, norm in found:
        assert norm == _row_norm(PointSet.from_points([points[i] for i in c], dim=3))


@pytest.mark.parametrize("extents, max_size, sup_cap", [((2, 2, 3), 8, 8),
                                                        ((2, 2, 3), 8, 1),
                                                        ((3, 3, 2), 5, 2)],
                         ids=["223-8-cap8", "223-8-cap1", "332-5-cap2"])
def test_survey_norms_match_the_certificate_box_search(extents, max_size, sup_cap):
    survey = max_weight_survey(GridSpec(*extents), max_size, sup_cap=sup_cap)
    assert survey.rows
    for row in survey.rows:
        assert row.min_sup_norm == _retry_norm(row.point_set, sup_cap)


@pytest.mark.parametrize("workers", [1, 2])
def test_time_limit_is_enforced_inside_the_walk(workers):
    start = time.monotonic()
    with pytest.raises(BudgetExceeded, match="wall-clock limit reached"):
        enumerate_minimal(GridSpec(3, 3, 3), 8, workers=workers, time_limit=1.0)
    assert time.monotonic() - start < 2.5


def test_pool_is_never_larger_than_the_job_count(monkeypatch):
    sizes = []

    class InlinePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return list(map(fn, jobs))

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    assert enumerate_minimal(GridSpec(1, 1, 2), 2, workers=10**6) == []
    assert sizes and max(sizes) <= 2


def test_enumerate_small_sizes_are_empty():
    assert enumerate_minimal(GridSpec(3, 3, 3), 2) == []
    assert enumerate_minimal(GridSpec(1, 1, 1), 8) == []


def test_enumerate_cube_vertices(corpus_cube222, oracle):
    grid = GridSpec(2, 2, 2)
    reports = enumerate_minimal(grid, 8)
    found = {r.point_set.points for r in reports}
    # every report is verified minimal non-basic
    for r in reports:
        again = is_minimal_nonbasic(r.point_set)
        assert again.is_nonbasic and again.minimal
    # all six face rectangles appear
    for axis in range(3):
        for value in (0, 1):
            face = tuple(sorted(p for p in grid.points() if p[axis] == value))
            assert face in found
    # the five-point pattern appears
    assert tuple(sorted(EX2)) in found
    # cross-check against a direct scan of all 256 subsets
    direct = {ps.points for ps in corpus_cube222
              if len(ps) > 0 and is_minimal_nonbasic(ps).minimal}
    assert found == direct


def test_enumerate_respects_max_size():
    reports = enumerate_minimal(GridSpec(2, 2, 2), 4)
    assert all(len(r.point_set) <= 4 for r in reports)
    assert len(reports) == 12


def test_enumerate_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_minimal(GridSpec(3, 3, 3), 8, budget=100)
    with pytest.raises(BudgetExceeded):
        enumerate_minimal(GridSpec(2, 2, 2), 8, time_limit=0.0)


def test_symmetry_closure_without_dedup():
    grid = GridSpec(2, 2, 2)
    reports = enumerate_minimal(grid, 6)
    found = {r.point_set.points for r in reports}
    for points in found:
        for perm, flips in _point_symmetries(grid):
            assert _apply_symmetry(points, grid, perm, flips) in found


def test_dedup_keeps_one_representative_per_orbit():
    grid = GridSpec(2, 2, 2)
    full = enumerate_minimal(grid, 8)
    deduped = enumerate_minimal(grid, 8, dedup=True)
    reps = {r.point_set.points for r in deduped}
    assert all(points == _orbit_representative(points, grid) for points in reps)
    assert {_orbit_representative(r.point_set.points, grid) for r in full} == reps
    # 12 four-point sets fall into faces and diagonals, 8 five-point into one orbit
    assert len(deduped) == 3


def test_noncubic_grid_symmetries_preserve_the_grid():
    grid = GridSpec(4, 4, 1)
    transforms = grid_symmetries(grid)
    # x/y swap allowed, z fixed, 8 reflections of which the z one moves no point
    assert len(transforms) == 8 == len(set(transforms))
    for image in transforms:
        assert sorted(image) == list(range(len(grid.points())))


@pytest.mark.parametrize("extents, count", [((2, 2, 2), 48), ((3, 3, 3), 48), ((4, 4, 1), 8),
                                            ((3, 2, 2), 16), ((1, 3, 3), 8), ((1, 1, 1), 1)])
def test_grid_symmetries_are_the_point_symmetries_as_index_maps(extents, count):
    grid = GridSpec(*extents)
    points = grid.points()
    index = {p: i for i, p in enumerate(points)}
    reference = {tuple(index[q] for q in
                       (_apply_symmetry([p], grid, perm, flips)[0] for p in points))
                 for perm, flips in _point_symmetries(grid)}
    assert set(grid_symmetries(grid)) == reference
    assert len(grid_symmetries(grid)) == count


@pytest.mark.parametrize("extents, max_size", [((2, 2, 2), 8), ((3, 3, 3), 5),
                                               ((4, 4, 1), 6), ((3, 2, 2), 7)],
                         ids=["222-8", "333-5", "441-6", "322-7"])
def test_index_dedup_matches_the_point_orbit_reference(extents, max_size):
    grid = GridSpec(*extents)
    full = [r.point_set.points for r in enumerate_minimal(grid, max_size)]
    deduped = [r.point_set.points for r in enumerate_minimal(grid, max_size, dedup=True)]
    assert deduped == [points for points in full
                       if points == _orbit_representative(points, grid)]
    assert len(deduped) < len(full)


def test_minimize_certificate_ex2_bounds():
    ps = PointSet.from_points(EX2)
    with pytest.raises(NoneWithinBound):
        minimize_certificate(ps, 1)
    cert = minimize_certificate(ps, 2)
    assert cert.sup_norm == 2
    assert certificate_valid(ps, cert)


def test_minimize_certificate_rectangle_pm_one():
    cert = minimize_certificate(PointSet.from_points(RECTANGLE), 1)
    assert cert.sup_norm == 1
    assert set(cert.weights) == {1, -1}


def test_minimize_certificate_needs_nonbasic_input():
    with pytest.raises(NotNonBasic):
        minimize_certificate(PointSet.from_points([(0, 0, 0)]), 1)


def test_minimize_explores_kernel_combinations():
    # two disjoint rectangles: kernel dimension 2, valid +-1 certificates exist
    pts = RECTANGLE + [(p[0] + 4, p[1] + 4, p[2] + 4) for p in RECTANGLE]
    ps = PointSet.from_points(pts)
    cert = minimize_certificate(ps, 1)
    assert cert.sup_norm == 1
    assert certificate_valid(ps, cert)


def test_certificates_extend_by_zeros_to_supersets():
    ps = PointSet.from_points(EX2)
    cert = is_basic(ps).certificate
    bigger = PointSet.from_points(EX2 + [(7, 7, 7)])
    extended = list(cert.weights)
    extended.insert(bigger.points.index((7, 7, 7)), 0)
    assert all(s == 0 for s in slice_sums(bigger, extended).values())
    assert not is_basic(bigger).basic


def test_survey_on_cube_vertices():
    survey = max_weight_survey(GridSpec(2, 2, 2), 8)
    assert survey.max_sup_norm == 2
    assert all(len(w) == 5 for w in survey.witnesses)
    by_size = {}
    for row in survey.rows:
        by_size.setdefault(row.size, set()).add(row.min_sup_norm)
    assert by_size[4] == {1}
    assert by_size[5] == {2}


def _is_closed_lightning_vertex_set(points):
    # vertex sets of simple closed lightnings are exactly the planar sets
    # whose value-incidence graph is a single cycle
    if len({p[2] for p in points}) != 1:
        return False
    nodes = {}
    degree = {}
    for x, y, _ in points:
        degree[("x", x)] = degree.get(("x", x), 0) + 1
        degree[("y", y)] = degree.get(("y", y), 0) + 1
        nodes.setdefault(("x", x), set()).add(("y", y))
        nodes.setdefault(("y", y), set()).add(("x", x))
    if any(d != 2 for d in degree.values()) or len(degree) != len(points):
        return False
    seen = set()
    stack = [next(iter(nodes))]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(nodes[node])
    return len(seen) == len(nodes)


def test_survey_single_slice_grid_is_all_pm_one():
    survey = max_weight_survey(GridSpec(3, 3, 1), 6)
    assert survey.rows
    assert survey.max_sup_norm == 1


def test_survey_planar_grid_finds_only_closed_lightnings():
    survey = max_weight_survey(GridSpec(4, 4, 1), 6)
    assert survey.rows
    assert survey.max_sup_norm == 1
    for row in survey.rows:
        assert row.min_sup_norm == 1
        assert _is_closed_lightning_vertex_set(row.point_set.points)


def _bipartite_cycles(n, m, k):
    """Cycles of length 2k in the complete bipartite graph K_{n,m}."""
    return comb(n, k) * comb(m, k) * factorial(k) * factorial(k - 1) // 2


@pytest.mark.parametrize("n, m, max_size, by_size", [
    (3, 3, 6, {4: 9, 6: 6}),
    (4, 4, 8, {4: 36, 6: 96, 8: 72}),
    (3, 5, 6, {4: 30, 6: 60}),
    (2, 5, 4, {4: 10}),
])
def test_survey_planar_grid_finds_every_cycle_of_the_bipartite_graph(n, m, max_size, by_size):
    # on an n x m x 1 grid the circuits are the cycles of K_{n,m}, x values
    # on one side and y values on the other, each with sup-norm 1
    assert by_size == {2 * k: _bipartite_cycles(n, m, k)
                       for k in range(2, min(n, m, max_size // 2) + 1)}
    survey = max_weight_survey(GridSpec(n, m, 1), max_size)
    assert Counter(row.size for row in survey.rows) == by_size
    assert {row.min_sup_norm for row in survey.rows} == {1}


@pytest.mark.parametrize("dedup, by_size, by_norm", [
    (False, {4: 243, 5: 216, 6: 4248}, {1: 3681, 2: 1026}),
    (True, {4: 14, 5: 10, 6: 117}, {1: 109, 2: 32}),
])
def test_survey_pins_the_cube_census_up_to_six_points(dedup, by_size, by_norm):
    # 4,707 circuits of the 3x3x3 grid up to 6 points, in 141 symmetry orbits
    survey = max_weight_survey(GridSpec(3, 3, 3), 6, dedup=dedup)
    assert Counter(row.size for row in survey.rows) == by_size
    assert Counter(row.min_sup_norm for row in survey.rows) == by_norm


def test_survey_empty_grid():
    survey = max_weight_survey(GridSpec(1, 1, 1), 2)
    assert survey.rows == () and survey.max_sup_norm is None


def test_survey_deterministic_across_workers():
    one = max_weight_survey(GridSpec(2, 2, 2), 5, workers=1)
    for workers in (2, 4):
        more = max_weight_survey(GridSpec(2, 2, 2), 5, workers=workers)
        assert survey_csv(one) == survey_csv(more)
        assert survey_payload(one) == survey_payload(more)


def test_survey_csv_shape():
    text = survey_csv(max_weight_survey(GridSpec(2, 2, 2), 4))
    lines = text.strip().split("\n")
    assert lines[0] == "set,size,minimal,min_sup_norm"
    assert len(lines) == 13
    assert lines[1].endswith(",4,1,1")
