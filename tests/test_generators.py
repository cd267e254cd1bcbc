import random

import pytest

from basicsets.core import Axis, PointSet, SliceId, canonicalize
from basicsets.decide import (Certificate, NotNonBasic, Verdict,
                              certificate_valid, coloring_certificate, is_basic)
from basicsets.generators import (ClosedLightning, CollisionWithExisting,
                                  PointOutsideSlice, PointsNotAligned,
                                  UnbalancedGroup, alternating_coloring,
                                  boyarov_split, closed_lightning,
                                  construction_split, is_basic_2d,
                                  is_lightning, translate_point)

Z0 = SliceId(Axis.Z, 0)
RECT_SEQ = [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 0)]


def test_rectangle_is_a_simple_closed_lightning():
    shape = is_lightning(Z0, RECT_SEQ)
    assert shape == (True, True, True)


def test_consecutive_equal_points_are_rejected():
    assert is_lightning(Z0, [(0, 0, 0), (0, 0, 0)]) == (False, False, False)


def test_alternation_must_be_strict():
    # two x-sharing steps in a row
    assert not is_lightning(Z0, [(0, 0, 0), (0, 1, 0), (0, 2, 0)]).lightning
    # a step sharing neither in-slice coordinate
    assert not is_lightning(Z0, [(0, 0, 0), (1, 1, 0)]).lightning


def test_six_point_staircase_closes_simply():
    seq = [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (2, 2, 0), (2, 0, 0), (0, 0, 0)]
    assert is_lightning(Z0, seq) == (True, True, True)


def test_open_lightning_flags():
    assert is_lightning(Z0, RECT_SEQ[:-1]) == (True, False, True)


def test_point_outside_slice_is_an_error():
    with pytest.raises(PointOutsideSlice):
        is_lightning(Z0, [(0, 0, 1)])


def test_closed_lightning_l2_is_a_rectangle():
    cl = closed_lightning(Z0, 2, seed=7)
    assert set(cl.vertices()) == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)}
    assert cl.simple and cl.l == 2


def test_closed_lightning_properties_for_all_small_sizes():
    for l in range(2, 6):
        for seed in range(5):
            cl = closed_lightning(SliceId(Axis.Y, 3), l, seed=seed)
            shape = is_lightning(cl.slice_id, cl.points)
            assert shape == (True, True, True)
            assert len(set(cl.vertices())) == 2 * l
            assert all(p[Axis.Y] == 3 for p in cl.points)


def test_closed_lightning_is_deterministic_per_seed():
    assert closed_lightning(Z0, 4, seed=11) == closed_lightning(Z0, 4, seed=11)
    assert closed_lightning(Z0, 4, seed=11) != closed_lightning(Z0, 4, seed=12)


def test_closed_lightning_requires_l_at_least_two():
    with pytest.raises(ValueError):
        closed_lightning(Z0, 1)


def test_lightning_vertex_sets_are_nonbasic():
    for seed in range(4):
        cl = closed_lightning(Z0, 3, seed=seed)
        verdict = is_basic(cl.point_set())
        assert not verdict.basic
        cert = coloring_certificate(cl.point_set(), alternating_coloring(cl))
        assert isinstance(cert, Certificate)


def test_construction_split_identity_returns_the_lightning():
    cl = closed_lightning(Z0, 3, seed=2)
    grouping = {p: 0 for p in cl.vertices()}
    out = construction_split(cl, grouping, {0: 0})
    assert out == cl.point_set()


def test_construction_split_balanced_pairs():
    cl = ClosedLightning(Z0, tuple(RECT_SEQ))
    v = cl.vertices()
    # adjacent pairs are one black plus one white each
    grouping = {v[0]: 0, v[1]: 0, v[2]: 1, v[3]: 1}
    out = construction_split(cl, grouping, {0: 0, 1: 1})
    assert not is_basic(out).basic
    # the transported coloring stays balanced in every slice
    colors = alternating_coloring(cl)
    offsets = {0: 0, 1: 1}
    moved = {translate_point(p, Axis.Z, offsets[grouping[p]]): colors[p] for p in v}
    cert = coloring_certificate(out, moved)
    assert isinstance(cert, Certificate)
    assert certificate_valid(out, cert)


def test_construction_split_rejects_same_color_diagonals():
    cl = ClosedLightning(Z0, tuple(RECT_SEQ))
    v = cl.vertices()
    # opposite corners carry the same color, so the diagonals are unbalanced
    grouping = {v[0]: 0, v[2]: 0, v[1]: 1, v[3]: 1}
    with pytest.raises(UnbalancedGroup):
        construction_split(cl, grouping, {0: 0, 1: 1})


def test_construction_split_three_layers():
    cl = closed_lightning(Z0, 3, seed=9)
    v = cl.vertices()
    grouping = {p: i // 2 for i, p in enumerate(v)}
    out = construction_split(cl, grouping, {0: 0, 1: 1, 2: 2})
    assert len(out) == 6
    assert len(out.values[Axis.Z]) == 3
    assert not is_basic(out).basic


def test_boyarov_split_lifts_rectangle_pair():
    rect = PointSet.from_points([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    out = boyarov_split(rect, (0, 0, 0), (0, 1, 0), 1, axis=Axis.Z)
    assert out.points == tuple(sorted([(0, 0, 1), (0, 1, 1), (0, 0, 0),
                                       (1, 0, 0), (1, 1, 0)]))
    assert len(out.values[Axis.Z]) == 2
    assert not is_basic(out).basic


def test_boyarov_split_on_ex2_pair_gives_six_points(named_sets):
    out = boyarov_split(named_sets["ex2"], (0, 0, 0), (0, 1, 0), 1, axis=Axis.Z)
    assert len(out) == 6
    assert not is_basic(out).basic
    # +1 along z collides with (0,0,1), so the translation went to z = -1
    assert (0, 0, -1) in out and (0, 1, -1) in out


def test_boyarov_split_zero_offset_collides(named_sets):
    with pytest.raises(CollisionWithExisting):
        boyarov_split(named_sets["ex2"], (0, 0, 0), (0, 1, 0), 0, axis=Axis.Z)


def test_boyarov_split_requires_nonbasic_input():
    basic_pair = PointSet.from_points([(0, 0, 0), (0, 0, 1)])
    with pytest.raises(NotNonBasic):
        boyarov_split(basic_pair, (0, 0, 0), (0, 0, 1), 1)


def test_boyarov_split_requires_aligned_pair(named_sets):
    with pytest.raises(PointsNotAligned):
        boyarov_split(named_sets["ex2"], (0, 0, 0), (1, 1, 1), 1)
    with pytest.raises(PointsNotAligned):
        # y is not an axis the pair agrees on
        boyarov_split(named_sets["ex2"], (0, 0, 0), (0, 1, 0), 1, axis=Axis.Y)


def test_is_basic_2d_three_loose_points():
    ps = canonicalize([(0, 0), (1, 1), (2, 2)])
    assert is_basic_2d(ps) == Verdict(True)


def test_is_basic_2d_rectangle_certificate():
    ps = canonicalize([(0, 0), (0, 1), (1, 0), (1, 1)])
    verdict = is_basic_2d(ps)
    assert not verdict.basic
    assert verdict.certificate.weights == (1, -1, -1, 1)


def test_is_basic_2d_l_shape():
    assert is_basic_2d(canonicalize([(0, 0), (0, 1), (1, 0)])).basic


def test_is_basic_2d_agrees_with_rank_oracle_on_3x3():
    from itertools import combinations
    grid = [(x, y) for x in range(3) for y in range(3)]
    for k in range(6):
        for subset in combinations(grid, k):
            ps = PointSet.from_points(subset, dim=2) if subset else PointSet.empty(2)
            fast = is_basic_2d(ps)
            slow = is_basic(ps)
            assert fast.basic == slow.basic
            if not fast.basic:
                assert certificate_valid(ps, fast.certificate)
                assert set(fast.certificate.weights) <= {-1, 0, 1}


def test_is_basic_2d_agrees_with_rank_oracle_randomized():
    rng = random.Random(66)
    grid = [(x, y) for x in range(6) for y in range(6)]
    for _ in range(10_000):
        ps = PointSet.from_points(rng.sample(grid, rng.randint(1, 12)), dim=2)
        fast = is_basic_2d(ps)
        assert fast.basic == is_basic(ps).basic
        if not fast.basic:
            assert set(fast.certificate.weights) <= {-1, 0, 1}
            assert certificate_valid(ps, fast.certificate)


def test_fixtures_contents(named_sets):
    assert set(named_sets) == {"example1", "ex2", "cube8"}
    assert len(named_sets["example1"]) == 4
    assert len(named_sets["ex2"]) == 5
    assert len(named_sets["cube8"]) == 8
    assert is_basic(named_sets["example1"]).basic
    assert not is_basic(named_sets["ex2"]).basic
    assert not is_basic(named_sets["cube8"]).basic


def test_cube8_has_no_doubly_agreeing_pair(named_sets):
    pts = named_sets["cube8"].points
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            assert sum(a == b for a, b in zip(p, q)) < 2


def test_construction_outputs_are_nonbasic_randomized():
    rng = random.Random(31)
    for trial in range(25):
        l = rng.randint(2, 5)
        cl = closed_lightning(SliceId(Axis(rng.randint(0, 2)), rng.randint(-2, 2)),
                              l, seed=trial)
        v = cl.vertices()
        group_count = rng.randint(1, l)
        grouping = {}
        for pair in range(l):
            gid = rng.randint(0, group_count - 1)
            grouping[v[2 * pair]] = gid
            grouping[v[2 * pair + 1]] = gid
        offsets = {gid: rng.randint(-3, 3) for gid in range(group_count)}
        out = construction_split(cl, grouping, offsets)
        assert not is_basic(out).basic
