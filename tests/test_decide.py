import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, strategies as st

from basicsets import ratlin
from basicsets.core import Axis, PointSet, SliceId, canonicalize, slices_of
from basicsets.decide import (Certificate, Color, Decomposition, DomainMismatch,
                              InvalidColoring, Verdict, Witness, certificate_valid,
                              coloring_certificate, decompose, is_basic, peel,
                              slice_matrix, slice_sums)
from basicsets.generators import (CollisionWithExisting, boyarov_split, closed_lightning,
                                  construction_split)

EX2_CERT = (2, -1, -1, -1, 1)
# weights in canonical (lexicographic) point order; the four +1 points are one
# color class of the balanced coloring, the four -1 points the other
CUBE8_CERT = (1, -1, -1, 1, 1, -1, -1, 1)
CUBE8_BLACK = {(3, 0, 0), (0, 3, 0), (1, 1, 1), (2, 2, 1)}


def rectangle2d():
    return canonicalize([(0, 0), (0, 1), (1, 0), (1, 1)])


def test_slice_matrix_singleton():
    sm = slice_matrix(canonicalize([(0, 0, 0)]))
    assert sm.matrix.rows == [[1, 1, 1]]
    assert sm.columns == (SliceId(Axis.X, 0), SliceId(Axis.Y, 0), SliceId(Axis.Z, 0))


def test_slice_matrix_ex2_row_for_origin(named_sets):
    sm = slice_matrix(named_sets["ex2"])
    assert (sm.matrix.nrows, sm.matrix.ncols) == (5, 6)
    # row of (0,0,0): ones exactly in the x=0, y=0, z=0 columns
    want = [1 if sid.value == 0 else 0 for sid in sm.columns]
    assert sm.matrix.rows[0] == want
    # each row marks one slice per axis
    assert all(sum(row) == 3 for row in sm.matrix.rows)


def test_slice_matrix_example1_column_sums(named_sets):
    sm = slice_matrix(named_sets["example1"])
    assert (sm.matrix.nrows, sm.matrix.ncols) == (4, 6)
    for c in range(6):
        assert sum(row[c] for row in sm.matrix.rows) == 2


def test_empty_set_is_basic():
    assert is_basic(PointSet.empty(3)) == Verdict(True)


def test_example1_is_basic(named_sets):
    assert is_basic(named_sets["example1"]).basic


def test_ex2_certificate(named_sets):
    verdict = is_basic(named_sets["ex2"])
    assert not verdict.basic
    assert verdict.certificate.weights == EX2_CERT
    assert certificate_valid(named_sets["ex2"], verdict.certificate)


def test_ex2_certificate_against_exhaustive_enumeration(named_sets):
    # independent oracle: all integer weight vectors in [-3,3]^5 whose sums
    # vanish on every slice are the multiples of the one certificate
    ps = named_sets["ex2"]
    solutions = set()
    for w in product(range(-3, 4), repeat=5):
        if any(w) and all(s == 0 for s in slice_sums(ps, w).values()):
            solutions.add(w)
    assert solutions == {EX2_CERT, tuple(-x for x in EX2_CERT)}


def test_cube8_certificate_matches_balanced_coloring(named_sets):
    cube8 = named_sets["cube8"]
    verdict = is_basic(cube8)
    assert not verdict.basic
    assert verdict.certificate.weights == CUBE8_CERT
    assert verdict.certificate.sup_norm == 1
    coloring = {p: Color.BLACK if p in CUBE8_BLACK else Color.WHITE for p in cube8}
    cert = coloring_certificate(cube8, coloring)
    assert isinstance(cert, Certificate)
    assert cert == verdict.certificate


def test_decompose_example1_matches_closed_form(named_sets):
    ps = named_sets["example1"]
    a, b, c, d = Fraction(1), Fraction(2), Fraction(3), Fraction(4)
    f = {(0, 1, 0): a, (1, 0, 0): b, (0, 0, 1): c, (1, 1, 1): d}
    closed_form = Decomposition((
        {0: a / 2 - d / 2, 1: b / 2 - c / 2},
        {0: b / 2 + c / 2, 1: a / 2 + d / 2},
        {0: Fraction(0), 1: -a / 2 - b / 2 + c / 2 + d / 2},
    ))
    for p, value in f.items():
        assert closed_form.value_at(p) == value
    solved = decompose(ps, f)
    assert isinstance(solved, Decomposition)
    for p, value in f.items():
        assert solved.value_at(p) == value


def test_decompose_zero_function_gives_zero_tables(named_sets):
    ps = named_sets["ex2"]
    result = decompose(ps, {p: 0 for p in ps})
    assert isinstance(result, Decomposition)
    assert all(x == 0 for table in result.tables for x in table.values())


def test_decompose_indicator_on_ex2_yields_witness(named_sets):
    ps = named_sets["ex2"]
    f = {p: Fraction(1 if p == (0, 0, 0) else 0) for p in ps}
    result = decompose(ps, f)
    assert isinstance(result, Witness)
    assert result.certificate.weights == EX2_CERT
    assert result.pairing == 2


def test_decompose_rejects_wrong_domain(named_sets):
    ps = named_sets["ex2"]
    with pytest.raises(DomainMismatch):
        decompose(ps, {(0, 0, 0): 1})


def indicator_witness(ps, cert):
    """Indicator of the first point with nonzero weight.

    By construction the certificate pairs with it to that weight, which is
    nonzero, so decompose() on the result returns a Witness.
    """
    if len(cert.weights) != len(ps):
        raise DomainMismatch(f"certificate has {len(cert.weights)} weights for {len(ps)} points")
    target = ps.points[next(i for i, w in enumerate(cert.weights) if w)]
    return {p: Fraction(1 if p == target else 0) for p in ps.points}


def test_indicator_witness_picks_first_nonzero(named_sets):
    ps = named_sets["ex2"]
    cert = is_basic(ps).certificate
    f = indicator_witness(ps, cert)
    assert f[(0, 0, 0)] == 1
    assert sum(f.values()) == 1
    result = decompose(ps, f)
    assert isinstance(result, Witness)

    cube8 = named_sets["cube8"]
    g = indicator_witness(cube8, is_basic(cube8).certificate)
    assert g[cube8.points[0]] == 1


def test_indicator_witness_last_point_only():
    ps = canonicalize([(0, 0, 0), (1, 1, 1)])
    cert = Certificate((0, 1))  # type-valid weights, nonzero only at the last point
    f = indicator_witness(ps, cert)
    assert f[(1, 1, 1)] == 1 and f[(0, 0, 0)] == 0


def test_peel_disjoint_pair_empties():
    ps = canonicalize([(0, 0, 0), (1, 1, 1)])
    order, core = peel(ps)
    assert order == [(0, 0, 0), (1, 1, 1)]
    assert len(core) == 0


def test_peel_ex2_removes_nothing(named_sets):
    order, core = peel(named_sets["ex2"])
    assert order == []
    assert core == named_sets["ex2"]


def test_peel_far_point_leaves_rectangle():
    rect = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    ps = PointSet.from_points(rect + [(5, 5, 5)])
    order, core = peel(ps)
    assert order == [(5, 5, 5)]
    assert core.points == tuple(sorted(rect))


def _quadratic_peel(ps, pick=min):
    """Reference peel: regroup the remainder after every single removal and
    strip the lonely point that `pick` chooses from the sorted candidates."""
    remaining = list(ps.points)
    order = []
    while remaining:
        groups = {}
        for p in remaining:
            for a in range(ps.dim):
                groups.setdefault((a, p[a]), []).append(p)
        lonely = sorted({g[0] for g in groups.values() if len(g) == 1})
        if not lonely:
            break
        victim = pick(lonely)
        remaining.remove(victim)
        order.append(victim)
    return order, PointSet.from_points(remaining, dim=ps.dim)


def test_peel_outcome_is_order_independent(corpus_random333):
    rng = random.Random(99)
    for ps in corpus_random333[:300]:
        _, core = peel(ps)
        # re-peel with random victim choices instead of the lowest point
        assert _quadratic_peel(ps, pick=rng.choice)[1] == core


def _assert_peel_matches_reference(ps):
    order, core = peel(ps)
    want_order, want_core = _quadratic_peel(ps)
    assert order == want_order
    assert core == want_core


def _point_sets(dim, side, max_size):
    coords = st.tuples(*[st.integers(0, side - 1)] * dim)
    return st.lists(coords, min_size=1, max_size=max_size, unique=True).map(canonicalize)


@given(_point_sets(2, 6, 30))
def test_peel_matches_reference_on_random_2d_sets(ps):
    _assert_peel_matches_reference(ps)


@given(_point_sets(3, 5, 40))
def test_peel_matches_reference_on_random_3d_sets(ps):
    _assert_peel_matches_reference(ps)


@given(st.sampled_from(list(Axis)), st.integers(2, 8), st.integers(0, 10**6),
       st.lists(st.tuples(*[st.integers(0, 9)] * 3), max_size=15))
def test_peel_matches_reference_on_closed_lightnings(axis, l, seed, extra):
    vertices = set(closed_lightning(SliceId(axis, 0), l, seed=seed).vertices())
    _assert_peel_matches_reference(PointSet.from_points(sorted(vertices | set(extra)), dim=3))


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=6, unique=True),
       st.lists(st.tuples(*[st.integers(0, 8)] * 3), max_size=20))
def test_peel_matches_reference_on_example1_copies(named_sets, offsets, extra):
    copies = {tuple(c + 2 * d for c, d in zip(p, offset))
              for offset in offsets for p in named_sets["example1"].points}
    _assert_peel_matches_reference(PointSet.from_points(sorted(copies | set(extra)), dim=3))


def _dense_is_basic(ps):
    """Reference oracle: rank of the transposed Fraction slice matrix, then the
    first canonical kernel basis vector scaled to primitive integers."""
    if len(ps) == 0:
        return Verdict(True)
    transpose = slice_matrix(ps).matrix.transpose()
    if ratlin.rank(transpose) == len(ps):
        return Verdict(True)
    vector = ratlin.kernel_basis(transpose)[0]
    return Verdict(False, Certificate(tuple(ratlin.primitive_integer(vector))))


def _assert_oracle_matches_reference(ps):
    assert is_basic(ps) == _dense_is_basic(ps)


@given(_point_sets(2, 6, 30))
def test_is_basic_matches_dense_reference_on_random_2d_sets(ps):
    _assert_oracle_matches_reference(ps)


@given(_point_sets(3, 5, 40))
def test_is_basic_matches_dense_reference_on_random_3d_sets(ps):
    _assert_oracle_matches_reference(ps)


def _lightning(axis, l, seed):
    return closed_lightning(SliceId(axis, 0), l, seed=seed)


lightnings = st.builds(_lightning, st.sampled_from(list(Axis)), st.integers(2, 8),
                       st.integers(0, 10**6))


@given(lightnings, st.lists(st.tuples(*[st.integers(0, 9)] * 3), max_size=8))
def test_is_basic_matches_dense_reference_on_closed_lightnings(cl, extra):
    vertices = set(cl.vertices())
    _assert_oracle_matches_reference(PointSet.from_points(sorted(vertices | set(extra)), dim=3))


@given(lightnings, st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_is_basic_matches_dense_reference_on_construction_splits(cl, offsets):
    # consecutive vertices have opposite colors, so each pair is a balanced group
    vertices = cl.vertices()
    grouping = {p: (i // 2) % len(offsets) for i, p in enumerate(vertices)}
    ps = construction_split(cl, grouping, dict(enumerate(offsets)))
    _assert_oracle_matches_reference(ps)


@given(lightnings, st.data(), st.integers(-4, 4).filter(bool))
def test_is_basic_matches_dense_reference_on_boyarov_splits(cl, data, offset):
    # consecutive lightning vertices agree in two coordinates
    vertices = cl.vertices()
    i = data.draw(st.integers(0, len(vertices) - 2))
    try:
        ps = boyarov_split(cl.point_set(), vertices[i], vertices[i + 1], offset)
    except CollisionWithExisting:
        return
    _assert_oracle_matches_reference(ps)


rational_labels = st.fractions(min_value=-1, max_value=1, max_denominator=2)


@given(st.lists(st.tuples(*[rational_labels] * 3), min_size=1, max_size=25, unique=True))
def test_is_basic_matches_dense_reference_on_rational_labels(raw):
    _assert_oracle_matches_reference(canonicalize(raw))


def _dense_decompose(ps, f):
    """Reference decompose: the Fraction solve of the slice system, and on
    failure the first canonical kernel vector of the transpose that pairs to
    nonzero against f, scaled to primitive integers."""
    values = [Fraction(f[p]) for p in ps.points]
    sm = slice_matrix(ps)
    try:
        x = ratlin.solve(sm.matrix, values)
    except ratlin.Unsolvable:
        for vector in ratlin.kernel_basis(sm.matrix.transpose()):
            if ratlin.dot(vector, values) != 0:
                weights = ratlin.primitive_integer(vector)
                return Witness(Certificate(tuple(weights)), ratlin.dot(weights, values))
        raise AssertionError("inconsistent system but every kernel vector pairs to zero")
    tables = tuple({} for _ in range(ps.dim))
    for sid, xv in zip(sm.columns, x):
        tables[sid.axis][sid.value] = xv
    return Decomposition(tables)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def _functions(data, ps):
    """A random rational function on ps, or half the time an additive one."""
    if data.draw(st.booleans()):
        return {p: data.draw(rationals) for p in ps.points}
    tables = [{v: data.draw(rationals) for v in ps.values[a]} for a in range(ps.dim)]
    return {p: sum(tables[a][p[a]] for a in range(ps.dim)) for p in ps.points}


def _assert_decompose_matches_reference(ps, data):
    f = _functions(data, ps)
    result = decompose(ps, f)
    assert result == _dense_decompose(ps, f)
    if isinstance(result, Decomposition):
        assert all(result.value_at(p) == f[p] for p in ps.points)


@given(_point_sets(2, 6, 30), st.data())
def test_decompose_matches_dense_reference_on_random_2d_sets(ps, data):
    _assert_decompose_matches_reference(ps, data)


@given(_point_sets(3, 5, 40), st.data())
def test_decompose_matches_dense_reference_on_random_3d_sets(ps, data):
    _assert_decompose_matches_reference(ps, data)


@given(lightnings, st.lists(st.tuples(*[st.integers(0, 9)] * 3), max_size=8), st.data())
def test_decompose_matches_dense_reference_on_closed_lightnings(cl, extra, data):
    vertices = set(cl.vertices())
    ps = PointSet.from_points(sorted(vertices | set(extra)), dim=3)
    _assert_decompose_matches_reference(ps, data)


@given(lightnings, st.lists(st.integers(-3, 3), min_size=1, max_size=4), st.data())
def test_decompose_matches_dense_reference_on_construction_splits(cl, offsets, data):
    vertices = cl.vertices()
    grouping = {p: (i // 2) % len(offsets) for i, p in enumerate(vertices)}
    ps = construction_split(cl, grouping, dict(enumerate(offsets)))
    _assert_decompose_matches_reference(ps, data)


@given(lightnings, st.data(), st.integers(-4, 4).filter(bool))
def test_decompose_matches_dense_reference_on_boyarov_splits(cl, data, offset):
    vertices = cl.vertices()
    i = data.draw(st.integers(0, len(vertices) - 2))
    try:
        ps = boyarov_split(cl.point_set(), vertices[i], vertices[i + 1], offset)
    except CollisionWithExisting:
        return
    _assert_decompose_matches_reference(ps, data)


def test_coloring_certificate_on_alternating_rectangle():
    ps = PointSet.from_points([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    coloring = {(0, 0, 0): Color.BLACK, (1, 1, 0): Color.BLACK,
                (0, 1, 0): Color.WHITE, (1, 0, 0): Color.WHITE}
    cert = coloring_certificate(ps, coloring)
    assert isinstance(cert, Certificate)
    assert certificate_valid(ps, cert)
    assert set(cert.weights) == {1, -1}


def test_every_coloring_of_ex2_is_invalid(named_sets):
    # |M| = 5 is odd, so the size-3 slices can never be balanced
    ps = named_sets["ex2"]
    for bits in product((Color.BLACK, Color.WHITE), repeat=5):
        result = coloring_certificate(ps, dict(zip(ps.points, bits)))
        assert isinstance(result, InvalidColoring)


def test_coloring_certificate_requires_total_coloring(named_sets):
    with pytest.raises(DomainMismatch):
        coloring_certificate(named_sets["ex2"], {(0, 0, 0): Color.BLACK})


def test_nonbasic_verdicts_carry_valid_certificates(corpus_random333, oracle):
    seen_nonbasic = 0
    for ps in corpus_random333[:2000]:
        verdict = oracle(ps)
        if not verdict.basic:
            seen_nonbasic += 1
            assert any(verdict.certificate.weights)
            assert certificate_valid(ps, verdict.certificate)
    assert seen_nonbasic > 50


def test_verdict_kind_is_invariant_under_symmetries(corpus_random333):
    # permuting axes, reflecting an axis, and injectively renaming values
    # all preserve the coincidence pattern, hence the verdict kind
    rng = random.Random(2718)
    for ps in corpus_random333[:200]:
        want = is_basic(ps).basic
        perm = rng.sample(range(3), 3)
        moved = [tuple(p[perm[i]] for i in range(3)) for p in ps.points]
        tables = []
        for i in range(3):
            values = sorted({q[i] for q in moved})
            if rng.random() < 0.5:
                values = list(reversed(values))
            tables.append(dict(zip(values, rng.sample(range(-100, 100), len(values)))))
        renamed = [tuple(tables[i][q[i]] for i in range(3)) for q in moved]
        assert is_basic(canonicalize(renamed)).basic == want


# ---------------------------------------------------------------------------
# Completeness cross-check: basic exactly when 20 random rational functions
# and all indicator functions decompose.  The independent oracle is a
# fraction-free multi-right-hand-side elimination written here from scratch.

def _consistency_profile(ps, functions):
    """For each function, whether the slice system has an exact solution."""
    slices = slices_of(ps)
    n, m = len(ps), len(slices)
    rows = [[0] * (m + len(functions)) for _ in range(n)]
    for col, (_, members) in enumerate(slices):
        for i in members:
            rows[i][col] = 1
    for j, f in enumerate(functions):
        scale = lcm(*(Fraction(x).denominator for x in f)) if f else 1
        for i, x in enumerate(f):
            rows[i][m + j] = int(Fraction(x) * scale)
    r, prev = 0, 1
    width = m + len(functions)
    for c in range(m):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, n):
            fi = rows[i][c]
            for jj in range(c + 1, width):
                q, rem = divmod(rows[i][jj] * pv - fi * rows[r][jj], prev)
                assert rem == 0
                rows[i][jj] = q
            rows[i][c] = 0
        prev = pv
        r += 1
        if r == n:
            break
    return [all(rows[i][m + j] == 0 for i in range(r, n)) for j in range(len(functions))]


def _sample_functions(ps, rng, count=20):
    out = []
    for _ in range(count):
        out.append([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in ps.points])
    for i in range(len(ps)):
        out.append([Fraction(1 if j == i else 0) for j in range(len(ps))])
    return out


def test_basic_iff_everything_decomposes(corpus_cube222, corpus_random333, oracle):
    rng = random.Random(1729)
    audited = 0
    for index, ps in enumerate(corpus_cube222 + corpus_random333):
        functions = _sample_functions(ps, rng)
        profile = _consistency_profile(ps, functions)
        assert oracle(ps).basic == all(profile)
        if index % 200 == 0 and len(ps) > 0:
            audited += 1
            for f, consistent in zip(functions[:3] + functions[-1:],
                                     profile[:3] + profile[-1:]):
                result = decompose(ps, dict(zip(ps.points, f)))
                if consistent:
                    assert isinstance(result, Decomposition)
                    for p, value in zip(ps.points, f):
                        assert result.value_at(p) == value
                else:
                    assert isinstance(result, Witness)
                    assert result.pairing != 0
                    assert certificate_valid(ps, result.certificate)
    assert audited > 30
