import copy
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from basicsets.core import PointSet
from basicsets.decide import slice_rows
from basicsets.ratlin import (RatMatrix, Unsolvable, ZeroVector, _reduce, circuits,
                              column_solve, dot, first_circuit, kernel_basis,
                              primitive_integer, rank, rref, solve)

# transpose of the slice system of the five points (0,0,0), (0,0,1), (0,1,0),
# (1,0,0), (1,1,1): one row per slice, one column per point
EX2_TRANSPOSE = RatMatrix([
    [1, 1, 1, 0, 0],   # x=0
    [0, 0, 0, 1, 1],   # x=1
    [1, 1, 0, 1, 0],   # y=0
    [0, 0, 1, 0, 1],   # y=1
    [1, 0, 1, 1, 0],   # z=0
    [0, 1, 0, 0, 1],   # z=1
])


def test_rref_identity_is_fixed():
    ident = RatMatrix.identity(2)
    reduced, pivots = rref(ident)
    assert reduced == ident
    assert pivots == [0, 1]


def test_rref_collapses_repeated_rows():
    reduced, pivots = rref(RatMatrix([[1, 1], [1, 1]]))
    assert reduced == RatMatrix([[1, 1], [0, 0]])
    assert pivots == [0]


def test_ex2_transpose_has_rank_four_nullity_one():
    _, pivots = rref(EX2_TRANSPOSE)
    assert len(pivots) == 4
    assert len(kernel_basis(EX2_TRANSPOSE)) == 1


def test_kernel_of_identity_is_empty():
    assert kernel_basis(RatMatrix.identity(3)) == []


def test_kernel_of_row_vector():
    assert kernel_basis(RatMatrix([[1, 1]])) == [[Fraction(-1), Fraction(1)]]


def test_ex2_kernel_vector_is_proportional_to_expected():
    # solving the six slice equations by substitution forces
    # w = t * (2, -1, -1, -1, 1)
    (vec,) = kernel_basis(EX2_TRANSPOSE)
    assert primitive_integer(vec) == [2, -1, -1, -1, 1]


def test_solve_identity():
    assert solve(RatMatrix.identity(2), [1, 2]) == [Fraction(1), Fraction(2)]


def test_solve_detects_inconsistency():
    with pytest.raises(Unsolvable):
        solve(RatMatrix([[1, 1], [1, 1]]), [1, 0])


def test_solve_uses_free_variable_zero_convention():
    assert solve(RatMatrix([[1, 1], [1, 1]]), [1, 1]) == [Fraction(1), Fraction(0)]


def test_primitive_integer_clears_denominators():
    assert primitive_integer([Fraction(1, 2), Fraction(-1, 4)]) == [2, -1]


def test_primitive_integer_keeps_primitive_vectors():
    assert primitive_integer([2, -1, -1, -1, 1]) == [2, -1, -1, -1, 1]


def test_primitive_integer_sign_rule():
    assert primitive_integer([-3, 3]) == [1, -1]


def test_primitive_integer_rejects_zero():
    with pytest.raises(ZeroVector):
        primitive_integer([0, 0])


def test_empty_shapes():
    tall = RatMatrix([[], [], []])
    assert tall.ncols == 0 and rank(tall) == 0
    wide = RatMatrix([], ncols=4)
    assert kernel_basis(wide) == [RatMatrix.identity(4).rows[i] for i in range(4)]
    assert solve(wide, []) == [Fraction(0)] * 4


small_entries = st.integers(-4, 4)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(st.lists(small_entries, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


@given(matrices())
def test_kernel_vectors_annihilate_exactly(rows):
    m = RatMatrix(rows)
    for vec in kernel_basis(m):
        assert m.mul_vec(vec) == [Fraction(0)] * m.nrows


@given(matrices())
def test_rank_plus_nullity_is_column_count(rows):
    m = RatMatrix(rows)
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@given(matrices())
def test_integer_rank_fast_path_agrees_with_rref(rows):
    m = RatMatrix(rows)
    assert rank(m) == len(rref(m)[1])


@given(matrices(), st.data())
def test_solve_solutions_verify_exactly(rows, data):
    m = RatMatrix(rows)
    b = data.draw(st.lists(small_entries, min_size=m.nrows, max_size=m.nrows))
    try:
        x = solve(m, b)
    except Unsolvable:
        return
    assert m.mul_vec(x) == [Fraction(v) for v in b]


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                min_size=1, max_size=6).filter(lambda v: any(v)))
def test_primitive_integer_invariants(vec):
    out = primitive_integer(vec)
    from math import gcd
    assert gcd(*out) == 1
    assert next(x for x in out if x) > 0
    # output stays on the same line through the origin
    ratio = None
    for a, b in zip(vec, out):
        if b:
            r = Fraction(a) / b
            assert ratio is None or r == ratio
            ratio = r
        else:
            assert a == 0


def test_unsolvable_really_has_no_small_solution():
    # independent cross-check: exhaustive rational search over a bounded grid
    rng = random.Random(414)
    grid = sorted({Fraction(p, q) for p in range(-4, 5) for q in range(1, 4)})
    checked_unsolvable = 0
    for _ in range(60):
        m = RatMatrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)])
        b = [rng.randint(-2, 2) for _ in range(3)]
        try:
            x = solve(m, b)
        except Unsolvable:
            checked_unsolvable += 1
            for cand in product(grid, repeat=2):
                assert m.mul_vec(list(cand)) != [Fraction(v) for v in b]
        else:
            assert m.mul_vec(x) == [Fraction(v) for v in b]
    assert checked_unsolvable > 5


def test_dot_is_exact():
    assert dot([Fraction(1, 3), 2], [3, Fraction(1, 2)]) == 2


def _sparse(rows):
    return [{c: int(x) for c, x in enumerate(row) if x} for row in rows]


def test_first_circuit_of_ex2_points():
    point_rows = EX2_TRANSPOSE.transpose().rows
    assert first_circuit(_sparse(point_rows)) == {0: 2, 1: -1, 2: -1, 3: -1, 4: 1}


def test_first_circuit_edge_cases():
    assert first_circuit([]) is None
    assert first_circuit([{0: 2}, {1: -3}]) is None
    assert first_circuit([{0: 1}, {}]) == {1: 1}
    assert first_circuit([{0: 2, 1: 4}, {0: 3, 1: 6}]) == {0: -3, 1: 2}


@given(matrices(max_rows=7, max_cols=5))
def test_first_circuit_is_the_first_canonical_kernel_vector(rows):
    # rows of `rows` are the columns of its transpose, so the first dependent
    # row is the transpose's first free column
    tag = first_circuit(_sparse(rows))
    kernel = kernel_basis(RatMatrix(rows).transpose())
    if tag is None:
        assert kernel == []
        return
    free = max(tag)
    assert gcd(*tag.values()) == 1
    assert [Fraction(tag.get(i, 0), tag[free]) for i in range(len(rows))] == kernel[0]


@given(matrices(max_rows=7, max_cols=5))
def test_circuits_are_the_canonical_kernel_basis_in_order(rows):
    # each dependent row's tag, divided by its own (greatest-index) entry, is
    # the canonical kernel vector of the transpose for that free column
    kernel = kernel_basis(RatMatrix(rows).transpose())
    scaled = []
    for tag in circuits(_sparse(rows)):
        own = max(tag)
        assert gcd(*tag.values()) == 1
        scaled.append([Fraction(tag.get(i, 0), tag[own]) for i in range(len(rows))])
    assert scaled == kernel


def _reference_echelon(rows):
    """Reference: the elimination loop with its reduction step written inline,
    dividing by the content after every step.  Returns the echelon of the
    independent rows and the tags of the dependent ones, in order."""
    def combine(u, s, v, t):
        out = {k: s * x for k, x in u.items()}
        for k, x in v.items():
            out[k] = out.get(k, 0) + t * x
        return {k: x for k, x in out.items() if x}

    echelon, found = {}, []
    for index, row in enumerate(rows):
        vec = {c: x for c, x in row.items() if x}
        tag = {index: 1}
        while vec and (lead := min(vec)) in echelon:
            pivot_row, pivot_tag = echelon[lead]
            g = gcd(vec[lead], pivot_row[lead])
            s, t = pivot_row[lead] // g, -vec[lead] // g
            vec = combine(vec, s, pivot_row, t)
            tag = combine(tag, s, pivot_tag, t)
            content = gcd(*vec.values(), *tag.values())
            vec = {c: x // content for c, x in vec.items()}
            tag = {i: x // content for i, x in tag.items()}
        if vec:
            echelon[lead] = (vec, tag)
        else:
            found.append(tag)
    return echelon, found


def _echelon(rows):
    """The echelon that circuits builds: _reduce on each row, in order."""
    echelon = {}
    for index, row in enumerate(rows):
        vec, tag = _reduce(echelon, row, index)
        if vec:
            echelon[min(vec)] = (vec, tag)
    return echelon


sparse_rows = st.lists(st.dictionaries(st.integers(0, 6), st.integers(-6, 6), max_size=4),
                       max_size=10)
# the 27 point rows of the 3x3x3 grid's slice matrix, 0/1 over 9 slices
GRID333_ROWS = slice_rows(PointSet.from_points(list(product(range(3), repeat=3)), dim=3))


@given(sparse_rows)
def test_circuits_match_the_inline_elimination_loop(rows):
    assert list(circuits(rows)) == _reference_echelon(rows)[1]


@given(st.one_of(sparse_rows, st.permutations(GRID333_ROWS),
                 st.lists(st.sampled_from(GRID333_ROWS), max_size=12)))
# row 2 meets the second pivot with multiplier 1 while its own tag entry is
# 5, and the step leaves content 5: a content test keyed on the multiplier
# would keep it
@example([{1: 5, 2: -3}, {1: 1, 3: 1}, {1: 2}])
def test_echelon_rows_and_tags_match_the_inline_elimination_loop(rows):
    # every stored (residual, tag), not only the circuits, is the always-gcd
    # reference's; on the 0/1 grid rows a skipped division may never show, so
    # the survey digest alone cannot catch a wrong content shortcut
    assert _echelon(rows) == _reference_echelon(rows)[0]


@given(sparse_rows, st.dictionaries(st.integers(0, 6), st.integers(-6, 6), max_size=4))
def test_reduce_leaves_the_echelon_unchanged(rows, row):
    echelon = _echelon(rows)
    before = copy.deepcopy(echelon)
    _reduce(echelon, row, len(rows))
    assert echelon == before


def test_column_solve_examples():
    # columns of [[1, 1], [1, 1]]
    assert column_solve([{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 1]) == [Fraction(1), Fraction(0)]
    with pytest.raises(Unsolvable):
        column_solve([{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 0])
    assert column_solve([{0: 2}, {1: 3}], [1, Fraction(1, 2)]) == [Fraction(1, 2), Fraction(1, 6)]
    assert column_solve([{}, {}], [0]) == [Fraction(0)] * 2
    assert column_solve([], []) == []
    with pytest.raises(Unsolvable):
        column_solve([], [Fraction(1, 3)])


@given(matrices(max_rows=6, max_cols=6), st.data())
def test_column_solve_matches_dense_solve(rows, data):
    m = RatMatrix(rows)
    b = data.draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12),
                           min_size=m.nrows, max_size=m.nrows))
    if data.draw(st.booleans()):
        # a right-hand side in the column space, so the solve path is exercised
        coeffs = data.draw(st.lists(small_entries, min_size=m.ncols, max_size=m.ncols))
        b = [Fraction(v) / 7 for v in m.mul_vec(coeffs)]
    columns = _sparse(m.transpose().rows)
    try:
        want = solve(m, b)
    except Unsolvable:
        with pytest.raises(Unsolvable):
            column_solve(columns, b)
        return
    assert column_solve(columns, b) == want
