from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from basicsets.core import (Axis, DuplicatePoint, ParseError, PointSet, SliceId,
                            canonicalize, canonicalize_points, format_points_text,
                            parse_points_auto, points_payload, read_points,
                            read_points_text, slices_of)

CUBE8 = [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0),
         (0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)]


def test_canonicalize_singleton_identity():
    ps = canonicalize([(0, 0, 0)])
    assert ps.points == ((0, 0, 0),)
    assert ps.values == ((0,), (0,), (0,))


def test_canonicalize_dense_coordinates_unchanged():
    ps = canonicalize(CUBE8)
    assert ps.points == tuple(sorted(CUBE8))
    assert all(vals == tuple(range(len(vals))) for vals in ps.values)


def test_canonicalize_rank_relabels():
    ps = canonicalize([(10, 0, 0), (10, 5, 0)])
    assert ps.points == ((0, 0, 0), (0, 1, 0))


def test_canonicalize_rejects_duplicates():
    with pytest.raises(DuplicatePoint):
        canonicalize([(0, 0, 0), (0, 0, 0)])


def test_canonicalize_accepts_exact_rationals():
    ps = canonicalize([("1/2", 0, 0), ("3/2", 0, 0), (Fraction(5, 2), 0, 0)])
    assert ps.points == ((0, 0, 0), (1, 0, 0), (2, 0, 0))


def test_int_str_and_fraction_labels_canonicalize_alike():
    def as_str(pts):
        return [tuple(str(c) for c in p) for p in pts]

    def as_fraction(pts):
        return [tuple(Fraction(c) for c in p) for p in pts]

    assert canonicalize(CUBE8) == canonicalize(as_str(CUBE8)) == canonicalize(as_fraction(CUBE8))
    doubled = CUBE8 + [CUBE8[2]]
    messages = set()
    for raw in (doubled, as_str(doubled), as_fraction(doubled)):
        with pytest.raises(DuplicatePoint) as info:
            canonicalize(raw)
        messages.add(str(info.value))
    assert messages == {"point ('1', '2', '0') occurs more than once"}


def test_canonicalize_rejects_floats():
    with pytest.raises(TypeError):
        canonicalize([(0.5, 0, 0)])


def test_canonicalize_preserves_equality_pattern():
    # two raw points map to the same image iff they were equal
    raw = [(7, -2, 100), (7, 3, 100), (9, -2, 100)]
    out = canonicalize_points(raw)
    assert out == [(0, 0, 0), (0, 1, 0), (1, 0, 0)]


def test_empty_set_is_accepted():
    ps = canonicalize([])
    assert len(ps) == 0 and ps.dim == 3
    assert slices_of(ps) == []


point_coords = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
point_lists = st.lists(point_coords, max_size=10, unique=True)


@given(point_lists)
def test_canonicalize_is_idempotent(raw):
    once = canonicalize(raw)
    twice = canonicalize(once.points, dim=3) if raw else once
    assert once == twice


@given(point_lists)
def test_slice_sizes_partition_the_set(raw):
    ps = canonicalize(raw)
    for axis in range(ps.dim):
        sizes = [len(members) for sid, members in slices_of(ps) if sid.axis == axis]
        assert sum(sizes) == len(ps)


@given(point_lists, st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_monotone_relabeling_gives_identical_canonical_form(raw, sx, sy, sz):
    stretched = [(sx * x + 1, sy * y - 3, sz * z) for x, y, z in raw]
    assert canonicalize(stretched) == canonicalize(raw)


@given(st.lists(st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 3),
                max_size=10, unique=True))
def test_canonicalize_builds_the_validated_set(raw):
    want = PointSet.from_points(canonicalize_points(raw), dim=3) if raw else PointSet.empty(3)
    assert canonicalize(raw) == want


def test_slices_of_ex2_lexicographic_grouping():
    # by-hand grouping of the five points in canonical (lexicographic) order:
    # (0,0,0), (0,0,1), (0,1,0), (1,0,0), (1,1,1)
    ps = canonicalize([(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)])
    assert slices_of(ps) == [
        (SliceId(Axis.X, 0), (0, 1, 2)),
        (SliceId(Axis.X, 1), (3, 4)),
        (SliceId(Axis.Y, 0), (0, 1, 3)),
        (SliceId(Axis.Y, 1), (2, 4)),
        (SliceId(Axis.Z, 0), (0, 2, 3)),
        (SliceId(Axis.Z, 1), (1, 4)),
    ]


def test_slices_of_singleton():
    ps = canonicalize([(0, 0, 0)])
    assert slices_of(ps) == [(SliceId(Axis.X, 0), (0,)),
                             (SliceId(Axis.Y, 0), (0,)),
                             (SliceId(Axis.Z, 0), (0,))]


def test_slices_of_disjoint_pair_gives_six_singletons():
    ps = canonicalize([(0, 0, 0), (1, 1, 1)])
    grouped = slices_of(ps)
    assert len(grouped) == 6
    assert all(len(members) == 1 for _, members in grouped)


def test_parse_text_with_comments_and_blanks():
    text = "# corner points\n0 0 0\n\n1 1 0  # another\n"
    ps = parse_points_auto(text)
    assert ps.points == ((0, 0, 0), (1, 1, 0))


def test_parse_text_reports_line_and_column_of_bad_token():
    with pytest.raises(ParseError) as err:
        parse_points_auto("0 0 0\n1 x 0\n")
    assert err.value.line == 2
    assert err.value.column == 3


def test_parse_text_rejects_duplicates_with_line_info():
    with pytest.raises(ParseError) as err:
        parse_points_auto("0 0 0\n1 1 1\n0 0 0\n")
    assert err.value.line == 3


def test_parse_text_rejects_mixed_dimensions():
    with pytest.raises(ParseError):
        parse_points_auto("0 0 0\n1 1\n")


def test_parse_json_and_payload_round_trip():
    import json
    ps = canonicalize(CUBE8)
    again = parse_points_auto(json.dumps(points_payload(ps)))
    assert again == ps


def test_parse_json_rejects_duplicates():
    with pytest.raises(ParseError):
        parse_points_auto('{"dim": 3, "points": [[0,0,0],[0,0,0]]}')


def test_parse_auto_sniffs_format():
    assert parse_points_auto('{"dim": 2, "points": [[0, 1]]}').dim == 2
    assert parse_points_auto("0 1\n").dim == 2


def test_read_points_sniffs_format_and_keeps_file_order():
    assert read_points("5 1\n0 7\n") == (2, [(5, 1), (0, 7)])
    assert read_points(' {"dim": 2, "points": [[5, 1], [0, 7]]}') == (2, [(5, 1), (0, 7)])
    assert read_points("# nothing\n") == (3, [])
    assert read_points("", dim=2) == (2, [])


def test_a_given_dim_must_match_the_points():
    with pytest.raises(ParseError, match="expected 2-D points, the input has 3-D points"):
        parse_points_auto("0 0 1\n1 0 0\n", dim=2)
    with pytest.raises(ParseError, match="expected 2-D points"):
        parse_points_auto("0 0 1\n1 0 0\n", dim=2)
    with pytest.raises(ParseError, match="expected 3-D points, the input has 2-D points"):
        parse_points_auto('{"dim": 2, "points": [[0, 1]]}', dim=3)
    assert parse_points_auto("0 1\n", dim=2).dim == 2
    assert parse_points_auto('{"dim": 2, "points": []}', dim=2).dim == 2
    assert parse_points_auto("", dim=2).dim == 2


def test_text_round_trip_is_exact():
    ps = canonicalize(CUBE8)
    assert parse_points_auto(format_points_text(ps)) == ps


def test_two_dimensional_sets_supported():
    ps = canonicalize([(4, 7), (4, 9)])
    assert ps.dim == 2
    assert ps.points == ((0, 0), (0, 1))
    assert len(slices_of(ps)) == 3


def test_position_lookup():
    ps = canonicalize(CUBE8)
    assert ps.points.index((0, 0, 1)) == 0
    assert (9, 9, 9) not in ps


def _parent_read_points_text(text):
    """The text point reader before the shared line reader, kept as a reference."""
    rows = []
    seen = {}
    dim = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        coords = []
        for tok in line.split():
            try:
                coords.append(int(tok))
            except ValueError:
                raise ParseError(f"{tok!r} is not an integer coordinate",
                                 line=lineno, column=raw_line.find(tok) + 1)
        point = tuple(coords)
        if dim is None:
            if len(point) not in (2, 3):
                raise ParseError(f"expected 2 or 3 coordinates, got {len(point)}", line=lineno)
            dim = len(point)
        elif len(point) != dim:
            raise ParseError(f"expected {dim} coordinates, got {len(point)}", line=lineno)
        if point in seen:
            raise ParseError(f"duplicate point {point} (first at line {seen[point]})", line=lineno)
        seen[point] = lineno
        rows.append(point)
    return rows


_SIGNED = st.builds("{}{}".format, st.sampled_from(["", "-", "+"]), st.integers(0, 12))
# none of these occurs inside a valid token, so the reference finds its column
_BAD = st.sampled_from(["x", "1.5", "--1", "2/3", "q7", "1e3", "\u00b2"])
_GAP = st.sampled_from([" ", "  ", "\t", " \t"])
_EDGE = st.sampled_from(["", " ", "\t"])
_TAIL = st.sampled_from(["", "#", "# note", "  # 1 2 x", "\t#0 0 0"])
_FILLER = st.sampled_from(["", "   ", "\t", "# comment", "  #0 0 0", "#"])


@st.composite
def point_texts(draw, bad):
    dim = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.lists(_SIGNED, min_size=dim, max_size=dim),
                         min_size=int(bad), max_size=6,
                         unique_by=lambda row: tuple(map(int, row))))
    if bad:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, dim - 1))] = draw(_BAD)
    lines = []
    for row in rows:
        lines.extend(draw(st.lists(_FILLER, max_size=2)))
        line = draw(_EDGE) + row[0]
        for tok in row[1:]:
            line += draw(_GAP) + tok
        lines.append(line + draw(_EDGE) + draw(_TAIL))
    lines.extend(draw(st.lists(_FILLER, max_size=2)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@given(point_texts(bad=False))
def test_text_reader_keeps_the_parent_rows(text):
    assert read_points_text(text) == _parent_read_points_text(text)


@given(point_texts(bad=True))
def test_text_reader_puts_a_bad_token_where_the_parent_did(text):
    with pytest.raises(ParseError) as ours:
        read_points_text(text)
    with pytest.raises(ParseError) as parent:
        _parent_read_points_text(text)
    assert (ours.value.line, ours.value.column) == (parent.value.line, parent.value.column)
    assert "is not an integer" in str(ours.value)


def test_bad_token_column_is_its_own_not_an_earlier_match():
    # '+' also occurs inside '+1'; the column is that of the bad token itself
    with pytest.raises(ParseError) as err:
        read_points_text("0 0\n+1 +\n")
    assert (err.value.line, err.value.column) == (2, 4)
