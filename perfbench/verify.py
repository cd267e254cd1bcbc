"""Output checks that share no code with the library under test.

Each check returns None when the output is proven right, or a short reason.
Non-basic verdicts are checked by their certificate, basic verdicts by a
rank computation of this file's own (peeling, then elimination mod a prime),
decompositions by exact re-evaluation and witnesses by recomputing the
pairing.
"""

import json
from fractions import Fraction
from math import gcd

# Full row rank mod P implies full row rank over Q: a nonzero minor mod P is
# a nonzero integer.
P = (1 << 61) - 1


def canonical(points) -> list[tuple[int, ...]]:
    """Dense per-axis ranks of raw points, sorted: the set as the CLI reports it."""
    dim = len(points[0])
    ranks = [{v: r for r, v in enumerate(sorted({p[a] for p in points}))} for a in range(dim)]
    return sorted(tuple(ranks[a][p[a]] for a in range(dim)) for p in points)


def slice_members(points) -> dict:
    groups: dict = {}
    for i, p in enumerate(points):
        for a, v in enumerate(p):
            groups.setdefault((a, v), []).append(i)
    return groups


def certificate_problem(points, weights) -> str | None:
    """Primitive, positive leading entry, and zero sum over every slice."""
    if len(weights) != len(points):
        return f"certificate has {len(weights)} weights for {len(points)} points"
    if any(isinstance(w, bool) or not isinstance(w, int) for w in weights):
        return "certificate weights are not integers"
    nonzero = [w for w in weights if w]
    if not nonzero:
        return "certificate is zero"
    if nonzero[0] < 0:
        return "certificate leading entry is negative"
    if gcd(*weights) != 1:
        return "certificate is not primitive"
    for key, members in slice_members(points).items():
        if sum(weights[i] for i in members):
            return f"certificate does not sum to zero on slice {key}"
    return None


def _peel(points) -> list[int]:
    """Indices left after repeatedly removing a point alone in some slice.

    Such a point owns a private column of the point-by-slice matrix, so its
    row is independent of the rest and removing it keeps the rank deficit.
    """
    groups = slice_members(points)
    count = {key: len(m) for key, m in groups.items()}
    alive = [True] * len(points)
    queue = [i for i, p in enumerate(points)
             if any(count[(a, v)] == 1 for a, v in enumerate(p))]
    while queue:
        i = queue.pop()
        if not alive[i]:
            continue
        alive[i] = False
        for a, v in enumerate(points[i]):
            count[(a, v)] -= 1
            if count[(a, v)] == 1:
                queue.extend(j for j in groups[(a, v)] if alive[j])
    return [i for i in range(len(points)) if alive[i]]


def full_row_rank_mod_p(points) -> bool:
    """True when the point-by-slice 0/1 matrix has independent rows mod P."""
    core = [points[i] for i in _peel(points)]
    if not core:
        return True
    columns = {key: c for c, key in enumerate(sorted(slice_members(core)))}
    if len(core) > len(columns):
        return False
    rows = []
    for p in core:
        row = [0] * len(columns)
        for a, v in enumerate(p):
            row[columns[(a, v)]] = 1
        rows.append(row)
    rank = 0
    for c in range(len(columns)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], P - 2, P)
        prow = [x * inv % P for x in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % P for x, y in zip(rows[i], prow)]
        rank += 1
    return rank == len(core)


def _set_problem(payload, points) -> str | None:
    reported = payload.get("set", {})
    if reported.get("dim") != 3 or [tuple(p) for p in reported.get("points", [])] \
            != canonical(points):
        return "reported set is not the canonical form of the input"
    return None


def check_problem(points, code: int, out: str) -> str | None:
    """`check --json`: verdict, exit code and artifact."""
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    problem = _set_problem(payload, points)
    if problem:
        return problem
    canon = canonical(points)
    verdict = payload.get("verdict")
    if verdict == "nonbasic":
        if code != 1:
            return f"non-basic verdict with exit code {code}"
        return certificate_problem(canon, payload.get("certificate", []))
    if verdict == "basic":
        if code != 0:
            return f"basic verdict with exit code {code}"
        if "certificate" in payload:
            return "basic verdict carries a certificate"
        return None if full_row_rank_mod_p(canon) else "basic verdict but rows are dependent mod p"
    return f"unknown verdict {verdict!r}"


def decompose_problem(points, values: dict, code: int, out: str) -> str | None:
    """`decompose --json`: tables that reproduce f, or a witness pairing to nonzero."""
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    problem = _set_problem(payload, points)
    if problem:
        return problem
    status = payload.get("status")
    if status == "decomposed":
        if code != 0:
            return f"decomposition with exit code {code}"
        tables = payload["tables"]
        for p, value in values.items():
            total = sum((Fraction(tables[f"f{a + 1}"][str(p[a])]) for a in range(3)),
                        Fraction(0))
            if total != value:
                return f"tables give {total} at {p}, expected {value}"
        return None
    if status == "witness":
        if code != 1:
            return f"witness with exit code {code}"
        witness = payload["witness"]
        order = [tuple(p) for p in witness["points"]]
        # Ranks are monotone per axis, so canonical order is raw sorted order.
        if order != sorted(points):
            return "witness points are not the input in canonical order"
        weights = witness["certificate"]
        problem = certificate_problem(order, weights)
        if problem:
            return problem
        pairing = sum((w * values[p] for w, p in zip(weights, order)), Fraction(0))
        if pairing == 0:
            return "witness pairs to zero"
        if Fraction(witness["pairing"]) != pairing:
            return f"reported pairing {witness['pairing']}, recomputed {pairing}"
        return None
    return f"unknown status {status!r}"
