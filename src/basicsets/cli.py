"""Command-line front door.

Exit codes: 0 basic / success, 1 non-basic / witness / unsolvable,
2 input error, 3 search budget exceeded.  All rationals print as p/q
strings, never floats; --json emits machine-readable reports that validate
against the shipped schema.json.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import core, decide, graphs, search
from .core import Axis, ParseError, PointSet, SliceId


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_axis(name: str) -> Axis:
    lowered = name.strip().lower()
    if lowered not in ("x", "y", "z"):
        raise argparse.ArgumentTypeError(f"axis must be x, y or z, got {name!r}")
    return Axis("xyz".index(lowered))


def _parse_point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot read point {text!r}")


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _raw_axis_values(rows: list[tuple[int, ...]], dim: int) -> list[list[int]]:
    return [sorted({p[a] for p in rows}) for a in range(dim)]


def cmd_check(args) -> int:
    ps = core.parse_points_auto(_read_text(args.input))
    route = "oracle"
    if args.fast:
        fast = graphs.fast_is_basic(ps)
        if fast.kind is graphs.FastKind.INAPPLICABLE:
            verdict = decide.is_basic(ps)
            route = f"oracle (fast inapplicable: {fast.route})"
        else:
            verdict = decide.is_basic(ps) if fast.kind is graphs.FastKind.NONBASIC \
                else decide.Verdict(True)
            assert verdict.kind == fast.kind.value
            route = f"fast ({fast.route})"
    else:
        verdict = decide.is_basic(ps)
    payload = {"command": "check", "verdict": verdict.kind, "route": route,
               "set": core.points_payload(ps)}
    lines = [f"verdict: {verdict.kind}", f"route: {route}"]
    if verdict.certificate is not None:
        payload["certificate"] = list(verdict.certificate.weights)
        lines.append("certificate: " + " ".join(str(w) for w in verdict.certificate.weights))
    _emit(payload, args.json, lines)
    return 0 if verdict.basic else 1


def _read_values(text: str, dim: int) -> dict[tuple[int, ...], Fraction]:
    values: dict[tuple[int, ...], Fraction] = {}
    for lineno, row in core.numbered_lines(text, int, last=Fraction):
        if len(row) != dim + 1:
            raise ParseError(f"expected {dim} coordinates and one value", line=lineno)
        point = row[:dim]
        if point in values:
            raise ParseError(f"duplicate value for point {point}", line=lineno)
        values[point] = row[dim]
    return values


def cmd_decompose(args) -> int:
    dim, rows = core.read_points(_read_text(args.input))
    canon = core.canonicalize_points(rows, dim=dim)
    ps = PointSet.from_canonical(canon, dim)
    raw_values = _read_values(_read_text(args.values), dim)
    missing = [p for p in rows if p not in raw_values]
    known = set(rows)
    extra = [p for p in raw_values if p not in known]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing values for {missing[:3]}")
        if extra:
            parts.append(f"values for unknown points {extra[:3]}")
        raise ParseError("; ".join(parts))
    f = {cp: raw_values[rp] for rp, cp in zip(rows, canon)}
    result = decide.decompose(ps, f)
    raw_tables = _raw_axis_values(rows, dim)
    if isinstance(result, decide.Decomposition):
        for p, cp in zip(rows, canon):
            assert result.value_at(cp) == raw_values[p]
        tables = {f"f{a + 1}": {str(raw_tables[a][v]): str(x)
                                for v, x in sorted(result.tables[a].items())}
                  for a in range(dim)}
        payload = {"command": "decompose", "status": "decomposed",
                   "set": core.points_payload(ps), "tables": tables}
        lines = ["decomposition:"]
        for name, table in tables.items():
            for v, x in table.items():
                lines.append(f"{name}({v}) = {x}")
        _emit(payload, args.json, lines)
        return 0
    ordered_raw = [rp for _, rp in sorted(zip(canon, rows))]
    payload = {"command": "decompose", "status": "witness",
               "set": core.points_payload(ps),
               "witness": {"certificate": list(result.certificate.weights),
                           "pairing": str(result.pairing),
                           "points": [list(p) for p in ordered_raw]}}
    lines = ["not decomposable",
             "certificate: " + " ".join(str(w) for w in result.certificate.weights),
             f"pairing: {result.pairing}"]
    _emit(payload, args.json, lines)
    return 1


def cmd_graph(args) -> int:
    g = graphs.parse_graph_text(_read_text(args.input))
    components = graphs.bipartite_components(g)
    basic = graphs.graph_is_basic(g)
    payload = {"command": "graph", "basic": basic,
               "vertices": g.n, "edges": [list(e) for e in g.edges],
               "components": [{"vertices": list(c.vertices), "bipartite": c.bipartite}
                              for c in components]}
    lines = [f"graph basic: {'yes' if basic else 'no'}"]
    for c in components:
        lines.append(f"component {list(c.vertices)}: "
                     f"{'bipartite' if c.bipartite else 'non-bipartite'}")
    status = 0 if basic else 1
    if args.values is not None:
        b: list[Fraction] = []
        for lineno, row in core.numbered_lines(_read_text(args.values), Fraction):
            if len(row) != 1:
                raise ParseError(f"expected one vertex value, got {len(row)}", line=lineno)
            b.extend(row)
        if len(b) != g.n:
            raise ParseError(f"expected {g.n} vertex values, got {len(b)}")
        try:
            assignment = graphs.solve_edges(g, b)
        except graphs.EdgeUnsolvable as exc:
            payload["unsolvable"] = {"component": list(exc.component.vertices),
                                     "difference": str(exc.difference)}
            lines.append(f"no edge assignment: component {list(exc.component.vertices)} "
                         f"part-sum difference {exc.difference}")
            status = 1
        else:
            payload["assignment"] = {"edges": [list(e) for e in g.edges],
                                     "values": [str(x) for x in assignment.values]}
            lines.append("edge assignment:")
            for (u, v), x in zip(g.edges, assignment.values):
                lines.append(f"{u} {v}: {x}")
            status = 0
    _emit(payload, args.json, lines)
    return status


def _print_set(ps: PointSet, args, kind: str, meta: dict) -> None:
    payload = {"command": "generate", "kind": kind, "set": core.points_payload(ps)}
    payload.update(meta)
    _emit(payload, args.json, [core.format_points_text(ps).rstrip("\n")])


def cmd_generate(args) -> int:
    from . import generators  # only this command needs the constructions

    slice_id = SliceId(args.axis, args.value) if hasattr(args, "axis") else None
    if args.kind == "lightning":
        cl = generators.closed_lightning(slice_id, args.l, seed=args.seed)
        ps = core.canonicalize(cl.vertices())
        _print_set(ps, args, "lightning",
                   {"sequence": [list(p) for p in cl.points], "seed": args.seed})
    elif args.kind == "construction":
        try:
            offsets = [int(tok) for tok in args.offsets.split(",")]
        except ValueError:
            raise ParseError(f"--offsets takes comma-separated integers, got {args.offsets!r}")
        cl = generators.closed_lightning(slice_id, args.l, seed=args.seed)
        vertices = cl.vertices()
        grouping = {}
        for pair_index in range(len(vertices) // 2):
            gid = pair_index % len(offsets)
            grouping[vertices[2 * pair_index]] = gid
            grouping[vertices[2 * pair_index + 1]] = gid
        raw = generators.construction_split(cl, grouping, dict(enumerate(offsets)))
        ps = core.canonicalize(raw.points)
        _print_set(ps, args, "construction", {"offsets": offsets, "seed": args.seed})
    else:
        if (args.input is None) == (args.fixture is None):
            raise ParseError("give exactly one of --input or --fixture")
        if args.fixture is not None:
            named = core.fixtures()
            if args.fixture not in named:
                raise ParseError(f"unknown fixture {args.fixture!r}; "
                                 f"choose from {sorted(named)}")
            base = named[args.fixture]
        else:
            base = core.parse_points_auto(_read_text(args.input))
        raw = generators.boyarov_split(base, args.a, args.b, args.offset,
                                       axis=args.translate_axis)
        ps = core.canonicalize(raw.points)
        _print_set(ps, args, "boyarov", {"offset": args.offset})
    return 0


def cmd_search(args) -> int:
    grid = search.GridSpec(*args.grid)
    survey = search.max_weight_survey(
        grid, args.max_size, sup_cap=args.sup_cap, dedup=args.dedup,
        workers=args.workers, budget=args.budget, time_limit=args.time_limit)
    if args.json:
        payload = {"command": "search", "grid": list(grid.extents),
                   "max_size": args.max_size}
        payload.update(search.survey_payload(survey))
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.write(search.survey_csv(survey))
    return 0


def cmd_fixtures(args) -> int:
    named = core.fixtures()
    if args.name is not None:
        if args.name not in named:
            raise ParseError(f"unknown fixture {args.name!r}; choose from {sorted(named)}")
        chosen = {args.name: named[args.name]}
    else:
        chosen = named
    if args.json:
        payload = {"command": "fixtures",
                   "sets": {name: core.points_payload(ps) for name, ps in chosen.items()}}
        print(json.dumps(payload, sort_keys=True))
    elif args.name is not None:
        sys.stdout.write(core.format_points_text(chosen[args.name]))
    else:
        for name, ps in sorted(chosen.items()):
            print(f"{name}: {len(ps)} points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basicsets",
        description="Decide whether lattice point sets admit per-axis additive "
                    "decompositions, with exact certificates either way.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="basic / non-basic verdict for a point file")
    p_check.add_argument("input", help="point file (text or JSON), or - for stdin")
    p_check.add_argument("--fast", action="store_true",
                         help="try the peel + slice-graph route before the rank oracle")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_dec = sub.add_parser("decompose", help="split a function into per-axis tables")
    p_dec.add_argument("input", help="point file, or - for stdin")
    p_dec.add_argument("--values", required=True,
                       help="file of lines 'x y z value' with exact rational values")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_graph = sub.add_parser("graph", help="graph basicness and edge assignments")
    p_graph.add_argument("input", help="graph file ('n m' header then edge lines), or -")
    p_graph.add_argument("--values", help="file with one rational vertex value per line")
    p_graph.add_argument("--json", action="store_true")
    p_graph.set_defaults(func=cmd_graph)

    p_gen = sub.add_parser("generate", help="emit generated non-basic sets")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    p_light = gen_sub.add_parser("lightning", help="simple closed lightning vertex set")
    p_light.add_argument("--l", type=int, default=2, help="half the vertex count (>= 2)")
    p_light.add_argument("--seed", type=int, default=0)
    p_light.add_argument("--axis", type=_parse_axis, default=Axis.Z,
                         help="axis the slice is perpendicular to")
    p_light.add_argument("--value", type=int, default=0, help="slice coordinate")
    p_light.add_argument("--json", action="store_true")
    p_light.set_defaults(func=cmd_generate)
    p_cons = gen_sub.add_parser("construction",
                                help="translate balanced lightning pieces along the normal")
    p_cons.add_argument("--l", type=int, default=2)
    p_cons.add_argument("--seed", type=int, default=0)
    p_cons.add_argument("--axis", type=_parse_axis, default=Axis.Z)
    p_cons.add_argument("--value", type=int, default=0)
    p_cons.add_argument("--offsets", default="0,1",
                        help="comma-separated normal offsets, one group per entry")
    p_cons.add_argument("--json", action="store_true")
    p_cons.set_defaults(func=cmd_generate)
    p_boy = gen_sub.add_parser("boyarov",
                               help="split an aligned pair of a non-basic set")
    p_boy.add_argument("--input", help="point file with the starting set")
    p_boy.add_argument("--fixture", help="named fixture as the starting set")
    p_boy.add_argument("--a", type=_parse_point, required=True, help="kept point, e.g. 0,0,0")
    p_boy.add_argument("--b", type=_parse_point, required=True, help="replaced point")
    p_boy.add_argument("--offset", type=int, required=True)
    p_boy.add_argument("--translate-axis", type=_parse_axis, default=None,
                       help="axis to translate along (must agree between a and b)")
    p_boy.add_argument("--json", action="store_true")
    p_boy.set_defaults(func=cmd_generate)

    p_search = sub.add_parser("search", help="survey minimal non-basic subsets of a grid")
    p_search.add_argument("--grid", type=int, nargs=3, required=True,
                          metavar=("NX", "NY", "NZ"))
    p_search.add_argument("--max-size", type=int, required=True)
    p_search.add_argument("--sup-cap", type=int, default=8,
                          help="largest certificate sup-norm to search for")
    p_search.add_argument("--dedup", action="store_true",
                          help="keep one representative per grid-symmetry orbit")
    p_search.add_argument("--workers", type=int, default=1)
    p_search.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p_search.add_argument("--time-limit", type=float, default=search.DEFAULT_TIME_LIMIT)
    p_search.add_argument("--json", action="store_true",
                          help="JSON instead of the default CSV")
    p_search.set_defaults(func=cmd_search)

    p_fix = sub.add_parser("fixtures", help="print the named example sets")
    p_fix.add_argument("name", nargs="?", help="example1, ex2, or cube8")
    p_fix.add_argument("--json", action="store_true")
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except search.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
