import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from basicsets import cli
from basicsets.core import parse_points_auto

EX2_TEXT = "0 0 0\n0 1 0\n1 0 0\n0 0 1\n1 1 1\n"
EXAMPLE1_TEXT = "0 1 0\n1 0 0\n0 0 1\n1 1 1\n"


@pytest.fixture(scope="module")
def schema():
    with resources.files("basicsets").joinpath("schema.json").open() as handle:
        return json.load(handle)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys, schema):
    code, out, _ = run_cli(args, capsys)
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    return code, payload


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_ex2(tmp_path, capsys, schema):
    path = write(tmp_path, "ex2.txt", EX2_TEXT)
    code, out, _ = run_cli(["check", path], capsys)
    assert code == 1
    assert "verdict: nonbasic" in out
    assert "certificate: 2 -1 -1 -1 1" in out
    code, payload = run_json(["check", path, "--json"], capsys, schema)
    assert code == 1
    assert payload["certificate"] == [2, -1, -1, -1, 1]


def test_check_example1_fast(tmp_path, capsys, schema):
    path = write(tmp_path, "example1.txt", EXAMPLE1_TEXT)
    code, out, _ = run_cli(["check", path, "--fast"], capsys)
    assert code == 0
    assert "route: fast (graph" in out
    code, payload = run_json(["check", path, "--fast", "--json"], capsys, schema)
    assert payload["verdict"] == "basic"


def test_check_fast_falls_back_when_inapplicable(tmp_path, capsys):
    path = write(tmp_path, "ex2.txt", EX2_TEXT)
    fast_code, fast_out, _ = run_cli(["check", path, "--fast"], capsys)
    slow_code, slow_out, _ = run_cli(["check", path], capsys)
    assert fast_code == slow_code == 1
    assert "inapplicable" in fast_out
    assert "certificate: 2 -1 -1 -1 1" in fast_out


def test_check_empty_file_is_basic(tmp_path, capsys):
    path = write(tmp_path, "empty.txt", "# nothing here\n")
    code, out, _ = run_cli(["check", path], capsys)
    assert code == 0 and "verdict: basic" in out


def test_check_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "0 0 0\n0 q 0\n")
    code, _, err = run_cli(["check", path], capsys)
    assert code == 2
    assert "line 2" in err


def test_check_reads_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(EX2_TEXT))
    code, out, _ = run_cli(["check", "-"], capsys)
    assert code == 1


def test_check_json_without_dim_names_the_missing_key(tmp_path, capsys):
    path = write(tmp_path, "flat.json", '{"points": [[0, 0], [1, 1]]}')
    code, _, err = run_cli(["check", path], capsys)
    assert code == 2
    assert '"dim" is missing' in err


def test_decompose_example1(tmp_path, capsys, schema):
    points = write(tmp_path, "pts.txt", EXAMPLE1_TEXT)
    values = write(tmp_path, "vals.txt",
                   "0 1 0 1\n1 0 0 2\n0 0 1 3\n1 1 1 4\n")
    code, out, _ = run_cli(["decompose", points, "--values", values], capsys)
    assert code == 0
    assert out.startswith("decomposition:")
    code, payload = run_json(["decompose", points, "--values", values, "--json"],
                             capsys, schema)
    assert payload["status"] == "decomposed"
    assert set(payload["tables"]) == {"f1", "f2", "f3"}


def test_decompose_witness_on_ex2_indicator(tmp_path, capsys, schema):
    points = write(tmp_path, "pts.txt", EX2_TEXT)
    values = write(tmp_path, "vals.txt",
                   "0 0 0 1\n0 1 0 0\n1 0 0 0\n0 0 1 0\n1 1 1 0\n")
    code, out, _ = run_cli(["decompose", points, "--values", values], capsys)
    assert code == 1
    assert "pairing: 2" in out
    code, payload = run_json(["decompose", points, "--values", values, "--json"],
                             capsys, schema)
    assert payload["witness"]["pairing"] == "2"
    assert payload["witness"]["certificate"] == [2, -1, -1, -1, 1]


def test_decompose_missing_value_exit_2(tmp_path, capsys):
    points = write(tmp_path, "pts.txt", EX2_TEXT)
    values = write(tmp_path, "vals.txt", "0 0 0 1\n")
    code, _, err = run_cli(["decompose", points, "--values", values], capsys)
    assert code == 2 and "missing" in err


def test_decompose_rational_values_round_trip(tmp_path, capsys):
    points = write(tmp_path, "pts.txt", "0 0 0\n1 1 0\n")
    values = write(tmp_path, "vals.txt", "0 0 0 1/3\n1 1 0 -7/2\n")
    code, out, _ = run_cli(["decompose", points, "--values", values], capsys)
    assert code == 0
    assert "1/3" in out and "-7/2" in out


def test_graph_triangle(tmp_path, capsys, schema):
    path = write(tmp_path, "tri.txt", "3 3\n0 1\n0 2\n1 2\n")
    code, out, _ = run_cli(["graph", path], capsys)
    assert code == 0 and "graph basic: yes" in out
    values = write(tmp_path, "b.txt", "1\n1\n1\n")
    code, payload = run_json(["graph", path, "--values", values, "--json"],
                             capsys, schema)
    assert code == 0
    assert payload["assignment"]["values"] == ["1/2", "1/2", "1/2"]


def test_graph_single_edge_unsolvable(tmp_path, capsys, schema):
    path = write(tmp_path, "edge.txt", "2 1\n0 1\n")
    values = write(tmp_path, "b.txt", "1\n0\n")
    code, payload = run_json(["graph", path, "--values", values, "--json"],
                             capsys, schema)
    assert code == 1
    assert payload["unsolvable"]["component"] == [0, 1]
    assert payload["unsolvable"]["difference"] in ("1", "-1")


# (subcommand, the files it reads, the start of its error message)
TEXT_INPUT_FAULTS = [
    ("check", {"input": "0 0 0\n0 q 0\n"},
     "line 2, column 3: 'q' is not an integer\n"),
    ("check", {"input": "0 0 0\n1 1\n"}, "line 2: expected 3 coordinates"),
    ("check", {"input": "0 0 0\n1 1 1\n0 0 0\n"}, "line 3: duplicate point"),
    ("decompose", {"input": "0 0 0\n1 1 1.5\n", "values": "0 0 0 1\n"},
     "line 2, column 5: '1.5' is not an integer"),
    ("decompose", {"input": EX2_TEXT, "values": "0 0 0 1\n0 x 0 2\n"},
     "line 2, column 3: 'x' is not an integer"),
    ("decompose", {"input": EX2_TEXT, "values": "# f\n0 0 0 1/0\n"},
     "line 2, column 7: '1/0' is not an exact rational"),
    ("decompose", {"input": EX2_TEXT, "values": "0 0 0\n"},
     "line 1: expected 3 coordinates and one value"),
    ("decompose", {"input": EX2_TEXT, "values": "0 0 0 1\n0 0 0 2\n"},
     "line 2: duplicate value for point"),
    ("graph", {"input": "2 1\n0 --1\n"}, "line 2, column 3: '--1' is not an integer"),
    ("graph", {"input": "2 1\n0 \u00b2\n"}, "line 2, column 3: '\u00b2' is not an integer"),
    ("graph", {"input": "2 x\n0 1\n"}, "line 1, column 3: 'x' is not an integer"),
    ("graph", {"input": "# g\n2\n0 1\n"}, "line 2: header must be two integers"),
    ("graph", {"input": "2 1\n0 1 1\n"}, "line 2: edge line must be two integers"),
    ("graph", {"input": "\n2 2\n0 1\n"}, "line 2: header declares 2 edges, file has 1"),
    ("graph", {"input": "2 1\n0 1\n", "values": "1\n1/0\n"},
     "line 2, column 1: '1/0' is not an exact rational"),
    ("graph", {"input": "2 1\n0 1\n", "values": "1\n  1 x\n"},
     "line 2, column 5: 'x' is not an exact rational"),
    ("graph", {"input": "2 1\n0 1\n", "values": "2 3\n"},
     "line 1: expected one vertex value, got 2"),
    ("graph", {"input": "2 1\n0 1\n", "values": "1\n"}, "expected 2 vertex values, got 1"),
    ("graph", {"input": "2 1\n0 0\n"}, "line 2: self-loop at vertex 0"),
    ("graph", {"input": "# g\n2 2\n0 1\n\n0 5\n"},
     "line 5: edge (0, 5) has an endpoint outside 0..1"),
]


@pytest.mark.parametrize("command, files, prefix", TEXT_INPUT_FAULTS)
def test_text_input_faults_name_their_line(tmp_path, capsys, command, files, prefix):
    args = [command, write(tmp_path, "input.txt", files["input"])]
    if "values" in files:
        args += ["--values", write(tmp_path, "values.txt", files["values"])]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error: " + prefix), err


def test_graph_tokens_read_like_point_coordinates(tmp_path, capsys):
    path = write(tmp_path, "signed.txt", "+3 +3\n0 1\n1 2\n+0 2\n")
    code, out, _ = run_cli(["graph", path], capsys)
    assert code == 0 and "graph basic: yes" in out


def test_generate_lightning_round_trips(tmp_path, capsys, schema):
    code, out, _ = run_cli(["generate", "lightning", "--l", "3", "--seed", "5"], capsys)
    assert code == 0
    ps = parse_points_auto(out)
    assert len(ps) == 6
    again_code, again_out, _ = run_cli(["generate", "lightning", "--l", "3",
                                        "--seed", "5"], capsys)
    assert again_out == out
    code, payload = run_json(["generate", "lightning", "--l", "3", "--seed", "5",
                              "--json"], capsys, schema)
    assert payload["set"]["points"] == [list(p) for p in ps.points]


def test_generate_construction(tmp_path, capsys, schema):
    code, payload = run_json(["generate", "construction", "--l", "3", "--seed", "1",
                              "--offsets", "0,1,2", "--json"], capsys, schema)
    assert code == 0
    assert len(payload["set"]["points"]) == 6


def test_generate_boyarov_from_fixture(capsys, schema):
    code, payload = run_json(["generate", "boyarov", "--fixture", "ex2",
                              "--a", "0,0,0", "--b", "0,1,0", "--offset", "1",
                              "--translate-axis", "z", "--json"], capsys, schema)
    assert code == 0
    assert len(payload["set"]["points"]) == 6


def test_generate_boyarov_from_input_file(tmp_path, capsys):
    rect = write(tmp_path, "rect.txt", "0 0 0\n0 1 0\n1 0 0\n1 1 0\n")
    code, out, _ = run_cli(["generate", "boyarov", "--input", rect,
                            "--a", "0,0,0", "--b", "0,1,0", "--offset", "1",
                            "--translate-axis", "z"], capsys)
    assert code == 0
    assert len(parse_points_auto(out)) == 5
    code, _, err = run_cli(["generate", "boyarov", "--a", "0,0,0", "--b", "0,1,0",
                            "--offset", "1"], capsys)
    assert code == 2 and "exactly one" in err


def test_generate_outputs_verify_as_nonbasic(tmp_path, capsys):
    code, out, _ = run_cli(["generate", "construction", "--l", "2", "--seed", "3",
                            "--offsets", "0,1"], capsys)
    path = write(tmp_path, "generated.txt", out)
    code, _, _ = run_cli(["check", path], capsys)
    assert code == 1


@pytest.mark.parametrize("offsets", ["a,b", "0,", "1.5"])
def test_generate_construction_rejects_bad_offsets(capsys, offsets):
    code, out, err = run_cli(["generate", "construction", "--l", "3",
                              "--offsets", offsets], capsys)
    assert code == 2 and out == ""
    assert err == f"error: --offsets takes comma-separated integers, got {offsets!r}\n"


def test_search_cube_csv(capsys):
    code, out, _ = run_cli(["search", "--grid", "2", "2", "2", "--max-size", "8"],
                           capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "set,size,minimal,min_sup_norm"
    assert len(lines) == 21
    assert any(line.endswith(",5,1,2") for line in lines)


def test_search_cube_json(capsys, schema):
    code, payload = run_json(["search", "--grid", "2", "2", "2", "--max-size", "8",
                              "--json"], capsys, schema)
    assert code == 0
    assert payload["max_sup_norm"] == 2


def test_search_trivial_grid(capsys, schema):
    code, payload = run_json(["search", "--grid", "1", "1", "1", "--max-size", "2",
                              "--json"], capsys, schema)
    assert code == 0
    assert payload["rows"] == [] and payload["max_sup_norm"] is None


def test_search_budget_exit_3(capsys):
    code, _, err = run_cli(["search", "--grid", "3", "3", "3", "--max-size", "9",
                            "--budget", "10"], capsys)
    assert code == 3 and "budget" in err.lower()


def test_search_negative_max_size_exit_2(capsys):
    code, _, err = run_cli(["search", "--grid", "2", "2", "2", "--max-size", "-1"], capsys)
    assert code == 2
    assert "max size" in err and "budget" not in err


@pytest.mark.parametrize("option, value, message", [
    ("--sup-cap", "0", "sup-norm cap must be at least 1, got 0"),
    ("--sup-cap", "-1", "sup-norm cap must be at least 1, got -1"),
    ("--time-limit", "-1", "time limit must be at least 0, got -1.0"),
    ("--time-limit", "nan", "time limit must be at least 0, got nan"),
    ("--budget", "-1", "budget must be at least 0, got -1")])
def test_search_rejects_bad_limits_exit_2(capsys, option, value, message):
    code, out, err = run_cli(["search", "--grid", "2", "2", "2", "--max-size", "4",
                              option, value], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_search_rejects_worker_count_below_one(capsys, workers):
    code, _, err = run_cli(["search", "--grid", "2", "2", "2", "--max-size", "4",
                            "--workers", workers], capsys)
    assert code == 2
    assert "worker count" in err


def test_fixtures_listing_and_round_trip(tmp_path, capsys, schema):
    code, out, _ = run_cli(["fixtures"], capsys)
    assert code == 0
    for name in ("example1", "ex2", "cube8"):
        assert name in out
    code, out, _ = run_cli(["fixtures", "cube8"], capsys)
    ps = parse_points_auto(out)
    assert len(ps) == 8
    code, payload = run_json(["fixtures", "--json"], capsys, schema)
    assert set(payload["sets"]) == {"example1", "ex2", "cube8"}


def test_fixtures_unknown_name(capsys):
    code, _, err = run_cli(["fixtures", "nonesuch"], capsys)
    assert code == 2 and "unknown fixture" in err


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "basicsets", "fixtures", "ex2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == EX2_TEXT.replace("0 1 0\n1 0 0\n0 0 1\n",
                                           "0 0 1\n0 1 0\n1 0 0\n")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_ends_quietly_in_process():
    err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedPipe()), contextlib.redirect_stderr(err):
        code = cli.main(["fixtures", "ex2"])
    assert (code, err.getvalue()) == (141, "")


def test_closed_stdout_pipe_exits_141_without_a_message():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "basicsets", "fixtures", "ex2"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_missing_input_file_is_still_an_input_error(tmp_path, capsys):
    missing = str(tmp_path / "absent.txt")
    code, out, err = run_cli(["check", missing], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and missing in err
