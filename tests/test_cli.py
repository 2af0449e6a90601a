import hashlib
import json
from fractions import Fraction

import pytest

from teichkit import cli, confluence
from teichkit.fatgraph import pair_of_pants
from teichkit.snakes import MAX_RANK

F = Fraction


@pytest.fixture
def pants_files(tmp_path):
    g, loops = pair_of_pants(F(2), F(3), F(5))
    gp = tmp_path / "graph.json"
    wp = tmp_path / "word.json"
    gp.write_text(json.dumps(g.to_json()))
    wp.write_text(json.dumps(loops["loop1"].to_json()))
    return gp, wp


def test_holonomy_prints_exact_result(pants_files, capsys):
    gp, wp = pants_files
    assert cli.main(["holonomy", str(gp), str(wp)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "teichkit/1" and doc["kind"] == "holonomy_result"
    assert doc["matrix"] == [["-1/15", "50/3"], ["0/1", "-15/1"]]
    assert doc["trace"] == "-226/15"
    assert doc["trace_k"] == "-50/3"


def test_holonomy_float_mode(pants_files, capsys):
    gp, wp = pants_files
    assert cli.main(["holonomy", str(gp), str(wp), "--scalar", "float"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trace"] == pytest.approx(-226 / 15)
    assert isinstance(doc["matrix"][0][0], float)


def test_scalar_mode_from_environment(pants_files, capsys, monkeypatch):
    gp, wp = pants_files
    monkeypatch.setenv("TEICHKIT_SCALAR", "float")
    assert cli.main(["holonomy", str(gp), str(wp)]) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["trace"], float)
    monkeypatch.setenv("TEICHKIT_SCALAR", "decimal")
    assert cli.main(["holonomy", str(gp), str(wp)]) == 2


def test_holonomy_error_exits(pants_files, tmp_path, capsys):
    gp, wp = pants_files
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"schema": "teichkit/1", "kind": "pathword", "tokens": []}))
    assert cli.main(["holonomy", str(gp), str(empty)]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text('{"schema": "teichkit/1",')
    assert cli.main(["holonomy", str(gp), str(broken)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(
        json.dumps({"schema": "teichkit/1", "kind": "pathword", "tokens": [["E", "zz"]]})
    )
    assert cli.main(["holonomy", str(gp), str(unknown)]) == 3
    assert capsys.readouterr().err.startswith("UnknownEdge")

    assert cli.main(["holonomy", str(gp), str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("flags", [[], ["--scalar", "float"]], ids=["rational", "float"])
def test_holonomy_across_a_zero_weight_exits_3(pants_files, capsys, flags):
    gp, wp = pants_files
    doc = json.loads(gp.read_text())
    doc["edges"]["s2"]["weight"] = "0/1"
    gp.write_text(json.dumps(doc))
    assert cli.main(["holonomy", str(gp), str(wp), *flags]) == 3
    assert capsys.readouterr().err.startswith("InvalidWord: edge 's2' has weight 0")


@pytest.mark.parametrize(
    "edit, flags",
    [
        (lambda doc: doc.update(vertices=[]), []),
        (lambda doc: doc.update(edges="s1"), []),
        (lambda doc: doc["edges"]["s1"].update(weight=float("nan")), ["--scalar", "float"]),
        (lambda doc: doc["edges"]["s1"].update(weight="1e999"), ["--scalar", "float"]),
        (lambda doc: doc["edges"]["s1"].update(weight=10**400), ["--scalar", "float"]),
        (lambda doc: doc["edges"]["s1"].update(weight="1e100000"), []),
    ],
    ids=[
        "vertices-list",
        "edges-string",
        "nan-weight",
        "huge-literal-weight",
        "huge-int-weight",
        "oversized-rational-literal",
    ],
)
def test_holonomy_malformed_graph_exits_2(pants_files, edit, flags, capsys):
    gp, wp = pants_files
    doc = json.loads(gp.read_text())
    edit(doc)
    gp.write_text(json.dumps(doc))
    assert cli.main(["holonomy", str(gp), str(wp), *flags]) == 2
    assert capsys.readouterr().err.startswith("SchemaError")


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_verify_suites_pass(suite, capsys):
    assert cli.main(["verify", suite, "--trials", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 2
    assert out.strip().splitlines()[-1].startswith(f"{suite}:")


def test_verify_output_is_pinned(capsys):
    # one digest over stdout and exit code of every suite at seeds 0-1 with
    # default trials, and of transport and amalgamation at n = 2..5
    runs = [
        [suite, "--seed", str(seed)]
        for suite in ("amalgamation", "fricke", "frickepv", "lambda", "skein", "transport")
        for seed in (0, 1)
    ]
    runs += [
        [suite, "--n", str(n), "--trials", "3"]
        for suite in ("transport", "amalgamation")
        for n in range(2, 6)
    ]
    digest = hashlib.sha256()
    for argv in runs:
        code = cli.main(["verify", *argv])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == "614a89972e95020c6eb3bce6824b96c682fa4a9c8beae9a342a78f26d2e15262"


def test_verify_is_deterministic_under_seed(capsys):
    assert cli.main(["verify", "fricke", "--trials", "4", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "fricke", "--trials", "4", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first


def test_verify_transport_respects_n(capsys):
    assert cli.main(["verify", "transport", "--trials", "2", "--n", "4"]) == 0
    assert "n=4" in capsys.readouterr().out


@pytest.mark.parametrize("suite,n", [("transport", 12), ("amalgamation", 10)])
def test_verify_large_rank(suite, n, capsys):
    argv = ["verify", suite, "--n", str(n), "--trials", "1", "--seed", "0"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith(f"{suite}: 1/1 passed\n")


def test_verify_fails_nonzero(capsys, monkeypatch):
    failing = cli.SUITES["fricke"]._replace(check=lambda rng, n, shared: False)
    monkeypatch.setitem(cli.SUITES, "fricke", failing)
    assert cli.main(["verify", "fricke", "--trials", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL fricke trial 01: relation == 4" in out and "fricke: 0/1 passed" in out


def test_verify_lambda_builds_its_table_once(capsys, monkeypatch):
    calls = []

    def counting_cusped_three_holed(*args):
        calls.append(1)
        return real(*args)

    real = confluence.cusped_three_holed
    monkeypatch.setattr(confluence, "cusped_three_holed", counting_cusped_three_holed)
    cli._setup_lambda.cache_clear()
    assert cli.main(["verify", "lambda", "--trials", "3"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "lambda", "--trials", "3"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("PASS lambda monomial table matches\n")
    assert len(calls) == 1


def test_main_builds_one_parser(pants_files, capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return real_build_parser()

    real_build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    gp, wp = pants_files
    assert cli.main(["verify", "fricke", "--trials", "1"]) == 0
    assert cli.main(["holonomy", str(gp), str(wp)]) == 0
    assert cli.main(["verify", "fricke", "--trials", "0"]) == 2
    assert cli.main(["pants-scene", "2", "1", "3"]) == 0
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()


def test_defaults_do_not_leak_between_calls(pants_files, capsys):
    assert cli.main(["verify", "transport", "--trials", "1", "--n", "4"]) == 0
    assert "n=4" in capsys.readouterr().out
    assert cli.main(["verify", "transport", "--trials", "1"]) == 0
    assert "n=3" in capsys.readouterr().out

    gp, wp = pants_files
    assert cli.main(["holonomy", str(gp), str(wp), "--scalar", "float"]) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["trace"], float)
    assert cli.main(["holonomy", str(gp), str(wp)]) == 0
    assert json.loads(capsys.readouterr().out)["trace"] == "-226/15"


def test_verify_rejects_bad_parameters():
    assert cli.main(["verify", "fricke", "--trials", "0"]) == 2
    assert cli.main(["verify", "transport", "--n", "1"]) == 2
    assert cli.main(["verify", "fricke", "--trials", str(cli.MAX_TRIALS + 1)]) == 2
    assert cli.main(["verify", "transport", "--n", str(MAX_RANK + 1)]) == 2


def test_render_is_byte_stable(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    assert cli.main(["pants-scene", "2", "1", "3", "--out", str(scene_path)]) == 0
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert cli.main(["render", str(scene_path), "--out", str(out1)]) == 0
    assert cli.main(["render", str(scene_path), "--out", str(out2)]) == 0
    svg = out1.read_text()
    assert out2.read_text() == svg
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("axis") >= 3


def test_render_empty_scene_draws_axes(tmp_path):
    scene_path = tmp_path / "empty.json"
    scene_path.write_text(json.dumps({"schema": "teichkit/1", "kind": "scene", "elements": []}))
    out = tmp_path / "empty.svg"
    assert cli.main(["render", str(scene_path), "--out", str(out)]) == 0
    svg = out.read_text()
    assert "<path" not in svg and 'y2="440.000"' in svg


def test_render_rejects_wrong_kind(tmp_path):
    scene_path = tmp_path / "notascene.json"
    scene_path.write_text(json.dumps({"schema": "teichkit/1", "kind": "fatgraph"}))
    assert cli.main(["render", str(scene_path), "--out", str(tmp_path / "x.svg")]) == 2


def test_pants_scene_stdout_and_errors(capsys, tmp_path):
    assert cli.main(["pants-scene", "2", "1", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "scene" and len(doc["elements"]) == 12

    assert cli.main(["pants-scene", "2/x", "1", "3"]) == 2
    assert capsys.readouterr().err.startswith("SchemaError")
    # parabolic boundary holonomy has no axis: domain error
    assert cli.main(["pants-scene", "1", "1", "1"]) == 3
    assert capsys.readouterr().err.startswith("NotHyperbolic")

    out = tmp_path / "scene.json"
    assert cli.main(["pants-scene", "7/5", "2/3", "9/2", "--out", str(out)]) == 0
    json.loads(out.read_text())


@pytest.mark.parametrize(
    "literals, code",
    [
        (["1e100000", "2", "3"], 2),
        (["1e-160", "1e-160", "1e-160"], 3),
        (["1e-200", "1e-200", "1e-200"], 3),
        (["2", "2", "1e4299"], 3),
    ],
)
def test_pants_scene_bounds_its_literals(literals, code, capsys):
    assert cli.main(["pants-scene", *literals]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("SchemaError" if code == 2 else ("BadGeometry", "DomainError"))


def test_unwritable_out_is_malformed_input(tmp_path, capsys):
    missing = tmp_path / "missing"
    scene_path = tmp_path / "scene.json"
    assert cli.main(["pants-scene", "2", "3", "5", "--out", str(missing / "x.json")]) == 2
    assert cli.main(["pants-scene", "2", "3", "5", "--out", str(scene_path)]) == 0
    assert cli.main(["render", str(scene_path), "--out", str(missing / "x.svg")]) == 2
    # a label JSON can carry but neither SVG nor UTF-8 can: refused as the
    # scene is read, before anything is written
    doc = json.loads(scene_path.read_text())
    doc["elements"][0]["label"] = "\ud800"
    scene_path.write_text(json.dumps(doc))
    assert cli.main(["render", str(scene_path), "--out", str(tmp_path / "x.svg")]) == 2
    err = capsys.readouterr().err
    assert err.count("SchemaError: cannot write") == 2 and not missing.exists()
    assert err.endswith("SchemaError: SVG cannot carry the character '\\ud800'\n")
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        *([command, "-h"] for command in ("holonomy", "verify", "render", "pants-scene")),
        ["nosuch"],
        ["verify", "transport", "--bogus"],
        ["verify", "--n", "x", "transport"],
        ["verify"],
        ["holonomy", "g.json"],
        ["render", "s.json"],
        ["pants-scene", "1", "2"],
    ],
    ids=" ".join,
)
def test_main_parses_like_the_full_parser(argv, capsys):
    # every line stops in argparse; main must print and exit exactly as a
    # fresh full parser does, whichever parser it takes the line to
    seen = []
    for parse in (cli.main, lambda a: cli.build_parser().parse_args(a)):
        with pytest.raises(SystemExit) as stop:
            parse(list(argv))
        seen.append((stop.value.code, *capsys.readouterr()))
    assert seen[0] == seen[1]
