"""Command-line surface: outputs, exit codes, determinism, what a command loads."""
import json
import os
import subprocess
import sys
import time

import pytest

import famop
from famop import cli, omega

SUBMODULES = ("omega", "trees", "duplicial", "linear", "operads", "presentations", "dims")


@pytest.fixture
def proj2_file(tmp_path):
    path = tmp_path / "proj2.json"
    path.write_text(json.dumps(omega.ds_projections(2).to_json()))
    return str(path)


@pytest.fixture
def edus_file(tmp_path):
    path = tmp_path / "edus.json"
    path.write_text(json.dumps(omega.enumerate_structures(2, "edus")[0].to_json()))
    return str(path)


@pytest.fixture
def magma_file(tmp_path):
    path = tmp_path / "magma.json"
    path.write_text(json.dumps({"size": 2, "table": [[0, 0], [0, 0]]}))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_dims_r_pinned_output(capsys):
    code, out, _ = run(capsys, ["dims", "r", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == "[0,0,0,-3,8]"


def fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports famop from this source tree."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(famop.__file__)))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=60)


def test_a_command_loads_only_the_modules_it_uses(capsys):
    child = fresh_python(
        "import sys\n"
        "from famop.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.startswith('famop')), file=sys.stderr)\n"
        "sys.exit(code)\n", "dims", "r", "--n", "3")
    assert child.returncode == 0, child.stderr
    loaded = set(child.stderr.splitlines()[-1].split())
    assert "famop.dims" in loaded
    assert not loaded & {"famop.linear", "famop.operads", "famop.duplicial"}
    _, out, _ = run(capsys, ["dims", "r", "--n", "3"])
    assert child.stdout == out


def test_submodules_load_on_first_use():
    child = fresh_python(
        "import sys\n"
        "import famop\n"
        "print('famop.linear' in sys.modules, famop.linear.__name__ in sys.modules)\n"
        "from famop import *\n"
        f"print(all(sys.modules['famop.' + n] is globals()[n] for n in {SUBMODULES!r}))\n")
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False True\nTrue\n"
    assert set(SUBMODULES) <= set(famop.__all__)
    with pytest.raises(AttributeError, match="nosuch"):
        famop.nosuch


def test_dims_r_eval_and_verify(capsys):
    code, out, _ = run(capsys, ["dims", "r", "--n", "5", "--eval", "1", "--verify"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value_at"] == {"w": 1, "v": "42"}
    assert payload["identities"]["passed"] is True


@pytest.mark.parametrize("n,code", [("0", 2), ("-3", 2), ("65", 3)])
def test_dims_r_order_out_of_range(capsys, n, code):
    got, out, err = run(capsys, ["dims", "r", "--n", n])
    assert got == code
    assert len(err.strip().splitlines()) == 1
    assert (out == "") if code == 2 else (json.loads(out) == {"error": "order must be in 1..64"})


def test_dims_count(capsys):
    code, out, _ = run(capsys, ["dims", "count", "--n", "3", "--w", "2"])
    assert code == 0
    assert json.loads(out)["count"] == "104"


def test_present_quotient(capsys):
    code, out, _ = run(capsys, ["present", "quotient", "--preset", "dendriform",
                                "--arity", "3"])
    assert code == 0
    assert json.loads(out)["classes"] == 3


def test_present_mix_census(capsys, proj2_file):
    code, out, _ = run(capsys, ["present", "mix", "--preset", "duplicial",
                                "--omega", proj2_file, "--arity", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert payload["classes"] == 5


def test_present_mix_single_query(capsys, proj2_file):
    code, out, _ = run(capsys, ["present", "mix", "--preset", "duplicial",
                                "--omega", proj2_file, "--arity", "2",
                                "--coloring", "0,1", "--output", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == ["(prec 1 2)"]


@pytest.mark.parametrize("output", ["2", "5", "-1"])
def test_present_mix_output_out_of_range_is_a_usage_error(capsys, proj2_file, output):
    code, out, err = run(capsys, ["present", "mix", "--preset", "duplicial",
                                  "--omega", proj2_file, "--arity", "2",
                                  "--coloring", "0,1", f"--output={output}"])
    assert code == 2
    assert out == ""
    assert "output color" in err


def test_present_mix_on_a_magma_file_is_a_usage_error(capsys, magma_file):
    code, out, err = run(capsys, ["present", "mix", "--preset", "duplicial",
                                  "--omega", magma_file, "--arity", "3"])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "'prec'" in err and "left_arrow" in err


def test_operad_check_twist(capsys):
    code, out, _ = run(capsys, ["operad", "check", "--which", "twist",
                                "--max", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["seq_cases"] == 9
    assert payload["par_cases"] == 7


@pytest.mark.parametrize("which,bound,expected", [
    ("twist", 0, 2), ("corolla", 0, 2), ("perm", 0, 2), ("corolla", 1, 0), ("perm", 1, 0),
    ("twist", 1, 0),
])
def test_operad_check_at_small_max(capsys, which, bound, expected):
    code, out, err = run(capsys, ["operad", "check", "--which", which, "--max", str(bound)])
    assert code == expected
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    if expected == 0:
        assert json.loads(out)["passed"] is True
    else:
        assert out == ""


def test_operad_check_over_the_budget_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["operad", "check", "--which", "twist", "--max", "6"])
    assert time.perf_counter() - start < 2
    assert code == 3
    assert "instances" in json.loads(out)["error"]
    assert err.startswith("resource bound:")


def test_operad_iso(capsys):
    code, out, _ = run(capsys, ["operad", "iso", "--max-arity", "3"])
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("max_arity,expected", [("0", 2), ("-1", 2), ("6", 3)])
def test_operad_iso_bounds(capsys, max_arity, expected):
    code, out, err = run(capsys, ["operad", "iso", "--max-arity", max_arity])
    assert code == expected
    assert len(err.strip().splitlines()) == 1
    assert (out == "") if expected == 2 else ("error" in json.loads(out))


def test_omega_check_pass_and_fail(capsys, proj2_file, tmp_path):
    code, out, _ = run(capsys, ["omega", "check", "--kind", "diassociative",
                                "--input", proj2_file])
    assert code == 0
    assert json.loads(out)["passed"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"size": 2, "left": [[0, 1], [1, 0]],
                               "right": [[0, 0], [0, 0]]}))
    code, out, _ = run(capsys, ["omega", "check", "--kind", "diassociative",
                                "--input", str(bad)])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False and payload["witnesses"]


@pytest.mark.parametrize("entry", [1.9, "1", True])
def test_omega_check_rejects_non_integer_entries(capsys, tmp_path, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"size": 2, "left": [[0, entry], [1, 0]],
                               "right": [[0, 0], [0, 0]]}))
    code, out, err = run(capsys, ["omega", "check", "--kind", "diassociative",
                                  "--input", str(bad)])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "not an integer" in err


@pytest.mark.parametrize("data", [
    {"size": 2}, [1, 2],
    {"size": 2, "left": 5, "right": [[0, 0], [0, 0]]},
    {"size": 2, "left": [[0, 0], [0, 0]], "right": [[0, 0], [0, 0]], "ltri": 5,
     "rtri": [[0, 0], [0, 0]]},
    {"size": 2, "table": [1, 2]},
])
@pytest.mark.parametrize("argv", [
    ["omega", "check", "--kind", "duplicial", "--input"],
    ["family", "check", "--mode", "two_param", "--omega"],
    ["trees", "product", "--mode", "prec2", "--param", "0,1",
     "(x . . _ _)", "(y . . _ _)", "--omega"],
    ["present", "mix", "--preset", "duplicial", "--arity", "3", "--omega"],
])
def test_malformed_structure_file_is_a_usage_error(capsys, tmp_path, data, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, argv + [str(bad)])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_deeply_nested_input_is_a_usage_error(capsys, proj2_file, tmp_path):
    deep_tree = "(x . 0 _ " * 1200 + "(y . . _ _)" + ")" * 1200
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 100000 + "]" * 100000)
    for argv in (["trees", "product", "--mode", "prec2", "--omega", proj2_file,
                  "--param", "0,1", deep_tree, "(y . . _ _)"],
                 ["omega", "check", "--kind", "duplicial", "--input", str(deep_json)]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1


def test_omega_check_magma(capsys, magma_file):
    code, out, _ = run(capsys, ["omega", "check", "--kind", "perm",
                                "--input", magma_file])
    assert code == 0


def test_omega_enumerate(capsys):
    code, out, _ = run(capsys, ["omega", "enumerate", "--size", "2",
                                "--kind", "associative"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    assert len(payload["structures"]) == 8


def test_resource_bound_exit_code(capsys):
    code, out, _ = run(capsys, ["omega", "enumerate", "--size", "9",
                                "--kind", "duplicial"])
    assert code == 3
    assert "error" in json.loads(out)


def test_env_override_raises_bound(capsys, monkeypatch):
    monkeypatch.setenv("FAMOP_MAX_SIZE", "2")
    code, _, _ = run(capsys, ["omega", "enumerate", "--size", "3",
                              "--kind", "associative"])
    assert code == 3


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["omega", "check", "--kind", "bogus", "--input", "x.json"])
    assert exc.value.code == 2
    code, _, err = run(capsys, ["omega", "check", "--kind", "duplicial",
                                "--input", "/nonexistent.json"])
    assert code == 2
    assert "error" in err


def test_trees_product_modes(capsys, proj2_file, edus_file):
    code, out, _ = run(capsys, ["trees", "product", "--mode", "prec2",
                                "--omega", proj2_file, "--param", "0,1",
                                "(x . . _ _)", "(y . . _ _)"])
    assert code == 0
    assert json.loads(out)["result"] == "(x . 0:1 _ (y . . _ _))"
    code, out, _ = run(capsys, ["trees", "product", "--mode", "succ1",
                                "--omega", edus_file, "--param", "1",
                                "(x . . _ _)", "(y . . _ _)"])
    assert code == 0
    assert json.loads(out)["result"] == "(y 1 . (x . . _ _) _)"


@pytest.mark.parametrize("mode,param", [
    ("prec1", "1"), ("succ1", "1"), ("prec2", "0,1"), ("succ2", "0,1"),
])
def test_trees_product_on_a_magma_file_is_a_usage_error(capsys, magma_file, mode, param):
    code, out, err = run(capsys, ["trees", "product", "--mode", mode, "--omega", magma_file,
                                  "--param", param, "(x . . _ _)", "(y . . _ _)"])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("mode,param,left,right", [
    ("prec2", "0,5", "(x . . _ _)", "(y . . _ _)"),
    ("prec2", "-1,0", "(x . . _ _)", "(y . . _ _)"),
    ("prec1", "-1", "(x . . _ _)", "(y . . _ _)"),
    ("prec1", "5", "(x . . _ _)", "(y . . _ _)"),
    ("prec2", "0,1", "(x . 0 _ (z . . _ _))", "(y . . _ _)"),
    ("succ1", "1", "(x . 0:1 _ (z . . _ _))", "(y . . _ _)"),
    ("succ2", "0,1", "(x . . _ _)", "(y 9:0 . (z . . _ _) _)"),
    ("succ1", "1", "(x . . _ _)", "(y 9 . (z . . _ _) _)"),
])
def test_trees_product_out_of_range_or_wrong_flavor_is_a_usage_error(
        capsys, proj2_file, edus_file, mode, param, left, right):
    structure = proj2_file if mode.endswith("2") else edus_file
    code, out, err = run(capsys, ["trees", "product", "--mode", mode, "--omega", structure,
                                  f"--param={param}", left, right])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("mode,max_vertices,code", [
    ("two_param", "5", 3), ("one_param", "5", 3), ("graded", "5", 3),
    ("two_param", "0", 2), ("one_param", "-1", 2), ("graded", "0", 2),
])
def test_family_check_bounds_exit_at_once(capsys, edus_file, mode, max_vertices, code):
    start = time.perf_counter()
    got, out, err = run(capsys, ["family", "check", "--mode", mode, "--omega", edus_file,
                                 "--max-vertices", max_vertices])
    assert time.perf_counter() - start < 1
    assert got == code
    assert len(err.strip().splitlines()) == 1
    assert (out == "") if code == 2 else ("over budget" in json.loads(out)["error"])


@pytest.mark.parametrize("mode", ["two_param", "one_param", "graded"])
@pytest.mark.parametrize("x_size", ["0", "-1"])
def test_family_check_x_size_below_one_is_a_usage_error(capsys, edus_file, mode, x_size):
    code, out, err = run(capsys, ["family", "check", "--mode", mode, "--omega", edus_file,
                                  f"--x-size={x_size}"])
    assert code == 2
    assert out == ""
    assert "x_size must be at least 1" in err


def test_family_check_failing_graded_scan_over_the_budget_exits_3(capsys, tmp_path):
    path = tmp_path / "non_edus.json"
    path.write_text(json.dumps(omega.OmegaStructure(
        2, [[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [0, 0]]).to_json()))
    code, out, err = run(capsys, ["family", "check", "--mode", "graded", "--omega", str(path),
                                  "--max-vertices", "4"])
    assert code == 3
    assert "graded scan" in json.loads(out)["error"]
    assert err.startswith("resource bound:")


def test_family_check(capsys, proj2_file, edus_file, tmp_path):
    code, out, _ = run(capsys, ["family", "check", "--mode", "two_param",
                                "--omega", proj2_file, "--max-vertices", "2"])
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run(capsys, ["family", "check", "--mode", "one_param",
                                "--omega", edus_file, "--max-vertices", "2"])
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"size": 2, "left": [[0, 1], [1, 0]],
                               "right": [[0, 0], [0, 0]]}))
    code, out, _ = run(capsys, ["family", "check", "--mode", "two_param",
                                "--omega", str(bad), "--max-vertices", "2"])
    assert code == 1


def test_outputs_are_deterministic(capsys):
    _, out1, _ = run(capsys, ["omega", "enumerate", "--size", "2",
                              "--kind", "duplicial"])
    _, out2, _ = run(capsys, ["omega", "enumerate", "--size", "2",
                              "--kind", "duplicial"])
    assert out1 == out2
    _, out1, _ = run(capsys, ["present", "quotient", "--preset", "duplicial",
                              "--arity", "4"])
    _, out2, _ = run(capsys, ["present", "quotient", "--preset", "duplicial",
                              "--arity", "4"])
    assert out1 == out2


def test_stdout_is_json_on_check_paths(capsys, proj2_file):
    for argv in (["omega", "check", "--kind", "duplicial", "--input", proj2_file],
                 ["dims", "r", "--n", "2"],
                 ["operad", "check", "--which", "perm", "--max", "2"]):
        _, out, _ = run(capsys, argv)
        json.loads(out)
