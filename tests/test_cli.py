"""Command-line surface: outputs, exit codes, determinism, what a command loads."""
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def _readme_commands() -> list[str]:
    """The ``famop`` commands of the first ``sh`` block under README's
    "## Command line", each with its continuation lines joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_the_readme_commands_run(capsys, proj2_file):
    commands = _readme_commands()
    assert len(commands) == 10
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "famop"
        argv = [proj2_file if arg == "omega.json" else arg for arg in argv[1:]]
        code, out, err = run(capsys, argv)
        assert code == 0, (command, err)
        json.loads(out)


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


@pytest.mark.parametrize("argv", [["dims", "r", "--n", "3"],
                                  ["dims", "count", "--n", "3", "--w", "2"]])
def test_a_command_loads_only_the_modules_it_uses(capsys, argv):
    child = fresh_python(
        "import sys\n"
        "from famop.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.startswith('famop')), file=sys.stderr)\n"
        "sys.exit(code)\n", *argv)
    assert child.returncode == 0, child.stderr
    loaded = set(child.stderr.splitlines()[-1].split())
    assert "famop.dims" in loaded
    assert not loaded & {"famop.presentations", "famop.linear", "famop.operads",
                         "famop.duplicial"}
    _, out, _ = run(capsys, argv)
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


# A size-2 structure for each preset, of the kind the preset defines.
_PRESET_STRUCTURES = {
    "dendriform": {"size": 2, "left": [[0, 0], [1, 1]], "right": [[0, 1], [0, 1]]},
    "duplicial": {"size": 2, "left": [[0, 1], [1, 0]], "right": [[1, 0], [0, 1]]},
    "associative": {"size": 2, "table": [[0, 1], [1, 0]]},
    "twist": {"size": 2, "table": [[0, 1], [1, 1]]},
    "napnap": {"size": 2, "table": [[1, 0], [1, 0]]},
    "prelie": {"size": 2, "table": [[0, 1], [0, 1]]},
}

# SHA-256 of the stdout of each --preset command, recorded at commit 53e109b,
# when the registry held its relations as (lhs, rhs) pairs over variables 0-2
# and ``preset`` relabelled them to leaves 1..3.
_PRESET_GOLDEN = {
    ("dendriform", "quotient 1"): "a0675035865ee7d22c0274061a8abe1eede20c1d2f57b95c003c6c810815ca10",
    ("dendriform", "quotient 2"): "c1408d835de48d4b19e7c2b3d4d9478374fb9e7b24a6b5b256fcfd4614bd3b6f",
    ("dendriform", "quotient 3"): "062436678b42927f8f8d29ce8fb4f45224dde131c26a1f4e2375e9a178af4121",
    ("dendriform", "quotient 4"): "ea1faf3997e3246c24c783206a4364d2c8ed1a9396a542707ec4da7118aa8c80",
    ("dendriform", "mix census"): "39113a3a13ca9daa037b4ce12abfc1ee452174853c682aed5d6efd2e431cc5cf",
    ("dendriform", "mix 0,1,1 -> 1"): "fdc44a4f9caa09d2f1743f86dcc8465e3edc57a3829bdb2f979f9201a3a4bef0",
    ("duplicial", "quotient 1"): "a3cc2701d1ebad952a08b5bfbd40f29c890154308527fcd6a2854abc9692821e",
    ("duplicial", "quotient 2"): "481e420e4a95e32355336c4369641192144d5b31d98e98144e999c945e6cf4b5",
    ("duplicial", "quotient 3"): "cb56def35c5697397ee8f0b2b96e1e08f0c8a9b9d1ef908711521d874b08269e",
    ("duplicial", "quotient 4"): "84f60961f3980702112ea4bbb9d7c85a271ce6b5f62394a56bc9c390d2a88829",
    ("duplicial", "mix census"): "bf8db607492326180a2d60ab1aa803731a89d453f58dcefa5be853ffca85604e",
    ("duplicial", "mix 0,1,1 -> 1"): "a7fd5f56510f40e82287f32b02006c27ec2e72cd8dbcf922d2d74a9ba45290d5",
    ("associative", "quotient 1"): "afe6beafa9bc552d050c170ffd0036522b1fdfbe336b58c2bec1839b9e9697eb",
    ("associative", "quotient 2"): "ce6a0c327b0ba17fb31521d7e7ed75b8912739c5afea4633dfc1dafaaf7ef26c",
    ("associative", "quotient 3"): "99e03dc7e6bd649fc1b99268183a75ec318810dfc7da8f6532cee4cd2066724b",
    ("associative", "quotient 4"): "88d7d7c279870416d0346f020b24377900bcb0e9cc3e4e116383609351c1242d",
    ("associative", "mix census"): "7b8c489bd312408e33d7514d3bd6bce5f2315a57a9506024fd3a277ed2de5959",
    ("associative", "mix 0,1,1 -> 1"): "c37d92cf3942f54513381ffbfab41b0430993db1bf76e039c22c55a36c113bcb",
    ("twist", "quotient 1"): "e91c4ca12faf79e9b99d7f45f08d481ba9201ed957db49c82ea4346ec00b54d6",
    ("twist", "quotient 2"): "db234660c6101343991c9fbba180261113aff0a777e48bbd43ca86ff8ad5ac55",
    ("twist", "quotient 3"): "bb9bbdc71194a9cbcb89eb508a3b03f908001746ad58a6b7b76dbfea65a097b4",
    ("twist", "quotient 4"): "a9a604927b02c8d53e034258b369c9a62aae8ecbe7f07bd6e6e7c9dd57fcbc64",
    ("twist", "mix census"): "bdc95d6ce16cb8be4357a83bff616c4c1f758626783583813e6d91b7e0a505e1",
    ("twist", "mix 0,1,1 -> 1"): "110776cc7232d5e29339434d7413ba515bcb8716bf0a47799af6d23a2f9da62b",
    ("napnap", "quotient 1"): "25e5a02efa420abbfccffcc45efd0af49adbf5308c27b3664c212cee39da0876",
    ("napnap", "quotient 2"): "af24e73fa1515a37acb6b664f87c68c616b3e8c29bcb29a669c29f076d43bbb0",
    ("napnap", "quotient 3"): "3537ec021c77b5003a99fb43b99dcf799416bbcb4022fe46379ea1e9a245add9",
    ("napnap", "quotient 4"): "1bb10369874d1257e3adca44c5747cb851a161818774b5127621c5984d5bc241",
    ("napnap", "mix census"): "679aa98cc57166ffff35f867f658c260c25157b076ee0baed3d753a3efbd6421",
    ("napnap", "mix 0,1,1 -> 1"): "70ebc591da97deed9434462a8fc70cd6b2d9826ac51c54db66e84f308e2718d2",
    ("prelie", "quotient 1"): "493971b7beecd28677f37f9ff5f4f698f29c2ba004764ac25cd1a2032986e43f",
    ("prelie", "quotient 2"): "feb8fac312f06c5c581b802770e03627ced5b27030468a6413af53068f3710c6",
    ("prelie", "quotient 3"): "cde3d51fc9b4b9ced3a6f2d1c0476e134218e2e7b6932b4173f09c0238787956",
    ("prelie", "quotient 4"): "ef83c2b2e35b56a00bc0bcb656ba5d8739263e95f6b589a63878b21145fce100",
    ("prelie", "mix census"): "d7ebcadb7dc56153e9ef30de127ba96597410091c2c73764f95ae179236dbe8c",
    ("prelie", "mix 0,1,1 -> 1"): "1c24c0a8f7a78c17b61c33d877dc42a602755794c4a3c5a65b15e8578bf5a927",
}


@pytest.mark.parametrize("name,command", sorted(_PRESET_GOLDEN))
def test_preset_stdout_is_pinned(capsys, tmp_path, name, command):
    structure = tmp_path / "omega.json"
    structure.write_text(json.dumps(_PRESET_STRUCTURES[name]))
    if command.startswith("quotient"):
        argv = ["present", "quotient", "--preset", name, "--arity", command.split()[1]]
    else:
        argv = ["present", "mix", "--preset", name, "--omega", str(structure), "--arity", "3"]
        if command != "mix census":
            argv += ["--coloring", "0,1,1", "--output", "1"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PRESET_GOLDEN[name, command]


def test_present_mix_on_a_magma_file_is_a_usage_error(capsys, magma_file):
    code, out, err = run(capsys, ["present", "mix", "--preset", "duplicial",
                                  "--omega", magma_file, "--arity", "3"])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "'prec'" in err and "left_arrow" in err


@pytest.mark.parametrize("output", ["0", "1", "7"])
def test_present_mix_output_without_coloring_is_a_usage_error(capsys, tmp_path, output):
    structure = tmp_path / "omega.json"
    structure.write_text(json.dumps(_PRESET_STRUCTURES["duplicial"]))
    code, out, err = run(capsys, ["present", "mix", "--preset", "duplicial", "--omega",
                                  str(structure), "--arity", "2", "--output", output])
    assert (code, out) == (2, "")
    assert "--output needs --coloring" in err


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


def test_edus_enumeration_beyond_size_3_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["omega", "enumerate", "--size", "4",
                                "--kind", "edus", "--force"])
    assert code == 3
    assert "edus" in json.loads(out)["error"]
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    ["dims", "r", "--n", "\u0663"],
    ["dims", "count", "--n", "\u0663", "--w", "1"],
    ["dims", "count", "--n", "1_0", "--w", "1"],
    ["present", "mix", "--preset", "duplicial", "--omega", "PROJ2", "--arity", "2",
     "--coloring", "+0,1"],
])
def test_integer_options_are_ascii_digits(capsys, proj2_file, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([proj2_file if arg == "PROJ2" else arg for arg in argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "invalid integer" in err


def test_env_override_raises_bound(capsys, monkeypatch):
    monkeypatch.setenv("FAMOP_MAX_SIZE", "2")
    code, _, _ = run(capsys, ["omega", "enumerate", "--size", "3",
                              "--kind", "associative"])
    assert code == 3


@pytest.mark.parametrize("value", ["1_0", "\u0663", "+4", " 4", "-1", ""])
def test_max_size_override_is_ascii_digits(capsys, monkeypatch, value):
    monkeypatch.setenv("FAMOP_MAX_SIZE", value)
    code, out, err = run(capsys, ["omega", "enumerate", "--size", "3", "--kind", "perm"])
    assert (code, out) == (2, "")
    assert "FAMOP_MAX_SIZE" in err


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


# ---------------------------------------------------------------------------
# Golden output: one SHA-256 per group of in-process ``cli.main`` runs.  Each
# digest covers, command by command, the exit code and the stdout (a usage
# error that argparse raises as ``SystemExit`` counts with its code); stderr
# is not pinned.  The corpus covers every subcommand: passing, failing and
# malformed inputs, usage errors (exit 2) and refused sizes (exit 3).
# ``omega enumerate`` runs sizes 1-3 for every kind except ``edus`` at 3,
# which alone would take about 6 s (63141 structures, 11.7 MB of JSON); its
# count is pinned in ``tests/test_omega.py``.

_PRESET_NAMES = tuple(_PRESET_STRUCTURES)

# Files that no structure reader accepts, as JSON values or, for str, raw text.
_MALFORMED = (
    {"size": 2}, [1, 2], None, "plain", {"size": "2", "table": [[0, 0], [0, 0]]},
    {"size": 2, "left": 5, "right": [[0, 0], [0, 0]]},
    {"size": 2, "left": [[0, 0]], "right": [[0, 0], [0, 0]]},
    {"size": 2, "left": [[0, 2], [0, 0]], "right": [[0, 0], [0, 0]]},
    {"size": 2, "left": [[0, 1.5], [0, 0]], "right": [[0, 0], [0, 0]]},
    {"size": 2, "left": [[0, True], [0, 0]], "right": [[0, 0], [0, 0]]},
    {"size": 2, "left": [[0, 0], [0, 0]], "right": [[0, 0], [0, 0]], "ltri": 5,
     "rtri": [[0, 0], [0, 0]]},
    {"size": 2, "table": [1, 2]}, {"size": 0, "table": []},
    '{"size": 2, "table": [[0, 0], [0', "", "[" * 5000 + "]" * 5000,
)


def _sample(items, count):
    """``count`` items spread evenly over ``items``, in order."""
    step = max(1, len(items) // count)
    return items[::step][:count]


def _perturbed(data: dict) -> dict:
    """The structure with the first cell of its first table moved to the next element."""
    name = "table" if "table" in data else "left"
    table = [list(row) for row in data[name]]
    table[0][0] = (table[0][0] + 1) % data["size"]
    return {**data, name: table}


def _corpus(put) -> dict:
    """Each group's command lines; ``put(data)`` writes a file and returns its path."""
    members = {kind: [s.to_json() for s in omega.enumerate_structures(1, kind)] +
               _sample([s.to_json() for s in omega.enumerate_structures(2, kind)], 6)
               for kind in sorted(omega.KIND_LAWS)}
    magmas = [{"size": 2, "table": [list(cells[:2]), list(cells[2:])]}
              for cells in itertools.product(range(2), repeat=4)]
    pool = [put(s) for kind in members for s in members[kind]]
    pool += [put(_perturbed(s)) for kind in members for s in members[kind][1:]]
    pool += [put(m) for m in magmas] + [put(m) for m in _MALFORMED] + ["missing.json"]
    groups = {}

    groups["omega check"] = [["omega", "check", "--kind", kind, "--input", path]
                             for kind in sorted(omega.KIND_LAWS) for path in pool]

    groups["omega enumerate"] = [
        ["omega", "enumerate", "--size", str(size), "--kind", kind]
        for kind in sorted(omega.KIND_LAWS) for size in (1, 2, 3)
        if (kind, size) != ("edus", 3)] + [
        ["omega", "enumerate", "--size", size, "--kind", kind, *force]
        for kind in ("associative", "edus") for size in ("0", "-1", "4", "9")
        for force in ((), ("--force",)) if not (size == "4" and force and kind != "edus")]

    proj2 = put(omega.ds_projections(2).to_json())
    arrows = [proj2] + [put(s) for s in members["duplicial"][1:4]]
    non_duplicial = [put(s.to_json()) for s in _sample([
        s for s in omega.enumerate_structures(2, "diassociative")
        if not omega.passes(s, "duplicial")], 3)]
    edus = [put(s) for s in members["edus"][:5]]
    bad_edus = [put(_perturbed(s)) for s in members["edus"][1:5]]
    structures = arrows + non_duplicial + edus + bad_edus + [put(magmas[6]), pool[-3]]
    groups["family check"] = [
        ["family", "check", "--mode", mode, "--omega", path, "--max-vertices", str(k)]
        for mode in ("two_param", "one_param", "graded") for k in (1, 2)
        for path in structures] + [
        ["family", "check", "--mode", "graded", "--omega", path, "--max-vertices", "1",
         "--x-size", "2"] for path in edus[:2] + bad_edus[:2]] + [
        ["family", "check", "--mode", mode, "--omega", edus[1], *extra]
        for mode in ("two_param", "one_param", "graded")
        for extra in (("--max-vertices", "0"), ("--max-vertices", "5"), ("--x-size", "0"))]

    pair_trees = ("(x . . _ _)", "(x . 0:1 _ (z . . _ _))", "(y 1:1 . (z . . _ _) _)")
    single_trees = ("(x . . _ _)", "(x . 1 _ (z . . _ _))", "(y 0 . (z . . _ _) _)")
    groups["trees product"] = [
        ["trees", "product", "--mode", mode, "--omega", path, f"--param={a},{b}", left, right]
        for mode in ("prec2", "succ2") for path in arrows[:2]
        for a, b in itertools.product(range(2), repeat=2)
        for left, right in itertools.product(pair_trees, repeat=2)] + [
        ["trees", "product", "--mode", mode, "--omega", path, f"--param={w}", left, right]
        for mode in ("prec1", "succ1") for path in edus[1:3] for w in range(2)
        for left, right in itertools.product(single_trees, repeat=2)] + [
        ["trees", "product", "--mode", mode, "--omega", path, f"--param={param}", left, right]
        for mode, path in (("prec2", proj2), ("succ1", edus[1]))
        for param in ("0", "0,1", "0,5", "-1", "0,1,1")
        for left, right in (("(x . . _ _)", "(y . . _ _)"), ("(x . 0 _ (z . . _ _))", "_"),
                            ("(x . . _ _", "(y . . _ _)"))] + [
        ["trees", "product", "--mode", "prec1", "--omega", path, "--param", "0",
         "(x . . _ _)", "(y . . _ _)"] for path in (arrows[1], put(magmas[3]), pool[-1])]

    groups["operad"] = [
        ["operad", "check", "--which", which, "--max", str(bound)]
        for which in ("corolla", "perm", "twist") for bound in (-1, 0, 1, 2, 3)] + [
        ["operad", "check", "--which", which, "--max", bound]
        for which, bound in (("corolla", "6"), ("corolla", "11"), ("perm", "7"),
                             ("twist", "6"))] + [
        ["operad", "iso", "--max-arity", str(arity)] for arity in (-1, 0, 1, 2, 3, 4, 6)]

    groups["present"] = [
        ["present", "quotient", "--preset", name, "--arity", str(arity)]
        for name in (*_PRESET_NAMES, "nosuch") for arity in (0, 1, 2, 3, 4, 5, 7)]
    for name in _PRESET_NAMES:
        own = put(_PRESET_STRUCTURES[name])
        groups["present"] += [
            ["present", "mix", "--preset", name, "--omega", path, "--arity", str(arity)]
            for path in (own, proj2, put(magmas[9]), edus[2]) for arity in (2, 3)]
        groups["present"] += [
            ["present", "mix", "--preset", name, "--omega", own, "--arity", "2",
             "--coloring", f"{a},{b}", "--output", str(out)]
            for a, b, out in itertools.product(range(2), repeat=3)]
        groups["present"] += [
            ["present", "mix", "--preset", name, "--omega", own, "--arity", "2", *extra]
            for extra in (("--coloring", "0"), ("--coloring", "0,2"), ("--output", "3"),
                          ("--coloring", "0,1", "--output", "-1"))]

    groups["dims"] = [["dims", "r", "--n", str(n)] for n in range(-1, 14)] + [
        ["dims", "r", "--n", str(n), "--eval", str(w)] for n in (1, 4, 7) for w in (0, 1, 3)] + [
        ["dims", "r", "--n", str(n), "--verify"] for n in (1, 5, 12, 20, 65)] + [
        ["dims", "count", "--n", str(n), "--w", str(w)] for n in range(0, 10)
        for w in range(0, 6)]

    groups["usage"] = [
        [], ["omega"], ["omega", "check"], ["omega", "check", "--kind", "nosuch", "--input", proj2],
        ["omega", "enumerate", "--size", "x", "--kind", "perm"],
        ["omega", "enumerate", "--size", "1_0", "--kind", "perm"],
        ["trees", "product", "--mode", "prec3", "--omega", proj2, "--param", "0",
         "(x . . _ _)", "(y . . _ _)"],
        ["family", "check", "--mode", "two_param"], ["family", "check", "--mode", "nosuch",
                                                     "--omega", proj2],
        ["operad", "check", "--which", "nosuch"], ["operad", "iso", "--max-arity", "+3"],
        ["present", "mix", "--preset", "duplicial", "--omega", proj2, "--arity", "2",
         "--coloring", "+0,1"],
        ["dims", "r"], ["dims", "count", "--n", "٣", "--w", "1"], ["nosuch"]]
    return groups


def _digest(capsys, commands) -> str:
    """SHA-256 over each command's exit code and stdout, in order."""
    h = hashlib.sha256()
    for argv in commands:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        h.update(f"{code}\0{capsys.readouterr().out}\0".encode())
    return h.hexdigest()


# Recorded at commit 0e3199f.  A change that keeps the output keeps every digest; one
# that means to change it records new digests and says why.  "present" is re-recorded
# since `present mix --output` without `--coloring` is a usage error (exit 2, no stdout):
# exactly its six `--output 3` commands changed.
_GOLDEN = {
    "omega check": "418e864bf3a5ff3c0d4717e6348679463371fca97e151739ae9846c38319f78d",
    "omega enumerate": "6f26f0da768148c3b1f34af832041e974d1ee7b08995b9b10ecbde79396fa083",
    "family check": "f457bda3363eed8ba50dd27b9cfce06dcb98849b5bfd7681eb1c7a9bfbf657a2",
    "trees product": "1dbd7deb74887ed73a56f56442108de5e3ff0fef0ef241e3cf1296911b32c12b",
    "operad": "854763a21f5d2223669bde5e2caa7fec38bc3aef0fc9435111017814e794b714",
    "present": "e82a5a1c50ea214c29b3dcacb7a5d780887baa31d548cb67fcc7325bace16426",
    "dims": "d9e22461d2cc6d30dbb3b40b70f39136d1583c5f63625508ff907828666f7802",
    "usage": "28476b6baf06eca7534a694bffa6a399af3441ecc647f997fb311e462b6c3329",
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    folder = tmp_path_factory.mktemp("corpus")
    paths: dict = {}

    def put(data) -> str:
        text = data if isinstance(data, str) else json.dumps(data)
        if text not in paths:
            paths[text] = str(folder / f"f{len(paths)}.json")
            with open(paths[text], "w", encoding="utf-8") as fh:
                fh.write(text)
        return paths[text]

    return _corpus(put)


def test_corpus_covers_every_subcommand_with_enough_commands(corpus):
    assert sum(map(len, corpus.values())) >= 1000
    ran = {tuple(argv[:2]) for commands in corpus.values() for argv in commands}
    assert {("omega", "check"), ("omega", "enumerate"), ("trees", "product"),
            ("family", "check"), ("operad", "check"), ("operad", "iso"),
            ("present", "quotient"), ("present", "mix"), ("dims", "r"),
            ("dims", "count")} <= ran


@pytest.mark.parametrize("group", sorted(_GOLDEN))
def test_cli_stdout_and_exit_codes_are_pinned(capsys, corpus, group):
    assert _digest(capsys, corpus[group]) == _GOLDEN[group]


# ---------------------------------------------------------------------------
# Fuzz: every subcommand on malformed files and out-of-range integers

_FILES = {"arrows": omega.ds_projections(2).to_json(),
          "edus": omega.enumerate_structures(2, "edus")[3].to_json(),
          "magma": {"size": 2, "table": [[0, 1], [1, 1]]}}
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(allow_nan=False), st.text(max_size=3))
_NON_INTEGERS = _SCALARS.filter(lambda v: type(v) is not int) | st.just([2])


@st.composite
def _bad_file(draw) -> str:
    """The text of a structure file that every reader refuses: truncated JSON, a
    field of the wrong type, a table of the wrong shape or a bad entry."""
    data = _FILES[draw(st.sampled_from(sorted(_FILES)))]
    text = json.dumps(data)
    how = draw(st.sampled_from(("truncated", "type", "shape", "entry")))
    if how == "truncated":
        return text[:draw(st.integers(0, len(text) - 1))]
    field = draw(st.sampled_from(sorted(data)))
    if field == "size" or how == "type":
        value = draw(_NON_INTEGERS if field == "size" else _SCALARS)
    elif how == "shape":
        rows, cols = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda shape: shape != (2, 2)))
        value = [[draw(st.integers(0, 1)) for _ in range(cols)] for _ in range(rows)]
    else:
        value = [list(row) for row in data[field]]
        value[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(
            st.integers(2, 10 ** 9) | st.integers(-10 ** 9, -1) | _NON_INTEGERS)
    return json.dumps({**data, field: value})


def _beyond(low: int, high: int):
    """An integer below ``low`` or above ``high``, as text."""
    return (st.integers(low - 10 ** 9, low - 1) | st.integers(high + 1, high + 10 ** 9)).map(str)


def _command(*parts):
    """A command line of text parts and strategies for text parts."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list)


def _option(name: str, values):
    return values.map(f"--{name}={{}}".format)


_KINDS = st.sampled_from(sorted(omega.KIND_LAWS))
_MODES = st.sampled_from(("two_param", "one_param", "graded"))
_PRESETS = st.sampled_from(_PRESET_NAMES)
_TREES = ("(x . . _ _)", "(y . . _ _)")

# Each reads its structure from the malformed file {bad}.
_FILE_COMMANDS = st.one_of(
    _command("omega", "check", _option("kind", _KINDS), "--input={bad}"),
    _command("family", "check", _option("mode", _MODES), "--omega={bad}", "--max-vertices=1"),
    _command("trees", "product", _option("mode", st.sampled_from(("prec1", "succ1"))),
             "--omega={bad}", "--param=0", *_TREES),
    _command("trees", "product", _option("mode", st.sampled_from(("prec2", "succ2"))),
             "--omega={bad}", "--param=0,1", *_TREES),
    _command("present", "mix", _option("preset", _PRESETS), "--omega={bad}", "--arity=2"))

# Each has one integer out of range: below 1, over a size bound or not a color.
_INTEGER_COMMANDS = st.one_of(
    _command("omega", "enumerate", _option("size", _beyond(1, 4)), "--force",
             _option("kind", _KINDS)),
    _command("family", "check", _option("mode", _MODES), "--omega={edus}",
             _option("max-vertices", _beyond(1, 4))),
    _command("family", "check", _option("mode", _MODES), "--omega={edus}",
             _option("x-size", st.integers(-10 ** 9, 0).map(str))),
    _command("trees", "product", "--mode=prec2", "--omega={arrows}",
             _option("param", _beyond(0, 1).map("0,{}".format) | _beyond(0, 1) |
                     st.just("0,0,0")), *_TREES),
    _command("trees", "product", "--mode=succ1", "--omega={edus}",
             _option("param", _beyond(0, 1)), *_TREES),
    *(_command("operad", "check", f"--which={which}", _option("max", _beyond(1, top)))
      for which, top in (("corolla", 8), ("perm", 6), ("twist", 5))),
    _command("operad", "iso", _option("max-arity", _beyond(1, 5))),
    _command("present", "quotient", _option("preset", _PRESETS), _option("arity", _beyond(1, 6))),
    _command("present", "mix", _option("preset", _PRESETS), "--omega={arrows}",
             _option("arity", _beyond(1, 6))),
    _command("present", "mix", "--preset=duplicial", "--omega={arrows}", "--arity=2",
             "--coloring=0,1", _option("output", _beyond(0, 1))),
    _command("present", "mix", "--preset=duplicial", "--omega={arrows}", "--arity=2",
             _option("coloring", _beyond(0, 1).map("0,{}".format) | st.just("0,1,0"))),
    _command("dims", "r", _option("n", _beyond(1, 64))),
    _command("dims", "count", _option("n", _beyond(1, 8)), "--w=2"),
    _command("dims", "count", "--n=3", _option("w", _beyond(1, 4))))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.tuples(_FILE_COMMANDS, _bad_file()) | st.tuples(_INTEGER_COMMANDS, st.just("")))
def test_fuzzed_commands_fail_with_exit_2_or_3(capsys, tmp_path, case):
    argv, bad = case
    paths = {}
    for name, text in (("bad", bad), *((k, json.dumps(v)) for k, v in _FILES.items())):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    code, out, _ = run(capsys, [arg.format(**paths) for arg in argv])
    assert code in (2, 3), argv
    if code == 2:
        assert out == ""
    else:
        assert out.count("\n") == 1 and list(json.loads(out)) == ["error"]
