"""Command line driver: exit codes, determinism, report shape."""

import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "planarprop.cli", *args],
        capture_output=True,
        text=True,
    )


def test_dims_standard_algebras():
    expected = {"k2": 0, "dualnum": 1, "m2": 3}
    for name, dim in expected.items():
        r = run_cli("dims", "--algebra", name, "--order", "1")
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert report["dims"][0]["dim"] == dim
        assert "seed" in report and "version" in report and "algebra_hash" in report


def test_dims_from_spec_file():
    r = run_cli("dims", "--algebra", str(DATA / "m2.json"), "--order", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["dims"][0]["dim"] == 3


def test_reports_are_byte_stable():
    a = run_cli("dims", "--algebra", "dualnum", "--order", "2", "--seed", "3")
    b = run_cli("dims", "--algebra", "dualnum", "--order", "2", "--seed", "3")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_invalid_algebra_exits_2():
    r = run_cli("dims", "--algebra", "no_such_file.json", "--order", "1")
    assert r.returncode == 2
    assert r.stdout == ""  # nothing emitted on failure


def _drop_last_row_of_plane_1(spec):
    spec["mult"][1].pop()


def _shorten_an_inner_row(spec):
    spec["mult"][0][1].pop()


def _zero_dim(spec):
    spec["dim"] = 0


def _short_unit(spec):
    spec["unit"].pop()


def _extra_basis_name(spec):
    spec["basis"].append("y")


@pytest.mark.parametrize(
    "breakage",
    [_drop_last_row_of_plane_1, _shorten_an_inner_row, _zero_dim, _short_unit, _extra_basis_name],
)
def test_misshapen_spec_exits_2(breakage, tmp_path, capsys):
    spec = json.loads((DATA / "dualnum.json").read_text())
    breakage(spec)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    err = _rejected(["dims", "--algebra", str(path), "--order", "1"], capsys)
    assert "not two-sided" not in err


def test_solve_and_compose_round_trip(tmp_path):
    r = run_cli("solve", "--algebra", "dualnum", "--order", "2",
                "--out", str(tmp_path / "basis.json"))
    assert r.returncode == 0
    basis = json.loads((tmp_path / "basis.json").read_text())
    assert basis["dim"] == 2
    p0 = tmp_path / "p0.json"
    p0.write_text(json.dumps(basis["basis"][0]))
    r = run_cli("compose", "--algebra", "dualnum", str(p0), str(p0), "--mode", "h")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["leibniz"] is True
    assert report["result"]["shape"] == [2, 2]


def test_symbol_report():
    r = run_cli("symbol", "--algebra", "m2", "--order", "2")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["surjective"] is True
    assert report["kernel_equals_degeneracy_image"] is True


def test_normalize_examples():
    r = run_cli("normalize", "a#1,1 * b#1,1")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert len(report["layers"]) == 2
    r = run_cli("normalize", "u . u")
    assert json.loads(r.stdout)["layers"] == []


def test_normalize_bad_expression_exits_2():
    r = run_cli("normalize", "a#1,2 . b#1,1")
    assert r.returncode == 2


def test_graph_planar_and_not(tmp_path):
    good = {
        "vertices": [{"in": 2, "out": 1, "genus": 0}, {"in": 1, "out": 2, "genus": 0}],
        "edges": [[[1, "out", 1], [0, "in", 1]], [[1, "out", 2], [0, "in", 2]]],
        "inputs": [[1, "in", 1]],
        "outputs": [[0, "out", 1]],
    }
    gf = tmp_path / "good.json"
    gf.write_text(json.dumps(good))
    r = run_cli("graph", str(gf))
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["planar"] is True
    assert report["genus"] == 1

    crossing = {
        "vertices": [{"in": 1, "out": 1, "genus": 0}] * 4,
        "edges": [[[2, "out", 1], [1, "in", 1]], [[3, "out", 1], [0, "in", 1]]],
        "inputs": [[2, "in", 1], [3, "in", 1]],
        "outputs": [[0, "out", 1], [1, "out", 1]],
    }
    cf = tmp_path / "crossing.json"
    cf.write_text(json.dumps(crossing))
    r = run_cli("graph", str(cf), "--backtrack-planarity")
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["planar"] is False
    assert report["frontier_trace"]


def test_verify_dualnum():
    r = run_cli("verify", "--algebra", "dualnum", "--seed", "11")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["all_pass"] is True
    assert any(e["invariant"] == "normal_form_soundness" for e in report["results"])


def test_aut_probe_m2():
    r = run_cli("aut-probe", "--algebra", "m2", "--order", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["spanned"] is True


def test_aut_build_k2():
    r = run_cli("aut-build", "--algebra", "k2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["valid"] is True


# Subcommands that take --order/--grade, with the positional arguments each needs.
ORDER_GRADE_COMMANDS = {
    "dims": [],
    "solve": [],
    "compose": ["left.json", "right.json"],
    "symbol": [],
    "verify": [],
    "aut-build": [],
    "aut-probe": [],
}


def _rejected(argv, capsys):
    from planarprop.cli import main

    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--order", "-2"],
        ["solve", "--order", "-1"],
        ["dims", "--order", "1", "--grade", "-1"],
        ["symbol", "--order", "0"],
    ],
)
def test_bad_order_or_grade_exits_2(argv, capsys):
    _rejected(argv, capsys)


@pytest.mark.parametrize("command", sorted(ORDER_GRADE_COMMANDS))
@pytest.mark.parametrize("flag", ["--order", "--grade"])
def test_negative_order_or_grade_rejected_everywhere(command, flag, capsys):
    err = _rejected([command, *ORDER_GRADE_COMMANDS[command], "--order", "1", flag, "-1"], capsys)
    assert flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--algebra", str(DATA / "dualnum.json"), "--order", "1"],
        ["dims", "--algebra", "dualnum", "--order", "1"],
        ["verify", "--algebra", str(DATA / "dualnum.json")],
    ],
)
def test_algebra_is_checked_once_per_load(argv, monkeypatch, capsys):
    from planarprop import algebras, cli

    checked = []
    check = algebras.check_algebra

    def counted(A):
        checked.append(A)
        check(A)

    monkeypatch.setattr(algebras, "check_algebra", counted)
    monkeypatch.setattr(cli, "check_algebra", counted)
    assert cli.main(argv) == 0
    assert len(checked) == 1


def test_verify_reports_a_non_associative_spec(tmp_path, capsys):
    from planarprop.cli import main

    spec = json.loads((DATA / "dualnum.json").read_text())
    spec["mult"][1][0][0] = "1"  # x * 1 = 1 + x
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["verify", "--algebra", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is False
    assert report["results"] == [
        {
            "invariant": "algebra_associative_unital",
            "pass": False,
            "counterexample": "associativity fails at basis triple (1,0,0)",
        }
    ]
    # every other subcommand rejects the spec as input
    assert main(["dims", "--algebra", str(path), "--order", "1"]) == 2
    assert "associativity fails" in capsys.readouterr().err


def test_aut_build_reports_its_counterexample(monkeypatch, capsys):
    from planarprop import cli

    monkeypatch.setattr(cli, "validate_aut", lambda phi: (False, ((0, 1), 2, 3)))
    assert cli.main(["aut-build", "--algebra", "k2", "--order", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert report["counterexample"] == {"word": [0, 1], "i": 2, "j": 3}


def _basis_operator(path, argv, k):
    """Write basis operator k of the solve report for argv to path."""
    from planarprop.cli import main

    assert main(["solve", *argv, "--out", str(path)]) == 0
    path.write_text(json.dumps(json.loads(path.read_text())["basis"][k]))
    return str(path)


@pytest.fixture(scope="module")
def operator_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("operators")
    return {
        "P": _basis_operator(d / "P.json", ["--algebra", "dualnum", "--order", "1"], 0),
        "G": _basis_operator(d / "G.json", ["--algebra", "dualnum", "--shape", "1,0", "--grade", "1"], 0),
        "H": _basis_operator(d / "H.json", ["--algebra", "dualnum", "--shape", "1,1"], 0),
        "dualnum 2.0": _basis_operator(d / "d0.json", ["--algebra", "dualnum", "--order", "2"], 0),
        "dualnum 2.1": _basis_operator(d / "d1.json", ["--algebra", "dualnum", "--order", "2"], 1),
        "m2 1.0": _basis_operator(d / "m0.json", ["--algebra", "m2", "--order", "1"], 0),
        "m2 1.2": _basis_operator(d / "m2.json", ["--algebra", "m2", "--order", "1"], 2),
    }


@pytest.mark.parametrize(
    "algebra, left, right, mode, message",
    [
        ("dualnum", "P", "G", "v", "vertical arity mismatch"),
        ("dualnum", "G", "P", "d", "defined at grade zero"),
        ("dualnum", "H", "P", "d", "single-slot"),
        ("dualnum", "P", "H", "d", "single-slot"),
        ("m2", "P", "P", "d", "expected 4x4"),
    ],
)
def test_compose_of_operators_that_do_not_fit_exits_2(operator_files, algebra, left, right, mode, message, capsys):
    argv = ["compose", "--algebra", algebra, operator_files[left], operator_files[right], "--mode", mode]
    assert message in _rejected(argv, capsys)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c["grades"].append(0), "do not fit grade"),
        (lambda c: c.update(grades=[1]), "do not fit grade"),
        (lambda c: c["matrix"].pop(), "expected 2x2"),
        (lambda c: c.update(refinement=[3]), "does not refine the shape"),
    ],
)
def test_compose_rejects_a_misshapen_block(operator_files, tmp_path, edit, message, capsys):
    op = json.loads(pathlib.Path(operator_files["P"]).read_text())
    edit(op["components"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(op))
    argv = ["compose", "--algebra", "dualnum", str(bad), operator_files["P"], "--mode", "h"]
    assert message in _rejected(argv, capsys)


@pytest.mark.parametrize("left, right", [("Z", "Z"), ("Z", "P"), ("P", "Z")])
def test_compose_d_with_a_zero_scalar_gives_zero(operator_files, tmp_path, left, right, capsys):
    from planarprop.cli import main

    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"shape": [], "type": [], "grade": 0, "components": []}))
    files = {"Z": str(zero), "P": operator_files["P"]}
    assert main(["compose", "--algebra", "dualnum", files[left], files[right], "--mode", "d"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["components"] == [] and report["leibniz"] is True
    assert report["result"]["shape"] == ([] if left == right else [1])


# sha256 of the --out report of each command, recorded before the graded
# target's grade-0 embedding became the identity; compose cases name the
# basis operators of `operator_files` they take.
GOLDEN = [
    (["dims", "--algebra", "dualnum", "--order", "4"], "bfbf043480a4834e7a71ae12f1a791031ae8f4d41a4dd5174f735bfa5488100d"),
    (["solve", "--algebra", "dualnum", "--order", "4"], "5d9111fcfc6fa062c04a811df803c948262fd697ca2886fb0cbbfca1bb680907"),
    (["dims", "--algebra", "m2", "--order", "2"], "bbe1e0e5a0fb2cd8a606277626087304f85810746ed604c1f2120821ef21fe91"),
    (["solve", "--algebra", "m2", "--order", "2"], "a4d0b125732e58963f6125dfd9b43a31919d4f635e61a0c87d9e4a2dac8c2b4e"),
    (["dims", "--algebra", "k2", "--order", "3", "--grade", "1"], "1e5acf78f9196308f09343680b26eab16ed06d194067341d2f5b238c1ee66730"),
    (["solve", "--algebra", "k2", "--order", "3", "--grade", "1"], "ae0bd77edeade07f74c9ebded639cf02afc9300129b6f3103d9252a9d2e65c6d"),
    (["dims", "--algebra", "dualnum", "--shape", "0,2,0", "--grade", "1"], "7e3bfeff6a9434747c111545eca67b00a09320c563407e8616867153f54212d7"),
    (["solve", "--algebra", "dualnum", "--shape", "0,2,0", "--grade", "1"], "58e10fe97e83238a9ca1be9d1baf0782295090b53a6fb9ce5fa9daeda6d94303"),
    (["symbol", "--algebra", "m2", "--order", "2"], "ece467cd8416fee1eb633791932120cffa2651f73b3eb20ed5decf549436e894"),
    (["verify", "--algebra", "dualnum", "--seed", "7"], "29d3e4e367d0bd52913a240a84fdb06080ad874f82c936ff3080933bbd222b0a"),
    (["aut-build", "--algebra", "m2"], "4785057834799396bda7a0f0b6a65a175b3ad1cdf5825f9462072ef70ea20ffa"),
    (["aut-probe", "--algebra", "m2", "--order", "2"], "72e3b9c6929f171596ec256994b3e3acfd5c247c220354bafaf792a567a0ea11"),
    (["compose", "--algebra", "dualnum", "dualnum 2.0", "dualnum 2.1", "--mode", "h"], "8f26987d338196e548a1db540d1786b7c0813cdba9c948e362c3485373f6632e"),
    (["compose", "--algebra", "dualnum", "dualnum 2.0", "dualnum 2.1", "--mode", "v"], "668cffd42b2fc0d46e3a277352596c0d77791ebb7f752e93cbdb667fa1adad17"),
    (["compose", "--algebra", "dualnum", "dualnum 2.0", "dualnum 2.1", "--mode", "d"], "0d28150639592cdc4dda26e9c0af6aa4ae98d3f2406f3bf09617547f78d358f2"),
    (["compose", "--algebra", "m2", "m2 1.0", "m2 1.2", "--mode", "h"], "899ac2000b54d14837413b659b6a4adbe36c7cee5571c79d00b207f9bd2bfe04"),
    (["compose", "--algebra", "m2", "m2 1.0", "m2 1.2", "--mode", "v"], "39d1053a97f43eff7f03b2a58a943eb3a0965d6e318388bba48153ae43fba945"),
    (["compose", "--algebra", "m2", "m2 1.0", "m2 1.2", "--mode", "d"], "66ce123f1c9ec9989fb50f567b875350befe9f19d793da2bf0d5e7b2659f26b8"),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_reports_are_byte_identical_to_the_recorded_ones(operator_files, argv, expected, tmp_path):
    from planarprop.cli import main

    argv = [operator_files.get(x, x) for x in argv]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
