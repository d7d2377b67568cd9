"""Driver-level tests: exit codes and the JSON each subcommand prints."""

import json
import subprocess
import sys
import time

import pytest

from corecuts.cli import main
from corecuts.corepoints import is_lattice_free
from corecuts.engine import EngineOptions, run_auto
from corecuts.instancefile import generator_strings, read_instance, write_instance
from corecuts.simplex import make_row
from corecuts.solve import make_instance
from corecuts.instancefile import analyze_group


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_tvalues_exact_strings(capsys):
    code, doc = _run(capsys, ["tvalues", "2,1,0"])
    assert code == 0
    assert doc["t_hat_exact"] == ["4/9", "-2/9", "1/9"]
    assert doc["t_hat"] == pytest.approx([4 / 9, -2 / 9, 1 / 9])
    assert doc["t_bar"] == pytest.approx([4 / 9, 1 / 9, -2 / 9])
    assert sum(doc["t"]) == pytest.approx(0.0, abs=1e-12)


def test_tvalues_malformed_vector(capsys):
    code = main(["tvalues", "2,x,0"])
    assert code == 64
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tvalues", "check-core", "gen"])
def test_oversized_entries_exit_64(capsys, tmp_path, command):
    """An entry of 10**400 fits no float and no index: each command that
    reads a point exits 64 with a message, not a traceback, and gen
    writes no file."""
    point = f"1,{10**400},0"
    out = tmp_path / "inst.json"
    argv = {
        "tvalues": ["tvalues", point],
        "check-core": ["check-core", "(1,2,3)", point],
        "gen": ["gen", "(1,2,3)", point, "-o", str(out)],
    }[command]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: a number is too large") and "Traceback" not in err
    assert not out.exists()


def test_check_core_witness(capsys):
    code, doc = _run(capsys, ["check-core", "(1,2,3)", "2,1,0"])
    assert code == 0
    assert doc["verdict"] == "NotCore"
    assert doc["witness"] == [1, 1, 1]


def test_check_core_flagship(capsys):
    code, doc = _run(capsys, ["check-core", "(1,2,3,4,5)", "2,2,2,2,1"])
    assert code == 0
    assert doc["verdict"] == "Core"
    assert doc["witness"] is None


def test_check_core_seven_cycle(capsys):
    code, doc = _run(capsys, ["check-core", "(1,2,3,4,5,6,7)", "1,1,0,1,0,0,0"])
    assert code == 0
    assert doc["verdict"] == "Core"
    assert doc["witness"] is None


def test_check_core_two_cycle_group_matches_api(capsys):
    # (1,2,3)(4,5) moves the point through 6 orbit points in dimension 5
    point = (2, 0, 0, 1, 0)
    cert = is_lattice_free(analyze_group(["(1,2,3)(4,5)"], 5), point)
    code, doc = _run(capsys, ["check-core", "(1,2,3)(4,5)", "2,0,0,1,0"])
    assert code == 0
    assert doc["verdict"] == cert.verdict == "NotCore"
    assert doc["witness"] == list(cert.witness) == [0, 1, 1, 0, 1]


def test_essential_default_budget(capsys):
    code, doc = _run(capsys, ["essential", "6", "3"])
    assert code == 0
    assert len(doc["points"]) == 4
    assert doc["points"][0] == [1, 1, 1, 0, 0, 0]
    assert doc["kinds"] == ["Universal", "Universal", "Universal", "Atom"]


def test_essential_budget_one(capsys):
    code, doc = _run(capsys, ["essential", "5", "2", "1"])
    assert code == 0
    assert doc["points"] == [[1, 1, 0, 0, 0]]
    assert doc["kinds"] == ["Universal"]


def test_gen_writes_certified_file(tmp_path, capsys):
    out = tmp_path / "c3.json"
    code, doc = _run(capsys, ["gen", "(1,2,3)", "1,1,0", "-o", str(out)])
    assert code == 0
    assert doc["out"] == str(out)
    assert doc["n"] == 3
    assert doc["layer"] == "2"
    assert doc["certified_infeasible"] is True
    on_disk = json.loads(out.read_text())
    assert on_disk["format"] == 1
    assert on_disk["n"] == 3
    assert on_disk["group"]["generators"] == ["(1,2,3)"]


def test_gen_relabels_for_a_nonstandard_cycle(tmp_path, capsys):
    out = tmp_path / "c5.json"
    code, doc = _run(capsys, ["gen", "(1,5,2,4,3)", "2,2,2,2,1", "-o", str(out)])
    assert code == 0
    assert doc["certified_infeasible"] is True
    assert doc["layer"] == "9"
    inst = read_instance(out)
    assert generator_strings(inst.group) == ["(1,5,2,4,3)"]
    # moving every column along the cycle maps the row set onto itself
    image = {1: 5, 5: 2, 2: 4, 4: 3, 3: 1}

    def permuted(r):
        coeffs = [None] * 5
        for i, a in enumerate(r.coeffs, start=1):
            coeffs[image[i] - 1] = a
        return (tuple(coeffs), r.sense, r.rhs)

    rows = {(tuple(r.coeffs), r.sense, r.rhs) for r in inst.rows}
    assert {permuted(r) for r in inst.rows} == rows
    assert len(set(inst.bounds)) == 1
    assert run_auto(inst, EngineOptions()).status == "Infeasible"


def test_gen_needs_full_cycle(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code = main(["gen", "(1,2)", "1,1,0", "-o", str(out)])
    assert code == 64
    assert not out.exists()


def test_analyze_generated_file(tmp_path, capsys):
    out = tmp_path / "c3.json"
    main(["gen", "(1,2,3)", "1,1,0", "-o", str(out)])
    capsys.readouterr()
    code, doc = _run(capsys, ["analyze", str(out)])
    assert code == 0
    assert doc["class"] == "DisjointCycles"
    assert doc["selected_cycles"] == ["(1,2,3)"]
    assert doc["fixed_space_basis"] == [[1, 1, 1]]
    assert doc["lp_status"] == "Feasible"
    assert doc["lp_layer"] == "2"


@pytest.mark.parametrize("sense", ["max", "min"])
def test_analyze_zero_objective_reports_the_top_layer(tmp_path, capsys, sense):
    """A zero objective rewards no layer, so the relaxation reports the
    top of the layer range, layer 2, where solve starts its walk; the
    simplex's own optimal vertex (1/2, 1/2, 1/2) lies on layer 3/2."""
    doc = {
        "format": 1, "n": 3, "objective": {"sense": sense, "coeffs": [0, 0, 0]},
        "rows": [
            {"coeffs": [1, 1, 0], "sense": ">=", "rhs": 1},
            {"coeffs": [0, 1, 1], "sense": ">=", "rhs": 1},
            {"coeffs": [1, 0, 1], "sense": ">=", "rhs": 1},
            {"coeffs": [1, 1, 1], "sense": "<=", "rhs": 2},
        ],
        "bounds": [{"lo": 0, "hi": 1}] * 3,
        "group": {"generators": ["(1,2,3)"]},
    }
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    code, out = _run(capsys, ["analyze", str(path)])
    assert code == 0
    assert (out["lp_status"], out["lp_layer"]) == ("Feasible", "2")


def test_solve_generated_file_infeasible(tmp_path, capsys):
    out = tmp_path / "c3.json"
    main(["gen", "(1,2,3)", "1,1,0", "-o", str(out)])
    capsys.readouterr()
    code, doc = _run(capsys, ["solve", str(out), "--algorithm", "1"])
    assert code == 2
    assert doc["status"] == "Infeasible"
    assert doc["counts"]["S1"] == 1
    assert doc["counts"]["S2"] == 1
    assert doc["counts"]["S3"] == 1


def test_solve_dry_run_is_unknown(tmp_path, capsys):
    out = tmp_path / "c3.json"
    main(["gen", "(1,2,3)", "1,1,0", "-o", str(out)])
    capsys.readouterr()
    code, doc = _run(capsys, ["solve", str(out), "--algorithm", "1", "--dry-run"])
    assert code == 3
    assert doc["status"] == "Unknown"
    assert all(r["status"] == "Unknown" for r in doc["results"])


def test_solve_dry_run_exports_each_scheduled_subproblem(tmp_path, capsys):
    """A dry run writes one file per scheduled subproblem; an empty
    export directory is refused, not taken to mean "export nothing"."""
    out = tmp_path / "c5.json"
    main(["gen", "(1,2,3,4,5)", "2,2,2,2,1", "-o", str(out)])
    capsys.readouterr()
    exp = tmp_path / "exp"
    argv = ["solve", str(out), "--algorithm", "1", "--dry-run", "--export-dir"]
    code, doc = _run(capsys, argv + [str(exp)])
    assert code == 3
    assert sorted(p.name for p in exp.iterdir()) == sorted(
        f"{sp['id']}.json" for sp in doc["schedule"]
    )
    assert main(argv + [""]) == 64
    assert "export dir" in capsys.readouterr().err


def test_solve_feasible_exit_zero(tmp_path, capsys):
    group = analyze_group(["(1,2,3)"], 3)
    inst = make_instance(
        3,
        sense="feasibility",
        rows=(make_row([1, 1, 1], "==", 3),),
        bounds=[(0, 2)] * 3,
        integer=[True] * 3,
        group=group,
    )
    path = tmp_path / "feas.json"
    write_instance(inst, path)
    code, doc = _run(capsys, ["solve", str(path)])
    assert code == 0
    assert doc["status"] == "Feasible"
    assert sum(int(v) for v in doc["point"]) == 3


def test_solve_wide_instance_exits_zero(tmp_path, capsys):
    """1,200 variables fixed to 0: wider than Python's recursion limit."""
    n = 1200
    path = tmp_path / "wide.json"
    write_instance(make_instance(n, bounds=[(0, 0)] * n), path)
    code, doc = _run(capsys, ["solve", str(path)])
    assert code == 0
    assert doc["status"] == "Feasible"
    assert doc["point"] == ["0"] * n


def test_solve_negative_box_exits_64(tmp_path, capsys):
    out = tmp_path / "c3.json"
    main(["gen", "(1,2,3)", "1,1,0", "-o", str(out)])
    capsys.readouterr()
    code = main(["solve", str(out), "--box", "-5"])
    assert code == 64
    assert "box" in capsys.readouterr().err


def test_solve_nonpositive_budget_exits_64(tmp_path, capsys):
    out = tmp_path / "c5.json"
    main(["gen", "(1,2,3,4,5)", "2,2,2,2,1", "-o", str(out)])
    capsys.readouterr()
    code = main(["solve", str(out), "--budget", "-5"])
    assert code == 64
    assert "budget" in capsys.readouterr().err


def test_solve_forced_algorithm_on_an_unfixed_instance_exits_64(tmp_path, capsys):
    """The declared 3-cycle does not fix x1 == 2, x2 == x3 == 0."""
    rows = [make_row(a, "==", b) for a, b in (([1, 0, 0], 2), ([0, 1, 0], 0), ([0, 0, 1], 0))]
    inst = make_instance(3, rows=rows, bounds=[(0, 3)] * 3, group=analyze_group(["(1,2,3)"], 3))
    path = tmp_path / "pinned.json"
    write_instance(inst, path)
    assert main(["solve", str(path), "--algorithm", "1"]) == 64
    assert "does not fix" in capsys.readouterr().err
    code, doc = _run(capsys, ["solve", str(path)])
    assert (code, doc["algorithm"], doc["point"]) == (0, 0, ["2", "0", "0"])
    assert doc["warnings"]


def test_solve_plans_only_cycles_that_fix_the_instance_alone(tmp_path, capsys):
    """Neither cycle of the product generator (1,2,3)(4,5,6) fixes the
    rows by itself: the planned solve runs plain and finds the feasible
    point, and a forced Algorithm 3 is refused."""
    rows = [make_row([1, 1, 1, 0, 0, 0], "==", 3), make_row([0, 0, 0, 1, 1, 1], "==", 4)]
    rows += [
        make_row(a, ">=", 2)
        for a in ([-2, 0, 0, 2, 0, 1], [0, -2, 0, 1, 2, 0], [0, 0, -2, 0, 1, 2])
    ]
    group = analyze_group(["(1,2,3)(4,5,6)"], 6)
    path = tmp_path / "linked.json"
    write_instance(make_instance(6, rows=rows, bounds=[(0, 3)] * 6, group=group), path)
    code, doc = _run(capsys, ["solve", str(path)])
    assert (code, doc["status"], doc["algorithm"]) == (0, "Feasible", 0)
    assert doc["point"] == ["0", "1", "2", "0", "2", "2"]
    assert main(["solve", str(path), "--algorithm", "3"]) == 64
    assert "alone does not fix" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-3"])
def test_essential_nonpositive_cycle_length_exits_64(capsys, k):
    code = main(["essential", k, "1"])
    assert code == 64
    assert "cycle length" in capsys.readouterr().err


def test_essential_oversized_sub_layer_exits_64_at_once(capsys):
    """C(30, 15) vectors would take hours to enumerate; the command is
    refused before enumerating any."""
    t0 = time.perf_counter()
    code = main(["essential", "30", "15", "1"])
    assert code == 64
    assert "sub-layer too large" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("k, residue", [("400", "1"), ("30000", "0")])
def test_essential_long_cycle_exits_64_at_once(capsys, k, residue):
    """A scan that reaches every class takes time cubic in k for
    residue 1 and quadratic for residue 0: both are refused before any
    vector is built."""
    t0 = time.perf_counter()
    code = main(["essential", k, residue])
    assert code == 64
    assert "sub-layer too large" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", ["analyze", "solve"])
@pytest.mark.parametrize(
    "content",
    [
        '{"format": 1, "warnings": ["caf\u00e9"]}'.encode("utf-8"),
        b"\xff\xfe{}",
        b"[" * 100_000,
    ],
    ids=["utf-8-text", "utf-16-mark", "deep-nesting"],
)
def test_undecodable_instance_file_exits_64(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == 64
    assert "not valid JSON" in _one_line_error(capsys)


def test_string_where_an_array_belongs_exits_64(tmp_path, capsys):
    """A string is not read digit by digit as a list of coefficients."""
    doc = {
        "format": 1,
        "n": 2,
        "objective": {"sense": "max", "coeffs": "11"},
        "rows": [{"coeffs": "12", "sense": "<=", "rhs": "3"}],
        "bounds": [{"lo": "0", "hi": "3"}, {"lo": "0", "hi": "3"}],
    }
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 64
    assert "must be a JSON array" in _one_line_error(capsys)
    doc["objective"]["coeffs"] = doc["rows"][0]["coeffs"] = ["1", "1"]
    for broken in ("rows", "bounds"):
        path.write_text(json.dumps({**doc, broken: [doc[broken][0], "x"]}))
        assert main(["solve", str(path)]) == 64
        assert "must be a JSON object" in _one_line_error(capsys)


def test_solve_infinite_eps_exits_64(tmp_path, capsys):
    out = tmp_path / "c3.json"
    main(["gen", "(1,2,3)", "1,1,0", "-o", str(out)])
    capsys.readouterr()
    code = main(["solve", str(out), "--eps", "inf"])
    assert code == 64
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [False, "false"])
def test_solve_continuous_variable_exits_64(tmp_path, capsys, flag):
    inst = make_instance(
        3,
        rows=(make_row([1, 1, 1], "==", 3),),
        bounds=[(0, 2)] * 3,
        group=analyze_group(["(1,2,3)"], 3),
    )
    path = tmp_path / "cont.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    doc["bounds"][1]["integer"] = flag
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path)])
    assert code == 64
    assert "integrality" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "analyze"])
def test_malformed_group_exits_64(tmp_path, capsys, command):
    inst = make_instance(
        3,
        rows=(make_row([1, 1, 1], "==", 3),),
        bounds=[(0, 2)] * 3,
        group=analyze_group(["(1,2,3)"], 3),
    )
    path = tmp_path / "group.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    doc["group"] = ["(1,2,3)"]
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    assert code == 64
    assert "generators" in capsys.readouterr().err


def test_usage_error_exits_64():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64


def test_missing_file_exits_64(capsys):
    code = main(["analyze", "no-such-file.json"])
    assert code == 64
    assert "error:" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "corecuts.cli", "tvalues", "2,1,0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t_hat_exact"] == ["4/9", "-2/9", "1/9"]
