"""The package namespace loads each layer on first use.

The subprocess tests start from a fresh interpreter, so that what they
see loaded is what the statement under test loaded; -X importtime lists
every module a command imports."""

import json
import subprocess
import sys

import pytest

import corecuts

DEFERRED = {"corepoints", "synth", "engine", "gen", "minlp"}

DOC = {
    "format": 1,
    "n": 3,
    "objective": {"sense": "max", "coeffs": [1, 1, 1]},
    "rows": [{"coeffs": [1, 1, 1], "sense": "<=", "rhs": 2}],
    "bounds": [{"lo": 0, "hi": 1}] * 3,
    "group": {"generators": ["(1,2,3)"]},
}


def _layers_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter after ``import corecuts``;
    the corecuts layers loaded after the import alone and after
    ``code``, and the package's ``dir()`` before ``code``."""
    script = (
        "import json, sys\n"
        "import corecuts\n"
        "def layers():\n"
        "    return sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('corecuts.'))\n"
        "out = {'import': layers(), 'dir': dir(corecuts)}\n"
        f"{code}\n"
        "out['after'] = layers()\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(proc.stdout)


def test_reading_an_instance_loads_no_deferred_layer():
    out = _layers_after(f"corecuts.instance_from_dict({DOC!r})")
    # evalcore and what it imports are the only eager modules
    assert out["import"] == ["errors", "evalcore", "exprs", "perms", "simplex"]
    assert {"instancefile", "solve", "spectral"} <= set(out["after"])
    assert not DEFERRED & set(out["after"]), out["after"]


def test_a_layer_loads_when_read_as_an_attribute():
    out = _layers_after("assert corecuts.engine is sys.modules['corecuts.engine']")
    assert "engine" not in out["import"] and "engine" in out["after"]


def test_synthesis_loads_no_solver():
    """Synthesis depends on no search setting: it imports nothing from
    the solver layer."""
    out = _layers_after("import corecuts.synth")
    assert "synth" in out["after"] and "solve" not in out["after"], out["after"]


def test_dir_lists_every_public_name_before_any_layer_loads():
    out = _layers_after("")
    assert set(out["dir"]) >= set(corecuts.__all__)


def test_every_public_name_is_the_object_its_layer_holds():
    for name in corecuts.__all__:
        obj = getattr(corecuts, name)
        layer = sys.modules[f"corecuts.{corecuts._LAYER_OF[name]}"]
        assert obj is getattr(layer, name), name
        if hasattr(obj, "__qualname__"):
            # the table names the module that defines it, not one that imports it
            assert obj.__module__ == layer.__name__, name


def test_public_names_are_the_api_alone():
    assert len(corecuts.__all__) == len(set(corecuts.__all__)) == 116
    assert not any(isinstance(getattr(corecuts, n), type(corecuts)) for n in corecuts.__all__)


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from corecuts import *", ns)
    assert set(ns) - {"__builtins__"} == set(corecuts.__all__)
    assert all(ns[name] is getattr(corecuts, name) for name in corecuts.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        corecuts.no_such_name
    with pytest.raises(ImportError):
        exec("from corecuts import no_such_name", {})


def _imported_by(*argv: str) -> set:
    """The corecuts layers ``python -m corecuts.cli ARGV`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "corecuts.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = (line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines())
    return {n.split(".", 1)[1] for n in names if n.startswith("corecuts.")}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("tvalues", "2,1,0"), DEFERRED),
        (("essential", "5", "2"), DEFERRED - {"corepoints"} | {"solve"}),
        (("check-core", "(1,2,3,4,5)", "2,2,2,2,1"), DEFERRED - {"corepoints"}),
    ],
)
def test_light_subcommands_load_no_engine(argv, absent):
    loaded = _imported_by(*argv)
    assert "errors" in loaded and not absent & loaded, loaded


def test_analyze_and_gen_load_no_engine(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(DOC))
    assert not DEFERRED & _imported_by("analyze", str(path))
    loaded = _imported_by("gen", "(1,2,3,4,5)", "2,2,2,2,1", "-o", str(tmp_path / "p.json"))
    assert "gen" in loaded and not {"engine", "synth", "minlp"} & loaded, loaded
