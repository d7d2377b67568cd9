"""The benchmark's span tracer still finds the layers it times.

``perfbench/spans.py`` wraps functions and methods by name; a refactor
that renames or moves them would make ``--trace 1`` report nothing for
that layer without failing.  This test installs the tracer on the loaded
package, traces one small solve and checks the spans it relies on.
"""

import importlib
import importlib.util
from pathlib import Path

from corecuts.engine import EngineOptions
from corecuts.instancefile import analyze_group
from corecuts.simplex import make_row
from corecuts.solve import make_instance

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
RUN = SPANS.with_name("run.py")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load(SPANS, "perfbench_spans")


def test_tracer_records_leaf_and_subproblem_spans():
    """Algorithm 2 on the cycle (1,2,3,4,5) of six variables: its S1 cut
    subproblems decide the cuts exactly (``spectral.cut_rotation``), and
    the tracer finds those calls inside the subproblem spans.  No two
    cyclic neighbours may both be 1, so no translate of residue 2's
    anchor (1,1,0,0,0) is feasible, and the best block, a rotation of
    (1,0,1,0,0), lies in the cut T2.S1 alone.  The earlier results reach
    only 2, below the LP bound 3, so the run's incumbent does not end the
    run before that cut.
    No solver code evaluates a float program, so no ``evalcore`` span
    shows, and the method the tracer wraps there is restored."""
    spans = _load_spans()
    layers = {
        layer: importlib.import_module(f"corecuts.{layer}") for layer in spans.LAYER_MODULES
    }
    engine, solve, evalcore = layers["engine"], layers["solve"], layers["evalcore"]
    run_auto, solve_subproblem, run = engine.run_auto, engine.solve_subproblem, evalcore.Program.run
    neighbours = [[1 if j in (i, (i + 1) % 5) else 0 for j in range(6)] for i in range(5)]
    inst = make_instance(
        6,
        sense="max",
        objective=[1] * 6,
        rows=tuple(make_row(coeffs, "<=", 1) for coeffs in neighbours),
        bounds=[(0, 2)] * 5 + [(0, 1)],
        group=analyze_group(["(1,2,3,4,5)"], 6),
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert engine.run_auto is not run_auto
        report = engine.run_auto(inst, EngineOptions())
    finally:
        tracer.uninstall()
    assert (report.status, report.algorithm, report.f_star) == ("Feasible", 2, 3)
    assert "S1" in {r.tag for r in report.results}
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    assert calls.get("spectral.cut_rotation", 0) > 0
    assert calls.get("solve.solve_subproblem", 0) > 0
    assert not [name for name in calls if name.startswith("evalcore.")]
    assert tracer.descendants("spectral.cut_rotation", "solve.solve_subproblem") == calls[
        "spectral.cut_rotation"
    ]
    # uninstall restores every rebinding
    assert engine.run_auto is run_auto
    assert engine.solve_subproblem is solve_subproblem is solve.solve_subproblem
    assert evalcore.Program.run is run


def test_tracer_records_one_export_span_per_subproblem(tmp_path):
    """A traced dry-run export and a parse of its files record one span
    of each export layer the benchmark groups per subproblem, so the
    shared per-run encoding cannot hide a layer from the trace."""
    spans = _load_spans()
    engine = importlib.import_module("corecuts.engine")
    minlp = importlib.import_module("corecuts.minlp")
    inst = make_instance(
        6,
        rows=(make_row([1] * 6, "==", 7), make_row([1, 1, 1, -1, -1, -1], "==", 0)),
        bounds=[(0, 2)] * 6,
        group=analyze_group(["(1,2,3)", "(4,5,6)"], 6),
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = engine.run_auto(inst, EngineOptions(export_dir=str(tmp_path), dry_run=True))
        for sid, _, _ in report.schedule:
            minlp.parse_problem(tmp_path / f"{sid}.json")
    finally:
        tracer.uninstall()
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    assert len(report.schedule) > 5
    for name in ("minlp.dumps_problem", "minlp.parse_problem", "solve.flatten_subproblem"):
        assert calls.get(name) == len(report.schedule), name


def test_tracer_records_one_plan_span_and_no_lp_span_per_algorithm1_run():
    """Algorithm 1 plans on the instance's fixed line: a traced run_auto
    records one span of ``engine.plan`` per run and none of
    ``solve.lp_relax``, so the benchmark's LP layer group reads zero on
    Algorithm 1 inputs."""
    spans = _load_spans()
    engine = importlib.import_module("corecuts.engine")
    inst = make_instance(
        3,
        rows=(make_row([1, 1, 1], "<=", 4),),
        bounds=[(0, 2)] * 3,
        group=analyze_group(["(1,2,3)"], 3),
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        reports = [engine.run_auto(inst, EngineOptions()) for _ in range(2)]
    finally:
        tracer.uninstall()
    assert [r.algorithm for r in reports] == [1, 1]
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    assert calls.get("engine.plan") == 2 and "solve.lp_relax" not in calls, calls


def test_benchmark_layer_groups_name_traced_layers(monkeypatch):
    """Each function the benchmark groups into a per-layer metric
    (``LAYER_GROUPS`` in ``perfbench/run.py``) is one the tracer wraps,
    or one of its ``METHODS``, and each module prefix names a traced
    module; a rename would otherwise leave that metric reading zero."""
    monkeypatch.syspath_prepend(str(RUN.parent))
    groups = _load(RUN, "perfbench_run").LAYER_GROUPS
    spans = _load_spans()
    layers = {
        layer: importlib.import_module(f"corecuts.{layer}") for layer in spans.LAYER_MODULES
    }
    before = {layer: dict(vars(module)) for layer, module in layers.items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        # a function is wrapped under its own module's name only
        wrapped = {
            f"{layer}.{attr}"
            for layer, names in before.items()
            for attr, fn in names.items()
            if getattr(layers[layer], attr) is not fn
            and getattr(fn, "__module__", None) == layers[layer].__name__
        }
    finally:
        tracer.uninstall()
    wrapped |= {".".join(method) for method in spans.METHODS}
    named = 0
    for metric, names in groups.items():
        if isinstance(names, str):
            assert names.endswith(".") and names[:-1] in spans.LAYER_MODULES, metric
        else:
            assert set(names) <= wrapped, (metric, set(names) - wrapped)
            named += len(names)
    assert named >= 20
