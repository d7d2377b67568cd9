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
    """Algorithm 2 on the cycle (1,2,3) of four variables: its S1 cut
    subproblems decide the cuts exactly (``spectral.cut_rotation``), and
    the tracer finds those calls inside the subproblem spans.  No solver
    code evaluates a float program, so no ``evalcore`` span shows, and
    the method the tracer wraps there is restored."""
    spans = _load_spans()
    layers = {
        layer: importlib.import_module(f"corecuts.{layer}") for layer in spans.LAYER_MODULES
    }
    engine, solve, evalcore = layers["engine"], layers["solve"], layers["evalcore"]
    run_auto, solve_subproblem, run = engine.run_auto, engine.solve_subproblem, evalcore.Program.run
    inst = make_instance(
        4,
        sense="max",
        objective=[1, 1, 1, 2],
        rows=(
            make_row([-1, -1, -1, 1], "==", 1),
            make_row([0, 0, 1, 1], ">=", 2),
            make_row([0, 1, 0, 1], ">=", 2),
            make_row([1, 0, 0, 1], ">=", 2),
        ),
        bounds=[(0, 2)] * 4,
        group=analyze_group(["(1,2,3)"], 4),
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert engine.run_auto is not run_auto
        report = engine.run_auto(inst, EngineOptions())
    finally:
        tracer.uninstall()
    assert (report.status, report.algorithm, report.f_star) == ("Feasible", 2, 5)
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


def test_tracer_records_one_plan_and_one_lp_span_per_algorithm1_run():
    """Algorithm 1 plans from the run's reading of the instance; a traced
    run_auto still records one span of the planning layers the benchmark
    groups (``engine.plan``, ``solve.lp_relax``) per run, so neither
    layer reads zero."""
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
    assert calls.get("engine.plan") == 2 and calls.get("solve.lp_relax") == 2, calls
    assert tracer.descendants("solve.lp_relax", "engine.plan") == 2


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
