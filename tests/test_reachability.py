"""Every public function and class in src/gridhealth has a user.

A public name is a module-level `def` or `class` not starting with `_`, in
any module but errors.py (its classes are the error contract). Each must
meet one condition:

- it runs when the six commands run in-process (`reached`);
- tests/test_acceptance.py imports it;
- it is a target of perfbench/tracing.py;
- the README's Python example uses it;
- it is on `KEPT`, with its reason.

A `KEPT` name must exist and meet no other condition, so the list cannot
go stale. A name with no user fails the test: delete it, or say why it
stays.
"""

import ast
import csv
import functools
import importlib
import importlib.util
import multiprocessing
import re
import sys
from pathlib import Path

import pytest

import gridhealth
from gridhealth import forecaster
from gridhealth.cli import main
from gridhealth.forecaster import TrainConfig
from gridhealth.health import load_signals_csv
from gridhealth.ingest import load_fuel_mix
from gridhealth.synth import CONFIG_FILES, default_config_path

ROOT = Path(__file__).parents[1]
SRC = Path(gridhealth.__file__).parent

KEPT = (
    ("ingest.FuelMixRecord", "the acceptance API takes it: one hour's mix for "
                             "impact_per_mwh and receptor_costs"),
    ("health.HealthSignal", "the acceptance API returns it: impact_per_mwh's (internal, "
                            "external) pair"),
    ("dispersion.ReceptorConcentrations", "the acceptance API returns and takes it: "
                                          "apply_source_receptor's result, "
                                          "fit_dispersion_layer's pairs"),
    ("autodiff.Adam", "fit_dispersion_layer steps with it, and acceptance criterion 7 runs "
                      "that fit"),
    ("health.monetize", "oracle: tests compare the vectorized dollars against it"),
    ("scheduler.baseline_schedule", "oracle: tests compare the fleet engine's baselines "
                                    "against it"),
    ("scheduler.Schedule", "oracle: what optimal_schedule, brute_force_schedule and "
                           "baseline_schedule return"),
    ("scheduler.StrategyResult", "oracle: schedule_for's result, which tests compare "
                                 "evaluate_fleet against"),
)


def _public_nodes():
    """(module, node) for every public module-level def and class outside errors.py."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node


PUBLIC = {f"{module}.{node.name}" for module, node in _public_nodes()}


def _line_owners() -> dict[tuple[str, int], str]:
    """(file, line) -> the public name whose definition spans that line, decorators included.

    A code object's first line is its `def` or first decorator line, so this
    maps every function, method, lambda or comprehension defined inside a
    public name to that name (`co_qualname` is not on Python 3.10).
    """
    owners = {}
    for module, node in _public_nodes():
        filename = importlib.import_module(f"gridhealth.{module}").__file__
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        for line in range(first, node.end_lineno + 1):
            owners[filename, line] = f"{module}.{node.name}"
    return owners


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A 480 h bundle, a gapped raw copy with its category map, a plume config and a fleet."""
    d = tmp_path_factory.mktemp("reach")
    assert main(["synth", "--out", str(d / "bundle"), "--hours", "480", "--seed", "0"]) == 0
    with open(d / "bundle" / "fuel_mix.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    for r in (5, 40, 41, 200):
        rows[r][2] = ""
    with open(d / "raw.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    (d / "map.csv").write_text("raw_label,canonical\n"
                               + "".join(f"{f},{f}\n" for f in rows[0][1:]))
    (d / "conf").mkdir()
    for name in CONFIG_FILES:
        (d / "conf" / name).write_bytes((default_config_path(".") / name).read_bytes())
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (d / "fleet.json").write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    return d


def _commands(d: Path):
    """Every command, on default and non-default inputs, as argv lists."""
    b, train = d / "bundle", ("--dataset", d / "bundle" / "fuel_mix.csv",
                              "--labels", d / "bundle" / "labels.csv", "--epochs", 1)
    yield "synth", "--out", d / "synth", "--hours", 48
    yield "synth", "--out", d / "plume", "--hours", 48, "--config-dir", d / "conf"
    yield "ingest", "--mix", d / "raw.csv", "--category-map", d / "map.csv", "--out", d / "ing"
    for arch in ("attention_encoder_decoder", "linear_baseline"):
        yield ("train", *train, "--arch", arch, "--out", d / arch)
        yield ("predict", "--dataset", b / "fuel_mix.csv", "--checkpoint",
               d / arch / "checkpoint.json", "--out", d / f"pred-{arch}")
    yield ("sweep", *train, "--betas", "0.5,0.9", "--out", d / "sweep")
    yield ("schedule", "--signal", b / "labels.csv", "--sample-config", d / "fleet.json",
           "--out", d / "fleet", "--seed", 3)
    yield ("schedule", "--signal", b / "labels.csv", "--sessions", d / "fleet" / "sessions.csv",
           "--strategy", "optimal", "--out", d / "again")


def _sweep_member(d: Path) -> None:
    """One sweep member in this process: forked workers take their traces with them."""
    data = forecaster.TrainingData.from_series(load_fuel_mix(d / "bundle" / "fuel_mix.csv"),
                                               load_signals_csv(d / "bundle" / "labels.csv"))
    mine, theirs = multiprocessing.Pipe()
    forecaster._sweep_worker(data, TrainConfig(beta=0.5, epochs=1, seed=0), theirs)
    point = mine.recv()
    assert isinstance(point, forecaster.TradeoffPoint), point


@pytest.fixture(scope="module")
def reached(workdir):
    """The public names whose code runs under every command and one sweep member."""
    objects = {name: getattr(importlib.import_module(f"gridhealth.{module}"), attr)
               for name in PUBLIC for module, attr in [name.split(".")]}
    marked: set[str] = set()
    codes = set()
    inits = {}

    def marking(name, init):
        # a dataclass's generated __init__ is <string> code, which no line maps to
        @functools.wraps(init)
        def wrapper(self, *args, **kwargs):
            marked.add(name)
            init(self, *args, **kwargs)
        return wrapper

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for name, obj in objects.items():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()       # a cached function runs again
        if isinstance(obj, type) and obj.__init__ is not object.__init__:
            inits[obj] = obj.__dict__.get("__init__")
            obj.__init__ = marking(name, obj.__init__)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in _commands(workdir):
            assert main([str(a) for a in argv]) == 0, argv
        _sweep_member(workdir)
    finally:
        sys.setprofile(previous)
        for cls, init in inits.items():
            if init is None:
                del cls.__init__
            else:
                cls.__init__ = init
    owners = _line_owners()
    return marked | {owners[key] for code in codes
                     if (key := (code.co_filename, code.co_firstlineno)) in owners}


def _acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {f"{node.module.split('.')[-1]}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gridhealth.")
            for alias in node.names}


def _trace_targets() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {*tracing.TOTAL_S, *tracing.CALLS, *tracing.MEAN_MS.values(), *tracing.HOOKS}
    return {".".join(t.split(".")[:2]) for t in targets}


def _readme_names() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tree = ast.parse(re.search(r"```python\n(.*?)```", readme, re.S).group(1))
    used = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return {name for name in PUBLIC if name.split(".")[1] in used}


def _users(reached) -> dict[str, set[str]]:
    """Each condition but KEPT, with the public names that meet it."""
    return {
        "run by a command": reached,
        "imported by the acceptance suite": _acceptance_imports() & PUBLIC,
        "a perfbench trace target": _trace_targets() & PUBLIC,
        "in the README example": _readme_names(),
    }


def test_every_public_name_has_a_user(reached):
    used = set().union(*_users(reached).values(), (name for name, _ in KEPT))
    assert sorted(PUBLIC - used) == []


def test_kept_names_exist_and_have_no_other_user(reached):
    for name, reason in KEPT:
        assert name in PUBLIC, f"{name} is on KEPT but not a public name"
        for user, names in _users(reached).items():
            assert name not in names, f"{name} is on KEPT ({reason}) but is {user}"

