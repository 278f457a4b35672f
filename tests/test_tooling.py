"""Smoke tests of the benchmark tooling: the tracer against the current
ieskit (it patches public functions and a few methods by name, so a renamed
or moved one would break every traced benchmark run), and the script that
folds result files into a BENCH_<pr>.json record.  And checks on the
source: only the commit routine renames files, and a library's refusal of a
config value becomes a config error in one place."""

import ast
import importlib
import importlib.util
import inspect
import json
import math
import re
import statistics
from pathlib import Path

import numpy as np
import pytest

from ieskit import cli, dynsys, estimator, finsler, scenarios
from ieskit.dynsys import ADAPTIVE_EMBEDDED, IntegratorConfig
from ieskit.dynsys import _REPEAT_STRIDE
from ieskit.fhn import FcTable, fhn_field, figure_params

ROOT = Path(__file__).resolve().parents[1]

CERTIFY = """
[scenario]
system = fhn
action = certify

[params]
r = 2.1
b = 1
epsilon = 0.9

[certify]
radius = 3
"""


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_certify_run(tmp_path):
    tracing = load_tracing()
    cfg = tmp_path / "certify.cfg"
    cfg.write_text(CERTIFY)
    originals = (finsler.check_decay, FcTable.__dict__["fc"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert finsler.check_decay is not originals[0]
        rc = cli.main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (finsler.check_decay, FcTable.__dict__["fc"]) == originals
    assert tracer.counts["fc_calls"] > 0
    assert tracer.calls["finsler.check_decay"] == 3
    # one decay sample set per dimension (1 and 2); the sup-constants are
    # closed forms, so no ball grid and no sampled search
    assert tracer.calls["finsler.DisplacementSamples.product_ball"] == 2
    assert tracer.calls["fhn.sup_constants"] == 1
    assert tracer.calls["smallgain.extract_constants"] == 0
    assert tracer.calls["sampling.ball_grid"] == 0
    assert tracer.counts["decay_samples"] > 0
    metrics = tracer.layer_metrics()
    assert metrics["fhn.fc_calls"] == tracer.counts["fc_calls"]
    assert metrics["finsler.us_per_decay_sample"] > 0


class ReadLog(dict):
    """An empty dict that records every key read from it and reads it as 0."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return 0.0


def is_traceable(name: str, modules) -> bool:
    """Whether ``module.function`` names a public function defined in that
    ieskit module, or ``module.Class.method`` a public method or classmethod
    of a public class there: what the tracer wraps."""
    module_name, *path = name.split(".")
    if module_name not in modules:
        return False
    module = importlib.import_module(f"ieskit.{module_name}")
    if any(part.startswith("_") and not part.startswith("__") for part in path):
        return False
    if len(path) == 1:
        fn = vars(module).get(path[0])
        return inspect.isfunction(fn) and fn.__module__ == module.__name__
    cls = vars(module).get(path[0])
    method = vars(cls).get(path[1]) if inspect.isclass(cls) else None
    return inspect.isfunction(method) or isinstance(method, classmethod)


def test_every_name_the_tracer_reads_is_a_public_ieskit_callable():
    # self times and call counts are read from defaultdicts by name, so a
    # renamed or privatised ieskit function would read 0 without notice
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.self_time, tracer.calls = ReadLog(), ReadLog()
    tracer.layer_metrics()
    names = tracer.self_time.read | tracer.calls.read | set(tracing.FC_NAMES)
    names |= {f"{m}.{cls}.{meth}" for m, classes in tracing.METHODS.items()
              for cls, methods in classes.items() for meth in methods}
    names |= {f"{m}.{fn}" for m, fn in tracing.FIELD_BUILDERS}
    assert "smallgain.extract_constants" in names and "fhn.FcTable.fc" in names
    assert sorted(n for n in names if not is_traceable(n, tracing.MODULES)) == []


FIGURES = """
[scenario]
system = fhn
action = figures
horizon = 1
step = 0.01
"""

SCAN = """
[scenario]
system = fhn
action = estimate
horizon = 5

[params]
c = 1
b = 1
epsilon = 0.9
rho1 = 1
rho2 = 1
"""


def traced(run):
    """The tracer's counts over ``run()``, with the tracer installed."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.counts


def test_tracer_counts_fhn_rhs_calls(tmp_path):
    # the tracer counts rhs calls only on fields that dynsys.assemble (or
    # linear_field) returns, and derives Dormand-Prince rejected steps from
    # that count: an FHN rhs built anywhere else reads no calls at all
    cfg = tmp_path / "figures.cfg"
    cfg.write_text(FIGURES)
    counts = traced(lambda: cli.main(["figures", "--config", str(cfg),
                                      "--out", str(tmp_path / "out")]))
    assert counts["rhs_calls"] == 1 + 4 * 100
    assert counts["rk4_steps"] == 100

    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SCAN)
    config = IntegratorConfig(max_time=5.0, method=ADAPTIVE_EMBEDDED)
    counts = traced(lambda: estimator.wies_scan(
        scenarios.build_field(scenarios.parse_config(cfg)), (0.5, 2.0), 2, 5.0, config))
    assert counts["dp_accepted"] > 0 and counts["dp_rejected"] >= 0
    assert counts["rhs_calls"] == 1 + 6 * (counts["dp_accepted"] + counts["dp_rejected"])


# the adaptive-scan workload's scans: (config, radii, horizon), 8 pairs each
ADAPTIVE_SCANS = (("scan_polynomial.cfg", (0.5, 1.0, 2.0, 4.0, 8.0), 20.0),
                  ("scan_fhn.cfg", (0.5, 1.0, 2.0, 4.0), 40.0))


def test_tracer_counts_an_adaptive_scan_round():
    # the solver work of one adaptive-scan round: two Dormand-Prince solves
    # of 1 + 6 rhs calls per attempted step
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for cfg, radii, horizon in ADAPTIVE_SCANS:
            field = scenarios.build_field(
                scenarios.parse_config(ROOT / "perfbench" / "configs" / cfg))
            config = IntegratorConfig(max_time=horizon, method=ADAPTIVE_EMBEDDED,
                                      atol=1e-9, rtol=1e-6)
            estimator.wies_scan(field, radii, 8, horizon, config, seed=0)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["dynsys.rhs_calls"] == 1178
    assert metrics["dynsys.steps_accepted"] == 184
    assert metrics["dynsys.steps_rejected"] == 12


def test_tracer_books_one_integrate_for_a_batched_variational_solve():
    # 40 FHN states with their displacements: one dynsys.integrate call,
    # one RK4 loop of 1 + 4 rhs calls per step over the whole batch
    rng = np.random.default_rng(0)
    z0, d0 = rng.uniform(-2.0, 2.0, (40, 2)), rng.normal(size=(40, 2))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        field = dynsys.assemble(fhn_field(figure_params(3)))
        tr = dynsys.integrate_with_displacement(field, 0.0, z0, d0,
                                                IntegratorConfig(max_time=20.0, step=0.01))
    finally:
        tracer.uninstall()
    assert tracer.calls["dynsys.integrate"] == 1
    assert tracer.counts["rk4_steps"] == 2000
    assert tracer.counts["rhs_calls"] == 1 + 4 * 2000
    assert tr.displacements.shape == (2001, 40, 2)


def test_tracer_books_the_whole_path_of_an_ensemble_solve_that_stops_early():
    # the ensemble workload's solve: 24 pairs in [-3, 3]^2 on FHN figure 3,
    # where every pair contracts onto one equilibrium and the batch repeats
    # bit for bit well before t = 40, so RK4 stops at the first repeat test
    # after that; the trajectory keeps all its steps
    z1s, z2s = zip(*estimator.sample_pairs_box([[-3.0, 3.0]] * 2, 24, seed=12345))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        field = dynsys.assemble(fhn_field(figure_params(3)))
        tr = dynsys.integrate(field, 0.0, np.concatenate([z1s, z2s]),
                              IntegratorConfig(max_time=40.0, step=0.02))
    finally:
        tracer.uninstall()
    states = [s.tobytes() for s in tr.states]
    k = len(states) - 1  # the first sample from which every sample repeats
    while states[k - 1] == states[-1]:
        k -= 1
    stopped = _REPEAT_STRIDE * math.ceil((k + 1) / _REPEAT_STRIDE)
    assert tr.states.shape == (2001, 48, 2) and stopped < 2000
    assert tracer.counts["rk4_steps"] == 2000
    assert tracer.counts["rhs_calls"] == 1 + 4 * stopped <= 1 + 4 * (k + _REPEAT_STRIDE)


def load_bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(directory, workload, seed, trace, metrics, attempted=3, failed=0, stamp=None):
    """A result file shaped like the ones perfbench/run.py writes; ``stamp``
    tells apart several runs at one seed."""
    directory.mkdir(exist_ok=True)
    detail = {
        "args": {"workload": workload, "seed": seed, "seconds": 12.0, "trace": trace},
        "machine": {"python": "3.x"},
        "rounds": [],
        "result": {"correct": True, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
    }
    stamp = 100 + seed if stamp is None else stamp
    (directory / f"{workload}-seed{seed}-trace{trace}-{stamp}.json").write_text(
        json.dumps(detail))


def test_bench_record_folds_before_and_after_runs(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    for seed, (old, new) in enumerate([(3.0, 1.5), (2.0, 1.0), (4.0, 5.0), (1.0, 0.5)], 1):
        write_run(before, "figures", seed, 0, {"round_s": (old, "s"), "peak_rss_mb": (100.0, "MB")})
        write_run(after, "figures", seed, 0, {"round_s": (new, "s"), "peak_rss_mb": (100.0, "MB")},
                  failed=1)
    write_run(before, "figures", 1, 1, {"dynsys.rhs_calls": (120003.0, "count")})
    write_run(after, "figures", 1, 1, {"dynsys.rhs_calls": (40001.0, "count")})
    (after / "figures-seed1-trace1-101-spans.npz").write_bytes(b"")  # not a result file
    bench_record = load_bench_record()
    rec = bench_record.record(0, bench_record.load_runs(before), bench_record.load_runs(after))
    assert rec["pr"] == 0 and rec["seconds"] == 12.0
    fig = rec["workloads"]["figures"]
    round_s = fig["end_to_end"]["round_s"]
    assert round_s["unit"] == "s" and round_s["better"] == "lower"
    assert round_s["before"] == {"n": 4, "median": 2.5, "q1": 1.75, "q3": 3.25}
    assert round_s["after"] == {"n": 4, "median": 1.25, "q1": 0.875, "q3": 2.375}
    assert (round_s["pairs"], round_s["after_better"]) == (4, 3)
    assert fig["end_to_end"]["peak_rss_mb"]["after_better"] == 0
    assert fig["operations"] == {"before": {"runs": 4, "attempted": 12, "failed": 0},
                                 "after": {"runs": 4, "attempted": 12, "failed": 4}}
    assert fig["layers"] == {"dynsys.rhs_calls": {"unit": "count", "before": 120003.0,
                                                  "after": 40001.0}}


def test_bench_record_keeps_every_run_of_a_seed(tmp_path):
    # two parent runs at seed 1: both count, and the seed pairs by its median
    before, after = tmp_path / "before", tmp_path / "after"
    for stamp, (seed, value) in enumerate([(1, 1.0), (1, 3.0), (2, 2.0)]):
        write_run(before, "ensemble", seed, 0, {"round_s": (value, "s")}, stamp=stamp)
    for seed, value in [(1, 1.5), (2, 2.5)]:
        write_run(after, "ensemble", seed, 0, {"round_s": (value, "s")})
    bench_record = load_bench_record()
    rec = bench_record.record(0, bench_record.load_runs(before), bench_record.load_runs(after))
    ens = rec["workloads"]["ensemble"]
    round_s = ens["end_to_end"]["round_s"]
    assert ens["operations"]["before"]["runs"] == 3
    assert round_s["before"] == {"n": 3, "median": 2.0, "q1": 1.5, "q3": 2.5}
    assert (round_s["pairs"], round_s["after_better"]) == (2, 1)


@pytest.mark.parametrize("after, gain", [
    # 10/10 better, the median 0.05 below the parent's 0.5, its spread
    # (inclusive quartiles 0.4925 and 0.5075) 0.015
    ([0.45] * 10, True),
    # 10/10 better, but by 0.005, within the parent's spread
    ([v - 0.005 for v in [0.49, 0.49, 0.49, 0.5, 0.5, 0.5, 0.5, 0.51, 0.51, 0.51]], False),
    # 10/10 worse by more than the spread
    ([0.55] * 10, False),
])
def test_bench_record_states_the_gain_rule(after, gain, tmp_path):
    before_runs = [0.49, 0.49, 0.49, 0.5, 0.5, 0.5, 0.5, 0.51, 0.51, 0.51]
    for seed, (old, new) in enumerate(zip(before_runs, after), 101):
        write_run(tmp_path / "before", "figures", seed, 0, {"round_s": (old, "s")})
        write_run(tmp_path / "after", "figures", seed, 0, {"round_s": (new, "s")})
    bench_record = load_bench_record()
    rec = bench_record.record(0, bench_record.load_runs(tmp_path / "before"),
                              bench_record.load_runs(tmp_path / "after"))
    round_s = rec["workloads"]["figures"]["end_to_end"]["round_s"]
    assert round_s["parent_iqr"] == pytest.approx(0.015)
    assert round_s["median_change"] == pytest.approx(statistics.median(after) - 0.5)
    assert round_s["gain"] is gain


def readme_config_tables() -> dict[str, set[str]]:
    """Keys of each table of the README's config reference, by its title
    line (for example "`[params]` for `system = fhn`")."""
    text = (ROOT / "README.md").read_text()
    reference = text.split("### Config reference", 1)[1].split("\n## ", 1)[0]
    tables, title = {}, None
    for line in reference.splitlines():
        if line.startswith("`["):
            title = line
            tables[title] = set()
        elif title and line.startswith("| `"):
            tables[title] |= set(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return tables


def test_readme_config_reference_lists_every_key():
    blocks = {"f1_i", "f2_i", "g1_i", "g2_i"}
    seen = set()
    for title, keys in readme_config_tables().items():
        section = re.match(r"`\[(\w+)\]`", title).group(1)
        if section == "params":
            system = re.search(r"system = (\w+)", title).group(1)
            expected = set(scenarios.PARAMS[system])
            expected |= blocks if system == "user_polynomial" else set()
            seen.add(system)
        else:
            expected = set(scenarios.SCHEMA[section])
            seen.add(section)
        assert keys == expected, title
    assert seen == set(scenarios.SCHEMA) | set(scenarios.SYSTEMS)


def test_help_lists_one_subcommand_per_action(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    usage = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
    assert usage.split(",") == [a.replace("_", "-") for a in scenarios.ACTIONS]



def test_only_the_commit_routine_renames_files():
    # every output file is replaced by io_utils._commit, so that an action
    # that writes several files replaces all of them or none
    found = []

    def visit(node, where, module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("replace", "rename")):
            found.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where, module)

    for path in sorted((ROOT / "src" / "ieskit").glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), None, path.name)
    assert found == [("io_utils.py", "_commit")]


def test_only_the_conversion_helper_turns_refusals_into_config_errors():
    # scenarios turns a library's ValueError into a ConfigError in _checked
    # alone; Key.read converts its parser's, naming the key
    found = []

    def raises_config_error(handler):
        return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                   and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ConfigError"
                   for node in ast.walk(handler))

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.ExceptHandler) and raises_config_error(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    path = ROOT / "src" / "ieskit" / "scenarios.py"
    visit(ast.parse(path.read_text(), filename=str(path)), None)
    assert found == ["Key.read", "_checked"]


def test_each_run_setting_has_one_source():
    # a runner reads every setting from its Scenario, and a pair solve reads
    # its horizon from its IntegratorConfig and starts at t = 0
    assert scenarios._RUNNERS["figures"] is scenarios.run_figures
    for action, runner in scenarios._RUNNERS.items():
        assert list(inspect.signature(runner).parameters) == ["scenario"], action
    for fn in (estimator.ensemble_ies, estimator._pair_results, dynsys.flow_differences):
        assert not {"horizon", "t0"} & set(inspect.signature(fn).parameters), fn.__name__
    assert not hasattr(dynsys, "flow_difference")
    # wies_scan alone takes a horizon beside its config: the benchmark's
    # adaptive-scan workload calls it as wies_scan(field, radii, n, horizon, config)
    both = [f"{mod.__name__}.{name}"
            for mod in (dynsys, estimator, finsler, scenarios)
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__
            and {"horizon", "config"} <= set(inspect.signature(fn).parameters)]
    assert both == ["ieskit.estimator.wies_scan"]
