"""Scenario configs and action runners behind the command line.

Config files are flat sections of ``key = value`` pairs, parsed strictly:
unknown sections or keys are errors, and every diagnostic carries the line it
refers to.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ieskit import __version__
from ieskit.dynsys import (
    MAX_STORED_VALUES,
    IntegratorConfig,
    TimeVaryingField,
    _row_norms,
    assemble,
    integrate,
    linear_field,
    rk4_shape,
)
from ieskit.estimator import (
    MIN_SEPARATION,
    box_bounds,
    ensemble_ies,
    sample_pairs_box,
    write_summary_csv,
)
from ieskit.fhn import (
    FhnParams,
    build_fc,
    check_weight_domain,
    fc_candidate,
    fhn_field,
    figure_params,
    write_fc_csv,
)
from ieskit.invariance import (
    MAX_INVARIANT_POINTS,
    OuterLyapunov,
    fhn_dissipation_level,
    fhn_outer_lyapunov,
    find_invariant_level,
    write_invariant_report,
)
from ieskit.io_utils import _cells, _commit, _csv_rows, block_csvs
from ieskit.polynomials import parse_polynomial_component, polynomial_interconnection
from ieskit.smallgain import SAFETY, certify

Array = np.ndarray


class ConfigError(ValueError):
    """Configuration rejected; the message is line-anchored when possible."""


class BlowUpError(RuntimeError):
    """Integration hit non-finite values."""


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _directory(text: str) -> Path:
    """An output directory: it, or else its nearest existing ancestor, must
    be a directory, so a path that runs into a file is refused before any
    computation rather than when the first output is written."""
    path = Path(text)
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                raise ValueError(f"must be a directory, but {str(part)!r} is a file")
            break
    return path


def _vectors(text: str) -> list[Array]:
    """'x1 .. xd; x1 .. xd; ...' as a list of vectors of finite numbers."""
    return [np.array([_number(v) for v in chunk.split()])
            for chunk in text.split(";") if chunk.strip()]


def _matrix(text: str) -> Array:
    rows = _vectors(text)
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"must be rows 'a b; c d' of equal length, got {text!r}")
    return np.vstack(rows)


_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_REQUIRED = object()


@dataclass(frozen=True)
class Key:
    """One config key: the parser of its text, its value when absent, and an
    optional (predicate, phrase) rule the parsed value must satisfy."""

    parse: Callable[[str], Any]
    default: Any = None
    rule: Optional[tuple[Callable[[Any], bool], str]] = None

    def read(self, key: str, text: str, where: str):
        """Typed value of ``text``, or a ConfigError anchored at ``where``."""
        try:
            value = self.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key} {exc}") from None
        if self.rule is not None and not self.rule[0](value):
            raise ConfigError(f"{where}: {key} {self.rule[1]}, got {text!r}")
        return value


# Every key each section accepts.  Checks that need a second key or the field
# dimension are made in parse_config once all sections are read.
SCHEMA: dict[str, dict[str, Key]] = {
    "scenario": {
        "name": Key(str, "scenario"),
        "system": Key(str, _REQUIRED),
        "action": Key(str, _REQUIRED),
        "horizon": Key(_number, 100.0, _POSITIVE),
        "step": Key(_number, 0.01, _POSITIVE),
        "seed": Key(_integer, 0, _NONNEGATIVE),
        "tolerance": Key(_number, 1e-9, _NONNEGATIVE),
        "initial": Key(_vectors, ()),
        "out": Key(_directory, Path("out")),
    },
    "estimate": {
        "pairs": Key(_integer, 20, _POSITIVE),
        "box": Key(_matrix),  # default [-3, 3] on every axis
        "transient_skip": Key(_number, 0.2, (lambda v: 0 <= v < 1, "must lie in [0, 1)")),
    },
    # an absent key takes a default derived from [params] in run_certify
    "certify": {
        "radius": Key(_number, None, _POSITIVE),
        "alpha": Key(_number, None, _POSITIVE),
        "alpha1": Key(_number, None, _POSITIVE),
        "alpha2": Key(_number, None, _POSITIVE),
        "rho1": Key(_number, None, _NONNEGATIVE),
        "rho2": Key(_number, None, _NONNEGATIVE),
    },
    "invariant": {
        "level_min": Key(_number, 1.0, _POSITIVE),
        "level_max": Key(_number, 40.0, _POSITIVE),
        "levels": Key(_integer, 40, _POSITIVE),
        "box_halfwidth": Key(_number, 8.0, _POSITIVE),
        "density": Key(_integer, 81, (lambda v: v >= 2, "must be at least 2")),
        "shell_width": Key(_number, 0.05, _POSITIVE),
    },
}

# [params] per system.  user_polynomial also takes the block components
# f1_i, f2_i, g1_i, g2_i, whose parser needs n and m.
PARAMS: dict[str, dict[str, Key]] = {
    "fhn": {
        "b": Key(_number, 0.1, _POSITIVE),
        "epsilon": Key(_number, 1.0, _POSITIVE),
        "rho1": Key(_number, 1.0, _NONNEGATIVE),
        "rho2": Key(_number, 1.0, _NONNEGATIVE),
        "c": Key(_number, 1.0),
        "r": Key(_number),  # replaces c = r^3 - r when given
        "alpha": Key(_number, 1.0),  # FhnParams checks it against r
    },
    "builtin_linear": {
        "matrix": Key(_matrix, None, (lambda a: a.shape[0] == a.shape[1], "must be square")),
        # minus identity unless matrix is given, refused before it is built
        "dim": Key(_integer, 1, (lambda v: 0 < v and v * v <= MAX_STORED_VALUES,
                                 f"must be positive with dim * dim at most {MAX_STORED_VALUES}")),
    },
    "user_polynomial": {
        "n": Key(_integer, _REQUIRED, _POSITIVE),
        "m": Key(_integer, _REQUIRED, _POSITIVE),
        "rho1": Key(_number, 0.0, _NONNEGATIVE),
        "rho2": Key(_number, 0.0, _NONNEGATIVE),
    },
}
_POLY_BLOCK_RE = re.compile(r"^(f1|f2|g1|g2)_(\d+)$")

_DEFAULTS = SCHEMA["scenario"]


@dataclass
class Scenario:
    """A validated run request: which system, which action, and how.

    ``model`` is the system's built model (``FhnParams`` for fhn, the matrix
    for builtin_linear, the ``Interconnection`` for user_polynomial), and
    ``params`` the text of its [params] as ``echo`` prints it."""

    system: str
    action: str
    name: str = _DEFAULTS["name"].default
    model: Any = None
    params: dict[str, str] = dc_field(default_factory=dict)
    horizon: float = _DEFAULTS["horizon"].default
    step: float = _DEFAULTS["step"].default
    seed: int = _DEFAULTS["seed"].default
    tolerance: float = _DEFAULTS["tolerance"].default
    initial_conditions: Sequence[Array] = _DEFAULTS["initial"].default
    output_path: Path = _DEFAULTS["out"].default
    options: dict = dc_field(default_factory=dict)

    def echo(self) -> str:
        parts = [f"name={self.name}", f"system={self.system}",
                 f"action={self.action}", f"horizon={self.horizon:g}",
                 f"step={self.step:g}", f"seed={self.seed}",
                 f"tolerance={self.tolerance:g}"]
        parts += [f"{k}={self.params[k]}" for k in sorted(self.params)]
        return " ".join(parts)


def _parse_sections(path: Path) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in SCHEMA and current != "params":
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
            if current in sections:
                raise ConfigError(f"{path}:{lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[current][key] = (value.strip(), lineno)
    return sections


def _at(path: Path, entries, *keys: str) -> str:
    """'path:line' of the first of ``keys`` the section gives, else 'path'."""
    for key in keys:
        if key in entries:
            return f"{path}:{entries[key][1]}"
    return str(path)


def _read(path: Path, section: str, entries, schema: dict[str, Key]) -> dict:
    """Typed values of one section, absent keys at their defaults."""
    values = {}
    for key, (text, lineno) in entries.items():
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
        values[key] = schema[key].read(key, text, f"{path}:{lineno}")
    for key, spec in schema.items():
        if key not in values:
            if spec.default is _REQUIRED:
                raise ConfigError(f"{path}: missing mandatory key {key!r} in [{section}]")
            values[key] = spec.default
    return values


def parse_config(path) -> Scenario:
    """Parse and check a scenario config: every key must be known, every
    value must parse and satisfy its rule, and the keys must agree with each
    other and with the field dimension."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    sections = _parse_sections(path)
    if "scenario" not in sections:
        raise ConfigError(f"{path}: missing mandatory section [scenario]")
    raw = sections["scenario"]
    sc = _read(path, "scenario", raw, SCHEMA["scenario"])
    for key, choices in (("system", SYSTEMS), ("action", ACTIONS)):
        if sc[key] not in choices:
            raise ConfigError(
                f"{_at(path, raw, key)}: unknown {key} {sc[key]!r}; expected one of {choices}"
            )
    if sc["action"] in ("certify", "fc_table", "figures") and sc["system"] != "fhn":
        raise ConfigError(f"{_at(path, raw, 'system')}: {sc['action']} requires "
                          f"system = fhn, got {sc['system']!r}")
    model, params, dim = _READERS[sc["system"]](path, sections.get("params", {}))
    if sc["action"] in ("certify", "fc_table"):
        try:
            check_weight_domain(model)
        except ValueError as exc:
            where = _at(path, sections.get("params", {}), "r", "c", "alpha")
            raise ConfigError(f"{where}: {exc}") from None
    options = {section: _read(path, section, sections.get(section, {}), SCHEMA[section])
               for section in ("estimate", "certify", "invariant")}

    try:
        IntegratorConfig(max_time=sc["horizon"], step=sc["step"])
    except ValueError as exc:
        raise ConfigError(f"{_at(path, raw, 'step', 'horizon')}: {exc}") from None
    for i, z0 in enumerate(sc["initial"]):
        if len(z0) != dim:
            raise ConfigError(f"{_at(path, raw, 'initial')}: initial condition {i} has "
                              f"dimension {len(z0)}, field needs {dim}")
    if sc["action"] == "simulate" and not sc["initial"]:
        raise ConfigError(f"{path}: simulate requires at least one initial condition")
    given, n_pairs = len(sc["initial"]), options["estimate"]["pairs"]
    if sc["action"] == "figures" and given not in (0, 2):
        raise ConfigError(f"{_at(path, raw, 'initial')}: figures takes no initial states "
                          f"or the two of one pair; got {given} states")
    if sc["action"] == "estimate" and (given % 2 or given > 2 * n_pairs):
        raise ConfigError(f"{_at(path, raw, 'initial')}: estimate takes initial states "
                          f"two by two as pairs, at most pairs = {n_pairs} of them; got "
                          f"{given} states")
    if sc["action"] == "estimate":
        for k, pair in enumerate(zip(sc["initial"][0::2], sc["initial"][1::2])):
            if (gap := math.dist(*pair)) < MIN_SEPARATION:  # math.dist does not overflow
                raise ConfigError(f"{_at(path, raw, 'initial')}: initial pair {k} has its "
                                  f"states {gap:g} apart, closer than {MIN_SEPARATION:g}")
    rows = {"estimate": 2 * n_pairs, "simulate": given}.get(sc["action"])
    if rows is not None:
        try:  # integer arithmetic, before any pair is drawn
            rk4_shape(sc["horizon"], sc["step"], (rows, dim))
        except ValueError as exc:
            key = "pairs" if sc["action"] == "estimate" else "initial"
            where = _at(path, {**raw, **sections.get("estimate", {})}, key, "step", "horizon")
            raise ConfigError(f"{where}: {exc}") from None
    box = options["estimate"]["box"]
    if box is None:
        options["estimate"]["box"] = np.array([[-3.0, 3.0]] * dim)
    else:
        where = _at(path, sections["estimate"], "box")
        if box.shape != (dim, 2) or np.any(box[:, 0] >= box[:, 1]):
            raise ConfigError(f"{where}: box needs {dim} rows 'lo hi' with lo < hi")
        try:
            box_bounds(box)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    inv, inv_entries = options["invariant"], sections.get("invariant", {})
    if inv["level_min"] >= inv["level_max"]:
        where = _at(path, inv_entries, "level_max", "level_min")
        raise ConfigError(f"{where}: level_min must be below level_max")
    if sc["action"] == "invariant_set":  # integer arithmetic, before any grid is built
        for key, count, what in (("density", inv["density"] ** dim, f"grid points in {dim}-D"),
                                 ("levels", inv["levels"], "levels")):
            if count > MAX_INVARIANT_POINTS:
                # the key's line, else (a default density) the dimension's line
                where = _at(path, {**sections.get("params", {}), **inv_entries}, key,
                            "dim", "matrix", "n", "m")
                raise ConfigError(f"{where}: {key} = {inv[key]} asks for {count} {what}, "
                                  f"above the limit of {MAX_INVARIANT_POINTS}")
    return Scenario(initial_conditions=sc.pop("initial"), output_path=sc.pop("out"),
                    model=model, params=params, options=options, **sc)


def _read_fhn(path: Path, entries):
    p = _read(path, "params", entries, PARAMS["fhn"])
    if "c" in entries and "r" in entries:
        raise ConfigError(f"{path}:{entries['c'][1]}: give either c or r, not both")
    shared = dict(b=p["b"], rho1=p["rho1"], rho2=p["rho2"], epsilon=p["epsilon"],
                  alpha=p["alpha"])
    try:
        if p["r"] is not None:
            fp = FhnParams(r=p["r"], **shared)
        else:
            fp = FhnParams.from_c(c=p["c"], **shared)
    except ValueError as exc:
        raise ConfigError(f"{_at(path, entries, 'alpha', 'r', 'c')}: {exc}") from None
    echo = {k: f"{p[k]:g}" for k in ("b", "epsilon", "rho1", "rho2", "alpha")}
    return fp, {"c": f"{fp.c:g}", "r": f"{fp.r:g}", **echo}, 2


def _read_linear(path: Path, entries):
    p = _read(path, "params", entries, PARAMS["builtin_linear"])
    a = p["matrix"] if p["matrix"] is not None else -np.eye(p["dim"])
    # "+ 0.0" echoes the -0 entries of minus identity as 0
    text = "; ".join(" ".join(f"{v + 0.0:g}" for v in row) for row in a)
    return a, {"matrix": text, "dim": str(len(a))}, len(a)


def _read_polynomial(path: Path, entries):
    blocks = {k: v for k, v in entries.items() if _POLY_BLOCK_RE.match(k)}
    p = _read(path, "params", {k: v for k, v in entries.items() if k not in blocks},
              PARAMS["user_polynomial"])
    n, m = p["n"], p["m"]

    echo = {}  # block texts by key

    def block(name: str, count: int, in_dim: int):
        components = []
        for i in range(count):
            key = f"{name}_{i}"
            if key not in blocks:
                raise ConfigError(f"{path}: missing component {key} in [params]")
            text, lineno = blocks[key]
            try:
                components.append(parse_polynomial_component(text, in_dim))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
            echo[key] = text
        return tuple(components)

    ic = polynomial_interconnection(block("f1", n, n), block("f2", m, m),
                                    block("g1", n, m), block("g2", m, n),
                                    rho1=p["rho1"], rho2=p["rho2"])
    return ic, {"n": str(n), "m": str(m), "rho1": f"{p['rho1']:g}",
                "rho2": f"{p['rho2']:g}", **echo}, n + m


# Each system's [params] reader: (path, entries) -> (model, echo texts by key,
# dimension of the assembled field).
_READERS = {"fhn": _read_fhn, "builtin_linear": _read_linear,
            "user_polynomial": _read_polynomial}
SYSTEMS = tuple(_READERS)


def build_field(scenario: Scenario) -> TimeVaryingField:
    if scenario.system == "fhn":
        return assemble(fhn_field(scenario.model))
    if scenario.system == "builtin_linear":
        return linear_field(scenario.model)
    return assemble(scenario.model)


def _integrate_all(field: TimeVaryingField, states, config: IntegratorConfig) -> None:
    """One batched integration of ``states``; any row blowing up is an error."""
    if np.any(integrate(field, 0.0, np.array(states), config).blew_up):
        raise BlowUpError("integration hit non-finite values; partial output discarded")


def run_simulate(scenario: Scenario) -> list[Path]:
    field = build_field(scenario)
    cols = ",".join(f"z{k+1}" for k in range(field.dim))
    n = len(scenario.initial_conditions)
    paths = [scenario.output_path / f"trajectory_{i:02d}.csv" for i in range(n)]
    heads = [f"# ieskit {__version__} {scenario.echo()} ic={i}\nt,{cols}\n" for i in range(n)]

    def rows(times, states):
        t = list(_cells(times))
        return [_csv_rows([t, *map(_cells, states[:, i].T)]) for i in range(n)]

    with _commit(paths) as temps, block_csvs(temps, heads, rows) as sink:
        config = IntegratorConfig(max_time=scenario.horizon, step=scenario.step,
                                  block_sink=sink)
        _integrate_all(field, scenario.initial_conditions, config)
    return paths


DEFAULT_FIGURE_PAIR = (np.array([2.0, 0.0]), np.array([-2.0, 1.0]))


def run_figures(
    out_dir,
    horizon: float = 100.0,
    step: float = 0.01,
    pair=DEFAULT_FIGURE_PAIR,
    seed: int = 0,
) -> list[Path]:
    """Reproduce the three benchmark scenarios: one CSV per figure with
    columns (t, x1, y1, x2, y2, distance).  The pair is integrated under all
    three presets in one batch laid out as ``flow_differences`` lays out
    three pairs."""
    out_dir = Path(out_dir)
    z1, z2 = (np.asarray(p, dtype=float) for p in pair)
    presets = [figure_params(fig) for fig in (1, 2, 3)]
    n = len(presets)
    field = assemble(fhn_field(presets * 2))
    paths = [out_dir / f"figure{fig}.csv" for fig in (1, 2, 3)]
    heads = [
        f"# ieskit {__version__} figure={fig} c={p.c:g} b={p.b:g} "
        f"epsilon={p.epsilon:g} rho1={p.rho1:g} rho2={p.rho2:g} "
        f"horizon={horizon:g} step={step:g} "
        f"z1={' '.join(f'{v:g}' for v in z1)} "
        f"z2={' '.join(f'{v:g}' for v in z2)} seed={seed}\n"
        "t,x1,y1,x2,y2,distance\n"
        for fig, p in enumerate(presets, start=1)
    ]

    def rows(times, states):
        t = list(_cells(times))
        firsts, seconds = states[:, :n], states[:, n:]
        dist = _row_norms(firsts - seconds)
        return [_csv_rows([t, *map(_cells, (*firsts[:, k].T, *seconds[:, k].T, dist[:, k]))])
                for k in range(n)]

    with _commit(paths) as temps, block_csvs(temps, heads, rows) as sink:
        config = IntegratorConfig(max_time=horizon, step=step, block_sink=sink)
        _integrate_all(field, [z1] * n + [z2] * n, config)
    return paths


def run_estimate(scenario: Scenario) -> list[Path]:
    field = build_field(scenario)
    opts = scenario.options["estimate"]
    # the given states pair up two by two; seeded pairs make up the rest
    ics = scenario.initial_conditions
    pairs = list(zip(ics[0::2], ics[1::2]))
    pairs += sample_pairs_box(opts["box"], opts["pairs"] - len(pairs), scenario.seed)
    n = len(pairs)
    out_d = scenario.output_path / "distances.csv"
    out_s = scenario.output_path / "summary.csv"

    def rows(times, states):
        t = list(_cells(times))
        dist = _row_norms(states[:, :n] - states[:, n:])
        return [_csv_rows([t, _cells(dist[:, k])], prefix=f"{k},") for k in range(n)]

    heads = ["pair_id,t,distance\n"] + [""] * (n - 1)
    with _commit([out_d, out_s]) as (tmp_d, tmp_s):
        with block_csvs([tmp_d] * n, heads, rows) as sink:
            config = IntegratorConfig(max_time=scenario.horizon, step=scenario.step,
                                      block_sink=sink)
            report = ensemble_ies(field, pairs, scenario.horizon, config, opts["transient_skip"])
            if report.blown_up:
                raise BlowUpError(f"trajectory pairs {list(report.blown_up)} blew up "
                                  f"during estimation")
        write_summary_csv(tmp_s, report.results)
    return [out_d, out_s]


def run_invariant_set(scenario: Scenario) -> list[Path]:
    field = build_field(scenario)
    opts = scenario.options["invariant"]
    if isinstance(scenario.model, FhnParams):
        w = fhn_outer_lyapunov(scenario.model)
    else:
        w = OuterLyapunov(np.ones(field.dim))
    half = opts["box_halfwidth"]
    box = np.array([[-half, half]] * field.dim)
    est = find_invariant_level(
        w, field, (opts["level_min"], opts["level_max"]), box,
        n_levels=opts["levels"], grid_density=opts["density"],
        shell_width=opts["shell_width"],
    )
    out = scenario.output_path / "invariant_set.txt"
    write_invariant_report(est, out)
    return [out]


def run_fc_table(scenario: Scenario) -> list[Path]:
    table = build_fc(scenario.model)
    out = scenario.output_path / "fc_table.csv"
    write_fc_csv(table, out)
    return [out]


def _given(value, default):
    return default if value is None else value


def run_certify(scenario: Scenario) -> list[Path]:
    params: FhnParams = scenario.model
    opts = scenario.options["certify"]
    table = build_fc(params)
    cand1, cand2 = fc_candidate(table)
    alpha1 = _given(opts["alpha1"], params.alpha)
    alpha2 = _given(opts["alpha2"], params.b / params.epsilon)
    alpha = _given(opts["alpha"], 0.5 * min(alpha1, alpha2))
    requested = None
    if opts["rho1"] is not None or opts["rho2"] is not None:
        requested = (_given(opts["rho1"], params.rho1), _given(opts["rho2"], params.rho2))
    if opts["radius"] is not None:
        radius = opts["radius"]
    else:
        # the ball around the dissipation chain's invariant sublevel set,
        # level and radius each widened by the safety factor
        level = fhn_dissipation_level(params) * SAFETY
        radius = fhn_outer_lyapunov(params).radius(level) * SAFETY
    ic = fhn_field(params)
    cert = certify(
        ic, cand1, cand2, radius,
        alpha1=alpha1, alpha2=alpha2, alpha=alpha,
        requested_gains=requested, tol=scenario.tolerance,
    )
    out_rec = scenario.output_path / "certificate.rec"
    out_txt = scenario.output_path / "certificate.txt"
    with _commit([out_rec, out_txt]) as (tmp_rec, tmp_txt):
        cert.write_record(tmp_rec)
        cert.write_report(tmp_txt)
    return [out_rec, out_txt]


def _run_figures(scenario: Scenario) -> list[Path]:
    pair = tuple(scenario.initial_conditions) or DEFAULT_FIGURE_PAIR
    return run_figures(scenario.output_path, scenario.horizon, scenario.step, pair,
                       scenario.seed)


# Each action's runner: scenario -> the paths it wrote.
_RUNNERS = {"simulate": run_simulate, "certify": run_certify, "estimate": run_estimate,
            "invariant_set": run_invariant_set, "fc_table": run_fc_table,
            "figures": _run_figures}
ACTIONS = tuple(_RUNNERS)


def run_scenario(scenario: Scenario) -> list[Path]:
    """Run the scenario's action and return the written files."""
    if scenario.action not in _RUNNERS:
        raise ConfigError(f"unknown action {scenario.action!r}; expected one of {ACTIONS}")
    return _RUNNERS[scenario.action](scenario)
