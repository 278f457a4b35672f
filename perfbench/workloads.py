"""The four workloads: their inputs (made from the seed), one round of their
operations through ieskit, and the checks of each operation's output against
``references``.

A round is a fixed list of operations; a run repeats whole rounds on the
same inputs.  Operations are figures, certificates, invariant-set searches,
ensembles and scan pairs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import references as ref

CONFIGS = Path(__file__).resolve().parent / "configs"


@dataclass
class Outcome:
    """One operation of a round: its key, what the check needs, and the
    error that stopped it, if any."""

    key: tuple
    payload: Any = None
    error: str | None = None


def run_cli(argv) -> tuple[int, str]:
    """``ieskit <argv>`` in this process, with its output captured."""
    from ieskit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue().strip()


def write_config(template: str, path: Path, **fields) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text((CONFIGS / template).read_text().format(**fields))
    return path


def read_record(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def file_digest(*paths: Path) -> bytes:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.digest()


def close(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def probe_configs(self) -> list[Path]:
        """Configs the set-up probe parses and builds fields for."""
        raise NotImplementedError

    def run_round(self) -> list[Outcome]:
        raise NotImplementedError

    def digest(self, outcome: Outcome) -> bytes:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> str | None:
        """None when the output is right, else the reason it is not."""
        raise NotImplementedError

    def known_fault(self, key: tuple) -> bool:
        return False


class Figures(Workload):
    """``ieskit figures`` at its defaults: three CSVs of 10 001 rows."""

    name = "figures"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = write_config("figures.cfg", workdir / "figures.cfg", seed=seed)
        self.out = workdir / "figures"
        self._reference: dict[int, tuple] = {}

    def probe_configs(self):
        return [self.config]

    def run_round(self):
        code, msg = run_cli(["figures", "--config", self.config, "--out", self.out])
        error = None if code == 0 else f"exit {code}: {msg}"
        return [Outcome(("figure", k), self.out / f"figure{k}.csv", error)
                for k in (1, 2, 3)]

    def digest(self, outcome):
        return file_digest(outcome.payload)

    def check(self, outcome):
        fig = outcome.key[1]
        data = np.loadtxt(outcome.payload, delimiter=",", comments="#", skiprows=2)
        t, s1, s2, dist = data[:, 0], data[:, 1:3], data[:, 3:5], data[:, 5]
        if len(t) != 10001 or np.max(np.abs(t - np.linspace(0, 100, 10001))) > 1e-9:
            return "time grid is not 0, 0.01, ..., 100"
        if fig not in self._reference:
            self._reference[fig] = ref.figure_states(fig, t)
        r1, r2 = self._reference[fig]
        err = max(np.max(np.abs(s1 - r1)), np.max(np.abs(s2 - r2)))
        if err > 1e-6:
            return f"states differ from the DOP853 solve by {err:.3e}"
        if np.max(np.abs(dist - np.linalg.norm(s1 - s2, axis=1))) > 1e-12 * np.max(dist):
            return "distance column is not |z1 - z2|"
        rate = -ref.fhn_max_re_eig(*ref.FIGURE_PARAMS[fig])
        lam = ref.decay_rate(t, dist)
        if rate < 0:
            if not ref.non_contracting(dist):
                return "unstable equilibrium but the distance decays"
        elif lam is None or not close(lam, rate, 0.01):
            return f"fitted rate {lam} is not within 1% of {rate:.5f}"
        return None


# (r, b, epsilon, alpha) of the four weight parameter sets
PARAM_SETS = ((2.1, 1.0, 0.9, 1.0), (2.1, 2.0, 0.5, 1.0),
              (1.8, 1.0, 0.9, 0.8), (2.5, 1.0, 0.9, 2.0))
BASE_RADII = (8.0, 16.0, 32.0)
INVARIANT = dict(half=8.0, density=81, levels=np.linspace(1.0, 40.0, 40),
                 shell_width=0.05)


class CertifySweep(Workload):
    """``ieskit certify`` on each parameter set and radius, each followed by
    ``ieskit invariant-set`` at the certified budget gains."""

    name = "certify-sweep"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # each base radius stretched by a seeded factor in [1, 1.2)
        self.radii = [float(b * (1.0 + 0.2 * u)) for b, u in
                      zip(BASE_RADII, self.rng.uniform(size=len(BASE_RADII)))]
        self.cases = []
        for i, (r, b, eps, alpha) in enumerate(PARAM_SETS):
            for j, radius in enumerate(self.radii):
                tag = f"p{i}r{j}"
                cfg = write_config("certify.cfg", workdir / f"{tag}-certify.cfg",
                                   tag=tag, seed=seed, r=r, b=b, epsilon=eps,
                                   alpha=alpha, radius=repr(radius))
                self.cases.append((i, j, tag, cfg))
        self._weights: dict[int, dict] = {}  # per parameter set

    def _expected(self, i, j):
        r, b, eps, alpha = PARAM_SETS[i]
        if i not in self._weights:
            self._weights[i] = ref.weight_constants(r, alpha)
        return ref.expected_constants(r, b, eps, alpha, self.radii[j], self._weights[i])

    def probe_configs(self):
        return [cfg for *_, cfg in self.cases]

    def _dirs(self, tag):
        return self.workdir / tag / "cert", self.workdir / tag / "inv"

    def run_round(self):
        out = []
        for i, j, tag, cfg in self.cases:
            cert_dir, inv_dir = self._dirs(tag)
            code, msg = run_cli(["certify", "--config", cfg, "--out", cert_dir])
            if code != 0:
                err = f"exit {code}: {msg}"
                out += [Outcome(("cert", i, j), cert_dir, err),
                        Outcome(("inv", i, j), inv_dir, "no certificate")]
                continue
            out.append(Outcome(("cert", i, j), cert_dir))
            rec = read_record(cert_dir / "certificate.rec")
            r, b, eps, alpha = PARAM_SETS[i]
            inv_cfg = write_config("invariant.cfg", self.workdir / f"{tag}-invariant.cfg",
                                   tag=tag, seed=self.seed, r=r, b=b, epsilon=eps,
                                   alpha=alpha, rho1=rec["rho1_max"],
                                   rho2=rec["rho2_max"])
            code, msg = run_cli(["invariant-set", "--config", inv_cfg, "--out", inv_dir])
            out.append(Outcome(("inv", i, j), inv_dir,
                               None if code == 0 else f"exit {code}: {msg}"))
        return out

    def digest(self, outcome):
        kind, i, j = outcome.key
        cert = self._dirs(f"p{i}r{j}")[0] / "certificate.rec"
        if kind == "inv":
            return file_digest(cert, outcome.payload / "invariant_set.txt")
        # the monotonicity check reads the next smaller radius's record too
        prev = self._dirs(f"p{i}r{j - 1}")[0] / "certificate.rec"
        return file_digest(cert, prev) if j else file_digest(cert)

    def check(self, outcome):
        kind, i, j = outcome.key
        return (self._check_cert if kind == "cert" else self._check_inv)(i, j)

    def _check_cert(self, i, j):
        radius = self.radii[j]
        rec = read_record(self._dirs(f"p{i}r{j}")[0] / "certificate.rec")
        nums = {k: float(v) for k, v in rec.items()
                if k not in ("tool_version", "provenance", "decay_check")}
        if not close(nums["radius"], radius, 1e-15):
            return f"radius {nums['radius']} is not {radius}"
        for key, want in self._expected(i, j).items():
            tol = 1e-6 if key == "eta1" else 1e-9
            if not close(nums[key], want, tol):
                return f"{key} = {nums[key]!r}, closed form gives {want!r}"
        rho1, rho2 = ref.budget_from_record(nums)
        if not (close(rho1, nums["rho1_max"], 1e-12) and close(rho2, nums["rho2_max"], 1e-12)):
            return (f"budget ({nums['rho1_max']}, {nums['rho2_max']}) is not the "
                    f"formula's ({rho1}, {rho2})")
        if rec.get("decay_check") != "pass" or nums["decay_worst"] > 0:
            return "composite decay check did not pass"
        if j:
            prev = read_record(self._dirs(f"p{i}r{j - 1}")[0] / "certificate.rec")
            if nums["rho1_max"] > float(prev["rho1_max"]):
                return "rho1_max grew with the radius"
        return None

    def _check_inv(self, i, j):
        r, b, eps, _ = PARAM_SETS[i]
        cert_dir, inv_dir = self._dirs(f"p{i}r{j}")
        rec = read_record(cert_dir / "certificate.rec")
        rep = {k: ref.parse_number(v) for k, v in
               read_record(inv_dir / "invariant_set.txt").items()}
        inv = INVARIANT
        shells = ref.invariant_shells(r, b, eps, float(rec["rho1_max"]),
                                      float(rec["rho2_max"]), inv["half"],
                                      inv["density"], inv["levels"], inv["shell_width"])
        first = next((row for row in shells if row[1] and row[2] < 0), None)
        if first is None:
            return "reference finds no dissipating shell, ieskit reported one"
        level, n_shell, margin, inner = first
        cell = math.hypot(*(2 * [2 * inv["half"] / (inv["density"] - 1)])) / 2
        if not close(rep["level"], level, 1e-12):
            return f"level {rep['level']} is not the smallest dissipating level {level}"
        if rep["shell_samples"] != n_shell or not close(rep["margin"], margin, 1e-9):
            return f"shell ({rep['shell_samples']}, {rep['margin']}) is not ({n_shell}, {margin})"
        if not close(rep["radius"], inner + cell, 1e-12):
            return f"radius {rep['radius']} is not {inner + cell}"
        if rep["radius"] > self.radii[j]:
            return f"invariant radius {rep['radius']} exceeds R = {self.radii[j]}"
        return None


ENSEMBLE_PAIRS = 24


class Ensemble(Workload):
    """``ieskit estimate`` over seeded pairs in [-3, 3]^2 on FHN figure 3."""

    name = "ensemble"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = write_config("estimate.cfg", workdir / "estimate.cfg",
                                   seed=int(self.rng.integers(2**31)),
                                   pairs=ENSEMBLE_PAIRS)
        self.out = workdir / "estimate"
        self.rate = -ref.fhn_max_re_eig(*ref.FIGURE_PARAMS[3])

    def probe_configs(self):
        return [self.config]

    def run_round(self):
        code, msg = run_cli(["estimate", "--config", self.config, "--out", self.out])
        return [Outcome(("ensemble",), self.out, None if code == 0 else f"exit {code}: {msg}")]

    def digest(self, outcome):
        return file_digest(self.out / "summary.csv", self.out / "distances.csv")

    def check(self, outcome):
        summary = np.genfromtxt(self.out / "summary.csv", delimiter=",", names=True,
                                dtype=None, encoding="utf-8")
        dist = np.loadtxt(self.out / "distances.csv", delimiter=",", skiprows=1)
        if list(summary["pair_id"]) != list(range(ENSEMBLE_PAIRS)):
            return "summary does not list every pair"
        for pid, lam, verdict in zip(summary["pair_id"], summary["lambda"],
                                     summary["verdict"]):
            if verdict != "contracting" or not close(lam, self.rate, 0.01):
                return f"pair {pid}: {verdict}, lambda {lam} (expected ~{self.rate:.4f})"
            rows = dist[dist[:, 0] == pid]
            t, d = rows[:, 1], rows[:, 2]
            if len(t) != 2001 or abs(t[0]) > 0 or abs(t[-1] - 40) > 1e-9:
                return f"pair {pid}: time grid is not 0, 0.02, ..., 40"
            # at the reference rate d(20) ~ 3e-10 d(0); allow a prefactor of 1e3
            if not (d[0] > 0 and np.all(d[t >= 20] <= 1e-6 * d[0])):
                return f"pair {pid}: distance has not contracted by t = 20"
        return None


# adaptive radius scans: (config, radii, horizon)
SCANS = {
    "polynomial": ("scan_polynomial.cfg", (0.5, 1.0, 2.0, 4.0, 8.0), 20.0),
    "fhn": ("scan_fhn.cfg", (0.5, 1.0, 2.0, 4.0), 40.0),
}
SCAN_PAIRS = 8
# wies_scan's default sampling seed, for both systems.  The pairs do not
# follow --seed: the envelope-fit fault (README.md) fails every FHN pair, and
# also some polynomial pairs at radius 0.5 on some seeds but not others.
SCAN_SEED = 0


class AdaptiveScan(Workload):
    """``wies_scan`` under the adaptive solver on the polynomial system and on
    FHN figure 3 (no CLI action runs a radius scan)."""

    name = "adaptive-scan"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.poly_rate = ref.polynomial_contraction_rate(seed)
        self.fhn_rate = -ref.fhn_max_re_eig(*ref.FIGURE_PARAMS[3])

    def probe_configs(self):
        return [CONFIGS / cfg for cfg, *_ in SCANS.values()]

    def run_round(self):
        from ieskit.dynsys import ADAPTIVE_EMBEDDED, IntegratorConfig
        from ieskit import estimator, scenarios

        out = []
        for system, (cfg, radii, horizon) in SCANS.items():
            try:
                field = scenarios.build_field(scenarios.parse_config(CONFIGS / cfg))
                config = IntegratorConfig(max_time=horizon, method=ADAPTIVE_EMBEDDED,
                                          atol=1e-9, rtol=1e-6)
                report = estimator.wies_scan(field, radii, SCAN_PAIRS, horizon, config,
                                             seed=SCAN_SEED)
            except Exception as exc:  # every pair of the scan fails
                out += [Outcome((system, k, p), None, repr(exc))
                        for k in range(len(radii)) for p in range(SCAN_PAIRS)]
                continue
            for k, per_radius in enumerate(report.per_radius):
                out += [Outcome((system, k, res.pair_id), res) for res in per_radius.results]
        return out

    def digest(self, outcome):
        res = outcome.payload
        h = hashlib.sha256(res.series.times.tobytes() + res.series.values.tobytes())
        h.update(repr(res.fit).encode())
        return h.digest()

    def check(self, outcome):
        res = outcome.payload
        fit = res.fit
        if res.blew_up or fit is None:
            return "pair blew up"
        if outcome.key[0] == "fhn":
            if fit.verdict != "contracting" or not close(fit.lam, self.fhn_rate, 0.01):
                return (f"{fit.verdict}, lambda {fit.lam:.4g} "
                        f"(expected ~{self.fhn_rate:.4f})")
            return None
        rate = self.poly_rate
        t, d = res.series.times, res.series.values
        if fit.verdict != "contracting" or fit.lam < rate:
            return f"{fit.verdict}, lambda {fit.lam:.4g} below the bound {rate:.4f}"
        # |phi(t, z1) - phi(t, z2)| <= exp(-rate t) |z1 - z2|, up to the
        # solver's relative tolerance on states of size up to the radius
        slack = 1e-5 * (1.0 + SCANS["polynomial"][1][outcome.key[1]])
        excess = float(np.max(d - np.exp(-rate * t) * d[0]))
        if excess > slack:
            return f"distance exceeds the contraction bound by {excess:.3e}"
        return None

    def known_fault(self, key):
        return key[0] == "fhn"


WORKLOADS = {w.name: w for w in (Figures, CertifySweep, Ensemble, AdaptiveScan)}
