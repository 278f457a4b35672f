"""Spans and counters recorded around ieskit's public functions, from outside
the program.

``Tracer.install`` replaces every public function of the traced modules (and
a few hot methods) with a timing wrapper, in every ieskit module that holds a
reference to it, and wraps the field builders so that the fields they return
count their ``rhs`` calls.  ``uninstall`` puts the originals
back.  Spans are kept in memory and written out by ``save``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "scenarios", "dynsys", "finsler", "smallgain", "invariance",
           "estimator", "fhn", "polynomials", "sampling", "io_utils")
# One-scalar formatting helper: called once per CSV cell, so a span per call
# would cost more than the work it measures; its time stays with the caller.
SKIP = {("io_utils", "fnum")}
METHODS = {
    "dynsys": {"Trajectory": ("state_at",)},
    "fhn": {"FcTable": ("fc", "fc_pair", "fc_prime")},
    "polynomials": {"PolynomialMap": ("__call__", "jacobian")},
    "finsler": {"DisplacementSamples": ("product_box", "product_ball")},
    "smallgain": {"GainCertificate": ("write_record", "write_report")},
}
FIELD_BUILDERS = {("dynsys", "assemble"), ("dynsys", "linear_field")}
FC_NAMES = {"fhn.FcTable.fc", "fhn.FcTable.fc_pair", "fhn.FcTable.fc_prime"}


def unit_of(name: str) -> str:
    """Unit of a layer metric, read from its name: ``us_...`` microseconds,
    ``s`` or ``..._s`` seconds, anything else a count."""
    last = name.rsplit(".", 1)[1]
    if last.startswith("us_"):
        return "us"
    return "s" if last == "s" or last.endswith("_s") else "count"


class Tracer:
    """Per-name call counts and self times, plus every span as
    (name, start, end, parent) in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, child time]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name: str) -> list:
        idx = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        idx, child = frame
        self._stack.pop()
        dur = end - self.span_start[idx]
        self.span_end[idx] = end
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def reset_totals(self) -> None:
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)

        return traced

    def _wrap_integrate(self, fn):
        """integrate: derive RK4 steps, and Dormand-Prince accepted and
        rejected steps, from the returned trajectory and the rhs calls the
        counting field saw (1 initial call, then 6 per attempted DP step)."""
        tracer = self
        inner = self._wrap("dynsys.integrate", fn)

        def traced(field, t0, z0, config):
            before = tracer.counts["rhs_calls"]
            start = time.perf_counter()
            tr = inner(field, t0, z0, config)
            tracer.counts["integrate_inclusive_s"] += time.perf_counter() - start
            steps = len(tr.times) - 1
            if config.method == "fixed_rk4":
                tracer.counts["rk4_steps"] += steps
            else:
                attempts = (tracer.counts["rhs_calls"] - before - 1) / 6.0
                tracer.counts["dp_accepted"] += steps
                tracer.counts["dp_rejected"] += max(0.0, round(attempts) - steps)
            return tr

        return traced

    def _wrap_builder(self, fn):
        tracer = self

        def counting_field(*args, **kwargs):
            field = fn(*args, **kwargs)
            rhs = field.rhs

            def counted_rhs(t, z):
                tracer.counts["rhs_calls"] += 1
                return rhs(t, z)

            return dataclasses.replace(field, rhs=counted_rhs)

        return counting_field

    def _wrap_fc(self, name: str, fn):
        """FcTable.fc / fc_pair / fc_prime: count the calls made from outside
        the table, not the ones these methods make to each other."""
        tracer = self
        inner = self._wrap(name, fn)

        def traced(table, x):
            if not (tracer._stack and tracer.names[
                    tracer.span_name[tracer._stack[-1][0]]] in FC_NAMES):
                tracer.counts["fc_calls"] += 1
            return inner(table, x)

        return traced

    def _wrap_sampler(self, name: str, fn):
        tracer = self
        inner = self._wrap(name, fn)

        def traced(*args, **kwargs):
            pts = inner(*args, **kwargs)
            tracer.counts["sampling_points"] += len(pts)
            return pts

        return traced

    def _wrap_decay(self, fn):
        tracer = self
        inner = self._wrap("finsler.check_decay", fn)

        def traced(*args, **kwargs):
            start = time.perf_counter()
            report = inner(*args, **kwargs)
            tracer.counts["decay_inclusive_s"] += time.perf_counter() - start
            tracer.counts["decay_samples"] += report.n_samples
            return report

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"ieskit.{m}") for m in MODULES}
        holders = list(mods.values()) + [importlib.import_module("ieskit")]
        for mname, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or (mname, attr) in SKIP):
                    continue
                name = f"{mname}.{attr}"
                if (mname, attr) in FIELD_BUILDERS:
                    wrapped = self._wrap(name, self._wrap_builder(fn))
                elif name == "dynsys.integrate":
                    wrapped = self._wrap_integrate(fn)
                elif name == "finsler.check_decay":
                    wrapped = self._wrap_decay(fn)
                elif mname == "sampling":
                    wrapped = self._wrap_sampler(name, fn)
                else:
                    wrapped = self._wrap(name, fn)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, hattr, wrapped)
            for cls_name, methods in METHODS.get(mname, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{mname}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    elif name in FC_NAMES:
                        wrapped = self._wrap_fc(name, raw)
                    else:
                        wrapped = self._wrap(name, raw)
                    self._patch(cls, meth, wrapped)

    def _patch(self, holder, attr: str, value) -> None:
        self._patched.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def module_self_times(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-round layer numbers from the totals since ``reset_totals``.
        Times are self times in seconds unless the name says otherwise."""
        st, calls, cnt = self.self_time, self.calls, self.counts
        steps = cnt["rk4_steps"] + cnt["dp_accepted"] + cnt["dp_rejected"]
        samples = cnt["decay_samples"]
        out = {
            "scenarios.parse_config_s": st["scenarios.parse_config"],
            "dynsys.integrate_s": st["dynsys.integrate"],
            "dynsys.rhs_calls": cnt["rhs_calls"],
            "dynsys.us_per_step": (1e6 * cnt["integrate_inclusive_s"] / steps
                                   if steps else 0.0),
            "dynsys.steps_accepted": cnt["dp_accepted"],
            "dynsys.steps_rejected": cnt["dp_rejected"],
            "finsler.check_decay_s": st["finsler.check_decay"],
            "finsler.us_per_decay_sample": (1e6 * cnt["decay_inclusive_s"] / samples
                                            if samples else 0.0),
            "fhn.build_fc_s": st["fhn.build_fc"],
            "fhn.fc_s": sum(st[n] for n in FC_NAMES),
            "fhn.fc_calls": cnt["fc_calls"],
            "smallgain.extract_constants_s": st["smallgain.extract_constants"],
            "smallgain.certify_s": st["smallgain.certify"],
            "invariance.find_invariant_level_s": st["invariance.find_invariant_level"],
            "invariance.wdot_calls": calls["invariance.wdot"],
            "estimator.fit_envelope_s": st["estimator.fit_envelope"],
            "estimator.sample_pairs_s": (st["estimator.sample_pairs_box"]
                                         + st["estimator.sample_pairs_ball"]),
            "estimator.write_csv_s": (st["estimator.write_distance_csv"]
                                      + st["estimator.write_summary_csv"]),
            "polynomials.eval_s": (st["polynomials.PolynomialMap.__call__"]
                                   + st["polynomials.PolynomialMap.jacobian"]),
            "polynomials.calls": (calls["polynomials.PolynomialMap.__call__"]
                                  + calls["polynomials.PolynomialMap.jacobian"]),
            "sampling.s": sum(t for n, t in st.items() if n.startswith("sampling.")),
            "sampling.points": cnt["sampling_points"],
            "io_utils.write_s": st["io_utils.atomic_write_text"],
        }
        for mod, t in self.module_self_times().items():
            out[f"{mod}.self_s"] = t
        return out

    def save(self, path) -> None:
        """Write every span as arrays (name index, start, end, parent index)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            parent=np.array(self.span_parent, dtype=np.int64),
        )
