"""Smoke test of the benchmark's tracer against the current ieskit: the
tracer patches public functions and a few methods by name, so a renamed or
moved one would break every traced benchmark run."""

import importlib.util
from pathlib import Path

from ieskit import cli, finsler
from ieskit.fhn import FcTable

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
    assert tracer.counts["decay_samples"] > 0
    metrics = tracer.layer_metrics()
    assert metrics["fhn.fc_calls"] == tracer.counts["fc_calls"]
    assert metrics["finsler.us_per_decay_sample"] > 0
