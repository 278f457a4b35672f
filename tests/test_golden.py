"""Golden outputs: the figure CSV rows, one FHN certificate record and the
adaptive radius scans, pinned byte for byte, so a change that moves a printed
digit or a resampled distance fails here."""

import hashlib
from pathlib import Path

import pytest

from ieskit.cli import EXIT_OK, main
from ieskit.dynsys import ADAPTIVE_EMBEDDED, IntegratorConfig
from ieskit.estimator import wies_scan
from ieskit.scenarios import build_field, parse_config, run_figures

# SHA-256 of every line after the '# ieskit ...' header of figure<k>.csv at
# the defaults of run_figures: the column line and the 10 001 data rows.
FIGURE_ROWS_SHA256 = {
    1: "2ee6800efc7ab717b3bdd2f9f1c84afae85999d2735ef871f7cc59cda7081c95",
    2: "9972489c49aec1aa6ab62aa2da7cd085a3bc6e7486acdc53c1c18892fb3b9654",
    3: "df8e4a36a33babf22eece365ea0646c71cd62265af6b7fc38506c8b2bf2367f6",
}

CERTIFY = """
[scenario]
system = fhn
action = certify

[params]
r = 2.1
b = 1
epsilon = 0.9

[certify]
radius = {radius}
"""

# certificate.rec of CERTIFY per radius, without its tool_version and
# provenance lines.  Radius 32 also pins the last digit of decay_worst that
# a regrouped product inside fhn.fc_candidate moves; radius 9 does not show it.
GOLDEN_RECORDS = {
    9: """\
radius = 9.0
safety = 1.05
a1 = 9.450000000000001
a2 = 10.5
b1 = 1.05
b2 = 1.1666666666666667
eta1 = 0.6789446871163017
eta2 = 0.0
theta1 = 4.172843141918077
theta2 = 1.05
alpha1 = 1.0
alpha2 = 1.1111111111111112
alpha = 0.5
epsilon1 = 0.16666666666666666
epsilon2 = 0.16666666666666666
epsilon3 = 0.20370370370370372
epsilon4 = 0.20370370370370372
rho1_max = 0.010712841423883124
rho2_max = 0.2857142857142857
decay_check = pass
decay_worst = -0.40329511465943535
decay_samples = 1328
""",
    32: """\
radius = 32.0
safety = 1.05
a1 = 33.6
a2 = 37.333333333333336
b1 = 1.05
b2 = 1.1666666666666667
eta1 = 0.6789446871163017
eta2 = 0.0
theta1 = 4.172843141918077
theta2 = 1.05
alpha1 = 1.0
alpha2 = 1.1111111111111112
alpha = 0.5
epsilon1 = 0.16666666666666666
epsilon2 = 0.16666666666666666
epsilon3 = 0.20370370370370372
epsilon4 = 0.20370370370370372
rho1_max = 0.00521580384314801
rho2_max = 0.2857142857142857
decay_check = pass
decay_worst = -0.4106037730503076
decay_samples = 1328
""",
}


def test_figure_rows_are_pinned(tmp_path):
    run_figures(tmp_path)
    for fig, digest in FIGURE_ROWS_SHA256.items():
        header, sep, rows = (tmp_path / f"figure{fig}.csv").read_bytes().partition(b"\n")
        assert header.startswith(b"# ieskit ") and sep
        assert rows.count(b"\n") == 10002
        assert hashlib.sha256(rows).hexdigest() == digest, f"figure {fig}"


@pytest.mark.parametrize("radius", sorted(GOLDEN_RECORDS))
def test_certificate_record_is_pinned(tmp_path, radius):
    cfg = tmp_path / "certify.cfg"
    cfg.write_text(CERTIFY.format(radius=radius))
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    lines = (tmp_path / "out" / "certificate.rec").read_text().splitlines(keepends=True)
    kept = [line for line in lines
            if line.split(" = ")[0] not in ("tool_version", "provenance")]
    assert "".join(kept) == GOLDEN_RECORDS[radius]


SCAN_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
# (config, radii, horizon) of the two adaptive radius scans, 8 pairs per radius
SCANS = {
    "polynomial": ("scan_polynomial.cfg", (0.5, 1.0, 2.0, 4.0, 8.0), 20.0),
    "fhn": ("scan_fhn.cfg", (0.5, 1.0, 2.0, 4.0), 40.0),
}
# SHA-256 over every pair of the scan, radius by radius: the bytes of the
# series times and values, then repr(fit), under Dormand-Prince at atol 1e-9
# and rtol 1e-6
SCAN_SHA256 = {
    ("polynomial", 0): "f9d6f6e4731ed73013532df4681e4af7fc71aba2b55f6f3ef9d4c301b27c3446",
    ("polynomial", 1016164991): "bdd5dd8a811467fe9c66f4a6d0f1e16396f17662c43548b08f67c0ba0ca6428b",
    ("polynomial", 1798679648): "f446609dc9195a4432acaea20ac83d970cb0b5ab56d473e94bddf961be8c72da",
    ("polynomial", 1742692732): "17949358eedb65d69a3c98ebd43fab520595a036230d3ed91436a10d73eccbf0",
    ("fhn", 0): "76efbbc6ec630eb42839e5848685b521ddf5a59b58e279d1e3fa3bdb7a48ba6c",
    ("fhn", 1016164991): "20ecc67aa2b363104fcdb9a94e880405e778999d69f68556beacbf0ab1fd00df",
    ("fhn", 1798679648): "6835c15e662a402922c14da940e594e38ba6e111b1f5f1e654cb02b755711404",
    ("fhn", 1742692732): "e7f74d18c6dc8ab3e488d9382cc712979c538de44019ff6fa7cd52eee6c1833c",
}


@pytest.mark.parametrize("system, seed", sorted(SCAN_SHA256))
def test_adaptive_scan_is_pinned(system, seed):
    cfg, radii, horizon = SCANS[system]
    field = build_field(parse_config(SCAN_CONFIGS / cfg))
    config = IntegratorConfig(max_time=horizon, method=ADAPTIVE_EMBEDDED, atol=1e-9, rtol=1e-6)
    report = wies_scan(field, radii, 8, horizon, config, seed=seed)
    digest = hashlib.sha256()
    for per_radius in report.per_radius:
        for res in per_radius.results:
            digest.update(res.series.times.tobytes())
            digest.update(res.series.values.tobytes())
            digest.update(repr(res.fit).encode())
    assert digest.hexdigest() == SCAN_SHA256[system, seed]
