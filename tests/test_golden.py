"""Golden outputs: the figure CSV rows and one FHN certificate record, pinned
byte for byte, so a change that moves a printed digit fails here."""

import hashlib

import pytest

from ieskit.cli import EXIT_OK, main
from ieskit.scenarios import run_figures

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
