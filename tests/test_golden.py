"""Golden outputs: the figure CSV rows, the FHN certificate records of the
four certify-sweep weight sets and of the default radius, the f_c table, a
seeded FHN estimate, the rows of an FHN simulate, the sampled pairs and the
adaptive radius scans, pinned byte for byte, so a change that moves a printed
digit, a sampled point or a resampled distance fails here."""

import hashlib
from pathlib import Path

import pytest

from ieskit.cli import EXIT_OK, main
from ieskit.dynsys import ADAPTIVE_EMBEDDED, IntegratorConfig
from ieskit.estimator import sample_pairs_ball, sample_pairs_box, wies_scan
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
# provenance lines.
GOLDEN_RECORDS = {
    9: """\
radius = 9.0
safety = 1.05
a1 = 9.450000000000001
a2 = 10.5
b1 = 1.05
b2 = 1.1666666666666667
eta1 = 0.6789446871162977
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
rho1_max = 0.010712841423883148
rho2_max = 0.2857142857142857
decay_check = pass
decay_worst = -0.40312465548898074
decay_samples = 83
""",
    32: """\
radius = 32.0
safety = 1.05
a1 = 33.6
a2 = 37.333333333333336
b1 = 1.05
b2 = 1.1666666666666667
eta1 = 0.6789446871162979
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
rho1_max = 0.005215803843148032
rho2_max = 0.2857142857142857
decay_check = pass
decay_worst = -0.4096160295318687
decay_samples = 83
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


# certificate.rec of CERTIFY without its radius key, so that run_certify
# encloses the invariant sublevel set of the dissipation chain, without its
# tool_version and provenance lines
DEFAULT_RADIUS_RECORD = """\
radius = 16.864613649443623
safety = 1.05
a1 = 17.707844331915805
a2 = 19.67538259101756
b1 = 1.05
b2 = 1.1666666666666667
eta1 = 0.6789446871162979
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
rho1_max = 0.0078749065660914
rho2_max = 0.2857142857142857
decay_check = pass
decay_worst = -0.3931081061600142
decay_samples = 83
"""


def test_default_radius_certificate_is_pinned(tmp_path):
    cfg = tmp_path / "certify.cfg"
    cfg.write_text(CERTIFY.replace("radius = {radius}\n", ""))
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    lines = (tmp_path / "out" / "certificate.rec").read_text().splitlines(keepends=True)
    kept = [line for line in lines
            if line.split(" = ")[0] not in ("tool_version", "provenance")]
    assert "".join(kept) == DEFAULT_RADIUS_RECORD


SWEEP_CERTIFY = """
[scenario]
system = fhn
action = certify

[params]
r = {r}
b = {b}
epsilon = {epsilon}
alpha = {alpha}

[certify]
radius = {radius}
"""

# certificate.rec of SWEEP_CERTIFY, without its tool_version and provenance
# lines, for the other three weight sets (r, b, epsilon, alpha) of the
# certify-sweep benchmark, at one radius each
SWEEP_RECORDS = {
    (2.1, 2, 0.5, 1, 16): """\
radius = 16.0
safety = 1.05
a1 = 16.8
a2 = 33.6
b1 = 1.05
b2 = 2.1
eta1 = 0.6789446871162979
eta2 = 0.0
theta1 = 4.172843141918077
theta2 = 1.05
alpha1 = 1.0
alpha2 = 4.0
alpha = 0.5
epsilon1 = 0.16666666666666666
epsilon2 = 0.16666666666666666
epsilon3 = 1.1666666666666667
epsilon4 = 1.1666666666666667
rho1_max = 0.00811113046183114
rho2_max = 0.15873015873015872
decay_check = pass
decay_worst = -0.49310017530487926
decay_samples = 83
""",
    (1.8, 1, 0.9, 0.8, 8): """\
radius = 8.0
safety = 1.05
a1 = 8.4
a2 = 9.333333333333334
b1 = 1.05
b2 = 1.1666666666666667
eta1 = 1.5799648917777736
eta2 = 0.0
theta1 = 6.360108574567145
theta2 = 1.05
alpha1 = 0.8
alpha2 = 1.1111111111111112
alpha = 0.4
epsilon1 = 0.13333333333333333
epsilon2 = 0.13333333333333333
epsilon3 = 0.23703703703703705
epsilon4 = 0.23703703703703705
rho1_max = 0.0038637856944263196
rho2_max = 0.22857142857142856
decay_check = pass
decay_worst = -0.3585952542778112
decay_samples = 83
""",
    (2.5, 1, 0.9, 2, 32): """\
radius = 32.0
safety = 1.05
a1 = 33.6
a2 = 37.333333333333336
b1 = 1.05
b2 = 1.1666666666666667
eta1 = 0.4528564271299141
eta2 = 0.0
theta1 = 3.7333888260858594
theta2 = 1.05
alpha1 = 2.0
alpha2 = 1.1111111111111112
alpha = 0.5555555555555556
epsilon1 = 0.48148148148148145
epsilon2 = 0.48148148148148145
epsilon3 = 0.1851851851851852
epsilon4 = 0.1851851851851852
rho1_max = 0.02136733789468875
rho2_max = 0.28794586617715867
decay_check = pass
decay_worst = -0.5370257713232884
decay_samples = 83
""",
}


@pytest.mark.parametrize("r, b, epsilon, alpha, radius", sorted(SWEEP_RECORDS))
def test_sweep_certificate_record_is_pinned(tmp_path, r, b, epsilon, alpha, radius):
    cfg = tmp_path / "certify.cfg"
    cfg.write_text(SWEEP_CERTIFY.format(r=r, b=b, epsilon=epsilon, alpha=alpha,
                                        radius=radius))
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    lines = (tmp_path / "out" / "certificate.rec").read_text().splitlines(keepends=True)
    kept = [line for line in lines
            if line.split(" = ")[0] not in ("tool_version", "provenance")]
    assert "".join(kept) == SWEEP_RECORDS[r, b, epsilon, alpha, radius]

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


FC_TABLE = """
[scenario]
system = fhn
action = fc_table

[params]
{}
"""
# the [params] lines and fc_table.csv digest of each weight that the
# certify-sweep benchmark builds (a weight depends on r and alpha only), and
# of the figure-3 preset, whose weight is the steepest; the csv header holds
# the reprs of mu and eta
FC_TABLES = {
    "r2.1": ("r = 2.1\nb = 1\nepsilon = 0.9",
             "48313d622a21ca242abf7d8201a0b06e2b148a2f63d221568e90e37b1fa41b68"),
    "r1.8-alpha0.8": ("r = 1.8\nb = 1\nepsilon = 0.9\nalpha = 0.8",
                      "9db8a458b3e952f8fee7f209baed52f5a483f95443c85ea1327f47afaf0f6cf2"),
    "r2.5-alpha2": ("r = 2.5\nb = 1\nepsilon = 0.9\nalpha = 2",
                    "f84152d485cdfa8653be6bc1f919711e5c59e52d3fee349c729f7b17fec44849"),
    "figure3": ("c = 1\nb = 1\nepsilon = 0.9",
                "39c5df40fe297ca6c773477b88229a3b5aca8e5842eecec665b6e6497b012049"),
}


@pytest.mark.parametrize("case", FC_TABLES)
def test_fc_table_is_pinned(case, tmp_path):
    params, digest = FC_TABLES[case]
    cfg = tmp_path / "fc.cfg"
    cfg.write_text(FC_TABLE.format(params))
    assert main(["fc-table", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    table = (tmp_path / "out" / "fc_table.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == digest


ESTIMATE = """
[scenario]
system = fhn
action = estimate
horizon = 10
step = 0.02
seed = 7

[params]
c = 1
b = 1
epsilon = 0.9
rho1 = 1
rho2 = 1

[estimate]
pairs = 6
"""
ESTIMATE_SHA256 = {
    "summary.csv": "862d529580eff3f7c5b3ed9d29ec88a44b623b36c8f8fa178537e6ba0c0c945d",
    "distances.csv": "e4aa6b2681dd0f53ef31608575cba00d3af43974ac9f068c98af74b389c61813",
}


def test_estimate_csvs_are_pinned(tmp_path):
    cfg = tmp_path / "estimate.cfg"
    cfg.write_text(ESTIMATE)
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    for name, digest in ESTIMATE_SHA256.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name


SIMULATE = """
[scenario]
system = fhn
action = simulate
horizon = 20
step = 0.01
initial = 2 0; -2 1; 0.5 -3

[params]
c = 1
b = 1
epsilon = 0.9
rho1 = 1
rho2 = 1
"""
# SHA-256 of every line after the '# ieskit ...' header of trajectory_<i>.csv
# of SIMULATE: the column line and the 2 001 data rows.
SIMULATE_ROWS_SHA256 = {
    0: "5b37e6e650366408cdacdeff79d54703e158f4dcf0f3eab4bd9c3adb297ff7a7",
    1: "7e039e23e9a3bfeba27db15fcfae0db9a6c02375e5a8295418a8b0afec266c3a",
    2: "7c5d74d2ff9afda43fa8869d3698b6cbbcee7330a3689da39ea2bfd90833b611",
}


def test_simulate_rows_are_pinned(tmp_path):
    cfg = tmp_path / "simulate.cfg"
    cfg.write_text(SIMULATE)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    for i, digest in SIMULATE_ROWS_SHA256.items():
        csv = tmp_path / "out" / f"trajectory_{i:02d}.csv"
        header, sep, rows = csv.read_bytes().partition(b"\n")
        assert header.startswith(b"# ieskit ") and sep
        assert rows.count(b"\n") == 2002
        assert hashlib.sha256(rows).hexdigest() == digest, f"trajectory {i}"


# SHA-256 over the bytes of z1 then z2 of each of 5 pairs: (box, ball) per
# (dimension, seed), in the box [-3, 2] x [-1.5, 4]^(d-1) and the ball of radius 2.5
PAIRS_SHA256 = {
    (1, 0): ("89c6d2c4cf802a3922dcbfd70f55ae6966810077f4b6efd1fad36621f4571cb1",
             "b75690e6aa509ebb7c12be280a5b84de465647fe8a26c440f5acd7851415588d"),
    (1, 5): ("ab5ac1420decf96d906b43757669a328d698ac926c0f79572c66f67d4d72d1d7",
             "71d3067ca473ed5857850ed9a69e5dee85dd168275b14b446eb1dcc13e953549"),
    (2, 0): ("c57adc0b233a306be77e53239117dab9397deeec0c6925dcf147c46c21392a34",
             "798b2763cdb3a85762dc5499a3a1954bec309f5334e2fd7015789da3f1c7b534"),
    (2, 5): ("00ace0be33dd708db6861b5b946f53ed29ad6b30b33f62ca0e14e86ba11ee4de",
             "939335c46c22a7ba2b7b794764ac1640e634ef608208b0ead5940de926d48ee8"),
    (3, 0): ("661136ee6145f1b3c2818f4b53574aebb23556c6108485296b049681da4c7a96",
             "9bcd7d239cb8b60510109fb7ff7ac4255b46b9f243986576e8190360a15c852e"),
    (3, 5): ("6a115c97641f36ece9150b124bac28fb2b0a97ef0c3366e0e6bc90cadc269688",
             "9f2e25ae270e4fa5e01b9f1d118f4b474e87b9648a2870764aec793d5b1eb150"),
    (4, 0): ("cf42db83b02cb6c020d21fb9b69e2b43eb26a3caedb2328b681866bad7eb4184",
             "432969ba781b0846b821730fa69871f175fce28233b8aba13ae8d521436a935c"),
    (4, 5): ("eaa0a3ab34fb7451e20e551a59d27a453e46e9efb31ee0682bb8809b4d0336db",
             "b176061bc4f679e32d674305c9f6ef83eabe3dffc61f60ab1ed0316039640f20"),
}


def _pairs_digest(pairs) -> str:
    digest = hashlib.sha256()
    for z1, z2 in pairs:
        digest.update(z1.tobytes())
        digest.update(z2.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("dim, seed", sorted(PAIRS_SHA256))
def test_sampled_pairs_are_pinned(dim, seed):
    box = [[-3.0, 2.0]] + [[-1.5, 4.0]] * (dim - 1)
    assert (_pairs_digest(sample_pairs_box(box, 5, seed)),
            _pairs_digest(sample_pairs_ball(2.5, dim, 5, seed))) == PAIRS_SHA256[dim, seed]
