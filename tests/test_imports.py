"""What importing ieskit and running its actions loads: numpy, and no scipy.
The check runs in a fresh interpreter, since this test process has scipy
loaded already."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIGS = {
    "simulate": """
[scenario]
system = fhn
action = simulate
horizon = 1
initial = 2 0; -2 1
""",
    "estimate": """
[scenario]
system = fhn
action = estimate
horizon = 2

[estimate]
pairs = 2
""",
    "figures": """
[scenario]
system = fhn
action = figures
horizon = 1
""",
    "invariant-set": """
[scenario]
system = fhn
action = invariant_set
""",
    "fc-table": """
[scenario]
system = fhn
action = fc_table
""",
    "certify": """
[scenario]
system = fhn
action = certify

[params]
r = 2.1
b = 1
epsilon = 0.9

[certify]
radius = 6
""",
}


def loaded_modules(tmp_path, actions):
    """Run ``cli.main`` on each action's config in one fresh interpreter, and
    return the names in its ``sys.modules`` afterwards."""
    for action in actions:
        (tmp_path / f"{action}.cfg").write_text(CONFIGS[action])
    script = textwrap.dedent(f"""
        import sys
        from pathlib import Path

        import ieskit
        from ieskit import cli

        tmp = Path({str(tmp_path)!r})
        for action in {list(actions)!r}:
            rc = cli.main([action, "--config", str(tmp / f"{{action}}.cfg"),
                           "--out", str(tmp / action)])
            assert rc == cli.EXIT_OK, (action, rc)
        print("\\n".join(sys.modules))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_and_numpy_only_actions_load_no_scipy(tmp_path):
    modules = loaded_modules(tmp_path, ["simulate", "estimate", "figures", "invariant-set",
                                        "certify", "fc-table"])
    assert "ieskit.cli" in modules
    assert sorted(m for m in modules if m == "scipy" or m.startswith("scipy.")) == []

