"""Start-up imports: a command loads only what it uses.

networkx adds about 0.1 s to start-up and only the social-graph
synthesizer needs it, so neither the package nor the entry points that
simulate and serve may pull it in.  The probe runs in a fresh
interpreter because this test process has long since imported
everything.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

ENTRY_POINTS = (
    "repro",
    "repro.scenarios.run",
    "repro.sim.engine",
    "repro.serve.cli",
    "repro.__main__",
)

PROBE = """
import importlib
import sys

for name in sys.argv[1:]:
    importlib.import_module(name)
assert "networkx" not in sys.modules, "networkx imported at start-up"

import numpy as np
from repro.classifier.social_graph import synthesize_social_graph

social = synthesize_social_graph(20, 20, 3, np.random.default_rng(0))
assert social.n == 40
assert "networkx" in sys.modules
"""


def test_entry_points_do_not_import_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *ENTRY_POINTS],
        cwd=REPO,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
