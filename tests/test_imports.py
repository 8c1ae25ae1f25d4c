"""The run path imports numpy, click and pyyaml only, and pyyaml only to read
or write a config file.  Each import check runs in a fresh interpreter, since
this one has already imported scipy for the tests' oracles."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.fft

import elastrip
from elastrip.mesh import _next_fast_len


def _run(code: str) -> str:
    src = str(Path(elastrip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_package_and_cli_import_no_scipy_and_harness_no_yaml():
    out = _run(
        "import sys\n"
        "import elastrip.harness\n"
        "print(sorted(m for m in sys.modules if m == 'yaml' or m.startswith('yaml.')))\n"
        "import elastrip, elastrip.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    assert out.splitlines() == ["[]", "[]"]


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises
from elastrip.config import from_dict
from elastrip.harness import deterministic_run, monte_carlo

base = {"discretization": {"N1": 1, "N2": 1, "n_z": 8}, "surface": {"delta": 0.25},
        "source": {"j1": 1, "j2": 0}}
rough, _ = deterministic_run(from_dict({**base, "surface": {"delta": 0.25,
                                                            "terms": [[1, 0, 0.05, 0.0]]}}))
flat, _ = deterministic_run(from_dict(base))
mc = monte_carlo(from_dict({**base, "surface": {"delta": 0.25, "law_bands": [[1, 0, 0.05]],
                                                "M0": 0.3}}), n=2, seed=1)
print(rough.diagnostics["solve_method"], flat.diagnostics["solve_method"], mc.n_completed)
"""


def test_runs_complete_without_scipy():
    assert _run(_WITHOUT_SCIPY).split() == ["gmres", "direct", "2"]


def test_next_fast_len_matches_scipy():
    """The collocation sizes set the quadrature, so the rule must stay scipy's."""
    assert all(_next_fast_len(n) == scipy.fft.next_fast_len(n) for n in range(1, 4097))
