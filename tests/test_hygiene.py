"""Every top-level import of a package module is used, and no more loads.

No linter runs over this repository, so this is the check that keeps
dead imports out of ``src/vlfjscc``.  A name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in that module.
``__init__.py`` re-exports names and ``__future__`` imports bind nothing,
so both are skipped.  ``scipy``, which only the goodness-of-fit test
needs, loads on first use, so ``import vlfjscc`` stays fast; the ball
masses of the converse decoder use no ``numpy.fft``, so a tail
evaluation loads neither.  Nor does a small ``monte_carlo`` call: its
output-type score laws are plain numpy sorts and sums.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vlfjscc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"probability.py", "numerics.py",
                                         "simulation.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path) == []


def test_import_loads_neither_numpy_fft_nor_scipy():
    """Neither the import nor a tail evaluation at q = 2, N = 6 loads them."""
    probe = ("import sys, numpy, vlfjscc; "
             "post = vlfjscc.Posterior(2, 6, numpy.arange(64) / 2016); "
             "vlfjscc.min_tail_mass(post, vlfjscc.hamming_distortion(2), "
             "0.2); "
             "print(sorted(m for m in ('numpy.fft', 'scipy') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_small_monte_carlo_loads_neither_numpy_fft_nor_scipy():
    """64 sessions on BSC(0.1) and on a channel with zero entries, whose
    score laws take both the sort-free and the sorting merge."""
    probe = ("import sys, vlfjscc; "
             "channels = ([[0.9, 0.1], [0.1, 0.9]], "
             "[[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]]); "
             "models = [vlfjscc.SystemModel.build(vlfjscc.Pmf([0.5, 0.5]), "
             "vlfjscc.ChannelMatrix(W), vlfjscc.hamming_distortion(2), 0.2) "
             "for W in channels]; "
             "[vlfjscc.monte_carlo(m.derive_config(8, 0.08, 0.3), m, 64, "
             "vlfjscc.RngSpec(1)) for m in models]; "
             "print(sorted(m for m in ('numpy.fft', 'scipy') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
