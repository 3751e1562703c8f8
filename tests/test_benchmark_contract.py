"""The benchmark's span tracer still finds every entry point it wraps.

``perfbench/spans.py`` patches each function named in its ``TRACED``
table in every ``vlfjscc`` module that binds it, and puts the originals
back afterwards.  A traced function that is renamed or removed would
otherwise surface only as a crash of ``perfbench/run.py --trace 1``; here
it fails the suite.  The tracer is loaded by path and left unmodified.
"""

import importlib
import importlib.util
from pathlib import Path

import vlfjscc

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_every_traced_entry_and_uninstall_restores():
    spans = load_spans()
    originals = {}
    for home, fname, _ in spans.TRACED:
        module = importlib.import_module(f"vlfjscc.{home}")
        assert callable(getattr(module, fname, None)), f"{home}.{fname}"
        originals[home, fname] = getattr(module, fname)

    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        for (home, fname), orig in originals.items():
            wrapper = getattr(importlib.import_module(f"vlfjscc.{home}"),
                              fname)
            assert wrapper is not orig, f"{home}.{fname} not wrapped"
            assert wrapper.__wrapped__ is orig
    finally:
        tracer.uninstall()

    assert len(patched) >= len(spans.TRACED)
    for module, attr, orig in patched:
        assert getattr(module, attr) is orig, f"{module.__name__}.{attr}"
    for (home, fname), orig in originals.items():
        assert getattr(importlib.import_module(f"vlfjscc.{home}"),
                       fname) is orig
    assert vlfjscc.min_tail_mass is originals["decoding", "min_tail_mass"]
