"""The calculator's digest over every PITS text the repo ships is pinned.

``benchmarks/digest_calc.py`` hashes the tokens, trees, diagnostics,
abstract interpretations, trial runs and profiles of the examples, the
``pipeline_batch`` designs and the conformance PITS corpus.  A change to the
lexer, parser, analyzer or interpreter that moves any of them — one token
column, one error message, one ``ops`` count, one profile line — fails here.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: ``PYTHONPATH=src python benchmarks/digest_calc.py``
PINNED = ("06f6b8aa5cbd4149", 1061, 398)


def _load():
    path = ROOT / "benchmarks" / "digest_calc.py"
    spec = importlib.util.spec_from_file_location("digest_calc", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calc_digest_is_pinned():
    assert _load().digest() == PINNED
