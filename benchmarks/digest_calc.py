"""One digest over what the calculator derives from every PITS text the repo ships.

Run it under two checkouts' ``src/`` and compare the line it prints: equal
digests mean a change to the calculator changed no token, tree, diagnostic,
abstract value, trial-run result, error message or profile line.

    PYTHONPATH=src python benchmarks/digest_calc.py

The texts are every task program of ``examples/*.json`` and of the designs
``bench/pipeline_batch.py`` builds (seed 1, full sizes), the PITS entries
of the conformance corpus (``tests/conformance/corpus``) and the first
``GENERATED`` PITS cases of the conformance generator at seed 0.  Each
distinct text is also cut at a quarter, a half and three quarters of its
length, so the digest holds the syntax errors of half-typed programs too.

Per text it records the token stream, the parsed ``Program``'s ``repr`` (or
the syntax error's message, line and column), the ``analyze`` diagnostics
and ``absint.interpret``'s analysis.  Where the inputs are known (a design's
tasks fed by its sequential reference run, a conformance case's bindings)
it also records a trial run's ``outputs``/``locals``/``ops``/``steps``/
``displayed`` and ``profile_program``'s per-line table, or the error's type
and message.  It prints the sha256 of those records (first 16 hex digits)
and the number of texts and runs.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pathlib
import sys
from typing import Any, Callable, Iterator

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # ``bench`` is imported, not edited
    sys.path.insert(0, str(ROOT))

from repro.analysis.absint import interpret  # noqa: E402
from repro.calc.analyze import analyze  # noqa: E402
from repro.calc.interp import run_program  # noqa: E402
from repro.calc.lexer import tokenize  # noqa: E402
from repro.calc.parser import parse  # noqa: E402
from repro.calc.profile import profile_program  # noqa: E402
from repro.conformance.cases import Case  # noqa: E402
from repro.conformance.generators import CaseGenerator  # noqa: E402
from repro.env.project import BangerProject  # noqa: E402
from repro.sim.dataflow_exec import collect_task_env  # noqa: E402

#: Conformance-generator PITS cases digested after the corpus.
GENERATED = 60
#: Fractions of each text's length at which a half-typed copy is cut.
CUTS = (0.25, 0.5, 0.75)

#: A text and the inputs of one trial run of it, or ``None`` when unknown.
Run = tuple[str, "dict[str, Any] | None"]


def canon(value: Any) -> Any:
    """A JSON-able, hash-order-free image of a derived value."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__] + [
            [f.name, canon(getattr(value, f.name))] for f in dataclasses.fields(value)
        ]
    if isinstance(value, np.ndarray):
        return ["array", list(value.shape), canon(value.tolist())]
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, dict):
        return [[canon(k), canon(v)] for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted((canon(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def attempt(fn: Callable[[], Any]) -> Any:
    """``fn()``, or its exception as ``[type, message]``."""
    try:
        return ["ok", fn()]
    except Exception as exc:  # the error is part of what is digested
        return [type(exc).__name__, str(exc)]


def _design_runs(project: BangerProject) -> Iterator[Run]:
    """Each task's program with the inputs the design's reference run feeds
    it, in topological order.  Once a task cannot be fed or fails, the rest
    of the design's tasks are yielded with no inputs (``None``): their texts
    are digested, not run."""
    tg = project.flat()
    bound = dict(tg.input_values)
    produced: dict[tuple[str, str], Any] | None = {}
    for task in tg.topological_order():
        source = tg.task(task).program
        if source is None:
            continue
        if produced is None:
            yield source, None
            continue
        try:
            env = collect_task_env(tg, task, produced, bound)
            inputs = {v: env[v] for v in parse(source).inputs}
            outputs = run_program(source, **inputs).outputs
        except Exception:
            produced = None
            yield source, None
            continue
        yield source, inputs
        for var, value in outputs.items():
            produced[(task, var)] = value


def projects() -> Iterator[BangerProject]:
    for path in sorted((ROOT / "examples").glob("*.json")):
        yield BangerProject.load(path)
    from bench.pipeline_batch import PipelineBatch
    from bench.spec import FULL

    for item in PipelineBatch(1, FULL).items:
        yield BangerProject.from_dict(item.doc)


def conformance_runs() -> Iterator[Run]:
    for path in sorted((ROOT / "tests" / "conformance" / "corpus").glob("pits-*.json")):
        case = Case.from_dict(json.loads(path.read_text())["case"])
        yield case.source, case.inputs()
    generator = CaseGenerator(0)
    for _ in range(GENERATED):
        case = generator.next_pits_case()
        yield case.source, case.inputs()


def runs() -> list[Run]:
    out: list[Run] = []
    for project in projects():
        out.extend(_design_runs(project))
    out.extend(conformance_runs())
    return out


def texts(pairs: list[Run]) -> list[str]:
    """Every distinct text, then its cut copies, in first-seen order."""
    whole = list(dict.fromkeys(source for source, _ in pairs))
    cut = [source[: int(len(source) * f)] for source in whole for f in CUTS]
    return list(dict.fromkeys(whole + cut))


def text_record(source: str) -> Any:
    return [
        source,
        attempt(lambda: [[t.type.value, t.value, t.line, t.column] for t in tokenize(source)]),
        attempt(lambda: repr(parse(source))),
        attempt(lambda: canon(analyze(source))),
        attempt(lambda: canon(interpret(source))),
    ]


def run_record(source: str, inputs: dict[str, Any]) -> Any:
    def profiled() -> Any:
        result = profile_program(source, **inputs)
        table = [[s.line, s.hits, canon(s.ops)] for _, s in sorted(result.lines.items())]
        return [canon(result.run), table]

    return [
        source,
        canon(inputs),
        attempt(lambda: canon(run_program(source, **inputs))),
        attempt(profiled),
    ]


def records() -> Iterator[Any]:
    pairs = runs()
    distinct = texts(pairs)
    trials = [(source, inputs) for source, inputs in pairs if inputs is not None]
    yield ["counts", len(distinct), len(trials)]
    for source in distinct:
        yield text_record(source)
    for source, inputs in trials:
        yield run_record(source, inputs)


def digest() -> tuple[str, int, int]:
    """The digest, the number of distinct texts and the number of runs."""
    h = hashlib.sha256()
    counts = None
    for record in records():
        if counts is None:
            counts = record[1:]
        h.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16], counts[0], counts[1]


def main() -> None:
    value, n_texts, n_runs = digest()
    print(f"{value} texts={n_texts} runs={n_runs}")


if __name__ == "__main__":
    main()
