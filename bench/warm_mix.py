"""``warm_mix``: repeated questions about the corpus, with store traffic beside.

*Why this workload:* most notebook traffic repeats.  Two connections draw
Zipf(s = 1) over 1152 keys — the 72 valid (corpus project, endpoint) pairs
times 16 one-node variants, more than twice the daemon's 512-entry response
cache — so the body-hash memo, the response LRU, ``ScheduleService`` and
HTTP framing carry the load while the schedulers only see the misses.
Ten percent of operations are project-store reads, writes, logs and diffs,
so a change that helps one side of the store and costs the other shows.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate
from typing import Any

from repro.graph.serialize import fingerprint
from repro.store.corpus import (
    corpus_names,
    example_names,
    example_project,
    family_project_doc,
)

from bench import inputs
from bench.loadgen import Op, Record, closed_loop
from bench.spec import BenchError, Sizes

TENANT = "bench"

#: Endpoint -> request options beside the project.
ENDPOINTS = {
    "/schedule": {"scheduler": "mh"},
    "/simulate": {"scheduler": "mh"},
    "/lint": {},
    "/codegen": {"target": "threads"},
}

ENDPOINT_KINDS = frozenset(e.strip("/") for e in ENDPOINTS)

#: Cumulative shares of the operation mix: compute, get, put, log/diff.
MIX = (0.90, 0.97, 0.99, 1.00)

#: Operations drawn per second of measurement (the loop ends early,
#: reporting fewer samples, if the daemon ever outruns this).
DRAWN_PER_SECOND = 1500


def corpus_docs() -> dict[str, dict[str, Any]]:
    """Every corpus project document, by name, built as the daemon seeds it."""
    examples = set(example_names())
    return {
        name: (example_project(name).to_dict() if name in examples
               else family_project_doc(name.removeprefix("family_")))
        for name in corpus_names()
    }


class WarmMix:
    name = "warm_mix"
    connections = 2
    group = 1

    def __init__(self, seed: int, sizes: Sizes, seconds: float):
        self.seed = seed
        self.sizes = sizes
        rng = random.Random(f"warm-mix:{seed}")
        docs = corpus_docs()
        programmed = set(example_names())
        pairs = [
            (name, endpoint)
            for name in docs
            for endpoint in ENDPOINTS
            if endpoint != "/codegen" or name in programmed
        ]
        self.n_pairs = len(pairs)
        keys = []
        for name, endpoint in pairs:
            for v in range(sizes.mix_variants):
                with inputs.edited(docs[name], v, 1.0 + (v + 1) / 16.0) as doc:
                    body = inputs.encode({"project": doc, **ENDPOINTS[endpoint]})
                keys.append(Op(endpoint.strip("/"), "POST", endpoint, body,
                               ctx=(name, endpoint, v)))
        rng.shuffle(keys)  # rank = position: the seed decides what is popular
        self.keys = keys
        weights = list(accumulate(1.0 / rank for rank in range(1, len(keys) + 1)))

        self.names = [f"p{i:02d}" for i in range(sizes.mix_store_names)]
        doc_list = [docs[name] for name in sorted(docs)]
        self._versions = 0

        def new_version(name: str) -> Op:
            n = self._versions
            self._versions += 1
            base = doc_list[n % len(doc_list)]
            with inputs.edited(base, n, 1.0 + (n + 1) / 1024.0) as doc:
                body = inputs.encode({"project": doc, "message": f"v{n}"})
                digest = fingerprint(doc)
            return Op("store_put", "POST", f"/projects/{TENANT}/{name}", body,
                      ctx={"name": name, "fingerprint": digest})

        # Two versions of every name before the clock starts, so every get,
        # log and diff during the run has something to answer with.
        self.setup_ops = [new_version(name) for name in self.names for _ in (0, 1)]

        total = sizes.mix_warmup_requests + int(seconds * DRAWN_PER_SECOND)
        self.first_index = sizes.mix_warmup_requests
        self.ops: list[Op] = []
        puts = 0
        for i in range(total):
            u = rng.random()
            if u < MIX[0]:
                self.ops.append(rng.choices(keys, cum_weights=weights)[0])
                continue
            name = rng.choice(self.names)
            path = f"/projects/{TENANT}/{name}"
            if u < MIX[1]:
                self.ops.append(Op("store_get", "GET", path, ctx={"name": name}))
            elif u < MIX[2]:
                self.ops.append(new_version(self.names[puts % len(self.names)]))
                puts += 1
            elif i % 2:
                self.ops.append(Op("store_log", "GET", path + "/log"))
            else:
                self.ops.append(Op("store_diff", "GET", path + "/diff/1/2"))
        self.warm_records: list[Record] = []

    # ------------------------------------------------------------------ #
    def warm(self, daemon: Any) -> None:
        """Seed the store, then run the head of the sequence to fill caches."""
        head = self.replay_warm_ops()
        result = closed_loop(
            daemon.port, self.connections,
            lambda i: head[i] if i < len(head) else None,
            seconds=float("inf"),
        )
        bad = [r for r in result.records if r.status != 200]
        if bad:
            raise BenchError(
                f"warm-up request failed: {bad[0].op.path} -> "
                f"{bad[0].status} {bad[0].raw[:200]!r}"
            )
        self.warm_records = result.records

    def make_op(self, index: int) -> Op | None:
        return self.ops[index] if index < len(self.ops) else None

    def replay_warm_ops(self) -> list[Op]:
        return self.setup_ops + self.ops[: self.first_index]

    def micro_doc(self) -> dict[str, Any]:
        return json.loads(self.keys[0].body)["project"]

    def input_sizes(self) -> dict[str, Any]:
        sizes = sorted(len(op.body) for op in self.keys)
        return {
            "pairs": self.n_pairs,
            "keys": len(self.keys),
            "body_bytes_median": sizes[len(sizes) // 2],
            "body_bytes_max": sizes[-1],
            "store_names": len(self.names),
        }

    # ------------------------------------------------------------------ #
    def verify(self, records: list[Record]) -> list[str]:
        first_body: dict[tuple, bytes] = {}
        posted: dict[tuple[str, int], str] = {}
        put_done: list[tuple[float, str, int]] = []
        failures = []

        def judge(record: Record) -> str | None:
            if record.status != 200:
                return f"status {record.status}: {record.raw[:200]!r}"
            op = record.op
            if op.kind in ENDPOINT_KINDS:
                if first_body.setdefault(op.ctx, record.raw) != record.raw:
                    return "a repeated key returned different bytes"
                return None
            doc = json.loads(record.raw)
            if op.kind == "store_put":
                if doc["project"] != op.ctx["fingerprint"]:
                    return "put answered with another fingerprint"
                posted[(op.ctx["name"], doc["version"])] = doc["project"]
                put_done.append((record.end, op.ctx["name"], doc["version"]))
            elif op.kind == "store_get":
                name, version = op.ctx["name"], doc["version"]
                if posted.get((name, version)) != doc["project"]:
                    return f"get returned v{version} with an unposted fingerprint"
                if fingerprint(doc["document"]) != doc["project"]:
                    return "get returned a document that does not hash to its fingerprint"
                floor = max((v for end, n, v in put_done
                             if n == name and end <= record.start), default=0)
                if version < floor:
                    return f"get returned v{version} after v{floor} was acknowledged"
            elif op.kind == "store_log":
                if len(doc["versions"]) < 2:
                    return "log lists fewer versions than were put"
            elif doc.get("type") != "banger-project-diff":
                return f"diff answered type {doc.get('type')!r}"
            return None

        # Puts are judged first so that a get racing a put on the other
        # connection finds the version it was served.
        ordered = sorted(self.warm_records + records, key=lambda r: r.op.kind != "store_put")
        measured = {id(r) for r in records}
        for record in ordered:
            try:
                problem = judge(record)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"malformed reply: {exc!r}"
            if problem and id(record) in measured:
                failures.append(f"{record.op.kind} {record.index}: {problem}")
        return failures

