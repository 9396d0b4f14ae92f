"""The conformance witness is pinned: one seeded sweep, one digest.

The digest fingerprints every case, oracle and verdict of the sweep, so a
change to any schedule, replay, interpreter run or generated program the
oracles compare moves it.  The daemon's ``conform`` op and
``banger conform --seed 0 --runs 200`` run this same sweep.
"""

from __future__ import annotations

from repro.conformance import run

#: The digest of ``run(seed=0, runs=200)``, read on CPython 3.11.
WITNESS = "f1073ae5eb55b9ec"


def test_the_seed_0_sweep_has_the_pinned_digest_and_no_failure():
    report = run(seed=0, runs=200)
    assert report.failures == []
    assert report.stats.cases == 200 and not report.stats.truncated
    assert report.digest() == WITNESS
