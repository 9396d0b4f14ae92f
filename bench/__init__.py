"""The repository's one benchmark: Banger measured end to end and per layer.

Run one workload (the form ``BENCHMARK.json``'s ``command`` names)::

    python3 -m bench --workload edit_loop --seed 1 --seconds 15 --trace 0

or every workload plus its traced run, or compare two result files::

    python3 -m bench [--seed N] [--smoke] [--runs K] [--out FILE]
    python3 -m bench compare A.json B.json

See ``bench/README.md`` for what each workload and metric means.
"""
