"""Reference oracles the tests and benchmarks check the package against.

Each module keeps a plain, obviously correct implementation of a computation
the package runs in optimised form, so the two can be compared result for
result and timed against each other:

* :mod:`tests.oracles.core` — the dict-and-tuple distribution kernel and the
  nested-loop Eq. 1 assembly,
* :mod:`tests.oracles.chain` — the dict-of-dicts PACE chain fold,
* :mod:`tests.oracles.heuristics` — the cell-at-a-time Eq. 5 table builder,
  with the paper's floor grid rounding for the Table 4 worked example,
* :mod:`tests.oracles.routing` — the per-element search loops of every router.

Nothing under ``src/`` imports them (``tests/test_public_api.py`` checks it).
"""
