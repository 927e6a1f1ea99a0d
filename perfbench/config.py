"""Fixed parameters of the benchmark: recipes, methods, sizes and tolerances.

The city recipe and router settings are *copied* from the paper-figure
benchmarks rather than imported, so those benchmarks can change without
moving this benchmark's numbers.  Every constant here is part of the
benchmark's definition: changing one changes what is measured.  Changing a
recipe, the settings, the methods or the pool parameters also needs the
golden records under ``golden/`` re-recorded (``run.py --record``).
"""

from __future__ import annotations

#: Workload names, in the order ``--smoke`` runs them.
WORKLOADS = ("offline_build", "route_mix", "serve_http")

#: The four measured methods, in the fixed order every pair is routed in.
#: The accelerator's evaluation and convolution memos are shared across
#: methods on one graph, so the order is part of the workload.
METHODS = ("T-B-P", "T-BS-60", "V-B-P", "V-BS-60")

#: Methods whose tables are built for every destination (binary-P is shared
#: by T-B-P and V-B-P), so a ``prewarm="all"`` boot of the route store
#: answers every query without a cache miss.
TABLE_METHODS = ("T-B-P", "T-BS-60", "V-BS-60")

#: Per scale: the routed store (route_mix / serve_http) and the offline build.
#: ``city`` is the aalborg-like peak model at tau=30 (the serving benchmarks'
#: city); its V-path closure takes ~30 s, so it is built once per source tree
#: and cached.  ``offline_build`` repeats its build several times per run, so
#: it mines the same city at tau=50, whose closure takes ~4 s and is still
#: dominated by joint assembly.
SCALES = {
    "city": {
        "route_recipe": {"dataset": "aalborg-like", "regime": "peak", "tau": 30},
        "offline_recipe": {"dataset": "aalborg-like", "regime": "peak", "tau": 50},
        "settings": {"max_budget": 2500.0, "max_explored": 1500, "heuristic_sweeps": 1},
        # Work per REFERENCE_SECONDS of --seconds, sized so a run's measured
        # phase takes about --seconds on the reference machine (2 cores):
        # pairs routed (each by all four methods) and offline builds.
        "route_pairs": 100,
        "serve_pairs": 52,
        "builds": 3,
        "pool_pairs": 300,
        "warmup_pairs": 12,
        "route_warmup_pairs": 12,
        "serve_warmup_pairs": 6,
        "offline_slice_pairs": 6,
        # Fresh processes per run: route_mix workers, serve_http servers.
        "route_repetitions": 6,
        "serve_repetitions": 3,
    },
    "tiny": {
        "route_recipe": {"dataset": "tiny", "regime": "peak", "tau": 20},
        "offline_recipe": {"dataset": "tiny", "regime": "peak", "tau": 20},
        "settings": {"max_budget": 900.0, "max_explored": 800, "heuristic_sweeps": 1},
        "route_pairs": 100,
        "serve_pairs": 52,
        "builds": 3,
        "pool_pairs": 30,
        "warmup_pairs": 3,
        "route_warmup_pairs": 3,
        "serve_warmup_pairs": 3,
        "offline_slice_pairs": 3,
        "route_repetitions": 2,
        "serve_repetitions": 2,
    },
}

#: Budget levels, as fractions of the least-expected-time path's expected
#: time (a subset of the paper's 50 %-150 % levels).
BUDGET_FRACTIONS = (0.8, 1.0, 1.25)

#: Trip-length strata, by the least-expected-time path's expected time
#: (terciles of the candidate pairs, as in fig13-18's distance buckets).
STRATA = ("short", "medium", "long")

#: Pairs whose least expected time is below this are too short to route.
MIN_EXPECTED_TIME = 60.0

#: The seed the golden pools were generated with (``--record``).
RECORD_SEED = 20240617

#: The seed of the one fixed order a run issues its measured pairs in.
ORDER_SEED = 17

#: Absolute tolerance on a recorded arrival probability.  Path edges must
#: match exactly; the probability may move by ULP-level rounding (e.g. a
#: vectorised assembly summing in another order).
PROBABILITY_TOLERANCE = 1e-9

#: The --seconds the per-scale work sizes are given for.
REFERENCE_SECONDS = 15.0

#: Set-ups timed per repetition (boots, dataset generations); setup_s is
#: the median over every repetition's samples.
SETUPS = 2

#: /healthz probes per server during set-up, on one keep-alive connection
#: and on fresh connections each.
HEALTHZ_PROBES = 20

#: Client connections for serve_http: one per core of the reference machine.
SERVE_CONNECTIONS = 2

#: Environment every measured process runs under.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONUNBUFFERED": "1",
}
