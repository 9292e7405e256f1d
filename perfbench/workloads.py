"""Workload definitions: the expmc CLI command each one drives, its config,
and which instances (CLI seeds) a benchmark seed selects.

An *op* is the unit whose latency is reported:

* ``rate_sweep_g60`` — one ``fit`` inside one ``expmc rate-sweep`` call;
* ``fit_binom300`` and ``fit_ks_g60`` — one ``expmc fit`` call;
* ``concentration_pois100`` — one ``expmc concentration`` call.

A *pass* is the workload's fixed set of ops; ``wall_s`` is its wall time.
Fit workloads draw the CLI seeds of a pass from a fixed pool, so every op
has a reference objective recorded at the seed commit (``reference.json``).
Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Acceptance criterion 1 (tests/test_acceptance.py::test_01_rate_scaling).
ACCEPTANCE_01 = {
    "family": {"family": "gaussian", "sigma": 1.0},
    "sampling": {"sampling": "uniform"},
    "m1": 60, "m2": 60, "rank": 3, "gamma": 1.0,
    "n_grid": [6000, 12000, 24000, 48000],
    "replicates": 10,
    "lambda_mode": "oracle",
    "truth": "flat",
}
ACCEPTANCE_01_SEED = 2024
SLOPE_WINDOW = (0.8, 1.2)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    pool: tuple[int, ...]  # CLI seeds an op may use
    ops_per_pass: int  # CLI calls per pass

    @property
    def is_fit(self) -> bool:
        return self.command == "fit"

    def pass_seeds(self, seed: int) -> list[int]:
        """CLI seeds of the pass selected by the benchmark seed.

        Concentration has no pool and takes the benchmark seed itself; the
        rate sweep keeps the seed its acceptance config pins.
        """
        if not self.pool:
            return [seed] * self.ops_per_pass
        if len(self.pool) == 1:
            return list(self.pool) * self.ops_per_pass
        rng = np.random.default_rng([seed, 0x6578706D63])
        picks = rng.choice(len(self.pool), self.ops_per_pass, replace=False)
        return [self.pool[int(i)] for i in picks]


FIT_POOL = tuple(range(1000, 1032))

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="rate_sweep_g60",
            command="rate-sweep",
            config=ACCEPTANCE_01,
            pool=(ACCEPTANCE_01_SEED,),
            ops_per_pass=1,
        ),
        Workload(
            name="fit_binom300",
            command="fit",
            config={
                "family": {"family": "binomial", "trials": 1},
                "sampling": {"sampling": "uniform"},
                "m1": 300, "m2": 300, "rank": 3, "gamma": 1.0, "truth": "flat",
                "n": 120000, "lambda_mode": "oracle", "mode": "likelihood",
            },
            pool=FIT_POOL,
            ops_per_pass=8,
        ),
        Workload(
            name="concentration_pois100",
            command="concentration",
            config={
                "family": {"family": "poisson"},
                "sampling": {"sampling": "uniform"},
                "m1": 100, "m2": 100, "rank": 3, "gamma": 1.0, "truth": "flat",
                "n": 40000, "reps": 500,
            },
            pool=(),
            ops_per_pass=1,
        ),
        Workload(
            name="fit_ks_g60",
            command="fit",
            config={
                "family": {"family": "gaussian", "sigma": 1.0},
                "sampling": {"sampling": "uniform"},
                "m1": 60, "m2": 60, "rank": 3, "gamma": 1.0, "truth": "flat",
                "n": 24000, "lambda_mode": "oracle", "mode": "known_sampling",
            },
            pool=FIT_POOL,
            ops_per_pass=8,
        ),
    ]
}

