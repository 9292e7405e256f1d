import numpy as np
import pytest

from expmc import Binomial, Exponential, Gaussian, ParameterBox, Poisson

# (family, box) pairs covering every supported model on a workable box.
FAMILY_CASES = [
    (Gaussian(sigma=1.0), ParameterBox.symmetric(1.0)),
    (Gaussian(sigma=2.0), ParameterBox.symmetric(1.5)),
    (Binomial(trials=1), ParameterBox.symmetric(1.0)),
    (Binomial(trials=5), ParameterBox.symmetric(1.2)),
    (Poisson(), ParameterBox.symmetric(1.0)),
    (Exponential(), ParameterBox(-2.0, -0.4)),
]


def family_case_id(case):
    return f"{case[0].name}-{case[1].lo}:{case[1].hi}"


@pytest.fixture(params=FAMILY_CASES, ids=family_case_id)
def family_case(request):
    return request.param


def power_iteration_norm(a: np.ndarray, iters: int = 2000, seed: int = 0) -> float:
    """Independent operator-norm oracle: power iteration on A^T A."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.sqrt(v @ (a.T @ (a @ v))))
