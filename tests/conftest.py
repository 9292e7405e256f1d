import contextlib
import os
import signal
import threading

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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def within(seconds: int):
    """Raise TimeoutError in the block after ``seconds``, so a deadlock fails
    the test instead of hanging it (a forked child inherits no alarm)."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """The calls to os.fork made while the test runs."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@contextlib.contextmanager
def beside_another_thread():
    """Run the block while a second thread waits, so no child may be forked."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        yield
    finally:
        release.set()
        other.join(timeout=10.0)
    assert not other.is_alive()
