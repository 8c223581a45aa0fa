import warnings

import numpy as np
import pytest

from nlic import tensor as T

# When a @given test fails, hypothesis imports hypothesis.extra._patching,
# which imports libcst and through it mypy_extensions, whose TypedDict warns
# with a DeprecationWarning. The filterwarnings setting in pyproject.toml
# makes that warning an error inside hypothesis's pytest hook, which aborts
# the whole session. Imported once here, with the warning ignored, the
# module is cached and a failing property fails alone. Without libcst the
# import fails, and hypothesis does not need the module.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class KinkGuard:
    """Records on which side of its kink each non-smooth op's input lies.

    `leaky_relu` (kink at 0) and `clamp_min` (kink at its bound) are the only
    non-smooth ops in `nlic.tensor`. While `run` evaluates a function, every
    call to either appends `(op name, input >= kink)` to a trace, in call
    order; `>=` is the same branch test the ops use for their gradients.
    """

    def __init__(self):
        self._trace = None

    def observe(self, op_name, t, kink):
        if self._trace is not None:
            data = t.data if isinstance(t, T.Tensor) else np.asarray(t, dtype=np.float64)
            self._trace.append((op_name, data >= kink))

    def run(self, fn, arrays):
        """Evaluate fn(*arrays); return its value and the sign trace."""
        self._trace = []
        try:
            return fn(*arrays), self._trace
        finally:
            self._trace = None

    @staticmethod
    def check(base, probe, where):
        """Fail, naming the op and the probe, if any input changed side."""
        for call, ((op, b), (_, p)) in enumerate(zip(base, probe, strict=True)):
            crossed = np.argwhere(b != p)
            if crossed.size:
                pytest.fail(f"probe {where} moves {len(crossed)} input(s) of {op} "
                            f"call {call} across its kink, first at element "
                            f"{tuple(int(i) for i in crossed[0])}; the finite "
                            f"difference there averages two one-sided slopes")


@pytest.fixture
def kink_guard(monkeypatch):
    """A KinkGuard whose wrappers replace `nlic.tensor.leaky_relu` and
    `nlic.tensor.clamp_min` for the duration of the test."""
    guard = KinkGuard()
    leaky_relu, clamp_min = T.leaky_relu, T.clamp_min

    def guarded_leaky_relu(t):
        guard.observe("leaky_relu", t, 0.0)
        return leaky_relu(t)

    def guarded_clamp_min(t, bound):
        guard.observe("clamp_min", t, bound)
        return clamp_min(t, bound)

    monkeypatch.setattr(T, "leaky_relu", guarded_leaky_relu)
    monkeypatch.setattr(T, "clamp_min", guarded_clamp_min)
    return guard


def finite_difference(fn, arrays, guard, h=1e-5):
    """Central finite differences of scalar fn(*arrays) w.r.t. each array.

    Central differences estimate the gradient only when no probe crosses a
    non-smooth point: a probe that moves a `leaky_relu` or `clamp_min` input
    across its kink averages the two one-sided slopes and disagrees with
    backprop for a reason that is not an autodiff bug. `guard` (the
    `kink_guard` fixture) enforces this: it compares the side of every such
    input at each +h and -h probe with the base point, and fails naming the
    op and the probe when one changes.
    """
    _, base = guard.run(fn, arrays)
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            element = tuple(int(j) for j in np.unravel_index(i, arr.shape))
            values = []
            for step, label in ((h, "+h"), (-h, "-h")):
                flat[i] = orig + step
                value, probe = guard.run(fn, arrays)
                guard.check(base, probe, f"{label} on array {k} element {element}")
                values.append(value)
            flat[i] = orig
            gflat[i] = (values[0] - values[1]) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom
