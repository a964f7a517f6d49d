"""Every package error survives a pickle round trip whole: a Monte Carlo
worker process sends its failing block's error to the caller by pickle."""

import pickle

import pytest

import siwf.errors as errors
from siwf.errors import (ConfigError, DensityMatrixError,
                         DimensionMismatchError, NormViolationError,
                         NotHermitianError, ReconstructionError, SiwfError,
                         StepFailureError, TrajectoryExtinctError)

#: one instance of every error type, with attributes that differ from the
#: defaults
EXAMPLES = [
    SiwfError("plain"),
    DimensionMismatchError("shape", expected=(2, 2), got=(3, 3)),
    NotHermitianError("H", 0.25),
    DensityMatrixError("trace", 1e-3),
    NormViolationError("norm", 2e-3),
    ReconstructionError("rho0", 3e-3),
    TrajectoryExtinctError(1e-13, 41, 435),
    StepFailureError(7, FloatingPointError("overflow")),
    ConfigError("dt", "must be positive"),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_examples_cover_every_error_type():
    assert {type(e) for e in EXAMPLES} == {SiwfError, *_subclasses(SiwfError)}
    assert all(type(e).__module__ == errors.__name__ for e in EXAMPLES)


@pytest.mark.parametrize("exc", EXAMPLES, ids=lambda e: type(e).__name__)
def test_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    attrs = {k: v for k, v in vars(exc).items() if k != "cause"}
    assert {k: v for k, v in vars(back).items() if k != "cause"} == attrs
    if isinstance(exc, StepFailureError):
        assert type(back.cause) is type(exc.cause)
        assert str(back.cause) == str(exc.cause)
