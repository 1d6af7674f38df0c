"""Each parameter's range is written once, in SolverConfig.

The public kernels must accept and reject exactly the values that
SolverConfig accepts and rejects, with a ConfigError and without a numpy
warning, and an unknown field name is a ConfigError at every entry point.
"""

import math
import warnings

import numpy as np
import pytest

from dynlr import (
    ConfigError,
    SolverConfig,
    SparseTransform,
    data_consistency,
    default_config,
    ist_svt,
    learned_svt,
    solve_ista_sparse,
    tune_hyperparams,
)

from conftest import rand_image, rand_kspace

NT = 4
INF = math.inf
NAN = math.nan

# parameter -> (SolverConfig fields for a value, the kernel call with that value)
KERNELS = {
    "lambda2": (lambda v: {"lambda2": v, "lr_mode": "soft"}, lambda x, y, v: ist_svt(x, v, 0.1)),
    "rho": (lambda v: {"rho": v, "lr_mode": "soft"}, lambda x, y, v: ist_svt(x, 1e-3, v)),
    "p": (lambda v: {"p": v, "lr_mode": "soft"}, lambda x, y, v: ist_svt(x, 1e-3, 0.1, v)),
    "rank_k": (lambda v: {"rank_k": v}, lambda x, y, v: learned_svt(x, v)),
    "dc_mode": (lambda v: {"dc_mode": v}, lambda x, y, v: data_consistency(x, y, v, 1.0)),
    "dc_nu/weighted": (
        lambda v: {"dc_mode": "weighted", "dc_nu": v},
        lambda x, y, v: data_consistency(x, y, "weighted", v),
    ),
    "dc_nu/replace": (lambda v: {"dc_nu": v}, lambda x, y, v: data_consistency(x, y, "replace", v)),
    "transform": (lambda v: {"transform": v}, lambda x, y, v: SparseTransform(v)),
    "iterations": (
        lambda v: {"iterations": v},
        lambda x, y, v: solve_ista_sparse(y, SolverConfig(iterations=v)),
    ),
}

# (parameter, value, accepted)
TABLE = [
    ("lambda2", 0.0, True),
    ("lambda2", 1.5, True),
    ("lambda2", -1.0, False),
    ("lambda2", INF, False),
    ("lambda2", NAN, False),
    ("rho", 0.0, False),
    ("rho", 1e-3, True),
    ("rho", -1.0, False),
    ("rho", INF, False),
    ("rho", NAN, False),
    ("p", 0.0, False),
    ("p", 0.5, True),
    ("p", 1.0, True),
    ("p", 1.0 + 1e-12, False),
    ("p", INF, False),
    ("p", NAN, False),
    ("rank_k", 0, False),
    ("rank_k", 1, True),
    ("rank_k", np.int64(2), True),
    ("rank_k", NT, True),
    ("rank_k", NT + 1, False),
    ("rank_k", 2.0, False),
    ("rank_k", True, False),
    ("rank_k", INF, False),
    ("rank_k", NAN, False),
    ("dc_mode", "replace", True),
    ("dc_mode", "weighted", True),
    ("dc_mode", "blend", False),
    ("dc_nu/weighted", 0.0, True),
    ("dc_nu/weighted", 4.0, True),
    ("dc_nu/weighted", -1.0, False),
    ("dc_nu/weighted", INF, False),
    ("dc_nu/weighted", NAN, False),
    ("dc_nu/replace", 0.0, True),
    ("dc_nu/replace", -1.0, False),
    ("dc_nu/replace", INF, False),
    ("dc_nu/replace", NAN, False),
    ("transform", "temporal_fourier", True),
    ("transform", "temporal_haar", True),
    ("transform", "spatial_wavelet", False),
    ("iterations", 1, True),
    ("iterations", np.int64(2), True),
    ("iterations", 0, False),
    ("iterations", True, False),
]


def accepts(fn):
    """True if ``fn()`` returns, False if it raises ConfigError; anything else propagates."""
    try:
        fn()
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize(
    "param, value, accepted", TABLE, ids=[f"{p}={v!r}" for p, v, _ in TABLE]
)
def test_kernel_accepts_what_solver_config_accepts(rng, param, value, accepted):
    fields, call = KERNELS[param]
    assert accepts(lambda: SolverConfig(**fields(value)).validate_for(NT)) == accepted
    x = rand_image(rng, (6, 5, NT))
    y = rand_kspace(rng, (6, 5, NT))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert accepts(lambda: call(x, y, value)) == accepted


def test_unknown_config_field_is_config_error(rng):
    y = rand_kspace(rng, (6, 5, NT))
    ref = rand_image(rng, (6, 5, NT))
    entry_points = [
        lambda: default_config(y, bogus=1),
        lambda: SolverConfig().replaced(bogus=1, lambda1=0.5),
        lambda: tune_hyperparams(y, ref, {"bogus": [1]}, "ista"),
    ]
    for call in entry_points:
        with pytest.raises(ConfigError, match="bogus"):
            call()
