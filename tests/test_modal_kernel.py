"""Property tests of the modal exponential and Gramian against mpmath.

Draws cover critical and near-critical damping, soft and stiff spectra and
windows from one step of 1/4800 up to 1.  The references are evaluated in
high precision from the same binary inputs, see ``oracles.modal_reference``.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamsteer import ModeSet, assemble_gramian
from beamsteer.semigroup import exp_entries

from oracles import ModeBlock, modal_reference

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)
BETAS = st.floats(1.0, 10.0) | st.floats(-16.0, -1.0).map(lambda e: 1.0 + 10.0**e)
LENGTHS = st.floats(0.5, 20.0)
MODE_INDICES = st.lists(st.integers(1, 128), min_size=1, max_size=4, unique=True).map(sorted)
TIMES = st.floats(1 / 4800, 1.0)


def _lambdas(length, indices):
    return (np.array(indices, dtype=float) * np.pi / length) ** 2


@PROPERTY
@given(beta=BETAS, length=LENGTHS, indices=MODE_INDICES, t=TIMES)
def test_exp_blocks_match_mpmath(beta, length, indices, t):
    lam = _lambdas(length, indices)
    got = np.stack(exp_entries(lam, beta, t, energy=True), axis=-1).reshape(-1, 2, 2)
    for j, lj in enumerate(lam):
        block, _ = modal_reference(lj, beta, t)
        want = mpmath.matrix(block)
        err = mpmath.mnorm(mpmath.matrix(got[j].tolist()) - want, "f")
        # e^{r1 t} carries the condition number 1 + |r1| t of its exponent: one
        # rounding of r1 moves the exact block by that many units; 1e-290
        # admits underflow
        r1 = ModeBlock(lj, beta).roots()[0]
        assert err <= 1e-14 * (1 + abs(r1) * t) * mpmath.mnorm(want, "f") + 1e-290


@PROPERTY
@given(beta=BETAS, length=LENGTHS, indices=MODE_INDICES, delta=TIMES)
def test_gramian_blocks_match_mpmath(beta, length, indices, delta):
    lam = _lambdas(length, indices)
    blocks = assemble_gramian(ModeSet(lam), beta, delta).blocks
    for j, lj in enumerate(lam):
        _, want = modal_reference(lj, beta, delta)
        for a in range(2):
            for b in range(2):
                scale = mpmath.sqrt(want[a][a] * want[b][b])
                assert abs(blocks[j, a, b] - want[a][b]) <= 1e-14 * scale


@pytest.mark.parametrize("beta", [1.0, 1.0 + 2e-6, 1.01, 2.0, 1e4])
@pytest.mark.parametrize("lam", [0.025, 1.0, 6.5e5])
def test_roots_match_mpmath(beta, lam):
    with mpmath.workdps(50):
        s = mpmath.sqrt(mpmath.mpf(beta) ** 2 - 1)
        want = (-mpmath.mpf(lam) / (beta + s), -mpmath.mpf(lam) * (beta + s))
    for got, ref in zip(ModeBlock(lam, beta).roots(), want):
        assert abs(got - ref) <= 4e-16 * abs(ref)


@pytest.mark.parametrize("beta", [1e5, 1e8])
def test_input_response_entry_a22_matches_mpmath_entrywise(beta):
    # a22 = phi'(t) falls from 1 through 0 to about r1 / gap while the
    # normwise test above sees only the O(1) entries; formed as
    # e^{r1 t} (e^{-gap t} + r1 ratio) it keeps its relative accuracy, where
    # e^{r1 t} + r2 phi cancelled to 0 once e^{r2 t} had decayed
    lam = _lambdas(3.5, range(1, 9))
    for t in np.geomspace(1e-9, 0.2, 41):
        a22 = exp_entries(lam, beta, t, energy=True)[3]
        for j, lj in enumerate(lam):
            want = modal_reference(lj, beta, t)[0][1][1]
            assert abs(a22[j] - want) <= 1e-13 * abs(want)
