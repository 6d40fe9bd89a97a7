"""The Smith normal form against the full-scan reference in oracles.py.

Without transforms the unit pivots are eliminated first, so only the
invariant factors must agree; with transforms the pivot rule is the
reference's, so every matrix must agree entry for entry.
"""

import pytest

from momangle.exactalg import (IntMatrix, _eliminate_units, invariant_factors,
                               smith_normal_form)
from oracles import reference_snf

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

VALUES = {
    "general": st.integers(-6, 6),
    "no units": st.sampled_from([-6, -4, -3, -2, 2, 3, 4, 6]),
    "boundary-like": st.sampled_from([-1, 1]),
}


@st.composite
def sparse_matrices(draw, max_side=9):
    """Sparse integer matrices of one entry kind, with a zero row and a
    zero column blanked out when `blank` is drawn."""
    m, n = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    if not (m and n):
        return IntMatrix(m, n)
    values = VALUES[draw(st.sampled_from(sorted(VALUES)))]
    entries = draw(st.dictionaries(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                                   values, max_size=m * n))
    if draw(st.booleans()):
        row, col = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        entries = {(i, j): v for (i, j), v in entries.items() if i != row and j != col}
    return IntMatrix(m, n, entries)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_invariant_factors_match_reference(A):
    ref = reference_snf(A, transforms=False)
    assert invariant_factors(A) == [d for d in ref.diag if d]
    assert smith_normal_form(A, transforms=False) == ref


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_transforms_match_reference_entry_for_entry(A):
    snf, ref = smith_normal_form(A), reference_snf(A)
    assert (snf.S, snf.U, snf.V, snf.vinv, snf.diag) == (ref.S, ref.U, ref.V, ref.vinv, ref.diag)
    assert snf.U @ A @ snf.V == snf.S
    assert snf.V @ snf.vinv == IntMatrix.identity(A.cols)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(max_side=14))
def test_unit_elimination_leaves_no_unit(A):
    units, residual = _eliminate_units(A)
    assert all(abs(v) != 1 for v in residual.entries.values())
    ref = [d for d in reference_snf(A, transforms=False).diag if d]
    assert ref[:units] == [1] * units
    assert invariant_factors(residual) == ref[units:]
