"""The Smith normal form against the full-scan reference in oracles.py.

The reference is a different design on the same pivot rule: it keeps a
column index beside A's rows, writes every elementary operation out on its
own and finds each pivot and divisibility offender by a scan of the whole
remaining matrix.  The worker keeps A's rows alone and makes every row and
column addition one sparse update.  Without transforms the unit pivots are
eliminated first, so only the invariant factors must agree; with
transforms the pivot rule is the reference's, so every matrix must agree
entry for entry: on random matrices, and on the differentials the verbs
factor, and on the Koszul matrices up to n = 7.
"""

import random

import pytest

from momangle import moment_angle as ma
from momangle import taylor as ty
from momangle.complexes import SimplicialComplex, mask_face, reduced_chain_complex
from momangle.exactalg import (IntMatrix, _column_matrix, _eliminate_units, insertion_columns,
                               invariant_factors, smith_normal_form)
from oracles import random_complex, reference_koszul_matrix, reference_snf

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
    units, residual = _eliminate_units(A.columns())
    assert all(abs(v) != 1 for v in residual.entries.values())
    ref = [d for d in reference_snf(A, transforms=False).diag if d]
    assert ref[:units] == [1] * units
    assert invariant_factors(residual) == ref[units:]


def assert_matches_reference(A):
    snf, ref = smith_normal_form(A), reference_snf(A)
    assert (snf.S, snf.U, snf.V, snf.vinv, snf.diag) == (ref.S, ref.U, ref.V, ref.vinv, ref.diag)
    assert smith_normal_form(A, transforms=False) == reference_snf(A, transforms=False)


def test_koszul_blocks_match_reference():
    """Every Koszul matrix of the simplex on 1..n for n <= 7
    (`oracles.reference_koszul_matrix`, circle degree j - 1 to j) factors as
    the reference does, up to 35 x 35 (n = 7, j = 4): exact blocks whose
    invariant factors are all 1, which the staircase's homotopy solves in
    the same canonical way (tests/test_zigzag.py)."""
    seen = [reference_koszul_matrix(n, j)[2] for n in range(1, 8) for j in range(n + 2)]
    assert max(A.nnz() for A in seen) == 140
    for A in seen:
        assert_matches_reference(A)
        assert set(smith_normal_form(A).diag) <= {1}


def differentials(dims, columns):
    """The IntMatrix of every differential with entries of a column complex."""
    return [_column_matrix(dims.get(d - 1, 0), dims.get(d, 0), cols)
            for d, cols in columns.items() if cols]


def verb_differentials(K):
    """The star-quotient, Taylor-block and Hochster-block differentials of
    K, as the cellular, Taylor and Hochster tables build them."""
    out = []
    for smask in ma.lattice_supports(K):
        out += differentials(*insertion_columns(ma._star_cells(K, smask), smask))
    gens = K.generators()
    for union, _, words in ty._blocks(gens):
        out += differentials(*insertion_columns(words, gens.within(union)))
    for smask in ma.lattice_supports(K):
        C = reduced_chain_complex(K.faces_within(mask_face(smask)))
        out += [C.differential(d) for d, cols in C.columns.items() if cols]
    return out


def test_verb_differentials_match_reference():
    """The differentials of 20 seeded complexes on 5 to 8 vertices with at
    most m facets, every vertex a face, through all three tables: 1411
    matrices, up to 51 x 49 with 196 entries."""
    rng = random.Random(29)
    count = 0
    for _ in range(20):
        m = rng.randint(5, 8)
        K = random_complex(m, rng, m)
        K = SimplicialComplex.from_facets(m, [*K.facets, *((v,) for v in range(1, m + 1))])
        for A in verb_differentials(K):
            assert_matches_reference(A)
            count += 1
    assert count == 1411


@pytest.mark.parametrize("rows, residual_shape", [
    ([[1, 0, 0], [0, -1, 0]], (0, 0)),        # every pivot a unit: no entry left
    ([[1, 2], [3, 12]], (1, 1)),              # one residual entry, 6
    ([[2, 4, 0], [6, 8, 0], [0, 0, 10]], (3, 3)),  # no unit at all
])
def test_diagonal_without_transforms(rows, residual_shape):
    A = IntMatrix.from_rows(rows)
    _, residual = _eliminate_units(A.columns())
    assert (residual.rows, residual.cols) == residual_shape
    snf, ref = smith_normal_form(A, transforms=False), reference_snf(A)
    assert (snf.U, snf.V, snf.vinv) == (None, None, None)
    assert snf.diag == ref.diag and snf.S == ref.S
