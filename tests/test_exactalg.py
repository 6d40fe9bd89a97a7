import random
from math import prod

import pytest

from momangle import complexes as cx
from momangle import exactalg
from momangle import moment_angle
from momangle.exactalg import (ChainComplex, HomologyGroup, IntMatrix, column_homology,
                               direct_sum, image_factors, insert_bits, insertion_columns,
                               insertion_complex, invariant_factors, kernel_basis,
                               smith_normal_form, solve_integer)
from momangle.moment_angle import degree_sums, lattice_supports, zk_homology_by_support
from momangle.taylor import taylor_homology
from oracles import (all_subsets, dense_homology, dense_snf_diagonal, random_complex,
                     reference_column_groups, reference_direct_sum, reference_snf,
                     reference_star_cells,
                     reference_zk_block, reference_zk_star_quotient,
                     boundary_vector, chain_from_vector, identity_matrix, to_dense)
from test_split import labelled_supports, star_quotient


def dense_det(rows):
    """Fraction-free determinant for small unimodularity checks."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    for t in range(n):
        piv = next((i for i in range(t, n) if a[i][t]), None)
        if piv is None:
            return 0
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            sign = -sign
        for i in range(t + 1, n):
            while a[i][t]:
                q = a[t][t] // a[i][t] if a[i][t] else 0
                a[t] = [x - q * y for x, y in zip(a[t], a[i])]
                a[t], a[i] = a[i], a[t]
                sign = -sign
    det = sign
    for t in range(n):
        det *= a[t][t]
    return det


def test_snf_textbook_example():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    snf = smith_normal_form(A)
    assert list(snf.diag) == [2, 4]
    assert dense_snf_diagonal([[2, 4], [6, 8]]) == [2, 4]


def test_snf_identity_and_zero():
    I3 = identity_matrix(3)
    snf = smith_normal_form(I3)
    assert snf.S == I3 and snf.U == I3 and snf.V == I3
    Z = IntMatrix.zero(2, 3)
    assert smith_normal_form(Z).diag == ()


def test_snf_transforms_multiply_back():
    rng = random.Random(11)
    for trial in range(28):
        if trial < 25:
            m, n = rng.randint(1, 7), rng.randint(1, 7)
        else:
            m, n = rng.randint(15, 22), rng.randint(15, 22)  # ~400 nonzeros
        A = IntMatrix(m, n, {(i, j): rng.randint(-9, 9)
                             for i in range(m) for j in range(n)
                             if rng.random() < 0.8})
        snf = smith_normal_form(A)
        assert snf.U @ A @ snf.V == snf.S
        assert abs(dense_det(to_dense(snf.U))) == 1
        assert abs(dense_det(to_dense(snf.V))) == 1
        assert snf.V @ snf.vinv == identity_matrix(n)
        for a, b in zip(snf.diag, snf.diag[1:]):
            if a:
                assert b % a == 0
        assert [abs(d) for d in snf.diag if d] == dense_snf_diagonal(to_dense(A))


def test_solve_integer_basics():
    assert solve_integer(IntMatrix.from_rows([[2]]), {0: 4}) == {0: 2}
    assert solve_integer(IntMatrix.from_rows([[2]]), {0: 3}) is None


def test_int_matrix_refuses_out_of_range_entries():
    for key in [(2, 0), (0, 3), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="outside 2x3"):
            IntMatrix(2, 3, {key: 1})
    assert IntMatrix(2, 3, {(1, 2): 5, (0, 0): 0}).entries == {(1, 2): 5}


def test_smith_form_solve_matches_reference():
    # the canonical solution from the reference's transforms, on systems
    # with and without a solution
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = IntMatrix(m, n, {(i, j): rng.randint(-3, 3)
                             for i in range(m) for j in range(n) if rng.random() < 0.5})
        b = {i: rng.randint(-4, 4) for i in range(m) if rng.random() < 0.6}
        ref = reference_snf(A)
        c = ref.U.apply(b)
        want = None
        if all(c.get(t, 0) % d == 0 for t, d in enumerate(ref.diag)) and \
                not any(v for t, v in c.items() if t >= ref.rank):
            want = ref.V.apply({t: c.get(t, 0) // d for t, d in enumerate(ref.diag)})
        assert smith_normal_form(A).solve(b) == want
        assert solve_integer(A, b) == want


def test_solve_integer_reproduces_rhs():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = IntMatrix(m, n, {(i, j): rng.randint(-4, 4)
                             for i in range(m) for j in range(n)
                             if rng.random() < 0.7})
        x0 = {j: rng.randint(-3, 3) for j in range(n)}
        b = A.apply(x0)
        x = solve_integer(A, b)
        assert x is not None
        assert A.apply(x) == b


def test_solve_is_canonical_under_kernel_shift():
    # boundary of the triangle boundary: solutions differ by 1-cycles, the
    # canonical one has zero kernel coordinates in the SNF transform basis
    A = IntMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    b = {0: -1, 1: 1}
    x = solve_integer(A, b)
    assert A.apply(x) == b
    assert solve_integer(A, b) == x


def test_kernel_basis_spans_kernel():
    A = IntMatrix.from_rows([[1, 1, 1]])
    basis = kernel_basis(A)
    assert len(basis) == 2
    for col in basis:
        assert not A.apply(col)


def triangle_boundary_complex():
    # reduced chains of bd(1,2,3): degrees -1..1
    basis = {-1: [()], 0: [(1,), (2,), (3,)], 1: [(1, 2), (1, 3), (2, 3)]}
    d0 = IntMatrix.from_rows([[1, 1, 1]])
    d1 = IntMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    return ChainComplex(basis, {0: d0.columns(), 1: d1.columns()})


def test_homology_of_circle():
    C = triangle_boundary_complex()
    assert C.homology(1) == HomologyGroup(1)
    assert C.homology(0) == HomologyGroup(0)
    assert C.homology(5) == HomologyGroup(0)


def test_homology_zero_differentials():
    C = ChainComplex({0: list("abc")}, {})
    assert C.homology(0) == HomologyGroup(3)


def test_homology_projective_plane(rp2):
    from momangle.complexes import reduced_chain_complex
    C = reduced_chain_complex(rp2.faces)
    assert C.homology(1) == HomologyGroup(0, (2,))
    assert C.homology(2) == HomologyGroup(0)


def test_class_of_boundary_and_generator():
    C = triangle_boundary_complex()
    z = {(1, 2): 1, (2, 3): 1, (1, 3): -1}
    cls = C.class_of(1, z)
    assert cls.orders == (0,)
    assert cls.coords[0] in (1, -1)
    bdry = chain_from_vector(C, 0, boundary_vector(C, 1, {(1, 2): 1}))
    cls0 = C.class_of(0, bdry)
    assert cls0.is_boundary


def test_class_torsion_projective_plane(rp2):
    from momangle.complexes import reduced_chain_complex
    C = reduced_chain_complex(rp2.faces)
    # find a generator of H_1 = Z/2 and check that twice it bounds
    cycles = kernel_basis(C.differential(1))
    gen = None
    for col in cycles:
        chain = chain_from_vector(C, 1, col)
        cls = C.class_of(1, chain)
        if not cls.is_boundary:
            gen = chain
            break
    assert gen is not None
    double = {k: 2 * v for k, v in gen.items()}
    assert C.class_of(1, double).is_boundary


def test_not_a_cycle_rejected():
    C = triangle_boundary_complex()
    with pytest.raises(ValueError):
        C.class_of(1, {(1, 2): 1})


def test_homology_invariant_under_unimodular_change():
    rng = random.Random(3)
    C = triangle_boundary_complex()
    n = C.dim(1)
    # random unimodular P from elementary operations
    P = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        for k in range(n):
            P[i][k] += q * P[j][k]
    Pm = IntMatrix.from_rows(P)
    d1 = C.differential(1) @ Pm
    C2 = ChainComplex({-1: C.basis[-1], 0: C.basis[0], 1: list(range(n))},
                      {0: C.differential(0).columns(), 1: d1.columns()})
    assert C2.homology(1) == C.homology(1)
    assert C2.homology(0) == C.homology(0)


def test_d_squared_enforced():
    bad = {0: IntMatrix.from_rows([[1, 0], [0, 1]]),
           1: IntMatrix.from_rows([[1, 1], [1, 0]])}
    with pytest.raises(ValueError):
        ChainComplex({-1: ["x", "y"], 0: ["a", "b"], 1: ["u", "v"]},
                     {d: A.columns() for d, A in bad.items()})


@pytest.mark.parametrize("columns, message", [
    # d_1 has two columns and one row: column 2 and row 1 are outside
    ({1: {2: [(0, 1)]}}, "bad column count"),
    ({1: {0: [(1, 1)]}}, "bad row count"),
])
def test_index_outside_the_basis_is_refused(columns, message):
    with pytest.raises(ValueError, match=f"differential at degree 1: {message}"):
        ChainComplex({0: ["x"], 1: ["a", "b"]}, columns)


def test_zero_values_in_columns_are_dropped():
    """A zero value in a column is no entry: it never reaches the SNF as a
    pivot, in `column_homology` or in a `ChainComplex`."""
    dims, basis = {0: 2, 1: 1}, {0: ["x", "y"], 1: ["a"]}
    want = {0: HomologyGroup(1, (2,))}
    assert column_homology(dims, {1: {0: [(0, 0), (1, 2)]}}) == want
    assert ChainComplex(basis, {1: {0: [(0, 0), (1, 2)]}}).homology_all() == want
    assert ChainComplex(basis, {1: {0: [(0, 0)]}}).homology(0) == HomologyGroup(2)


@pytest.mark.parametrize("columns", [
    # kernel of d_0 is spanned by (1, -1, 0); the last column leaves it in one entry
    [(1, -1, 0), (2, -2, 0), (1, -1, 1)],
    # the bad entry is 1 + 1 from two terms that should have cancelled
    [(1, -1, 0), (1, 1, 0), (0, 0, 0)],
])
def test_d_squared_one_bad_entry(columns):
    d0 = IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    d1 = IntMatrix.from_rows([list(row) for row in zip(*columns)])
    assert sum(1 for v in (d0 @ d1).entries.values() if v) == 1
    with pytest.raises(ValueError, match=r"d\^2 != 0 between degrees 1 and -1"):
        ChainComplex({-1: ["x", "y"], 0: ["a", "b", "c"], 1: ["u", "v", "w"]},
                     {0: d0.columns(), 1: d1.columns()})
    # the same complex with the bad column dropped is accepted
    ok = IntMatrix.from_rows([list(row) for row in zip(*columns[:1])])
    ChainComplex({-1: ["x", "y"], 0: ["a", "b", "c"], 1: ["u"]},
                 {0: d0.columns(), 1: ok.columns()})


def test_direct_sum_invariant_factors():
    a = HomologyGroup(1, (2,))
    b = HomologyGroup(0, (3,))
    assert direct_sum(a, b) == HomologyGroup(1, (6,))
    c = HomologyGroup(0, (2,))
    assert direct_sum(a, c) == HomologyGroup(1, (2, 2))


def test_direct_sum_against_factorisation():
    """The gcd and lcm sweep gives the invariant factors that regrouping the
    primary parts gives, on seeded groups with shared and coprime torsion."""
    rng = random.Random(1905)

    def random_group():
        group = HomologyGroup(rng.randint(0, 2))
        for _ in range(rng.randint(0, 3)):
            cyclic = HomologyGroup(0, (rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 25, 30)),))
            group = reference_direct_sum(group, cyclic)
        return group

    for _ in range(2000):
        a, b = random_group(), random_group()
        assert direct_sum(a, b) == reference_direct_sum(a, b), (a, b)


def test_direct_sum_merges_chains_and_sweeps_the_rest(monkeypatch):
    """When the sorted merge of the two torsion tuples divides in turn,
    `direct_sum` returns it with no sweep; every other merge goes through
    the pairwise sweep, and both agree with the sweep and with the
    factorisation reference on seeded groups, many copies of one factor
    among them."""
    assert direct_sum(HomologyGroup(0, (2,)), HomologyGroup(0, (3,))) == HomologyGroup(0, (6,))
    assert direct_sum(HomologyGroup(1, (2, 4)), HomologyGroup(0, (8,))) == HomologyGroup(1, (2, 4, 8))
    assert direct_sum(HomologyGroup(0, (2, 4)), HomologyGroup(2, (3,))) == HomologyGroup(2, (2, 12))
    assert direct_sum(HomologyGroup(0, (2, 4)), HomologyGroup(0, (6,))) == HomologyGroup(0, (2, 2, 12))
    rng = random.Random(37)
    factors = (2, 3, 4, 6, 8, 9, 12, 25)
    sweeps = []
    sweep = exactalg._sweep
    monkeypatch.setattr(exactalg, "_sweep", lambda fs: sweeps.append(1) or sweep(fs))

    def random_group():
        if rng.random() < 0.3:  # a cellular degree sum: one factor many times
            return HomologyGroup(rng.randint(0, 3), (rng.choice(factors),) * rng.randint(1, 40))
        torsion = sweep([rng.choice(factors) for _ in range(rng.randint(0, 4))])
        return HomologyGroup(rng.randint(0, 3), torsion)

    chains = 0
    for _ in range(2000):
        a, b = random_group(), random_group()
        merged = sorted(a.torsion + b.torsion)
        chain = all(y % x == 0 for x, y in zip(merged, merged[1:]))
        before = len(sweeps)
        got = direct_sum(a, b)
        assert len(sweeps) == before + (not chain), (a, b)
        assert got == HomologyGroup(a.rank + b.rank, sweep(a.torsion + b.torsion)), (a, b)
        assert got == reference_direct_sum(a, b), (a, b)
        chains += chain
    assert 400 < chains < 1600


def test_shared_groups_equal_fresh_ones(rp2):
    """The column rule and `direct_sum` take their groups from one memo:
    each equals the HomologyGroup built afresh from its rank and torsion,
    and one (rank, torsion) is one shared value.  The degree sums of the
    cellular tables and seeded sums, torsion-free or with torsion on either
    side, still match the factorisation reference, and a memo miss still
    checks the invariant factors."""
    rng = random.Random(26)
    torsion = 0
    for K in [rp2] + [random_complex(rng.randint(3, 7), rng) for _ in range(20)]:
        per_support = zk_homology_by_support(K)
        want = {}
        for (_, d), h in per_support.items():
            assert h == HomologyGroup(h.rank, h.torsion), (K, d)
            assert exactalg._shared_group(h.rank, h.torsion) is h, (K, d)
            want[d] = reference_direct_sum(want[d], h) if d in want else h
        sums = degree_sums(per_support)
        assert sums == dict(sorted(want.items())), K
        assert all(h == HomologyGroup(h.rank, h.torsion) for h in sums.values()), K
        torsion += any(h.torsion for h in sums.values())
    assert torsion
    for _ in range(200):
        a, b = (HomologyGroup(rng.randint(0, 2), rng.choice(((), (2,), (2, 4), (3,), (6, 12))))
                for _ in range(2))
        first = direct_sum(a, b)
        assert first == reference_direct_sum(a, b) and direct_sum(a, b) is first, (a, b)
    with pytest.raises(ValueError, match="divide successively"):
        exactalg._shared_group(0, (3, 2))


def test_one_column_gcd_is_the_invariant_factor():
    """A differential with one nonzero column has one invariant factor, the
    gcd of the column's entries (none when they are all zero), as the Smith
    normal form finds: on seeded columns with zeros, negatives and
    non-units, directly and through the column rule."""
    assert exactalg._factors({0: [(0, 2), (1, 4), (2, -6)]}) == [2]
    assert exactalg._factors({0: [(0, -4), (1, 6)]}) == [2]
    assert exactalg._factors({0: [(0, 0), (1, 0)]}) == []
    rng = random.Random(28)
    values = (0, 0, 1, -1, 2, -2, 3, 4, -4, 6, -6, 9, 12, -15, 2 ** 61 - 1)
    torsion = 0
    for _ in range(1000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 4)
        j = rng.randrange(cols)
        column = [(i, rng.choice(values)) for i in sorted(rng.sample(range(rows), rng.randint(1, rows)))]
        A = IntMatrix(rows, cols, {(i, j): v for i, v in column})
        got = exactalg._factors({j: column})
        assert got == invariant_factors(A) == [
            f for f in reference_snf(A, transforms=False).diag if f], column
        dims, columns = {0: rows, 1: cols}, {1: {j: column}}
        assert column_homology(dims, columns) == reference_column_groups(dims, columns), column
        torsion += got not in ([], [1])
    assert torsion > 300


def test_direct_sum_of_a_large_prime():
    """No trial division: a Mersenne prime's torsion sums at once."""
    p = 2 ** 61 - 1
    assert direct_sum(HomologyGroup(0, (p,)), HomologyGroup(0, (2,))) == HomologyGroup(0, (2 * p,))
    assert (direct_sum(HomologyGroup(1, (p,)), HomologyGroup(0, (p, 3 * p)))
            == HomologyGroup(1, (p, p, 3 * p)))


def test_invariant_factors_zero_matrix():
    assert invariant_factors(IntMatrix.zero(3, 2)) == []


def test_entry_free_differentials_are_not_reduced(monkeypatch, rp2, sub5):
    """The star quotients' differentials are often entry-free: none of those
    reaches the Smith form's worker, and every block's homology is still
    the dense reference's."""
    reduced = []

    class Spy(exactalg._SnfWorker):
        def __init__(self, A):
            reduced.append(A)
            super().__init__(A)
    monkeypatch.setattr(exactalg, "_SnfWorker", Spy)
    rng = random.Random(8)
    entry_free = 0
    for K in [rp2, sub5] + [random_complex(rng.randint(3, 6), rng) for _ in range(12)]:
        for S in labelled_supports(K):
            C = star_quotient(K, S)
            for d in C.degrees:
                out, into = C.differential(d), C.differential(d + 1)
                entry_free += out.is_zero() + into.is_zero()
                h = C.homology(d)
                assert (h.rank, h.torsion) == dense_homology(
                    to_dense(out), to_dense(into), C.dim(d)), (K, S, d)
    assert entry_free > 100 and reduced
    assert not any(A.is_zero() for A in reduced)


def test_a_residual_is_eliminated_once(monkeypatch, rp2):
    """RP^2's Taylor table reads its blocks of two degrees as one complex
    per shift 2|S|, six blocks at 10 and one at 12, and eliminates the unit
    pivots of each one's differential once: two passes, and the 1 x 1
    residual (2) of its Z/2 goes straight to the Smith form's worker, with
    no second, empty pass."""
    passes = []
    real = exactalg._eliminate_units
    monkeypatch.setattr(exactalg, "_eliminate_units",
                        lambda columns: passes.append(columns) or real(columns))
    assert taylor_homology(rp2)[8] == HomologyGroup(0, (2,))
    assert len(passes) == 2


def test_from_boundary_keeps_label_order():
    table = {"a": {"x": 1, "y": -1}, "b": {"y": 2}}
    C = ChainComplex.from_boundary({1: ["b", "a"], 0: ["y", "x"]},
                                   lambda lab: table.get(lab, {}))
    assert C.basis[1] == ["b", "a"]
    assert to_dense(C.differential(1)) == [[2, -1], [0, 1]]


def test_from_boundary_writes_nonzero_columns_only():
    """`from_boundary` keeps an entry per nonzero coefficient, in the order
    the boundary gives them, a column only where it has one, and an empty
    column dict for every degree of the basis."""
    table = {"a": {"x": 0}, "b": {"y": 3, "x": 0, "z": -1}}
    C = ChainComplex.from_boundary({2: [], 1: ["a", "b"], 0: ["x", "y", "z"]},
                                   lambda lab: table.get(lab, {}))
    assert C.columns == {2: {}, 1: {1: [(1, 3), (2, -1)]}, 0: {}}


def test_from_boundary_rejects_unknown_target():
    with pytest.raises(ValueError, match="not in the target basis"):
        ChainComplex.from_boundary({1: ["a"], 0: ["x"]},
                                   lambda lab: {"z": 1} if lab == "a" else {})


def test_snf_matches_reference_on_chain_complexes(rp2, sub5):
    """Every differential of the Z_K and Taylor blocks of two complexes: the
    same Smith form as the full-scan reference, with and without transforms."""
    from momangle.taylor import taylor_components
    blocks = [reference_zk_block(rp2, S) for S in all_subsets(rp2.m)]
    blocks += list(taylor_components(sub5).values())
    count = 0
    for C in blocks:
        for A in map(C.differential, C.columns):
            assert smith_normal_form(A) == reference_snf(A)
            assert smith_normal_form(A, transforms=False) == reference_snf(A, transforms=False)
            count += A.nnz() > 0
    assert count > 100


def dense_groups(C):
    """{d: group} of a labelled complex from its dense matrices, nontrivial only."""
    out = {}
    for d in C.degrees:
        rank, torsion = dense_homology(to_dense(C.differential(d)),
                                       to_dense(C.differential(d + 1)), C.dim(d))
        if rank or torsion:
            out[d] = HomologyGroup(rank, torsion)
    return out


def test_column_rule_matches_the_reference_blocks(rp2, sub5):
    """The column rule on the insertion columns of the star quotients' words,
    placed in Z_K degrees, gives the homology of the cell-by-cell mask
    builder (`reference_star_cells`) and the dense homology of the reference
    quotient and of the whole block, Z/2 included."""
    rng = random.Random(19)
    torsion = 0
    for K in [rp2, sub5] + [random_complex(rng.randint(3, 6), rng) for _ in range(10)]:
        for smask in lattice_supports(K):
            S = cx.mask_face(smask)
            groups = column_homology(*insertion_columns(moment_angle._star_cells(K, smask), smask))
            got = {2 * len(S) + d: h for d, h in groups.items()}
            cells, columns = reference_star_cells(S, K.face_masks_within(S), K.face_masks)
            assert got == column_homology({d: len(fs) for d, fs in cells.items()}, columns)
            R = reference_zk_star_quotient(K, S)
            assert got == R.homology_all() == dense_groups(R), (K, S)
            assert got == dense_groups(reference_zk_block(K, S)), (K, S)
            torsion += any(h.torsion for h in got.values())
    assert torsion


def test_image_factors_match_class_coordinates(rp2, sub5):
    """On the star quotients of RP^2, the paper's complex and seeded random
    complexes, `image_factors` agrees with the class coordinates of
    `ChainComplex.class_of` on the same columns labelled by their words: a
    kernel cycle, or twice it, bounds exactly when B and [B | z] have as many
    factors with one product, and where H is free the factors of [B | Z] past
    B's count, Z random sums of kernel cycles, are those of Z's coordinate
    rows."""
    rng = random.Random(48)
    seen = set()
    for K in [rp2, sub5] + [random_complex(rng.randint(3, 6), rng) for _ in range(10)]:
        for smask in lattice_supports(K):
            S = cx.mask_face(smask)
            words = moment_angle._star_cells(K, smask)
            C = insertion_complex(words, smask, int)
            for d in C.degrees:
                cycles = [chain_from_vector(C, d, col) for col in kernel_basis(C.differential(d))]
                for z in cycles:
                    for k in (1, 2):
                        kz = {word: k * c for word, c in z.items()}
                        image, with_z = image_factors(words, smask, -d, [kz])
                        bounds = len(image) == len(with_z) and prod(image) == prod(with_z)
                        assert bounds == C.class_of(d, kz).is_boundary, (K, S, d, kz)
                        seen.add((k, bounds, bool(C.homology(d).torsion)))
                h = C.homology(d)
                if not cycles or h.torsion:
                    continue
                Z = [{} for _ in range(h.rank)]
                for chain in Z:
                    for z in cycles:
                        k = rng.randint(-2, 2)
                        for word, c in z.items():
                            chain[word] = chain.get(word, 0) + k * c
                image, with_z = image_factors(words, smask, -d, Z)
                assert image == [1] * len(image)
                rows = [list(C.class_of(d, chain).coords) for chain in Z]
                assert with_z[len(image):] == invariant_factors(IntMatrix.from_rows(rows))
    assert (1, False, True) in seen and (2, True, True) in seen and (1, False, False) in seen


def test_column_rule_on_labelled_complexes(rp2):
    """`ChainComplex.homology_all` and `column_homology` on the same columns
    agree, and match the dense reference."""
    rng = random.Random(4)
    for K in [rp2] + [random_complex(rng.randint(3, 7), rng) for _ in range(15)]:
        C = cx.reduced_chain_complex(K.faces)
        dims = {d: C.dim(d) for d in C.degrees}
        assert column_homology(dims, C.columns) == C.homology_all() == dense_groups(C), K


def test_column_rule_checks_d_squared():
    """d d != 0 is refused with the message `check_squares_to_zero` gives."""
    dims = {1: 1, 0: 1, -1: 1}
    with pytest.raises(ValueError, match=r"d\^2 != 0 between degrees 1 and -1"):
        column_homology(dims, {1: {0: [(0, 1)]}, 0: {0: [(0, 1)]}})
    assert column_homology(dims, {1: {0: [(0, 2)]}}) == {-1: HomologyGroup(1),
                                                         0: HomologyGroup(0, (2,))}


def test_flipped_column_is_refused(rp2):
    """Negating one column of a differential, where the column and the
    matching row of the differential above both have entries, breaks
    d^2 = 0, and the column rule refuses it."""
    refused = 0
    for faces in (rp2.faces, cx.simplex(4).faces):
        C = cx.reduced_chain_complex(faces)
        dims = {d: C.dim(d) for d in C.degrees}
        columns = C.columns
        for d, cols in columns.items():
            hit = {i for column in columns.get(d + 1, {}).values() for i, _ in column}
            for j in sorted(hit & set(cols))[:1]:
                bad = {e: dict(c) for e, c in columns.items()}
                bad[d][j] = [(i, -c) for i, c in cols[j]]
                with pytest.raises(ValueError, match=r"d\^2 != 0"):
                    column_homology(dims, bad)
                refused += 1
    assert refused >= 4


def test_insertion_squares_to_zero_and_matches_the_columns():
    """The chain insertion (`insert_bits`) on 300 random chains x of up to 9
    bits and masks g: inserting g twice gives the zero chain, the lemma
    that makes the closed form's and the staircase's own rules exact cycle
    checks (g ^ g = 0); its terms into `out` add to those already there;
    and on the words of a random basis, each word's insertion, with the
    targets outside the basis dropped, is its column in
    `insertion_columns`, row for row and sign for sign."""
    rng = random.Random(42)
    nonzero = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        x = {rng.randrange(1 << n): rng.randint(-3, 3) for _ in range(rng.randint(1, 6))}
        g = rng.randrange(1 << n)
        once = insert_bits(x, g)
        nonzero += any(once.values())
        assert not any(insert_bits(once, g).values()), (x, g)
        assert insert_bits(x, g, dict(once)) == {w: 2 * c for w, c in once.items()}
        words = sorted(set(rng.sample(range(1 << n), rng.randint(1, min(40, 1 << n)))),
                       key=lambda w: (w.bit_count(), w))
        index = {}
        for w in words:
            index[w] = sum(1 for v in index if v.bit_count() == w.bit_count())
        _, columns = insertion_columns(words, g)
        for w in words:
            column = [(index[t], c) for t, c in insert_bits({w: 1}, g).items() if t in index]
            assert columns.get(-w.bit_count(), {}).get(index[w], []) == column, (words, g, w)
    assert nonzero > 200
