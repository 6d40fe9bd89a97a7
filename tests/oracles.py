"""Independent brute-force oracles for the test suite.

Everything here recomputes results along a second route: dense textbook
Smith normal form, definition-level missing faces and substitution, and
permutation-search shiftedness.  None of it shares code with the package
internals it checks.
"""

from itertools import combinations, permutations

from momangle.complexes import SimplicialComplex


def dense_snf_diagonal(rows):
    """Invariant factors of a dense integer matrix, no transforms.

    The smallest remaining entry is re-selected as the pivot before every
    reduction pass, which keeps the entries from blowing up."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for r in a:
            r[t], r[j0] = r[j0], r[t]
        p = a[t][t]
        residue = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // p
                for j in range(t, n):
                    a[i][j] -= q * a[t][j]
                residue = residue or bool(a[i][t])
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // p
                for i in range(t, m):
                    a[i][j] -= q * a[i][t]
                residue = residue or bool(a[t][j])
        if residue:
            continue            # a smaller entry appeared; re-pivot
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(t, n):
                a[t][j] += a[bad][j]
            continue
        diag.append(abs(p))
        t += 1
    return diag


def dense_homology(out_matrix, in_matrix, dim):
    """(rank, torsion) of ker(out)/im(in) from dense matrices."""
    rank_out = len([d for d in dense_snf_diagonal(out_matrix) if d]) if out_matrix else 0
    in_facs = [d for d in dense_snf_diagonal(in_matrix) if d] if in_matrix else []
    rank = dim - rank_out - len(in_facs)
    torsion = tuple(sorted(d for d in in_facs if d > 1))
    return rank, torsion


def simplicial_homology_dense(faces):
    """Reduced homology via dense boundary matrices, degree -> (rank, torsion)."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(f))
    for d in by_dim:
        by_dim[d].sort()
    def boundary(d):
        rows = by_dim.get(d - 1, [])
        cols = by_dim.get(d, [])
        idx = {f: i for i, f in enumerate(rows)}
        M = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for k in range(len(f)):
                M[idx[f[:k] + f[k + 1:]]][j] = (-1) ** k
        return M
    out = {}
    for d in by_dim:
        rank, torsion = dense_homology(
            boundary(d) if by_dim.get(d - 1) else [],
            boundary(d + 1) if by_dim.get(d + 1) else [],
            len(by_dim[d]))
        if rank or torsion:
            out[d] = (rank, torsion)
    return out


def brute_facets(K):
    """Faces contained in no other face, by testing every pair."""
    out = [f for f in K.faces
           if not any(f != g and set(f) <= set(g) for g in K.faces)]
    return sorted(out, key=lambda f: (len(f), f))


def brute_missing_faces(K):
    """Minimal non-faces straight from the definition, all cardinalities."""
    out = []
    for k in range(1, K.m + 1):
        for cand in combinations(range(1, K.m + 1), k):
            if cand in K:
                continue
            if all(tuple(v for v in cand if v != x) in K for x in cand):
                out.append(cand)
    return sorted(out, key=lambda f: (len(f), f))


def brute_substitute_faces(slot, parts):
    """Faces of the substitution via the defining set formula."""
    offsets = []
    off = 0
    for p in parts:
        offsets.append(off)
        off += p.m
    faces = set()
    for slot_face in slot.faces:
        pools = []
        for s in slot_face:
            pools.append([tuple(v + offsets[s - 1] for v in f)
                          for f in parts[s - 1].faces if f])
        stack = [()]
        for pool in pools:
            stack = [acc + f for acc in stack for f in pool]
        for acc in stack:
            faces.add(tuple(sorted(acc)))
    faces.add(())
    return faces


def brute_is_shifted(K):
    """All witnessing orders by raw permutation search."""
    wits = []
    for perm in permutations(range(1, K.m + 1)):
        pos = {v: i for i, v in enumerate(perm)}
        good = True
        for f in K.faces:
            if not good:
                break
            for v in f:
                for u in range(1, K.m + 1):
                    if u in f or pos[u] <= pos[v]:
                        continue
                    g = tuple(sorted([x for x in f if x != v] + [u]))
                    if g not in K.faces:
                        good = False
                        break
                if not good:
                    break
        if good:
            wits.append(perm)
    return wits


def random_complex(m, rng, max_facet_count=None):
    count = max_facet_count or 2 * m
    facets = []
    for _ in range(rng.randint(1, count)):
        k = rng.randint(1, m)
        facets.append(tuple(sorted(rng.sample(range(1, m + 1), k))))
    return SimplicialComplex.from_facets(m, facets)


def random_shifted_complex(m, rng):
    """Random complex closed under replacing a vertex by a larger one, so it
    is shifted for the natural order."""
    faces = {(), *((i,) for i in range(1, m + 1))}
    for _ in range(rng.randint(2, 2 * m)):
        k = rng.randint(1, m - 1)
        faces.add(tuple(sorted(rng.sample(range(1, m + 1), k))))
    changed = True
    while changed:
        changed = False
        for f in list(faces):
            for v in f:
                sub = tuple(x for x in f if x != v)
                if sub not in faces:
                    faces.add(sub)
                    changed = True
                for u in range(v + 1, m + 1):
                    if u not in f:
                        g = tuple(sorted(sub + (u,)))
                        if g not in faces:
                            faces.add(g)
                            changed = True
    return SimplicialComplex(m, faces)
