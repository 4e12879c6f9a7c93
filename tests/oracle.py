"""Reference matrices for the column-operation fold of braidrep.matrixrep.

Every letter becomes a full matrix, written directly from the generator
formula, and a word is the plain sparse product of its letter matrices.
This is slow and independent of the fold; the tests compare the two.
Matrices here are sparse rows {r: {c: value}} unless a function says
otherwise.
"""

from braidrep.laurent import LaurentRing
from braidrep.matrixrep import (
    PRODUCT_WORD_ORDER,
    PolyMatrix,
    basis_index,
)


def rho_generator(n, i, j, k, exponent=1):
    """Matrix of a(i,j,k)^exponent; the inverse letter is the matrix of the
    reversed triple a(k,j,i)."""
    if exponent == -1:
        return rho_generator(n, k, j, i, 1)
    if exponent != 1:
        raise ValueError(f"exponent must be +-1, got {exponent}")
    if len({i, j, k}) != 3:
        raise ValueError(f"indices must be pairwise distinct: {(i, j, k)}")
    for v in (i, j, k):
        if not 1 <= v <= n:
            raise ValueError(f"index {v} out of range 1..{n}")
    ring = LaurentRing.for_strands(n)
    index = basis_index(n)
    one = ring.one()
    m = PolyMatrix(n * (n - 1), {r: {r: one} for r in range(n * (n - 1))}, n)
    t_i = ring.var(f"t{i}")
    t_k_inv = ring.var(f"t{k}", -1)
    s_j = ring.var(f"s{j}")
    s_j_inv = ring.var(f"s{j}", -1)

    def set_column(col_pair, images):
        c = index[col_pair]
        for r in list(m.rows):
            m.rows[r].pop(c, None)
            if not m.rows[r]:
                del m.rows[r]
        for row_pair, value in images.items():
            if not value:
                continue
            m.rows.setdefault(index[row_pair], {})[c] = value

    set_column((i, j), {(i, j): t_i, (i, k): one - t_i})
    set_column((k, j), {(k, j): t_k_inv, (k, i): one - t_k_inv})
    set_column((j, k), {(j, k): s_j})
    set_column((j, i), {(j, i): s_j_inv})
    return m


def burau_generator(n, i, exponent):
    """n x n Burau matrix of s_i^exponent: the 2x2 block [[1-t, t], [1, 0]]
    (inverse [[0, 1], [t^-1, 1-t^-1]]) at strands (i, i+1)."""
    ring = LaurentRing.burau()
    one, zero = ring.one(), ring.zero()
    t, u = ring.var("t"), ring.var("t", -1)
    block = [[one - t, t], [one, zero]] if exponent == 1 else [[zero, one], [u, one - u]]
    rows = {r: {r: one} for r in range(n) if r not in (i - 1, i)}
    for dr in (0, 1):
        rows[i - 1 + dr] = {i - 1 + dc: block[dr][dc] for dc in (0, 1) if block[dr][dc]}
    return rows


def matmul(a, b):
    """Sparse product of row dicts; zero entries are dropped."""
    out = {}
    for r, arow in a.items():
        acc = {}
        for k, x in arow.items():
            for c, y in b.get(k, {}).items():
                acc[c] = acc[c] + x * y if c in acc else x * y
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def product(dim, one, matrices, order=PRODUCT_WORD_ORDER):
    """Left-to-right (word order) or right-to-left product of the matrices."""
    m = {r: {r: one} for r in range(dim)}
    for g in matrices:
        m = matmul(m, g) if order == PRODUCT_WORD_ORDER else matmul(g, m)
    return m


def word_product(word, order=PRODUCT_WORD_ORDER, assignment=None):
    """Symbolic product of a GnWord's letter matrices or, given an
    assignment, the product of the letter matrices specialised one by one."""
    ring = LaurentRing.for_strands(word.n)
    letters = []
    for (i, j, k), e in word.letters:
        rows = rho_generator(word.n, i, j, k, e).rows
        if assignment is not None:
            rows = {r: {c: v.eval(assignment) for c, v in row.items()}
                    for r, row in rows.items()}
        letters.append(rows)
    one = ring.one() if assignment is None else 1
    return product(word.n * (word.n - 1), one, letters, order)


def burau_product(w):
    return product(w.n, LaurentRing.burau().one(),
                   [burau_generator(w.n, i, e) for i, e in w.letters])

