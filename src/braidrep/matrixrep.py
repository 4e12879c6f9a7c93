"""Matrix representation of the triple-generator group on the free module
with basis x_pq (ordered pairs of distinct strand indices), its rational
specialisation, and the classical Burau representation as a comparison
baseline.

The generator a(i,j,k) acts by

    x_ij |-> t_i x_ij + (1 - t_i) x_ik
    x_kj |-> t_k^-1 x_kj + (1 - t_k^-1) x_ki
    x_jk |-> s_j x_jk
    x_ji |-> s_j^-1 x_ji

and fixes every other basis vector; a(k,j,i) is its inverse.  Matrices
store the image of basis vector c in column c.  A word maps to the
left-to-right (word) or right-to-left (reversed) product of its letter
matrices; the source data does not fix which, so both exist and the
calibrated default is DEFAULT_PRODUCT_ORDER.

No letter matrix is built: a product is one fold over sparse columns
({index: nonzero value}) from the identity on.  M . a(i,j,k) rewrites the
columns ij, kj, jk, ji of M, and a Burau letter two columns.  The reversed
product of a word u v, M(v) . M(u), is the word-order product of v u, so
it folds the same rewrites over the letters in reverse.  Scalars are
LaurentPoly (symbolic) or exact numbers: a specialised value +-1 folds as
the int that is its own inverse, any other value as an exact Fraction.

Every result, symbolic, specialised or Burau, is one sparse PolyMatrix
holding the folded columns as rows {r: {c: nonzero value}}; its entries
print with str, so a Fraction shows as "p/q" and an int as itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, compress, permutations

from .braids import BraidWord
from .gn3 import phi_word
from .laurent import LaurentRing

PRODUCT_WORD_ORDER = "word"          # word u v  ->  M(u) . M(v)
PRODUCT_REVERSED_ORDER = "reversed"  # word u v  ->  M(v) . M(u)
DEFAULT_PRODUCT_ORDER = PRODUCT_WORD_ORDER

# A work unit is a Laurent term or a number that a folded letter writes, or a
# bit of a specialised term.  Bigelow's braid folds symbolically in 1.2e6
# units at n = 6; the budget stops any fold or specialisation within seconds.
WORK_BUDGET = 2 ** 23
METER_INTERVAL = 16     # non-identity letters between two charges of a fold


class WorkBudgetError(OverflowError):
    """A fold or a specialisation would pass WORK_BUDGET."""


def _spend(work, what):
    if work > WORK_BUDGET:
        raise WorkBudgetError(f"{what} passes the work budget of {WORK_BUDGET} units "
                              "(matrixrep.WORK_BUDGET); give a shorter braid or smaller values")


def basis_pairs(n):
    """Ordered pairs (p, q), p != q, in lexicographic order; (1,2) first."""
    return [(p, q) for p in range(1, n + 1) for q in range(1, n + 1) if p != q]


@cache
def basis_index(n):
    return {pq: pos for pos, pq in enumerate(basis_pairs(n))}


class PolyMatrix:
    """Sparse square matrix whose entries are any exact scalar: LaurentPoly
    (symbolic), int or Fraction.  rows is {r: {c: nonzero value}} and an
    absent entry reads as 0; n is the strand count when the rows and
    columns are indexed by the x_pq basis, None otherwise."""

    __slots__ = ("dim", "rows", "n")

    def __init__(self, dim, rows, n=None):
        self.dim = dim
        self.rows = rows
        self.n = n

    def entry(self, r, c):
        if not (0 <= r < self.dim and 0 <= c < self.dim):
            raise ValueError(f"entry ({r}, {c}) outside a {self.dim}x{self.dim} matrix")
        return self.rows.get(r, {}).get(c, 0)

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("matrix sizes differ")
        rows = {}
        for r, arow in self.rows.items():
            acc = {}
            for k, a in arow.items():
                for c, b in other.rows.get(k, {}).items():
                    acc[c] = acc[c] + a * b if c in acc else a * b
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                rows[r] = acc
        return PolyMatrix(self.dim, rows, self.n)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def is_identity(self):
        return len(self.rows) == self.dim and all(
            row == {r: 1} for r, row in self.rows.items()
        )

    def nonzero_entries(self):
        for r in sorted(self.rows):
            row = self.rows[r]
            for c in sorted(row):
                yield r, c, row[c]

    def specialize(self, assignment):
        """Every LaurentPoly entry evaluated at the assignment, in exact
        Fractions; entries that evaluate to 0 are dropped.  Before anything is
        evaluated it charges the bits of the result: over every variable of
        every term, |exponent| times the bits of the variable's value."""
        entries = [v for row in self.rows.values() for v in row.values()]
        if entries:
            ring = entries[0].ring
            points = [Fraction(assignment.get(name, 1)) for name in ring.names]
            sums = ring.exponent_sums(key for v in entries for key in v.terms)
            _spend(sum(s * (x.numerator.bit_length() + x.denominator.bit_length())
                       for s, x in zip(sums, points)), "specialising")
        rows = {}
        for r, row in self.rows.items():
            values = {c: v.eval(assignment) for c, v in row.items()}
            values = {c: v for c, v in values.items() if v}
            if values:
                rows[r] = values
        return PolyMatrix(self.dim, rows, self.n)

    def to_json(self, basis, n=None):
        entries = [
            {"row": r, "col": c, "value": str(v)}
            for r, c, v in self.nonzero_entries()
        ]
        doc = {"dim": self.dim, "basis": list(basis), "entries": entries}
        if n is not None:
            doc = {"n": n, **doc}
        return doc


# ---------------------------------------------------------------------------
# The column-operation fold.

def _line_ops(rules, one):
    """Normalise a letter's rewrites [(target, [(coefficient, source), ...])]:
    zero terms and identity rewrites are dropped, and a unit coefficient
    becomes None so that the fold copies the line instead of scaling it."""
    ops = []
    for target, terms in rules:
        terms = tuple((None if c == one else c, source) for c, source in terms if c)
        if terms != ((None, target),):
            ops.append((target, terms))
    return tuple(ops)


def _combine(lines, terms):
    """Sparse sum of coefficient * lines[source] over the terms."""
    (a, source), rest = terms[0], terms[1:]
    line = lines[source]
    out = line.copy() if a is None else {r: a * v for r, v in line.items()}
    for b, source in rest:
        for r, v in lines[source].items():
            if b is not None:
                v = b * v
            w = out.get(r)
            if w is None:
                out[r] = v
                continue
            w = w + v
            if w:
                out[r] = w
            else:
                del out[r]
    return out


def _terms(line):
    return sum(len(v.terms) for v in line.values())


def _number_size(line):
    """Entries, and b*b >> 17 more for each number (int or Fraction) of b
    bits, numerator plus denominator: its arithmetic is about quadratic in b."""
    squares = 0
    for v in line.values():
        bits = v.numerator.bit_length() + v.denominator.bit_length()
        squares += bits * bits
    return len(line) + (squares >> 17)


def _fold(dim, one, letters, ops, size=_terms):
    """Lines of the product of the letters, from the identity on.  ops(letter)
    gives the letter's rewrites; each new line is read from the old lines.
    A letter's work is about the size of the lines it writes, and an identity
    letter writes none.  After every METER_INTERVAL letters that write lines,
    each line written since the last charge is charged its size times its
    writes."""
    lines = [{r: one} for r in range(dim)]
    work = written = 0
    writes = [0] * dim    # times each line was written since the last charge
    for letter in letters:
        new = [(target, _combine(lines, terms)) for target, terms in ops(letter)]
        if new:
            for target, line in new:
                lines[target] = line
                writes[target] += 1
            written += 1
            if not written % METER_INTERVAL:
                work += sum(writes[t] * size(lines[t]) for t in compress(range(dim), writes))
                writes = [0] * dim
                _spend(work, f"the product of {written} non-identity letters")
    return lines


def _gn_ops(n, scalar, one):
    """Rewrites of the columns of M for M . a(i,j,k), one computation per
    triple; scalar(name) is the pair (value, inverse) of a variable."""
    index = basis_index(n)

    @cache
    def ops(triple):
        i, j, k = triple
        t, _ = scalar(f"t{i}")
        _, u = scalar(f"t{k}")
        s, s_inv = scalar(f"s{j}")
        ij, ik, kj, ki, jk, ji = (
            index[pair] for pair in ((i, j), (i, k), (k, j), (k, i), (j, k), (j, i))
        )
        rules = [(ij, [(t, ij), (one - t, ik)]), (kj, [(u, kj), (one - u, ki)]),
                 (jk, [(s, jk)]), (ji, [(s_inv, ji)])]
        return _line_ops(rules, one)

    return ops


def _word_lines(word, scalar, one, order, size=_terms):
    """Columns of the word's matrix under the product order."""
    if order not in (PRODUCT_WORD_ORDER, PRODUCT_REVERSED_ORDER):
        raise ValueError(f"unknown product order {order!r}")
    letters = word.letters if order == PRODUCT_WORD_ORDER else word.letters[::-1]
    triples = (t if e == 1 else t[::-1] for t, e in letters)
    return _fold(word.n * (word.n - 1), one, triples, _gn_ops(word.n, scalar, one), size)


def _rows(lines):
    """Sparse rows {r: {c: value}} of folded columns."""
    rows = {}
    for c, line in enumerate(lines):
        for r, v in line.items():
            rows.setdefault(r, {})[c] = v
    return rows


def _laurent_scalar(ring):
    return lambda name: (ring.var(name), ring.var(name, -1))


def rep_of_word(word, order=None):
    """Matrix image of a triple-generator word under the chosen product
    order; the empty word maps to the identity."""
    order = order or DEFAULT_PRODUCT_ORDER
    ring = LaurentRing.for_strands(word.n)
    lines = _word_lines(word, _laurent_scalar(ring), ring.one(), order)
    return PolyMatrix(len(lines), _rows(lines), word.n)


def numeric_rep_of_word(word, assignment, order=None):
    """The matrix of the word with every variable specialised, each value
    folded as the exact number it is: a value +-1 as the int that is its own
    inverse, any other as a Fraction, every line metered by _number_size.
    The assignment must give every variable (see strand_assignment).

    Specialisation is a ring homomorphism, so this equals specialising the
    symbolic product; it is the fast path for long words."""
    order = order or DEFAULT_PRODUCT_ORDER
    assignment = strand_assignment(word.n, assignment, rest=None)
    scalars = {name: (int(v), int(v)) if abs(v) == 1 else (v, 1 / v)
               for name, v in assignment.items()}
    lines = _word_lines(word, scalars.__getitem__, 1, order, _number_size)
    return PolyMatrix(len(lines), _rows(lines), word.n)


def strand_assignment(n, values=None, rest=1):
    """Exact Fraction values for all of t1..tn, s1..sn: explicit values win
    over rest, and with rest=None every variable must be given.  Names must
    be known and every value nonzero, since the variables are units."""
    values = values or {}
    names = LaurentRing.for_strands(n).names
    for name in values:
        if name not in names:
            raise ValueError(f"unknown variable {name!r}")
    missing = [name for name in names if name not in values]
    if rest is None and missing:
        raise ValueError(f"variables left unassigned: {', '.join(missing)}")
    if 0 in (rest, *values.values()):
        raise ValueError("variables are units; zero assignments are not allowed")
    return {name: Fraction(values.get(name, rest)) for name in names}


def corner_entry(matrix, row_pair, col_pair):
    """Coefficient of basis vector row_pair in the image of col_pair."""
    if matrix.n is None:
        raise TypeError("the matrix is not indexed by basis pairs")
    index = basis_index(matrix.n)
    if row_pair not in index or col_pair not in index:
        raise ValueError(f"invalid basis pair {row_pair} or {col_pair}")
    return matrix.entry(index[row_pair], index[col_pair])


# ---------------------------------------------------------------------------
# Defining-relation checks, run symbolically.

def check_relations(n):
    """Verify the three defining relations on the generator matrices.

    Relation 1 (reversed triple is the inverse) over all ordered triples;
    relation 2 (commutation when six slots carry at least five distinct
    indices) over all qualifying unordered pairs; relation 3 (tetrahedron)
    over all orderings of every 4-element index subset.  Returns a list of
    per-instance report dicts.

    Each side is a fold of at most four letters, so it never reaches the
    fold's first work charge (METER_INTERVAL writing letters) and is folded
    here without the meter.  Every side starts from one shared tuple of
    identity lines.  On identity lines a generator's columns are its
    rewrite coefficients, {source: coefficient}; they are built once per
    triple, with no arithmetic.  A letter whose source lines are all still
    the shared identity lines takes those columns; any other letter
    combines the lines as _fold does."""
    if n < 4:
        raise ValueError("relation checks need n >= 4")
    ring = LaurentRing.for_strands(n)
    one = ring.one()
    ops = _gn_ops(n, _laurent_scalar(ring), one)
    identity = tuple({r: one} for r in range(n * (n - 1)))

    @cache
    def generator(triple):
        """The triple's rewrites, the lines they read, and its columns on
        identity lines."""
        rules = ops(triple)
        sources = {source for _, terms in rules for _, source in terms}
        columns = [(target, {source: one if c is None else c for c, source in terms})
                   for target, terms in rules]
        return rules, sources, columns

    def fold(word):
        lines = list(identity)
        for triple in word:
            rules, sources, columns = generator(triple)
            if any(lines[s] is not identity[s] for s in sources):
                columns = [(target, _combine(lines, terms)) for target, terms in rules]
            for target, line in columns:
                lines[target] = line
        return lines

    triples = list(permutations(range(1, n + 1), 3))
    # (relation, instance, left word, right word); each word is 0-4 triples
    instances = [(1, f"a{t} a{t[::-1]} = 1", (t, t[::-1]), ()) for t in triples]
    instances += [
        (2, f"a{t1} a{t2} commute", (t1, t2), (t2, t1))
        for t1, t2 in combinations(triples, 2)
        if len(set(t1) | set(t2)) >= 5
    ]
    instances += [
        (3, f"tetrahedron ({i},{j},{k},{l})",
         ((i, j, k), (i, j, l), (i, k, l), (j, k, l)),
         ((j, k, l), (i, k, l), (i, j, l), (i, j, k)))
        for subset in combinations(range(1, n + 1), 4)
        for i, j, k, l in permutations(subset)
    ]
    return [
        {"relation": relation, "instance": instance,
         "ok": fold(lhs) == fold(rhs)}
        for relation, instance, lhs, rhs in instances
    ]


def check_braid_relations(n):
    """Verify, at the matrix level, that the braid relations hold for the
    images of the Artin generators under the event homomorphism."""
    if n < 3:
        raise ValueError("braid relation checks need n >= 3")

    def same(a, b):
        u, v = (phi_word(BraidWord.parse(text, n)) for text in (a, b))
        return u.perm == v.perm and rep_of_word(u.word) == rep_of_word(v.word)

    report = [
        {"relation": "artin", "instance": f"i={i}",
         "ok": same(f"s{i} s{i + 1} s{i}", f"s{i + 1} s{i} s{i + 1}")}
        for i in range(1, n - 1)
    ]
    report += [
        {"relation": "far-commutativity", "instance": f"(i,j)=({i},{j})",
         "ok": same(f"s{i} s{j}", f"s{j} s{i}")}
        for i in range(1, n - 1)
        for j in range(i + 2, n)
    ]
    return report


def report_passed(report):
    return all(entry["ok"] for entry in report)


# ---------------------------------------------------------------------------
# Burau representation over Z[t, t^-1].

def burau_unreduced(w):
    """Product of the n x n single-variable matrices, one per letter, with
    the 2x2 block [[1-t, t], [1, 0]] at strands (i, i+1) (its inverse
    [[0, 1], [t^-1, 1-t^-1]] for s_i^-1), folded as two column operations
    per letter."""
    ring = LaurentRing.burau()
    one = ring.one()
    t = ring.var("t")
    u = ring.var("t", -1)

    @cache
    def ops(letter):
        i, e = letter
        a, b = i - 1, i
        if e == 1:
            rules = [(a, [(one - t, a), (one, b)]), (b, [(t, a)])]
        else:
            rules = [(a, [(u, b)]), (b, [(one, a), (one - u, b)])]
        return _line_ops(rules, one)

    lines = _fold(w.n, one, w.letters, ops)
    return PolyMatrix(w.n, _rows(lines))


def burau_reduced(w):
    """The (n-1) x (n-1) reduced Burau matrix.

    The unreduced matrices fix the coordinate-sum functional, so row
    vectors of sum zero form an invariant lattice with basis
    f_i = e_i - e_(i+1); the reduced matrix expresses the action on that
    basis and is again multiplicative in the word."""
    u = burau_unreduced(w)
    n = w.n
    rows = {}
    for i in range(n - 1):
        row, acc = {}, 0
        for j in range(n - 1):
            acc = acc + u.entry(i, j) - u.entry(i + 1, j)
            if acc:
                row[j] = acc
        if row:
            rows[i] = row
    return PolyMatrix(n - 1, rows)
