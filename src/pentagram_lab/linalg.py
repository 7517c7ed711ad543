"""Small exact linear algebra over the rationals.

The ``Fraction`` interface (``rref``, ``rank``, ``nullspace``,
``solution_space``, ``solve``, ``det``) takes rational rows and returns
``Fraction`` results, so rank, solvability and transversality decisions are
exact.  Inside, every routine runs on Python ints: integer rows are taken as
they are, any other row is cleared of its denominators once, elimination is
fraction-free (gcd-reduced Gauss-Jordan for ``rref`` and its callers, Bareiss
for ``det``), and the division by the pivots happens once at the end.  The
reduced row echelon form is unique, so the results are exactly those of
elimination over the rationals.

Callers that keep their own data in ints use the integer interface:
``integer_echelon`` gives the reduced echelon rows as primitive integer rows,
``integer_kernel`` the kernel rows read off echelon rows, and
``integer_solution_space`` the solutions of an augmented system as numerators
over one denominator plus integer kernel rows; ``solution_space`` and
``nullspace`` are ``Fraction`` wrappers over the same step.  Matrices are
lists of row lists; the sizes that occur in this package are tiny (at most
eight or so columns).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(u: Sequence[Fraction], c: Fraction) -> Vec:
    return tuple(a * c for a in u)


def vec_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def integer_row(row: Sequence) -> tuple[Sequence[int], int]:
    """The row times the lcm of its denominators, and that lcm.

    An all-int row is returned as it is, with scale 1.
    """
    if all(type(x) is int for x in row):
        return row, 1
    ratios = [x.as_integer_ratio() if type(x) is int or type(x) is Fraction
              else Fraction(x).as_integer_ratio() for x in row]
    scale = lcm(*(d for _, d in ratios))
    return [a * (scale // d) for a, d in ratios], scale


def _eliminate(rows: Sequence[Sequence], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on the first ncols columns.

    Returns integer rows and the pivot columns.  Row r < len(pivots) is a
    multiple of row r of the reduced echelon form (pivot entry nonzero, zero
    in every other pivot column); the rows past the pivots are zero in the
    first ncols columns.  Every new row is divided by the gcd of its entries,
    which keeps them as short as the minors they stand for.
    """
    m = [integer_row(row)[0] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            a = row[c]
            if i == r or not a:
                continue
            g = gcd(p, a)
            pg, ag = p // g, a // g
            row = [pg * x - ag * y for x, y in zip(row, top)]
            content = gcd(*row)
            m[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
        r += 1
    return m, pivots


def rref(rows: Sequence[Sequence[Fraction]], ncols: int | None = None):
    """Reduced row echelon form.  Returns (rows, pivot column indices).

    Only the first ncols columns (all of them by default) are eliminated; any
    further columns are carried along.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    m, pivots = _eliminate(rows, ncols)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    out += [[Fraction(x) for x in row] for row in m[len(pivots):]]
    return out, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0]))[1])


def integer_echelon(rows: Sequence[Sequence], ncols: int) -> tuple[list[Sequence[int]], list[int]]:
    """Reduced row echelon form of the first ncols columns, in ints.

    Returns one row per pivot column and the pivot columns.  Each row is the
    reduced echelon row scaled to the primitive integer row (gcd 1) whose
    pivot entry is positive, so the rows are unique for the row space.
    """
    m, pivots = _eliminate(rows, ncols)
    out = []
    for row, p in zip(m, pivots):
        g = gcd(*row)
        if row[p] < 0:
            g = -g
        out.append(row if g == 1 else [x // g for x in row])
    return out, pivots


def integer_kernel(m: Sequence[Sequence[int]], pivots: Sequence[int],
                   ncols: int) -> list[tuple[list[int], int]]:
    """Integer kernel rows of an eliminated system, one per free column f.

    m holds one integer row per pivot, a multiple of the reduced echelon row
    (as ``_eliminate`` and ``integer_echelon`` give them).  Each kernel row
    comes with its entry in column f, a positive scale: the row over its
    scale is the kernel vector with 1 in column f and 0 in the other free
    columns.
    """
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        used = [(row, p) for row, p in zip(m, pivots) if row[f]]
        scale = lcm(*(row[p] for row, p in used))
        x = [0] * ncols
        x[f] = scale
        for row, p in used:
            x[p] = -row[f] * (scale // row[p])
        basis.append((x, scale))
    return basis


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """Basis of {x : rows @ x = 0} in R^ncols."""
    return [tuple(Fraction(x, scale) for x in row)
            for row, scale in integer_kernel(*_eliminate(rows, ncols), ncols)]


def integer_solution_space(aug: Sequence[Sequence], ncols: int):
    """All solutions of the augmented system [A | b] in Q^ncols, in ints.

    One elimination of the rows [A | b] (A has ncols columns).  Returns
    ``(num, den, kernel)``: the solution with free variables 0 is num / den,
    where den > 0 is the lcm of the pivots, and kernel holds the integer
    kernel rows with their scales, as ``integer_kernel`` gives them.  Returns None
    if the system is inconsistent.
    """
    m, pivots = _eliminate(aug, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    den = lcm(*(row[p] for row, p in zip(m, pivots)))
    num = [0] * ncols
    for row, p in zip(m, pivots):
        num[p] = row[ncols] * (den // row[p])
    return num, den, integer_kernel(m, pivots, ncols)


def solution_space(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction],
                   ncols: int) -> tuple[Vec, list[Vec]] | None:
    """All solutions of rows @ x = rhs in R^ncols, from one elimination.

    Returns one solution (free variables 0) and a nullspace basis, or None
    if the system is inconsistent.
    """
    aug = [[*row, b] for row, b in zip(rows, rhs, strict=True)]
    space = integer_solution_space(aug, ncols)
    if space is None:
        return None
    num, den, kernel = space
    return (tuple(Fraction(x, den) for x in num),
            [tuple(Fraction(x, scale) for x in row) for row, scale in kernel])


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec | None:
    """One solution of rows @ x = rhs, or None if inconsistent.  Free variables are 0."""
    if not rows:
        return ()
    space = solution_space(rows, rhs, len(rows[0]))
    return None if space is None else space[0]


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by Bareiss elimination: every division is exact."""
    n = len(rows)
    m = []
    scale = 1
    for row in rows:
        ints, row_scale = integer_row(row)
        m.append(ints)
        scale *= row_scale
    sign, prev = 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        top = m[c]
        p = top[c]
        for i in range(c + 1, n):
            a = m[i][c]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], top)]
        prev = p
    return Fraction(sign * prev, scale)


def in_span(vectors: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> bool:
    base = [list(u) for u in vectors]
    return rank(base + [list(v)]) == rank(base)
