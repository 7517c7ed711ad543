"""Small exact linear algebra over the rationals.

Library callers keep their data in ints and use the integer interface, whose
rows must already be ints, so it enters the elimination loop directly:
``integer_echelon`` gives the reduced echelon rows as primitive integer rows,
``integer_kernel`` the kernel rows read off echelon rows,
``integer_solution_space`` the solutions of an augmented system as
numerators over one denominator plus integer kernel rows, and
``integer_det`` the Bareiss determinant.  ``integer_row`` is the package's
one helper that clears a row of its denominators.

The ``Fraction`` interface (``rref``, ``rank``, ``nullspace``, ``solve``,
``det``, ``in_span``) clears each row once with ``integer_row`` and runs the
same fraction-free elimination (gcd-reduced Gauss-Jordan, Bareiss for
``det``), dividing by the pivots once at the end; the reduced row echelon
form is unique, so the results are exactly those over the rationals.  Of it
the library calls only ``rank``; the rest serves the tests and the
benchmark's tracer.  Matrices are lists of row lists; the sizes that occur
in this package are tiny (at most eight or so columns).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]


def integer_row(row: Sequence) -> tuple[tuple[int, ...], int]:
    """The row times the lcm of its denominators, as an int tuple, and that
    lcm (1 for an all-int row).  Int and ``Fraction`` entries are read through
    their numerator and denominator; any other entry goes through ``Fraction``.
    """
    if set(map(type, row)) <= {int}:
        return tuple(row), 1
    ratios = [x.as_integer_ratio() if type(x) is int or type(x) is Fraction
              else Fraction(x).as_integer_ratio() for x in row]
    scale = lcm(*[d for _, d in ratios])
    return tuple([a * (scale // d) for a, d in ratios]), scale


def _integer_rows(rows: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Each row cleared of its denominators (integer rows as they are)."""
    return [integer_row(row)[0] for row in rows]


def _eliminate(m: list[Sequence[int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan on the first ncols columns of integer rows.

    Works in place on the list m (its rows are replaced, never changed) and
    returns the pivot columns.  Row r < len(pivots) is a multiple of row r of
    the reduced echelon form (pivot entry nonzero, zero in every other pivot
    column); the rows past the pivots are zero in the first ncols columns.
    Every new row is divided by the gcd of its entries, which keeps them as
    short as the minors they stand for.
    """
    size = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == size:
            break
        for pivot in range(r, size):
            if m[pivot][c]:
                break
        else:
            continue
        top = m[pivot]
        if pivot != r:
            m[pivot] = m[r]
            m[r] = top
        p = top[c]
        for i in range(size):
            row = m[i]
            a = row[c]
            if not a or i == r:
                continue
            g = gcd(p, a)
            pg, ag = (p, a) if g == 1 else (p // g, a // g)
            row = [pg * x - ag * y for x, y in zip(row, top)]
            content = gcd(*row)
            m[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def rref(rows: Sequence[Sequence[Fraction]], ncols: int | None = None):
    """Reduced row echelon form.  Returns (rows, pivot column indices).

    Only the first ncols columns (all of them by default) are eliminated; any
    further columns are carried along.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    m = _integer_rows(rows)
    pivots = _eliminate(m, ncols)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    out += [[Fraction(x) for x in row] for row in m[len(pivots):]]
    return out, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    return len(_eliminate(_integer_rows(rows), len(rows[0])))


def integer_echelon(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[Sequence[int]], list[int]]:
    """Reduced row echelon form of the first ncols columns of integer rows.

    Returns one row per pivot column and the pivot columns.  Each row is the
    reduced echelon row scaled to the primitive integer row (gcd 1) whose
    pivot entry is positive, so the rows are unique for the row space.
    """
    m = list(rows)
    pivots = _eliminate(m, ncols)
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
    (as ``_eliminate`` and ``integer_echelon`` leave them).  Each kernel row
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
    m = _integer_rows(rows)
    pivots = _eliminate(m, ncols)
    return [tuple(Fraction(x, scale) for x in row)
            for row, scale in integer_kernel(m, pivots, ncols)]


def integer_solution_space(aug: Sequence[Sequence[int]], ncols: int):
    """All solutions of the augmented integer system [A | b] in Q^ncols.

    One elimination of the integer rows [A | b] (A has ncols columns).  Returns
    ``(num, den, kernel)``: the solution with free variables 0 is num / den,
    where den > 0 is the lcm of the pivots, and kernel holds the integer
    kernel rows with their scales, as ``integer_kernel`` gives them.  Returns None
    if the system is inconsistent.
    """
    m = list(aug)
    pivots = _eliminate(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    den = lcm(*(row[p] for row, p in zip(m, pivots)))
    num = [0] * ncols
    for row, p in zip(m, pivots):
        num[p] = row[ncols] * (den // row[p])
    return num, den, integer_kernel(m, pivots, ncols)


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec | None:
    """One solution of rows @ x = rhs, or None if inconsistent.  Free variables are 0."""
    if not rows:
        return ()
    aug = _integer_rows([(*row, b) for row, b in zip(rows, rhs, strict=True)])
    space = integer_solution_space(aug, len(rows[0]))
    return None if space is None else tuple(Fraction(x, space[1]) for x in space[0])


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant: the rows cleared of their denominators, then
    ``integer_det``, over the product of the row scales."""
    m = []
    scale = 1
    for row in rows:
        ints, row_scale = integer_row(row)
        m.append(ints)
        scale *= row_scale
    return Fraction(integer_det(m), scale)


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of integer rows by Bareiss elimination: every division is
    exact."""
    m = list(rows)
    n = len(m)
    sign, prev = 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        top = m[c]
        p = top[c]
        for i in range(c + 1, n):
            a = m[i][c]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], top)]
        prev = p
    return sign * prev


def in_span(vectors: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> bool:
    base = [list(u) for u in vectors]
    return rank(base + [list(v)]) == rank(base)
