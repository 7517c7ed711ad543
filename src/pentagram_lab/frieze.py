"""Staggered frieze patterns of projective-line points, cyclic in columns.

Rows A_0, A_2, ... sit at even columns 2, 4, ..., 2n; odd rows at odd columns
1, 3, ..., 2n-1 (columns mod 2n).  Every elementary diamond

        X_{(i-1,k)}
    X_{(i,k-1)}    X_{(i,k+1)}
        X_{(i+1,k)}

satisfies [X_{(i-1,k)}, X_{(i,k-1)}, X_{(i+1,k)}, X_{(i,k+1)}] = -1.  Seeding
with A_0 = (inf, ..., inf) and a free row A_1 determines every later row.
Rows A_{2n-1} and A_{2n} are both constant, equal to the mean of A_1 (the
column shift X_{(2n-1,k)} = X_{(2n,k+1)} aligns equal entry indices).

Consecutive same-parity rows embed into the lower map: T_1 sends the pair
(A_{i-2}, A_i) to (A_i, A_{i+2}), with A_{-1} read as the all-infinity row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IndeterminateCrossRatio, ZeroDenominator
from .projcore import (
    P1_INFINITY,
    ProjPoint,
    affine_mean,
    format_p1,
    is_harmonic4,
    is_harmonic6,
    solve_harmonic4,
    solve_harmonic6,
)
from .rng import SplitMix64

Row = tuple[ProjPoint, ...]


def row_from_values(values) -> Row:
    return tuple(ProjPoint.p1(v) for v in values)


@dataclass(frozen=True)
class FriezePattern:
    """Rows A_0 .. A_{2n}; row i holds its n entries in column order."""

    rows: tuple[Row, ...]

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def column_of(self, row_index: int, entry_index: int) -> int:
        base = 2 if row_index % 2 == 0 else 1
        return (base + 2 * entry_index - 1) % (2 * self.n) + 1


def _flanks(current: Row, current_parity: int):
    """The (left, right) flanks of each entry one row below ``current``:
    current[j] and current[j+1] when the current row sits at odd columns,
    current[j-1] and current[j] when it sits at even ones."""
    if current_parity % 2 == 1:
        return zip(current, current[1:] + current[:1])
    return zip(current[-1:] + current[:-1], current)


def next_row(above: Row, current: Row, current_parity: int,
             chain: Row | None = None, closing: bool = False) -> Row:
    """Solve every diamond one row down.

    A current row at odd columns produces entries flanked by current[j] and
    current[j+1]; at even columns the flanks are current[j-1] and current[j].

    Some diamonds of a valid pattern are indeterminate (coincident flanks,
    as in the constant bottom rows, or flanks at infinity); the six-point
    relation of the lower map on the same-parity rows determines those
    entries and agrees with the diamond wherever both are defined.  ``chain``
    is the row four above the one being produced (the all-infinity row when
    the pattern starts that high).  ``closing`` marks the last two rows,
    where a chain that has already gone constant simply stays constant; a
    constant row anywhere earlier leaves the continuation undetermined and
    raises.
    """
    n = len(current)
    out = []
    for j, (left, right) in enumerate(_flanks(current, current_parity)):
        try:
            out.append(solve_harmonic4(above[j], left, right))
        except ZeroDenominator as exc:
            if chain is None:
                raise ZeroDenominator(f"entry {j + 1}: {exc}") from exc
            try:
                out.append(
                    solve_harmonic6(
                        chain[j], above[j], above[(j - 1) % n],
                        above[j], above[(j + 1) % n],
                    )
                )
            except ZeroDenominator as exc6:
                # both relations identically zero; in the closing rows this
                # happens exactly when the chain has already reached its
                # constant value, which then stays (the perturbation limit)
                if closing and len(set(above)) == 1:
                    out.append(above[j])
                else:
                    raise ZeroDenominator(f"entry {j + 1}: {exc6}") from exc6
    return tuple(out)


def build_pattern(A1: Row) -> FriezePattern:
    """Rows A_0 = (inf, ..., inf) through A_{2n} from the free row A_1."""
    A1 = tuple(A1)
    n = len(A1)
    if n < 3:
        raise ValueError("need at least 3 columns")
    for p in A1:
        if p.dim != 1:
            raise ValueError("entries must be points of the projective line")
    inf_row = (P1_INFINITY,) * n
    rows: list[Row] = [inf_row, A1]
    for i in range(1, 2 * n):
        # producing row i+1; its same-parity chain passes through rows
        # i-1 and i-3, the latter read as A_{-1} = inf row at the top
        if i >= 3:
            chain = rows[i - 3]
        elif i == 2:
            chain = inf_row
        else:
            chain = None
        try:
            rows.append(
                next_row(rows[i - 1], rows[i], i % 2, chain,
                         closing=i + 1 >= 2 * n - 1)
            )
        except ZeroDenominator as exc:
            raise ZeroDenominator(f"row {i + 1}: {exc}") from exc
    return FriezePattern(tuple(rows))


@dataclass(frozen=True)
class T005Report:
    penultimate_constant: bool
    last_constant: bool
    shift_equal: bool
    value: ProjPoint | None
    expected: ProjPoint
    matched: bool

    @property
    def ok(self) -> bool:
        return (
            self.penultimate_constant
            and self.last_constant
            and self.shift_equal
            and self.matched
        )


def verify_T005(A1: Row) -> T005Report:
    """Rows A_{2n-1} and A_{2n} are constant and equal the mean of A_1."""
    return _report_T005(build_pattern(A1))


def _report_T005(pattern: FriezePattern) -> T005Report:
    """``verify_T005`` on a pattern already built from its row A_1."""
    n = pattern.n
    penultimate, last = pattern.rows[2 * n - 1], pattern.rows[2 * n]
    expected = affine_mean(pattern.rows[1])
    penultimate_constant = len(set(penultimate)) == 1
    last_constant = len(set(last)) == 1
    # entry j of row 2n-1 sits at column 2j+1, entry j of row 2n at column
    # 2j+2, so same-index equality is exactly the k -> k+1 column shift
    shift_equal = penultimate == last
    value = penultimate[0] if penultimate_constant else None
    matched = penultimate_constant and value == expected
    return T005Report(
        penultimate_constant=penultimate_constant,
        last_constant=last_constant,
        shift_equal=shift_equal,
        value=value,
        expected=expected,
        matched=matched,
    )


@dataclass(frozen=True)
class EmbeddingReport:
    per_row: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.per_row)


def verify_embedding(A1: Row) -> EmbeddingReport:
    """T_1 (A_{i-2}, A_i) == (A_i, A_{i+2}) for i = 1 .. 2n-3, A_{-1} = inf row.

    Checked by re-substituting each entry into the six-point relation rather
    than solving it, so entries whose relation degenerates to 0/0 (possible
    in tables with interior infinities) are vacuously sound, mirroring
    ``diamond_soundness``; every determinate relation pins the entry and
    must come out exactly -1.
    """
    pattern = build_pattern(A1)
    n = pattern.n
    inf_row = (P1_INFINITY,) * n
    per_row = []
    for i in range(1, 2 * n - 2):
        X = pattern.rows[i - 2] if i >= 2 else inf_row
        Y = pattern.rows[i]
        Z = pattern.rows[i + 2]
        ok = True
        for j in range(n):
            try:
                harmonic = is_harmonic6(
                    X[j], Y[j], Y[(j - 1) % n], Z[j], Y[j], Y[(j + 1) % n]
                )
            except IndeterminateCrossRatio:
                continue
            if not harmonic:
                ok = False
                break
        per_row.append(ok)
    return EmbeddingReport(per_row=tuple(per_row))


def diamond_soundness(pattern: FriezePattern) -> bool:
    """Re-substitute every entry into its defining diamond.

    The -1 relation constrains an entry only where its cross ratio is
    defined; a 0/0 diamond (coincident flanks, as in the constant bottom
    rows) is the degenerate closure and counts as sound.  Every determinate
    diamond must come out exactly -1.
    """
    rows = pattern.rows
    for p in range(2, len(rows)):
        above, current, produced = rows[p - 2], rows[p - 1], rows[p]
        for j, (left, right) in enumerate(_flanks(current, p - 1)):
            try:
                harmonic = is_harmonic4(above[j], left, produced[j], right)
            except IndeterminateCrossRatio:
                continue
            if not harmonic:
                return False
    return True


@dataclass(frozen=True)
class OracleReport:
    trials: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def closed_form_oracles(trials: int, seed: int, bound: int = 10) -> OracleReport:
    """Random checks of the small closed forms against diamond chasing.

    Five-point configuration with apex V_2 = inf over X_1, X_3 and flanks
    Y_0, Y_4: four diamond solves give Y_2, Z_1, Z_3, W_2; then

      * Y_2 = (X_1 + X_3) / 2,
      * [V_2, Y_2, Y_0, W_2, Y_2, Y_4] = -1,
      * W_2 = ((X_1 + X_3)^2 - 4 Y_0 Y_4) / (4 (X_1 + X_3 - Y_0 - Y_4)).

    Separately, the first descent below an inf row admits two routes that
    must agree: solve_harmonic6(inf, X_3, X_1, X_3, X_5) equals the diamond
    chase through the midpoints and equals
    (X_3^2 - X_1 X_5) / (2 X_3 - X_1 - X_5).
    """
    rng = SplitMix64(seed)
    failures = []
    done = 0
    budget = trials * 64
    while done < trials and budget > 0:
        budget -= 1
        x1, x3, y0, y4 = (rng.rational(bound) for _ in range(4))
        den_w = 4 * (x1 + x3 - y0 - y4)
        if den_w == 0:
            continue
        apex = P1_INFINITY
        try:
            Y2 = solve_harmonic4(apex, ProjPoint.p1(x1), ProjPoint.p1(x3))
            Z1 = solve_harmonic4(ProjPoint.p1(x1), ProjPoint.p1(y0), Y2)
            Z3 = solve_harmonic4(ProjPoint.p1(x3), Y2, ProjPoint.p1(y4))
            W2 = solve_harmonic4(Y2, Z1, Z3)
        except ZeroDenominator:
            continue
        if Y2 != ProjPoint.p1(Fraction(x1 + x3, 2)):
            failures.append(f"midpoint rule failed at {x1},{x3}")
        if not is_harmonic6(apex, Y2, ProjPoint.p1(y0), W2, Y2, ProjPoint.p1(y4)):
            failures.append(f"six-point relation failed at {x1},{x3},{y0},{y4}")
        closed_w = Fraction((x1 + x3) ** 2 - 4 * y0 * y4, den_w)
        if W2 != ProjPoint.p1(closed_w):
            failures.append(f"apex closed form failed at {x1},{x3},{y0},{y4}")

        a1, a3, a5 = (rng.rational(bound) for _ in range(3))
        den_y = 2 * a3 - a1 - a5
        if den_y == 0:
            continue
        try:
            direct = solve_harmonic6(
                P1_INFINITY,
                ProjPoint.p1(a3),
                ProjPoint.p1(a1),
                ProjPoint.p1(a3),
                ProjPoint.p1(a5),
            )
            chased = solve_harmonic4(
                ProjPoint.p1(a3),
                ProjPoint.p1(Fraction(a1 + a3, 2)),
                ProjPoint.p1(Fraction(a3 + a5, 2)),
            )
        except ZeroDenominator:
            continue
        if direct != chased:
            failures.append(f"two descent routes disagree at {a1},{a3},{a5}")
        if direct != ProjPoint.p1(Fraction(a3 * a3 - a1 * a5, den_y)):
            failures.append(f"descent closed form failed at {a1},{a3},{a5}")
        done += 1
    return OracleReport(trials=done, failures=tuple(failures))


def render_staggered(pattern: FriezePattern) -> str:
    """Plain-text frieze: entries placed by column, rows staggered by parity."""
    n = pattern.n
    cells = [
        [format_p1(p) for p in row] for row in pattern.rows
    ]
    width = max(len(text) for row in cells for text in row) + 2
    lines = []
    for i, row in enumerate(cells):
        line = [" "] * (2 * n * width)
        for j, text in enumerate(row):
            column = pattern.column_of(i, j)
            start = (column - 1) * width
            line[start : start + len(text)] = text
        lines.append("".join(line).rstrip())
    return "\n".join(lines)


def random_a1(n: int, seed: int, bound: int = 10) -> Row:
    """Seeded free row of n distinct rationals."""
    if n < 3:
        raise ValueError("need n >= 3")
    rng = SplitMix64(seed)
    return row_from_values(rng.distinct_rationals(n, bound))
