"""Command line interface.

Exit codes (exhaustive, mutually exclusive):

  0  requested checks passed
  1  a verification failed
  2  degenerate / non-generic input (the message names the failing step)
  3  usage error

All numeric stdout is exact rational strings; SVG output is the only place
decimals appear.  Random trials are seeded per index (``seed + index``) with
the SplitMix64 generator, so every report is reproducible.  Setting
``PENTAGRAM_LAB_THREADS`` to k > 1 splits a batch into at most k chunks of
ceil(trials / k) consecutive trials: this process runs the first, and one
forked child runs each other chunk (k - 1 children when every chunk is
used) and sends its results back through a pipe.  The output does
not change (results are ordered by trial index), and on a platform without
``os.fork`` the batch runs serially.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import re
import sys
from fractions import Fraction
from math import ceil
from pathlib import Path
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

from .corrugated import (
    AxisAlignedM,
    PolygonM,
    collapse_orbit_m,
    corrugated_step,
    random_axis_aligned_m,
)
from .errors import DegeneracyError, PentagramError, UsageError
from .frieze import (
    _report_T005,
    build_pattern,
    diamond_soundness,
    random_a1,
    render_staggered,
    row_from_values,
)
from .lifting import _infer_variant, lift_report, mating_orbit_check
from .lower1d import (
    AxisAlignedPair1,
    PairState1D,
    random_b,
    t1_step,
    verify_T008,
)
from .mirror import (
    AxisAlignedMirrorPair,
    MirrorPair,
    mp_step,
    random_axis_aligned_mirror,
    random_mirror_pair,
    verify_correspondence,
    verify_T007,
)
from .pentagram2d import (
    AxisAligned2,
    LabeledPolygon2,
    collapse_orbit,
    pentagram_step,
    random_axis_aligned,
)
from .projcore import ProjPoint, format_rational, orbit
from .rng import trial_seed
from .serde import (
    dumps,
    format_p1,
    load_instance,
    parse_rational,
)
from .svg import orbit_svg

GEN_MAPS = ("pent2d", "corrugated", "lower", "mirror")
LIFT_CHECKS = {
    "general-position": "L2.2",
    "centroid": "L2.3",
    "mating": "L2.7",
    "fully-sliced": "L2.5",
    "collapse-line": "L2.8",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)


def _fmt_point(p: ProjPoint) -> str:
    if p.dim == 1:
        return format_p1(p)
    if p.is_finite:
        return "(" + ", ".join(format_rational(c) for c in p.affine_coords()) + ")"
    return "[" + " : ".join(str(c) for c in p.coords) + "]"


def _print_json(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _parse_value_list(text: str) -> tuple:
    parts = [part for part in text.split(",") if part.strip()]
    if len(parts) < 3:
        raise UsageError("need at least three comma-separated values")
    return tuple(parse_rational(part) for part in parts)


def _thread_cap() -> int:
    raw = os.environ.get("PENTAGRAM_LAB_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError as exc:
        raise UsageError("PENTAGRAM_LAB_THREADS must be an integer") from exc
    return max(1, cap)


def _draw(sample, *args):
    """Call a seeded sampler.  A ValueError from it means --n, --m or --range
    is out of range, which is a usage error, not a failed check."""
    try:
        return sample(*args)
    except ValueError as exc:
        raise UsageError(f"cannot draw an instance: {exc}") from exc


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    bound = args.range
    if args.map == "pent2d":
        obj = _draw(random_axis_aligned, args.n, args.seed, bound).underlying
    elif args.map == "corrugated":
        if args.m is None:
            raise UsageError("--map corrugated needs --m")
        obj = _draw(random_axis_aligned_m, args.m, args.n, args.seed, bound).underlying
    elif args.map == "lower":
        obj = _draw(random_b, args.n, args.seed, bound).initial_state()
    else:  # mirror
        obj = _draw(random_axis_aligned_mirror, args.n, args.seed, bound).underlying
    text = dumps(obj)
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _write_file(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# iterate


def _emit(lines: list[str], svg_path: str | None, render: Callable[[], str]) -> int:
    """Write the SVG, then print the lines, so that an unwritable SVG path
    fails before anything is printed.  A point the drawing cannot place is
    reported after the printed iterates."""
    text = "".join(line + "\n" for line in lines)
    if svg_path:
        try:
            svg = render()
        except DegeneracyError:
            sys.stdout.write(text)
            raise
        _write_file(svg_path, svg)
    sys.stdout.write(text)
    return 0


def _iterate_rows(states: list[PairState1D], svg_path: str | None) -> int:
    rows = [state.Y for state in states]

    def render() -> str:
        iterates = []
        for idx, row in enumerate(rows):
            pts = [
                (p.p1_value(), Fraction(-idx))
                for p in row
                if p.is_finite
            ]
            if pts:
                iterates.append(pts)
        collapse = None
        final = rows[-1]
        if len(set(final)) == 1 and final[0].is_finite:
            collapse = (final[0].p1_value(), Fraction(-(len(rows) - 1)))
        return orbit_svg(iterates, close=False, diagonal_step=None, collapse=collapse)

    return _emit([" ".join(format_p1(y) for y in row) for row in rows], svg_path, render)


def _iterate_points(
    states: list, svg_path: str | None, *, diagonal_step, mirror: bool
) -> int:
    iterates = [it.points if mirror else it.vertices for it in states]
    lines = []
    for idx, points in enumerate(iterates):
        lines.append(f"step {idx}:")
        lines += [_fmt_point(p) for p in points]
    final_points = iterates[-1]
    if len(set(final_points)) == 1:
        lines.append(f"all vertices = {_fmt_point(final_points[0])}")

    def render() -> str:
        drawn = [[p.affine_coords()[:2] for p in points] for points in iterates]
        collapse = None
        if len(set(final_points)) == 1 and final_points[0].is_finite:
            collapse = final_points[0].affine_coords()[:2]
        return orbit_svg(
            drawn,
            close=not mirror,
            diagonal_step=diagonal_step,
            collapse=collapse,
            axis_y=Fraction(0) if mirror else None,
        )

    return _emit(lines, svg_path, render)


def cmd_iterate(args) -> int:
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    inst = load_instance(args.path)
    if isinstance(inst, PairState1D):
        return _iterate_rows(orbit(inst, t1_step, args.steps), args.svg)
    if isinstance(inst, LabeledPolygon2):
        states = orbit(inst, pentagram_step, args.steps)
        return _iterate_points(states, args.svg, diagonal_step=2, mirror=False)
    if isinstance(inst, PolygonM):
        states = orbit(inst, corrugated_step, args.steps)
        return _iterate_points(states, args.svg, diagonal_step=inst.m, mirror=False)
    states = orbit(inst, mp_step, args.steps)
    return _iterate_points(states, args.svg, diagonal_step=None, mirror=True)


# ---------------------------------------------------------------------------
# verify


def _verdict(values: dict, *conditions: tuple[bool, str]):
    """``(ok, values, reason)`` for a report's ``(holds, reason)`` conditions:
    the reason of the first condition that fails, in the order given."""
    for holds, reason in conditions:
        if not holds:
            return False, values, reason
    return True, values, ""


def _check_T002(P: AxisAligned2):
    rep = collapse_orbit(P)
    values = {
        "centroid": _fmt_point(rep.centroid),
        "collapse_point": _fmt_point(rep.collapse_point) if rep.collapse_point else None,
        "steps_taken": rep.steps_taken,
    }
    stage = rep.two_line_stage
    return _verdict(values, (rep.all_equal, "vertices did not all coincide"),
                    (rep.matched, "collapse point differs from the center of mass"),
                    (stage.alternating and stage.through_centroid,
                     "two-line stage certificate failed"))


def _check_T003(P: AxisAlignedM):
    rep = collapse_orbit_m(P)
    values = {
        "centroid": _fmt_point(rep.centroid),
        "collapse_point": _fmt_point(rep.collapse_point) if rep.collapse_point else None,
        "corrugated_certified": all(rep.corrugated_certificates),
        "steps_taken": rep.steps_taken,
    }
    # collapse_orbit_m raises unless every step's input is corrugated
    return _verdict(values, (rep.all_equal, "vertices did not all coincide"),
                    (rep.matched, "collapse point differs from the center of mass"))


def _check_T005(row):
    pattern = build_pattern(row)
    rep = _report_T005(pattern)
    diamonds = diamond_soundness(pattern)
    values = {
        "constant_value": _fmt_point(rep.value) if rep.value is not None else None,
        "diamonds_sound": diamonds,
        "expected": _fmt_point(rep.expected),
    }
    return _verdict(values, (diamonds, "a diamond failed to resubstitute to -1"),
                    (rep.penultimate_constant and rep.last_constant,
                     "final rows are not constant"),
                    (rep.shift_equal, "final rows differ under the column shift"),
                    (rep.matched, "constant value differs from the mean of A_1"))


def _check_T007(pair: AxisAlignedMirrorPair):
    rep = verify_T007(pair)
    values = {
        "collapse_point": _fmt_point(rep.collapse_points[0]) if rep.all_equal else None,
        "expected": _fmt_point(rep.expected),
        "roundtrips": all(rep.roundtrips),
        "steps_taken": rep.steps_taken,
    }
    return _verdict(values, (rep.all_equal, "points did not all coincide"),
                    (rep.matched, "collapse point differs from the predicted point"),
                    (all(rep.roundtrips), "an inverse round trip failed"))


def _check_T008(pair: AxisAlignedPair1):
    rep = verify_T008(pair)
    values = {
        "expected": _fmt_point(rep.expected),
        "final_row": " ".join(format_p1(y) for y in rep.final_component),
        "steps_taken": rep.steps_taken,
    }
    return _verdict(values, (rep.constant, "final second component is not constant"),
                    (rep.matched, "final value differs from the mean of B"))


def _check_mating(P):
    rep = mating_orbit_check(P, _infer_variant(P))
    values = {"stages": rep.stages, "variant": rep.variant}
    return _verdict(values, (rep.ok, "a mating stage disagreed with the map orbit"))


def _check_lifting(P):
    rep = lift_report(P)
    values = {
        "checks": {c.check_id: c.ok for c in rep.checks},
        "used_canonical": rep.used_canonical,
        "variant": rep.variant,
    }
    bad = ", ".join(c.check_id for c in rep.checks if not c.ok)
    return _verdict(values, (rep.ok, f"lift checks failed: {bad}"))


def _check_correspondence(pair: MirrorPair, k: int | None):
    rep = verify_correspondence(pair, pair.n - 1 if k is None else k)
    first_bad = next((j for j, same in enumerate(rep.per_step, 1) if not same), None)
    return _verdict({"steps_taken": rep.steps_taken},
                    (first_bad is None, f"projected orbits disagree at step {first_bad}"))


def _of_kind(inst, kind, message: str):
    if not isinstance(inst, kind):
        raise UsageError(message)
    return inst


def _adapt_lower(inst):
    _of_kind(inst, PairState1D, "T008 needs a P1 instance")
    if any(x.is_finite for x in inst.X):
        raise UsageError("T008 starts from the all-infinity first row")
    return AxisAlignedPair1.of(inst.Y)


def _adapt_polygon(inst, message: str, canonicalize_mirror: bool = True):
    """Input of the lifting lemmas and of ``lift``: any polygon, or a mirror pair."""
    if isinstance(inst, LabeledPolygon2):
        return AxisAligned2.from_polygon(inst)
    if isinstance(inst, PolygonM):
        return AxisAlignedM.from_polygon(inst)
    if isinstance(inst, MirrorPair):
        return AxisAlignedMirrorPair.canonicalize(inst) if canonicalize_mirror else inst
    raise UsageError(message)


def _sample_polygon(n, m, seed, bound):
    """A planar 2n-gon, or with --m a corrugated mn-gon."""
    if m is None:
        return random_axis_aligned(n, seed, bound)
    return random_axis_aligned_m(m, n, seed, bound)


def _a1_only(inst):
    raise UsageError("T005 takes --a1, not an instance file")


def _required_m(m: int | None) -> int:
    if m is None:
        raise UsageError("T003 --random needs --m")
    return m


def _liftable(n: int, m: int, message: str) -> int:
    """n, if a lift can take n points of R^m; else a usage error whose
    ``message`` is formatted with the least n that can be lifted."""
    # n = 2 gives one A-sequence, and a lift needs two; the lift raises
    # points of R^m into R^n, so it needs n >= m as well
    for least in (3, m):
        if n < least:
            raise UsageError(message.format(least=least, n=n))
    return n


def _lift_input(inst, message: str):
    """A loaded instance file as input of ``lift_report``."""
    P = _adapt_polygon(inst, message)
    _liftable(P.n, P.m if isinstance(P, AxisAlignedM) else 2,
              "lifting needs n >= {least}, and this instance has n = {n}")
    return P


class Claim(NamedTuple):
    """``sample(n, m, seed, bound)`` draws a ``--random`` instance, ``adapt``
    takes a loaded instance file or raises ``UsageError``, and
    ``check(instance, k)`` returns ``(ok, values, reason)``.  Entries call
    library functions through this module's global names when they run, so
    a name rebound after import (the benchmark's tracer) reaches them."""

    sample: Callable
    adapt: Callable
    check: Callable


CLAIMS = {
    "T002": Claim(
        lambda n, m, seed, bound: random_axis_aligned(n, seed, bound),
        lambda inst: AxisAligned2.from_polygon(
            _of_kind(inst, LabeledPolygon2, "T002 needs a P2 instance")),
        lambda P, k: _check_T002(P),
    ),
    "T003": Claim(
        lambda n, m, seed, bound: random_axis_aligned_m(_required_m(m), n, seed, bound),
        lambda inst: AxisAlignedM.from_polygon(
            _of_kind(inst, PolygonM, "T003 needs a Pm instance")),
        lambda P, k: _check_T003(P),
    ),
    "T005": Claim(
        lambda n, m, seed, bound: random_a1(n, seed, bound),
        _a1_only,
        lambda row, k: _check_T005(row),
    ),
    "T007": Claim(
        lambda n, m, seed, bound: random_axis_aligned_mirror(n, seed, bound),
        lambda inst: AxisAlignedMirrorPair.canonicalize(
            _of_kind(inst, MirrorPair, "T007 needs a P2-mirror instance")),
        lambda pair, k: _check_T007(pair),
    ),
    "T008": Claim(
        lambda n, m, seed, bound: random_b(n, seed, bound),
        _adapt_lower,
        lambda pair, k: _check_T008(pair),
    ),
    "L2-mating": Claim(
        _sample_polygon,
        lambda inst: _adapt_polygon(inst, "L2-mating needs a polygon or mirror instance",
                                    canonicalize_mirror=False),
        lambda P, k: _check_mating(P),
    ),
    "L2-lifting": Claim(
        lambda n, m, seed, bound: _sample_polygon(
            _liftable(n, 2 if m is None else m, "L2-lifting --random needs --n >= {least}"),
            m, seed, bound),
        lambda inst: _lift_input(inst, "L2-lifting needs a polygon or mirror instance"),
        lambda P, k: _check_lifting(P),
    ),
    "L4-correspondence": Claim(
        lambda n, m, seed, bound: random_mirror_pair(n, seed, bound),
        lambda inst: _of_kind(inst, MirrorPair, "L4-correspondence needs a P2-mirror instance"),
        _check_correspondence,
    ),
}


def _trial_worker(payload):
    """One seeded random trial."""
    theorem, index, seed, n, m, k, bound = payload
    claim = CLAIMS[theorem]
    try:
        instance = _draw(claim.sample, n, m, seed, bound)
        ok, values, reason = claim.check(instance, k)
    except DegeneracyError as exc:
        return index, False, f"degenerate: {exc}", {}
    return index, ok, reason, values


def _fork_join(chunks: list[list]) -> list:
    """``_trial_worker`` over every payload of ``chunks``, in order.

    This process runs chunk 0 and one forked child runs each other chunk.
    Every child is reaped before this returns or raises, so ``getrusage``
    counts it.  The exception of the lowest failing trial is raised, as in a
    serial run; a child that dies without sending its results is a
    ``RuntimeError``.
    """
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for chunk in chunks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _trial_child(chunk, write_fd, [read_fd] + [fd for _, fd in children])
            # closed before the next fork, so the child alone holds the
            # write end and its exit ends the parent's read
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [_trial_worker(p) for p in chunks[0]]
        blobs = [_read_to_end(fd) for _, fd in children]
    finally:
        # a child still writing gets EPIPE once no process reads its pipe
        for _, fd in children:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for (pid, _), blob, status in zip(children, blobs, statuses):
        if status != 0:
            raise RuntimeError(
                f"trial worker {pid} exited without its results (wait status {status})")
        ok, payload = pickle.loads(blob)
        if not ok:
            raise payload
        results += payload
    return results


def _trial_child(chunk: list, write_fd: int, inherited: list[int]) -> NoReturn:
    """Body of a forked child: run ``chunk`` and write ``(True, results)`` or
    ``(False, exception)`` to ``write_fd`` as one pickle.  It leaves through
    ``os._exit`` whatever happens, so it never returns into its caller's
    frames and never flushes the stdio buffers it inherited; exit status 0
    means the whole pickle was written."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            outcome = True, [_trial_worker(p) for p in chunk]
        except Exception as exc:  # re-raised by the parent
            outcome = False, exc
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _read_to_end(fd: int) -> bytes:
    parts = []
    while part := os.read(fd, 1 << 16):
        parts.append(part)
    return b"".join(parts)


def cmd_verify(args) -> int:
    theorem = args.theorem
    claim = CLAIMS[theorem]
    sources = [s for s in (args.path, "--random" if args.random else None,
                           "--a1" if args.a1 else None) if s]
    if len(sources) != 1:
        raise UsageError(
            "give exactly one input: an instance file, --random, or --a1"
        )
    if args.a1 and claim.adapt is not _a1_only:
        raise UsageError("--a1 only applies to T005")
    if args.k is not None and args.k < 1:
        raise UsageError("--k must be >= 1")

    if args.random:
        if args.n is None:
            raise UsageError("--random needs --n")
        trials = args.trials
        if trials < 1:
            raise UsageError("--trials must be >= 1")
        payloads = [
            (theorem, i, trial_seed(args.seed, i), args.n, args.m, args.k, args.range)
            for i in range(trials)
        ]
        cap = _thread_cap()
        if cap > 1 and trials > 1 and hasattr(os, "fork"):
            size = ceil(trials / min(cap, trials))
            results = _fork_join([payloads[i:i + size] for i in range(0, trials, size)])
        else:
            results = [_trial_worker(p) for p in payloads]
        seeds = [p[2] for p in payloads]
    else:
        if args.a1:
            instance = row_from_values(_parse_value_list(args.a1))
        else:
            instance = claim.adapt(load_instance(args.path))
        ok, values, reason = claim.check(instance, args.k)
        results, seeds = [(0, ok, reason, values)], [None]
    failures = [
        {"index": index, "reason": reason, "seed": seeds[index]}
        for index, ok, reason, _ in results
        if not ok
    ]
    report: dict[str, Any] = {
        "failures": failures,
        "passes": len(results) - len(failures),
        "theorem": theorem,
        "trials": len(results),
    }
    if len(results) == 1 and results[0][3]:
        report["values"] = results[0][3]
    _print_json(report)
    if not failures:
        return 0
    # a drawn instance outside the generic locus is non-generic input,
    # not a counterexample; only a genuine violation is a failure
    if all(f["reason"].startswith("degenerate:") for f in failures):
        return 2
    return 1


# ---------------------------------------------------------------------------
# frieze


def cmd_frieze(args) -> int:
    row = row_from_values(_parse_value_list(args.a1))
    pattern = build_pattern(row)
    if args.json:
        rows = [[format_p1(p) for p in r] for r in pattern.rows]
        _print_json({"n": pattern.n, "rows": rows})
    else:
        print(render_staggered(pattern))
    return 0


# ---------------------------------------------------------------------------
# lift


def cmd_lift(args) -> int:
    message = "lift needs a P2, Pm, or P2-mirror instance"
    wrapped = _lift_input(load_instance(args.path), message)
    report = lift_report(wrapped, seed=args.seed, full=args.full)
    payload = {
        "check": LIFT_CHECKS[args.check],
        "checks": [
            {"detail": c.detail, "id": c.check_id, "ok": c.ok} for c in report.checks
        ],
        "d": report.d,
        "heights": [[format_rational(h) for h in row] for row in report.heights],
        "n": report.n,
        "normal_rank": report.normal_rank,
        "normals": [[format_rational(c) for c in v] for v in report.normals],
        "used_canonical": report.used_canonical,
        "variant": report.variant,
    }
    _print_json(payload)
    target = LIFT_CHECKS[args.check]
    ok = next(c.ok for c in report.checks if c.check_id == target)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="pentagram-lab",
        description="Exact pentagram-map laboratory: generate, iterate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded random instance file")
    gen.add_argument("--map", choices=GEN_MAPS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--range", type=int, default=10,
                     help="coefficient bound for sampled rationals")
    gen.add_argument("--out", help="output path (stdout when omitted)")
    gen.set_defaults(func=cmd_gen)

    it = sub.add_parser("iterate", help="print map iterates of an instance")
    it.add_argument("path")
    it.add_argument("--steps", type=int, required=True)
    it.add_argument("--svg", help="also write an SVG of the orbit")
    it.set_defaults(func=cmd_iterate)

    ver = sub.add_parser("verify", help="check a claim on one or many instances")
    ver.add_argument("--theorem", choices=tuple(CLAIMS), required=True)
    ver.add_argument("path", nargs="?", help="instance file")
    ver.add_argument("--random", action="store_true")
    ver.add_argument("--trials", type=int, default=1)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--n", type=int)
    ver.add_argument("--m", type=int)
    ver.add_argument("--k", type=int, help="correspondence steps (default n-1)")
    ver.add_argument("--range", type=int, default=10)
    ver.add_argument("--a1", help="comma-separated first row (T005)")
    ver.set_defaults(func=cmd_verify)

    fr = sub.add_parser("frieze", help="build and print a frieze pattern")
    fr.add_argument("--a1", required=True, help="comma-separated first row")
    fr.add_argument("--json", action="store_true", help="machine-readable rows")
    fr.set_defaults(func=cmd_frieze)

    lift = sub.add_parser("lift", help="run lifting checks on an instance")
    lift.add_argument("--check", choices=sorted(LIFT_CHECKS), required=True)
    lift.add_argument("path")
    lift.add_argument("--seed", type=int, default=0)
    lift.add_argument("--full", action="store_true",
                      help="all mating windows instead of the default sample")
    lift.set_defaults(func=cmd_lift)

    return parser


def _glue_signed_values(argv: Sequence[str]) -> list[str]:
    """Write ``--a1 -3/7,...`` as ``--a1=-3/7,...``.

    argparse reads a separate token that starts with '-' as an option unless
    it is a plain negative number, so a first value like -3/7 would leave
    --a1 without an argument.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--a1" and re.match(r"-[0-9.]", token):
            out[-1] = f"--a1={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(_glue_signed_values(argv))
    return args.func(args)


def entrypoint(argv: Sequence[str] | None = None) -> int:
    try:
        return main(list(sys.argv[1:]) if argv is None else list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except DegeneracyError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 2
    except PentagramError as exc:
        # dimension or variant mismatch: the file parsed but its content
        # cannot feed the requested check
        print(f"inapplicable input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entrypoint())
