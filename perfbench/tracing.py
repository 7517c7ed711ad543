"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the library's public functions by rebinding each
name in every ``pentagram_lab`` module namespace that holds it (and, for
methods, on the class).  Nothing in the library changes on disk;
``uninstall`` puts every original back and ``install`` can rebind again.

Every wrapped call updates per-name counters online: calls, inclusive time
and self time (the span minus the time its child spans cover).  Hot kernel
functions are only counted; calls at the verifier, step, check and command
level are also kept as spans with an id and a parent id, and are written out
when the run ends.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name, kept as a span?).  Names without a metric of
# their own are wrapped so that their time counts as their layer's self time,
# or to give the spans file its structure.
FUNCTIONS = [
    ("projcore", "join_points", "projcore.join", False),
    ("projcore", "meet_lines", "projcore.meet", False),
    ("projcore", "meet_coplanar_lines", "projcore.meet_coplanar", False),
    ("projcore", "solve_harmonic4", "projcore.harmonic", False),
    ("projcore", "solve_harmonic6", "projcore.harmonic", False),
    ("projcore", "cross_ratio4", "projcore.cross_ratio", False),
    ("projcore", "cross_ratio6", "projcore.cross_ratio", False),
    ("linalg", "rref", "linalg.rref", False),
    ("linalg", "rank", "linalg.rank", False),
    ("linalg", "nullspace", "linalg.nullspace", False),
    ("linalg", "solve", "linalg.solve", False),
    ("linalg", "det", "linalg.det", False),
    ("linalg", "in_span", "linalg.in_span", False),
    ("pentagram2d", "pentagram_step", "pentagram2d.step", True),
    ("corrugated", "corrugated_step", "corrugated.step", True),
    ("corrugated", "is_corrugated", "corrugated.certificate", False),
    ("lower1d", "t1_step", "lower1d.step", False),
    ("mirror", "mp_step", "mirror.step", False),
    ("mirror", "mp_inverse", "mirror.step", False),
    ("frieze", "next_row", "frieze.row", False),
    ("pentagram2d", "collapse_orbit", "pentagram2d.verify", True),
    ("corrugated", "collapse_orbit_m", "corrugated.verify", True),
    ("lower1d", "verify_T008", "lower1d.verify", True),
    ("mirror", "verify_T007", "mirror.verify", True),
    ("mirror", "verify_correspondence", "mirror.verify", True),
    ("frieze", "verify_T005", "frieze.verify", True),
    ("frieze", "diamond_soundness", "frieze.verify", True),
    ("frieze", "verify_embedding", "frieze.verify", True),
    ("lifting", "lift_report", "lifting.report", True),
    ("lifting", "flat_H", "lifting.flat_H", False),
    ("lifting", "slices_check", "lifting.slices_check", False),
    ("lifting", "skeleton_recurrence_check", "lifting.skeleton_check", True),
    ("lifting", "fully_sliced_check", "lifting.fully_sliced", True),
    ("lifting", "prism_independence_check", "lifting.prism_independence", True),
    ("lifting", "mating_orbit_check", "lifting.mating_check", True),
    ("lifting", "collapse_line_check", "lifting.collapse_line", True),
    ("lifting", "parallel_lift", "lifting.parallel_lift", True),
    ("lifting", "general_position_check", "lifting.general_position", True),
    ("pentagram2d", "random_axis_aligned", "rng.sample", True),
    ("corrugated", "random_axis_aligned_m", "rng.sample_m", True),
    ("lower1d", "random_b", "rng.sample", True),
    ("frieze", "random_a1", "rng.sample", True),
    ("mirror", "random_axis_aligned_mirror", "rng.sample", True),
    ("mirror", "random_mirror_pair", "rng.sample", True),
    ("serde", "load_instance", "serde.load", True),
    ("serde", "dumps", "serde.dump", True),
    ("svg", "orbit_svg", "svg.render", True),
    ("cli", "main", "cli.command", True),
]
# (module, class, method, span name, kept as a span?)
METHODS = [
    ("projcore", "ProjPoint", "__init__", "projcore.point", False),
    ("projcore", "ProjLine2", "__init__", "projcore.line", False),
    ("lifting", "AffineFlat", "intersect", "lifting.intersect", False),
]
ROOTS = ("unit", "cli.command")
PACKAGE = "pentagram_lab"


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return abs(value).bit_length()


class Tracer:
    """Counters and spans for one traced run; ``install`` turns it on."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [name, child time, span id, parent id]
        self.max_coord_bits = 0
        self.max_entry_bits = 0
        self.unit_coord_bits = 0
        self.sample_certificates = 0
        self.samples_accepted = 0
        self.degenerate: Counter[tuple[str, str]] = Counter()
        self.claim = ""
        self._plan_cache: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------

    def _parent_id(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def _enter(self, name: str, keep: bool) -> list:
        span_id = len(self.spans) if keep else None
        if keep:
            self.spans.append(None)  # filled on exit
        frame = [name, 0.0, span_id, self._parent_id() if keep else None]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        name = frame[0]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]
        if frame[2] is not None:
            self.spans[frame[2]] = (frame[2], frame[3], name, start, end)

    def run_unit(self, unit_call, claim: str):
        """Run one benchmark unit under a root span."""
        self.claim = claim
        self.unit_coord_bits = 0
        frame = self._enter("unit", True)
        start = perf_counter()
        try:
            return unit_call()
        finally:
            self._exit(frame, start, perf_counter())

    def _wrap(self, fn, name: str, keep: bool, post=None):
        tracer = self
        degeneracy = self._degeneracy

        def traced(*args, **kwargs):
            frame = tracer._enter(name, keep)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except degeneracy as exc:
                parent = tracer.stack[-2][0] if len(tracer.stack) > 1 else None
                if parent in ROOTS and name not in ROOTS:
                    tracer.degenerate[(tracer.claim, type(exc).__name__)] += 1
                raise
            finally:
                tracer._exit(frame, start, perf_counter())
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- post hooks ----------------------------------------------------

    def _after_point(self, args, _result):
        point = args[0]
        coords = point.coords if hasattr(point, "coords") else point.coeffs
        bits = max(abs(c).bit_length() for c in coords)
        if bits > self.unit_coord_bits:
            self.unit_coord_bits = bits
            if bits > self.max_coord_bits:
                self.max_coord_bits = bits

    def _after_rref(self, _args, result):
        rows, _ = result
        for row in rows:
            for x in row:
                bits = _bits(x)
                if bits > self.max_entry_bits:
                    self.max_entry_bits = bits

    def _after_det(self, _args, result):
        self.max_entry_bits = max(self.max_entry_bits, _bits(result))

    def _after_certificate(self, _args, _result):
        if any(frame[0] == "rng.sample_m" for frame in self.stack):
            self.sample_certificates += 1

    def _after_sample_m(self, _args, _result):
        self.samples_accepted += 1

    # -- install / uninstall -------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """Every (owner, name, original, wrapper) rebinding, found once."""
        self._degeneracy = sys.modules[PACKAGE].DegeneracyError
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        posts = {"linalg.rref": self._after_rref, "linalg.det": self._after_det,
                 "corrugated.certificate": self._after_certificate,
                 "rng.sample_m": self._after_sample_m}
        plan = []
        for mod_name, attr, name, keep in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapper = self._wrap(original, name, keep, posts.get(name))
            for module in modules:
                plan += [(module, key, original, wrapper)
                         for key, value in vars(module).items() if value is original]
        for mod_name, cls_name, method, name, keep in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            original = cls.__dict__[method]
            post = self._after_point if method == "__init__" else None
            plan.append((cls, method, original, self._wrap(original, name, keep, post)))
        return plan

    def install(self) -> None:
        if not self._plan_cache:
            self._plan_cache = self._plan()
        for owner, key, _, wrapper in self._plan_cache:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._plan_cache:
            setattr(owner, key, original)

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": Counter(self.calls),
            "total": Counter(self.total),
            "self": Counter(self.self_time),
        }
