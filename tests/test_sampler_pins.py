"""Seeded samplers pinned by SHA-256 over seeds 0-199.

Each digest covers, for every seed, the drawn instance rendered with the
type name of every value in it: the canonical coordinates of each vertex,
the ``Fraction`` fields (``AxisAligned2.a``/``.b``, ``AxisAlignedM.steps``),
and the numerator and denominator of each ``Fraction``.  A draw that raises
contributes its error type and message.  The digests were recorded before
the samplers built vertex coordinates from numerators and denominators, and
must not change: the draws, the rejections, the coordinates and the public
field types all stay as they were.
"""

import hashlib
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest

from pentagram_lab.corrugated import random_axis_aligned_m
from pentagram_lab.errors import PentagramError
from pentagram_lab.frieze import random_a1
from pentagram_lab.lower1d import random_b
from pentagram_lab.mirror import random_axis_aligned_mirror, random_mirror_pair
from pentagram_lab.pentagram2d import random_axis_aligned
from pentagram_lab.projcore import ProjPoint

SEEDS = range(200)

SAMPLERS = {
    "random_axis_aligned n=3": lambda seed: random_axis_aligned(3, seed),
    "random_axis_aligned n=6": lambda seed: random_axis_aligned(6, seed),
    "random_axis_aligned_m (3,3)": lambda seed: random_axis_aligned_m(3, 3, seed),
    "random_axis_aligned_m (4,5)": lambda seed: random_axis_aligned_m(4, 5, seed),
    "random_axis_aligned_mirror n=4": lambda seed: random_axis_aligned_mirror(4, seed),
    "random_axis_aligned_mirror n=5": lambda seed: random_axis_aligned_mirror(5, seed),
    "random_mirror_pair n=6": lambda seed: random_mirror_pair(6, seed),
    "random_b n=8": lambda seed: random_b(8, seed),
    "random_a1 n=6": lambda seed: random_a1(6, seed),
}

DIGESTS = {
    "random_axis_aligned n=3": "e5c997fda7d01c270fe85868a9fd22a515b45aeeb3fbaa857297244d5abf70a7",
    "random_axis_aligned n=6": "0d2f88cd7d0c1a834221d602db0eaf6a03d1730eaac57896ac0f29616eea6b2d",
    "random_axis_aligned_m (3,3)": "978c73f328513954232a74caf550f4940eeadf7e4f3a2cf28daf61fa46fd526c",
    "random_axis_aligned_m (4,5)": "8833a1acef5be0d374012a03c4746ceef09a3dea700bd08cb9e61b29b22737c7",
    "random_axis_aligned_mirror n=4": "ec71c4fa011b3cfdadce412c6894b5f2975ce709999066d047acccf2efc4fa58",
    "random_axis_aligned_mirror n=5": "c76be88a3a2396b3ca9df2b1bc96b88e25ae5804e833cf6e3890bab078da5a11",
    "random_mirror_pair n=6": "674d224de40deca5bcddbb2af2324166b1b29b02308bb770558d745078894423",
    "random_b n=8": "9d68507e3155de2efb647a656b80f898aad308c4eaff689e0fad8fdd3e12aacd",
    "random_a1 n=6": "90223a740c6cdb6833ce43ab357de4930c2a484cc268c7c9c8883902cb8d86fb",
}


def render(value) -> str:
    """``value`` with the type name of every part of it."""
    name = type(value).__name__
    if isinstance(value, ProjPoint):
        return f"{name}({','.join(render(c) for c in value.coords)})"
    if isinstance(value, Fraction):
        return f"{name}({render(value.numerator)}/{render(value.denominator)})"
    if is_dataclass(value):
        inner = ",".join(f"{f.name}={render(getattr(value, f.name))}" for f in fields(value))
        return f"{name}{{{inner}}}"
    if isinstance(value, (tuple, list)):
        return f"{name}[{','.join(render(v) for v in value)}]"
    if type(value) in (int, str, bool) or value is None:
        return f"{name}:{value!r}"
    raise TypeError(f"unexpected value {value!r} of type {name}")


def sampler_digest(sample) -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        try:
            text = render(sample(seed))
        except PentagramError as exc:
            text = f"{type(exc).__name__}: {exc}"
        digest.update(f"{seed} {text}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_sampler_draws_are_pinned(name):
    assert sampler_digest(SAMPLERS[name]) == DIGESTS[name]
