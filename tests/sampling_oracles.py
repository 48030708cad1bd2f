"""The draw rule of one Whittaker value, written out on the public API and
used by the tests only.

``sampling.random_whittaker_data`` writes the same draw straight into the
flat store; ``tests/test_sampling.py`` checks the two against each other,
call for call on one random generator.
"""

from __future__ import annotations

import random

from paramodular.rings import VLaurent
from paramodular.sampling import random_fraction


def random_vlaurent(rng: random.Random) -> VLaurent:
    """Nonzero Laurent coefficient with one or two v-monomials of exponent
    in -2..2."""
    exps = rng.sample(range(-2, 3), rng.randint(1, 2))
    return VLaurent({e: random_fraction(rng) for e in exps})
