"""Shared corpora: cones in dims 1-3, the built-in fans, and flag types."""

import pytest
from hypothesis import settings

from torified.lattice import Cone, Fan, faces, standard_fan

# One profile for every property test: examples are exact computations whose
# time follows the host's load, so a per-example deadline would test the host.
settings.register_profile("torified", deadline=None)
settings.load_profile("torified")

# The singular quadric-cone example: its monoid needs three generators with
# one binomial relation.
SINGULAR_CONE = Cone(2, ((1, 0), (1, 2)))
SINGULAR_DUAL = Cone(2, ((0, 1), (2, -1)))

CONE_CORPUS = [
    # dim 1
    Cone(1, ((1,),)),
    Cone(1, ((-1,),)),
    Cone(2, ((1, 0),)),
    Cone(2, ((0, 1),)),
    Cone(2, ((1, 2),)),
    Cone(2, ((2, 3),)),
    Cone(2, ((3, -1),)),
    Cone(3, ((1, 1, 1),)),
    Cone(3, ((1, 2, 3),)),
    # dim 2
    Cone(2, ((1, 0), (0, 1))),
    SINGULAR_CONE,
    SINGULAR_DUAL,
    Cone(2, ((1, 1), (1, -1))),
    Cone(2, ((1, 0), (1, 3))),
    Cone(2, ((1, 2), (2, 1))),
    Cone(2, ((-1, 0), (0, -1))),
    Cone(3, ((1, 0, 0), (0, 1, 0))),
    Cone(3, ((1, 1, 0), (0, 1, 2))),
    # dim 3
    Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    Cone(3, ((1, 0, 0), (1, 2, 0), (0, 0, 1))),
    Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 2))),
    Cone(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))),  # non-simplicial
    Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 3))),
    Cone(3, ((2, -1, 0), (0, 1, 0), (0, 0, 1))),
]


def singular_fan() -> Fan:
    return Fan(2, faces(SINGULAR_CONE))


FAN_CORPUS = {
    "P1": standard_fan("projective_space", 1),
    "P2": standard_fan("projective_space", 2),
    "A1": standard_fan("affine_space", 1),
    "A2": standard_fan("affine_space", 2),
    "A3": standard_fan("affine_space", 3),
    "Gm0": standard_fan("torus", 0),
    "Gm1": standard_fan("torus", 1),
    "Gm2": standard_fan("torus", 2),
    "singular": singular_fan(),
}


def compositions(n):
    """Every composition of n (flag types of C^n), in a fixed order."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


@pytest.fixture(params=sorted(FAN_CORPUS), ids=sorted(FAN_CORPUS))
def corpus_fan(request):
    return FAN_CORPUS[request.param]
