import math
import random

import pytest

from braidrep.cyclo import units
from braidrep.rep import RepContext, make_context


@pytest.fixture(scope="session")
def grid_contexts() -> list[RepContext]:
    """Seeded sample over the acceptance grid: >= 200 contexts, d in 3..10,
    n in 3..6, spread across every (d, n) cell."""
    rng = random.Random(20240)
    contexts: list[RepContext] = []
    for d in range(3, 11):
        exponents = tuple(units(d))
        for n in range(3, 7):
            cell = 0
            while cell < 7:
                kappa = tuple(rng.randint(1, d - 1) for _ in range(n))
                if math.gcd(d, *kappa) != 1:
                    continue
                contexts.append(make_context(d, kappa, rng.choice(exponents)))
                cell += 1
    assert len(contexts) >= 200
    return contexts
