import numpy as np
import pytest
from hypothesis import strategies as st

from splitmev import (
    ArbParams,
    LinearClamped,
    PoolState,
    PowerConcave,
    QuadraticConcave,
    threshold,
)


pools = st.builds(
    PoolState,
    reserve_x=st.floats(1e2, 1e7),
    reserve_y=st.floats(1e2, 1e7),
    fee=st.sampled_from([0.0, 0.0005, 0.003, 0.01]),
)


def random_instance(rng, fee_choices=(0.0, 0.0005, 0.003, 0.01)):
    """One randomized compliant arbitrage instance (pool, params, model).

    Pools span x, y in [1e2, 1e7]; the CEX price sits within +/-20% of
    spot; overhead and penalty are drawn in [0, 2*threshold]. Returns None
    when the drawn instance has a nonpositive threshold (no split regime
    to probe).
    """
    x = 10.0 ** rng.uniform(2, 7)
    y = 10.0 ** rng.uniform(2, 7)
    pool = PoolState(x, y, float(rng.choice(fee_choices)))
    cex_price = (y / x) * rng.uniform(0.8, 1.2)
    total = x * rng.uniform(0.001, 0.5)

    kind = rng.integers(3)
    if kind == 0:
        model = LinearClamped(slope=float(rng.uniform(0.05, 0.9)) / total)
    elif kind == 1:
        model = PowerConcave(q_max=total * float(rng.uniform(1.0, 5.0)), alpha=float(rng.uniform(1.0, 3.0)))
    else:
        model = QuadraticConcave(a=float(rng.uniform(0, 0.3)) / total, b=float(rng.uniform(0.05, 0.5)) / total**2)

    theta0 = threshold(pool, ArbParams(total, cex_price), model)
    if theta0 <= 0:
        return None
    phi = float(rng.uniform(0, 2 * theta0))
    theta = threshold(pool, ArbParams(total, cex_price, 0.0, phi), model)
    if theta <= 0:
        return None
    gas = float(rng.uniform(0, 2 * theta))
    return pool, ArbParams(total, cex_price, gas, phi), model


def compliant_instances(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        inst = random_instance(rng, **kwargs)
        if inst is not None:
            out.append(inst)
    return out


@pytest.fixture(scope="session")
def fixtures_dir():
    from pathlib import Path

    return Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def scenarios_dir():
    from pathlib import Path

    return Path(__file__).parent.parent / "scenarios"


@pytest.fixture(scope="session")
def configs_dir():
    from pathlib import Path

    return Path(__file__).parent.parent / "configs"
