import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import bellsim as bs

settings.register_profile(
    "ci", derandomize=True, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def reference_counts():
    return bs.reference_run_counts()


@pytest.fixture(scope="session")
def calibrated_reference_model():
    """(state, settings, det) matching the bundled run's singles rates."""
    state = bs.make_eberhard_state(bs.REFERENCE_R)
    sett = bs.reference_settings()
    table = bs.reference_run_counts()
    n = table.n_trials.astype(float)
    mu, bg = bs.calibrate_source_rates(
        0.75,
        float(bs.singles_prob(state, sett.a)), float(table.singles_a[0] / n[0]),
        float(bs.singles_prob(state, sett.a_prime)), float(table.singles_a[2] / n[2]),
    )
    det = bs.DetectionModel(eta_a=0.75, eta_b=0.75, pair_mean=mu, bg_a=bg, bg_b=bg)
    return state, sett, det


def random_strategies(rng: np.random.Generator, count: int):
    """Seeded stream of random instruction sets (16 strategy weights each)
    for soundness sweeps: a class count, then per class a weight and its
    flags under a, a', b, b', the class adding its weight to its strategy."""
    out = []
    for _ in range(count):
        weights = np.zeros(16, dtype=np.int64)
        for _ in range(int(rng.integers(1, 8))):
            weight = int(rng.integers(0, 100))
            flags = [int(rng.integers(2)) for _ in range(4)]
            weights[8 * flags[0] + 4 * flags[1] + 2 * flags[2] + flags[3]] += weight
        out.append(weights)
    return out


def matmul_toeplitz(raw, seed, m):
    """Dense construction: row i of the Toeplitz matrix, seed[i : i+n],
    against the reversed input, as an int64 matrix product in row chunks."""
    n = raw.size
    rev = raw[::-1].astype(np.int64)
    out = np.empty(m, dtype=np.uint8)
    chunk = max(1, min(m, 8_388_608 // max(n, 1) + 1))
    windows = np.lib.stride_tricks.sliding_window_view(seed[:n + m - 1], n)
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        out[start:stop] = (windows[start:stop].astype(np.int64) @ rev) & 1
    return out
