"""Monte Carlo harnesses for the attack's probability claims.

Three statistics are reproduced at desk scale: the coverage failure of
rotation-amount draws (closed form vs simulation), the expansion-index
ambiguity rate under the chosen differentials, and the model rate of
non-unique frame offsets over uniformly random keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import expansion_weight_tables, match_expansion_weights
from .cipher import expansion_chain, expansion_l_values, last_dropped, rotation_amount
from .core import LEGAL_ALPHA_BETA, Fixed129, legal_alpha_beta_pairs
from .errors import DomainError
from .keyrecovery import rotation_set
from .prbg import generate_prbs

AMBIGUITY_BOUND = 15 / 16 ** 5          # expansion-index ambiguity, per block
AMBIGUITY_KEY_BLOCKS = 10_000           # ambiguity_simulation's blocks per key
OFFSET_MODEL_RATE = 1 / 2 ** 7 + (1 - 1 / 2 ** 7) * ((1 / 21) * (2 / 8) + 4 / 21)
OFFSET_MODEL_LOWER_BOUND = 1 / 2 ** 7 + (1 - 1 / 2 ** 7) * (4 / 21)
PROP1_P_VALUES = (0.25, 0.5, 0.75)     # prop1_grid's first-pair probabilities
PROP1_N_VALUES = (1, 2, 4, 8)          # and its numbers of draws


def prop1_probability(alpha: int, beta: int, p: float, n: int) -> float:
    """Probability that n two-sided rotation draws fail to cover the full set."""
    if (alpha, beta) not in LEGAL_ALPHA_BETA:
        raise DomainError(f"illegal (alpha, beta) = ({alpha}, {beta})")
    if not (0.0 <= p <= 1.0 and n >= 1):
        raise DomainError("need 0 <= p <= 1 and n >= 1")
    if 2 * alpha + beta == 8:
        return 0.0
    if n == 1:
        return 1.0
    return p ** n + (1 - p) ** n


def prop1_montecarlo(alpha: int, beta: int, p: float, n: int, trials: int,
                     seed: int = 0) -> float:
    """Empirical counterpart of prop1_probability by direct simulation."""
    if trials < 1:
        raise DomainError("need at least one trial")
    if (alpha, beta) not in LEGAL_ALPHA_BETA:
        raise DomainError(f"illegal (alpha, beta) = ({alpha}, {beta})")
    rng = np.random.default_rng(seed)
    in_first = rng.random((trials, n)) < p
    side = rng.integers(0, 2, size=(trials, n))
    draws = rotation_amount(alpha, beta, 2 * side + ~in_first)
    full = rotation_set(alpha, beta)
    covered = np.ones(trials, dtype=bool)
    for member in full:
        covered &= ((draws == member) | (draws == 8 - member)).any(axis=1)
    return float((~covered).mean())


@dataclass
class Prop1Cell:
    alpha: int
    beta: int
    p: float
    n: int
    exact: float
    empirical: float
    sigma: float

    @property
    def within_3_sigma(self) -> bool:
        return abs(self.exact - self.empirical) <= 3 * self.sigma + 1e-12


def prop1_grid(trials: int = 10 ** 5, seed: int = 0) -> list[Prop1Cell]:
    """Closed form vs Monte Carlo over all legal pairs and the p, n grid."""
    cells = []
    cell_seed = seed
    for alpha, beta in legal_alpha_beta_pairs():
        for p in PROP1_P_VALUES:
            for n in PROP1_N_VALUES:
                cell_seed += 1
                exact = prop1_probability(alpha, beta, p, n)
                emp = prop1_montecarlo(alpha, beta, p, n, trials, seed=cell_seed)
                sigma = (exact * (1 - exact) / trials) ** 0.5
                cells.append(Prop1Cell(alpha, beta, p, n, exact, emp, sigma))
    return cells


def expansion_candidates(l_values: np.ndarray) -> dict[int, frozenset]:
    """The ambiguous expansion decisions the attack makes on an index stream.

    Runs the attack's matcher without the cipher: each block's expanded
    weight pair is the one it inherits down the expansion chain, starting
    from (0, 0) in block 0.  A decision is ambiguous when the pair a block
    hands on also sits at another of its sixteen positions.
    """
    num = len(l_values)
    weights = expansion_weight_tables(num)
    payload = l_values < 15
    passes = np.where(payload, weights[:, np.arange(num), np.where(payload, l_values, 0)], 0)
    weights[..., 15] = [expansion_chain(0, p, last_dropped(~payload)) for p in passes]
    return match_expansion_weights(weights)[1]


def ambiguity_simulation(decisions: int, seed: int = 0
                         ) -> tuple[int, int, list[tuple[int, int]]]:
    """Count expansion-index decisions that are not unique.

    Makes exactly ``decisions`` decisions: a key of n blocks makes n - 1, so
    keys of ``AMBIGUITY_KEY_BLOCKS`` blocks come first and one shorter key
    makes the rest.  Returns (ambiguous decisions, total decisions, instances)
    where each instance is (x0 raw value, block index).
    """
    rng = np.random.default_rng(seed)
    instances = []
    left = decisions
    while left > 0:
        blocks = min(AMBIGUITY_KEY_BLOCKS, left + 1)
        left -= blocks - 1
        raw = int.from_bytes(rng.bytes(17), "big") >> 7
        l_values = expansion_l_values(generate_prbs(Fixed129(raw), blocks).rows)
        instances += [(raw, k) for k in sorted(expansion_candidates(l_values))]
    return len(instances), decisions, instances


def offset_ambiguity_model(trials: int, seed: int = 0) -> dict[str, float]:
    """Model rate of non-unique frame offsets over uniform random keys.

    Per trial: a uniform legal (alpha, beta), a uniform offset in 0..7 and
    eight vertical draws (uniform controlling bits).  The offset is counted
    non-unique when the draws all fall in one of the two amount pairs while
    the pairs differ, or when the rotation set's rotational symmetry makes
    the offset inherently undeterminable ({2,6}: offsets 0 and 4 collide
    with the untranslated set; {1,3,5,7}: only the offset parity shows).
    """
    rng = np.random.default_rng(seed)
    pairs = legal_alpha_beta_pairs()
    r_sets = [rotation_set(a, b) for a, b in pairs]
    is_26 = np.array([r == frozenset({2, 6}) for r in r_sets])
    is_1357 = np.array([r == frozenset({1, 3, 5, 7}) for r in r_sets])
    degenerate = np.array([2 * a + b == 8 for a, b in pairs])

    key_idx = rng.integers(0, len(pairs), size=trials)
    offsets = rng.integers(0, 8, size=trials)
    in_first = rng.integers(0, 2, size=(trials, 8)).astype(bool)
    all_first = in_first.all(axis=1)
    all_second = (~in_first).all(axis=1)
    subset_fail = (all_first | all_second) & ~degenerate[key_idx]
    case_fail = (is_26[key_idx] & ((offsets == 0) | (offsets == 4))) | is_1357[key_idx]
    fail = subset_fail | case_fail
    return {
        "rate": float(fail.mean()),
        "subset_rate": float(subset_fail.mean()),
        "case_rate": float(case_fail.mean()),
        "model_value": OFFSET_MODEL_RATE,
        "lower_bound": OFFSET_MODEL_LOWER_BOUND,
        "sigma": float((OFFSET_MODEL_RATE * (1 - OFFSET_MODEL_RATE) / trials) ** 0.5),
    }
