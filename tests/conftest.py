import random

import numpy as np
import pytest

from mcs import Fixed129, SecretKey
from mcs.core import legal_alpha_beta_pairs

SAMPLE_KEY = SecretKey(2, 5, 3, 4, 20, Fixed129.from_decimal_string("0.251"))


def random_key(rng: random.Random) -> SecretKey:
    pairs = legal_alpha_beta_pairs()
    return SecretKey(*rng.choice(pairs), *rng.choice(pairs),
                     rng.randrange(256), Fixed129(rng.getrandbits(129)))


def memo_blocks(memo, values: int = 1) -> int:
    """The most blocks each of ``values`` kept values may have, for all of
    them to fit within a ``prbg.BlockMemo``'s bound in bytes."""
    return (memo.bound // values - memo.per_entry) // memo.per_block


def random_plain(rng: random.Random, blocks: int) -> bytes:
    return bytes(rng.randrange(256) for _ in range(15 * blocks))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def nprng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def sample_key():
    return SAMPLE_KEY
