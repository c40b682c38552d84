"""The search's restart draws are numpy's: ``_draws.flat_dirichlet`` gives
the bits of ``np.random.default_rng(key).dirichlet(np.ones(n), size=k)``,
its generator numpy's PCG64 stream and its exponentials numpy's, and its
ziggurat tables follow from the tail edge and the layer area."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macwtfb import _draws

# one key word each: 32-bit, 64-bit and wider values, and the edges
WORDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**101),
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
)

# keys whose one exponential leaves the rectangles: a tail draw at layer
# 0, a wedge draw under the density, and a wedge draw above it that
# starts over
BRANCH_KEYS = {"tail": (1116,), "accept": (201,), "retry": (82,)}


def numpy_dirichlet(key, k, n):
    return np.random.default_rng(key).dirichlet(np.ones(n), size=k)


@settings(max_examples=200, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=7).map(tuple), st.integers(1, 12), st.integers(1, 5))
def test_flat_dirichlet_is_numpys(key, n, k):
    (rows,) = _draws.flat_dirichlet(key, [(k, n)])
    assert np.array(rows).tobytes() == numpy_dirichlet(key, k, n).tobytes()


@pytest.mark.parametrize("branch", sorted(BRANCH_KEYS))
def test_each_ziggurat_branch_runs_and_keeps_numpys_stream(branch, monkeypatch):
    taken = []
    unlikely = _draws._unlikely

    def counted(gen, idx, x):
        value = unlikely(gen, idx, x)
        taken.append("tail" if idx == 0 else "accept" if value is not None else "retry")
        return value

    monkeypatch.setattr(_draws, "_unlikely", counted)
    key = BRANCH_KEYS[branch]
    # the branch's exponential, then more blocks from the same generator
    blocks = _draws.flat_dirichlet(key, [(1, 1), (2, 3), (1, 4)])
    assert branch in taken
    rng = np.random.default_rng(key)
    for rows, (k, n) in zip(blocks, [(1, 1), (2, 3), (1, 4)]):
        assert np.array(rows).tobytes() == rng.dirichlet(np.ones(n), size=k).tobytes()


def test_raw_stream_and_exponentials_are_numpys():
    key = (7, 2**64 + 5, 0)
    gen = _draws._Pcg64(key)
    assert [gen.next64() for _ in range(1000)] == np.random.PCG64(key).random_raw(1000).tolist()
    gen = _draws._Pcg64(key)
    ours = np.array([_draws._standard_exponential(gen) for _ in range(50_000)])
    assert ours.tobytes() == np.random.default_rng(key).standard_exponential(50_000).tobytes()


def test_ziggurat_tables_follow_from_the_tail_edge_and_the_layer_area():
    with localcontext() as context:
        context.prec = 40
        r = Decimal("7.6971174701310497140446280481")
        v = (r + 1) * (-r).exp()
        x = [Decimal(0)] * 256
        x[255] = r
        for i in range(254, 0, -1):
            x[i] = -(v / x[i + 1] + (-x[i + 1]).exp()).ln()
        q = v * r.exp()
        scale = Decimal(2) ** 53
        we = (float(q / scale), *(float(x[i] / scale) for i in range(1, 256)))
        fe = (1.0, *(float((-x[i]).exp()) for i in range(1, 256)))
        floors = [int(r / q * scale), *(int(x[i - 1] / x[i] * scale) for i in range(1, 256))]
    assert _draws._R == float(r)
    assert _draws._WE == we
    assert _draws._FE == fe
    # numpy's bounds: at the floor, or one below it in 131 layers
    assert len(_draws._KE) == 256 and _draws._KE[1] == floors[1] == 0
    below = [floor - bound for bound, floor in zip(_draws._KE, floors)]
    assert set(below) == {0, 1} and below.count(1) == 131
    assert all(isinstance(bound, int) for bound in _draws._KE)
