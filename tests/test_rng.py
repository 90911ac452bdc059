import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ksplab import RngStream
from ksplab.rng import _MASK64, _SUBSTREAM_FACTOR


def test_same_stream_reproduces():
    a = RngStream(42, 7).generator().standard_normal(100)
    b = RngStream(42, 7).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_uncorrelated():
    n = 50_000
    a = RngStream(42, 1).generator().standard_normal(n)
    b = RngStream(42, 2).generator().standard_normal(n)
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_generator_restarts_from_origin():
    stream = RngStream(5, 5)
    g1 = stream.generator()
    g1.standard_normal(10)
    g2 = stream.generator()
    assert np.array_equal(g2.standard_normal(3), RngStream(5, 5).generator().standard_normal(3))


def test_substreams_do_not_collide():
    parent_a = RngStream(1, 2)
    parent_b = RngStream(1, 3)
    ids = {parent_a.substream(i).stream_id for i in range(100)}
    ids |= {parent_b.substream(i).stream_id for i in range(100)}
    ids |= {parent_a.substream(0).substream(i).stream_id for i in range(100)}
    assert len(ids) == 300


def test_substream_index_range_checked():
    with pytest.raises(ValueError):
        RngStream(0).substream(-1)
    with pytest.raises(ValueError):
        RngStream(0).substream(1 << 20)


def test_negative_seed_accepted():
    a = RngStream(-3, 0).generator().standard_normal(4)
    b = RngStream(-3, 0).generator().standard_normal(4)
    assert np.array_equal(a, b)


def test_substream_id_past_64_bits_raises():
    # 2**64 + 1 would be masked to 1 and draw the numbers of RngStream(0, 1)
    with pytest.raises(ValueError):
        RngStream(0, 1 << 44).substream(0)
    top = RngStream(0, (1 << 44) - 1)
    assert top.substream(_SUBSTREAM_FACTOR - 2).stream_id == _MASK64
    with pytest.raises(ValueError):
        top.substream(_SUBSTREAM_FACTOR - 1)


def test_constructor_rejects_ids_outside_64_bits():
    # masked to 64 bits, these would draw the numbers of RngStream(0, 1) and
    # RngStream(0, 2**64 - 1)
    for sid in (_MASK64 + 2, -1, _MASK64 + 1):
        with pytest.raises(ValueError):
            RngStream(0, sid)
    top = RngStream(0, _MASK64)
    assert top.generator().standard_normal(3).shape == (3,)
    assert not np.array_equal(
        top.generator().standard_normal(3), RngStream(0, 0).generator().standard_normal(3)
    )


def _derive(root: RngStream, path: list[int]):
    stream = root
    for index in path:
        try:
            stream = stream.substream(index)
        except ValueError:
            return None
    return stream.stream_id


_paths = st.lists(st.integers(0, _SUBSTREAM_FACTOR - 1), max_size=4)


@given(root=st.integers(0, 1 << 30), a=_paths, b=_paths)
def test_distinct_substream_paths_raise_or_stay_distinct(root, a, b):
    id_a, id_b = _derive(RngStream(0, root), a), _derive(RngStream(0, root), b)
    for sid in (id_a, id_b):
        assert sid is None or 0 <= sid <= _MASK64
    if a != b and id_a is not None and id_b is not None:
        assert id_a != id_b
