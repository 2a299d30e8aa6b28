"""``ColumnVector.take`` makes a view that gathers each array on first read.

A view holds its source vector and the lanes it selects; ``validity``,
``codes`` and ``data`` are gathered from the source when first read, and a
take of a view composes lanes and reads the same source.  Whatever chain of
index, mask and slice takes built a view, it must read exactly what the
eager gathers read, keep a TEXT vector's codes, keep a read-only source's
arrays read-only, and gather nothing for a column nobody reads.
"""

import numpy as np
import pytest

from repro.exec.batch import Batch
from repro.storage.colstore import ColumnChunk, ColumnVector, text_vector
from repro.storage.types import DataType

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - the container ships hypothesis
    given = None

N = 12
VALID = np.array([i % 4 != 1 for i in range(N)])


def _vectors():
    """int, double, object and coded TEXT vectors, each with NULLs."""
    ints = np.arange(N, dtype=np.int64) * 7 - 30
    doubles = np.linspace(-1.5, 4.0, N)
    objects = np.array([2 ** 70 + i if i % 3 else None for i in range(N)],
                       dtype=object)
    words = [None if i % 5 == 2 else "abc"[i % 3] for i in range(N)]
    dictionary = sorted({w for w in words if w is not None}) + [None]
    codes = [dictionary.index(w) for w in words]
    return {
        "int": ColumnVector(ints, VALID.copy()),
        "double": ColumnVector(doubles, VALID.copy()),
        "object": ColumnVector(objects, np.array([v is not None
                                                  for v in objects])),
        "text": text_vector(dictionary, codes),
    }


def _eager(vec, lanes):
    """What the vector reads at ``lanes``, gathered at once."""
    data = (vec.dictionary[vec.codes] if vec.dictionary is not None
            else vec.data)
    return (data[lanes], vec.validity[lanes],
            None if vec.codes is None else vec.codes[lanes])


def _read(vec):
    return vec.data, vec.validity, vec.codes


def _same(got, want):
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()


def _lanes(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "index":
        return rng.integers(0, n, size=rng.integers(0, n + 3)) if n else \
            np.zeros(0, dtype=np.intp)
    if kind == "mask":
        return rng.random(n) < 0.6
    start = int(rng.integers(0, n + 1))
    return slice(start, start + int(rng.integers(0, n + 1)))


KINDS = ("index", "mask", "slice")


@pytest.mark.parametrize("name", ["int", "double", "object", "text"])
@pytest.mark.parametrize("first", KINDS)
@pytest.mark.parametrize("second", KINDS)
def test_take_of_a_take_is_the_eager_gather(name, first, second):
    for seed in range(5):
        vec = _vectors()[name]
        a = _lanes(first, N, seed)
        once = vec.take(a)
        eager_once = _eager(vec, a)
        b = _lanes(second, len(eager_once[1]), seed + 100)
        twice = once.take(b)
        assert len(once) == len(eager_once[1])
        assert len(twice) == len(eager_once[1][b])
        _same(_read(twice), [None if x is None else x[b]
                             for x in eager_once])
        _same(_read(once), eager_once)
        # a view read before it is taken again reads the same
        assert once.take(b).data.tolist() == twice.data.tolist()


if given is not None:
    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(["int", "double", "object", "text"]),
           chain=st.lists(st.tuples(st.sampled_from(KINDS),
                                    st.integers(0, 2 ** 16)),
                          min_size=1, max_size=5),
           read_at=st.integers(0, 5))
    def test_any_chain_of_takes_reads_the_eager_gather(name, chain,
                                                       read_at):
        vec = _vectors()[name]
        want = (vec.dictionary[vec.codes] if name == "text" else vec.data,
                vec.validity, vec.codes)
        for step, (kind, seed) in enumerate(chain):
            if step == read_at:
                _read(vec)      # a gathered view is taken like a vector
            lanes = _lanes(kind, len(want[1]), seed)
            vec = vec.take(lanes)
            want = [None if x is None else x[lanes] for x in want]
        _same(_read(vec), want)


def test_text_views_keep_their_codes():
    vec = _vectors()["text"]
    view = vec.take(np.array([4, 0, 2, 2]))
    assert view.dictionary is vec.dictionary
    assert view.codes.dtype == vec.codes.dtype
    assert view._data is None           # decoded only when read
    assert view.codes.tolist() == vec.codes[[4, 0, 2, 2]].tolist()
    assert view.data.tolist() == vec.dictionary[
        vec.codes[[4, 0, 2, 2]]].tolist()


def _decoded_chunk():
    chunk = ColumnChunk("g", DataType.TEXT, "plain",
                        ["x", None, "y", "x", "z"], 5)
    return chunk.decode_with_nulls()


def _image_column():
    batch = Batch([ColumnVector(np.arange(5, dtype=np.int64),
                                np.ones(5, dtype=bool))], 5).read_only()
    return batch.columns[0]


@pytest.mark.parametrize("source", [_decoded_chunk, _image_column])
@pytest.mark.parametrize("kind", KINDS)
def test_read_only_propagates_to_views(source, kind):
    once = source().take(_lanes(kind, 5, 3))
    view = once.take(_lanes(kind, len(once), 4))
    for array in _read(view):
        if array is not None:
            assert not array.flags.writeable
    with pytest.raises(ValueError):
        view.validity[...] = False


def test_writeable_sources_give_writeable_views():
    view = _vectors()["int"].take(np.array([1, 2]))
    assert view.data.flags.writeable and view.validity.flags.writeable


@pytest.mark.parametrize("of_a_view", [False, True])
@pytest.mark.parametrize("lanes", [np.array([3, 1, 1]),
                                   np.arange(N) % 3 == 0])
def test_mutating_lanes_after_a_take_raises(lanes, of_a_view):
    vec = _vectors()["int"]
    if of_a_view:
        vec = vec.take(np.arange(N)[::-1].copy())
    lanes = lanes.copy()
    view = vec.take(lanes)
    with pytest.raises(ValueError):
        lanes[0] = lanes[-1]
    assert view.data.tolist() == vec.data[lanes].tolist()


def test_an_unread_column_of_a_filtered_batch_is_never_gathered(
        monkeypatch):
    vectors = _vectors()
    batch = Batch(list(vectors.values()), N)
    gathered = []
    gather = ColumnVector._gather

    def counted(self, array):
        gathered.append(self._source)
        return gather(self, array)

    monkeypatch.setattr(ColumnVector, "_gather", counted)
    mask = vectors["int"].data > -20
    out = batch.select(mask).take(np.array([0, 2, 3])).slice(1, 2)
    assert out.n == 2
    read = out.columns[0]
    assert read.data.tolist() == vectors["int"].data[mask][[2, 3]].tolist()
    assert read.validity.tolist() == VALID[mask][[2, 3]].tolist()
    # every view reads the original vectors; only the read column gathered
    assert all(col._source is vec
               for col, vec in zip(out.columns, vectors.values()))
    assert gathered == [vectors["int"], vectors["int"]]


def test_one_take_over_views_of_different_lanes():
    """A join's output batch holds views of two sources under two lane
    arrays; one take of it must compose each column with its own lanes,
    and two takes of one view with different lanes must not mix."""
    vectors = _vectors()
    probe = vectors["int"].take(np.array([5, 4, 3, 2]))
    build = vectors["double"].take(np.arange(N) % 2 == 0)
    other = vectors["text"].take(np.array([11, 10, 9, 8]))
    batch = Batch([probe, build, other], 4).take(np.array([3, 0]))
    assert batch.columns[0].data.tolist() == vectors["int"].data[[2, 5]].tolist()
    assert batch.columns[1].data.tolist() == \
        vectors["double"].data[[6, 0]].tolist()
    assert batch.columns[2].codes.tolist() == \
        vectors["text"].codes[[8, 11]].tolist()
    first = probe.take(np.array([0, 1]))
    second = probe.take(np.array([2, 3]))
    assert first.data.tolist() == vectors["int"].data[[5, 4]].tolist()
    assert second.data.tolist() == vectors["int"].data[[3, 2]].tolist()
