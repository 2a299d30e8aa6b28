"""Tests for the columnar compression codecs."""

import math

import pytest

from repro.common.errors import StorageError
from repro.storage import compression
from repro.storage.compression import (
    DeltaCodec,
    DictionaryCodec,
    RunLengthCodec,
    best_codec,
    decode,
)


class TestRle:
    def test_round_trip(self):
        values = ["a"] * 5 + ["b"] * 3 + ["a"]
        assert RunLengthCodec.decode(RunLengthCodec.encode(values)) == values

    def test_runs_counted(self):
        runs = RunLengthCodec.encode([1, 1, 1, 2])
        assert runs == [(1, 3), (2, 1)]

    def test_empty(self):
        assert RunLengthCodec.decode(RunLengthCodec.encode([])) == []

    def test_bad_run_rejected(self):
        with pytest.raises(StorageError):
            RunLengthCodec.decode([("a", 0)])

    def test_signed_zeros_stay_apart(self):
        values = [0.0, -0.0, 0.0, -0.0]
        decoded = RunLengthCodec.decode(RunLengthCodec.encode(values))
        assert [math.copysign(1.0, v) for v in decoded] == [1.0, -1.0] * 2


class TestDictionary:
    def test_round_trip(self):
        values = ["x", "y", "x", "z", "x"]
        dictionary, codes = DictionaryCodec.encode(values)
        assert DictionaryCodec.decode(dictionary, codes) == values
        assert len(dictionary) == 3

    def test_signed_zeros_stay_apart(self):
        values = [0.0, -0.0, 0.0, -0.0]
        decoded = DictionaryCodec.decode(*DictionaryCodec.encode(values))
        assert [math.copysign(1.0, v) for v in decoded] == [1.0, -1.0] * 2

    def test_code_out_of_range(self):
        with pytest.raises(StorageError):
            DictionaryCodec.decode(["a"], [0, 1])


class TestDelta:
    def test_round_trip(self):
        values = [100, 101, 103, 103, 90]
        base, deltas = DeltaCodec.encode(values)
        assert DeltaCodec.decode(base, deltas) == values

    def test_monotone_timestamps_compress_well(self):
        values = list(range(1_000_000, 1_001_000))
        base, deltas = DeltaCodec.encode(values)
        assert DeltaCodec.encoded_size(base, deltas) < len(values)

    def test_empty(self):
        assert DeltaCodec.decode(*DeltaCodec.encode([])) == []


class TestBestCodec:
    def test_constant_column_picks_rle(self):
        name, payload = best_codec([7] * 1000)
        assert name == "rle"
        assert decode(name, payload) == [7] * 1000

    def test_low_cardinality_strings_pick_dict(self):
        values = ["us", "cn", "de"] * 300
        name, payload = best_codec(values)
        assert name in ("dict", "rle")
        assert decode(name, payload) == values

    def test_sequential_ints_pick_delta(self):
        values = list(range(5000, 6000))
        name, payload = best_codec(values)
        assert name == "delta"
        assert decode(name, payload) == values

    def test_random_strings_fall_back_to_plain(self):
        values = [f"s{i}" for i in range(100)]
        name, payload = best_codec(values)
        assert name == "plain"
        assert decode(name, payload) == values

    def test_decode_unknown_codec(self):
        with pytest.raises(StorageError):
            decode("nope", [])

    def test_none_values_survive(self):
        values = [None, 1, None, 1]
        name, payload = best_codec(values)
        assert decode(name, payload) == values
