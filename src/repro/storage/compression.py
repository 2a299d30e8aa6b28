"""Columnar compression codecs.

FI-MPPDB's column store ships with "data compression"; we implement the
three classic lightweight encodings used by analytic engines:

* run-length encoding (RLE) — long runs of equal values,
* dictionary encoding — low-cardinality columns,
* delta (frame-of-reference) encoding — slowly changing numeric columns,
  e.g. timestamps.

Codecs are lossless; :func:`best_codec` picks the smallest encoding for a
chunk the way a storage engine's encoder would.  Lossless includes the
sign of a zero: ``-0.0 == 0.0``, but a run or a dictionary entry never
stands for both.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import StorageError


def _same_sign(a: float, b: float) -> bool:
    return math.copysign(1.0, a) == math.copysign(1.0, b)


class RunLengthCodec:
    """RLE over an arbitrary value sequence."""

    name = "rle"

    @staticmethod
    def encode(values: Sequence[object]) -> List[Tuple[object, int]]:
        runs: List[Tuple[object, int]] = []
        for value in values:
            if runs and runs[-1][0] == value and (
                    value != 0 or _same_sign(runs[-1][0], value)):
                runs[-1] = (value, runs[-1][1] + 1)
            else:
                runs.append((value, 1))
        return runs

    @staticmethod
    def decode(runs: Sequence[Tuple[object, int]]) -> List[object]:
        out: List[object] = []
        for value, count in runs:
            if count <= 0:
                raise StorageError(f"bad RLE run length {count}")
            out.extend([value] * count)
        return out

    @staticmethod
    def encoded_size(runs: Sequence[Tuple[object, int]]) -> int:
        return 2 * len(runs)


class DictionaryCodec:
    """Dictionary encoding: values -> small integer codes."""

    name = "dict"

    @staticmethod
    def encode(values: Sequence[object]) -> Tuple[List[object], List[int]]:
        mapping: Dict[object, int] = {}
        codes: List[int] = []
        dictionary: List[object] = []
        for value in values:
            code = mapping.get(value)
            if code is None:
                code = len(dictionary)
                mapping[value] = code
                dictionary.append(value)
            codes.append(code)
        zero = mapping.get(0)
        if zero is not None and isinstance(dictionary[zero], float):
            # 0.0 and -0.0 share a key: the zero of the other sign gets a
            # code of its own
            first, other = dictionary[zero], None
            for i, value in enumerate(values):
                if codes[i] == zero and not _same_sign(value, first):
                    if other is None:
                        other = len(dictionary)
                        dictionary.append(value)
                    codes[i] = other
        return dictionary, codes

    @staticmethod
    def decode(dictionary: Sequence[object], codes: Sequence[int]) -> List[object]:
        try:
            return [dictionary[c] for c in codes]
        except IndexError:
            raise StorageError("dictionary code out of range") from None

    @staticmethod
    def encoded_size(dictionary: Sequence[object], codes: Sequence[int]) -> int:
        return len(dictionary) + max(1, len(codes) // 4)


class DeltaCodec:
    """Frame-of-reference + deltas for integer-like columns."""

    name = "delta"

    @staticmethod
    def encode(values: Sequence[int]) -> Tuple[int, List[int]]:
        if len(values) == 0:
            return 0, []
        arr = np.asarray(values, dtype=np.int64)
        base = int(arr[0])
        deltas = np.diff(arr, prepend=base).astype(np.int64)
        deltas[0] = 0
        return base, deltas.tolist()

    @staticmethod
    def decode(base: int, deltas: Sequence[int]) -> List[int]:
        if not deltas:
            return []
        arr = np.cumsum(np.asarray(deltas, dtype=np.int64)) + base
        return arr.tolist()

    @staticmethod
    def encoded_size(base: int, deltas: Sequence[int]) -> int:
        if not deltas:
            return 1
        # Small deltas pack tighter; approximate with max byte width.
        width = max(1, int(np.max(np.abs(deltas))).bit_length() // 8 + 1)
        return 1 + len(deltas) * width // 8 + 1


def best_codec(values: Sequence[object]) -> Tuple[str, object]:
    """Encode ``values`` with each applicable codec, return the smallest.

    Returns ``(codec_name, payload)``; ``'plain'`` if nothing beat raw.
    """
    n = len(values)
    candidates: List[Tuple[int, str, object]] = [(n, "plain", list(values))]

    runs = RunLengthCodec.encode(values)
    candidates.append((RunLengthCodec.encoded_size(runs), "rle", runs))

    dictionary, codes = DictionaryCodec.encode(values)
    if len(dictionary) < max(2, n // 2):
        candidates.append(
            (DictionaryCodec.encoded_size(dictionary, codes), "dict", (dictionary, codes))
        )

    if n and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
        base, deltas = DeltaCodec.encode(values)  # type: ignore[arg-type]
        candidates.append((DeltaCodec.encoded_size(base, deltas), "delta", (base, deltas)))

    candidates.sort(key=lambda c: (c[0], _CODEC_ORDER[c[1]]))
    _, name, payload = candidates[0]
    return name, payload


_CODEC_ORDER = {"plain": 3, "rle": 0, "dict": 1, "delta": 2}


def decode(name: str, payload: object) -> List[object]:
    """Inverse of :func:`best_codec`."""
    if name == "plain":
        return list(payload)  # type: ignore[arg-type]
    if name == "rle":
        return RunLengthCodec.decode(payload)  # type: ignore[arg-type]
    if name == "dict":
        dictionary, codes = payload  # type: ignore[misc]
        return DictionaryCodec.decode(dictionary, codes)
    if name == "delta":
        base, deltas = payload  # type: ignore[misc]
        return DeltaCodec.decode(base, deltas)
    raise StorageError(f"unknown codec {name!r}")
