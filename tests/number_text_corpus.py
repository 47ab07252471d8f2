"""Check the run-log writer's number text against ``json.dumps`` on a large corpus.

    python tests/number_text_corpus.py SRC

Imports bellbox from SRC and formats, a slice of 2**16 values at a time,
every double of the corpus through ``numtext.float_words`` and every int64
through ``numtext.integer_words``, then compares the text with what
``json.dumps`` writes for the same list.  The corpus: 2**21 random 64-bit
patterns (seed 23), every subnormal with a significand below 2**20 and its
negative, every power of two with its two neighbours, every power of ten
from 1e-323 to 1e308 with its two neighbours, and the integers around
2**53; then 2**18 random int64 and the int64 extremes.  Prints each
corpus's mismatch count and the first few mismatches, and exits 1 on any.
It takes under a minute.  pytest does not collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

SEED = 23
SLICE = 1 << 16


def texts(words: np.ndarray) -> list[str]:
    """The texts held by (words, n) uint64 words, NUL bytes dropped."""
    rows = np.zeros((words.shape[1], 8 * words.shape[0] + 1), np.uint8)
    rows[:, :-1] = np.ascontiguousarray(words.T).astype("<u8").view(np.uint8)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode("ascii").splitlines()


def mismatches(values: np.ndarray, format_words) -> list[tuple[str, str]]:
    """(expected, written) for every value whose text differs from ``json.dumps``'s."""
    found = []
    for start in range(0, values.size, SLICE):
        part = values[start:start + SLICE]
        expected = json.dumps(part.tolist())[1:-1].split(", ")
        written = texts(format_words(part))
        found += [(e, w) for e, w in zip(expected, written, strict=True) if e != w]
    return found


def double_corpus() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(SEED)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    subnormals = np.arange(1, 1 << 20, dtype=np.uint64).view(np.float64)
    around_2_53 = float(2**53) + np.arange(-64, 65, dtype=np.float64)
    return {
        "random patterns": rng.integers(0, 2**64, 1 << 21, dtype=np.uint64, endpoint=False).view(np.float64),
        "subnormals": np.concatenate((subnormals, -subnormals)),
        "powers of two": np.concatenate([np.nextafter(powers_of_two, x) for x in (0.0, np.inf)] + [powers_of_two]),
        "powers of ten": np.concatenate([np.nextafter(powers_of_ten, x) for x in (0.0, np.inf)] + [powers_of_ten]),
        "around 2**53": np.concatenate((around_2_53, -around_2_53)),
    }


def integer_corpus() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(SEED)
    extremes = [-(2**63), -(2**63) + 1, 2**63 - 1, 0, 1, -1]
    extremes += [sign * (10**k + d) for k in range(19) for d in (-1, 0, 1) for sign in (1, -1)]
    return {
        "random int64": rng.integers(-(2**63), 2**63, 1 << 18, dtype=np.int64, endpoint=False),
        "int64 extremes": np.array(extremes, np.int64),
    }


def main() -> int:
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    from bellbox import numtext

    failed = False
    for corpora, format_words in ((double_corpus(), numtext.float_words), (integer_corpus(), numtext.integer_words)):
        for name, values in corpora.items():
            found = mismatches(values, format_words)
            print(f"{name}: {values.size} values, {len(found)} mismatches", *found[:5], sep="\n  " if found else "")
            failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
