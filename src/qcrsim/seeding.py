"""Deterministic seed derivation: one root seed, named sub-streams.

Every random stage derives its generator as named_rng(root, "stage"),
so stages can be reordered, parallelized or re-run in isolation without
perturbing each other's draws.  Chunked/parallel sampling inside a stage
should extend the same scheme with the chunk index, e.g.
named_rng(root, "shots", 3) for the fourth worker.
"""

from __future__ import annotations

import hashlib

from numpy.random import Generator, SeedSequence, default_rng

from ._checks import integer


def stream_key(name: str) -> tuple[int, ...]:
    """Stable 128-bit key for a stream name (first 16 sha256 bytes)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(
        int.from_bytes(digest[4 * i : 4 * (i + 1)], "little") for i in range(4)
    )


def named_rng(root_seed: int, name: str, *indices: int) -> Generator:
    """Generator for the sub-stream ``name`` (plus optional chunk indices).
    Raises ValueError, naming the seed, unless ``root_seed`` is a
    non-negative integer (bool excluded); every stream inherits the check.
    """
    root = integer("seed", root_seed, 0)
    entropy = (root,) + stream_key(name) + tuple(int(i) for i in indices)
    return default_rng(SeedSequence(entropy))
