"""Counter-based deterministic uniforms (SplitMix64 finalizer).

Draw i of stream ``seed`` is a pure function of (seed, i), so draws can be
produced in any order or in parallel chunks and still agree bit-for-bit with
sequential generation.  Not cryptographic; plenty for simulation.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SEED_SALT = 0xD6E8FEB86659FD93


def _fmix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _fmix64_inplace(z: np.ndarray, scratch: np.ndarray, finish: bool = True) -> np.ndarray:
    """_fmix64 on every uint64 in z, in place (uint64 arithmetic wraps mod
    2^64, as the mask does); scratch is a buffer of z's shape.  With finish
    false it stops before the last step (see _last_step)."""
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mul)
    return _last_step(z, scratch) if finish else z


def _last_step(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """_fmix64's last step, z ^= z >> 31, in place.  z >> 31 has its top 31
    bits zero, so the step leaves every word's top 31 bits as they were."""
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def derive_seed(seed: int, index: int) -> int:
    """Child seed for substream ``index`` (replications, draws, etc.)."""
    return _fmix64((seed ^ _SEED_SALT) + (index + 1) * _GOLDEN)


def to_unit(words: np.ndarray) -> np.ndarray:
    """The uniforms on [0,1) of SplitMix64 words: their top 53 bits * 2^-53."""
    return (words >> np.uint64(11)) * (2.0**-53)


def word_chunks(seed: int, n: int, chunk: int, offset: int = 0, finish: bool = True):
    """The SplitMix64 words of draws offset..offset+n-1 of stream seed, at
    most chunk at a time, each with its first draw's position among the n;
    to_unit of the words gives their uniforms.  Two buffers of chunk words
    serve every chunk, so each yielded array is overwritten by the next.
    With finish false the words stop before _fmix64's last step, which
    _last_step then applies to any of them."""
    steps = np.arange(1, min(chunk, n) + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    words = np.empty_like(steps)
    scratch = np.empty_like(steps)
    for start in range(0, n, chunk):
        size = min(chunk, n - start)
        # draw i = offset+start+j has word seed + (i+1)*GOLDEN mod 2^64
        np.add(steps[:size], np.uint64((seed + (offset + start) * _GOLDEN) & _MASK), out=words[:size])
        yield start, _fmix64_inplace(words[:size], scratch[:size], finish)


def uniforms(seed: int, n: int, offset: int = 0) -> np.ndarray:
    """n uniforms on [0,1): draw i is fmix64(seed + (offset+i+1)*GOLDEN) >> 11 * 2^-53."""
    out = np.empty(n)
    # chunked, so the mixing passes run on words in cache
    for start, words in word_chunks(seed, n, 2**14, offset):
        out[start : start + words.size] = to_unit(words)
    return out


def uniform_at(seed: int, index: int) -> float:
    """Scalar counterpart of uniforms(); same value as uniforms(seed, ...)[index]."""
    z = _fmix64(seed + (index + 1) * _GOLDEN)
    return (z >> 11) * (2.0**-53)
